"""Confirmation-bench tests: updating, the three-bet book, repeated trials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branchlab import (
    AncillaCoupled,
    Born,
    Conditionalize,
    CredenceState,
    Deviant,
    Direct,
    Egalitarian,
    Rigid,
    SquaredWeightRenormalized,
    build_dutch_book,
    case_tree,
    conditionalize,
    confirmation_experiment,
    evaluate_book_on_branches,
    evidence_probability,
    posterior,
    weighted_game,
)
from branchlab import confirmation
from branchlab.confirmation import settle_bet
from branchlab.reporting import emit
from confirmation_reference import fraction_weight_experiment, reference_emit, reference_experiment


def worked_credences():
    return CredenceState(
        priors={"T": Fraction(1, 2), "notT": Fraction(1, 2)},
        likelihoods={
            "T": {"A": Fraction(9, 10), "notA": Fraction(1, 10)},
            "notT": {"A": Fraction(1, 2), "notA": Fraction(1, 2)},
        },
    )


def book_credences(pa, pta):
    """A credence state realizing the given p(A) and p(T|A)."""
    return CredenceState(
        priors={"T": pta, "notT": 1 - pta},
        likelihoods={"T": {"A": pa, "notA": 1 - pa}, "notT": {"A": pa, "notA": 1 - pa}},
    )


class TestConditionalize:
    def test_worked_example_nine_fourteenths(self):
        new = conditionalize(worked_credences(), "A")
        assert new.priors["T"] == Fraction(9, 14)

    def test_uninformative_evidence(self):
        cred = CredenceState(
            priors={"T": Fraction(1, 4), "notT": Fraction(3, 4)},
            likelihoods={
                "T": {"A": Fraction(2, 5)},
                "notT": {"A": Fraction(2, 5)},
            },
        )
        assert conditionalize(cred, "A").priors == cred.priors

    def test_dogmatic_prior(self):
        cred = CredenceState(
            priors={"T": 1, "notT": 0},
            likelihoods={"T": {"A": Fraction(1, 3)}, "notT": {"A": Fraction(2, 3)}},
        )
        assert conditionalize(cred, "A").priors["T"] == 1

    def test_zero_probability_evidence(self):
        cred = CredenceState(
            priors={"T": Fraction(1, 2), "notT": Fraction(1, 2)},
            likelihoods={"T": {"A": 0}, "notT": {"A": 0}},
        )
        with pytest.raises(ValueError, match="zero prior probability"):
            conditionalize(cred, "A")

    def test_commutes_for_independent_evidence(self):
        cred = CredenceState(
            priors={"T": Fraction(2, 5), "notT": Fraction(3, 5)},
            likelihoods={
                "T": {"A": Fraction(3, 4), "B": Fraction(1, 3)},
                "notT": {"A": Fraction(1, 4), "B": Fraction(2, 3)},
            },
        )
        ab = conditionalize(conditionalize(cred, "A"), "B")
        ba = conditionalize(conditionalize(cred, "B"), "A")
        assert ab.priors == ba.priors


class TestDutchBook:
    def test_worked_case_loses_a_tenth_everywhere(self):
        cred = book_credences(Fraction(1, 2), Fraction(4, 5))
        book = build_dutch_book(cred, Deviant({("T", "A"): Fraction(3, 5)}), "A", "T", stake=1)
        assert book.guaranteed_net == Fraction(-1, 10)
        tree, assignment = case_tree(book.p_evidence, book.p_conditional)
        nets = evaluate_book_on_branches(book, tree, assignment)
        assert all(net == Fraction(-1, 10) for net in nets.values())

    def test_mirrored_announcement(self):
        cred = book_credences(Fraction(1, 2), Fraction(4, 5))
        book = build_dutch_book(cred, Deviant({("T", "A"): Fraction(9, 10)}), "A", "T", stake=1)
        tree, assignment = case_tree(book.p_evidence, book.p_conditional)
        nets = evaluate_book_on_branches(book, tree, assignment)
        assert all(net == Fraction(-1, 20) for net in nets.values())

    def test_conditionalizer_is_unbookable(self):
        cred = book_credences(Fraction(1, 2), Fraction(4, 5))
        assert build_dutch_book(cred, Conditionalize(), "A", "T") is None

    def test_quotient_parity_yields_no_book(self):
        cred = book_credences(Fraction(1, 2), Fraction(4, 5))
        assert build_dutch_book(cred, Deviant({("T", "A"): Fraction(4, 5)}), "A", "T") is None

    def test_rigid_updater_booked_iff_evidence_matters(self):
        flat = book_credences(Fraction(1, 2), Fraction(4, 5))
        # With evidence-independent likelihoods, p(T|A) = p(T): rigid escapes.
        assert build_dutch_book(flat, Rigid(), "A", "T") is None
        informative = worked_credences()
        book = build_dutch_book(informative, Rigid(), "A", "T")
        assert book is not None
        tree, assignment = case_tree(book.p_evidence, book.p_conditional)
        nets = evaluate_book_on_branches(book, tree, assignment)
        assert all(float(net) < 0 for net in nets.values())

    def test_each_bet_fair_at_placement_time(self):
        cred = book_credences(Fraction(1, 2), Fraction(4, 5))
        book = build_dutch_book(cred, Deviant({("T", "A"): Fraction(3, 5)}), "A", "T")
        r, p, q = book.p_evidence, book.p_conditional, book.announced
        joint = {
            (True, True): r * p,
            (True, False): r * (1 - p),
            (False, False): 1 - r,
            (False, True): Fraction(0),
        }
        for bet in book.bets[:2]:
            assert sum(w * settle_bet(bet, a, t) for (a, t), w in joint.items()) == 0
        post = book.bets[2]
        assert q * settle_bet(post, True, True) + (1 - q) * settle_bet(post, True, False) == 0

    def test_none_book_settles_to_zero(self):
        tree, assignment = case_tree(Fraction(1, 2), Fraction(4, 5))
        nets = evaluate_book_on_branches(None, tree, assignment)
        assert all(net == 0 for net in nets.values())

    @pytest.mark.parametrize("q", [Fraction(7), Fraction(-1, 10)])
    def test_announced_posterior_outside_unit_interval_rejected(self, q):
        cred = book_credences(Fraction(1, 2), Fraction(4, 5))
        with pytest.raises(ValueError, match="announced posterior"):
            build_dutch_book(cred, Deviant({("T", "A"): q}), "A", "T")

    def test_zero_stake(self):
        cred = book_credences(Fraction(1, 2), Fraction(4, 5))
        book = build_dutch_book(cred, Deviant({("T", "A"): Fraction(3, 5)}), "A", "T", stake=0)
        tree, assignment = case_tree(book.p_evidence, book.p_conditional)
        assert all(net == 0 for net in evaluate_book_on_branches(book, tree, assignment).values())

    def test_sure_loss_identity_random_cases(self):
        rng = random.Random(20240808)
        for _ in range(300):
            r = Fraction(rng.randrange(1, 99), 100)
            p = Fraction(rng.randrange(1, 99), 100)
            while True:
                q = Fraction(rng.randrange(0, 101), 100)
                if abs(q - p) >= Fraction(1, 100):
                    break
            book = build_dutch_book(book_credences(r, p), Deviant({("T", "A"): q}), "A", "T")
            tree, assignment = case_tree(book.p_evidence, book.p_conditional)
            nets = evaluate_book_on_branches(book, tree, assignment)
            expected = -abs(p - q) * r
            assert all(net == expected for net in nets.values())
            assert float(expected) <= -float(Fraction(1, 100) ** 2)


THIRD_GAME = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))


def two_theory_credences(rival=(Fraction(9, 10), Fraction(1, 10))):
    return CredenceState(
        priors={"born": Fraction(1, 2), "rival": Fraction(1, 2)},
        likelihoods={
            "born": {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)},
            "rival": {1.0: rival[0], 2.0: rival[1]},
        },
    )


class TestConfirmationExperiment:
    def test_zero_trials_returns_priors(self):
        report = confirmation_experiment(two_theory_credences(), THIRD_GAME, Born(), trials=0)
        assert len(report.rows) == 1
        assert report.rows[0].credences == {"born": Fraction(1, 2), "rival": Fraction(1, 2)}

    def test_identical_likelihoods_never_move(self):
        cred = two_theory_credences(rival=(Fraction(1, 3), Fraction(2, 3)))
        report = confirmation_experiment(cred, THIRD_GAME, Born(), trials=6)
        assert all(row.credences["born"] == Fraction(1, 2) for row in report.rows)

    def test_depth_twenty_concentrates_on_true_theory(self):
        report = confirmation_experiment(two_theory_credences(), THIRD_GAME, Born(), trials=20)
        mass = report.final_mass_above("born", 0.95)
        assert float(mass) > 0.99

    @pytest.mark.parametrize("strategy", [Born(), Egalitarian(1e-6)])
    def test_classes_agree_with_full_enumeration(self, strategy):
        cred = two_theory_credences()
        fast = confirmation_experiment(cred, THIRD_GAME, strategy, trials=8)
        slow = reference_experiment(cred, [(THIRD_GAME, Direct())], strategy, trials=8)

        def as_map(report):
            return {
                row.outcome_class: (row.caring_mass, tuple(sorted(row.credences.items())))
                for row in report.rows_at(8)
            }

        assert as_map(fast) == as_map(slow)

    def test_mean_true_credence_never_decreases(self):
        report = confirmation_experiment(two_theory_credences(), THIRD_GAME, Born(), trials=8)
        means = [report.mean_credence("born", i) for i in range(9)]
        assert all(later >= earlier for earlier, later in zip(means, means[1:]))

    def test_zero_likelihood_branch_freezes(self):
        cred = CredenceState(
            priors={"sure": Fraction(1, 2), "half": Fraction(1, 2)},
            likelihoods={
                "sure": {1.0: Fraction(0), 2.0: Fraction(1)},
                "half": {1.0: Fraction(0), 2.0: Fraction(1)},
            },
        )
        report = confirmation_experiment(cred, THIRD_GAME, Born(), trials=2)
        frozen = [row for row in report.rows if row.frozen]
        assert frozen
        for row in frozen:
            assert row.credences == {"sure": Fraction(1, 2), "half": Fraction(1, 2)}

    def test_zero_likelihoods_on_a_repeated_game_match_reference(self):
        cred = CredenceState(
            priors={"a": Fraction(1, 2), "b": Fraction(1, 2)},
            likelihoods={
                "a": {1.0: Fraction(0), 2.0: Fraction(1)},
                "b": {1.0: Fraction(1, 2), 2.0: Fraction(1, 2)},
            },
        )
        report = confirmation_experiment(cred, THIRD_GAME, Born(), trials=3)
        assert report.rows == reference_experiment(cred, THIRD_GAME, Born(), trials=3).rows

    def test_cycled_depth_thirty_runs(self):
        cycle = [(THIRD_GAME, Direct()), (THIRD_GAME, AncillaCoupled(1, 3))]
        report = confirmation_experiment(two_theory_credences(), cycle, Egalitarian(1e-6), trials=30)
        assert len(report.rows_at(30)) == 31
        assert sum(row.caring_mass for row in report.rows_at(30)) == 1

    def test_posterior_helper(self):
        assert posterior(worked_credences(), "T", "A") == Fraction(9, 14)
        assert evidence_probability(worked_credences(), "A") == Fraction(7, 10)


OUTCOMES = (1.0, 2.0, 3.0)
likelihood_values = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)])


@st.composite
def cycled_games(draw, floats=False):
    """A (game, realization) pair on Fraction (or, if floats, maybe float) weights;
    ancilla:1,3 needs two outcomes."""
    k = draw(st.sampled_from([2, 3]))
    weights = [Fraction(draw(st.integers(1, 5))) for _ in range(k)]
    weights = [w / sum(weights) for w in weights]
    if floats and draw(st.booleans()):
        weights = [float(w) for w in weights]
    game = weighted_game(weights, list(range(k)))
    realization = AncillaCoupled(1, 3) if k == 2 and draw(st.booleans()) else Direct()
    return game, realization


@st.composite
def credence_states(draw):
    """2-3 theories; likelihoods may be 0 and a theory may leave an outcome out."""
    names = [f"t{i}" for i in range(draw(st.integers(2, 3)))]
    raw = [Fraction(draw(st.integers(0, 3))) for _ in names]
    raw[0] += 1
    priors = {name: p / sum(raw) for name, p in zip(names, raw)}
    likelihoods = {
        name: {x: draw(likelihood_values) for x in OUTCOMES if draw(st.integers(0, 9))}
        for name in names
    }
    return CredenceState(priors=priors, likelihoods=likelihoods)


@settings(max_examples=80, deadline=None)
@given(
    cred=credence_states(),
    games=st.lists(cycled_games(), min_size=1, max_size=3),
    strategy=st.sampled_from([Born(), Egalitarian(1e-6), SquaredWeightRenormalized()]),
    trials=st.integers(0, 7),
)
def test_class_recursion_matches_path_enumeration(cred, games, strategy, trials):
    report = confirmation_experiment(cred, games, strategy, trials)
    assert report.rows == reference_experiment(cred, games, strategy, trials).rows


@pytest.mark.parametrize(
    "cred",
    [
        two_theory_credences(),
        CredenceState(
            priors={"a": 1, "b": 0, "c": 0},
            likelihoods={
                "a": {1.0: Fraction(0), 2.0: Fraction(3, 7)},
                "b": {1.0: Fraction(1, 2), 2.0: 1},
                "c": {2.0: Fraction(5, 6)},
            },
        ),
    ],
    ids=["two-theories", "zero-and-missing-likelihoods"],
)
def test_exact_class_weights_are_ints(monkeypatch, cred):
    seen = []
    grow = confirmation._grow

    def recording_grow(classes, step):
        grown = grow(classes, step)
        seen.extend(w for state in (classes, grown) for _, weights in state.values() for w in weights)
        return grown

    monkeypatch.setattr(confirmation, "_grow", recording_grow)
    cycle = [(THIRD_GAME, Direct()), (THIRD_GAME, AncillaCoupled(1, 3))]
    report = confirmation_experiment(cred, cycle, Born(), trials=6)
    assert seen and all(type(w) is int for w in seen)
    assert report.rows == reference_experiment(cred, cycle, Born(), trials=6).rows


def _bits(report):
    """Rows with every number as (type, exact value or float hex)."""

    def bits(v):
        return type(v).__name__, v.hex() if isinstance(v, float) else v

    return [
        (row.iteration, row.outcome_class, bits(row.caring_mass), row.frozen,
         tuple((t, bits(v)) for t, v in row.credences.items()))
        for row in report.rows
    ]


@st.composite
def float_credence_states(draw):
    """Like credence_states, with each prior table and likelihood float or Fraction, at least one float."""
    names = [f"t{i}" for i in range(draw(st.integers(2, 3)))]
    raw = [draw(st.integers(0, 3)) for _ in names]
    raw[0] += 1
    float_priors = draw(st.booleans())
    priors = {name: r / sum(raw) if float_priors else Fraction(r, sum(raw)) for name, r in zip(names, raw)}
    likelihoods = {
        name: {
            x: draw(st.sampled_from([float, Fraction]))(draw(likelihood_values))
            for x in OUTCOMES
            if draw(st.integers(0, 9))
        }
        for name in names
    }
    values = [*priors.values(), *(v for table in likelihoods.values() for v in table.values())]
    if not any(isinstance(v, float) for v in values):
        priors = {name: float(p) for name, p in priors.items()}
    return CredenceState(priors=priors, likelihoods=likelihoods)


@settings(max_examples=80, deadline=None)
@given(
    cred=float_credence_states(),
    games=st.lists(cycled_games(floats=True), min_size=1, max_size=3),
    strategy=st.sampled_from([Born(), Egalitarian(1e-6), SquaredWeightRenormalized()]),
    trials=st.integers(0, 7),
)
def test_float_input_rows_bit_identical_to_fraction_weights(cred, games, strategy, trials):
    report = confirmation_experiment(cred, games, strategy, trials)
    assert _bits(report) == _bits(fraction_weight_experiment(cred, games, strategy, trials))


@st.composite
def renamed_credence_states(draw):
    """Exact, float or mixed credence states whose theory order is not name order;
    some have int priors, 1 on the first theory and 0 elsewhere."""
    cred = draw(st.one_of(credence_states(), float_credence_states()))
    names = dict(zip(cred.theories(), draw(st.permutations(["mid", "zeta", "alpha"]))))
    priors = cred.priors
    if draw(st.integers(0, 4)) == 0:
        priors = {t: int(k == 0) for k, t in enumerate(priors)}
    return CredenceState(
        priors={names[t]: p for t, p in priors.items()},
        likelihoods={names[t]: table for t, table in cred.likelihoods.items()},
    )


@settings(max_examples=80, deadline=None)
@given(
    cred=renamed_credence_states(),
    games=st.lists(cycled_games(floats=True), min_size=1, max_size=3),
    strategy=st.sampled_from([Born(), Egalitarian(1e-6), SquaredWeightRenormalized()]),
    trials=st.integers(0, 8),
)
def test_emit_matches_formatting_every_number_through_fmt_float(cred, games, strategy, trials):
    report = confirmation_experiment(cred, games, strategy, trials)
    for fmt in ("csv", "json", "table"):
        assert emit(report, fmt) == reference_emit(report, fmt)


@pytest.mark.parametrize("strategy", [Born(), Egalitarian(1e-6)], ids=["born", "egalitarian"])
def test_exact_class_masses_are_ints(monkeypatch, strategy):
    seen = []
    grow = confirmation._grow

    def recording_grow(classes, step):
        grown = grow(classes, step)
        seen.extend(m for _, m, _ in step)
        for state in (classes, grown):
            for mass, weights in state.values():
                seen.extend((mass, *weights))
        return grown

    monkeypatch.setattr(confirmation, "_grow", recording_grow)
    cred = two_theory_credences()
    cycle = [(THIRD_GAME, Direct()), (THIRD_GAME, AncillaCoupled(1, 3))]
    report = confirmation_experiment(cred, cycle, strategy, trials=6)
    assert seen and all(type(v) is int for v in seen)
    assert report.rows == reference_experiment(cred, cycle, strategy, trials=6).rows


@pytest.mark.parametrize("strategy", [Born(), Egalitarian(1e-6)], ids=["born", "egalitarian"])
def test_credences_read_back_as_fractions(strategy):
    cred = CredenceState(
        priors={"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)},
        likelihoods={
            "a": {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)},
            "b": {1.0: Fraction(0), 2.0: Fraction(1)},
            "c": {2.0: Fraction(1, 2)},
        },
    )
    report = confirmation_experiment(cred, THIRD_GAME, strategy, trials=5)
    reference = reference_experiment(cred, THIRD_GAME, strategy, trials=5)
    assert len(report.rows) == len(reference.rows)
    for row, want in zip(report.rows, reference.rows):
        assert type(row.caring_mass) is Fraction and row.caring_mass == want.caring_mass
        assert list(row.credences) == list(want.credences) == ["a", "b", "c"]
        for t in want.credences:
            assert type(row.credences[t]) is Fraction and row.credences[t] == want.credences[t]
        assert dict(row.credences) == want.credences and row.credences == want.credences
    with pytest.raises(TypeError):
        report.rows[-1].credences["a"] = Fraction(1)
