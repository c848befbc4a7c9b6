"""Decision-kernel tests: evaluation, axioms, event comparison, extraction."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchlab import (
    Act,
    AxiomError,
    Comparison,
    Infeasible,
    PreferenceRelation,
    Representation,
    Setup,
    all_acts,
    all_events,
    check_axioms,
    expected_utility,
    extract_representation,
    generate_preferences,
    qualitative_probability,
)
from branchlab import decision
from branchlab.decision import (
    _Extractor,
    orderings_match,
    preferences_from_json_dict,
    preferences_to_json_dict,
    representation_roundtrip_sweep,
)
from decision_reference import (
    reference_check_axioms,
    reference_pair_matrix,
    reference_ranks,
    reference_tiers,
)

TWO = Setup("fission", ("s1", "s2"), ("c1", "c2"))


def rep(p, u):
    return Representation(probability=p, utility=u)


class TestExpectedUtility:
    def test_constant_act(self):
        r = rep({"s1": Fraction(1, 4), "s2": Fraction(3, 4)}, {"c1": 7, "c2": 0})
        act = Act.constant(TWO, "c1")
        assert expected_utility(act, r) == 7

    def test_weighted_mix(self):
        r = rep({"s1": Fraction(1, 3), "s2": Fraction(2, 3)}, {"c1": 10, "c2": 0})
        act = Act.from_mapping({"s1": "c1", "s2": "c2"})
        assert expected_utility(act, r) == Fraction(10, 3)

    def test_uniform_two_state(self):
        r = rep({"s1": Fraction(1, 2), "s2": Fraction(1, 2)}, {"c1": 0, "c2": 1})
        act = Act.from_mapping({"s1": "c1", "s2": "c2"})
        assert expected_utility(act, r) == Fraction(1, 2)

    def test_missing_state_raises(self):
        r = rep({"s1": 1.0}, {"c1": 1})
        with pytest.raises(KeyError):
            expected_utility(Act.from_mapping({"sX": "c1"}), r)

    def test_affine_invariance_of_ordering(self):
        base = rep(
            {"s1": Fraction(2, 7), "s2": Fraction(5, 7)},
            {"c1": Fraction(-3), "c2": Fraction(4)},
        )
        shifted = rep(
            base.probability,
            {c: Fraction(5, 2) * u + 11 for c, u in base.utility.items()},
        )
        tiers_a = [
            [a.assignment for a in tier]
            for tier in generate_preferences(TWO, base).tiers()
        ]
        tiers_b = [
            [a.assignment for a in tier]
            for tier in generate_preferences(TWO, shifted).tiers()
        ]
        assert tiers_a == tiers_b


class TestCheckAxioms:
    def test_eu_generated_preferences_pass(self):
        r = rep({"s1": Fraction(1, 3), "s2": Fraction(2, 3)}, {"c1": 0, "c2": 1})
        assert check_axioms(generate_preferences(TWO, r)) == []

    def test_strict_cycle_detected(self):
        acts = [
            Act.from_mapping({"s1": "c1", "s2": "c1"}),
            Act.from_mapping({"s1": "c1", "s2": "c2"}),
            Act.from_mapping({"s1": "c2", "s2": "c1"}),
        ]
        prefs = PreferenceRelation.from_pairs(
            TWO, acts, [(acts[0], acts[1]), (acts[1], acts[2]), (acts[2], acts[0])]
        )
        violations = check_axioms(prefs)
        assert any(v.kind == "transitivity" for v in violations)

    def test_dominance_violation_detected(self):
        good, bad = Act.constant(TWO, "c1"), Act.constant(TWO, "c2")
        mixed = Act.from_mapping({"s1": "c1", "s2": "c2"})
        # mixed state-wise weakly beats the all-bad act, yet is ranked below it
        prefs = PreferenceRelation.from_tiers(TWO, [[good], [bad], [mixed]])
        violations = check_axioms(prefs)
        assert any(
            v.kind == "dominance" and v.acts == (mixed, bad) for v in violations
        )

    def test_totality_enforced(self):
        acts = [Act.constant(TWO, "c1"), Act.constant(TWO, "c2")]
        with pytest.raises(ValueError, match="total"):
            PreferenceRelation(TWO, tuple(acts), frozenset())

    def test_unlisted_consequence_rejected(self):
        acts = [Act.constant(TWO, "c1"), Act.from_mapping({"s1": "c1", "s2": "c9"})]
        with pytest.raises(ValueError, match="does not list"):
            PreferenceRelation.from_tiers(TWO, [acts])


@st.composite
def relations(draw):
    """Small relations over a random act subset: consistent tier lists, or
    arbitrary total relations given as index pairs (cycles included)."""
    ns, nc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    setup = Setup("fission", tuple(f"s{i}" for i in range(ns)), tuple(f"c{i}" for i in range(nc)))
    universe = all_acts(setup)
    keep = draw(st.lists(st.booleans(), min_size=len(universe), max_size=len(universe)))
    acts = draw(st.permutations([a for a, k in zip(universe, keep) if k]))
    n = len(acts)
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        tiers = [[a for a, lev in zip(acts, levels) if lev == k] for k in range(4)]
        return PreferenceRelation.from_tiers(setup, [t for t in tiers if t])
    pairs = set()
    for i, j in itertools.combinations(range(n), 2):
        way = draw(st.sampled_from(("forward", "backward", "both")))
        if way != "backward":
            pairs.add((i, j))
        if way != "forward":
            pairs.add((j, i))
    return PreferenceRelation(setup, tuple(acts), frozenset(pairs))


class TestMatrixEncodingMatchesPairSets:
    @settings(max_examples=300, deadline=None)
    @given(relations())
    def test_against_pair_set_reference(self, prefs):
        assert check_axioms(prefs) == reference_check_axioms(prefs)
        assert prefs.ranks() == reference_ranks(prefs)
        try:
            expected = reference_tiers(prefs)
        except AxiomError as exc:
            with pytest.raises(AxiomError) as got:
                prefs.tiers()
            assert got.value.violations == exc.violations
            return
        tiers = prefs.tiers()
        assert tiers == expected
        setup = prefs.setup
        if len(tiers) < 2 or not all(prefs.contains(Act.constant(setup, c)) for c in setup.consequences):
            return
        extractor = _Extractor(prefs, tiers)
        shape = (0, len(setup.states), len(setup.consequences))
        for got, pairs in ((extractor.S, extractor.strict_pairs), (extractor.T, extractor.tie_pairs)):
            want = [reference_pair_matrix(a, b, setup.states, setup.consequences) for a, b in pairs]
            assert np.array_equal(got, np.stack(want) if want else np.zeros(shape))

    def test_extraction_checks_axioms_once(self, monkeypatch):
        calls = []
        original = decision.check_axioms

        def counted(prefs):
            calls.append(prefs)
            return original(prefs)

        monkeypatch.setattr(decision, "check_axioms", counted)
        r = rep({"s1": Fraction(1, 3), "s2": Fraction(2, 3)}, {"c1": 0, "c2": 1})
        assert isinstance(extract_representation(generate_preferences(TWO, r)), Representation)
        assert len(calls) == 1


class TestQualitativeProbability:
    def prefs(self):
        setup = Setup("fission", ("s1", "s2", "s3"), ("win", "lose"))
        r = rep(
            {"s1": Fraction(7, 10), "s2": Fraction(2, 10), "s3": Fraction(1, 10)},
            {"win": 1, "lose": 0},
        )
        return setup, r, generate_preferences(setup, r)

    def test_identical_events(self):
        setup, _, prefs = self.prefs()
        assert qualitative_probability(prefs, {"s1"}, {"s1"}) == Comparison.HIGHER_OR_EQUAL

    def test_majority_state_beats_the_rest(self):
        setup, _, prefs = self.prefs()
        assert (
            qualitative_probability(prefs, {"s1"}, {"s2", "s3"})
            == Comparison.HIGHER_OR_EQUAL
        )
        assert qualitative_probability(prefs, {"s2"}, {"s1"}) == Comparison.LOWER

    def test_absent_acts_incomparable(self):
        setup, r, _ = self.prefs()
        consts = [Act.constant(setup, "win"), Act.constant(setup, "lose")]
        sparse = PreferenceRelation.from_tiers(setup, [[consts[0]], [consts[1]]])
        assert qualitative_probability(sparse, {"s1"}, {"s2"}) == Comparison.INCOMPARABLE

    def test_agrees_with_numeric_probability_on_all_event_pairs(self):
        setup, r, prefs = self.prefs()
        for ea, eb in itertools.product(all_events(setup), repeat=2):
            verdict = qualitative_probability(prefs, ea, eb)
            pa = sum(r.probability[s] for s in ea)
            pb = sum(r.probability[s] for s in eb)
            if verdict == Comparison.HIGHER_OR_EQUAL:
                assert pa >= pb
            else:
                assert verdict == Comparison.LOWER and pa < pb


class TestExtraction:
    def test_worked_two_state_instance(self):
        r = rep({"s1": Fraction(1, 3), "s2": Fraction(2, 3)}, {"c1": 0, "c2": 1})
        prefs = generate_preferences(TWO, r)
        out = extract_representation(prefs)
        assert isinstance(out, Representation)
        assert out.probability["s1"] == pytest.approx(1 / 3, abs=1e-6)
        assert out.probability["s2"] == pytest.approx(2 / 3, abs=1e-6)
        assert orderings_match(prefs, out)

    def test_constant_acts_only_returns_uniform(self):
        consts = [[Act.constant(TWO, "c2")], [Act.constant(TWO, "c1")]]
        prefs = PreferenceRelation.from_tiers(TWO, consts)
        out = extract_representation(prefs)
        assert out.probability == {"s1": 0.5, "s2": 0.5}
        assert out.utility == {"c1": 0.0, "c2": 1.0}

    def test_single_indifference_class(self):
        consts = [[Act.constant(TWO, "c1"), Act.constant(TWO, "c2")]]
        prefs = PreferenceRelation.from_tiers(TWO, consts)
        out = extract_representation(prefs)
        assert out.utility == {"c1": 0.0, "c2": 0.0}
        assert out.probability == {"s1": 0.5, "s2": 0.5}

    def test_intransitive_input_rejected(self):
        acts = [
            Act.constant(TWO, "c1"),
            Act.constant(TWO, "c2"),
            Act.from_mapping({"s1": "c1", "s2": "c2"}),
        ]
        prefs = PreferenceRelation.from_pairs(
            TWO, acts, [(acts[0], acts[1]), (acts[1], acts[2]), (acts[2], acts[0])]
        )
        with pytest.raises(AxiomError):
            extract_representation(prefs)

    def test_unrepresentable_ordering_gets_witness(self):
        # A qualitative-probability cycle: the singleton bets demand
        # p1 > p2 while the pair bets demand p2 > p1.  Transitive, total,
        # dominance-clean, and EU-infeasible.
        setup = Setup("fission", ("s1", "s2", "s3"), ("win", "lose"))

        def bet(event):
            return Act.from_mapping(
                {s: ("win" if s in event else "lose") for s in setup.states}
            )

        tiers = [
            [Act.constant(setup, "win")],
            [bet({"s2", "s3"})],
            [bet({"s1", "s3"})],
            [bet({"s1"})],
            [bet({"s2"})],
            [bet({"s3"})],
            [Act.constant(setup, "lose")],
        ]
        prefs = PreferenceRelation.from_tiers(setup, tiers)
        assert check_axioms(prefs) == []
        out = extract_representation(prefs)
        assert isinstance(out, Infeasible)
        assert len(out.witness) == 2

    def test_requires_all_constant_acts(self):
        r = rep({"s1": Fraction(1, 3), "s2": Fraction(2, 3)}, {"c1": 0, "c2": 1})
        prefs = generate_preferences(TWO, r)
        trimmed = [
            [a for a in tier if a != Act.constant(TWO, "c1")] for tier in prefs.tiers()
        ]
        trimmed = [tier for tier in trimmed if tier]
        with pytest.raises(ValueError, match="constant act"):
            extract_representation(PreferenceRelation.from_tiers(TWO, trimmed))

    def test_roundtrip_sample(self):
        results = representation_roundtrip_sweep(12, seed=42)
        assert all(r["ok"] for r in results)

    def test_sweep_computes_each_drawn_eu_once(self, monkeypatch):
        drawn, seen = [], []
        draw, original = decision.random_representation, decision.expected_utility

        def recorded_draw(*args):
            setup, r = draw(*args)
            drawn.append(r)  # keeps every id below alive and distinct
            return setup, r

        def recorded(act, r):
            seen.append((act.assignment, id(r)))
            return original(act, r)

        monkeypatch.setattr(decision, "random_representation", recorded_draw)
        monkeypatch.setattr(decision, "expected_utility", recorded)
        assert all(r["ok"] for r in representation_roundtrip_sweep(4, seed=0))
        ids = {id(r) for r in drawn}
        calls = [call for call in seen if call[1] in ids]
        assert calls and len(set(calls)) == len(calls)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
    def test_sweep_refuses_over_cap_sizes_before_drawing(self, monkeypatch, seed):
        def no_draws(*args):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(decision, "random_representation", no_draws)
        with pytest.raises(ValueError, match="acts, over the 100000"):
            representation_roundtrip_sweep(1, seed=seed, max_states=9, max_consequences=9)
        with pytest.raises(ValueError, match="acts, over the 100000"):
            representation_roundtrip_sweep(1, seed=seed, max_states=10**9, max_consequences=2)

    def test_roundtrip_with_repeated_utility_levels(self):
        # Utilities drawn from {0, 1, 2} tie acts and put several consequences
        # in one class, so the tie rows T and the relaxation's within-class
        # rows are filled, which the strict sweep never does.
        rng = random.Random(0)
        for _ in range(60):
            ns, nc = rng.randrange(2, 4), rng.randrange(2, 5)
            setup = Setup(
                "fission",
                tuple(f"s{i}" for i in range(1, ns + 1)),
                tuple(f"c{i}" for i in range(1, nc + 1)),
            )
            raw = [rng.randrange(1, 6) for _ in range(ns)]
            r = rep(
                {s: Fraction(k, sum(raw)) for s, k in zip(setup.states, raw)},
                {c: Fraction(rng.randrange(3)) for c in setup.consequences},
            )
            prefs = generate_preferences(setup, r)
            out = extract_representation(prefs)
            assert isinstance(out, Representation), (raw, r.utility, out)
            assert orderings_match(prefs, out), (raw, r.utility, out)

    def test_every_lp_goes_through_margin_lp(self, monkeypatch):
        import scipy.optimize

        counts = {"linprog": 0, "margin": 0}
        linprog, margin_lp = scipy.optimize.linprog, decision._margin_lp

        def counted_linprog(*args, **kwargs):
            counts["linprog"] += 1
            return linprog(*args, **kwargs)

        def counted_margin_lp(*args, **kwargs):
            counts["margin"] += 1
            return margin_lp(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counted_linprog)
        monkeypatch.setattr(decision, "_margin_lp", counted_margin_lp)
        setup = Setup("fission", ("s1", "s2", "s3"), ("c1", "c2", "c3"))
        r = rep(
            {"s1": Fraction(1, 6), "s2": Fraction(1, 3), "s3": Fraction(1, 2)},
            {"c1": Fraction(0), "c2": Fraction(3, 7), "c3": Fraction(1)},
        )
        assert isinstance(extract_representation(generate_preferences(setup, r)), Representation)
        assert counts["linprog"] == counts["margin"] > 0


class TestPreferenceJson:
    def test_round_trip(self):
        r = rep({"s1": Fraction(1, 3), "s2": Fraction(2, 3)}, {"c1": 0, "c2": 1})
        prefs = generate_preferences(TWO, r)
        doc = preferences_to_json_dict(prefs)
        back = preferences_from_json_dict(doc)
        assert back.setup == prefs.setup
        assert [len(t) for t in back.tiers()] == [len(t) for t in prefs.tiers()]

    def test_bare_tier_list_accepted(self):
        doc = [
            [{"s1": "c2", "s2": "c2"}],
            [{"s1": "c1", "s2": "c2"}],
            [{"s1": "c2", "s2": "c1"}],
            [{"s1": "c1", "s2": "c1"}],
        ]
        prefs = preferences_from_json_dict(doc)
        assert prefs.setup.states == ("s1", "s2")
        assert len(prefs.acts) == 4

    @pytest.mark.parametrize(
        "tiers",
        [[[{"s1": "c1", "s2": "c1"}], {"s1": "c2", "s2": "c2"}], [[{"s1": "c1", "s2": "c1"}], ["c2"]]],
        ids=["tier-not-a-list", "act-not-an-object"],
    )
    def test_malformed_tiers_rejected(self, tiers):
        with pytest.raises(ValueError):
            preferences_from_json_dict(tiers)

    def test_enumeration_caps(self):
        big = Setup("chance", tuple(f"s{i}" for i in range(13)), ("c",))
        with pytest.raises(ValueError):
            all_events(big)
        huge = Setup("chance", tuple(f"s{i}" for i in range(9)), tuple(f"c{i}" for i in range(9)))
        with pytest.raises(ValueError):
            all_acts(huge)
