"""Staged-check tests: the value ladder and the regraining demonstration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import branchlab.verifier
from branchlab import (
    AncillaCoupled,
    Born,
    Direct,
    Egalitarian,
    EigenvalueWeighted,
    RotationConfig,
    SquaredWeightRenormalized,
    TablePreference,
    born_weights,
    branch,
    caring_measure,
    egalitarian_incoherence_demo,
    equal_game,
    reduce_by_pairwise_coupling,
    value_game,
    verify_stage1,
    verify_stage2,
    verify_stage3,
    verify_stage_general,
    weighted_game,
)
from branchlab.verifier import DEMO_SEED, StageReport, default_demo_game, verify_stage2_sweep


class TestStage1:
    def test_born_exact(self):
        report = verify_stage1(Born(), payoffs=[(Fraction(0), Fraction(1))])
        assert report.passed and report.residual == 0.0
        assert report.cases[0]["value"] == 0.5

    def test_egalitarian_exact(self):
        report = verify_stage1(Egalitarian(1e-6), payoffs=[(Fraction(0), Fraction(1))])
        assert report.passed and report.residual == 0.0

    def test_constant_payoff(self):
        report = verify_stage1(Born(), payoffs=[(Fraction(7), Fraction(7))])
        assert report.cases[0]["value"] == 7.0 and report.residual == 0.0

    def test_default_sweep_size(self):
        report = verify_stage1(Born())
        assert len(report.cases) == 102  # two pinned cases plus the sweep
        assert report.passed

    def test_eigenvalue_strategy_fails(self):
        report = verify_stage1(EigenvalueWeighted(), payoffs=[(Fraction(0), Fraction(1))])
        assert not report.passed


class TestStage2:
    def test_born_specific_values(self):
        report = verify_stage2(Born(), 3, payoffs=[(Fraction(0), Fraction(0), Fraction(3))])
        assert report.cases[0]["value"] == 1.0 and report.residual == 0.0

    def test_constant(self):
        report = verify_stage2(Born(), 5, payoffs=[(Fraction(2),) * 5])
        assert report.cases[0]["value"] == 2.0

    def test_egalitarian_passes(self):
        report = verify_stage2(Egalitarian(1e-6), 4, payoffs=[(0, 0, 0, 4)])
        assert report.passed and report.cases[0]["value"] == 1.0

    def test_sweep_all_n(self):
        for n in range(2, 17):
            assert verify_stage2(Born(), n, payoff_count=5).passed


class TestStage3:
    def test_born_one_third(self):
        report = verify_stage3(Born(), 1, 3, payoffs=((10, 0),))
        case = report.cases[0]
        assert report.passed
        assert case["ancilla_value"] == case["direct_value"] == pytest.approx(10 / 3)
        assert case["mn_delta"] == 0.0

    def test_egalitarian_one_third(self):
        report = verify_stage3(Egalitarian(1e-6), 1, 3, payoffs=((10, 0),))
        case = report.cases[0]
        assert not report.passed
        assert case["direct_value"] == 5.0
        assert case["ancilla_value"] == pytest.approx(10 / 3)
        assert case["mn_delta"] == 5 / 3

    def test_half_reduces_to_stage1(self):
        report = verify_stage3(Egalitarian(1e-6), 1, 2, payoffs=((0, 1),))
        assert report.passed and report.residual == 0.0

    def test_born_all_ratios_up_to_twelve(self):
        for n in range(2, 13):
            for m in range(1, n):
                assert verify_stage3(Born(), m, n).passed

    def test_stage3_pass_implies_amplitude_squared_values(self):
        # A strategy passing the ladder with zero realization gap must price
        # every rational two-outcome game at its weighted mean; checked by
        # enumeration for the reference strategy.
        for n in range(2, 9):
            for m in range(1, n):
                game = weighted_game((Fraction(m, n), Fraction(n - m, n)), (10, 0))
                weights = born_weights(game)
                expected = float(sum(w * Fraction(game.payoff.utility(x)) for x, w in weights.items()))
                assert value_game(Born(), game, Direct()) == expected


class TestStageGeneral:
    def test_irrational_weight_converges(self):
        report = verify_stage_general(Born(), 1 / math.sqrt(2), 1e-4, payoff=(1, 0))
        assert report.passed and not report.inconclusive
        assert report.residual <= 1e-4
        residuals = [case["residual"] for case in report.cases]
        assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_rational_point_exact(self):
        report = verify_stage_general(Born(), 0.5, 1e-12, payoff=(1, 0))
        assert report.passed and report.residual == 0.0

    def test_one_third_value(self):
        report = verify_stage_general(Born(), 1 / 3, 1e-9, payoff=(10, 0))
        assert report.passed
        assert report.cases[-1]["ancilla_value"] == pytest.approx(10 / 3, abs=1e-9)

    def test_cap_exhaustion_is_inconclusive(self):
        report = verify_stage_general(Born(), 1 / math.sqrt(2), 1e-15, max_denominator=8)
        assert not report.passed and report.inconclusive
        assert report.verdict == "inconclusive"

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError):
            verify_stage_general(Born(), 1.5, 1e-4)


class TestPairwiseReduction:
    def test_three_outcome_game_prices_at_weighted_mean(self):
        game = weighted_game(
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), (12, 6, 0)
        )
        value, steps = reduce_by_pairwise_coupling(Born(), game)
        assert value == pytest.approx(float(Fraction(1, 6) * 12 + Fraction(1, 3) * 6))
        assert len(steps) == 2
        # Heaviest outcome is split off first.
        assert steps[0]["head_outcome"] == 3.0

    def test_equal_four_outcomes(self):
        value, _ = reduce_by_pairwise_coupling(Born(), equal_game(4, (4, 0, 0, 0)))
        assert value == pytest.approx(1.0)

    def test_requires_rational_weights(self):
        game = weighted_game((Fraction(1, 2), Fraction(1, 2)), (1, 0))
        from branchlab.games import Amplitude, PureState, QuantumGame

        irrational = QuantumGame(
            PureState(
                game.state.basis_labels,
                (Amplitude(math.sqrt(0.5)), Amplitude(math.sqrt(0.5))),
            ),
            game.observable,
            game.payoff,
        )
        with pytest.raises(ValueError, match="rational"):
            reduce_by_pairwise_coupling(Born(), irrational)


class TestIncoherenceDemo:
    def test_default_regression_scenario(self):
        report = egalitarian_incoherence_demo(default_demo_game())
        assert report.passed
        initial, final = report.cases[0], report.cases[-1]
        assert initial["counts"] != final["counts"]
        assert initial["egalitarian_value"] == 5.0
        assert final["egalitarian_value"] == pytest.approx(6.0)
        assert final["born_value"] == initial["born_value"] == pytest.approx(10 / 3)

    def test_empty_schedule_changes_nothing(self):
        report = egalitarian_incoherence_demo(default_demo_game(), schedule=())
        assert not report.passed  # nothing moved, so no instability shown
        assert len(report.cases) == 1

    def test_full_coarse_grain_restores_counts(self):
        schedule = (
            RotationConfig(epsilon=1e-3, pair_schedule=None, seed=DEMO_SEED),
            8,
        )
        report = egalitarian_incoherence_demo(default_demo_game(), schedule=schedule)
        assert report.cases[-1]["counts"] == {"1.0": 1, "2.0": 1}
        assert report.cases[-1]["egalitarian_value"] == 5.0

    def test_weights_conserved_in_every_case(self):
        report = egalitarian_incoherence_demo(default_demo_game())
        for case in report.cases:
            assert case["outcome_weights"]["1.0"] == pytest.approx(1 / 3, abs=1e-9)
            assert case["outcome_weights"]["2.0"] == pytest.approx(2 / 3, abs=1e-9)

    def test_report_json_schema(self):
        report = egalitarian_incoherence_demo(default_demo_game())
        doc = report.to_json_dict()
        assert set(doc) >= {"stage", "pass", "residual", "cases"}
        assert doc["stage"] == "EgalitarianDemo"


class TestMerge:
    def test_merge_combines_verdicts(self):
        parts = [
            StageReport("S4to6", True, 0.5, "a", ({"k": 1},)),
            StageReport("S4to6", False, 0.25, "b", ({"k": 2},), inconclusive=True),
        ]
        merged = StageReport.merge(parts)
        assert merged == StageReport(
            "S4to6", False, 0.5, "a ; b", ({"k": 1}, {"k": 2}), inconclusive=True
        )
        assert StageReport.merge(parts[:1], details="one").details == "one"


# -- One tree per stage check, every payoff priced against its care -----------


def per_payoff_value(strategy, game, realization):
    """The per-payoff path: build and branch the game, take care, value it."""
    tree = branch(game, realization)
    total = Fraction(0)
    for outcome, mass in sorted(caring_measure(strategy, tree).by_outcome().items()):
        u = game.payoff.utility(outcome)
        total = total + mass * (u if isinstance(u, (int, Fraction)) else Fraction(u))
    return total


CARING = st.sampled_from([Born(), Egalitarian(1e-6), SquaredWeightRenormalized(), EigenvalueWeighted()])
UTILITY = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


class TestOneTreePerCheck:
    @settings(max_examples=60, deadline=None)
    @given(CARING, st.lists(st.tuples(UTILITY, UTILITY), min_size=1, max_size=4))
    def test_stage1_matches_per_payoff_path(self, strategy, payoffs):
        report = verify_stage1(strategy, payoffs=payoffs)
        for us, case in zip(payoffs, report.cases):
            assert case["value"] == float(per_payoff_value(strategy, equal_game(2, us), Direct()))

    @settings(max_examples=60, deadline=None)
    @given(CARING, st.integers(2, 12).flatmap(
        lambda n: st.lists(st.lists(UTILITY, min_size=n, max_size=n), min_size=1, max_size=4)
    ))
    def test_stage2_matches_per_payoff_path(self, strategy, payoffs):
        n = len(payoffs[0])
        report = verify_stage2(strategy, n, payoffs=payoffs)
        for us, case in zip(payoffs, report.cases):
            assert case["value"] == float(per_payoff_value(strategy, equal_game(n, us), Direct()))

    @settings(max_examples=60, deadline=None)
    @given(
        CARING,
        st.integers(2, 12).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))),
        st.lists(st.tuples(UTILITY, UTILITY), min_size=1, max_size=4),
    )
    def test_stage3_matches_per_payoff_path(self, strategy, mn, payoffs):
        m, n = mn
        report = verify_stage3(strategy, m, n, payoffs=payoffs)
        for us, case in zip(payoffs, report.cases):
            game = weighted_game((Fraction(m, n), Fraction(n - m, n)), us)
            assert case["ancilla_value"] == float(per_payoff_value(strategy, game, AncillaCoupled(m, n)))
            assert case["direct_value"] == float(per_payoff_value(strategy, game, Direct()))

    @pytest.mark.parametrize(
        "check, branches",
        [
            (lambda count: verify_stage1(Born(), payoff_count=count), 1),
            (lambda count: verify_stage2(Egalitarian(1e-6), 9, payoff_count=count), 1),
            (lambda count: verify_stage3(Born(), 2, 7, payoffs=[(count, 1)] * count), 2),
        ],
        ids=["stage1", "stage2", "stage3"],
    )
    def test_branches_once_whatever_the_payoff_count(self, monkeypatch, check, branches):
        calls = []

        def counting_branch(*args, **kwargs):
            calls.append(args)
            return branch(*args, **kwargs)

        monkeypatch.setattr(branchlab.verifier, "branch", counting_branch)
        for count in (1, 25):
            calls.clear()
            assert len(check(count).cases) >= count
            assert len(calls) == branches

    def test_unequal_care_still_fails_stage2(self):
        assert not verify_stage2(EigenvalueWeighted(), 5, payoff_count=3).passed
        assert verify_stage2(SquaredWeightRenormalized(), 5, payoff_count=3).passed

    @pytest.mark.parametrize(
        "check",
        [
            lambda t: verify_stage1(t, payoffs=[(0, 1)]),
            lambda t: verify_stage2(t, 3, payoffs=[(0, 1, 2)]),
            lambda t: verify_stage3(t, 1, 3),
        ],
        ids=["stage1", "stage2", "stage3"],
    )
    def test_table_preference_has_no_caring_measure(self, check):
        with pytest.raises(ValueError, match="table preference"):
            check(TablePreference(order=()))

    @pytest.mark.parametrize(
        "check",
        [
            lambda: verify_stage1(Born(), payoff_count=0),
            lambda: verify_stage1(Born(), payoffs=[]),
            lambda: verify_stage2(Born(), 4, payoff_count=0),
            lambda: verify_stage2(Born(), 4, payoff_count=-3),
            lambda: verify_stage2(Born(), 4, payoffs=[]),
            lambda: verify_stage2_sweep(Born(), 4, payoff_count=0),
            lambda: verify_stage3(Born(), 1, 3, payoffs=()),
        ],
        ids=[
            "stage1-count-0", "stage1-empty", "stage2-count-0", "stage2-count-negative",
            "stage2-empty", "stage2-sweep-count-0", "stage3-empty",
        ],
    )
    def test_no_payoffs_is_rejected(self, check):
        with pytest.raises(ValueError):
            check()

    @pytest.mark.parametrize(
        "check",
        [
            lambda: verify_stage1(Born(), payoffs=[(0, 1), (0, 1, 2)]),
            lambda: verify_stage2(Born(), 3, payoffs=[(0, 1, 2), (0, 1)]),
            lambda: verify_stage3(Born(), 1, 3, payoffs=[(0, 1), (5,)]),
        ],
        ids=["stage1", "stage2", "stage3"],
    )
    def test_every_payoff_needs_one_utility_per_outcome(self, check):
        with pytest.raises(ValueError, match="one utility per outcome"):
            check()


@pytest.mark.parametrize(
    "strategy, passed",
    [(Born(), True), (Egalitarian(), False), (SquaredWeightRenormalized(), False)],
    ids=["born", "egalitarian", "squared"],
)
def test_general_stage_folds_in_the_realization_gap(strategy, passed):
    """Egalitarian and squared care converge on the target through the
    register, yet their direct values differ from it (mn_delta), as at stage
    3: the general stage fails them, whatever the cap, and passes Born."""
    report = verify_stage_general(strategy, 1 / math.sqrt(2), 1e-4, payoff=(10, 0), max_denominator=4096)
    gap = max(case["mn_delta"] for case in report.cases)
    assert report.verdict == ("pass" if passed else "fail")
    assert report.residual >= gap and (gap == 0) is passed
