"""Care as a measure over outcomes: masses, exact pricing, realization gaps."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from branchlab import (
    AncillaCoupled,
    Born,
    Direct,
    Egalitarian,
    EigenvalueWeighted,
    RotationConfig,
    SquaredWeightRenormalized,
    branch,
    caring_measure,
    coarse_grain,
    extend,
    game_from_json,
    game_to_json,
    mn_violation,
    rotate_basis,
    verify_stage1,
    verify_stage2,
    verify_stage3,
    weighted_game,
)
from branchlab.strategies import _value_game_exact
from caring_reference import keyed_by_outcome

STRATEGIES = [Born(), Egalitarian(1e-9), SquaredWeightRenormalized(), EigenvalueWeighted()]


def _float_backed(game):
    return game_from_json(game_to_json(game))


def _rotated(tree, seed=5):
    return rotate_basis(tree, RotationConfig(epsilon=1e-3, pair_schedule=None, seed=seed))


TREES = {
    "direct": lambda g: branch(g, Direct(), fine_dim=8),
    "ancilla": lambda g: branch(g, AncillaCoupled(3, 7), fine_dim=4),
    "rotated": lambda g: _rotated(branch(g, AncillaCoupled(2, 5), fine_dim=8)),
    "coarse": lambda g: coarse_grain(_rotated(branch(g, Direct(), fine_dim=8)), 4),
    "extended": lambda g: extend(branch(g, Direct(), fine_dim=2), g, AncillaCoupled(1, 3)),
}

GAMES = {
    "fraction": weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0), eigenvalues=(2.5, -1.0)),
    "float": _float_backed(weighted_game((Fraction(2, 7), Fraction(5, 7)), (1, 4))),
    "degenerate": weighted_game((Fraction(3, 8), Fraction(5, 8)), (6, 6), eigenvalues=(4.0, 4.0)),
}


def assert_masses_match_keyed_care(strategy, tree):
    masses = caring_measure(strategy, tree).masses
    reference = keyed_by_outcome(strategy, tree)
    assert list(masses) == sorted(reference)
    for x, mass in masses.items():
        # Equal type and repr: equal value, and for floats equal bits.
        assert (type(mass), repr(mass)) == (type(reference[x]), repr(reference[x]))


class TestMassesMatchKeyedCare:
    @pytest.mark.parametrize("tree_name", sorted(TREES))
    @pytest.mark.parametrize("game_name", sorted(GAMES))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: type(s).__name__)
    def test_named_trees(self, strategy, game_name, tree_name):
        assert_masses_match_keyed_care(strategy, TREES[tree_name](GAMES[game_name]))

    def test_float_game_masses_are_floats(self):
        tree = TREES["rotated"](GAMES["float"])
        assert all(type(m) is float for m in caring_measure(Born(), tree).masses.values())
        assert len(tree.leaves) > len(caring_measure(Born(), tree).masses)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([(1.0, 2.0), (3.0, -2.0), (-0.5, -0.5), (0.0, 7.0)]),
        st.booleans(),
        st.sampled_from(sorted(TREES)),
        st.sampled_from(STRATEGIES),
    )
    def test_random_trees(self, a, b, eigenvalues, float_backed, tree_name, strategy):
        weights = (Fraction(a, a + b), Fraction(b, a + b))
        game = weighted_game(weights, (1, 2), eigenvalues=eigenvalues)
        if float_backed:
            game = _float_backed(game)
        assert_masses_match_keyed_care(strategy, TREES[tree_name](game))


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# Summed in floats, this payoff's mean misses Born's exact value by 2.9e-11.
LOST_BITS = [
    -176692.42883008532, 663324.6035614747, -780635.1890810581, 33124.88550379686, -912165.3916044157
]


class TestFloatUtilitiesPriceExactly:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(FINITE, min_size=2, max_size=8), st.integers(2, 9), st.integers(1, 8))
    @example(LOST_BITS, 5, 2)
    def test_born_passes_every_equal_and_rational_stage(self, utilities, n, m):
        pair = (utilities[0], utilities[1])
        reports = [
            verify_stage1(Born(), payoffs=[pair]),
            verify_stage2(Born(), len(utilities), payoffs=[tuple(utilities)]),
            verify_stage3(Born(), min(m, n - 1), n, payoffs=[pair]),
        ]
        for report in reports:
            assert report.verdict == "pass"
            assert report.residual == 0.0


class TestRealizationGap:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.sampled_from(STRATEGIES), st.booleans())
    def test_gap_is_largest_pairwise_gap(self, a, b, strategy, float_backed):
        game = weighted_game((Fraction(a, a + b), Fraction(b, a + b)), (3.25, -1))
        if float_backed:
            game = _float_backed(game)
        realizations = [Direct(), AncillaCoupled(1, 2), AncillaCoupled(2, 5), AncillaCoupled(4, 9)]
        values = [_value_game_exact(strategy, game, r) for r in realizations]
        pairwise = max(abs(v - w) for v in values for w in values)
        assert mn_violation(strategy, game, realizations) == float(pairwise)
