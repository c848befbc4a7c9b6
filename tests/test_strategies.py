"""Strategy tests: caring measures, game values, realization sensitivity."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branchlab import (
    AncillaCoupled,
    Born,
    Direct,
    Egalitarian,
    EigenvalueWeighted,
    RotationConfig,
    SquaredWeightRenormalized,
    TablePreference,
    branch,
    caring_measure,
    coarse_grain,
    game_from_json,
    game_to_json,
    mn_violation,
    parse_strategy,
    relabel_game,
    rotate_basis,
    value_game,
    weighted_game,
)
from branchlab.strategies import game_key, strategy_label

THIRD_GAME = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))


def rational_two_outcome_games():
    return st.tuples(
        st.integers(1, 20), st.integers(1, 20), st.integers(-30, 30), st.integers(-30, 30)
    ).map(
        lambda t: weighted_game(
            (Fraction(t[0], t[0] + t[1]), Fraction(t[1], t[0] + t[1])),
            (t[2], t[3]),
        )
    )


def expand(tree):
    """The same tree with every run-length leaf written out as separate branches."""
    leaves = tuple(
        dataclasses.replace(leaf, multiplicity=1)
        for leaf in tree.leaves
        for _ in range(leaf.multiplicity)
    )
    return dataclasses.replace(tree, leaves=leaves)


@st.composite
def ancilla_splits(draw):
    N = draw(st.integers(2, 64))
    return AncillaCoupled(draw(st.integers(1, N - 1)), N)


CARING_STRATEGIES = st.sampled_from(
    [Born(), Egalitarian(1e-6), SquaredWeightRenormalized(), EigenvalueWeighted()]
)


class TestCaringMeasure:
    def test_born_follows_weights(self):
        tree = branch(THIRD_GAME, Direct())
        care = caring_measure(Born(), tree).by_outcome()
        assert care == {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)}

    def test_egalitarian_counts_leaves(self):
        tree = branch(THIRD_GAME, Direct())
        care = caring_measure(Egalitarian(1e-6), tree).by_outcome()
        assert care == {1.0: Fraction(1, 2), 2.0: Fraction(1, 2)}

    def test_egalitarian_counts_ancilla_branches(self):
        tree = branch(THIRD_GAME, AncillaCoupled(1, 3))
        care = caring_measure(Egalitarian(1e-6), tree).by_outcome()
        assert care == {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)}

    def test_squared_renormalized(self):
        tree = branch(THIRD_GAME, Direct())
        care = caring_measure(SquaredWeightRenormalized(), tree).by_outcome()
        assert care == {1.0: Fraction(1, 5), 2.0: Fraction(4, 5)}

    def test_eigenvalue_proportional(self):
        tree = branch(THIRD_GAME, Direct())
        care = caring_measure(EigenvalueWeighted(), tree).by_outcome()
        assert care == {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)}

    def test_egalitarian_no_occupied_cells(self):
        tree = branch(THIRD_GAME, Direct())
        with pytest.raises(ValueError, match="tau"):
            caring_measure(Egalitarian(0.9), tree)

    def test_eigenvalue_all_zero(self):
        game = weighted_game(
            (Fraction(1, 2), Fraction(1, 2)), (1, 0), eigenvalues=(0.0, -0.0)
        )
        tree = branch(game, Direct())
        with pytest.raises(ValueError, match="zero"):
            caring_measure(EigenvalueWeighted(), tree)

    @settings(max_examples=50)
    @given(rational_two_outcome_games(), st.sampled_from([Born(), Egalitarian(1e-9), SquaredWeightRenormalized()]))
    def test_normalization(self, game, strategy):
        tree = branch(game, Direct(), fine_dim=4)
        assert float(caring_measure(strategy, tree).total()) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(rational_two_outcome_games(), ancilla_splits(), CARING_STRATEGIES, st.sampled_from([1, 4]))
    def test_run_length_tree_matches_expansion(self, game, realization, strategy, fine_dim):
        tree = branch(game, realization, fine_dim=fine_dim)
        expected = caring_measure(strategy, expand(tree)).by_outcome()
        assert caring_measure(strategy, tree).by_outcome() == expected

    @settings(max_examples=40, deadline=None)
    @given(rational_two_outcome_games(), ancilla_splits(), CARING_STRATEGIES)
    def test_float_backed_run_length_tree_matches_expansion(self, game, realization, strategy):
        tree = branch(game_from_json(game_to_json(game)), realization)
        expected = caring_measure(strategy, expand(tree)).by_outcome()
        care = caring_measure(strategy, tree).by_outcome()
        assert care == {x: pytest.approx(float(m), abs=1e-12) for x, m in expected.items()}


class TestValueGame:
    def test_born_value_any_realization(self):
        assert value_game(Born(), THIRD_GAME, Direct()) == pytest.approx(10 / 3)
        assert value_game(Born(), THIRD_GAME, AncillaCoupled(1, 3)) == pytest.approx(10 / 3)

    def test_egalitarian_direct(self):
        assert value_game(Egalitarian(1e-6), THIRD_GAME, Direct()) == 5.0

    def test_egalitarian_ancilla(self):
        assert value_game(Egalitarian(1e-6), THIRD_GAME, AncillaCoupled(1, 3)) == pytest.approx(10 / 3)

    def test_table_preference_ranks(self):
        other = weighted_game((Fraction(1, 2), Fraction(1, 2)), (3, 3))
        table = TablePreference(
            order=(game_key(THIRD_GAME, Direct()), game_key(other, Direct()))
        )
        assert value_game(table, THIRD_GAME, Direct()) == 1.0
        assert value_game(table, other, Direct()) == 0.0
        with pytest.raises(KeyError):
            value_game(table, other, AncillaCoupled(1, 2))

    def test_table_preference_has_no_caring(self):
        tree = branch(THIRD_GAME, Direct())
        with pytest.raises(ValueError, match="caring"):
            caring_measure(TablePreference(order=()), tree)


class TestMeasurementNeutrality:
    def test_single_realization_trivially_zero(self):
        assert mn_violation(Born(), THIRD_GAME, [Direct()]) == 0.0

    def test_egalitarian_gap_is_five_thirds(self):
        delta = mn_violation(Egalitarian(1e-6), THIRD_GAME, [Direct(), AncillaCoupled(1, 3)])
        assert delta == 5 / 3

    @settings(max_examples=60)
    @given(rational_two_outcome_games(), st.integers(2, 12), st.data())
    def test_born_neutrality(self, game, big_n, data):
        n = data.draw(st.integers(1, big_n - 1))
        realizations = [Direct(), AncillaCoupled(n, big_n)]
        assert mn_violation(Born(), game, realizations) <= 1e-12


class TestRegrainInvariance:
    def test_born_fixed_egalitarian_moves(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=8, grain=1e-9)
        rotated = rotate_basis(tree, RotationConfig(epsilon=1e-3, pair_schedule=None, seed=5))
        merged = coarse_grain(rotated, 2)
        born_before = caring_measure(Born(), tree).by_outcome()
        for t in (rotated, merged):
            assert caring_measure(Born(), t).by_outcome() == born_before
        egal_before = caring_measure(Egalitarian(1e-9), tree).by_outcome()
        egal_after = caring_measure(Egalitarian(1e-9), rotated).by_outcome()
        assert egal_after != egal_before
        assert egal_after == {1.0: Fraction(3, 5), 2.0: Fraction(2, 5)}


class TestPhysicality:
    def relabeled(self, game):
        labels = {l: f"{l}_alt" for l in game.state.basis_labels}
        eig = {x: 3.0 * x + 1.0 for x in game.observable.eigenvalues.values()}
        return relabel_game(game, labels, eig)

    @pytest.mark.parametrize(
        "strategy", [Born(), Egalitarian(1e-6), SquaredWeightRenormalized()]
    )
    def test_value_ignores_description(self, strategy):
        twin = self.relabeled(THIRD_GAME)
        assert value_game(strategy, twin, Direct()) == value_game(strategy, THIRD_GAME, Direct())

    def test_eigenvalue_strategy_violates(self):
        twin = self.relabeled(THIRD_GAME)
        v1 = value_game(EigenvalueWeighted(), THIRD_GAME, Direct())
        v2 = value_game(EigenvalueWeighted(), twin, Direct())
        assert abs(v1 - v2) > 1e-3


class TestParsing:
    def test_round_trip_specs(self):
        for spec, expected in [
            ("born", Born()),
            ("egalitarian:tau=1e-06", Egalitarian(1e-6)),
            ("squared", SquaredWeightRenormalized()),
            ("eigenvalue", EigenvalueWeighted()),
        ]:
            parsed = parse_strategy(spec)
            assert parsed == expected
            assert parse_strategy(strategy_label(parsed)) == parsed

    def test_default_egalitarian_tau(self):
        assert parse_strategy("egalitarian") == Egalitarian()

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_strategy("frequentist")
        with pytest.raises(ValueError):
            parse_strategy("egalitarian:grain=2")
