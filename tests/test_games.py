"""Quantum-core tests: weights, ancilla coupling, validation, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from branchlab import (
    Amplitude,
    AncillaCoupled,
    Consequence,
    Direct,
    Observable,
    PayoffFunction,
    PureState,
    QuantumGame,
    born_weights,
    couple_ancilla,
    equal_game,
    game_from_json,
    game_to_json,
    parse_realization,
    relabel_game,
    validate_game,
    weighted_game,
)


def rational_weights(min_size=2, max_size=5):
    """Strategy: exact rational weight vectors summing to 1."""
    return st.lists(
        st.integers(min_value=1, max_value=40), min_size=min_size, max_size=max_size
    ).map(lambda ks: [Fraction(k, sum(ks)) for k in ks])


class TestBornWeights:
    def test_equal_two_branch(self):
        game = equal_game(2, (0, 1))
        assert born_weights(game) == {1.0: Fraction(1, 2), 2.0: Fraction(1, 2)}

    def test_eigenstate(self):
        state = PureState.from_weights(["x1"], [1])
        game = QuantumGame(
            state,
            Observable("X", {"x1": 1.0}),
            PayoffFunction({1.0: Consequence("c1", 5)}),
        )
        assert born_weights(game) == {1.0: Fraction(1)}

    def test_third_two_thirds(self):
        game = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))
        assert born_weights(game) == {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)}

    def test_degenerate_eigenvalues_aggregate(self):
        game = weighted_game(
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            (1, 1, 0),
            eigenvalues=(7.0, 7.0, 3.0),
            consequence_names=("c", "c", "d"),
        )
        assert born_weights(game) == {7.0: Fraction(1, 2), 3.0: Fraction(1, 2)}

    def test_non_normalized_rejected(self):
        state = PureState.from_weights(["x1", "x2"], [Fraction(2, 5), Fraction(2, 5)])
        game = QuantumGame(
            state,
            Observable("X", {"x1": 1.0, "x2": 2.0}),
            PayoffFunction({1.0: Consequence("c1", 1), 2.0: Consequence("c2", 0)}),
        )
        with pytest.raises(ValueError, match="not normalized"):
            born_weights(game)

    @given(rational_weights())
    def test_permutation_equivariance(self, weights):
        utilities = list(range(len(weights)))
        game = weighted_game(weights, utilities)
        rotated_labels = {
            l: f"z{i}" for i, l in enumerate(reversed(game.state.basis_labels))
        }
        twin = relabel_game(game, rotated_labels)
        assert born_weights(twin) == born_weights(game)


class TestCoupleAncilla:
    def test_symmetric_split(self):
        game = equal_game(2, (0, 1))
        joint, register, grouping = couple_ancilla(game, 1, 2)
        assert [a.abs2 for a in joint.amplitudes] == [Fraction(1, 2), Fraction(1, 2)]
        assert joint.norm_squared == 1
        assert grouping == {"y1": 1.0, "y2": 2.0}

    def test_third_split_into_three(self):
        game = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))
        joint, register, grouping = couple_ancilla(game, 1, 3)
        assert [a.abs2 for a in joint.amplitudes] == [Fraction(1, 3)] * 3
        assert grouping == {"y1": 1.0, "y2": 2.0, "y3": 2.0}
        assert sorted(set(register.eigenvalues.values())) == [1.0, 2.0, 3.0]

    def test_rejects_three_component_state(self):
        game = equal_game(3, (0, 1, 2))
        with pytest.raises(ValueError, match="two-component"):
            couple_ancilla(game, 1, 3)

    def test_rejects_bad_split(self):
        game = equal_game(2, (0, 1))
        with pytest.raises(ValueError):
            couple_ancilla(game, 3, 3)

    @given(rational_weights(min_size=2, max_size=2), st.integers(2, 12), st.data())
    def test_normalization_preserved(self, weights, big_n, data):
        n = data.draw(st.integers(1, big_n - 1))
        game = weighted_game(weights, (1, 0))
        joint, _, _ = couple_ancilla(game, n, big_n)
        assert joint.norm_squared == 1

    @given(rational_weights(min_size=2, max_size=2), st.integers(2, 12), st.data())
    def test_weight_conservation_through_grouping(self, weights, big_n, data):
        n = data.draw(st.integers(1, big_n - 1))
        game = weighted_game(weights, (1, 0))
        joint, register, grouping = couple_ancilla(game, n, big_n)
        regrouped = {}
        for label, amp in zip(joint.basis_labels, joint.amplitudes):
            x = grouping[label]
            regrouped[x] = regrouped.get(x, Fraction(0)) + amp.abs2
        assert regrouped == born_weights(game)


class TestValidation:
    def test_valid_game_empty_report(self):
        assert validate_game(weighted_game((Fraction(1, 2), Fraction(1, 2)), (1, 0))) == []

    def test_normalization_flagged(self):
        state = PureState.from_weights(["x1", "x2"], [Fraction(2, 5), Fraction(2, 5)])
        game = QuantumGame(
            state,
            Observable("X", {"x1": 1.0, "x2": 2.0}),
            PayoffFunction({1.0: Consequence("c1", 1), 2.0: Consequence("c2", 0)}),
        )
        report = validate_game(game)
        assert len(report) == 1 and "not normalized" in report[0]

    def test_missing_payoff_flagged(self):
        game = weighted_game((Fraction(1, 2), Fraction(1, 2)), (1, 0))
        broken = QuantumGame(
            game.state,
            game.observable,
            PayoffFunction({1.0: Consequence("c1", 1)}),
        )
        report = validate_game(broken)
        assert any("payoff missing eigenvalue 2.0" in line for line in report)

    def test_amplitude_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Amplitude(float("nan"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PureState.from_weights(["x", "x"], [Fraction(1, 2), Fraction(1, 2)])


class TestSerialization:
    def test_round_trip(self):
        game = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))
        doc = json.loads(game_to_json(game))
        assert set(doc) == {"state", "observable", "payoff"}
        back = game_from_json(game_to_json(game))
        w1, w2 = born_weights(game), born_weights(back)
        assert w1.keys() == w2.keys()
        for x in w1:
            assert float(w1[x]) == pytest.approx(float(w2[x]), abs=1e-15)
        assert back.payoff.utility(1.0) == 10.0

    @pytest.mark.parametrize("utility", ["NaN", "Infinity", float("-inf")])
    def test_non_finite_utility_rejected(self, utility):
        doc = json.loads(game_to_json(weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))))
        doc["payoff"]["2.0"]["utility"] = utility
        with pytest.raises(ValueError, match="utility must be finite"):
            game_from_json(json.dumps(doc))

    def test_parse_realization(self):
        assert parse_realization("direct") == Direct()
        assert parse_realization("ancilla:1,3") == AncillaCoupled(1, 3)
        with pytest.raises(ValueError):
            parse_realization("ancilla:3")
        with pytest.raises(ValueError):
            parse_realization("indirect")
