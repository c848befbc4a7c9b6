"""Branch-tree tests: construction, counting, rotations, coarse-graining."""

import dataclasses
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branchlab import (
    AncillaCoupled,
    Direct,
    RotationConfig,
    branch,
    coarse_grain,
    count_branches,
    couple_ancilla,
    equal_game,
    extend,
    game_from_json,
    game_to_json,
    outcome_weights,
    rotate_basis,
    tree_to_csv,
    weighted_game,
)

THIRD_GAME = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))


def expand(tree):
    """The same tree with every run-length leaf written out as separate branches."""
    leaves = tuple(
        dataclasses.replace(leaf, multiplicity=1)
        for leaf in tree.leaves
        for _ in range(leaf.multiplicity)
    )
    return dataclasses.replace(tree, leaves=leaves)


two_outcome_weights = st.tuples(st.integers(1, 20), st.integers(1, 20)).map(
    lambda t: (Fraction(t[0], t[0] + t[1]), Fraction(t[1], t[0] + t[1]))
)


@st.composite
def ancilla_splits(draw):
    N = draw(st.integers(2, 64))
    return AncillaCoupled(draw(st.integers(1, N - 1)), N)


class TestBranch:
    def test_direct_equal_superposition(self):
        tree = branch(equal_game(2, (0, 1)), Direct())
        assert [leaf.weight for leaf in tree.leaves] == [Fraction(1, 2), Fraction(1, 2)]

    def test_direct_unequal(self):
        tree = branch(THIRD_GAME, Direct())
        assert outcome_weights(tree) == {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)}

    def test_ancilla_three_equal_leaves(self):
        tree = branch(THIRD_GAME, AncillaCoupled(1, 3))
        assert [(leaf.outcome, leaf.weight, leaf.multiplicity) for leaf in tree.leaves] == [
            (1.0, Fraction(1, 3), 1),
            (2.0, Fraction(1, 3), 2),
        ]

    def test_ancilla_leaf_count_independent_of_register_size(self):
        assert len(branch(THIRD_GAME, AncillaCoupled(1, 2**16)).leaves) == 2

    def test_multiplicity_must_be_positive(self):
        leaf = branch(THIRD_GAME, Direct()).leaves[0]
        with pytest.raises(ValueError, match="multiplicity"):
            dataclasses.replace(leaf, multiplicity=0)

    def test_fresh_cells_hold_full_weight(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=4)
        for leaf in tree.leaves:
            assert leaf.cells[0] == leaf.weight
            assert all(c == 0 for c in leaf.cells[1:])

    def test_ancilla_on_three_outcomes_rejected(self):
        with pytest.raises(ValueError):
            branch(equal_game(3, (0, 1, 2)), AncillaCoupled(1, 3))


class TestCountBranches:
    def test_fresh_direct(self):
        tree = branch(THIRD_GAME, Direct(), grain=1e-6)
        assert count_branches(tree, 2.0) == 1

    def test_fresh_ancilla(self):
        tree = branch(THIRD_GAME, AncillaCoupled(1, 3))
        assert count_branches(tree, 2.0) == 2
        assert count_branches(tree, 1.0) == 1

    def test_rotation_raises_count(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=8, grain=1e-9)
        rotated = rotate_basis(tree, RotationConfig(epsilon=1e-3, pair_schedule=((0, 1),)))
        assert count_branches(rotated, 2.0) > 1

    def test_unknown_outcome_warns_and_returns_zero(self):
        tree = branch(THIRD_GAME, Direct())
        with pytest.warns(UserWarning, match="not present"):
            assert count_branches(tree, 9.0) == 0

    def test_monotone_in_grain(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=8)
        tree = rotate_basis(tree, RotationConfig(epsilon=1e-3, pair_schedule=None, seed=3))
        counts = []
        for tau in (1e-12, 1e-9, 1e-6, 1e-3, 0.5):
            counts.append(count_branches(dataclasses.replace(tree, grain=tau), 2.0))
        assert counts == sorted(counts, reverse=True)


class TestRotateBasis:
    def test_zero_angle_is_identity(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=4)
        assert rotate_basis(tree, RotationConfig(epsilon=0.0)) is tree

    def test_leaf_weight_preserved(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=8)
        rotated = rotate_basis(tree, RotationConfig(epsilon=0.05, pair_schedule=None, seed=1))
        for before, after in zip(tree.leaves, rotated.leaves):
            assert float(sum(after.cells)) == pytest.approx(float(before.weight), abs=1e-12)

    def test_single_pair_split_values(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=2)
        eps = 1e-3
        rotated = rotate_basis(tree, RotationConfig(epsilon=eps, pair_schedule=((0, 1),)))
        heavy = rotated.leaves[1]
        w = 2 / 3
        assert heavy.cells[0] == pytest.approx(w * math.cos(eps) ** 2, rel=1e-12)
        assert heavy.cells[1] == pytest.approx(w * math.sin(eps) ** 2, rel=1e-12)

    def test_angle_bound_enforced(self):
        with pytest.raises(ValueError, match="epsilon"):
            RotationConfig(epsilon=0.2)

    def test_bad_pair_rejected(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=2)
        with pytest.raises(ValueError, match="pair"):
            rotate_basis(tree, RotationConfig(epsilon=1e-3, pair_schedule=((0, 5),)))


class TestCoarseGrain:
    def test_full_merge(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=8)
        merged = coarse_grain(tree, 8)
        assert merged.fine_dim == 1
        assert all(len(leaf.cells) == 1 for leaf in merged.leaves)

    def test_factor_one_identity(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=8)
        assert coarse_grain(tree, 1) is tree

    def test_non_divisor_rejected(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=8)
        with pytest.raises(ValueError, match="divide"):
            coarse_grain(tree, 3)

    def test_counts_never_increase_weights_fixed(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=8)
        rotated = rotate_basis(tree, RotationConfig(epsilon=1e-3, pair_schedule=None, seed=5))
        merged = coarse_grain(rotated, 2)
        for outcome in (1.0, 2.0):
            assert count_branches(merged, outcome) <= count_branches(rotated, outcome)
            assert float(outcome_weights(merged)[outcome]) == pytest.approx(
                float(outcome_weights(rotated)[outcome]), abs=1e-9
            )


@settings(max_examples=60)
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
    factors=st.lists(st.sampled_from([1, 2]), min_size=0, max_size=2),
)
def test_weight_conservation_under_random_schedules(seeds, factors):
    tree = branch(THIRD_GAME, Direct(), fine_dim=8)
    reference = {k: float(v) for k, v in outcome_weights(tree).items()}
    for seed in seeds:
        tree = rotate_basis(tree, RotationConfig(epsilon=5e-3, pair_schedule=None, seed=seed))
    for factor in factors:
        if tree.fine_dim % factor == 0:
            tree = coarse_grain(tree, factor)
    for outcome, expected in reference.items():
        assert float(outcome_weights(tree)[outcome]) == pytest.approx(expected, abs=1e-9)


class TestExtend:
    def test_weights_multiply_and_histories_grow(self):
        tree = branch(THIRD_GAME, Direct())
        deeper = extend(tree, THIRD_GAME, Direct())
        assert len(deeper.leaves) == 4
        weights = sorted(float(leaf.weight) for leaf in deeper.leaves)
        assert weights == pytest.approx(sorted([1 / 9, 2 / 9, 2 / 9, 4 / 9]))
        assert {leaf.history for leaf in deeper.leaves} == {(1.0,), (2.0,)}
        assert float(sum(leaf.weight for leaf in deeper.leaves)) == pytest.approx(1.0)


class TestCsvDump:
    def test_header_and_ordering(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=2)
        dump = tree_to_csv(tree)
        lines = dump.strip().splitlines()
        assert lines[0] == "outcome,history,cell_index,weight"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("1.0,,0,")
        assert lines[3].startswith("2.0,,0,")

    def test_deterministic(self):
        tree = branch(THIRD_GAME, Direct(), fine_dim=4)
        tree = rotate_basis(tree, RotationConfig(epsilon=1e-3, pair_schedule=None, seed=2))
        assert tree_to_csv(tree) == tree_to_csv(tree)


class TestRunLength:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=two_outcome_weights,
        realization=ancilla_splits(),
        fine_dim=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 10_000),
    )
    def test_matches_expansion(self, weights, realization, fine_dim, seed):
        game = weighted_game(weights, (1, 0))
        tree = branch(game, realization, fine_dim=fine_dim)
        flat = expand(tree)
        joint, _, grouping = couple_ancilla(game, realization.n, realization.N)
        assert len(tree.leaves) == 2
        assert [(leaf.outcome, leaf.weight) for leaf in flat.leaves] == [
            (grouping[label], amp.abs2) for label, amp in zip(joint.basis_labels, joint.amplitudes)
        ]
        assert outcome_weights(tree) == outcome_weights(flat)
        for outcome in (1.0, 2.0):
            assert count_branches(tree, outcome) == count_branches(flat, outcome)
        assert tree_to_csv(tree) == tree_to_csv(flat)
        deeper, flat_deeper = extend(tree, game, realization), extend(flat, game, realization)
        assert Counter(expand(deeper).leaves) == Counter(expand(flat_deeper).leaves)
        if fine_dim >= 2:
            config = RotationConfig(epsilon=1e-3, pair_schedule=None, seed=seed)
            assert rotate_basis(tree, config) == rotate_basis(flat, config)
            assert expand(coarse_grain(tree, 2)) == coarse_grain(flat, 2)

    @settings(max_examples=40, deadline=None)
    @given(weights=two_outcome_weights, realization=ancilla_splits())
    def test_float_backed_matches_expansion(self, weights, realization):
        game = game_from_json(game_to_json(weighted_game(weights, (1, 0))))
        tree = branch(game, realization, fine_dim=2)
        flat = expand(tree)
        expected = outcome_weights(flat)
        assert outcome_weights(tree) == {x: pytest.approx(w, abs=1e-12) for x, w in expected.items()}
        for outcome in (1.0, 2.0):
            assert count_branches(tree, outcome) == count_branches(flat, outcome)
        assert tree_to_csv(tree) == tree_to_csv(flat)
