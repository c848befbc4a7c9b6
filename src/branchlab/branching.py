"""Branch trees with squared-amplitude weights.

A measurement turns a game into a tree of decohered branches.  Each leaf
carries a weight plus a row of fine-grained cells that stand in for
sub-branch structure, and a multiplicity: a leaf of multiplicity k is a run
of k identical branches of that weight.  An N-level register split into two
groups of equal sub-branches is read off the register state's two
(amplitude, count) runs, so it is two leaves rather than N, and building it
never walks the N register levels.  Two knobs,
small basis rotations and coarse-graining, redistribute weight among cells
without ever changing any outcome's total weight.  They exist to make one
point runnable: the number of branches above a weight threshold is not a
stable quantity, while the weight itself is.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Iterator

from .exact import Number, _exact_dot, _exact_sum, _exact_sums
from .games import (
    AncillaCoupled,
    Direct,
    MeasurementRealization,
    QuantumGame,
    born_weights,
    couple_ancilla,
    validate_game,
)


@dataclass(frozen=True)
class BranchLeaf:
    """A branch, or a run of `multiplicity` identical branches.

    `weight` and `cells` describe one branch of the run; the run as a whole
    carries weight * multiplicity.
    """

    outcome: float
    history: tuple[float, ...]
    weight: Number
    cells: tuple[Number, ...]
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be at least 1, got {self.multiplicity!r}")
        if not self.cells:
            raise ValueError("a leaf needs at least one cell")
        drift = abs(float(_exact_sum(self.cells)) - float(self.weight))
        if drift > 1e-9:
            raise ValueError(f"cells must sum to the leaf weight (off by {drift!r})")


@dataclass(frozen=True)
class BranchTree:
    leaves: tuple[BranchLeaf, ...]
    grain: float
    fine_dim: int

    def __post_init__(self) -> None:
        if self.grain <= 0:
            raise ValueError("grain threshold must be positive")
        if self.fine_dim < 1:
            raise ValueError("fine_dim must be at least 1")
        leaves = self.leaves
        total = float(_exact_dot([leaf.weight for leaf in leaves], [leaf.multiplicity for leaf in leaves]))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"leaf weights must sum to 1, got {total!r}")
        for leaf in self.leaves:
            if len(leaf.cells) != self.fine_dim:
                raise ValueError("every leaf must carry fine_dim cells")


@dataclass(frozen=True)
class RotationConfig:
    """A small rotation of the fine-grained decomposition.

    With an explicit pair_schedule the same cell pairs are mixed in every
    leaf.  With pair_schedule=None, a per-leaf schedule of fine_dim pairs is
    drawn deterministically from the seed, which is what lets occupied-cell
    counts drift apart between outcomes.
    """

    epsilon: float
    pair_schedule: tuple[tuple[int, int], ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not abs(self.epsilon) < 0.1:
            raise ValueError("rotation angle must satisfy |epsilon| < 0.1")
        if self.pair_schedule is not None:
            object.__setattr__(
                self, "pair_schedule", tuple((int(i), int(j)) for i, j in self.pair_schedule)
            )


def _fresh_leaf(outcome: float, history: tuple[float, ...], weight: Number, fine_dim: int,
                multiplicity: int = 1) -> BranchLeaf:
    # All weight sits in cell 0 until a rotation spreads it.
    zero = Fraction(0) if isinstance(weight, Fraction) else 0.0
    cells = (weight,) + (zero,) * (fine_dim - 1)
    return BranchLeaf(outcome, history, weight, cells, multiplicity)


def _expanded(leaves: tuple[BranchLeaf, ...]) -> Iterator[BranchLeaf]:
    """Each run-length leaf as `multiplicity` separate branches, in order."""
    for leaf in leaves:
        single = leaf if leaf.multiplicity == 1 else replace(leaf, multiplicity=1)
        for _ in range(leaf.multiplicity):
            yield single


def branch(
    game: QuantumGame,
    realization: MeasurementRealization,
    fine_dim: int = 1,
    grain: float = 1e-9,
) -> BranchTree:
    """Decohere a game into a branch tree under the given realization.

    Direct measurement yields one leaf per eigenvalue at its squared-amplitude
    weight.  Ancilla coupling splits the game over an N-level register and
    reads the joint state's runs: each run of register levels with the same
    grouped eigenvalue and amplitude becomes one leaf whose multiplicity is
    the run length, so the usual coupling yields two leaves standing for n
    and N - n equal sub-branches, built in time independent of N.  The game
    is validated once either way.
    """
    if fine_dim < 1:
        raise ValueError("fine_dim must be at least 1")
    if isinstance(realization, Direct):
        weights = born_weights(game)
        leaves = tuple(_fresh_leaf(x, (), w, fine_dim) for x, w in sorted(weights.items()))
    elif isinstance(realization, AncillaCoupled):
        problems = validate_game(game)
        if problems:
            raise ValueError("invalid game: " + "; ".join(problems))
        joint, _, grouping = couple_ancilla(game, realization.n, realization.N)
        starts = accumulate([count for _, count in joint.runs], initial=0)
        keyed = [
            ((grouping[joint.basis_labels[start]], amp), count) for start, (amp, count) in zip(starts, joint.runs)
        ]
        leaves = tuple(
            _fresh_leaf(x, (), amp.abs2, fine_dim, multiplicity=sum(count for _, count in run))
            for (x, amp), run in groupby(keyed, key=itemgetter(0))
        )
    else:
        raise ValueError(f"unsupported realization {realization!r} for this game shape")
    return BranchTree(leaves=leaves, grain=grain, fine_dim=fine_dim)


def outcome_weights(tree: BranchTree) -> dict[float, Number]:
    """Total weight per outcome, summed over leaves."""
    return _exact_sums((leaf.outcome, leaf.weight * leaf.multiplicity) for leaf in tree.leaves)


def count_branches(tree: BranchTree, outcome: float) -> int:
    """Number of cells above the tree's grain threshold for this outcome."""
    known = {leaf.outcome for leaf in tree.leaves}
    if outcome not in known:
        warnings.warn(f"outcome {outcome!r} not present in tree; count is 0", stacklevel=2)
        return 0
    return sum(
        leaf.multiplicity
        for leaf in tree.leaves
        if leaf.outcome == outcome
        for c in leaf.cells
        if float(c) > tree.grain
    )


def _leaf_pairs(config: RotationConfig, fine_dim: int, rng: random.Random) -> list[tuple[int, int]]:
    if config.pair_schedule is not None:
        return list(config.pair_schedule)
    pairs = []
    for _ in range(fine_dim):
        i = rng.randrange(fine_dim)
        j = rng.randrange(fine_dim - 1)
        if j >= i:
            j += 1
        pairs.append((i, j))
    return pairs


def rotate_basis(tree: BranchTree, config: RotationConfig) -> BranchTree:
    """Mix scheduled cell pairs within each leaf by the angle epsilon.

    The mixing acts on square roots of the cell weights (the nonnegative
    root; relative sign is not tracked), so each leaf's total weight is
    preserved by construction and cells never mix across outcomes.  Run-length
    leaves are expanded first: every branch draws its own schedule.
    """
    if config.epsilon == 0:
        return tree
    if tree.fine_dim < 2:
        raise ValueError("rotation needs at least two cells per leaf")
    cos_e, sin_e = math.cos(config.epsilon), math.sin(config.epsilon)
    rng = random.Random(config.seed)
    new_leaves = []
    for leaf in _expanded(tree.leaves):
        pairs = _leaf_pairs(config, tree.fine_dim, rng)
        cells = [float(c) for c in leaf.cells]
        for i, j in pairs:
            if not (0 <= i < tree.fine_dim and 0 <= j < tree.fine_dim) or i == j:
                raise ValueError(f"bad cell pair ({i}, {j}) for fine_dim {tree.fine_dim}")
            a, b = math.sqrt(cells[i]), math.sqrt(cells[j])
            cells[i] = (a * cos_e - b * sin_e) ** 2
            cells[j] = (a * sin_e + b * cos_e) ** 2
        new_leaves.append(replace(leaf, cells=tuple(cells)))
    return replace(tree, leaves=tuple(new_leaves))


def coarse_grain(tree: BranchTree, factor: int) -> BranchTree:
    """Merge consecutive cell groups of the given size by summing weights."""
    if factor < 1 or tree.fine_dim % factor != 0:
        raise ValueError(f"factor {factor} does not divide fine_dim {tree.fine_dim}")
    if factor == 1:
        return tree
    new_dim = tree.fine_dim // factor
    new_leaves = []
    for leaf in tree.leaves:
        cells = tuple(_exact_sum(leaf.cells[k * factor:(k + 1) * factor]) for k in range(new_dim))
        new_leaves.append(replace(leaf, cells=cells))
    return BranchTree(leaves=tuple(new_leaves), grain=tree.grain, fine_dim=new_dim)


def extend(
    tree: BranchTree,
    game: QuantumGame,
    realization: MeasurementRealization,
    fine_dim: int | None = None,
) -> BranchTree:
    """Measure again on every leaf: weights multiply, histories grow.

    Each existing leaf becomes the root of a fresh measurement; its own cell
    structure collapses into the leaf weight.  Multiplicities multiply.
    """
    step = branch(game, realization, fine_dim=fine_dim or tree.fine_dim, grain=tree.grain)
    new_leaves = [
        _fresh_leaf(
            child.outcome,
            leaf.history + (leaf.outcome,),
            leaf.weight * child.weight,
            step.fine_dim,
            multiplicity=leaf.multiplicity * child.multiplicity,
        )
        for leaf in tree.leaves
        for child in step.leaves
    ]
    return BranchTree(leaves=tuple(new_leaves), grain=tree.grain, fine_dim=step.fine_dim)


def tree_to_csv(tree: BranchTree) -> str:
    """One row per (leaf, cell): outcome, history, cell_index, weight.

    Rows are ordered by (history, outcome, cell_index) so dumps are
    deterministic.  A run-length leaf prints one block of rows per branch.
    """
    import csv
    import io as _io

    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["outcome", "history", "cell_index", "weight"])
    ordered = sorted(_expanded(tree.leaves), key=lambda leaf: (leaf.history, leaf.outcome))
    for leaf in ordered:
        history = "|".join(repr(float(h)) for h in leaf.history)
        for idx, cell in enumerate(leaf.cells):
            writer.writerow([repr(float(leaf.outcome)), history, idx, repr(float(cell))])
    return buf.getvalue()
