"""Rival rationality strategies as caring measures over branch trees.

A strategy assigns a normalized measure over the parts of a branch tree it
considers the bearers of value (leaves, occupied cells, or outcomes), and
hence a cash value to any game.  The reference strategy weighs branches by
squared amplitude; the rivals implemented here weigh them by count, by
squared weight, or by eigenvalue magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence, Union

from .branching import BranchTree, branch
from .exact import Number
from .games import (
    MeasurementRealization,
    PayoffFunction,
    QuantumGame,
    game_to_json_dict,
    realization_label,
)


@dataclass(frozen=True)
class Born:
    """Care about each branch in proportion to its squared amplitude."""


@dataclass(frozen=True)
class Egalitarian:
    """Care equally about every occupied cell (sub-weight above tau)."""

    tau: float = 1e-6

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class SquaredWeightRenormalized:
    """Care in proportion to squared branch weight, renormalized."""


@dataclass(frozen=True)
class EigenvalueWeighted:
    """Care about outcomes in proportion to |eigenvalue|, renormalized.

    Negative eigenvalues enter by absolute value; this is a modeling choice
    with no deeper warrant.  The whole point of this strategy is that it
    hangs value on a descriptive artifact.
    """


@dataclass(frozen=True)
class TablePreference:
    """An explicit case-by-case ranking of games, best first.

    Keys are canonical game keys (see game_key).  Values are supplied by rank
    only; there is no caring measure behind them, and nothing constrains how
    the ranking treats different realizations of the same game.
    """

    order: tuple[str, ...]

    def rank_value(self, key: str) -> float:
        try:
            idx = self.order.index(key)
        except ValueError:
            raise KeyError(f"game not ranked by this table: {key!r}")
        return float(len(self.order) - 1 - idx)


Strategy = Union[Born, Egalitarian, SquaredWeightRenormalized, EigenvalueWeighted, TablePreference]


def game_key(game: QuantumGame, realization: MeasurementRealization | None = None) -> str:
    """Canonical string identity for a (game, realization) pair."""
    doc = {"game": game_to_json_dict(game)}
    if realization is not None:
        doc["realization"] = realization_label(realization)
    return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class CaringMeasure:
    """A normalized measure over strategy-chosen identifiers.

    Identifiers are leaf indices for weight-based strategies, (leaf, cell)
    pairs for the count-based one, and outcomes for the eigenvalue-based one.
    The mass of a run-length leaf (or of its cell) covers every branch in the
    run.  by_outcome() is the common view used for valuation.
    """

    masses: Mapping[Hashable, Number]
    outcome_of: Mapping[Hashable, float]

    def total(self) -> Number:
        return sum(self.masses.values(), Fraction(0))

    def by_outcome(self) -> dict[float, Number]:
        agg: dict[float, Number] = {}
        for key, mass in self.masses.items():
            outcome = self.outcome_of[key]
            agg[outcome] = agg.get(outcome, Fraction(0)) + mass
        return agg


def caring_measure(strategy: Strategy, tree: BranchTree) -> CaringMeasure:
    """The strategy's normalized care over the given tree."""
    if isinstance(strategy, Born):
        masses = {i: leaf.weight * leaf.multiplicity for i, leaf in enumerate(tree.leaves)}
        outcomes = {i: leaf.outcome for i, leaf in enumerate(tree.leaves)}
        return CaringMeasure(masses, outcomes)

    if isinstance(strategy, Egalitarian):
        occupied = {
            (i, j): leaf.multiplicity
            for i, leaf in enumerate(tree.leaves)
            for j, cell in enumerate(leaf.cells)
            if float(cell) > strategy.tau
        }
        if not occupied:
            raise ValueError("no cells above tau; egalitarian care undefined")
        share = Fraction(1, sum(occupied.values()))
        masses = {key: count * share for key, count in occupied.items()}
        outcomes = {key: tree.leaves[key[0]].outcome for key in occupied}
        return CaringMeasure(masses, outcomes)

    if isinstance(strategy, SquaredWeightRenormalized):
        squares = {
            i: leaf.weight * leaf.weight * leaf.multiplicity for i, leaf in enumerate(tree.leaves)
        }
        total = sum(squares.values(), Fraction(0))
        masses = {i: sq / total for i, sq in squares.items()}
        outcomes = {i: leaf.outcome for i, leaf in enumerate(tree.leaves)}
        return CaringMeasure(masses, outcomes)

    if isinstance(strategy, EigenvalueWeighted):
        magnitudes = {leaf.outcome: Fraction(abs(leaf.outcome)) for leaf in tree.leaves}
        total = sum(magnitudes.values(), Fraction(0))
        if total == 0:
            raise ValueError("all eigenvalues are zero; eigenvalue care undefined")
        masses = {x: m / total for x, m in magnitudes.items()}
        outcomes = {x: x for x in magnitudes}
        return CaringMeasure(masses, outcomes)

    if isinstance(strategy, TablePreference):
        raise ValueError("a table preference ranks games directly and has no caring measure")

    raise TypeError(f"unknown strategy {strategy!r}")


def _exact_utility(u: Number) -> Number:
    return u if isinstance(u, (int, Fraction)) else Fraction(u)


def _care_by_outcome(strategy: Strategy, tree: BranchTree) -> tuple[tuple[float, Number], ...]:
    """The strategy's care over the tree, summed per outcome, in outcome order.

    It depends on the tree alone, not on any payoff, so one care prices every
    payoff staked on the same tree.  A table preference has no caring measure
    and raises ValueError.
    """
    return tuple(sorted(caring_measure(strategy, tree).by_outcome().items()))


def _price(care: Sequence[tuple[float, Number]], utility: Callable[[float], Number]) -> Number:
    """Value of a payoff against care by outcome: the sum of mass(x) * u(x).

    Utilities enter as exact rationals, so with rational masses the value is
    exact and identities like realization-independence hold to the last bit.
    """
    total: Number = Fraction(0)
    for outcome, mass in care:
        total = total + mass * _exact_utility(utility(outcome))
    return total


def _tree_value_exact(strategy: Strategy, tree: BranchTree, payoff: PayoffFunction) -> Number:
    return _price(_care_by_outcome(strategy, tree), payoff.utility)


def value_game(
    strategy: Strategy,
    game: QuantumGame,
    realization: MeasurementRealization,
    fine_dim: int = 1,
    grain: float = 1e-9,
) -> float:
    """Cash value of a game to the strategy under a concrete realization."""
    return float(_value_game_exact(strategy, game, realization, fine_dim, grain))


def _value_game_exact(
    strategy: Strategy,
    game: QuantumGame,
    realization: MeasurementRealization,
    fine_dim: int = 1,
    grain: float = 1e-9,
) -> Number:
    if isinstance(strategy, TablePreference):
        return strategy.rank_value(game_key(game, realization))
    tree = branch(game, realization, fine_dim=fine_dim, grain=grain)
    return _tree_value_exact(strategy, tree, game.payoff)


def mn_violation(
    strategy: Strategy,
    game: QuantumGame,
    realizations: Sequence[MeasurementRealization],
    fine_dim: int = 1,
    grain: float = 1e-9,
) -> float:
    """Largest pairwise value gap across realizations of the same game.

    Zero (within tolerance) means the strategy is indifferent to how the
    measurement is carried out on this game and realization set.
    """
    if len(realizations) < 2:
        return 0.0
    values = [
        _value_game_exact(strategy, game, r, fine_dim=fine_dim, grain=grain)
        for r in realizations
    ]
    worst: Number = Fraction(0)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            gap = abs(values[i] - values[j])
            if gap > worst:
                worst = gap
    return float(worst)


def parse_strategy(text: str) -> Strategy:
    """Parse a strategy spec string: born, egalitarian[:tau=...], squared, eigenvalue."""
    head, _, param = text.strip().lower().partition(":")
    if head == "born":
        return Born()
    if head == "egalitarian":
        if not param:
            return Egalitarian()
        key, _, value = param.partition("=")
        if key != "tau":
            raise ValueError(f"unknown egalitarian parameter {key!r}")
        return Egalitarian(tau=float(value))
    if head == "squared":
        return SquaredWeightRenormalized()
    if head == "eigenvalue":
        return EigenvalueWeighted()
    raise ValueError(f"unknown strategy {text!r}")


def strategy_label(strategy: Strategy) -> str:
    if isinstance(strategy, Born):
        return "born"
    if isinstance(strategy, Egalitarian):
        return f"egalitarian:tau={strategy.tau!r}"
    if isinstance(strategy, SquaredWeightRenormalized):
        return "squared"
    if isinstance(strategy, EigenvalueWeighted):
        return "eigenvalue"
    if isinstance(strategy, TablePreference):
        return "table"
    raise TypeError(f"unknown strategy {strategy!r}")
