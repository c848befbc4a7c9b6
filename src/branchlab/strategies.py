"""Rival rationality strategies as caring measures over branch trees.

A strategy cares about the parts of a branch tree it considers the bearers
of value (leaves, occupied cells, or outcomes); summed per outcome, that
care is a normalized measure over outcomes, and hence a cash value to any
game.  The reference strategy weighs branches by
squared amplitude; the rivals implemented here weigh them by count, by
squared weight, or by eigenvalue magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

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
    """A strategy's normalized care, as a measure over outcomes.

    Only the care summed per outcome enters a value, so masses maps each
    outcome the tree can show to that sum, outcomes in ascending order.  The
    mass of a run-length leaf (or of its cells) covers every branch in the
    run.
    """

    masses: Mapping[float, Number]

    def total(self) -> Number:
        return sum(self.masses.values(), Fraction(0))

    def by_outcome(self) -> dict[float, Number]:
        return dict(self.masses)


def _per_outcome(pairs: Iterable[tuple[float, Number]]) -> dict[float, Number]:
    """Masses summed per outcome from Fraction(0) in the order given, outcomes ascending."""
    agg: dict[float, Number] = {}
    for outcome, mass in pairs:
        agg[outcome] = agg.get(outcome, Fraction(0)) + mass
    return dict(sorted(agg.items()))


def caring_measure(strategy: Strategy, tree: BranchTree) -> CaringMeasure:
    """The strategy's normalized care over the given tree, as a measure over outcomes."""
    if isinstance(strategy, Born):
        weights = ((leaf.outcome, leaf.weight * leaf.multiplicity) for leaf in tree.leaves)
        return CaringMeasure(_per_outcome(weights))

    if isinstance(strategy, Egalitarian):
        counts: dict[float, int] = {}
        for leaf in tree.leaves:
            occupied = sum(leaf.multiplicity for cell in leaf.cells if float(cell) > strategy.tau)
            if occupied:
                counts[leaf.outcome] = counts.get(leaf.outcome, 0) + occupied
        if not counts:
            raise ValueError("no cells above tau; egalitarian care undefined")
        share = Fraction(1, sum(counts.values()))
        return CaringMeasure({x: count * share for x, count in sorted(counts.items())})

    if isinstance(strategy, SquaredWeightRenormalized):
        squares = [
            (leaf.outcome, leaf.weight * leaf.weight * leaf.multiplicity) for leaf in tree.leaves
        ]
        total = sum((sq for _, sq in squares), Fraction(0))
        return CaringMeasure(_per_outcome((x, sq / total) for x, sq in squares))

    if isinstance(strategy, EigenvalueWeighted):
        magnitudes = {leaf.outcome: Fraction(abs(leaf.outcome)) for leaf in tree.leaves}
        total = sum(magnitudes.values(), Fraction(0))
        if total == 0:
            raise ValueError("all eigenvalues are zero; eigenvalue care undefined")
        return CaringMeasure({x: m / total for x, m in sorted(magnitudes.items())})

    if isinstance(strategy, TablePreference):
        raise ValueError("a table preference ranks games directly and has no caring measure")

    raise TypeError(f"unknown strategy {strategy!r}")


def _exact_utility(u: Number) -> Number:
    """u as an exact number: an int or Fraction as it is, a float as the Fraction of its value."""
    return u if isinstance(u, (int, Fraction)) else Fraction(u)


def _exact_payoff(payoff: PayoffFunction) -> Callable[[float], Number]:
    """The payoff's utility by outcome, each made exact as it is priced."""
    return lambda x: _exact_utility(payoff.utility(x))


def _price(care: CaringMeasure, utility: Callable[[float], Number]) -> Number:
    """Value of a payoff against care by outcome: the sum of mass(x) * u(x).

    Utilities are exact, so with rational masses the value is exact and
    identities like realization-independence hold to the last bit.
    """
    total: Number = Fraction(0)
    for outcome, mass in care.masses.items():
        total = total + mass * utility(outcome)
    return total


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
    return _price(caring_measure(strategy, tree), _exact_payoff(game.payoff))


def mn_violation(
    strategy: Strategy,
    game: QuantumGame,
    realizations: Sequence[MeasurementRealization],
    fine_dim: int = 1,
    grain: float = 1e-9,
) -> float:
    """Largest value gap across realizations of the same game: max minus min.

    Zero (within tolerance) means the strategy is indifferent to how the
    measurement is carried out on this game and realization set.
    """
    if len(realizations) < 2:
        return 0.0
    values = [
        _value_game_exact(strategy, game, r, fine_dim=fine_dim, grain=grain)
        for r in realizations
    ]
    return float(max(values) - min(values))


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
