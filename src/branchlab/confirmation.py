"""Bayesian confirmation bench: updating, sure-loss books, repeated trials.

Credences over rival theories are updated on observed outcomes.  An agent
who announces a posterior different from the conditional credence can be
sold three individually fair bets that settle at a loss in every case, and
the loss is realized on every branch of the outcome tree, not merely in
expectation.  The repeated-trial experiment tracks how much care an agent
ends up investing in branches where the true theory is highly credible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import islice
from operator import mul
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Union

from .branching import BranchLeaf, BranchTree, branch
from .exact import Number
from .games import Direct, MeasurementRealization, QuantumGame
from .strategies import Strategy, TablePreference, caring_measure

Evidence = Hashable


@dataclass(frozen=True)
class CredenceState:
    """Credences over theories plus per-theory likelihood tables.

    likelihoods[T][A] is the probability the theory T assigns to the
    evidence proposition A.  Values may be floats or fractions; fractions
    keep every downstream identity exact.
    """

    priors: Mapping[str, Number]
    likelihoods: Mapping[str, Mapping[Evidence, Number]]

    def __post_init__(self) -> None:
        total = float(sum(self.priors.values()))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"credences must sum to 1, got {total!r}")
        for theory, p in self.priors.items():
            if not 0.0 <= float(p) <= 1.0 + 1e-12:
                raise ValueError(f"credence for {theory!r} outside [0, 1]")
            if theory not in self.likelihoods:
                raise ValueError(f"no likelihood table for theory {theory!r}")
        for theory, table in self.likelihoods.items():
            for a, v in table.items():
                if not 0.0 <= float(v) <= 1.0 + 1e-12:
                    raise ValueError(f"likelihood p({a!r}|{theory!r}) outside [0, 1]")

    def theories(self) -> tuple[str, ...]:
        return tuple(self.priors)


def evidence_probability(cred: CredenceState, evidence: Evidence) -> Number:
    """Prior probability of the evidence: sum over theories of p(T) p(A|T)."""
    total: Number = Fraction(0)
    for theory, p in cred.priors.items():
        table = cred.likelihoods[theory]
        if evidence not in table:
            raise KeyError(f"theory {theory!r} has no likelihood for evidence {evidence!r}")
        total = total + p * table[evidence]
    return total


def conditionalize(cred: CredenceState, evidence: Evidence) -> CredenceState:
    """Bayes update: new credence in T is p(A|T) p(T) / p(A)."""
    pa = evidence_probability(cred, evidence)
    if pa == 0:
        raise ValueError(f"evidence {evidence!r} has zero prior probability; update undefined")
    new_priors = {
        theory: (p * cred.likelihoods[theory][evidence]) / pa
        for theory, p in cred.priors.items()
    }
    return replace(cred, priors=new_priors)


def posterior(cred: CredenceState, theory: str, evidence: Evidence) -> Number:
    return conditionalize(cred, evidence).priors[theory]


# -- Update policies ------------------------------------------------------------


@dataclass(frozen=True)
class Conditionalize:
    """Announce the conditional credence itself."""


@dataclass(frozen=True)
class Deviant:
    """Announce explicit posteriors, keyed by (theory, evidence)."""

    posteriors: Mapping[tuple[str, Evidence], Number]


@dataclass(frozen=True)
class Rigid:
    """Announce the unchanged prior, whatever was observed."""


UpdatePolicy = Union[Conditionalize, Deviant, Rigid]


def announced_posterior(
    policy: UpdatePolicy, cred: CredenceState, theory: str, evidence: Evidence
) -> Number:
    if isinstance(policy, Conditionalize):
        return posterior(cred, theory, evidence)
    if isinstance(policy, Rigid):
        return cred.priors[theory]
    if isinstance(policy, Deviant):
        try:
            return policy.posteriors[(theory, evidence)]
        except KeyError:
            raise KeyError(f"deviant policy has no announcement for ({theory!r}, {evidence!r})")
    raise TypeError(f"unknown update policy {policy!r}")


# -- The three-bet book ----------------------------------------------------------


@dataclass(frozen=True)
class Bet:
    """A single bet at a stated quotient.

    direction +1 backs the target proposition, -1 backs its negation; a
    conditional bet is called off (settles at 0) unless the evidence obtains,
    and a post-evidence bet is simply never placed on no-evidence branches.
    """

    target: str  # "theory" or "evidence"
    placement: str  # "pre" or "post"
    quotient: Number
    stake: Number
    direction: int
    conditional: bool = False


@dataclass(frozen=True)
class Book:
    """Three bets that settle at the same net loss in every case."""

    bets: tuple[Bet, Bet, Bet]
    theory: str
    evidence: Evidence
    p_evidence: Number
    p_conditional: Number
    announced: Number
    stake: Number
    guaranteed_net: Number


def settle_bet(bet: Bet, evidence_true: bool, theory_true: bool) -> Number:
    if bet.conditional and not evidence_true:
        return Fraction(0)
    if bet.placement == "post" and not evidence_true:
        return Fraction(0)
    holds = theory_true if bet.target == "theory" else evidence_true
    indicator = 1 if holds else 0
    return bet.direction * (indicator - bet.quotient) * bet.stake


def build_dutch_book(
    cred: CredenceState,
    policy: UpdatePolicy,
    evidence: Evidence,
    theory: str,
    stake: Number = 1,
) -> Book | None:
    """Construct the three-bet sure-loss book against a non-conditionalizer.

    Let p be the conditional credence in the theory given the evidence, r the
    prior probability of the evidence, and q the posterior the policy will
    announce.  The book is: (i) a pre-evidence conditional bet on the theory
    at quotient p with stake S, backed or opposed according to the sign of
    p - q; (ii) a pre-evidence purchase of the evidence proposition at
    quotient r with stake |p - q| S, which spreads the conditional loss onto
    the no-evidence case; (iii) a post-evidence bet on the theory at the
    announced q, opposite in direction to (i).  Each bet is fair at its
    placement-time quotient, yet the three settle at -|p - q| r S in all of
    the cases (no evidence), (evidence, theory) and (evidence, no theory).
    Returns None when the announced posterior equals the conditional
    credence: a conditionalizer cannot be booked this way.  An evidence
    probability outside (0, 1) or an announced posterior outside [0, 1]
    raises ValueError.
    """
    if isinstance(policy, Conditionalize):
        return None
    p = posterior(cred, theory, evidence)
    r = evidence_probability(cred, evidence)
    if not 0.0 < float(r) < 1.0:
        raise ValueError(f"evidence probability must lie strictly inside (0, 1), got {float(r)!r}")
    q = announced_posterior(policy, cred, theory, evidence)
    if not 0 <= q <= 1:
        raise ValueError(f"announced posterior must lie in [0, 1], got {float(q)!r}")
    gap = p - q
    if abs(float(gap)) <= 1e-12:
        return None
    direction = 1 if gap > 0 else -1
    hedge_stake = abs(gap) * stake
    bets = (
        Bet(
            target="theory",
            placement="pre",
            quotient=p,
            stake=stake,
            direction=direction,
            conditional=True,
        ),
        Bet(
            target="evidence",
            placement="pre",
            quotient=r,
            stake=hedge_stake,
            direction=1,
        ),
        Bet(
            target="theory",
            placement="post",
            quotient=q,
            stake=stake,
            direction=-direction,
        ),
    )
    return Book(
        bets=bets,
        theory=theory,
        evidence=evidence,
        p_evidence=r,
        p_conditional=p,
        announced=q,
        stake=stake,
        guaranteed_net=-abs(gap) * r * stake,
    )


def evaluate_book_on_branches(
    book: Book | None,
    tree: BranchTree,
    truth_assignment: Mapping[int, tuple[bool, bool]],
) -> dict[int, Number]:
    """Net payoff of the book on every leaf, keyed by leaf index.

    truth_assignment maps each leaf index to (evidence obtained?, theory
    true?).  A None book (fair updater) settles at zero everywhere.
    """
    if set(truth_assignment) != set(range(len(tree.leaves))):
        raise ValueError("truth assignment must cover every leaf exactly once")
    if book is None:
        return {i: Fraction(0) for i in range(len(tree.leaves))}
    out: dict[int, Number] = {}
    for i in range(len(tree.leaves)):
        a, t = truth_assignment[i]
        out[i] = sum((settle_bet(bet, a, t) for bet in book.bets), Fraction(0))
    return out


def case_tree(p_evidence: Number, p_conditional: Number) -> tuple[BranchTree, dict[int, tuple[bool, bool]]]:
    """The canonical three-leaf tree for book settlement.

    Leaves carry weights (1-r) for no-evidence, r*p for evidence-and-theory
    and r*(1-p) for evidence-without-theory, with the matching truth
    assignment.
    """
    r = p_evidence if isinstance(p_evidence, Fraction) else Fraction(p_evidence)
    p = p_conditional if isinstance(p_conditional, Fraction) else Fraction(p_conditional)
    weights = [1 - r, r * p, r * (1 - p)]
    leaves = tuple(
        BranchLeaf(outcome=float(i), history=(), weight=w, cells=(w,))
        for i, w in enumerate(weights)
    )
    tree = BranchTree(leaves=leaves, grain=1e-9, fine_dim=1)
    assignment = {0: (False, False), 1: (True, True), 2: (True, False)}
    return tree, assignment


# -- Repeated-trial confirmation experiment --------------------------------------


class Credences(Mapping):
    """A row's credences in theory order, built from its class weights on read.

    On exact input the weights are ints and the credence in theory t is
    Fraction(w_t, total), reduced only when it is read; otherwise it is
    w_t / total.  floats holds every w_t / total as a float, in theory order:
    on ints that is correctly rounded int division, equal to floating the
    Fraction.
    """

    __slots__ = ("_index", "_weights", "_total", "floats")

    def __init__(
        self, index: Mapping[str, int], weights: Sequence[Number], total: Number, floats: tuple[float, ...]
    ) -> None:
        self._index, self._weights, self._total, self.floats = index, weights, total, floats

    def __getitem__(self, theory: str) -> Number:
        w = self._weights[self._index[theory]]
        return Fraction(w, self._total) if isinstance(self._total, int) else w / self._total

    def as_float(self, theory: str) -> float:
        """float(self[theory]), without building the Fraction."""
        return self.floats[self._index[theory]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class TrajectoryRow:
    """One class of branches at an iteration: its caring mass and credences.

    Rows of confirmation_experiment hold a Credences mapping over their
    class's weights (ints on exact input), so a credence is built as a
    Fraction only when it is read; any other mapping works as well.
    """

    iteration: int
    outcome_class: tuple[tuple[float, int], ...]
    caring_mass: Number
    credences: Mapping[str, Number]
    frozen: bool = False


class TrajectoryIteration:
    """The rows of one iteration of confirmation_experiment, built on read.

    It holds the iteration's merged classes in row order, each as (outcome
    counts, frozen, mass, Credences), with the outcomes and the mass scale
    (None for masses kept as given) they share.  Iterating it builds each
    TrajectoryRow; printed() gives what a renderer prints without building
    any.
    """

    __slots__ = ("iteration", "outcomes", "scale", "_entries")

    def __init__(self, iteration: int, outcomes: Sequence[float], scale: int | None, entries: list) -> None:
        self.iteration, self.outcomes, self.scale, self._entries = iteration, outcomes, scale, entries

    def __iter__(self) -> Iterator[TrajectoryRow]:
        for counts, frozen, mass, credences in self._entries:
            if self.scale is not None:
                mass = Fraction(mass, self.scale)
            yield TrajectoryRow(self.iteration, tuple(zip(self.outcomes, counts)), mass, credences, frozen)

    def printed(self) -> Iterator[tuple]:
        """(outcome counts, mass, credence floats) per row, in order, every
        number a correctly rounded float: a mass over a scale is one int
        division, and a mass kept as given started from Fraction(1), so it is
        a float or a Fraction, floated by one int division too."""
        scale = self.scale
        for counts, _, mass, credences in self._entries:
            if scale is not None:
                mass = mass / scale
            elif isinstance(mass, Fraction):
                mass = mass.numerator / mass.denominator
            yield counts, mass, credences.floats


class TrajectoryReport:
    """The rows of iterations 0..trials, produced one iteration at a time.

    A report holds new_pass: a function that starts a pass, which yields
    the rows of iteration 0, 1, ..., trials in turn, one iterable each (a
    TrajectoryIteration from confirmation_experiment); given rows instead,
    a pass yields them as one tuple.  Each read below runs a new pass, so a
    reader that consumes iterations() holds one iteration, never the
    trajectory.  The last iterable of the latest complete pass is kept, so
    the final iteration is read after a streamed pass without a second one.
    """

    def __init__(
        self,
        rows: Sequence[TrajectoryRow] | None,
        theories: Sequence[str],
        trials: int,
        *,
        new_pass: Callable[[], Iterator[Iterable[TrajectoryRow]]] | None = None,
    ) -> None:
        self.theories, self.trials = tuple(theories), trials
        self._given = None if new_pass is not None else tuple(rows or ())
        self._new_pass = new_pass or (lambda: iter((self._given,)))
        self._final: Iterable[TrajectoryRow] | None = None

    def iterations(self) -> Iterator[Iterable[TrajectoryRow]]:
        """A new pass: the rows of each iteration in turn."""
        last = None
        for last in self._new_pass():
            yield last
        self._final = last

    @property
    def rows(self) -> tuple[TrajectoryRow, ...]:
        """Every row, in order.  Each read runs a whole new pass and builds
        every row, so a caller that needs them twice keeps the tuple."""
        return tuple(row for rows in self.iterations() for row in rows)

    def rows_at(self, iteration: int) -> list[TrajectoryRow]:
        """The rows of one iteration: the final one from the latest complete
        pass if there is one, any other from a new pass that stops there."""
        if iteration == self.trials and self._final is not None:
            rows = self._final
        elif self._given is not None or not 0 <= iteration <= self.trials:
            rows = self._given or ()
        else:
            rows = next(islice(self._new_pass(), iteration, None))
        return [row for row in rows if row.iteration == iteration]

    def final_mass_above(self, theory: str, threshold: float) -> Number:
        """Caring mass of final branches whose credence in the theory exceeds
        the threshold."""
        mass: Number = Fraction(0)
        for row in self.rows_at(self.trials):
            c = row.credences
            if (c.as_float(theory) if isinstance(c, Credences) else float(c[theory])) > threshold:
                mass = mass + row.caring_mass
        return mass

    def mean_credence(self, theory: str, iteration: int) -> Number:
        """Caring-weighted mean credence in the theory at an iteration."""
        total: Number = Fraction(0)
        for row in self.rows_at(iteration):
            total = total + row.caring_mass * row.credences[theory]
        return total


def _integers(values: Sequence[int | Fraction]) -> tuple[tuple[int, ...], int]:
    """The values times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def _grow(classes: dict, step: Sequence[tuple[int, Number, tuple | None]]) -> dict:
    """One more measurement on every class: (counts, frozen-at) -> [mass, weights].

    An unfrozen class's weights are (scaled) prior x likelihood products
    fixed by its counts, so classes that reach the same counts merge.  A
    class freezes on an outcome that some theory gives no likelihood
    (likelihoods None) or whose probability is zero, and keeps the weights it
    froze with.  Masses are ints on exact caring measures (each step's
    scaled by a common factor) and are multiplied and summed as given.
    """
    grown: dict = {}
    for (counts, frozen_at), (mass, weights) in classes.items():
        for i, m, likelihoods in step:
            moved = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            key, new = (moved, frozen_at), weights
            # If an unfrozen class already reached these counts, no branch
            # reaching them freezes: both freeze conditions hold or fail
            # alike for every branch with the same counts.
            if frozen_at is None and key not in grown:
                if likelihoods is not None:
                    new = tuple(map(mul, weights, likelihoods))
                # Weights are nonnegative: they sum to zero when all are zero.
                if likelihoods is None or not any(new):
                    key, new = (moved, counts), weights
            if key in grown:
                grown[key][0] += mass * m
            else:
                grown[key] = [mass * m, new]
    return grown


def _rows(
    iteration: int,
    classes: dict,
    outcomes: Sequence[float],
    theories: Sequence[str],
    scale: int | None,
) -> TrajectoryIteration:
    """Rows merged by (outcome counts, credences, frozen) and sorted by that key.

    The key floats every w / total (on ints, correctly rounded int
    division); a row keeps the first merged class's weights as its lazy
    Credences.  Masses are summed as they are and kept over the scale (None
    for float masses).  Sorting by counts sorts by outcome class, since
    every class lists the same outcomes.
    """
    index = {t: k for k, t in enumerate(theories)}
    # The key lists the floats in theory-name order, so rows with the same
    # outcome class sort by their credences theory by theory, by name.
    by_name = sorted(range(len(theories)), key=theories.__getitem__)
    in_order = by_name == list(range(len(theories)))
    merged: dict[tuple, list] = {}
    for (counts, frozen_at), (mass, weights) in classes.items():
        total = sum(weights)
        floats = tuple([float(w / total) for w in weights])
        key = (counts, floats if in_order else tuple([floats[k] for k in by_name]), frozen_at is not None)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [mass, Credences(index, weights, total, floats)]
        else:
            entry[0] += mass
    # Keys are distinct, so sorting the items compares keys only.
    entries = [(key[0], key[2], *entry) for key, entry in sorted(merged.items())]
    return TrajectoryIteration(iteration, outcomes, scale, entries)


def _trajectory(
    priors: Mapping[str, Number],
    first: dict,
    steps: Sequence[tuple[list, int]],
    outcomes: Sequence[float],
    trials: int,
    exact_masses: bool,
) -> Iterator[Iterable[TrajectoryRow]]:
    """The rows of iterations 0..trials, one iteration at a time, from
    iteration 1's classes (first); only the current classes are held."""
    theories = tuple(priors)
    yield [TrajectoryRow(0, (), Fraction(1), dict(priors))]
    classes, scale = first, 1
    for it in range(1, trials + 1):
        step, step_scale = steps[(it - 1) % len(steps)]
        if it > 1:
            classes = _grow(classes, step)
        scale *= step_scale
        yield _rows(it, classes, outcomes, theories, scale if exact_masses else None)


def confirmation_experiment(
    cred: CredenceState,
    games: Sequence[tuple[QuantumGame, MeasurementRealization]] | QuantumGame,
    strategy: Strategy,
    trials: int,
) -> TrajectoryReport:
    """Iterate measurements, conditionalize on every branch, weigh by caring.

    games is a single game (measured directly) or a sequence of (game,
    realization) pairs cycled for the given number of trials.  Every outcome
    sequence is a branch, and each iteration reports one row per class of
    branches with the same outcome counts, credences and frozen flag, sorted
    by that key, with the caring mass of the class.  A branch freezes when it
    observes an outcome that some theory gives no likelihood or whose prior
    probability is zero: its credences stop moving.  A branch's credences
    depend on it only through its outcome counts and the counts at which it
    froze, so the enumeration carries one class per such pair and its cost
    grows polynomially with the number of trials.

    A class carries its caring mass and one weight per theory, prior x the
    likelihoods of its counts.  On exact input (every prior and likelihood an
    int or Fraction) the priors are scaled by the lcm of their denominators
    and each outcome's likelihood row by the lcm of that row's, so every
    weight is an int: the positive factors cancel in each credence and leave
    every zero test alone.  Likewise, when every caring mass is an int or
    Fraction, each game's masses are scaled by the lcm of their
    denominators, so class masses are ints over the running product of
    those scales.  Float input is used as given, in the same order.

    The inputs are checked, each game's caring masses taken and the first
    measurement made here; the rest of the recursion runs on each pass over
    the returned report, one iteration at a time (see TrajectoryReport).
    Rows keep what the recursion computed: on exact input a row's caring
    mass is its int mass over the iteration's scale, and its credences are a
    Credences mapping over the class's int weights, each building its
    Fraction only when read; the floats the rows are merged on are kept for
    printing.
    """
    if isinstance(strategy, TablePreference):
        raise ValueError("a table preference has no caring measure to weigh branches with")
    if isinstance(games, QuantumGame):
        games = [(games, Direct())]
    games = list(games)
    if not games:
        raise ValueError("need at least one game")
    if trials < 0:
        raise ValueError("trials must be nonnegative")

    theories = cred.theories()
    step_masses = [
        caring_measure(strategy, branch(game, realization)).masses for game, realization in games
    ]
    outcomes = sorted({x for masses in step_masses for x in masses})
    axis = {x: i for i, x in enumerate(outcomes)}
    tables = [cred.likelihoods[t] for t in theories]

    priors = tuple(cred.priors[t] for t in theories)
    likelihoods = {
        x: tuple(table[x] for table in tables) if all(x in table for table in tables) else None
        for x in outcomes
    }
    values = [*priors, *(v for table in tables for v in table.values())]
    if all(isinstance(v, (int, Fraction)) for v in values):
        priors = _integers(priors)[0]
        likelihoods = {x: None if row is None else _integers(row)[0] for x, row in likelihoods.items()}

    exact_masses = all(isinstance(m, (int, Fraction)) for masses in step_masses for m in masses.values())
    steps = []
    for masses in step_masses:
        ms = list(masses.values())
        ms, scale = _integers(ms) if exact_masses else (ms, 1)
        steps.append(([(axis[x], m, likelihoods[x]) for x, m in zip(masses, ms)], scale))
    classes = {((0,) * len(outcomes), None): [1 if exact_masses else Fraction(1), priors]}
    first = _grow(classes, steps[0][0]) if trials else classes
    return TrajectoryReport(
        None,
        theories,
        trials,
        new_pass=partial(_trajectory, cred.priors, first, steps, outcomes, trials, exact_masses),
    )
