"""Finite decision kernel: states, consequences, acts and preferences.

An act maps states to consequences; a preference relation is a total
comparison over a finite act set.  The kernel evaluates acts by
probability-weighted utility, checks the two rationality axioms used here
(transitivity and dominance), compares events qualitatively through
constant-act bets, and inverts the whole construction: given an ordering, it
searches for a probability vector and a utility assignment whose expected
utilities reproduce the ordering exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exact import Number, malformed


TIE_TOL = 1e-9


@dataclass(frozen=True)
class Setup:
    """A finite decision situation: either a chance setup (one state obtains,
    unknown which) or a fission setup (every state is realized on a branch)."""

    kind: str
    states: tuple[str, ...]
    consequences: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("chance", "fission"):
            raise ValueError("setup kind must be 'chance' or 'fission'")
        if not self.states or not self.consequences:
            raise ValueError("setup needs at least one state and one consequence")
        if len(set(self.states)) != len(self.states):
            raise ValueError("states must be distinct")
        if len(set(self.consequences)) != len(self.consequences):
            raise ValueError("consequences must be distinct")


@dataclass(frozen=True)
class Act:
    """A total assignment of consequences to states, stored sorted by state."""

    assignment: tuple[tuple[str, str], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "Act":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def constant(cls, setup: Setup, consequence: str) -> "Act":
        return cls.from_mapping({s: consequence for s in setup.states})

    def mapping(self) -> dict[str, str]:
        return dict(self.assignment)

    def consequence_for(self, state: str) -> str:
        for s, c in self.assignment:
            if s == state:
                return c
        raise KeyError(f"act does not cover state {state!r}")

    def is_total_on(self, states: Sequence[str]) -> bool:
        return {s for s, _ in self.assignment} == set(states)


@dataclass(frozen=True)
class Representation:
    """A probability over states plus a utility over consequences."""

    probability: Mapping[str, Number]
    utility: Mapping[str, Number]

    def __post_init__(self) -> None:
        total = float(sum(self.probability.values()))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        if any(float(p) < -1e-12 for p in self.probability.values()):
            raise ValueError("probabilities must be nonnegative")


@dataclass(frozen=True)
class Infeasible:
    """No probability-utility pair reproduces the ordering; witness shows a
    pair of acts whose stated comparison the best candidate still gets wrong."""

    witness: tuple[Act, Act]
    detail: str = ""


class Comparison(Enum):
    HIGHER_OR_EQUAL = "higher-or-equal"
    LOWER = "lower"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class AxiomViolation:
    kind: str
    acts: tuple[Act, ...]
    detail: str


class AxiomError(ValueError):
    """Raised when an operation requires axiom-consistent preferences."""

    def __init__(self, violations: Sequence[AxiomViolation]):
        self.violations = tuple(violations)
        super().__init__(f"{len(self.violations)} axiom violation(s): {self.violations[0].detail}")


@dataclass(frozen=True, eq=False)
class PreferenceRelation:
    """A reflexive, total comparison over a finite act list.

    One encoding, coerced once at construction: ``weak`` is an (acts x acts)
    bool matrix, weak[i, j] meaning act i is weakly preferred to act j (an
    array is taken as given, its diagonal set; anything else is read as
    (i, j) index pairs), and ``matrix`` holds each act's consequence indices
    in ``setup.states`` order.  Totality and acts that name only listed
    consequences are enforced here; transitivity is not, so that
    inconsistent inputs can be represented and then diagnosed.  Relations
    hold arrays, so they compare by identity.
    """

    setup: Setup
    acts: tuple[Act, ...]
    weak: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)
    _index: dict[Act, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.acts)
        index = {act: i for i, act in enumerate(self.acts)}
        if len(index) != n:
            raise ValueError("acts must be distinct")
        consequence_index = {c: k for k, c in enumerate(self.setup.consequences)}
        rows = []
        for act in self.acts:
            if not act.is_total_on(self.setup.states):
                raise ValueError(f"act {act} is not total on the setup's states")
            mapping = act.mapping()
            try:
                rows.append([consequence_index[mapping[s]] for s in self.setup.states])
            except KeyError as exc:
                missing = exc.args[0]
                raise ValueError(
                    f"act {mapping} names consequence {missing!r}, which the setup does not list"
                ) from None
        matrix = np.array(rows, dtype=np.intp).reshape(n, len(self.setup.states))

        if isinstance(self.weak, np.ndarray):
            weak = self.weak.astype(bool)
            if weak.shape != (n, n):
                raise ValueError(f"weak matrix must be {n} x {n}, got {weak.shape}")
        else:
            weak = np.zeros((n, n), dtype=bool)
            pairs = np.array(list(self.weak), dtype=np.intp).reshape(-1, 2)
            weak[pairs[:, 0], pairs[:, 1]] = True
        np.fill_diagonal(weak, True)
        uncompared = np.argwhere(~(weak | weak.T))
        if len(uncompared):
            i, j = uncompared[0]
            raise ValueError(f"relation must be total: acts {i} and {j} are not compared")
        weak.flags.writeable = matrix.flags.writeable = False
        object.__setattr__(self, "weak", weak)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_tiers(cls, setup: Setup, tiers: Sequence[Sequence[Act]]) -> "PreferenceRelation":
        """Build from a best-first list of indifference tiers."""
        acts = tuple(act for tier in tiers for act in tier)
        level = np.array([rank for rank, tier in enumerate(tiers) for _ in tier], dtype=np.intp)
        return cls(setup, acts, level[:, None] <= level[None, :])

    @classmethod
    def from_pairs(
        cls,
        setup: Setup,
        acts: Sequence[Act],
        weak_pairs: Iterable[tuple[Act, Act]],
    ) -> "PreferenceRelation":
        acts = tuple(acts)
        index = {act: i for i, act in enumerate(acts)}
        return cls(setup, acts, [(index[a], index[b]) for a, b in weak_pairs])

    def index_of(self, act: Act) -> int | None:
        return self._index.get(act)

    def contains(self, act: Act) -> bool:
        return act in self._index

    def holds(self, a: Act, b: Act) -> bool:
        """a is weakly preferred to b."""
        i, j = self.index_of(a), self.index_of(b)
        if i is None or j is None:
            raise KeyError("both acts must be listed in the relation")
        return bool(self.weak[i, j])

    def strictly(self, a: Act, b: Act) -> bool:
        return self.holds(a, b) and not self.holds(b, a)

    def indifferent(self, a: Act, b: Act) -> bool:
        return self.holds(a, b) and self.holds(b, a)

    def ranks(self) -> list[int]:
        """For each act, the number of acts strictly preferred to it."""
        return (self.weak & ~self.weak.T).sum(axis=0).tolist()

    def tiers(self) -> list[list[Act]]:
        """Indifference classes, best first.  Requires consistency."""
        violations = check_axioms(self)
        if violations:
            raise AxiomError(violations)
        ranks = self.ranks()
        buckets: dict[int, list[Act]] = {}
        for act, r in zip(self.acts, ranks):
            buckets.setdefault(r, []).append(act)
        return [sorted(buckets[r], key=lambda a: a.assignment) for r in sorted(buckets)]


MAX_ACTS = 100_000


def all_acts(setup: Setup) -> tuple[Act, ...]:
    """Every function from states to consequences, in deterministic order."""
    count = len(setup.consequences) ** len(setup.states)
    if count > MAX_ACTS:
        raise ValueError(f"act space too large to enumerate ({count})")
    acts = []
    for combo in itertools.product(setup.consequences, repeat=len(setup.states)):
        acts.append(Act.from_mapping(dict(zip(setup.states, combo))))
    return tuple(acts)


def all_events(setup: Setup) -> tuple[frozenset[str], ...]:
    """The power set of the state space (capped at 12 states)."""
    if len(setup.states) > 12:
        raise ValueError("event enumeration is capped at 12 states")
    out = []
    for r in range(len(setup.states) + 1):
        for combo in itertools.combinations(setup.states, r):
            out.append(frozenset(combo))
    return tuple(out)


def expected_utility(act: Act, rep: Representation) -> Number:
    """Probability-weighted utility of the act's consequences.

    Exact when the representation is rational-valued.
    """
    total: Number = Fraction(0)
    for state, p in rep.probability.items():
        c = act.consequence_for(state)
        if c not in rep.utility:
            raise KeyError(f"no utility for consequence {c!r}")
        total = total + p * rep.utility[c]
    return total


def generate_preferences(
    setup: Setup,
    rep: Representation,
    acts: Sequence[Act] | None = None,
    eus: Sequence[Number] | None = None,
) -> PreferenceRelation:
    """The ordering induced by expected utility, as a tier list.

    This is the forward direction used as an independent oracle for the
    extraction round trip: EUs are computed for every act and sorted, with
    ties grouped at TIE_TOL.  A caller that already holds the acts' EUs
    under rep passes them as eus, in act order, and none is computed again.
    """
    acts = tuple(acts) if acts is not None else all_acts(setup)
    if eus is None:
        eus = [expected_utility(act, rep) for act in acts]
    scored = sorted(zip(eus, acts), key=lambda pair: (-float(pair[0]), pair[1].assignment))
    tiers: list[list[Act]] = []
    last_eu: Number | None = None
    for eu, act in scored:
        if last_eu is not None and abs(float(last_eu) - float(eu)) <= TIE_TOL:
            tiers[-1].append(act)
        else:
            tiers.append([act])
        last_eu = eu
    return PreferenceRelation.from_tiers(setup, tiers)


def check_axioms(prefs: PreferenceRelation) -> list[AxiomViolation]:
    """Transitivity and dominance violations; empty list means consistent.

    Both passes walk the weak matrix one act row at a time, so memory stays
    O(acts^2) however many states there are.
    """
    violations: list[AxiomViolation] = []
    weak, acts = prefs.weak, prefs.acts
    ranks = np.array(prefs.ranks())

    # A relation is transitive exactly when it is the weak order of its ranks.
    if not np.array_equal(weak, ranks[:, None] <= ranks[None, :]):
        for i in range(len(acts)):
            for j, k in np.argwhere(weak[i][:, None] & weak & ~weak[i][None, :]):
                a, b, c = acts[i], acts[j], acts[k]
                violations.append(
                    AxiomViolation(
                        kind="transitivity",
                        acts=(a, b, c),
                        detail=(
                            f"{a.mapping()} >= {b.mapping()} and {b.mapping()} >= "
                            f"{c.mapping()} but not {a.mapping()} >= {c.mapping()}"
                        ),
                    )
                )

    # Dominance is judged against the ordering of constant acts, where listed:
    # prefer[c, d] holds when both constants are listed and c's is weakly preferred.
    const = np.array(
        [prefs._index.get(Act.constant(prefs.setup, c), -1) for c in prefs.setup.consequences]
    )
    listed = const >= 0
    prefer = np.zeros((len(const), len(const)), dtype=bool)
    prefer[np.ix_(listed, listed)] = weak[np.ix_(const[listed], const[listed])]
    for i, a in enumerate(acts):
        # Acts strictly preferred to a, then those a weakly dominates state by state.
        above = np.flatnonzero(weak[:, i] & ~weak[i, :])
        dominated = prefer[prefs.matrix[i], prefs.matrix[above]].all(axis=1)
        for j in above[dominated]:
            b = acts[j]
            violations.append(
                AxiomViolation(
                    kind="dominance",
                    acts=(a, b),
                    detail=(
                        f"{a.mapping()} gives weakly preferred consequences on every "
                        f"state yet {b.mapping()} is strictly preferred"
                    ),
                )
            )
    return violations


def qualitative_probability(
    prefs: PreferenceRelation,
    event_a: Iterable[str],
    event_b: Iterable[str],
) -> Comparison:
    """Compare two events through constant-act bets.

    With constant acts c1 weakly preferred to c2, event A counts at least as
    probable as event B exactly when the act paying c1 on A and c2 elsewhere
    is weakly preferred to the act paying c1 on B and c2 elsewhere.  Returns
    INCOMPARABLE when the relation does not list the acts needed to run the
    comparison.
    """
    ea = frozenset(event_a)
    eb = frozenset(event_b)
    states = set(prefs.setup.states)
    if not ea <= states or not eb <= states:
        raise ValueError("events must be subsets of the setup's states")
    if ea == eb:
        return Comparison.HIGHER_OR_EQUAL

    for c1, c2 in itertools.permutations(prefs.setup.consequences, 2):
        const1 = Act.constant(prefs.setup, c1)
        const2 = Act.constant(prefs.setup, c2)
        if not (prefs.contains(const1) and prefs.contains(const2)):
            continue
        if not prefs.strictly(const1, const2):
            continue
        bet_a = Act.from_mapping({s: (c1 if s in ea else c2) for s in prefs.setup.states})
        bet_b = Act.from_mapping({s: (c1 if s in eb else c2) for s in prefs.setup.states})
        if not (prefs.contains(bet_a) and prefs.contains(bet_b)):
            continue
        if prefs.holds(bet_a, bet_b):
            return Comparison.HIGHER_OR_EQUAL
        return Comparison.LOWER
    return Comparison.INCOMPARABLE


# -- Representation extraction -------------------------------------------------


_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _margin_lp(strict, eq, eq_rhs, order=()):
    """Maximize t over x in [0, 1]^n and t in [-2, 2] subject to
    strict @ x >= t, eq @ x = eq_rhs and order @ x <= 0.

    Every extraction LP is this one problem with its own rows.  Returns
    (x, t), or (None, -inf) when the solver fails.
    """
    # scipy takes most of the package's import time; only an LP needs it.
    from scipy.optimize import linprog

    k, n = strict.shape
    A_ub = np.hstack([-strict, np.ones((k, 1))])
    if len(order):
        A_ub = np.vstack([A_ub, np.hstack([order, np.zeros((len(order), 1))])])
    res = linprog(
        [0.0] * n + [-1.0],
        A_ub=A_ub,
        b_ub=np.zeros(len(A_ub)),
        A_eq=np.hstack([eq, np.zeros((len(eq), 1))]),
        b_eq=eq_rhs,
        bounds=[(0.0, 1.0)] * n + [(-2.0, 2.0)],
        method="highs",
        options=_LP_OPTIONS,
    )
    if not res.success:
        return None, -np.inf
    return res.x[:n], res.x[n]


class _Extractor:
    """Deterministic max-margin search shared by the public entry point.

    A comparison of acts a and b is the (ns, nc) matrix M = onehot(a) -
    onehot(b), indexed out of the relation's consequence matrix, so that
    EU(a) - EU(b) = p @ M @ u.  Strict tier constraints stack into S and ties
    into T, (K, ns, nc) each, so fixing either block reduces each constraint
    to a dot product.  One max-margin LP, ``_margin_lp``, serves all three
    steps: the p-step and the u-step of the alternation, and the rank-one
    relaxation in the monomials p_s * u_c, each stating only its rows.  The
    search ladder: alternation seeded by that relaxation, alternation from
    uniform p, then coarse-to-fine grids over the free utility classes,
    polishing every seed with alternating LPs.
    """

    def __init__(self, prefs, tiers):
        setup = prefs.setup
        self.ns, self.nc = len(setup.states), len(setup.consequences)
        tier_of = {act: k for k, tier in enumerate(tiers) for act in tier}
        self.cons_class = {c: tier_of[Act.constant(setup, c)] for c in setup.consequences}
        self.class_levels = sorted(set(self.cons_class.values()))
        self.class_members = [
            [k for k, c in enumerate(setup.consequences) if self.cons_class[c] == lev]
            for lev in self.class_levels
        ]
        self.top = self.class_members[0]
        self.bottom = self.class_members[-1]
        self.strict_pairs = [(upper[0], lower[0]) for upper, lower in zip(tiers, tiers[1:])]
        self.tie_pairs = [(tier[0], other) for tier in tiers for other in tier[1:]]
        onehot = np.eye(self.nc)[prefs.matrix]

        def difference(pairs):
            index = [[prefs.index_of(act) for act in pair] for pair in pairs]
            first, second = np.array(index, dtype=np.intp).reshape(-1, 2).T
            return onehot[first] - onehot[second]

        self.S = difference(self.strict_pairs)
        self.T = difference(self.tie_pairs)

    def probability_lp(self, u):
        """Maximize the minimum strict gap over p with u fixed."""
        eq = np.vstack([np.ones(self.ns), self.T @ u])
        return _margin_lp(self.S @ u, eq, [1.0] + [0.0] * len(self.T))

    def utility_lp(self, p):
        """Maximize the minimum strict gap over u with p fixed."""
        unit = np.eye(self.nc)
        eq = np.vstack([np.einsum("s,ksc->kc", p, self.T), unit[self.top], unit[self.bottom]])
        eq_rhs = [0.0] * len(self.T) + [1.0] * len(self.top) + [0.0] * len(self.bottom)
        return _margin_lp(np.einsum("s,ksc->kc", p, self.S), eq, eq_rhs)

    def alternate_from_u(self, u0, rounds=40):
        u = np.asarray(u0, dtype=float)
        best = (None, None, -np.inf)
        for _ in range(rounds):
            p, _ = self.probability_lp(u)
            if p is None:
                break
            u_new, t_u = self.utility_lp(p)
            if u_new is None:
                break
            if t_u > best[2]:
                best = (p, u_new, t_u)
            elif t_u <= best[2] + 1e-12:
                break
            u = u_new
        return best

    def alternate_from_p(self, p0, rounds=40):
        u, _ = self.utility_lp(np.asarray(p0, dtype=float))
        if u is None:
            return (None, None, -np.inf)
        return self.alternate_from_u(u, rounds=rounds)

    def relaxation_seed(self):
        """One LP over z[s, c] ~ p_s * u_c with the rank-one coupling relaxed.

        Every EU constraint is exactly linear in z, so only the cross-state
        proportionality of columns is lost; the projected (p, u) is usually
        close to a feasible pair and makes a strong alternation seed.
        """
        ns, nc = self.ns, self.nc
        cell = np.eye(ns * nc).reshape(ns * nc, ns, nc)  # cell[:, s, c] is z[s, c]'s unit row
        eq = [self.T.reshape(len(self.T), ns * nc)]
        eq += [cell[:, s, c] for c in self.bottom for s in range(ns)]
        eq_rhs = [0.0] * (len(self.T) + len(self.bottom) * ns)
        eq += [cell[:, :, c].sum(axis=1) for c in self.top]
        eq_rhs += [1.0] * len(self.top)
        for group in self.class_members:
            for other in group[1:]:
                eq += [cell[:, s, group[0]] - cell[:, s, other] for s in range(ns)]
                eq_rhs += [0.0] * ns
        order = [
            cell[:, s, g2[0]] - cell[:, s, g1[0]]
            for g1, g2 in zip(self.class_members, self.class_members[1:])
            for s in range(ns)
        ]
        z, _ = _margin_lp(
            self.S.reshape(len(self.S), ns * nc), np.vstack(eq), eq_rhs, np.array(order)
        )
        if z is None:
            return None, None
        z = z.reshape(ns, nc)
        p = np.clip(z[:, self.top[0]], 0.0, None)
        p = p / p.sum() if p.sum() > 0 else np.full(ns, 1.0 / ns)
        return p, z.sum(axis=0)

    def class_u(self, middle_values):
        """Expand per-class utility levels (middles only) to consequences."""
        levels = [1.0] + list(middle_values) + [0.0]
        u = np.zeros(self.nc)
        for level, members in zip(levels, self.class_members):
            for k in members:
                u[k] = level
        return u

    def middle_grids(self, step_counts):
        """Deterministic grids over the free (middle) utility classes."""
        free = len(self.class_members) - 2
        if free <= 0:
            return
        for steps in step_counts:
            ticks = [k / steps for k in range(1, steps)]
            for combo in itertools.combinations(reversed(ticks), free):
                yield combo

    def search(self):
        p_uniform = np.full(self.ns, 1.0 / self.ns)
        p_relax, u_relax = self.relaxation_seed()
        seeds = []
        if u_relax is not None:
            seeds.append(lambda: self.alternate_from_u(u_relax))
        seeds.append(lambda: self.alternate_from_p(p_uniform))
        if p_relax is not None:
            seeds.append(lambda: self.alternate_from_p(p_relax))

        best = (None, None, -np.inf)
        for run in seeds:
            cand = run()
            if cand[2] > best[2]:
                best = cand
            if best[2] > 1e-9:
                return best

        # Grid over the free utility classes, coarse to fine, polishing the
        # most promising points.  The probability LP is global in p, so only
        # u needs covering.
        for middles in self.middle_grids((8, 20)):
            u0 = self.class_u(middles)
            p, t = self.probability_lp(u0)
            if t > best[2]:
                cand = self.alternate_from_u(u0)
                if cand[2] > best[2]:
                    best = cand
            if best[2] > 1e-9:
                return best

        # Local refinement around the best utility seen so far.
        if best[1] is not None and len(self.class_members) > 2:
            mid_idx = [g[0] for g in self.class_members[1:-1]]
            center = [best[1][k] for k in mid_idx]
            offsets = [-0.04, -0.02, -0.01, 0.0, 0.01, 0.02, 0.04]
            for combo in itertools.product(offsets, repeat=len(center)):
                middles = tuple(
                    min(0.999, max(0.001, c + d)) for c, d in zip(center, combo)
                )
                if any(a <= b for a, b in zip(middles, middles[1:])):
                    continue
                cand = self.alternate_from_u(self.class_u(middles))
                if cand[2] > best[2]:
                    best = cand
                if best[2] > 1e-9:
                    return best
        return best


def extract_representation(prefs: PreferenceRelation) -> Representation | Infeasible:
    """Search for a probability and utility whose EU ordering reproduces prefs.

    The EU constraints are bilinear in (p, u), so the search alternates two
    linear programs, each maximizing the minimum strict gap with the other
    block held fixed, seeded by a rank-one relaxation and refined over
    deterministic utility grids when alternation stalls.  The result is the
    first positive-margin point found under that fixed schedule, with
    utilities normalized to [0, 1]; the worked two-state case lands on the
    max-margin center of its feasible region.  If the best candidate still
    misorders some pair, that pair is returned as an infeasibility witness.
    """
    tiers = prefs.tiers()  # raises AxiomError on inconsistent input
    setup = prefs.setup
    for c in setup.consequences:
        if not prefs.contains(Act.constant(setup, c)):
            raise ValueError(f"extraction needs the constant act for {c!r} to be listed")

    states, consequences = setup.states, setup.consequences
    ns = len(states)

    if len(tiers) == 1:
        return Representation(
            probability={s: 1.0 / ns for s in states},
            utility={c: 0.0 for c in consequences},
        )

    extractor = _Extractor(prefs, tiers)
    if len(extractor.class_levels) == 1:
        # Every consequence is equally good, yet some acts are strictly
        # ranked: no utility assignment can separate them.
        return Infeasible(
            witness=(tiers[0][0], tiers[1][0]),
            detail="all consequences are indifferent but the act ordering is strict",
        )

    p, u, margin = extractor.search()
    if p is not None and margin > 0.0:
        # Canonical tie-break: when the probability block is slack (as with
        # constant-acts-only input), prefer the uniform point.
        uniform = np.full(len(states), 1.0 / len(states))
        strict_at_uniform = (extractor.S @ u) @ uniform
        ties_at_uniform = (extractor.T @ u) @ uniform if len(extractor.T) else np.zeros(0)
        if (
            strict_at_uniform.size
            and strict_at_uniform.min() >= margin - 1e-12
            and (not ties_at_uniform.size or np.abs(ties_at_uniform).max() <= 1e-12)
        ):
            p = uniform
    if p is None or margin <= 0.0:
        witness = extractor.strict_pairs[0]
        if p is not None and u is not None:
            for (a, b), M in zip(extractor.strict_pairs, extractor.S):
                if float(p @ M @ u) <= 0.0:
                    witness = (a, b)
                    break
        return Infeasible(
            witness=witness,
            detail=f"no positive-margin representation found (best margin {margin!r})",
        )

    rep = Representation(
        probability={s: float(max(p[i], 0.0)) for i, s in enumerate(states)},
        utility={c: float(u[k]) for k, c in enumerate(consequences)},
    )

    # Confirm the candidate reproduces the stated ordering before returning it.
    for (a, b) in extractor.strict_pairs:
        if not float(expected_utility(a, rep)) > float(expected_utility(b, rep)):
            return Infeasible(witness=(a, b), detail="candidate misorders a strict pair")
    for (a, b) in extractor.tie_pairs:
        if abs(float(expected_utility(a, rep)) - float(expected_utility(b, rep))) > TIE_TOL:
            return Infeasible(witness=(a, b), detail="candidate breaks a stated tie")
    return rep


# -- Round-trip sweep (oracle: brute-force pairwise EU comparison) -------------


def random_representation(rng: random.Random, ns: int, nc: int) -> tuple[Setup, Representation]:
    setup = Setup(
        kind="fission",
        states=tuple(f"s{i}" for i in range(1, ns + 1)),
        consequences=tuple(f"c{i}" for i in range(1, nc + 1)),
    )
    raw = [rng.randrange(1, 60) for _ in range(ns)]
    total = sum(raw)
    probability = {s: Fraction(k, total) for s, k in zip(setup.states, raw)}
    utility = {c: Fraction(rng.randrange(-40, 41), rng.randrange(1, 7)) for c in setup.consequences}
    return setup, Representation(probability=probability, utility=utility)


def representation_roundtrip_sweep(
    count: int,
    seed: int = 0,
    max_states: int = 4,
    max_consequences: int = 4,
) -> list[dict]:
    """Generate orderings from random rational (p, u), re-extract, and compare.

    Instances are resampled until every act has a distinct exact EU, so the
    generated ordering is strict.  Success means the extracted representation
    reproduces the full ordering under brute-force pairwise comparison.  A
    count below 1, a size cap below 2, or caps that allow more acts than
    MAX_ACTS raise ValueError before anything is drawn.
    """
    if count < 1:
        raise ValueError(f"round-trip count must be at least 1, got {count}")
    if min(max_states, max_consequences) < 2:
        raise ValueError(
            f"round trips need caps of at least 2, got {max_states} and {max_consequences}"
        )
    # With 2 or more consequences, MAX_ACTS.bit_length() states are already
    # over the cap, so the power is only taken on small exponents.
    if max_states >= MAX_ACTS.bit_length() or max_consequences ** max_states > MAX_ACTS:
        raise ValueError(
            f"caps allow {max_consequences}^{max_states} acts, over the {MAX_ACTS} all_acts enumerates"
        )
    rng = random.Random(seed)
    results = []
    for trial in range(count):
        while True:
            ns = rng.randrange(2, max_states + 1)
            nc = rng.randrange(2, max_consequences + 1)
            setup, rep = random_representation(rng, ns, nc)
            acts = all_acts(setup)
            eus = [expected_utility(a, rep) for a in acts]
            if len(set(eus)) == len(eus):
                break
        prefs = generate_preferences(setup, rep, acts, eus)
        extracted = extract_representation(prefs)
        ok = isinstance(extracted, Representation) and orderings_match(prefs, extracted)
        results.append(
            {
                "trial": trial,
                "states": ns,
                "consequences": nc,
                "acts": len(acts),
                "ok": ok,
            }
        )
    return results


def orderings_match(prefs: PreferenceRelation, rep: Representation) -> bool:
    """Brute-force check that rep's EU comparisons agree with prefs on all pairs."""
    eus = np.array([float(expected_utility(act, rep)) for act in prefs.acts])
    weak = prefs.weak
    tie = weak & weak.T & ~np.eye(len(eus), dtype=bool)
    broken_tie = (np.abs(eus[:, None] - eus[None, :]) > TIE_TOL)[tie].any()
    return bool(not broken_tie and (eus[:, None] > eus[None, :])[weak & ~weak.T].all())


# -- JSON wire format -----------------------------------------------------------


def preferences_to_json_dict(prefs: PreferenceRelation) -> dict:
    tiers = prefs.tiers()
    return {
        "setup": {
            "kind": prefs.setup.kind,
            "states": list(prefs.setup.states),
            "consequences": list(prefs.setup.consequences),
        },
        "tiers": [[act.mapping() for act in tier] for tier in tiers],
    }


@malformed("preference JSON")
def preferences_from_json_dict(doc) -> PreferenceRelation:
    """Accepts either {"setup": ..., "tiers": ...} or a bare tier list.

    Each tier must be a list of acts, each act an object mapping states to
    consequences; acts may name only the listed consequences.  A malformed
    document raises ValueError.
    """
    tiers_raw = doc if isinstance(doc, list) else doc["tiers"]
    if not isinstance(tiers_raw, list):
        raise ValueError("tiers must be a list of tiers, best first")
    if isinstance(doc, list):
        states = sorted({s for tier in doc for act in tier for s in act})
        consequences = sorted({c for tier in doc for act in tier for c in act.values()})
        setup = Setup(kind="fission", states=tuple(states), consequences=tuple(consequences))
    else:
        setup = Setup(
            kind=doc["setup"].get("kind", "fission"),
            states=tuple(doc["setup"]["states"]),
            consequences=tuple(doc["setup"]["consequences"]),
        )
    tiers = [[Act.from_mapping(act) for act in tier] for tier in tiers_raw]
    return PreferenceRelation.from_tiers(setup, tiers)


def representation_to_json_dict(rep: Representation) -> dict:
    return {
        "probability": {s: float(p) for s, p in rep.probability.items()},
        "utility": {c: float(u) for c, u in rep.utility.items()},
    }
