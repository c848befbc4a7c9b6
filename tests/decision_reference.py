"""Pair-set references for the decision kernel's matrix encoding.

These are ``check_axioms``, ``ranks``, ``tiers`` and ``_pair_matrix`` as they
were when a relation stored its weak preference as a set of (i, j) index
pairs and every dominance test scanned acts state by state with
``Act.consequence_for``.  They cost O(acts^3) and O(acts^2 x states) Python
steps, so they serve the tests as an independent check on small relations
only.  The matrix versions must return identical violation lists (kinds,
acts, detail strings and order), ranks, tiers and constraint matrices.
"""

import itertools

import numpy as np

from branchlab.decision import Act, AxiomError, AxiomViolation


def weak_pairs(prefs) -> frozenset[tuple[int, int]]:
    """The relation's weak matrix as the old set of index pairs."""
    n = len(prefs.acts)
    return frozenset((i, j) for i in range(n) for j in range(n) if prefs.weak[i, j])


def reference_ranks(prefs) -> list[int]:
    weak = weak_pairs(prefs)
    n = len(prefs.acts)
    return [
        sum(1 for j in range(n) if (j, i) in weak and (i, j) not in weak) for i in range(n)
    ]


def reference_check_axioms(prefs) -> list[AxiomViolation]:
    violations: list[AxiomViolation] = []
    n = len(prefs.acts)
    weak = weak_pairs(prefs)
    ranks = reference_ranks(prefs)
    index = {act: i for i, act in enumerate(prefs.acts)}

    consistent = all(
        ((i, j) in weak) == (ranks[i] <= ranks[j]) for i in range(n) for j in range(n)
    )
    if not consistent:
        for i, j, k in itertools.product(range(n), repeat=3):
            if (i, j) in weak and (j, k) in weak and (i, k) not in weak:
                a, b, c = prefs.acts[i], prefs.acts[j], prefs.acts[k]
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

    cons_pref: dict[tuple[str, str], bool] = {}
    for c, d in itertools.product(prefs.setup.consequences, repeat=2):
        ic = index.get(Act.constant(prefs.setup, c))
        id_ = index.get(Act.constant(prefs.setup, d))
        if ic is not None and id_ is not None:
            cons_pref[(c, d)] = (ic, id_) in weak
    for i, j in itertools.product(range(n), repeat=2):
        if i == j:
            continue
        a, b = prefs.acts[i], prefs.acts[j]
        statewise = [
            cons_pref.get((a.consequence_for(s), b.consequence_for(s)))
            for s in prefs.setup.states
        ]
        if all(v is True for v in statewise):
            if (j, i) in weak and (i, j) not in weak:
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


def reference_tiers(prefs) -> list[list[Act]]:
    violations = reference_check_axioms(prefs)
    if violations:
        raise AxiomError(violations)
    buckets: dict[int, list[Act]] = {}
    for act, r in zip(prefs.acts, reference_ranks(prefs)):
        buckets.setdefault(r, []).append(act)
    return [sorted(buckets[r], key=lambda a: a.assignment) for r in sorted(buckets)]


def reference_pair_matrix(a: Act, b: Act, states, consequences) -> np.ndarray:
    """M[s, c] = [a(s) = c] - [b(s) = c]; EU(a) - EU(b) = p @ M @ u."""
    cidx = {c: k for k, c in enumerate(consequences)}
    M = np.zeros((len(states), len(consequences)))
    for si, s in enumerate(states):
        M[si, cidx[a.consequence_for(s)]] += 1.0
        M[si, cidx[b.consequence_for(s)]] -= 1.0
    return M
