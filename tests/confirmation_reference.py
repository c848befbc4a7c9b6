"""Path-by-path reference for ``confirmation_experiment``.

Every outcome sequence is kept as its own path and conditionalized on
separately with ``conditionalize``; a path freezes when the update is
undefined (no likelihood, or zero evidence probability).  Paths are merged
into rows by (outcome class, credences, frozen) only at the end of each
iteration.  The cost is exponential in the number of trials, so it serves
the tests as an independent check on small depths only.
"""

from dataclasses import replace
from fractions import Fraction

from branchlab import Direct, QuantumGame, branch, caring_measure, conditionalize
from branchlab.confirmation import TrajectoryReport, TrajectoryRow


def reference_experiment(cred, games, strategy, trials) -> TrajectoryReport:
    if isinstance(games, QuantumGame):
        games = [(games, Direct())]
    steps = [caring_measure(strategy, branch(game, realization)).by_outcome() for game, realization in games]
    all_outcomes = sorted({x for step in steps for x in step})
    paths = [((), Fraction(1), cred, False)]
    rows = [TrajectoryRow(iteration=0, outcome_class=(), caring_mass=Fraction(1), credences=dict(cred.priors))]
    for it in range(1, trials + 1):
        step_mass = steps[(it - 1) % len(steps)]
        new_paths = []
        for history, mass, state, frozen in paths:
            for outcome, m in sorted(step_mass.items()):
                if frozen:
                    new_state, now_frozen = state, True
                else:
                    try:
                        new_state, now_frozen = conditionalize(state, outcome), False
                    except (ValueError, KeyError):
                        new_state, now_frozen = state, True
                new_paths.append((history + (outcome,), mass * m, new_state, now_frozen))
        paths = new_paths
        merged = {}
        for history, mass, state, frozen in paths:
            counts = tuple((x, history.count(x)) for x in all_outcomes)
            key = (counts, tuple(sorted((t, float(v)) for t, v in state.priors.items())), frozen)
            if key in merged:
                merged[key] = replace(merged[key], caring_mass=merged[key].caring_mass + mass)
            else:
                merged[key] = TrajectoryRow(
                    iteration=it,
                    outcome_class=counts,
                    caring_mass=mass,
                    credences=dict(state.priors),
                    frozen=frozen,
                )
        rows.extend(merged[key] for key in sorted(merged))
    return TrajectoryReport(rows=tuple(rows), theories=cred.theories(), trials=trials)
