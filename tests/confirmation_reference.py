"""References for ``confirmation_experiment``.

``reference_experiment`` is path by path: every outcome sequence is kept as
its own path and conditionalized on separately with ``conditionalize``; a
path freezes when the update is undefined (no likelihood, or zero evidence
probability).  Paths are merged into rows by (outcome class, credences,
frozen) only at the end of each iteration.  The cost is exponential in the
number of trials, so it serves the tests as an independent check on small
depths only.

``fraction_weight_experiment`` is the class recursion as it was before class
weights became integers: weights are the unscaled prior x likelihood
products, summed from ``Fraction(0)`` and divided term by term.  On float
input the integer version must reproduce it bit for bit.

``reference_emit`` renders a trajectory as ``reporting.emit`` did before rows
carried their own floats: every credence is read from the row's mapping and
every number, ``Fraction`` or float, goes through ``fmt_float``.
"""

from dataclasses import replace
from fractions import Fraction

from branchlab import Direct, QuantumGame, branch, caring_measure, conditionalize
from branchlab.confirmation import TrajectoryReport, TrajectoryRow
from branchlab.reporting import dumps_stable, fmt_float, rows_to_csv, rows_to_table


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


def _grow(classes, step):
    grown = {}
    for (counts, frozen_at), (mass, weights) in classes.items():
        for i, m, likelihoods in step:
            moved = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            key, new = (moved, frozen_at), weights
            if frozen_at is None and key not in grown:
                if likelihoods is not None:
                    new = tuple(w * l for w, l in zip(weights, likelihoods))
                if likelihoods is None or sum(new) == 0:
                    key, new = (moved, counts), weights
            if key in grown:
                grown[key][0] += mass * m
            else:
                grown[key] = [mass * m, new]
    return grown


def _rows(iteration, classes, outcomes, theories):
    merged = {}
    for (counts, frozen_at), (mass, weights) in classes.items():
        total = sum(weights, Fraction(0))
        credences = {t: w / total for t, w in zip(theories, weights)}
        outcome_class = tuple(zip(outcomes, counts))
        frozen = frozen_at is not None
        key = (outcome_class, tuple(sorted((t, float(v)) for t, v in credences.items())), frozen)
        if key in merged:
            merged[key] = replace(merged[key], caring_mass=merged[key].caring_mass + mass)
        else:
            merged[key] = TrajectoryRow(iteration, outcome_class, mass, credences, frozen)
    return [merged[key] for key in sorted(merged)]


def fraction_weight_experiment(cred, games, strategy, trials) -> TrajectoryReport:
    if isinstance(games, QuantumGame):
        games = [(games, Direct())]
    theories = cred.theories()
    step_masses = [caring_measure(strategy, branch(game, realization)).by_outcome() for game, realization in games]
    outcomes = sorted({x for masses in step_masses for x in masses})
    axis = {x: i for i, x in enumerate(outcomes)}
    tables = [cred.likelihoods[t] for t in theories]

    def likelihoods(x):
        return tuple(table[x] for table in tables) if all(x in table for table in tables) else None

    steps = [[(axis[x], m, likelihoods(x)) for x, m in sorted(masses.items())] for masses in step_masses]
    classes = {((0,) * len(outcomes), None): [Fraction(1), tuple(cred.priors[t] for t in theories)]}
    rows = [TrajectoryRow(0, (), Fraction(1), dict(cred.priors))]
    for it in range(1, trials + 1):
        classes = _grow(classes, steps[(it - 1) % len(steps)])
        rows.extend(_rows(it, classes, outcomes, theories))
    return TrajectoryReport(rows=tuple(rows), theories=theories, trials=trials)


def reference_emit(report: TrajectoryReport, fmt: str) -> bytes:
    fields = ["iteration", "outcome_class", "caring_mass"]
    fields += [f"credence_{t}" for t in report.theories]
    rows = []
    for row in report.rows:
        record = {
            "iteration": row.iteration,
            "outcome_class": ";".join(f"{fmt_float(x)}:{count}" for x, count in row.outcome_class),
            "caring_mass": row.caring_mass,
        }
        for t in report.theories:
            record[f"credence_{t}"] = row.credences[t]
        rows.append(record)
    if fmt == "json":
        return dumps_stable([{f: r.get(f, "") for f in fields} for r in rows]).encode()
    if fmt == "csv":
        return rows_to_csv(fields, rows).encode()
    return rows_to_table(fields, rows).encode()
