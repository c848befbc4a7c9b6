"""Per-op oracles: what each CLI call must print, worked out without branchlab.

Each check takes the op, its stdout text and its exit code.  It raises
Mismatch when the output is wrong and otherwise returns True when the op did
its job, or False when the program correctly reported that it could not (an
extraction round trip that did not reproduce the ordering).  A correct
"fail" or "inconclusive" verdict is a correct output and returns True.

Expected values come from the op's own inputs: exact ``Fraction`` stage
values, replayed seeds, and a Bayes/branch-mass recursion for confirmation
runs.  Printed floats carry 12 significant digits, hence the 1e-9 slack.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

REL_TOL = 1e-9


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def fmt(x) -> str:
    return format(float(x), ".12g")


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def near(printed, exact, what: str, rel: float = REL_TOL) -> None:
    want = float(exact)
    got = float(printed)
    expect(abs(got - want) <= rel * max(1.0, abs(want)), f"{what}: printed {got!r}, expected {want!r}")


def near_rel(printed, exact, what: str) -> None:
    """Relative comparison for values that may be far below 1."""
    want = float(exact)
    got = float(printed)
    expect(abs(got - want) <= REL_TOL * abs(want) + 1e-300, f"{what}: printed {got!r}, expected {want!r}")


def split_report(out: str) -> tuple[dict, str]:
    """A JSON report followed by one summary line."""
    body, _, last = out.rstrip("\n").rpartition("\n")
    return json.loads(body), last


# -- ladder -------------------------------------------------------------------


def check_stage3(spec: dict, out: str, code: int) -> bool:
    m, n, u1, u2 = spec["m"], spec["n"], spec["u1"], spec["u2"]
    doc, last = split_report(out)
    expected = Fraction(m * u1 + (n - m) * u2, n)
    if spec["strategy"] == "born":
        direct, passed = expected, True
    else:
        # Equal care per leaf values the register tree at the weighted mean
        # but the direct tree at the plain mean; they agree only at m/n = 1/2.
        direct, passed = Fraction(u1 + u2, 2), 2 * m == n
    (case,) = doc["cases"]
    expect((case["m"], case["n"]) == (m, n), f"case is for {case['m']}/{case['n']}, not {m}/{n}")
    near(case["expected"], expected, "expected")
    near(case["ancilla_value"], expected, "ancilla_value")
    near(case["direct_value"], direct, "direct_value")
    near(case["mn_delta"], abs(direct - expected), "mn_delta")
    expect(doc["pass"] is passed, f"pass is {doc['pass']}, expected {passed}")
    verdict = "pass" if passed else "fail"
    want_last = f"stage S3: {verdict} (residual {fmt(abs(direct - expected))})"
    expect(last == want_last, f"summary {last!r}, expected {want_last!r}")
    expect(code == (0 if passed else 1), f"exit {code} for verdict {verdict}")
    return True


def general_cases(a1sq: float, cap_max: int, u1: int, u2: int) -> list[tuple[int, int, int, float, float]]:
    """(cap, m, n, ancilla value, residual) for each cap the stage visits."""
    target = a1sq * float(u1) + (1.0 - a1sq) * float(u2)
    caps = []
    cap = 2
    while cap <= cap_max:
        caps.append(cap)
        cap *= 2
    if caps[-1] != cap_max:
        caps.append(cap_max)
    rows = []
    for cap in caps:
        approx = Fraction(a1sq).limit_denominator(cap)
        m, n = approx.numerator, approx.denominator
        if not 0 < m < n:
            continue
        value = float(Fraction(m * u1 + (n - m) * u2, n))
        rows.append((cap, m, n, value, abs(value - target)))
    return rows


def check_general(spec: dict, out: str, code: int) -> bool:
    a1sq, u1, u2, tol = spec["a1sq"], spec["u1"], spec["u2"], spec["tolerance"]
    doc, last = split_report(out)
    rows = general_cases(a1sq, spec["cap"], u1, u2)
    cases = doc["cases"]
    expect(len(cases) == len(rows), f"{len(cases)} cases, expected {len(rows)}")
    target = a1sq * float(u1) + (1.0 - a1sq) * float(u2)
    for case, (cap, m, n, value, residual) in zip(cases, rows):
        expect((case["cap"], case["m"], case["n"]) == (cap, m, n),
               f"case {case['cap']}:{case['m']}/{case['n']}, expected {cap}:{m}/{n}")
        near(case["ancilla_value"], value, f"ancilla_value at cap {cap}")
        near(case["target"], target, f"target at cap {cap}")
        near(case["residual"], residual, f"residual at cap {cap}")
    if not rows:
        # Every approximant below the cap is 0 or 1: no register to build.
        expect(doc["pass"] is False and doc["inconclusive"] is True, "no approximant, yet not inconclusive")
        expect(last == "stage S4to6: inconclusive (residual inf)", f"summary {last!r}")
        expect(code == 1, f"exit {code} for an inconclusive stage")
        return True
    residuals = [r[4] for r in rows]
    monotone = all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))
    converged = residuals[-1] <= tol
    passed = converged and monotone
    expect(doc["pass"] is passed and doc["inconclusive"] is (not converged),
           f"pass={doc['pass']} inconclusive={doc['inconclusive']}, expected {passed}/{not converged}")
    verdict = "inconclusive" if not converged else ("pass" if passed else "fail")
    want_last = f"stage S4to6: {verdict} (residual {fmt(residuals[-1])})"
    expect(last == want_last, f"summary {last!r}, expected {want_last!r}")
    expect(code == (0 if passed else 1), f"exit {code} for verdict {verdict}")
    return True


def stage2_payoffs(n: int, seed: int, count: int) -> list[tuple[Fraction, ...]]:
    """The stage-2 payoff sweep for branch count n, replayed from its seed."""
    rng = random.Random(seed + n)
    return [
        tuple(Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)) for _ in range(n))
        for _ in range(count)
    ]


def check_stage2(spec: dict, out: str, code: int) -> bool:
    n = spec["n"]
    doc, last = split_report(out)
    payoffs = stage2_payoffs(n, spec["seed"], spec["payoff_count"])
    expect(len(doc["cases"]) == len(payoffs), f"{len(doc['cases'])} cases, expected {len(payoffs)}")
    for case, us in zip(doc["cases"], payoffs):
        mean = sum(us, Fraction(0)) / n
        expect(case["n"] == n and len(case["utilities"]) == n, "case has the wrong branch count")
        for got, u in zip(case["utilities"], us):
            near(got, u, "utility")
        near(case["expected"], mean, "expected")
        near(case["value"], mean, "value")
        expect(case["residual"] == 0, f"residual {case['residual']!r} on an equal-branch game")
    expect(doc["pass"] is True, "equal-branch stage 2 did not pass")
    expect(last == "stage S2: pass (residual 0)", f"summary {last!r}")
    expect(code == 0, f"exit {code} on a passing stage")
    return True


# -- extract ------------------------------------------------------------------


def check_extract(spec: dict, out: str, code: int) -> bool:
    lines = out.rstrip("\n").split("\n")
    expect(len(lines) == 3, f"{len(lines)} lines, expected CSV header, one row and a summary")
    header, row, last = lines
    expect(header == "trial,states,consequences,acts,ok", f"header {header!r}")
    ns, nc = spec["states"], spec["consequences"]
    trial, states, consequences, acts, ok = row.split(",")
    expect((trial, states, consequences, acts) == ("0", str(ns), str(nc), str(nc ** ns)),
           f"row {row!r} does not describe a {ns}-state, {nc}-consequence setup")
    expect(ok in ("True", "False"), f"ok column {ok!r}")
    reproduced = ok == "True"
    want_last = f"round trips: {int(reproduced)}/1 reproduced"
    expect(last == want_last, f"summary {last!r}, expected {want_last!r}")
    expect(code == (0 if reproduced else 1), f"exit {code} with ok={ok}")
    return reproduced


# -- confirm ------------------------------------------------------------------


def check_dutchbook(spec: dict, out: str, code: int) -> bool:
    doc = json.loads(out)
    expect(set(doc) == {"cases", "max_deviation", "ok"}, f"keys {sorted(doc)}")
    expect(doc["cases"] == spec["cases"], f"{doc['cases']} cases, expected {spec['cases']}")
    expect(doc["ok"] is True, "book did not lose the same amount on every branch")
    expect(0 <= doc["max_deviation"] <= 1e-12, f"max_deviation {doc['max_deviation']!r}")
    expect(code == 0, f"exit {code}")
    return True


DEMO_WEIGHTS = {"1.0": Fraction(1, 3), "2.0": Fraction(2, 3)}
DEMO_UTILITY = {"1.0": 10, "2.0": 0}


def check_egal(spec: dict, out: str, code: int) -> bool:
    doc, last = split_report(out)
    cases = doc["cases"]
    ops = [c["operation"] for c in cases]
    expect(len(cases) == 3 and ops[0] == "initial" and ops[1].startswith("rotate:")
           and ops[2] == f"coarse_grain:factor={spec['factor']}", f"operations {ops}")
    born = Fraction(10, 3)
    for case in cases:
        # Weights stay put, so the weight-based value stays at 10/3 ...
        for x, w in DEMO_WEIGHTS.items():
            near(case["outcome_weights"][x], w, f"weight of {x} at step {case['step']}")
        near(case["born_value"], born, f"born_value at step {case['step']}")
        # ... while equal care per occupied cell is fixed by the cell counts.
        counts = case["counts"]
        cells = spec["fine_dim"] // (spec["factor"] if case["step"] == 2 else 1)
        expect(all(1 <= counts[x] <= cells for x in DEMO_WEIGHTS), f"counts {counts} with {cells} cells")
        egal = Fraction(sum(counts[x] * DEMO_UTILITY[x] for x in counts), sum(counts.values()))
        near(case["egalitarian_value"], egal, f"egalitarian_value at step {case['step']}")
    expect(cases[0]["counts"] == {"1.0": 1, "2.0": 1}, f"initial counts {cases[0]['counts']}")
    egal_move = max(abs(c["egalitarian_value"] - cases[0]["egalitarian_value"]) for c in cases)
    if abs(egal_move - 1e-3) > 1e-9:
        passed = egal_move > 1e-3
        expect(doc["pass"] is passed, f"pass is {doc['pass']} with egalitarian move {egal_move!r}")
    passed = doc["pass"]
    verdict = "pass" if passed else "fail"
    expect(last == f"egalitarian demo: {verdict}", f"summary {last!r}")
    expect(code == (0 if passed else 1), f"exit {code} for verdict {verdict}")
    return True


def step_masses(strategy: str, realization: str, game: dict) -> dict[float, float]:
    """Caring mass per outcome for one measurement of a two-outcome game."""
    w1 = game["state"][0]["re"] ** 2
    w2 = game["state"][1]["re"] ** 2
    if strategy == "born":
        return {1.0: w1, 2.0: w2}
    # Equal care per leaf: direct gives one leaf per outcome, the 1,3
    # register gives one leaf to the first outcome and two to the second.
    if realization == "direct":
        return {1.0: 0.5, 2.0: 0.5}
    return {1.0: 1 / 3, 2.0: 2 / 3}


def credences(theories: dict, counts: tuple[int, int]) -> dict[str, float]:
    """Posterior after observing outcome 1.0 counts[0] times and 2.0 counts[1] times."""
    logs = {}
    for t, prior in theories["priors"].items():
        table = theories["likelihoods"][t]
        logs[t] = (math.log(Fraction(prior))
                   + counts[0] * math.log(Fraction(table["1.0"]))
                   + counts[1] * math.log(Fraction(table["2.0"])))
    top = max(logs.values())
    norm = sum(math.exp(v - top) for v in logs.values())
    return {t: math.exp(v - top) / norm for t, v in logs.items()}


def check_confirm(spec: dict, out: str, code: int) -> bool:
    theories, games, depth = spec["theories"], spec["games"], spec["depth"]
    names = list(theories["priors"])
    lines = out.rstrip("\n").split("\n")
    header, rows, last = lines[0], lines[1:-1], lines[-1]
    expect(header == ",".join(["iteration", "outcome_class", "caring_mass"] + [f"credence_{t}" for t in names]),
           f"header {header!r}")
    expect(len(rows) == (depth + 1) * (depth + 2) // 2, f"{len(rows)} rows for depth {depth}")
    # Caring mass of each outcome-count class, iteration by iteration.
    mass = {0: 1.0}
    row_iter = iter(rows)
    final = []
    for it in range(depth + 1):
        if it:
            entry = games[(it - 1) % len(games)]
            step = step_masses(spec["strategy"], entry["realization"], entry["game"])
            mass = {
                c1: mass.get(c1 - 1, 0.0) * step[1.0] + mass.get(c1, 0.0) * step[2.0]
                for c1 in range(it + 1)
            }
        for c1 in range(it + 1):
            fields = next(row_iter).split(",")
            want_class = f"1:{c1};2:{it - c1}" if it else ""
            expect(fields[0] == str(it) and fields[1] == want_class,
                   f"row {fields[:2]}, expected iteration {it} class {want_class!r}")
            near_rel(fields[2], mass[c1], f"caring mass at {it}:{want_class}")
            cred = credences(theories, (c1, it - c1))
            for t, got in zip(names, fields[3:]):
                near(got, cred[t], f"credence_{t} at {it}:{want_class}")
            if it == depth:
                final.append((mass[c1], cred[names[0]]))
    threshold = spec["threshold"]
    prefix = f"final caring mass with credence({names[0]}) > {fmt(threshold)}: "
    expect(last.startswith(prefix), f"summary {last!r}")
    if all(abs(c - threshold) > 1e-9 for _, c in final):
        near(last[len(prefix):], sum(m for m, c in final if c > threshold), "final caring mass")
    expect(code == 0, f"exit {code}")
    return True


CHECKS = {
    "stage3": check_stage3,
    "general": check_general,
    "stage2": check_stage2,
    "extract": check_extract,
    "dutchbook": check_dutchbook,
    "egal": check_egal,
    "confirm": check_confirm,
}


def check(op: dict, out: str, code: int) -> bool:
    """Run the op's oracle; raises Mismatch on a wrong output."""
    oracle = CHECKS[op["kind"]]
    try:
        return oracle(op["spec"], out, code)
    except Mismatch:
        raise
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        # Output that cannot even be parsed is a wrong output.
        raise Mismatch(f"unparseable output ({type(exc).__name__}: {exc})") from exc
