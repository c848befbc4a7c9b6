"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output on failure) and asserts the criterion, including its runtime
budget where one is stated.
"""

import math
import random
import time
from fractions import Fraction

from branchlab import (
    Born,
    CredenceState,
    Deviant,
    Direct,
    Egalitarian,
    EigenvalueWeighted,
    SquaredWeightRenormalized,
    build_dutch_book,
    case_tree,
    conditionalize,
    confirmation_experiment,
    egalitarian_incoherence_demo,
    evaluate_book_on_branches,
    relabel_game,
    value_game,
    verify_stage1,
    verify_stage3,
    verify_stage_general,
    weighted_game,
)
from branchlab.confirmation import Book
from branchlab.decision import representation_roundtrip_sweep
from branchlab.verifier import default_demo_game, verify_stage2_sweep, verify_stage3_sweep
from confirmation_reference import reference_experiment


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_criterion_01_equal_two_branch_value():
    start = time.perf_counter()
    exact = verify_stage1(Born(), payoffs=[(Fraction(0), Fraction(1))])
    sweep = verify_stage1(Born(), payoff_count=100, seed=7)
    elapsed = time.perf_counter() - start
    ok = (
        exact.cases[0]["value"] == 0.5
        and exact.residual <= 1e-12
        and sweep.passed
        and len(sweep.cases) >= 100
        and elapsed < 1.0
    )
    _criterion(1, "equal two-branch value is the average", ok, f"{elapsed:.2f}s")


def test_criterion_02_equal_n_branch_sweep():
    start = time.perf_counter()
    report = verify_stage2_sweep(Born(), max_n=64, payoff_count=20, seed=11)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.residual <= 1e-12 and elapsed < 5.0
    _criterion(2, "equal n-branch values up to n=64", ok, f"residual {report.residual!r}, {elapsed:.2f}s")


def test_criterion_03_rational_weights_and_realization_gap():
    start = time.perf_counter()
    sweep = verify_stage3_sweep(Born(), max_n=32, payoffs=((10, 0), (Fraction(7, 3), Fraction(-2, 5))))
    egal = verify_stage3(Egalitarian(1e-6), 1, 3, payoffs=((10, 0),))
    elapsed = time.perf_counter() - start
    case = egal.cases[0]
    ok = (
        sweep.passed
        and sweep.residual <= 1e-12
        and case["direct_value"] == 5.0
        and case["ancilla_value"] == 10 / 3
        and case["mn_delta"] == 5 / 3
        and elapsed < 10.0
    )
    _criterion(3, "rational-weight ladder and the 5/3 realization gap", ok, f"{elapsed:.2f}s")


def test_criterion_04_irrational_weights_converge():
    start = time.perf_counter()
    targets = (1 / math.sqrt(2), math.pi / 4, math.e / 3)
    reports = [
        verify_stage_general(Born(), a1sq, 1e-4, payoff=(1, 0), max_denominator=4096)
        for a1sq in targets
    ]
    elapsed = time.perf_counter() - start
    monotone = all(
        all(b["residual"] <= a["residual"] + 1e-15 for a, b in zip(r.cases, r.cases[1:]))
        for r in reports
    )
    ok = (
        all(r.passed and not r.inconclusive and r.residual <= 1e-4 for r in reports)
        and monotone
        and elapsed < 30.0
    )
    _criterion(4, "irrational weights via rational approximants", ok, f"{elapsed:.2f}s")


def test_criterion_05_regraining_instability():
    report = egalitarian_incoherence_demo(
        default_demo_game(), fine_dim=8, grain=1e-9
    )  # default schedule: epsilon 1e-3 rotation, frozen seed
    initial, final = report.cases[0], report.cases[-1]
    weights_ok = all(
        abs(case["outcome_weights"][key] - initial["outcome_weights"][key]) <= 1e-9
        for case in report.cases
        for key in initial["outcome_weights"]
    )
    counts_changed = final["counts"] != initial["counts"]
    egal_moved = abs(final["egalitarian_value"] - initial["egalitarian_value"]) > 1e-3
    born_fixed = abs(final["born_value"] - initial["born_value"]) < 1e-12
    ok = report.passed and weights_ok and counts_changed and egal_moved and born_fixed
    _criterion(5, "branch counts unstable while weights conserved", ok)


def test_criterion_06_dutch_book_sure_loss():
    start = time.perf_counter()

    def credences(pa, pta):
        return CredenceState(
            priors={"T": pta, "notT": 1 - pta},
            likelihoods={
                "T": {"A": pa, "notA": 1 - pa},
                "notT": {"A": pa, "notA": 1 - pa},
            },
        )

    rng = random.Random(606)
    ok = True
    for _ in range(1000):
        pa = Fraction(rng.randrange(1, 99), 100)
        pta = Fraction(rng.randrange(1, 99), 100)
        while True:
            q = Fraction(rng.randrange(0, 101), 100)
            if abs(q - pta) >= Fraction(1, 100):
                break
        book = build_dutch_book(credences(pa, pta), Deviant({("T", "A"): q}), "A", "T", stake=1)
        tree, assignment = case_tree(pa, pta)
        nets = evaluate_book_on_branches(book, tree, assignment)
        target = -abs(pta - q) * pa
        if not all(abs(float(net) - float(target)) <= 1e-12 for net in nets.values()):
            ok = False
            break
    worked = build_dutch_book(
        credences(Fraction(1, 2), Fraction(4, 5)), Deviant({("T", "A"): Fraction(3, 5)}), "A", "T", stake=1
    )
    tree, assignment = case_tree(Fraction(1, 2), Fraction(4, 5))
    worked_nets = evaluate_book_on_branches(worked, tree, assignment)
    elapsed = time.perf_counter() - start
    ok = ok and isinstance(worked, Book) and all(net == Fraction(-1, 10) for net in worked_nets.values())
    ok = ok and elapsed < 5.0
    _criterion(6, "three-bet book loses |p-q|*p(A)*S on every leaf", ok, f"{elapsed:.2f}s")


def test_criterion_07_conditionalization_worked_example():
    worked = CredenceState(
        priors={"T": Fraction(1, 2), "notT": Fraction(1, 2)},
        likelihoods={
            "T": {"A": Fraction(9, 10), "notA": Fraction(1, 10)},
            "notT": {"A": Fraction(1, 2), "notA": Fraction(1, 2)},
        },
    )
    posterior = conditionalize(worked, "A").priors["T"]
    uninformative = CredenceState(
        priors={"T": Fraction(1, 4), "notT": Fraction(3, 4)},
        likelihoods={"T": {"A": Fraction(2, 5)}, "notT": {"A": Fraction(2, 5)}},
    )
    dogmatic = CredenceState(
        priors={"T": 1, "notT": 0},
        likelihoods={"T": {"A": Fraction(1, 3)}, "notT": {"A": Fraction(2, 3)}},
    )
    ok = (
        abs(float(posterior) - 9 / 14) <= 1e-12
        and posterior == Fraction(9, 14)
        and conditionalize(uninformative, "A").priors == uninformative.priors
        and conditionalize(dogmatic, "A").priors["T"] == 1
    )
    _criterion(7, "conditionalization worked example is 9/14", ok)


def test_criterion_08_representation_round_trip():
    start = time.perf_counter()
    results = representation_roundtrip_sweep(200, seed=0, max_states=4, max_consequences=4)
    elapsed = time.perf_counter() - start
    reproduced = sum(r["ok"] for r in results)
    ok = reproduced == 200 and elapsed < 60.0
    _criterion(8, "200 orderings re-extracted exactly", ok, f"{reproduced}/200, {elapsed:.1f}s")


def test_criterion_09_confirmation_mass():
    start = time.perf_counter()
    game = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))
    cred = CredenceState(
        priors={"born": Fraction(1, 2), "skew": Fraction(1, 2)},
        likelihoods={
            "born": {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)},
            "skew": {1.0: Fraction(9, 10), 2.0: Fraction(1, 10)},
        },
    )
    deep = confirmation_experiment(cred, game, Born(), trials=20)
    mass = deep.final_mass_above("born", 0.95)
    fast = confirmation_experiment(cred, game, Born(), trials=8)
    slow = reference_experiment(cred, [(game, Direct())], Born(), trials=8)

    def as_map(report):
        return {
            row.outcome_class: (row.caring_mass, tuple(sorted(row.credences.items())))
            for row in report.rows_at(8)
        }

    elapsed = time.perf_counter() - start
    ok = float(mass) > 0.99 and as_map(fast) == as_map(slow) and elapsed < 10.0
    _criterion(9, "depth-20 caring mass concentrates on the true theory", ok, f"mass {float(mass):.6f}, {elapsed:.2f}s")


def test_criterion_10_physicality_relabeling():
    game = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0), eigenvalues=(1.0, 2.0))
    labels = {l: f"{l}_alt" for l in game.state.basis_labels}
    eigen_map = {1.0: 5.0, 2.0: 7.0}
    twin = relabel_game(game, labels, eigen_map)
    invariant = all(
        value_game(s, game, Direct()) == value_game(s, twin, Direct())
        for s in (Born(), Egalitarian(1e-6), SquaredWeightRenormalized())
    )
    gap = abs(
        value_game(EigenvalueWeighted(), game, Direct())
        - value_game(EigenvalueWeighted(), twin, Direct())
    )
    ok = invariant and gap > 1e-12
    _criterion(10, "relabeling invariance and the eigenvalue-strategy violation", ok)
