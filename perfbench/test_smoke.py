"""Fast self-test of the benchmark: oracles, tracer coverage, byte identity.

    python3 -m pytest perfbench/test_smoke.py -q

Runs a handful of hand-picked ops per workload in process, so it takes
seconds; the full benchmark is perfbench/run.py.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import branchlab.cli  # noqa: E402
import branchlab.branching  # noqa: E402
import branchlab.strategies  # noqa: E402
import scipy.optimize  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from run import mismatched_ops  # noqa: E402
from session import PROBE_REF_S, Session, call_cli, host_scaled  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics, missing_layers  # noqa: E402


def dispatch(args):
    return call_cli(branchlab.cli.main, args)


def small_extract_seeds(count: int) -> list[int]:
    seeds = [s for s in range(200) if wl.roundtrip_size(s)[1] ** wl.roundtrip_size(s)[0] <= 27]
    return seeds[:count]


def handful(workload: str, workdir: str) -> list[dict]:
    if workload == "ladder":
        return [
            wl.stage3_op("born", 1, 3, 10, 0),
            wl.stage3_op("egalitarian", 1, 3, 10, 0),  # exits 1 by design
            wl.stage3_op("egalitarian", 4, 8, 7, -3),
            wl.general_op(0.3141, 8, 10, 0),  # inconclusive at this cap
            wl.general_op(0.25, 64, 10, 0),
            wl.stage2_op("born", 4, 3),
        ]
    if workload == "extract":
        return [wl.extract_op(s) for s in small_extract_seeds(3)]
    rng = random.Random(0)
    return [
        wl.confirm_op(workdir, "class", rng, 20, ("direct",), "born", 2),
        wl.confirm_op(workdir, "cycle", rng, 5, ("direct", "ancilla:1,3"), "egalitarian", 3),
        wl.dutchbook_op(20, 1),
        wl.egal_op(16, 2, 3),
        wl.extract_op(small_extract_seeds(1)[0]),
    ]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_oracles_accept_real_outputs(workload, tmp_path):
    session = Session(dispatch)
    for op in handful(workload, str(tmp_path)):
        session.run_op(op)
    assert (session.wrong, session.crashed, session.declined) == (0, 0, 0), session.failures


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_oracles_reject_a_changed_summary_line(workload, tmp_path):
    for op in handful(workload, str(tmp_path)):
        out, _, code, _ = dispatch(op["args"])
        body = out.rstrip("\n").rpartition("\n")[0]
        with pytest.raises(oracles.Mismatch):
            oracles.check(op, body + "\nsomething else\n", code)


def test_wrong_output_counts_as_failed(tmp_path):
    def tamper(index, out):
        return out.replace('"ancilla_value": 3.33333333333', '"ancilla_value": 3.4') if index == 0 else out

    session = Session(dispatch, tamper=tamper)
    for op in handful("ladder", str(tmp_path)):
        session.run_op(op)
    assert (session.wrong, session.failed) == (1, 1)
    assert "ancilla_value" in session.failures[0]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_is_byte_identical_and_covers_its_layers(workload, tmp_path):
    ops = handful(workload, str(tmp_path))
    plain = Session(dispatch)
    for op in ops:
        plain.run_op(op)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Session(tracer.wrap("cli.dispatch", dispatch, "cli"))
        for op in ops:
            traced.run_op(op)
    finally:
        tracer.uninstall()
    assert mismatched_ops(plain.digests, traced.digests) == []
    metrics = layer_metrics(tracer.spans, tracer.counts, import_s=0.5, overhead_s=0.0)
    assert set(PER_LAYER) <= set(metrics)
    assert missing_layers(workload, metrics) == []


def test_byte_identity_check_flags_a_difference(tmp_path):
    ops = handful("ladder", str(tmp_path))[:2]
    plain, changed = Session(dispatch), Session(dispatch, tamper=lambda i, out: out + " " if i == 1 else out)
    for op in ops:
        plain.run_op(op)
        changed.run_op(op)
    assert mismatched_ops(plain.digests, changed.digests) == [1]


def test_op_times_are_scaled_by_the_probes_around_them():
    slow, fast = 2 * PROBE_REF_S, PROBE_REF_S
    probes = [slow] * 12 + [fast] * 13
    scaled = host_scaled([1.0] * 24, probes)
    assert scaled[:6] == [0.5] * 6
    assert scaled[-7:] == [1.0] * 7


def test_probe_runs_in_a_session():
    session = Session(dispatch)
    session.run_op(wl.stage3_op("born", 1, 3, 10, 0))
    assert len(session.probes) == len(session.latencies) == 1
    assert 0 < session.probes[0] < 1


def test_zero_layer_metric_is_reported():
    metrics = {name: 1.0 for name in PER_LAYER}
    metrics["branching.branch.calls"] = 0
    assert missing_layers("ladder", metrics) == ["branching.branch.calls"]
    assert missing_layers("extract", metrics) == []


def test_tracer_rebinds_every_alias_and_restores_them():
    original = branchlab.branching.branch
    linprog = scipy.optimize.linprog
    tracer = Tracer()
    tracer.install()
    try:
        assert branchlab.strategies.branch is branchlab.branching.branch is not original
        assert scipy.optimize.linprog is not linprog
    finally:
        tracer.uninstall()
    assert branchlab.strategies.branch is branchlab.branching.branch is original
    assert scipy.optimize.linprog is linprog


def test_benchmark_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
