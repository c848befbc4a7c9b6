"""branchlab benchmark: lab-session workloads driven through the CLI.

    python3 perfbench/run.py --workload ladder|extract|confirm|all --seed N \\
        --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every session is a fresh interpreter started from this process
with a fixed hash seed and one BLAS/OpenMP thread.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up is
timed in several fresh interpreters (after one untimed warm-up that fills
the bytecode cache) and reported as their median; then one session runs
whole rounds of the workload until the ops have been busy for T seconds.
Times are scaled by the host speed that session.probe measures around each
op and around each set-up, to a host where the probe takes PROBE_REF_S; the
busy time above is scaled too, and the raw times are printed beside them.

``--trace 1`` runs a fixed number of rounds twice, untraced and traced, on
the same inputs.  It requires every op's output to match byte for byte,
every per-layer metric tied to the workload to be nonzero, and reports the
per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Ops that crash, print a wrong result, or (extraction) fail to
reproduce the ordering count as failed; only the first two make the run
incorrect.  The exit code is nonzero when a session or a check cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

sys.path.insert(0, HERE)
from session import PROBE_REF_S, host_scaled, probe  # noqa: E402
from tracer import layer_metrics, missing_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 6
TRACE_ROUNDS = 3
SESSION_TIMEOUT_S = 150

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "ok_ratio": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A session or check could not run; the benchmark has no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def session(workload: str, seed: int, tag: str, *mode: str) -> tuple[float, dict]:
    """Start one session; return (seconds from spawn to READY, its result)."""
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    result_path = os.path.join(workdir, f"{tag}.json")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, "--result", result_path, *mode]
    before = probe()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    # Killing the session on timeout also unblocks the reads below.
    watchdog = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{tag} session for {workload} exited {code} (said {ready.strip()!r})")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_probes"].insert(0, before)
    module = os.path.realpath(result["module"])
    if not module.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"session imported branchlab from {module}, not from {SRC}")
    return setup_s, result


def p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float) -> dict:
    session(workload, seed, "warmup", "--setup-only")
    timed = [session(workload, seed, f"setup{k}", "--setup-only") for k in range(SETUP_REPEATS)]
    timed.append(session(workload, seed, "run", "--seconds", str(seconds)))
    result = timed[-1][1]
    raw_setup = [t for t, _ in timed]
    setups = [t * PROBE_REF_S / statistics.median(r["setup_probes"]) for t, r in timed]
    raw = result["latencies"]
    lat = host_scaled(raw, result["probes"])
    attempted, failed = len(lat), result["failed"]
    tail = p90(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    beyond = sum(1 for x in lat if x > tail)
    raw_values = {
        "setup_s": statistics.median(raw_setup),
        "ops_per_s": attempted / sum(raw),
        "op_p50_ms": statistics.median(raw) * 1e3,
        "op_tail_ms": p90(raw) * 1e3,
    }
    speed = PROBE_REF_S / statistics.median(result["probes"])
    print(f"workload {workload} seed {seed}: {attempted} ops in {result['rounds']} rounds, "
          f"{sum(raw):.3f} s busy; one client, closed loop; median probe "
          f"{statistics.median(result['probes']) * 1e3:.3f} ms (host speed {speed:.3f} of reference)")
    print(f"  {'metric':<13} {'scaled':>12} {'unit':<5} {'raw':>12}")
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(setups)} fresh interpreters"
        elif name == "op_tail_ms":
            note = f"p90 of {attempted} ops, {beyond} beyond"
            if beyond < 10:
                note += " (too few ops for a steady p90)"
        shown = f"{raw_values[name]:12.6g}" if name in raw_values else " " * 12
        print(f"  {name:<13} {value:12.6g} {UNITS[name]:<5} {shown} {note}")
    print(f"  {'failed_ratio':<13} {failed / attempted:12.6g} {'ratio':<5} {'':12} "
          f"{failed}/{attempted}: {result['wrong']} wrong, {result['crashed']} crashed, "
          f"{result['declined']} not reproduced")
    return {"correct": not (result["wrong"] or result["crashed"]), "attempted": attempted,
            "failed": failed, "metrics": metrics, "failures": result["failures"]}


def mismatched_ops(plain: list[str], traced: list[str]) -> list[int]:
    """Indices of ops whose stdout, stderr or exit code digest differs."""
    return [k for k, (a, b) in enumerate(zip(plain, traced)) if a != b]


def trace(workload: str, seed: int) -> dict:
    rounds = ("--rounds", str(TRACE_ROUNDS))
    _, plain = session(workload, seed, "untraced", *rounds)
    _, traced = session(workload, seed, "traced", *rounds, "--traced")
    if len(plain["digests"]) != len(traced["digests"]):
        raise BenchError("traced and untraced sessions ran different op counts")
    mismatched = mismatched_ops(plain["digests"], traced["digests"])
    # Host-scaled, as in measure(), so a host phase does not read as overhead.
    plain_s = sum(host_scaled(plain["latencies"], plain["probes"]))
    traced_s = sum(host_scaled(traced["latencies"], traced["probes"]))
    overhead_s = traced_s - plain_s
    metrics = layer_metrics(traced["spans"], traced["counts"], traced["import_s"], overhead_s)
    missing = missing_layers(workload, metrics)
    if missing:
        raise BenchError(f"per-layer metrics read zero on {workload}: {', '.join(missing)}")
    attempted = len(traced["latencies"])
    print(f"workload {workload} seed {seed}: traced run of {attempted} ops ({TRACE_ROUNDS} rounds); "
          f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s (host-scaled), "
          f"tracing overhead {overhead_s:.3f} s")
    print(f"  stdout byte-identical traced vs untraced: "
          f"{attempted - len(mismatched)}/{attempted} ops")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:.6g}")
    failures = traced["failures"] + [f"op {k}: traced stdout differs" for k in mismatched[:5]]
    return {"correct": not (traced["wrong"] or traced["crashed"] or mismatched),
            "attempted": attempted, "failed": traced["failed"], "metrics": metrics,
            "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "branchlab", "cli.py")):
        print(f"error: no branchlab source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if opts.workload == "all" else (opts.workload,)
    results = {}
    try:
        for name in names:
            results[name] = trace(name, opts.seed) if opts.trace else measure(name, opts.seed, opts.seconds)
            for line in results[name].pop("failures"):
                print(f"  failed: {line}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    head, _, rest = name.partition(".")
    if head in WORKLOADS:
        name = rest
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_extraction")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
