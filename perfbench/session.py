"""One benchmark session in a fresh interpreter: set up, run ops, write results.

    python3 perfbench/session.py --workload W --seed S --workdir DIR --result FILE
        (--setup-only | --seconds T | --rounds R [--traced])

Set-up is importing ``branchlab.cli`` and generating the first round; the
session then prints ``READY`` so the parent can stop its set-up clock.
Nothing but the standard library and ``branchlab.cli`` is imported before
that line: numpy and scipy load only as branchlab itself imports them.

Ops run in process through ``branchlab.cli.main``, one at a time (a closed
loop with one client).  Each op is timed from outside, its stdout and stderr
captured in memory, and its output checked by its oracle after the clock
stops.  ``--seconds`` runs whole rounds until the ops' busy time reaches T;
``--rounds`` runs exactly R rounds, optionally with every layer traced.

Before every op, and after the last, the session times ``probe``: a fixed
piece of exact arithmetic that does not touch branchlab.  Each op's time is
scaled by the host speed the probes around it show (``host_scaled``), so a
slow phase of a shared host does not read as a slow program; ``--seconds``
counts scaled busy time, so a seed runs about the same rounds on a slow
host as on a fast one.  Set-up is followed by ``SETUP_PROBES`` probes for
the same purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time

SETUP_PROBES = 3
# Times are reported for a host on which probe() takes this long.
PROBE_REF_S = 0.005


def probe() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic (about 5 ms).

    Exact rational arithmetic is what branchlab spends its time on, so this
    slows down with the program when the host does.  The garbage collector
    is paused so the program's live objects cannot lengthen the probe.
    """
    from fractions import Fraction

    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i + 1)
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def host_scaled(latencies: list[float], probes: list[float]) -> list[float]:
    """Each op's time on a host where the probe takes PROBE_REF_S.

    probes[i] ran just before op i and probes[i + 1] just after it; op i is
    scaled by the median of the probes from five ops before it to five after.
    """
    return [x * PROBE_REF_S / statistics.median(probes[max(0, i - 5):i + 7])
            for i, x in enumerate(latencies)]


def call_cli(main, args: list[str]) -> tuple[str, str, int, str | None]:
    """Run one CLI call in process: (stdout, stderr, exit code, traceback text)."""
    out, err = io.StringIO(), io.StringIO()
    code, crash = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, prog_name="branchlab")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a traceback is a failed op, not a dead session
            import traceback

            code, crash = 1, "".join(traceback.format_exception(exc))
    return out.getvalue(), err.getvalue(), code, crash


class Session:
    """Runs ops through one dispatch callable and keeps the tallies."""

    def __init__(self, dispatch, tamper=None) -> None:
        import hashlib

        from oracles import Mismatch, check

        self._sha256, self._mismatch, self._check = hashlib.sha256, Mismatch, check
        self.dispatch = dispatch
        self.tamper = tamper  # test hook: tamper(index, stdout) -> stdout
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.digests: list[str] = []
        self.wrong = self.crashed = self.declined = 0
        self.failures: list[str] = []

    def run_op(self, op: dict) -> None:
        self.probes.append(probe())
        start = time.perf_counter()
        out, err, code, crash = self.dispatch(op["args"])
        self.latencies.append(time.perf_counter() - start)
        index = len(self.latencies) - 1
        if self.tamper is not None:
            out = self.tamper(index, out)
        self.digests.append(self._sha256(f"{code}\0{out}\0{err}".encode()).hexdigest())
        if crash is not None:
            self.crashed += 1
            self._note(op, crash.strip().splitlines()[-1])
            return
        try:
            if not self._check(op, out, code):
                self.declined += 1
        except self._mismatch as exc:
            self.wrong += 1
            self._note(op, str(exc))

    def _note(self, op: dict, message: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(f"branchlab {' '.join(op['args'])}: {message}")

    @property
    def failed(self) -> int:
        return self.wrong + self.crashed + self.declined

    def summary(self) -> dict:
        return {
            "latencies": self.latencies,
            "probes": self.probes,
            "digests": self.digests,
            "wrong": self.wrong,
            "crashed": self.crashed,
            "declined": self.declined,
            "failed": self.failed,
            "failures": self.failures,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    parser.add_argument("--traced", action="store_true")
    opts = parser.parse_args()

    start = time.perf_counter()
    import branchlab.cli

    import_s = time.perf_counter() - start
    import workloads

    os.makedirs(opts.workdir, exist_ok=True)
    rounds = [workloads.make_round(opts.workload, opts.seed, 0, opts.workdir)]
    print("READY", flush=True)
    result = {"import_s": import_s, "module": branchlab.cli.__file__,
              "setup_probes": [probe() for _ in range(SETUP_PROBES)]}
    if opts.setup_only:
        return _write(opts.result, result)

    dispatch = lambda args: call_cli(branchlab.cli.main, args)  # noqa: E731
    tracer = None
    if opts.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        dispatch = tracer.wrap("cli.dispatch", dispatch, "cli")
    session = Session(dispatch)
    index = 0
    while True:
        if index == len(rounds):
            rounds.append(workloads.make_round(opts.workload, opts.seed, index, opts.workdir))
        for op in rounds[index]:
            session.run_op(op)
        rounds[index] = None
        index += 1
        if opts.rounds is not None and index >= opts.rounds:
            break
        if opts.seconds is not None:
            if sum(host_scaled(session.latencies, session.probes)) >= opts.seconds:
                break
    session.probes.append(probe())
    if tracer is not None:
        tracer.uninstall()
        result.update(spans=tracer.spans, counts=tracer.counts)
    import resource

    result.update(session.summary(), rounds=index,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return _write(opts.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
