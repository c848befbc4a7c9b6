"""Streamed confirmation trajectories: one iteration at a time, same bytes.

``confirm run`` prints each iteration as the recursion produces it.  These
tests check its stdout and ``--out`` bytes against ``reference_emit`` of the
path-by-path reference, that bad input still stops before any row, that an
iteration is written before the next one is grown, and that a deep run's
memory stays flat.
"""

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from branchlab import Born, CredenceState, confirmation_experiment, game_to_json, weighted_game
from branchlab import confirmation
from branchlab.cli import main
from branchlab.confirmation import TrajectoryReport, TrajectoryRow
from branchlab.games import game_from_json_dict, parse_realization
from branchlab.reporting import emit, fmt_float
from branchlab.strategies import parse_strategy
from confirmation_reference import reference_emit, reference_experiment

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
LIKELIHOODS = ["0", "1/4", "1/3", "1/2", "0.9", "1"]


def game_entry(weights, realization):
    """A games-file entry: an equal-payoff game on the weights (outcomes 1.0, 2.0, ...)."""
    game = weighted_game([Fraction(w, sum(weights)) for w in weights], list(range(len(weights))))
    return {"game": json.loads(game_to_json(game)), "realization": realization}


@st.composite
def games_docs(draw):
    """1-3 games, each direct on 2-3 outcomes or ancilla:1,3 on two."""
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        weights = [draw(st.integers(1, 5)) for _ in range(draw(st.sampled_from([2, 3])))]
        ancilla = len(weights) == 2 and draw(st.booleans())
        entries.append(game_entry(weights, "ancilla:1,3" if ancilla else "direct"))
    return entries


@st.composite
def theories_docs(draw):
    """2-3 theories with fraction-string priors; a likelihood may be 0 or left out,
    which freezes the branches that observe its outcome."""
    names = [f"t{i}" for i in range(draw(st.integers(2, 3)))]
    raw = [draw(st.integers(0, 3)) for _ in names]
    raw[0] += 1
    return {
        "priors": {t: str(Fraction(r, sum(raw))) for t, r in zip(names, raw)},
        "likelihoods": {
            t: {f"{x}.0": draw(st.sampled_from(LIKELIHOODS)) for x in (1, 2, 3) if draw(st.integers(0, 9))}
            for t in names
        },
    }


def reference_output(theories, games, strategy, depth, fmt):
    """What confirm run must write, and its final-mass line, from the path-by-path reference."""
    cred = CredenceState(
        priors={t: Fraction(p) for t, p in theories["priors"].items()},
        likelihoods={
            t: {float(k): Fraction(v) for k, v in table.items()} for t, table in theories["likelihoods"].items()
        },
    )
    pairs = [(game_from_json_dict(e["game"]), parse_realization(e["realization"])) for e in games]
    report = reference_experiment(cred, pairs, parse_strategy(strategy), depth)
    target = cred.theories()[0]
    mass = float(report.final_mass_above(target, 0.95))
    return reference_emit(report, fmt), f"final caring mass with credence({target}) > 0.95: {fmt_float(mass)}\n"


FROZEN_THEORIES = {
    "priors": {"a": "1/2", "b": "1/2"},
    "likelihoods": {"a": {"1.0": "1/3", "2.0": "2/3"}, "b": {"2.0": "1"}},
}
CYCLE = [game_entry([1, 2], "direct"), game_entry([1, 2], "ancilla:1,3")]


@settings(max_examples=60, deadline=None)
@given(
    theories=theories_docs(),
    games=games_docs(),
    strategy=st.sampled_from(["born", "egalitarian", "squared"]),
    depth=st.integers(0, 6),
    fmt=st.sampled_from(["csv", "json", "table"]),
    to_file=st.booleans(),
)
@example(theories=FROZEN_THEORIES, games=CYCLE, strategy="born", depth=5, fmt="csv", to_file=False)
@example(theories=FROZEN_THEORIES, games=CYCLE, strategy="egalitarian", depth=4, fmt="json", to_file=True)
@example(theories=FROZEN_THEORIES, games=CYCLE[:1], strategy="born", depth=6, fmt="table", to_file=True)
def test_streamed_confirm_run_matches_reference(theories, games, strategy, depth, fmt, to_file):
    body, mass_line = reference_output(theories, games, strategy, depth, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"{name}.json") for name in ("theories", "games")}
        for name, doc in (("theories", theories), ("games", games)):
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        argv = ["confirm", "run", "--theories", paths["theories"], "--games", paths["games"],
                "--strategy", strategy, "--depth", str(depth), "--format", fmt]
        out = os.path.join(tmp, "traj.out")
        result = CliRunner().invoke(main, argv + (["--out", out] if to_file else []))
        assert result.exit_code == 0, result.output
        if to_file:
            with open(out, "rb") as fh:
                assert fh.read() == body
            assert result.output == f"wrote {out}\n" + mass_line
        else:
            assert result.output == body.decode() + mass_line


@pytest.mark.parametrize(
    "theories",
    [
        {"priors": {"a": "1/2", "b": "1/2"}, "likelihoods": {"a": {"1.0": "1.5", "2.0": "0"}, "b": {}}},
        {"priors": {"a": "1/2", "b": "1/3"}, "likelihoods": {"a": {}, "b": {}}},
        {"priors": {"a": "1/2", "b": "1/2"}, "likelihoods": {"a": {}}},
        {"priors": {"a": "1/0", "b": "1/2"}, "likelihoods": {"a": {}, "b": {}}},
    ],
    ids=["likelihood-above-one", "priors-not-summing-to-one", "missing-table", "zero-denominator"],
)
@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_bad_theories_file_prints_no_row_before_its_error(theories, fmt):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("theories.json", "w") as fh:
            json.dump(theories, fh)
        argv = ["confirm", "run", "--theories", "theories.json",
                "--games", os.path.join(CONFIGS, "third_twothirds_game.json"), "--format", fmt]
        result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.output.splitlines()[-1].startswith("Error: ")
    assert "iteration" not in result.output and "Traceback" not in result.output


def readme_inputs():
    cred = CredenceState(
        priors={"born": Fraction(1, 2), "skew": Fraction(1, 2)},
        likelihoods={
            "born": {1.0: Fraction(1, 3), 2.0: Fraction(2, 3)},
            "skew": {1.0: Fraction(9, 10), 2.0: Fraction(1, 10)},
        },
    )
    return cred, weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0)), Born()


def readme_report(depth):
    return confirmation_experiment(*readme_inputs(), depth)


def test_emit_writes_each_iteration_before_growing_the_next(monkeypatch):
    grows = []
    grow = confirmation._grow

    def counting_grow(classes, step):
        grows.append(None)
        return grow(classes, step)

    monkeypatch.setattr(confirmation, "_grow", counting_grow)
    report = readme_report(6)
    assert len(grows) == 1  # iteration 1's classes are grown with the inputs' checks
    seen = []
    emit(report, "csv", lambda piece: seen.append(len(grows)))
    # The header, then iterations 0..6: iteration k >= 2 is grown just before it prints.
    assert seen == [1, 1, 1, 2, 3, 4, 5, 6]
    assert report.rows_at(6) and len(grows) == 6
    assert float(report.final_mass_above("born", 0.5)) > 0 and len(grows) == 6


def test_rows_at_an_earlier_iteration_stops_its_pass_there(monkeypatch):
    grows = []
    grow = confirmation._grow

    def counting_grow(classes, step):
        grows.append(None)
        return grow(classes, step)

    monkeypatch.setattr(confirmation, "_grow", counting_grow)
    report = readme_report(8)
    reference = reference_experiment(*readme_inputs(), 8)
    grows.clear()
    assert report.rows_at(3) == reference.rows_at(3) and len(grows) == 2  # iterations 2 and 3
    assert report.rows_at(0) == reference.rows_at(0) and report.rows_at(9) == [] and report.rows_at(-1) == []
    assert report.mean_credence("born", 5) == reference.mean_credence("born", 5)


def test_a_report_of_given_rows_takes_positional_arguments():
    rows = (TrajectoryRow(0, (), Fraction(1), {"a": Fraction(1)}), TrajectoryRow(1, ((1.0, 1),), Fraction(1), {"a": 1}))
    report = TrajectoryReport(rows, ("a",), 1)
    assert report.rows == rows and report.rows_at(1) == [rows[1]] and report.mean_credence("a", 0) == 1


def test_streamed_pieces_join_to_emitted_bytes():
    report = readme_report(12)
    for fmt in ("csv", "json", "table"):
        pieces = []
        assert emit(report, fmt, pieces.append) is None
        assert "".join(pieces).encode() == emit(report, fmt)
        assert len(pieces) == 14  # a header, or json's closing, and one piece per iteration


def test_json_edge_values_match_reference():
    """Ints, non-finite floats, an empty iteration and theory names that need
    escaping or hold a % all print as json.dumps(records, indent=2) does."""
    names = ("p%s", 'q"é', "r")
    rows = (
        TrajectoryRow(0, (), 1, {"p%s": 1, 'q"é': 0, "r": Fraction(0)}),
        TrajectoryRow(1, ((1.0, 1),), float("nan"), {"p%s": float("inf"), 'q"é': -float("inf"), "r": 0.5}),
        TrajectoryRow(1, ((1.0, 1),), 2.5e13, {"p%s": 1e-300, 'q"é': Fraction(1, 7), "r": 3}),
    )
    for report in (TrajectoryReport(rows, theories=names, trials=1), TrajectoryReport((), theories=names, trials=0)):
        assert emit(report, "json") == reference_emit(report, "json")
        json.loads(emit(report, "json"))


def test_deep_readme_run_stays_under_100_mb():
    """The README config at depth 1000, egalitarian (exact masses), run in
    a fresh process that reports its own peak RSS; holding every row until
    printing peaked above 1 GB.  The peak is the process's VmHWM: on Linux
    the RUSAGE_SELF peak of a process started by exec also counts its
    parent's peak at the fork, here the test run's."""
    script = (
        "import re, tempfile, os\n"
        "from branchlab.cli import main\n"
        "out = os.path.join(tempfile.mkdtemp(), 'traj.csv')\n"
        f"argv = ['confirm', 'run', '--theories', {os.path.join(CONFIGS, 'born_vs_skew.json')!r},\n"
        f"        '--games', {os.path.join(CONFIGS, 'third_twothirds_game.json')!r},\n"
        "        '--strategy', 'egalitarian', '--depth', '1000', '--out', out]\n"
        "try:\n"
        "    main(argv, prog_name='branchlab')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "lines = sum(1 for _ in open(out))\n"
        "os.remove(out)\n"
        "print(lines, re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    lines, peak_kb = map(int, done.stdout.split()[-2:])
    assert lines == 1 + sum(k + 1 for k in range(1001))
    assert peak_kb < 100 * 1024


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=12))
def test_json_of_any_float_matches_reference(values):
    """Every float, subnormal, huge, whole or not finite, prints in json as
    json.dumps prints its 12-digit cell read back."""
    rows = tuple(
        TrajectoryRow(1, ((1.0, k),), mass, {"a": a, "b": b})
        for k, (mass, a, b) in enumerate(zip(values[::3], values[1::3], values[2::3]))
    )
    report = TrajectoryReport(rows, theories=("a", "b"), trials=1)
    assert emit(report, "json") == reference_emit(report, "json")
