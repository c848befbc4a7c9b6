"""The N-level register as runs: views against the full-container reference.

couple_ancilla returns a label sequence, a run-length amplitude sequence and
two mapping views instead of N-entry containers.  These tests hold the views
to tests/register_reference.py item for item, hold `dw verify` to the
stdout and exit codes recorded before the change (tests/cli_golden.json),
run a cap-2^24 general stage under a 1 GB address-space limit, and cover
the flags that are now refused with exit 2.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import cli
from branchlab.branching import branch
from branchlab.cli import main
from branchlab.games import (
    AncillaCoupled,
    Consequence,
    PayoffFunction,
    PureState,
    QuantumGame,
    couple_ancilla,
    game_from_json,
    game_to_json,
    validate_game,
    weighted_game,
)
from register_reference import branch_reference, couple_ancilla_reference

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent / "cli_golden.json").read_text())


@st.composite
def register_games(draw):
    """A two-outcome game (exact or float-backed, maybe degenerate) and a split n of N <= 64."""
    k1, k2 = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    eigenvalues = draw(st.sampled_from([(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]))
    game = weighted_game((Fraction(k1, k1 + k2), Fraction(k2, k1 + k2)), (1, 0), eigenvalues=eigenvalues)
    if draw(st.booleans()):
        game = game_from_json(game_to_json(game))
    N = draw(st.integers(2, 64))
    return game, draw(st.integers(1, N - 1)), N


def _bits(x):
    return type(x).__name__, float(x).hex() if isinstance(x, float) else x


def _leaf_bits(tree):
    return [
        (leaf.outcome, leaf.history, _bits(leaf.weight), [_bits(c) for c in leaf.cells], leaf.multiplicity)
        for leaf in tree.leaves
    ]


class TestViewsMatchTheReference:
    @settings(max_examples=80, deadline=None)
    @given(case=register_games(), fine_dim=st.sampled_from([1, 2, 4]))
    def test_item_for_item(self, case, fine_dim):
        game, n, N = case
        joint, register, grouping = couple_ancilla(game, n, N)
        ref_joint, ref_register, ref_grouping = couple_ancilla_reference(game, n, N)

        assert len(joint.basis_labels) == N
        assert list(joint.basis_labels) == list(ref_joint.basis_labels)
        assert joint.basis_labels == ref_joint.basis_labels
        assert ref_joint.basis_labels == joint.basis_labels
        assert [joint.basis_labels[i] for i in range(-N, N)] == [ref_joint.basis_labels[i] for i in range(-N, N)]
        assert joint.basis_labels[1:-1:3] == ref_joint.basis_labels[1:-1:3]

        assert list(joint.amplitudes) == list(ref_joint.amplitudes)
        assert [_bits(a.abs2) for a in joint.amplitudes] == [_bits(a.abs2) for a in ref_joint.amplitudes]
        assert [joint.amplitudes[i] for i in range(-N, N)] == [ref_joint.amplitudes[i] for i in range(-N, N)]
        assert joint == ref_joint and hash(joint) == hash(ref_joint)

        for view, ref in ((register.eigenvalues, ref_register.eigenvalues), (grouping, ref_grouping)):
            assert view == ref and ref == view
            assert dict(view) == ref and list(view) == list(ref) and len(view) == len(ref)
            assert list(view.items()) == list(ref.items())
        assert register.name == ref_register.name

        assert _leaf_bits(branch(game, AncillaCoupled(n, N), fine_dim=fine_dim)) == _leaf_bits(
            branch_reference(game, n, N, fine_dim=fine_dim)
        )

    @settings(max_examples=40, deadline=None)
    @given(case=register_games(), drop=st.booleans())
    def test_validation_reads_the_runs(self, case, drop):
        game, n, N = case
        joint, register, _ = couple_ancilla(game, n, N)
        ref_joint, ref_register, _ = couple_ancilla_reference(game, n, N)
        levels = range(1, N + 1 - drop)
        payoff = PayoffFunction({float(i): Consequence(f"c{i}", i) for i in levels})
        report = validate_game(QuantumGame(joint, register, payoff))
        assert report == validate_game(QuantumGame(ref_joint, ref_register, payoff))
        assert (report != []) == drop
        if isinstance(joint.norm_squared, Fraction):
            assert joint.norm_squared == ref_joint.norm_squared == 1


class TestRegisterLabels:
    def test_membership_reads_the_label(self):
        joint, _, grouping = couple_ancilla(weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0)), 1, 64)
        labels = joint.basis_labels
        for label in ("y1", "y64"):
            assert label in labels and label in grouping
            assert labels.index(label) == int(label[1:]) - 1 and labels.count(label) == 1
        for other in ("y0", "y01", "y65", "Y1", "y", "y1 ", "y٣", "y" + "1" * 5000, 1, None):
            assert other not in labels and other not in grouping and labels.count(other) == 0
            with pytest.raises(ValueError):
                labels.index(other)
            with pytest.raises(KeyError):
                grouping[other]
        with pytest.raises(ValueError):
            labels.index("y5", 5)
        with pytest.raises(IndexError):
            labels[64]
        with pytest.raises(TypeError):
            labels["y1"]

    def test_an_explicit_tuple_is_still_checked_for_distinct_labels(self):
        amp = weighted_game((Fraction(1, 2), Fraction(1, 2)), (1, 0)).state.amplitudes[0]
        with pytest.raises(ValueError, match="distinct"):
            PureState(("y1", "y1"), (amp, amp))

    def test_a_register_of_2_to_the_40_levels_costs_nothing_per_level(self):
        game = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))
        N = 2**40
        joint, register, grouping = couple_ancilla(game, 1, N)
        assert len(joint.basis_labels) == len(joint.amplitudes) == len(grouping) == N
        assert joint.basis_labels[-1] == f"y{N}"
        assert register.eigenvalues[f"y{N}"] == float(N)
        assert grouping["y1"] == 1.0 and grouping["y2"] == grouping[f"y{N}"] == 2.0
        assert joint.amplitudes[-1].abs2 == Fraction(2, 3 * (N - 1))
        assert joint.norm_squared == 1
        tree = branch(game, AncillaCoupled(1, N))
        assert [(leaf.outcome, leaf.multiplicity) for leaf in tree.leaves] == [(1.0, 1), (2.0, N - 1)]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_stdout_and_exit_code_match_the_recorded_bytes(case):
    result = CliRunner().invoke(main, case["argv"])
    assert (result.exit_code, result.stdout) == (case["exit_code"], case["stdout"])


# Runs the CLI on its arguments and, at exit, writes the process's peak
# resident set (VmHWM, which exec resets, unlike ru_maxrss) to stderr.
_PEAK_RSS_CHILD = """
import atexit, sys
def peak():
    with open("/proc/self/status") as fh:
        sys.stderr.write("".join(line for line in fh if line.startswith("VmHWM:")))
atexit.register(peak)
from branchlab.cli import main
main(sys.argv[1:])
"""


def test_general_stage_at_cap_2_to_the_24_runs_in_one_gigabyte(record_property):
    resource = pytest.importorskip("resource")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for the peak resident set")
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["dw", "verify", "--stage", "general", "--strategy", "born", "--max-denominator", str(2**24)]
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=cap_address_space,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("stage S4to6: pass (residual 5.24025267623e-14)\n")
    (field,) = result.stderr.splitlines()
    peak_mb = int(field.split()[1]) / 1024
    record_property("elapsed_s", round(elapsed, 3))
    record_property("peak_rss_mb", round(peak_mb, 1))
    assert peak_mb < 50


class TestRefusedFlags:
    def _refused(self, argv):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert [line for line in lines if line.startswith("Error:")] == [lines[-1]]
        return lines[-1]

    @pytest.mark.parametrize("strategy", ["born", "eigenvalue", "squared"])
    def test_egal_demo_refuses_another_strategy(self, strategy):
        assert "egalitarian" in self._refused(["dw", "verify", "--stage", "egal-demo", "--strategy", strategy])

    @pytest.mark.parametrize("argv", [[], ["--strategy", "egalitarian"], ["--strategy", "egalitarian:tau=1e-6"]])
    def test_egal_demo_runs_egalitarian_or_by_default(self, argv):
        result = CliRunner().invoke(main, ["dw", "verify", "--stage", "egal-demo", *argv])
        assert result.exit_code == 0
        assert result.stdout.endswith("stage EgalitarianDemo: pass (residual 0)\n")

    @pytest.mark.parametrize(
        "flags", [["--pa", "0.5"], ["--pta", "0.8"], ["--q", "0.6"], ["--stake", "-1"], ["--pa", "0.2", "--q", "0.3"]]
    )
    def test_dutchbook_sweep_refuses_the_worked_book_flags(self, flags):
        error = self._refused(["dutchbook", "--sweep", "1", *flags])
        assert all(flag in error for flag in flags[::2])

    def test_roundtrip_sweep_refuses_prefs_without_opening_it(self, tmp_path):
        error = self._refused(["extract", "--roundtrip-sweep", "1", "--prefs", str(tmp_path / "missing.json")])
        assert "--prefs" in error

    @pytest.mark.parametrize(
        "flags", [["--n", str(cli.STAGE2_MAX_N + 1)], ["--max-n", str(cli.STAGE2_MAX_SWEEP_N + 1)]]
    )
    def test_stage_2_refuses_a_size_above_its_cap_before_any_work(self, monkeypatch, flags):
        def no_work(*args, **kwargs):
            raise AssertionError("stage 2 ran")

        monkeypatch.setattr(cli, "verify_stage2", no_work)
        monkeypatch.setattr(cli, "verify_stage2_sweep", no_work)
        assert flags[0] in self._refused(["dw", "verify", "--stage", "2", *flags])

    def test_stage_3_needs_no_cap(self):
        result = CliRunner().invoke(main, ["dw", "verify", "--stage", "3", "--m", "1", "--n", "4000000"])
        assert result.exit_code == 0
        assert result.stdout.endswith("stage S3: pass (residual 0)\n")
