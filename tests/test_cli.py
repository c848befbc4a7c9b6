"""Command-line tests: exit codes, determinism, formats, file handling."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from click.testing import CliRunner

from branchlab import game_to_json, weighted_game
from branchlab.cli import main
from branchlab.reporting import emit
from branchlab.confirmation import TrajectoryReport

THIRD_GAME = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIRM_RUN = [
    "confirm", "run",
    "--theories", os.path.join(CONFIGS, "born_vs_skew.json"),
    "--games", os.path.join(CONFIGS, "third_twothirds_game.json"),
    "--depth", "2",
]


@pytest.fixture
def runner():
    return CliRunner()


class TestExitCodes:
    def test_passing_stage_exits_zero(self, runner):
        result = runner.invoke(main, ["dw", "verify", "--stage", "3", "--strategy", "born", "--m", "1", "--n", "3"])
        assert result.exit_code == 0
        assert "pass" in result.output

    def test_failing_stage_exits_one(self, runner):
        result = runner.invoke(
            main, ["dw", "verify", "--stage", "3", "--strategy", "egalitarian", "--m", "1", "--n", "3"]
        )
        assert result.exit_code == 1
        doc = json.loads(result.output[: result.output.rindex("}") + 1])
        assert doc["cases"][0]["mn_delta"] == pytest.approx(5 / 3)

    def test_no_arguments_usage(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 2

    def test_unknown_strategy_usage_error(self, runner):
        result = runner.invoke(main, ["dw", "verify", "--stage", "1", "--strategy", "martingale"])
        assert result.exit_code == 2

    def test_malformed_game_file(self, runner):
        with runner.isolated_filesystem():
            with open("broken.json", "w") as fh:
                fh.write("{not json")
            result = runner.invoke(main, ["game", "eval", "--game", "broken.json"])
            assert result.exit_code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["dw", "verify", "--stage", "3", "--m", "3", "--n", "2"],
            ["dw", "verify", "--stage", "3", "--m", "0", "--n", "5"],
            ["dw", "verify", "--stage", "2", "--n", "1"],
            ["dw", "verify", "--stage", "general", "--a1sq", "1.5"],
            ["dw", "verify", "--stage", "3", "--m", "2"],
            ["dw", "verify", "--stage", "3", "--n", "5"],
            ["dw", "verify", "--stage", "3", "--max-n", "1"],
            ["dw", "verify", "--stage", "general", "--max-denominator", "1"],
            ["egal", "demo", "--epsilon", "0.5"],
            ["egal", "demo", "--fine-dim", "6", "--coarse-factor", "4"],
        ],
    )
    def test_bad_verify_input_is_usage_error(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1].startswith("Error: ")
        assert "Traceback" not in result.output


class TestBadInputExitsTwo:
    @staticmethod
    def _assert_usage_error(result):
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1].startswith("Error: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "argv",
        [
            ["dw", "verify", "--stage", "1", "--payoff-count", "0"],
            ["dw", "verify", "--stage", "2", "--n", "4", "--payoff-count", "0"],
            ["dw", "verify", "--stage", "2", "--n", "4", "--payoff-count", "-3"],
            ["dw", "verify", "--stage", "2", "--max-n", "4", "--payoff-count", "0"],
            ["dw", "verify", "--stage", "2", "--max-n", "0"],
            ["dutchbook", "--pa", "1"],
            ["dutchbook", "--pa", "0"],
            ["dutchbook", "--pta", "1.5"],
            ["dutchbook", "--q", "7"],
            [*CONFIRM_RUN, "--true-theory", "nosuch"],
            [*CONFIRM_RUN, "--threshold", "nan"],
            [*CONFIRM_RUN, "--threshold", "inf"],
            [*CONFIRM_RUN, "--require-mass", "nan"],
            [*CONFIRM_RUN, "--require-mass", "-inf"],
            ["extract", "--roundtrip-sweep", "0"],
            ["extract", "--roundtrip-sweep", "-1"],
            ["extract", "--roundtrip-sweep", "1", "--max-states", "1"],
            ["extract", "--roundtrip-sweep", "1", "--max-consequences", "1"],
            ["extract", "--roundtrip-sweep", "1", "--max-states", "9", "--max-consequences", "9", "--seed", "3"],
            ["dw", "verify", "--stage", "1", "--u1", "nan"],
            ["dw", "verify", "--stage", "2", "--n", "4", "--u2", "inf"],
            ["dw", "verify", "--stage", "3", "--m", "1", "--n", "3", "--u1", "-inf"],
            ["dw", "verify", "--stage", "general", "--u2", "nan"],
            ["dw", "verify", "--stage", "egal-demo", "--u1", "inf"],
        ],
    )
    def test_bad_count_or_quotient(self, runner, argv):
        self._assert_usage_error(runner.invoke(main, argv))

    @pytest.mark.parametrize(
        "weights, utility, realization",
        [
            ((Fraction(1),), 0, "ancilla:1,3"),
            ((Fraction(1, 3),) * 3, 0, "ancilla:1,3"),
            ((Fraction(1, 3), Fraction(2, 3)), "NaN", "direct"),
            ((Fraction(1, 3), Fraction(2, 3)), "-Infinity", "direct"),
        ],
        ids=["one-component-ancilla", "three-component-ancilla", "nan-utility", "infinite-utility"],
    )
    def test_bad_game_eval(self, runner, weights, utility, realization):
        doc = json.loads(game_to_json(weighted_game(weights, (0,) * len(weights))))
        doc["payoff"]["1.0"]["utility"] = utility
        with runner.isolated_filesystem():
            with open("game.json", "w") as fh:
                json.dump(doc, fh)
            result = runner.invoke(main, ["game", "eval", "--game", "game.json", "--realization", realization])
        self._assert_usage_error(result)


    @pytest.mark.parametrize(
        "tiers",
        [
            [[{"s1": "c2", "s2": "c2"}], [{"s1": "c9", "s2": "c1"}], [{"s1": "c1", "s2": "c1"}]],
            [[{"s1": "c2", "s2": "c2"}], [{"s1": 3, "s2": "c1"}], [{"s1": "c1", "s2": "c1"}]],
            [[{"s1": "c1", "s2": "c1"}], {"s1": "c2", "s2": "c2"}],
            [[{"s1": "c1", "s2": "c1"}], ["c2"]],
        ],
        ids=["unlisted-consequence", "numeric-consequence", "tier-not-a-list", "act-not-an-object"],
    )
    def test_bad_preference_file(self, runner, tiers):
        doc = {"setup": {"states": ["s1", "s2"], "consequences": ["c1", "c2"]}, "tiers": tiers}
        with runner.isolated_filesystem():
            with open("prefs.json", "w") as fh:
                json.dump(doc, fh)
            result = runner.invoke(main, ["extract", "--prefs", "prefs.json"])
        self._assert_usage_error(result)

    @pytest.mark.parametrize(
        "doc",
        [
            {"setup": [], "tiers": []},
            {"setup": "fission", "tiers": []},
            {"setup": {"states": ["s1"], "consequences": ["c1"]}, "tiers": {}},
            {"setup": {"states": ["s1", "s2"], "consequences": ["c1", "c2"]}, "tiers": [[{"s1": "c1", "s2": "c2"}]]},
        ],
        ids=["setup-list", "setup-string", "tiers-object", "no-constant-acts"],
    )
    def test_bad_preference_file_shape(self, runner, doc):
        with runner.isolated_filesystem():
            with open("prefs.json", "w") as fh:
                json.dump(doc, fh)
            result = runner.invoke(main, ["extract", "--prefs", "prefs.json"])
        self._assert_usage_error(result)

    @pytest.mark.parametrize(
        "theories_patch, entry_patch, game_patch",
        [
            ({"priors": []}, {}, {}),
            ({"likelihoods": []}, {}, {}),
            ({"likelihoods": {"born": [], "skew": []}}, {}, {}),
            ({}, {"realization": 7}, {}),
            ({}, {"realization": None}, {}),
            ({}, {}, {"payoff": []}),
            ({}, {}, {"observable": {"name": "X", "eigenvalues": [1.0, 2.0]}}),
            ({"priors": {"born": "1/0", "skew": "0.5"}}, {}, {}),
            ({"likelihoods": {"born": {"1.0": "1/0", "2.0": "2/3"}, "skew": {"1.0": "0.9", "2.0": "0.1"}}}, {}, {}),
            ({"priors": {"born": "1e400", "skew": "0.5"}}, {}, {}),
        ],
        ids=[
            "priors-list", "likelihoods-list", "likelihood-table-list", "realization-number",
            "realization-null", "payoff-list", "eigenvalues-list", "prior-zero-denominator",
            "likelihood-zero-denominator", "prior-overflow",
        ],
    )
    def test_bad_confirm_file_shape(self, runner, theories_patch, entry_patch, game_patch):
        with open(os.path.join(CONFIGS, "born_vs_skew.json")) as fh:
            theories = {**json.load(fh), **theories_patch}
        games = [{"game": {**json.loads(game_to_json(THIRD_GAME)), **game_patch}, **entry_patch}]
        with runner.isolated_filesystem():
            for name, doc in (("theories.json", theories), ("games.json", games)):
                with open(name, "w") as fh:
                    json.dump(doc, fh)
            result = runner.invoke(main, ["confirm", "run", "--theories", "theories.json", "--games", "games.json"])
            self._assert_usage_error(result)
            if game_patch:
                with open("game.json", "w") as fh:
                    json.dump(games[0]["game"], fh)
                self._assert_usage_error(runner.invoke(main, ["game", "eval", "--game", "game.json"]))


class TestInProcess:
    def test_redirected_stdout_is_released(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                main(["dw", "verify", "--stage", "3", "--m", "1", "--n", "3"], prog_name="branchlab")
            except SystemExit as exc:
                code = exc.code
        assert code == 0
        assert buf.getvalue().endswith("stage S3: pass (residual 0)\n")
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None

    def test_cli_import_and_dutchbook_leave_scipy_unloaded(self):
        code = (
            "import contextlib, io, sys\n"
            "import branchlab.cli\n"
            "assert 'scipy' not in sys.modules, 'import branchlab.cli loaded scipy'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        branchlab.cli.main(['dutchbook'], prog_name='branchlab')\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n"
            "assert 'scipy' not in sys.modules, 'dutchbook loaded scipy'\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_cli_import_dutchbook_and_confirm_run_leave_numpy_unloaded(self):
        code = (
            "import contextlib, io, sys\n"
            "import branchlab.cli\n"
            "assert 'numpy' not in sys.modules, 'import branchlab.cli loaded numpy'\n"
            f"for argv in (['dutchbook'], {CONFIRM_RUN!r}):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            branchlab.cli.main(argv, prog_name='branchlab')\n"
            "        except SystemExit as exc:\n"
            "            assert exc.code == 0, (argv, exc.code)\n"
            "    assert 'numpy' not in sys.modules, f'{argv[0]} loaded numpy'\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestDeterminism:
    def test_byte_identical_reruns(self, runner):
        argv = ["dw", "verify", "--stage", "2", "--strategy", "born", "--n", "6", "--seed", "3"]
        first = runner.invoke(main, argv)
        second = runner.invoke(main, argv)
        assert first.output == second.output
        assert first.exit_code == second.exit_code == 0

    def test_seed_changes_sweep(self, runner):
        a = runner.invoke(main, ["dw", "verify", "--stage", "1", "--seed", "1"])
        b = runner.invoke(main, ["dw", "verify", "--stage", "1", "--seed", "2"])
        assert a.output != b.output


class TestGameEval:
    def test_eval_reports_value_and_weights(self, runner):
        with runner.isolated_filesystem():
            with open("game.json", "w") as fh:
                fh.write(game_to_json(THIRD_GAME))
            result = runner.invoke(main, ["game", "eval", "--game", "game.json", "--strategy", "born"])
            assert result.exit_code == 0
            doc = json.loads(result.output)
            assert doc["value"] == pytest.approx(10 / 3)
            assert doc["born_weights"]["2.0"] == pytest.approx(2 / 3)

    def test_relabel_check_flags_eigenvalue_strategy(self, runner):
        with runner.isolated_filesystem():
            with open("game.json", "w") as fh:
                fh.write(game_to_json(THIRD_GAME))
            ok = runner.invoke(
                main, ["game", "eval", "--game", "game.json", "--strategy", "born", "--relabel-check"]
            )
            assert ok.exit_code == 0
            bad = runner.invoke(
                main,
                ["game", "eval", "--game", "game.json", "--strategy", "eigenvalue", "--relabel-check"],
            )
            assert bad.exit_code == 1
            doc = json.loads(bad.output)
            assert doc["physicality_ok"] is False


class TestDutchbook:
    def test_worked_case(self, runner):
        result = runner.invoke(main, ["dutchbook", "--pa", "0.5", "--pta", "0.8", "--q", "0.6"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["guaranteed_net"] == -0.1
        assert set(doc["settlement"].values()) == {-0.1}

    def test_sweep(self, runner):
        result = runner.invoke(main, ["dutchbook", "--sweep", "50", "--seed", "4"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["ok"] is True

    def test_parity_reports_no_book(self, runner):
        result = runner.invoke(main, ["dutchbook", "--pa", "0.5", "--pta", "0.8", "--q", "0.8"])
        assert result.exit_code == 0
        assert json.loads(result.output)["book"] is None


class TestConfirmRun:
    def test_depth_twenty_run(self, runner):
        result = runner.invoke(
            main,
            [
                "confirm", "run",
                "--theories", os.path.join(os.path.dirname(__file__), "..", "configs", "born_vs_skew.json"),
                "--games", os.path.join(os.path.dirname(__file__), "..", "configs", "third_twothirds_game.json"),
                "--strategy", "born", "--depth", "20",
                "--true-theory", "born", "--require-mass", "0.99",
            ],
        )
        assert result.exit_code == 0
        assert "final caring mass" in result.output
        header = result.output.splitlines()[0]
        assert header == "iteration,outcome_class,caring_mass,credence_born,credence_skew"

    def test_require_mass_failure(self, runner):
        result = runner.invoke(
            main,
            [
                "confirm", "run",
                "--theories", os.path.join(os.path.dirname(__file__), "..", "configs", "born_vs_skew.json"),
                "--games", os.path.join(os.path.dirname(__file__), "..", "configs", "third_twothirds_game.json"),
                "--depth", "1", "--true-theory", "born", "--require-mass", "0.99",
            ],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "games, depth",
        [([], "3"), ([{"game": json.loads(game_to_json(THIRD_GAME))}], "-1")],
        ids=["empty-games", "negative-depth"],
    )
    def test_bad_input_is_usage_error(self, runner, games, depth):
        theories = os.path.join(os.path.dirname(__file__), "..", "configs", "born_vs_skew.json")
        with runner.isolated_filesystem():
            with open("games.json", "w") as fh:
                json.dump(games, fh)
            result = runner.invoke(
                main, ["confirm", "run", "--theories", theories, "--games", "games.json", "--depth", depth]
            )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1].startswith("Error: ")
        assert "Traceback" not in result.output


class TestExtractCommand:
    def test_roundtrip_sweep(self, runner):
        result = runner.invoke(main, ["extract", "--roundtrip-sweep", "5", "--seed", "9"])
        assert result.exit_code == 0
        assert "5/5 reproduced" in result.output

    def test_extract_from_file(self, runner):
        result = runner.invoke(
            main,
            ["extract", "--prefs", os.path.join(os.path.dirname(__file__), "..", "configs", "example_prefs.json")],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["probability"]["s2"] == pytest.approx(2 / 3, abs=1e-6)

    def test_intransitive_file_fails(self, runner):
        with runner.isolated_filesystem():
            with open("prefs.json", "w") as fh:
                json.dump([[{"s1": "c1"}], [{"s1": "c1"}]], fh)  # duplicate act
            result = runner.invoke(main, ["extract", "--prefs", "prefs.json"])
            assert result.exit_code == 2


class TestOutputFiles:
    def test_out_writes_file(self, runner):
        with runner.isolated_filesystem():
            result = runner.invoke(
                main,
                ["dw", "verify", "--stage", "3", "--m", "1", "--n", "3", "--out", "report.json"],
            )
            assert result.exit_code == 0
            with open("report.json") as fh:
                doc = json.load(fh)
            assert doc["stage"] == "S3" and doc["pass"] is True

    def test_env_output_directory(self, runner):
        with runner.isolated_filesystem():
            os.mkdir("outdir")
            env = {"BRANCHLAB_OUT": "outdir"}
            result = runner.invoke(
                main,
                ["dw", "verify", "--stage", "3", "--m", "1", "--n", "3", "--out", "r.json"],
                env=env,
            )
            assert result.exit_code == 0
            assert os.path.exists(os.path.join("outdir", "r.json"))


class TestEmit:
    def test_empty_trajectory_header_only(self):
        report = TrajectoryReport(rows=(), theories=("T",), trials=0)
        data = emit(report, "csv").decode()
        assert data == "iteration,outcome_class,caring_mass,credence_T\n"

    def test_twelve_significant_digits(self):
        data = emit([{"x": 1 / 3}], "csv").decode()
        assert "0.333333333333" in data

    def test_formats_agree_on_content(self, runner):
        argv = ["dw", "verify", "--stage", "3", "--m", "2", "--n", "5"]
        as_json = runner.invoke(main, argv + ["--format", "json"])
        as_csv = runner.invoke(main, argv + ["--format", "csv"])
        as_table = runner.invoke(main, argv + ["--format", "table"])
        assert as_json.exit_code == as_csv.exit_code == as_table.exit_code == 0
        assert "mn_delta" in as_csv.output and "mn_delta" in as_table.output


@pytest.mark.parametrize("flag", ["--pa", "--pta", "--q", "--stake"])
def test_dutchbook_number_too_large_for_a_float_is_usage_error(runner, flag):
    result = runner.invoke(main, ["dutchbook", flag, "1e400"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1] == f"Error: {flag} 1e400 is too large for a float"


@pytest.mark.parametrize("strategy, code", [("born", 0), ("egalitarian", 1), ("squared", 1)])
def test_general_stage_verdict_includes_the_realization_gap(runner, strategy, code):
    result = runner.invoke(main, ["dw", "verify", "--stage", "general", "--strategy", strategy])
    assert result.exit_code == code
    assert result.output.splitlines()[-1].startswith(f"stage S4to6: {'pass' if code == 0 else 'fail'} ")


def test_general_stage_failing_target_is_not_hidden_by_an_inconclusive_one(runner):
    """Egalitarian at a1^2 = 0.45 never leaves the equal-weight approximant 1/2
    below cap 4 (no realization gap, not converged: inconclusive), while at
    0.3 the approximant 1/3 shows a gap of 5/3: the merged stage fails."""
    argv = ["dw", "verify", "--stage", "general", "--strategy", "egalitarian", "--max-denominator", "4"]
    assert runner.invoke(main, argv + ["--a1sq", "0.45"]).output.splitlines()[-1].startswith("stage S4to6: inconclusive")
    result = runner.invoke(main, argv + ["--a1sq", "0.45", "--a1sq", "0.3"])
    assert result.exit_code == 1
    assert result.output.splitlines()[-1] == "stage S4to6: fail (residual 1.66666666667)"
