"""One input boundary and one error exit.

Every malformed input file, every file that cannot be read as UTF-8 JSON,
every flag the chosen mode never reads and every size over its cap exits 2
with one Error: line as the last line of output and no traceback.  Errors
that are not input errors keep their own exits: an axiom violation is a
verdict (exit 1), and any other exception escapes as a bug.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from branchlab import cli
from branchlab.cli import main
from branchlab.exact import exact_number
from branchlab.games import game_to_json, weighted_game
from branchlab.verifier import DEMO_SEED

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
THEORIES = str(CONFIGS / "born_vs_skew.json")
GAMES = str(CONFIGS / "third_twothirds_game.json")
PREFS = str(CONFIGS / "example_prefs.json")

# Each file flag, as argv with the file at PATH; the other files are valid.
FILE_ARGV = {
    "game": ["game", "eval", "--game", "PATH"],
    "games": ["confirm", "run", "--theories", THEORIES, "--games", "PATH", "--depth", "1"],
    "theories": ["confirm", "run", "--theories", "PATH", "--games", GAMES, "--depth", "1"],
    "prefs": ["extract", "--prefs", "PATH"],
}


def _argv(kind, path):
    return [str(path) if arg == "PATH" else arg for arg in FILE_ARGV[kind]]


def _assert_one_error_line(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert [line for line in lines if line.startswith("Error:")] == [lines[-1]]
    return lines[-1]


def _edit(doc, path, value):
    """doc with the item at path (a tuple of keys) set to value, or deleted if value is DELETE."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


DELETE = object()
GAME = json.loads(game_to_json(weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))))
FIRST_LABEL = GAME["state"][0]["label"]
THEORIES_DOC = json.loads(Path(THEORIES).read_text())
PREFS_DOC = json.loads(Path(PREFS).read_text())

MALFORMED = {
    "game": {
        "top-level-list": [GAME],
        "top-level-int": 7,
        "state-int": _edit(GAME, ("state",), 7),
        "state-object": _edit(GAME, ("state",), {"a": 1}),
        "state-entry-string": _edit(GAME, ("state",), ["a"]),
        "observable-list": _edit(GAME, ("observable",), [1.0, 2.0]),
        "observable-string": _edit(GAME, ("observable",), "X"),
        "eigenvalues-list": _edit(GAME, ("observable", "eigenvalues"), [1.0, 2.0]),
        "payoff-list": _edit(GAME, ("payoff",), []),
        "eigenvalue-not-numeric": _edit(GAME, ("observable", "eigenvalues", FIRST_LABEL), "one"),
        "eigenvalue-null": _edit(GAME, ("observable", "eigenvalues", FIRST_LABEL), None),
        "eigenvalue-huge-int": _edit(GAME, ("observable", "eigenvalues", FIRST_LABEL), 10**400),
        "payoff-key-not-numeric": _edit(GAME, ("payoff", "one"), {"consequence": "c", "utility": 1}),
        "payoff-entry-list": _edit(GAME, ("payoff", "1.0"), [1]),
        "amplitude-zero-denominator": _edit(GAME, ("state", 0, "re"), "1/0"),
        "amplitude-overflow": _edit(GAME, ("state", 0, "re"), "1e400"),
        "utility-zero-denominator": _edit(GAME, ("payoff", "1.0", "utility"), "1/0"),
        "utility-overflow": _edit(GAME, ("payoff", "1.0", "utility"), "1e400"),
        "label-list": _edit(GAME, ("state", 0, "label"), [FIRST_LABEL]),
        "label-duplicate": _edit(GAME, ("state", 1, "label"), FIRST_LABEL),
        "state-empty": _edit(GAME, ("state",), []),
        "missing-payoff": _edit(GAME, ("payoff",), DELETE),
        "missing-amplitude": _edit(GAME, ("state", 0, "re"), DELETE),
    },
    "games": {
        "top-level-int": 7,
        "top-level-object": {"game": GAME},
        "entry-int": [7],
        "entry-list": [[GAME]],
        "entry-string": ["direct"],
        "game-int": [{"game": 7}],
        "game-malformed": [{"game": _edit(GAME, ("state",), 7)}],
        "game-label-duplicate": [{"game": _edit(GAME, ("state", 1, "label"), FIRST_LABEL)}],
        "missing-game": [{"realization": "direct"}],
        "realization-int": [{"game": GAME, "realization": 7}],
        "realization-null": [{"game": GAME, "realization": None}],
        "realization-list": [{"game": GAME, "realization": ["direct"]}],
        "realization-unknown": [{"game": GAME, "realization": "ancilla:x"}],
    },
    "theories": {
        "top-level-list": [THEORIES_DOC],
        "top-level-int": 7,
        "priors-list": _edit(THEORIES_DOC, ("priors",), [0.5, 0.5]),
        "priors-int": _edit(THEORIES_DOC, ("priors",), 1),
        "likelihoods-string": _edit(THEORIES_DOC, ("likelihoods",), "born"),
        "likelihood-table-list": _edit(THEORIES_DOC, ("likelihoods", "born"), [0.5]),
        "likelihood-key-not-numeric": _edit(THEORIES_DOC, ("likelihoods", "born", "one"), "0.5"),
        "prior-not-numeric": _edit(THEORIES_DOC, ("priors", "born"), "half"),
        "prior-null": _edit(THEORIES_DOC, ("priors", "born"), None),
        "prior-list": _edit(THEORIES_DOC, ("priors", "born"), [0.5]),
        "prior-zero-denominator": _edit(THEORIES_DOC, ("priors", "born"), "1/0"),
        "prior-overflow": _edit(THEORIES_DOC, ("priors", "born"), "1e400"),
        "prior-huge-int": _edit(THEORIES_DOC, ("priors", "born"), 10**400),
        "likelihood-zero-denominator": _edit(THEORIES_DOC, ("likelihoods", "born", "1.0"), "1/0"),
        "likelihood-overflow": _edit(THEORIES_DOC, ("likelihoods", "born", "1.0"), "1e400"),
        "prior-huge-exponent": _edit(THEORIES_DOC, ("priors", "born"), "1e-30000000"),
        "likelihood-huge-exponent": _edit(THEORIES_DOC, ("likelihoods", "born", "1.0"), " 5E+99999999 "),
        "missing-priors": _edit(THEORIES_DOC, ("priors",), DELETE),
        "missing-likelihoods": _edit(THEORIES_DOC, ("likelihoods",), DELETE),
    },
    "prefs": {
        "top-level-int": 7,
        "top-level-string": "tiers",
        "setup-list": _edit(PREFS_DOC, ("setup",), []),
        "setup-string": _edit(PREFS_DOC, ("setup",), "fission"),
        "tiers-object": _edit(PREFS_DOC, ("tiers",), {}),
        "tiers-int": _edit(PREFS_DOC, ("tiers",), 7),
        "tier-object": _edit(PREFS_DOC, ("tiers", 0), {"s1": "c1"}),
        "tier-int": _edit(PREFS_DOC, ("tiers", 0), 7),
        "act-string": _edit(PREFS_DOC, ("tiers", 0), ["c1"]),
        "bare-list-act-string": [["c1"]],
        "states-int": _edit(PREFS_DOC, ("setup", "states"), 7),
        "state-label-list": _edit(PREFS_DOC, ("setup", "states"), [["s1"], "s2"]),
        "consequence-label-list": _edit(PREFS_DOC, ("tiers", 0, 0), {"s1": ["c1"], "s2": "c1"}),
        "states-duplicate": _edit(PREFS_DOC, ("setup", "states"), ["s1", "s1"]),
        "act-duplicate": [[{"s1": "c1"}], [{"s1": "c1"}]],
        "states-empty": _edit(PREFS_DOC, ("setup", "states"), []),
        "kind-int": _edit(PREFS_DOC, ("setup", "kind"), 7),
        "missing-setup": _edit(PREFS_DOC, ("setup",), DELETE),
        "missing-consequences": _edit(PREFS_DOC, ("setup", "consequences"), DELETE),
    },
}


def test_the_valid_documents_load():
    """The matrix below edits documents that load, so each refusal is the edit's."""
    assert GAME["state"] and PREFS_DOC["setup"]["states"] == ["s1", "s2"]
    for kind, doc in (("game", GAME), ("games", [{"game": GAME}]), ("theories", THEORIES_DOC), ("prefs", PREFS_DOC)):
        runner = CliRunner()
        with runner.isolated_filesystem():
            Path("doc.json").write_text(json.dumps(doc))
            result = runner.invoke(main, _argv(kind, "doc.json"))
        assert result.exit_code == 0, (kind, result.output)


@pytest.mark.parametrize(
    "kind, case", [(kind, case) for kind, cases in MALFORMED.items() for case in cases]
)
def test_a_malformed_file_exits_two_with_one_error_line(tmp_path, kind, case):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED[kind][case]))
    _assert_one_error_line(CliRunner().invoke(main, _argv(kind, path)))


@pytest.mark.parametrize("kind", list(FILE_ARGV))
def test_a_file_that_is_not_utf8_exits_two(tmp_path, kind):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe\x00")
    error = _assert_one_error_line(CliRunner().invoke(main, _argv(kind, path)))
    assert error.startswith(f"Error: cannot read {path}: ")


@pytest.mark.parametrize("kind", list(FILE_ARGV))
def test_a_directory_exits_two(tmp_path, kind):
    error = _assert_one_error_line(CliRunner().invoke(main, _argv(kind, tmp_path)))
    assert error.startswith(f"Error: cannot read {tmp_path}: ")


# -- flags a mode never reads ---------------------------------------------------

FLAG_VALUES = {
    "--m": "1", "--n": "3", "--max-n": "4", "--payoff-count": "3", "--seed": "4", "--u1": "1", "--u2": "2",
    "--a1sq": "0.3", "--tolerance": "1e-4", "--max-denominator": "64", "--fine-dim": "8", "--epsilon": "1e-3",
    "--tau": "1e-9", "--demo-seed": str(DEMO_SEED),
}
STAGE_READS = {
    "1": ["--seed", "--payoff-count"],
    "2": ["--seed", "--payoff-count", "--n", "--max-n"],
    "3": ["--m", "--n", "--max-n", "--u1", "--u2"],
    "general": ["--u1", "--u2", "--a1sq", "--tolerance", "--max-denominator"],
    "egal-demo": ["--fine-dim", "--epsilon", "--tau", "--demo-seed"],
}
STAGE_FUNCTIONS = (
    "verify_stage1", "verify_stage2", "verify_stage2_sweep", "verify_stage3", "verify_stage3_sweep",
    "verify_stage_general", "egalitarian_incoherence_demo",
)


@pytest.fixture
def no_stage_runs(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a stage ran")

    for name in STAGE_FUNCTIONS:
        monkeypatch.setattr(cli, name, no_work)


@pytest.mark.parametrize(
    "stage, flag",
    [(stage, flag) for stage, reads in STAGE_READS.items() for flag in FLAG_VALUES if flag not in reads],
)
def test_a_stage_refuses_a_flag_it_never_reads(no_stage_runs, stage, flag):
    error = _assert_one_error_line(CliRunner().invoke(main, ["dw", "verify", "--stage", stage, flag, FLAG_VALUES[flag]]))
    assert error == f"Error: --stage {stage} does not read {flag}"


def test_the_refusal_names_every_unread_flag(no_stage_runs):
    argv = ["dw", "verify", "--stage", "1", "--payoff-count", "5", "--n", "3", "--tolerance", "7",
            "--max-denominator", "9", "--fine-dim", "3"]
    error = _assert_one_error_line(CliRunner().invoke(main, argv))
    assert error == "Error: --stage 1 does not read --n, --tolerance, --max-denominator, --fine-dim"


@pytest.mark.parametrize(
    "stage, flags",
    [
        ("1", ["--seed", "--payoff-count"]),
        ("2", ["--seed", "--payoff-count", "--n"]),
        ("2", ["--seed", "--payoff-count", "--max-n"]),
        ("3", ["--m", "--n", "--u1", "--u2"]),
        ("3", ["--max-n", "--u1", "--u2"]),
        ("general", ["--u1", "--u2", "--a1sq", "--tolerance", "--max-denominator"]),
        ("egal-demo", ["--fine-dim", "--epsilon", "--tau", "--demo-seed"]),
    ],
)
def test_a_stage_runs_with_every_flag_it_reads(stage, flags):
    argv = ["dw", "verify", "--stage", stage, *[x for flag in flags for x in (flag, FLAG_VALUES[flag])]]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1), result.output
    assert result.output.splitlines()[-1].startswith("stage ")


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["dutchbook", "--seed", "3"], ["--seed"]),
        (["extract", "--prefs", PREFS, "--seed", "3"], ["--seed"]),
        (["extract", "--prefs", PREFS, "--max-states", "2", "--max-consequences", "2"], ["--max-states", "--max-consequences"]),
    ],
)
def test_the_single_modes_refuse_the_sweep_flags(argv, flags):
    error = _assert_one_error_line(CliRunner().invoke(main, argv))
    assert error.endswith("does not read " + ", ".join(flags))


def test_dutchbook_help_still_shows_the_worked_book_defaults():
    result = CliRunner().invoke(main, ["dutchbook", "--help"])
    for default in ("0.5", "0.8", "0.6", "1"):
        assert f"[default: {default}]" in result.output


# -- size caps ----------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--stage", "1", "--payoff-count", str(cli.STAGE1_MAX_PAYOFF_COUNT + 1)], "--payoff-count"),
        (["--stage", "2", "--n", str(cli.STAGE2_MAX_N), "--payoff-count", "40"], "--n"),
        (["--stage", "2", "--n", str(cli.STAGE2_MAX_N // 2 + 1), "--payoff-count", "40"], "--n"),
        (["--stage", "2", "--n", str(cli.STAGE2_MAX_N + 1), "--payoff-count", "1"], "--n"),
        (["--stage", "2", "--max-n", str(cli.STAGE2_MAX_SWEEP_N), "--payoff-count", "21"], "--max-n"),
        (["--stage", "2", "--max-n", str(cli.STAGE2_MAX_SWEEP_N + 1), "--payoff-count", "2"], "--max-n"),
        (["--stage", "2", "--payoff-count", "100"], "--max-n"),
    ],
)
def test_a_payoff_count_over_its_cap_is_refused_before_any_work(no_stage_runs, flags, named):
    error = _assert_one_error_line(CliRunner().invoke(main, ["dw", "verify", *flags]))
    assert named in error and "Error: stage " in error


@pytest.mark.parametrize(
    "flags",
    [
        ["--stage", "1", "--payoff-count", str(cli.STAGE1_MAX_PAYOFF_COUNT)],
        ["--stage", "2", "--n", str(cli.STAGE2_MAX_N // 2), "--payoff-count", "40"],
        ["--stage", "2", "--max-n", str(cli.STAGE2_MAX_SWEEP_N // 4), "--payoff-count", "80"],
        ["--stage", "2", "--payoff-count", "80"],
    ],
)
def test_a_payoff_count_at_its_cap_reaches_the_stage(monkeypatch, flags):
    class Ran(Exception):
        pass

    def ran(*args, **kwargs):
        raise Ran

    for name in ("verify_stage1", "verify_stage2", "verify_stage2_sweep"):
        monkeypatch.setattr(cli, name, ran)
    assert isinstance(CliRunner().invoke(main, ["dw", "verify", *flags]).exception, Ran)


# -- what the exit-2 handler leaves alone ----------------------------------------


def test_another_exception_escapes_as_a_bug(monkeypatch):
    def bug(*args, **kwargs):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "verify_stage3", bug)
    result = CliRunner().invoke(main, ["dw", "verify", "--stage", "3", "--m", "1", "--n", "3"])
    assert isinstance(result.exception, RuntimeError) and str(result.exception) == "a bug"
    assert "Error:" not in result.output


def test_an_axiom_violation_is_a_verdict_not_an_input_error(tmp_path):
    doc = {
        "setup": {"states": ["s1", "s2"], "consequences": ["c1", "c2"]},
        "tiers": [[{"s1": "c2", "s2": "c1"}], [{"s1": "c1", "s2": "c2"}], [{"s1": "c2", "s2": "c2"}],
                  [{"s1": "c1", "s2": "c1"}]],
    }
    path = tmp_path / "prefs.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["extract", "--prefs", str(path)])
    assert result.exit_code == 1
    assert json.loads(result.output)["error"] == "axiom violation"


def _handlers(tree):
    def names(node):
        if node is None:
            return ()
        if isinstance(node, ast.Tuple):
            return tuple(name for elt in node.elts for name in names(elt))
        return (ast.unparse(node),)

    return [names(node.type) for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]


def test_cli_has_three_except_clauses_and_no_more():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    handlers = _handlers(ast.parse(source))
    assert sorted(handlers) == sorted([
        ("ValueError",),
        ("AxiomError",),
        ("OSError", "UnicodeDecodeError", "json.JSONDecodeError"),
    ])
    banned = {"KeyError", "TypeError", "ZeroDivisionError", "OverflowError"}
    assert not banned & {name for names in handlers for name in names}


@pytest.mark.parametrize("text", ["1e-30000000", "1E+30000000", "0.5e10001"])
def test_a_number_with_a_huge_exponent_is_refused_before_it_is_built(text):
    # Fraction(text) would build 10**exponent first and run for minutes.
    error = _assert_one_error_line(CliRunner().invoke(main, ["dutchbook", "--pa", text]))
    assert error.startswith(f"Error: --pa {text} is not a number: exponent ")


@pytest.mark.parametrize("text, value", [("1e-10000", Fraction(1, 10**10000)), ("2.5e3", Fraction(2500)), ("3/4", Fraction(3, 4))])
def test_exact_number_keeps_exponents_a_float_could_use(text, value):
    assert exact_number(text, "--pa") == value
