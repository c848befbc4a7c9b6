"""Every subcommand prints its report in the --format asked for, and the
game/dutchbook inputs that used to print an unsound verdict are refused."""

import csv
import io
import json
import os
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from branchlab import CredenceState, Deviant, build_dutch_book, game_from_json, game_to_json, weighted_game
from branchlab import games
from branchlab.cli import main
from branchlab.reporting import fmt_float, rows_to_csv, rows_to_table

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
THIRD_GAME = weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))
FORMATS = ("json", "csv", "table")
AXIOM_VIOLATION = {
    "setup": {"states": ["s1", "s2"], "consequences": ["c1", "c2"]},
    "tiers": [
        [{"s1": "c2", "s2": "c1"}],
        [{"s1": "c1", "s2": "c2"}],
        [{"s1": "c2", "s2": "c2"}],
        [{"s1": "c1", "s2": "c1"}],
    ],
}

# (argv, csv/table header, exit code, summary lines after the report)
REPORTS = {
    "dutchbook-book": (["dutchbook", "--pa", "0.5", "--pta", "0.8", "--q", "0.6"], ["key", "value"], 0, 0),
    "dutchbook-no-book": (["dutchbook", "--pa", "0.5", "--pta", "0.8", "--q", "0.8"], ["key", "value"], 0, 0),
    "dutchbook-sweep": (["dutchbook", "--sweep", "3", "--seed", "2"], ["key", "value"], 0, 0),
    "extract-prefs": (["extract", "--prefs", os.path.join(CONFIGS, "example_prefs.json")], ["key", "value"], 0, 0),
    "extract-prefs-axiom-violation": (["extract", "--prefs", "violation.json"], ["key", "value"], 1, 0),
    "extract-roundtrip-sweep": (
        ["extract", "--roundtrip-sweep", "2", "--seed", "0"],
        ["trial", "states", "consequences", "acts", "ok"],
        0,
        1,
    ),
}


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return False
    return True


def _run(argv):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("violation.json", "w") as fh:
            json.dump(AXIOM_VIOLATION, fh)
        return runner.invoke(main, argv)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", list(REPORTS))
def test_every_format_parses_as_that_format(case, fmt):
    argv, header, code, summary_lines = REPORTS[case]
    result = _run([*argv, "--format", fmt])
    assert result.exit_code == code, result.output
    lines = result.output.splitlines(keepends=True)
    body = "".join(lines[: len(lines) - summary_lines])
    if fmt == "json":
        assert isinstance(json.loads(body), (dict, list))
        return
    assert not _is_json(body)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == header
        assert len(rows) > 1 and all(len(row) == len(header) for row in rows)
    else:
        table = body.splitlines()
        assert table[0].split() == header
        # Every row starts its second column where the header does.
        start = table[0].index(header[1])
        assert len(table) > 1 and all(row[start - 2 : start] == "  " and row[start] != " " for row in table[1:])


@pytest.mark.parametrize("case", ["dutchbook-book", "extract-prefs", "extract-roundtrip-sweep"])
def test_extract_and_dutchbook_defaults_are_unchanged(case):
    argv, header, code, summary_lines = REPORTS[case]
    default = _run(argv).output
    explicit = _run([*argv, "--format", "csv" if case == "extract-roundtrip-sweep" else "json"]).output
    assert default == explicit


class TestNestedCells:
    def test_a_mapping_cell_is_compact_json_with_twelve_digit_floats(self):
        row = {"w": {1.0: Fraction(1, 3), "2.0": 2 / 3, "n": 4}}
        assert rows_to_csv(["w"], [row]) == 'w\n"{""1.0"":0.333333333333,""2.0"":0.666666666667,""n"":4}"\n'
        assert rows_to_table(["w"], [row]).splitlines()[1] == '{"1.0":0.333333333333,"2.0":0.666666666667,"n":4}'

    def test_a_list_of_mappings_joins_json_cells(self):
        row = {"bets": [{"q": 0.1 + 0.2}, {"q": Fraction(2, 3)}]}
        assert rows_to_table(["bets"], [row]).splitlines()[1] == '{"q":0.3}|{"q":0.666666666667}'

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_game_eval_born_weights_cell(self, tmp_path, fmt):
        path = tmp_path / "game.json"
        path.write_text(game_to_json(THIRD_GAME))
        result = CliRunner().invoke(main, ["game", "eval", "--game", str(path), "--format", fmt])
        assert result.exit_code == 0
        line = next(l for l in result.output.splitlines() if l.startswith("born_weights"))
        cell = line.split(",", 1)[1] if fmt == "csv" else line.split(None, 1)[1]
        cell = next(csv.reader([cell]))[0] if fmt == "csv" else cell
        assert json.loads(cell) == {"1.0": float(fmt_float(Fraction(1, 3))), "2.0": float(fmt_float(Fraction(2, 3)))}

    def test_egal_demo_counts_and_weights_cells(self):
        result = CliRunner().invoke(main, ["egal", "demo", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(result.output.rsplit("\n", 2)[0] + "\n")))
        assert rows and all(json.loads(r["outcome_weights"]) == {"1.0": 0.333333333333, "2.0": 0.666666666667} for r in rows)
        assert all(set(json.loads(r["counts"])) == {"1.0", "2.0"} for r in rows)


class TestGameEvalValidation:
    @staticmethod
    def _counting(monkeypatch) -> list:
        calls = []
        original = games.validate_game

        def counted(game):
            calls.append(game)
            return original(game)

        for name, module in list(sys.modules.items()):
            if name.startswith("branchlab") and getattr(module, "validate_game", None) is original:
                monkeypatch.setattr(module, "validate_game", counted)
        return calls

    @pytest.mark.parametrize("realization", ["direct", "ancilla:1,3"])
    @pytest.mark.parametrize("relabel, most", [(False, 2), (True, 3)])
    def test_validates_at_most_twice_per_game(self, monkeypatch, tmp_path, realization, relabel, most):
        path = tmp_path / "game.json"
        path.write_text(game_to_json(THIRD_GAME))
        calls = self._counting(monkeypatch)
        argv = ["game", "eval", "--game", str(path), "--realization", realization]
        result = CliRunner().invoke(main, argv + (["--relabel-check"] if relabel else []))
        assert result.exit_code == 0
        assert 1 <= len(calls) <= most

    @pytest.mark.parametrize("realization", ["direct", "ancilla:1,3"])
    @pytest.mark.parametrize("strategy", ["born", "egalitarian", "eigenvalue"])
    @pytest.mark.parametrize("broken", ["not-normalized", "payoff-missing", "both"])
    def test_invalid_game_error_text_and_exit_code(self, tmp_path, realization, strategy, broken):
        doc = json.loads(game_to_json(THIRD_GAME))
        if broken != "payoff-missing":
            doc["state"][0]["re"] = 0.9
        if broken != "not-normalized":
            del doc["payoff"]["2.0"]
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        problems = games.validate_game(game_from_json(json.dumps(doc)))
        assert problems
        argv = ["game", "eval", "--game", str(path), "--strategy", strategy, "--realization", realization]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: invalid game: " + "; ".join(problems)]


class TestDutchbookRefusals:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dutchbook", "--sweep", "0"],
            ["dutchbook", "--sweep", "-5"],
            ["dutchbook", "--sweep", "-5", "--format", "csv"],
            ["dutchbook", "--stake", "-1"],
            ["dutchbook", "--stake", "-1/2", "--format", "table"],
            ["dutchbook", "--stake", "-1", "--q", "0.8"],
        ],
    )
    def test_exits_two_with_one_error_line(self, argv):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert [l for l in result.output.splitlines() if l.startswith("Error:")] == [result.output.splitlines()[-1]]

    def test_zero_stake_still_builds(self):
        result = CliRunner().invoke(main, ["dutchbook", "--stake", "0"])
        assert result.exit_code == 0
        assert json.loads(result.output)["guaranteed_net"] == 0

    @pytest.mark.parametrize("stake", [-1, Fraction(-1, 2), -1e-9])
    def test_build_dutch_book_refuses_a_negative_stake(self, stake):
        cred = CredenceState(
            priors={"T": Fraction(4, 5), "notT": Fraction(1, 5)},
            likelihoods={"T": {"A": Fraction(1, 2), "notA": Fraction(1, 2)},
                         "notT": {"A": Fraction(1, 2), "notA": Fraction(1, 2)}},
        )
        with pytest.raises(ValueError, match="stake must not be negative"):
            build_dutch_book(cred, Deviant({("T", "A"): Fraction(3, 5)}), "A", "T", stake=stake)
