"""Trajectory rendering: csv, json and table through one row renderer.

Every case compares emit's bytes with ``reference_emit``, which formats each
cell on its own through ``rows_to_csv``/``rows_to_table`` and ``fmt_float``.
"""

import csv
import io
import json
import os
from fractions import Fraction

import pytest

from branchlab import Born, CredenceState, Egalitarian, confirmation_experiment, weighted_game
from branchlab import reporting
from branchlab.confirmation import TrajectoryReport, TrajectoryRow
from branchlab.games import game_from_json, parse_realization
from branchlab.reporting import emit
from confirmation_reference import reference_emit

FORMATS = ("csv", "json", "table")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
ODD_NAMES = ("a,b", 'say "hi"', "two words")
ODD_OUTCOMES = (-1.5, 0.1, 1e20)
STRATEGIES = pytest.mark.parametrize("strategy", [Born(), Egalitarian(1e-6)], ids=["born", "egalitarian"])


def odd_report(strategy):
    """Theory names that need CSV quoting, outcomes in three float notations,
    and a theory with no likelihood for 1e20, so some rows freeze."""
    a, b, c = ODD_NAMES
    cred = CredenceState(
        priors={a: Fraction(1, 2), b: Fraction(1, 3), c: Fraction(1, 6)},
        likelihoods={
            a: {-1.5: Fraction(1, 2), 0.1: Fraction(1, 4), 1e20: Fraction(1, 4)},
            b: {-1.5: Fraction(1, 3), 0.1: Fraction(1, 3), 1e20: Fraction(1, 3)},
            c: {-1.5: Fraction(0), 0.1: Fraction(1, 2)},
        },
    )
    game = weighted_game((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), (0, 1, 2), eigenvalues=ODD_OUTCOMES)
    return confirmation_experiment(cred, game, strategy, trials=5)


def readme_report(strategy, depth=60):
    """configs/born_vs_skew.json x configs/third_twothirds_game.json, read as confirm run reads them."""
    with open(os.path.join(CONFIGS, "born_vs_skew.json")) as fh:
        theories = json.load(fh)
    with open(os.path.join(CONFIGS, "third_twothirds_game.json")) as fh:
        entries = json.load(fh)
    cred = CredenceState(
        priors={t: Fraction(str(p)) for t, p in theories["priors"].items()},
        likelihoods={
            t: {float(k): Fraction(str(v)) for k, v in table.items()}
            for t, table in theories["likelihoods"].items()
        },
    )
    games = [
        (game_from_json(json.dumps(e["game"])), parse_realization(e.get("realization", "direct")))
        for e in entries
    ]
    return confirmation_experiment(cred, games, strategy, trials=depth)


@STRATEGIES
def test_odd_names_and_outcomes_match_reference(strategy):
    report = odd_report(strategy)
    assert any(row.frozen for row in report.rows)
    for fmt in FORMATS:
        assert emit(report, fmt) == reference_emit(report, fmt)
    body = emit(report, "csv").decode().splitlines()[1:]
    assert body[-1].startswith("5,-1.5:") and ";0.1:" in body[-1] and ";1e+20:" in body[-1]


def test_header_quotes_theory_names_and_body_needs_no_quoting():
    data = emit(odd_report(Born()), "csv").decode()
    header, *body = data.splitlines()
    assert header == 'iteration,outcome_class,caring_mass,"credence_a,b","credence_say ""hi""",credence_two words'
    parsed = list(csv.reader(io.StringIO(data)))
    assert parsed[0] == ["iteration", "outcome_class", "caring_mass", *(f"credence_{t}" for t in ODD_NAMES)]
    assert [",".join(row) for row in parsed[1:]] == body


def test_hand_built_rows_match_reference():
    """Int, float and Fraction masses and credences, a frozen row and an
    empty outcome class, in rows that no experiment built."""
    rows = (
        TrajectoryRow(0, (), 1, {"x": 1, "y": 0}),
        TrajectoryRow(1, ((-1.5, 1), (0.1, 0)), Fraction(1, 3), {"x": Fraction(2, 7), "y": Fraction(5, 7)}),
        TrajectoryRow(1, ((-1.5, 0), (0.1, 1)), 2 / 3, {"x": 0.1, "y": 0.9}, frozen=True),
        TrajectoryRow(2, ((-1.5, 1), (1e20, 1)), 1e-300, {"x": Fraction(10**30, 10**30 + 1), "y": 0.0}),
    )
    report = TrajectoryReport(rows=rows, theories=("y", "x"), trials=2)
    for fmt in FORMATS:
        assert emit(report, fmt) == reference_emit(report, fmt)


@STRATEGIES
def test_readme_config_matches_reference(strategy):
    report = readme_report(strategy)
    mass_type = float if isinstance(strategy, Born) else Fraction
    assert type(report.rows[-1].caring_mass) is mass_type
    for fmt in FORMATS:
        assert emit(report, fmt) == reference_emit(report, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_rendering_skips_cell_and_formats_each_outcome_once(monkeypatch, fmt):
    report = readme_report(Egalitarian(1e-6), depth=30)
    outcomes = {x for row in report.rows for x, _ in row.outcome_class}
    want = reference_emit(report, fmt)
    calls = {"_cell": 0, "fmt_float": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(reporting, name, counting(name, getattr(reporting, name)))
    assert emit(report, fmt) == want
    assert calls["_cell"] == 0
    assert 0 < calls["fmt_float"] <= len(outcomes) == 2
