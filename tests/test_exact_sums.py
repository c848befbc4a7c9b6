"""Exact sums on one common denominator: the fold's value, type and bits, and the CLI around them."""

import json
from fractions import Fraction
from functools import reduce

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from branchlab.cli import main
from branchlab.exact import _exact_dot, _exact_sum, _exact_sums
from fold_reference import fold_dot, fold_sum, fold_sums, use_folds

STRATEGIES = ["born", "egalitarian", "squared", "eigenvalue"]

rationals = st.one_of(
    st.integers(-10**9, 10**9),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)
# Bounded so that no dozen terms can overflow to inf (and inf - inf to nan).
floats = st.one_of(
    st.floats(min_value=-1e200, max_value=1e200),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]),
)
# A leading run of ints and Fractions, then anything: floats after rationals.
terms = st.builds(
    lambda head, tail: head + tail,
    st.lists(rationals, max_size=8),
    st.lists(st.one_of(floats, rationals), max_size=5),
)


def assert_same(got, want):
    assert type(got) is type(want)
    assert repr(got) == repr(want)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(xs=terms, ys=terms, keys=st.lists(st.sampled_from([1.0, 2.0, -3.5]), min_size=13, max_size=13))
@example(xs=[], ys=[], keys=[1.0] * 13)
@example(xs=[Fraction(1, 3)], ys=[7], keys=[1.0] * 13)
@example(xs=[5], ys=[-0.0], keys=[1.0] * 13)
@example(xs=[-0.0], ys=[Fraction(2, 3)], keys=[2.0] * 13)
@example(xs=[Fraction(1, 3), 5e-324, Fraction(2, 3)], ys=[-0.0, 3, 1e-310], keys=[1.0, 2.0, 1.0] + [2.0] * 10)
def test_exact_sums_equal_the_fold_from_fraction_zero(xs, ys, keys):
    assert_same(_exact_sum(xs), reduce(lambda t, x: t + x, xs, Fraction(0)))
    assert_same(_exact_sum(iter(xs)), fold_sum(xs))
    assert_same(_exact_dot(xs, ys), reduce(lambda t, xy: t + xy[0] * xy[1], zip(xs, ys), Fraction(0)))
    assert_same(_exact_dot(iter(xs), iter(ys)), fold_dot(xs, ys))
    sums, want = _exact_sums(zip(keys, xs)), fold_sums(zip(keys, xs))
    assert list(sums) == list(want)
    for key in want:
        assert_same(sums[key], want[key])


STAGE_ARGS = {
    "stage1": ["--stage", "1", "--payoff-count", "20"],
    "stage2-n2": ["--stage", "2", "--n", "2"],
    "stage2-n17": ["--stage", "2", "--n", "17"],
    "stage2-n64": ["--stage", "2", "--n", "64"],
    "stage2-sweep": ["--stage", "2", "--max-n", "9", "--payoff-count", "3"],
    "stage3": ["--stage", "3", "--m", "2", "--n", "7", "--u1", "3.3", "--u2", "-1.7"],
    "stage3-sweep": ["--stage", "3", "--max-n", "12"],
    "general": ["--stage", "general", "--max-denominator", "512"],
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("stage", list(STAGE_ARGS))
def test_dw_verify_stdout_is_the_folds(monkeypatch, stage, strategy):
    args = ["dw", "verify", *STAGE_ARGS[stage], "--strategy", strategy]
    summed = CliRunner().invoke(main, args)
    with monkeypatch.context() as patch:
        use_folds(patch)
        folded = CliRunner().invoke(main, args)
    assert summed.exception is None or isinstance(summed.exception, SystemExit)
    assert (summed.exit_code, summed.output) == (folded.exit_code, folded.output)


ZERO_COMPONENT_GAME = {
    "state": [{"label": "a", "re": 1.0, "im": 0.0}, {"label": "b", "re": 0.0, "im": 0.0}],
    "observable": {"name": "X", "eigenvalues": {"a": 1.0, "b": 2.0}},
    "payoff": {"1.0": {"consequence": "win", "utility": 5.0}},
}


@pytest.mark.parametrize(
    "strategy, code", [("born", 0), ("squared", 0), ("egalitarian", 0), ("eigenvalue", 2)]
)
def test_zero_amplitude_component_without_payoff(tmp_path, strategy, code):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(ZERO_COMPONENT_GAME))
    result = CliRunner().invoke(main, ["game", "eval", "--game", str(path), "--strategy", strategy])
    assert result.exit_code == code
    if code == 0:
        assert json.loads(result.output)["value"] == 5.0
    else:
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: care 0.6666666666666666 on outcome 2.0, which has no payoff"]


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "-0.5"])
@pytest.mark.parametrize("strategy", ["born", "eigenvalue"])
def test_general_stage_rejects_a_tolerance_no_residual_can_be_judged_by(tolerance, strategy):
    result = CliRunner().invoke(
        main, ["dw", "verify", "--stage", "general", "--tolerance", tolerance, "--strategy", strategy]
    )
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "tolerance must be finite and nonnegative" in errors[0]
    assert "residual" not in result.output


def test_general_stage_accepts_a_zero_tolerance():
    result = CliRunner().invoke(
        main, ["dw", "verify", "--stage", "general", "--tolerance", "0", "--max-denominator", "64"]
    )
    assert result.exit_code == 1
    assert result.output.splitlines()[-1].startswith("stage S4to6: inconclusive")
