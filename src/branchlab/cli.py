"""Command-line front end.

One binary, subcommand style.  Every run is a pure function of its arguments
and input files: fixed seeds drive all sweeps, and output bytes are stable
across runs.  Every subcommand prints its report through reporting.emit in
the --format asked for (json by default; csv for confirm run and for
extract's round-trip sweep), to stdout or to the --out file, then its
summary line if it has one.  confirm run streams its trajectory as it is
computed; every other report is rendered whole and written by _report.
Exit codes: 0 on success or a passing check, 1 on a failed check, 2 on
usage or validation errors.  Bad input has one exit: each file kind's loader
raises ValueError for a malformed document, and _Command.invoke turns any
ValueError into exit 2 with one Error: line.  extract's AxiomError is a
verdict (exit 1); any other exception is a bug and stays a traceback.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NoReturn

import click
from click.core import ParameterSource

from .confirmation import (
    CredenceState,
    Deviant,
    build_dutch_book,
    case_tree,
    confirmation_experiment,
    credences_from_json_dict,
    evaluate_book_on_branches,
)
from .exact import exact_number
from .games import (
    born_weights,
    game_from_json_dict,
    games_from_json_list,
    parse_realization,
    realization_label,
    relabel_game,
)
from .branching import RotationConfig
from .reporting import emit, fmt_float
from .strategies import Egalitarian, parse_strategy, value_game
from .verifier import (
    DEMO_SEED,
    StageReport,
    default_demo_game,
    egalitarian_incoherence_demo,
    verify_stage1,
    verify_stage2,
    verify_stage2_sweep,
    verify_stage3,
    verify_stage3_sweep,
    verify_stage_general,
)

GENERAL_TARGETS = (1 / math.sqrt(2), math.pi / 4, math.e / 3)

# Stages 1 and 2 draw --payoff-count random utilities per branch for each n.  On a 2-vCPU host
# the caps took 6.6 s (stage 1) and, at 20 payoffs, 8.8 s (stage 2 --n) and 6.4 s (--max-n).
STAGE1_MAX_PAYOFF_COUNT = 200_000
STAGE2_MAX_N = 50_000
STAGE2_MAX_SWEEP_N = 256

# The flags each dw verify stage reads beside --stage, --strategy, --format and --out.
_STAGE_READS = {
    "1": {"seed", "payoff_count"},
    "2": {"seed", "payoff_count", "n_", "max_n"},
    "3": {"m_", "n_", "max_n", "u1", "u2"},
    "general": {"u1", "u2", "a1sq", "tolerance", "max_denominator"},
    "egal-demo": {"fine_dim", "epsilon", "tau", "demo_seed"},
}


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    base = os.environ.get("BRANCHLAB_OUT")
    return os.path.join(base, path) if base else path


def _echo(message: str, nl: bool = True) -> None:
    # An explicit file keeps click from caching the current sys.stdout, which
    # would hold every stream redirected around an in-process main() alive.
    click.echo(message, nl=nl, file=sys.stdout)


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[Callable[[str], object]]:
    """A writer of text to stdout, or to the --out file, reported once written."""
    target = _resolve_out(out)
    if target is None:
        yield lambda text: _echo(text, nl=False)
        return
    with open(target, "w", encoding="utf-8", newline="") as fh:
        yield fh.write
    _echo(f"wrote {target}")


def _report(report, fmt: str, out: str | None, summary: str | None = None, code: int = 0) -> NoReturn:
    """Print a report in fmt to stdout or the --out file, then the summary line, and exit."""
    data = emit(report, fmt)
    with _output(out) as write:
        write(data.decode())
    if summary is not None:
        _echo(summary)
    raise SystemExit(code)


def _load_json(path: str):
    """The JSON document at path, read as UTF-8 whatever the locale (RFC 8259)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _refuse_unread(mode: str, unread: Iterable[str]) -> None:
    """Refuse each of the unread parameters that the command line gives: mode never reads them."""
    ctx = click.get_current_context()
    given = [
        param.opts[0] for param in ctx.command.params
        if param.name in unread and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE
    ]
    if given:
        raise click.UsageError(f"{mode} does not read {', '.join(given)}")


def _regraining_demo(
    fine_dim: int, epsilon: float, tau: float, seed: int, coarse_factor: int | None = None
) -> StageReport:
    """The demo game's regraining report: one rotation, then the optional coarse-grain."""
    schedule: list = [RotationConfig(epsilon=epsilon, pair_schedule=None, seed=seed)]
    if coarse_factor is not None:
        schedule.append(coarse_factor)
    return egalitarian_incoherence_demo(default_demo_game(), schedule=tuple(schedule), fine_dim=fine_dim, grain=tau)


class _Command(click.Command):
    """A command whose ValueError is a usage error: exit 2 and one Error: line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Groups too


@click.group(cls=_Group)
def main() -> None:
    """Branching-measurement decision lab."""


# -- game -----------------------------------------------------------------------


@main.group()
def game() -> None:
    """Operations on single games."""


@game.command("eval")
@click.option("--game", "game_path", required=True, type=click.Path(), help="Game JSON file.")
@click.option("--strategy", "strategy_spec", default="born", show_default=True)
@click.option("--realization", "realization_spec", default="direct", show_default=True)
@click.option(
    "--relabel-check",
    is_flag=True,
    help="Re-evaluate under renamed labels and renumbered eigenvalues; fail on a value change.",
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="json")
@click.option("--out", default=None)
def game_eval(game_path, strategy_spec, realization_spec, relabel_check, fmt, out) -> None:
    """Value a game under a strategy and realization."""
    g = game_from_json_dict(_load_json(game_path))
    realization = parse_realization(realization_spec)
    strategy = parse_strategy(strategy_spec)
    value = value_game(strategy, g, realization)
    report = {
        "strategy": strategy_spec,
        "realization": realization_label(realization),
        "value": value,
        "born_weights": {repr(x): w for x, w in sorted(born_weights(g).items())},
    }
    exit_code = 0
    if relabel_check:
        label_map = {l: f"{l}_renamed" for l in g.state.basis_labels}
        eigenvalue_map = {x: 2.0 * x + 3.0 for x in g.observable.eigenvalues.values()}
        twin = relabel_game(g, label_map, eigenvalue_map)
        twin_value = value_game(strategy, twin, realization)
        gap = abs(value - twin_value)
        report["relabeled_value"] = twin_value
        report["relabel_gap"] = gap
        report["physicality_ok"] = gap <= 1e-12
        if gap > 1e-12:
            exit_code = 1
    _report(report, fmt, out, code=exit_code)


# -- dw verify ------------------------------------------------------------------


@main.group()
def dw() -> None:
    """Staged value-consistency checks."""


@dw.command("verify")
@click.option("--stage", required=True, type=click.Choice(["1", "2", "3", "general", "egal-demo"]))
@click.option(
    "--strategy", "strategy_spec", default=None, show_default="born",
    help="The egal-demo stage measures egalitarian care and takes no other.",
)
@click.option("--m", "m_", type=int, default=None, help="Stage 3: weight numerator.")
@click.option(
    "--n", "n_", type=int, default=None,
    help=f"Stage 2 branch count (at most {STAGE2_MAX_N} at 20 payoffs) / stage 3 denominator.",
)
@click.option(
    "--max-n", type=int, default=None,
    help=f"Sweep bound when --m/--n are omitted (stage 2: at most {STAGE2_MAX_SWEEP_N} at 20 payoffs).",
)
@click.option("--payoff-count", type=int, default=None, help="Random payoffs per branch: 100 at stage 1, 20 at stage 2.")
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--u1", type=float, default=10.0, show_default=True)
@click.option("--u2", type=float, default=0.0, show_default=True)
@click.option("--a1sq", type=float, multiple=True, help="Stage general: squared first weight(s).")
@click.option("--tolerance", type=float, default=1e-4, show_default=True)
@click.option("--max-denominator", type=int, default=4096, show_default=True)
@click.option("--fine-dim", type=int, default=8, show_default=True)
@click.option("--epsilon", type=float, default=1e-3, show_default=True)
@click.option("--tau", type=float, default=1e-9, show_default=True)
@click.option("--demo-seed", type=int, default=DEMO_SEED, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="json")
@click.option("--out", default=None)
def dw_verify(
    stage, strategy_spec, m_, n_, max_n, payoff_count, seed, u1, u2,
    a1sq, tolerance, max_denominator, fine_dim, epsilon, tau, demo_seed, fmt, out,
) -> None:
    """Run one stage (or its full sweep) and report pass/fail."""
    _refuse_unread(f"--stage {stage}", set().union(*_STAGE_READS.values()) - _STAGE_READS[stage])
    strategy = parse_strategy(strategy_spec or "born")
    if stage == "egal-demo" and strategy_spec is not None and not isinstance(strategy, Egalitarian):
        raise click.UsageError(
            f"--stage egal-demo measures egalitarian care against Born; --strategy {strategy_spec} is not egalitarian"
        )
    if stage == "3" and (m_ is None) != (n_ is None):
        raise click.UsageError("stage 3 takes --m and --n together, or neither for the sweep")
    for name, value in (("--u1", u1), ("--u2", u2)):
        if not math.isfinite(value):
            raise click.UsageError(f"{name} must be finite, got {value!r}")
    payoffs = ((Fraction(u1), Fraction(u2)),)
    count = (100 if stage == "1" else 20) if payoff_count is None else payoff_count
    max_n = (64 if stage == "2" else 32) if max_n is None else max_n
    if stage == "1":
        if count > STAGE1_MAX_PAYOFF_COUNT:
            raise click.UsageError(f"stage 1 takes --payoff-count up to {STAGE1_MAX_PAYOFF_COUNT}, got {count}")
        report = verify_stage1(strategy, payoff_count=count, seed=seed)
    elif stage == "2":
        name, size, cap = ("--n", n_, STAGE2_MAX_N) if n_ is not None else ("--max-n", max_n, STAGE2_MAX_SWEEP_N)
        limit = cap * 20 // max(count, 20)  # fewer payoffs than 20 do not raise the cap
        if size > limit:
            raise click.UsageError(f"stage 2 takes {name} up to {limit} at --payoff-count {count}, got {size}")
        if n_ is not None:
            report = verify_stage2(strategy, n_, payoff_count=count, seed=seed)
        else:
            report = verify_stage2_sweep(strategy, max_n=size, payoff_count=count, seed=seed)
    elif stage == "3":
        if m_ is not None:
            report = verify_stage3(strategy, m_, n_, payoffs=payoffs)
        else:
            report = verify_stage3_sweep(strategy, max_n=max_n, payoffs=payoffs)
    elif stage == "general":
        report = StageReport.merge([
            verify_stage_general(
                strategy, t, tolerance, payoff=payoffs[0], max_denominator=max_denominator,
            )
            for t in a1sq or GENERAL_TARGETS
        ])
    else:
        report = _regraining_demo(fine_dim, epsilon, tau, demo_seed)
    summary = f"stage {report.stage}: {report.verdict} (residual {fmt_float(report.residual)})"
    _report(report, fmt, out, summary, 0 if report.passed else 1)


# -- egal demo ------------------------------------------------------------------


@main.group()
def egal() -> None:
    """Count-based care demonstrations."""


@egal.command("demo")
@click.option("--fine-dim", type=int, default=8, show_default=True)
@click.option("--epsilon", type=float, default=1e-3, show_default=True)
@click.option("--tau", type=float, default=1e-9, show_default=True)
@click.option("--seed", type=int, default=DEMO_SEED, show_default=True)
@click.option("--coarse-factor", type=int, default=None, help="Optional coarse-grain step after the rotation.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="json")
@click.option("--out", default=None)
def egal_demo(fine_dim, epsilon, tau, seed, coarse_factor, fmt, out) -> None:
    """Rotate the fine-grained basis and watch count-based value drift."""
    report = _regraining_demo(fine_dim, epsilon, tau, seed, coarse_factor)
    _report(report, fmt, out, f"egalitarian demo: {report.verdict}", 0 if report.passed else 1)


# -- dutchbook ------------------------------------------------------------------


def _credences_for(pa: Fraction, pta: Fraction) -> CredenceState:
    # Any credence state with p(A) = pa and p(T|A) = pta does; this one sets
    # p(T) = pta with evidence-independent likelihoods.
    return CredenceState(
        priors={"T": pta, "notT": 1 - pta},
        likelihoods={"T": {"A": pa, "notA": 1 - pa}, "notT": {"A": pa, "notA": 1 - pa}},
    )


@main.command()
@click.option("--pa", default="0.5", show_default=True, help="Prior probability of the evidence.")
@click.option("--pta", default="0.8", show_default=True, help="Conditional credence p(T|A).")
@click.option("--q", default="0.6", show_default=True, help="Announced posterior.")
@click.option("--stake", default="1", show_default=True)
@click.option(
    "--sweep", type=click.IntRange(min=1), default=None,
    help="Check N random deviant cases instead; takes none of --pa, --pta, --q, --stake.",
)
@click.option("--seed", type=int, default=0, show_default=True, help="--sweep only.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="json")
@click.option("--out", default=None)
def dutchbook(pa, pta, q, stake, sweep, seed, fmt, out) -> None:
    """Build the three-bet book against a deviant updater and settle it."""
    if sweep is not None:
        _refuse_unread("--sweep", ("pa", "pta", "q", "stake"))
        rng = random.Random(seed)
        worst = 0.0
        for _ in range(sweep):
            r = rng.uniform(0.01, 0.99)
            p = rng.uniform(0.01, 0.99)
            while True:
                q_val = rng.uniform(0.0, 1.0)
                if abs(q_val - p) >= 0.01:
                    break
            cred = _credences_for(Fraction(r), Fraction(p))
            book = build_dutch_book(cred, Deviant({("T", "A"): q_val}), "A", "T")
            tree, assignment = case_tree(book.p_evidence, book.p_conditional)
            nets = evaluate_book_on_branches(book, tree, assignment)
            for net in nets.values():
                worst = max(worst, abs(float(net) - float(book.guaranteed_net)))
        ok = worst <= 1e-12
        _report({"cases": sweep, "max_deviation": worst, "ok": ok}, fmt, out, code=0 if ok else 1)

    _refuse_unread("dutchbook without --sweep", ("seed",))
    pa, pta, q, stake = (
        exact_number(text, name) for text, name in ((pa, "--pa"), (pta, "--pta"), (q, "--q"), (stake, "--stake"))
    )
    book = build_dutch_book(_credences_for(pa, pta), Deviant({("T", "A"): q}), "A", "T", stake=stake)
    if book is None:
        _report({"book": None, "reason": "announced posterior matches the conditional credence"}, fmt, out)
    tree, assignment = case_tree(book.p_evidence, book.p_conditional)
    nets = evaluate_book_on_branches(book, tree, assignment)
    case_names = ["no-evidence", "evidence-and-theory", "evidence-not-theory"]
    report = {
        "p_evidence": float(book.p_evidence),
        "p_conditional": float(book.p_conditional),
        "announced": float(book.announced),
        "stake": float(book.stake),
        "guaranteed_net": float(book.guaranteed_net),
        "bets": [
            {
                "target": b.target,
                "placement": b.placement,
                "quotient": float(b.quotient),
                "stake": float(b.stake),
                "direction": b.direction,
                "conditional": b.conditional,
            }
            for b in book.bets
        ],
        "settlement": {name: float(nets[i]) for i, name in enumerate(case_names)},
    }
    _report(report, fmt, out)


# -- confirm run ------------------------------------------------------------------


@main.group()
def confirm() -> None:
    """Repeated-trial confirmation experiments."""


@confirm.command("run")
@click.option("--theories", "theories_path", required=True, type=click.Path())
@click.option("--games", "games_path", required=True, type=click.Path())
@click.option("--strategy", "strategy_spec", default="born", show_default=True)
@click.option("--depth", type=int, default=20, show_default=True)
@click.option("--threshold", type=float, default=0.95, show_default=True)
@click.option("--true-theory", default=None, help="Theory whose credence mass is summarized.")
@click.option("--require-mass", type=float, default=None, help="Fail unless the final mass exceeds this.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="csv")
@click.option("--out", default=None)
def confirm_run(
    theories_path, games_path, strategy_spec, depth, threshold,
    true_theory, require_mass, fmt, out,
) -> None:
    """Iterate games, conditionalize on every branch, report caring-weighted credences."""
    cred = credences_from_json_dict(_load_json(theories_path))
    games = games_from_json_list(_load_json(games_path))
    strategy = parse_strategy(strategy_spec)
    target = true_theory or cred.theories()[0]
    if target not in cred.priors:
        raise click.UsageError(f"--true-theory {target!r} is not one of {', '.join(cred.theories())}")
    for name, value in (("--threshold", threshold), ("--require-mass", require_mass)):
        if value is not None and not math.isfinite(value):
            raise click.UsageError(f"{name} must be finite, got {value!r}")
    report = confirmation_experiment(cred, games, strategy, trials=depth)
    with _output(out) as write:
        emit(report, fmt, write)
    mass = float(report.final_mass_above(target, threshold))
    _echo(f"final caring mass with credence({target}) > {fmt_float(threshold)}: {fmt_float(mass)}")
    if require_mass is not None and mass <= require_mass:
        raise SystemExit(1)
    raise SystemExit(0)


# -- extract -----------------------------------------------------------------------


@main.command()
@click.option("--prefs", "prefs_path", type=click.Path(), default=None)
@click.option("--roundtrip-sweep", type=int, default=None, help="Run N random round-trip checks instead of reading --prefs.")
@click.option("--seed", type=int, default=0, show_default=True, help="--roundtrip-sweep only.")
@click.option("--max-states", type=int, default=4, show_default=True, help="--roundtrip-sweep only.")
@click.option("--max-consequences", type=int, default=4, show_default=True, help="--roundtrip-sweep only.")
@click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "table"]), default=None,
    help="Default: csv for --roundtrip-sweep, json for --prefs.",
)
@click.option("--out", default=None)
def extract(prefs_path, roundtrip_sweep, seed, max_states, max_consequences, fmt, out) -> None:
    """Extract a probability and utility from a preference file."""
    # Imported here: decision loads numpy, which no other subcommand needs.
    from .decision import (
        AxiomError,
        Infeasible,
        extract_representation,
        preferences_from_json_dict,
        representation_roundtrip_sweep,
        representation_to_json_dict,
    )

    if roundtrip_sweep is not None:
        _refuse_unread("--roundtrip-sweep", ("prefs_path",))
        results = representation_roundtrip_sweep(
            roundtrip_sweep, seed=seed, max_states=max_states, max_consequences=max_consequences
        )
        summary = f"round trips: {sum(r['ok'] for r in results)}/{len(results)} reproduced"
        _report(results, fmt or "csv", out, summary, 0 if all(r["ok"] for r in results) else 1)
    if prefs_path is None:
        raise click.UsageError("provide --prefs or --roundtrip-sweep")
    _refuse_unread("--prefs", ("seed", "max_states", "max_consequences"))
    fmt = fmt or "json"
    prefs = preferences_from_json_dict(_load_json(prefs_path))
    try:
        result = extract_representation(prefs)
    except AxiomError as exc:
        _report({"error": "axiom violation", "detail": str(exc)}, fmt, out, code=1)
    if isinstance(result, Infeasible):
        witness = [result.witness[0].mapping(), result.witness[1].mapping()]
        _report({"infeasible": True, "witness": witness, "detail": result.detail}, fmt, out, code=1)
    _report(representation_to_json_dict(result), fmt, out)


if __name__ == "__main__":
    main()
