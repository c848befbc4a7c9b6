"""Staged consistency checks for caring strategies.

The checks walk the ladder that pins game values to squared amplitudes:
equal two-branch superpositions (stage 1), equal n-branch superpositions
(stage 2), rational-weight games realized through an equalizing ancilla
coupling (stage 3), and rational approximation of irrational weights
(stages 4 to 6).  Stage 3 is checked constructively: the ancilla tree is
verified to consist of equal branches, valued through the grouping, and only
then compared against the weighted-average prescription.  A separate
demonstration shows why count-based care cannot survive regraining.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .branching import (
    BranchTree,
    RotationConfig,
    branch,
    coarse_grain,
    count_branches,
    outcome_weights,
    rotate_basis,
)
from .exact import Number, _exact_sum
from .games import (
    AncillaCoupled,
    Direct,
    QuantumGame,
    born_weights,
    equal_game,
    weighted_game,
)
from .strategies import (
    Born,
    Egalitarian,
    Strategy,
    _exact_payoff,
    _exact_utility,
    _price,
    _value_game_exact,
    caring_measure,
)


STAGE_TOL = 1e-12

# Seed for the default regression rotation; chosen (and frozen) so that the
# per-leaf schedules leave the two outcomes with different occupied counts.
DEMO_SEED = 5


@dataclass(frozen=True)
class StageReport:
    stage: str
    passed: bool
    residual: float
    details: str = ""
    cases: tuple[dict, ...] = ()
    inconclusive: bool = False

    @classmethod
    def merge(cls, reports: Sequence["StageReport"], details: str | None = None) -> "StageReport":
        """One report over several runs of the same stage.

        It passes only if every run passes, is inconclusive if some run is
        and none failed outright (a failed run fails the whole), keeps the
        worst residual and every case in order, and joins the runs' details
        with " ; " unless details are given.
        """
        return cls(
            stage=reports[0].stage,
            passed=all(r.passed for r in reports),
            residual=max(r.residual for r in reports),
            details=" ; ".join(r.details for r in reports) if details is None else details,
            cases=tuple(case for r in reports for case in r.cases),
            inconclusive=(
                any(r.inconclusive for r in reports) and all(r.passed or r.inconclusive for r in reports)
            ),
        )

    @property
    def verdict(self) -> str:
        if self.inconclusive:
            return "inconclusive"
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "pass": self.passed,
            "residual": float(self.residual),
            "inconclusive": self.inconclusive,
            "details": self.details,
            "cases": list(self.cases),
        }


def random_rational_payoffs(count: int, size: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Deterministic sweep of rational utility tuples."""
    rng = random.Random(seed)
    sweep = []
    for _ in range(count):
        sweep.append(
            tuple(Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)) for _ in range(size))
        )
    return sweep


def _outcomes(game: QuantumGame) -> tuple[float, ...]:
    """The game's outcomes in basis-label order, the order builders list utilities in."""
    return tuple(game.observable.eigenvalue(label) for label in game.state.basis_labels)


def _staked(outcomes: tuple[float, ...], us: Sequence[Number]) -> Callable[[float], Number]:
    """Utility by outcome for one payoff listed in outcome order."""
    if len(us) != len(outcomes):
        raise ValueError("one utility per outcome")
    return dict(zip(outcomes, us)).__getitem__


def _check_payoff_count(payoff_count: int) -> None:
    if payoff_count < 1:
        raise ValueError(f"payoff count must be at least 1, got {payoff_count}")


def _verify_equal(
    strategy: Strategy,
    n: int,
    payoffs: Sequence[Sequence[Number]],
    stage: str,
    size: str | int,
    case: Callable[[Sequence[Number]], dict],
) -> StageReport:
    """Equal n-branch game: each payoff's value must be its mean utility.

    The care does not depend on the utilities, so the game staking the first
    payoff is branched once for them all.  Each payoff is made exact once;
    case(us) opens its case, and size names n in the details.
    """
    if not payoffs:
        raise ValueError("need at least one payoff")
    game = equal_game(n, payoffs[0])
    care = caring_measure(strategy, branch(game, Direct()))
    outcomes = _outcomes(game)
    worst: Number = Fraction(0)
    cases = []
    for us in payoffs:
        exact = tuple(map(_exact_utility, us))
        value = _price(care, _staked(outcomes, exact))
        expected = Fraction(_exact_sum(exact), n)
        residual = abs(value - expected)
        worst = max(worst, residual)
        cases.append(
            {
                **case(us),
                "value": float(value),
                "expected": float(expected),
                "residual": float(residual),
            }
        )
    return StageReport(
        stage=stage,
        passed=float(worst) <= STAGE_TOL,
        residual=float(worst),
        details=f"equal {size}-branch sweep over {len(cases)} payoffs",
        cases=tuple(cases),
    )


def verify_stage1(
    strategy: Strategy,
    payoffs: Sequence[Sequence[Number]] | None = None,
    payoff_count: int = 100,
    seed: int = 7,
) -> StageReport:
    """Equal two-branch game: value must be the average of the two utilities.

    This is stage 2 at n = 2.  Without explicit payoffs, two pinned cases
    precede payoff_count random ones; a count below 1, an empty payoff list
    or a payoff without exactly two utilities raises ValueError.
    """
    if payoffs is None:
        _check_payoff_count(payoff_count)
        payoffs = [(Fraction(0), Fraction(1)), (Fraction(7), Fraction(7))]
        payoffs += random_rational_payoffs(payoff_count, 2, seed)
    return _verify_equal(
        strategy, 2, payoffs, "S1", "two", lambda us: {"u1": float(us[0]), "u2": float(us[1])}
    )


def verify_stage2(
    strategy: Strategy,
    n: int,
    payoffs: Sequence[Sequence[Number]] | None = None,
    payoff_count: int = 20,
    seed: int = 11,
) -> StageReport:
    """Equal n-branch game: value must be the mean utility.

    The equal n-branch game is built, validated and branched once, and the
    strategy's care taken once, whatever the number of payoffs; each payoff
    is then priced against that care in exact arithmetic.  A count below 1,
    an empty payoff list or a payoff without exactly n utilities raises
    ValueError.
    """
    if n < 2:
        raise ValueError("stage 2 needs n >= 2")
    if payoffs is None:
        _check_payoff_count(payoff_count)
        payoffs = random_rational_payoffs(payoff_count, n, seed + n)
    return _verify_equal(
        strategy, n, payoffs, "S2", n, lambda us: {"n": n, "utilities": [float(u) for u in us]}
    )


def verify_stage3(
    strategy: Strategy,
    m: int,
    n: int,
    payoffs: Sequence[Sequence[Number]] = ((10, 0),),
) -> StageReport:
    """Rational-weight game sqrt(m/n), sqrt((n-m)/n) through the equalizing coupling.

    The ancilla tree (two run-length leaves standing for m and n - m
    sub-branches) is built once and checked to be an equal n-branch split;
    the direct tree is built once too, and the strategy's care over each is
    taken once.  Each payoff is then priced through the grouping and compared
    against the weighted average (m*u1 + (n-m)*u2)/n.  The report's residual
    also folds in the gap between the ancilla-realized and direct values, so
    a realization-sensitive strategy fails here even when its ancilla value
    matches.  An empty payoff list or a payoff without exactly two utilities
    raises ValueError.
    """
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if not payoffs:
        raise ValueError("need at least one payoff")
    game = weighted_game((Fraction(m, n), Fraction(n - m, n)), payoffs[0])
    tree = branch(game, AncillaCoupled(m, n))
    equal_share = Fraction(1, n)
    if any(leaf.weight != equal_share for leaf in tree.leaves):
        raise AssertionError("ancilla coupling failed to produce equal branches")
    ancilla_care = caring_measure(strategy, tree)
    direct_care = caring_measure(strategy, branch(game, Direct()))
    outcomes = _outcomes(game)
    worst: Number = Fraction(0)
    cases = []
    for us in payoffs:
        exact = tuple(map(_exact_utility, us))
        utility = _staked(outcomes, exact)
        ancilla_value = _price(ancilla_care, utility)
        direct_value = _price(direct_care, utility)
        u1, u2 = exact
        expected = Fraction(m * u1 + (n - m) * u2, n)
        value_residual = abs(ancilla_value - expected)
        mn_delta = abs(direct_value - ancilla_value)
        worst = max(worst, value_residual, mn_delta)
        cases.append(
            {
                "m": m,
                "n": n,
                "u1": float(u1),
                "u2": float(u2),
                "direct_value": float(direct_value),
                "ancilla_value": float(ancilla_value),
                "expected": float(expected),
                "residual": float(value_residual),
                "mn_delta": float(mn_delta),
            }
        )
    return StageReport(
        stage="S3",
        passed=float(worst) <= STAGE_TOL,
        residual=float(worst),
        details=f"weights {m}/{n} via {n}-level register; residual includes realization gap",
        cases=tuple(cases),
    )


def verify_stage_general(
    strategy: Strategy,
    a1_squared: float,
    tolerance: float,
    payoff: Sequence[Number] = (1, 0),
    max_denominator: int = 4096,
) -> StageReport:
    """Irrational first-branch weight, approached through rational approximants.

    Best rational approximations m/n with growing denominator caps are run
    through the stage-3 construction; the ancilla values must approach
    a1_squared*u1 + (1 - a1_squared)*u2, with residuals non-increasing in the
    cap.  Exhausting the cap before reaching the tolerance is reported as
    inconclusive, which is distinct from failure.  As in stage 3, the gap
    between an approximant's direct and ancilla values (its mn_delta) is
    folded into the residual: a gap above STAGE_TOL fails the stage whatever
    the cap, since no larger cap closes it.  A tolerance that is negative or
    not finite raises ValueError: no residual could meet the one, and every
    residual would meet the other.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    if not (0.0 < a1_squared < 1.0):
        raise ValueError("a1_squared must lie strictly between 0 and 1")
    if max_denominator < 2:
        raise ValueError(f"max_denominator must be at least 2, got {max_denominator}")
    u1, u2 = payoff
    target = a1_squared * float(u1) + (1.0 - a1_squared) * float(u2)
    caps = []
    cap = 2
    while cap <= max_denominator:
        caps.append(cap)
        cap *= 2
    if caps[-1] != max_denominator:
        caps.append(max_denominator)

    cases = []
    residuals = []
    seen: set[tuple[int, int]] = set()
    for cap in caps:
        approx = Fraction(a1_squared).limit_denominator(cap)
        m, n = approx.numerator, approx.denominator
        if m <= 0 or m >= n:
            continue
        if (m, n) in seen:
            # Same best approximant as the previous cap; the residual repeats.
            residuals.append(residuals[-1])
            cases.append(dict(cases[-1], cap=cap))
            continue
        seen.add((m, n))
        sub = verify_stage3(strategy, m, n, payoffs=((u1, u2),))
        value = sub.cases[0]["ancilla_value"]
        residual = abs(value - target)
        residuals.append(residual)
        cases.append(
            {
                "cap": cap,
                "m": m,
                "n": n,
                "ancilla_value": value,
                "target": target,
                "residual": residual,
                "mn_delta": sub.cases[0]["mn_delta"],
            }
        )
    if not residuals:
        return StageReport(
            stage="S4to6",
            passed=False,
            residual=float("inf"),
            details="no usable rational approximant below the cap",
            cases=(),
            inconclusive=True,
        )
    monotone = all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))
    final = residuals[-1]
    converged = final <= tolerance
    gap = max(case["mn_delta"] for case in cases)
    realized = gap <= STAGE_TOL
    return StageReport(
        stage="S4to6",
        passed=converged and monotone and realized,
        residual=float(max(final, gap)),
        details=(
            f"a1^2={a1_squared!r}, caps up to {max_denominator}, "
            f"monotone={monotone}, tolerance={tolerance!r}"
        ),
        cases=tuple(cases),
        inconclusive=realized and not converged,
    )


def reduce_by_pairwise_coupling(strategy: Strategy, game: QuantumGame) -> tuple[float, list[dict]]:
    """Value a k-outcome rational game by repeated two-way ancilla coupling.

    Outcomes are split off in descending weight order; at each step the
    strategy values a two-outcome subgame under the equalizing coupling, with
    the remainder entering at its recursively computed value.  Returns the
    value and the list of (m, n) couplings used.
    """
    weights = born_weights(game)
    if not all(isinstance(w, Fraction) for w in weights.values()):
        raise ValueError("pairwise reduction needs exact rational branch weights")
    items = sorted(
        ((w, x) for x, w in weights.items() if w > 0),
        key=lambda wx: (-wx[0], wx[1]),
    )
    steps: list[dict] = []

    def recurse(parts: list[tuple[Fraction, float]]) -> Number:
        if len(parts) == 1:
            return game.payoff.utility(parts[0][1])
        total = _exact_sum([w for w, _ in parts])
        w1, x1 = parts[0]
        share = w1 / total
        m, n = share.numerator, share.denominator
        steps.append({"m": m, "n": n, "head_outcome": x1})
        rest_value = recurse(parts[1:])
        sub = weighted_game(
            (share, 1 - share),
            (game.payoff.utility(x1), rest_value),
            eigenvalues=(1.0, 2.0),
        )
        return _value_game_exact(strategy, sub, AncillaCoupled(m, n))

    value = recurse(items)
    return float(value), steps


ScheduleStep = Union[RotationConfig, int]


def egalitarian_incoherence_demo(
    game: QuantumGame,
    schedule: Sequence[ScheduleStep] | None = None,
    fine_dim: int = 8,
    grain: float = 1e-9,
) -> StageReport:
    """Show count-based care moving while weight-based care stands still.

    Runs the schedule of rotations (RotationConfig) and coarse-grainings
    (int factors) over the game's direct branch tree, recording per-outcome
    weights, occupied-cell counts and both strategies' values after each
    step.  Passes when the weights are conserved within 1e-9 while the
    count-based value moves by more than 1e-3 and the weight-based value by
    less than 1e-12.
    """
    if schedule is None:
        schedule = (RotationConfig(epsilon=1e-3, pair_schedule=None, seed=DEMO_SEED),)
    egal = Egalitarian(tau=grain)
    born = Born()
    tree = branch(game, Direct(), fine_dim=fine_dim, grain=grain)
    utility = _exact_payoff(game.payoff)

    def snapshot(step: int, operation: str, t: BranchTree) -> dict:
        weights = outcome_weights(t)
        return {
            "step": step,
            "operation": operation,
            "counts": {repr(float(x)): count_branches(t, x) for x in sorted(weights)},
            "outcome_weights": {repr(float(x)): float(w) for x, w in sorted(weights.items())},
            "egalitarian_value": float(_price(caring_measure(egal, t), utility)),
            "born_value": float(_price(caring_measure(born, t), utility)),
        }

    cases = [snapshot(0, "initial", tree)]
    base_weights = outcome_weights(tree)
    weight_drift = 0.0
    for idx, step in enumerate(schedule, start=1):
        if isinstance(step, RotationConfig):
            tree = rotate_basis(tree, step)
            op = f"rotate:epsilon={step.epsilon!r},seed={step.seed}"
        elif isinstance(step, int):
            tree = coarse_grain(tree, step)
            op = f"coarse_grain:factor={step}"
        else:
            raise TypeError(f"schedule steps are RotationConfig or int, got {step!r}")
        cases.append(snapshot(idx, op, tree))
        now = outcome_weights(tree)
        for x, w in base_weights.items():
            weight_drift = max(weight_drift, abs(float(now.get(x, 0)) - float(w)))

    egal_values = [c["egalitarian_value"] for c in cases]
    born_values = [c["born_value"] for c in cases]
    egal_move = max(abs(v - egal_values[0]) for v in egal_values)
    born_move = max(abs(v - born_values[0]) for v in born_values)
    counts_changed = any(c["counts"] != cases[0]["counts"] for c in cases[1:])
    passed = weight_drift <= 1e-9 and egal_move > 1e-3 and born_move < 1e-12
    return StageReport(
        stage="EgalitarianDemo",
        passed=passed,
        residual=float(max(weight_drift, born_move)),
        details=(
            f"egalitarian moved {egal_move!r}, weight-based moved {born_move!r}, "
            f"weight drift {weight_drift!r}, counts_changed={counts_changed}"
        ),
        cases=tuple(cases),
    )


def default_demo_game() -> QuantumGame:
    """The 1/3 vs 2/3 game paying 10 on the light branch, 0 on the heavy one."""
    return weighted_game((Fraction(1, 3), Fraction(2, 3)), (10, 0))


def verify_stage2_sweep(
    strategy: Strategy, max_n: int = 64, payoff_count: int = 20, seed: int = 11
) -> StageReport:
    """Stage 2 across every branch count up to max_n, merged into one report.

    Each branch count's equal game is branched once for all its payoffs; a
    payoff count below 1 raises ValueError.
    """
    if max_n < 2:
        raise ValueError(f"stage 2 sweep needs max_n >= 2, got {max_n}")
    reports = [verify_stage2(strategy, n, payoff_count=payoff_count, seed=seed) for n in range(2, max_n + 1)]
    return StageReport.merge(reports, details=f"n swept from 2 to {max_n}, {payoff_count} payoffs each")


def verify_stage3_sweep(
    strategy: Strategy,
    max_n: int = 32,
    payoffs: Sequence[Sequence[Number]] = ((10, 0),),
) -> StageReport:
    """Stage 3 across all weight ratios m/n with n up to max_n."""
    if max_n < 2:
        raise ValueError(f"stage 3 sweep needs max_n >= 2, got {max_n}")
    reports = [
        verify_stage3(strategy, m, n, payoffs=payoffs)
        for n in range(2, max_n + 1)
        for m in range(1, n)
    ]
    return StageReport.merge(reports, details=f"all 1 <= m < n <= {max_n}")
