"""Seed-generated operation streams for the three lab-session workloads.

A workload is an endless sequence of rounds.  Round r of workload w under
seed s is a pure function of (w, s, r): the same seed gives the same
operations and the same input files.  Every op is a README-style CLI call
(the argument list after ``branchlab``) plus the facts its oracle needs.

Sizes inside a round are stratified: a round holding k ops of one kind draws
one size from each of k equal slices of the size distribution, and the
round's ops are shuffled.  Where inside its slice a size falls moves from
round to round along a golden-ratio sequence that starts at a phase drawn
from the seed, so a run's rounds cover every slice evenly; choices such as
the strategy take each value in turn at every slice.  A run therefore
carries the same cost profile whatever the seed, which keeps ops/s and the
tail percentile steady across seeds while every input value still comes
from the seed.  Extraction round trips are the exception: their size is
drawn by the program from the op's seed, so they keep the program's own mix
of sizes.

Only the standard library is imported here, so generating inputs adds no
import cost beyond what ``branchlab.cli`` itself pays.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("ladder", "extract", "confirm")

# Per-round op counts by kind, in the order they are generated.
LADDER_MIX = {"stage3_born": 10, "stage3_egalitarian": 10, "general": 8, "stage2": 6}
EXTRACT_PER_ROUND = 20
CONFIRM_MIX = {"confirm_class": 8, "confirm_cycle": 6, "dutchbook": 8, "egal": 8, "extract": 1}

LADDER_MAX_N = 2 ** 13
LADDER_MAX_CAP = 2 ** 13

GOLDEN = (math.sqrt(5) - 1) / 2


class RoundRandom(random.Random):
    """The random source of round ``index`` of a (workload, seed) stream."""

    def __init__(self, stream: str, index: int) -> None:
        super().__init__(f"{stream}:{index}")
        self.stream, self.index = stream, index

    def strata(self, kind: str, k: int) -> list[float]:
        """k uniforms in [0, 1), the i-th from slice [i/k, (i+1)/k).

        The offset inside the slices is phase + index * GOLDEN (mod 1), with
        the phase drawn once per kind from the stream.
        """
        phase = random.Random(f"{self.stream}:{kind}").random()
        offset = (phase + self.index * GOLDEN) % 1.0
        return [(i + offset) / k for i in range(k)]

    def cycle(self, i: int, choices: tuple):
        """The choice for slice i: each slice takes every choice in turn over rounds."""
        return choices[(i + self.index) % len(choices)]


def log_uniform(u: float, lo: int, hi: int) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def distinct_utilities(rng: random.Random) -> tuple[int, int]:
    u1 = rng.randint(-50, 50)
    u2 = rng.randint(-50, 49)
    if u2 >= u1:
        u2 += 1
    return u1, u2


# -- ladder -------------------------------------------------------------------


def stage3_op(strategy: str, m: int, n: int, u1: int, u2: int) -> dict:
    args = ["dw", "verify", "--stage", "3", "--strategy", strategy,
            "--m", str(m), "--n", str(n), "--u1", str(u1), "--u2", str(u2)]
    return {"kind": "stage3", "args": args,
            "spec": {"strategy": strategy, "m": m, "n": n, "u1": u1, "u2": u2}}


def general_op(a1sq: float, cap: int, u1: int, u2: int) -> dict:
    args = ["dw", "verify", "--stage", "general", "--strategy", "born",
            "--a1sq", repr(a1sq), "--max-denominator", str(cap),
            "--u1", str(u1), "--u2", str(u2)]
    return {"kind": "general", "args": args,
            "spec": {"a1sq": a1sq, "cap": cap, "u1": u1, "u2": u2, "tolerance": 1e-4}}


def stage2_op(strategy: str, n: int, seed: int) -> dict:
    args = ["dw", "verify", "--stage", "2", "--strategy", strategy,
            "--n", str(n), "--seed", str(seed)]
    return {"kind": "stage2", "args": args,
            "spec": {"strategy": strategy, "n": n, "seed": seed, "payoff_count": 20}}


def ladder_round(rng: RoundRandom) -> list[dict]:
    ops = []
    for strategy in ("born", "egalitarian"):
        kind = f"stage3_{strategy}"
        for u in rng.strata(kind, LADDER_MIX[kind]):
            n = log_uniform(u, 4, LADDER_MAX_N)
            # Egalitarian care passes stage 3 only at m/n = 1/2; a quarter of
            # its even-n ops sit there so both verdicts occur.
            if strategy == "egalitarian" and n % 2 == 0 and rng.random() < 0.25:
                m = n // 2
            else:
                m = rng.randint(1, n - 1)
            ops.append(stage3_op(strategy, m, n, *distinct_utilities(rng)))
    for u in rng.strata("general", LADDER_MIX["general"]):
        cap = log_uniform(u, 4, LADDER_MAX_CAP)
        a1sq = round(rng.uniform(0.02, 0.98), 6)
        ops.append(general_op(a1sq, cap, *distinct_utilities(rng)))
    for i, u in enumerate(rng.strata("stage2", LADDER_MIX["stage2"])):
        n = 2 + int(u * 63)
        ops.append(stage2_op(rng.cycle(i, ("born", "egalitarian")), n, rng.randrange(10_000)))
    rng.shuffle(ops)
    return ops


# -- extract ------------------------------------------------------------------


def roundtrip_size(seed: int, max_states: int = 4, max_consequences: int = 4) -> tuple[int, int]:
    """(states, consequences) that ``extract --roundtrip-sweep 1 --seed seed`` draws.

    Replays the sweep's generator with the standard library alone: states
    and consequences are drawn, then a random rational (p, u), and the draw
    is repeated until every act has a distinct exact expected utility.
    """
    rng = random.Random(seed)
    while True:
        ns = rng.randrange(2, max_states + 1)
        nc = rng.randrange(2, max_consequences + 1)
        raw = [rng.randrange(1, 60) for _ in range(ns)]
        total = sum(raw)
        p = [Fraction(k, total) for k in raw]
        u = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 7)) for _ in range(nc)]
        eus = {
            sum((p[s] * u[c] for s, c in enumerate(combo)), Fraction(0))
            for combo in itertools.product(range(nc), repeat=ns)
        }
        if len(eus) == nc ** ns:
            return ns, nc


def extract_op(seed: int) -> dict:
    """One round trip; every seed drawn is used, so sizes keep the program's mix."""
    ns, nc = roundtrip_size(seed)
    return {"kind": "extract", "args": ["extract", "--roundtrip-sweep", "1", "--seed", str(seed)],
            "spec": {"seed": seed, "states": ns, "consequences": nc}}


def extract_round(rng: random.Random) -> list[dict]:
    return [extract_op(rng.randrange(2 ** 31)) for _ in range(EXTRACT_PER_ROUND)]


# -- confirm ------------------------------------------------------------------


def rational_in(rng: random.Random, lo: float, hi: float) -> Fraction:
    den = rng.randint(5, 40)
    num = rng.randint(math.ceil(lo * den), math.floor(hi * den))
    return Fraction(num, den)


def game_doc(w1: Fraction, u1: int, u2: int) -> dict:
    """Two-outcome game JSON with weight w1 on eigenvalue 1.0."""
    return {
        "state": [
            {"label": "x1", "re": math.sqrt(w1), "im": 0.0},
            {"label": "x2", "re": math.sqrt(1 - w1), "im": 0.0},
        ],
        "observable": {"name": "X", "eigenvalues": {"x1": 1.0, "x2": 2.0}},
        "payoff": {
            "1.0": {"consequence": "c1", "utility": float(u1)},
            "2.0": {"consequence": "c2", "utility": float(u2)},
        },
    }


def theories_doc(rng: random.Random, k: int) -> dict:
    raw = [rng.randint(1, 9) for _ in range(k)]
    names = [f"t{i}" for i in range(k)]
    priors = {t: str(Fraction(r, sum(raw))) for t, r in zip(names, raw)}
    likelihoods = {}
    for t in names:
        p = rational_in(rng, 0.05, 0.95)
        likelihoods[t] = {"1.0": str(p), "2.0": str(1 - p)}
    return {"priors": priors, "likelihoods": likelihoods}


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def confirm_op(workdir: str, tag: str, rng: random.Random, depth: int,
               realizations: tuple[str, ...], strategy: str, theory_count: int) -> dict:
    theories = theories_doc(rng, theory_count)
    games = [
        {"game": game_doc(rational_in(rng, 0.1, 0.9), *distinct_utilities(rng)), "realization": r}
        for r in realizations
    ]
    theories_path = os.path.join(workdir, f"{tag}_theories.json")
    games_path = os.path.join(workdir, f"{tag}_games.json")
    _write_json(theories_path, theories)
    _write_json(games_path, games)
    args = ["confirm", "run", "--theories", theories_path, "--games", games_path,
            "--strategy", strategy, "--depth", str(depth)]
    return {"kind": "confirm", "args": args,
            "spec": {"theories": theories, "games": games, "strategy": strategy,
                     "depth": depth, "threshold": 0.95}}


def dutchbook_op(cases: int, seed: int) -> dict:
    return {"kind": "dutchbook", "args": ["dutchbook", "--sweep", str(cases), "--seed", str(seed)],
            "spec": {"cases": cases}}


def egal_op(fine_dim: int, factor: int, seed: int) -> dict:
    args = ["egal", "demo", "--fine-dim", str(fine_dim), "--coarse-factor", str(factor),
            "--seed", str(seed)]
    return {"kind": "egal", "args": args,
            "spec": {"fine_dim": fine_dim, "factor": factor, "seed": seed}}


def confirm_round(rng: RoundRandom, workdir: str) -> list[dict]:
    ops = []
    # Strategy and theory count (2 or 3; cost grows with it) cycle per slice.
    setups = tuple(itertools.product((2, 3), ("born", "egalitarian")))
    for i, u in enumerate(rng.strata("confirm_class", CONFIRM_MIX["confirm_class"])):
        theory_count, strategy = rng.cycle(i, setups)
        ops.append(confirm_op(workdir, f"r{rng.index}_class{i}", rng, 20 + int(u * 101),
                              ("direct",), strategy, theory_count))
    for i, u in enumerate(rng.strata("confirm_cycle", CONFIRM_MIX["confirm_cycle"])):
        theory_count, strategy = rng.cycle(i, setups)
        ops.append(confirm_op(workdir, f"r{rng.index}_cycle{i}", rng, 4 + int(u * 8),
                              ("direct", "ancilla:1,3"), strategy, theory_count))
    for u in rng.strata("dutchbook", CONFIRM_MIX["dutchbook"]):
        ops.append(dutchbook_op(20 + int(u * 181), rng.randrange(1_000_000)))
    for i, u in enumerate(rng.strata("egal", CONFIRM_MIX["egal"])):
        factor = rng.cycle(i, (1, 2, 4))
        fine_dim = max(8, 4 * (log_uniform(u, 8, 4096) // 4))
        ops.append(egal_op(fine_dim, factor, rng.randrange(1_000_000)))
    ops.extend(extract_op(rng.randrange(2 ** 31)) for _ in range(CONFIRM_MIX["extract"]))
    rng.shuffle(ops)
    return ops


def make_round(workload: str, seed: int, round_index: int, workdir: str) -> list[dict]:
    """Round ``round_index`` of a workload; confirm input files go to workdir."""
    rng = RoundRandom(f"{workload}:{seed}", round_index)
    if workload == "ladder":
        return ladder_round(rng)
    if workload == "extract":
        return extract_round(rng)
    if workload == "confirm":
        return confirm_round(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
