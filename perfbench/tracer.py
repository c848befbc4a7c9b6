"""Span tracer for the traced run: wraps every public function of each layer.

The layers are branchlab's modules.  ``install`` wraps each public
module-level function, then rebinds that function's name in *every*
branchlab module that imported it (``branch`` is bound in ``strategies``,
``verifier`` and ``confirmation`` as well as ``branching``), and rebinds
``scipy.optimize.linprog`` too, so a later lazy import is still counted.
It then scans the modules again and refuses to run if any original function
object is still reachable by name, so a layer cannot be silently missed.

Each wrapped call is a span; its self time is its duration minus the time
covered by its child spans.  Construction counters hook ``__post_init__`` of
the value types the ladder builds in bulk.  Spans live in memory only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("exact", "games", "branching", "strategies", "verifier", "decision",
          "confirmation", "reporting", "cli")

# Per-layer metrics, named as BENCHMARK.json names them, with the workloads
# on which each must be nonzero (README.md holds the full table).
_LADDER, _DECISION, _CONFIRM = ("ladder",), ("extract", "confirm"), ("confirm",)
_ALL = ("ladder", "extract", "confirm")
PER_LAYER = {
    "exact.sqrt_rational.built": _LADDER,
    "games.amplitude.built": _LADDER,
    "games.couple_ancilla.calls": _LADDER,
    "games.couple_ancilla.self_s": _LADDER,
    "games.validate_game.calls": _LADDER,
    "games.validate_game.self_s": _LADDER,
    "games.born_weights.self_s": ("ladder", "confirm"),
    "branching.branch.calls": _LADDER,
    "branching.branch.self_s": _LADDER,
    "branching.leaves_built": _LADDER,
    "branching.rotate_basis.self_s": _CONFIRM,
    "branching.coarse_grain.self_s": _CONFIRM,
    "branching.count_branches.self_s": _CONFIRM,
    "strategies.caring_measure.calls": ("ladder", "confirm"),
    "strategies.caring_measure.self_s": ("ladder", "confirm"),
    "verifier.verify_stage2.self_s": _LADDER,
    "verifier.verify_stage3.calls": _LADDER,
    "verifier.verify_stage3.self_s": _LADDER,
    "verifier.verify_stage_general.self_s": _LADDER,
    "verifier.inconclusive": _LADDER,
    "verifier.egalitarian_incoherence_demo.self_s": _CONFIRM,
    "decision.check_axioms.calls": _DECISION,
    "decision.check_axioms.self_s": _DECISION,
    "decision.all_acts.self_s": _DECISION,
    "decision.generate_preferences.self_s": _DECISION,
    "decision.orderings_match.self_s": _DECISION,
    "decision.extract_representation.calls": _DECISION,
    "decision.extract_representation.self_s": _DECISION,
    "decision.lp.calls": _DECISION,
    "decision.lp.self_s": _DECISION,
    "decision.lp_per_extraction": _DECISION,
    "decision.extract.success_ratio": _DECISION,
    "confirmation.confirmation_experiment.calls": _CONFIRM,
    "confirmation.confirmation_experiment.self_s": _CONFIRM,
    "confirmation.rows_emitted": _CONFIRM,
    "confirmation.conditionalize.calls": _CONFIRM,
    "confirmation.conditionalize.self_s": _CONFIRM,
    "confirmation.build_dutch_book.self_s": _CONFIRM,
    "confirmation.case_tree.self_s": _CONFIRM,
    "confirmation.evaluate_book_on_branches.self_s": _CONFIRM,
    "reporting.emit.calls": ("ladder", "confirm"),
    "reporting.emit.self_s": ("ladder", "confirm"),
    "reporting.bytes_out": ("ladder", "confirm"),
    "cli.import_s": _ALL,
    "cli.dispatch.self_s": _ALL,
}

BUILT = (
    ("exact", "SqrtRational", "exact.sqrt_rational.built"),
    ("games", "Amplitude", "games.amplitude.built"),
    ("branching", "BranchLeaf", "branching.leaves_built"),
)


class Tracer:
    """Per-span call counts, total and self times, plus named counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._child_time = [0.0]
        self._layer = ["bench"]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn, layer: str, after=None):
        """fn wrapped in a span; after(result, caller_layer) runs on return."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        child_time, layers, clock = self._child_time, self._layer, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_time.append(0.0)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                layers.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                child_time[-1] += elapsed
            if after is not None:
                after(result, layers[-1])
            return result

        return span

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- install / uninstall ---------------------------------------------------

    def _after_hooks(self) -> tuple[dict, dict]:
        """Counters fed from return values: per span name, and per layer."""

        def inconclusive(result, caller):
            # Verdicts that leave the verifier, not sub-reports inside it.
            if caller != "verifier" and getattr(result, "inconclusive", False):
                self.count("verifier.inconclusive")

        def representation(result, caller):
            if type(result).__name__ == "Representation":
                self.count("decision.extract.representations")

        def rows(result, caller):
            self.count("confirmation.rows_emitted", len(result.rows))

        def bytes_out(result, caller):
            if caller != "reporting" and isinstance(result, (str, bytes)):
                self.count("reporting.bytes_out",
                           len(result.encode() if isinstance(result, str) else result))

        by_span = {"decision.extract_representation": representation,
                   "confirmation.confirmation_experiment": rows}
        by_layer = {"verifier": inconclusive, "reporting": bytes_out}
        return by_span, by_layer

    def install(self) -> None:
        import scipy.optimize

        by_span, by_layer = self._after_hooks()
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, span)
        for layer in LAYERS:
            module = importlib.import_module(f"branchlab.{layer}")
            for name, obj in vars(module).items():
                if _is_public_function(obj, module):
                    key = f"{layer}.{name}"
                    after = by_span.get(key, by_layer.get(layer))
                    wrapped[id(obj)] = (obj, self.wrap(key, obj, layer, after))
        linprog = scipy.optimize.linprog
        wrapped[id(linprog)] = (linprog, self.wrap("decision.lp", linprog, "decision"))

        for module in _branchlab_modules() + [scipy.optimize]:
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, name, obj))
                    setattr(module, name, hit[1])

        for module_name, class_name, key in BUILT:
            cls = getattr(importlib.import_module(f"branchlab.{module_name}"), class_name)
            original = cls.__dict__["__post_init__"]

            def post_init(obj, _original=original, _key=key):
                self.count(_key)
                _original(obj)

            self._undo.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", post_init)

        missed = [
            f"{module.__name__}.{name}"
            for module in _branchlab_modules() + [scipy.optimize]
            for name, obj in vars(module).items()
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj
        ]
        if missed:
            self.uninstall()
            raise RuntimeError("tracer left functions unwrapped: " + ", ".join(missed))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def layer_metrics(spans: dict, counts: dict, import_s: float, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric by name; absent spans and counters read 0."""
    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = spans.get(base, [0, 0.0, 0.0])[0]
        elif field == "self_s":
            out[name] = spans.get(base, [0, 0.0, 0.0])[2]
        else:
            out[name] = counts.get(name, 0)
    extractions = spans.get("decision.extract_representation", [0])[0]
    lps = spans.get("decision.lp", [0])[0]
    reps = counts.get("decision.extract.representations", 0)
    out["decision.lp_per_extraction"] = lps / extractions if extractions else 0.0
    out["decision.extract.success_ratio"] = reps / extractions if extractions else 0.0
    out["cli.import_s"] = import_s
    out["trace.overhead_s"] = overhead_s
    return out


def _is_public_function(obj, module) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not obj.__name__.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    )


def _branchlab_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "branchlab" or name.startswith("branchlab."))]


def missing_layers(workload: str, metrics: dict[str, float]) -> list[str]:
    """Per-layer metrics that the workload must drive yet read zero."""
    return [name for name, workloads in PER_LAYER.items()
            if workload in workloads and not metrics.get(name)]
