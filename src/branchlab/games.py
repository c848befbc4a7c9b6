"""Quantum games: finite state vectors, labeled observables, payoffs.

A game stakes consequences on the outcome of a projective measurement.  It is
the triple (state, observable, payoff); how the measurement is physically
carried out is a separate datum, the measurement realization, which can be a
direct measurement or a coupling to an auxiliary register that splits each
outcome into several equal sub-branches.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat, starmap
from typing import Callable, Iterator, Mapping, Sequence, Union

from .exact import Number, SqrtRational, _exact_dot, _exact_sums, malformed

Real = Union[SqrtRational, float]


def _square(x: Real) -> Union[Fraction, float]:
    if isinstance(x, SqrtRational):
        return x.squared
    return x * x


def _check_finite(x: Real) -> None:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"amplitude component must be finite, got {x!r}")


@dataclass(frozen=True)
class Amplitude:
    """A complex coefficient.  Components are exact roots of rationals when
    constructible, plain floats otherwise; squared magnitude is exact in the
    first case."""

    re: Real
    im: Real = field(default_factory=SqrtRational.zero)

    def __post_init__(self) -> None:
        _check_finite(self.re)
        _check_finite(self.im)

    @classmethod
    def sqrt(cls, value: Number) -> "Amplitude":
        """Real amplitude sqrt(value) for a nonnegative rational value."""
        return cls(SqrtRational.sqrt(Fraction(value)))

    @property
    def abs2(self) -> Union[Fraction, float]:
        a = _square(self.re)
        if isinstance(self.im, SqrtRational) and not self.im.sign:
            return a
        b = _square(self.im)
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        return float(a) + float(b)

    def div_sqrt(self, k: Number) -> "Amplitude":
        """Divide by sqrt(k), k a positive rational; exactness is preserved."""
        q = Fraction(k)
        if q <= 0:
            raise ValueError("divisor under the root must be positive")
        root = math.sqrt(q)

        def scale(x: Real) -> Real:
            if isinstance(x, SqrtRational):
                return x.div_sqrt(q)
            return x / root

        return Amplitude(scale(self.re), scale(self.im))


class _SequenceView(Sequence):
    """A read-only sequence computed on demand, equal to the tuple of its items."""

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _SequenceView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def _position(self, i) -> int:
        k = operator.index(i)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"{type(self).__name__} index out of range")
        return k


class _RegisterLabels(_SequenceView):
    """The labels y1..yN of an N-level register, each built when asked for."""

    def __init__(self, size: int) -> None:
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(f"y{k + 1}" for k in range(*i.indices(self.size)))
        return f"y{self._position(i) + 1}"

    def __iter__(self) -> Iterator[str]:
        return (f"y{k}" for k in range(1, self.size + 1))

    def __contains__(self, label) -> bool:
        return self.level(label) is not None

    def level(self, label) -> int | None:
        """i for the label yi of this register, None for anything else."""
        if not (isinstance(label, str) and label.startswith("y")):
            return None
        digits = label[1:]
        if not (digits.isascii() and digits.isdigit()) or digits[0] == "0" or len(digits) > len(str(self.size)):
            return None
        level = int(digits)
        return level if level <= self.size else None


class _AmplitudeRuns(_SequenceView):
    """Amplitudes as runs: each (amplitude, count) stands for count equal slots."""

    def __init__(self, runs: Sequence[tuple[Amplitude, int]]) -> None:
        self.runs = tuple(runs)
        self.size = sum(count for _, count in self.runs)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(self.size)))
        k = self._position(i)
        for amp, count in self.runs:
            if k < count:
                return amp
            k -= count

    def __iter__(self) -> Iterator[Amplitude]:
        return chain.from_iterable(starmap(repeat, self.runs))


class _RegisterMap(Mapping):
    """A value for each label of a register, computed from the label's level."""

    def __init__(self, labels: _RegisterLabels, value: Callable[[int], float]) -> None:
        self.labels = labels
        self.value = value

    def __getitem__(self, label) -> float:
        level = self.labels.level(label)
        if level is None:
            raise KeyError(label)
        return self.value(level)

    def __contains__(self, label) -> bool:
        return label in self.labels

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class PureState:
    """A normalized superposition over distinct outcome labels.

    Labels and amplitudes are tuples, or, for a register state built by
    couple_ancilla, views that compute the same items from one run per
    component.  Distinct labels are checked for a tuple and hold by
    construction for a register view.
    """

    basis_labels: Sequence[str]
    amplitudes: Sequence[Amplitude]

    def __post_init__(self) -> None:
        if len(self.basis_labels) != len(self.amplitudes):
            raise ValueError("one amplitude per basis label")
        labels = self.basis_labels
        if not isinstance(labels, _RegisterLabels) and len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        if not self.basis_labels:
            raise ValueError("state must have at least one component")

    @classmethod
    def from_weights(cls, labels: Sequence[str], weights: Sequence[Number]) -> "PureState":
        """State with amplitude sqrt(w) on each label; exact for rational w."""
        amps = tuple(Amplitude.sqrt(Fraction(w)) for w in weights)
        return cls(tuple(labels), amps)

    @property
    def runs(self) -> tuple[tuple[Amplitude, int], ...]:
        """The amplitudes in label order as (amplitude, count) runs."""
        if isinstance(self.amplitudes, _AmplitudeRuns):
            return self.amplitudes.runs
        return tuple((amp, 1) for amp in self.amplitudes)

    @property
    def norm_squared(self) -> Union[Fraction, float]:
        """Sum of count * |amplitude|^2 over the runs, exact for exact amplitudes."""
        runs = self.runs
        return _exact_dot([amp.abs2 for amp, _ in runs], [count for _, count in runs])


@dataclass(frozen=True)
class Observable:
    """A named assignment of real eigenvalues to basis labels.  Repeated
    eigenvalues across labels (degeneracy) are allowed."""

    name: str
    eigenvalues: Mapping[str, float]

    def eigenvalue(self, label: str) -> float:
        try:
            return self.eigenvalues[label]
        except KeyError:
            raise KeyError(f"observable {self.name!r} has no eigenvalue for label {label!r}")


@dataclass(frozen=True)
class Consequence:
    name: str
    utility: Number


@dataclass(frozen=True)
class PayoffFunction:
    """Assignment of consequences to observed eigenvalues."""

    consequences: Mapping[float, Consequence]

    def for_eigenvalue(self, x: float) -> Consequence:
        try:
            return self.consequences[x]
        except KeyError:
            raise KeyError(f"payoff undefined for eigenvalue {x!r}")

    def utility(self, x: float) -> Number:
        return self.for_eigenvalue(x).utility


@dataclass(frozen=True)
class QuantumGame:
    state: PureState
    observable: Observable
    payoff: PayoffFunction


@dataclass(frozen=True)
class Direct:
    """Measure the observable on the system with no auxiliary register."""

    description: str = "direct measurement"


@dataclass(frozen=True)
class AncillaCoupled:
    """Measure by entangling with an N-level auxiliary register, routing the
    first state component to ancilla levels 1..n and the second to n+1..N."""

    n: int
    N: int
    description: str = ""

    def __post_init__(self) -> None:
        if not (1 <= self.n < self.N):
            raise ValueError(f"need 1 <= n < N, got n={self.n}, N={self.N}")


MeasurementRealization = Union[Direct, AncillaCoupled]


def validate_game(game: QuantumGame) -> list[str]:
    """Report violated invariants; an empty list means the game is valid.

    Checks state normalization (within 1e-12) and payoff totality on the
    eigenvalues present in the state's support.  The norm is taken over the
    state's runs, count * |amplitude|^2 each, so a register state costs one
    term per component.
    """
    report: list[str] = []
    runs = game.state.runs
    weights = [amp.abs2 for amp, _ in runs]
    norm = float(_exact_dot(weights, [count for _, count in runs]))
    if abs(norm - 1.0) > 1e-12:
        report.append(f"state not normalized: sum of squared amplitudes is {norm!r}")
    labels = game.state.basis_labels
    eigenvalues = game.observable.eigenvalues
    missing_eigen = [label for label in labels if label not in eigenvalues]
    if missing_eigen:
        report.append(f"observable lacks eigenvalues for labels {missing_eigen}")
    start = 0
    for (_, count), w in zip(runs, weights):
        if float(w) > 0.0:
            for label in labels[start:start + count]:
                if label in eigenvalues and eigenvalues[label] not in game.payoff.consequences:
                    report.append(f"payoff missing eigenvalue {eigenvalues[label]!r} present in state support")
        start += count
    return report


def born_weights(game: QuantumGame) -> dict[float, Union[Fraction, float]]:
    """Squared-amplitude weight of each eigenvalue, summed over degenerate
    labels.  Exact fractions when the state is rational-backed."""
    problems = validate_game(game)
    if problems:
        raise ValueError("invalid game: " + "; ".join(problems))
    eigenvalue = game.observable.eigenvalue
    return _exact_sums(
        (eigenvalue(label), amp.abs2) for label, amp in zip(game.state.basis_labels, game.state.amplitudes)
    )


def couple_ancilla(
    game: QuantumGame, n: int, N: int
) -> tuple[PureState, Observable, Mapping[str, float]]:
    """Entangle a two-component state with an N-level register.

    Returns the joint state over labels y1..yN with amplitude a1/sqrt(n) on
    the first n labels and a2/sqrt(N-n) on the rest, the register observable
    (eigenvalue i on yi), and the grouping that maps each y label back to the
    eigenvalue of the original observable it realizes.  Nothing here is of
    size N: the labels are a sequence view that builds yi when asked, the
    joint state holds one (amplitude, count) run per component, and the
    register eigenvalues and the grouping are mapping views that read i off
    the label.  Each view still equals the full container it stands for (a
    tuple, or a dict), item for item.
    """
    if len(game.state.basis_labels) != 2:
        raise ValueError(
            f"ancilla coupling needs a two-component state, got {len(game.state.basis_labels)} components"
        )
    if not (1 <= n < N):
        raise ValueError(f"need 1 <= n < N, got n={n}, N={N}")
    a1, a2 = game.state.amplitudes
    x1 = game.observable.eigenvalue(game.state.basis_labels[0])
    x2 = game.observable.eigenvalue(game.state.basis_labels[1])

    labels = _RegisterLabels(N)
    joint = PureState(labels, _AmplitudeRuns(((a1.div_sqrt(n), n), (a2.div_sqrt(N - n), N - n))))
    register = Observable(
        name=f"{game.observable.name}_via_{N}_level_register",
        eigenvalues=_RegisterMap(labels, float),
    )
    grouping = _RegisterMap(labels, lambda level: x1 if level <= n else x2)
    return joint, register, grouping


def relabel_game(
    game: QuantumGame,
    label_map: Mapping[str, str],
    eigenvalue_map: Mapping[float, float] | None = None,
) -> QuantumGame:
    """The same physical scenario under different bookkeeping.

    Renames basis labels and, optionally, renumbers eigenvalues.  The payoff
    moves with the renumbering, so every branch still receives the same
    consequence; only the description changes.
    """
    new_labels = tuple(label_map[l] for l in game.state.basis_labels)
    state = PureState(new_labels, game.state.amplitudes)
    emap = eigenvalue_map or {}
    eigenvalues = {
        label_map[l]: emap.get(x, x) for l, x in game.observable.eigenvalues.items()
    }
    observable = Observable(game.observable.name, eigenvalues)
    payoff = PayoffFunction({emap.get(x, x): c for x, c in game.payoff.consequences.items()})
    return QuantumGame(state, observable, payoff)


def weighted_game(
    weights: Sequence[Number],
    utilities: Sequence[Number],
    eigenvalues: Sequence[float] | None = None,
    labels: Sequence[str] | None = None,
    consequence_names: Sequence[str] | None = None,
) -> QuantumGame:
    """Convenience builder: a k-outcome game with rational branch weights."""
    k = len(weights)
    if len(utilities) != k:
        raise ValueError("one utility per outcome")
    labels = tuple(labels) if labels else tuple(f"x{i}" for i in range(1, k + 1))
    eigenvalues = tuple(eigenvalues) if eigenvalues else tuple(float(i) for i in range(1, k + 1))
    consequence_names = (
        tuple(consequence_names) if consequence_names else tuple(f"c{i}" for i in range(1, k + 1))
    )
    state = PureState.from_weights(labels, weights)
    observable = Observable("X", dict(zip(labels, eigenvalues)))
    payoff = PayoffFunction(
        {x: Consequence(name, u) for x, name, u in zip(eigenvalues, consequence_names, utilities)}
    )
    return QuantumGame(state, observable, payoff)


def equal_game(n: int, utilities: Sequence[Number]) -> QuantumGame:
    """Equal-amplitude n-outcome game."""
    return weighted_game([Fraction(1, n)] * n, utilities)


# -- JSON wire format ---------------------------------------------------------
#
# {"state": [{"label": ..., "re": ..., "im": ...}, ...],
#  "observable": {"name": ..., "eigenvalues": {label: value}},
#  "payoff": {eigenvalue-as-string: {"consequence": ..., "utility": ...}}}

def game_to_json_dict(game: QuantumGame) -> dict:
    return {
        "state": [
            {"label": l, "re": float(a.re), "im": float(a.im)}
            for l, a in zip(game.state.basis_labels, game.state.amplitudes)
        ],
        "observable": {
            "name": game.observable.name,
            "eigenvalues": {l: float(x) for l, x in game.observable.eigenvalues.items()},
        },
        "payoff": {
            repr(float(x)): {"consequence": c.name, "utility": float(c.utility)}
            for x, c in game.payoff.consequences.items()
        },
    }


@malformed("game JSON")
def game_from_json_dict(doc: Mapping) -> QuantumGame:
    """The game a game JSON document states; a malformed document raises ValueError."""
    eigenvalues, payoff = doc["observable"]["eigenvalues"], doc["payoff"]
    labels = tuple(entry["label"] for entry in doc["state"])
    amps = tuple(Amplitude(float(e["re"]), float(e["im"])) for e in doc["state"])
    state = PureState(labels, amps)
    observable = Observable(doc["observable"]["name"], {l: float(x) for l, x in eigenvalues.items()})
    payoff = PayoffFunction(
        {
            float(key): Consequence(entry["consequence"], _finite_utility(entry["utility"]))
            for key, entry in payoff.items()
        }
    )
    return QuantumGame(state, observable, payoff)


def _finite_utility(raw) -> float:
    u = float(raw)
    if not math.isfinite(u):
        raise ValueError(f"utility must be finite, got {raw!r}")
    return u


def game_to_json(game: QuantumGame) -> str:
    return json.dumps(game_to_json_dict(game), indent=2)


def game_from_json(text: str) -> QuantumGame:
    return game_from_json_dict(json.loads(text))


def parse_realization(text: str) -> MeasurementRealization:
    """Parse "direct" or "ancilla:n,N" into a measurement realization."""
    if not isinstance(text, str):
        raise ValueError(f"realization must be a string, got {text!r}")
    text = text.strip().lower()
    if text == "direct":
        return Direct()
    if text.startswith("ancilla:"):
        try:
            n_str, N_str = text[len("ancilla:"):].split(",")
            return AncillaCoupled(int(n_str), int(N_str))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad ancilla spec {text!r}: expected ancilla:n,N") from exc
    raise ValueError(f"unknown realization {text!r}; expected 'direct' or 'ancilla:n,N'")


@malformed("games list JSON")
def games_from_json_list(doc) -> list[tuple[QuantumGame, MeasurementRealization]]:
    """The (game, realization) pairs of a games-list JSON document; a malformed one raises ValueError."""
    return [
        (game_from_json_dict(entry["game"]), parse_realization(entry.get("realization", "direct")))
        for entry in doc
    ]


def realization_label(realization: MeasurementRealization) -> str:
    if isinstance(realization, Direct):
        return "direct"
    return f"ancilla:{realization.n},{realization.N}"
