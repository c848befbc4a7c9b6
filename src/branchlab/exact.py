"""Exact arithmetic: square roots of rationals, and exact sums.

Amplitudes in this package are typically square roots of rational numbers,
so their squared magnitudes are exact fractions; SqrtRational is the value
type for that bookkeeping.  Sums of exact numbers (weights, masses, prices)
are taken by _exact_sum and _exact_dot on one common denominator: one lcm of
the denominators, one integer sum and one Fraction, where a left fold of
Fraction additions would reduce by a gcd at every step.  Each returns the
value, type and float bits of that fold from Fraction(0), float terms
included.  Below every module that reads input sit the input boundary's
helpers: exact_number, the one coercion to exact numbers, and malformed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import starmap
from operator import add, mul
from typing import Hashable, Iterable, Iterator, Sequence, Union

Radicand = Union[int, Fraction]
Number = Union[int, float, Fraction]


def _sign(q: Fraction) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


@dataclass(frozen=True)
class SqrtRational:
    """A real number of the form ``sign * sqrt(radicand)`` with rational radicand.

    Closed under division by sqrt of a positive rational.  Squaring is
    exact.  Addition is not closed and is deliberately not provided;
    callers that need sums drop to float first.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.radicand, Fraction):
            object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign 0 iff radicand 0")

    @classmethod
    def zero(cls) -> "SqrtRational":
        return cls(0, Fraction(0))

    @classmethod
    def sqrt(cls, value: Radicand) -> "SqrtRational":
        """The nonnegative square root of a nonnegative rational."""
        q = Fraction(value)
        if q < 0:
            raise ValueError(f"no real square root of {q}")
        return cls(_sign(q), q)

    @property
    def squared(self) -> Fraction:
        return self.radicand

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.radicand)

    def div_sqrt(self, k: Radicand) -> "SqrtRational":
        """Divide by sqrt(k) for a positive rational k, staying exact."""
        q = Fraction(k)
        if q <= 0:
            raise ValueError("divisor under the root must be positive")
        if self.sign == 0:
            return self
        return SqrtRational(self.sign, self.radicand / q)


# -- exact sums ------------------------------------------------------------------

_RATIONAL = (int, Fraction)
_ZERO = Fraction(0)


def _integers(values: Sequence[Radicand]) -> tuple[tuple[int, ...], int]:
    """The values times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (scale // v.denominator) for v in values]), scale


def _exact_sum(terms: Iterable[Number]) -> Number:
    """The left fold of + over terms from Fraction(0), on one common denominator.

    The leading run of ints and Fractions is summed as integers over the lcm
    of its denominators (a run of one is that term as a Fraction).  From the
    first other term (a float) on, the fold goes on term by term as it would
    have, so the result has the fold's value, type and float bits.
    """
    terms = terms if isinstance(terms, (list, tuple)) else list(terms)
    k = 0
    for t in terms:
        if not isinstance(t, _RATIONAL):
            break
        k += 1
    if k > 1:
        nums, scale = _integers(terms[:k])
        total: Number = Fraction(sum(nums), scale)
    elif k:
        total = terms[0] if type(terms[0]) is Fraction else Fraction(terms[0])
    else:
        total = _ZERO
    tail = terms[k:]
    if tail and type(tail[0]) is float:
        total = float(total)  # what Fraction + float does first
    return reduce(add, tail, total)


def _exact_sums(pairs: Iterable[tuple[Hashable, Number]]) -> dict:
    """Each key's terms summed by _exact_sum in the order given, keys in first-seen order."""
    groups: dict = {}
    for key, term in pairs:
        groups.setdefault(key, []).append(term)
    return {key: _exact_sum(terms) for key, terms in groups.items()}


def _exact_dot(xs: Iterable[Number], ys: Iterable[Number]) -> Number:
    """The left fold of total + x * y over pairs from Fraction(0), as _exact_sum takes it.

    The leading run of pairs of ints and Fractions is summed as integers
    over the lcm of the products' denominators.  From the first pair with
    another term on, each product is formed and added as in the fold.
    """
    pairs = list(zip(xs, ys))
    k = 0
    for x, y in pairs:
        if not (isinstance(x, _RATIONAL) and isinstance(y, _RATIONAL)):
            break
        k += 1
    total: Number = _ZERO
    if k:
        head = pairs[:k]
        dens = [x.denominator * y.denominator for x, y in head]
        scale = math.lcm(*dens)
        total = Fraction(sum([x.numerator * y.numerator * (scale // d) for (x, y), d in zip(head, dens)]), scale)
    return reduce(add, starmap(mul, pairs[k:]), total)


# -- input boundary --------------------------------------------------------------


def exact_number(raw, name: str) -> Fraction:
    """raw, a number or its decimal or fraction text, as a Fraction; ValueError naming name if
    it is no number or too large for a float (reports print floats)."""
    text = str(raw).strip()
    exponent = text.lower().partition("e")[2]
    try:
        # Fraction(text) builds 10**exponent, which no float needs beyond a few hundred.
        if exponent.lstrip("+-").isdigit() and abs(int(exponent)) > 10_000:
            raise ValueError(f"exponent {exponent} is out of range")
        value = Fraction(text)
        float(value)
    except OverflowError:
        raise ValueError(f"{name} {raw} is too large for a float") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} {raw} is not a number: {exc}") from None
    return value


@contextmanager
def malformed(what: str) -> Iterator[None]:
    """As a loader's decorator: any error a malformed what document raises while the
    loader indexes and converts it, raised as a ValueError that names what."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad {what}: {exc}") from exc
