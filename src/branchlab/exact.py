"""Exact arithmetic for square roots of rationals.

Amplitudes in this package are typically square roots of rational numbers,
so their squared magnitudes are exact fractions.  This module provides the
one value type needed for that bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

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

    Closed under multiplication, negation and division by sqrt of a positive
    rational.  Squaring is exact.  Addition is not closed and is deliberately
    not provided; callers that need sums drop to float first.
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

    @classmethod
    def rational(cls, value: Radicand) -> "SqrtRational":
        """An exact rational, stored as sign * sqrt(value**2)."""
        q = Fraction(value)
        return cls(_sign(q), q * q)

    @property
    def squared(self) -> Fraction:
        return self.radicand

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.radicand)

    def __neg__(self) -> "SqrtRational":
        return SqrtRational(-self.sign, self.radicand)

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        if not isinstance(other, SqrtRational):
            return NotImplemented
        sign = self.sign * other.sign
        rad = self.radicand * other.radicand if sign else Fraction(0)
        return SqrtRational(sign, rad)

    def div_sqrt(self, k: Radicand) -> "SqrtRational":
        """Divide by sqrt(k) for a positive rational k, staying exact."""
        q = Fraction(k)
        if q <= 0:
            raise ValueError("divisor under the root must be positive")
        if self.sign == 0:
            return self
        return SqrtRational(self.sign, self.radicand / q)

    def is_zero(self) -> bool:
        return self.sign == 0
