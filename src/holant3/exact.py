"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(d)).

A rational value is always an int or a stdlib fractions.Fraction
(canonical: gcd = 1, positive denominator). A QuadExt is always
irrational: it holds base + coeff*sqrt(rad) with coeff != 0 and a
positive radicand that is not the square of a rational. Building one
whose value is rational, and every operation whose irrational part
cancels, returns the Fraction instead, so no caller has to convert a
result back or test a QuadExt for zero: `not x`, `x < 0` and `x == y`
mean what they say on every scalar. One computation works over one
field: radicands such as 8 and 2 mix, distinct fields raise
MixedRadicands instead of silently extending the field.

Nothing in this module ever rounds: signs are decided by comparing
base^2 against coeff^2 * rad.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import MixedRadicands, NegativeRadicand, NotRational

Scalar = Union[int, Fraction, "QuadExt"]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value, den=None) -> Fraction:
    """Build a Fraction from ints, strings like '3/4', or pass through."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, QuadExt):
        raise NotRational(f"{value} has an irrational part")
    if isinstance(value, float):
        raise TypeError("floats are not accepted in exact arithmetic")
    return Fraction(value)


def sqrt_exact(d) -> "Fraction | QuadExt":
    """Exact nonnegative square root: Fraction when d is a perfect
    square of a rational, otherwise the QuadExt sqrt(d)."""
    return QuadExt(ZERO, ONE, d)


def _quad(base: Fraction, coeff: Fraction, rad: Fraction) -> "Fraction | QuadExt":
    """base + coeff*sqrt(rad) for a radicand that already passed
    QuadExt's checks: the Fraction base when coeff cancelled to zero."""
    if not coeff:
        return base
    q = object.__new__(QuadExt)
    object.__setattr__(q, "base", base)
    object.__setattr__(q, "coeff", coeff)
    object.__setattr__(q, "rad", rad)
    return q


def _positive(x: Scalar) -> bool:
    """x > 0, exactly; an irrational x is never zero, so its two parts
    never cancel and comparing base^2 with coeff^2 * rad decides it."""
    if not isinstance(x, QuadExt):
        return x > 0
    b, c = x.base, x.coeff
    if c > 0:
        return b >= 0 or b * b < c * c * x.rad
    return b > 0 and b * b > c * c * x.rad


class QuadExt:
    """base + coeff*sqrt(rad), all rational, coeff != 0 and rad > 0 not a
    rational square; an irrational value, hence truthy.

    QuadExt(base, coeff, rad) returns the Fraction base + coeff*sqrt(rad)
    when that is rational. Supports +, -, *, /, integer powers and exact
    comparisons; equality compares values, so sqrt(8) == 2*sqrt(2), and a
    QuadExt never equals a rational.
    """

    __slots__ = ("base", "coeff", "rad")

    def __new__(cls, base, coeff=0, rad=0):
        base, coeff, rad = frac(base), frac(coeff), frac(rad)
        if rad < 0:
            raise NegativeRadicand(f"radicand {rad} is negative")
        rn, rd = isqrt(rad.numerator), isqrt(rad.denominator)
        if rn * rn == rad.numerator and rd * rd == rad.denominator:
            return base + coeff * Fraction(rn, rd)
        return _quad(base, coeff, rad)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):
        return (QuadExt, (self.base, self.coeff, self.rad))

    def _same_rad(self, other: "QuadExt") -> Fraction:
        """other's coeff over our radicand r: if r*s = n/d (coprime) has
        n*d = k^2, then sqrt(s) = (k/d)/r * sqrt(r)."""
        if other.rad == self.rad:
            return other.coeff
        p = self.rad * other.rad
        nd = p.numerator * p.denominator
        k = isqrt(nd)
        if k * k != nd:
            raise MixedRadicands(f"sqrt({self.rad}) vs sqrt({other.rad})")
        return other.coeff * Fraction(k, p.denominator) / self.rad

    # -- field operations --

    def __add__(self, other):
        if isinstance(other, QuadExt):
            return _quad(self.base + other.base, self.coeff + self._same_rad(other), self.rad)
        if isinstance(other, (int, Fraction)):
            return _quad(self.base + other, self.coeff, self.rad)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.base, -self.coeff, self.rad)

    def __sub__(self, other):
        if isinstance(other, QuadExt):
            return _quad(self.base - other.base, self.coeff - self._same_rad(other), self.rad)
        if isinstance(other, (int, Fraction)):
            return _quad(self.base - other, self.coeff, self.rad)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _quad(other - self.base, -self.coeff, self.rad)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            c, rad = self._same_rad(other), self.rad
            return _quad(self.base * other.base + self.coeff * c * rad,
                         self.base * c + self.coeff * other.base, rad)
        if isinstance(other, (int, Fraction)):
            return _quad(self.base * other, self.coeff * other, self.rad)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # the norm of an irrational value is never zero
        norm = self.base * self.base - self.coeff * self.coeff * self.rad
        return _quad(self.base / norm, -self.coeff / norm, self.rad)

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return _quad(self.base / other, self.coeff / other, self.rad)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0:
            return self.inverse() ** (-exp)
        result = ONE
        square = self
        while exp:
            if exp & 1:
                result = square * result
            exp >>= 1
            if exp:
                square = square * square
        return result

    # -- order and identity --

    def _key(self) -> tuple:    # coeff*sqrt(rad) is fixed by its square and sign
        return self.base, self.coeff * self.coeff * self.rad, self.coeff > 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, other):
        return _positive(other - self)

    def __le__(self, other):
        return not _positive(self - other)

    def __gt__(self, other):
        return _positive(self - other)

    def __ge__(self, other):
        return not _positive(other - self)

    # -- conversions --

    def __float__(self):
        # diagnostics only; result paths stay exact
        return float(self.base) + float(self.coeff) * float(self.rad) ** 0.5

    def __repr__(self):
        return f"QuadExt({self.base} + {self.coeff}*sqrt({self.rad}))"

    def __str__(self):
        return f"{self.base} + {self.coeff}*sqrt({self.rad})"
