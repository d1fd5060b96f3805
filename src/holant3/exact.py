"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(d)).

Rationals are stdlib fractions.Fraction (already canonical: gcd = 1,
positive denominator). QuadExt represents base + coeff*sqrt(rad) for a
fixed nonnegative rational radicand. One computation works over one
radicand; mixing distinct irrational radicands raises MixedRadicands
instead of silently extending the field.

Nothing in this module ever rounds: signs are decided by comparing
base^2 against coeff^2 * rad, and perfect-square radicands collapse to
rationals on construction.
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
        return value.to_fraction()
    if isinstance(value, float):
        raise TypeError("floats are not accepted in exact arithmetic")
    return Fraction(value)


def sqrt_exact(d) -> "Fraction | QuadExt":
    """Exact nonnegative square root: Fraction when d is a perfect
    square of a rational, otherwise the QuadExt sqrt(d)."""
    d = frac(d)
    if d < 0:
        raise NegativeRadicand(f"sqrt of negative rational {d}")
    root = _perfect_sqrt(d)
    if root is not None:
        return root
    return QuadExt(ZERO, ONE, d)


def _perfect_sqrt(d: Fraction) -> Fraction | None:
    if d < 0:
        return None
    rn = isqrt(d.numerator)
    rd = isqrt(d.denominator)
    if rn * rn == d.numerator and rd * rd == d.denominator:
        return Fraction(rn, rd)
    return None


def _sign_fraction(q: Fraction) -> int:
    return (q > 0) - (q < 0)


class QuadExt:
    """base + coeff*sqrt(rad), all rational, rad >= 0.

    Canonical form: coeff == 0 implies rad == 0, and a perfect-square
    radicand is folded into base at construction. Supports +, -, *, /,
    integer powers, exact comparisons and an exact sign().
    """

    __slots__ = ("base", "coeff", "rad")

    def __init__(self, base, coeff=0, rad=0):
        base = frac(base)
        coeff = frac(coeff)
        rad = frac(rad)
        if rad < 0:
            raise NegativeRadicand(f"radicand {rad} is negative")
        if coeff != 0:
            root = _perfect_sqrt(rad)
            if root is not None:
                base += coeff * root
                coeff = ZERO
                rad = ZERO
        else:
            rad = ZERO
        if coeff == 0:
            rad = ZERO
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):
        return (QuadExt, (self.base, self.coeff, self.rad))

    # -- coercion --

    @staticmethod
    def _lift(value) -> "QuadExt | None":
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExt(value)
        return None

    def _common_rad(self, other: "QuadExt") -> Fraction:
        if self.coeff == 0:
            return other.rad
        if other.coeff == 0:
            return self.rad
        if self.rad != other.rad:
            raise MixedRadicands(f"sqrt({self.rad}) vs sqrt({other.rad})")
        return self.rad

    # -- ring operations --

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        rad = self._common_rad(o)
        return QuadExt(self.base + o.base, self.coeff + o.coeff, rad)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.base, -self.coeff, self.rad)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        rad = self._common_rad(o)
        return QuadExt(
            self.base * o.base + self.coeff * o.coeff * rad,
            self.base * o.coeff + self.coeff * o.base,
            rad,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.base * self.base - self.coeff * self.coeff * self.rad
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic-extension value")
        return QuadExt(self.base / norm, -self.coeff / norm, self.rad)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0:
            return self.inverse() ** (-exp)
        result = QuadExt(ONE)
        square = self
        while exp:
            if exp & 1:
                result = result * square
            exp >>= 1
            if exp:
                square = square * square
        return result

    # -- order and identity --

    def sign(self) -> int:
        """Exact sign of base + coeff*sqrt(rad); no floating point."""
        if self.coeff == 0:
            return _sign_fraction(self.base)
        if self.base == 0:
            return _sign_fraction(self.coeff)
        sb = _sign_fraction(self.base)
        sc = _sign_fraction(self.coeff)
        if sb == sc:
            return sb
        # opposite signs: compare magnitudes base^2 vs coeff^2 * rad
        lhs = self.base * self.base
        rhs = self.coeff * self.coeff * self.rad
        if lhs > rhs:
            return sb
        if lhs < rhs:
            return sc
        return 0  # unreachable for non-square rad unless both parts zero

    def is_zero(self) -> bool:
        return self.base == 0 and self.coeff == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.coeff == 0 and o.coeff == 0:
            return self.base == o.base
        try:
            diff = self - o
        except MixedRadicands:
            return False
        return diff.is_zero()

    def __hash__(self):
        if self.coeff == 0:
            return hash(self.base)
        return hash((self.base, self.coeff, self.rad))

    def _cmp(self, other) -> int:
        o = self._lift(other)
        if o is None:
            raise TypeError(f"cannot order QuadExt against {type(other)}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions --

    def to_fraction(self) -> Fraction:
        if self.coeff != 0:
            raise NotRational(f"{self} has an irrational part")
        return self.base

    def __float__(self):
        # diagnostics only; result paths stay exact
        return float(self.base) + float(self.coeff) * float(self.rad) ** 0.5

    def __repr__(self):
        if self.coeff == 0:
            return f"QuadExt({self.base})"
        return f"QuadExt({self.base} + {self.coeff}*sqrt({self.rad}))"

    def __str__(self):
        if self.coeff == 0:
            return str(self.base)
        return f"{self.base} + {self.coeff}*sqrt({self.rad})"


def scalar_is_zero(x: Scalar) -> bool:
    if isinstance(x, QuadExt):
        return x.is_zero()
    return x == 0


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def demote(x: Scalar) -> Scalar:
    """Collapse a rational-valued QuadExt back to a Fraction."""
    if isinstance(x, QuadExt) and x.coeff == 0:
        return x.base
    return x
