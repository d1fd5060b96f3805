"""Symmetric signatures, dense tensors, 2x2 straddled matrices and their
eigen-decompositions.

A symmetric signature of arity n is the list of its n+1 values by input
Hamming weight, written [x0, ..., xn]. Ternary equality is [1, 0, 0, 1].
The straddled matrix of a ternary signature is [[x0, x2], [x1, x3]]
(rows indexed by the left-side variable, columns by the right-side one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    ArityMismatch,
    NegativeEntry,
    NormalizationUndefined,
    ZeroA,
    ZeroDelta,
)
from .exact import ONE, QuadExt, Scalar, frac, sqrt_exact


def _norm_entry(x) -> Scalar:
    return x if isinstance(x, QuadExt) else frac(x)


@dataclass(frozen=True)
class SymSig:
    """Symmetric signature: value depends only on input Hamming weight."""

    values: tuple

    def __init__(self, values: Sequence):
        vals = tuple(_norm_entry(v) for v in values)
        if len(vals) < 1:
            raise ArityMismatch("a signature needs at least one value")
        object.__setattr__(self, "values", vals)

    @property
    def arity(self) -> int:
        return len(self.values) - 1

    def value_at(self, pattern: int) -> Scalar:
        return self.values[pattern.bit_count()]

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, w: int) -> Scalar:
        return self.values[w]

    def __repr__(self):
        return "[" + ",".join(str(v) for v in self.values) + "]"


EQ3 = SymSig([1, 0, 0, 1])


@dataclass(frozen=True)
class Tensor:
    """Dense table over bit patterns; bit i of the index is variable i."""

    arity: int
    entries: tuple

    def __init__(self, arity: int, entries: Sequence):
        entries = tuple(_norm_entry(v) for v in entries)
        if len(entries) != 1 << arity:
            raise ArityMismatch(f"arity {arity} needs {1 << arity} entries, got {len(entries)}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "entries", entries)

    def value_at(self, pattern: int) -> Scalar:
        return self.entries[pattern]

    def is_symmetric(self) -> bool:
        # every entry equals the one of its weight w at pattern 2^w - 1
        return all(v == self.entries[(1 << p.bit_count()) - 1] for p, v in enumerate(self.entries))

    def to_symmetric(self) -> SymSig:
        if not self.is_symmetric():
            raise ArityMismatch("tensor is not symmetric")
        return SymSig([self.entries[(1 << w) - 1] for w in range(self.arity + 1)])

    def __repr__(self):
        return f"Tensor(arity={self.arity}, {list(self.entries)})"


def sym_to_tensor(s: SymSig) -> Tensor:
    return Tensor(s.arity, [s.value_at(p) for p in range(1 << s.arity)])


def reverse(s: SymSig) -> SymSig:
    """Flip all 0/1 inputs: the values list reversed."""
    return SymSig(tuple(reversed(s.values)))


def normalize(f: SymSig):
    """Scale (and reverse if x0 = 0) a nonnegative ternary signature to
    the shape [1, a, b, c].

    Returns (form, scalar, flipped) with f == scalar * (reversed form if
    flipped else form), scalar > 0.
    """
    if f.arity != 3:
        raise ArityMismatch("normalize expects a ternary signature")
    if not f.is_nonnegative():
        raise NegativeEntry(f"normalize expects nonnegative entries, got {f}")
    x0, x3 = f[0], f[3]
    if not x0 and not x3:
        raise NormalizationUndefined("both end entries are zero")
    if x0:
        scalar = x0
        form = SymSig([v / scalar for v in f.values])
        return form, scalar, False
    scalar = x3
    rev = reverse(f)
    form = SymSig([v / scalar for v in rev.values])
    return form, scalar, True


def _hankel_minors(f: SymSig):
    x0, x1, x2, x3 = f.values
    return (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2)


def is_degenerate(f: SymSig) -> bool:
    """True iff f = u (x) u (x) u for some unary u, decided by the
    vanishing of all 2x2 minors of [[x0,x1,x2],[x1,x2,x3]]."""
    if f.arity != 3:
        raise ArityMismatch("degeneracy test expects a ternary signature")
    return not any(_hankel_minors(f))


def is_generalized_equality(s: SymSig) -> bool:
    """[a,0,...,0,b] of arity >= 1: every port carries one value."""
    return s.arity >= 1 and not any(s.values[1:-1])


def affine_scale(f: SymSig):
    """x0 if ternary f = x0 [1,0,1,0], x1 if f = x1 [0,1,0,1], else None."""
    x0, x1, x2, x3 = f.values
    if not x1 and not x3 and x0 == x2:
        return x0
    return x1 if not x0 and not x2 and x1 == x3 else None


class Mat2:
    """2x2 matrix over exact scalars; rows = left-side variable value,
    columns = right-side variable value for straddled signatures."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        (a, b), (c, d) = rows
        self.rows = ((_norm_entry(a), _norm_entry(b)), (_norm_entry(c), _norm_entry(d)))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(((1, 0), (0, 1)))

    def __getitem__(self, i: int):
        return self.rows[i]

    def __mul__(self, other: "Mat2") -> "Mat2":
        a = self.rows
        b = other.rows
        return Mat2(
            (
                (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
                (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
            )
        )

    def det(self) -> Scalar:
        return self.rows[0][0] * self.rows[1][1] - self.rows[0][1] * self.rows[1][0]

    def trace(self) -> Scalar:
        return self.rows[0][0] + self.rows[1][1]

    def inverse(self) -> "Mat2":
        d = self.det()
        if not d:
            raise ZeroDivisionError("singular 2x2 matrix")
        (a, b), (c, dd) = self.rows
        return Mat2(((dd / d, -b / d), (-c / d, a / d)))

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Mat2({self.rows[0]}, {self.rows[1]})"


def matrix_power(m: Mat2, s: int) -> Mat2:
    if s < 0:
        raise ValueError("nonnegative exponent expected")
    result = Mat2.identity()
    square = m
    while s:
        if s & 1:
            result = result * square
        s >>= 1
        if s:
            square = square * square
    return result


def straddled_from_f(f: SymSig) -> Mat2:
    """The binary straddled signature of the one-square/one-circle
    transfer gadget: [[x0, x2], [x1, x3]]."""
    if f.arity != 3:
        raise ArityMismatch("straddled matrix expects a ternary signature")
    return Mat2(((f[0], f[2]), (f[1], f[3])))


@dataclass(frozen=True)
class JordanData:
    """Eigen-data of a straddled 2x2 matrix [[1,b],[a,c]] over Q(sqrt(d)),
    d = (1-c)^2 + 4ab: eigenvalues lam < mu, eigenvector parameters x, y
    with columns of P = [[-x, y], [1, 1]] the right eigenvectors."""

    delta: Scalar
    lam: Scalar
    mu: Scalar
    x: Scalar
    y: Scalar

    def p_matrix(self) -> Mat2:
        return Mat2(((-self.x, self.y), (1, 1)))

    def p_inverse(self) -> Mat2:
        s = self.x + self.y
        return Mat2(((-1 / s, self.y / s), (1 / s, self.x / s)))

    def reconstruct(self) -> Mat2:
        return self.p_matrix() * Mat2(((self.lam, 0), (0, self.mu))) * self.p_inverse()


def eigenvalues(m: Mat2):
    """(delta, lam, mu) with lam < mu the two distinct real eigenvalues
    of m and delta = mu - lam, exact in a quadratic extension; else ZeroDelta."""
    (m00, m01), (m10, m11) = m.rows
    gap = m00 - m11
    disc = gap * gap + 4 * m01 * m10
    if not disc:
        raise ZeroDelta("coincident eigenvalues: discriminant is zero")
    if disc < 0:
        raise ZeroDelta("eigenvalues are not real: negative discriminant")
    delta = sqrt_exact(disc)
    tr = m.trace()
    return delta, (tr - delta) / 2, (tr + delta) / 2


def jordan(m: Mat2) -> JordanData:
    """Diagonalize a 2x2 matrix with distinct real eigenvalues in a
    quadratic extension; verifies P diag(lam, mu) P^-1 == m exactly."""
    (m00, _), (m10, m11) = m.rows
    if not m10:
        raise ZeroA("lower-left entry is zero; eigenvector parameters x, y undefined")
    delta, lam, mu = eigenvalues(m)
    gap = m00 - m11
    x = (delta - gap) / (2 * m10)
    y = (delta + gap) / (2 * m10)
    data = JordanData(delta, lam, mu, x, y)
    if data.reconstruct() != m:
        raise AssertionError("eigen-decomposition failed to reconstruct the matrix")
    return data


HADAMARD = Mat2(((1, 1), (1, -1)))
HADAMARD_INV = Mat2(((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2))))


def transform_sym(s: SymSig, m: Mat2, side: str) -> SymSig:
    """Apply m to every variable of s.

    side='left':  column convention, entry[p] = sum_q prod_i m[p_i][q_i] s[q]
    side='right': row convention,    entry[q] = sum_p s[p] prod_i m[p_i][q_i]
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n = s.arity
    src = sym_to_tensor(s)
    out = []
    for target in range(1 << n):
        acc = Fraction(0)
        for source in range(1 << n):
            coeff = ONE
            for i in range(n):
                ti = (target >> i) & 1
                si = (source >> i) & 1
                coeff = coeff * (m[ti][si] if side == "left" else m[si][ti])
                if not coeff:
                    break
            else:
                acc = acc + coeff * src.value_at(source)
        out.append(acc)
    return Tensor(n, out).to_symmetric()


def hadamard_transform(s: SymSig, which: str = "H", side: str = "left") -> SymSig:
    """Holographic basis change by H = [[1,1],[1,-1]] or its inverse."""
    if which == "H":
        m = HADAMARD
    elif which == "H_inverse":
        m = HADAMARD_INV
    else:
        raise ValueError("which must be 'H' or 'H_inverse'")
    return transform_sym(s, m, side)
