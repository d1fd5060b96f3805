"""The explicit tractability criteria and the algebra behind them.

classify_ternary decides, for a nonnegative ternary signature paired
with ternary equality, whether the partition function is polynomial-time
computable (degenerate / generalized equality / affine) or #P-hard.
classify_binary23 is the matching criterion for a binary signature
paired with ternary equality. verify_case_identities proves the
polynomial identities that drive the hardness case analysis, exactly in
Q[a, b, c]; verify_factorization_identity checks the factorization at
one point in Q(sqrt(d)) and is the pointwise reference for the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityMismatch, NegativeEntry, ZeroDelta
from .exact import frac
from .signatures import (SymSig, affine_scale, is_degenerate, is_generalized_equality, jordan,
                         normalize, straddled_from_f)

FP = "FP"
HARD = "#P-hard"

CASE_REASONS = {1: "degenerate", 2: "generalized-equality", 3: "affine"}


@dataclass(frozen=True)
class TernaryClassification:
    verdict: str                      # FP or #P-hard
    matched_case: int | None          # first matching tractable case (1..3)
    matches: tuple                    # all matching tractable cases
    hardness_case: str | None = None  # which hard family the input normalizes into

    @property
    def reason(self) -> str | None:
        return CASE_REASONS.get(self.matched_case)


def _tractable_cases(f: SymSig) -> list[int]:
    cases = []
    if is_degenerate(f):
        cases.append(1)
    if is_generalized_equality(f):
        cases.append(2)
    if affine_scale(f) is not None:
        cases.append(3)
    return cases


def _hardness_case(f: SymSig) -> str:
    """Replay the case split on the normalized form [1,a,b,c] (or the
    all-ends-zero branch) to name the hard family the input falls in."""
    x0, x1, x2, x3 = f.values
    if not x0 and not x3:
        if not x1 or not x2:
            return "exact-one family [0,1,0,0]"
        return "family [0,1,b,0], b > 0"
    form, _, _ = normalize(f)
    a, b, c = form[1], form[2], form[3]
    if a and b:
        return "family [1,a,b,c], ab > 0, non-degenerate"
    if a:  # b == 0
        return "family [1,a,0,c], a > 0"
    if c == 1:
        return "family [1,0,b,1], b > 0"
    if not c:
        return "family [1,0,b,0], b not in {0,1}"
    return "family [1,0,b,c], b > 0, c not in {0,1}"


def classify_ternary(f: SymSig) -> TernaryClassification:
    if f.arity != 3:
        raise ArityMismatch(f"expected ternary signature, got arity {f.arity}")
    if not f.is_nonnegative():
        raise NegativeEntry(f"classification is defined for nonnegative signatures: {f}")
    cases = _tractable_cases(f)
    if cases:
        return TernaryClassification(FP, cases[0], tuple(cases))
    return TernaryClassification(HARD, None, (), _hardness_case(f))


@dataclass(frozen=True)
class BinaryClassification:
    verdict: str
    matched_case: int | None
    x_value: Fraction
    z_value: Fraction


def classify_binary23(a, b) -> BinaryClassification:
    """Tractability of the binary signature [a,1,b] against ternary
    equality: P iff X=1, or X=Z=0, or X=-1 with Z in {0,-1}, where
    X = ab and Z = ((a^3+b^3)/2)^2.

    Z is a rational square, so the Z=-1 branch cannot fire here and is
    not checked; it matters only over wider fields.
    """
    a, b = frac(a), frac(b)
    x = a * b
    z = ((a**3 + b**3) / 2) ** 2
    if x == 1:
        case = 1
    elif x == 0 and z == 0:
        case = 2
    elif x == -1 and z == 0:
        case = 3
    else:
        case = None
    return BinaryClassification("P" if case else HARD, case, x, z)


def verify_factorization_identity(a, b, c):
    """Check both sides of the eigenvector-exception factorization.

    lhs: the probe signature [y^2+yb, ya+c] is proportional to the row
         eigenvector [1, x] of the transfer matrix, i.e.
         (ya+c)/(y^2+yb) = x, decided exactly in Q(sqrt(d)).
    rhs: (a^3 - b^3 - ab(1-c)) * (ab - c) == 0.

    Returns (lhs_holds, rhs_holds). lhs implies rhs; the converse can
    fail on the thin set ab = c, b != a^2.
    """
    a, b, c = frac(a), frac(b), frac(c)
    if a * b == 0:
        raise ZeroDelta("identity is about the ab != 0 regime")
    jd = jordan(straddled_from_f(SymSig([1, a, b, c])))
    x, y = jd.x, jd.y
    lhs = (y * a + c) == x * (y * y + y * b)
    rhs = not ((a**3 - b**3 - a * b * (1 - c)) * (a * b - c))
    return lhs, rhs


class _Poly:
    """A polynomial in Q[a, b, c]: a dict from exponent triple to nonzero
    Fraction coefficient, so == decides equality of polynomials."""

    def __init__(self, terms):
        self.terms = {e: q for e, q in terms.items() if q}

    @staticmethod
    def _lift(x) -> _Poly:
        return x if isinstance(x, _Poly) else _Poly({(0, 0, 0): Fraction(x)})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, q in _Poly._lift(other).terms.items():
            terms[e] = terms.get(e, 0) + q
        return _Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return _Poly({e: -q for e, q in self.terms.items()})

    def __sub__(self, other):
        return self + -_Poly._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other, terms = _Poly._lift(other), {}
        for e, p in self.terms.items():
            for f, q in other.terms.items():
                g = (e[0] + f[0], e[1] + f[1], e[2] + f[2])
                terms[g] = terms.get(g, 0) + p * q
        return _Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _Poly._lift(1) if n == 0 else self * self ** (n - 1)

    def __eq__(self, other):
        return self.terms == _Poly._lift(other).terms


def verify_case_identities() -> dict[str, bool]:
    """Prove the polynomial identities of the case analysis in Q[a, b, c];
    True means the identity holds as an equality of polynomials.

    factorization: lhs => rhs of verify_factorization_identity. y is a
        root of aY^2 - (1-c)Y - b and x y = b/a (Vieta), so lhs reads
        y(a^2-b) = b^2-ac. If a^2 != b, (a^2-b)^2 times the root equation
        at y = (b^2-ac)/(a^2-b) is -(ab-c)(a^3-b^3-ab(1-c)). If a^2 = b,
        lhs gives c = a^3, where a^3-b^3-ab(1-c) vanishes.
    middle-branch: under a^3 - b^3 = ab(1-c), a^4 times the difference
        of the two sides of the degeneracy condition
        (1+b^2/a)(b+b^2c/a^2) = (a+b^3/a^2)^2 of the connected binary
        is -a(a^2-b)(a^3+ab+2b^3).
    product-branch: under c = ab, (1+ab)(b+bc) - (a+b^2)^2 =
        (a^2-b)(b^3-1).
    palindrome-branch: 2+2a^3-2a-2a^2 = 2(a-1)^2(a+1).

    The factors a^4, a and 2 are positive when a > 0, so each branch
    condition holds iff the remaining product vanishes.
    """
    a, b, c = (_Poly({e: Fraction(1)}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def rhs_factor(a, b, c):
        return a**3 - b**3 - a * b * (1 - c)

    s, t = b * b - a * c, a * a - b
    abc = a * b - a**3 + b**3  # ab c, with c fixed by the middle branch
    return {
        "factorization": (a * s**2 - (1 - c) * s * t - b * t**2
                          == -(a * b - c) * rhs_factor(a, b, c)
                          and rhs_factor(a, a * a, a**3) == 0),
        "middle-branch": ((a + b * b) * (a**3 * b + b * abc) - (a**3 + b**3) ** 2
                          == -a * t * (a**3 + a * b + 2 * b**3)),
        "product-branch": (1 + a * b) * (b + b * a * b) - (a + b * b) ** 2 == t * (b**3 - 1),
        "palindrome-branch": 2 + 2 * a**3 - 2 * a - 2 * a * a == 2 * (a - 1) ** 2 * (a + 1),
    }
