"""The explicit tractability criteria and the algebra behind them.

classify_ternary decides, for a nonnegative ternary signature paired
with ternary equality, whether the partition function is polynomial-time
computable (degenerate / generalized equality / affine) or #P-hard.
classify_binary23 is the matching criterion for a binary signature
paired with ternary equality. The verify_* functions mechanically check
the polynomial identities that drive the hardness case analysis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ArityMismatch, NegativeEntry, ZeroDelta
from .exact import frac, scalar_is_zero
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
    if scalar_is_zero(x0) and scalar_is_zero(x3):
        if scalar_is_zero(x1) or scalar_is_zero(x2):
            return "exact-one family [0,1,0,0]"
        return "family [0,1,b,0], b > 0"
    form, _, _ = normalize(f)
    a, b, c = form[1], form[2], form[3]
    if not scalar_is_zero(a) and not scalar_is_zero(b):
        return "family [1,a,b,c], ab > 0, non-degenerate"
    if not scalar_is_zero(a):  # b == 0
        return "family [1,a,0,c], a > 0"
    if c == 1:
        return "family [1,0,b,1], b > 0"
    if scalar_is_zero(c):
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

    Over the rationals Z >= 0, so the Z=-1 branch is present but
    unreachable; it matters only over wider fields.
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
    elif x == -1 and z == -1:
        case = 4  # impossible over the rationals; kept for the record
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
    rhs = scalar_is_zero((a**3 - b**3 - a * b * (1 - c)) * (a * b - c))
    return lhs, rhs


@dataclass
class IdentityReport:
    total: int = 0
    passed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, detail=None):
        self.total += 1
        if ok:
            self.passed += 1
        elif len(self.failures) < 10:
            self.failures.append(detail)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total


def _random_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def verify_case_identities(samples: int = 200, seed: int = 0) -> dict[str, IdentityReport]:
    """Randomized equivalence suites for the case-analysis algebra.

    middle-branch: under a^3 - b^3 = ab(1-c), the degeneracy condition
        of the connected binary a(a+b^2)(a^2 b + b^2 c) = (a^3+b^3)^2
        holds iff (a^2-b)(a^3+ab+2b^3) = 0.
    product-branch: under c = ab, (1+ab)(b+bc) = (a+b^2)^2 iff
        (a^2-b)(b^3-1) = 0.
    palindrome-branch: 2+2a^3 = 2a+2a^2 iff (a-1)^2 (a+1) = 0.
    """
    rng = random.Random(seed)
    reports = {
        "middle-branch": IdentityReport(),
        "product-branch": IdentityReport(),
        "palindrome-branch": IdentityReport(),
    }

    for _ in range(samples):
        a, b = _random_positive(rng), _random_positive(rng)
        c = 1 - (a**3 - b**3) / (a * b)
        lhs = (1 + b * b / a) * (b + b * b * c / (a * a)) == (a + b**3 / (a * a)) ** 2
        rhs = (a * a - b) * (a**3 + a * b + 2 * b**3) == 0
        reports["middle-branch"].record(lhs == rhs, (a, b, c))

    for _ in range(samples):
        a, b = _random_positive(rng), _random_positive(rng)
        if rng.random() < 0.25:
            b = a * a  # hit the degenerate branch too
        c = a * b
        lhs = (1 + a * b) * (b + b * c) == (a + b * b) ** 2
        rhs = (a * a - b) * (b**3 - 1) == 0
        reports["product-branch"].record(lhs == rhs, (a, b))

    for _ in range(samples):
        a = _random_positive(rng) if rng.random() < 0.8 else Fraction(1)
        lhs = 2 + 2 * a**3 == 2 * a + 2 * a * a
        rhs = (a - 1) ** 2 * (a + 1) == 0
        reports["palindrome-branch"].record(lhs == rhs, (a,))

    return reports
