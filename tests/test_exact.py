import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from holant3.exact import QuadExt, frac, sqrt_exact
from holant3.errors import MixedRadicands, NegativeRadicand, NotRational
from holant3.grid import SignatureGrid, holant
from holant3.planar import pfaffian
from holant3.signatures import Mat2, SymSig, jordan


def test_sqrt_exact_perfect_squares_collapse():
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(0) == 0
    r = sqrt_exact(Fraction(2))
    assert isinstance(r, QuadExt) and r * r == 2


def test_sqrt_negative_rejected():
    with pytest.raises(NegativeRadicand):
        sqrt_exact(Fraction(-1))


def test_perfect_square_radicand_folds_to_rational():
    v = QuadExt(Fraction(1, 3), Fraction(2), Fraction(25, 16))
    assert type(v) is Fraction
    assert v == Fraction(1, 3) + Fraction(2) * Fraction(5, 4)


def test_mixed_radicands_rejected():
    a = QuadExt(0, 1, 2)
    b = QuadExt(0, 1, 3)
    with pytest.raises(MixedRadicands):
        a + b
    # rational-valued elements mix with anything
    assert (QuadExt(5) + a) == QuadExt(5, 1, 2)


def test_radicands_of_one_field_mix_and_compare_by_value():
    r8, r2 = sqrt_exact(8), sqrt_exact(2)
    assert r8 + r2 == 3 * r2 and r8 - r2 == r2
    assert r8 * r2 == 4 and type(r8 * r2) is Fraction and r8 / r2 == 2
    assert QuadExt(0, 2, 2) == r8 and hash(QuadExt(0, 2, 2)) == hash(r8)
    assert len({r8, QuadExt(0, 2, 2), QuadExt(0, 4, Fraction(1, 2))}) == 1
    assert r8 != -r8 and QuadExt(1, 2, 2) != QuadExt(0, 2, 2)
    assert r8 > r2 and r2 < r8 and QuadExt(3, -1, 8) < QuadExt(3, -1, 2)


def test_rational_projection():
    v = QuadExt(Fraction(7, 2))
    assert type(v) is Fraction and v == Fraction(7, 2)
    with pytest.raises(NotRational):
        frac(QuadExt(0, 1, 5))


def test_rat_associativity_and_canonical_form():
    rng = random.Random(1)
    for _ in range(300):
        p = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        r = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert math.gcd(p.numerator, p.denominator) == 1 and p.denominator > 0


def _rand_quadext(rng, rad):
    return QuadExt(Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
                   Fraction(rng.randint(-8, 8), rng.randint(1, 8)), rad)


def test_quadext_field_inverse():
    rng = random.Random(2)
    rad = Fraction(33)
    for _ in range(300):
        p = _rand_quadext(rng, rad)
        q = _rand_quadext(rng, rad)
        if not p:
            continue
        assert (p * q) * (1 / p) == q
        assert p * (1 / p) == 1


def test_quadext_sign_matches_float_on_1000_samples():
    rng = random.Random(3)
    rads = [Fraction(2), Fraction(33), Fraction(5, 7)]
    checked = 0
    for _ in range(2000):
        v = _rand_quadext(rng, rng.choice(rads))
        approx = float(v)
        if abs(approx) <= 1e-9:
            continue
        assert (v > 0) - (v < 0) == (1 if approx > 0 else -1)
        checked += 1
        if checked >= 1000:
            break
    assert checked >= 1000


def test_quadext_comparisons_and_pow():
    d = sqrt_exact(Fraction(2))
    assert d > 1 and d < 2 and d >= d
    assert d ** 4 == 4
    assert d ** -2 == Fraction(1, 2)
    assert (1 + d) * (1 - d) == -1


def test_quadext_zero_division():
    with pytest.raises(ZeroDivisionError):
        1 / QuadExt(0, 0, 0)
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 1, 2) / 0


# -- canonical form: a QuadExt is always irrational ---------------------------

RADICANDS = [Fraction(2), Fraction(33), Fraction(5, 7)]


def _pair(x, rad):
    """(base, coeff) of a scalar of Q(sqrt(rad)), checked canonical: a
    rational is an int or a Fraction, a QuadExt has coeff != 0 over rad."""
    if isinstance(x, QuadExt):
        assert x.coeff != 0 and x.rad == rad
        return x.base, x.coeff
    assert type(x) in (int, Fraction)
    return Fraction(x), Fraction(0)


def _reference(op, x, y, e, rad):
    """The operation on (base, coeff) pairs, independent of QuadExt."""
    (a, b), (c, d) = _pair(x, rad), _pair(y, rad)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c + b * d * rad, a * d + b * c
    if op == "/":
        norm = c * c - d * d * rad
        return (a * c - b * d * rad) / norm, (b * c - a * d) / norm
    if e < 0:
        norm = a * a - b * b * rad
        a, b = a / norm, -b / norm
    acc = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        acc = (acc[0] * a + acc[1] * b * rad, acc[0] * b + acc[1] * a)
    return acc


_OPS = {"+": lambda x, y, e: x + y, "-": lambda x, y, e: x - y,
        "*": lambda x, y, e: x * y, "/": lambda x, y, e: x / y, "**": lambda x, y, e: x ** e}
_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rad=st.sampled_from(RADICANDS),
       seeds=st.lists(st.tuples(_small, _small), min_size=1, max_size=3),
       steps=st.lists(st.tuples(st.sampled_from(sorted(_OPS)), st.integers(0, 63),
                                st.integers(0, 63), st.integers(-3, 3)), max_size=12))
def test_operations_never_yield_a_rational_valued_quadext(rad, seeds, steps):
    """Random + - * / ** chains in Q(sqrt(rad)) held to (base, coeff)
    pair arithmetic: each result is a Fraction exactly when its
    irrational part is zero, and a QuadExt with coeff != 0 otherwise."""
    root = sqrt_exact(rad)
    pool = [root, -root] + [QuadExt(b, c, rad) for b, c in seeds]
    for op, i, j, e in steps:
        x, y = pool[i % len(pool)], pool[j % len(pool)]
        if (op == "/" and not y) or (op == "**" and not x and e < 0):
            continue
        z = _OPS[op](x, y, e)
        assert _pair(z, rad) == _reference(op, x, y, e, rad)
        pool.append(z)


def test_cancelling_operations_return_fractions():
    for rad in RADICANDS:
        r = sqrt_exact(rad)
        for value in (r - r, r * r, r / r, r ** 2, r ** -2, (1 + r) * (1 - r), (2 + r) + (-r),
                      QuadExt(3, 0, rad), 1 / r * r):
            assert type(value) is Fraction
        assert isinstance(r + r, QuadExt) and r != rad and r != 0


def test_library_results_with_rational_value_are_fractions():
    # jordan on a perfect-square discriminant: (1 - 0)^2 + 4*2*1 = 9
    jd = jordan(Mat2(((1, 2), (1, 0))))
    assert (jd.delta, jd.lam, jd.mu, jd.x, jd.y) == (3, -1, 2, 1, 2)
    assert all(type(v) is Fraction for v in (jd.delta, jd.lam, jd.mu, jd.x, jd.y))
    # Pf = a01 a23 - a02 a13 + a03 a12 with irrational entries, rational value
    r = sqrt_exact(2)
    skew = [[0, 1 + r, r, 0], [-1 - r, 0, 0, r], [-r, 0, 0, 1 - r], [0, -r, r - 1, 0]]
    pf = pfaffian(skew)
    assert type(pf) is Fraction and pf == -3
    # two weighted equalities joined by a triple edge: 2 * (1/3) + r * r
    pair = SignatureGrid()
    pair.add_vertex("p", SymSig([2, 0, 0, r]), "L")
    pair.add_vertex("q", SymSig([Fraction(1, 3), 0, 0, r]), "R")
    for s in range(3):
        pair.add_edge(("p", s), ("q", s))
    value = holant(pair)
    assert type(value) is Fraction and value == Fraction(8, 3)


def _over(x, rad):
    """(base, coeff) of x over sqrt(rad), for a radicand that is rad times
    a rational square."""
    if not isinstance(x, QuadExt):
        return Fraction(x), Fraction(0)
    ratio = x.rad / rad
    root = Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
    assert root * root == ratio
    return x.base, x.coeff * root


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rad=st.sampled_from(RADICANDS),
       seeds=st.lists(st.tuples(_small, _small, st.sampled_from([1, 2, Fraction(3, 2),
                                                                  Fraction(1, 5)])),
                      min_size=2, max_size=4),
       steps=st.lists(st.tuples(st.sampled_from(sorted(_OPS)), st.integers(0, 63),
                                st.integers(0, 63), st.integers(-3, 3)), max_size=12))
def test_radicands_differing_by_a_square_factor_mix(rad, seeds, steps):
    """Operands over rad * t^2 for several t give the values that the
    same operands rewritten over rad give, and compare equal to them."""
    pool = [QuadExt(b, c, rad * t * t) for b, c, t in seeds]
    for op, i, j, e in steps:
        x, y = pool[i % len(pool)], pool[j % len(pool)]
        if (op == "/" and not y) or (op == "**" and not x and e < 0):
            continue
        z = _OPS[op](x, y, e)
        want = _OPS[op](QuadExt(*_over(x, rad), rad), QuadExt(*_over(y, rad), rad), e)
        assert _over(z, rad) == _over(want, rad)
        assert z == want and hash(z) == hash(want)
        pool.append(z)
