import random
from fractions import Fraction

import pytest

from holant3.dichotomy import (
    FP,
    HARD,
    _Poly,
    classify_binary23,
    classify_ternary,
    verify_case_identities,
    verify_factorization_identity,
)
from holant3.errors import NegativeEntry
from holant3.signatures import SymSig, jordan, reverse, straddled_from_f
from conftest import rand_nonneg_sig, rand_positive


def test_classify_worked_examples():
    assert classify_ternary(SymSig([5, 0, 0, 7])).matched_case == 2
    aff = classify_ternary(SymSig([1, 0, 1, 0]))
    assert aff.matched_case == 3 and aff.reason == "affine"
    assert classify_ternary(SymSig([0, 1, 1, 0])).verdict == HARD
    assert classify_ternary(SymSig([1, 1, 0, 0])).verdict == HARD
    deg = classify_ternary(SymSig([1, 2, 4, 8]))
    assert deg.verdict == FP and deg.matched_case == 1


def test_classify_rejects_negative():
    with pytest.raises(NegativeEntry):
        classify_ternary(SymSig([1, -1, 1, 1]))


def test_all_matches_listed():
    cls = classify_ternary(SymSig([0, 0, 0, 0]))
    assert cls.matches == (1, 2, 3) and cls.matched_case == 1
    cls = classify_ternary(SymSig([1, 0, 0, 1]))
    assert 2 in cls.matches and cls.verdict == FP


def test_reversal_and_scaling_invariance():
    rng = random.Random(30)
    for _ in range(60):
        f = rand_nonneg_sig(rng)
        cls = classify_ternary(f)
        assert classify_ternary(reverse(f)).verdict == cls.verdict
        scale = rand_positive(rng)
        assert classify_ternary(SymSig([v * scale for v in f])).verdict == cls.verdict


def test_binary23_examples():
    assert classify_binary23(1, 1).verdict == "P"
    assert classify_binary23(0, 0).verdict == "P"
    hard = classify_binary23(2, 1)
    assert hard.verdict == HARD and hard.x_value == 2 and hard.z_value == Fraction(81, 4)


def test_binary23_negative_branch_reachable():
    # X = -1, Z = 0 is representable over the rationals
    cls = classify_binary23(1, -1)
    assert cls.verdict == "P" and cls.matched_case == 3
    # Z = -1 is impossible over the rationals: Z is a square
    rng = random.Random(31)
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert classify_binary23(a, b).z_value >= 0


def test_binary23_nonneg_reduction():
    """Over nonnegative inputs the four cases collapse to ab = 1 or a = b = 0."""
    rng = random.Random(32)
    for _ in range(200):
        a = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        if rng.random() < 0.2 and a != 0:
            b = 1 / a
        expected = "P" if (a * b == 1 or (a == 0 and b == 0)) else HARD
        assert classify_binary23(a, b).verdict == expected


def test_factorization_identity_directed_cases():
    assert verify_factorization_identity(1, 1, 1) == (True, True)
    assert verify_factorization_identity(1, 1, 2) == (False, False)


def test_factorization_lhs_implies_rhs():
    rng = random.Random(33)
    checked = 0
    for _ in range(400):
        a, b, c = rand_positive(rng), rand_positive(rng), rand_positive(rng)
        if rng.random() < 0.3:
            c = a * b  # land on the rhs zero set sometimes
        lhs, rhs = verify_factorization_identity(a, b, c)
        if lhs:
            assert rhs
            checked += 1
    # the implication direction must actually get exercised
    assert checked >= 1


def test_factorization_converse_fails_on_thin_set():
    # ab = c with b != a^2: rhs vanishes, lhs does not
    lhs, rhs = verify_factorization_identity(1, 2, 2)
    assert rhs and not lhs


def test_case_identity_suites_pass():
    assert verify_case_identities() == {"factorization": True, "middle-branch": True,
                                        "product-branch": True, "palindrome-branch": True}


def test_polynomial_check_rejects_a_perturbed_identity():
    a, b = _Poly({(1, 0, 0): 1}), _Poly({(0, 1, 0): 1})
    lhs = (1 + a * b) * (b + b * a * b) - (a + b * b) ** 2
    assert lhs == (a * a - b) * (b**3 - 1)
    assert not lhs == (a * a - b) * (b**3 + 1)
    assert not lhs == (a * a - b) * (b**3 - 1) + 1


def test_factorization_lhs_is_the_linear_equation_in_y():
    """The step the proof takes from verify_factorization_identity's lhs:
    with y the jordan parameter, lhs iff y (a^2 - b) = b^2 - ac."""
    rng = random.Random(34)
    triples = [(1, 1, 1), (2, 4, 8), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))]
    for _ in range(300):
        a, b, c = rand_positive(rng), rand_positive(rng), rand_positive(rng)
        triples += [(a, b, c), (a, a * a, c), (a, b, 1 - (a**3 - b**3) / (a * b))]
    hits = 0
    for a, b, c in triples:
        lhs, _ = verify_factorization_identity(a, b, c)
        y = jordan(straddled_from_f(SymSig([1, a, b, c]))).y
        assert lhs == (y * (a * a - b) == b * b - a * c), (a, b, c)
        hits += lhs
    assert hits >= 3


def test_exact_one_with_middle_weight_reduction_chain():
    """The four-square gadget output [3b^2, 1+2b^3, 2b+b^4, 3b^2] is
    degenerate only at b = 1 (its middle Hankel minor factors as a
    square of b^3 - 1), so the gadget feeds every b != 1 into the hard
    ab != 0 family; b = 1 routes through the hub gadget instead, whose
    output [3,2,2,3] is itself in that hard family."""
    from holant3.signatures import is_degenerate, normalize
    from holant3.gadgets import build_double_hub_gadget
    from holant3.grid import contract

    rng = random.Random(34)
    for _ in range(30):
        b = rand_positive(rng)
        out = SymSig([3 * b * b, 1 + 2 * b ** 3, 2 * b + b ** 4, 3 * b * b])
        # the decisive minor carries a perfect square of b^3 - 1
        minor = out[1] * out[3] - out[2] * out[2]
        assert minor == -b * b * (b ** 3 - 1) ** 2
        assert is_degenerate(out) == (b == 1)
        if b != 1:
            form, _, _ = normalize(out)
            assert form[1] != 0 and form[2] != 0  # lands in the ab != 0 family

    hub_out, _ = contract(build_double_hub_gadget(SymSig([0, 1, 1, 0])))
    sig = hub_out.to_symmetric()
    assert sig == SymSig([3, 2, 2, 3])
    assert classify_ternary(sig).verdict == HARD
    form, _, _ = normalize(sig)
    assert form[1] != 0 and form[2] != 0


def test_hardness_tags_follow_normalized_family():
    assert classify_ternary(SymSig([0, 1, 0, 0])).hardness_case == "exact-one family [0,1,0,0]"
    assert classify_ternary(SymSig([0, 1, 5, 0])).hardness_case == "family [0,1,b,0], b > 0"
    assert classify_ternary(SymSig([1, 2, 3, 4])).hardness_case == \
        "family [1,a,b,c], ab > 0, non-degenerate"
    assert classify_ternary(SymSig([1, 1, 0, 0])).hardness_case == "family [1,a,0,c], a > 0"
    assert classify_ternary(SymSig([1, 0, 5, 1])).hardness_case == "family [1,0,b,1], b > 0"
    assert classify_ternary(SymSig([1, 0, 5, 0])).hardness_case == "family [1,0,b,0], b not in {0,1}"
    assert classify_ternary(SymSig([1, 0, 5, 3])).hardness_case == \
        "family [1,0,b,c], b > 0, c not in {0,1}"
    # reversal lands in the same families after normalization
    assert classify_ternary(SymSig([0, 0, 1, 1])).hardness_case == "family [1,a,0,c], a > 0"
