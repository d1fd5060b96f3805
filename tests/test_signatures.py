import random
from fractions import Fraction

import pytest

from holant3.errors import NormalizationUndefined, ZeroA, ZeroDelta
from holant3.exact import QuadExt
from holant3.gadgets import build_transfer_chain, build_transfer_gadget
from holant3.grid import contract
from holant3.signatures import (
    EQ3,
    Mat2,
    SymSig,
    Tensor,
    affine_scale,
    eigenvalues,
    hadamard_transform,
    is_degenerate,
    is_generalized_equality,
    jordan,
    matrix_power,
    normalize,
    reverse,
    straddled_from_f,
    sym_to_tensor,
    transform_sym,
)
from conftest import rand_nonneg_sig


def test_sym_to_tensor_equality_and_weight_one():
    t = sym_to_tensor(EQ3)
    assert t.value_at(0b000) == 1 and t.value_at(0b111) == 1
    assert all(t.value_at(p) == 0 for p in range(1, 7))
    f = SymSig([10, 11, 12, 13])
    tf = sym_to_tensor(f)
    assert tf.value_at(0b001) == tf.value_at(0b010) == tf.value_at(0b100) == 11


def test_sym_to_tensor_arity_zero_scalar():
    t = sym_to_tensor(SymSig([5]))
    assert t.arity == 0 and t.value_at(0) == 5


def test_normalize_examples():
    form, scalar, flipped = normalize(SymSig([2, 4, 6, 8]))
    assert (form.values, scalar, flipped) == ((1, 2, 3, 4), 2, False)
    form, scalar, flipped = normalize(SymSig([0, 1, 2, 3]))
    assert form == SymSig([1, Fraction(2, 3), Fraction(1, 3), 0])
    assert (scalar, flipped) == (3, True)
    with pytest.raises(NormalizationUndefined):
        normalize(SymSig([0, 1, 1, 0]))


def test_normalize_reconstruction_random():
    rng = random.Random(4)
    for _ in range(50):
        f = rand_nonneg_sig(rng)
        try:
            form, scalar, flipped = normalize(f)
        except NormalizationUndefined:
            assert f[0] == 0 and f[3] == 0
            continue
        rebuilt = SymSig([v * scalar for v in (reverse(form) if flipped else form)])
        assert rebuilt == f and scalar > 0


def test_reverse():
    assert reverse(SymSig([1, 0, 2, 0])) == SymSig([0, 2, 0, 1])
    pal = SymSig([1, 5, 5, 1])
    assert reverse(pal) == pal
    rng = random.Random(5)
    for _ in range(30):
        f = rand_nonneg_sig(rng)
        assert reverse(reverse(f)) == f


def test_is_degenerate():
    assert is_degenerate(SymSig([1, 2, 4, 8]))
    assert not is_degenerate(SymSig([0, 1, 1, 0]))
    rng = random.Random(6)
    for _ in range(30):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        assert is_degenerate(SymSig([1, a, a * a, a ** 3]))
    # one vanishing minor is not enough
    assert not is_degenerate(SymSig([8, 0, 0, 27]))


def test_degeneracy_matches_unary_reconstruction_suite():
    """200 cases: tensor cubes of rational unaries vs. perturbations,
    decided independently by reconstructing the unary from the entries."""
    rng = random.Random(7)

    def reconstructs(f: SymSig) -> bool:
        x0, x1, x2, x3 = f.values
        if x0 != 0:
            r = x1 / x0
            return x2 == x0 * r * r and x3 == x0 * r ** 3
        # u0 = 0 forces x1 = x2 = 0
        return x1 == 0 and x2 == 0

    for _ in range(200):
        p = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        cube = SymSig([p ** 3, p * p * q, p * q * q, q ** 3])
        if rng.random() < 0.5:
            assert is_degenerate(cube) == reconstructs(cube) == True  # noqa: E712
        else:
            vals = list(cube.values)
            slot = rng.randrange(4)
            vals[slot] = vals[slot] + Fraction(rng.randint(1, 3))
            bumped = SymSig(vals)
            assert is_degenerate(bumped) == reconstructs(bumped)


def test_hadamard_displayed_values():
    assert hadamard_transform(EQ3, "H", "left") == SymSig([2, 0, 2, 0])
    got = hadamard_transform(SymSig([0, 1, 1, 0]), "H_inverse", "right")
    assert got == SymSig([Fraction(3, 4), 0, Fraction(-1, 4), 0])


def test_transform_identity_and_inverse_roundtrip():
    rng = random.Random(8)
    ident = Mat2.identity()
    for _ in range(20):
        f = rand_nonneg_sig(rng)
        assert transform_sym(f, ident, "left") == f
        back = hadamard_transform(hadamard_transform(f, "H", "left"), "H_inverse", "left")
        assert back == f


def test_straddled_matrix():
    m = straddled_from_f(SymSig([1, 5, 7, 9]))
    assert m.rows == ((1, 7), (5, 9))
    assert straddled_from_f(EQ3) == Mat2.identity()


def test_straddled_equals_transfer_gadget_contraction():
    rng = random.Random(9)
    for _ in range(50):
        f = rand_nonneg_sig(rng)
        tensor, pols = contract(build_transfer_gadget(f))
        assert pols == ("L", "R")
        m = straddled_from_f(f)
        assert tensor.value_at(0b00) == m[0][0]
        assert tensor.value_at(0b01) == m[1][0]
        assert tensor.value_at(0b10) == m[0][1]
        assert tensor.value_at(0b11) == m[1][1]


def test_jordan_flat_signature():
    jd = jordan(straddled_from_f(SymSig([1, 1, 1, 1])))
    assert (jd.delta, jd.lam, jd.mu, jd.x, jd.y) == (2, 0, 2, 1, 1)


def test_jordan_1234():
    jd = jordan(Mat2(((1, 3), (2, 4))))
    root33 = QuadExt(0, 1, 33)
    assert jd.delta == root33
    assert jd.x == (root33 + 3) / 4
    assert jd.y == (root33 - 3) / 4
    assert jd.x * jd.y == Fraction(3, 2)


def test_jordan_errors():
    with pytest.raises(ZeroA):
        jordan(straddled_from_f(EQ3))           # a = 0
    with pytest.raises(ZeroDelta):
        jordan(Mat2(((1, 0), (2, 1))))          # c = 1, b = 0: discriminant 0


def test_eigenvalues_split_or_raise_zero_delta():
    assert eigenvalues(Mat2(((1, 1), (1, 1)))) == (2, 0, 2)
    assert eigenvalues(Mat2(((-1, 0), (1, 0)))) == (1, -1, 0)     # lower-left nonzero, mu = 0
    assert eigenvalues(Mat2(((3, 5), (0, 1)))) == (2, 1, 3)       # triangular: no ZeroA here
    root33 = QuadExt(0, 1, 33)
    assert eigenvalues(Mat2(((1, 3), (2, 4)))) == (root33, (5 - root33) / 2, (5 + root33) / 2)
    for m in (Mat2(((1, 1), (0, 1))), Mat2(((2, 0), (0, 2))), Mat2(((0, -1), (1, 0)))):
        with pytest.raises(ZeroDelta):
            eigenvalues(m)


def test_tractable_shapes():
    assert is_generalized_equality(EQ3) and is_generalized_equality(SymSig([2, 0, 0, 0, 3]))
    assert is_generalized_equality(SymSig([1, 5]))
    assert not is_generalized_equality(SymSig([1, 0, 1, 0]))
    assert not is_generalized_equality(SymSig([4]))
    assert affine_scale(SymSig([3, 0, 3, 0])) == 3 and affine_scale(SymSig([0, 2, 0, 2])) == 2
    assert affine_scale(SymSig([0, 0, 0, 0])) == 0
    for f in ([1, 0, 2, 0], [0, 1, 0, 0], [1, 1, 1, 1], [1, 0, 0, 1]):
        assert affine_scale(SymSig(f)) is None


def test_tensor_symmetry_reads_each_weight_class():
    assert sym_to_tensor(SymSig([1, 2, 3, 4])).is_symmetric()
    assert not Tensor(2, (1, 2, 3, 4)).is_symmetric()
    assert not Tensor(3, (1, 2, 2, 3, 2, 9, 3, 4)).is_symmetric()   # patterns 3 and 5 differ
    assert Tensor(0, (7,)).is_symmetric()


def test_jordan_invariants_random():
    rng = random.Random(10)
    done = 0
    while done < 100:
        a = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        b = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        c = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        m = straddled_from_f(SymSig([1, a, b, c]))
        try:
            jd = jordan(m)
        except ZeroDelta:
            continue
        assert jd.reconstruct() == m
        assert jd.x + jd.y == jd.delta / a
        assert jd.x * jd.y == b / a
        assert jd.delta >= abs(1 - c)
        assert jd.x >= 0 and jd.y >= 0
        done += 1


def test_matrix_power():
    m = Mat2(((1, 1), (1, 1)))
    assert matrix_power(m, 0) == Mat2.identity()
    assert matrix_power(m, 3) == Mat2(((4, 4), (4, 4)))


def test_matrix_power_equals_chain_contraction():
    rng = random.Random(11)
    for s in (1, 2, 3, 4):
        f = rand_nonneg_sig(rng)
        tensor, _ = contract(build_transfer_chain(f, s))
        m = matrix_power(straddled_from_f(f), s)
        assert (tensor.value_at(0b00), tensor.value_at(0b10),
                tensor.value_at(0b01), tensor.value_at(0b11)) == (
            m[0][0], m[0][1], m[1][0], m[1][1])


def test_negative_entries_allowed_in_sigs():
    s = SymSig([3, 0, -1, 0])
    assert s.value_at(0b011) == -1
    assert not s.is_nonnegative()
