import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from holant3.errors import ArityMismatch, GridStructureError
from holant3.gadgets import (
    _biadjacency_matrices,
    build_double_hub_gadget,
    build_transfer_gadget,
    build_unary_probe,
    gadget_search,
)
from holant3.grid import contract
from holant3.signatures import SymSig, Tensor, jordan, straddled_from_f
from conftest import rand_positive


def test_double_hub_signatures():
    t, pols = contract(build_double_hub_gadget(SymSig([0, 1, 1, 0])))
    assert set(pols) == {"L"}
    assert t.to_symmetric() == SymSig([3, 2, 2, 3])
    rng = random.Random(21)
    for _ in range(10):
        a = rand_positive(rng)
        t, _ = contract(build_double_hub_gadget(SymSig([1, a, 1, a])))
        assert t.to_symmetric() == SymSig(
            [2 + 2 * a ** 3, 2 * a + 2 * a * a, 2 * a + 2 * a * a, 2 + 2 * a ** 3])


def test_unary_probe_formula():
    rng = random.Random(22)
    for _ in range(10):
        a, b, c = rand_positive(rng), rand_positive(rng), rand_positive(rng)
        y = rand_positive(rng)
        t, pols = contract(build_unary_probe(SymSig([1, a, b, c]), SymSig([y, 1])))
        assert pols == ("R",)
        assert (t.value_at(0), t.value_at(1)) == (y * y + y * b, y * a + c)


def test_probe_matches_eigen_exception_equation():
    """The probe output [y^2+yb, ya+c] hits the row eigenvector [1, x]
    exactly when the factorization identity's left side holds."""
    a, b, c = Fraction(1), Fraction(1), Fraction(1)
    jd = jordan(straddled_from_f(SymSig([1, a, b, c])))
    t, _ = contract(build_unary_probe(SymSig([1, a, b, c]), SymSig([jd.y, 1])))
    assert t.value_at(1) == jd.x * t.value_at(0)


def test_probe_with_irrational_eigenparameter():
    """Contraction stays exact when the probe unary lives in Q(sqrt(d))."""
    f = SymSig([1, 2, 3, 4])
    jd = jordan(straddled_from_f(f))        # y = (sqrt(33) - 3) / 4
    t, _ = contract(build_unary_probe(f, SymSig([jd.y, 1])))
    y, a, b, c = jd.y, f[1], f[2], f[3]
    assert t.value_at(0) == y * y + y * b
    assert t.value_at(1) == y * a + c
    # generic signature: the probe is not a row eigenvector
    assert t.value_at(1) != jd.x * t.value_at(0)


def test_gadget_search_finds_transfer_gadget():
    f = SymSig([1, 2, 3, 4])
    m = straddled_from_f(f)
    target = Tensor(2, (m[0][0], m[1][0], m[0][1], m[1][1]))
    found = gadget_search(f, target, max_f=1, max_eq=1, polarities=("L", "R"))
    assert found is not None
    got, pols = contract(found)
    assert got.entries == target.entries and tuple(pols) == ("L", "R")


def test_gadget_search_finds_double_hub_for_3223():
    found = gadget_search(SymSig([0, 1, 1, 0]), SymSig([3, 2, 2, 3]), max_f=3, max_eq=2)
    assert found is not None
    got, pols = contract(found)
    assert pols == ("L", "L", "L")
    assert got.to_symmetric() == SymSig([3, 2, 2, 3])


def test_gadget_search_scalar_freedom():
    # targets are matched up to a positive scalar
    found = gadget_search(SymSig([0, 1, 1, 0]), SymSig([6, 4, 4, 6]), max_f=3, max_eq=2)
    assert found is not None


def test_gadget_search_miss_returns_none():
    assert gadget_search(SymSig([1, 0, 0, 1]), SymSig([1, 2, 3, 4]), max_f=1, max_eq=1) is None


def test_gadget_search_ternary_candidate_for_0120():
    """[3b^2, 1+2b^3, 2b+b^4, 3b^2] at b=2 needs four squares and three
    circles: a clean miss inside (3,2), found at (4,3)."""
    b = Fraction(2)
    target = SymSig([3 * b * b, 1 + 2 * b ** 3, 2 * b + b ** 4, 3 * b * b])
    assert gadget_search(SymSig([0, 1, b, 0]), target, max_f=3, max_eq=2) is None
    found = gadget_search(SymSig([0, 1, b, 0]), target, max_f=4, max_eq=3)
    assert found is not None
    got, pols = contract(found)
    assert pols == ("L", "L", "L")
    assert got.to_symmetric() == target


def test_four_square_gadget_output_families():
    """One topology -- squares 0..2 each missing one circle and keeping a
    dangling port, square 3 wired to all three circles -- produces both
    of these output families, including the quartic term that only four
    squares can generate."""
    from holant3.gadgets import _grid_from_biadjacency

    matrix = ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))
    rng = random.Random(23)

    def signature_of(f):
        got, _ = contract(_grid_from_biadjacency(f, matrix))
        return got.to_symmetric()

    for _ in range(10):
        b = rand_positive(rng)
        assert signature_of(SymSig([0, 1, b, 0])) == SymSig(
            [3 * b * b, 1 + 2 * b ** 3, 2 * b + b ** 4, 3 * b * b])
    for _ in range(10):
        a, c = rand_positive(rng), Fraction(rng.randint(0, 9), rng.randint(1, 4))
        assert signature_of(SymSig([1, a, 0, c])) == SymSig(
            [1 + 3 * a ** 3, a + a ** 4, a * a, a ** 3 + c ** 4])


def test_transfer_gadget_polarities():
    g = build_transfer_gadget(SymSig([1, 1, 1, 1]))
    assert [g.polarity_of(p) for p in g.dangling] == ["L", "R"]


def _orbit(matrix):
    """Every matrix reached by permuting the rows and the columns."""
    n_cols = len(matrix[0]) if matrix else 0
    return {rows for cp in permutations(range(n_cols))
            for rows in permutations(tuple(tuple(row[j] for j in cp) for row in matrix))}


@pytest.mark.parametrize("n_f", range(5))
def test_biadjacency_matrices_yield_each_orbit_lexmin_once(n_f):
    """Against brute force: every matrix with entries 0..3 and row and
    column sums <= 3 lies in the orbit of exactly one yielded matrix,
    and that matrix is the least of its n_f! * n_eq! permutations."""
    for n_eq in range(5):
        row_set = [r for r in product(range(4), repeat=n_eq) if sum(r) <= 3]
        by_total = {}
        for m in product(row_set, repeat=n_f):
            if all(sum(col) <= 3 for col in zip(*m)):
                by_total.setdefault(sum(map(sum, m)), set()).add(m)
        for total in range(3 * min(n_f, n_eq) + 2):
            covered = set()
            for rep in _biadjacency_matrices(n_f, n_eq, total):
                orbit = _orbit(rep)
                assert rep == min(orbit), (n_f, n_eq, total, rep)
                assert not orbit & covered, (n_f, n_eq, total, rep)
                covered |= orbit
            assert covered == by_total.get(total, set()), (n_f, n_eq, total)


def _reference_canonical_biadjacency(matrix: tuple) -> tuple:
    """The least of the sorted rows over all column permutations."""
    n_cols = len(matrix[0]) if matrix else 0
    return min(tuple(sorted(tuple(row[j] for j in cp) for row in matrix))
               for cp in permutations(range(n_cols)))


def _reference_biadjacency_matrices(n_f: int, n_eq: int, total: int):
    """The search on row tuples, with a list of column budgets and one
    canonical form per nonincreasing row sequence."""
    seen = set()
    col_budget = [3] * n_eq
    candidates = [(row, sum(row)) for row in product(range(4), repeat=n_eq)
                  if sum(row) <= 3]

    def rows(i: int, remaining: int, acc: list):
        if i == n_f:
            if remaining == 0:
                canon = _reference_canonical_biadjacency(tuple(acc))
                if canon not in seen:
                    seen.add(canon)
                    yield canon
            return
        for row, row_sum in candidates:
            if acc and row > acc[-1]:
                break
            if (row_sum > remaining or remaining - row_sum > 3 * (n_f - 1 - i)
                    or any(v > b for v, b in zip(row, col_budget))):
                continue
            for j, v in enumerate(row):
                col_budget[j] -= v
            acc.append(row)
            yield from rows(i + 1, remaining - row_sum, acc)
            acc.pop()
            for j, v in enumerate(row):
                col_budget[j] += v

    yield from rows(0, total, [])


@pytest.mark.parametrize("n_f", range(6))
def test_biadjacency_matrices_keep_the_reference_order(n_f):
    """The order decides gadget_search's first hit, so the search yields
    the reference's representatives in the reference's order."""
    for n_eq in range(5):
        for total in range(3 * min(n_f, n_eq) + 2):
            assert (list(_biadjacency_matrices(n_f, n_eq, total))
                    == list(_reference_biadjacency_matrices(n_f, n_eq, total))), \
                (n_f, n_eq, total)


@pytest.mark.parametrize("polarities, error", [
    (("L", "L"), ArityMismatch),
    ("LLLL", ArityMismatch),
    (("L", "X", "R"), GridStructureError),
    ("lll", GridStructureError),
])
def test_gadget_search_refuses_bad_polarities_before_searching(polarities, error, monkeypatch):
    import holant3.gadgets as gadgets_module

    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(gadgets_module, "_biadjacency_matrices", no_search)
    with pytest.raises(error):
        gadget_search(SymSig([1, 2, 3, 5]), SymSig([1, 1, 1, 1]), 4, 4, polarities=polarities)


def test_gadget_search_misses_an_arity_past_its_bounds_without_building_the_target(monkeypatch):
    """A gadget has at most 3 (max_f + max_eq) dangling ports, so a wider
    target is a miss before its 2^arity tensor is built."""
    import holant3.gadgets as gadgets_module

    def no_tensor(*args):
        raise AssertionError("target tensor built")

    monkeypatch.setattr(gadgets_module, "sym_to_tensor", no_tensor)
    assert gadget_search(SymSig([1, 2, 3, 5]), SymSig([1] * 31), 4, 5) is None
    assert gadget_search(SymSig([1, 2, 3, 5]), SymSig([1] * 21), 0, 0) is None
