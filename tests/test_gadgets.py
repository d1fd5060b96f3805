import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from holant3.errors import ArityMismatch, GridStructureError, TooManyLiveStates
from holant3.exact import sqrt_exact
from holant3.formats import format_grid
from holant3.gadgets import (
    _biadjacency_matrices,
    _graph_from_biadjacency,
    _grid_from_biadjacency,
    _matches_up_to_positive_scalar,
    build_double_hub_gadget,
    build_transfer_gadget,
    build_unary_probe,
    gadget_search,
)
from holant3.grid import SignatureGrid, _sweep, contract
from holant3.signatures import SymSig, Tensor, jordan, straddled_from_f, sym_to_tensor
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
    target is a miss before its 2^arity tensor is built; so is one that no
    size in bounds leaves dangling (20 L ports: 3 n_f - 20 != 3 n_eq)."""
    import holant3.gadgets as gadgets_module

    def no_tensor(*args):
        raise AssertionError("target tensor built")

    monkeypatch.setattr(gadgets_module, "sym_to_tensor", no_tensor)
    assert gadget_search(SymSig([1, 2, 3, 5]), SymSig([1] * 31), 4, 5) is None
    assert gadget_search(SymSig([1, 2, 3, 5]), SymSig([1] * 21), 0, 0) is None
    assert gadget_search(SymSig([1, 2, 3, 5]), SymSig([1] * 21), 9, 9) is None


def test_gadget_search_refuses_a_target_past_the_live_state_limit_before_building_it(
        monkeypatch):
    """A reachable target of arity k has a 2^k tensor: past
    MAX_LIVE_STATES it is refused before the tensor is built. An
    unreachable one is still a miss, and at 2^k = the limit a hit is found."""
    import holant3.gadgets as gadgets_module
    import holant3.grid as grid_module

    monkeypatch.setattr(grid_module, "MAX_LIVE_STATES", 16)
    f = SymSig([1, 2, 3, 5])
    target, pols = contract(_grid_from_biadjacency(f, ((0, 2), (2, 0))))
    assert gadget_search(f, target, 2, 2, polarities=pols) is not None

    def no_tensor(*args):
        raise AssertionError("target tensor built")

    monkeypatch.setattr(gadgets_module, "sym_to_tensor", no_tensor)
    assert gadget_search(f, SymSig([1] * 6), 4, 4) is None
    with pytest.raises(TooManyLiveStates) as exc:
        gadget_search(f, SymSig([1] * 7), 4, 4)
    assert str(exc.value) == "target of arity 6: 2^6 patterns, over the limit 16"


@pytest.mark.parametrize("f, target", [
    (SymSig([1, 2]), SymSig([1, 1, 1, 1])),
    (SymSig([1, 0, 1, 0, 1]), SymSig([1, 0, 1, 0, 1])),
])
def test_gadget_search_refuses_a_non_ternary_f_before_searching(f, target, monkeypatch):
    """The candidates are built for a ternary f, and nothing downstream
    checks it: a binary or quaternary f is an ArityMismatch before any
    candidate is built."""
    import holant3.gadgets as gadgets_module

    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(gadgets_module, "_biadjacency_matrices", no_search)
    with pytest.raises(ArityMismatch, match="ternary"):
        gadget_search(f, target, 2, 2)


def _splits():
    """(n_f, n_eq, total, want_l, want_r) of every candidate set that
    gadget_search walks with n_f, n_eq <= 4 and 0 to 3 dangling ports."""
    for d in range(4):
        for want_l in range(d + 1):
            for n_f in range(1, 5):
                for n_eq in range(5):
                    total = 3 * n_f - want_l
                    if total >= 0 and total == 3 * n_eq - (d - want_l):
                        yield n_f, n_eq, total, want_l, d - want_l


@pytest.mark.parametrize("f", [SymSig([1, 2, 3, 5]), SymSig([0, 1, 0, 1]),
                               SymSig([Fraction(1, 2), 1, 0, Fraction(3, 4)]),
                               SymSig([1, 0, 0, 2])])
def test_direct_graph_tensor_equals_the_grid_contraction(f):
    """Each candidate's factor graph, built straight from its matrix and
    swept with one pattern cache, gives the tensor that contracting the
    candidate's grid gives, entry for entry, in the grid's dangling order;
    every L/R split of up to three dangling ports is walked. An
    equality-type f stays a factor here, where the grid's fold folds it."""
    cache, checked = {}, 0
    for n_f, n_eq, total, want_l, want_r in _splits():
        for matrix in _biadjacency_matrices(n_f, n_eq, total):
            grid = _grid_from_biadjacency(f, matrix)
            expected, pols = contract(grid)
            assert pols == ("L",) * want_l + ("R",) * want_r
            table, unit = _sweep(_graph_from_biadjacency(f, matrix), cache)
            got = [unit * table.get(p, 0) for p in range(1 << (want_l + want_r))]
            assert got == list(expected.entries), (f, matrix)
            checked += 1
    assert checked == 144


def _reference_gadget_search(f, target, max_f, max_eq, polarities):
    """The search on grids: every candidate built, contracted, and
    compared as Fractions, a SymSig target also by symmetry."""
    d = target.arity
    want_l = polarities.count("L")
    target_tensor = sym_to_tensor(target) if isinstance(target, SymSig) else target
    for n_f in range(max_f + 1):
        for n_eq in range(max_eq + 1):
            internal = 3 * n_f - want_l
            if (n_f, n_eq) == (0, 0) or internal < 0 or internal != 3 * n_eq - (d - want_l):
                continue
            for matrix in _biadjacency_matrices(n_f, n_eq, internal):
                g = _grid_from_biadjacency(f, matrix)
                got, _ = contract(g)
                if got.arity != d or (isinstance(target, SymSig) and not got.is_symmetric()):
                    continue
                ratios = {a / b for a, b in zip(got.entries, target_tensor.entries) if b}
                if (all(a == 0 for a, b in zip(got.entries, target_tensor.entries) if not b)
                        and (len(ratios) == 1 and min(ratios) > 0
                             or not ratios and not any(got.entries))):
                    return g
    return None


def test_gadget_search_agrees_with_the_search_on_grids():
    """Hits, misses, a non-symmetric Tensor target and a negative scalar:
    the same gadget as the reference search on grids, or None with it."""
    f = SymSig([1, 2, 3, 5])
    chain, _ = contract(_grid_from_biadjacency(f, ((2, 1), (1, 1))))
    assert not chain.is_symmetric()
    scaled = Tensor(2, [Fraction(3, 7) * v for v in chain.entries])
    cases = [
        (f, scaled, 2, 2, "LR"),
        (f, Tensor(2, [-v for v in chain.entries]), 2, 2, "LR"),
        (f, Tensor(2, [1, 2, 3, 4]), 2, 2, "LR"),
        (SymSig([0, 1, 1, 0]), SymSig([6, 4, 4, 6]), 3, 2, "LLL"),
        (SymSig([0, 1, 1, 0]), SymSig([0, 0, 0, 0]), 2, 2, "LLL"),
        (SymSig([Fraction(1, 2), 1, 0, Fraction(3, 4)]), SymSig([1, 2, 2, 1]), 3, 3, "LLL"),
    ]
    for sig, target, max_f, max_eq, pols in cases:
        found = gadget_search(sig, target, max_f, max_eq, polarities=pols)
        expected = _reference_gadget_search(sig, target, max_f, max_eq, pols)
        assert (found is None) == (expected is None), (sig, target)
        if found is not None:
            assert (found.vertices, found.edges, found.dangling) == (
                expected.vertices, expected.edges, expected.dangling)
    assert gadget_search(f, scaled, 2, 2, polarities="LR") is not None


def test_search_builds_a_grid_only_for_its_hit(monkeypatch):
    """An exhaustive miss builds no SignatureGrid and neither validates
    nor contracts one; a hit builds exactly one, the gadget returned."""
    import holant3.grid as grid_module

    calls = {"init": 0, "validate": 0, "contract": 0}
    init, validate, contract_ = (SignatureGrid.__init__, SignatureGrid.validate,
                                 grid_module.contract)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(SignatureGrid, "__init__", counted("init", init))
    monkeypatch.setattr(SignatureGrid, "validate", counted("validate", validate))
    monkeypatch.setattr(grid_module, "contract", counted("contract", contract_))
    # a nonnegative target, so the sign test leaves the walk to run
    assert gadget_search(SymSig([4, 5, 6, 8]), SymSig([2, 1, 1, 1]), 4, 4) is None
    assert calls == {"init": 0, "validate": 0, "contract": 0}
    found = gadget_search(SymSig([0, 1, 1, 0]), SymSig([3, 2, 2, 3]), 3, 2)
    assert found is not None
    assert calls == {"init": 1, "validate": 0, "contract": 0}


def _candidates(max_f, max_eq):
    """(n_f, matrix) of every candidate with 1..max_f squares and 0..max_eq
    circles, at every total of internal edges, so with every L/R split of
    its dangling ports."""
    for n_f in range(1, max_f + 1):
        for n_eq in range(max_eq + 1):
            for total in range(3 * min(n_f, n_eq) + 1):
                for matrix in _biadjacency_matrices(n_f, n_eq, total):
                    yield n_f, matrix


def test_a_one_signed_f_contracts_to_one_signed_entries():
    """The premise of gadget_search's sign test, checked without it: over
    a nonnegative f every candidate's entries are >= 0, and over a
    nonpositive f each nonzero entry has sign (-1)^n_f."""
    rng = random.Random(25)
    fs = [SymSig([0, 2, 0, 1]), SymSig([1, 0, 0, 3])]
    fs += [SymSig([Fraction(rng.choice([0, 0, 1, 2, 3, 5]), rng.randint(1, 3))
                   for _ in range(4)]) for _ in range(4)]
    negative = 0
    for f, s in [(f, 1) for f in fs] + [(SymSig([-v for v in f]), -1) for f in fs]:
        cache = {}
        for n_f, matrix in _candidates(3, 3):
            table, unit = _sweep(_graph_from_biadjacency(f, matrix), cache)
            for value in table.values():
                v = unit * value
                assert not v or (v > 0) == (s ** n_f > 0), (f, matrix)
                negative += v < 0
    assert negative


def _reference_walk(f, target, max_f, max_eq, polarities):
    """gadget_search's walk with no pruning by sign: the first candidate
    whose swept table matches target up to a positive scalar."""
    d = target.arity
    want_l = polarities.count("L")
    tensor = sym_to_tensor(target) if isinstance(target, SymSig) else target
    cache = {}
    for n_f in range(1, max_f + 1):
        for n_eq in range(max_eq + 1):
            total = 3 * n_f - want_l
            if total < 0 or total != 3 * n_eq - (d - want_l):
                continue
            for matrix in _biadjacency_matrices(n_f, n_eq, total):
                table, unit = _sweep(_graph_from_biadjacency(f, matrix), cache)
                if _matches_up_to_positive_scalar(table, unit, list(tensor.entries)):
                    return _grid_from_biadjacency(f, matrix)
    return None


def test_sign_test_returns_what_the_unpruned_walk_returns():
    """Over nonnegative, nonpositive and mixed-sign f, one with a QuadExt
    entry and its negation among them, against targets of mixed signs,
    all <= 0, all >= 0 and all zero, and against scaled and negated
    candidate tensors (hits, also at odd n_f over a nonpositive f): the
    same gadget as the walk with no sign test, or None with it."""
    rng = random.Random(2025)
    r2 = sqrt_exact(2)
    fs = [SymSig([1, 2, 3, 5]), SymSig([0, 1, 0, 2]), SymSig([-1, -2, -3, -5]),
          SymSig([0, -1, Fraction(-1, 2), 0]), SymSig([1, -2, 0, 3]), SymSig([-1, 0, 1, 2]),
          SymSig([1, r2, 0, 2]), SymSig([-1, -r2, 0, -2])]
    ranges = {"mixed": (-3, 3), "nonpositive": (-3, 0), "nonnegative": (0, 3), "zero": (0, 0)}
    kinds, odd_nonpositive_hits, checked = set(), 0, 0
    for f in fs:
        # candidates with at most 4 dangling ports: 3 per vertex, less 2 per edge
        pool = [(n_f, m) for n_f, m in _candidates(3, 3)
                if 3 * len(m) + 3 * len(m[0]) - 2 * sum(map(sum, m)) <= 4]
        for _ in range(30):
            max_f, max_eq = rng.randint(1, 3), rng.randint(0, 3)
            kind = rng.choice([*ranges, "hit"])
            if kind == "hit":
                n_f, matrix = rng.choice(pool)
                max_f, max_eq = rng.randint(n_f, 3), rng.randint(len(matrix[0]), 3)
                got, pols = contract(_grid_from_biadjacency(f, matrix))
                scale = rng.choice([1, 3, Fraction(2, 5), -1, Fraction(-7, 2)])
                target = Tensor(got.arity, [scale * v for v in got.entries])
                polarities = "".join(pols)
            else:
                d = rng.randint(1, 3)
                lo, hi = ranges[kind]
                values = [rng.randint(lo, hi) for _ in range(d + 1)]
                if kind == "mixed":
                    values[:2] = [-1, 2]
                    rng.shuffle(values)
                polarities = "".join(rng.choice("LR") for _ in range(d))
                target = SymSig(values)
            found = gadget_search(f, target, max_f, max_eq, polarities)
            expected = _reference_walk(f, target, max_f, max_eq, polarities)
            assert (None if found is None else format_grid(found)) == (
                None if expected is None else format_grid(expected)), (f, target, max_f, max_eq)
            kinds.add((kind, found is not None))
            odd_nonpositive_hits += (found is not None and not f.is_nonnegative()
                                     and all(v <= 0 for v in f)
                                     and sum(vid[0] == "f" for vid in found.vertices) % 2 == 1)
            checked += 1
    assert checked == 240 and {("hit", True), ("hit", False), ("mixed", False)} <= kinds
    assert odd_nonpositive_hits


def test_a_certain_sign_miss_walks_no_topology(monkeypatch):
    """A target no gadget over a one-signed f can reach by its signs is a
    miss before any topology is walked, at any bounds."""
    import holant3.gadgets as gadgets_module

    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(gadgets_module, "_biadjacency_matrices", no_search)
    assert gadget_search(SymSig([1, 2, 3, 5]), SymSig([1, -1, 1, 1]), 9, 9) is None
    assert gadget_search(SymSig([1, 2, 3, 5]), SymSig([0, -1, -2, 0]), 9, 9) is None
    assert gadget_search(SymSig([-1, -2, -3, -5]), Tensor(2, [1, 0, 0, -1]), 9, 9, "LR") is None


def test_a_nonpositive_f_walks_only_the_sizes_of_the_target_sign(monkeypatch):
    """n_f nonpositive squares give entries of sign (-1)^n_f, so a positive
    target walks only even n_f and a negative one only odd n_f."""
    import holant3.gadgets as gadgets_module

    walked, real = [], gadgets_module._biadjacency_matrices

    def recorded(n_f, n_eq, total):
        walked.append((n_f, n_eq))
        return real(n_f, n_eq, total)

    monkeypatch.setattr(gadgets_module, "_biadjacency_matrices", recorded)
    f = SymSig([-1, -2, -3, -5])
    assert gadget_search(f, SymSig([2, 1, 1, 1]), 4, 4) is None
    assert walked == [(2, 1), (4, 3)]
    walked.clear()
    assert gadget_search(f, SymSig([-2, -1, -1, -1]), 4, 4) is None
    assert walked == [(1, 0), (3, 2)]
