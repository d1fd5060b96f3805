import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from holant3.dichotomy import FP, classify_ternary
from holant3.errors import FormatError, HardnessRefusal, NegativeEntry, NotDegenerate, WrongCase
from holant3.exact import QuadExt
from holant3.grid import SignatureGrid, bipartite_grid, disjoint_union, holant
from holant3.signatures import EQ3, SymSig, sym_to_tensor
from holant3.tractable import (
    TractableInstance,
    solve,
    solve_affine,
    solve_degenerate,
    solve_gen_equality,
)
from conftest import rand_pure_grid

PAIRS_2x2 = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]
TRIPLE = [(0, 0)] * 3


def _inst(f, pairs):
    return TractableInstance(bipartite_grid(SymSig(f), pairs), SymSig(f))


def test_degenerate_examples():
    assert solve_degenerate(_inst([1, 1, 1, 1], TRIPLE)) == 2
    assert solve_degenerate(_inst([1, 2, 4, 8], PAIRS_2x2)) == 81
    assert solve_degenerate(_inst([1, 0, 0, 0], PAIRS_2x2)) == 1
    for f in ([0, 1, 1, 0], [8, 0, 0, 27]):      # [8,0,0,27]: one vanishing minor is not enough
        with pytest.raises(NotDegenerate):
            solve_degenerate(_inst(f, TRIPLE))
    with pytest.raises(NegativeEntry):                 # degenerate: [1,-1] cubed
        solve_degenerate(_inst([1, -1, 1, -1], TRIPLE))


def test_gen_equality_examples():
    assert solve_gen_equality(_inst([5, 0, 0, 7], TRIPLE)) == 12
    assert solve_gen_equality(_inst([5, 0, 0, 7], PAIRS_2x2)) == 74
    two = disjoint_union(bipartite_grid(SymSig([5, 0, 0, 7]), TRIPLE),
                         bipartite_grid(SymSig([5, 0, 0, 7]), TRIPLE))
    assert solve_gen_equality(TractableInstance(two, SymSig([5, 0, 0, 7]))) == 144
    with pytest.raises(WrongCase):
        solve_gen_equality(_inst([1, 1, 1, 1], TRIPLE))


def _mixed_id_union(rng, parts):
    """One grid from parts: every vertex renamed to a fresh str, int or
    tuple id, the vertices of all parts inserted in one shuffled order,
    and the edges shuffled and listed from either end."""
    rename, vertices, edges = {}, [], []
    for pi, part in enumerate(parts):
        for vid, v in part.vertices.items():
            k = len(rename)
            rename[pi, vid] = rng.choice((f"v{k}", k, ("t", k)))
            vertices.append((rename[pi, vid], v))
        for (va, sa), (vb, sb) in part.edges:
            a, b = (rename[pi, va], sa), (rename[pi, vb], sb)
            edges.append((b, a) if rng.random() < 0.5 else (a, b))
    rng.shuffle(vertices)
    rng.shuffle(edges)
    grid = SignatureGrid()
    for vid, v in vertices:
        grid.add_vertex(vid, v.sig, v.polarities)
    grid.edges = edges
    return grid


def test_gen_equality_matches_evaluator_on_large_unions():
    """Unions of 1-20 parts at 300-3000 edges: random 3-regular grids,
    doubled cycles and triple edges, with str, int and tuple ids, against
    holant, whose fold joins a generalized-equality grid into one
    weighted variable per component in linear time. End weights are
    signed rationals and 1 + sqrt(2)."""
    rng = random.Random(2)
    built = {"double": 0, "triple": 0, "union": 0, "radical": 0, "str": 0, "int": 0, "tuple": 0}
    for _ in range(24):
        ends = [Fraction(rng.randint(-5, 7), rng.randint(1, 4)), QuadExt(1, 1, 2)]
        rng.shuffle(ends)
        f = SymSig([ends[0], 0, 0, ends[1] if rng.random() < 0.5 else rng.randint(1, 3)])
        sizes = [1] * rng.randint(1, 20)              # vertices a side, per part
        for _ in range(rng.randint(100, 1000) - len(sizes)):
            sizes[rng.randrange(len(sizes))] += 1
        parts = []
        for k in sizes:
            shape = rng.random()
            if shape < 0.15:
                parts.append(bipartite_grid(f, [p for i in range(k) for p in ((i, i),) * 3]))
            elif shape < 0.4:
                parts.append(bipartite_grid(f, [p for i in range(k)
                                                for p in ((i, i), (i, i), (i, (i + 1) % k))]))
            else:
                parts.append(rand_pure_grid(rng, f, k))
        grid = _mixed_id_union(rng, parts)
        assert 300 <= len(grid.edges) <= 3000
        multiplicities = set(Counter(frozenset((a[0], b[0])) for a, b in grid.edges).values())
        built["double"] += 2 in multiplicities
        built["triple"] += 3 in multiplicities
        built["union"] += len(parts) > 1
        built["radical"] += isinstance(f[0], QuadExt) or isinstance(f[3], QuadExt)
        for kind in (str, int, tuple):
            built[kind.__name__] += any(type(vid) is kind for vid in grid.vertices)
        assert solve_gen_equality(TractableInstance(grid, f)) == holant(grid)
    assert min(built.values()) >= 10, built


def test_affine_examples():
    assert solve_affine(_inst([1, 0, 1, 0], TRIPLE)) == 1
    assert solve_affine(_inst([0, 1, 0, 1], TRIPLE)) == 1
    inst = _inst([3, 0, 3, 0], PAIRS_2x2)
    assert solve_affine(inst) == holant(inst.grid) == 9
    with pytest.raises(WrongCase):
        solve_affine(_inst([1, 2, 3, 4], TRIPLE))


def test_dispatcher_and_refusal():
    value, cls = solve(_inst([1, 2, 4, 8], PAIRS_2x2))
    assert value == 81 and cls.matched_case == 1
    with pytest.raises(HardnessRefusal) as exc:
        solve(_inst([0, 1, 1, 0], TRIPLE))
    assert exc.value.classification.verdict == "#P-hard"
    # opt-in brute force still answers
    value, cls = solve(_inst([0, 1, 1, 0], TRIPLE), allow_brute_force=True)
    assert value == 0 and cls.verdict == "#P-hard"


def test_zero_signature_gives_zero():
    value, _ = solve(_inst([0, 0, 0, 0], PAIRS_2x2))
    assert value == 0


def test_overlap_consistency():
    """[x0,0,0,x3] that is also degenerate (an end entry 0): both
    solvers must agree."""
    rng = random.Random(60)
    for _ in range(20):
        x = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        f = [x, 0, 0, 0] if rng.random() < 0.5 else [0, 0, 0, x]
        inst = _inst(f, PAIRS_2x2)
        assert solve_degenerate(inst) == solve_gen_equality(inst)


def test_solve_total_on_nonnegative():
    rng = random.Random(61)
    for _ in range(60):
        f = SymSig([Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(4)])
        inst = TractableInstance(rand_pure_grid(rng, f, rng.randint(1, 2)), f)
        cls = classify_ternary(f)
        if cls.verdict == FP:
            value, got_cls = solve(inst)
            assert got_cls.verdict == FP
            assert value == holant(inst.grid)
        else:
            with pytest.raises(HardnessRefusal):
                solve(inst)


def test_instance_validation():
    g = bipartite_grid(SymSig([1, 2, 3, 4]), TRIPLE)
    with pytest.raises(WrongCase):
        TractableInstance(g, SymSig([9, 9, 9, 9]))


def test_polynomial_path_beyond_brute_force_cap():
    """The solvers stay exact on grids of 90 edges and more, far past
    summation over edge assignments; expected values follow from the component product law, which the small-scale
    suites verify against brute force."""
    k = 30
    # 30 disjoint triple edges, affine signature: 3 per component
    grids = [bipartite_grid(SymSig([3, 0, 3, 0]), TRIPLE) for _ in range(k)]
    big = disjoint_union(*grids)
    assert len(big.edges) == 90
    value, cls = solve(TractableInstance(big, SymSig([3, 0, 3, 0])))
    assert cls.matched_case == 3 and value == Fraction(3) ** k

    # one long doubled cycle, generalized equality: x0^k + x3^k
    pairs = []
    for i in range(k):
        pairs += [(i, i), (i, i), (i, (i - 1) % k)]
    cyc = bipartite_grid(SymSig([2, 0, 0, 5]), pairs)
    value, cls = solve(TractableInstance(cyc, SymSig([2, 0, 0, 5])))
    assert cls.matched_case == 2 and value == Fraction(2) ** k + Fraction(5) ** k

    # degenerate closed form on the same topology
    value, cls = solve(TractableInstance(bipartite_grid(SymSig([1, 2, 4, 8]), pairs),
                                         SymSig([1, 2, 4, 8])))
    assert cls.matched_case == 1 and value == Fraction(9) ** k


def _affine_sig(rng, parity):
    scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
    return SymSig([scale, 0, scale, 0] if parity == 0 else [0, scale, 0, scale])


def test_affine_matches_evaluator_on_small_grids():
    """Seeded grids of both parities up to 24 edges, with double and triple
    edges between one f vertex and one equality vertex, disjoint unions,
    and edges listed from either end, against the elimination evaluator."""
    rng = random.Random(62)
    built = {"double": 0, "triple": 0, "union": 0}
    for trial in range(160):
        f = _affine_sig(rng, trial % 2)
        if trial % 4 == 3:
            n_parts = rng.randint(2, 3)
            parts = [rand_pure_grid(rng, f, rng.randint(1, 8 // n_parts)) for _ in range(n_parts)]
            grid = disjoint_union(*parts)
            built["union"] += 1
        else:
            grid = rand_pure_grid(rng, f, rng.randint(1, 8))
        grid.edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in grid.edges]
        ends = [frozenset((a[0], b[0])) for a, b in grid.edges]
        built["double"] += any(ends.count(e) == 2 for e in ends)
        built["triple"] += any(ends.count(e) == 3 for e in ends)
        assert len(grid.edges) <= 24
        inst = TractableInstance(grid, f)
        assert solve_affine(inst) == holant(grid)
    assert min(built.values()) >= 10, built


def test_non_ternary_f_is_refused():
    """The solvers read f[0..3] only, so an f of another arity is
    refused before any of them runs: on arity-5 [0,1,0,1,7,7] at three
    vertices, shuffled onto five equality vertices, solve_affine once
    returned 4 where the evaluator gives 456."""
    rng = random.Random(5)
    f5 = SymSig([0, 1, 0, 1, 7, 7])
    right = [(vid, slot) for vid in range(5) for slot in range(3)]
    rng.shuffle(right)
    g = bipartite_grid(f5, [(i // 5, right[i][0]) for i in range(15)])
    assert holant(g) == 456
    with pytest.raises(WrongCase, match="arity 5"):
        TractableInstance(g, f5)
    # arity-4 odd parity with x + x + y + y = 1: the evaluator gives 0
    f4 = SymSig([0, 1, 0, 1, 0])
    g = bipartite_grid(f4, [(0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 2), (1, 3), (1, 2),
                            (2, 1), (2, 2), (2, 3), (2, 3)])
    assert holant(g) == 0
    with pytest.raises(WrongCase, match="arity 4"):
        TractableInstance(g, f4)


def _edge_level_count(grid, f):
    """The affine count from the full edge-level GF(2) system: two
    equalities per equality vertex and one parity row per f vertex, each
    an n_edges-bit row, ranked with and without the right-hand side."""
    parity = 0 if f[1] == 0 else 1
    scale = f[0] if parity == 0 else f[1]
    n = len(grid.edges)
    incident = {vid: [] for vid in grid.vertices}
    for idx, ((va, _), (vb, _)) in enumerate(grid.edges):
        incident[va].append(idx)
        incident[vb].append(idx)
    rows = []
    for vid, edges in incident.items():
        if grid.vertices[vid].sig == EQ3:
            rows += [1 << edges[0] | 1 << edges[1], 1 << edges[1] | 1 << edges[2]]
        else:
            row = parity << n
            for idx in edges:
                row ^= 1 << idx
            rows.append(row)

    def rank(vectors):
        basis = {}
        for v in vectors:
            while v:
                b = basis.get(v.bit_length())
                if b is None:
                    basis[v.bit_length()] = v
                    break
                v ^= b
        return len(basis)

    full = rank(rows)
    hom = rank(r & ~(1 << n) for r in rows)
    return Fraction(0) if full != hom else Fraction(scale) ** (n // 3) * Fraction(2) ** (n - hom)


def _with_reorderings(grid, rng):
    """The grid, then the same grid with its edge list shuffled, with each
    edge's ends swapped, and with the equality vertices inserted before
    the f vertices: solve_affine's bit numbering and row order follow
    the edge and vertex order."""
    shuffled = grid.copy()
    rng.shuffle(shuffled.edges)
    swapped = grid.copy()
    swapped.edges = [(b, a) for a, b in grid.edges]
    eq_first = grid.copy()
    eq_first.vertices = dict(sorted(eq_first.vertices.items(),
                                    key=lambda item: item[1].polarities[0] == "L"))
    return grid, shuffled, swapped, eq_first


@pytest.mark.parametrize("edges", [3000, 9000])
def test_affine_matches_edge_level_rank_on_large_grids(edges):
    rng = random.Random(edges)
    for parity in (0, 1):
        f = _affine_sig(rng, parity)
        grid = rand_pure_grid(rng, f, edges // 3)
        assert len(grid.edges) == edges
        for g in _with_reorderings(grid, rng):
            assert solve_affine(TractableInstance(g, f)) == _edge_level_count(g, f)


def test_affine_matches_edge_level_rank_on_unions_with_double_edges():
    """Three random components and a doubled cycle (each f vertex joins
    one equality vertex twice and the next once) in one 3000-edge grid,
    in both parities: double edges and several components at scale."""
    rng = random.Random(3000)
    for parity in (0, 1):
        f = _affine_sig(rng, parity)
        k = 200
        cycle = bipartite_grid(f, [p for i in range(k) for p in ((i, i), (i, i), (i, (i + 1) % k))])
        grid = disjoint_union(*(rand_pure_grid(rng, f, n) for n in (100, 300, 400)), cycle)
        assert len(grid.edges) == 3000
        for g in _with_reorderings(grid, rng):
            assert solve_affine(TractableInstance(g, f)) == _edge_level_count(g, f)


def test_affine_rank_holds_one_unreduced_row_at_a_time():
    """Traced peak of the 9000-edge affine solve: 1.33 MiB with the rows
    built one at a time, 2.23 MiB with every row and a 1 << j per
    column built up front (Python 3.10-3.13)."""
    rng = random.Random(9000)
    f = _affine_sig(rng, 0)
    inst = TractableInstance(rand_pure_grid(rng, f, 3000), f)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_affine(inst)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2**20


def test_side_lists_are_built_once_in_insertion_order():
    f = SymSig([1, 0, 1, 0])
    grid = disjoint_union(rand_pure_grid(random.Random(1), f, 5), bipartite_grid(f, TRIPLE))
    inst = TractableInstance(grid, f)
    assert inst.left_ids() == [vid for vid, v in grid.vertices.items() if v.polarities[0] == "L"]
    assert inst.right_ids() == [vid for vid, v in grid.vertices.items() if v.polarities[0] == "R"]
    assert inst.left_ids() is inst.left_ids() and inst.right_ids() is inst.right_ids()


def test_instance_without_f_reads_it_from_the_left_side():
    f = SymSig([3, 0, 3, 0])
    inst = TractableInstance(bipartite_grid(f, PAIRS_2x2))
    assert inst.f is f and solve(inst)[0] == holant(inst.grid)
    mixed = bipartite_grid(f, PAIRS_2x2)
    mixed.vertices[("f", 1)].sig = SymSig([1, 0, 1, 0])
    with pytest.raises(FormatError, match="exactly one signature"):
        TractableInstance(mixed)
    with pytest.raises(WrongCase, match="does not carry f"):
        TractableInstance(mixed, f)
    with pytest.raises(FormatError, match="exactly one signature"):
        TractableInstance(SignatureGrid())
    with pytest.raises(FormatError, match="must be symmetric"):
        TractableInstance(bipartite_grid(sym_to_tensor(f), PAIRS_2x2))
