import random
from fractions import Fraction

import pytest

from holant3.errors import DanglingPorts, NonTernaryVertex, PolarityError, TooManyEdges
from holant3.grid import (
    SignatureGrid,
    bipartite_grid,
    check_arity_mod3,
    close_with_unaries,
    contract,
    disjoint_union,
    holant,
)
from holant3.gadgets import build_transfer_gadget
from holant3.signatures import EQ3, SymSig, sym_to_tensor
from conftest import rand_nonneg_sig, rand_pure_grid

PAIRS_2x2 = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def test_triple_edge_forces_equal():
    rng = random.Random(0)
    for _ in range(10):
        f = rand_nonneg_sig(rng)
        g = bipartite_grid(f, [(0, 0)] * 3)
        assert holant(g) == f[0] + f[3]


def test_2x2_multigraph_examples():
    assert holant(bipartite_grid(SymSig([0, 1, 1, 0]), PAIRS_2x2)) == 2
    assert holant(bipartite_grid(SymSig([1, 1, 1, 1]), PAIRS_2x2)) == 4


def test_polarity_rejected():
    g = SignatureGrid()
    g.add_vertex("a", SymSig([1, 1]), "L")
    g.add_vertex("b", SymSig([1, 1]), "L")
    g.add_edge(("a", 0), ("b", 0))
    with pytest.raises(PolarityError):
        g.validate()


def test_dangling_rejected_and_edge_cap():
    g = build_transfer_gadget(SymSig([1, 1, 1, 1]))
    with pytest.raises(DanglingPorts):
        holant(g)
    big = bipartite_grid(SymSig([1, 1, 1, 1]), [(i, i) for i in range(9) for _ in range(3)])
    with pytest.raises(TooManyEdges):
        holant(big, max_edges=24)
    assert holant(big, max_edges=27) == 2 ** 9


def test_arity_mod3():
    g1 = build_transfer_gadget(SymSig([1, 2, 3, 4]))
    assert check_arity_mod3(g1) == (1, 1)
    solo = SignatureGrid()
    solo.add_vertex("f", SymSig([1, 2, 3, 4]), "L")
    for s in range(3):
        solo.mark_dangling(("f", s))
    assert check_arity_mod3(solo) == (0, 0)
    bad = SignatureGrid()
    bad.add_vertex("u", SymSig([1, 1]), "L")
    bad.mark_dangling(("u", 0))
    bad.mark_dangling(("u", 1))
    with pytest.raises(NonTernaryVertex):
        check_arity_mod3(bad)


def _random_gadget(rng, f):
    """Legal gadget from a random biadjacency within degree bounds."""
    n_f = rng.randint(1, 3)
    n_eq = rng.randint(1, 3)
    g = SignatureGrid()
    for i in range(n_f):
        g.add_vertex(("f", i), f, "L")
    for j in range(n_eq):
        g.add_vertex(("q", j), EQ3, "R")
    lslot = [0] * n_f
    rslot = [0] * n_eq
    pairs = [(i, j) for i in range(n_f) for j in range(n_eq)]
    rng.shuffle(pairs)
    for i, j in pairs:
        if lslot[i] < 3 and rslot[j] < 3 and rng.random() < 0.7:
            g.add_edge((("f", i), lslot[i]), (("q", j), rslot[j]))
            lslot[i] += 1
            rslot[j] += 1
    for i in range(n_f):
        while lslot[i] < 3:
            g.mark_dangling((("f", i), lslot[i]))
            lslot[i] += 1
    for j in range(n_eq):
        while rslot[j] < 3:
            g.mark_dangling((("q", j), rslot[j]))
            rslot[j] += 1
    g.validate()
    return g


def test_random_gadgets_satisfy_mod3():
    rng = random.Random(12)
    for _ in range(50):
        g = _random_gadget(rng, rand_nonneg_sig(rng))
        n, m = check_arity_mod3(g)
        assert n == m


def test_contract_single_vertex_is_identity():
    f = SymSig([1, 2, 3, 4])
    solo = SignatureGrid()
    solo.add_vertex("f", f, "L")
    for s in range(3):
        solo.mark_dangling(("f", s))
    tensor, pols = contract(solo)
    assert pols == ("L", "L", "L")
    assert tensor.entries == sym_to_tensor(f).entries


def test_contract_then_close_equals_holant_of_closure():
    rng = random.Random(13)
    for _ in range(25):
        f = rand_nonneg_sig(rng)
        gadget = _random_gadget(rng, f)
        if len(gadget.edges) > 12 or not gadget.dangling:
            continue
        unaries = [SymSig([Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3))])
                   for _ in gadget.dangling]
        closed = close_with_unaries(gadget, unaries)
        direct = holant(closed)
        tensor, _ = contract(gadget)
        summed = Fraction(0)
        for p in range(1 << len(gadget.dangling)):
            term = tensor.value_at(p)
            for i, u in enumerate(unaries):
                term *= u[(p >> i) & 1]
            summed += term
        assert summed == direct


def test_contract_independent_of_edge_order():
    rng = random.Random(14)
    f = rand_nonneg_sig(rng)
    gadget = _random_gadget(rng, f)
    tensor, pols = contract(gadget)
    shuffled = gadget.copy()
    rng.shuffle(shuffled.edges)
    tensor2, pols2 = contract(shuffled)
    assert tensor.entries == tensor2.entries and pols == pols2


def test_disjoint_union_multiplies():
    rng = random.Random(15)
    for _ in range(10):
        f = rand_nonneg_sig(rng)
        g1 = rand_pure_grid(rng, f, rng.randint(1, 2))
        g2 = rand_pure_grid(rng, f, rng.randint(1, 2))
        assert holant(disjoint_union(g1, g2)) == holant(g1) * holant(g2)


def test_edge_balance_of_pure_grids():
    rng = random.Random(17)
    g = rand_pure_grid(rng, SymSig([1, 1, 1, 1]), 3)
    n_f = len(g.vertex_ids_by_side("L"))
    n_eq = len(g.vertex_ids_by_side("R"))
    assert len(g.edges) == 3 * n_f == 3 * n_eq


def _no_pruning_holant(grid):
    """Reference summation without any zero short-circuiting."""
    total = Fraction(0)
    for bits in range(1 << len(grid.edges)):
        vertex_bits = {vid: 0 for vid in grid.vertices}
        for i, (a, b) in enumerate(grid.edges):
            if (bits >> i) & 1:
                vertex_bits[a[0]] |= 1 << a[1]
                vertex_bits[b[0]] |= 1 << b[1]
        term = Fraction(1)
        for vid, v in grid.vertices.items():
            term *= v.sig.value_at(vertex_bits[vid])
        total += term
    return total


def _random_mixed_grid(rng):
    """Closed grid of random tensor vertices, any polarities, zero-heavy
    and negative entries allowed; None when ports cannot pair up."""
    from holant3.signatures import Tensor

    g = SignatureGrid()
    lports, rports = [], []
    for i in range(rng.randint(2, 5)):
        arity = rng.randint(1, 3)
        pols = tuple(rng.choice("LR") for _ in range(arity))
        entries = [Fraction(0) if rng.random() < 0.35
                   else Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(1 << arity)]
        g.add_vertex(i, Tensor(arity, entries), pols)
        for s, p in enumerate(pols):
            (lports if p == "L" else rports).append((i, s))
    if len(lports) != len(rports) or len(lports) > 12:
        return None
    rng.shuffle(rports)
    for lp, rp in zip(lports, rports):
        g.add_edge(lp, rp)
    g.validate()
    return g


def test_pruned_evaluator_matches_no_pruning_reference():
    """The viability pruning must never change a value, including on
    tensors riddled with zeros and sign flips."""
    rng = random.Random(18)
    checked = 0
    while checked < 60:
        g = _random_mixed_grid(rng)
        if g is None:
            continue
        assert holant(g) == _no_pruning_holant(g)
        checked += 1
