import random
from fractions import Fraction

import pytest

from holant3.errors import (
    DanglingPorts,
    GridStructureError,
    NonTernaryVertex,
    PolarityError,
    TooManyLiveStates,
)
from holant3.grid import (
    SignatureGrid,
    bipartite_grid,
    check_arity_mod3,
    close_with_unaries,
    contract,
    disjoint_union,
    holant,
)
import holant3.grid as grid_module
from holant3.exact import QuadExt
from holant3.gadgets import build_transfer_chain, build_transfer_gadget
from holant3.matchgates import solve_planar_moderate_cover
from holant3.signatures import (
    EQ3,
    SymSig,
    Tensor,
    matrix_power,
    straddled_from_f,
    sym_to_tensor,
)
from conftest import bead_ladder_instance, rand_nonneg_sig, rand_pure_grid

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


def _two_vertex_grid(edges, dangling=()):
    """'a' (L) and 'b' (R), both binary, with the given edges and dangling ports."""
    g = SignatureGrid()
    g.add_vertex("a", SymSig([1, 1, 1]), "L")
    g.add_vertex("b", SymSig([1, 1, 1]), "R")
    for e in edges:
        g.add_edge(*e)
    for p in dangling:
        g.mark_dangling(p)
    return g


@pytest.mark.parametrize("edges, dangling, message", [
    ([(("a", 0), ("z", 0)), (("a", 1), ("b", 1))], [("b", 0)], "edge: unknown vertex 'z'"),
    ([(("a", 0), ("b", 0)), (("a", 1), ("b", 1))], [("z", 0)], "dangling: unknown vertex 'z'"),
    ([(("a", 0), ("b", 2)), (("a", 1), ("b", 1))], [("b", 0)], "edge: slot 2 out of range"),
    ([(("a", -1), ("b", 0)), (("a", 1), ("b", 1))], [("a", 0)], "edge: slot -1 out of range"),
    ([(("a", 0), ("b", 0)), (("a", 1), ("b", 1))], [("a", 5)], "dangling: slot 5 out of range"),
    ([(("a", 0), ("b", 0)), (("a", 0), ("b", 1))], [("a", 1)], "edge: port ('a', 0) used twice"),
    ([(("a", 0), ("b", 0)), (("a", 1), ("b", 1))], [("b", 1)], "dangling: port ('b', 1) used twice"),
    ([(("a", 0), ("b", 0))], [("a", 1)], "port ('b',1) neither wired nor dangling"),
    ([(("a", 0), ("b", 0))], [], "port ('a',1) neither wired nor dangling"),
])
def test_each_structure_fault_is_reported(edges, dangling, message):
    with pytest.raises(GridStructureError) as exc:
        _two_vertex_grid(edges, dangling).validate()
    assert type(exc.value) is GridStructureError and str(exc.value).startswith(message)


@pytest.mark.parametrize("edges", [
    [(("a", 0), ("a", 1)), (("b", 0), ("b", 1))],
    [(("b", 0), ("b", 1)), (("a", 0), ("a", 1))],
])
def test_same_side_edges_are_polarity_errors(edges):
    with pytest.raises(PolarityError, match="joins (L to L|R to R)"):
        _two_vertex_grid(edges).validate()
    _two_vertex_grid([(("b", 0), ("a", 1)), (("a", 0), ("b", 1))]).validate()


def test_dangling_rejected_and_edge_cap():
    """holant refuses dangling ports, and no count of edges: the 27-edge
    grid that the removed 24-edge cap refused evaluates at the default."""
    g = build_transfer_gadget(SymSig([1, 1, 1, 1]))
    with pytest.raises(DanglingPorts):
        holant(g)
    big = bipartite_grid(SymSig([1, 1, 1, 1]), [(i, i) for i in range(9) for _ in range(3)])
    assert holant(big) == 2 ** 9


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


@pytest.mark.parametrize("port, message", [(("z", 0), "unknown vertex 'z'"),
                                           (("q0", 7), "slot 7 out of range for 'q0'"),
                                           (("q0", -1), "slot -1 out of range for 'q0'")],
                         ids=["unknown-vertex", "slot-past-arity", "negative-slot"])
def test_polarity_of_a_port_off_the_grid_is_a_structure_error(port, message):
    """A dangling port on an unknown vertex or past its vertex's slots is
    reported as GridStructureError by every reader of its polarity."""
    g = build_transfer_gadget(SymSig([1, 2, 3, 4]))
    g.dangling[1] = port
    for read in (g.polarity_of, lambda p: check_arity_mod3(g),
                 lambda p: close_with_unaries(g, [SymSig([1, 1])] * 2)):
        with pytest.raises(GridStructureError, match=message):
            read(port)


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
    n_f = sum(v.polarities == ("L",) * 3 for v in g.vertices.values())
    n_eq = sum(v.polarities == ("R",) * 3 for v in g.vertices.values())
    assert len(g.edges) == 3 * n_f == 3 * n_eq


def _no_pruning_holant(grid, pattern=0):
    """Reference summation without any zero short-circuiting; dangling
    port i, if any, is pinned to bit i of pattern."""
    pinned = {vid: 0 for vid in grid.vertices}
    for i, (vid, slot) in enumerate(grid.dangling):
        pinned[vid] |= ((pattern >> i) & 1) << slot
    total = Fraction(0)
    for bits in range(1 << len(grid.edges)):
        vertex_bits = dict(pinned)
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
    and negative entries allowed, arity 0 included, some entries in
    Q(sqrt(2)), and sometimes a vertex whose L and R ports share one
    edge; None when ports cannot pair up."""
    g = SignatureGrid()
    lports, rports = [], []

    def entry():
        if rng.random() < 0.35:
            return Fraction(0)
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return QuadExt(x, rng.randint(-1, 1), 2) if rng.random() < 0.15 else x

    for i in range(rng.randint(2, 5)):
        arity = rng.randint(0, 3)
        pols = tuple(rng.choice("LR") for _ in range(arity))
        g.add_vertex(i, Tensor(arity, [entry() for _ in range(1 << arity)]), pols)
        for s, p in enumerate(pols):
            (lports if p == "L" else rports).append((i, s))
    if rng.random() < 0.5:
        pols = ("L", "R") + tuple(rng.choice("LR") for _ in range(rng.randint(0, 1)))
        g.add_vertex("loop", Tensor(len(pols), [entry() for _ in range(1 << len(pols))]), pols)
        g.add_edge(("loop", 0), ("loop", 1))
        if len(pols) == 3:
            (lports if pols[2] == "L" else rports).append(("loop", 2))
    if len(lports) != len(rports) or len(lports) > 11:
        return None
    rng.shuffle(rports)
    for lp, rp in zip(lports, rports):
        g.add_edge(lp, rp)
    g.validate()
    return g


def test_validate_returns_the_wiring():
    """validate maps both ends of edge i to i and dangling port j to
    m + j, one entry per port, on grids with loop edges, arity-0
    vertices and dangling ports."""
    rng = random.Random(20)
    seen = dict.fromkeys(["loop", "arity0", "dangling"], 0)
    checked = 0
    while checked < 80:
        g = _random_mixed_grid(rng) if checked % 2 else _random_gadget(rng, rand_nonneg_sig(rng))
        if g is None:
            continue
        m = len(g.edges)
        expected = {p: m + j for j, p in enumerate(g.dangling)}
        for i, (a, b) in enumerate(g.edges):
            expected[a] = expected[b] = i
        assert g.validate() == expected
        assert expected.keys() == {(vid, s) for vid, v in g.vertices.items() for s in range(v.arity)}
        checked += 1
        seen["loop"] += "loop" in g.vertices
        seen["arity0"] += any(v.arity == 0 for v in g.vertices.values())
        seen["dangling"] += bool(g.dangling)
    assert min(seen.values()) >= 10, seen


def test_pruned_evaluator_matches_no_pruning_reference():
    """Elimination equals the explicit sum over every edge assignment,
    including tensors riddled with zeros and sign flips, arity-0
    vertices, radical entries and an edge joining two ports of one
    vertex."""
    rng = random.Random(18)
    checked, seen = 0, {"arity0": 0, "loop": 0, "radical": 0}
    while checked < 150:
        g = _random_mixed_grid(rng)
        if g is None:
            continue
        assert holant(g) == _no_pruning_holant(g)
        checked += 1
        sigs = [v.sig for v in g.vertices.values()]
        seen["arity0"] += any(s.arity == 0 for s in sigs)
        seen["loop"] += "loop" in g.vertices
        seen["radical"] += any(isinstance(x, QuadExt) for s in sigs for x in s.entries)
    assert min(seen.values()) >= 10, seen


def test_contract_equals_closing_each_pattern_with_point_unaries():
    """Tensor entry p is the Holant of the gadget with each dangling
    port i pinned by the unary [1,0] or [0,1] that bit i of p picks."""
    rng = random.Random(19)
    pins = (SymSig([1, 0]), SymSig([0, 1]))
    checked = 0
    while checked < 40:
        gadget = _random_gadget(rng, SymSig([rng.randint(-2, 3) for _ in range(4)]))
        d = len(gadget.dangling)
        if not 1 <= d <= 6:
            continue
        tensor, _ = contract(gadget)
        for p in range(1 << d):
            closed = close_with_unaries(gadget, [pins[(p >> i) & 1] for i in range(d)])
            assert tensor.value_at(p) == holant(closed) == _no_pruning_holant(gadget, p)
        checked += 1


def test_long_transfer_chain_contracts_to_matrix_power():
    """A length-40 chain (119 edges) contracts in one pass to the 40th
    power of the straddled matrix."""
    f = SymSig([Fraction(1, 2), 3, -1, Fraction(5, 3)])
    tensor, pols = contract(build_transfer_chain(f, 40))
    m = matrix_power(straddled_from_f(f), 40)
    assert pols == ("L", "R")
    assert (tensor.value_at(0b00), tensor.value_at(0b10),
            tensor.value_at(0b01), tensor.value_at(0b11)) == (
        m[0][0], m[0][1], m[1][0], m[1][1])


def test_live_state_limit_refuses_with_too_many_live_states(monkeypatch):
    g = rand_pure_grid(random.Random(42), SymSig([1, 2, 3, 5]), 14)
    assert holant(g) > 0
    monkeypatch.setattr(grid_module, "MAX_LIVE_STATES", 16)
    with pytest.raises(TooManyLiveStates) as exc:
        holant(g)
    assert str(exc.value) == ("elimination table reached 20 live states at vertex ('f', 2), "
                              "over the limit 16")


def test_absorption_order_is_pinned(monkeypatch):
    """The greedy order on a seeded 14+14-vertex grid: the equality
    vertices fold into variables, and the f vertices are absorbed in
    this order. A change to the order function shows here first."""
    g = rand_pure_grid(random.Random(42), SymSig([1, 2, 3, 5]), 14)
    orders = []
    greedy = grid_module._greedy_order

    def recorded(*args):
        orders.append(greedy(*args))
        return orders[-1]

    monkeypatch.setattr(grid_module, "_greedy_order", recorded)
    holant(g)
    factors = [vid for vid in g.vertices if vid[0] == "f"]
    assert [factors[i] for i in orders[0]] == [("f", i) for i in (0, 3, 11, 2, 13, 9, 5, 1, 7,
                                                                  10, 4, 6, 8, 12)]


def _insertion_order(variables, touching, left):
    return list(range(len(variables)))


def _reversed_order(variables, touching, left):
    return list(range(len(variables)))[::-1]


@pytest.mark.parametrize("order", [_insertion_order, _reversed_order])
def test_values_do_not_depend_on_the_absorption_order(order, monkeypatch):
    """The sweep is exact under any order of the factors, not only the
    greedy one: holant equals the explicit sum and contract the
    point-unary closures, on grids drawn as in the tests above."""
    monkeypatch.setattr(grid_module, "_greedy_order", order)
    rng = random.Random(21)
    checked = 0
    while checked < 40:
        g = _random_mixed_grid(rng) if checked % 2 else _random_equality_grid(rng)
        if g is None:
            continue
        if g.dangling:
            tensor, _ = contract(g)
            assert list(tensor.entries) == [_no_pruning_holant(g, p)
                                            for p in range(1 << len(g.dangling))]
        else:
            assert holant(g) == _no_pruning_holant(g)
        checked += 1
    pins = (SymSig([1, 0]), SymSig([0, 1]))
    checked = 0
    while checked < 10:
        gadget = _random_gadget(rng, SymSig([rng.randint(-2, 3) for _ in range(4)]))
        d = len(gadget.dangling)
        if not 1 <= d <= 6:
            continue
        tensor, _ = contract(gadget)
        for p in range(1 << d):
            closed = close_with_unaries(gadget, [pins[(p >> i) & 1] for i in range(d)])
            assert tensor.value_at(p) == holant(closed)
        checked += 1


# -- equality classes -------------------------------------------------------

def _weight(rng):
    """1 often, else a small rational (zero and negative included) or,
    now and then, a value in Q(sqrt(2))."""
    r = rng.random()
    if r < 0.4:
        return Fraction(1)
    x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return QuadExt(x, rng.randint(-1, 1), 2) if r > 0.85 else x


def _random_equality_grid(rng):
    """Equality-type vertices [a,0,...,0,b] of arity 1-4 with any
    polarities, mixed with up to two other vertices (tensors or
    symmetric signatures); L and R ports pair up at random, and the
    ports left over, plus a few more, dangle. None past 10 edges or 4
    dangling ports."""
    g = SignatureGrid()
    ports = {"L": [], "R": []}

    def add(vid, sig, arity):
        pols = tuple(rng.choice("LR") for _ in range(arity))
        g.add_vertex(vid, sig, pols)
        for s, p in enumerate(pols):
            ports[p].append((vid, s))

    for i in range(rng.randint(1, 4)):
        arity = rng.randint(1, 4)
        add(("q", i), SymSig([_weight(rng)] + [0] * (arity - 1) + [_weight(rng)]), arity)
    for i in range(rng.randint(0, 2)):
        arity = rng.randint(0, 3)
        if rng.random() < 0.5:
            sig = Tensor(arity, [Fraction(rng.randint(-2, 3)) for _ in range(1 << arity)])
        else:
            sig = SymSig([Fraction(rng.randint(-2, 3)) for _ in range(arity + 1)])
        add(("f", i), sig, arity)
    left, right = ports["L"], ports["R"]
    rng.shuffle(left)
    rng.shuffle(right)
    wired = max(0, min(len(left), len(right)) - rng.randint(0, 1))
    for a, b in zip(left[:wired], right[:wired]):
        g.add_edge(a, b)
    loose = left[wired:] + right[wired:]
    rng.shuffle(loose)
    g.dangling = loose
    if len(g.edges) > 10 or len(g.dangling) > 4:
        return None
    g.validate()
    return g


def _is_eq(sig):
    return isinstance(sig, SymSig) and sig.arity >= 1 and not any(sig.values[1:-1])


def test_equality_classes_match_no_pruning_reference():
    """Every entry of contract (and holant when closed) equals the
    explicit sum over all edge assignments on grids whose equality
    vertices are weighted, hold two dangling ports, meet each other, or
    make up whole components."""
    rng = random.Random(31)
    seen = dict.fromkeys(["two_dangling_on_eq", "eq_eq_edge", "eq_only_closed",
                          "eq_only_dangling", "weighted", "radical", "closed"], 0)
    for _ in range(400):
        g = _random_equality_grid(rng)
        if g is None:
            continue
        d = len(g.dangling)
        if d:
            tensor, _ = contract(g)
            assert list(tensor.entries) == [_no_pruning_holant(g, p) for p in range(1 << d)]
        else:
            assert holant(g) == _no_pruning_holant(g)
            seen["closed"] += 1
        vs = g.vertices
        owners = [vid for vid, _ in g.dangling]
        seen["two_dangling_on_eq"] += any(_is_eq(vs[v].sig) and owners.count(v) >= 2
                                          for v in set(owners))
        seen["eq_eq_edge"] += any(_is_eq(vs[a[0]].sig) and _is_eq(vs[b[0]].sig)
                                  for a, b in g.edges)
        comps = {v: frozenset([v]) for v in vs}   # each vertex's component, merged per edge
        for a, b in g.edges:
            merged = comps[a[0]] | comps[b[0]]
            comps.update(dict.fromkeys(merged, merged))
        for comp in set(comps.values()):
            if all(_is_eq(vs[v].sig) for v in comp):
                seen["eq_only_dangling" if set(owners) & comp else "eq_only_closed"] += 1
        eq_values = [x for v in vs.values() if _is_eq(v.sig) for x in v.sig.values]
        seen["weighted"] += any(x != 1 for x in eq_values if x != 0)
        seen["radical"] += any(isinstance(x, QuadExt) for x in eq_values)
    assert min(seen.values()) >= 10, seen


def test_close_with_arbitrary_unaries_matches_no_pruning_reference():
    """Unaries are equality-type vertices of arity 1: closing a gadget
    with any of them (zero, negative or radical entries) folds them
    into the weights of its dangling classes."""
    rng = random.Random(32)
    checked = 0
    while checked < 40:
        gadget = (_random_gadget(rng, rand_nonneg_sig(rng)) if rng.random() < 0.5
                  else _random_equality_grid(rng))
        if gadget is None or not gadget.dangling or len(gadget.edges) + len(gadget.dangling) > 10:
            continue
        closed = close_with_unaries(gadget, [SymSig([_weight(rng), _weight(rng)])
                                             for _ in gadget.dangling])
        assert holant(closed) == _no_pruning_holant(closed)
        checked += 1


def test_equality_only_components():
    """Two weighted equalities joined by a triple edge give a1*a2 + b1*b2;
    next to another grid they multiply it, and one dangling equality
    contracts to its own weights."""
    r2 = QuadExt(0, 1, 2)
    pair = SignatureGrid()
    pair.add_vertex("p", SymSig([2, 0, 0, r2]), "L")
    pair.add_vertex("q", SymSig([Fraction(1, 3), 0, 0, -1]), "R")
    for s in range(3):
        pair.add_edge(("p", s), ("q", s))
    assert holant(pair) == Fraction(2, 3) - r2
    other = bipartite_grid(SymSig([1, 2, 3, 5]), PAIRS_2x2)
    assert holant(disjoint_union(pair, other)) == holant(pair) * holant(other)
    solo = SignatureGrid()
    solo.add_vertex("q", SymSig([3, 0, 0, Fraction(1, 2)]), ("L", "R", "L"))
    for s in range(3):
        solo.mark_dangling(("q", s))
    tensor, _ = contract(solo)
    assert tensor.entries == (3, 0, 0, 0, 0, 0, 0, Fraction(1, 2))


def test_evaluator_equals_planar_pipeline_at_320_grid_vertices():
    """Seeded bead/ladder instances of 320 grid vertices (480 edges),
    each an exact evaluation past the reach of edge-keyed tables."""
    for seed in (1, 2, 3):
        inst = bead_ladder_instance(seed, 320)
        value = holant(inst.grid)
        assert value != 0
        assert value == solve_planar_moderate_cover(inst)


def test_table_emptied_while_an_internal_variable_is_open():
    """An all-zero vertex absorbed first empties the table while the
    edge it opened is still open: every entry of the contraction is 0."""
    g = SignatureGrid()
    g.add_vertex("a", SymSig([1, 2, 3]), ("L", "L"))
    g.add_vertex("b", SymSig([1, 1, 1]), ("R", "L"))
    g.add_vertex("c", Tensor(2, [0, 0, 0, 0]), ("R", "L"))
    g.add_vertex("d", SymSig([1, 1]), ("R",))
    g.add_edge(("a", 1), ("b", 0))
    g.add_edge(("b", 1), ("c", 0))
    g.add_edge(("c", 1), ("d", 0))
    g.mark_dangling(("a", 0))
    tensor, _ = contract(g)
    assert tensor.entries == (0, 0) == tuple(_no_pruning_holant(g, p) for p in range(2))
