import random
from fractions import Fraction

import pytest

from holant3.errors import NotPlanarInstance, WrongSignatures
from holant3.grid import SignatureGrid, holant
from holant3.matchgates import (
    ONE_OR_TWO,
    EmbeddedGrid,
    Matchgate,
    crossing_gate,
    equality_gate,
    holographic_reduce,
    matchgate_signature,
    solve_planar_moderate_cover,
)
from holant3.planar import PlanarMultigraph, count_pm
from holant3.signatures import EQ3, SymSig, hadamard_transform
from conftest import bead_expand, ladder_expand, random_embedded_instance, theta_chain_grid


def test_crossing_gate_signature():
    t = matchgate_signature(crossing_gate())
    assert t.is_symmetric()
    assert t.to_symmetric() == SymSig([Fraction(3, 4), 0, Fraction(-1, 4), 0])


def test_equality_gate_signature():
    t = matchgate_signature(equality_gate())
    assert t.is_symmetric()
    assert t.to_symmetric() == SymSig([2, 0, 2, 0])


def test_gate_signatures_match_hadamard_transforms():
    assert matchgate_signature(crossing_gate()).to_symmetric() == \
        hadamard_transform(ONE_OR_TWO, "H_inverse", "right")
    assert matchgate_signature(equality_gate()).to_symmetric() == \
        hadamard_transform(EQ3, "H", "left")


def test_odd_removals_vanish():
    t = matchgate_signature(crossing_gate())
    for pattern in range(8):
        if bin(pattern).count("1") % 2 == 1:
            assert t.value_at(pattern) == 0


def test_unweighted_star_gate_parity():
    g = PlanarMultigraph(["u", "a", "b", "c"],
                         [("u", "a", 1), ("u", "b", 1), ("u", "c", 1)],
                         {"u": [(0, 0), (1, 0), (2, 0)], "a": [(0, 1)],
                          "b": [(1, 1)], "c": [(2, 1)]})
    t = matchgate_signature(Matchgate(g, ["a", "b", "c"]))
    # u must pair with exactly one kept external: one removal pattern set
    assert t.value_at(0b000) == 0
    assert t.value_at(0b011) == 1   # a,b removed: u-c forced
    assert t.value_at(0b111) == 0   # u unmatched


def test_triple_edge_instance():
    inst = theta_chain_grid(1, ONE_OR_TWO)
    assert holant(inst.grid) == 0
    assert solve_planar_moderate_cover(inst) == 0


def test_2x2_multigraph_instance_value_2():
    inst = theta_chain_grid(2, ONE_OR_TWO)
    assert holant(inst.grid) == 2
    assert solve_planar_moderate_cover(inst) == 2


def test_randomized_holographic_identity():
    rng = random.Random(80)
    for _ in range(12):
        inst = random_embedded_instance(rng, ONE_OR_TWO, max_side=6)
        assert solve_planar_moderate_cover(inst) == holant(inst.grid)


@pytest.mark.parametrize("target", [80, 100, 120])
def test_planar_cover_matches_evaluator_past_enumeration_cap(target):
    """Bead/ladder instances of 80-120 grid vertices (120-180 edges),
    far past enumerate_pm's reach: the Pfaffian pipeline equals the
    elimination evaluator."""
    rng = random.Random(target)
    inst = theta_chain_grid(2, ONE_OR_TWO)
    while len(inst.grid.vertices) < target:
        grown = bead_expand(inst, rng) if rng.random() < 0.5 else ladder_expand(inst, rng)
        inst = grown or inst
    assert len(inst.grid.vertices) == target
    value = solve_planar_moderate_cover(inst)
    assert value != 0
    assert value == holant(inst.grid, max_edges=len(inst.grid.edges))


def test_holographic_identity_via_transformed_signatures():
    """Both sides transformed through the basis change evaluate to the
    same partition function, independently of any matchgate."""
    lhs_sig = hadamard_transform(ONE_OR_TWO, "H_inverse", "right")
    rhs_sig = hadamard_transform(EQ3, "H", "left")
    rng = random.Random(81)
    for _ in range(8):
        inst = random_embedded_instance(rng, ONE_OR_TWO, max_side=5)
        transformed = SignatureGrid()
        for vid, v in inst.grid.vertices.items():
            sig = lhs_sig if all(p == "L" for p in v.polarities) else rhs_sig
            transformed.add_vertex(vid, sig, v.polarities)
        transformed.edges = list(inst.grid.edges)
        transformed.validate()
        assert holant(transformed) == holant(inst.grid)


def test_wrong_signature_rejected():
    inst = theta_chain_grid(2, SymSig([1, 1, 1, 1]))
    with pytest.raises(WrongSignatures):
        holographic_reduce(inst)


def test_nonplanar_rotation_rejected():
    inst = theta_chain_grid(2, ONE_OR_TWO)
    rot = dict(inst.rotations)
    rot[("L", 0)] = [0, 2, 1]  # mirror one vertex: twists the doubled pair
    bad = EmbeddedGrid(inst.grid, rot)
    with pytest.raises(NotPlanarInstance):
        holographic_reduce(bad)


def test_scalar_accounting():
    inst = theta_chain_grid(2, ONE_OR_TWO)
    graph, scalar = holographic_reduce(inst)
    assert scalar == Fraction(1, 16)          # (1/4)^2 left vertices
    assert scalar * count_pm(graph) == 2
    assert len(graph.vertices) == 4 * 4       # four gates of four vertices


def test_moderate_cover_solver_matches_brute_force():
    rng = random.Random(82)
    for _ in range(8):
        inst = random_embedded_instance(rng, ONE_OR_TWO, max_side=5)
        assert solve_planar_moderate_cover(inst) == holant(inst.grid)


def test_simple_triple_hypergraph_is_not_planar():
    """Three identical 3-element hyperedges have a complete bipartite
    3x3 incidence graph, which admits no genus-0 rotation system; the
    planar pipeline must refuse every embedding attempt while the
    brute-force count remains available (6 = choose 1 or 2 of 3)."""
    from holant3.x3c import count_moderate_covers, rx3c_to_grid

    sets = [[1, 2, 3]] * 3
    assert count_moderate_covers(sets) == 6
    grid = rx3c_to_grid(sets, element_sig=ONE_OR_TWO)
    rotations = {vid: [0, 1, 2] for vid in grid.vertices}
    with pytest.raises(NotPlanarInstance):
        solve_planar_moderate_cover(EmbeddedGrid(grid, rotations))


def test_moderate_cover_disjoint_union_multiplies():
    from holant3.grid import disjoint_union

    a = theta_chain_grid(2, ONE_OR_TWO)
    b = theta_chain_grid(4, ONE_OR_TWO)
    union_grid = disjoint_union(a.grid, b.grid)
    rotations = {}
    for vid, slots in a.rotations.items():
        rotations[(0, vid)] = slots
    for vid, slots in b.rotations.items():
        rotations[(1, vid)] = slots
    union = EmbeddedGrid(union_grid, rotations)
    assert solve_planar_moderate_cover(union) == \
        solve_planar_moderate_cover(a) * solve_planar_moderate_cover(b)

@pytest.mark.parametrize("k, expected", [(50, 2), (51, 0)])
def test_theta_chain_past_the_brute_force_cap(k, expected):
    # each R_i fixes one bit and [0,1,1,0] makes neighbouring bits
    # differ around the cycle: 2 covers for even k, none for odd k
    assert solve_planar_moderate_cover(theta_chain_grid(k, ONE_OR_TWO)) == expected
