import hashlib
import json
import random
from fractions import Fraction

import pytest

from holant3 import matchgates, planar
from holant3.errors import NotGenusZero, NotPlanarInstance, WrongSignatures
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
from holant3.formats import format_planar_graph
from holant3.cli import main
from holant3.errors import GridStructureError
from holant3.planar import (
    PlanarMultigraph,
    check_genus_zero,
    count_pm,
    enumerate_pm,
    kasteleyn_orient,
    matching_sign,
    pfaffian,
)
from holant3.signatures import EQ3, SymSig, hadamard_transform
from conftest import (
    bead_expand,
    bead_ladder_instance,
    embedded_multigraph,
    ladder_expand,
    planar_union,
    random_embedded_instance,
    random_planar_graph,
    theta_chain_grid,
)


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
    assert value == holant(inst.grid)


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
    # the composed graph keeps the input's V - E + F = 4 - 6 + 2
    with pytest.raises(NotPlanarInstance, match=r"^component 0: V-E\+F = 16-26\+10 != 2$"):
        solve_planar_moderate_cover(bad)
    graph, _, _ = holographic_reduce(bad)
    with pytest.raises(NotGenusZero):
        count_pm(graph)


def _pop_last_edge(grid):
    grid.edges.pop()


def _rename_first_l_end(grid):
    (_, slot), b = grid.edges[0]
    grid.edges[0] = (("z", slot), b)


@pytest.mark.parametrize("break_grid, message", [
    (_pop_last_edge, "port (('R', 0),2) neither wired nor dangling"),
    (_rename_first_l_end, "edge: unknown vertex 'z'"),
])
def test_as_multigraph_reports_a_malformed_grid_as_validate_does(break_grid, message):
    """holographic_reduce validates the grid it splices, so a broken
    wiring is validate's GridStructureError naming the faulty port, not
    a KeyError."""
    inst = theta_chain_grid(2, ONE_OR_TWO)
    break_grid(inst.grid)
    with pytest.raises(GridStructureError) as exc:
        holographic_reduce(inst)
    assert type(exc.value) is GridStructureError and str(exc.value) == message


def test_as_multigraph_refuses_dangling_ports():
    inst = theta_chain_grid(2, ONE_OR_TWO)
    for port in inst.grid.edges.pop():
        inst.grid.mark_dangling(port)
    with pytest.raises(NotPlanarInstance, match="embedded instances must be closed grids"):
        holographic_reduce(inst)


def test_scalar_accounting():
    inst = theta_chain_grid(2, ONE_OR_TWO)
    graph, scalar, _ = holographic_reduce(inst)
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


def _disjoint_thetas():
    """Two theta chains (2 and 4 left vertices) and their disjoint union."""
    from holant3.grid import disjoint_union

    a = theta_chain_grid(2, ONE_OR_TWO)
    b = theta_chain_grid(4, ONE_OR_TWO)
    rotations = {(0, vid): slots for vid, slots in a.rotations.items()}
    rotations.update(((1, vid), slots) for vid, slots in b.rotations.items())
    return a, b, EmbeddedGrid(disjoint_union(a.grid, b.grid), rotations)


def test_moderate_cover_disjoint_union_multiplies():
    a, b, union = _disjoint_thetas()
    assert solve_planar_moderate_cover(union) == \
        solve_planar_moderate_cover(a) * solve_planar_moderate_cover(b)

@pytest.mark.parametrize("k, expected", [(50, 2), (51, 0)])
def test_theta_chain_past_the_brute_force_cap(k, expected):
    # each R_i fixes one bit and [0,1,1,0] makes neighbouring bits
    # differ around the cycle: 2 covers for even k, none for odd k
    assert solve_planar_moderate_cover(theta_chain_grid(k, ONE_OR_TWO)) == expected


# The composed graph of theta_chain_grid(2, ONE_OR_TWO), recorded from the
# gate construction that listed both gates inline: Pfaffian indices follow
# the vertex order and the fill follows the indices, so the spliced gates
# must reproduce the same vertices, edges, weights and rotations.
L0, L1, R0, R1 = ("L", 0), ("L", 1), ("R", 0), ("R", 1)
THETA2_ROTATIONS = [
    ((L0, "u"), [[3, 0], [4, 0], [5, 0]]),
    ((L0, 0), [[22, 0], [0, 0], [3, 1], [2, 1]]),
    ((L0, 1), [[20, 0], [1, 0], [4, 1], [0, 1]]),
    ((L0, 2), [[21, 0], [2, 0], [5, 1], [1, 1]]),
    ((L1, "u"), [[9, 0], [10, 0], [11, 0]]),
    ((L1, 0), [[25, 0], [6, 0], [9, 1], [8, 1]]),
    ((L1, 1), [[23, 0], [7, 0], [10, 1], [6, 1]]),
    ((L1, 2), [[24, 0], [8, 0], [11, 1], [7, 1]]),
    ((R0, "u"), [[12, 0], [13, 0], [14, 0]]),
    ((R0, 0), [[21, 1], [15, 0], [12, 1]]),
    ((R0, 1), [[20, 1], [13, 1], [15, 1]]),
    ((R0, 2), [[25, 1], [14, 1]]),
    ((R1, "u"), [[16, 0], [17, 0], [18, 0]]),
    ((R1, 0), [[24, 1], [19, 0], [16, 1]]),
    ((R1, 1), [[23, 1], [17, 1], [19, 1]]),
    ((R1, 2), [[22, 1], [18, 1]]),
]
THETA2_EDGES = [
    [(L0, 0), (L0, 1), "-1"], [(L0, 1), (L0, 2), "-1"], [(L0, 2), (L0, 0), "-1"],
    [(L0, "u"), (L0, 0), "-1"], [(L0, "u"), (L0, 1), "-1"], [(L0, "u"), (L0, 2), "-1"],
    [(L1, 0), (L1, 1), "-1"], [(L1, 1), (L1, 2), "-1"], [(L1, 2), (L1, 0), "-1"],
    [(L1, "u"), (L1, 0), "-1"], [(L1, "u"), (L1, 1), "-1"], [(L1, "u"), (L1, 2), "-1"],
    [(R0, "u"), (R0, 0), "2"], [(R0, "u"), (R0, 1), "2"], [(R0, "u"), (R0, 2), "2"],
    [(R0, 0), (R0, 1), "1"],
    [(R1, "u"), (R1, 0), "2"], [(R1, "u"), (R1, 1), "2"], [(R1, "u"), (R1, 2), "2"],
    [(R1, 0), (R1, 1), "1"],
    [(L0, 1), (R0, 1), "1"], [(L0, 2), (R0, 0), "1"], [(L0, 0), (R1, 2), "1"],
    [(L1, 1), (R1, 1), "1"], [(L1, 2), (R1, 0), "1"], [(L1, 0), (R0, 2), "1"],
]


def test_composed_graph_is_pinned():
    graph, scalar, _ = holographic_reduce(theta_chain_grid(2, ONE_OR_TWO))
    assert format_planar_graph(graph) == {
        "vertices": [{"id": v, "rotation": rot} for v, rot in THETA2_ROTATIONS],
        "edges": THETA2_EDGES,
    }
    assert scalar == Fraction(1, 16) and type(scalar) is Fraction

    inst = random_embedded_instance(random.Random(0), ONE_OR_TWO, max_side=4)
    graph, scalar, _ = holographic_reduce(inst)
    text = json.dumps(format_planar_graph(graph), sort_keys=True)
    assert (len(graph.vertices), len(graph.edges)) == (32, 52)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "82a4bac877c32703426a3c66bfd65d6bb435578db83bd5989c72310a06816dd2"
    assert scalar == Fraction(1, 256)


def test_spliced_gates_keep_genus_zero():
    """Each gate is a disk with its externals on the outer face in the
    rotation's order, so the composed graph of a planar instance is
    planar: count_pm's Euler check is the only one it needs."""
    rng = random.Random(83)
    for _ in range(20):
        graph, _, _ = holographic_reduce(random_embedded_instance(rng, ONE_OR_TWO, max_side=6))
        check_genus_zero(graph)
    check_genus_zero(holographic_reduce(bead_ladder_instance(7, 120))[0])


def test_the_one_genus_check_refuses_exactly_the_nonplanar_inputs():
    """The splice keeps each component's V - E + F, so count_pm's check
    on the composed graph refuses exactly the inputs whose own rotation
    system, built apart from the package by embedded_multigraph, fails
    the Euler check. Mirroring 0-3 vertices of planar instances draws
    both kinds; an accepted input counts what the evaluator counts."""
    rng = random.Random(87)
    verdicts = []
    for _ in range(300):
        inst = random_embedded_instance(rng, ONE_OR_TWO, max_side=6)
        rotations = dict(inst.rotations)
        for vid in rng.sample(list(rotations), min(rng.randint(0, 3), len(rotations))):
            rotations[vid] = rotations[vid][::-1]
        mirrored = EmbeddedGrid(inst.grid, rotations)
        try:
            check_genus_zero(embedded_multigraph(mirrored))
        except NotGenusZero:
            with pytest.raises(NotPlanarInstance):
                solve_planar_moderate_cover(mirrored)
            verdicts.append("refused")
        else:
            assert solve_planar_moderate_cover(mirrored) == holant(mirrored.grid)
            verdicts.append("accepted")
    assert 60 < verdicts.count("refused") < 240


def test_solve_planar_cover_traces_faces_once(monkeypatch):
    """count_pm's genus check on the composed graph is the only one:
    holographic_reduce checks no embedding of its own."""
    calls = []

    def counted(g):
        calls.append(len(g.vertices))
        return check_genus_zero(g)

    monkeypatch.setattr(planar, "check_genus_zero", counted)
    inst = theta_chain_grid(2, ONE_OR_TWO)
    assert solve_planar_moderate_cover(inst) == 2
    assert calls == [16]


def _gate_matching_instances():
    rng = random.Random(84)
    yield from (random_embedded_instance(rng, ONE_OR_TWO, max_side=6) for _ in range(15))
    for n in (40, 120):
        yield from (bead_ladder_instance(seed, n) for seed in range(8))


def test_gate_matching_sign_equals_the_unit_pfaffian_sign():
    """The sign count_pm reads off the gates' own matching is the sign of
    Pf(unit) = tau * #PM, on count_pm's orientation and str-sorted index
    order; a new index order or new gate weights must keep this."""
    for inst in _gate_matching_instances():
        graph, _, matching = holographic_reduce(inst)
        faces, forest = check_genus_zero(graph)
        assert set(forest[2]) == {0}          # one component
        orientation = kasteleyn_orient(graph, faces=faces, forest=forest)
        index_of = {v: i for i, v in enumerate(sorted(graph.vertices, key=str))}
        arcs = []
        for idx, (u, v, _) in enumerate(graph.edges):
            i, j = index_of[u], index_of[v]
            arcs.append((j, i) if orientation[idx] else (i, j))
        n = len(graph.vertices)
        unit = [{} for _ in range(n)]
        for i, j in arcs:
            unit[i][j] = unit[i].get(j, 0) + 1
            unit[j][i] = unit[j].get(i, 0) - 1
        signed_count = pfaffian(unit)
        assert signed_count != 0
        assert matching_sign([arcs[idx] for idx in matching], n) == (1 if signed_count > 0 else -1)


def test_matching_sign_is_the_pair_permutation_parity():
    assert matching_sign([], 0) == 1
    assert matching_sign([(0, 1), (2, 3)], 4) == 1
    assert matching_sign([(1, 0), (2, 3)], 4) == -1
    assert matching_sign([(0, 2), (1, 3)], 4) == -1
    assert matching_sign([(0, 3), (1, 2)], 4) == 1
    for pairs in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (2, 2)]):
        with pytest.raises(GridStructureError):
            matching_sign(pairs, 4)


def test_pfaffian_runs_once_per_component_of_a_cover_solve(monkeypatch, tmp_path, capsys):
    """solve-planar-cover hands count_pm the gate matching, so each
    component costs one Pfaffian; pm-count knows no matching and still
    runs two, every unit Pfaffian first. The one genus check makes the
    one component search, in _forest, that count_pm reuses."""
    pfaffians, component_passes = [], []
    forest = planar._forest

    def counted_pfaffian(matrix):
        pfaffians.append(len(matrix))
        return pfaffian(matrix)

    def counted_forest(g):
        component_passes.append(1)
        return forest(g)

    monkeypatch.setattr(planar, "pfaffian", counted_pfaffian)
    monkeypatch.setattr(planar, "_forest", counted_forest)

    assert solve_planar_moderate_cover(theta_chain_grid(2, ONE_OR_TWO)) == 2
    assert (pfaffians, component_passes) == ([16], [1])

    _, _, union = _disjoint_thetas()
    pfaffians.clear()
    component_passes.clear()
    assert solve_planar_moderate_cover(union) == 2 * 2
    assert (pfaffians, component_passes) == ([16, 32], [1])

    graph, scalar, _ = holographic_reduce(union)
    path = tmp_path / "union.json"
    path.write_text(json.dumps(format_planar_graph(graph)))
    pfaffians.clear()
    component_passes.clear()
    assert main(["pm-count", "--input", str(path), "--format", "json"]) == 0
    assert scalar * Fraction(json.loads(capsys.readouterr().out)["pm_count"]) == 4
    assert (pfaffians, component_passes) == ([16, 32, 16, 32], [1])


def test_one_pfaffian_cover_solve_equals_two_pfaffian_count_at_480_vertices():
    """At 480 grid vertices (1920 matching vertices) the Pfaffian's cost
    dominates; the gate-matching sign gives the value the unit-weight
    Pfaffian's sign gives."""
    inst = bead_ladder_instance(1, 480)
    graph, scalar, _ = holographic_reduce(inst)
    value = solve_planar_moderate_cover(inst)
    assert value != 0
    assert value == scalar * count_pm(graph)


def _theta_union(k):
    """k theta chains of 2 or 4 left vertices as one embedded grid, and the chains."""
    from holant3.grid import disjoint_union

    parts = [theta_chain_grid(2 + 2 * (i % 2), ONE_OR_TWO) for i in range(k)]
    rotations = {(i, vid): slots for i, p in enumerate(parts) for vid, slots in p.rotations.items()}
    return parts, EmbeddedGrid(disjoint_union(*(p.grid for p in parts)), rotations)


def test_count_pm_splits_a_200_theta_union_in_one_pass(monkeypatch):
    """count_pm builds every component's rows in one pass over the whole
    graph: it cuts no component out, by without_vertices or as a new
    PlanarMultigraph."""
    parts, union = _theta_union(200)
    graph, _, matching = holographic_reduce(union)
    expected = Fraction(1)
    for part in parts:
        part_graph, _, part_matching = holographic_reduce(part)
        expected *= count_pm(part_graph, part_matching)

    def refuse(self, *removed):
        raise AssertionError("count_pm cut a component out of the whole graph")

    monkeypatch.setattr(PlanarMultigraph, "without_vertices", refuse)
    with monkeypatch.context() as patched:
        patched.setattr(PlanarMultigraph, "__post_init__", refuse)
        assert count_pm(graph, matching) == expected
        assert count_pm(graph) == expected
    assert solve_planar_moderate_cover(union) == 2 ** 200


def test_values_do_not_depend_on_vertex_or_rotation_order():
    rng = random.Random(85)
    graphs = []
    for _ in range(8):
        inst = random_embedded_instance(rng, ONE_OR_TWO, max_side=6)
        value = solve_planar_moderate_cover(inst)
        grid = SignatureGrid()
        vids = list(inst.grid.vertices)
        rng.shuffle(vids)
        grid.vertices = {vid: inst.grid.vertices[vid] for vid in vids}
        grid.edges = list(inst.grid.edges)
        rotations = dict(reversed(list(inst.rotations.items())))
        assert solve_planar_moderate_cover(EmbeddedGrid(grid, rotations)) == value
        graphs.append(holographic_reduce(inst)[::2])
    graphs.extend((random_planar_graph(rng), None) for _ in range(8))
    # a union of two gate graphs, and a union with an isolated vertex among its parts
    (ga, sa, ma), (gb, sb, mb) = (holographic_reduce(theta_chain_grid(2, ONE_OR_TWO))
                                  for _ in range(2))
    isolated = PlanarMultigraph(["x"], [], {"x": []})
    unions = [(planar_union(ga, gb), list(ma) + [len(ga.edges) + idx for idx in mb]),
              (planar_union(ga, isolated, gb), None)]
    assert [sa * sb * count_pm(g, m) for g, m in unions] == [2 * 2, 0]
    for graph, matching in unions:
        assert enumerate_pm(graph) == count_pm(graph, matching) == count_pm(graph)
    graphs.extend(unions)
    for graph, matching in graphs:
        count = count_pm(graph, matching)
        vertices, keys = list(graph.vertices), list(graph.rotation)
        rng.shuffle(vertices)
        rng.shuffle(keys)
        shuffled = PlanarMultigraph(vertices, list(graph.edges),
                                    {v: graph.rotation[v] for v in keys})
        assert count_pm(shuffled, matching) == count
        assert count_pm(shuffled) == count


def test_gate_templates_stay_equal_to_fresh_gates():
    """holographic_reduce splices the gates built at import; a solve must
    leave them as crossing_gate() and equality_gate() build them."""
    assert solve_planar_moderate_cover(theta_chain_grid(4, ONE_OR_TWO)) == 2
    assert solve_planar_moderate_cover(bead_ladder_instance(2, 40)) != 0
    assert matchgates._CROSSING == crossing_gate()
    assert matchgates._EQUALITY == equality_gate()
