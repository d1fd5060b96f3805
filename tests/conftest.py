"""Shared randomized generators and independent oracles.

The oracles here are deliberately separate from the library paths they
check: perfect matchings by direct recursion, exact covers by subset
enumeration, Holant closures by explicit summation.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import holant3
from holant3.errors import NotGenusZero
from holant3.formats import format_grid
from holant3.grid import SignatureGrid, bipartite_grid
from holant3.planar import PlanarMultigraph, check_genus_zero
from holant3.signatures import EQ3, SymSig


def package_env() -> dict:
    """os.environ with the directory of the holant3 the tests import put
    first on PYTHONPATH, whether it is installed or only on pytest's
    pythonpath: a child interpreter then imports the same package."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(holant3.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(args):
    """Run the CLI in a fresh interpreter that imports the same holant3 as
    the tests. Returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "holant3.cli", *args],
                          capture_output=True, text=True, env=package_env())
    return proc.returncode, proc.stdout, proc.stderr


def rand_fraction(rng: random.Random, lo=-9, hi=9, den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_positive(rng: random.Random, hi=9, den=9) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def left_specs_grid_obj(specs):
    """JSON for a connected 3+3-vertex grid with EQ3 on the right, double
    edges and left vertex ("f", i) carrying the signature spec specs[i]."""
    pairs = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 2)]
    obj = format_grid(bipartite_grid(SymSig([2, 0, 2, 0]), pairs))
    for vert, spec in zip((v for v in obj["vertices"] if v["side"] == "L"), specs):
        vert["sig"] = spec
    return obj


def rand_nonneg_sig(rng: random.Random, arity=3) -> SymSig:
    return SymSig([Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(arity + 1)])


def rand_pure_grid(rng: random.Random, f: SymSig, k: int) -> SignatureGrid:
    """Random closed 3-regular bipartite multigraph with k vertices a side."""
    lports = [i for i in range(k) for _ in range(3)]
    rports = [j for j in range(k) for _ in range(3)]
    rng.shuffle(rports)
    return bipartite_grid(f, list(zip(lports, rports)))


def brute_exact_covers(sets) -> int:
    ground = {x for s in sets for x in s}
    n = 0
    for r in range(len(sets) + 1):
        for comb in combinations(range(len(sets)), r):
            cnt: dict = {}
            for k in comb:
                for x in sets[k]:
                    cnt[x] = cnt.get(x, 0) + 1
            if all(cnt.get(x, 0) == 1 for x in ground):
                n += 1
    return n


def rand_3reg_system(rng: random.Random, n_sets: int):
    """Random 3-uniform 3-regular set system with n_sets sets (and as
    many ground elements)."""
    while True:
        slots = [k for k in range(n_sets) for _ in range(3)]
        elts = [x for x in range(n_sets) for _ in range(3)]
        rng.shuffle(slots)
        rng.shuffle(elts)
        sets: list[list] = [[] for _ in range(n_sets)]
        ok = True
        for x, k in zip(elts, slots):
            if x in sets[k]:
                ok = False
                break
            sets[k].append(x)
        if ok:
            return sets


def enumerate_pm_oracle(g: PlanarMultigraph) -> Fraction:
    """Weighted perfect-matching sum by direct recursion over vertices."""
    incident: dict = {v: [] for v in g.vertices}
    for u, v, w in g.edges:
        incident[u].append((v, w))
        incident[v].append((u, w))

    def rec(unmatched: tuple) -> Fraction:
        if not unmatched:
            return Fraction(1)
        v, rest = unmatched[0], unmatched[1:]
        total = Fraction(0)
        for w, weight in incident[v]:
            if w in rest:
                total += weight * rec(tuple(x for x in rest if x != w))
        return total

    return rec(tuple(sorted(g.vertices, key=str)))


def apollonian_graph(rng: random.Random, steps: int) -> PlanarMultigraph:
    """Random stacked triangulation grown face by face, rotations exact."""
    g = PlanarMultigraph([0, 1, 2], [(0, 1, 1), (1, 2, 1), (2, 0, 1)],
                         {0: [(0, 0), (2, 1)], 1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1)]})
    for _ in range(steps):
        triangles = [w for w in check_genus_zero(g)[0] if len(w) == 3]
        if not triangles:
            break
        walk = [(dart >> 1, dart & 1) for dart in rng.choice(triangles)]
        new = len(g.vertices)
        heads = []
        for idx, d in walk:
            u, v, _ = g.edges[idx]
            heads.append(v if d == 0 else u)
        base = len(g.edges)
        edges = list(g.edges) + [(new, heads[i], 1) for i in range(3)]
        rot = {x: list(r) for x, r in g.rotation.items()}
        # the new hub's rotation runs against the face-walk order
        rot[new] = [(base + 2, 0), (base + 1, 0), (base, 0)]
        for i, (idx, d) in enumerate(walk):
            head = heads[i]
            arr = (idx, 0 if g.edges[idx][0] == head else 1)
            rot[head].insert(rot[head].index(arr) + 1, (base + i, 1))
        g = PlanarMultigraph(list(g.vertices) + [new], edges, rot)
        check_genus_zero(g)
    return g


def planar_union(*graphs) -> PlanarMultigraph:
    """Disjoint union; vertex v of graphs[k] becomes (k, v), and its edges
    follow those of graphs[:k]."""
    vertices, edges, rotation = [], [], {}
    for k, g in enumerate(graphs):
        base = len(edges)
        vertices += [(k, v) for v in g.vertices]
        edges += [((k, u), (k, v), w) for u, v, w in g.edges]
        rotation.update(((k, v), [(base + idx, end) for idx, end in r])
                        for v, r in g.rotation.items())
    return PlanarMultigraph(vertices, edges, rotation)


def random_planar_graph(rng: random.Random, max_extra=4, weight_lo=-3, weight_hi=4):
    """Apollonian subgraph with random exact weights (zero and negative
    included) and random edge deletions."""
    g = apollonian_graph(rng, rng.randint(0, max_extra))
    edges = [(u, v, Fraction(rng.randint(weight_lo, weight_hi))) for (u, v, _) in g.edges]
    g = PlanarMultigraph(list(g.vertices), edges, {v: list(r) for v, r in g.rotation.items()})
    for _ in range(rng.randint(0, 2)):
        if not g.edges:
            break
        kill = rng.randrange(len(g.edges))
        remap, edges2 = {}, []
        for i, e in enumerate(g.edges):
            if i != kill:
                remap[i] = len(edges2)
                edges2.append(e)
        rot2 = {v: [(remap[i], e) for (i, e) in r if i != kill] for v, r in g.rotation.items()}
        g = PlanarMultigraph(list(g.vertices), edges2, rot2)
    return g


# -- embedded bipartite instances for the holographic pipeline ---------------

def embedded_multigraph(inst) -> PlanarMultigraph:
    """The rotation system of an embedded grid as a unit-weight planar
    multigraph on the grid's own vertices: the reference embedding that
    the planar path's genus check on its composed graph is held to.
    Each rotation slot's edge end comes from a map built here over the
    edge list, not from the package's wiring index."""
    grid = inst.grid
    end_of = {}
    for idx, (a, b) in enumerate(grid.edges):
        end_of[a], end_of[b] = (idx, 0), (idx, 1)
    rotation = {vid: [end_of[vid, slot] for slot in inst.rotations[vid]] for vid in grid.vertices}
    edges = [(a[0], b[0], 1) for a, b in grid.edges]
    return PlanarMultigraph(list(grid.vertices), edges, rotation)


def theta_chain_grid(k: int, fsig: SymSig):
    """Cycle L0 R0 L1 R1 ... with each L_i-R_i edge doubled; returns
    (grid, rotations) forming a planar 3-regular bipartite instance."""
    from holant3.matchgates import EmbeddedGrid

    g = SignatureGrid()
    for i in range(k):
        g.add_vertex(("L", i), fsig, "L")
        g.add_vertex(("R", i), EQ3, "R")
    for i in range(k):
        g.add_edge((("L", i), 0), (("R", i), 0))
        g.add_edge((("L", i), 1), (("R", i), 1))
        g.add_edge((("L", i), 2), (("R", (i - 1) % k), 2))
    g.validate()
    rot = {}
    for i in range(k):
        rot[("L", i)] = [2, 0, 1]
        rot[("R", i)] = [1, 0, 2]
    return EmbeddedGrid(g, rot)


def bead_expand(inst, rng: random.Random):
    """Replace a random grid edge by a doubled-bead path, preserving
    3-regularity, bipartiteness and planarity."""
    from holant3.matchgates import EmbeddedGrid

    grid = inst.grid
    f_sig = next(v.sig for v in grid.vertices.values() if all(p == "L" for p in v.polarities))
    g = grid.copy()
    idx = rng.randrange(len(g.edges))
    a, b = g.edges.pop(idx)
    if g.polarity_of(a) == "L":
        lport, rport = a, b
    else:
        lport, rport = b, a
    tag = len([v for v in g.vertices if isinstance(v, tuple) and v and v[0] == "bead"])
    rn = ("bead", tag, "R")
    ln = ("bead", tag, "L")
    from holant3.signatures import EQ3 as _EQ3

    g.add_vertex(rn, _EQ3, "R")
    g.add_vertex(ln, f_sig, "L")
    g.add_edge(lport, (rn, 0))
    g.add_edge((ln, 0), (rn, 1))
    g.add_edge((ln, 1), (rn, 2))
    g.add_edge((ln, 2), rport)
    g.validate()
    rot = {v: list(r) for v, r in inst.rotations.items()}
    # bubble embedding: [incoming, a, b] on the R bead, [b, a, outgoing] on the L bead
    rot[rn] = [0, 1, 2]
    rot[ln] = [1, 0, 2]
    out = EmbeddedGrid(g, rot)
    check_genus_zero(embedded_multigraph(out))
    return out


def ladder_expand(inst, rng: random.Random):
    """Cut two edges bordering a common face and thread them through a
    fresh crosslinked L/R pair. Rotations for the new pair are chosen by
    trying both cyclic classes per vertex and keeping a genus-0 combo;
    returns None when the instance has no usable face."""
    from holant3.matchgates import EmbeddedGrid

    grid = inst.grid
    f_sig = next(v.sig for v in grid.vertices.values() if all(p == "L" for p in v.polarities))
    faces, _ = check_genus_zero(embedded_multigraph(inst))
    faces = [w for w in faces if len({d >> 1 for d in w}) >= 2]
    if not faces:
        return None
    walk = faces[rng.randrange(len(faces))]
    e1, e2 = list(dict.fromkeys(d >> 1 for d in walk))[:2]     # its first two edges

    tag = len([v for v in grid.vertices if isinstance(v, tuple) and v and v[0] == "lad"])
    ln, rn = ("lad", tag, "L"), ("lad", tag, "R")
    g = grid.copy()
    cut = []
    for idx in sorted((e1, e2), reverse=True):
        cut.append(g.edges.pop(idx))
    new_rot_base = {v: list(r) for v, r in inst.rotations.items()}
    from holant3.signatures import EQ3 as _EQ3

    g.add_vertex(ln, f_sig, "L")
    g.add_vertex(rn, _EQ3, "R")
    ports = []
    for a, b in cut:
        lport, rport = (a, b) if g.polarity_of(a) == "L" else (b, a)
        ports.append((lport, rport))
    (l1, r1), (l2, r2) = ports
    g.add_edge(l1, (rn, 0))
    g.add_edge(l2, (rn, 1))
    g.add_edge((ln, 0), r1)
    g.add_edge((ln, 1), r2)
    g.add_edge((ln, 2), (rn, 2))
    g.validate()
    for ln_rot in ([0, 1, 2], [0, 2, 1]):
        for rn_rot in ([0, 1, 2], [0, 2, 1]):
            rot = {v: list(r) for v, r in new_rot_base.items()}
            rot[ln] = ln_rot
            rot[rn] = rn_rot
            cand = EmbeddedGrid(g, rot)
            try:
                check_genus_zero(embedded_multigraph(cand))
                return cand
            except NotGenusZero:
                continue
    return None


def random_embedded_instance(rng: random.Random, fsig: SymSig, max_side=8):
    inst = theta_chain_grid(rng.randint(1, 4), fsig)
    while len(inst.grid.vertices) < 2 * max_side and rng.random() < 0.6:
        if len(inst.grid.vertices) + 2 > 2 * max_side:
            break
        if rng.random() < 0.5:
            inst = bead_expand(inst, rng)
        else:
            expanded = ladder_expand(inst, rng)
            if expanded is not None:
                inst = expanded
    return inst


def bead_ladder_instance(seed: int, n_vertices: int):
    """Planar [0,1,1,0] | =3 instance of n_vertices grid vertices (even):
    a theta grown by beads (an edge through a doubled L/R pair) and
    ladders (the two edges of a corner at some vertex v threaded through
    a new L/R pair, the one nearer v doubly joined to it). Both keep the
    rotation system planar, so unlike bead_expand and ladder_expand no
    step re-checks the embedding; solve_planar_moderate_cover checks the
    result."""
    from holant3.matchgates import ONE_OR_TWO, EmbeddedGrid

    rng = random.Random(seed)
    side = {("L", 0): "L", ("R", 1): "R"}
    edges = [((("L", 0), s), (("R", 1), s)) for s in range(3)]   # L port first
    rot = {("L", 0): [0, 1, 2], ("R", 1): [0, 2, 1]}
    while len(side) < n_vertices:
        v = rng.choice(list(side))
        ln, rn = ("L", len(side)), ("R", len(side) + 1)
        side[ln], side[rn] = "L", "R"
        if rng.random() < 0.5:
            lport, rport = edges.pop(rng.randrange(len(edges)))
            edges += [(lport, (rn, 0)), ((ln, 0), (rn, 1)), ((ln, 1), (rn, 2)), ((ln, 2), rport)]
            rot[rn], rot[ln] = [0, 1, 2], [1, 0, 2]
            continue
        i = rng.randrange(3)
        corner = [(v, rot[v][i]), (v, rot[v][(i + 1) % 3])]     # in rotation order
        (l1, r1), (l2, r2) = (next(e for e in edges if p in e) for p in corner)
        edges = [e for e in edges if corner[0] not in e and corner[1] not in e]
        edges += [(l1, (rn, 0)), (l2, (rn, 1)), ((ln, 0), r1), ((ln, 1), r2), ((ln, 2), (rn, 2))]
        near, far = (rn, ln) if side[v] == "L" else (ln, rn)
        rot[near], rot[far] = [0, 2, 1], [0, 1, 2]
    g = SignatureGrid()
    for vid, s in side.items():
        g.add_vertex(vid, ONE_OR_TWO if s == "L" else EQ3, s)
    for a, b in edges:
        g.add_edge(a, b)
    return EmbeddedGrid(g, rot)


@pytest.fixture
def rng():
    return random.Random(20240817)
