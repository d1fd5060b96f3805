"""Seeded instance generators for the benchmark.

Everything here is written against the JSON file formats of the CLI and
imports nothing from the package under test, so the inputs a seed
produces do not change when the program changes.

Grid JSON: vertices {"id", "side", "sig"}, edges [vid, slot, vid, slot].
Left vertices are "f<i>" (signature f), right vertices "q<j>" (EQ3).
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles


def fstr(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def sig_str(values) -> str:
    return "[" + ",".join(fstr(v) for v in values) + "]"


# -- bipartite 3-regular grids -----------------------------------------------

def random_pairing(rng: random.Random, k: int) -> list:
    """Random 3-regular bipartite multigraph with k vertices a side, as
    a list of (left index, right index) pairs, three per left vertex in
    slot order."""
    rports = [j for j in range(k) for _ in range(3)]
    rng.shuffle(rports)
    return [(i, rports[3 * i + s]) for i in range(k) for s in range(3)]


def is_connected(k: int, pairs: list) -> bool:
    return len(oracles.component_sizes(oracles.left_neighbours(pairs), k)) == 1


def connected_pairing(rng: random.Random, k: int) -> list:
    while True:
        pairs = random_pairing(rng, k)
        if is_connected(k, pairs):
            return pairs


def union_of_pairings(parts: list) -> list:
    """Disjoint union: each part is (k, pairs); indices are shifted."""
    out, shift = [], 0
    for k, pairs in parts:
        out.extend((i + shift, j + shift) for i, j in pairs)
        shift += k
    return out


def grid_json(f_values, pairs: list) -> dict:
    """Closed grid: f on "f<i>", EQ3 on "q<j>"; slots in order of appearance."""
    k_left = 1 + max(i for i, _ in pairs)
    k_right = 1 + max(j for _, j in pairs)
    sig = sig_str(f_values)
    vertices = [{"id": f"f{i}", "side": "L", "sig": sig} for i in range(k_left)]
    vertices += [{"id": f"q{j}", "side": "R", "sig": "EQ3"} for j in range(k_right)]
    lslot = [0] * k_left
    rslot = [0] * k_right
    edges = []
    for i, j in pairs:
        edges.append([f"f{i}", lslot[i], f"q{j}", rslot[j]])
        lslot[i] += 1
        rslot[j] += 1
    return {"vertices": vertices, "edges": edges, "dangling": []}


def random_set_system(rng: random.Random, n_sets: int) -> list:
    """3-uniform 3-regular set system on n_sets elements, sets sorted."""
    while True:
        pairs = random_pairing(rng, n_sets)
        sets = [[] for _ in range(n_sets)]
        for elt, k in pairs:
            sets[k].append(elt)
        if all(len(set(s)) == 3 for s in sets):
            return [sorted(s) for s in sets]


# -- gadgets -------------------------------------------------------------------

def chain_gadget_json(f_values, s: int) -> dict:
    """s transfer gadgets in series; dangling (f0 slot 0: L, q_{s-1} slot 2: R)."""
    sig = sig_str(f_values)
    vertices, edges = [], []
    for i in range(s):
        vertices.append({"id": f"f{i}", "side": "L", "sig": sig})
        vertices.append({"id": f"q{i}", "side": "R", "sig": "EQ3"})
        edges.append([f"f{i}", 1, f"q{i}", 0])
        edges.append([f"f{i}", 2, f"q{i}", 1])
    for i in range(s - 1):
        edges.append([f"f{i + 1}", 0, f"q{i}", 2])
    return {"vertices": vertices, "edges": edges, "dangling": [["f0", 0], [f"q{s - 1}", 2]]}


def hub_gadget_json(f_values) -> dict:
    """Three f's each meeting two equalities once; dangling f_i slot 0."""
    sig = sig_str(f_values)
    vertices = [{"id": f"f{i}", "side": "L", "sig": sig} for i in range(3)]
    vertices += [{"id": f"q{j}", "side": "R", "sig": "EQ3"} for j in range(2)]
    edges = []
    for i in range(3):
        edges.append([f"f{i}", 1, "q0", i])
        edges.append([f"f{i}", 2, "q1", i])
    return {"vertices": vertices, "edges": edges, "dangling": [[f"f{i}", 0] for i in range(3)]}


def probe_gadget_json(f_values, u_values) -> dict:
    """One f, two equalities, two unaries u; dangling q1 slot 2 (R)."""
    sig, usig = sig_str(f_values), sig_str(u_values)
    vertices = [{"id": "f0", "side": "L", "sig": sig},
                {"id": "q0", "side": "R", "sig": "EQ3"},
                {"id": "q1", "side": "R", "sig": "EQ3"},
                {"id": "t0", "side": "L", "sig": usig},
                {"id": "t1", "side": "L", "sig": usig}]
    edges = [["t0", 0, "q0", 0], ["f0", 0, "q0", 1], ["f0", 1, "q0", 2],
             ["t1", 0, "q1", 0], ["f0", 2, "q1", 1]]
    return {"vertices": vertices, "edges": edges, "dangling": [["q1", 2]]}


# -- embedded planar grids (rotation systems) ---------------------------------

def planar_faces(edges: list, rot: dict) -> list:
    """Orbits of the dart successor: a dart (edge index, direction 0 for
    u->v) arrives at its head and leaves by the rotation successor of the
    arrival end there. rot[v] lists (edge index, end) cyclically."""
    pos = {(v, end): i for v, r in rot.items() for i, end in enumerate(r)}
    seen, faces = set(), []
    for idx in range(len(edges)):
        for d in (0, 1):
            dart = (idx, d)
            if dart in seen:
                continue
            walk = []
            while dart not in seen:
                seen.add(dart)
                walk.append(dart)
                i, direction = dart
                head = edges[i][1] if direction == 0 else edges[i][0]
                arrival = (i, 0 if edges[i][0] == head else 1)
                r = rot[head]
                dart = r[(pos[(head, arrival)] + 1) % len(r)]
            faces.append(walk)
    return faces


class Embedded:
    """A 3-regular bipartite grid with a slot rotation per vertex.

    side: vid -> "L" / "R"; edges: list of ((vid, slot), (vid, slot)) with
    the L port first; rot: vid -> cyclic slot order. Vertex ids are
    tuples in the style of the test suite's generators (("L", i),
    ("bead", tag, "R"), ...), written to JSON as lists; the CLI's
    witness search visits vertices in the string order of these ids.
    """

    def __init__(self):
        self.side: dict = {}
        self.edges: list = []
        self.rot: dict = {}

    def copy(self) -> "Embedded":
        e = Embedded()
        e.side = dict(self.side)
        e.edges = list(self.edges)
        e.rot = {v: list(r) for v, r in self.rot.items()}
        return e

    def faces(self) -> list:
        """Faces as dart lists (edge index, direction) of the rotation system."""
        end_of = {}
        for idx, (a, b) in enumerate(self.edges):
            end_of[a] = (idx, 0)
            end_of[b] = (idx, 1)
        edges = [[a[0], b[0]] for a, b in self.edges]
        rot = {v: [end_of[(v, slot)] for slot in r] for v, r in self.rot.items()}
        return planar_faces(edges, rot)

    def genus_zero(self) -> bool:
        return len(self.side) - len(self.edges) + len(self.faces()) == 2

    def to_json(self, f_values) -> dict:
        sig = sig_str(f_values)
        vertices = [{"id": v, "side": s, "sig": sig if s == "L" else "EQ3"}
                    for v, s in self.side.items()]
        edges = [[a[0], a[1], b[0], b[1]] for a, b in self.edges]
        return {"vertices": vertices, "edges": edges, "dangling": [],
                "rotations": [[v, list(r)] for v, r in self.rot.items()]}


def theta_chain(k: int) -> Embedded:
    """Cycle L0 R0 L1 R1 ... with every L_i-R_i edge doubled."""
    e = Embedded()
    for i in range(k):
        e.side[("L", i)] = "L"
        e.side[("R", i)] = "R"
    for i in range(k):
        e.edges.append(((("L", i), 0), (("R", i), 0)))
        e.edges.append(((("L", i), 1), (("R", i), 1)))
        e.edges.append(((("L", i), 2), (("R", (i - 1) % k), 2)))
    for i in range(k):
        e.rot[("L", i)] = [2, 0, 1]
        e.rot[("R", i)] = [1, 0, 2]
    return e


def bead_expand(e: Embedded, rng: random.Random) -> Embedded:
    """Replace a random edge by a path through a doubled L/R bead."""
    out = e.copy()
    lport, rport = out.edges.pop(rng.randrange(len(out.edges)))
    tag = len(out.side)
    rn, ln = ("bead", tag, "R"), ("bead", tag, "L")
    out.side[rn] = "R"
    out.side[ln] = "L"
    out.edges += [(lport, (rn, 0)), ((ln, 0), (rn, 1)), ((ln, 1), (rn, 2)), ((ln, 2), rport)]
    out.rot[rn] = [0, 1, 2]
    out.rot[ln] = [1, 0, 2]
    return out


def ladder_expand(e: Embedded, rng: random.Random):
    """Cut two edges on one face and thread both through a new
    cross-linked L/R pair; None when no rotation choice stays planar."""
    faces = [w for w in e.faces() if len({idx for idx, _ in w}) >= 2]
    if not faces:
        return None
    walk = faces[rng.randrange(len(faces))]
    idxs = list(dict.fromkeys(idx for idx, _ in walk))
    e1, e2 = idxs[0], idxs[1]
    base = e.copy()
    (l1, r1), (l2, r2) = base.edges[e1], base.edges[e2]
    base.edges = [edge for i, edge in enumerate(base.edges) if i not in (e1, e2)]
    tag = len(base.side)
    ln, rn = ("lad", tag, "L"), ("lad", tag, "R")
    base.side[ln] = "L"
    base.side[rn] = "R"
    base.edges += [(l1, (rn, 0)), (l2, (rn, 1)), ((ln, 0), r1), ((ln, 1), r2), ((ln, 2), (rn, 2))]
    for ln_rot in ([0, 1, 2], [0, 2, 1]):
        for rn_rot in ([0, 1, 2], [0, 2, 1]):
            base.rot[ln] = ln_rot
            base.rot[rn] = rn_rot
            if base.genus_zero():
                return base
    return None


def embedded_instance(rng: random.Random, n_vertices: int) -> Embedded:
    """Planar embedded grid with exactly n_vertices grid vertices (even)."""
    e = theta_chain(rng.randint(1, min(4, n_vertices // 2)))
    while len(e.side) < n_vertices:
        grown = bead_expand(e, rng) if rng.random() < 0.5 else ladder_expand(e, rng)
        if grown is not None:
            e = grown
    if not e.genus_zero():
        raise AssertionError("generator produced a non-planar rotation system")
    return e


# -- weighted planar graphs ----------------------------------------------------

def apollonian(rng: random.Random, steps: int):
    """Stacked triangulation: (n_vertices, edges [u, v], rotation) where
    rotation[v] lists (edge index, end) in cyclic order."""
    edges = [[0, 1], [1, 2], [2, 0]]
    rot = {0: [(0, 0), (2, 1)], 1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1)]}
    for _ in range(steps):
        tri = [w for w in planar_faces(edges, rot) if len(w) == 3]
        walk = rng.choice(tri)
        new = len(rot)
        heads = [edges[idx][1 if d == 0 else 0] for idx, d in walk]
        base = len(edges)
        edges += [[new, heads[i]] for i in range(3)]
        rot[new] = [(base + 2, 0), (base + 1, 0), (base, 0)]
        for i, (idx, d) in enumerate(walk):
            head = heads[i]
            arrival = (idx, 0 if edges[idx][0] == head else 1)
            r = rot[head]
            r.insert(r.index(arrival) + 1, (base + i, 1))
    return len(rot), edges, rot


def weighted_planar_json(rng: random.Random, steps: int, deletions: int) -> dict:
    """Apollonian graph with integer weights in [-3, 4] (zero and negative
    included) and a few random edges removed."""
    n, edges, rot = apollonian(rng, steps)
    weights = [rng.randint(-3, 4) for _ in edges]
    keep = list(range(len(edges)))
    for _ in range(deletions):
        keep.pop(rng.randrange(len(keep)))
    remap = {old: new for new, old in enumerate(keep)}
    return {
        "vertices": [{"id": v, "rotation": [[remap[i], end] for i, end in rot[v] if i in remap]}
                     for v in range(n)],
        "edges": [[edges[i][0], edges[i][1], str(weights[i])] for i in keep],
    }
