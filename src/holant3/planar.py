"""Planar multigraphs as rotation systems and exact Pfaffian counting.

A graph is stored with an explicit cyclic order of edge-ends around
each vertex. Faces are the orbits of the next-dart permutation; the
embedding is accepted only when every connected component satisfies
V - E + F = 2. No geometry and no planarity testing: embeddings are
inputs, the Euler check is the guard.

count_pm computes the weighted perfect-matching sum exactly: trace the
faces once, orient the edges so that every face but one has an odd
number of darts running against the face walk, build the signed skew
adjacency matrix as sparse rows straight from the edges, and take its
Pfaffian. Such an orientation gives every perfect matching the same
sign tau (negative weights make |Pf| alone insufficient). When the
caller knows one perfect matching, as the matchgate splice does, tau is
the sign of that matching's term, an O(n) permutation parity. Otherwise
a second Pfaffian on the same orientation with unit weights equals tau
times the number of perfect matchings: it is 0 exactly when there is
none, and otherwise its sign is tau.

pfaffian takes dense rows or {column: entry} rows and runs one sparse
fraction-free skew elimination: only the entries where the two pivot
rows meet are touched, so its cost follows the fill, not n^2. On
instances grown with the test suite's bead/ladder helpers (seed 1;
2-core Xeon VM, Python 3.11.7) a whole solve_planar_moderate_cover, one
Pfaffian, takes about 0.05/0.10/0.53 s at 240/480/960 grid vertices,
four matching vertices each; with the unit-weight Pfaffian as well it
took 0.08/0.23/2.2 s, and the dense elimination 4.8 s at 240. Two
things keep this above linear: entries are Pfaffian minors, whose bit
length grows with the eliminated block, and the fill depends on the
vertex order (one 1920-vertex instance fills to 116 live indices).
"""

from __future__ import annotations

import operator
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .errors import GridStructureError, NotGenusZero, NotSkewSymmetric
from .exact import Scalar, frac
from .grid import connected_components


@dataclass
class PlanarMultigraph:
    """vertices: ids; edges: (u, v, weight); rotation: per vertex, the
    cyclic list of incident edge-ends as (edge index, end) with end 0
    at u and end 1 at v."""

    vertices: list
    edges: list
    rotation: dict

    def __post_init__(self):
        self.edges = [(u, v, frac(w)) for u, v, w in self.edges]
        self.validate()

    def validate(self):
        expected = {}
        for idx, (u, v, _) in enumerate(self.edges):
            if u == v:
                raise GridStructureError("self-loops are not supported")
            expected.setdefault(u, set()).add((idx, 0))
            expected.setdefault(v, set()).add((idx, 1))
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise GridStructureError("duplicate vertex ids")
        for u in expected:
            if u not in vset:
                raise GridStructureError(f"edge endpoint {u!r} is not a vertex")
        for v in self.vertices:
            rot = list(self.rotation.get(v, []))
            if set(rot) != expected.get(v, set()) or len(rot) != len(expected.get(v, set())):
                raise GridStructureError(f"rotation at {v!r} does not list its edge-ends exactly once")

    def degree(self, v) -> int:
        return len(self.rotation.get(v, []))

    def copy(self) -> "PlanarMultigraph":
        return PlanarMultigraph(list(self.vertices), [tuple(e) for e in self.edges],
                                {v: list(r) for v, r in self.rotation.items()})

    def edge_remap(self, removed: set) -> dict:
        """Old index -> new index of each edge with neither end in
        removed, in edge order: the renumbering of without_vertices."""
        kept = (i for i, (u, v, _) in enumerate(self.edges)
                if u not in removed and v not in removed)
        return {i: k for k, i in enumerate(kept)}

    def without_vertices(self, removed) -> "PlanarMultigraph":
        removed = set(removed)
        remap = self.edge_remap(removed)
        new_rot = {}
        for v in self.vertices:
            if v in removed:
                continue
            new_rot[v] = [(remap[i], end) for i, end in self.rotation.get(v, []) if i in remap]
        return PlanarMultigraph([v for v in self.vertices if v not in removed],
                                [self.edges[i] for i in remap], new_rot)


def trace_faces(g: PlanarMultigraph) -> list[list]:
    """Orbits of the next-dart permutation; each dart used exactly once.

    Dart (idx, d) runs along edge idx from end d to end 1 - d; the face
    walk arrives at end 1 - d and departs along the rotation-successor
    of that end at its vertex. Darts and ends are coded as 2 idx + d."""
    succ = [0] * (2 * len(g.edges))      # end code -> next end code around its vertex
    for v in g.vertices:
        rot = g.rotation.get(v, [])
        for i, (idx, end) in enumerate(rot):
            nxt_idx, nxt_end = rot[(i + 1) % len(rot)]
            succ[2 * idx + end] = 2 * nxt_idx + nxt_end
    faces = []
    seen = [False] * len(succ)
    for start in range(len(succ)):
        if seen[start]:
            continue
        walk = []
        dart = start
        while not seen[dart]:
            seen[dart] = True
            walk.append((dart >> 1, dart & 1))
            dart = succ[dart ^ 1]
        faces.append(walk)
    return faces


def check_genus_zero(g: PlanarMultigraph) -> tuple[list[list], list[set]]:
    """Faces and connected components of the embedding; raises
    NotGenusZero unless every component satisfies V - E + F = 2."""
    faces = trace_faces(g)
    comps = connected_components(g.vertices, ((u, v) for u, v, _ in g.edges))
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    v_count = [0] * len(comps)
    e_count = [0] * len(comps)
    f_count = [0] * len(comps)
    for v in g.vertices:
        v_count[comp_of[v]] += 1
    for u, _v, _w in g.edges:
        e_count[comp_of[u]] += 1
    for walk in faces:
        if walk:
            u = g.edges[walk[0][0]][0 if walk[0][1] == 0 else 1]
            f_count[comp_of[u]] += 1
    for ci, comp in enumerate(comps):
        if v_count[ci] == 1 and e_count[ci] == 0:
            continue  # isolated vertex: one trivial face
        if v_count[ci] - e_count[ci] + f_count[ci] != 2:
            raise NotGenusZero(
                f"component {ci}: V-E+F = {v_count[ci]}-{e_count[ci]}+{f_count[ci]} != 2")
    return faces, comps


# -- Pfaffian orientation ----------------------------------------------------

def _spanning_tree(g: PlanarMultigraph) -> set[int]:
    seen = set()
    tree = set()
    incident = {v: [] for v in g.vertices}
    for idx, (u, v, _) in enumerate(g.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            cur = stack.pop()
            for idx in incident[cur]:
                u, v, _ = g.edges[idx]
                nxt = v if cur == u else u
                if nxt not in seen:
                    seen.add(nxt)
                    tree.add(idx)
                    stack.append(nxt)
    return tree


def kasteleyn_orient(g: PlanarMultigraph, outer_face: int | None = None,
                     faces=None) -> list[int]:
    """Direction per edge (0: as stored u->v, 1: reversed) such that
    every face except one has an odd number of darts disagreeing with
    the edge direction along the face walk. Verified before returning."""
    if faces is None:
        faces, _ = check_genus_zero(g)
    if not g.edges:
        return []
    tree = _spanning_tree(g)
    if len(tree) != len(g.vertices) - 1:
        raise NotGenusZero("orientation construction expects a connected graph")
    if outer_face is None:
        outer_face = max(range(len(faces)), key=lambda i: len(faces[i]))
    orientation: dict[int, int] = {idx: 0 for idx in tree}

    face_of_dart = {}
    for fi, walk in enumerate(faces):
        for dart in walk:
            face_of_dart[dart] = fi

    # dual graph on non-tree edges; each such edge borders two face walks
    dual_adj: dict[int, list] = {fi: [] for fi in range(len(faces))}
    for idx in range(len(g.edges)):
        if idx in tree:
            continue
        f0 = face_of_dart[(idx, 0)]
        f1 = face_of_dart[(idx, 1)]
        dual_adj[f0].append((f1, idx))
        dual_adj[f1].append((f0, idx))

    # BFS order from the outer face over the dual tree
    parent_edge: dict[int, int] = {}
    order = [outer_face]
    seen_faces = {outer_face}
    qi = 0
    while qi < len(order):
        cur = order[qi]
        qi += 1
        for nxt, idx in dual_adj[cur]:
            if nxt not in seen_faces:
                seen_faces.add(nxt)
                parent_edge[nxt] = idx
                order.append(nxt)

    for fi in reversed(order):
        if fi == outer_face:
            continue
        undecided = parent_edge[fi]
        disagree = 0
        for idx, direction in faces[fi]:
            if idx == undecided:
                continue
            if orientation[idx] != direction:
                disagree += 1
        # dart with direction d agrees with orientation o iff o == d
        walk_dir = next(d for (idx, d) in faces[fi] if idx == undecided)
        orientation[undecided] = walk_dir if disagree % 2 == 1 else 1 - walk_dir
        # setting orientation == walk_dir keeps that dart agreeing (no extra
        # disagreement); the opposite adds one

    if len(orientation) != len(g.edges):
        raise NotGenusZero("dual traversal missed edges; embedding inconsistent")
    result = [orientation[idx] for idx in range(len(g.edges))]
    if not verify_kasteleyn(g, result, faces, outer_face):
        raise AssertionError("constructed orientation failed the odd-face check")
    return result


def verify_kasteleyn(g: PlanarMultigraph, orientation, faces=None, outer_face=None) -> bool:
    """Does every face but the outer one have an odd number of darts
    running against the edge directions?"""
    if faces is None:
        faces, _ = check_genus_zero(g)
    if outer_face is None:
        outer_face = max(range(len(faces)), key=lambda i: len(faces[i]))
    for fi, walk in enumerate(faces):
        if fi == outer_face or not walk:
            continue
        disagree = sum(1 for idx, d in walk if orientation[idx] != d)
        if disagree % 2 == 0:
            return False
    return True


# -- Pfaffian ----------------------------------------------------------------

def pfaffian(matrix) -> Scalar:
    """Exact Pfaffian of a skew-symmetric matrix, given as dense rows or
    as rows mapping column -> entry (absent entries are 0). Odd
    dimension gives 0; Pf(A)^2 = det(A).

    Sparse fraction-free skew elimination (Galbiati & Maffioli): pair
    the least remaining index k with its least remaining neighbour j,
    the p-th remaining index after k, at a sign of (-1)^(p-1). After t
    such steps each entry is the Pfaffian minor Pf(A[E + (i, l)]) of the
    eliminated indices E plus its own two, and the last pivot is
    Pf(A[E]), so a step maps an entry x to (pivot x + a[j][i] a[k][l] -
    a[k][i] a[j][l]) / (previous pivot), an exact division. Only entries
    where row k meets row j gain a cross term; every other entry just
    scales by pivot / (previous pivot), which is applied when the entry
    is next read, from the step it was stored at. Entries that cancel
    are dropped, so rows stay sparse. Integral entries run on ints with
    floor division; a matrix with any other entry runs in its field
    (Fraction or QuadExt), ints lifted to Fraction so that no division
    yields a float."""
    n = len(matrix)
    rows = []
    integral = True
    for row in matrix:
        if isinstance(row, dict):
            if not all(isinstance(j, int) and 0 <= j < n for j in row):
                raise NotSkewSymmetric("matrix is not square")
            items = row.items()
        elif len(row) != n:
            raise NotSkewSymmetric("matrix is not square")
        else:
            items = enumerate(row)
        entries = {}
        for j, v in items:
            if isinstance(v, Fraction) and v.denominator == 1:
                v = v.numerator
            elif not isinstance(v, int):
                integral = False
            if v:                # every scalar type here is falsy exactly at 0
                entries[j] = v
        rows.append(entries)
    for i, row in enumerate(rows):
        if i in row:
            raise NotSkewSymmetric(f"diagonal entry {i} is nonzero")
        for j, v in row.items():
            if rows[j].get(i) != -v:
                i0, j0 = min(i, j), max(i, j)
                raise NotSkewSymmetric(f"entries ({i0},{j0}) and ({j0},{i0}) are not opposite")
    if n % 2 == 1:
        return Fraction(0)
    if integral:
        div = operator.floordiv
        rows = [{j: (v, 0) for j, v in row.items()} for row in rows]
    else:
        div = operator.truediv
        rows = [{j: (Fraction(v) if isinstance(v, int) else v, 0) for j, v in row.items()}
                for row in rows]
    # an entry is (value, step it was last brought up to date at)
    pivots: list = [1]       # pivots[t]: Pf of the first t pairs, in elimination order
    sign = 1
    done = [False] * n
    ahead: list = []         # sorted partners eliminated before their turn as k
    for k in range(n):
        if done[k]:
            continue
        t = len(pivots) - 1
        last = pivots[t]
        rk = {l: v if s == t else div(v * last, pivots[s]) for l, (v, s) in rows[k].items()}
        if not rk:
            return Fraction(0)
        j = min(rk)
        done[j] = True
        if (j - k - (bisect_left(ahead, j) - bisect_left(ahead, k))) % 2 == 0:
            sign = -sign
        insort(ahead, j)
        rj = {l: v if s == t else div(v * last, pivots[s]) for l, (v, s) in rows[j].items()}
        pivot = rk.pop(j)
        del rj[k]
        for i in rk:
            del rows[i][k]
        for i in rj:
            del rows[i][j]
        pivots.append(pivot)
        live = [(i, rk.get(i, 0), rj.get(i, 0)) for i in rk.keys() | rj.keys()]
        for x, (i, a_ki, a_ji) in enumerate(live):
            row_i = rows[i]
            for l, a_kl, a_jl in live[x + 1:]:
                cross = a_ji * a_kl - a_ki * a_jl
                if not cross:
                    continue
                entry = row_i.get(l)
                if entry is None:
                    v = div(cross, last)
                else:
                    v, s = entry
                    if s != t:
                        v = div(v * last, pivots[s])
                    v = div(pivot * v + cross, last)
                if not v:
                    del row_i[l], rows[l][i]
                else:
                    row_i[l] = (v, t + 1)
                    rows[l][i] = (-v, t + 1)
    result = sign * pivots[-1]
    return Fraction(result) if isinstance(result, int) else result


# -- perfect matchings -------------------------------------------------------

def count_pm(g: PlanarMultigraph, matching=None) -> Scalar:
    """Exact weighted perfect-matching sum over a genus-0 multigraph.

    matching, when given, lists the edge indices of one perfect matching
    of g; each component then takes its Pfaffian's sign from that
    matching's term instead of from a unit-weight Pfaffian."""
    faces, comps = check_genus_zero(g)
    if len(comps) == 1:
        return _count_pm_component(g, faces, matching)
    total: Scalar = Fraction(1)
    for comp in comps:
        # the Euler check above covered every component; each needs only its faces
        removed = set(g.vertices) - comp
        sub = g.without_vertices(removed)
        sub_matching = None
        if matching is not None:
            remap = g.edge_remap(removed)
            sub_matching = [remap[i] for i in matching if i in remap]
        total = total * _count_pm_component(sub, trace_faces(sub), sub_matching)
        if not total:
            return Fraction(0)
    return total


def enumerate_pm(g: PlanarMultigraph) -> Scalar:
    """Exponential reference: sum of weight products over all perfect
    matchings by direct recursion (embedding ignored)."""
    incident: dict = {v: [] for v in g.vertices}
    for idx, (u, v, w) in enumerate(g.edges):
        incident[u].append((v, w))
        incident[v].append((u, w))
    order = sorted(g.vertices, key=str)

    def rec(unmatched: frozenset) -> Scalar:
        if not unmatched:
            return Fraction(1)
        v = next(x for x in order if x in unmatched)
        rest = unmatched - {v}
        total: Scalar = Fraction(0)
        for w, weight in incident[v]:
            if w in rest:
                total = total + weight * rec(rest - {w})
        return total

    return rec(frozenset(g.vertices))


def matching_sign(pairs, n: int) -> int:
    """Sign of the permutation (i1 j1 i2 j2 ...) of range(n) that lists
    the pairs of a perfect matching: the sign of its term in a Pfaffian
    whose entry at each (i, j) is positive. O(n), by cycle count."""
    perm = [i for pair in pairs for i in pair]
    if len(perm) != n or len(set(perm)) != n:
        raise GridStructureError("matching does not cover every vertex exactly once")
    parity = n                # n minus the number of cycles
    seen = [False] * n
    for start in range(n):
        if not seen[start]:
            parity -= 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if parity % 2 else 1


def _count_pm_component(g: PlanarMultigraph, faces, matching=None) -> Scalar:
    """Weighted matching sum of a connected multigraph whose faces are
    given, from one Pfaffian of sparse rows when a perfect matching is
    given (edge indices) and two on one orientation when not."""
    n = len(g.vertices)
    if n % 2 == 1:
        return Fraction(0)
    orientation = kasteleyn_orient(g, faces=faces)
    index_of = {v: i for i, v in enumerate(sorted(g.vertices, key=str))}
    weighted: list = [{} for _ in range(n)]
    arcs = []                    # (tail, head) index pair of each edge
    for idx, (u, v, w) in enumerate(g.edges):
        if w.denominator == 1:
            w = w.numerator      # int sums: no Fraction arithmetic while building
        i, j = index_of[u], index_of[v]
        if orientation[idx] == 1:
            i, j = j, i
        weighted[i][j] = weighted[i].get(j, 0) + w
        weighted[j][i] = weighted[j].get(i, 0) - w
        arcs.append((i, j))
    # every matching carries the same sign tau under this orientation
    if matching is not None:
        tau = matching_sign((arcs[idx] for idx in matching), n)
    else:
        # Pf(unit) = tau * #PM, so 0 means there is no perfect matching
        unit: list = [{} for _ in range(n)]
        for i, j in arcs:
            unit[i][j] = unit[i].get(j, 0) + 1
            unit[j][i] = unit[j].get(i, 0) - 1
        signed_count = pfaffian(unit)
        if not signed_count:
            return Fraction(0)
        tau = 1 if signed_count > 0 else -1
    pf = pfaffian(weighted)
    return pf if tau > 0 else -pf
