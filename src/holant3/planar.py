"""Planar multigraphs as rotation systems and exact Pfaffian counting.

A graph is stored with an explicit cyclic order of edge-ends around
each vertex. Faces are the orbits of the next-dart permutation; the
embedding is accepted only when every connected component satisfies
V - E + F = 2. No geometry and no planarity testing: embeddings are
inputs, the Euler check is the guard.

count_pm computes the weighted perfect-matching sum exactly: orient the
edges so that every face but one has an odd number of darts running
against the face walk, build the signed skew adjacency matrix, and take
its Pfaffian by skew elimination. Such an orientation gives every
perfect matching the same sign tau, so a second Pfaffian on the same
orientation with unit weights equals tau times the number of perfect
matchings: it is 0 exactly when there is none, and otherwise its sign
is tau (negative weights make |Pf| alone insufficient).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GridStructureError, NotGenusZero, NotSkewSymmetric
from .exact import Scalar, demote, frac, scalar_is_zero
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

    def without_vertices(self, removed) -> "PlanarMultigraph":
        removed = set(removed)
        keep_edge = [not (self.edges[i][0] in removed or self.edges[i][1] in removed)
                     for i in range(len(self.edges))]
        remap = {}
        new_edges = []
        for i, e in enumerate(self.edges):
            if keep_edge[i]:
                remap[i] = len(new_edges)
                new_edges.append(e)
        new_rot = {}
        for v in self.vertices:
            if v in removed:
                continue
            new_rot[v] = [(remap[i], end) for i, end in self.rotation.get(v, []) if keep_edge[i]]
        return PlanarMultigraph([v for v in self.vertices if v not in removed], new_edges, new_rot)


def _dart_head(g: PlanarMultigraph, dart):
    idx, direction = dart
    u, v, _ = g.edges[idx]
    return v if direction == 0 else u


def _next_face_dart(g: PlanarMultigraph, pos_of_end: dict, dart):
    """Arrive along `dart`, depart along the rotation-successor of the
    arrival end at the head vertex."""
    idx, _direction = dart
    head = _dart_head(g, dart)
    arrival_end = (idx, 0 if g.edges[idx][0] == head else 1)
    rot = g.rotation[head]
    i = pos_of_end[(head, arrival_end)]
    nxt_idx, nxt_end = rot[(i + 1) % len(rot)]
    # departing from head: end 0 at u means direction u->v (0), end 1 means v->u (1)
    return (nxt_idx, nxt_end)


def trace_faces(g: PlanarMultigraph) -> list[list]:
    """Orbits of the next-dart permutation; each dart used exactly once."""
    pos_of_end = {}
    for v in g.vertices:
        for i, end in enumerate(g.rotation.get(v, [])):
            pos_of_end[(v, end)] = i
    faces = []
    seen = set()
    for idx in range(len(g.edges)):
        for direction in (0, 1):
            start = (idx, direction)
            if start in seen:
                continue
            walk = []
            dart = start
            while dart not in seen:
                seen.add(dart)
                walk.append(dart)
                dart = _next_face_dart(g, pos_of_end, dart)
            faces.append(walk)
    return faces


def check_genus_zero(g: PlanarMultigraph) -> list[list]:
    """Faces of the embedding; raises NotGenusZero unless every
    component satisfies V - E + F = 2."""
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
    return faces


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


def kasteleyn_orient(g: PlanarMultigraph, outer_face: int | None = None) -> list[int]:
    """Direction per edge (0: as stored u->v, 1: reversed) such that
    every face except one has an odd number of darts disagreeing with
    the edge direction along the face walk. Verified before returning."""
    faces = check_genus_zero(g)
    if not g.edges:
        return []
    if len(connected_components(g.vertices, ((u, v) for u, v, _ in g.edges))) != 1:
        raise NotGenusZero("orientation construction expects a connected graph")
    if outer_face is None:
        outer_face = max(range(len(faces)), key=lambda i: len(faces[i]))
    tree = _spanning_tree(g)
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
        faces = check_genus_zero(g)
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
    """Exact Pfaffian of a skew-symmetric matrix by skew elimination
    with pivoting. Odd dimension gives 0; Pf(A)^2 = det(A)."""
    n = len(matrix)
    a = [[Fraction(v) if isinstance(v, int) else v for v in row] for row in matrix]
    for i in range(n):
        if len(a[i]) != n:
            raise NotSkewSymmetric("matrix is not square")
        if not scalar_is_zero(a[i][i]):
            raise NotSkewSymmetric(f"diagonal entry {i} is nonzero")
        for j in range(i + 1, n):
            if a[i][j] != -a[j][i]:
                raise NotSkewSymmetric(f"entries ({i},{j}) and ({j},{i}) are not opposite")
    if n % 2 == 1:
        return Fraction(0)
    result: Scalar = Fraction(1)
    for k in range(0, n, 2):
        piv = next((j for j in range(k + 1, n) if not scalar_is_zero(a[k][j])), None)
        if piv is None:
            return Fraction(0)
        if piv != k + 1:
            a[piv], a[k + 1] = a[k + 1], a[piv]
            for row in a:
                row[piv], row[k + 1] = row[k + 1], row[piv]
            result = -result
        p = a[k][k + 1]
        result = result * p
        # Pf(A) = p * Pf(S) with S the trailing block plus
        # (a[k+1][i] a[k][j] - a[k][i] a[k+1][j]) / p; only indices that
        # row k or row k+1 reaches change
        rk, rk1 = a[k], a[k + 1]
        live = [i for i in range(k + 2, n)
                if not (scalar_is_zero(rk[i]) and scalar_is_zero(rk1[i]))]
        for x, i in enumerate(live):
            ci, di = rk1[i] / p, rk[i] / p
            row = a[i]
            for j in live[x + 1:]:
                v = row[j] + ci * rk[j] - di * rk1[j]
                row[j] = v
                a[j][i] = -v
    return demote(result)


# -- perfect matchings -------------------------------------------------------

def count_pm(g: PlanarMultigraph) -> Scalar:
    """Exact weighted perfect-matching sum over a genus-0 multigraph."""
    check_genus_zero(g)
    total: Scalar = Fraction(1)
    for comp in connected_components(g.vertices, ((u, v) for u, v, _ in g.edges)):
        total = total * _count_pm_component(g, comp)
        if scalar_is_zero(total):
            return Fraction(0)
    return demote(total)


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

    return demote(rec(frozenset(g.vertices)))


def _count_pm_component(g: PlanarMultigraph, comp: set) -> Scalar:
    if len(comp) % 2 == 1:
        return Fraction(0)
    sub = g.without_vertices(set(g.vertices) - comp)
    orientation = kasteleyn_orient(sub)
    index_of = {v: i for i, v in enumerate(sorted(sub.vertices, key=str))}
    n = len(sub.vertices)
    weighted = [[Fraction(0)] * n for _ in range(n)]
    unit = [[0] * n for _ in range(n)]
    for idx, (u, v, w) in enumerate(sub.edges):
        i, j = index_of[u], index_of[v]
        if orientation[idx] == 1:
            i, j = j, i
        weighted[i][j] += w
        weighted[j][i] -= w
        unit[i][j] += 1
        unit[j][i] -= 1
    # every matching carries the same sign tau, so Pf(unit) = tau * #PM
    signed_count = pfaffian(unit)
    if scalar_is_zero(signed_count):
        return Fraction(0)
    pf = pfaffian(weighted)
    return demote(pf if signed_count > 0 else -pf)
