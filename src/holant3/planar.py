"""Planar multigraphs as rotation systems and exact Pfaffian counting.

A graph is stored with an explicit cyclic order of edge-ends around
each vertex. Faces are the orbits of the next-dart permutation; the
embedding is accepted only when every connected component satisfies
V - E + F = 2. No geometry and no planarity testing: embeddings are
inputs, the Euler check is the guard.

count_pm computes the weighted perfect-matching sum exactly. It traces
the faces once and finds the components and a spanning forest in one
depth-first search, both in check_genus_zero, the one code that makes
either; kasteleyn_orient and verify_kasteleyn take what it returned. It
orients the whole graph at once, so that in each component every face
but one has an odd number of darts running against the face walk,
builds every component's signed skew adjacency matrix as sparse rows in
one pass over the edges, and multiplies one Pfaffian per component.
Such an orientation gives every perfect matching of a component the
same sign tau (negative weights make |Pf| alone insufficient). When the
caller knows one perfect matching, as the matchgate splice does, tau is
the sign of that matching's term, an O(n) permutation parity. Otherwise
a second Pfaffian on the same orientation with unit weights equals tau
times the number of perfect matchings: it is 0 exactly when there is
none, and otherwise its sign is tau. The components keep separate
Pfaffians: in one over the whole graph, every later component's
fraction-free entries would carry the Pfaffians of the earlier ones.

pfaffian takes dense rows or {column: entry} rows and runs one sparse
fraction-free skew elimination: only the entries where the two pivot
rows meet are touched, so its cost follows the fill, not n^2. The
layers before it index darts as 2 idx + end and vertices by position.
On the benchmark's 14-vertex covers (56 matching vertices, seed 1;
2-core Xeon VM, Python 3.11.7, a quiet run) count_pm takes a median
0.62 ms: genus check and component search 0.10, orientation 0.08,
Pfaffian 0.30. A whole solve_planar_moderate_cover on the test suite's
bead/ladder instances takes 0.03/0.1/0.4-0.6 s at 240/480/960 grid
vertices.
Entries are Pfaffian minors, whose bit length grows with the eliminated
block, and the fill depends on the vertex order, so large sizes stay
superlinear.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .errors import GridStructureError, NotGenusZero, NotSkewSymmetric
from .exact import Scalar, frac


@dataclass
class PlanarMultigraph:
    """vertices: ids; edges: (u, v, weight); rotation: per vertex, the
    cyclic list of incident edge-ends as (edge index, end) with end 0
    at u and end 1 at v."""

    vertices: list
    edges: list
    rotation: dict

    def __post_init__(self):
        self.edges = [(u, v, w if type(w) is Fraction else frac(w)) for u, v, w in self.edges]
        self.validate()

    def validate(self):
        """One pass over the rotations: each end (2 idx + end) is listed once,
        at its own vertex; only a failing graph looks up the first fault."""
        vertices, edges, rotation, m = self.vertices, self.edges, self.rotation, len(self.edges)
        for u, v, _ in edges:
            if u == v:
                raise GridStructureError("self-loops are not supported")
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise GridStructureError("duplicate vertex ids")
        used = [False] * (2 * m)
        listed = 0
        fault = len(vertices)     # position of the first rotation listing a wrong end
        for pos, v in enumerate(vertices):
            rot = rotation.get(v, ())
            for end in rot:
                if type(end) is not tuple or len(end) != 2:
                    break
                idx, d = end
                if (type(idx) is not int or type(d) is not int or not 0 <= idx < m
                        or not 0 <= d <= 1 or edges[idx][d] != v or used[2 * idx + d]):
                    break
                used[2 * idx + d] = True
            else:
                listed += len(rot)
                continue
            fault = pos
            break
        if fault < len(vertices) or listed != 2 * m:
            unknown = [u for e in edges for u in e[:2] if u not in vset]
            if unknown:
                raise GridStructureError(f"edge endpoint {unknown[0]!r} is not a vertex")
            # an earlier vertex that lists too few ends owns an unused end
            index = {v: i for i, v in enumerate(vertices)}
            fault = min([fault] + [index[edges[c >> 1][c & 1]] for c in range(2 * m) if not used[c]])
            raise GridStructureError(
                f"rotation at {vertices[fault]!r} does not list its edge-ends exactly once")
        if not rotation.keys() <= vset:
            stray = next(k for k in rotation if k not in vset)
            raise GridStructureError(f"rotation key {stray!r} names no vertex")

    def without_vertices(self, removed) -> "PlanarMultigraph":
        removed = set(removed)
        remap = {i: k for k, i in enumerate(i for i, (u, v, _) in enumerate(self.edges)
                                            if u not in removed and v not in removed)}
        new_rot = {}
        for v in self.vertices:
            if v in removed:
                continue
            new_rot[v] = [(remap[i], end) for i, end in self.rotation.get(v, []) if i in remap]
        return PlanarMultigraph([v for v in self.vertices if v not in removed],
                                [self.edges[i] for i in remap], new_rot)


def _walks(g: PlanarMultigraph) -> list[list[int]]:
    """Orbits of the next-dart permutation; each dart used exactly once.

    Dart 2 idx + d runs along edge idx from end d to end 1 - d; the face
    walk arrives at end 1 - d (code ^ 1) and departs along the
    rotation-successor of that end at its vertex."""
    succ = [0] * (2 * len(g.edges))      # end code -> next end code around its vertex
    for rot in g.rotation.values():      # validate keys every entry to a vertex
        if rot:
            prev = 2 * rot[-1][0] + rot[-1][1]
            for idx, end in rot:
                code = 2 * idx + end
                succ[prev] = code
                prev = code
    faces = []
    seen = [False] * len(succ)
    for start in range(len(succ)):
        if seen[start]:
            continue
        walk = []
        dart = start
        while not seen[dart]:
            seen[dart] = True
            walk.append(dart)
            dart = succ[dart ^ 1]
        faces.append(walk)
    return faces


def check_genus_zero(g: PlanarMultigraph) -> tuple[list[list[int]], tuple]:
    """Face walks (as dart codes 2 idx + end) and the spanning forest of
    the embedding, as _forest returns it; raises NotGenusZero unless
    every connected component satisfies V - E + F = 2."""
    faces = _walks(g)
    forest = _forest(g)
    owner, _, comp = forest
    counts = [[0, 0, 0] for _ in range(max(comp, default=-1) + 1)]
    for ci in comp:
        counts[ci][0] += 1
    for vi in owner[::2]:
        counts[comp[vi]][1] += 1
    for walk in faces:
        counts[comp[owner[walk[0]]]][2] += 1
    for ci, (v, e, f) in enumerate(counts):
        if v == 1 and e == 0:
            continue  # isolated vertex: one trivial face
        if v - e + f != 2:
            raise NotGenusZero(f"component {ci}: V-E+F = {v}-{e}+{f} != 2")
    return faces, forest


def _forest(g: PlanarMultigraph) -> tuple[list[int], list[bool], list[int]]:
    """One depth-first search by vertex position in g.vertices. Returns
    per end code 2 idx + end the position of its vertex, per edge
    whether it is in the spanning forest, and per vertex its connected
    component, numbered in order of first vertex. Ends are read off the
    rotations, which validate has checked against the edges: one lookup
    per vertex, not one hash of an id per end."""
    owner = [0] * (2 * len(g.edges))
    incident = []                        # per vertex, its end codes in rotation order
    for vi, v in enumerate(g.vertices):
        codes = [2 * idx + end for idx, end in g.rotation.get(v, ())]
        for code in codes:
            owner[code] = vi
        incident.append(codes)
    comp = [-1] * len(incident)
    tree = [False] * len(g.edges)
    ci = 0
    for root in range(len(incident)):
        if comp[root] >= 0:
            continue
        comp[root] = ci
        stack = [root]
        while stack:
            for code in incident[stack.pop()]:
                nxt = owner[code ^ 1]        # the edge's other end
                if comp[nxt] < 0:
                    comp[nxt] = ci
                    tree[code >> 1] = True
                    stack.append(nxt)
        ci += 1
    return owner, tree, comp


# -- Pfaffian orientation ----------------------------------------------------

def kasteleyn_orient(g: PlanarMultigraph, faces, forest) -> list[int]:
    """Direction per edge (0: as stored u->v, 1: reversed) such that in
    each component every face but the first listed has an odd number of
    darts disagreeing with the edge direction along the face walk. faces
    and forest are what check_genus_zero returned for g, so the caller
    has checked the genus; count_pm is the one caller in the package.
    Verified before returning."""
    tree = forest[1]
    face_of = [0] * (2 * len(g.edges))
    for fi, walk in enumerate(faces):
        for dart in walk:
            face_of[dart] = fi

    # dual graph on non-tree edges; each such edge borders two face walks
    dual_adj: list = [[] for _ in faces]
    for idx, in_tree in enumerate(tree):
        if not in_tree:
            dual_adj[face_of[2 * idx]].append(2 * idx + 1)
            dual_adj[face_of[2 * idx + 1]].append(2 * idx)

    # BFS over the dual forest from each component's first listed face,
    # entering every other face by a dart on its walk
    entry = [-1] * len(faces)
    seen_faces = [False] * len(faces)
    order = []                           # the faces entered, root by root
    for root in range(len(faces)):
        if seen_faces[root]:
            continue
        seen_faces[root] = True
        queue = [root]
        for cur in queue:
            for dart in dual_adj[cur]:
                nxt = face_of[dart]
                if not seen_faces[nxt]:
                    seen_faces[nxt] = True
                    entry[nxt] = dart
                    queue.append(nxt)
        order += queue[1:]

    orientation = [0] * len(g.edges)     # tree edges as stored
    for fi in reversed(order):
        # every other edge on the walk is decided: point this one along its
        # dart, then reverse it if the face would have an even count
        dart = entry[fi]
        orientation[dart >> 1] = dart & 1
        if sum(orientation[d >> 1] != d & 1 for d in faces[fi]) % 2 == 0:
            orientation[dart >> 1] ^= 1

    if sum(tree) + len(order) != len(g.edges):
        raise NotGenusZero("dual traversal missed edges; embedding inconsistent")
    if not verify_kasteleyn(g, orientation, faces, forest):
        raise AssertionError("constructed orientation failed the odd-face check")
    return orientation


def verify_kasteleyn(g: PlanarMultigraph, orientation, faces, forest) -> bool:
    """Does at most one face walk per component have an even number of
    darts against the edges? faces and forest are what check_genus_zero
    returned for g. That is Kasteleyn's condition on the sphere, where
    any face may be the outer one: each edge runs against exactly one of
    its two darts, so a component's counts sum to its E and its last
    face's parity follows from the others."""
    owner, _, comp = forest
    even = set()                 # components with an even face
    for walk in faces:
        if sum(orientation[d >> 1] != d & 1 for d in walk) % 2 == 0:
            ci = comp[owner[walk[0]]]
            if ci in even:
                return False
            even.add(ci)
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
            items = row.items()
        elif len(row) != n:
            raise NotSkewSymmetric("matrix is not square")
        else:
            items = enumerate(row)
        entries = {}
        for j, v in items:
            if type(j) is not int and not isinstance(j, int) or not 0 <= j < n:
                raise NotSkewSymmetric("matrix is not square")
            if type(v) is not int:       # exact ints skip the type tests
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
    """Exact weighted perfect-matching sum over a genus-0 multigraph: the
    product over its components of one weighted Pfaffian each, times
    the component's sign tau. Pfaffian indices follow the str order of
    the vertex ids within a component. matching, when given, lists the
    edge indices of one perfect matching of g, and each tau is the sign
    of its term; otherwise each is the sign of a unit-weight Pfaffian,
    and these all run before the weighted ones."""
    faces, forest = check_genus_zero(g)
    owner, _, comp = forest
    ids = [str(v) for v in g.vertices]
    index = [0] * len(ids)
    size = [0] * (max(comp, default=-1) + 1)
    for vi in sorted(range(len(ids)), key=ids.__getitem__):
        index[vi] = size[comp[vi]]
        size[comp[vi]] += 1
    if any(n % 2 for n in size):
        return Fraction(0)
    orientation = kasteleyn_orient(g, faces, forest)
    weighted: list = [[{} for _ in range(n)] for n in size]
    arcs = []                    # (component, tail, head) of each edge
    for idx, (_, _, w) in enumerate(g.edges):
        if w.denominator == 1:
            w = w.numerator      # int sums: no Fraction arithmetic while building
        a, b = owner[2 * idx], owner[2 * idx + 1]
        if orientation[idx] == 1:
            a, b = b, a
        ci, i, j = comp[a], index[a], index[b]
        rows = weighted[ci]
        rows[i][j] = rows[i].get(j, 0) + w
        rows[j][i] = rows[j].get(i, 0) - w
        arcs.append((ci, i, j))
    # every matching of a component carries the same sign tau under this orientation
    if matching is not None:
        pairs: list = [[] for _ in size]
        for idx in matching:
            ci, i, j = arcs[idx]
            pairs[ci].append((i, j))
        taus = [matching_sign(p, n) for p, n in zip(pairs, size)]
    else:
        # Pf(unit) = tau * #PM, so 0 means there is no perfect matching
        units: list = [[{} for _ in range(n)] for n in size]
        for ci, i, j in arcs:
            unit = units[ci]
            unit[i][j] = unit[i].get(j, 0) + 1
            unit[j][i] = unit[j].get(i, 0) - 1
        taus = []
        for unit in units:
            signed_count = pfaffian(unit)
            if not signed_count:
                return Fraction(0)
            taus.append(1 if signed_count > 0 else -1)
    total: Scalar = Fraction(1)
    for tau, rows in zip(taus, weighted):
        total = total * tau * pfaffian(rows)
    return total


def enumerate_pm(g: PlanarMultigraph) -> Scalar:
    """Exponential reference: sum of weight products over all perfect
    matchings, each built by matching the first unmatched vertex in str
    order (embedding ignored). An explicit stack of (unmatched, product)
    keeps deep graphs within the interpreter's recursion limit."""
    incident: dict = {v: [] for v in g.vertices}
    for u, v, w in g.edges:
        incident[u].append((v, w))
        incident[v].append((u, w))
    order = sorted(g.vertices, key=str)
    total: Scalar = Fraction(0)
    stack = [(frozenset(g.vertices), Fraction(1))]
    while stack:
        unmatched, product = stack.pop()
        if not unmatched:
            total = total + product
            continue
        v = next(x for x in order if x in unmatched)
        rest = unmatched - {v}
        for w, weight in incident[v]:
            if w in rest:
                stack.append((rest - {w}, product * weight))
    return total


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

