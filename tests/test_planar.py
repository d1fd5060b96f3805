import random
from fractions import Fraction

import pytest

from holant3.errors import GridStructureError, NotGenusZero, NotSkewSymmetric
from holant3.exact import QuadExt
from holant3.planar import (
    PlanarMultigraph,
    check_genus_zero,
    count_pm,
    enumerate_pm,
    kasteleyn_orient,
    pfaffian,
    verify_kasteleyn,
)
from conftest import apollonian_graph, enumerate_pm_oracle, planar_union, random_planar_graph


def _triangle():
    return PlanarMultigraph([0, 1, 2], [(0, 1, 1), (1, 2, 1), (2, 0, 1)],
                            {0: [(0, 0), (2, 1)], 1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1)]})


def _square(weights):
    return PlanarMultigraph(
        [1, 2, 3, 4],
        [(1, 2, weights[0]), (2, 3, weights[1]), (3, 4, weights[2]), (4, 1, weights[3])],
        {1: [(0, 0), (3, 1)], 2: [(0, 1), (1, 0)], 3: [(1, 1), (2, 0)], 4: [(2, 1), (3, 0)]})


def _k4():
    rot = {
        "u": [(3, 0), (4, 0), (5, 0)],
        "t0": [(0, 0), (3, 1), (2, 1)],
        "t1": [(1, 0), (4, 1), (0, 1)],
        "t2": [(2, 0), (5, 1), (1, 1)],
    }
    edges = [("t0", "t1", 1), ("t1", "t2", 1), ("t2", "t0", 1),
             ("u", "t0", 1), ("u", "t1", 1), ("u", "t2", 1)]
    return PlanarMultigraph(["u", "t0", "t1", "t2"], edges, rot)


def test_face_counts():
    assert len(check_genus_zero(_triangle())[0]) == 2
    single = PlanarMultigraph([0, 1], [(0, 1, 1)], {0: [(0, 0)], 1: [(0, 1)]})
    faces, _ = check_genus_zero(single)
    assert len(faces) == 1 and len(faces[0]) == 2
    assert len(check_genus_zero(_k4())[0]) == 4


def test_genus_check_rejects_twisted_k4():
    g = _k4()
    rot = {v: list(r) for v, r in g.rotation.items()}
    rot["t0"] = [rot["t0"][0], rot["t0"][2], rot["t0"][1]]
    twisted = PlanarMultigraph(list(g.vertices), list(g.edges), rot)
    with pytest.raises(NotGenusZero):
        check_genus_zero(twisted)


def test_kasteleyn_verifier_on_random_graphs():
    rng = random.Random(70)
    for _ in range(50):
        g = apollonian_graph(rng, rng.randint(0, 4))
        faces, forest = check_genus_zero(g)
        orientation = kasteleyn_orient(g, faces, forest)
        assert verify_kasteleyn(g, orientation, faces, forest)


def test_kasteleyn_orients_disconnected():
    """One orientation covers both components of a disjoint union, and
    count_pm gives the product of the components' counts."""
    k4 = _k4()
    square = _square([2, 3, 5, 7])
    g = planar_union(k4, square)
    faces, forest = check_genus_zero(g)
    assert forest[2] == [0] * 4 + [1] * 4
    orientation = kasteleyn_orient(g, faces, forest)
    assert verify_kasteleyn(g, orientation, faces, forest)
    assert count_pm(g) == count_pm(k4) * count_pm(square) == 3 * (2 * 5 + 3 * 7)


def test_pfaffian_base_cases():
    assert pfaffian([[0, 7], [-7, 0]]) == 7
    assert pfaffian([[0]]) == 0          # odd dimension
    assert pfaffian([]) == 1             # empty matrix: empty matching
    a12, a13, a14, a23, a24, a34 = 1, 2, 3, 4, 5, 6
    m = [[0, a12, a13, a14], [-a12, 0, a23, a24],
         [-a13, -a23, 0, a34], [-a14, -a24, -a34, 0]]
    assert pfaffian(m) == a12 * a34 - a13 * a24 + a14 * a23


def test_pfaffian_rejects_non_skew():
    with pytest.raises(NotSkewSymmetric):
        pfaffian([[0, 1], [1, 0]])
    with pytest.raises(NotSkewSymmetric):
        pfaffian([[1, 1], [-1, 0]])


def _gauss_det(m):
    """Exact determinant by Fraction Gaussian elimination with row swaps."""
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c] != 0), None)
        if r is None:
            return Fraction(0)
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for t in range(c, n):
                    a[r][t] -= f * a[c][t]
    return det


def _skew(n, entry):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = Fraction(entry(i, j))
            m[j][i] = -m[i][j]
    return m


def test_pfaffian_squares_to_determinant():
    rng = random.Random(71)
    for n in range(21):
        dense = _skew(n, lambda i, j: rng.randint(-4, 4))
        # mostly zero rows: the first pivot is often not at k+1
        sparse = _skew(n, lambda i, j: rng.randint(-3, 3) if rng.random() < 0.2 else 0)
        # u v^T - v u^T has rank 2: from n = 4 on its Pfaffian is 0 and
        # elimination runs out of pivots by k = 2
        u = [rng.randint(-3, 3) for _ in range(n)]
        v = [rng.randint(-3, 3) for _ in range(n)]
        rank2 = _skew(n, lambda i, j: u[i] * v[j] - v[i] * u[j])
        for m in (dense, sparse, rank2):
            assert pfaffian(m) ** 2 == _gauss_det(m)
    # a[0][1] = 0 forces the pivot swap at k = 0
    swap = [[0, 0, 2, 0], [0, 0, 0, 3], [-2, 0, 0, 0], [0, -3, 0, 0]]
    assert pfaffian(swap) == -6 and _gauss_det(swap) == 36


def test_count_pm_examples():
    single = PlanarMultigraph([0, 1], [(0, 1, Fraction(7, 3))], {0: [(0, 0)], 1: [(0, 1)]})
    assert count_pm(single) == Fraction(7, 3)
    path = PlanarMultigraph([1, 2, 3, 4], [(1, 2, 2), (2, 3, 3), (3, 4, 5)],
                            {1: [(0, 0)], 2: [(0, 1), (1, 0)], 3: [(1, 1), (2, 0)], 4: [(2, 1)]})
    assert count_pm(path) == 10
    assert count_pm(_square([1, 1, 1, 1])) == 2
    assert count_pm(_k4()) == 3
    assert count_pm(_square([1, 1, -1, 1])) == 0


def test_count_pm_odd_and_empty():
    assert count_pm(_triangle()) == 0
    empty = PlanarMultigraph([], [], {})
    assert count_pm(empty) == 1


def test_count_pm_parallel_edges():
    g = PlanarMultigraph(["a", "b"], [("a", "b", 2), ("a", "b", 5)],
                         {"a": [(0, 0), (1, 0)], "b": [(1, 1), (0, 1)]})
    assert count_pm(g) == 7
    cancel = PlanarMultigraph(["a", "b"], [("a", "b", 2), ("a", "b", -2)],
                              {"a": [(0, 0), (1, 0)], "b": [(1, 1), (0, 1)]})
    assert count_pm(cancel) == 0


def test_count_pm_disconnected_product():
    g = PlanarMultigraph([0, 1, 2, 3], [(0, 1, 2), (2, 3, 3)],
                         {0: [(0, 0)], 1: [(0, 1)], 2: [(1, 0)], 3: [(1, 1)]})
    assert count_pm(g) == 6


def test_orientation_choice_does_not_change_count():
    """kasteleyn_orient roots each component at its first listed face:
    rotating the face list roots each face in turn. Every other face is
    odd, and the root's parity follows from V, so with V odd each root
    gives its own orientation. The signed count must not move."""
    for g in (_k4(), _triangle(), apollonian_graph(random.Random(86), 2)):
        faces, forest = check_genus_zero(g)
        orientations = set()
        for root in range(len(faces)):
            rotated = faces[root:] + faces[:root]
            orientation = kasteleyn_orient(g, rotated, forest)
            assert verify_kasteleyn(g, orientation, rotated, forest)
            odd = [sum(orientation[d >> 1] != d & 1 for d in walk) % 2 for walk in rotated]
            assert odd == [1 - len(g.vertices) % 2] + [1] * (len(faces) - 1)
            orientations.add(tuple(orientation))
        assert len(orientations) == (len(faces) if len(g.vertices) % 2 else 1)
    # full pipeline invariance under vertex relabeling order
    g = _k4()
    counts = {count_pm(g)}
    relabeled = PlanarMultigraph(list(reversed(g.vertices)), list(g.edges),
                                 {v: list(r) for v, r in g.rotation.items()})
    counts.add(count_pm(relabeled))
    assert counts == {3}


def test_count_pm_matches_enumeration_randomized():
    rng = random.Random(72)
    for _ in range(60):
        g = random_planar_graph(rng)
        assert count_pm(g) == enumerate_pm_oracle(g)


def test_count_pm_deletion_identity_on_large_triangulation():
    """PM(G) = PM(G with w_e = 0) + w_e * PM(G - u - v) at 64 vertices,
    where the enumeration oracle is out of reach."""
    rng = random.Random(74)
    base = apollonian_graph(rng, 61)
    assert len(base.vertices) == 64

    def reweighted(weights):
        return PlanarMultigraph(list(base.vertices),
                                [(u, v, w) for (u, v, _), w in zip(base.edges, weights)],
                                {x: list(r) for x, r in base.rotation.items()})

    weights = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in base.edges]
    g = reweighted(weights)
    total = count_pm(g)
    assert total != 0
    for idx in rng.sample(range(len(weights)), 4):
        u, v, w = g.edges[idx]
        zeroed = reweighted(weights[:idx] + [Fraction(0)] + weights[idx + 1:])
        assert total == count_pm(zeroed) + w * count_pm(g.without_vertices({u, v}))


def test_library_enumerator_agrees_with_oracle():
    rng = random.Random(73)
    for _ in range(20):
        g = random_planar_graph(rng)
        assert enumerate_pm(g) == enumerate_pm_oracle(g)


def _as_mapping_rows(m):
    return [{j: v for j, v in enumerate(row) if v != 0} for row in m]


def _pf_expand(m):
    """Pfaffian by expansion along the first row (exponential)."""
    n = len(m)
    if n == 0:
        return 1
    if n % 2 == 1:
        return 0
    total = 0
    for j in range(1, n):
        keep = [x for x in range(1, n) if x != j]
        minor = [[m[a][b] for b in keep] for a in keep]
        term = m[0][j] * _pf_expand(minor)
        total = total + term if j % 2 == 1 else total - term
    return total


def _random_entry(rng, kind):
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "fraction":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return QuadExt(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2), 2)


def test_pfaffian_mapping_rows_equal_dense_rows():
    """Seeded skew matrices of every entry type, dense or sparse, odd
    and even: the mapping form and the dense form agree, the value
    matches the row expansion up to 8 indices, and it squares to the
    determinant wherever the entries are rational."""
    rng = random.Random(75)
    for n in range(13):
        for kind in ("int", "fraction", "quadext"):
            for density in (1.0, 0.3):
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < density:
                            m[i][j] = _random_entry(rng, kind)
                            m[j][i] = -m[i][j]
                value = pfaffian(m)
                assert pfaffian(_as_mapping_rows(m)) == value
                if n <= 8:
                    assert value == _pf_expand(m)
                if kind != "quadext":
                    assert value ** 2 == _gauss_det(m)


def test_pfaffian_mapping_rows_with_cancellation_and_singularity():
    rng = random.Random(76)
    for n in (4, 6, 8, 10):
        # u v^T - v u^T has rank 2: every update cancels, and Pf is 0
        u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        rank2 = _skew(n, lambda i, j: u[i] * v[j] - v[i] * u[j])
        assert pfaffian(rank2) == pfaffian(_as_mapping_rows(rank2)) == 0
        # two equal rows: singular
        dup = _skew(n, lambda i, j: rng.randint(-3, 3))
        for j in range(n):
            if j not in (0, 1):
                dup[1][j], dup[j][1] = dup[0][j], -dup[0][j]
        dup[0][1], dup[1][0] = 0, 0
        assert pfaffian(dup) == pfaffian(_as_mapping_rows(dup)) == _gauss_det(dup) == 0
    # explicit zeros in a mapping row are absent entries
    assert pfaffian([{1: 3, 2: 0, 3: Fraction(0)}, {0: -3}, {0: 0, 3: 5}, {2: -5}]) == 15
    # pivot (0,1) cancels the entry (2,3), leaving row 2 empty:
    # Pf = a01 a23 - a02 a13 + a03 a12 = 1 - 1 + 0
    m = [{1: 1, 2: 1}, {0: -1, 3: 1}, {0: -1, 3: 1}, {1: -1, 2: -1}]
    assert pfaffian(m) == 0
    m[2][3], m[3][2] = 2, -2
    assert pfaffian(m) == 1


def test_pfaffian_of_int_rows_is_never_a_float():
    rng = random.Random(77)
    for n in (2, 4, 6, 8):
        m = _skew(n, lambda i, j: rng.choice([-3, -2, 2, 3, 5]))
        ints = [[int(v) for v in row] for row in m]
        for rows in (ints, _as_mapping_rows(ints)):
            value = pfaffian(rows)
            assert isinstance(value, Fraction) and value == pfaffian(m)


def test_pfaffian_mapping_rows_rejected_like_dense_rows():
    with pytest.raises(NotSkewSymmetric, match="not square"):
        pfaffian([{1: 1}, {0: -1, 2: 1}])
    with pytest.raises(NotSkewSymmetric, match="diagonal entry 1"):
        pfaffian([{1: 1}, {0: -1, 1: 2}])
    with pytest.raises(NotSkewSymmetric, match=r"entries \(0,1\) and \(1,0\)"):
        pfaffian([{1: 1}, {0: 1}])
    with pytest.raises(NotSkewSymmetric, match=r"entries \(0,1\) and \(1,0\)"):
        pfaffian([{1: 1}, {}])


# Each rejection of PlanarMultigraph.validate, with its message: edges
# 0-1 and 1-2 on vertices 0, 1, 2, correct rotations but for the fault.
_PATH_EDGES = [(0, 1, 1), (1, 2, 1)]
_PATH_ROT = {0: [(0, 0)], 1: [(0, 1), (1, 0)], 2: [(1, 1)]}


@pytest.mark.parametrize("vertices, edges, rotation, message", [
    ([0, 1], [(0, 0, 1)], {0: [(0, 0), (0, 1)], 1: []}, "self-loops are not supported"),
    ([0, 1, 2, 1], _PATH_EDGES, _PATH_ROT, "duplicate vertex ids"),
    ([0, 1], _PATH_EDGES, _PATH_ROT, "edge endpoint 2 is not a vertex"),
    ([0, 1, 2], _PATH_EDGES, {**_PATH_ROT, 1: [(0, 1)]},
     "rotation at 1 does not list its edge-ends exactly once"),
    ([0, 1, 2], _PATH_EDGES, {**_PATH_ROT, 1: [(0, 1), (0, 1)]},
     "rotation at 1 does not list its edge-ends exactly once"),
    ([0, 1, 2], _PATH_EDGES, {**_PATH_ROT, 1: [(0, 1), (1, 1)], 2: [(1, 0)]},
     "rotation at 1 does not list its edge-ends exactly once"),
    ([0, 1, 2], _PATH_EDGES, {**_PATH_ROT, 1: [(0, 1), (2, 0)]},
     "rotation at 1 does not list its edge-ends exactly once"),
    ([0, 1, 2], _PATH_EDGES, {**_PATH_ROT, 1: [(0, 1), (-1, 1)]},
     "rotation at 1 does not list its edge-ends exactly once"),
    ([0, 1], [(0, 1, 1)], {0: [[0, 0]], 1: [(0, 1)]},
     "rotation at 0 does not list its edge-ends exactly once"),
    ([0, 1], [(0, 1, 1)], {0: [(0, 0)], 1: [(0, 1)], 2: []}, "rotation key 2 names no vertex"),
], ids=["self-loop", "duplicate id", "unknown endpoint", "missing end", "end twice",
        "another vertex's end", "edge index past the end", "negative edge index",
        "list edge-end", "stray rotation key"])
def test_validate_rejections_name_the_fault(vertices, edges, rotation, message):
    with pytest.raises(GridStructureError) as err:
        PlanarMultigraph(vertices, edges, rotation)
    assert str(err.value) == message
