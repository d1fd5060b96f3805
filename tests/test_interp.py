import random
from fractions import Fraction

import pytest

from holant3.errors import (CountMismatch, DegenerateG, EigenvectorSeed, SingularSystem,
                             UnderdeterminedInterpolation, ZeroA, ZeroDelta)
from holant3.exact import QuadExt
from holant3.grid import SignatureGrid, bipartite_grid, holant
from holant3.interp import (
    add_placeholder_on_edge,
    degenerate_target,
    interpolate_holant_with_d,
    interpolate_unary,
    split_reduction,
    substitute_placeholder_matrix,
    unary_closure_value,
)
from holant3.linalg import vandermonde_solve
from holant3.signatures import EQ3, Mat2, SymSig, jordan, straddled_from_f
from conftest import rand_nonneg_sig, rand_positive

PAIRS_2x2 = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def test_degenerate_target_flat():
    t = degenerate_target(SymSig([1, 1, 1, 1]))
    h = Fraction(1, 2)
    assert t.matrix == Mat2(((h, h), (h, h)))


def test_degenerate_target_1234():
    t = degenerate_target(SymSig([1, 2, 3, 4]))
    assert t.matrix.det() == 0
    assert t.matrix.trace() == 1
    assert isinstance(t.matrix[0][0], QuadExt) and t.matrix[0][0].rad == 33


def test_degenerate_target_needs_nonzero_a():
    with pytest.raises(ZeroA):
        degenerate_target(SymSig([1, 0, 5, 1]))


def test_projector_is_idempotent():
    rng = random.Random(50)
    for _ in range(20):
        f = SymSig([1, rand_positive(rng), rand_positive(rng), rand_positive(rng)])
        m = degenerate_target(f).matrix
        assert m * m == m


def test_interpolation_zero_occurrences_is_plain_holant():
    f = SymSig([1, 2, 3, 4])
    g = bipartite_grid(f, PAIRS_2x2)
    assert interpolate_holant_with_d(g, f) == holant(g)


def test_interpolation_single_projector_closed_by_point_unaries():
    """A projector with both ports pinned to 0 evaluates to its (0,0)
    entry: 1/2 for the flat signature."""
    f = SymSig([1, 1, 1, 1])
    g = SignatureGrid()
    g.add_vertex("uL", SymSig([1, 0]), "L")
    g.add_vertex("uR", SymSig([1, 0]), "R")
    g.add_edge(("uL", 0), ("uR", 0))
    g = add_placeholder_on_edge(g, 0)
    assert interpolate_holant_with_d(g, f) == Fraction(1, 2)


def test_interpolation_matches_direct_substitution():
    rng = random.Random(51)
    done = 0
    while done < 12:
        f = SymSig([1, rand_positive(rng, hi=5, den=3), rand_positive(rng, hi=5, den=3),
                    rand_positive(rng, hi=5, den=3)])
        base = bipartite_grid(f, PAIRS_2x2)
        n = rng.choice([1, 2])
        grid = base
        for i in range(n):
            grid = add_placeholder_on_edge(grid, i)
        target = degenerate_target(f)
        direct = grid
        for vid in [v for v in grid.vertices if isinstance(v, tuple) and v[0] == "D"]:
            direct = substitute_placeholder_matrix(direct, vid, target.matrix)
        assert interpolate_holant_with_d(grid, f) == holant(direct)
        done += 1


def test_interpolation_with_zero_eigenvalue():
    f = SymSig([1, 1, 1, 1])  # determinant 0: lam = 0
    base = bipartite_grid(f, PAIRS_2x2)
    grid = add_placeholder_on_edge(base, 0)
    target = degenerate_target(f)
    direct = substitute_placeholder_matrix(grid, ("D", 0), target.matrix)
    assert interpolate_holant_with_d(grid, f) == holant(direct)


def test_stratified_system_predicts_out_of_sample_lengths():
    """The solved strata must reproduce chain-substituted values at
    lengths never used in the solve."""
    from holant3.gadgets import build_transfer_chain
    from holant3.interp import (_placeholder_ids, stratify_holant_with_d,
                                substitute_placeholder_chain)

    rng = random.Random(56)
    for _ in range(6):
        f = SymSig([1, rand_positive(rng, hi=4, den=2), rand_positive(rng, hi=4, den=2),
                    rand_positive(rng, hi=4, den=2)])   # x0 = 1: f is its own normal form
        grid = add_placeholder_on_edge(bipartite_grid(f, PAIRS_2x2), 0)
        grid = add_placeholder_on_edge(grid, 1)
        system = stratify_holant_with_d(grid, f)
        assert len(system.values) == system.occurrences + 1
        values = list(system.values)
        for s in range(system.occurrences + 1, system.occurrences + 3):
            g_s = grid
            for vid in _placeholder_ids(grid):
                g_s = substitute_placeholder_chain(g_s, vid, build_transfer_chain(f, s))
            values.append(holant(g_s))
        for s, value in enumerate(values):
            if system.coefficients is not None:
                predicted = sum((c * node ** s for c, node in
                                 zip(system.coefficients, system.nodes)), Fraction(0))
                assert predicted == value
            elif s >= 1:
                assert value == system.projector_value * system.mu ** (
                    system.occurrences * s)


def test_vandermonde_nodes_distinct_and_solvable():
    rng = random.Random(52)
    for n in range(1, 5):
        f = SymSig([1, rand_positive(rng), rand_positive(rng), rand_positive(rng)])
        jd = jordan(straddled_from_f(f))
        nodes = [jd.lam ** i * jd.mu ** (n - i) for i in range(n + 1)]
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                assert nodes[i] != nodes[j]
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
        sol = vandermonde_solve(nodes, rhs)
        for s in range(n + 1):
            acc = sum((sol[i] * nodes[i] ** s for i in range(n + 1)), Fraction(0))
            assert acc == rhs[s]


def test_vandermonde_solve_refuses_repeated_nodes_and_length_mismatch():
    r = QuadExt(0, 1, 2)
    for nodes, rhs in (([2, 3, 2], [1, 1, 1]), ([r, -r, r], [0, 1, 2]), ([2, 3], [1, 1, 1]),
                       ([2, 3, 5], [1, 1])):
        with pytest.raises(SingularSystem):
            vandermonde_solve(nodes, rhs)
    assert vandermonde_solve([r, -r], [2, 0]) == [1, 1]


def _unary_instance(f, u, n):
    g = SignatureGrid()
    for i in range(n):
        g.add_vertex(("f", i), f, "L")
        g.add_vertex(("q", i), EQ3, "R")
        g.add_vertex(("u", i), u, "R")
        g.add_edge((("f", i), 0), (("u", i), 0))
        g.add_edge((("f", i), 1), (("q", i), 0))
        g.add_edge((("f", i), 2), (("q", i), 1))
    for i in range(n):
        g.add_vertex(("h", i), f, "L")
        g.add_edge((("h", i), 0), (("q", i), 2))
        g.add_vertex(("qq", i), EQ3, "R")
        g.add_edge((("h", i), 1), (("qq", i), 0))
        g.add_edge((("h", (i + 1) % n), 2), (("qq", i), 1))
        g.add_vertex(("w", i), u, "L")
        g.add_edge((("w", i), 0), (("qq", i), 2))
    g.validate()
    return g


def test_interpolate_unary_seed_is_target():
    f = SymSig([1, 2, 3, 4])
    seed = SymSig([1, 1])
    g = _unary_instance(f, seed, 1)
    got = interpolate_unary(g, [("u", 0)], straddled_from_f(f), seed)
    assert got == holant(g)


def test_interpolate_unary_point_targets():
    f = SymSig([1, 2, 3, 4])
    m = straddled_from_f(f)
    for uvals in ([1, 0], [0, 1]):
        g = _unary_instance(f, SymSig(uvals), 1)
        assert interpolate_unary(g, [("u", 0)], m, SymSig([1, 1])) == holant(g)


def test_interpolate_unary_multiple_occurrences():
    f = SymSig([2, 1, 0, 3])
    g = _unary_instance(f, SymSig([3, Fraction(1, 2)]), 2)
    got = interpolate_unary(g, [("u", 0), ("u", 1)], straddled_from_f(f), SymSig([1, 2]))
    assert got == holant(g)


def test_interpolate_unary_rejects_eigenvector_seed():
    f = SymSig([1, 1, 1, 1])
    jd = jordan(straddled_from_f(f))
    g = _unary_instance(f, SymSig([1, 1]), 1)
    with pytest.raises(EigenvectorSeed):
        interpolate_unary(g, [("u", 0)], straddled_from_f(f), SymSig([1, jd.x]))


def test_interpolate_unary_zero_eigenvalue_single_slot():
    f = SymSig([1, 1, 1, 1])  # zero eigenvalue
    g = _unary_instance(f, SymSig([1, 0]), 1)
    got = interpolate_unary(g, [("u", 0)], straddled_from_f(f), SymSig([2, 1]))
    assert got == holant(g)


def test_interpolate_unary_needs_two_distinct_eigenvalues():
    f = SymSig([1, 2, 3, 4])
    g = _unary_instance(f, SymSig([1, 0]), 1)
    with pytest.raises(ZeroDelta):
        interpolate_unary(g, [("u", 0)], Mat2(((1, 1), (0, 1))), SymSig([2, 1]))


def test_interpolate_unary_zero_eigenvalue_off_the_mu_axis_is_underdetermined():
    f = SymSig([1, 1, 1, 1])  # lam = 0; [3,1] has a component along the lam eigenvector
    g = _unary_instance(f, SymSig([3, 1]), 2)
    with pytest.raises(UnderdeterminedInterpolation):
        interpolate_unary(g, [("u", 0), ("u", 1)], straddled_from_f(f), SymSig([2, 1]))


@pytest.mark.parametrize("m", [((0, 1), (1, 0)), ((1, 2), (2, -1))])
def test_interpolate_unary_trace_zero_needs_one_occurrence(m):
    """lam = -mu leaves the nodes lam^k mu^(n-k) two values, so from two
    occurrences on only the even and odd strata sums are known."""
    f = SymSig([1, 2, 3, 4])
    g = _unary_instance(f, SymSig([3, 1]), 1)
    assert interpolate_unary(g, [("u", 0)], Mat2(m), SymSig([2, 1])) == holant(g)
    for n in (2, 3):
        g = _unary_instance(f, SymSig([3, 1]), n)
        with pytest.raises(UnderdeterminedInterpolation):
            interpolate_unary(g, [("u", i) for i in range(n)], Mat2(m), SymSig([2, 1]))


def test_interpolate_unary_zero_mu_swaps_the_eigenvalues():
    m = Mat2(((-1, 0), (1, 0)))   # eigenvalues -1 and 0: the zero one is mu
    for f, target in (([1, 2, 3, 4], [3, 5]), ([2, 1, 0, 3], [1, 0])):
        g = _unary_instance(SymSig(f), SymSig(target), 1)
        assert interpolate_unary(g, [("u", 0)], m, SymSig([2, 1])) == holant(g)


def test_recover_weighs_the_strata():
    from holant3.interp import _recover

    strata = [Fraction(3), Fraction(-1, 2), Fraction(5)]
    lam, mu = Fraction(2), Fraction(-3)
    nodes = [lam**k * mu ** (2 - k) for k in range(3)]
    values = [sum(c * t**s for c, t in zip(strata, nodes)) for s in range(3)]
    got_nodes, got_strata, value = _recover(values, lam, mu, 2, Fraction(7), Fraction(1, 3))
    assert list(got_nodes) == nodes and list(got_strata) == strata
    assert value == sum(7**k * Fraction(1, 3) ** (2 - k) * c for k, c in enumerate(strata))
    # lam = 0: only the all-mu stratum is read off, from values[1]
    assert _recover([9, 8], 0, 2, 1, 0, 5)[1:] == (None, 5 * 4)
    assert _recover([9, 8], 0, 2, 1, 1, 5)[1:] == (None, 5 * 4 + (9 - 4))
    with pytest.raises(UnderdeterminedInterpolation):
        _recover([9, 8, 7], 0, 2, 2, 1, 5)


# -- splitting ---------------------------------------------------------------

def _split_instance(f, x):
    ux = SymSig([1, x])
    g = SignatureGrid()
    g.add_vertex("f0", f, "L")
    g.add_vertex("f1", f, "L")
    g.add_vertex("g0", EQ3, "R")
    for i in range(3):
        g.add_vertex(("u", i), ux, "R")
    g.add_edge(("f0", 0), ("g0", 0))
    g.add_edge(("f0", 1), (("u", 0), 0))
    g.add_edge(("f0", 2), (("u", 1), 0))
    g.add_edge(("f1", 0), ("g0", 1))
    g.add_edge(("f1", 1), ("g0", 2))
    g.add_edge(("f1", 2), (("u", 2), 0))
    g.validate()
    return g


def test_split_reduction_no_unaries_is_identity():
    f = SymSig([1, 2, 3, 4])
    g = bipartite_grid(f, PAIRS_2x2)
    red = split_reduction(g, f, EQ3, Fraction(1), Fraction(1))
    assert red.factor == 1 and red.power == 1
    assert holant(red.grid) == holant(g)


def test_split_reduction_equality_factor():
    f = SymSig([1, 2, 0, 1])
    x, y = Fraction(2), Fraction(3, 2)
    g = _split_instance(f, x)
    red = split_reduction(g, f, EQ3, x, y)
    assert red.factor == 1 + y ** 3
    assert holant(red.grid) == red.factor * holant(g) ** red.power


def test_split_reduction_randomized_identity():
    rng = random.Random(53)
    for _ in range(10):
        f = rand_nonneg_sig(rng)
        x, y = rand_positive(rng), rand_positive(rng)
        g = _split_instance(f, x)
        red = split_reduction(g, f, EQ3, x, y)
        assert holant(red.grid) == red.factor * holant(g) ** red.power


def test_split_reduction_rejects_point_mass_g():
    f = SymSig([1, 2, 3, 4])
    g = _split_instance(f, Fraction(1))
    with pytest.raises(DegenerateG):
        split_reduction(g, f, SymSig([0, 0, 0, 5]), Fraction(1), Fraction(1))


def test_split_reduction_count_mismatch():
    """A closed grid always balances ports, so the fractional count is
    only reachable from malformed input such as a dangling gadget."""
    f = SymSig([1, 2, 3, 4])
    g = SignatureGrid()
    g.add_vertex("f0", f, "L")
    g.add_vertex(("u", 0), SymSig([1, 1]), "R")
    g.add_edge(("f0", 0), (("u", 0), 0))
    g.mark_dangling(("f0", 1))
    g.mark_dangling(("f0", 2))
    g.validate()
    with pytest.raises(CountMismatch):
        split_reduction(g, f, EQ3, Fraction(1), Fraction(1))


def test_outer_product_replacement_preserves_holant():
    """The degenerate straddled tensor literally factors into the unary
    pair, so swapping one for the other never changes a closed value."""
    rng = random.Random(54)
    for _ in range(10):
        x, y = rand_positive(rng), rand_positive(rng)
        f = rand_nonneg_sig(rng)
        grid = SignatureGrid()
        grid.add_vertex("f0", f, "L")
        grid.add_vertex("q0", EQ3, "R")
        grid.add_edge(("f0", 0), ("q0", 0))
        grid.add_edge(("f0", 1), ("q0", 1))
        # route the third pair through the straddled outer product
        from holant3.signatures import Tensor

        b = Tensor(2, (1, x, y, x * y))
        grid.add_vertex("B", b, ("R", "L"))
        grid.add_edge(("f0", 2), ("B", 0))
        grid.add_edge(("B", 1), ("q0", 2))
        grid.validate()
        with_b = holant(grid)

        split = SignatureGrid()
        split.add_vertex("f0", f, "L")
        split.add_vertex("q0", EQ3, "R")
        split.add_edge(("f0", 0), ("q0", 0))
        split.add_edge(("f0", 1), ("q0", 1))
        split.add_vertex("ux", SymSig([1, x]), "R")
        split.add_vertex("uy", SymSig([1, y]), "L")
        split.add_edge(("f0", 2), ("ux", 0))
        split.add_edge(("uy", 0), ("q0", 2))
        split.validate()
        assert with_b == holant(split)


def test_unary_closure_value():
    assert unary_closure_value(EQ3, Fraction(2)) == 1 + 8
    assert unary_closure_value(SymSig([1, 1]), Fraction(3)) == 4


def test_split_reduction_with_general_ternary_g():
    """The reduction is not special to ternary equality on the right."""
    rng = random.Random(57)
    checked = 0
    while checked < 15:
        f = SymSig([Fraction(rng.randint(0, 3)) for _ in range(4)])
        g_sig = SymSig([Fraction(rng.randint(0, 3)) for _ in range(4)])
        if all(v == 0 for v in g_sig.values[:-1]):
            continue
        x = Fraction(rng.randint(0, 3), rng.randint(1, 2))
        y = Fraction(rng.randint(0, 3), rng.randint(1, 2))
        grid = SignatureGrid()
        n_f = rng.choice([2, 3])
        n_u = 3 * n_f - 3
        grid.add_vertex("g0", g_sig, "R")
        for i in range(n_f):
            grid.add_vertex(("f", i), f, "L")
        for k in range(n_u):
            grid.add_vertex(("u", k), SymSig([1, x]), "R")
        lports = [(("f", i), s) for i in range(n_f) for s in range(3)]
        rports = [("g0", s) for s in range(3)] + [(("u", k), 0) for k in range(n_u)]
        rng.shuffle(rports)
        for lp, rp in zip(lports, rports):
            grid.add_edge(lp, rp)
        grid.validate()
        red = split_reduction(grid, f, g_sig, x, y)
        assert holant(red.grid) == red.factor * holant(grid) ** red.power
        checked += 1


def test_split_parameters_nonnegative_on_1000_signatures():
    """x and y never go negative for nonnegative input signatures with a
    positive discriminant, so split unaries stay nonnegative."""
    rng = random.Random(55)
    done = 0
    while done < 1000:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        b = Fraction(rng.randint(0, 9), rng.randint(1, 6))
        c = Fraction(rng.randint(0, 9), rng.randint(1, 6))
        if (1 - c) ** 2 + 4 * a * b == 0:
            continue
        jd = jordan(straddled_from_f(SymSig([1, a, b, c])))
        assert jd.x >= 0 and jd.y >= 0
        done += 1


def test_spliced_chain_equals_the_matrix_power(monkeypatch):
    """A placeholder replaced by a copy of build_transfer_chain(f, s) has
    the value of the placeholder replaced by the s-th power of the
    straddled matrix; stratify builds one chain per length s >= 1."""
    from holant3 import interp
    from holant3.gadgets import build_transfer_chain
    from holant3.signatures import matrix_power, normalize

    rng = random.Random(57)
    for _ in range(4):
        f, _, _ = normalize(SymSig([1, rand_positive(rng, hi=4, den=2),
                                    rand_positive(rng, hi=4, den=2), rand_positive(rng, hi=4, den=2)]))
        grid = add_placeholder_on_edge(bipartite_grid(f, PAIRS_2x2), 2)
        (vid,) = interp._placeholder_ids(grid)
        for s in range(4):
            chain = build_transfer_chain(f, s) if s else None
            spliced = interp.substitute_placeholder_chain(grid, vid, chain)
            assert len(spliced.vertices) == len(grid.vertices) - 1 + 2 * s
            direct = substitute_placeholder_matrix(grid, vid, matrix_power(straddled_from_f(f), s))
            assert holant(spliced) == holant(direct)

    built = []
    monkeypatch.setattr(interp, "build_transfer_chain",
                        lambda f, s: built.append(s) or build_transfer_chain(f, s))
    grid = add_placeholder_on_edge(add_placeholder_on_edge(bipartite_grid(f, PAIRS_2x2), 0), 1)
    interp.stratify_holant_with_d(grid, f)
    assert built == [1, 2]
