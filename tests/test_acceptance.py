"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines. Randomized suites are seeded, so outputs are reproducible.
"""

import json
import random
import time
from fractions import Fraction

from holant3.dichotomy import FP, classify_ternary, verify_case_identities, \
    verify_factorization_identity
from holant3.gadgets import build_transfer_gadget
from holant3.grid import bipartite_grid, contract, holant
from holant3.interp import (
    add_placeholder_on_edge,
    degenerate_target,
    interpolate_holant_with_d,
    split_reduction,
    substitute_placeholder_matrix,
)
from holant3.matchgates import (
    ONE_OR_TWO,
    crossing_gate,
    equality_gate,
    matchgate_signature,
    solve_planar_moderate_cover,
)
from holant3.planar import count_pm
from holant3.signatures import EQ3, SymSig, hadamard_transform, jordan, straddled_from_f
from holant3.tractable import TractableInstance, solve
from holant3.x3c import count_exact_covers
from conftest import (
    brute_exact_covers,
    enumerate_pm_oracle,
    rand_3reg_system,
    rand_positive,
    rand_pure_grid,
    random_embedded_instance,
    random_planar_graph,
    run_cli,
)

PAIRS_2x2 = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def _report(n, name, detail):
    print(f"ACCEPTANCE {n} ({name}): PASS ({detail})")


def test_acceptance_1_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(101)

    def degenerate_sig():
        p, q = rand_positive(rng, hi=4, den=3), Fraction(rng.randint(0, 4), rng.randint(1, 3))
        return SymSig([p ** 3, p * p * q, p * q * q, q ** 3])

    def gen_eq_sig():
        return SymSig([Fraction(rng.randint(0, 5), rng.randint(1, 3)), 0, 0,
                       Fraction(rng.randint(0, 5), rng.randint(1, 3))])

    def affine_sig():
        v = rand_positive(rng, hi=5, den=3)
        return SymSig([v, 0, v, 0]) if rng.random() < 0.5 else SymSig([0, v, 0, v])

    families = [("degenerate", degenerate_sig), ("generalized-equality", gen_eq_sig),
                ("affine", affine_sig)]
    total = 0
    for name, make in families:
        for _ in range(100):
            f = make()
            grid = rand_pure_grid(rng, f, rng.randint(1, 3))
            assert len(grid.edges) <= 10
            value, cls = solve(TractableInstance(grid, f))
            assert cls.verdict == FP
            assert value == holant(grid)
            total += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(1, "oracle equivalence", f"{total} grids across 3 families, {elapsed:.1f}s")


def test_acceptance_2_classifier_conformance():
    rng = random.Random(102)

    def points(include=(), exclude=()):
        vals = {rand_positive(rng, hi=12, den=6) for _ in range(40)}
        vals |= set(include)
        return [v for v in vals if v not in exclude][:max(20, len(vals))]

    mismatches = 0
    checked = 0

    def expect(f, should_be_fp):
        nonlocal mismatches, checked
        verdict = classify_ternary(f).verdict
        checked += 1
        if (verdict == FP) != should_be_fp:
            mismatches += 1

    for a in points(include=[Fraction(0), Fraction(1)]):
        expect(SymSig([1, a, a, 1]), a in (0, 1))
    for b in points(include=[Fraction(0)]):
        expect(SymSig([1, 0, b, 1]), b == 0)
    for b in points(include=[Fraction(0), Fraction(1)]):
        expect(SymSig([1, 0, b, 0]), b in (0, 1))
    for b in points(include=[Fraction(0)]):
        c = rand_positive(rng, hi=9, den=4)
        while c in (0, 1):
            c = rand_positive(rng, hi=9, den=4)
        expect(SymSig([1, 0, b, c]), b == 0)
    for b in points():
        expect(SymSig([0, 1, b, 0]), False)
    expect(SymSig([0, 1, 0, 0]), False)

    assert mismatches == 0 and checked >= 6 * 20
    _report(2, "classifier conformance", f"{checked} family points, 0 mismatches")


def test_acceptance_3_displayed_formulas():
    assert hadamard_transform(EQ3, "H", "left") == SymSig([2, 0, 2, 0])
    assert hadamard_transform(SymSig([0, 1, 1, 0]), "H_inverse", "right") == \
        SymSig([Fraction(3, 4), 0, Fraction(-1, 4), 0])
    rng = random.Random(103)
    for _ in range(100):
        f = SymSig([Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(4)])
        tensor, pols = contract(build_transfer_gadget(f))
        m = straddled_from_f(f)
        assert pols == ("L", "R")
        assert (tensor.value_at(0b00), tensor.value_at(0b01),
                tensor.value_at(0b10), tensor.value_at(0b11)) == (
            m[0][0], m[1][0], m[0][1], m[1][1])
    _report(3, "displayed formulas", "2 basis-change identities + 100 transfer contractions")


def test_acceptance_4_jordan_and_interpolation():
    started = time.monotonic()
    rng = random.Random(104)
    done = 0
    while done < 100:
        a = rand_positive(rng, hi=5, den=3)
        b = Fraction(rng.randint(0, 5), rng.randint(1, 3))
        c = Fraction(rng.randint(0, 5), rng.randint(1, 3))
        if (1 - c) ** 2 + 4 * a * b == 0:
            continue
        f = SymSig([1, a, b, c])
        m = straddled_from_f(f)
        jd = jordan(m)
        assert jd.reconstruct() == m
        assert jd.x * jd.y == b / a
        assert jd.x >= 0 and jd.y >= 0

        n = 1 if done % 2 == 0 else 2
        base = bipartite_grid(f, [(0, 0)] * 3 if done % 4 < 2 else PAIRS_2x2)
        grid = base
        for i in range(n):
            grid = add_placeholder_on_edge(grid, i)
        target = degenerate_target(f)
        direct = grid
        for vid in [v for v in grid.vertices if isinstance(v, tuple) and v[0] == "D"]:
            direct = substitute_placeholder_matrix(direct, vid, target.matrix)
        assert interpolate_holant_with_d(grid, f) == holant(direct)
        done += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(4, "eigen data + interpolation",
            f"100 signatures, projector grids n<=2, {elapsed:.1f}s")


def test_acceptance_5_factorization_identities():
    """The two sides agree on every generic triple; the only exceptions
    live exactly on the surface ab = c with b != a^2 (where the product
    factor vanishes without the eigenvector equation holding), and the
    test pins that characterization instead of merely skipping it."""
    rng = random.Random(105)
    agree = 0
    exceptions = 0
    while agree < 500:
        a, b, c = (rand_positive(rng, hi=12, den=8) for _ in range(3))
        lhs, rhs = verify_factorization_identity(a, b, c)
        on_surface = (a * b == c and b != a * a
                      and a ** 3 - b ** 3 - a * b * (1 - c) != 0)
        if on_surface:
            assert rhs and not lhs
            exceptions += 1
        else:
            assert lhs == rhs
            agree += 1
    proved = verify_case_identities()
    assert len(proved) == 4 and all(proved.values()), proved
    _report(5, "factorization identities",
            f"500 generic triples agree + {exceptions} pinned surface points + 4 proved identities")


def test_acceptance_6_split_reduction():
    rng = random.Random(106)
    from holant3.grid import SignatureGrid

    def build_instance(f, x, n_u3):
        """N_f f-vertices against one equality block and 3*n_u3 unaries."""
        g = SignatureGrid()
        n_f = 1 + n_u3
        unaries = 3 * n_u3
        g_count = (3 * n_f - unaries) // 3
        ux = SymSig([1, x])
        for i in range(n_f):
            g.add_vertex(("f", i), f, "L")
        for j in range(g_count):
            g.add_vertex(("g", j), EQ3, "R")
        for k in range(unaries):
            g.add_vertex(("u", k), ux, "R")
        lports = [(("f", i), s) for i in range(n_f) for s in range(3)]
        rports = [(("g", j), s) for j in range(g_count) for s in range(3)]
        rports += [(("u", k), 0) for k in range(unaries)]
        rng.shuffle(rports)
        for lp, rp in zip(lports, rports):
            g.add_edge(lp, rp)
        g.validate()
        return g

    for trial in range(50):
        f = SymSig([Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(4)])
        x, y = rand_positive(rng, hi=4, den=3), rand_positive(rng, hi=4, den=3)
        grid = build_instance(f, x, rng.choice([1, 1, 2]))
        red = split_reduction(grid, f, EQ3, x, y)
        assert holant(red.grid) == red.factor * holant(grid) ** red.power
    _report(6, "split reduction", "50 randomized end-to-end identities")


def test_acceptance_7_planar_stack():
    started = time.monotonic()
    rng = random.Random(107)
    for _ in range(200):
        g = random_planar_graph(rng)
        assert len(g.vertices) <= 12
        assert count_pm(g) == enumerate_pm_oracle(g)
    assert matchgate_signature(crossing_gate()).to_symmetric() == \
        SymSig([Fraction(3, 4), 0, Fraction(-1, 4), 0])
    assert matchgate_signature(equality_gate()).to_symmetric() == SymSig([2, 0, 2, 0])
    for _ in range(50):
        inst = random_embedded_instance(rng, ONE_OR_TWO, max_side=8)
        assert len(inst.grid.vertices) <= 16
        assert solve_planar_moderate_cover(inst) == holant(inst.grid)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(7, "planar stack",
            f"200 matching counts + 2 gates + 50 holographic instances, {elapsed:.1f}s")


def test_acceptance_8_exact_cover_counts():
    assert count_exact_covers([[1, 2, 3]] * 3) == 3
    assert count_exact_covers([[1, 2, 3], [4, 5, 6]] * 3) == 9
    rng = random.Random(108)
    for _ in range(20):
        sets = rand_3reg_system(rng, rng.choice([3, 4, 5, 6, 7]))
        assert count_exact_covers(sets) == brute_exact_covers(sets)
    _report(8, "exact 3-cover counts", "2 worked + 20 random systems vs enumeration")


def test_acceptance_9_determinism(tmp_path):
    from holant3.formats import format_grid

    grid = bipartite_grid(SymSig([1, 2, 4, 8]), PAIRS_2x2)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))

    def run():
        return [run_cli(cmd)[:2] for cmd in (
            ["eval", "--input", str(path), "--format", "json"],
            ["classify", "--signature", "[1,0,5,0]", "--format", "json"],
            ["verify-identities", "--format", "json"])]

    first = run()
    assert all(code == 0 for code, _ in first) and first == run()
    _report(9, "determinism", "byte-identical CLI runs")
