"""Named gadget constructions and the bounded exhaustive gadget search.

All gadgets here mix one ternary signature f (squares, left side) with
ternary equality (circles, right side). The transfer gadget realizes
the straddled matrix [[x0,x2],[x1,x3]]; chains of it realize matrix
powers. The search enumerates isomorphism-reduced small topologies and
returns one whose contraction matches a target up to a positive scalar.

Measured back to back on a 2-core Xeon VM (Python 3.11), an exhaustive
miss takes 0.02 s at 4 squares and 4 circles with three L ports, 0.16 s
with ports LR, 0.4 s at 5 squares and 4 circles and 13 s at 5 and 5 with
ports LR. Canonical forms over all row and column permutations took
0.11, 2.6 and 22 s on the first three. Contraction is now most of the
first search; the canonical forms are still most of the others.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import ArityMismatch, GridStructureError
from .exact import Scalar
from .grid import Gadget, SignatureGrid, contract
from .signatures import EQ3, SymSig, Tensor, sym_to_tensor


def build_transfer_gadget(f: SymSig) -> Gadget:
    """One square, one circle, a double edge between them; the square's
    remaining port dangles on L, the circle's on R."""
    g = SignatureGrid()
    g.add_vertex("f0", f, "L")
    g.add_vertex("q0", EQ3, "R")
    g.add_edge(("f0", 1), ("q0", 0))
    g.add_edge(("f0", 2), ("q0", 1))
    g.mark_dangling(("f0", 0))
    g.mark_dangling(("q0", 2))
    return g


def build_transfer_chain(f: SymSig, s: int) -> Gadget:
    """s transfer gadgets in series; contraction equals the s-th power
    of the straddled matrix."""
    if s < 1:
        raise ValueError("chain length must be >= 1")
    g = SignatureGrid()
    for i in range(s):
        g.add_vertex(("f", i), f, "L")
        g.add_vertex(("q", i), EQ3, "R")
        g.add_edge((("f", i), 1), (("q", i), 0))
        g.add_edge((("f", i), 2), (("q", i), 1))
    for i in range(s - 1):
        g.add_edge((("f", i + 1), 0), (("q", i), 2))
    g.mark_dangling((("f", 0), 0))
    g.mark_dangling((("q", s - 1), 2))
    return g


def build_double_hub_gadget(f: SymSig) -> Gadget:
    """Three squares, two circles; every square touches both circles
    once and keeps one dangling L port. Contraction is the symmetric
    ternary sum_{z1,z2} prod_i f(v_i, z1, z2)."""
    g = SignatureGrid()
    for i in range(3):
        g.add_vertex(("f", i), f, "L")
    for j in range(2):
        g.add_vertex(("q", j), EQ3, "R")
    for i in range(3):
        g.add_edge((("f", i), 1), (("q", 0), i))
        g.add_edge((("f", i), 2), (("q", 1), i))
        g.mark_dangling((("f", i), 0))
    return g


def build_unary_probe(f: SymSig, u: SymSig) -> Gadget:
    """One square, two circles, two copies of the unary u on the left;
    leaves a single dangling R port.

    With u = [y, 1] the contraction is [y^2 + y*b, y*a + c] for
    f = [1, a, b, c].
    """
    if u.arity != 1:
        raise ArityMismatch("probe expects a unary signature")
    g = SignatureGrid()
    g.add_vertex("f0", f, "L")
    g.add_vertex("q0", EQ3, "R")
    g.add_vertex("q1", EQ3, "R")
    g.add_vertex("t0", u, "L")
    g.add_vertex("t1", u, "L")
    g.add_edge(("t0", 0), ("q0", 0))
    g.add_edge(("f0", 0), ("q0", 1))
    g.add_edge(("f0", 1), ("q0", 2))
    g.add_edge(("t1", 0), ("q1", 0))
    g.add_edge(("f0", 2), ("q1", 1))
    g.mark_dangling(("q1", 2))
    return g


# -- exhaustive search ------------------------------------------------------

def _canonical_biadjacency(matrix: tuple) -> tuple:
    """Lexicographically minimal form under row and column permutations.

    For a fixed column order the least row order is the sorted one: the
    matrix compares as a tuple of rows, and sorting puts the least row
    first, then the least of the rest, and so on. So the minimum over
    row and column permutations is the minimum over column permutations
    of the sorted rows, n_eq! candidates instead of n_f! * n_eq!."""
    n_cols = len(matrix[0]) if matrix else 0
    return min(tuple(sorted(tuple(row[j] for j in cp) for row in matrix))
               for cp in permutations(range(n_cols)))


def _biadjacency_matrices(n_f: int, n_eq: int, total: int):
    """All n_f x n_eq matrices with entries 0..3, row/col sums <= 3 and
    grand total `total`, one representative per (row, col)-permutation
    orbit."""
    seen = set()
    col_budget = [3] * n_eq
    # every row with entries 0..3 and sum <= 3, in increasing order
    candidates = [(row, sum(row)) for row in product(range(4), repeat=n_eq)
                  if sum(row) <= 3]

    def rows(i: int, remaining: int, acc: list):
        if i == n_f:
            if remaining == 0:
                canon = _canonical_biadjacency(tuple(acc))
                if canon not in seen:
                    seen.add(canon)
                    yield canon
            return
        for row, row_sum in candidates:
            if acc and row > acc[-1]:
                break  # rows permutable: enumerate nonincreasing reps only
            # the rows after this one take up at most 3 each
            if (row_sum > remaining or remaining - row_sum > 3 * (n_f - 1 - i)
                    or any(v > b for v, b in zip(row, col_budget))):
                continue
            for j, v in enumerate(row):
                col_budget[j] -= v
            acc.append(row)
            yield from rows(i + 1, remaining - row_sum, acc)
            acc.pop()
            for j, v in enumerate(row):
                col_budget[j] += v

    yield from rows(0, total, [])


def _grid_from_biadjacency(f: SymSig, matrix: tuple) -> Gadget:
    g = SignatureGrid()
    n_f = len(matrix)
    n_eq = len(matrix[0]) if n_f else 0
    for i in range(n_f):
        g.add_vertex(("f", i), f, "L")
    for j in range(n_eq):
        g.add_vertex(("q", j), EQ3, "R")
    lslot = [0] * n_f
    rslot = [0] * n_eq
    for i in range(n_f):
        for j in range(n_eq):
            for _ in range(matrix[i][j]):
                g.add_edge((("f", i), lslot[i]), (("q", j), rslot[j]))
                lslot[i] += 1
                rslot[j] += 1
    for i in range(n_f):
        while lslot[i] < 3:
            g.mark_dangling((("f", i), lslot[i]))
            lslot[i] += 1
    for j in range(n_eq):
        while rslot[j] < 3:
            g.mark_dangling((("q", j), rslot[j]))
            rslot[j] += 1
    return g


def _matches_up_to_positive_scalar(found: Tensor, target: Tensor) -> bool:
    if found.arity != target.arity:
        return False
    ratio: Scalar | None = None
    for a, b in zip(found.entries, target.entries):
        if not b:
            if a:
                return False
            continue
        r = a / b
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    if ratio is None:  # target identically zero
        return not any(found.entries)
    return ratio > 0


def gadget_search(f: SymSig, target, max_f: int, max_eq: int,
                  polarities=None):
    """Exhaustive search for a gadget over {f, ternary equality} whose
    contraction equals `target` up to a positive scalar.

    target may be a SymSig (any dangling-port order accepted; the number
    of L vs R dangling ports is taken from `polarities`, defaulting to
    all L) or a Tensor compared against the canonical dangling order
    (f-side ports first). Returns the gadget, or None when the bounds
    are exhausted; polarities of the wrong length (ArityMismatch) or
    with a letter other than L and R (GridStructureError) are refused
    before the search.
    """
    d = target.arity
    if polarities is None:
        polarities = tuple("L" for _ in range(d))
    polarities = tuple(polarities)
    if len(polarities) != d:
        raise ArityMismatch(f"{len(polarities)} polarities for a target of arity {d}")
    if not set(polarities) <= {"L", "R"}:
        raise GridStructureError(f"polarities must be 'L' or 'R', got {polarities!r}")
    if d > 3 * (max_f + max_eq):
        return None     # no gadget within the bounds has d dangling ports
    target_tensor = sym_to_tensor(target) if isinstance(target, SymSig) else target
    want_l = sum(1 for p in polarities if p == "L")
    want_r = d - want_l
    for n_f in range(0, max_f + 1):
        for n_eq in range(0, max_eq + 1):
            if n_f == 0 and n_eq == 0:
                continue
            internal = 3 * n_f - want_l
            if internal < 0 or internal != 3 * n_eq - want_r:
                continue
            for matrix in _biadjacency_matrices(n_f, n_eq, internal):
                g = _grid_from_biadjacency(f, matrix)
                got, pols = contract(g)
                if sorted(pols) != sorted(polarities):
                    continue
                if ((not isinstance(target, SymSig) or got.is_symmetric())
                        and _matches_up_to_positive_scalar(got, target_tensor)):
                    return g
    return None
