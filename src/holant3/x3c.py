"""Exact 3-cover instances as 3-regular bipartite incidence grids.

A set system where every set has 3 elements and every element lies in
exactly 3 sets has a 3-regular bipartite incidence graph. Placing the
exact-one signature [0,1,0,0] on the element side and ternary equality
on the set side makes the partition function count exact covers: the
equality vertex turns each set into a 0/1 selection variable and each
element demands exactly one selected incident set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import NotThreeRegular
from .grid import SignatureGrid, holant
from .signatures import EQ3, SymSig

EXACT_ONE = SymSig([0, 1, 0, 0])


def _check_system(sets: Sequence[Sequence]):
    ground = sorted({x for s in sets for x in s}, key=str)
    occurrences = {x: 0 for x in ground}
    for s in sets:
        if len(s) != 3 or len(set(s)) != 3:
            raise NotThreeRegular(f"set {s!r} does not have 3 distinct elements")
        for x in s:
            occurrences[x] += 1
    bad = [x for x, c in occurrences.items() if c != 3]
    if bad:
        raise NotThreeRegular(f"elements {bad!r} do not occur in exactly 3 sets")
    return ground


def rx3c_to_grid(sets: Sequence[Sequence], element_sig: SymSig = EXACT_ONE) -> SignatureGrid:
    """Incidence grid: elements on the left carrying element_sig, sets on
    the right carrying ternary equality, one edge per membership."""
    ground = _check_system(sets)
    g = SignatureGrid()
    for x in ground:
        g.add_vertex(("elt", x), element_sig, "L")
    for k in range(len(sets)):
        g.add_vertex(("set", k), EQ3, "R")
    eslot = {x: 0 for x in ground}
    for k, s in enumerate(sets):
        for pos, x in enumerate(sorted(s, key=str)):
            g.add_edge((("elt", x), eslot[x]), (("set", k), pos))
            eslot[x] += 1
    return g


def count_exact_covers(sets: Sequence[Sequence]) -> Fraction:
    """Number of sub-multisets of `sets` covering every element exactly once."""
    return holant(rx3c_to_grid(sets))


def count_moderate_covers(sets: Sequence[Sequence]) -> Fraction:
    """Number of hyperedge subsets covering every element once or twice
    (grid-evaluator reference for the planar pipeline)."""
    return holant(rx3c_to_grid(sets, element_sig=SymSig([0, 1, 1, 0])))


def brute_force_exact_covers(sets: Sequence[Sequence]) -> Fraction:
    """Subset-enumeration reference, independent of the grid evaluator."""
    ground = {x for s in sets for x in s}
    count = 0
    for mask in range(1 << len(sets)):
        covered: dict = {}
        ok = True
        for k in range(len(sets)):
            if (mask >> k) & 1:
                for x in sets[k]:
                    covered[x] = covered.get(x, 0) + 1
                    if covered[x] > 1:
                        ok = False
                        break
            if not ok:
                break
        if ok and all(covered.get(x, 0) == 1 for x in ground):
            count += 1
    return Fraction(count)
