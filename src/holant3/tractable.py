"""Polynomial-time solvers for every tractable case, plus a dispatcher.

Instances are closed grids with one ternary signature f on the whole
left side and ternary equality on the whole right side. The degenerate
solver is a closed form. The affine and generalized-equality solvers
share one pass over the edges (_neighbour_numbers) that numbers each f
vertex's three equality neighbours: the affine one ranks those rows,
one GF(2) elimination, and the generalized-equality one joins them by
union-find. Parsing and the instance checks are linear; the wiring is
validated once, by TractableInstance. The affine rank is superlinear on
random, expander-like grids, whose rows fill in. Per stage at 3k / 9k /
30k edges (seeded random grids, 2-core Xeon VM, Python 3.11, with the
cyclic collector paused as `solve` runs it): json.load 2.3 / 6.2 / 19
ms, parse_grid 2.3 / 6.2-8.8 / 23 ms, TractableInstance 2.6 / 8-9 / 37
ms (nearly all of it validate), the affine solve 3.3 / 17-18 / 156 ms,
the generalized-equality solve 1.5 / 4-6 / 18-19 ms. The solvers do not
fold the grid: _fold takes 9-10 / 33-36 / 134-141 ms at those sizes.
With the collector running, json.load took up to 2.5 / 11 / 24 ms and
parse_grid up to 3.1 / 16 / 49 ms: its scans were 14-30% of a
degenerate or generalized-equality op at 3k and 9k edges.

* degenerate f = u (x) u (x) u: every equality vertex absorbs three
  copies of u and contributes u0^3 + u1^3 = x0 + x3 independently.
* generalized equality [x0,0,0,x3]: all edges of a connected component
  are forced equal, giving x0^{n_c} + x3^{n_c} per component.
* affine [x0,0,x0,0] / [0,x1,0,x1]: a GF(2) system over the edges, two
  equalities per equality vertex and one parity per f vertex. The 2|R|
  equalities sit on disjoint edge triples, and modulo their span each
  edge is its equality vertex's variable, so rank = 2|R| + rank(M) with
  M the |L| x |R| quotient: one parity row per f vertex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FormatError, HardnessRefusal, NegativeEntry, NotDegenerate, WrongCase
from .dichotomy import FP, TernaryClassification, classify_ternary
from .grid import SignatureGrid, holant
from .signatures import EQ3, SymSig, affine_scale, is_degenerate, is_generalized_equality


@dataclass(frozen=True)
class TractableInstance:
    """Validates the grid, then classifies its vertices in one pass. Without
    f, f is the left side's one symmetric signature (else FormatError)."""

    grid: SignatureGrid
    f: SymSig | None = None
    _left: list = field(init=False, repr=False, compare=False)
    _right: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.grid.validate()
        f, left, right = self.f, [], []
        for vid, v in self.grid.vertices.items():
            pols, sig = v.polarities, v.sig
            # identity first: parse_grid gives the vertices of one spec one object
            if pols.count("L") == len(pols):
                if f is None:
                    f = sig
                elif sig is not f and sig != f:
                    if self.f is None:
                        raise FormatError("left side must carry exactly one signature")
                    raise WrongCase(f"left vertex {vid!r} does not carry f")
                left.append(vid)
            elif pols.count("R") == len(pols):
                if sig is not EQ3 and sig != EQ3:
                    raise WrongCase(f"right vertex {vid!r} does not carry ternary equality")
                right.append(vid)
            else:
                raise WrongCase(f"vertex {vid!r} mixes polarities")
        if not isinstance(f, SymSig):
            raise FormatError("left signature must be symmetric" if f is not None
                              else "left side must carry exactly one signature")
        if f.arity != 3:
            raise WrongCase(f"f has arity {f.arity}; the solvers need a ternary signature")
        if self.grid.dangling:
            raise WrongCase("instance grids must be closed")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_left", left)
        object.__setattr__(self, "_right", right)

    def left_ids(self):
        """The f vertices, in insertion order; listed once, at construction."""
        return self._left

    def right_ids(self):
        """The equality vertices, in insertion order; listed once, at construction."""
        return self._right


def solve_degenerate(inst: TractableInstance) -> Fraction:
    f = inst.f
    if not is_degenerate(f):
        raise NotDegenerate(f"{f} is not degenerate")
    if not f.is_nonnegative():
        raise NegativeEntry("decomposition is defined for nonnegative signatures")
    return (f[0] + f[3]) ** len(inst.right_ids())   # u0^3 + u1^3 per equality vertex


def _neighbour_numbers(inst: TractableInstance):
    """(n, rows): n equality vertices, numbered by first appearance from
    n - 1 down, and for each f vertex in insertion order the numbers of
    its three neighbours, in one pass over the edges."""
    n = len(inst.right_ids())
    rows = {vid: [] for vid in inst.left_ids()}  # f vertex -> its neighbours' numbers
    number = {}                                  # equality vertex -> number, n - 1 first
    for (va, _), (vb, _) in inst.grid.edges:     # every edge joins an f and an equality vertex
        eq_v, f_v = (vb, va) if va in rows else (va, vb)
        rows[f_v].append(number.setdefault(eq_v, n - 1 - len(number)))
    return n, rows.values()


def solve_gen_equality(inst: TractableInstance) -> Fraction:
    """Union-find over the equality vertices, joined through each f
    vertex's neighbours; a component with n_c f vertices gives
    x0^n_c + x3^n_c. Every component holds an f vertex."""
    f = inst.f
    if not is_generalized_equality(f):
        raise WrongCase(f"{f} is not a generalized equality")
    n, rows = _neighbour_numbers(inst)
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]    # path halving
        return i

    for a, b, c in rows:
        r = root(a)
        parent[root(b)] = r
        parent[root(c)] = r
    total = Fraction(1)
    for n_c in Counter(root(a) for a, _, _ in rows).values():
        total *= f[0] ** n_c + f[3] ** n_c
    return total


def solve_affine(inst: TractableInstance) -> Fraction:
    """Parity signatures: x0 * [1,0,1,0] (even) or x1 * [0,1,0,1] (odd).

    One equation per f vertex over one variable per equality vertex: the
    sum of its neighbours (a double edge cancels) equals the parity. That
    gives scale^|L| * 2^(|R| - rank M). The system is never inconsistent:
    rows whose left sides sum to 0 have 3 variable occurrences each and
    every variable an even number of times, so they are even in number
    and their right sides sum to 0. Only the rank is needed, from one
    elimination with top-bit pivots.

    _neighbour_numbers lists each f vertex's three neighbours as bit
    positions, the equality vertices numbered by first appearance
    and the first seen on the top bit. Each row becomes an int just
    before it is reduced, so one unreduced row is alive at a time, and
    the rows are reduced last-first. Numbering and order change only the
    cost, never the rank: on two seeded 30k-edge random grids they cut
    the XORs by 16-22% and the traced peak from 20 to 9 MiB.
    """
    f = inst.f
    scale = affine_scale(f)
    if scale is None:
        raise WrongCase(f"{f} is not a parity signature")
    if not scale:
        return Fraction(0) if inst.grid.vertices else Fraction(1)

    n, rows = _neighbour_numbers(inst)           # neighbour numbers are bit positions
    pivots = [0] * (n + 1)                       # top bit -> row, 0 for none yet
    rank = 0
    for a, b, c in reversed(rows):               # f is ternary: three neighbours each
        row = 1 << a ^ 1 << b ^ 1 << c
        while row:
            top = row.bit_length()
            pivot = pivots[top]
            if not pivot:
                pivots[top] = row
                rank += 1
                break
            row ^= pivot
    return scale ** len(rows) * Fraction(2) ** (n - rank)


_SOLVERS = {1: solve_degenerate, 2: solve_gen_equality, 3: solve_affine}


def solve(inst: TractableInstance, allow_brute_force: bool = False):
    """Dispatch on the classification; raises HardnessRefusal on a
    #P-hard signature unless allow_brute_force opts into the exact
    evaluator, exponential in its elimination width and refused only
    past its live-state limit (TooManyLiveStates). Returns (value,
    classification)."""
    cls: TernaryClassification = classify_ternary(inst.f)
    if cls.verdict == FP:
        return _SOLVERS[cls.matched_case](inst), cls
    if allow_brute_force:
        return holant(inst.grid), cls
    raise HardnessRefusal(cls)
