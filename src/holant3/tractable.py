"""Polynomial-time solvers for every tractable case, plus a dispatcher.

Instances are closed grids with one ternary signature f on the whole
left side and ternary equality on the whole right side. Each solver is
closed-form or near-linear:

* degenerate f = u (x) u (x) u: every equality vertex absorbs three
  copies of u and contributes u0^3 + u1^3 = x0 + x3 independently.
* generalized equality [x0,0,0,x3]: all edges of a connected component
  are forced equal, giving x0^{n_c} + x3^{n_c} per component.
* affine [x0,0,x0,0] / [0,x1,0,x1]: a GF(2) system over edge variables
  (two equalities per equality vertex, one parity per f vertex) counted
  by rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import HardnessRefusal, NotDegenerate, WrongCase
from .exact import scalar_is_zero
from .dichotomy import FP, TernaryClassification, classify_ternary
from .grid import SignatureGrid, connected_components, holant
from .signatures import EQ3, SymSig, decompose_degenerate, is_degenerate


@dataclass(frozen=True)
class TractableInstance:
    grid: SignatureGrid
    f: SymSig

    def __post_init__(self):
        self.grid.validate()
        for vid, v in self.grid.vertices.items():
            if all(p == "L" for p in v.polarities):
                if v.sig != self.f:
                    raise WrongCase(f"left vertex {vid!r} does not carry f")
            elif all(p == "R" for p in v.polarities):
                if v.sig != EQ3:
                    raise WrongCase(f"right vertex {vid!r} does not carry ternary equality")
            else:
                raise WrongCase(f"vertex {vid!r} mixes polarities")
        if self.grid.dangling:
            raise WrongCase("instance grids must be closed")

    def left_ids(self):
        return self.grid.vertex_ids_by_side("L")

    def right_ids(self):
        return self.grid.vertex_ids_by_side("R")


def solve_degenerate(inst: TractableInstance) -> Fraction:
    if not is_degenerate(inst.f):
        raise NotDegenerate(f"{inst.f} is not degenerate")
    u = decompose_degenerate(inst.f)
    per_vertex = u.equality_closure()          # x0 + x3
    return per_vertex ** len(inst.right_ids())


def solve_gen_equality(inst: TractableInstance) -> Fraction:
    f = inst.f
    if not (scalar_is_zero(f[1]) and scalar_is_zero(f[2])):
        raise WrongCase(f"{f} is not a generalized equality")
    total = Fraction(1)
    left = set(inst.left_ids())
    pairs = ((a[0], b[0]) for a, b in inst.grid.edges)
    for comp in connected_components(inst.grid.vertices, pairs):
        n_c = len(comp & left)
        total *= f[0] ** n_c + f[3] ** n_c
    return total


def _xor_rank(rows) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            hb = cur.bit_length()
            b = basis.get(hb)
            if b is None:
                basis[hb] = cur
                break
            cur ^= b
    return len(basis)


def _gf2_rank_and_consistency(rows: list[int], aug_bit: int):
    """Rank of the homogeneous part and solvability of the augmented
    int-bitset system (augmentation flag in aug_bit)."""
    rank_aug = _xor_rank(rows)
    rank_hom = _xor_rank(r & ~aug_bit for r in rows)
    return rank_hom, rank_aug == rank_hom


def solve_affine(inst: TractableInstance) -> Fraction:
    """Parity signatures: x0 * [1,0,1,0] (even) or x1 * [0,1,0,1] (odd)."""
    f = inst.f
    even_form = scalar_is_zero(f[1]) and scalar_is_zero(f[3]) and f[0] == f[2]
    odd_form = scalar_is_zero(f[0]) and scalar_is_zero(f[2]) and f[1] == f[3]
    if not (even_form or odd_form):
        raise WrongCase(f"{f} is not a parity signature")
    scale = f[0] if even_form else f[1]
    if scalar_is_zero(scale):
        return Fraction(0) if inst.grid.vertices else Fraction(1)
    parity = 0 if even_form else 1

    n_edges = len(inst.grid.edges)
    aug_bit = 1 << n_edges
    incident: dict = {vid: [] for vid in inst.grid.vertices}
    for idx, ((va, _), (vb, _)) in enumerate(inst.grid.edges):
        incident[va].append(idx)
        incident[vb].append(idx)

    rows = []
    for vid in inst.right_ids():
        e = incident[vid]
        rows.append((1 << e[0]) | (1 << e[1]))
        rows.append((1 << e[1]) | (1 << e[2]))
    for vid in inst.left_ids():
        row = 0
        for idx in incident[vid]:
            row ^= 1 << idx
        if parity:
            row |= aug_bit
        rows.append(row)

    rank, consistent = _gf2_rank_and_consistency(rows, aug_bit)
    if not consistent:
        return Fraction(0)
    return scale ** len(inst.left_ids()) * Fraction(2) ** (n_edges - rank)


_SOLVERS = {1: solve_degenerate, 2: solve_gen_equality, 3: solve_affine}


def solve(inst: TractableInstance, allow_brute_force: bool = False, max_edges: int = 24):
    """Dispatch on the classification; raises HardnessRefusal on a
    #P-hard signature unless allow_brute_force opts into the capped
    exact evaluator (exponential in its elimination width). Returns
    (value, classification)."""
    cls: TernaryClassification = classify_ternary(inst.f)
    if cls.verdict == FP:
        return _SOLVERS[cls.matched_case](inst), cls
    if allow_brute_force:
        return holant(inst.grid, max_edges=max_edges), cls
    raise HardnessRefusal(cls)
