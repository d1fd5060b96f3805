"""Interpolation and splitting machinery for straddled signatures.

Three executable reductions live here:

* degenerate_target / interpolate_holant_with_d: a grid may contain
  placeholder vertices standing for the rank-1 projector
  D = (1/(x+y)) [[y, xy], [1, x]] built from a transfer matrix's
  eigen-data. Replacing each placeholder with transfer chains of length
  s = 0..n gives Holant values that form a full-rank Vandermonde system
  in (lam^i mu^j)^s; solving it recovers the Holant of the original
  grid exactly, without ever instantiating D numerically.

* interpolate_unary: with a diagonalizable 2x2 straddled matrix M and a
  seed unary that is not a row eigenvector, the family seed . M^j spans
  enough directions to recover the Holant of a grid containing any
  target unary.

  Both interpolations share one strata solve, _recover: the values at
  s = 0..n give the strata over the nodes lam^k mu^(n-k), and the target
  weighs stratum k by r_lam^k r_mu^(n-k).

* split_reduction: a degenerate straddled binary is an outer product
  [1,y]^T [1,x]; replacing unary [1,x] occurrences by it and absorbing
  the freed [1,y] ends into fresh copies of g turns s disjoint copies
  of the instance into a single instance over {f, g} whose value is a
  known positive factor times the s-th power of the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    ArityMismatch,
    CountMismatch,
    DegenerateG,
    EigenvectorSeed,
    UnderdeterminedInterpolation,
)
from .exact import Scalar
from .gadgets import build_transfer_chain
from .grid import SignatureGrid, holant
from .linalg import vandermonde_solve
from .signatures import (
    JordanData,
    Mat2,
    SymSig,
    Tensor,
    eigenvalues,
    jordan,
    matrix_power,
    normalize,
    straddled_from_f,
    sym_to_tensor,
)


@dataclass(frozen=True)
class StraddledPlaceholder:
    """Marker signature for a 1L/1R straddled slot awaiting substitution.

    Port 0 is the L-side variable (matrix row), port 1 the R-side
    variable (matrix column).
    """

    label: str = "D"
    arity: int = 2


D_PLACEHOLDER = StraddledPlaceholder()


@dataclass(frozen=True)
class DegenerateTarget:
    """The projector D = (1/(x+y)) [[y, xy], [1, x]]: determinant 0,
    trace 1, image spanned by the mu-eigenvector."""

    matrix: Mat2
    jordan_data: JordanData


def degenerate_target(f: SymSig) -> DegenerateTarget:
    form, _, _ = normalize(f)
    jd = jordan(straddled_from_f(form))
    x, y = jd.x, jd.y
    s = x + y
    m = Mat2(((y / s, x * y / s), (1 / s, x / s)))
    return DegenerateTarget(m, jd)


def add_placeholder_on_edge(grid: SignatureGrid, edge_index: int) -> SignatureGrid:
    """Splice a straddled placeholder into an existing L-R edge."""
    g = grid.copy()
    a, b = g.edges.pop(edge_index)
    lport, rport = (a, b) if g.polarity_of(a) == "L" else (b, a)
    vid = ("D", len([v for v in g.vertices if isinstance(v, tuple) and v and v[0] == "D"]))
    g.add_vertex(vid, D_PLACEHOLDER, ("L", "R"))
    g.add_edge((vid, 0), rport)   # row variable meets the R port
    g.add_edge((vid, 1), lport)   # column variable meets the L port
    return g


def _placeholder_ids(grid: SignatureGrid) -> list:
    return [vid for vid, v in grid.vertices.items() if isinstance(v.sig, StraddledPlaceholder)]


def _neighbors_of_placeholder(grid: SignatureGrid, vid):
    """The ports wired to the placeholder's row (0) and column (1) slots."""
    partner = {p[1]: q for a, b in grid.edges for p, q in ((a, b), (b, a)) if p[0] == vid}
    if 0 not in partner or 1 not in partner:
        raise ArityMismatch(f"placeholder {vid!r} is not fully wired")
    return partner[0], partner[1]


def substitute_placeholder_matrix(grid: SignatureGrid, vid, m: Mat2) -> SignatureGrid:
    """Replace a placeholder with an explicit 2x2 tensor vertex."""
    g = grid.copy()
    v = g.vertices[vid]
    # pattern bit0 = row variable, bit1 = column variable
    tensor = Tensor(2, (m[0][0], m[1][0], m[0][1], m[1][1]))
    g.vertices[vid] = type(v)(tensor, v.polarities)
    return g


def substitute_placeholder_chain(grid: SignatureGrid, vid, chain) -> SignatureGrid:
    """Replace a placeholder with a copy of a transfer chain from
    build_transfer_chain, its dangling L and R ports taking the
    placeholder's slots 0 and 1; chain None (length 0) wires the two
    neighbors together directly. Chain vertex cid becomes (vid, *cid)."""
    g = grid.copy()
    row_partner, col_partner = _neighbors_of_placeholder(g, vid)
    g.edges = [e for e in g.edges if e[0][0] != vid and e[1][0] != vid]
    del g.vertices[vid]
    if chain is None:
        g.add_edge(col_partner, row_partner)
    else:
        for cid, v in chain.vertices.items():
            g.add_vertex((vid, *cid), v.sig, v.polarities)
        for (va, sa), (vb, sb) in chain.edges:
            g.add_edge(((vid, *va), sa), ((vid, *vb), sb))
        for (cid, slot), partner in zip(chain.dangling, (row_partner, col_partner)):
            g.add_edge(((vid, *cid), slot), partner)
    return g


def _recover(values, lam, mu, n: int, r_lam, r_mu):
    """The one strata solve: (nodes, strata, value) with
    values[s] == sum_k strata[k] * nodes[k]^s, nodes[k] = lam^k mu^(n-k),
    and value = sum_k r_lam^k r_mu^(n-k) strata[k].

    A zero lam kills every stratum but the all-mu one for s >= 1: strata
    is None and only strata[0] = values[1] / mu^n is known. That is the
    value when r_lam == 0; for n == 1, values[0] gives the other stratum.
    Otherwise raises UnderdeterminedInterpolation, as it does for
    lam == -mu and n >= 2, where the nodes take only the two values
    +-mu^n and only the even and odd strata sums are known.
    """
    nodes = tuple(lam**k * mu ** (n - k) for k in range(n + 1))
    if lam:
        if n >= 2 and lam == -mu:
            raise UnderdeterminedInterpolation("lam = -mu: only the even and odd strata sums "
                                               "are recoverable")
        strata = tuple(vandermonde_solve(list(nodes), values[:n + 1]))
        value = sum((r_lam**k * r_mu ** (n - k) * c for k, c in enumerate(strata)), Fraction(0))
        return nodes, strata, value
    all_mu = values[1] / mu**n
    if not r_lam:
        return nodes, None, r_mu**n * all_mu
    if n == 1:
        return nodes, None, r_mu * all_mu + r_lam * (values[0] - all_mu)
    raise UnderdeterminedInterpolation("zero eigenvalue: only the all-mu stratum is recoverable")


@dataclass(frozen=True)
class StratifiedSystem:
    """The interpolation system: chain-substituted Holant values index
    the strata by how many placeholder slots take the small eigenvalue.

    holant_at_length(s) == sum_i coefficients[i] * nodes[i]^s for every
    chain length s, and the all-mu coefficient (index 0) is the Holant
    of the original grid with the projector in place.
    """

    occurrences: int
    lam: Scalar
    mu: Scalar
    nodes: tuple        # lam^i * mu^(n-i), i = number of lam-strata
    values: tuple       # Holant with chains of length s = 0..n
    coefficients: tuple | None   # solved strata; None when lam == 0
    projector_value: Scalar      # the all-mu stratum


def stratify_holant_with_d(grid: SignatureGrid, f: SymSig) -> StratifiedSystem:
    """Evaluate the grid with every placeholder replaced by transfer
    chains of length s = 0..n and solve the Vandermonde system over the
    strata."""
    d_ids = _placeholder_ids(grid)
    n = len(d_ids)
    if n == 0:
        raise ArityMismatch("grid has no placeholder slots to stratify")
    jd = degenerate_target(f).jordan_data
    form, _, _ = normalize(f)

    values = []
    for s in range(n + 1):
        chain = build_transfer_chain(form, s) if s else None
        g_s = grid
        for vid in d_ids:
            g_s = substitute_placeholder_chain(g_s, vid, chain)
        values.append(holant(g_s))

    # D keeps the mu-eigenvector: only the all-mu stratum survives
    nodes, strata, value = _recover(values, jd.lam, jd.mu, n, 0, 1)
    return StratifiedSystem(n, jd.lam, jd.mu, nodes, tuple(values), strata, value)


def interpolate_holant_with_d(grid: SignatureGrid, f: SymSig) -> Scalar:
    """Holant of a grid whose placeholders stand for the projector D,
    recovered purely from placeholder-free evaluations."""
    if not _placeholder_ids(grid):
        return holant(grid)
    return stratify_holant_with_d(grid, f).projector_value


def _row_eigenvector(m: Mat2, eigenvalue) -> tuple:
    """A nonzero row vector v with v . m = eigenvalue * v. With distinct
    eigenvalues m is not scalar, so one of the two candidates is nonzero."""
    (m00, m01), (m10, m11) = m.rows
    v = (m10, eigenvalue - m00)
    if not v[0] and not v[1]:
        return (eigenvalue - m11, m01)
    return v


def interpolate_unary(grid: SignatureGrid, u_vertex_ids, m: Mat2, seed: SymSig) -> Scalar:
    """Holant of a grid containing a target unary on the R side at the
    listed vertices, recovered from evaluations with seed . M^j there.

    The target unary is read off the grid itself; every listed vertex
    must carry the same unary signature. Raises ZeroDelta unless m has
    two distinct real eigenvalues, EigenvectorSeed when the seed is
    proportional to a row eigenvector of m, and
    UnderdeterminedInterpolation when a zero eigenvalue erases the
    strata the target needs, or when m has trace zero and there are two
    or more target vertices.
    """
    if seed.arity != 1:
        raise ArityMismatch("seed must be unary")
    u_vertex_ids = list(u_vertex_ids)
    n = len(u_vertex_ids)
    sigs = {grid.vertices[vid].sig for vid in u_vertex_ids}
    if len(sigs) != 1:
        raise ArityMismatch("all target vertices must carry the same unary")
    target = sigs.pop()
    if target.arity != 1:
        raise ArityMismatch("target vertices must be unary")
    if n == 0:
        return holant(grid)

    _, lam, mu = eigenvalues(m)
    if not mu:  # _recover takes a zero eigenvalue as lam
        lam, mu = mu, lam
    # coordinates over the row eigenvectors: seed = alpha e_lam + beta e_mu, target likewise
    eigenbasis = Mat2((_row_eigenvector(m, lam), _row_eigenvector(m, mu)))
    (alpha, beta), (gamma, delta_c) = (Mat2((seed.values, target.values))
                                       * eigenbasis.inverse()).rows
    if not alpha or not beta:
        raise EigenvectorSeed("seed is proportional to a row eigenvector")

    def with_unary(vec) -> SignatureGrid:
        g = grid.copy()
        for vid in u_vertex_ids:
            v = g.vertices[vid]
            g.vertices[vid] = type(v)(SymSig(vec), v.polarities)
        return g

    seed_row = Mat2((seed.values, (0, 0)))   # seed . M^j is row 0 of this times M^j
    values = [holant(with_unary((seed_row * matrix_power(m, j))[0])) for j in range(n + 1)]
    # stratum k holds alpha^k beta^(n-k) h_k; the target weighs h_k by gamma^k delta_c^(n-k)
    return _recover(values, lam, mu, n, gamma / alpha, delta_c / beta)[2]


# -- split reduction ---------------------------------------------------------

def _entries(g_sig) -> tuple:
    """g's values over bit patterns, for a SymSig or a Tensor alike."""
    return (sym_to_tensor(g_sig) if isinstance(g_sig, SymSig) else g_sig).entries


def _is_point_mass_on_ones(g_sig) -> bool:
    """Is g a multiple of [0,1]^(x)n, i.e. supported on the all-ones input?"""
    return not any(_entries(g_sig)[:-1])


def unary_closure_value(g_sig, y) -> Scalar:
    """Value of g with every port closed by [1, y]."""
    return sum((v * y ** p.bit_count() for p, v in enumerate(_entries(g_sig))), Fraction(0))


@dataclass(frozen=True)
class SplitReduction:
    grid: SignatureGrid     # single grid over {f, g} plus straddled tensors
    factor: Scalar          # positive closed-form factor
    power: int              # s: holant(grid) == factor * holant(original)^s
    plan: tuple             # (m, n, k, s, N_f, N_g, N_u, t)


def split_reduction(grid: SignatureGrid, f: SymSig, g_sig, x, y) -> SplitReduction:
    """Transform an instance over {f | g, [1,x]} into one over {f | g}
    with the unary occurrences replaced by the degenerate straddled
    tensor [[1,x],[y,xy]] and the freed [1,y] ends absorbed by fresh
    copies of g.

    Contract: holant(result.grid) == result.factor *
    holant(original)^result.power, exactly.
    """
    if _is_point_mass_on_ones(g_sig):
        raise DegenerateG("g is a multiple of the all-ones point mass")
    m_arity = f.arity
    n_arity = g_sig.arity
    unary_x = SymSig([1, x])

    f_ids, g_ids, u_ids = [], [], []
    for vid, v in grid.vertices.items():
        if v.sig == f and all(p == "L" for p in v.polarities):
            f_ids.append(vid)
        elif v.sig == g_sig:
            g_ids.append(vid)
        elif v.sig == unary_x:
            u_ids.append(vid)
        else:
            raise ArityMismatch(f"vertex {vid!r} carries an unexpected signature")
    n_f, n_g, n_u = len(f_ids), len(g_ids), len(u_ids)
    if m_arity * n_f != n_arity * n_g + n_u:
        raise CountMismatch(f"{m_arity}*{n_f} != {n_arity}*{n_g} + {n_u}")
    k = gcd(m_arity, n_arity)
    s = n_arity // k
    if n_u % k != 0:
        raise CountMismatch(f"unary count {n_u} not divisible by gcd {k}")
    t = (n_u // k)
    plan = (m_arity, n_arity, k, s, n_f, n_g, n_u, t)

    if n_u == 0:
        return SplitReduction(grid.copy(), Fraction(1), 1, plan)

    out = SignatureGrid()
    free_ends = []
    # straddled tensor: bit0 = R-side port playing [1,x], bit1 = L-side [1,y] end
    b_tensor = Tensor(2, (1, x, y, x * y))
    for copy_idx in range(s):
        for vid, v in grid.vertices.items():
            if vid in u_ids:
                out.add_vertex((copy_idx, vid), b_tensor, ("R", "L"))
                free_ends.append(((copy_idx, vid), 1))
            else:
                out.add_vertex((copy_idx, vid), v.sig, v.polarities)
        for (va, sa), (vb, sb) in grid.edges:
            out.add_edge(((copy_idx, va), sa), ((copy_idx, vb), sb))
    for block in range(t):
        out.add_vertex(("gblock", block), g_sig, "R")
    for i, end in enumerate(free_ends):
        out.add_edge(end, (("gblock", i // n_arity), i % n_arity))

    factor = unary_closure_value(g_sig, y) ** t
    return SplitReduction(out, factor, s, plan)
