"""Port-typed bipartite signature grids and the brute-force evaluator.

Vertices carry signatures; each port has a polarity (L or R) and every
edge must join an L port to an R port. Multigraphs and parallel edges
are first-class: a port is identified by (vertex, slot). Grids with a
nonempty ordered dangling list are gadgets; contraction sums out the
internal edges and leaves a tensor over the dangling ports.

The evaluator enumerates edge assignments depth-first with exact
arithmetic, pruning any branch where some vertex can no longer reach a
nonzero value. It is intentionally exponential (the project's oracle)
and refuses grids above an edge cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ArityMismatch,
    DanglingPorts,
    GridStructureError,
    NonTernaryVertex,
    PolarityError,
    TooManyEdges,
)
from .exact import Scalar, demote, scalar_is_zero
from .signatures import EQ3, SymSig, Tensor

Port = tuple  # (vertex id, slot index)

DEFAULT_EDGE_CAP = 24


@dataclass
class GridVertex:
    sig: object                 # SymSig, Tensor, or a placeholder marker
    polarities: tuple           # 'L'/'R' per slot

    @property
    def arity(self) -> int:
        return len(self.polarities)


class SignatureGrid:
    """Bipartite port-typed multigraph with signature-labeled vertices."""

    def __init__(self):
        self.vertices: dict = {}
        self.edges: list = []      # ((vid, slot), (vid, slot))
        self.dangling: list = []   # ordered ports

    # -- construction --

    def add_vertex(self, vid, sig, polarity) -> None:
        if vid in self.vertices:
            raise GridStructureError(f"duplicate vertex id {vid!r}")
        arity = getattr(sig, "arity", None)
        if isinstance(polarity, str):
            if arity is None:
                raise GridStructureError("polarity string form needs a signature with arity")
            polarities = tuple(polarity for _ in range(arity))
        else:
            polarities = tuple(polarity)
        if arity is not None and len(polarities) != arity:
            raise ArityMismatch(f"vertex {vid!r}: {len(polarities)} ports for arity {arity}")
        if any(p not in ("L", "R") for p in polarities):
            raise GridStructureError("polarities must be 'L' or 'R'")
        self.vertices[vid] = GridVertex(sig, polarities)

    def add_edge(self, a: Port, b: Port) -> None:
        self.edges.append((tuple(a), tuple(b)))

    def mark_dangling(self, port: Port) -> None:
        self.dangling.append(tuple(port))

    def copy(self) -> "SignatureGrid":
        g = SignatureGrid()
        g.vertices = {vid: GridVertex(v.sig, v.polarities) for vid, v in self.vertices.items()}
        g.edges = list(self.edges)
        g.dangling = list(self.dangling)
        return g

    # -- structure --

    def polarity_of(self, port: Port) -> str:
        vid, slot = port
        return self.vertices[vid].polarities[slot]

    def validate(self) -> None:
        seen = set()

        def use(port, where):
            vid, slot = port
            if vid not in self.vertices:
                raise GridStructureError(f"{where}: unknown vertex {vid!r}")
            if not 0 <= slot < self.vertices[vid].arity:
                raise GridStructureError(f"{where}: slot {slot} out of range for {vid!r}")
            if port in seen:
                raise GridStructureError(f"{where}: port {port} used twice")
            seen.add(port)

        for a, b in self.edges:
            use(a, "edge")
            use(b, "edge")
            pa, pb = self.polarity_of(a), self.polarity_of(b)
            if {pa, pb} != {"L", "R"}:
                raise PolarityError(f"edge {a}-{b} joins {pa} to {pb}")
        for p in self.dangling:
            use(p, "dangling")
        for vid, v in self.vertices.items():
            for slot in range(v.arity):
                if (vid, slot) not in seen:
                    raise GridStructureError(f"port ({vid!r},{slot}) neither wired nor dangling")

    def vertex_ids_by_side(self, side: str) -> list:
        return [vid for vid, v in self.vertices.items() if all(p == side for p in v.polarities)]


Gadget = SignatureGrid


def connected_components(vertices: Iterable, pairs: Iterable[tuple]) -> list[set]:
    """Vertex sets of the connected components of the graph whose edges
    join each (u, v) in pairs, in order of first vertex."""
    adj: dict = {v: set() for v in vertices}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    comps, seen = [], set()
    for v in adj:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for n in adj[stack.pop()]:
                if n not in comp:
                    comp.add(n)
                    stack.append(n)
        seen |= comp
        comps.append(comp)
    return comps


# -- evaluation -------------------------------------------------------------

def _edge_order(grid: SignatureGrid) -> list[int]:
    """Order edges so that sparse vertices complete early (better pruning)."""

    def density(sig) -> Fraction:
        try:
            vals = [sig.value_at(p) for p in range(1 << sig.arity)]
        except (AttributeError, TypeError):
            return Fraction(1)
        nz = sum(0 if scalar_is_zero(v) else 1 for v in vals)
        return Fraction(nz, len(vals))

    incident: dict = {vid: [] for vid in grid.vertices}
    for idx, (a, b) in enumerate(grid.edges):
        incident[a[0]].append(idx)
        incident[b[0]].append(idx)
    ranked = sorted(grid.vertices, key=lambda vid: (density(grid.vertices[vid].sig),
                                                    str(vid)))
    order: list[int] = []
    emitted = set()
    for vid in ranked:
        for idx in incident[vid]:
            if idx not in emitted:
                emitted.add(idx)
                order.append(idx)
    return order


class _EvalContext:
    def __init__(self, grid: SignatureGrid):
        grid.validate()
        self.grid = grid
        self.vids = list(grid.vertices)
        self.vindex = {vid: i for i, vid in enumerate(self.vids)}
        self.sigs = [grid.vertices[vid].sig for vid in self.vids]
        self.arity = [grid.vertices[vid].arity for vid in self.vids]
        for vid, sig in zip(self.vids, self.sigs):
            if not hasattr(sig, "value_at"):
                raise ArityMismatch(f"vertex {vid!r} carries a non-evaluable signature {sig!r}")
        self.order = _edge_order(grid)
        # per ordered edge: (vertex index, slot) for both ends
        self.ends = []
        for idx in self.order:
            (va, sa), (vb, sb) = grid.edges[idx]
            self.ends.append((self.vindex[va], sa, self.vindex[vb], sb))
        self._viable_cache: dict = {}

    def viable(self, vi: int, mask: int, bits: int) -> bool:
        """Can the unassigned ports of vertex vi still reach a nonzero value?"""
        sig = self.sigs[vi]
        key = (id(sig), mask, bits)
        hit = self._viable_cache.get(key)
        if hit is not None:
            return hit
        full = (1 << self.arity[vi]) - 1
        free = full & ~mask
        ok = False
        sub = free
        while True:
            if not scalar_is_zero(sig.value_at(bits | sub)):
                ok = True
                break
            if sub == 0:
                break
            sub = (sub - 1) & free
        self._viable_cache[key] = ok
        return ok


def _dfs(ctx: _EvalContext, start: int, masks: list, bits: list, partial: Scalar) -> Scalar:
    if start == len(ctx.ends):
        return partial
    va, sa, vb, sb = ctx.ends[start]
    total = Fraction(0)
    for val in (0, 1):
        new_partial = partial
        ok = True
        touched = []
        for vi, slot in ((va, sa), (vb, sb)):
            masks[vi] |= 1 << slot
            if val:
                bits[vi] |= 1 << slot
            touched.append((vi, slot))
            full = (1 << ctx.arity[vi]) - 1
            if masks[vi] == full:
                value = ctx.sigs[vi].value_at(bits[vi])
                if scalar_is_zero(value):
                    ok = False
                    break
                new_partial = new_partial * value
            elif not ctx.viable(vi, masks[vi], bits[vi]):
                ok = False
                break
        if ok:
            total = total + _dfs(ctx, start + 1, masks, bits, new_partial)
        for vi, slot in touched:
            masks[vi] &= ~(1 << slot)
            bits[vi] &= ~(1 << slot)
    return total


def _eval_closed(grid: SignatureGrid, seeds=()) -> Scalar:
    """Sum over assignments; seeds pre-assign (vid, slot, value) triples
    (used for dangling patterns)."""
    ctx = _EvalContext(grid)
    masks = [0] * len(ctx.vids)
    bits = [0] * len(ctx.vids)
    partial: Scalar = Fraction(1)
    for vid, slot, val in seeds:
        vi = ctx.vindex[vid]
        masks[vi] |= 1 << slot
        if val:
            bits[vi] |= 1 << slot
    # seeded vertices may already be complete
    for vi in range(len(ctx.vids)):
        full = (1 << ctx.arity[vi]) - 1
        if masks[vi] == full and full:
            value = ctx.sigs[vi].value_at(bits[vi])
            if scalar_is_zero(value):
                return Fraction(0)
            partial = partial * value
        elif ctx.arity[vi] == 0:
            partial = partial * ctx.sigs[vi].value_at(0)
    return _dfs(ctx, 0, masks, bits, partial)


def holant(grid: SignatureGrid, max_edges: int = DEFAULT_EDGE_CAP) -> Scalar:
    """Exact partition function of a closed grid by brute-force
    enumeration of edge assignments."""
    if grid.dangling:
        raise DanglingPorts(f"{len(grid.dangling)} dangling ports; contract() instead")
    if len(grid.edges) > max_edges:
        raise TooManyEdges(f"{len(grid.edges)} edges exceeds cap {max_edges}")
    return demote(_eval_closed(grid))


def contract(gadget: SignatureGrid, max_edges: int = DEFAULT_EDGE_CAP):
    """Sum out internal edges of a gadget.

    Returns (tensor, polarities): the tensor is indexed by the dangling
    pattern (bit i = value on dangling port i, following the gadget's
    dangling order) and polarities lists each dangling port's side.
    """
    if len(gadget.edges) > max_edges:
        raise TooManyEdges(f"{len(gadget.edges)} edges exceeds cap {max_edges}")
    d = len(gadget.dangling)
    pols = tuple(gadget.polarity_of(p) for p in gadget.dangling)
    entries = []
    for pattern in range(1 << d):
        seeds = [(vid, slot, (pattern >> i) & 1)
                 for i, (vid, slot) in enumerate(gadget.dangling)]
        entries.append(_eval_closed(gadget, seeds=seeds))
    return Tensor(d, [demote(e) for e in entries]), pols


def check_arity_mod3(gadget: SignatureGrid):
    """Residues (n mod 3, m mod 3) of the L- and R-side dangling counts
    for a gadget built from ternary signatures only."""
    for vid, v in gadget.vertices.items():
        if v.arity != 3:
            raise NonTernaryVertex(f"vertex {vid!r} has arity {v.arity}")
    n = sum(1 for p in gadget.dangling if gadget.polarity_of(p) == "L")
    m = sum(1 for p in gadget.dangling if gadget.polarity_of(p) == "R")
    return n % 3, m % 3


# -- builders ---------------------------------------------------------------

def bipartite_grid(f: SymSig, pairings: Sequence[tuple], eq: SymSig = EQ3) -> SignatureGrid:
    """Closed grid with f on the left side and eq on the right.

    pairings is a multiset of (left index, right index) pairs, three per
    vertex on each side; slots are assigned in order of appearance.
    """
    g = SignatureGrid()
    left = sorted({i for i, _ in pairings})
    right = sorted({j for _, j in pairings})
    for i in left:
        g.add_vertex(("f", i), f, "L")
    for j in right:
        g.add_vertex(("eq", j), eq, "R")
    lslot = {i: 0 for i in left}
    rslot = {j: 0 for j in right}
    for i, j in pairings:
        g.add_edge((("f", i), lslot[i]), (("eq", j), rslot[j]))
        lslot[i] += 1
        rslot[j] += 1
    g.validate()
    return g


def disjoint_union(*grids: SignatureGrid) -> SignatureGrid:
    out = SignatureGrid()
    for gi, g in enumerate(grids):
        for vid, v in g.vertices.items():
            out.add_vertex((gi, vid), v.sig, v.polarities)
        for (va, sa), (vb, sb) in g.edges:
            out.add_edge(((gi, va), sa), ((gi, vb), sb))
        for vid, slot in g.dangling:
            out.mark_dangling(((gi, vid), slot))
    return out


def close_with_unaries(gadget: SignatureGrid, unaries: Iterable[SymSig]) -> SignatureGrid:
    """Attach a unary vertex of opposite polarity to each dangling port."""
    g = gadget.copy()
    unaries = list(unaries)
    if len(unaries) != len(g.dangling):
        raise ArityMismatch("one unary per dangling port required")
    for i, (port, u) in enumerate(zip(list(g.dangling), unaries)):
        side = "R" if g.polarity_of(port) == "L" else "L"
        vid = ("closure", i)
        g.add_vertex(vid, u, side)
        g.add_edge(port, (vid, 0))
    g.dangling = []
    g.validate()
    return g
