"""Port-typed bipartite signature grids and their exact evaluator.

Vertices carry signatures; each port has a polarity (L or R) and every
edge must join an L port to an R port. Multigraphs and parallel edges
are first-class: a port is identified by (vertex, slot). Grids with a
nonempty ordered dangling list are gadgets; contraction sums out the
internal edges and leaves a tensor over the dangling ports.

The evaluator eliminates vertices one at a time in a greedy order
(most edges closed, then fewest opened), keeping a sparse table from
the values of the open edges and dangling ports to exact partial sums.
Its cost is exponential only in the width of that order (Markov & Shi,
SICOMP 2008): the table has at most 2^width entries, and the result is
exact, never rounded. It refuses grids above an edge cap, and tables
past MAX_LIVE_STATES entries. The independent checks against explicit
summation over every edge assignment live in the test suite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
            polarities = (polarity,) * arity
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
        """One pass over the edge and dangling ports; every port is then
        wired or dangling exactly when the ports used number all ports."""
        vertices, seen = self.vertices, set()

        def side(port, where):
            vid, slot = port
            v = vertices.get(vid)
            if v is None:
                raise GridStructureError(f"{where}: unknown vertex {vid!r}")
            if not 0 <= slot < len(v.polarities):
                raise GridStructureError(f"{where}: slot {slot} out of range for {vid!r}")
            if port in seen:
                raise GridStructureError(f"{where}: port {port} used twice")
            seen.add(port)
            return v.polarities[slot]

        for a, b in self.edges:
            pa, pb = side(a, "edge"), side(b, "edge")
            if (pa, pb) not in (("L", "R"), ("R", "L")):
                raise PolarityError(f"edge {a}-{b} joins {pa} to {pb}")
        for p in self.dangling:
            side(p, "dangling")
        if len(seen) == sum(len(v.polarities) for v in vertices.values()):
            return
        for vid, v in vertices.items():
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

# Table entries past which elimination refuses: about 170 MiB at the
# ~170 bytes an entry (old and new table together) measured on dense
# 90-102-edge grids; entries with longer values cost more.
MAX_LIVE_STATES = 1 << 20


def _eliminate(grid: SignatureGrid, max_edges: int) -> dict:
    """Absorb the vertices one at a time into a table {key: partial sum}.

    A key holds one bit per open variable: an edge with one end absorbed,
    or a dangling port, which holds bit i (dangling port i) from the
    start and never closes. A vertex extends each entry by its nonzero
    values that agree with the open bits, and the bits of the edges it
    closes leave the key, so entries with equal futures merge. Returns
    the final table {dangling pattern: exact value}.
    """
    if len(grid.edges) > max_edges:
        raise TooManyEdges(f"{len(grid.edges)} edges exceeds cap {max_edges}")
    grid.validate()
    for vid, v in grid.vertices.items():
        if not hasattr(v.sig, "value_at"):
            raise ArityMismatch(f"vertex {vid!r} carries a non-evaluable signature {v.sig!r}")
    m = len(grid.edges)
    var_of = {p: m + i for i, p in enumerate(grid.dangling)}   # port -> variable
    far = {}                                                   # port -> vertex across its edge
    for i, (a, b) in enumerate(grid.edges):
        var_of[a] = var_of[b] = i
        far[a], far[b] = b[0], a[0]
    bit_of = {m + i: i for i in range(len(grid.dangling))}    # variable -> key bit in use
    free: list = []
    # greedy order by heap key (-edges closed, edges opened, insertion index)
    vids = list(grid.vertices)
    rank = {vid: [0, sum(1 for s in range(grid.vertices[vid].arity)
                         if far.get((vid, s), vid) != vid), i] for i, vid in enumerate(vids)}
    heap = [tuple(r) for r in rank.values()]
    heapq.heapify(heap)
    table, den = {0: 1}, 1
    while heap and table:
        entry = heapq.heappop(heap)
        vid = vids[entry[2]]
        if vid not in rank or list(entry) != rank[vid]:
            continue                                           # absorbed, or a stale key
        del rank[vid]
        v = grid.vertices[vid]
        checked, opened, loops, mask = [], [], {}, 0
        for s in range(v.arity):
            var = var_of[(vid, s)]
            if var >= m:
                opened.append((s, bit_of[var]))
            elif var in bit_of:                                # its other end is absorbed: close it
                b = bit_of.pop(var)
                checked.append((s, b))
                mask |= 1 << b
                heapq.heappush(free, b)
            elif far[(vid, s)] == vid:
                loops.setdefault(var, []).append(s)
            else:
                r = rank[far[(vid, s)]]
                r[0] -= 1
                r[1] -= 1
                heapq.heappush(heap, tuple(r))
                # the bits in use and the free ones are 0..k-1, so with none free k = len(bit_of)
                bit_of[var] = heapq.heappop(free) if free else len(bit_of)
                opened.append((s, bit_of[var]))
        vals = [v.sig.value_at(p) for p in range(1 << v.arity)]
        if all(isinstance(x, Fraction) for x in vals):        # integer arithmetic inside
            scale = lcm(*(x.denominator for x in vals))
            vals = [x.numerator * (scale // x.denominator) for x in vals]
            den *= scale
        groups: dict = {}                  # bits needed on the open variables -> extensions
        for p, val in enumerate(vals):
            if scalar_is_zero(val) or any((p >> s ^ p >> t) & 1 for s, t in loops.values()):
                continue
            need = sum(1 << b for s, b in checked if p >> s & 1)
            add = sum(1 << b for s, b in opened if p >> s & 1)
            groups.setdefault(need, []).append((add, val))
        keep = ~mask
        new: dict = {}
        for key, acc in table.items():
            for add, val in groups.get(key & mask, ()):
                k = key & keep | add
                new[k] = new.get(k, 0) + acc * val
            if len(new) > MAX_LIVE_STATES:
                raise TooManyEdges(f"elimination table reached {len(new)} live states at "
                                   f"vertex {vid!r}, over the limit {MAX_LIVE_STATES}")
        table = new
    unit = Fraction(1, den)
    return {key: demote(unit * acc) for key, acc in table.items()}


def holant(grid: SignatureGrid, max_edges: int = DEFAULT_EDGE_CAP) -> Scalar:
    """Exact partition function of a closed grid by vertex elimination;
    refuses grids above max_edges edges or whose table outgrows
    MAX_LIVE_STATES (TooManyEdges)."""
    if grid.dangling:
        raise DanglingPorts(f"{len(grid.dangling)} dangling ports; contract() instead")
    return _eliminate(grid, max_edges).get(0, Fraction(0))


def contract(gadget: SignatureGrid, max_edges: int = DEFAULT_EDGE_CAP):
    """Sum out the internal edges of a gadget in one elimination pass.

    Returns (tensor, polarities): the tensor is indexed by the dangling
    pattern (bit i = value on dangling port i, following the gadget's
    dangling order) and polarities lists each dangling port's side.
    """
    table = _eliminate(gadget, max_edges)
    d = len(gadget.dangling)
    pols = tuple(gadget.polarity_of(p) for p in gadget.dangling)
    return Tensor(d, [table.get(p, 0) for p in range(1 << d)]), pols


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
