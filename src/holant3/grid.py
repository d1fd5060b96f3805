"""Port-typed bipartite signature grids and their exact evaluator.

Vertices carry signatures; each port has a polarity (L or R) and every
edge must join an L port to an R port. Multigraphs and parallel edges
are first-class: a port is identified by (vertex, slot). Grids with a
nonempty ordered dangling list are gadgets; contraction sums out the
internal edges and leaves a tensor over the dangling ports.

The evaluator folds, then sweeps the factor graph the fold returns.
_fold reads the wiring that SignatureGrid.validate returns and joins the
wires (edges and dangling ports) that equality-type vertices ([a,0,...,0,b],
EQ3 among them) force equal into variables, weighted by those a and b; the
other vertices become the factors of a FactorGraph, a value that holds each
factor's signature, variables and slot shape, each variable's factors and
weight, and the dangling-port masks. _sweep orders the factors by
_greedy_order (most variables closed, then fewest opened) and absorbs them
in that order into a sparse table from the values of the open variables to
exact partial sums; it returns the table by dangling pattern and a unit
that multiplies it, and _eliminate turns the two into Fractions. The
gadget search builds its candidates' graphs without a grid and sweeps them
directly. The sweep's cost is exponential only in the width of the order
(Markov & Shi, SICOMP 2008), counted in open equality classes, not edges:
the table has at most 2^width entries, and the result is exact, never
rounded. Its one refusal is a table past MAX_LIVE_STATES entries (not a
count of edges). The independent checks against explicit summation over
every edge assignment live in the test suite. Builders and parse_grid leave
the wiring unchecked: validate runs once per grid, in its consumer (_fold,
TractableInstance or holographic_reduce).
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
    TooManyLiveStates,
)
from .exact import Scalar
from .signatures import EQ3, SymSig, Tensor, is_generalized_equality

Port = tuple  # (vertex id, slot index)

# the two polarity pairs an edge may join
_CROSSING = (("L", "R"), ("R", "L"))


@dataclass(slots=True)
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
        v = self.vertices.get(vid)
        if v is None:
            raise GridStructureError(f"port {port}: unknown vertex {vid!r}")
        if not 0 <= slot < len(v.polarities):
            raise GridStructureError(f"port {port}: slot {slot} out of range for {vid!r}")
        return v.polarities[slot]

    def validate(self) -> dict:
        """One pass over the edge and dangling ports; every port is then wired
        or dangling exactly when the ports used number all ports. The per-port
        checks are written out inline: no call per port. Run once per grid by
        its consumer: _fold (holant and contract), TractableInstance and
        holographic_reduce. Returns the wiring it builds, port -> wire:
        the port's edge index, or m + i for dangling port i (m edges)."""
        vertices, wire = self.vertices, {}
        for i, (a, b) in enumerate(self.edges):
            vid, slot = a
            v = vertices.get(vid)
            if v is None:
                raise GridStructureError(f"edge: unknown vertex {vid!r}")
            pols = v.polarities
            if not 0 <= slot < len(pols):
                raise GridStructureError(f"edge: slot {slot} out of range for {vid!r}")
            if a in wire:
                raise GridStructureError(f"edge: port {a} used twice")
            wire[a] = i
            pa = pols[slot]
            vid, slot = b
            v = vertices.get(vid)
            if v is None:
                raise GridStructureError(f"edge: unknown vertex {vid!r}")
            pols = v.polarities
            if not 0 <= slot < len(pols):
                raise GridStructureError(f"edge: slot {slot} out of range for {vid!r}")
            if b in wire:
                raise GridStructureError(f"edge: port {b} used twice")
            wire[b] = i
            pb = pols[slot]
            if (pa, pb) not in _CROSSING:
                raise PolarityError(f"edge {a}-{b} joins {pa} to {pb}")
        for i, p in enumerate(self.dangling, len(self.edges)):
            vid, slot = p
            v = vertices.get(vid)
            if v is None:
                raise GridStructureError(f"dangling: unknown vertex {vid!r}")
            if not 0 <= slot < len(v.polarities):
                raise GridStructureError(f"dangling: slot {slot} out of range for {vid!r}")
            if p in wire:
                raise GridStructureError(f"dangling: port {p} used twice")
            wire[p] = i
        if len(wire) == sum(len(v.polarities) for v in vertices.values()):
            return wire
        for vid, v in vertices.items():
            for slot in range(v.arity):
                if (vid, slot) not in wire:
                    raise GridStructureError(f"port ({vid!r},{slot}) neither wired nor dangling")


# -- evaluation -------------------------------------------------------------

# Table entries past which elimination refuses. It bounds memory, not
# time, and the memory depends on the values (peak RSS per process,
# 2-core Xeon VM, Python 3.11): refused holant runs on the seed-1
# tractable_scale grids of 3000-9000 edges peak at 202-303 MiB (the
# degenerate grids, whose values are longer, at the top) after
# 1.4-2.3 s, and a 240-edge strip whose table holds 2^20 entries for 43
# vertices finishes in 54 s at 362 MiB.
MAX_LIVE_STATES = 1 << 20


def _is_equality(sig) -> bool:
    return isinstance(sig, SymSig) and is_generalized_equality(sig)


def _scaled(values: list):
    """values over their least common denominator, and that denominator;
    values unchanged, over 1, unless every one is a Fraction."""
    if not all(isinstance(v, Fraction) for v in values):
        return values, 1
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _patterns(sig, shape: tuple, k: int):
    """Nonzero values of sig with slot s on variable shape[s]: a list
    [(q, value)] over the k variables (bit j = variable j) and a scale;
    when every value is rational they are integers, scaled by it."""
    qs, vals = [], []
    for q in range(1 << k):
        val = sig.value_at(sum(1 << s for s, j in enumerate(shape) if q >> j & 1))
        if val:
            qs.append(q)
            vals.append(val)
    vals, scale = _scaled(vals)
    return list(zip(qs, vals)), scale


def _greedy_order(variables: list, touching: dict, left: dict) -> list:
    """Factor positions in absorption order: next the factor of least key
    (-variables it closes, variables it opens, position), off a heap that
    skips stale keys. variables[i] lists factor i's variables, touching[x]
    the factors on x, and left[x] counts them (+1 if x dangles)."""
    left, seen, done = dict(left), set(), {}   # done: absorbed, in order; seen: their variables
    rank = [[0, sum(1 for x in xs if left[x] > 1), i] for i, xs in enumerate(variables)]
    heap = [tuple(r) for r in rank]
    heapq.heapify(heap)
    while heap:
        entry = heapq.heappop(heap)
        i = entry[2]
        if i in done or list(entry) != rank[i]:
            continue                                           # absorbed, or a stale key
        done[i] = None
        for x in variables[i]:
            left[x] -= 1
            opens, closes = x not in seen and left[x] > 0, left[x] == 1
            seen.add(x)
            if opens or closes:                                # x's factors' keys change
                for u in touching[x]:
                    if u not in done:
                        r = rank[u]
                        r[0] -= closes                         # a bool counts 0 or 1
                        r[1] -= opens
                        heapq.heappush(heap, tuple(r))
    return list(done)


@dataclass(slots=True)
class FactorGraph:
    """The fold's result and the sweep's input. Factor i is the vertex
    names[i] with signature sigs[i]; variables[i] lists its variables in
    order of first slot, and slot s of it reads variables[i][shapes[i][s]].
    touching[x] lists the factors on variable x in factor order, and left[x]
    counts them, +1 if x dangles; ports[x] is the mask of x's dangling
    ports. weight[x] = [w0, w1] weighs x where it is not [1, 1]; const is
    the product of w0 + w1 over the variables in neither left nor ports, and
    den divides every value (the weights are scaled to integers by it)."""
    names: list
    sigs: list
    variables: list
    shapes: list
    touching: dict
    left: dict
    weight: dict
    ports: dict
    const: Scalar
    den: int


def _fold(grid: SignatureGrid) -> FactorGraph:
    """The grid's factor graph, over the wiring that grid.validate returns.

    A variable is a class of edges and dangling ports joined through
    equality-type vertices (any [a,0,...,0,b] of arity >= 1), so all its
    ports carry one value, and it weighs the product of its vertices' a
    at 0 and b at 1. Every other vertex is a factor."""
    wire = grid.validate()
    vertices = grid.vertices
    m, d = len(grid.edges), len(grid.dangling)
    parent = list(range(m + d))                                # union-find over the wires

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    names, equalities = [], []
    for vid, v in vertices.items():
        if not _is_equality(v.sig):
            if not hasattr(v.sig, "value_at"):
                raise ArityMismatch(f"vertex {vid!r} carries a non-evaluable signature {v.sig!r}")
            names.append(vid)
            continue
        equalities.append(vid)
        r = find(wire[vid, 0])
        for s in range(1, v.arity):
            x = find(wire[vid, s])
            if x != r:
                parent[x] = r
    weight = {}
    for vid in equalities:
        a, b = vertices[vid].sig.values[0], vertices[vid].sig.values[-1]
        if a != 1 or b != 1:
            w = weight.setdefault(find(wire[vid, 0]), [1, 1])
            w[0] *= a
            w[1] *= b
    den = 1
    for w in weight.values():
        w[:], scale = _scaled(w)                               # integer weights inside
        den *= scale
    variables, shapes, touching, left = [], [], {}, {}
    for i, vid in enumerate(names):
        order: dict = {}
        shapes.append(tuple(order.setdefault(find(wire[vid, s]), len(order))
                            for s in range(vertices[vid].arity)))
        variables.append(list(order))
        for x in order:
            touching.setdefault(x, []).append(i)
            left[x] = left.get(x, 0) + 1
    ports: dict = {}
    for i in range(d):
        x = find(m + i)
        ports[x] = ports.get(x, 0) | 1 << i
    for x in ports:
        left[x] = left.get(x, 0) + 1
    const = 1                                                  # variables that nothing touches
    for x in {find(i) for i in range(m + d)} - left.keys():
        w = weight.get(x, (1, 1))
        const *= w[0] + w[1]
    return FactorGraph(names, [vertices[vid].sig for vid in names], variables, shapes,
                       touching, left, weight, ports, const, den)


def _sweep(graph: FactorGraph, cache: dict):
    """The graph's exact values by dangling pattern (bit i = dangling port
    i): a table {pattern: value}, zero where absent, and a unit that
    multiplies every entry. cache maps (id(sig), shape) to _patterns' result
    and may be shared by the sweeps of graphs whose signatures stay alive.

    The factors are absorbed in _greedy_order's order into a table {key:
    partial sum}; a key holds one bit per open variable, one that an
    absorbed factor touches and a factor still to absorb, or the output,
    touches too. A factor extends each entry by its nonzero values that
    agree with the open bits, and the bits of the variables it closes
    leave the key, so entries with equal futures merge. A variable's
    weight enters with its first factor; a dangling variable no factor
    touches enters at the output, with its weight.
    """
    weight, ports = graph.weight, graph.ports
    left = dict(graph.left)
    den = graph.den
    bit_of, free = {}, []                   # open variable -> key bit; free bits
    table = {0: 1}
    for i in _greedy_order(graph.variables, graph.touching, left):
        sig, order, shape = graph.sigs[i], graph.variables[i], graph.shapes[i]
        cached = cache.get((id(sig), shape))
        if cached is None:
            cached = cache[id(sig), shape] = _patterns(sig, shape, len(order))
        pats, scale = cached
        den *= scale
        roles, mask = [], 0                 # per variable: (bit needed, bit added, weight)
        for x in order:
            left[x] -= 1
            b = bit_of.get(x)
            if b is None and not left[x]:                      # only this factor touches it
                roles.append((0, 0, weight.get(x)))
                continue
            if b is None:                                      # open it
                # the bits in use and the free ones are 0..k-1, so with none free k = len(bit_of)
                b = bit_of[x] = heapq.heappop(free) if free else len(bit_of)
                roles.append((0, 1 << b, weight.get(x)))
                continue
            mask |= 1 << b
            if not left[x]:                                    # close it
                roles.append((1 << b, 0, None))
                del bit_of[x]
                heapq.heappush(free, b)
                continue
            roles.append((1 << b, 1 << b, None))               # check it, keep it open
        groups: dict = {}                   # bits needed on the open variables -> extensions
        weighted = any(w for _, _, w in roles)
        for q, val in pats:
            need = add = 0
            for j, (nb, ab, w) in enumerate(roles):
                bit = q >> j & 1
                if bit:
                    need |= nb
                    add |= ab
                if w:
                    val *= w[bit]
            if weighted and not val:
                continue
            groups.setdefault(need, []).append((add, val))
        keep = ~mask
        new: dict = {}
        for key, acc in table.items():
            for add, val in groups.get(key & mask, ()):
                k = key & keep | add
                new[k] = new.get(k, 0) + acc * val
            if len(new) > MAX_LIVE_STATES:
                raise TooManyLiveStates(f"elimination table reached {len(new)} live states "
                                        f"at vertex {graph.names[i]!r}, over the limit "
                                        f"{MAX_LIVE_STATES}")
        table = new
    spread = [(1 << bit_of[x], mask) for x, mask in ports.items() if x in bit_of]
    sums: dict = {}                         # dangling pattern -> value
    for key, acc in table.items():
        p = 0
        for kb, mask in spread:
            if key & kb:
                p |= mask
        sums[p] = acc
    for x in ports.keys() - bit_of.keys():  # dangling variables that no factor touches
        w = weight.get(x, (1, 1))
        sums = {p | m: acc * w[bit] for p, acc in sums.items() for bit, m in ((0, 0), (1, ports[x]))}
    return sums, Fraction(1, den) * graph.const


def _eliminate(grid: SignatureGrid) -> list:
    """Values of the grid at every dangling pattern (bit i = dangling
    port i): its factor graph, swept, then each entry times the unit.
    Ports of one variable that differ give 0."""
    sums, unit = _sweep(_fold(grid), {})
    values = [Fraction(0)] * (1 << len(grid.dangling))
    for p, acc in sums.items():
        values[p] = unit * acc
    return values


def holant(grid: SignatureGrid) -> Scalar:
    """Exact partition function of a closed grid by elimination over its
    equality classes; the cost is exponential in the number of classes
    open at once, not in the number of edges. Refuses only a table that
    outgrows MAX_LIVE_STATES (TooManyLiveStates)."""
    if grid.dangling:
        raise DanglingPorts(f"{len(grid.dangling)} dangling ports; contract() instead")
    return _eliminate(grid)[0]


def contract(gadget: SignatureGrid):
    """Sum out the internal edges of a gadget in one elimination pass
    over its equality classes, as holant does; the classes that hold a
    dangling port stay open to the end, and the one refusal is holant's.

    Returns (tensor, polarities): the tensor is indexed by the dangling
    pattern (bit i = value on dangling port i, following the gadget's
    dangling order) and polarities lists each dangling port's side.
    """
    values = _eliminate(gadget)     # validates the ports read below
    pols = tuple(gadget.polarity_of(p) for p in gadget.dangling)
    return Tensor(len(pols), values), pols


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
    return g
