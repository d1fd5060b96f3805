"""Port-typed bipartite signature grids and their exact evaluator.

Vertices carry signatures; each port has a polarity (L or R) and every
edge must join an L port to an R port. Multigraphs and parallel edges
are first-class: a port is identified by (vertex, slot). Grids with a
nonempty ordered dangling list are gadgets; contraction sums out the
internal edges and leaves a tensor over the dangling ports.

The evaluator folds, then sweeps the factor graph the fold returns. _fold
reads the wiring that SignatureGrid.validate returns and joins the wires
(edges and dangling ports) that equality-type vertices ([a,0,...,0,b], EQ3
among them) force equal into variables, numbered 0..n-1 and weighted by
those a and b; the other vertices become the factors of a FactorGraph, a
value that holds each factor's signature, variables and slot shape, and per
variable a list entry for its weight and its dangling-port mask. _sweep
derives from these each variable's factors and open count, orders the
factors by _greedy_order (most variables closed, then fewest opened) and
absorbs them in that order into a sparse table from the values of the open
variables to exact partial sums; it returns the table by dangling pattern
and a unit that multiplies it, and _eliminate turns the two into Fractions.
The gadget search builds its candidates' graphs without a grid and sweeps
them directly. The sweep's cost is exponential only in the width of the
order (Markov & Shi, SICOMP 2008), counted in open equality classes, not
edges: the table has at most 2^width entries, and the result is exact,
never rounded. It refuses a table past MAX_LIVE_STATES entries (not a count
of edges), and, before it is built, a dense list of 2^k patterns past that
bound (_pattern_count). The independent checks against explicit summation
over every edge assignment live in the test suite. Builders and parse_grid
leave the wiring unchecked: validate runs once per grid, in its consumer
(_fold, TractableInstance or holographic_reduce).
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


def _pattern_count(k: int, what: str) -> int:
    """2^k, the patterns of k binary values; refused (TooManyLiveStates)
    past MAX_LIVE_STATES, before a list of that many is built."""
    if 1 << k > MAX_LIVE_STATES:
        raise TooManyLiveStates(f"{what}: 2^{k} patterns, over the limit {MAX_LIVE_STATES}")
    return 1 << k


def _root(parent: list, x: int) -> int:
    """x's class in the union-find forest parent, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _scaled(values: list):
    """values over their least common denominator, and that denominator;
    values unchanged, over 1, unless every one is a Fraction."""
    if not all(isinstance(v, Fraction) for v in values):
        return values, 1
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _patterns(sig, shape: tuple, k: int, name):
    """Nonzero values of vertex name's sig with slot s on variable shape[s]:
    a list [(q, value)] over the k variables (bit j = variable j) and a
    scale; when every value is rational they are integers, scaled by it."""
    qs, vals = [], []
    for q in range(_pattern_count(k, f"vertex {name!r}")):
        val = sig.value_at(sum(1 << s for s, j in enumerate(shape) if q >> j & 1))
        if val:
            qs.append(q)
            vals.append(val)
    vals, scale = _scaled(vals)
    return list(zip(qs, vals)), scale


def _greedy_order(variables: list, touching: list, left: list) -> list:
    """Factor positions in absorption order: next the factor of least key
    (-variables it closes, variables it opens, position), off a heap that
    skips stale keys. variables[i] lists factor i's variables, numbered
    0..n-1, touching[x] the factors on x, and left[x] counts them (+1 if x
    dangles)."""
    left, seen, done = list(left), [False] * len(left), {}  # done: absorbed, in order
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
            opens, closes = not seen[x] and left[x] > 0, left[x] == 1
            seen[x] = True
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
    """The fold's result and the sweep's input, over variables numbered
    0..n-1 with n = len(ports). Factor i is the vertex names[i] with
    signature sigs[i]; variables[i] lists its variables in order of first
    slot, and slot s of it reads variables[i][shapes[i][s]]. ports[x] is the
    mask of x's dangling ports, 0 if none; weight[x] = [w0, w1] weighs x,
    None for [1, 1]. Every variable is read by a factor or holds a port;
    const is the product of w0 + w1 over the classes that are neither, and
    den divides every value (the weights are scaled to integers by it)."""
    names: list
    sigs: list
    variables: list
    shapes: list
    weight: list
    ports: list
    const: Scalar
    den: int


def _fold(grid: SignatureGrid) -> FactorGraph:
    """The grid's factor graph, over the wiring that grid.validate returns.

    A variable is a class of edges and dangling ports joined through
    equality-type vertices (any [a,0,...,0,b] of arity >= 1), so all its
    ports carry one value, and it weighs the product of its vertices' a
    at 0 and b at 1. Every other vertex is a factor. The classes get their
    numbers in order of first use, by the factors and then the ports."""
    wire = grid.validate()
    vertices = grid.vertices
    m, d = len(grid.edges), len(grid.dangling)
    parent = list(range(m + d))                                # union-find over the wires
    names, equalities = [], []
    for vid, v in vertices.items():
        if not (isinstance(v.sig, SymSig) and is_generalized_equality(v.sig)):
            if not hasattr(v.sig, "value_at"):
                raise ArityMismatch(f"vertex {vid!r} carries a non-evaluable signature {v.sig!r}")
            names.append(vid)
            continue
        equalities.append(vid)
        r = _root(parent, wire[vid, 0])
        for s in range(1, v.arity):
            x = _root(parent, wire[vid, s])
            if x != r:
                parent[x] = r
    weights = {}                                               # root -> [w0, w1]
    for vid in equalities:
        a, b = vertices[vid].sig.values[0], vertices[vid].sig.values[-1]
        if a != 1 or b != 1:
            w = weights.setdefault(_root(parent, wire[vid, 0]), [1, 1])
            w[0] *= a
            w[1] *= b
    den = 1
    for w in weights.values():
        w[:], scale = _scaled(w)                               # integer weights inside
        den *= scale
    number, variables, shapes = {}, [], []                     # number: root -> variable
    for vid in names:
        xs = [number.setdefault(_root(parent, wire[vid, s]), len(number))
              for s in range(vertices[vid].arity)]
        order: dict = {}                                       # variable -> its place in xs
        shapes.append(tuple(order.setdefault(x, len(order)) for x in xs))
        variables.append(list(order))
    dangling = [number.setdefault(_root(parent, m + i), len(number)) for i in range(d)]
    ports = [0] * len(number)
    for i, x in enumerate(dangling):
        ports[x] |= 1 << i
    const = 1                                                  # classes that nothing reads
    for r in {_root(parent, i) for i in range(m + d)} - number.keys():
        w = weights.get(r, (1, 1))
        const *= w[0] + w[1]
    return FactorGraph(names, [vertices[vid].sig for vid in names], variables, shapes,
                       [weights.get(r) for r in number], ports, const, den)


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
    touching = [[] for _ in ports]          # per variable: its factors, and their count
    left = [1 if p else 0 for p in ports]   # +1 for the output if it dangles
    for i, xs in enumerate(graph.variables):
        for x in xs:
            touching[x].append(i)
            left[x] += 1
    den = graph.den
    bit_of, free = {}, []                   # open variable -> key bit; free bits
    table = {0: 1}
    for i in _greedy_order(graph.variables, touching, left):
        sig, order, shape = graph.sigs[i], graph.variables[i], graph.shapes[i]
        cached = cache.get((id(sig), shape))
        if cached is None:
            cached = cache[id(sig), shape] = _patterns(sig, shape, len(order), graph.names[i])
        pats, scale = cached
        den *= scale
        roles, mask = [], 0                 # per variable: (bit needed, bit added, weight)
        for x in order:
            left[x] -= 1
            b = bit_of.get(x)
            if b is None and not left[x]:                      # only this factor touches it
                roles.append((0, 0, weight[x]))
                continue
            if b is None:                                      # open it
                # the bits in use and the free ones are 0..k-1, so with none free k = len(bit_of)
                b = bit_of[x] = heapq.heappop(free) if free else len(bit_of)
                roles.append((0, 1 << b, weight[x]))
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
    spread = [(1 << b, ports[x]) for x, b in bit_of.items()]   # only dangling ones stay open
    sums: dict = {}                         # dangling pattern -> value
    for key, acc in table.items():
        p = 0
        for kb, mask in spread:
            if key & kb:
                p |= mask
        sums[p] = acc
    for x, mask in enumerate(ports):        # dangling variables that no factor touches
        if mask and x not in bit_of:
            w = weight[x] or (1, 1)
            sums = {p | m: acc * w[bit] for p, acc in sums.items() for bit, m in ((0, 0), (1, mask))}
    return sums, Fraction(1, den) * graph.const


def _eliminate(grid: SignatureGrid) -> list:
    """Values of the grid at every dangling pattern (bit i = dangling
    port i): its factor graph, swept, then each entry times the unit.
    Ports of one variable that differ give 0. 2^d dangling patterns past
    MAX_LIVE_STATES are refused before the sweep."""
    graph = _fold(grid)
    values = [Fraction(0)] * _pattern_count(len(grid.dangling), "dangling ports")
    sums, unit = _sweep(graph, {})
    for p, acc in sums.items():
        values[p] = unit * acc
    return values


def holant(grid: SignatureGrid) -> Scalar:
    """Exact partition function of a closed grid by elimination over its
    equality classes; the cost is exponential in the number of classes
    open at once, not in the number of edges. Refuses only a table or a
    vertex's value patterns past MAX_LIVE_STATES (TooManyLiveStates)."""
    if grid.dangling:
        raise DanglingPorts(f"{len(grid.dangling)} dangling ports; contract() instead")
    return _eliminate(grid)[0]


def contract(gadget: SignatureGrid):
    """Sum out the internal edges of a gadget in one elimination pass
    over its equality classes, as holant does; the classes that hold a
    dangling port stay open to the end. It refuses what holant refuses,
    and 2^d dangling patterns past MAX_LIVE_STATES.

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
