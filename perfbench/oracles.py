"""Independent oracles for every operation the benchmark times.

None of this imports the package under test. The common view: in a
closed grid Holant(f | =3) each equality vertex forces its three edges
equal, so it is one 0/1 variable, and a left vertex contributes
f[number of its neighbours set to 1] (a neighbour joined by two edges
counts twice). Summing over the 2^(E/3) variable assignments gives the
partition function; the tractable classes collapse that sum to a GF(2)
rank, a union-find or a closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_table(values):
    """Scale rational values to integers: (ints, common denominator)."""
    den = lcm(*(Fraction(v).denominator for v in values))
    return [int(Fraction(v) * den) for v in values], den


def eqvar_holant(f_values, left_nbrs: list, n_vars: int) -> Fraction:
    """Sum over x in {0,1}^n_vars of prod_i f[sum of x over left_nbrs[i]]."""
    table, den = _integer_table(f_values)
    nbrs = [tuple(ns) for ns in left_nbrs]
    total = 0
    for x in range(1 << n_vars):
        prod = 1
        for a, b, c in nbrs:
            v = table[((x >> a) & 1) + ((x >> b) & 1) + ((x >> c) & 1)]
            if not v:
                prod = 0
                break
            prod *= v
        total += prod
    return Fraction(total, den ** len(nbrs))


def left_neighbours(pairs: list) -> list:
    """Per left vertex, the right indices of its three edges (repeats kept)."""
    out: dict = {}
    for i, j in pairs:
        out.setdefault(i, []).append(j)
    return [out[i] for i in sorted(out)]


def affine_holant(scale, parity: int, left_nbrs: list, n_vars: int) -> Fraction:
    """f = scale * [1,0,1,0] (parity 0) or scale * [0,1,0,1] (parity 1):
    the sum counts solutions of one GF(2) equation per left vertex.

    Bit 0 holds the right-hand side and variable j sits at bit j + 1, so
    with pivots on the top bit the system is inconsistent exactly when
    some row reduces to the lone bit 0."""
    basis: dict = {}
    for ns in left_nbrs:
        row = parity
        for j in ns:
            row ^= 2 << j
        while row > 1:
            top = row.bit_length()
            hit = basis.get(top)
            if hit is None:
                basis[top] = row
                break
            row ^= hit
        if row == 1:
            return Fraction(0)
    return Fraction(scale) ** len(left_nbrs) * Fraction(2) ** (n_vars - len(basis))


def component_sizes(left_nbrs: list, n_vars: int) -> list:
    """Left-vertex count of each connected component (union-find over
    the variables, joined through the left vertices)."""
    parent = list(range(n_vars))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b, c in left_nbrs:
        for y in (b, c):
            ra, ry = find(a), find(y)
            if ra != ry:
                parent[ra] = ry
    counts: dict = {}
    for ns in left_nbrs:
        r = find(ns[0])
        counts[r] = counts.get(r, 0) + 1
    return list(counts.values())


def gen_equality_holant(x0, x3, left_nbrs: list, n_vars: int) -> Fraction:
    """f = [x0,0,0,x3]: all variables a left vertex touches are equal, so
    each connected component c with n_c left vertices gives x0^n_c + x3^n_c."""
    x0, x3 = Fraction(x0), Fraction(x3)
    total = Fraction(1)
    for n_c in component_sizes(left_nbrs, n_vars):
        total *= x0 ** n_c + x3 ** n_c
    return total


def degenerate_holant(scale, u, n_vars: int) -> Fraction:
    """f = scale * u(x)u(x)u: every variable meets three copies of u."""
    a, b = Fraction(u[0]), Fraction(u[1])
    return (Fraction(scale) * (a ** 3 + b ** 3)) ** n_vars


# -- gadgets -------------------------------------------------------------------

def mat_mul(p, q):
    return [[p[r][0] * q[0][c] + p[r][1] * q[1][c] for c in range(2)] for r in range(2)]


def chain_tensor(f_values, s: int) -> list:
    """Transfer chain of length s: entry[a + 2c] = (M^s)[a][c] with
    M[a][c] = f[a + 2c] (a on the L dangling port, c on the R one)."""
    f = [Fraction(v) for v in f_values]
    m = [[f[0], f[2]], [f[1], f[3]]]
    power = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(s):
        power = mat_mul(power, m)
    return [power[a][c] for c in range(2) for a in range(2)]


def hub_tensor(f_values) -> list:
    f = [Fraction(v) for v in f_values]
    out = []
    for pattern in range(8):
        v = [(pattern >> i) & 1 for i in range(3)]
        out.append(sum(f[v[0] + z] * f[v[1] + z] * f[v[2] + z]
                       for z in (0, 1, 1, 2)))      # z = z1 + z2
    return out


def probe_tensor(f_values, u_values) -> list:
    f = [Fraction(v) for v in f_values]
    u = [Fraction(v) for v in u_values]
    return [u[d] * sum(u[z] * f[2 * z + d] for z in (0, 1)) for d in (0, 1)]


def gadget_tensor(gadget: dict) -> tuple:
    """Tensor over the dangling ports of a {f, EQ3} gadget in the CLI's
    JSON format, by summing over equality-vertex values; also returns
    the dangling polarities. Every non-EQ3 vertex must be symmetric."""
    sig_of, side_of = {}, {}
    for v in gadget["vertices"]:
        vid = _key(v["id"])
        side_of[vid] = v["side"]
        sig = v["sig"]
        if sig == "EQ3":
            sig_of[vid] = None
        elif isinstance(sig, dict):
            sig_of[vid] = [Fraction(w) for w in sig["weights"]]
        else:
            sig_of[vid] = [Fraction(w) for w in sig.strip("[]").split(",")]
    eq_ids = [vid for vid, s in sig_of.items() if s is None]
    var = {vid: k for k, vid in enumerate(eq_ids)}
    # per f-vertex, the sources feeding its ports: ("x", var) or ("d", dangling index)
    feeds = {vid: [] for vid, s in sig_of.items() if s is not None}
    for va, _sa, vb, _sb in gadget["edges"]:
        a, b = _key(va), _key(vb)
        if a in feeds and b in var:
            feeds[a].append(("x", var[b]))
        elif b in feeds and a in var:
            feeds[b].append(("x", var[a]))
        else:
            raise ValueError("gadget edge does not join f to EQ3")
    dangling = [(_key(v), s) for v, s in gadget["dangling"]]
    eq_dangling = []
    for d, (vid, _slot) in enumerate(dangling):
        if vid in feeds:
            feeds[vid].append(("d", d))
        else:
            eq_dangling.append((d, var[vid]))
    pols = "".join(side_of[vid] for vid, _ in dangling)
    entries = []
    for pattern in range(1 << len(dangling)):
        total = Fraction(0)
        for x in range(1 << len(eq_ids)):
            if any(((pattern >> d) & 1) != ((x >> k) & 1) for d, k in eq_dangling):
                continue
            prod = Fraction(1)
            for vid, srcs in feeds.items():
                w = sum((x >> k) & 1 if kind == "x" else (pattern >> k) & 1 for kind, k in srcs)
                prod *= sig_of[vid][w]
                if not prod:
                    break
            total += prod
        entries.append(total)
    return entries, pols


def _key(v):
    return tuple(_key(x) for x in v) if isinstance(v, list) else v


def is_symmetric_tensor(entries: list) -> bool:
    weight_value: dict = {}
    for p, v in enumerate(entries):
        if weight_value.setdefault(bin(p).count("1"), v) != v:
            return False
    return True


def positive_multiple(found: list, target: list) -> bool:
    """found == r * target for some rational r > 0."""
    if len(found) != len(target):
        return False
    ratio = None
    for a, b in zip(found, target):
        if b == 0:
            if a != 0:
                return False
            continue
        r = Fraction(a) / b
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None and ratio > 0


def sym_to_tensor(values: list) -> list:
    arity = len(values) - 1
    return [Fraction(values[bin(p).count("1")]) for p in range(1 << arity)]


# -- interpolation demo ----------------------------------------------------------

DEMO_PAIRS = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def demo_placeholder_edges(n: int) -> list:
    """Indices into DEMO_PAIRS of the edges that carry placeholders: each
    insertion removes edge i of the current list and appends two."""
    edges = list(range(len(DEMO_PAIRS)))
    chosen = []
    for i in range(n):
        chosen.append(edges.pop(i))
        edges += [None, None]
    return chosen


def demo_holant(form, n: int, binary) -> Fraction:
    """Holant of the two-by-two demo grid with the binary matrix
    binary[x_eq][y_f] spliced into each placeholder edge."""
    f = [Fraction(v) for v in form]
    marked = demo_placeholder_edges(n)
    total = Fraction(0)
    for x in range(4):
        for y in range(1 << n):
            prod = Fraction(1)
            weight = [0, 0]
            for e, (i, j) in enumerate(DEMO_PAIRS):
                xe = (x >> j) & 1
                if e in marked:
                    ye = (y >> marked.index(e)) & 1
                    prod *= binary[xe][ye]
                    weight[i] += ye
                else:
                    weight[i] += xe
            total += prod * f[weight[0]] * f[weight[1]]
    return total


def demo_expectations(form, lam, mu, n: int) -> dict:
    f = [Fraction(v) for v in form]
    m = [[f[0], f[2]], [f[1], f[3]]]
    chains = []
    power = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(n + 1):
        chains.append(demo_holant(form, n, power))
        power = mat_mul(power, m)
    # spectral projector onto the mu-eigenspace: (M - lam I) / (mu - lam)
    proj = [[(m[r][c] - (lam if r == c else 0)) / (mu - lam) for c in range(2)] for r in range(2)]
    return {"chains": chains, "projected": demo_holant(form, n, proj)}


# -- set systems and matchings ---------------------------------------------------

def exact_cover_count(sets: list) -> int:
    """Subsets of the sets covering every element exactly once."""
    elements = sorted({x for s in sets for x in s})
    member = [sum(1 << k for k, s in enumerate(sets) if x in s) for x in elements]
    count = 0
    for mask in range(1 << len(sets)):
        for m in member:
            if (mask & m).bit_count() != 1:
                break
        else:
            count += 1
    return count


def matching_sum(n_vertices: int, edges: list) -> Fraction:
    """Weighted perfect-matching sum by matching the lowest free vertex."""
    adj = [[] for _ in range(n_vertices)]
    for u, v, w in edges:
        adj[u].append((v, Fraction(w)))
        adj[v].append((u, Fraction(w)))
    memo: dict = {}

    def rec(free: int) -> Fraction:
        if not free:
            return Fraction(1)
        hit = memo.get(free)
        if hit is not None:
            return hit
        low = (free & -free).bit_length() - 1
        rest = free & ~(1 << low)
        total = Fraction(0)
        for v, w in adj[low]:
            if rest >> v & 1:
                total += w * rec(rest & ~(1 << v))
        memo[free] = total
        return total

    return rec((1 << n_vertices) - 1)
