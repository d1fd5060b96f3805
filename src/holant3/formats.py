"""Structured-text (JSON) formats for every external interface.

Rationals travel as "p/q" or "p" strings or as JSON ints, never as
decimals, exponents or bools; quadratic extensions as {"base", "coeff",
"radicand"} objects; signatures as {"arity": n, "weights": [...]}, each
weight a rational or a quadratic extension. Grids list vertices, edges
as [vid, slot, vid, slot] quadruples and dangling ports; planar graphs
list per-vertex rotations as [edge index, end] pairs; embedded grids
add a rotation (slot order) per vertex. Parsers take the decoded JSON
document, not its text. Every emitted value parses back to an identical
exact value.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import FormatError, GridStructureError, ParseError
from .exact import QuadExt, Scalar, frac
from .grid import GridVertex, SignatureGrid
from .matchgates import EmbeddedGrid
from .planar import PlanarMultigraph
from .signatures import EQ3, SymSig, Tensor


# Python before 3.10.7 has no int/str digit limit
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


class any_digits:
    """Context manager that lifts the interpreter's int/str digit limit
    for its block only: exact values may run past it, and every value
    must round-trip. The conversion stays quadratic in the digit count.
    A class, not a generator: it wraps every rational conversion, and a
    class costs less per block."""

    def __enter__(self):
        self.limit = _get_digit_limit()
        _set_digit_limit(0)

    def __exit__(self, *exc):
        _set_digit_limit(self.limit)


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text) -> Fraction:
    """An int (not a bool) or a "p" / "p/q" digit string; no decimals,
    exponents or digit separators."""
    if type(text) is int:
        return Fraction(text)
    m = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ParseError(f'bad rational {text!r}: expected an int or a "p" or "p/q" string')
    try:
        with any_digits():
            return Fraction(int(m[1]), int(m[2] or 1))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {text!r}: {e}") from e


def format_rational(q: Fraction) -> str:
    q = frac(q)
    with any_digits():
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(x: Scalar):
    if isinstance(x, QuadExt):
        return {"base": format_rational(x.base), "coeff": format_rational(x.coeff),
                "radicand": format_rational(x.rad)}
    return format_rational(frac(x))


def parse_scalar(obj) -> Scalar:
    if isinstance(obj, dict):
        try:
            return QuadExt(parse_rational(obj["base"]), parse_rational(obj["coeff"]),
                           parse_rational(obj["radicand"]))
        except KeyError as e:
            raise ParseError(f"quadratic extension needs base/coeff/radicand: {obj!r}") from e
    return parse_rational(obj)


def parse_signature(obj) -> SymSig:
    """Accepts '[1,2,3,4]', '1,2,3,4', or {"arity": n, "weights": [...]}.
    Text and list weights are rationals; dict weights are scalars, as
    format_signature writes them, so a QuadExt weight round-trips."""
    if isinstance(obj, SymSig):
        return obj
    if isinstance(obj, dict):
        weights = [parse_scalar(w) for w in obj.get("weights", [])]
        arity = obj.get("arity", len(weights) - 1)
        if arity != len(weights) - 1:
            raise FormatError(f"arity {arity} disagrees with {len(weights)} weights")
        return SymSig(weights)
    if isinstance(obj, (list, tuple)):
        return SymSig([parse_rational(w) for w in obj])
    if isinstance(obj, str):
        text = obj.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        parts = [p for p in text.split(",") if p.strip()]
        if not parts:
            raise ParseError(f"empty signature {obj!r}")
        return SymSig([parse_rational(p) for p in parts])
    raise ParseError(f"cannot read signature from {obj!r}")


def format_signature(s: SymSig) -> dict:
    return {"arity": s.arity, "weights": [format_scalar(v) for v in s.values]}


def format_tensor(t: Tensor) -> dict:
    return {"arity": t.arity, "entries": [format_scalar(v) for v in t.entries]}


_SIG_ALIASES = {"EQ3": EQ3, "=3": EQ3}


def _parse_vertex_sig(obj):
    if isinstance(obj, str) and obj in _SIG_ALIASES:
        return _SIG_ALIASES[obj]
    if isinstance(obj, dict) and "entries" in obj:
        entries = [parse_scalar(v) for v in obj["entries"]]
        n = len(entries)
        arity = obj.get("arity", n.bit_length() - 1)
        # bounded before the shift: no arity over n fits n entries
        if type(arity) is not int or not 0 <= arity <= n or 1 << arity != n:
            raise FormatError(f"tensor arity {arity!r} disagrees with {n} entries")
        return Tensor(arity, entries)
    return parse_signature(obj)


# id types an edge stores as read: hashable, never folded
_PLAIN_IDS = frozenset((str, int))


def parse_grid(obj) -> SignatureGrid:
    """One pass over the document. Each distinct (spec, side) is parsed
    and checked once, with its signature and polarity tuple; every later
    vertex of that kind costs a duplicate-id check. An edge of str/int
    ids and int slots goes straight onto the edge list. The wiring is
    checked by the grid's consumer (see SignatureGrid.validate)."""
    g = SignatureGrid()
    vertices, edges = g.vertices, g.edges
    sigs: dict = {}            # one parsed signature per distinct spec
    kinds: dict = {}           # (spec key, side) -> (signature, polarity tuple)
    try:
        for vspec in obj["vertices"]:
            vid = vspec["id"]
            if isinstance(vid, list):
                vid = _vid(vid)
            spec = vspec["sig"]
            # a list or dict keys by type and repr, apart from any text spec
            key = spec if isinstance(spec, str) else (type(spec), repr(spec))
            side = vspec.get("side", "L")
            # a "mixed" vertex lists its own polarities and is never shared
            shared = type(side) is str and side != "mixed"
            kind = kinds.get((key, side)) if shared else None
            if kind is not None:
                if vid in vertices:
                    raise GridStructureError(f"duplicate vertex id {vid!r}")
                vertices[vid] = GridVertex(*kind)
                continue
            sig = sigs.get(key)
            if sig is None:
                sig = sigs[key] = _parse_vertex_sig(spec)
            g.add_vertex(vid, sig, tuple(vspec["polarities"]) if side == "mixed" else side)
            if shared:
                kinds[key, side] = sig, vertices[vid].polarities
        for quad in obj.get("edges", []):
            va, sa, vb, sb = quad
            if (type(sa) is int and type(sb) is int
                    and type(va) in _PLAIN_IDS and type(vb) in _PLAIN_IDS):
                edges.append(((va, sa), (vb, sb)))
            else:
                edges.append(((_vid(va), _slot(sa)), (_vid(vb), _slot(sb))))
        for pair in obj.get("dangling", []):
            vid, slot = pair
            g.mark_dangling((_vid(vid), _slot(slot)))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad grid structure: {e}") from e
    return g


def _slot(s) -> int:
    # a bool is an int to Python, but no slot in the format
    if type(s) is not int:
        raise ParseError(f"slot {s!r} is not an integer")
    return s


def _vid(v):
    # JSON renders tuple ids as lists; fold them back to hashable tuples,
    # a flat list of str/int ids in one step
    if isinstance(v, list):
        if _PLAIN_IDS.issuperset(map(type, v)):
            return tuple(v)
        return tuple(_vid(x) for x in v)
    hash(v)                   # an unhashable id raises TypeError, which callers report
    return v


def format_grid(g: SignatureGrid) -> dict:
    verts = []
    for vid, v in g.vertices.items():
        sides = set(v.polarities)
        if sides == {"L"}:
            side_obj = {"side": "L"}
        elif sides == {"R"}:
            side_obj = {"side": "R"}
        else:
            side_obj = {"side": "mixed", "polarities": list(v.polarities)}
        sig = v.sig
        if sig == EQ3:
            sig_obj = "EQ3"
        elif isinstance(sig, SymSig):
            sig_obj = format_signature(sig)
        elif isinstance(sig, Tensor):
            sig_obj = format_tensor(sig)
        else:
            raise FormatError(f"vertex {vid!r} carries unserializable signature {sig!r}")
        verts.append({"id": vid, "sig": sig_obj, **side_obj})
    return {
        "vertices": verts,
        "edges": [[a[0], a[1], b[0], b[1]] for a, b in g.edges],
        "dangling": [[p[0], p[1]] for p in g.dangling],
    }


def parse_planar_graph(obj) -> PlanarMultigraph:
    try:
        edges = [(_vid(e[0]), _vid(e[1]), parse_rational(e[2])) for e in obj["edges"]]
        vertices = [_vid(v["id"]) for v in obj["vertices"]]
        rotation = {_vid(v["id"]): [_edge_end(end) for end in v["rotation"]]
                    for v in obj["vertices"]}
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise ParseError(f"bad planar graph structure: {e}") from e
    return PlanarMultigraph(vertices, edges, rotation)


def _edge_end(end) -> tuple:
    idx, side = end
    if type(idx) is not int or type(side) is not int or side not in (0, 1):
        raise ParseError(f"edge-end {end!r} is not an [edge index, 0 or 1] pair")
    return idx, side


def format_planar_graph(g: PlanarMultigraph) -> dict:
    return {
        "vertices": [{"id": v, "rotation": [list(end) for end in g.rotation.get(v, [])]}
                     for v in g.vertices],
        "edges": [[u, v, format_rational(w)] for u, v, w in g.edges],
    }


def parse_embedded_grid(obj) -> EmbeddedGrid:
    grid = parse_grid(obj)
    rot_spec = obj.get("rotations")
    if rot_spec is None:
        raise ParseError("embedded grid needs a 'rotations' list of [id, [slots...]]")
    rotations = {}
    try:
        for vid, slots in rot_spec:
            vid = _vid(vid)
            if vid not in grid.vertices:
                raise ParseError(f"rotation entry {vid!r} names no grid vertex")
            if vid in rotations:
                raise ParseError(f"vertex {vid!r} has more than one rotation entry")
            rotations[vid] = [_slot(slot) for slot in slots]
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad rotations: {e}") from e
    return EmbeddedGrid(grid, rotations)


def format_embedded_grid(inst: EmbeddedGrid) -> dict:
    out = format_grid(inst.grid)
    out["rotations"] = [[vid, list(slots)] for vid, slots in inst.rotations.items()]
    return out


def parse_hypergraph(obj):
    """{"ground": [...], "sets": [[a,b,c], ...]} -> list of sets. sets, each
    set and ground, if given, are JSON lists: a string would read as its
    characters and an object as its keys."""
    try:
        sets, ground = obj["sets"], obj.get("ground")
        if not (isinstance(sets, list) and all(isinstance(s, list) for s in sets)
                and isinstance(ground, (list, type(None)))):
            raise ParseError("bad hypergraph structure: sets, each set and ground must be lists")
        sets = [list(s) for s in sets]
        listed = {x for s in sets for x in s}
        if ground is not None and set(ground) != listed:
            raise FormatError("ground set disagrees with set contents")
    except (KeyError, TypeError) as e:   # TypeError also for unhashable elements
        raise ParseError(f"bad hypergraph structure: {e}") from e
    return sets
