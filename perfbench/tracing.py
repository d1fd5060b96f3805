"""Spans around the package's public functions, installed from outside.

A span records name, start, end, parent span, op id, the attributes the
benchmark derives from the call's arguments or result, and whether an
exception left through it. Spans stay in memory until the run ends.

Wrapping happens where a name is looked up: every module global of the
package bound to the original function (the from-imports in cli,
tractable, interp, x3c, ...) and the tractable._SOLVERS table are
rebound to the wrapper. Per-value functions (exact.*, value_at) are
never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

NAME, START, END, PARENT, OP, ATTRS, CHILD, ERROR = range(8)


def _pfaffian_attrs(args):
    matrix = args[0]
    bits = 0
    for row in matrix:
        for v in row:
            num = getattr(v, "numerator", v)
            den = getattr(v, "denominator", 1)
            bits = max(bits, abs(num).bit_length(), den.bit_length())
    return {"dim": len(matrix), "bits": bits}


def _count_pm_attrs(args):
    # a matchgate graph has four vertices per grid vertex
    n = len(args[0].vertices)
    return {"grid_vertices": n // 4 if n % 4 == 0 else None}


# (module, attribute, attrs from the call args or None, attrs from the result or None)
TARGETS = (
    ("cli", "main", None, None),
    ("formats", "parse_grid", None, None),
    ("formats", "parse_embedded_grid", None, None),
    ("formats", "parse_planar_graph", None, None),
    ("formats", "parse_hypergraph", None, None),
    ("grid", "holant", lambda a: {"edges": len(a[0].edges)}, None),
    ("grid", "contract", lambda a: {"patterns": 1 << len(a[0].dangling)}, None),
    ("gadgets", "gadget_search", None, lambda r: {"hit": r is not None}),
    ("interp", "stratify_holant_with_d", None, None),
    ("linalg", "vandermonde_solve", lambda a: {"n": len(a[0])}, None),
    ("x3c", "count_exact_covers", None, None),
    ("matchgates", "holographic_reduce", None, None),
    ("planar", "count_pm", _count_pm_attrs, None),
    ("planar", "check_genus_zero", None, None),
    ("planar", "kasteleyn_orient", None, None),
    ("planar", "pfaffian", _pfaffian_attrs, None),
    ("tractable", "TractableInstance", None, None),
    ("tractable", "solve", None, lambda r: {"case": r[1].matched_case}),
    ("tractable", "solve_affine", lambda a: {"edges": len(a[0].grid.edges)}, None),
    ("tractable", "solve_gen_equality", None, None),
    ("tractable", "solve_degenerate", None, None),
    ("dichotomy", "classify_ternary", None, None),
)

SPAN_NAMES = tuple(f"{m}.{a}" for m, a, _, _ in TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op_id = -1

    def wrap(self, name: str, fn, attrs=None, result_attrs=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # attribute work happens before the span opens and is charged
            # to no span's self time
            t_call = perf_counter()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                   attrs(args) if attrs else None, 0.0, False]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += rec[END] - t_call
            if result_attrs:
                extra = result_attrs(result)
                rec[ATTRS] = {**(rec[ATTRS] or {}), **extra}
            return result

        return traced

    def install(self):
        """Rebind every lookup site of each target to its wrapper, and the
        tractable._SOLVERS dispatch table to the wrapped solvers."""
        for mod_name, *_ in TARGETS:
            importlib.import_module(f"holant3.{mod_name}")   # lazy imports too
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "holant3" or n.startswith("holant3."))]
        for mod_name, attr, attrs, result_attrs in TARGETS:
            owner = sys.modules[f"holant3.{mod_name}"]
            orig = getattr(owner, attr)
            name = f"{mod_name}.{attr}"
            if isinstance(orig, type):
                # a dataclass validates in __post_init__, looked up on the class
                orig.__post_init__ = self.wrap(name, orig.__post_init__, attrs, result_attrs)
                continue
            wrapper = self.wrap(name, orig, attrs, result_attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        solvers = sys.modules["holant3.tractable"]._SOLVERS
        for case, fn in list(solvers.items()):
            solvers[case] = getattr(sys.modules["holant3.tractable"], fn.__name__)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP], "attrs": s[ATTRS],
                                     "error": s[ERROR]}) + "\n")


def summarize(spans: list, rounds: int) -> dict:
    """Per span name: calls, self seconds and errors per round, plus the
    list of (attrs, inclusive duration) for curves and counters."""
    out: dict = {}
    for s in spans:
        agg = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "errors": 0, "items": []})
        dur = s[END] - s[START]
        agg["calls"] += 1
        agg["self_s"] += dur - s[CHILD]
        agg["errors"] += s[ERROR]
        agg["items"].append((s[ATTRS] or {}, dur, s[PARENT]))
    for agg in out.values():
        agg["calls_per_round"] = agg["calls"] / rounds
        agg["self_per_round"] = agg["self_s"] / rounds
        agg["errors_per_round"] = agg["errors"] / rounds
    return out
