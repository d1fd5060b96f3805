"""Command-line surface.

Every command reads structured-text inputs, emits exact values (never
decimals) and returns distinct exit codes: 0 success, 2 unreadable or
malformed input, 3 hardness refusal, 4 structural/domain violations.
Output is deterministic: same input, same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import errors
from .dichotomy import FP, classify_ternary, verify_case_identities
from .formats import (
    any_digits,
    format_grid,
    format_scalar,
    format_tensor,
    parse_embedded_grid,
    parse_grid,
    parse_hypergraph,
    parse_planar_graph,
    parse_signature,
)
from .gadgets import gadget_search
from .grid import bipartite_grid, contract, holant
from .interp import (
    _placeholder_ids,
    add_placeholder_on_edge,
    degenerate_target,
    stratify_holant_with_d,
    substitute_placeholder_matrix,
)
from .matchgates import solve_planar_moderate_cover
from .planar import count_pm, enumerate_pm
from .signatures import normalize
from .tractable import TractableInstance, solve
from .x3c import brute_force_exact_covers, count_exact_covers

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_REFUSAL = 3
EXIT_DOMAIN = 4


def _read_input(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise errors.ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise errors.ParseError(f"{path}: {e}") from e


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for key, value in report.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")


# count flags and the least value each takes; below it a search or a
# demo would run vacuously
_COUNT_FLOORS = {"occurrences": 1, "max_f": 0, "max_eq": 0}


def _check_counts(args):
    for name, floor in _COUNT_FLOORS.items():
        value = getattr(args, name, floor)
        if value < floor:
            flag = "--" + name.replace("_", "-")
            raise errors.ParseError(f"{flag} must be at least {floor}, got {value}")


def _evaluator_oracle(report: dict, grid, value, solver: str):
    """Re-check value with the exact evaluator; skipped when the evaluator
    refuses the grid past its live-state limit."""
    try:
        check = holant(grid)
    except errors.TooManyLiveStates:
        report["oracle"] = "skipped (over live-state limit)"
        return
    if check != value:
        raise AssertionError(f"oracle mismatch: {solver} {value}, evaluator {check}")
    report["oracle"] = "match"


def cmd_classify(args) -> int:
    f = parse_signature(args.signature)
    cls = classify_ternary(f)
    report = {"signature": repr(f), "verdict": cls.verdict}
    if cls.verdict == FP:
        report["case"] = cls.matched_case
        report["reason"] = cls.reason
        report["all_cases"] = ",".join(str(c) for c in cls.matches)
    else:
        report["hard_family"] = cls.hardness_case
    _emit(report, args.format)
    return EXIT_OK


def cmd_eval(args) -> int:
    grid = parse_grid(_read_input(args.input))
    value = holant(grid)
    _emit({"holant": format_scalar(value)}, args.format)
    return EXIT_OK


def cmd_solve(args) -> int:
    grid = parse_grid(_read_input(args.input))
    inst = TractableInstance(grid)
    value, cls = solve(inst, allow_brute_force=args.brute_force)
    report = {"value": format_scalar(value), "verdict": cls.verdict}
    if cls.matched_case:
        report["case"] = cls.matched_case
    if args.oracle:
        if cls.verdict == FP:
            _evaluator_oracle(report, grid, value, "solver")
        else:   # --brute-force: re-evaluating would compare the evaluator with itself
            report["oracle"] = "skipped (value from the evaluator)"
    _emit(report, args.format)
    return EXIT_OK


def cmd_pm_count(args) -> int:
    g = parse_planar_graph(_read_input(args.input))
    value = count_pm(g)
    report = {"pm_count": format_scalar(value)}
    if args.oracle:
        check = enumerate_pm(g)
        if check != value:
            raise AssertionError(f"oracle mismatch: pfaffian {value}, enumeration {check}")
        report["oracle"] = "match"
    _emit(report, args.format)
    return EXIT_OK


def cmd_solve_planar_cover(args) -> int:
    inst = parse_embedded_grid(_read_input(args.input))
    value = solve_planar_moderate_cover(inst)
    report = {"cover_count": format_scalar(value)}
    if args.oracle:
        _evaluator_oracle(report, inst.grid, value, "matchgates")
    _emit(report, args.format)
    return EXIT_OK


def cmd_contract(args) -> int:
    gadget = parse_grid(_read_input(args.input))
    tensor, pols = contract(gadget)
    report = {"tensor": json.dumps(format_tensor(tensor), sort_keys=True),
              "polarities": "".join(pols)}
    if tensor.is_symmetric():
        report["symmetric"] = repr(tensor.to_symmetric())
    _emit(report, args.format)
    return EXIT_OK


def cmd_search_gadget(args) -> int:
    f = parse_signature(args.signature)
    if f.arity != 3:
        raise errors.ParseError(f"--signature must be ternary, got arity {f.arity}")
    target = parse_signature(args.target)
    pols = args.polarities
    if pols is not None:
        if not set(pols) <= {"L", "R"}:
            raise errors.ParseError(f"--polarities takes only L and R, got {pols!r}")
        if len(pols) != target.arity:
            raise errors.ParseError(f"--polarities has {len(pols)} letters, "
                                    f"the target's arity is {target.arity}")
        pols = tuple(pols)
    found = gadget_search(f, target, args.max_f, args.max_eq, polarities=pols)
    if found is None:
        _emit({"found": "no", "bounds": f"max_f={args.max_f} max_eq={args.max_eq}"}, args.format)
        return EXIT_OK
    report = {"found": "yes", "gadget": json.dumps(format_grid(found), sort_keys=True)}
    _emit(report, args.format)
    return EXIT_OK


def cmd_interp_demo(args) -> int:
    f = parse_signature(args.signature)
    form, _, _ = normalize(f)
    grid = bipartite_grid(form, [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)])
    for i in range(args.occurrences):
        grid = add_placeholder_on_edge(grid, i)
    target = degenerate_target(form)
    jd = target.jordan_data
    n = args.occurrences
    report = {
        "signature": repr(form),
        "eigenvalues": f"lam={format_scalar(jd.lam)} mu={format_scalar(jd.mu)}",
        "projector_params": f"x={format_scalar(jd.x)} y={format_scalar(jd.y)}",
        "occurrences": n,
    }
    system = stratify_holant_with_d(grid, form)
    report["nodes"] = [format_scalar(t) for t in system.nodes]
    for s, value in enumerate(system.values):
        report[f"holant_chain_{s}"] = format_scalar(value)
    if system.coefficients is not None:
        report["strata_coefficients"] = [format_scalar(c) for c in system.coefficients]
    else:
        report["strata_coefficients"] = "degenerate (zero eigenvalue): all-mu stratum only"
    value = system.projector_value
    report["interpolated"] = format_scalar(value)
    direct = grid
    for vid in _placeholder_ids(grid):
        direct = substitute_placeholder_matrix(direct, vid, target.matrix)
    dval = holant(direct)
    report["direct_substitution"] = format_scalar(dval)
    report["match"] = "yes" if dval == value else "NO"
    _emit(report, args.format)
    return EXIT_OK if dval == value else EXIT_UNEXPECTED


def cmd_verify_identities(args) -> int:
    proved = verify_case_identities()
    report = {name: "proved" if holds else "NO" for name, holds in proved.items()}
    ok = all(proved.values())
    report["all_passed"] = "yes" if ok else "NO"
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_UNEXPECTED


def cmd_x3c_count(args) -> int:
    sets = parse_hypergraph(_read_input(args.input))
    value = count_exact_covers(sets)
    report = {"exact_covers": format_scalar(value)}
    if args.oracle:
        check = brute_force_exact_covers(sets)
        if check != value:
            raise AssertionError(f"oracle mismatch: holant {value}, enumeration {check}")
        report["oracle"] = "match"
    _emit(report, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holant3",
        description="Exact toolkit for ternary-signature Holant problems on "
                    "3-regular bipartite graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False, unread_cap=False, oracle=False):
        if needs_input:
            p.add_argument("--input", required=True, help="path to a JSON input file")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if unread_cap:
            # never read; goes when perfbench stops passing it (ROADMAP item 1)
            p.add_argument("--max-edges", type=int, help=argparse.SUPPRESS)
        if oracle:
            p.add_argument("--oracle", action="store_true",
                           help="re-check the result against an exponential reference")

    p = sub.add_parser("classify", help="dichotomy verdict for a ternary signature")
    p.add_argument("--signature", required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="exact partition function of a grid")
    common(p, needs_input=True, unread_cap=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="polynomial-time solve or refuse")
    common(p, needs_input=True, oracle=True)
    p.add_argument("--brute-force", action="store_true",
                   help="evaluate hard signatures with the exact evaluator")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("pm-count", help="weighted perfect matchings of a planar graph")
    common(p, needs_input=True, oracle=True)
    p.set_defaults(func=cmd_pm_count)

    p = sub.add_parser("solve-planar-cover",
                       help="planar one-or-two cover count via matchgates")
    common(p, needs_input=True, oracle=True)
    p.set_defaults(func=cmd_solve_planar_cover)

    p = sub.add_parser("contract", help="contract a gadget to its signature")
    common(p, needs_input=True, unread_cap=True)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("search-gadget", help="bounded exhaustive gadget search")
    p.add_argument("--signature", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--max-f", type=int, default=3)
    p.add_argument("--max-eq", type=int, default=2)
    p.add_argument("--polarities", default=None, help="e.g. LLL or LR")
    common(p)
    p.set_defaults(func=cmd_search_gadget)

    p = sub.add_parser("interp-demo",
                       help="show the interpolation system on a demo grid")
    p.add_argument("--signature", required=True)
    p.add_argument("--occurrences", type=int, default=1)
    common(p, unread_cap=True)
    p.set_defaults(func=cmd_interp_demo)

    p = sub.add_parser("verify-identities", help="prove the case-analysis polynomial identities")
    common(p)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("x3c-count", help="exact 3-cover count of a set system")
    common(p, needs_input=True, unread_cap=True, oracle=True)
    p.set_defaults(func=cmd_x3c_count)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the tree unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_counts(args)
        # exact values may run past the interpreter's int/str digit limit
        with any_digits():
            return args.func(args)
    except (errors.ParseError, errors.FormatError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except errors.HardnessRefusal as e:
        cls = e.classification
        print(f"refusal: #P-hard ({cls.hardness_case})", file=sys.stderr)
        return EXIT_REFUSAL
    except errors.HolantError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
