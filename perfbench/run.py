"""Benchmark of the holant3 CLI: one workload per process, closed loop,
one client, single thread.

    python3 perfbench/run.py --workload oracle_grid --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28    # every workload
    python3 perfbench/run.py --summary                               # spread over recorded runs

Run from the repository root. Each op is one in-process call of
holant3.cli.main(argv) on JSON inputs generated from --seed during
set-up (perfbench/workloads.py). Stdout is captured, the exit code
checked and the output compared with an oracle that shares no code
with the timed path (perfbench/oracles.py). HOLANT_WORKERS is removed
from the environment, so every op runs the default serial path.

--trace 0 measures the end-to-end metrics. --trace 1 runs the same
rounds untraced for half the time, then with spans around the
package's public functions (perfbench/tracing.py) for the other half, and
reports per-layer metrics per round plus the tracing overhead.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The lines above it are the readable
report: machine, seed, src line count, the tail percentile with the
op it landed on and its sample counts, and the per-size curves. Every
report is also appended to .perfbench/runs.jsonl, which --summary reads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters timed for setup_s, spread over the run so that
# slow drifts in machine speed hit them as they hit the ops.
SETUP_INTERPRETERS = 7

# Percentile reported as op_s.tail, fixed per workload so that it picks
# the same op class of the round on every run (a level computed from the
# run's sample count would jump between classes as speed changes): the
# 39-edge evals, the LLL 4/4 search misses, the 14-vertex covers and the
# 9000-edge affine solves. Each leaves at least ten ops beyond it in a
# run at the seed commit's speed; the report prints the count and the
# op the level landed on, and flags a run that leaves fewer than ten.
TAIL_LEVEL = {"oracle_grid": 88, "reductions": 97, "planar_pipeline": 90,
              "tractable_scale": 84}
TAIL_MIN_BEYOND = 10

# Spans that must fire on each workload; a wrapper that missed its
# lookup site would otherwise read as zero.
PREDICTED_SPANS = {
    "oracle_grid": ("cli.main", "formats.parse_grid", "grid.holant"),
    "reductions": ("cli.main", "formats.parse_grid", "formats.parse_hypergraph",
                   "grid.holant", "grid.contract", "gadgets.gadget_search",
                   "interp.stratify_holant_with_d", "linalg.vandermonde_solve",
                   "x3c.count_exact_covers"),
    "planar_pipeline": ("cli.main", "formats.parse_grid", "formats.parse_embedded_grid",
                        "formats.parse_planar_graph", "matchgates.holographic_reduce",
                        "planar.count_pm", "planar.check_genus_zero",
                        "planar.kasteleyn_orient", "planar.pfaffian"),
    "tractable_scale": ("cli.main", "formats.parse_grid", "tractable.TractableInstance",
                        "tractable.solve", "tractable.solve_affine",
                        "tractable.solve_gen_equality", "tractable.solve_degenerate",
                        "dichotomy.classify_ternary"),
}

CURVES = (
    ("grid.holant", "edges", "E", (27, 30, 33, 36, 39, 42)),
    ("planar.pfaffian", "dim", "n", (40, 48, 56)),
    ("planar.count_pm", "grid_vertices", "V", (10, 12, 14)),
    ("tractable.solve_affine", "edges", "E", (3000, 9000, 30000)),
)


# -- machine and code-size record ------------------------------------------------

def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "holant3")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


# -- checking outputs --------------------------------------------------------------

def _frac(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"rational expected, got {text!r}")
    return Fraction(text)


def check_output(op: dict, stdout: str) -> bool:
    out = json.loads(stdout)
    exp = op["expect"]
    kind = op["kind"]
    if kind == "value":
        return all(_frac(out[k]) == Fraction(v) for k, v in exp.items())
    if kind == "contract":
        tensor = json.loads(out["tensor"])
        return (out["polarities"] == exp["polarities"]
                and [_frac(v) for v in tensor["entries"]] == [Fraction(v) for v in exp["entries"]])
    if kind == "search":
        if not exp["hit"]:
            return out["found"] == "no"
        if out["found"] != "yes":
            return False
        entries, pols = oracles.gadget_tensor(json.loads(out["gadget"]))
        target = oracles.sym_to_tensor([Fraction(v) for v in exp["target"]])
        return (sorted(pols) == sorted(exp["polarities"])
                and oracles.is_symmetric_tensor(entries)
                and oracles.positive_multiple(entries, target))
    if kind == "interp":
        eig = dict(part.split("=") for part in out["eigenvalues"].split())
        n = len(exp["chains"]) - 1
        return (_frac(eig["lam"]) == Fraction(exp["lam"])
                and _frac(eig["mu"]) == Fraction(exp["mu"])
                and all(_frac(out[f"holant_chain_{s}"]) == Fraction(exp["chains"][s])
                        for s in range(n + 1))
                and _frac(out["interpolated"]) == Fraction(exp["projected"])
                and _frac(out["direct_substitution"]) == Fraction(exp["projected"])
                and out["match"] == "yes")
    raise ValueError(f"unknown op kind {kind!r}")


# -- set-up ----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HOLANT_WORKERS", None)
    env["PYTHONPATH"] = SRC
    return env


WARMUP = """
import contextlib, io, sys
from holant3.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(main(sys.argv[1:]))
"""


class SetupSampler:
    """Wall times of fresh interpreters that import holant3.cli and
    finish one op (the workload's first), taken at round boundaries."""

    def __init__(self, op: dict):
        self.argv = [sys.executable, "-c", WARMUP] + op["argv"]
        self.times: list = []
        self.ok = True

    def sample(self):
        t0 = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        proc = subprocess.run(self.argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        self.times.append(perf_counter() - t0)
        self.ok = self.ok and proc.returncode == 0

    def upto(self, share: float):
        """Sample until the count matches the share of the run done."""
        while len(self.times) < min(SETUP_INTERPRETERS,
                                    1 + int(share * (SETUP_INTERPRETERS - 1))):
            self.sample()


# -- the closed loop -----------------------------------------------------------------

class Loop:
    def __init__(self, cli, ops: list):
        self.cli = cli
        self.ops = ops
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.sizes = [os.path.getsize(op["argv"][op["argv"].index("--input") + 1])
                      if "--input" in op["argv"] else 0 for op in ops]

    def one(self, i: int, tracer=None) -> float:
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = self.attempted
        rc = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op["argv"]))
        except (Exception, SystemExit):
            rc = None
        dt = perf_counter() - t0
        self.attempted += 1
        text = out.getvalue()
        key = (i, rc, text)
        good = self.verdicts.get(key)
        if good is None:
            problem = ""
            try:
                good = rc == 0 and check_output(op, text)
            except Exception as e:      # malformed output fails the op, not the run
                good, problem = False, f" ({type(e).__name__}: {e})"
            self.verdicts[key] = good
            if not good:
                print(f"FAILED op {i} {' '.join(op['argv'])}: rc={rc}{problem} "
                      f"stdout={text[:200]!r} stderr={err.getvalue()[-300:]!r}", file=sys.stderr)
        if not good:
            self.failed += 1
        return dt

    def rounds(self, seconds: float, tracer=None, between=None) -> dict:
        """Whole rounds for about `seconds` of round wall time: the last
        round is the one that ends nearest to it. between(share done)
        runs after each round, outside the timing."""
        times, round_walls = [], []
        wall = 0.0
        while not round_walls or wall + statistics.fmean(round_walls) / 2 < seconds:
            r0 = perf_counter()
            for i in range(len(self.ops)):
                times.append(self.one(i, tracer))
            round_walls.append(perf_counter() - r0)
            wall += round_walls[-1]
            if between:
                between(wall / seconds)
        return {"times": times, "round_walls": round_walls}


def percentile_index(values: list, q: int) -> int:
    """Index in values of the nearest-rank percentile q."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[max(1, -(-len(values) * q // 100)) - 1]


def iqr_share(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


# -- per-layer metrics ------------------------------------------------------------------

def layer_metrics(tracer, rounds: int, sizes: list) -> dict:
    """sizes: input bytes of each op of the round, by op index."""
    agg = tracing.summarize(tracer.spans, rounds)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        a = agg.get(name, {"calls_per_round": 0, "self_per_round": 0.0,
                           "errors_per_round": 0, "items": []})
        metrics[f"{name}.calls"] = (a["calls_per_round"], "calls/round")
        metrics[f"{name}.self_s"] = (a["self_per_round"], "s/round")
        metrics[f"{name}.errors"] = (a["errors_per_round"], "count/round")

    def items(name):
        return agg.get(name, {"items": []})["items"]

    metrics["grid.holant.edges_sum"] = (
        sum(a["edges"] for a, _, _ in items("grid.holant")) / rounds, "count/round")
    metrics["grid.contract.patterns"] = (
        sum(a["patterns"] for a, _, _ in items("grid.contract")) / rounds, "count/round")
    searches = items("gadgets.gadget_search")
    search_ids = {i for i, s in enumerate(tracer.spans)
                  if s[tracing.NAME] == "gadgets.gadget_search"}
    in_search = sum(1 for _, _, parent in items("grid.contract") if parent in search_ids)
    metrics["gadgets.gadget_search.contracts_per_search"] = (
        in_search / len(searches) if searches else 0.0, "count")
    metrics["gadgets.gadget_search.hit_ratio"] = (
        sum(1 for a, _, _ in searches if a.get("hit")) / len(searches) if searches else 0.0,
        "ratio")
    metrics["linalg.vandermonde_solve.n_sum"] = (
        sum(a["n"] for a, _, _ in items("linalg.vandermonde_solve")) / rounds, "count/round")
    pf = items("planar.pfaffian")
    metrics["planar.pfaffian.dim_max"] = (max((a["dim"] for a, _, _ in pf), default=0), "count")
    metrics["planar.pfaffian.entry_bits_max"] = (max((a["bits"] for a, _, _ in pf), default=0),
                                                 "bits")
    metrics["formats.parse_grid.bytes"] = (
        sum(sizes[s[tracing.OP] % len(sizes)] for s in tracer.spans
            if s[tracing.NAME] == "formats.parse_grid") / rounds, "B/round")
    cases = [a.get("case") for a, _, _ in items("tractable.solve")]
    for case in (1, 2, 3):
        metrics[f"tractable.solve.case.{case}"] = (cases.count(case) / rounds, "count/round")
    for name, attr, prefix, points in CURVES:
        by_size: dict = {}
        for a, dur, _ in items(name):
            by_size.setdefault(a.get(attr), []).append(dur)
        for p in points:
            durs = by_size.get(p)
            metrics[f"{name}.s.{prefix}{p}"] = (statistics.median(durs) if durs else 0.0, "s")
    return metrics


# -- one workload -------------------------------------------------------------------------

def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "holant3", "cli.py")):
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HOLANT_WORKERS", None)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        gen = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
                              str(args.seed), work], cwd=ROOT, timeout=150)
        if gen.returncode != 0:
            print("perfbench: input generation failed", file=sys.stderr)
            return 2
        with open(os.path.join(work, "ops.json"), encoding="utf-8") as fh:
            ops = json.load(fh)
        return measure(args, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, ops: list) -> int:
    sys.path.insert(0, SRC)
    from holant3 import cli

    loop = Loop(cli, ops)
    loop.one(0)                     # untimed warm-up in this process
    loop.attempted = loop.failed = 0
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "src_lines": src_lines(),
              "ops_per_round": len(ops), "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
    correct = True
    if not args.trace:
        setup = SetupSampler(ops[0])
        setup.sample()
        res = loop.rounds(args.seconds, between=setup.upto)
        setup.upto(1.0)
        correct = setup.ok
        setup_s = statistics.median(setup.times)
        times = res["times"]
        level = TAIL_LEVEL[args.workload]
        at = percentile_index(times, level)
        tail = times[at]
        beyond = sum(1 for t in times if t > tail)
        rate = len(times) / sum(res["round_walls"])
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s.p50": (statistics.median(times), "s"),
            "op_s.tail": (tail, "s"),
            "ops_per_s": (rate, "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        report["tail"] = {"percentile": level, "samples": len(times), "beyond": beyond,
                          "op": ops[at % len(ops)]["size"], "short": beyond < TAIL_MIN_BEYOND}
        report["rounds"] = len(res["round_walls"])
        if beyond < TAIL_MIN_BEYOND:
            print(f"perfbench: op_s.tail has only {beyond} ops beyond p{level}, "
                  f"fewer than {TAIL_MIN_BEYOND}", file=sys.stderr)
    else:
        half = args.seconds / 2
        plain = loop.rounds(half)
        tracer = tracing.Tracer()
        tracer.install()
        traced = loop.rounds(half, tracer)
        rounds = len(traced["round_walls"])
        metrics = layer_metrics(tracer, rounds, loop.sizes)
        plain_rate = len(plain["times"]) / sum(plain["round_walls"])
        traced_rate = len(traced["times"]) / sum(traced["round_walls"])
        metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
        report["trace_overhead"] = {"untraced_ops_per_s": plain_rate,
                                    "traced_ops_per_s": traced_rate, "rounds_traced": rounds}
        fired = {s[tracing.NAME] for s in tracer.spans}
        missing = [n for n in PREDICTED_SPANS[args.workload] if n not in fired]
        report["spans_missing"] = missing
        report["spans_fired"] = sorted(fired)
        if missing:
            print(f"perfbench: predicted spans did not fire: {missing}", file=sys.stderr)
            correct = False
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    report["failed_frac"] = loop.failed / loop.attempted
    correct = correct and loop.failed == 0
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["correct"] = correct
    print_report(report)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(report) + "\n")
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": report["metrics"]}))
    return 0


def print_report(rep: dict):
    m = rep["machine"]
    print(f"perfbench {rep['workload']} seed={rep['seed']} seconds={rep['seconds']} "
          f"trace={rep['trace']}")
    print(f"  machine: nproc={m['nproc']} python={m['python']} cpu={m['cpu']}")
    print(f"  src_lines: {rep['src_lines']}   ops per round: {rep['ops_per_round']}")
    for name, mv in rep["metrics"].items():
        extra = ""
        if name == "op_s.tail":
            t = rep["tail"]
            extra = (f"  (p{t['percentile']} at op size {t['op']}, {t['beyond']} of "
                     f"{t['samples']} ops beyond{', SHORT' if t['short'] else ''})")
        print(f"  {name:<48} {mv['value']:>14.6g} {mv['unit']}{extra}")
    print(f"  {'failed_frac':<48} {rep['failed_frac']:>14.6g} ratio")
    if "rounds" in rep:
        print(f"  rounds: {rep['rounds']}")
    if "trace_overhead" in rep:
        t = rep["trace_overhead"]
        print(f"  tracing overhead: untraced {t['untraced_ops_per_s']:.4g} ops/s, "
              f"traced {t['traced_ops_per_s']:.4g} ops/s")
        print(f"  spans fired: {', '.join(rep['spans_fired'])}")


# -- all workloads, and the spread over recorded runs ----------------------------------

def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, timeout=900)
        status = status or proc.returncode
    return status


def summary() -> int:
    path = os.path.join(OUT, "runs.jsonl")
    if not os.path.exists(path):
        print("perfbench: no recorded runs", file=sys.stderr)
        return 2
    groups: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rep = json.loads(line)
            groups.setdefault((rep["workload"], rep["trace"]), []).append(rep)
    for (workload, traced), reps in sorted(groups.items()):
        print(f"{workload} trace={traced}: {len(reps)} runs, seeds "
              f"{sorted({r['seed'] for r in reps})}")
        for name in reps[-1]["metrics"]:
            values = [r["metrics"][name]["value"] for r in reps if name in r["metrics"]]
            unit = reps[-1]["metrics"][name]["unit"]
            print(f"  {name:<48} median {statistics.median(values):>12.6g} {unit:<12} "
                  f"IQR/median {iqr_share(values):.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="print median and IQR/median of every metric over recorded runs")
    args = parser.parse_args(argv)
    if args.summary:
        return summary()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
