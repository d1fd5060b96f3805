"""The four workloads: seeded inputs, the CLI argv of every op, and the
answer each op must print.

Run as a script (in its own process, so that instance generation and
the oracles do not count towards the measured process's memory):

    python3 perfbench/workloads.py <workload> <seed> <out_dir>

writes the input files and <out_dir>/ops.json. Each op is
{"argv": [...], "kind": str, "expect": {...}}; ops are listed in round
order, and a run repeats whole rounds, so every run times the same mix.
The round order spreads each size class evenly over the round (see
spread), and the first op of the round is also the warm-up op.

Why these workloads, and their caps (seed-commit timings, 2-core Xeon):

* oracle_grid - brute-force `eval` on random dense [x0..x3] grids, 27-42
  edges. Dense signatures never prune, so the grid DFS is nearly all of
  the time; 42 edges takes about 1 s per op, 48 about 4 s.
* reductions - many small `grid` evaluations where per-call set-up
  dominates: `contract`, `search-gadget` (hits and exhaustive misses,
  up to 4/4 for LLL, 3/3 for LR), `interp-demo` with 1-3 placeholders
  and `x3c-count` with 12-18 sets, where exact-one prunes almost all.
  LR at 4/4 takes 2.7 s and 4 placeholders 31 s, so both stay out.
* planar_pipeline - `solve-planar-cover` on bead/ladder-expanded planar
  [0,1,1,0] grids of 10-14 vertices (40-56-vertex matchgate graphs) and
  `pm-count` on weighted planar graphs of 12-20 vertices; the grid DFS
  does no work. The witness search in count_pm is exponential and its
  cost depends on the instance and on the string order of vertex ids
  (the ids follow the test suite's tuple style). The slowest of 400
  14-vertex instances took 0.28 s. At 16 vertices a few instances in a
  hundred spend 0.4-0.8 s in the search, which moves a run's throughput
  by a third; at 20, 3 of 80 took over 1 s and at 24, 13 of 60 did
  (some over 5 s). Hence the 14-vertex cap.
* tractable_scale - `solve` on grids of 3k-30k edges for every tractable
  class: affine even and odd, generalized equality over 1-20 components,
  degenerate; only polynomial paths run. The 30k-edge affine solve takes
  about 2.4 s. An odd affine system on a 3-regular grid is always
  consistent (a contradiction needs an odd set of equations that uses
  every variable an even number of times, but each equation has three
  terms), so no valid input reaches the inconsistent branch. Values are
  kept below 4300 decimal digits, the interpreter's int-to-str limit,
  which the CLI does not lift: a larger value ends in a traceback.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracles  # noqa: E402

WORKLOADS = ("oracle_grid", "reductions", "planar_pipeline", "tractable_scale")


class Builder:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.ops: list = []
        self.n_files = 0

    def write(self, obj) -> str:
        path = os.path.join(self.out_dir, f"in{self.n_files}.json")
        self.n_files += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
        return path

    def op(self, argv: list, kind: str, expect: dict, size=None):
        self.ops.append({"argv": argv + ["--format", "json"], "kind": kind,
                         "expect": expect, "size": size})


def _dense_sig(rng) -> list:
    return [rng.randint(1, 9) for _ in range(4)]


# -- oracle_grid -----------------------------------------------------------------

# (edges, instances per round): six ops on either side of the nine
# 33-edge ones, so the median sits in the middle of that cluster, and
# the tail percentile in the middle of the three 39-edge ones; 42 edges
# top the curve
ORACLE_GRID_MIX = ((27, 3), (30, 3), (33, 9), (36, 2), (39, 3), (42, 1))


def build_oracle_grid(rng, b: Builder):
    for edges, count in ORACLE_GRID_MIX:
        for _ in range(count):
            k = edges // 3
            f = _dense_sig(rng)
            pairs = gen.random_pairing(rng, k)
            path = b.write(gen.grid_json(f, pairs))
            value = oracles.eqvar_holant(f, oracles.left_neighbours(pairs), k)
            b.op(["eval", "--input", path, "--max-edges", str(edges)], "value",
                 {"holant": gen.fstr(value)}, size=edges)


# -- reductions ------------------------------------------------------------------

def _normalized_with_rational_eigs(rng):
    """[1,a,b,c] with a, b, c > 0 whose straddled matrix [[1,b],[a,c]]
    has distinct nonzero rational eigenvalues lam < mu."""
    while True:
        a = rng.randint(1, 5)
        c = rng.randint(1, 5)
        delta = abs(1 - c) + rng.randint(1, 6)
        if delta == 1 + c:
            continue
        b = Fraction(delta * delta - (1 - c) ** 2, 4 * a)
        lam = Fraction(1 + c - delta, 2)
        mu = Fraction(1 + c + delta, 2)
        return [1, a, b, c], lam, mu


def _symmetric_lr_sig(rng) -> list:
    a = rng.randint(1, 6)
    return [rng.randint(1, 6), a, a, rng.randint(1, 6)]


# Contract cost doubles with each link (a dense f never prunes), so chain
# lengths are fixed rather than drawn from the seed. The nine length-6
# chains put a cluster of equal-cost ops at the median: twelve ops of a
# round are cheaper (the short chains, probe, hub, exact covers, interp
# 1-2, the LLL hit) and the six length-7 chains make thirteen dearer
# ones, so the median sits in the middle of the cluster, not on its edge
# where it would jump between the two groups from run to run. The two
# exhaustive LLL 4/4 misses are the dearest ops, and the tail percentile
# sits between them.
CHAIN_LENGTHS = (2, 4, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 8, 10)


def build_reductions(rng, b: Builder):
    contracts = []
    for s in CHAIN_LENGTHS:
        f = _dense_sig(rng)
        contracts.append((gen.chain_gadget_json(f, s), oracles.chain_tensor(f, s), "LR", s))
    f = _dense_sig(rng)
    contracts.append((gen.hub_gadget_json(f), oracles.hub_tensor(f), "LLL", "hub"))
    f = _dense_sig(rng)
    u = [rng.randint(1, 5), rng.randint(1, 5)]
    contracts.append((gen.probe_gadget_json(f, u), oracles.probe_tensor(f, u), "R", "probe"))

    searches = []
    # hits: targets realised by a gadget inside the bounds, scaled by r > 0
    f = _dense_sig(rng)
    r = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    hub = [r * v for v in oracles.hub_tensor(f)]
    searches.append((f, [hub[0], hub[1], hub[3], hub[7]], "LLL", 3, 2, True))
    f = _symmetric_lr_sig(rng)
    chain = oracles.chain_tensor(f, 3)
    searches.append((f, [r * chain[0], r * chain[1], r * chain[3]], "LR", 3, 3, True))
    # misses: a nonnegative f only yields nonnegative contractions, so a
    # target with both signs is out of reach and the search is exhaustive
    for _ in range(2):
        f = _dense_sig(rng)
        searches.append((f, [1, -rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)],
                         "LLL", 4, 4, False))
    f = _dense_sig(rng)
    searches.append((f, [rng.randint(1, 5), -rng.randint(1, 5), rng.randint(1, 5)],
                     "LR", 3, 3, False))

    interps = []
    for n in (1, 2, 3):
        form, lam, mu = _normalized_with_rational_eigs(rng)
        exp = oracles.demo_expectations(form, lam, mu, n)
        interps.append((form, lam, mu, n, exp))

    covers = []
    for n_sets in (12, 14, 15, 16, 18):
        sets = gen.random_set_system(rng, n_sets)
        covers.append((sets, oracles.exact_cover_count(sets)))

    ops = []
    for gadget, tensor, pols, size in contracts:
        path = b.write(gadget)
        ops.append(("contract", ["contract", "--input", path, "--max-edges", "30"],
                    {"entries": [gen.fstr(v) for v in tensor], "polarities": pols},
                    f"contract.{size}"))
    for f, target, pols, mf, me, hit in searches:
        argv = ["search-gadget", "--signature", gen.sig_str(f), "--target", gen.sig_str(target),
                "--max-f", str(mf), "--max-eq", str(me), "--polarities", pols]
        ops.append(("search", argv, {"hit": hit, "target": [gen.fstr(v) for v in target],
                                     "polarities": pols},
                    f"search.{pols}.{mf}{me}.{'hit' if hit else 'miss'}"))
    for form, lam, mu, n, exp in interps:
        argv = ["interp-demo", "--signature", gen.sig_str(form), "--occurrences", str(n),
                "--max-edges", "60"]
        ops.append(("interp", argv, {"lam": gen.fstr(lam), "mu": gen.fstr(mu),
                                     "chains": [gen.fstr(v) for v in exp["chains"]],
                                     "projected": gen.fstr(exp["projected"])}, f"interp.{n}"))
    for sets, count in covers:
        path = b.write({"sets": sets})
        ops.append(("value", ["x3c-count", "--input", path, "--max-edges", "60"],
                    {"exact_covers": str(count)}, f"x3c.{len(sets)}"))
    for kind, argv, expect, size in ops:
        b.op(argv, kind, expect, size=size)


# -- planar_pipeline ---------------------------------------------------------------

# (grid vertices, instances per round) for solve-planar-cover, and the
# Apollonian step counts of the pm-count graphs (3 + steps vertices).
# 12-vertex covers sit at the median, 14-vertex ones at the tail; many
# instances per size, since witness-search cost varies by instance.
PLANAR_COVER_MIX = ((10, 5), (12, 12), (14, 18))
PM_STEPS = (9, 11, 13, 15, 17)


def build_planar_pipeline(rng, b: Builder):
    for n_vertices, count in PLANAR_COVER_MIX:
        for _ in range(count):
            e = gen.embedded_instance(rng, n_vertices)
            var = {v: k for k, v in enumerate(v for v, s in e.side.items() if s == "R")}
            nbrs: dict = {v: [] for v, s in e.side.items() if s == "L"}
            for (lv, _), (rv, _) in e.edges:
                nbrs[lv].append(var[rv])
            value = oracles.eqvar_holant([0, 1, 1, 0], list(nbrs.values()), len(var))
            path = b.write(e.to_json([0, 1, 1, 0]))
            b.op(["solve-planar-cover", "--input", path], "value", {"cover_count": gen.fstr(value)},
                 size=n_vertices)
    for steps in PM_STEPS:
        obj = gen.weighted_planar_json(rng, steps, rng.randint(0, 2))
        n = len(obj["vertices"])
        value = oracles.matching_sum(n, obj["edges"])
        b.op(["pm-count", "--input", b.write(obj)], "value", {"pm_count": gen.fstr(value)},
             size=f"pm.{n}")


# -- tractable_scale -------------------------------------------------------------

# (edges, classes) per round. Of the nineteen ops, the median falls in
# the middle of the six 3000-edge affine solves (the six other 3000-edge
# ops are cheaper, the seven larger ones dearer) and the tail percentile
# in the middle of the four 9000-edge affine solves, where the GF(2)
# rank is a large share; the 30k affine solve is the top of the curve.
TRACTABLE_MIX = (
    (3000, ("affine_even", "affine_odd", "gen_eq", "degenerate")),
    (3000, ("affine_even", "affine_odd", "gen_eq", "degenerate")),
    (3000, ("affine_even", "affine_odd", "gen_eq", "degenerate")),
    (9000, ("affine_even", "affine_odd", "affine_even", "affine_odd", "gen_eq", "degenerate")),
    (30000, ("affine_even",)),
)


def _tractable_instance(rng, cls: str, edges: int):
    """(f, pairs, value); values stay below 4300 digits."""
    k = edges // 3
    if cls == "gen_eq":
        n_parts = rng.choice((1, 2, 5, 20))
        cuts = sorted(rng.sample(range(2, k - 1), n_parts - 1)) if n_parts > 1 else []
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [k])]
        pairs = gen.union_of_pairings([(s, gen.connected_pairing(rng, s)) for s in sizes])
        x0, x3 = rng.choice(((1, 2), (2, 1), (1, Fraction(1, 2)), (Fraction(1, 2), 1)))
        f = [x0, 0, 0, x3]
        value = oracles.gen_equality_holant(x0, x3, oracles.left_neighbours(pairs), k)
        return f, pairs, value
    pairs = gen.connected_pairing(rng, k)
    scale = rng.choice((1, 2, Fraction(1, 2)))
    if cls == "degenerate":
        u = [rng.randint(1, 4), rng.randint(1, 4)]
        c = Fraction(scale) / (u[0] ** 3 + u[1] ** 3)
        f = [c * u[0] ** (3 - w) * u[1] ** w for w in range(4)]
        return f, pairs, oracles.degenerate_holant(c, u, k)
    parity = 0 if cls == "affine_even" else 1
    f = [scale, 0, scale, 0] if parity == 0 else [0, scale, 0, scale]
    value = oracles.affine_holant(scale, parity, oracles.left_neighbours(pairs), k)
    return f, pairs, value


def build_tractable_scale(rng, b: Builder):
    for edges, classes in TRACTABLE_MIX:
        for cls in classes:
            f, pairs, value = _tractable_instance(rng, cls, edges)
            path = b.write(gen.grid_json(f, pairs))
            b.op(["solve", "--input", path], "value", {"value": gen.fstr(value)},
                 size=f"{cls}.{edges}")


BUILDERS = {
    "oracle_grid": build_oracle_grid,
    "reductions": build_reductions,
    "planar_pipeline": build_planar_pipeline,
    "tractable_scale": build_tractable_scale,
}


def spread(ops: list) -> list:
    """Round order in which the ops of each size class sit evenly apart.

    The machine's speed swings over seconds; a class run as one block
    meets one or two of those swings per round, a spread-out class meets
    them all, so the class's times (the median and the tail percentile
    each pick one class) vary less from run to run."""
    count: dict = {}
    for op in ops:
        count[op["size"]] = count.get(op["size"], 0) + 1
    seen: dict = {}
    keyed = []
    for pos, op in enumerate(ops):
        j = seen.get(op["size"], 0)
        seen[op["size"]] = j + 1
        keyed.append(((j + 0.5) / count[op["size"]], pos))
    return [ops[pos] for _, pos in sorted(keyed)]


def main(argv) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    os.makedirs(out_dir, exist_ok=True)
    b = Builder(out_dir)
    BUILDERS[workload](random.Random(f"{workload}:{seed}"), b)
    with open(os.path.join(out_dir, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(spread(b.ops), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
