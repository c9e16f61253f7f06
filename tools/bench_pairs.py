"""Alternating parent/change pairs of the benchmark, summarized as BENCH_<PR>.json.

    python3 tools/bench_pairs.py [--seed N] PARENT_DIR CHANGE_DIR BENCH_8.json

PARENT_DIR and CHANGE_DIR are two source checkouts, each with its own
`qhdbench/`.  Each of the PAIRS (ten) pairs runs `qhdbench/run.py --workload W
--seed N --trace 0` for every workload in both checkouts, the parent first in
odd pairs and the change first in even ones, one run at a time; run.py's own
default sets the run length.  N is --seed, 0 unless given, so that a claim
measured on seed 0 can be checked again on a seed not used while writing it.
Then each checkout makes TRACED (three) `--trace 1` runs per workload for
the per-layer metrics, alternating which side runs first.

The summary holds, per workload and end-to-end metric of BENCHMARK.json,
each side's median, quartiles and runs, the number of pairs and the pairs
the change won (ties count for neither side), and the traced per-layer
metrics of both sides: the span times (each `*.self_s` and `cli.ctx.*.s`)
as `traced_spans`, each side's median, min and max over its traced runs, so
that a move of a median can be weighed against the spread of the runs, and
the counts as `traced_counts`, each the value all of a side's traced runs
read, or null where they disagree.  A failed traced run is left out of both.  A
run that fails or reads `correct: false` is kept in the summary and leaves
its pair undecided.  The summary is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
TRACED = 3


def command(seed: int) -> list:
    return ["qhdbench/run.py", "--seed", str(seed)]


def run_once(checkout: str, workload: str, trace: int, seed: int = 0):
    """The JSON result line of one run.py run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, *command(seed), "--workload", workload, "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{checkout} {workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def traced_value(results: list, name: str, unit: str):
    """Over the traced runs that did not fail: a span's median, min and max
    (each None without a run), or the count all runs agree on (None without
    a run or if they disagree)."""
    values = [r["metrics"][name]["value"] for r in results if r]
    if unit == "s":
        return {"median": statistics.median(values) if values else None,
                "min": min(values, default=None), "max": max(values, default=None)}
    if not values:
        return None
    return values[0] if all(v == values[0] for v in values) else None


def summarize(bench: dict, runs: dict, traced: dict, seed: int = 0) -> dict:
    """traced[workload][side] lists the --trace 1 results, missing until measured."""
    def per_layer(unit: str) -> list:
        return [m["name"] for m in bench["per_layer"] if m["unit"] == unit]

    out = {"command": " ".join(["python3", *command(seed), "--workload W --trace 0"]),
           "workloads": {}}
    for wl, sides in runs.items():
        pairs = list(zip(sides["parent"], sides["change"]))
        entry = {"pairs": len(pairs),
                 "correct": {side: [bool(r and r["correct"]) for r in rs]
                             for side, rs in sides.items()},
                 "metrics": {}}
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] if r and r["correct"] else None
                             for r in rs] for side, rs in sides.items()}
            won = sum(1 for p, c in zip(values["parent"], values["change"])
                      if p is not None and c is not None and (c < p if lower else c > p))
            entry["metrics"][name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **{side: dict(spread([v for v in vs if v is not None]), runs=vs)
                   for side, vs in values.items()},
                "pairs": len(pairs), "change_won": won}
        got = traced.get(wl, {})
        for field, unit in (("traced_counts", "count"), ("traced_spans", "s")):
            entry[field] = {
                name: {side: traced_value(got.get(side, []), name, unit)
                       for side in ("parent", "change")}
                for name in per_layer(unit)}
        out["workloads"][wl] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("out")
    ap.add_argument("--seed", type=int, default=0, help="instance seed of every run")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {wl: {"parent": [], "change": []} for wl in workloads}
    traced: dict = {}

    def write():
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summarize(bench, runs, traced, args.seed), fh, indent=1)
            fh.write("\n")

    for i in range(1, PAIRS + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for wl in workloads:
            for side in order:
                res = run_once(checkouts[side], wl, 0, args.seed)
                runs[wl][side].append(res)
                value = res["metrics"]["verify_s"]["value"] if res else None
                print(f"pair {i} {wl} {side}: verify_s {value}", file=sys.stderr)
        write()
    for wl in workloads:
        traced[wl] = {"parent": [], "change": []}
        for i in range(TRACED):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                traced[wl][side].append(run_once(checkouts[side], wl, 1, args.seed))
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
