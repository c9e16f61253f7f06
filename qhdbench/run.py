"""qhd benchmark: end-to-end timings per workload, or a traced per-module run.

    python3 qhdbench/run.py --workload identities --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the qhd package is imported from
its `src/`.  The benchmark writes the workload's instance files for the
seed, then runs verifications as a closed loop with one caller: each
verification is a fresh single-threaded interpreter that verifies every
instance of the workload, started only after the previous one ended.  Every
report is checked against `expected.json`: exit code 0, the recorded
(suite, label, status, float_status) list and check count, and at seed 0
the recorded sha256 of the JSON report.

--trace 0 prints verify_s, setup_s and peak_rss_mb (and error_rate, which is
`failed / attempted` of the result line).  --trace 1 makes three
verifications (untraced, scalar counters, module spans) and prints the
per-layer metrics.  All times are wall times rescaled to a reference
machine speed (see speed.py).  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS, write_instances  # noqa: E402
from layers import per_layer_names, unit_of  # noqa: E402

SETUP_REPS = 20
MIN_VERIFICATIONS = 3
DEADLINE_S = 170.0


class Runner:
    def __init__(self, workload: str, seed: int):
        self.work = os.path.join(HERE, "work", workload)
        self.files = write_instances(workload, seed, self.work)
        self.seed = seed
        self.started = time.monotonic()
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)["instances"]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")

    def job(self, **extra) -> dict:
        instances = [{"name": inst.name, "file": fname, "checks": inst.checks,
                      "backend": inst.backend, "format": inst.report_format}
                     for inst, fname in self.files]
        return dict(instances=instances, **extra)

    def worker(self, what: str, job: dict):
        """The worker's result, or None with the reason on stderr."""
        left = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), what, json.dumps(job)],
                cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            print(f"{what}: timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def problems(self, result) -> list:
        """Reasons the verification's reports are wrong; empty when correct."""
        if result is None:
            return ["verification failed to run"]
        out = []
        for got in result["instances"]:
            want = self.expected[got["name"]]
            if got["exit_code"] != 0:
                out.append(f"{got['name']}: exit code {got['exit_code']}")
            if got["checks"] != want["checks"] or got["verdicts"] != want["verdicts"]:
                out.append(f"{got['name']}: verdicts differ from the recorded ones")
            if self.seed == 0 and got["sha256"] != want["seed0_sha256"]:
                out.append(f"{got['name']}: JSON report digest {got['sha256']} differs")
        if len(result["instances"]) != len(self.files):
            out.append("missing instances")
        return out


def measure(r: Runner, seconds: float):
    """Verifications until `seconds` have passed, each followed by a set-up
    worker, so the set-up samples spread over the same time as the
    verifications instead of one burst."""
    results, setups, failed = [], [], 0
    start = time.monotonic()
    while len(results) < MIN_VERIFICATIONS or time.monotonic() - start < seconds:
        res = r.worker("verify", r.job(trace="off"))
        bad = r.problems(res)
        for msg in bad:
            print(f"incorrect: {msg}", file=sys.stderr)
        failed += bool(bad)
        results.append(res)
        setup = r.worker("setup", r.job(reps=SETUP_REPS))
        if setup is None:
            return len(results), failed, {}
        setups += setup["setup_s"]
        if time.monotonic() - r.started > DEADLINE_S:
            break
    ok = [res for res in results if res is not None]
    if not ok:
        return len(results), failed, {}
    print(f"  {len(ok)} verifications, {len(setups)} set-ups; median wall time of a "
          f"verification {statistics.median(x['wall_s'] for x in ok):.4g} s")
    return len(results), failed, {
        "verify_s": (statistics.median(x["verify_s"] for x in ok), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(x["peak_rss_mb"] for x in ok), "MB"),
    }


def measure_traced(r: Runner):
    """An untraced verification, one with scalar counters and one with
    module spans; the spans are written to the work directory's spans.json."""
    passes = {}
    failed = 0
    for mode in ("off", "counts", "spans"):
        res = r.worker("verify", r.job(trace=mode, spans_file="spans.json"))
        bad = r.problems(res)
        if res and "off" in passes and res["instances"] != passes["off"]["instances"]:
            bad.append(f"{mode}: traced reports differ from the untraced ones")
        for msg in bad:
            print(f"incorrect: {msg}", file=sys.stderr)
        failed += bool(bad)
        if res is not None:
            passes[mode] = res
    if len(passes) < 3:
        return 3, failed, {}
    counts = dict(passes["counts"]["counts"])
    counts.update(passes["spans"]["counts"])
    spans, scale = passes["spans"]["spans"], passes["spans"]["scale"]
    values = {name: 0 for name in per_layer_names()}
    for name, (calls, total, self_s) in spans.items():
        # A RunContext build is reported whole, children included.
        if name.startswith("cli.ctx."):
            values[f"{name}.s"] = total * scale
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s * scale
    values.update(counts)
    inv_calls = counts.get("scalar.inverse.calls", 0)
    values["scalar.inverse.distinct_ratio"] = (
        counts.get("scalar.inverse.distinct", 0) / inv_calls if inv_calls else 0)
    values["report.checks"] = sum(i["checks"] for i in passes["spans"]["instances"])
    values["trace.overhead"] = passes["spans"]["verify_s"] / passes["off"]["verify_s"] - 1
    names = set(per_layer_names())
    metrics = {k: (v, unit_of(k)) for k, v in values.items() if k in names}
    return 3, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qhd", "cli.py")):
        print(f"error: no qhd sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    r = Runner(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        attempted, failed, metrics = measure_traced(r)
    else:
        attempted, failed, metrics = measure(r, args.seconds)
    if not metrics:
        print("error: no measurement completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
