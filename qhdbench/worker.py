"""One measurement in a fresh interpreter; prints one JSON line.

    python3 worker.py setup  '<job json>'
    python3 worker.py verify '<job json>'

A job names the instance files (relative to the working directory, so the
report's `source` field is fixed) with their suites, backend and report
format.  `setup` times `resolve_source` + `RunContext` per instance, a
number of times.  `verify` times `cli.run` plus report rendering, summed
over the instances, with tracing `off`, `counts` (scalar call counters
only) or `spans` (per-module spans and size counters).  Times are reported
in reference seconds (see speed.py).  The qhd package is imported from
PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from qhd import algebra, cli, heisenberg, quasihopf, report, twisted
from qhd.scalar import CycScalar

from layers import ALGEBRA, CTX, HEISENBERG, QUASIHOPF, TWISTED
from speed import SpeedProbe
from tracer import Tracer


def _nnz_pairs(triples):
    return sum(len(lhs.entries) + len(rhs.entries) for _, lhs, rhs in triples)


def _materialise(args):
    # The family's tensors are built by the caller's generator; building them
    # before the span opens keeps that work out of the comparison's self time.
    self, label, name, triples = args
    return self, label, name, list(triples)


def install_spans(tr: Tracer):
    """Wrap every measured public function of the qhd modules in a span."""
    measures = {
        "multiply": lambda a, r: {"algebra.multiply.in_nnz": len(a[1].entries) + len(a[2].entries),
                                  "algebra.multiply.out_nnz": len(r.entries)},
        "solve_linear": lambda a, r: {"algebra.solve_linear.rows": len(a[0]),
                                      "algebra.solve_linear.nnz": sum(map(len, a[0]))},
    }
    for mod, names in ((algebra, ALGEBRA), (quasihopf, QUASIHOPF),
                       (heisenberg, HEISENBERG), (twisted, TWISTED)):
        prefix = mod.__name__.split(".")[-1]
        for name in names:
            fn = getattr(mod, name)
            tr.patch_function(fn, tr.spanned(f"{prefix}.{name}", fn, measure=measures.get(name)))
    tr.patch_function(cli.parse_input, tr.spanned("cli.parse_input", cli.parse_input))
    for name, fn in list(cli.SUITES.items()):
        tr.patch_item(cli.SUITES, name, tr.spanned(f"cli.suite.{name}", fn))
    for name in CTX:
        fn = cli.RunContext.__dict__[name]
        tr.patch_method(cli.RunContext, name, tr.spanned(f"cli.ctx.{name}", fn))
    rec = report.Recorder
    tr.patch_method(rec, "tensor_check", tr.spanned(
        "report.compare", rec.tensor_check,
        measure=lambda a, r: {"report.compared_nnz": len(a[3].entries) + len(a[4].entries)}))
    tr.patch_method(rec, "family_check", tr.spanned(
        "report.compare", rec.family_check, prepare=_materialise,
        measure=lambda a, r: {"report.compared_nnz": _nnz_pairs(a[3])}))


def install_counts(tr: Tracer):
    """Count scalar multiplications and inversions, with no spans."""
    tr.patch_method(CycScalar, "__mul__", tr.counted("scalar.mul", CycScalar.__mul__))
    tr.patch_method(CycScalar, "inverse", tr.counted(
        "scalar.inverse", CycScalar.inverse, distinct=lambda a: (a[0].order, a[0].coeffs)))


def _spec(inst: dict) -> cli.RunSpec:
    return cli.RunSpec(source=f"file:{inst['file']}", suites=tuple(inst["checks"].split(",")),
                       backend=inst["backend"], report_format=inst["format"])


def _render(rep: cli.Report) -> str:
    return rep.to_json() if rep.spec.report_format == "json" else rep.to_text()


def setup(job: dict) -> dict:
    """Set-up times in reference seconds, each summed over the instances; the
    first round fills the scalar caches and is not kept.  A kernel sample
    before each round gives the speed."""
    specs = [_spec(inst) for inst in job["instances"]]
    probe = SpeedProbe()
    samples = []
    for _ in range(job["reps"] + 1):
        probe.sample()
        total = 0.0
        for spec in specs:
            start = time.perf_counter()
            cli.RunContext(cli.resolve_source(spec))
            total += time.perf_counter() - start
        samples.append(total)
    scale = probe.scale()
    return {"setup_s": [s * scale for s in samples[1:]]}


def verify(job: dict) -> dict:
    tr = Tracer()
    mode = job["trace"]
    render = _render
    if mode == "spans":
        install_spans(tr)
        render = tr.spanned("report.render", _render)
    elif mode == "counts":
        install_counts(tr)
    elif mode != "off":
        raise ValueError(f"unknown trace mode {mode!r}")
    results, elapsed = [], 0.0
    try:
        with SpeedProbe() as probe:
            for inst in job["instances"]:
                spec = _spec(inst)
                start = time.perf_counter()
                rep = cli.run(spec)
                render(rep)
                elapsed += time.perf_counter() - start
                results.append(rep)
    finally:
        tr.restore()
    out = {
        "wall_s": elapsed,
        "scale": probe.scale(),
        "verify_s": elapsed * probe.scale(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instances": [],
        "counts": dict(tr.counts),
        "spans": {name: list(v) for name, v in tr.self_times().items()},
    }
    for inst, rep in zip(job["instances"], results):
        doc = rep.to_dict()
        out["instances"].append({
            "name": inst["name"],
            "exit_code": rep.exit_code,
            "checks": doc["summary"]["checks"],
            "verdicts": [[e["suite"], e["label"], e["status"], e.get("float_status")]
                         for e in doc["suites"]],
            "sha256": hashlib.sha256(rep.to_json().encode("utf-8")).hexdigest(),
        })
    if mode == "spans" and job.get("spans_file"):
        with open(job["spans_file"], "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)
    return out


def main(argv) -> int:
    what, job = argv[1], json.loads(argv[2])
    src = os.path.realpath(os.environ.get("PYTHONPATH", "").split(os.pathsep)[0])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"error: qhd imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup": setup, "verify": verify}[what](job)
    print(json.dumps(result))
    if what == "verify" and any(i["exit_code"] for i in result["instances"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
