"""Tests of the benchmark itself.

    python3 -m pytest qhdbench

Files go to the benchmark's ignored `work/tests` directory.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

from qhd import cli  # noqa: E402

import worker  # noqa: E402
from inputs import (  # noqa: E402
    WORKLOADS, cyclic_instance, relabel, render, s3_sign_instance, untwisted_instance,
    write_instances)
from tracer import Tracer, leftover_wrappers, qhd_modules  # noqa: E402

WORK = os.path.join(HERE, "work", "tests")

SMALL = (
    cyclic_instance("z3_k1", 3, 1, "all"),
    s3_sign_instance("s3_sign", "axioms,twist,lemma41,heisenberg,theorems,section5"),
    untwisted_instance("z2_untwisted", 2, "all"),
)


def _write(inst, seed) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{inst.name}-{seed}.qhd")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(relabel(inst, seed)))
    return path


def _job(inst, path, trace):
    return {"trace": trace, "instances": [{"name": inst.name, "file": path, "checks": inst.checks,
                                           "backend": inst.backend, "format": "json"}]}


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_inputs_parse(workload, seed):
    for inst, fname in write_instances(workload, seed, os.path.join(WORK, str(seed))):
        group, w = cli.parse_input(os.path.join(WORK, str(seed), fname))
        assert group.order == len(inst.cayley)
        assert w.root_order == inst.root_order


def test_nonzero_seed_moves_the_identity():
    moved = [inst.name for insts in WORKLOADS.values() for inst in insts
             if relabel(inst, 11).cayley[0][0] != 0]
    assert moved
    assert all(relabel(inst, 0) == inst for insts in WORKLOADS.values() for inst in insts)


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: i.name)
def test_verdicts_do_not_depend_on_labels(inst):
    def verdicts(seed):
        spec = cli.RunSpec(source=f"file:{_write(inst, seed)}",
                           suites=tuple(inst.checks.split(",")))
        rep = cli.run(spec)
        return rep.exit_code, [(s, i.label, i.status) for s, rec in rep.suites
                               for i in rec.items]

    code, base = verdicts(0)
    assert code == 0 and base
    assert verdicts(5) == (code, base)


def test_traced_reports_are_byte_identical_and_wrappers_removed():
    def bindings():
        out = {}
        for mod in qhd_modules():
            for attr, value in vars(mod).items():
                out[(mod.__name__, attr)] = value
                if isinstance(value, type):
                    out.update({(mod.__name__, attr, k): v for k, v in vars(value).items()})
        out.update({("SUITES", k): v for k, v in cli.SUITES.items()})
        return out

    inst = SMALL[0]
    path = _write(inst, 0)
    before = bindings()
    plain = worker.verify(_job(inst, path, "off"))
    spans = worker.verify(_job(inst, path, "spans"))
    counts = worker.verify(_job(inst, path, "counts"))
    assert spans["instances"] == plain["instances"] == counts["instances"]
    assert spans["spans"]["algebra.multiply"][0] > 0
    assert spans["counts"]["algebra.multiply.in_nnz"] > 0
    assert counts["counts"]["scalar.mul.calls"] > 0
    assert leftover_wrappers() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_install_reaches_every_binding():
    tr = Tracer()
    worker.install_spans(tr)
    try:
        import qhd
        from qhd import algebra, heisenberg, quasihopf, twisted
        bound = [qhd.multiply, algebra.multiply, quasihopf.multiply, heisenberg.multiply,
                 cli.multiply, twisted.check_cocycle, cli.check_cocycle, cli.RunContext.derived]
        assert all(getattr(f, "__qhdbench_wrapped__", False) for f in bound)
    finally:
        tr.restore()
    assert leftover_wrappers() == []


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 7.0, 0],
                ["c", 2.0, 3.0, 1]]
    got = tr.self_times()
    assert got["a"] == (1, 10.0, 5.0)
    assert got["b"] == (2, 5.0, 4.0)
    assert got["c"] == (1, 1.0, 1.0)
