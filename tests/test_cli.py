"""Front-end behavior: sources, suites, reports, determinism, exit codes.

The golden JSON reports in tests/data/golden/ pin every label, name, status
and item order of a full run.  Regenerate them from the repository root with

    for ex in trivial:4 v4:3 zn:4:1; do
      PYTHONPATH=src python -m qhd.cli --example $ex --report json \
        > tests/data/golden/$(echo $ex | tr : _).json; done
    cd tests/data && for f in s3_sign s3_trivial; do
      PYTHONPATH=../../src python -m qhd.cli --input $f.qhd --report json \
        > golden/$f.json; done
    PYTHONPATH=../../src python -m qhd.cli --input s3_sign.qhd --backend float \
      --report json > golden/s3_sign_float.json

and the probe alone, which test_probe_derives_nothing pins, with

    PYTHONPATH=src python -m qhd.cli --example zn:4:1 --check invertibility \
      --report json > tests/data/golden/zn_4_1_invertibility.json
    cd tests/data && PYTHONPATH=../../src python -m qhd.cli --input s3_sign.qhd \
      --check invertibility --report json > golden/s3_sign_invertibility.json
"""

import gc
import json
import os

import pytest

from qhd import cli, heisenberg
from qhd.algebra import StructureConstants
from qhd.cli import (
    MAX_GROUP_ORDER,
    MAX_ROOT_ORDER,
    InputError,
    RunSpec,
    _products_equal,
    main,
    parse_input,
    resolve_builtin,
    run,
)
from qhd.heisenberg import canonical_element
from qhd.scalar import CycScalar
from qhd.twisted import FiniteGroup, GroupError


DATA = os.path.join(os.path.dirname(__file__), "data")


def run_spec(source, suites=("all",), **kw):
    return run(RunSpec(source=source, suites=suites, **kw))


def golden(name):
    with open(os.path.join(DATA, "golden", name), encoding="utf-8") as fh:
        return fh.read()


def test_builtin_ids():
    assert resolve_builtin("zn:4:1").group.order == 4
    assert resolve_builtin("trivial:3").root_order == 1
    assert resolve_builtin("v4:2").group.order == 4
    for bad in ("zn:4", "zn:0:1", "nope:1", "v4:9", "zn:x:y"):
        with pytest.raises(InputError):
            resolve_builtin(bad)


def test_full_run_passes_and_exit_zero():
    rep = run_spec("zn:3:1")
    assert rep.exit_code == 0
    total, passed, failed, skipped = rep.counts()
    assert failed == 0 and skipped == 0 and passed == total


def test_invertibility_suite_on_twisted_example_passes():
    # the expected outcome IS non-invertibility, so the suite passes
    rep = run_spec("zn:2:1", suites=("invertibility",))
    assert rep.exit_code == 0
    items = {i.label: i for _, rec in rep.suites for i in rec.items}
    assert "not two-sided invertible" in items["5.r-W"].detail
    assert "zeta_2^1" in items["5.r-criterion"].detail


def test_hopf_degeneration_items_only_for_trivial():
    rep = run_spec("trivial:2", suites=("theorems",))
    labels = [i.label for _, rec in rep.suites for i in rec.items]
    assert "hopf.pentagon" in labels
    rep = run_spec("zn:2:1", suites=("theorems",))
    labels = [i.label for _, rec in rep.suites for i in rec.items]
    assert "hopf.pentagon" not in labels


def test_json_report_schema_and_determinism():
    spec = RunSpec(source="zn:2:1", suites=("axioms", "invertibility"),
                   report_format="json")
    a = run(spec).to_json()
    b = run(spec).to_json()
    assert a == b  # byte-identical for a fixed spec
    doc = json.loads(a)
    assert set(doc) == {"spec", "suites", "summary"}
    assert doc["spec"]["source"] == "zn:2:1"
    assert doc["summary"]["failed"] == 0
    for entry in doc["suites"]:
        assert {"suite", "label", "name", "status", "discrepancies"} <= set(entry)
        assert "millis" not in entry  # timings stay opt-in to keep output stable


def test_suite_selection_and_unknown_suite():
    rep = run_spec("zn:2:1", suites=("axioms",))
    assert [name for name, _ in rep.suites] == ["axioms"]
    with pytest.raises(InputError):
        RunSpec(source="zn:2:1", suites=("bogus",)).selected()
    with pytest.raises(InputError, match="no suite selected"):
        RunSpec(source="zn:2:1", suites=()).selected()
    assert main(["--example", "zn:2:1", "--check", ","]) == 2


def test_dependency_order_normalized():
    spec = RunSpec(source="zn:2:1", suites=("theorems", "axioms", "theorems"))
    assert spec.selected() == ("axioms", "theorems")


def test_parse_input_cyclic_shorthand(tmp_path):
    p = tmp_path / "in.qhd"
    p.write_text("# comment\ngroup cyclic 4\ncocycle cyclic 1\n")
    group, w = parse_input(str(p))
    from qhd.twisted import cyclic_cocycle

    ref = cyclic_cocycle(4, 1)
    assert group.cayley == ref.group.cayley
    assert w.exponents == ref.exponents and w.root_order == 4


def test_parse_input_explicit_tables_roundtrip(tmp_path):
    p = tmp_path / "z2.qhd"
    p.write_text(
        "group table 2\n0 1\n1 0\ncocycle table 2\n1 1 1 -> 1\n")
    group, w = parse_input(str(p))
    from qhd.twisted import cyclic_cocycle

    ref = cyclic_cocycle(2, 1)
    assert w.exponents == ref.exponents
    rep_file = run_spec(f"file:{p}", suites=("axioms",))
    rep_builtin = run_spec("zn:2:1", suites=("axioms",))
    assert [i.status for _, r in rep_file.suites for i in r.items] == \
        [i.status for _, r in rep_builtin.suites for i in r.items]


def test_parse_input_product_group(tmp_path):
    p = tmp_path / "v4.qhd"
    p.write_text("group product cyclic 2 cyclic 2\ncocycle trivial\n")
    group, w = parse_input(str(p))
    assert group.order == 4 and check_ok(w)


def check_ok(w):
    from qhd.twisted import check_cocycle

    return check_cocycle(w).ok


def test_parse_input_errors(tmp_path):
    cases = [
        ("latin", "group table 2\n0 1\n1 1\ncocycle trivial\n", "repeats"),
        ("syntax", "group cyclic 2\ncocycle table 2\n1 1 -> 1\n", "expected `a b c -> e`"),
        ("stanza", "cocycle trivial\n", "expected `group"),
        ("range", "group cyclic 2\ncocycle table 2\n1 1 3 -> 1\n", "out of range"),
        ("repeat", "group cyclic 2\ncocycle table 2\n1 1 1 -> 1\n1 1 1 -> 0\n",
         ":4: (1, 1, 1) repeats the entry of line 3"),
    ]
    for name, text, needle in cases:
        p = tmp_path / f"{name}.qhd"
        p.write_text(text)
        with pytest.raises(InputError) as exc:
            parse_input(str(p))
        assert needle in str(exc.value), name
    with pytest.raises(InputError):
        parse_input(str(tmp_path / "missing.qhd"))


def test_parse_input_non_cocycle_table(tmp_path):
    p = tmp_path / "bad.qhd"
    p.write_text("group cyclic 3\ncocycle table 3\n1 1 1 -> 1\n")
    with pytest.raises(InputError) as exc:
        parse_input(str(p))
    assert "cocycle identity fails at" in str(exc.value)


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--example", "zn:2:1", "--check", "axioms"]) == 0
    capsys.readouterr()
    assert main(["--example", "zn:2:bad"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    bad = tmp_path / "bad.qhd"
    bad.write_text("group cyclic 3\ncocycle table 3\n1 1 1 -> 1\n")
    assert main(["--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cocycle identity fails" in err


def test_main_empty_example_is_not_a_file(tmp_path, monkeypatch, capsys):
    # an empty --example is a bad builtin id, not the file "None"
    (tmp_path / "None").write_text("group cyclic 2\ncocycle trivial\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--input", "None", "--check", "axioms"]) == 0
    capsys.readouterr()
    assert main(["--example", "", "--check", "axioms"]) == 2
    assert "unknown builtin example" in capsys.readouterr().err


def test_main_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--example", "trivial:2", "--check", "axioms",
                 "--report", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0
    assert "report written" in capsys.readouterr().out


def test_main_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.qhd"
    bad.write_bytes("group cyclic 2  # gr\u00f6\u00dfe\ncocycle trivial\n".encode("latin-1"))
    assert main(["--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err


def test_main_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.txt"
    assert main(["--example", "trivial:2", "--check", "axioms", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(out) in err
    assert not out.exists()
    # an empty path is a path that cannot be written, not a request for stdout
    assert main(["--example", "trivial:2", "--check", "axioms", "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write")


def test_products_equal_ignores_cell_order():
    one, two = CycScalar.one(1), CycScalar.from_rational(1, 2)
    sc = StructureConstants(4, 1, {(0, 0): ((0, one), (1, two)), (1, 2): ((3, one),)}, {0: one})
    reordered = StructureConstants(4, 1, {(1, 2): ((3, one),), (0, 0): ((1, two), (0, one))},
                                   {0: one})
    assert sc.table != reordered.table  # the tuples differ, the products do not
    assert _products_equal(sc, reordered)
    changed = StructureConstants(4, 1, {(1, 2): ((3, one),), (0, 0): ((1, one), (0, one))},
                                 {0: one})
    assert not _products_equal(sc, changed)
    assert not _products_equal(sc, StructureConstants(4, 1, dict(sc.table), {1: one}))


def test_float_backend_cross_check_agrees():
    rep = run_spec("zn:3:1", suites=("axioms", "twist"), backend="float")
    assert rep.exit_code == 0
    for _, rec in rep.suites:
        for item in rec.items:
            if item.float_status is not None:
                assert item.float_status == item.status


def test_timings_flag_adds_millis():
    rep = run_spec("zn:2:1", suites=("axioms",), timings=True)
    items = [i for _, rec in rep.suites for i in rec.items]
    assert all(i.millis is not None for i in items)


def test_text_report_contains_summary_line():
    rep = run_spec("zn:2:1", suites=("axioms",))
    text = rep.to_text()
    assert text.startswith("source: zn:2:1")
    assert "summary:" in text and "0 failed" in text


def test_failed_prerequisite_skips_dependents(monkeypatch):
    import qhd.cli as cli

    def broken(ctx, rec):
        rec.bool_check("forced", "forced failure for dependency testing", False)

    monkeypatch.setitem(cli.SUITES, "axioms", broken)
    rep = run_spec("zn:2:1", suites=("axioms", "twist", "heisenberg"))
    assert rep.exit_code == 1
    by_suite = {name: rec for name, rec in rep.suites}
    assert [i.status for i in by_suite["axioms"].items] == ["fail"]
    assert [i.status for i in by_suite["twist"].items] == ["skipped"]
    assert "prerequisite suite axioms failed" in by_suite["twist"].items[0].detail
    assert [i.status for i in by_suite["heisenberg"].items] == ["skipped"]


def test_skipped_prerequisite_skips_dependents(monkeypatch):
    # a suite whose prerequisite was skipped is skipped too, so no suite
    # below a failed one runs on its data
    monkeypatch.setitem(cli.SUITES, "axioms", _broken_axioms)
    rep = run_spec("zn:3:1")
    assert rep.exit_code == 1
    details = {name: [(i.status, i.detail) for i in rec.items] for name, rec in rep.suites}
    assert details.pop("axioms") == [("fail", "")]
    assert details == {
        "twist": [("skipped", "skipped: prerequisite suite axioms failed")],
        "lemma41": [("skipped", "skipped: prerequisite suite twist was skipped")],
        "heisenberg": [("skipped", "skipped: prerequisite suite axioms failed")],
        "theorems": [("skipped", "skipped: prerequisite suite lemma41 was skipped")],
        "section5": [("skipped", "skipped: prerequisite suite theorems was skipped")],
        "invertibility": [("skipped", "skipped: prerequisite suite heisenberg was skipped")],
    }


def test_suite_table_lists_each_suite_after_its_prerequisites():
    assert cli.SUITE_ORDER == tuple(cli.SUITES)
    assert cli.SUITE_DEPS.keys() == cli.SUITES.keys()
    # run reads only the outcomes of the suites that have already run
    for name, deps in cli.SUITE_DEPS.items():
        assert all(cli.SUITE_ORDER.index(d) < cli.SUITE_ORDER.index(name) for d in deps), name


def test_twist_alternatives_built_once_and_only_by_the_twist_suite(monkeypatch):
    calls = []
    real = cli.twist_alternatives
    monkeypatch.setattr(cli, "twist_alternatives", lambda H: calls.append(H) or real(H))
    for suites, built in ((("all",), 1), (("axioms", "invertibility"), 0)):
        calls.clear()
        assert run_spec("zn:4:1", suites).exit_code == 0
        assert len(calls) == built, suites


def test_klein_tables_full_run():
    for tid in range(4):
        rep = run_spec(f"v4:{tid}")
        assert rep.exit_code == 0, tid
        total, passed, failed, skipped = rep.counts()
        assert failed == 0 and skipped == 0, tid


def test_float_defect_reported_when_paths_disagree():
    # exactly unequal sides whose float images coincide below tolerance:
    # the float verdict is flagged against the exact one
    from fractions import Fraction

    from qhd.algebra import SparseTensor
    from qhd.report import Recorder
    from qhd.scalar import CycScalar

    tiny = CycScalar(1, (Fraction(1, 10**12),))
    lhs = SparseTensor(1, 1, 1, {(0,): tiny})
    rhs = SparseTensor(1, 1, 1, {})
    rec = Recorder(float_check=True)
    ok = rec.tensor_check("t", "tiny exact difference", lhs, rhs)
    assert not ok
    item = rec.items[0]
    assert item.status == "fail" and item.float_status == "pass"
    assert "float" in item.detail


def test_float_path_runs_only_on_unequal_sides(monkeypatch):
    # equal exact sides hold the same interned scalars, so their floats agree
    # and the float comparison is skipped; unequal sides still get a verdict
    import qhd.report as report
    from qhd.algebra import SparseTensor
    from qhd.scalar import CycScalar, root_of_unity

    calls = []
    real = report._float_agrees
    monkeypatch.setattr(report, "_float_agrees", lambda l, r: calls.append(1) or real(l, r))
    z = root_of_unity(5, 2)
    a = SparseTensor(2, 2, 5, {(0, 0): z, (0, 1): CycScalar.one(5)})
    same = SparseTensor(2, 2, 5, {(0, 1): z * z.inverse(), (0, 0): CycScalar(5, z.coeffs)})
    other = SparseTensor(2, 2, 5, {(0, 0): z})
    rec = report.Recorder(float_check=True)
    assert rec.tensor_check("eq", "equal sides", a, same)
    assert rec.family_check("eqs", "equal family", [(i, a, same) for i in range(3)])
    assert calls == []
    assert [(i.status, i.float_status) for i in rec.items] == [("pass", "pass")] * 2
    assert not rec.family_check("neq", "one unequal pair", [(0, a, same), (1, a, other)])
    assert len(calls) == 1
    assert (rec.items[-1].status, rec.items[-1].float_status) == ("fail", "fail")
    assert "float" not in rec.items[-1].detail


def test_main_internal_error_exits_3(monkeypatch, capsys):
    import qhd.cli as cli

    def crash(ctx, rec):
        raise KeyError("boom")

    monkeypatch.setitem(cli.SUITES, "axioms", crash)
    assert main(["--example", "zn:2:1", "--check", "axioms"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal: KeyError: 'boom'\n") and "Traceback" in err


def test_group_order_limit_refused_before_building(tmp_path, monkeypatch, capsys):
    import qhd.cli as cli

    def never(*args):
        raise AssertionError("a table was built past the order limit")

    for name in ("cyclic_cocycle", "trivial_cocycle"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(cli.FiniteGroup, "cyclic", staticmethod(never))
    big = MAX_GROUP_ORDER + 1
    table = tmp_path / "table.qhd"
    table.write_text("group table 100000\n")
    cyclic = tmp_path / "cyclic.qhd"
    cyclic.write_text(f"group cyclic {big}\ncocycle trivial\n")
    for argv, where in ((["--example", "zn:100000:1"], "zn:100000:1"),
                        (["--example", f"trivial:{big}"], f"trivial:{big}"),
                        (["--input", str(table)], "table.qhd:1: group order 100000"),
                        (["--input", str(cyclic)], f"cyclic.qhd:1: group order {big}")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and where in err, err
        assert f"exceeds the limit of {MAX_GROUP_ORDER}" in err, err


def test_root_order_limit_refused_before_building(tmp_path, monkeypatch, capsys):
    import qhd.cli as cli
    import qhd.scalar as scalar

    def never(*args):
        raise AssertionError("a cocycle or scalar was built past the root order limit")

    ok = tmp_path / "ok.qhd"
    ok.write_text(f"group cyclic 2\ncocycle table {MAX_ROOT_ORDER}\n")
    assert parse_input(str(ok))[1].root_order == MAX_ROOT_ORDER
    for name in ("Cocycle3", "check_cocycle", "build_k_omega_G"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(scalar, "_field_data", never)
    for root in (MAX_ROOT_ORDER + 1, 100000):
        p = tmp_path / f"root{root}.qhd"
        p.write_text(f"group cyclic 3\ncocycle table {root}\n0 0 0 -> 0\n")
        assert main(["--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"root{root}.qhd:2: root order {root}" in err, err
        assert f"exceeds the limit of {MAX_ROOT_ORDER}" in err, err


# A loop of order 5: a Latin square with identity 0 in which every element is
# its own two-sided inverse, but (1*1)*2 = 2 != 1*(1*2) = 4.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def test_non_associative_loop_refused(tmp_path, capsys):
    with pytest.raises(GroupError, match=r"associativity fails at \(1,1,2\)"):
        FiniteGroup(LOOP5)
    p = tmp_path / "loop.qhd"
    p.write_text("group table 5\n" + "".join(" ".join(map(str, r)) + "\n" for r in LOOP5)
                 + "cocycle trivial\n")
    with pytest.raises(InputError, match=r"loop.qhd:1: not a group: associativity fails at"):
        parse_input(str(p))
    assert main(["--input", str(p)]) == 2
    assert "not a group: associativity fails at (1,1,2)" in capsys.readouterr().err
    latin = tmp_path / "latin.qhd"
    latin.write_text("group table 2\n0 1\n1 1\ncocycle trivial\n")
    with pytest.raises(InputError, match="latin.qhd:1: not a group: row 1 repeats an element"):
        parse_input(str(latin))


def test_closed_form_elements_built_once_per_run(monkeypatch):
    import qhd.cli as cli

    calls = []
    real = cli.closed_form_elements
    monkeypatch.setattr(cli, "closed_form_elements", lambda w: calls.append(w) or real(w))
    assert run_spec("zn:3:1").exit_code == 0
    assert len(calls) == 1


def test_pentagon_lefts_built_once_per_run(monkeypatch):
    # 4.6 and hopf.pentagon share the dual side's two left parenthesizations,
    # 4.9 and section 5 the plain side's; each suite alone builds the sides
    # it needs, and a run with both builds each side once
    import qhd.cli as cli
    import qhd.heisenberg as heisenberg

    calls = []
    real = cli.pentagon_lefts
    monkeypatch.setattr(cli, "pentagon_lefts",
                        lambda ha, *args: calls.append(ha.side) or real(ha, *args))
    for source, suites, sides in (
            ("zn:3:1", ("theorems", "section5"), ["dual", "plain"]),
            ("zn:3:1", ("section5",), ["plain"]),
            ("zn:3:1", ("theorems",), ["dual", "plain"]),
            ("trivial:3", ("theorems", "section5"), ["dual", "plain"])):
        calls.clear()
        report = run_spec(source, suites)
        assert report.exit_code == 0 and calls == sides, (source, suites)
        assert [name for name, _ in report.suites] == list(suites)

    # the Hopf case adds three products to the theorems suite: the right
    # side of hopf.pentagon and the two plain-side inverse products
    products = []
    real_multiply = heisenberg.multiply

    def counted(*args):
        products.append(1)
        return real_multiply(*args)

    monkeypatch.setattr(cli, "multiply", counted)
    monkeypatch.setattr(heisenberg, "multiply", counted)
    made = []
    for source in ("zn:4:1", "trivial:4"):
        products.clear()
        assert run_spec(source, ("theorems",)).exit_code == 0
        made.append(len(products))
    assert made[1] - made[0] == 3, made


def test_cocycle_checked_once_per_file_run(monkeypatch):
    import qhd.cli as cli
    import qhd.twisted as twisted

    calls = []
    real = twisted.check_cocycle

    def counted(w, *args):
        calls.append(w)
        return real(w, *args)

    monkeypatch.setattr(cli, "check_cocycle", counted)
    monkeypatch.setattr(twisted, "check_cocycle", counted)
    assert run_spec(f"file:{os.path.join(DATA, 's3_sign.qhd')}").exit_code == 0
    assert len(calls) == 1


def test_constructed_cocycle_stanzas_are_not_checked(tmp_path, monkeypatch):
    import qhd.cli as cli
    import qhd.twisted as twisted

    calls = []
    real = twisted.check_cocycle

    def counted(w, *args):
        calls.append(w)
        return real(w, *args)

    monkeypatch.setattr(cli, "check_cocycle", counted)
    monkeypatch.setattr(twisted, "check_cocycle", counted)
    for name, text in (("cyclic", "group cyclic 4\ncocycle cyclic 1\n"),
                       ("trivial", "group product cyclic 2 cyclic 2\ncocycle trivial\n")):
        p = tmp_path / f"{name}.qhd"
        p.write_text(text)
        assert run_spec(f"file:{p}", ("axioms",)).exit_code == 0, name
    assert calls == []


def test_product_group_order_limit(tmp_path, capsys):
    p = tmp_path / "prod.qhd"
    p.write_text("group product cyclic 6 cyclic 6\ncocycle trivial\n")
    assert main(["--input", str(p)]) == 2
    assert "prod.qhd:1: group order 36 exceeds" in capsys.readouterr().err


def test_s3_sign_cocycle_probe_is_one_sided_both(capsys):
    path = os.path.join(DATA, "s3_sign.qhd")
    assert main(["--input", path, "--check", "invertibility"]) == 0
    out = capsys.readouterr().out
    for label in ("5.r-W ", "5.r-Wbar "):
        detail = out.split(label, 1)[1].splitlines()[1]
        assert "not two-sided invertible (one_sided_both)" in detail, label


@pytest.mark.parametrize("name, checks", [("s3_sign.qhd", 70), ("s3_trivial.qhd", 79)])
def test_s3_full_run_passes(name, checks, capsys):
    path = os.path.join(DATA, name)
    assert main(["--input", path, "--check", "all", "--report", "json"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)["summary"]
    assert summary == {"checks": checks, "exit_code": 0, "failed": 0, "passed": checks,
                       "skipped": 0}
    # the golden report was written with the file name as its source
    out = out.replace(json.dumps(f"file:{path}"), json.dumps(f"file:{name}"), 1)
    assert out == golden(name.replace(".qhd", ".json"))


def test_s3_float_backend_matches_golden(capsys):
    path = os.path.join(DATA, "s3_sign.qhd")
    assert main(["--input", path, "--backend", "float", "--report", "json"]) == 0
    out = capsys.readouterr().out
    out = out.replace(json.dumps(f"file:{path}"), json.dumps("file:s3_sign.qhd"), 1)
    assert out == golden("s3_sign_float.json")


def test_probe_derives_nothing(monkeypatch, capsys):
    # the probe reads W and W-bar from the doubles alone: no twist derivation
    def refuse(*args):
        raise AssertionError("the invertibility suite derived an element")

    monkeypatch.setattr(cli, "derive_elements", refuse)
    monkeypatch.setattr(cli, "canonical_elements", refuse)
    path = os.path.join(DATA, "s3_sign.qhd")
    for source, name in ((["--example", "zn:4:1"], "zn_4_1"),
                         (["--input", path], "s3_sign")):
        assert main([*source, "--check", "invertibility", "--report", "json"]) == 0
        out = capsys.readouterr().out
        out = out.replace(json.dumps(f"file:{path}"), json.dumps("file:s3_sign.qhd"), 1)
        assert out == golden(f"{name}_invertibility.json"), name


def test_probe_builds_no_dict_system(monkeypatch, capsys):
    # on kωG every row of both probe systems is a pair alone on its column:
    # it is settled where it lies, so no row becomes a dict, the reduced
    # rows are the generated pairs, and no dict-row elimination or stacked
    # solve runs
    systems = []
    generate, reduce = heisenberg.multiplication_system, heisenberg._reduce_system

    def pairs_only(sc, x, side):
        rows, held = generate(sc, x, side)
        assert all(type(row) is tuple for row in rows), side
        systems.append(rows)
        return rows, held

    def settled_in_place(rows, *args):
        reduced = reduce(rows, *args)
        assert reduced[0] is systems[-1] and all(type(row) is tuple for row in reduced[0])
        return reduced

    def refuse(*args):
        raise AssertionError("the probe built a system of dict rows")

    monkeypatch.setattr(heisenberg, "multiplication_system", pairs_only)
    monkeypatch.setattr(heisenberg, "_reduce_system", settled_in_place)
    monkeypatch.setattr(heisenberg, "solve_linear", refuse)
    path = os.path.join(DATA, "s3_sign.qhd")
    for source, name in ((["--example", "zn:4:1"], "zn_4_1"),
                         (["--input", path], "s3_sign")):
        systems.clear()
        assert main([*source, "--check", "invertibility", "--report", "json"]) == 0
        assert len(systems) == 4, name  # two sides, two systems each
        out = capsys.readouterr().out
        out = out.replace(json.dumps(f"file:{path}"), json.dumps("file:s3_sign.qhd"), 1)
        assert out == golden(f"{name}_invertibility.json"), name


def test_full_run_builds_each_canonical_element_once(monkeypatch):
    built = []

    def counted(ha):
        built.append(ha.side)
        return canonical_element(ha)

    monkeypatch.setattr(cli, "canonical_element", counted)
    monkeypatch.setattr(heisenberg, "canonical_element", counted)
    report = run_spec("zn:4:1", report_format="json")
    assert report.to_json() == golden("zn_4_1.json")
    assert built == ["dual", "plain"]


def test_unit_law_computed_at_most_once_per_table(monkeypatch):
    # the `unit` and `3.unit-*` checks and merge_pair's unit rule share one
    # memo per table; the probe multiplies no unit factor, so computes none
    calls = []
    check_unit = StructureConstants.check_unit
    monkeypatch.setattr(StructureConstants, "check_unit",
                        lambda sc: calls.append(sc) or check_unit(sc))
    assert run_spec("zn:3:1", ("invertibility",)).exit_code == 0
    assert calls == []
    for source, suites in (("zn:3:1", ("all",)), ("zn:8:1", ("axioms", "twist", "lemma41")),
                           ("zn:10:1", ("heisenberg", "theorems", "section5"))):
        calls.clear()  # each held table has its own id
        assert run_spec(source, suites).exit_code == 0
        assert calls and len({id(sc) for sc in calls}) == len(calls), (source, suites)
        if source == "zn:8:1":
            # H's law, computed by the `unit` axiom; each mirror's opposite
            # table copies it
            assert len(calls) == 1


def test_plans_compiled_per_run(monkeypatch):
    # each plan compiled costs about 0.4-0.6 ms in a fresh process: a change
    # that adds plans to these runs shows here.  The axiom suite's algebra-map
    # laws and associativity check add three (coproduct-map and the two sides
    # of assoc; antipode-antimap shares 4.2's plan).  A Mapped factor's shape
    # joins its plan: the views add three plans to the first run (delta's
    # second factor, the lhs Delta(X) of 2.13 and 4.4, and the sums of 2.13
    # and 4.4, which shared one) and delta's to the second
    from qhd import algebra

    for source, suites, plans in (("zn:8:1", ("axioms", "twist", "lemma41"), 28),
                                  ("zn:10:1", ("heisenberg", "theorems", "section5"), 22)):
        monkeypatch.setattr(algebra, "_KERNELS", {})
        assert run_spec(source, suites).exit_code == 0
        assert len(algebra._KERNELS) == plans, (source, suites)


def test_merge_pair_calls_per_run(monkeypatch):
    # the runs of test_plans_compiled_per_run: each Sweedler sum over the
    # slices of an associator leg is one merge_pair summed over that leg, so
    # a sum taken one slice at a time again shows here as many more calls,
    # and so would coproduct-map taken one pair of basis elements at a time
    from qhd import algebra, heisenberg, quasihopf

    calls = []
    real = algebra.merge_pair
    for module in (algebra, heisenberg, quasihopf):
        monkeypatch.setattr(module, "merge_pair",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
    for source, suites, count in (("zn:8:1", ("axioms", "twist", "lemma41"), 69),
                                  ("zn:10:1", ("heisenberg", "theorems", "section5"), 54)):
        calls.clear()
        assert run_spec(source, suites).exit_code == 0
        assert len(calls) == count, (source, suites)


def test_map_leg_passes_per_run(monkeypatch):
    # the run of test_plans_compiled_per_run with the axiom, twist and lemma41
    # suites: every S, S^-1 or Delta view that one contraction reads is passed
    # to it as a Mapped and built by no pass of _map_leg, so a view built
    # again shows here (75 passes before views, 38 with them)
    from qhd import algebra

    passes = []
    real = algebra._map_leg
    monkeypatch.setattr(algebra, "_map_leg", lambda *args: passes.append(1) or real(*args))
    assert run_spec("zn:8:1", ("axioms", "twist", "lemma41")).exit_code == 0
    assert len(passes) == 38


@pytest.mark.parametrize("example", ["trivial:4", "v4:3", "zn:4:1"])
def test_full_report_matches_golden(example):
    report = run_spec(example, report_format="json")
    assert report.to_json() == golden(example.replace(":", "_") + ".json")


def _garbage_left_by(spec):
    # run pauses the cyclic collector, so any reference cycle a run drops is
    # still there to be found afterwards; gc.collect() counts what it frees
    gc.collect()
    gc.disable()
    try:
        run(spec)
        return gc.collect()
    finally:
        gc.enable()


def _broken_axioms(ctx, rec):
    rec.bool_check("forced", "forced failure for dependency testing", False)


def test_run_leaves_no_cyclic_garbage(tmp_path, monkeypatch):
    product = tmp_path / "v4.qhd"
    product.write_text("group product cyclic 2 cyclic 2\ncocycle trivial\n")
    s3 = f"file:{os.path.join(DATA, 's3_sign.qhd')}"
    for spec in (RunSpec(source="zn:4:1"), RunSpec(source=s3), RunSpec(source=f"file:{product}"),
                 RunSpec(source=s3, backend="float", timings=True)):
        assert _garbage_left_by(spec) == 0, spec
    monkeypatch.setitem(cli.SUITES, "axioms", _broken_axioms)
    spec = RunSpec(source="zn:2:1", suites=("axioms", "twist", "heisenberg"))
    assert run(spec).exit_code == 1
    assert _garbage_left_by(spec) == 0


def _crash(ctx, rec):
    raise KeyError("boom")


def test_run_restores_the_collector(tmp_path, monkeypatch, capsys):
    assert gc.isenabled()
    run_spec("zn:2:1", suites=("axioms",))
    assert gc.isenabled()
    bad = tmp_path / "bad.qhd"
    bad.write_text("group cyclic 3\ncocycle table 3\n1 1 1 -> 1\n")
    with pytest.raises(InputError):
        run_spec(f"file:{bad}")
    assert gc.isenabled()
    assert main(["--input", str(bad)]) == 2
    assert gc.isenabled()
    with monkeypatch.context() as m:
        m.setitem(cli.SUITES, "axioms", _crash)
        with pytest.raises(KeyError):
            run_spec("zn:2:1", suites=("axioms",))
        assert gc.isenabled()
        assert main(["--example", "zn:2:1", "--check", "axioms"]) == 3
        assert gc.isenabled()
    capsys.readouterr()
    # a caller that paused the collector itself finds it still paused
    gc.disable()
    try:
        run_spec("zn:2:1", suites=("axioms",))
        assert not gc.isenabled()
        with pytest.raises(InputError):
            run_spec(f"file:{bad}")
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert gc.get_freeze_count() == 0


def _collections_in(spec):
    # (generation, objects the collector would traverse) of each collection
    seen = []

    def watch(phase, info):
        if phase == "start":
            seen.append((info["generation"], len(gc.get_objects())))

    gc.callbacks.append(watch)
    try:
        run(spec)
    finally:
        gc.callbacks.remove(watch)
    return seen


def test_run_collects_only_a_frozen_heap():
    # the only collections in a run are the free-list releases before each
    # suite, full passes over a heap that is frozen and so traverse nothing
    spec = RunSpec(source="zn:4:1")
    assert _collections_in(spec) == [(2, 0)] * len(spec.selected())
    assert gc.get_freeze_count() == 0
    # objects a caller froze stay frozen, and then the run does not collect
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert _collections_in(spec) == []
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
