"""tools/ladder: the commands it spawns, its records of real fresh-process
runs (exit codes, wall time, the child's own peak RSS) and its table."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ladder.py")
_spec = importlib.util.spec_from_file_location("ladder", _PATH)
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_commands_for_builtins_and_files():
    assert ladder.command("zn:6:1", "all")[1:] == [
        "-m", "qhd.cli", "--example", "zn:6:1", "--check", "all", "--report", "json"]
    assert ladder.command("file:a/b.qhd", "axioms")[3:5] == ["--input", "a/b.qhd"]


def test_largest_example_is_opt_in():
    assert "zn:32:1" not in ladder.LADDER
    assert ladder.CHECKS == ("axioms", "invertibility", "all")


def test_records_of_fresh_runs(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    bad = tmp_path / "bad.qhd"
    bad.write_text("group cyclic 3\ncocycle table 3\n1 1 1 -> 1\n")
    # a run that exits nonzero makes the tool exit 1, after the records
    assert ladder.main(["zn:2:1", f"file:{bad}", "--out", str(out)]) == 1
    records = json.loads(out.read_text())
    assert [(r["example"], r["check"]) for r in records] == [
        (ex, c) for ex in ("zn:2:1", f"file:{bad}") for c in ladder.CHECKS]
    assert [r["exit_code"] for r in records] == [0, 0, 0, 2, 2, 2]
    for r in records:
        assert r["wall_s"] > 0
        # an interpreter's own footprint, not this test process's
        assert 5 < r["peak_rss_mb"] < 200
    err = capsys.readouterr().err
    assert "| zn:2:1 | " in err and "(exit 2)" in err


def test_check_option_picks_the_checks(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    assert ladder.main(["zn:2:1", "--check", "invertibility", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [(r["example"], r["check"], r["exit_code"]) for r in records] == [
        ("zn:2:1", "invertibility", 0)]
    assert "| zn:2:1 | " in capsys.readouterr().err


def test_table_has_a_cell_per_check():
    records = [{"example": "zn:8:1", "check": c, "wall_s": w, "peak_rss_mb": m,
                "exit_code": 0} for c, w, m in (("axioms", 0.104, 20.2), ("all", 0.2, 24.0))]
    assert ladder.table(records).splitlines() == [
        "| example | `axioms` | `all` |",
        "|---|---:|---:|",
        "| zn:8:1 | 0.10 s, 20 MB | 0.20 s, 24 MB |",
    ]


def test_check_option_takes_every_suite_of_the_cli(tmp_path, capsys):
    from qhd.cli import SUITE_ORDER

    assert set(ladder.SUITES) == {"all", *SUITE_ORDER}
    out = tmp_path / "ladder.json"
    assert ladder.main(["zn:2:1", "--check", "twist", "--check", "theorems",
                        "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [(r["check"], r["exit_code"]) for r in records] == [("twist", 0), ("theorems", 0)]
    assert "| zn:2:1 | " in capsys.readouterr().err


def test_check_option_takes_suites_joined_by_commas(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    assert ladder.main(["zn:2:1", "--check", "axioms,twist", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [(r["check"], r["exit_code"]) for r in records] == [("axioms,twist", 0)]
    assert "| zn:2:1 | 0" in capsys.readouterr().err
    for bad in ("axioms,bogus", "axioms,", ""):
        with pytest.raises(SystemExit, match="2"):
            ladder.main(["zn:2:1", "--check", bad])
