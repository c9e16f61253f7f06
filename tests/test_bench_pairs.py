"""tools/bench_pairs.summarize on synthetic runs: failed and incorrect runs,
ties, traced results that are missing for one side or a workload, and the
span medians, mins and maxes and agreeing counts over several traced runs;
and main, with its subprocess stubbed, passing --seed to every run."""

import importlib.util
import json
import os
import types

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = {
    "end_to_end": [
        {"name": "verify_s", "unit": "s", "better": "lower", "bound": 0.17},
        {"name": "checks", "unit": "count", "better": "higher", "bound": 1},
    ],
    "per_layer": [
        {"name": "scalar.mul.calls", "unit": "count", "better": "lower"},
        {"name": "heisenberg.check_double.self_s", "unit": "s", "better": "lower"},
    ],
}


def result(verify_s, checks=72, correct=True, **traced):
    metrics = {"verify_s": verify_s, "checks": checks, **traced}
    return {"correct": correct, "metrics": {k: {"value": v} for k, v in metrics.items()}}


def summary():
    runs = {
        "doubles": {
            # pairs: change wins, change failed, tie, change incorrect, change wins
            "parent": [result(1.0), result(2.0), result(3.0), result(4.0), result(5.0)],
            "change": [result(0.5, 73), None, result(3.0), result(3.5, correct=False),
                       result(4.0, 73)],
        },
        "probe": {"parent": [result(2.0)], "change": [None]},
        "identities": {"parent": [result(1.0)], "change": [result(1.0)]},
    }
    def traced_run(calls, span):
        return result(1.0, **{"scalar.mul.calls": calls, "heisenberg.check_double.self_s": span})

    traced = {
        "doubles": {"parent": [traced_run(42910, 0.15)]},
        # the change's counts disagree, and its third traced run failed
        "probe": {"parent": [traced_run(7, 0.3), traced_run(7, 0.1), traced_run(7, 0.2)],
                  "change": [traced_run(5, 0.4), traced_run(6, 0.5), None]},
    }
    return bench_pairs.summarize(BENCH, runs, traced)["workloads"]


def test_medians_quartiles_and_wins():
    d = summary()["doubles"]
    assert d["pairs"] == 5
    v = d["metrics"]["verify_s"]
    assert v["parent"]["runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert (v["parent"]["median"], v["parent"]["q1"], v["parent"]["q3"]) == (3.0, 2.0, 4.0)
    # the failed and the incorrect run count for neither statistic nor pair
    assert v["change"]["runs"] == [0.5, None, 3.0, None, 4.0]
    assert v["change"]["median"] == 3.0
    assert v["change"]["q1"] == pytest.approx(1.75)
    assert v["change"]["q3"] == pytest.approx(3.5)
    assert v["change_won"] == 2 and v["pairs"] == 5
    assert (v["unit"], v["better"], v["bound"]) == ("s", "lower", 0.17)
    # higher is better: 73 beats 72 twice, the equal pair is a tie
    c = d["metrics"]["checks"]
    assert c["change"]["runs"] == [73, None, 72, None, 73]
    assert c["change_won"] == 2


def test_correct_lists():
    d = summary()
    assert d["doubles"]["correct"] == {"parent": [True] * 5,
                                       "change": [True, False, True, False, True]}
    assert d["probe"]["correct"] == {"parent": [True], "change": [False]}


def test_single_and_missing_runs_have_no_quartiles():
    v = summary()["probe"]["metrics"]["verify_s"]
    assert v["parent"] == {"median": 2.0, "q1": None, "q3": None, "runs": [2.0]}
    assert v["change"] == {"median": None, "q1": None, "q3": None, "runs": [None]}
    assert v["change_won"] == 0


def test_missing_traced_side_reads_none():
    d = summary()
    assert d["doubles"]["traced_counts"] == {
        "scalar.mul.calls": {"parent": 42910, "change": None}}
    assert d["doubles"]["traced_spans"] == {"heisenberg.check_double.self_s": {
        "parent": {"median": 0.15, "min": 0.15, "max": 0.15},
        "change": {"median": None, "min": None, "max": None}}}
    assert d["identities"]["traced_counts"] == {
        "scalar.mul.calls": {"parent": None, "change": None}}


def test_traced_spans_are_medians_and_counts_must_agree():
    d = summary()["probe"]
    assert d["traced_spans"] == {"heisenberg.check_double.self_s": {
        "parent": {"median": 0.2, "min": 0.1, "max": 0.3},
        "change": {"median": pytest.approx(0.45), "min": 0.4, "max": 0.5}}}
    assert d["traced_counts"] == {"scalar.mul.calls": {"parent": 7, "change": None}}


def test_command_names_the_seed():
    runs = {"probe": {"parent": [result(1.0)], "change": [result(0.5)]}}
    assert bench_pairs.summarize(BENCH, runs, {})["command"] == \
        "python3 qhdbench/run.py --seed 0 --workload W --trace 0"
    assert bench_pairs.summarize(BENCH, runs, {}, 7)["command"] == \
        "python3 qhdbench/run.py --seed 7 --workload W --trace 0"


def test_seed_reaches_every_run(monkeypatch, tmp_path):
    calls = []

    def run(argv, cwd, **kw):
        calls.append(argv[1:])
        line = json.dumps(result(1.0, **{"scalar.mul.calls": 1,
                                         "heisenberg.check_double.self_s": 0.1}))
        return types.SimpleNamespace(returncode=0, stdout=line + "\n", stderr="")

    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {**BENCH, "workloads": [{"name": "probe"}]}))
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs, "TRACED", 1)
    out = tmp_path / "bench.json"
    for argv, seed in (([], "0"), (["--seed", "7"], "7")):
        calls.clear()
        assert bench_pairs.main([*argv, str(tmp_path), str(tmp_path), str(out)]) == 0
        # two pairs of two untraced runs, then one traced run per side
        assert [c[:3] for c in calls] == [["qhdbench/run.py", "--seed", seed]] * 6
        assert [c[-1] for c in calls] == ["0"] * 4 + ["1"] * 2
        assert json.loads(out.read_text())["command"] == \
            f"python3 qhdbench/run.py --seed {seed} --workload W --trace 0"
