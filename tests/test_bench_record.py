"""Smoke test of tools/bench_record.py on canned bench/run.py output."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _run_output(path, workload, seed, commit, pass_s, correct=True):
    metrics = {"setup_s": (0.15, "s"), "pass_s": (pass_s, "s"), "cpu_s": (pass_s, "s"),
               "peak_rss_mib": (43.9, "MiB")}
    record = {"workload": workload, "seed": seed, "trace": 0, "seconds": 55.0,
              "environment": {"python": "3.11.7", "nproc": 2, "git_commit": commit}}
    result = {"correct": correct, "attempted": 24, "failed": 0 if correct else 1,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    lines = [f"{workload} {name} {value} {unit}" for name, (value, unit) in metrics.items()]
    lines += [json.dumps({"record": record}), json.dumps(result)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _runs(tmp_path, side, commit, workload, passes, correct=True):
    return [_run_output(tmp_path / f"{side}-{workload}-{seed}.txt", workload, seed, commit,
                        pass_s, correct)
            for seed, pass_s in enumerate(passes, start=1)]


def test_folds_pairs_into_a_bench_file(tmp_path, capsys):
    parent = (_runs(tmp_path, "parent", "aaa", "closed-forms", [0.90, 0.92, 0.95, 0.91])
              + _runs(tmp_path, "parent", "aaa", "verify", [0.30, 0.31]))
    change = (_runs(tmp_path, "change", "bbb", "closed-forms", [0.78, 0.80, 0.93, 0.79])
              + _runs(tmp_path, "change", "bbb", "verify", [0.31, 0.30], correct=False))
    output = tmp_path / "BENCH_7.json"
    assert bench_record.main(["--pr", "7", "--claim", "closed-forms:pass_s",
                              "--claim", "verify:pass_s", "--parent", *parent,
                              "--change", *change, "--output", str(output)]) == 0
    folded = json.loads(output.read_text(encoding="utf-8"))
    assert folded["pr"] == 7 and folded["commits"] == {"parent": "aaa", "change": "bbb"}
    assert "git_commit" not in folded["environment"]
    closed = folded["workloads"]["closed-forms"]
    assert closed["seeds"] == [1, 2, 3, 4]
    pass_s = closed["metrics"]["pass_s"]
    assert pass_s["pairs"] == [[0.90, 0.78], [0.92, 0.80], [0.95, 0.93], [0.91, 0.79]]
    assert pass_s["change_wins"] == 4 and pass_s["bound"] == 0.25
    assert pass_s["parent"]["median"] == pytest.approx(0.915, rel=1e-15, abs=0.0)
    assert pass_s["change"]["median"] == pytest.approx(0.795, rel=1e-15, abs=0.0)
    assert pass_s["median_gain_fraction"] == pytest.approx(0.12 / 0.915, rel=1e-12, abs=0.0)
    # equal values win for neither side
    assert closed["metrics"]["peak_rss_mib"]["change_wins"] == 0
    verify = folded["workloads"]["verify"]
    assert verify["correct"] == {"parent": True, "change": False}
    assert verify["failed_of_attempted"] == {"parent": [0, 48], "change": [2, 48]}
    assert [(c["workload"], c["change_wins"], c["met"]) for c in folded["claims"]] == [
        ("closed-forms", 4, True), ("verify", 1, False)]
    assert "closed-forms pass_s: change wins 4 of 4 pairs, claim met" in capsys.readouterr().out


def test_a_run_without_a_partner_is_refused(tmp_path):
    parent = _runs(tmp_path, "parent", "aaa", "verify", [0.30, 0.31])
    change = _runs(tmp_path, "change", "bbb", "verify", [0.30])
    with pytest.raises(SystemExit, match="without a partner"):
        bench_record.main(["--pr", "7", "--parent", *parent, "--change", *change,
                           "--output", str(tmp_path / "out.json")])


def test_a_file_that_is_not_run_output_is_refused(tmp_path):
    junk = tmp_path / "junk.txt"
    junk.write_text("closed-forms pass_s 0.9 s\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="not a bench/run.py output"):
        bench_record.main(["--pr", "7", "--parent", str(junk), "--change", str(junk),
                           "--output", str(tmp_path / "out.json")])
