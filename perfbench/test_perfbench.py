"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_smoke_runs_every_workload_and_checks_the_schema():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--root", str(tmp_path),
                           "--workload", run.WORKLOADS[0], "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    mod = types.SimpleNamespace()
    mod.inner = lambda: None
    mod.outer = lambda: (mod.inner(), mod.inner())
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    mod.outer()
    tracer.close()
    totals = tracer.totals()
    # outer: 0..5, inner: 1..2 and 3..4
    assert totals["outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert totals["inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert not hasattr(mod.outer, "__wrapped__")


def test_verdicts_follow_the_pair_rule():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), 0.1, False)[0] == "better"
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), 0.1, False)[0] == "worse"
    same = list(parent)
    assert compare.verdict(parent, same, list(zip(parent, same)), 0.1, False)[0] == "no worse"
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), 0.1, False)[0] == "unresolved"


def write_records(path, workload, seeds, wall_s, failed=0):
    with open(path, "w") as fh:
        for seed, wall in zip(seeds, wall_s):
            metrics = {m["name"]: {"value": 1.0} for m in compare.SPEC["end_to_end"]}
            metrics["wall_s"] = {"value": wall}
            fh.write(json.dumps({"workload": workload, "seed": seed, "trace": 0, "metrics": metrics,
                                 "attempted": 10, "failed": failed}) + "\n")


def verdicts(rows):
    return {r["metric"]: r["verdict"] for r in rows}


def test_a_gain_with_more_failures_is_not_counted(tmp_path):
    seeds = list(range(10))
    write_records(tmp_path / "p.jsonl", "w", seeds, [10.0 + 0.01 * s for s in seeds])
    write_records(tmp_path / "c.jsonl", "w", seeds, [8.0 + 0.01 * s for s in seeds], failed=1)
    assert verdicts(compare.report(tmp_path / "p.jsonl", tmp_path / "c.jsonl"))["wall_s"] == "not counted"
    write_records(tmp_path / "c.jsonl", "w", seeds, [8.0 + 0.01 * s for s in seeds])
    assert verdicts(compare.report(tmp_path / "p.jsonl", tmp_path / "c.jsonl"))["wall_s"] == "better"


def test_missing_pairs_give_no_verdict(tmp_path):
    write_records(tmp_path / "p.jsonl", "w", range(10), [10.0] * 10)
    write_records(tmp_path / "c.jsonl", "w", range(9), [8.0] * 9)      # one change run died
    assert set(verdicts(compare.report(tmp_path / "p.jsonl", tmp_path / "c.jsonl")).values()) == {"incomplete"}


def test_times_are_stated_at_the_reference_speed():
    sample = {"wall_s": 2.0, "setup_s": 0.5, "us_per_iter": 100.0, "events_per_s": 1000.0,
              "peak_rss_mb": 80.0}
    slow = run.at_reference_speed(sample, 2 * run.REFERENCE_S)     # machine at half speed
    assert slow == {"wall_s": 1.0, "setup_s": 0.25, "us_per_iter": 50.0, "events_per_s": 2000.0,
                    "peak_rss_mb": 80.0}
    assert run.at_reference_speed(sample, run.REFERENCE_S) == sample
