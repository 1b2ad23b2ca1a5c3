"""Compare two commits with the benchmark: run pairs, then judge each metric.

    python3 perfbench/compare.py run --parent ../kaczsim-parent --change . \
        --workload lambda_sweep_100x30 --seed 1000 --out .perfbench_results
    python3 perfbench/compare.py report .perfbench_results/parent.jsonl .perfbench_results/change.jsonl

`run` measures both source trees with this checkout's benchmark code and
settings: ten pairs per workload, each run as long as `run_seconds` in
BENCHMARK.json, the length the bounds were set on.  Pair i uses seed
--seed + i on both sides and alternates which side runs first.  Records
go to <out>/parent.jsonl and <out>/change.jsonl; a run that exits
non-zero writes none and is printed as a failed pair.

`report` prints, per workload and end-to-end metric, each side's median
and quartiles over its runs, the pairs the change won, and a verdict
against the bound in BENCHMARK.json:

  incomplete   fewer than ten pairs have both sides, or a seed has only
               one side: no verdict;
  better       the change won at least 9/10 of the pairs (ties count for
               neither) and the medians differ by more than the parent's
               inter-quartile spread;
  not counted  it would be "better", but the change failed more
               operations than the parent;
  unresolved   the parent's spread is wider than the bound, unless every
               change run reads better than every parent run;
  worse        the change's median is worse than the parent's by more
               than the bound;
  no worse     otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
HOME = HERE.parent
SPEC = json.loads((HOME / "BENCHMARK.json").read_text())
PAIRS = 10


def load_records(path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> {"metrics": name -> median of that run, "attempted", "failed"}."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    out[rec["workload"]][rec["seed"]] = {
                        "metrics": {name: m["value"] for name, m in rec["metrics"].items()},
                        "attempted": rec["attempted"], "failed": rec["failed"]}
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, higher_is_better: bool) -> tuple[str, int]:
    """Judge one metric on one workload; return (verdict, pairs the change won)."""
    sign = 1.0 if higher_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "better", wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not every_run_better:
        return "unresolved", wins
    if p_med and -gain / abs(p_med) > bound:
        return "worse", wins
    return "no worse", wins


def report(parent_path, change_path) -> list[dict]:
    parent, change = load_records(parent_path), load_records(change_path)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        complete = len(seeds) >= max(PAIRS, len(set(p_runs) | set(c_runs)))
        failed = {side: sum(runs[s]["failed"] for s in seeds) for side, runs in
                  (("parent", p_runs), ("change", c_runs))}
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            p = [p_runs[s]["metrics"][name] for s in seeds]
            c = [c_runs[s]["metrics"][name] for s in seeds]
            if not complete:
                v, wins = "incomplete", 0
            else:
                v, wins = verdict(p, c, list(zip(p, c)), spec["bound"], spec["better"] == "higher")
            if v == "better" and failed["change"] > failed["parent"]:
                v = "not counted"
            rows.append({"workload": workload, "metric": name, "unit": spec["unit"],
                         "parent": quartiles(p) if p else (), "change": quartiles(c) if c else (),
                         "wins": wins, "pairs": len(seeds), "failed": failed, "verdict": v})
    return rows


def print_report(rows: list[dict]) -> None:
    print(f"{'workload':26s} {'metric':14s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    workload = None
    for r in rows:
        if r["workload"] != workload:
            workload = r["workload"]
            print(f"{workload}: {r['pairs']} of {PAIRS} pairs complete; failed operations: "
                  f"parent {r['failed']['parent']}, change {r['failed']['change']}")
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:26s} {r['metric']:14s} {p:>32s} {c:>32s} "
              f"{r['wins']:>2d}/{r['pairs']:<3d}  {r['verdict']} ({r['unit']})")


def run_pairs(args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for workload in args.workload:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--root", str(sides[side]),
                       "--workload", workload, "--seed", str(args.seed + i),
                       "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
                       "--results", str(out / f"{side}.jsonl")]
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HOME)
                if proc.returncode != 0:
                    tail = " | ".join(proc.stderr.strip().splitlines()[-2:])
                    print(f"{workload} pair {i} {side}: FAILED, exit {proc.returncode}: {tail[:200]}",
                          flush=True)
                    continue
                last = proc.stdout.strip().splitlines()[-1]
                print(f"{workload} pair {i} {side}: {last[:160]}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two commits with the benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run ten alternating parent/change pairs, then report")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--out", default=str(HOME / ".perfbench_results"))
    p = sub.add_parser("report", help="judge two result files")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "run":
        run_pairs(args)
        args.parent, args.change = Path(args.out) / "parent.jsonl", Path(args.out) / "change.jsonl"
    print_report(report(args.parent, args.change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
