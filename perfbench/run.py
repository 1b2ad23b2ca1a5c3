"""kaczsim benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload consistent_2000x400 --seed 1 --trace 0
    python3 perfbench/run.py --smoke            # every workload at a tiny size, schema check

BENCHMARK.json at the checkout's root names the workloads and the metrics
with their units, and --seconds defaults to its run_seconds.
Each operation runs in a fresh worker process (perfbench/worker.py), so
every sample pays the program's import the way a `kaczsim` user does.  The
run starts workers one after another until --seconds have passed (at
least three), then prints every end-to-end metric (--trace 0) or every
per-layer metric (--trace 1) by name with its unit, and as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.
Untraced runs time the reference work (perfbench/reference.py) around
every worker and report the workers' times scaled to its speed
(`at_reference_speed`), with the unscaled ones under "host".

--trace 1 alternates plain and traced workers and ends with one
tracemalloc worker; its end-to-end numbers are not reported, only the
per-layer ones and the tracing overhead.  The last traced worker's spans
are written to .perfbench_results/spans-<workload>-<seed>.jsonl.
--results FILE appends the full record (samples, quartiles, unscaled
times, digests, environment) as one JSON line, which perfbench/compare.py reads.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here (the reference work) and in every worker, which
# inherits the environment.  The program's linear algebra is on small
# blocks inside a sequential event loop; a second BLAS thread buys little
# there and makes every timing depend on what else runs on the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from layers import COUNTS  # noqa: E402
from reference import reference_s  # noqa: E402
from workloads import ops_per_worker  # noqa: E402

HERE = Path(__file__).resolve().parent
HOME = HERE.parent                      # the checkout the benchmark runs in
WORK = HOME / ".perfbench_work"
RESULTS = HOME / ".perfbench_results"

SPEC = json.loads((HOME / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}     # name -> unit
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_WORKERS = 3          # plain workers per untraced run
MIN_PAIRS = 2            # plain + traced pairs per traced run
WORKER_TIMEOUT_S = 150.0
REFERENCE_S = 0.5        # the time scale: seconds the reference work takes
SCALED = ("wall_s", "setup_s", "us_per_iter", "events_per_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ------------------------------------------------------------------ workers

def start_worker(job: dict) -> tuple[dict | None, float, str]:
    """Run one worker; return (its report or None, spawn time, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HOME,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, t_spawn, f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return None, t_spawn, f"worker exit {proc.returncode}: {' | '.join(tail)}"
    return json.loads(lines[-1]), t_spawn, ""


def git_commit(root: Path) -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -------------------------------------------------------------- statistics

def summary(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples, and the samples."""
    values = [v for v in values if v is not None]
    if not values:
        return {"value": None, "n": 0}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def end_to_end_samples(report: dict, t_spawn: float) -> dict[str, float | None]:
    run_s, iters, events = report["engine_run_s"], report["iterations"], report["events"]
    first = report["t_first_run"]
    return {
        "wall_s": report["t_done"] - t_spawn - report["note_s"],
        "setup_s": first - t_spawn if first is not None else None,
        "us_per_iter": run_s / iters * 1e6 if iters else None,
        "events_per_s": events / run_s if run_s > 0 else None,
        "peak_rss_mb": report["rss_kb"] / 1024.0,
    }


def at_reference_speed(sample: dict, ref_s: float) -> dict:
    """A worker's times as they would read on a machine where the reference
    work takes REFERENCE_S, given that it took ref_s around the worker.

    On a shared VM other tenants can slow everything by half for minutes
    at a time, the program with it; the reference work slows alike, so
    the ratio holds still while host time drifts."""
    scale = REFERENCE_S / ref_s
    out = dict(sample)
    for name in SCALED:
        if out[name] is not None:
            out[name] = out[name] / scale if name == "events_per_s" else out[name] * scale
    return out


# --------------------------------------------------------------------- run

class Run:
    """One benchmark run: its workers, their samples and the failures seen."""

    def __init__(self, root: Path, workload: str, size: str, seed: int, workdir: Path):
        self.root, self.workload, self.size, self.seed = root, workload, size, seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digest: dict | None = None
        self.fingerprint: dict = {}
        self.host: dict = {}     # unscaled host times and the reference's, untraced runs only
        self.count = 0

    def job(self, mode: str, **extra) -> dict:
        self.count += 1
        out = self.workdir / f"op{self.count}"
        return {"root": str(self.root), "workload": self.workload, "size": self.size,
                "seed": self.seed, "mode": mode, "inputs": str(self.workdir / "inputs"),
                "out": str(out), **extra}

    def prepare(self) -> None:
        compileall.compile_dir(str(self.root / "src"), quiet=1)
        (self.workdir / "inputs").mkdir(parents=True, exist_ok=True)
        report, _, error = start_worker(self.job("prepare"))
        if report is None:
            raise BenchError(f"preparing inputs failed: {error}")
        self.fingerprint = {"nproc": len(os.sched_getaffinity(0)), **report["fingerprint"],
                            "commit": git_commit(self.root)}

    def operation(self, mode: str, **extra) -> tuple[dict | None, float]:
        """One worker; failures and digest mismatches are counted here."""
        job = self.job(mode, **extra)
        report, t_spawn, error = start_worker(job)
        shutil.rmtree(job["out"], ignore_errors=True)
        ops = ops_per_worker(self.workload, self.size)
        if report is None:
            self.attempted += ops
            self.failed += ops
            self.messages.append(error)
            return None, t_spawn
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.messages += report["messages"]
        digest = report.get("digest")
        if digest is not None:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                self.failed += report["attempted"] - report["failed"]
                self.messages.append(f"digest {digest} differs from {self.digest}: not deterministic")
        return report, t_spawn

    def measure(self, seconds: float, trace: bool) -> dict:
        t_begin = time.monotonic()
        minimum = 1 if self.size == "smoke" else (MIN_PAIRS if trace else MIN_WORKERS)
        plain: list[dict] = []
        traced: list[dict] = []
        ref_before = None if trace else reference_s()
        while True:
            elapsed = time.monotonic() - t_begin
            done = len(plain) >= minimum and (not trace or len(traced) >= minimum)
            if done and elapsed >= seconds:
                break
            report, t_spawn = self.operation("plain")
            if not trace:    # the worker's reference time: the mean of the runs either side of it
                ref_after = reference_s()
                ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
            if report is not None:
                sample = {"report": report, **end_to_end_samples(report, t_spawn)}
                if not trace:
                    sample["ref_s"] = ref_s
                plain.append(sample)
            if trace:
                spans = RESULTS / f"spans-{self.workload}-{self.seed}.jsonl"
                report, t_spawn = self.operation("trace", spans=str(spans))
                if report is not None:
                    traced.append({"report": report, **end_to_end_samples(report, t_spawn)})
            if not plain and not traced and len(self.messages) >= 2:
                break    # two workers died before any succeeded: give up early
        if not plain or (trace and not traced):
            raise BenchError("no worker completed: " + "; ".join(self.messages[-2:]))

        if not trace:
            scaled = [at_reference_speed(p, p["ref_s"]) for p in plain]
            metrics = {name: summary([s[name] for s in scaled]) for name in END_TO_END if name != "ok_ratio"}
            self.host = {name: summary([p[name] for p in plain]) for name in SCALED + ("ref_s",)}
            metrics["ok_ratio"] = summary([(self.attempted - self.failed) / self.attempted])
            return metrics

        memory, _ = self.operation("memory")
        metrics = {}
        for name in PER_LAYER:
            if name.startswith("trace.") or name == "engine.retained_bytes_per_event":
                continue
            metrics[name] = summary([t["report"]["layers"][name] for t in traced])
        for name in COUNTS:
            values = {t["report"]["layers"][name] for t in traced}
            if len(values) > 1:
                self.failed += 1
                self.attempted += 1
                self.messages.append(f"count {name} differs between traced workers: {sorted(values)}")
        metrics["cli.import_s"] = summary([p["report"]["import_s"] for p in plain + traced])
        untraced_wall = statistics.median(p["wall_s"] for p in plain)
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        metrics["trace.overhead_s"] = summary([traced_wall - untraced_wall])
        metrics["trace.overhead_ratio"] = summary([(traced_wall - untraced_wall) / untraced_wall])
        metrics["engine.retained_bytes_per_event"] = summary(
            [memory["retained_bytes_per_event"]] if memory else [])
        return {name: metrics[name] for name in PER_LAYER}


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full") -> dict:
    """Measure one workload; return the full record."""
    workdir = WORK / f"run-{os.getpid()}-{workload}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = Run(root, workload, size, seed, workdir)
        if trace:
            RESULTS.mkdir(exist_ok=True)
        run.prepare()
        metrics = run.measure(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    units = PER_LAYER if trace else END_TO_END
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "size": size, "root": str(root), "fingerprint": run.fingerprint,
            "digest": run.digest, "attempted": run.attempted, "failed": run.failed,
            "messages": run.messages[:20], "host": run.host,
            "metrics": {name: {**m, "unit": units[name]} for name, m in metrics.items()}}


def result_line(record: dict) -> dict:
    """The result object printed last: every metric's median with its unit."""
    correct = record["failed"] == 0 and all(m["value"] is not None for m in record["metrics"].values())
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {name: {"value": m["value"] if m["value"] is not None else float("nan"),
                               "unit": m["unit"]}
                        for name, m in record["metrics"].items()}}


def print_record(record: dict) -> None:
    fp = record["fingerprint"]
    print(f"kaczsim benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} size={record['size']}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    if record["digest"]:
        print("digest: " + " ".join(f"{k}={v}" for k, v in record["digest"].items()))
    units = {**END_TO_END, **PER_LAYER, "ref_s": "s"}
    for title, group in (("", record["metrics"]),
                         ("unscaled host time, and the reference work's:", record["host"])):
        if title and group:
            print(title)
        for name, m in group.items():
            if m["value"] is None:
                print(f"  {name:34s} missing")
                continue
            spread = f" (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})" if m["n"] > 1 else ""
            print(f"  {name:34s} {m['value']:<14.6g} {units[name]:8s} median of {m['n']}{spread}")
    print(f"operations: attempted {record['attempted']}, failed {record['failed']}")
    for message in record["messages"]:
        print(f"  failure: {message}")


# -------------------------------------------------------------------- smoke

def smoke(root: Path, workloads: list[str]) -> int:
    """Every workload at a tiny size, untraced and traced; check the result schema."""
    problems = []
    for workload in workloads:
        for trace in (False, True):
            record = run_benchmark(root, workload, seed=1, seconds=0, trace=trace, size="smoke")
            line = result_line(record)
            problems += [f"{workload} trace={int(trace)}: {p}" for p in check_schema(line, trace)]
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def check_schema(line: dict, trace: bool) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if not line["correct"]:
        problems.append("result is not correct")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1 and isinstance(line["failed"], int)):
        problems.append("attempted/failed are not counts")
    expected = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != expected:
        problems.append(f"metric names/units {sorted(got)} != {sorted(expected)}")
    bad = [n for n, m in line["metrics"].items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        problems.append(f"non-finite values {bad}")
    return problems


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, schema check only")
    parser.add_argument("--root", help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--results", help="append the full record as a JSON line to this file")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve() if args.root else HOME
    if not (root / "src" / "kaczsim" / "__init__.py").is_file():
        print(f"error: no kaczsim sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(root, [args.workload] if args.workload else list(WORKLOADS))
        if args.workload is None:
            parser.error("--workload is required")
        record = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_record(record)
    if args.results:
        with open(args.results, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
