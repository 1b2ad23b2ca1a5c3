"""Benchmark workloads: seeded inputs, one operation each, and its output checks.

One operation is what one fresh worker process does.  The parent writes
the inputs once per run (`prepare`), then starts workers that each call
`run_op`.  Every workload counts the operations it attempts -- simulation
runs, sweep replicates, gen->load round trips, certificates -- and
reports one failure message per operation that raised or failed a check.

Run lengths are fixed (k_max, replicates, windows) so that the work done
does not depend on the seed; the seed picks the instances and the
simulation streams.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAMBDA_GRID = (0.0, 0.3, 0.7, 1.0, 1.3, 1.7, 2.0, 2.3, 2.7, 3.0)
CASES_FILE = Path(__file__).with_name("certify_cases.json")

# "full" is the measured shape, "smoke" a tiny one for schema checks.
PARAMS = {
    "consistent_2000x400": {
        "full": dict(m=2000, n=400, density=0.01, agents=8, block=20, interval=2,
                     k_max=800, tol_rel=1e-4, err_bound=0.25),
        "smoke": dict(m=200, n=40, density=0.05, agents=4, block=10, interval=2,
                      k_max=60, tol_rel=1e-4, err_bound=0.5),
    },
    "lambda_sweep_100x30": {
        "full": dict(m=100, n=30, density=0.3, noise=1.0, agents=4, block=10, interval=5,
                     k_max=500, reps=1, grid=LAMBDA_GRID),
        "smoke": dict(m=40, n=12, density=0.3, noise=1.0, agents=2, block=5, interval=5,
                      k_max=20, reps=1, grid=(0.0, 1.0)),
    },
    "large_instance_4000x800": {
        "full": dict(m=4000, n=800, density=0.01, noise=0.1, agents=8, block=20, interval=5,
                     lam=1.0, k_max=500),
        "smoke": dict(m=200, n=40, density=0.05, noise=0.1, agents=4, block=10, interval=5,
                      lam=1.0, k_max=10),
    },
    "certify_window": {"full": dict(cases="full"), "smoke": dict(cases="smoke")},
}


def ops_per_worker(workload: str, size: str) -> int:
    """Operations one worker attempts; a worker that dies fails all of them."""
    p = PARAMS[workload][size]
    if workload == "lambda_sweep_100x30":
        return len(p["grid"]) * p["reps"]
    if workload == "large_instance_4000x800":
        return 2
    if workload == "certify_window":
        return len(load_cases(p["cases"]))
    return 1


def load_cases(size: str) -> list[dict]:
    return json.loads(CASES_FILE.read_text())[size]


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    messages: list[str] = field(default_factory=list)


def outcome(attempted: int, failures: list[str], failed: int | None = None) -> Outcome:
    """Failed operations default to one per message, capped at `attempted`."""
    count = min(len(failures), attempted) if failed is None else failed
    return Outcome(attempted, count, failures)


def spec(km, p: dict, seed: int):
    return km.problems.ProblemSpec(m=p["m"], n=p["n"], density=p["density"],
                                   noise=p.get("noise", 0.0), seed=seed, agents=p["agents"])


def prepare(km, workload: str, size: str, seed: int, inputs: Path) -> None:
    """Write the instance directory the workers load (untimed)."""
    if workload in ("consistent_2000x400", "lambda_sweep_100x30"):
        inst = km.problems.generate(spec(km, PARAMS[workload][size], seed))
        km.problems.save(inst, inputs / "instance")


def run_op(km, workload: str, size: str, seed: int, inputs: Path, out: Path) -> Outcome:
    p = PARAMS[workload][size]
    op = {"consistent_2000x400": consistent, "lambda_sweep_100x30": lambda_sweep,
          "large_instance_4000x800": large_instance, "certify_window": certify_window}[workload]
    return op(km, p, seed, inputs, out)


# ------------------------------------------------------------------ workloads

def consistent(km, p, seed, inputs, out) -> Outcome:
    """The `kaczsim run` path on a consistent instance: load, run_single, write."""
    h = km.harness
    inst = km.problems.load(inputs / "instance")
    x_norm = float(np.linalg.norm(inst.x_star))
    opts = h.RunOptions(block_size=p["block"], interval=p["interval"], sampling="cycle",
                        tol=p["tol_rel"] * x_norm, stop_mode="all", k_max=p["k_max"], seed=seed)
    result = h.run_single(inst, opts)
    doc = opts.to_document()
    key = h.config_hash(doc)
    h.write_metrics_csv([{"cell": 0, "rep": 0, "seed": seed, "metrics": result.metrics,
                          "config_hash": key}], out / "metrics.csv")
    h.write_events_csv(result.log, out / "events.csv")
    (out / "configs.json").write_text(json.dumps({key: doc}, indent=2, sort_keys=True))

    failures = []
    errs = [float(np.linalg.norm(s.x - inst.x_star)) for s in result.states]
    if result.stop_reason == "tol":
        if max(errs) > opts.tol:
            failures.append(f"converged but max agent error {max(errs):.3e} > tol {opts.tol:.3e}")
    elif result.stop_reason == "k_max":
        if any(s.k != p["k_max"] for s in result.states):
            failures.append("stopped at k_max before every agent reached it")
        if not max(errs) <= p["err_bound"] * x_norm:
            failures.append(f"max agent error {max(errs):.3e} > {p['err_bound']} * |x*|")
    else:
        failures.append(f"stop_reason {result.stop_reason!r}")
    with open(out / "events.csv", "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    if lines != len(result.log) + 1:
        failures.append(f"events.csv has {lines} lines for {len(result.log)} events")
    failures += check_metrics_csv(out / "metrics.csv", [result.metrics])
    return outcome(1, failures, failed=int(bool(failures)))


def lambda_sweep(km, p, seed, inputs, out) -> Outcome:
    """`scripts/sweep_lambda.py` shape: a lambda sweep with seeded replicates."""
    h = km.harness
    inst = km.problems.load(inputs / "instance")
    base = h.RunOptions(block_size=p["block"], interval=p["interval"], tol=1e-10,
                        k_max=p["k_max"], stop_mode="all", seed=seed)
    swept = h.sweep(inst, "lambda", list(p["grid"]), base, reps=p["reps"])
    h.write_metrics_csv(swept.rows, out / "metrics.csv")
    h.write_aggregated_csv(swept.aggregated, out / "aggregated.csv", reps=p["reps"])
    (out / "configs.json").write_text(json.dumps(swept.configs, indent=2, sort_keys=True))

    attempted = len(p["grid"]) * p["reps"]
    failures = []
    if len(swept.rows) != attempted:
        failures.append(f"{len(swept.rows)} sweep rows for {attempted} replicates")
    for row in swept.rows:
        m = row["metrics"]
        bad = [f for f in type(m).NUMERIC_FIELDS if not math.isfinite(getattr(m, f))]
        if bad:
            failures.append(f"cell {row['cell']} rep {row['rep']}: non-finite {bad}")
    if not failures:
        failures += check_metrics_csv(out / "metrics.csv", [r["metrics"] for r in swept.rows])
    return outcome(attempted, failures)


def large_instance(km, p, seed, inputs, out) -> Outcome:
    """gen -> save -> load -> build (augmented SVD oracle) -> short iid run."""
    h = km.harness
    inst = km.problems.generate(spec(km, p, seed))
    km.problems.save(inst, out / "instance")
    back = km.problems.load(out / "instance")
    failures = []
    if not same_instance(inst, back):
        failures.append("load(save(inst)) differs from inst")

    lam = p["lam"]
    opts = h.RunOptions(block_size=p["block"], lam=lam, sampling="iid", interval=p["interval"],
                        tol=1e-10, k_max=p["k_max"], stop_mode="all", seed=seed)
    cfg = h.build_sim_config(back, opts)     # not run_single: the checks need cfg.oracle
    try:
        result = km.engine.run(cfg)
    except km.errors.NoConvergence as exc:
        result = exc.result
    h.write_metrics_csv([{"cell": 0, "rep": 0, "seed": seed, "metrics": result.metrics,
                          "config_hash": h.config_hash(opts.to_document())}], out / "metrics.csv")

    # The oracle's y_reg is (b - A x_reg)/lam by construction, so the widened
    # residual |A x_reg + lam y_reg - b| is zero for any finite x_reg and tests
    # nothing.  The normal equations (A^T A + lam^2 I) x_reg = A^T b do.
    run_failures = []
    A = back.A.tocsr()
    b = back.b
    x_reg = np.asarray(cfg.oracle, dtype=float)
    normal = float(np.linalg.norm(A.T @ (b - A @ x_reg) - lam * lam * x_reg))
    if not normal <= 1e-8 * float(np.linalg.norm(A.T @ b)):
        run_failures.append(f"normal-equation residual {normal:.3e} > 1e-8 |A^T b|")
    if any(s.k != p["k_max"] for s in result.states):
        run_failures.append(f"run stopped ({result.stop_reason}) before k_max")
    if not all(np.all(np.isfinite(s.x)) for s in result.states):
        run_failures.append("non-finite agent estimate")
    return outcome(2, failures + run_failures, failed=int(bool(failures)) + int(bool(run_failures)))


def certify_window(km, p, seed, inputs, out) -> Outcome:
    """Contraction certificates on the recorded small dense cases."""
    cases = load_cases(p["cases"])
    start = seed % len(cases)
    failures = []
    for i in range(len(cases)):
        case = cases[(start + i) % len(cases)]
        report = km.harness.certify(m=case["m"], n=case["n"], agents=case["agents"],
                                    seed=case["seed"], window=case["window"])
        path = out / f"certify_{i}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True))
        problem = check_certificate(report, case, json.loads(path.read_text()))
        if problem:
            failures.append(f"case {case}: {problem}")
    return outcome(len(cases), failures)


# --------------------------------------------------------------------- checks

def check_certificate(report: dict, case: dict, read_back: dict) -> str | None:
    norm = report["hybrid_norm"]
    if not math.isfinite(norm):
        return f"hybrid norm {norm}"
    if all(report["complete_rows"]) and not norm < 1.0:
        return f"every row complete but hybrid norm {norm} >= 1"
    if abs(norm - case["hybrid_norm"]) > 1e-9:
        return f"hybrid norm {norm!r} != recorded {case['hybrid_norm']!r}"
    for key in ("complete_rows", "d", "C_l_verdict"):
        if report[key] != case[key]:
            return f"{key} {report[key]!r} != recorded {case[key]!r}"
    if read_back != json.loads(json.dumps(report)):
        return "certify.json does not read back"
    return None


def same_instance(a, b) -> bool:
    ca, cb = a.A.tocsr(), b.A.tocsr()
    ca.sort_indices()
    cb.sort_indices()
    return (ca.shape == cb.shape
            and np.array_equal(ca.indptr, cb.indptr) and np.array_equal(ca.indices, cb.indices)
            and np.array_equal(ca.data, cb.data)
            and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("b", "x_planted", "x_star")))


def check_metrics_csv(path: Path, metrics: list) -> list[str]:
    """metrics.csv holds one row per run, with floats written exactly."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(metrics):
        return [f"metrics.csv has {len(rows)} rows for {len(metrics)} runs"]
    for row, m in zip(rows, metrics):
        for f in ("k_iter", "T", "e_stop"):
            if float(row[f]) != getattr(m, f):
                return [f"metrics.csv {f}={row[f]} != {getattr(m, f)!r}"]
    return []
