"""Which program functions the benchmark wraps, and what it reads off them.

Every worker wraps `engine.run` (time to the first simulated event, host
time in the engine, iteration and event counts, the event-log digest) and
`graphs.build_transition_matrix` (polynomial term count).  A traced worker
also wraps the public functions of every layer and reduces the spans to
the per-layer metrics BENCHMARK.json names (`layer_metrics`).  A function
a later version of the program no longer has is skipped: its count reads 0.
"""
from __future__ import annotations

import hashlib
import math
import os
import tracemalloc
from pathlib import Path

from tracing import NAME, NOTE, PARENT, START, Tracer

# Per-layer values that are exact counts: they must repeat run to run.
COUNTS = ("engine.events", "engine.deliver_share", "engine.stale_ratio", "engine.messages",
          "agents.step_calls", "agents.cache_hit_ratio", "linalg.pinv_calls",
          "linalg.cholesky_calls", "linalg.oracle_calls", "problems.nnz",
          "problems.bytes_written", "harness.build_calls", "harness.events_csv_bytes",
          "graphs.poly_terms")

ORACLES = ("linalg.min_norm_solve", "linalg.augmented_min_norm_solve")


# ---------------------------------------------------------------------- notes

def _kind(ev) -> str:
    return str(getattr(ev.kind, "name", ev.kind))


def run_note(args, kwargs, result, exc):
    """Counts and a digest of one engine run (also of one that raised NoConvergence)."""
    result = result if exc is None else getattr(exc, "result", None)
    if result is None:
        return None
    log = result.log
    deliver = stale = 0
    for ev in log:
        if _kind(ev) == "Deliver":
            deliver += 1
            if str(ev.detail).endswith("stale"):
                stale += 1
    text = "\n".join(f"{ev.time!r} {_kind(ev)} {ev.agent}" for ev in log)
    m = result.metrics
    return {"events": len(log), "iterations": sum(s.k for s in result.states),
            "messages": len(result.messages), "deliver": deliver, "stale": stale,
            "log_sha": hashlib.sha256(text.encode()).hexdigest(),
            "metrics": [len(log), repr(float(m.k_iter)), repr(float(m.T)), repr(float(m.e_stop))]}


def terms_note(args, kwargs, result, exc):
    polys = getattr(result, "polys", None)
    return sum(len(p.terms) for row in polys for p in row) if polys else 0


def nnz_note(args, kwargs, result, exc):
    return int(result.A.nnz) if result is not None else 0


def dir_bytes_note(args, kwargs, result, exc):
    directory = Path(result if result is not None else args[1])
    return sum(f.stat().st_size for f in directory.iterdir() if f.is_file())


def file_bytes_note(args, kwargs, result, exc):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def cached_step_note(args, kwargs, result, exc):
    cache = kwargs["cache"] if "cache" in kwargs else (args[3] if len(args) > 3 else None)
    return cache is not None


# ------------------------------------------------------------------ wrapping

def install(tracer: Tracer, km, full: bool) -> None:
    _wrap(tracer, km.engine, "run", "engine.run", run_note)
    _wrap(tracer, km.graphs, "build_transition_matrix", "graphs.build_transition_matrix", terms_note)
    if not full:
        return
    _wrap(tracer, km.agents, "step", "agents.step", cached_step_note)
    _wrap(tracer, km.agents, "aggregate", "agents.aggregate")
    _wrap(tracer, km.agents, "sample_block", "agents.sample_block")
    for attr in ("pinv", "gram_cholesky", "kaczmarz_correction", "regularized_gram_solve",
                 "min_norm_solve", "augmented_min_norm_solve"):
        _wrap(tracer, km.linalg, attr, "linalg." + attr)
    # problems imports the oracle by name, so its reference is wrapped too
    _wrap(tracer, km.problems, "min_norm_solve", "linalg.min_norm_solve")
    _wrap(tracer, km.problems, "generate", "problems.generate", nnz_note)
    _wrap(tracer, km.problems, "save", "problems.save", dir_bytes_note)
    _wrap(tracer, km.problems, "load", "problems.load", nnz_note)
    _wrap(tracer, km.problems, "partition", "problems.partition")
    for attr in ("build_sim_config", "run_single", "sweep", "write_metrics_csv",
                 "write_aggregated_csv", "certify"):
        _wrap(tracer, km.harness, attr, "harness." + attr)
    _wrap(tracer, km.harness, "write_events_csv", "harness.write_events_csv", file_bytes_note)
    for attr in ("certification_report", "hybrid_norm_A", "comm_graph_sequence", "detect_C_l"):
        _wrap(tracer, km.graphs, attr, "graphs." + attr)


def _wrap(tracer, module, attr, name, note=None) -> None:
    if callable(getattr(module, attr, None)):
        tracer.wrap(module, attr, name, note)


# ---------------------------------------------------------------- reductions

def run_notes(tracer: Tracer) -> list[dict]:
    return [n for n in tracer.notes("engine.run") if n]


def digests(tracer: Tracer) -> dict[str, str]:
    """Digests of the simulated behaviour: event logs and run metrics."""
    runs = run_notes(tracer)
    log = hashlib.sha256("".join(r["log_sha"] for r in runs).encode()).hexdigest()
    sim = [r["metrics"] for r in runs] + [tracer.notes("graphs.build_transition_matrix")]
    return {"event_log": log[:16],
            "metrics": hashlib.sha256(repr(sim).encode()).hexdigest()[:16]}


def engine_totals(tracer: Tracer) -> dict[str, float]:
    """Host time in engine.run with the iterations and events it simulated."""
    runs = run_notes(tracer)
    return {"run_s": sum(tracer.durations("engine.run")),
            "iterations": sum(r["iterations"] for r in runs),
            "events": sum(r["events"] for r in runs),
            "first_run_start": next((rec[START] for rec in tracer.spans if rec[NAME] == "engine.run"), None)}


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, float]:
    """Per-layer values of one traced operation (trace.* and retained bytes excluded)."""
    tot = tracer.totals()

    def s(name, key="s"):
        return float(tot.get(name, {}).get(key, 0.0))

    runs = run_notes(tracer)
    events = sum(r["events"] for r in runs)
    deliver = sum(r["deliver"] for r in runs)
    step_calls = int(s("agents.step", "calls"))
    steps = sorted(tracer.durations("agents.step"))
    cached = {i for i, rec in enumerate(tracer.spans) if rec[NAME] == "agents.step" and rec[NOTE]}
    factorisations = sum(1 for rec in tracer.spans
                         if rec[NAME] in ("linalg.pinv", "linalg.gram_cholesky") and rec[PARENT] in cached)
    engine_self = s("engine.run", "self_s")
    return {
        "engine.run_s": s("engine.run"),
        "engine.self_s": engine_self,
        "engine.self_us_per_event": engine_self / events * 1e6 if events else 0.0,
        "engine.events": events,
        "engine.deliver_share": deliver / events if events else 0.0,
        "engine.stale_ratio": sum(r["stale"] for r in runs) / deliver if deliver else 0.0,
        "engine.messages": sum(r["messages"] for r in runs),
        "agents.step_calls": step_calls,
        "agents.step_s": s("agents.step"),
        "agents.step_us": s("agents.step") / step_calls * 1e6 if step_calls else 0.0,
        "agents.step_p99_us": steps[min(len(steps) - 1, math.ceil(0.99 * len(steps)) - 1)] * 1e6 if steps else 0.0,
        "agents.aggregate_s": s("agents.aggregate"),
        "agents.sample_block_s": s("agents.sample_block"),
        "agents.solve_s": s("agents.step") - s("agents.aggregate") - s("agents.sample_block"),
        "agents.cache_hit_ratio": 1.0 - factorisations / len(cached) if cached else 0.0,
        "linalg.pinv_calls": int(s("linalg.pinv", "calls")),
        "linalg.cholesky_calls": int(s("linalg.gram_cholesky", "calls")),
        "linalg.oracle_calls": int(sum(s(n, "calls") for n in ORACLES)),
        "linalg.oracle_s": sum(s(n) for n in ORACLES),
        "problems.generate_s": s("problems.generate"),
        "problems.save_s": s("problems.save"),
        "problems.load_s": s("problems.load"),
        "problems.nnz": max([n for n in tracer.notes("problems.generate") + tracer.notes("problems.load") if n] or [0]),
        "problems.bytes_written": sum(n for n in tracer.notes("problems.save") if n),
        "harness.build_sim_config_s": s("harness.build_sim_config"),
        "harness.build_calls": int(s("harness.build_sim_config", "calls")),
        "harness.sweep_self_s": s("harness.sweep", "self_s"),
        "harness.write_events_csv_s": s("harness.write_events_csv"),
        "harness.events_csv_bytes": sum(n for n in tracer.notes("harness.write_events_csv") if n),
        "harness.write_metrics_csv_s": s("harness.write_metrics_csv"),
        "graphs.transition_s": s("graphs.build_transition_matrix"),
        "graphs.poly_terms": sum(n for n in tracer.notes("graphs.build_transition_matrix") if n),
        "graphs.hybrid_norm_s": s("graphs.hybrid_norm_A"),
        "graphs.connectivity_s": s("graphs.comm_graph_sequence") + s("graphs.detect_C_l"),
        "harness.certify_s": s("harness.certify"),
        "cli.import_s": import_s,
    }


# ------------------------------------------------------------ retained memory

def install_memory_probe(km, sink: list) -> None:
    """Wrap engine.run to record (bytes still allocated with the result alive,
    events) per run, under tracemalloc.  Used by its own worker, never with spans."""
    run = km.engine.run

    def traced_run(*args, **kwargs):
        result = None
        tracemalloc.start()
        try:
            result = run(*args, **kwargs)
            return result
        except Exception as exc:
            result = getattr(exc, "result", None)
            raise
        finally:
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            sink.append((retained, len(result.log) if result is not None else 0))

    km.engine.run = traced_run
