"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py '<job JSON>'

The job names the source root, workload, size, seed, mode and directories.
Modes: `prepare` writes the run's inputs and reports the environment;
`plain` runs one operation with only `engine.run` and
`graphs.build_transition_matrix` wrapped; `trace` wraps every layer;
`memory` measures what `engine.run` leaves allocated, under tracemalloc.
The worker prints one JSON line.  Times it reports as `t_*` are
`time.monotonic()` readings, which the parent compares with its own.
"""
import json
import os
import resource
import sys
import time


def import_program(root: str) -> float:
    """Import the CLI (and with it every layer) from root/src; return the seconds taken."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import kaczsim.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    import kaczsim
    origin = os.path.realpath(kaczsim.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"kaczsim imported from {origin}, not from {src}")
    return elapsed


class Program:
    """The program's modules, looked up once after the import."""

    def __init__(self):
        from kaczsim import agents, engine, errors, graphs, harness, linalg, problems
        self.agents, self.engine, self.errors, self.graphs = agents, engine, errors, graphs
        self.harness, self.linalg, self.problems = harness, linalg, problems


def fingerprint() -> dict:
    """BLAS library and thread count, library versions."""
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> None:
    job = json.loads(sys.argv[1])
    import_s = import_program(job["root"])
    km = Program()
    from pathlib import Path

    import layers
    import workloads
    from tracing import Tracer

    inputs, out = Path(job["inputs"]), Path(job["out"])
    report = {"import_s": import_s}
    if job["mode"] == "prepare":
        workloads.prepare(km, job["workload"], job["size"], job["seed"], inputs)
        report["fingerprint"] = fingerprint()
        print(json.dumps(report))
        return

    tracer = Tracer(clock=time.monotonic)
    retained: list = []
    if job["mode"] == "memory":
        layers.install_memory_probe(km, retained)
    else:
        layers.install(tracer, km, full=job["mode"] == "trace")
    out.mkdir(parents=True, exist_ok=True)
    outcome = workloads.run_op(km, job["workload"], job["size"], job["seed"], inputs, out)
    t_done = time.monotonic()
    tracer.close()

    engine = layers.engine_totals(tracer)
    report.update({
        "t_done": t_done, "note_s": tracer.note_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": outcome.attempted, "failed": outcome.failed, "messages": outcome.messages,
        "t_first_run": engine["first_run_start"], "engine_run_s": engine["run_s"],
        "iterations": engine["iterations"], "events": engine["events"],
    })
    if job["mode"] != "memory":
        report["digest"] = layers.digests(tracer)
    if job["mode"] == "trace":
        report["layers"] = layers.layer_metrics(tracer, import_s)
        if job.get("spans"):
            tracer.dump(job["spans"])
    if job["mode"] == "memory":
        total_bytes = sum(b for b, _ in retained)
        total_events = sum(e for _, e in retained)
        report["retained_bytes_per_event"] = total_bytes / total_events if total_events else 0.0
    print(json.dumps(report))


if __name__ == "__main__":
    main()
