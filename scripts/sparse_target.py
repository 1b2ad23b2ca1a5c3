"""Scale target: a 10^5 x 10^4 system at 0.1 % density, end to end.

Generates the instance (10^6 entries), writes it as an instance directory,
loads it back and runs a fixed number of iterations per agent on the
loaded copy.  Held as dense shards, A would take 8 GB; the agents hold it
as sparse rows.  Prints the phase timings, setup_s (generate, save and
load), wall_s (setup and run) and peak_rss_mb, the process's peak
resident set size.

    PYTHONPATH=src python scripts/sparse_target.py [--sampling iid] [--lam 1] [--m 20000 --n 2000]

The instance directory is written to a temporary directory.
"""
import argparse
import resource
import tempfile
import time
from pathlib import Path

from kaczsim import harness, problems
from kaczsim.harness import RunOptions

AGENTS = 8
BLOCK_SIZE = 20
INTERVAL = 5
SEED = 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # ru_maxrss is in kB


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--m", type=int, default=100_000)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--density", type=float, default=0.001)
    p.add_argument("--k-max", type=int, default=1000, help="iterations per agent")
    p.add_argument("--sampling", choices=["cycle", "iid"], default="cycle")
    p.add_argument("--lam", type=float, default=None)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = problems.ProblemSpec(m=args.m, n=args.n, density=args.density, seed=SEED,
                                agents=AGENTS)
    timings = {}
    start = time.perf_counter()
    inst = problems.generate(spec)
    timings["generate_s"] = time.perf_counter() - start
    nnz = inst.A.nnz
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "instance"
        t = time.perf_counter()
        problems.save(inst, directory)
        timings["save_s"] = time.perf_counter() - t
        del inst   # the run uses the loaded copy
        t = time.perf_counter()
        inst = problems.load(directory)
        timings["load_s"] = time.perf_counter() - t
    timings["setup_s"] = time.perf_counter() - start
    opts = RunOptions(block_size=BLOCK_SIZE, lam=args.lam, sampling=args.sampling,
                      interval=INTERVAL, tol=1e-12, k_max=args.k_max, stop_mode="all", seed=SEED)
    t = time.perf_counter()
    result = harness.run_single(inst, opts)
    timings["run_s"] = time.perf_counter() - t
    timings["wall_s"] = time.perf_counter() - start

    print(f"instance {args.m}x{args.n}, {nnz} entries, {AGENTS} agents, "
          f"{args.sampling} blocks of {BLOCK_SIZE}, lam {args.lam}")
    print(f"stop_reason {result.stop_reason}")
    print(f"iterations_per_agent {min(s.k for s in result.states)}")
    print(f"e_stop {result.metrics.e_stop:.6g}")
    for name, value in timings.items():
        print(f"{name} {value:.3f}")
    print(f"peak_rss_mb {peak_rss_mb():.1f}")


if __name__ == "__main__":
    main()
