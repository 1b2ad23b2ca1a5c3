"""Scale target: a 10^5 x 10^4 system at 0.1 % density, end to end.

Generates the instance (10^6 entries), writes it as an instance directory,
loads it back and runs on the loaded copy: a fixed number of iterations
per agent, or with --tol-rel a solve, until every agent is within
tol_rel * |x*| of the solution (stop_mode all; --k-max then caps the
iterations, 80 000 by default; not with --lam, whose runs settle away
from the regularized oracle).  Held as dense shards, A would take 8 GB;
the agents hold it as sparse rows.  Prints the stop reason, the
iterations per agent, the events logged, the phase timings, setup_s
(generate, save and load), build_s (partition, agent configs and, with
--lam, the regularized oracle), run_s (the engine alone), wall_s (all of
them) and peak_rss_mb, the process's peak resident set size.

    PYTHONPATH=src python scripts/sparse_target.py [--sampling iid] [--lam 1] [--m 20000 --n 2000]
    PYTHONPATH=src python scripts/sparse_target.py --tol-rel 1e-6

The instance directory is written to a temporary directory.
"""
import argparse
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from kaczsim import engine, harness, problems
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
    p.add_argument("--k-max", type=int, default=None,
                   help="iterations per agent (default 1000; with --tol-rel, 80000)")
    p.add_argument("--tol-rel", type=float, default=None,
                   help="solve to this tolerance relative to |x*|, every agent within it")
    p.add_argument("--sampling", choices=["cycle", "iid"], default="cycle")
    p.add_argument("--lam", type=float, default=None)
    args = p.parse_args(argv)
    if args.tol_rel is not None and args.lam is not None:
        # the multi-agent regularized consensus settles off the regularized
        # oracle, so a tolerance relative to it is never met
        p.error("--tol-rel cannot be combined with --lam: a regularized run does not "
                "reach the regularized oracle, so it would only spend its --k-max")
    return args


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
    k_max = args.k_max if args.k_max is not None else (1000 if args.tol_rel is None else 80_000)
    tol = 1e-12 if args.tol_rel is None else args.tol_rel * float(np.linalg.norm(inst.x_star))
    # An agent step logs one Iterate and, every INTERVAL-th, one Broadcast
    # and at most AGENTS - 1 Deliver events, so this budget never ends a run.
    budget = AGENTS * k_max * (2 + AGENTS // INTERVAL)
    opts = RunOptions(block_size=BLOCK_SIZE, lam=args.lam, sampling=args.sampling,
                      interval=INTERVAL, tol=tol, k_max=k_max, event_budget=budget,
                      stop_mode="all", seed=SEED)
    t = time.perf_counter()
    cfg = harness.build_sim_config(inst, opts)
    timings["build_s"] = time.perf_counter() - t
    t = time.perf_counter()
    result = engine.run(cfg)
    timings["run_s"] = time.perf_counter() - t
    timings["wall_s"] = time.perf_counter() - start

    print(f"instance {args.m}x{args.n}, {nnz} entries, {AGENTS} agents, "
          f"{args.sampling} blocks of {BLOCK_SIZE}, lam {args.lam}, tol {tol:.6g}")
    print(f"stop_reason {result.stop_reason}")
    print(f"iterations_per_agent {min(s.k for s in result.states)}")
    print(f"events {len(result.log)}")
    print(f"e_stop {result.metrics.e_stop:.6g}")
    for name, value in timings.items():
        print(f"{name} {value:.3f}")
    print(f"peak_rss_mb {peak_rss_mb():.1f}")


if __name__ == "__main__":
    main()
