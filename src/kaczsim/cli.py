"""Command-line entry point.

Subcommands: gen (write an instance directory), run (one simulation),
sweep (one axis, seeded replicates), certify (contraction certificate
JSON), report (melt a metrics CSV into long form).  The KACZSIM_OUT
environment variable overrides the default output directory when --out
is not given.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import harness, problems
from .errors import InvalidParameter, KaczsimError
from .harness import RunOptions


def _out_dir(args, default="out") -> Path:
    out = args.out or os.environ.get("KACZSIM_OUT") or default
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config document; flags override it")
    p.add_argument("--block-size", type=int, help="rows per projection step")
    p.add_argument("--lam", type=float, help="regularization parameter (omit for consistent mode)")
    p.add_argument("--sampling", choices=["cycle", "iid"])
    p.add_argument("--trigger", choices=["every_k", "global"])
    p.add_argument("--interval", type=int, help="broadcast every k-th iteration")
    p.add_argument("--spacing", type=float, help="global broadcast tick spacing")
    p.add_argument("--cap", type=int, dest="topology_cap",
                   help="topology degree cap (default: agent count)")
    p.add_argument("--topology-seed", type=int)
    p.add_argument("--delay-bound", type=float)
    p.add_argument("--t-min", type=float)
    p.add_argument("--t-max", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--k-max", type=int)
    p.add_argument("--budget", type=int, dest="event_budget",
                   help="event budget, checked before each event: a log holds at most "
                        "the budget + 2 events")
    p.add_argument("--stop-mode", choices=["first", "all"])
    p.add_argument("--rho", type=float, dest="failure_rho", help="failure ratio")
    p.add_argument("--xi", type=float, dest="failure_xi", help="failure intensity")
    p.add_argument("--agents", type=int, help="repartition the instance over this many agents")
    p.add_argument("--seed", type=int)


def _resolve_options(args) -> RunOptions:
    opts = RunOptions()
    if getattr(args, "config", None):
        try:
            doc = json.loads(Path(args.config).read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidParameter(f"config {args.config} is not valid JSON: {exc}") from exc
        opts = harness.options_from_document(doc, opts)
    # every RunOptions field is the dest of one run flag
    overrides = {f.name: getattr(args, f.name) for f in fields(RunOptions)}
    return replace(opts, **{name: value for name, value in overrides.items() if value is not None})


def _numbers(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidParameter(f"{flag} must be comma-separated numbers, got {text!r}") from None


def cmd_gen(args) -> int:
    spec = problems.ProblemSpec(m=args.m, n=args.n, density=args.density,
                                noise=args.sigma, seed=args.seed, agents=args.agents)
    inst = problems.generate(spec)
    out = _out_dir(args, default="instance")
    problems.save(inst, out)
    print(f"wrote instance ({args.m}x{args.n}, {inst.A.nnz} nonzeros, "
          f"default agent count {inst.agents}) to {out}")
    return 0


def cmd_run(args) -> int:
    inst = problems.load(args.instance)
    opts = _resolve_options(args)
    result = harness.run_single(inst, opts)
    out = _out_dir(args)
    doc = opts.to_document()
    h = harness.config_hash(doc)
    harness.write_metrics_csv(
        [{"cell": 0, "rep": 0, "seed": opts.seed, "metrics": result.metrics, "config_hash": h}],
        out / "metrics.csv")
    harness.write_events_csv(result.log, out / "events.csv")
    (out / "configs.json").write_text(json.dumps({h: doc}, indent=2, sort_keys=True))
    m = result.metrics
    status = "converged" if result.converged else f"stopped ({result.stop_reason})"
    print(f"{status}: k_iter={m.k_iter:.1f} c={m.c:.1f} T={m.T:.3f} e_stop={m.e_stop:.6g}")
    print(f"wrote metrics.csv, events.csv, configs.json to {out}")
    return 0


def cmd_sweep(args) -> int:
    inst = problems.load(args.instance)
    base = _resolve_options(args)
    values = _numbers(args.values, "--values")
    xi_values = _numbers(args.xi_values, "--xi-values") if args.xi_values else None
    outcome = harness.sweep(inst, args.axis, values, base, reps=args.reps, xi_values=xi_values)
    out = _out_dir(args)
    harness.write_metrics_csv(outcome.rows, out / "metrics.csv")
    harness.write_aggregated_csv(outcome.aggregated, out / "aggregated.csv", reps=args.reps)
    (out / "configs.json").write_text(json.dumps(outcome.configs, indent=2, sort_keys=True))
    print(f"swept {args.axis} over {len(outcome.cells)} cells x {args.reps} reps -> {out}")
    return 0


def cmd_certify(args) -> int:
    report = harness.certify(m=args.m, n=args.n, agents=args.agents, seed=args.seed,
                             window=args.window, l_window=args.l)
    out = _out_dir(args)
    path = out / "certify.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"hybrid_norm={report['hybrid_norm']:.6f} d={report['d']} "
          f"C_l={report['C_l_verdict']} -> {path}")
    return 0


def cmd_report(args) -> int:
    out = _out_dir(args)
    path = out / "report.csv"
    harness.write_report_csv(args.metrics, path)
    print(f"wrote long-format report to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kaczsim",
                                     description="asynchronous block projection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate and save a problem instance")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agents", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one simulation")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    _add_run_options(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep one axis with seeded replicates")
    p.add_argument("--instance", required=True)
    p.add_argument("--axis", choices=list(harness.SWEEP_AXES), required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--xi-values", help="comma-separated xi grid (failure axis)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out")
    _add_run_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="emit a contraction certificate JSON")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("report", help="melt metrics.csv into long format")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KaczsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
