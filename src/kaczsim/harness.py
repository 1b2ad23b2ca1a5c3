"""Experiment harness: single runs, sweeps with seeded replicates, CSV output.

A sweep varies exactly one axis (agent-count fraction, neighbor fraction,
broadcast interval, failure ratio x intensity, or the regularization
parameter) over a base configuration, runs R seeded replicates per cell
(seed = base + 1000*cell + rep), and writes

* metrics.csv    -- one raw row per (cell, rep), pinned column order,
                    each row echoing a hash of its fully resolved config;
* aggregated.csv -- field-wise means per cell;
* configs.json   -- hash -> resolved config document, so any CSV row can be
                    reproduced from the output directory alone.

A config document (a `--config` file, a configs.json entry) is a flat JSON
object keyed by RunOptions field names; a configs.json entry holds every
field, and a sweep's entries also hold the cell's "axis" and "value".

lam = 0 in a lambda sweep maps to the consistent-mode update applied to the
(inconsistent) data: the regularized correction needs lam > 0, and the
plain projection then measures the oscillating residual floor.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import sys
import typing
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import engine, graphs, linalg, problems, topology
from .agents import AgentConfig
from .engine import EveryK, FailurePlan, GlobalSchedule, MetricsRecord, SimConfig
from .errors import InvalidParameter, IoError
from .problems import ProblemInstance

RAW_HEADER = ["cell", "rep", "seed", "k_iter", "t_cmp", "c", "t_comm", "T",
              "e_stop", "k_stop", "t_stop", "config_hash"]
AGG_HEADER = ["cell", "value", "reps", "k_iter", "t_cmp", "c", "t_comm", "T",
              "e_stop", "k_stop", "t_stop", "converged"]

SWEEP_AXES = ("agents", "neighbors", "interval", "failure", "lambda")


def derive_agent_count(m: int, n: int, theta1: float) -> int:
    """Agent count for a per-agent data fraction theta1: ceil(m / (n * theta1))."""
    if theta1 <= 0:
        raise InvalidParameter(f"theta1 must be positive, got {theta1}")
    return math.ceil(m / (n * theta1))


def aggregate_replicates(records: list[MetricsRecord]) -> MetricsRecord:
    """Field-wise arithmetic mean of run metrics."""
    if not records:
        raise InvalidParameter("cannot aggregate zero records")
    means = {f: float(np.mean([getattr(r, f) for r in records]))
             for f in MetricsRecord.NUMERIC_FIELDS}
    return MetricsRecord(**means)


@dataclass
class RunOptions:
    """Resolved run configuration.  The field names mirror the simulator
    config and are the keys of a config document."""

    agents: int | None = None          # None: use the instance's shard count
    block_size: int = 50
    lam: float | None = None           # None/0: consistent update
    sampling: str = "cycle"
    t_min: float = 0.5
    t_max: float = 1.0
    topology_cap: int | None = None    # None: equals agent count
    topology_seed: int = 0
    trigger: str = "every_k"           # every_k | global
    interval: int = 25
    spacing: float = 3.0
    delay_bound: float = 1.0
    tol: float = 1e-3
    k_max: int = 5000
    event_budget: int = 1_000_000
    stop_mode: str = "first"
    failure_rho: float = 0.0
    failure_xi: float = 0.0
    seed: int = 0

    def to_document(self) -> dict:
        """Every field by name: the config document of this run."""
        return asdict(self)


RUN_OPTION_TYPES = typing.get_type_hints(RunOptions)

# "axis" and "value" label a sweep cell in configs.json; the rest of that
# document already holds the cell's resolved options, so they are not read.
SWEEP_LABELS = ("axis", "value")


def _typed(name: str, value):
    """value as the type of RunOptions field `name`, or InvalidParameter.

    Int fields take integers and integral floats; float fields take finite
    numbers; neither takes a bool or a string.  None is taken only by the
    optional fields (agents, lam, topology_cap).
    """
    kinds = typing.get_args(RUN_OPTION_TYPES[name]) or (RUN_OPTION_TYPES[name],)
    if value is None and type(None) in kinds:
        return None
    if isinstance(value, str) and str in kinds:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if int in kinds and (isinstance(value, numbers.Integral) or float(value).is_integer()):
            return int(value)
        if float in kinds and abs(value) <= sys.float_info.max:   # finite; False for nan
            return float(value)
    expected = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
    raise InvalidParameter(f"config value {name}={value!r} is not a valid {expected}")


def options_from_document(doc: dict, base: RunOptions | None = None) -> RunOptions:
    """Parse a config document, a JSON object keyed by RunOptions field
    names, over base (default: RunOptions()).

    A document that is not an object, an unknown key and a value not of its
    field's type (see _typed) raise InvalidParameter.
    """
    if not isinstance(doc, dict):
        raise InvalidParameter("a config document must be a JSON object")
    values = {name: value for name, value in doc.items() if name not in SWEEP_LABELS}
    unknown = sorted(values.keys() - RUN_OPTION_TYPES.keys())
    if unknown:
        raise InvalidParameter(f"unknown config key(s) {unknown}; a config document's keys "
                               f"are RunOptions field names")
    return replace(base or RunOptions(), **{name: _typed(name, value) for name, value in values.items()})


def config_hash(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def build_sim_config(inst: ProblemInstance, opts: RunOptions) -> SimConfig:
    """Materialize a simulator config (and its oracle) from an instance."""
    n_agents = opts.agents if opts.agents is not None else inst.agents
    shards = problems.partition(inst.A, inst.b, n_agents)
    lam = opts.lam if opts.lam else None   # 0 or None -> consistent update
    acfgs = [
        AgentConfig(i, s.A, s.b, s.rows, min(opts.block_size, s.A.shape[0]),
                    lam=lam, t_min=opts.t_min, t_max=opts.t_max, sampling=opts.sampling)
        for i, s in enumerate(shards)
    ]
    cap = opts.topology_cap if opts.topology_cap is not None else n_agents
    topo = topology.build_pascal(n_agents, cap, seed=opts.topology_seed)
    if lam is not None:
        oracle, _ = linalg.augmented_min_norm_solve(inst.A, inst.b, lam)
    else:
        oracle = inst.x_star
    if opts.trigger == "every_k":
        trigger = EveryK(opts.interval)
    elif opts.trigger == "global":
        trigger = GlobalSchedule(opts.spacing)
    else:
        raise InvalidParameter(f"unknown trigger {opts.trigger!r}; pick every_k or global")
    failure = (FailurePlan(opts.failure_rho, opts.failure_xi, seed=opts.seed)
               if opts.failure_rho != 0 else None)   # a negative or nan rho is rejected
    return SimConfig(
        topology=topo, agents=acfgs, oracle=oracle, delay_bound=opts.delay_bound,
        trigger=trigger, tol=opts.tol, k_max=opts.k_max, event_budget=opts.event_budget,
        seed=opts.seed, failure=failure, stop_mode=opts.stop_mode,
        ls_reference=inst.x_star,
    )


def run_single(inst: ProblemInstance, opts: RunOptions) -> engine.RunResult:
    """One simulation; its result's stop_reason says whether it reached tol
    or stopped at k_max, the event budget or a non-finite estimate."""
    return engine.run(build_sim_config(inst, opts))


def _reseeded(cfg: SimConfig, seed: int) -> SimConfig:
    """cfg run with another seed.  build_sim_config reads opts.seed only for
    the config's seed and its failure plan's, so the rest (agent configs,
    topology, oracle) is shared."""
    failure = cfg.failure and replace(cfg.failure, seed=seed)
    return replace(cfg, seed=seed, failure=failure)


@dataclass
class SweepCell:
    cell: int
    value: tuple
    options: RunOptions


@dataclass
class SweepOutcome:
    cells: list[SweepCell]
    rows: list[dict]                       # per (cell, rep)
    aggregated: list[tuple[SweepCell, MetricsRecord]]
    configs: dict[str, dict]               # hash -> resolved document


def _cells_for_axis(inst: ProblemInstance, axis: str, values, xi_values, base: RunOptions) -> list[SweepCell]:
    for v in [*values, *(xi_values or ())]:
        if not math.isfinite(v):
            raise InvalidParameter(f"sweep value {v} is not finite")
    cells = []
    if axis == "agents":
        for c, theta1 in enumerate(values):
            n = derive_agent_count(inst.m, inst.n, float(theta1))
            cells.append(SweepCell(c, (float(theta1),), replace(base, agents=n, topology_cap=None)))
    elif axis == "neighbors":
        n = base.agents if base.agents is not None else inst.agents
        for c, theta2 in enumerate(values):
            if not 0 < theta2 <= 1:
                raise InvalidParameter(f"theta2 is a neighbor fraction in (0, 1], got {theta2}")
            cap = max(2, math.ceil(n * float(theta2)))
            cells.append(SweepCell(c, (float(theta2),), replace(base, topology_cap=cap)))
    elif axis == "interval":
        for c, dt in enumerate(values):
            if not float(dt).is_integer():
                raise InvalidParameter(f"interval value {dt} is not an integer")
            cells.append(SweepCell(c, (int(dt),), replace(base, trigger="every_k", interval=int(dt))))
    elif axis == "failure":
        c = 0
        for rho in values:
            for xi in (xi_values or [base.failure_xi or 1.0]):
                cells.append(SweepCell(c, (float(rho), float(xi)),
                                       replace(base, failure_rho=float(rho), failure_xi=float(xi))))
                c += 1
    elif axis == "lambda":
        for c, lam in enumerate(values):
            cells.append(SweepCell(c, (float(lam),), replace(base, lam=float(lam) or None)))
    else:
        raise InvalidParameter(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    return cells


def sweep(inst: ProblemInstance, axis: str, values, base: RunOptions,
          reps: int = 5, xi_values=None) -> SweepOutcome:
    if reps < 1:
        raise InvalidParameter(f"reps must be >= 1, got {reps}")
    cells = _cells_for_axis(inst, axis, values, xi_values, base)
    rows, aggregated, configs = [], [], {}
    for cell in cells:
        records = []
        cfg = None   # built once per cell, so the oracle is solved once per cell
        for rep in range(reps):
            seed = base.seed + 1000 * cell.cell + rep
            opts = replace(cell.options, seed=seed)
            doc = opts.to_document()
            doc["axis"] = axis
            doc["value"] = list(cell.value)
            h = config_hash(doc)
            configs[h] = doc
            cfg = build_sim_config(inst, opts) if cfg is None else _reseeded(cfg, seed)
            result = engine.run(cfg)
            records.append(result.metrics)
            rows.append({"cell": cell.cell, "rep": rep, "seed": seed,
                         "metrics": result.metrics, "config_hash": h})
        aggregated.append((cell, aggregate_replicates(records)))
    return SweepOutcome(cells, rows, aggregated, configs)


# ----------------------------------------------------------------- CSV output

def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def write_metrics_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RAW_HEADER)
        for row in rows:
            m = row["metrics"]
            w.writerow([row["cell"], row["rep"], row["seed"],
                        *(_fmt(getattr(m, name)) for name in RAW_HEADER[3:-1]),
                        row["config_hash"]])


def write_aggregated_csv(aggregated, path, reps: int = 1) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(AGG_HEADER)
        for cell, m in aggregated:
            value = cell.value[0] if len(cell.value) == 1 else ";".join(map(str, cell.value))
            w.writerow([cell.cell, value, reps,
                        *(_fmt(getattr(m, name)) for name in AGG_HEADER[3:])])


def write_events_csv(log: engine.EventLog, path) -> None:
    """The log as events.csv: a `time,kind,agent,detail` header, then one
    line per event, each ended by CRLF.

    The lines are formatted straight from the packed records, with no Event
    built, and the file is byte for byte what csv.writer writes for the
    rows (repr(time), kind, agent, Event.detail): its lines end by CRLF
    too, and it quotes no field, since none can hold a comma, a quote or a
    line break (time is the repr of the Python float the engine logs, kind
    a name, agent an int, detail `name=value` pairs joined by ';', empty
    for Resume).
    """
    kinds, details = engine.KINDS, tuple(engine.DETAIL.values())
    with open(path, "w", newline="") as fh:
        fh.write("time,kind,agent,detail\r\n")
        fh.writelines(f"{time!r},{kinds[code]},{agent},"
                      f"{details[code](peer, k, count, value, kept)}\r\n"
                      for time, code, agent, peer, k, count, value, kept in log.records())


def write_report_csv(metrics_csv, path) -> None:
    """Melt a raw metrics CSV into long (cell, rep, seed, metric, value) form.

    A file that is not UTF-8 text, or whose header lacks a column read
    here, raises IoError."""
    try:
        with open(metrics_csv, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise IoError(f"{metrics_csv} is not a metrics CSV: {exc}") from exc
    missing = [name for name in RAW_HEADER[:-1] if name not in (reader.fieldnames or ())]
    if missing:
        raise IoError(f"{metrics_csv} is not a metrics CSV: missing column(s) {missing}")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", "rep", "seed", "metric", "value"])
        for row in rows:
            for metric in RAW_HEADER[3:-1]:
                w.writerow([row["cell"], row["rep"], row["seed"], metric, row[metric]])


# -------------------------------------------------------------- certification

def certify(m: int = 4, n: int = 3, agents: int = 2, seed: int = 0,
            window: int = 12, l_window: int | None = None) -> dict:
    """Contraction certificate on a small dense instance driven by the engine."""
    inst = problems.generate(problems.ProblemSpec(m=m, n=n, density=1.0, noise=0.0,
                                                  seed=seed, agents=agents))
    opts = RunOptions(block_size=1, interval=1, tol=1e-9, stop_mode="all",
                      event_budget=40 * max(window, 1) + 200, seed=seed)
    ticks = graphs.tick_trace(run_single(inst, opts))
    window = min(window, len(ticks))
    report = graphs.certification_report(ticks, inst.dense(), agents, window, l_window=l_window)
    report["instance"] = {"m": m, "n": n, "agents": agents, "seed": seed}
    return report
