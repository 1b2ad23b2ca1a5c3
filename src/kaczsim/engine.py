"""Deterministic discrete-event simulator for asynchronous block projection.

Time is simulated.  Each agent iterates at seeded-uniform intervals inside
its [t_min, t_max] bounds, reads its keep-latest mailbox plus its own state,
steps, and broadcasts to its topology neighbors when its trigger fires.
Messages arrive after a seeded-uniform delay in (0, delay_bound].  Ties in
the event queue are broken by (time, kind priority Deliver < Resume <
Iterate < Broadcast, agent id, insertion order), so a configuration maps to
exactly one event sequence.

Failure injection follows a self-halting scheme: an enabled agent runs K
iterations (K ~ ceil(Exp(mean 1/xi))), halts for an Exp(mean xi) stretch of
simulated seconds, then resumes and redraws.  Halted agents neither iterate
nor broadcast; their mailboxes keep accepting deliveries.

The run stops at the first agent within tolerance of the oracle (or all
agents, in "all" mode), or when every agent exhausts k_max, or when the
event budget is spent; the latter two raise NoConvergence carrying the
full result.
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import agents as agents_mod
from . import rng
from .agents import AgentConfig, AgentState, NeighborSnapshot
from .errors import InvalidParameter, NoConvergence
from .topology import Topology

# queue priorities at equal times
_PRIO = {"Deliver": 0, "Resume": 1, "Iterate": 2}


@dataclass(frozen=True)
class EveryK:
    """Broadcast after every `interval`-th local iteration."""

    interval: int

    def __post_init__(self):
        if self.interval < 1:
            raise InvalidParameter(f"interval must be >= 1, got {self.interval}")


@dataclass(frozen=True)
class GlobalSchedule:
    """Broadcast at the first iteration completing after each global tick s*spacing."""

    spacing: float

    def __post_init__(self):
        if self.spacing <= 0:
            raise InvalidParameter(f"spacing must be positive, got {self.spacing}")


@dataclass(frozen=True)
class FailurePlan:
    rho: float        # fraction of agents with the halting mechanism
    xi: float         # mean downtime (sim-seconds); mean run length is 1/xi iterations
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise InvalidParameter(f"rho must lie in [0, 1], got {self.rho}")
        if self.rho > 0 and self.xi <= 0:
            raise InvalidParameter(f"xi must be positive, got {self.xi}")


@dataclass
class FailureState:
    enabled: bool
    active: bool = False                 # True while halted
    runs_left: int = 0                   # iterations until the next halt
    stream: np.random.Generator | None = None

    def draw_run_length(self, xi: float) -> int:
        return max(1, math.ceil(self.stream.exponential(1.0 / xi)))

    def draw_downtime(self, xi: float) -> float:
        return float(self.stream.exponential(xi))


@dataclass(frozen=True)
class Message:
    sender: int
    receiver: int
    payload: np.ndarray
    send_time: float
    arrival_time: float
    sender_iter: int


@dataclass(frozen=True)
class Event:
    time: float
    kind: str      # Iterate | Broadcast | Deliver | Halt | Resume | Converge
    agent: int
    detail: str


@dataclass(frozen=True)
class TickRecord:
    """One global tick: which agent iterated and whose states (at which
    staleness stage, counted in global ticks) it averaged."""

    tick: int
    time: float
    agent: int
    k: int
    chunk: int | None
    rows: np.ndarray                    # global row indices of the block
    used: tuple[tuple[int, int], ...]   # (sender, stage), self included
    d_used: int
    err: float
    x: np.ndarray | None = None         # produced estimate (record_states only)


@dataclass
class MetricsRecord:
    """Per-run counters; means are taken over agents."""

    k_iter: float
    t_cmp: float
    c: float
    t_comm: float
    T: float
    e_stop: float          # min over agents of |x_i - ls_reference|
    k_stop: float          # mean halt count over failure-enabled agents
    t_stop: float          # mean downtime over failure-enabled agents
    e_stop_oracle: float = 0.0   # min over agents of |x_i - oracle|
    e_stop_rel: float = 0.0      # e_stop relative to |ls_reference|
    converged: float = 0.0       # 1.0 if the run reached tolerance
    events: float = 0.0

    NUMERIC_FIELDS = ("k_iter", "t_cmp", "c", "t_comm", "T", "e_stop",
                      "k_stop", "t_stop", "e_stop_oracle", "e_stop_rel",
                      "converged", "events")


@dataclass
class SimConfig:
    topology: Topology
    agents: list[AgentConfig]
    oracle: np.ndarray
    delay_bound: float
    trigger: EveryK | GlobalSchedule
    tol: float = 1e-3
    k_max: int = 5000
    event_budget: int = 1_000_000
    seed: int = 0
    failure: FailurePlan | None = None
    stop_mode: str = "first"                      # "first" | "all"
    ls_reference: np.ndarray | None = None        # e_stop reference; defaults to oracle
    init: list[np.ndarray] | None = None          # explicit per-agent initial estimates
    random_init_scale: float = 0.0                # >0: seeded normal initial estimates
    cmp_cost: tuple[float, float] = (1e-4, 1e-6)  # t_cmp model c0 + c1*|J|*n
    record_trace: bool = True
    record_states: bool = False                   # keep produced estimates on the trace

    def __post_init__(self):
        if self.delay_bound <= 0:
            raise InvalidParameter(f"delay bound must be positive, got {self.delay_bound}")
        if self.tol <= 0:
            raise InvalidParameter(f"tol must be positive, got {self.tol}")
        if self.k_max < 1:
            raise InvalidParameter(f"k_max must be at least 1, got {self.k_max}")
        if self.event_budget < 1:
            raise InvalidParameter(f"event budget must be at least 1, got {self.event_budget}")
        if self.stop_mode not in ("first", "all"):
            raise InvalidParameter(f"unknown stop mode {self.stop_mode!r}")
        if self.topology.agents != len(self.agents):
            raise InvalidParameter("topology size does not match the agent list")


@dataclass
class RunResult:
    states: list[AgentState]
    metrics: MetricsRecord
    log: list[Event]
    messages: list[Message]
    ticks: list[TickRecord]
    err_trace: list[tuple[int, int, float]]   # (event index, agent, error)
    iterate_times: list[list[float]]
    converged: bool
    stop_reason: str                          # tol | k_max | budget
    config: SimConfig


@dataclass
class AuditViolation:
    schedule_time: float
    next_schedule_time: float
    sender: int
    receiver: int
    send_time: float
    arrival_time: float
    used_time: float


def fire_trigger(k: int, prev_time: float, now: float, trigger) -> bool:
    """Decide whether the iteration that just completed broadcasts."""
    if isinstance(trigger, EveryK):
        return k > 0 and k % trigger.interval == 0
    ticks_now = int(now // trigger.spacing)
    ticks_prev = int(prev_time // trigger.spacing)
    return ticks_now >= 1 and ticks_now > ticks_prev


def inject_failures(plan: FailurePlan | None, n_agents: int) -> list[FailureState]:
    """Choose ceil(rho*N) agents and arm their halt schedules."""
    states = [FailureState(enabled=False) for _ in range(n_agents)]
    if plan is None or plan.rho == 0.0:
        return states
    count = math.ceil(plan.rho * n_agents)
    chosen = rng.stream(plan.seed, rng.FAILURE_SELECT).choice(n_agents, size=count, replace=False)
    for i in sorted(int(a) for a in chosen):
        st = FailureState(enabled=True, stream=rng.stream(plan.seed, rng.FAILURE, i))
        st.runs_left = st.draw_run_length(plan.xi)
        states[i] = st
    return states


class _Runtime:
    """Mutable per-agent bookkeeping for one run."""

    def __init__(self, cfg: AgentConfig, state: AgentState, sched, delay):
        self.cfg = cfg
        self.state = state
        self.cache: dict = {}
        self.sched = sched
        self.delay = delay
        self.mailbox: dict[int, Message] = {}
        self.last_time = 0.0
        self.err = math.inf
        self.within_tol = False
        self.c_sent = 0
        self.t_comm = 0.0
        self.t_cmp = 0.0
        self.halts = 0
        self.downtime = 0.0
        self.iter_ticks = [-1]   # iter_ticks[h] = global tick where iteration h completed


def _value_tick(iter_ticks: list[int], h: int, now_tick: int) -> int:
    """Latest tick q <= now_tick whose pre-update stacked state still holds the
    sender's iteration-h value (present through the tick where h+1 lands)."""
    if h + 1 < len(iter_ticks):
        return min(now_tick, iter_ticks[h + 1])
    return now_tick


def run(cfg: SimConfig) -> RunResult:
    n = len(cfg.agents)
    oracle = np.asarray(cfg.oracle, dtype=float)
    ls_ref = oracle if cfg.ls_reference is None else np.asarray(cfg.ls_reference, dtype=float)

    failure = inject_failures(cfg.failure, n)
    runtimes: list[_Runtime] = []
    for i, acfg in enumerate(cfg.agents):
        if cfg.init is not None:
            init = cfg.init[i]
        elif cfg.random_init_scale > 0.0:
            init = cfg.random_init_scale * rng.stream(cfg.seed, rng.INIT, i).normal(size=acfg.dim)
        else:
            init = None
        state = agents_mod.initial_state(acfg, rng.stream(cfg.seed, rng.BLOCKS, i), init=init)
        rt = _Runtime(acfg, state,
                      rng.stream(cfg.seed, rng.SCHEDULING, i),
                      rng.stream(cfg.seed, rng.DELAY, i))
        rt.err = float(np.linalg.norm(state.x - oracle))
        rt.within_tol = rt.err <= cfg.tol
        runtimes.append(rt)

    log: list[Event] = []
    messages: list[Message] = []
    ticks: list[TickRecord] = []
    err_trace: list[tuple[int, int, float]] = []
    iterate_times: list[list[float]] = [[] for _ in range(n)]

    heap: list[tuple[float, int, int, int, str, Message | None]] = []
    seq = 0

    def push(time: float, kind: str, agent: int, msg: Message | None = None):
        nonlocal seq
        heapq.heappush(heap, (time, _PRIO[kind], agent, seq, kind, msg))
        seq += 1

    for i, rt in enumerate(runtimes):
        push(rt.sched.uniform(rt.cfg.t_min, rt.cfg.t_max), "Iterate", i)

    converged = False
    stop_reason = "budget"
    tick_count = 0
    now = 0.0

    def emit(time: float, kind: str, agent: int, detail: str) -> None:
        log.append(Event(time, kind, agent, detail))

    while heap:
        if len(log) >= cfg.event_budget:
            stop_reason = "budget"
            break
        now, _, agent, _, kind, msg = heapq.heappop(heap)
        rt = runtimes[agent]

        if kind == "Deliver":
            held = rt.mailbox.get(msg.sender)
            if held is None or msg.sender_iter > held.sender_iter:
                rt.mailbox[msg.sender] = msg
                status = "kept"
            else:
                status = "stale"
            emit(now, "Deliver", agent, f"from={msg.sender};iter={msg.sender_iter};{status}")
            continue

        if kind == "Resume":
            fs = failure[agent]
            fs.active = False
            fs.runs_left = fs.draw_run_length(cfg.failure.xi)
            emit(now, "Resume", agent, "")
            push(now + rt.sched.uniform(rt.cfg.t_min, rt.cfg.t_max), "Iterate", agent)
            continue

        # Iterate
        acfg = rt.cfg
        tick = tick_count
        tick_count += 1

        entries = [(agent, rt.state.x.copy(), rt.state.k)]
        for sender in sorted(rt.mailbox):
            m = rt.mailbox[sender]
            entries.append((sender, m.payload, m.sender_iter))
        snapshot = NeighborSnapshot(entries)
        prev_time = rt.last_time
        rt.state = agents_mod.step(rt.state, acfg, snapshot, cache=rt.cache)
        rt.last_time = now
        rt.t_cmp += cfg.cmp_cost[0] + cfg.cmp_cost[1] * len(rt.state.block) * acfg.dim
        rt.err = float(np.linalg.norm(rt.state.x - oracle))
        rt.within_tol = rt.err <= cfg.tol
        iterate_times[agent].append(now)
        rt.iter_ticks.append(tick)

        emit(now, "Iterate", agent, f"k={rt.state.k};d={len(entries)};err={rt.err:.6e}")
        err_trace.append((len(log), agent, rt.err))

        if cfg.record_trace:
            used = []
            for sender, _, h in entries:
                q = _value_tick(runtimes[sender].iter_ticks, h, tick)
                used.append((sender, tick - q))
            ticks.append(TickRecord(tick, now, agent, rt.state.k, rt.state.chunk,
                                    acfg.rows[rt.state.block], tuple(used), len(entries), rt.err,
                                    x=rt.state.x.copy() if cfg.record_states else None))

        # stop checks come before the broadcast: a converged run ends here
        if (cfg.stop_mode == "first" and rt.within_tol) or (
            cfg.stop_mode == "all" and all(r.within_tol for r in runtimes)
        ):
            emit(now, "Converge", agent, f"err={rt.err:.6e}")
            converged = True
            stop_reason = "tol"
            break

        if fire_trigger(rt.state.k, prev_time, now, cfg.trigger):
            neighbors = cfg.topology.neighbors[agent]
            emit(now, "Broadcast", agent, f"k={rt.state.k};n={len(neighbors)}")
            payload = agents_mod.snapshot_payload(rt.state)
            for nbr in neighbors:
                delay = cfg.delay_bound * (1.0 - rt.delay.uniform())  # (0, delay_bound]
                m = Message(agent, nbr, payload, now, now + delay, rt.state.k)
                messages.append(m)
                push(m.arrival_time, "Deliver", nbr, m)
                rt.c_sent += 1
                rt.t_comm += delay

        if rt.state.k >= cfg.k_max:
            continue   # this agent is done; the run ends when no Iterate remains

        fs = failure[agent]
        if fs.enabled:
            fs.runs_left -= 1
            if fs.runs_left <= 0:
                duration = fs.draw_downtime(cfg.failure.xi)
                fs.active = True
                rt.halts += 1
                rt.downtime += duration
                emit(now, "Halt", agent, f"until={now + duration:.6f}")
                push(now + duration, "Resume", agent)
                continue

        push(now + rt.sched.uniform(acfg.t_min, acfg.t_max), "Iterate", agent)
    else:
        stop_reason = "k_max"

    metrics = collect_metrics(runtimes, failure, now, oracle, ls_ref, converged, len(log))
    result = RunResult(
        states=[rt.state for rt in runtimes],
        metrics=metrics,
        log=log,
        messages=messages,
        ticks=ticks,
        err_trace=err_trace,
        iterate_times=iterate_times,
        converged=converged,
        stop_reason=stop_reason,
        config=cfg,
    )
    if not converged:
        raise NoConvergence(metrics.e_stop_oracle, result)
    return result


def collect_metrics(runtimes, failure, T, oracle, ls_ref, converged, events) -> MetricsRecord:
    errs_ls = [float(np.linalg.norm(rt.state.x - ls_ref)) for rt in runtimes]
    errs_oracle = [float(np.linalg.norm(rt.state.x - oracle)) for rt in runtimes]
    enabled = [i for i, fs in enumerate(failure) if fs.enabled]
    ls_scale = float(np.linalg.norm(ls_ref))
    e_stop = min(errs_ls)
    return MetricsRecord(
        k_iter=float(np.mean([rt.state.k for rt in runtimes])),
        t_cmp=float(np.mean([rt.t_cmp for rt in runtimes])),
        c=float(np.mean([rt.c_sent for rt in runtimes])),
        t_comm=float(np.mean([rt.t_comm for rt in runtimes])),
        T=float(T),
        e_stop=e_stop,
        k_stop=float(np.mean([runtimes[i].halts for i in enabled])) if enabled else 0.0,
        t_stop=float(np.mean([runtimes[i].downtime for i in enabled])) if enabled else 0.0,
        e_stop_oracle=min(errs_oracle),
        e_stop_rel=e_stop / ls_scale if ls_scale > 0 else e_stop,
        converged=1.0 if converged else 0.0,
        events=float(events),
    )


def audit_broadcast_spacing(result: RunResult, cfg: SimConfig | None = None) -> list[AuditViolation]:
    """Check that each broadcast cascade finishes before the next global tick.

    A cascade is: broadcast attributed to tick T_s -> delivery -> first use
    (the receiver's next iteration).  Returns the cascades whose use lands
    after T_{s+1}.  Undelivered or never-used messages at run end are not
    violations.
    """
    cfg = cfg or result.config
    if not isinstance(cfg.trigger, GlobalSchedule):
        return []
    spacing = cfg.trigger.spacing
    violations = []
    for m in result.messages:
        times = result.iterate_times[m.receiver]
        pos = bisect.bisect_left(times, m.arrival_time)
        if pos >= len(times):
            continue
        used_at = times[pos]
        t_s = math.floor(m.send_time / spacing) * spacing
        t_next = t_s + spacing
        if used_at > t_next + 1e-12:
            violations.append(AuditViolation(t_s, t_next, m.sender, m.receiver,
                                             m.send_time, m.arrival_time, used_at))
    return violations


def staleness_stage_bound(cfg: SimConfig) -> int:
    """Upper bound on the global-tick staleness stage in a failure-free run.

    A kept value can be used until the sender's next broadcast arrives, i.e.
    for a window of (trigger period + delay bound + one iteration gap); every
    agent contributes at most window/t_min + 1 ticks inside that window.
    """
    t_min = min(a.t_min for a in cfg.agents)
    t_max = max(a.t_max for a in cfg.agents)
    if isinstance(cfg.trigger, EveryK):
        period = cfg.trigger.interval * t_max
    else:
        period = cfg.trigger.spacing + t_max
    window = period + cfg.delay_bound + t_max
    n = len(cfg.agents)
    return int(math.ceil(n * (window / t_min + 1.0)))
