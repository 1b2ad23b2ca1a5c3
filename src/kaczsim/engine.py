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

Per-agent iteration intervals and message delays are drawn from the
agent's scheduling and delay streams 64 at a time (uniform_draws); a batch
hands out the doubles the one-at-a-time calls would, in the same order.

The log is a list of typed Event records (kind, agent and the kind's int
and float fields); Event.detail formats them as the events.csv text.

The run stops with stop_reason "tol" at the first agent within tolerance
of the oracle (or all agents, in "all" mode: a count of agents within
tolerance is kept as they enter and leave); "diverged" at the first
Iterate whose error is non-finite, before it broadcasts (a non-finite
block residual makes the produced estimate non-finite); "k_max" when
every agent exhausts k_max; "budget" when the event budget is spent.  All
but "tol" raise NoConvergence carrying the full result.
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import agents as agents_mod
from . import rng
from .agents import AgentConfig, AgentState, NeighborSnapshot
from .errors import InvalidParameter, NoConvergence
from .topology import Topology

# queue priorities at equal times
_DELIVER, _RESUME, _ITERATE = 0, 1, 2

# scheduling and delay doubles drawn per batch
_DRAW_BATCH = 64


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


class Message(NamedTuple):
    sender: int
    receiver: int
    payload: np.ndarray
    send_time: float
    arrival_time: float
    sender_iter: int


class Event(NamedTuple):
    """One log entry.  Each kind fills the typed fields it has and leaves
    the others at their defaults:

    Iterate    k (iteration), count (snapshot entries d), value (error)
    Broadcast  k, count (neighbors)
    Deliver    peer (sender), k (sender iteration), kept (False: stale)
    Halt       value (resume time)
    Converge   value (error)
    Resume     none
    """

    time: float
    kind: str      # Iterate | Broadcast | Deliver | Halt | Resume | Converge
    agent: int
    peer: int = -1
    k: int = -1
    count: int = -1
    value: float = 0.0
    kept: bool = False

    @property
    def detail(self) -> str:
        """The fields as text, the events.csv `detail` column."""
        kind = self.kind
        if kind == "Deliver":
            return f"from={self.peer};iter={self.k};{'kept' if self.kept else 'stale'}"
        if kind == "Iterate":
            return f"k={self.k};d={self.count};err={self.value:.6e}"
        if kind == "Broadcast":
            return f"k={self.k};n={self.count}"
        if kind == "Halt":
            return f"until={self.value:.6f}"
        if kind == "Converge":
            return f"err={self.value:.6e}"
        return ""


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
    stop_reason: str                          # tol | k_max | budget | diverged
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


def uniform_draws(stream: np.random.Generator, low: float, high: float):
    """The doubles successive stream.uniform(low, high) calls return, drawn in
    batches: a batch fills element by element with the scalar call's formula."""
    while True:
        yield from stream.uniform(low, high, _DRAW_BATCH).tolist()


class _Runtime:
    """Mutable per-agent bookkeeping for one run."""

    def __init__(self, cfg: AgentConfig, state: AgentState, sched, delay):
        self.cfg = cfg
        self.state = state
        self.cache: dict = {}
        self.gaps = uniform_draws(sched, cfg.t_min, cfg.t_max)   # iteration intervals
        self.delays = uniform_draws(delay, 0.0, 1.0)             # message delay fractions
        # keep-latest snapshot entries (sender, estimate, sender iteration), in sender order
        self.mailbox: dict[int, tuple[int, np.ndarray, int]] = {}
        self.last_time = 0.0
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


def _distance(x: np.ndarray, y: np.ndarray) -> float:
    """|x - y|, bit for bit what np.linalg.norm computes for 1-D floats."""
    d = x - y
    return math.sqrt(d.dot(d))


def run(cfg: SimConfig) -> RunResult:
    n = len(cfg.agents)
    oracle = np.asarray(cfg.oracle, dtype=float)
    ls_ref = oracle if cfg.ls_reference is None else np.asarray(cfg.ls_reference, dtype=float)
    tol = cfg.tol

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
        rt.within_tol = _distance(state.x, oracle) <= tol
        runtimes.append(rt)
    within = sum(rt.within_tol for rt in runtimes)   # agents within tol, kept up to date
    stop_all = cfg.stop_mode == "all"

    log: list[Event] = []
    messages: list[Message] = []
    ticks: list[TickRecord] = []
    err_trace: list[tuple[int, int, float]] = []
    iterate_times: list[list[float]] = [[] for _ in range(n)]

    # heap entries (time, priority, agent, insertion seq, Deliver snapshot entry)
    heap: list[tuple[float, int, int, int, tuple | None]] = []
    for i, rt in enumerate(runtimes):
        heapq.heappush(heap, (next(rt.gaps), _ITERATE, i, i, None))
    seq = n

    budget, k_max, delay_bound = cfg.event_budget, cfg.k_max, cfg.delay_bound
    neighbors_of = cfg.topology.neighbors
    trigger = cfg.trigger
    c0, c1 = cfg.cmp_cost
    xi = cfg.failure.xi if cfg.failure is not None else 0.0
    emit = log.append
    push = heapq.heappush
    pop = heapq.heappop

    converged = False
    stop_reason = "budget"
    tick = 0
    now = 0.0

    while heap:
        if len(log) >= budget:
            stop_reason = "budget"
            break
        now, prio, agent, _, entry = pop(heap)
        rt = runtimes[agent]

        if prio == _DELIVER:
            sender, _, sender_iter = entry
            mailbox = rt.mailbox
            held = mailbox.get(sender)
            kept = held is None or sender_iter > held[2]
            if kept:
                mailbox[sender] = entry
                if held is None:   # a new sender: restore sender order
                    rt.mailbox = dict(sorted(mailbox.items()))
            emit(Event(now, "Deliver", agent, sender, sender_iter, kept=kept))
            continue

        if prio == _RESUME:
            fs = failure[agent]
            fs.active = False
            fs.runs_left = fs.draw_run_length(xi)
            emit(Event(now, "Resume", agent))
            push(heap, (now + next(rt.gaps), _ITERATE, agent, seq, None))
            seq += 1
            continue

        # Iterate.  step rebinds state.x and never writes into it, so the
        # self entry needs no copy.
        acfg = rt.cfg
        state = rt.state
        entries = [(agent, state.x, state.k), *rt.mailbox.values()]
        prev_time = rt.last_time
        state = rt.state = agents_mod.step(state, acfg, NeighborSnapshot(entries), cache=rt.cache)
        k = state.k
        rt.last_time = now
        rt.t_cmp += c0 + c1 * len(state.block) * acfg.dim
        err = _distance(state.x, oracle)
        if (err <= tol) != rt.within_tol:
            rt.within_tol = not rt.within_tol
            within += 1 if rt.within_tol else -1
        iterate_times[agent].append(now)
        rt.iter_ticks.append(tick)

        emit(Event(now, "Iterate", agent, k=k, count=len(entries), value=err))
        err_trace.append((len(log), agent, err))

        if cfg.record_trace:
            used = []
            for sender, _, h in entries:
                q = _value_tick(runtimes[sender].iter_ticks, h, tick)
                used.append((sender, tick - q))
            ticks.append(TickRecord(tick, now, agent, k, state.chunk,
                                    acfg.rows[state.block], tuple(used), len(entries), err,
                                    x=state.x.copy() if cfg.record_states else None))
        tick += 1

        # stop checks come before the broadcast: a converged run ends here
        if rt.within_tol:
            if not stop_all or within == n:
                emit(Event(now, "Converge", agent, value=err))
                converged = True
                stop_reason = "tol"
                break
        elif not math.isfinite(err):
            stop_reason = "diverged"
            break

        if fire_trigger(k, prev_time, now, trigger):
            neighbors = neighbors_of[agent]
            emit(Event(now, "Broadcast", agent, k=k, count=len(neighbors)))
            payload = agents_mod.snapshot_payload(state)
            entry = (agent, payload, k)
            for nbr in neighbors:
                delay = delay_bound * (1.0 - next(rt.delays))  # (0, delay_bound]
                arrival = now + delay
                messages.append(Message(agent, nbr, payload, now, arrival, k))
                push(heap, (arrival, _DELIVER, nbr, seq, entry))
                seq += 1
                rt.c_sent += 1
                rt.t_comm += delay

        if k >= k_max:
            continue   # this agent is done; the run ends when no Iterate remains

        fs = failure[agent]
        if fs.enabled:
            fs.runs_left -= 1
            if fs.runs_left <= 0:
                duration = fs.draw_downtime(xi)
                fs.active = True
                rt.halts += 1
                rt.downtime += duration
                emit(Event(now, "Halt", agent, value=now + duration))
                push(heap, (now + duration, _RESUME, agent, seq, None))
                seq += 1
                continue

        push(heap, (now + next(rt.gaps), _ITERATE, agent, seq, None))
        seq += 1
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
