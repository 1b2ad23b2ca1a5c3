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

The log is an EventLog: each event packed as one fixed-size record (time,
kind code, agent, the kind's int fields, its float and kept) in one
bytearray, read back as typed Event records; Event.detail formats them as
the events.csv text.  It is the run's only record of what happened:
iterate times and errors are its Iterate events, RunResult.messages is
derived from it, and so is every analysis of the run (graphs reads the
averaged entries and their staleness off it); a broadcast payload lives
only until its receivers' mailboxes drop it.

The run stops with stop_reason "tol" at the first agent within tolerance
of the oracle (or all agents, in "all" mode: a count of agents within
tolerance is kept as they enter and leave); "diverged" at the first
Iterate whose error is non-finite, before it broadcasts (a non-finite
block residual makes the produced estimate non-finite); "k_max" when
every agent exhausts k_max; "budget" when the event budget is spent.  The
budget is checked before each popped event, and one Iterate can log an
Iterate, a Broadcast and a Halt, so a log holds at most event_budget + 2
events.  run returns its RunResult for every stop reason; callers read
stop_reason and converged.  A run ignores NumPy's overflow and
invalid-value warnings: a diverging estimate overflows on its way to the
"diverged" stop, which reports it.
"""
from __future__ import annotations

import heapq
import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import agents as agents_mod
from . import rng
from .agents import AgentConfig, AgentState
from .errors import InvalidParameter
from .topology import Topology

# queue priorities at equal times
_DELIVER, _RESUME, _ITERATE = 0, 1, 2

# scheduling and delay doubles drawn per batch
_DRAW_BATCH = 64

# t_cmp model: c0 + c1*|J|*n simulated seconds per iteration
CMP_COST = (1e-4, 1e-6)


@dataclass(frozen=True)
class EveryK:
    """Broadcast after every `interval`-th local iteration."""

    interval: int

    def __post_init__(self):
        if self.interval < 1:
            raise InvalidParameter(f"interval must be >= 1, got {self.interval}")


@dataclass(frozen=True)
class GlobalSchedule:
    """Broadcast at the first iteration completing after each schedule time s*spacing."""

    spacing: float

    def __post_init__(self):
        if not 0 < self.spacing < math.inf:
            raise InvalidParameter(f"spacing must be positive and finite, got {self.spacing}")


@dataclass(frozen=True)
class FailurePlan:
    rho: float        # fraction of agents with the halting mechanism
    xi: float         # mean downtime (sim-seconds); mean run length is 1/xi iterations
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise InvalidParameter(f"rho must lie in [0, 1], got {self.rho}")
        if self.rho > 0 and not 0 < self.xi < math.inf:
            raise InvalidParameter(f"xi must be positive and finite, got {self.xi}")


@dataclass
class FailureState:
    enabled: bool
    runs_left: int = 0                   # iterations until the next halt
    stream: np.random.Generator | None = None

    def draw_run_length(self, xi: float) -> int:
        return max(1, math.ceil(self.stream.exponential(1.0 / xi)))

    def draw_downtime(self, xi: float) -> float:
        return float(self.stream.exponential(xi))


class Message(NamedTuple):
    """One delivered message, read off the log (RunResult.messages)."""

    sender: int
    receiver: int
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
        return DETAIL[self.kind](self.peer, self.k, self.count, self.value, self.kept)


# The events.csv `detail` of each kind, formatted from (peer, k, count,
# value, kept).  A kind's code in the packed log is its position here.
DETAIL = {
    "Iterate": lambda peer, k, count, value, kept: f"k={k};d={count};err={value:.6e}",
    "Broadcast": lambda peer, k, count, value, kept: f"k={k};n={count}",
    "Deliver": lambda peer, k, count, value, kept:
        f"from={peer};iter={k};{'kept' if kept else 'stale'}",
    "Halt": lambda peer, k, count, value, kept: f"until={value:.6f}",
    "Resume": lambda peer, k, count, value, kept: "",
    "Converge": lambda peer, k, count, value, kept: f"err={value:.6e}",
}
KINDS = tuple(DETAIL)
_ITERATE_EV, _BROADCAST_EV, _DELIVER_EV, _HALT_EV, _RESUME_EV, _CONVERGE_EV = range(len(KINDS))

# One log record: time, kind code, agent, peer, k, count, value, kept
RECORD = struct.Struct("<dBqqqqd?")


class EventLog(Sequence):
    """A run's events, packed one RECORD per event in a bytearray.

    Reads return new Event records equal to the ones packed: every field
    round-trips exactly.  Two logs are equal when their bytes are, so a nan
    value equals itself and +0.0 differs from -0.0.
    """

    __slots__ = ("_data",)

    def __init__(self, events=()):
        self._data = bytearray()
        pack = RECORD.pack
        for ev in events:
            self._data += pack(ev.time, KINDS.index(ev.kind), ev.agent, ev.peer, ev.k,
                               ev.count, ev.value, ev.kept)

    def __len__(self) -> int:
        return len(self._data) // RECORD.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("event index out of range")
        return _event(RECORD.unpack_from(self._data, i * RECORD.size))

    def __iter__(self):
        return map(_event, self.records())

    def __eq__(self, other):
        if isinstance(other, EventLog):
            return self._data == other._data
        return NotImplemented

    def records(self):
        """The records as unpacked tuples (time, kind code, agent, peer, k,
        count, value, kept), without building Events; KINDS names the codes."""
        return RECORD.iter_unpack(self._data)


def _event(record) -> Event:
    time, code, agent, peer, k, count, value, kept = record
    return tuple.__new__(Event, (time, KINDS[code], agent, peer, k, count, value, kept))


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
    event_budget: int = 1_000_000                 # checked per popped event: a log ends <= budget + 2
    seed: int = 0
    failure: FailurePlan | None = None
    stop_mode: str = "first"                      # "first" | "all"
    ls_reference: np.ndarray | None = None        # e_stop reference; defaults to oracle
    init: list[np.ndarray] | None = None          # explicit per-agent initial estimates

    def __post_init__(self):
        if not 0 < self.delay_bound < math.inf:
            raise InvalidParameter(f"delay bound must be positive and finite, got {self.delay_bound}")
        if not 0 < self.tol < math.inf:
            raise InvalidParameter(f"tol must be positive and finite, got {self.tol}")
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
    log: EventLog
    converged: bool
    stop_reason: str                          # tol | k_max | budget | diverged
    config: SimConfig

    @property
    def messages(self) -> list[Message]:
        """One Message per Deliver event, in log order; send_time is that of
        the sender's Broadcast with the same k (each k is broadcast at most
        once).  Messages in flight at a budget or tol stop are not listed."""
        sent, messages = {}, []
        for time, code, agent, peer, k, _, _, _ in self.log.records():
            if code == _BROADCAST_EV:
                sent[agent, k] = time
            elif code == _DELIVER_EV:
                messages.append(Message(peer, agent, sent[peer, k], time, k))
        return messages


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


def _distance(x: np.ndarray, y: np.ndarray) -> float:
    """|x - y|, bit for bit what np.linalg.norm computes for 1-D floats."""
    d = x - y
    return math.sqrt(d.dot(d))


@np.errstate(over="ignore", invalid="ignore")
def run(cfg: SimConfig) -> RunResult:
    n = len(cfg.agents)
    oracle = np.asarray(cfg.oracle, dtype=float)
    ls_ref = oracle if cfg.ls_reference is None else np.asarray(cfg.ls_reference, dtype=float)
    tol = cfg.tol

    failure = inject_failures(cfg.failure, n)
    runtimes: list[_Runtime] = []
    for i, acfg in enumerate(cfg.agents):
        init = None if cfg.init is None else cfg.init[i]
        state = agents_mod.initial_state(acfg, rng.stream(cfg.seed, rng.BLOCKS, i), init=init,
                                          k_max=cfg.k_max)
        rt = _Runtime(acfg, state,
                      rng.stream(cfg.seed, rng.SCHEDULING, i),
                      rng.stream(cfg.seed, rng.DELAY, i))
        rt.within_tol = _distance(state.x, oracle) <= tol
        runtimes.append(rt)
    within = sum(rt.within_tol for rt in runtimes)   # agents within tol, kept up to date
    stop_all = cfg.stop_mode == "all"

    log = EventLog()

    # heap entries (time, priority, agent, insertion seq, Deliver snapshot entry)
    heap: list[tuple[float, int, int, int, tuple | None]] = []
    for i, rt in enumerate(runtimes):
        heapq.heappush(heap, (next(rt.gaps), _ITERATE, i, i, None))
    seq = n

    budget, k_max, delay_bound = cfg.event_budget, cfg.k_max, cfg.delay_bound
    neighbors_of = cfg.topology.neighbors
    trigger = cfg.trigger
    c0, c1 = CMP_COST
    xi = cfg.failure.xi if cfg.failure is not None else 0.0
    # each event is packed as all eight RECORD fields, the unused ones at
    # Event's defaults
    emit = log._data.extend
    pack = RECORD.pack
    budget_bytes = budget * RECORD.size
    push = heapq.heappush
    pop = heapq.heappop

    converged = False
    stop_reason = "budget"
    now = 0.0

    while heap:
        if len(log._data) >= budget_bytes:
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
            emit(pack(now, _DELIVER_EV, agent, sender, sender_iter, -1, 0.0, kept))
            continue

        if prio == _RESUME:
            fs = failure[agent]
            fs.runs_left = fs.draw_run_length(xi)
            emit(pack(now, _RESUME_EV, agent, -1, -1, -1, 0.0, False))
            push(heap, (now + next(rt.gaps), _ITERATE, agent, seq, None))
            seq += 1
            continue

        # Iterate.  step rebinds state.x and never writes into it, so the
        # self entry needs no copy.
        acfg = rt.cfg
        state = rt.state
        entries = [(agent, state.x, state.k), *rt.mailbox.values()]
        prev_time = rt.last_time
        state = rt.state = agents_mod.step(state, acfg, entries)
        k = state.k
        rt.last_time = now
        rt.t_cmp += c0 + c1 * len(state.block) * acfg.dim
        err = _distance(state.x, oracle)
        if (err <= tol) != rt.within_tol:
            rt.within_tol = not rt.within_tol
            within += 1 if rt.within_tol else -1

        emit(pack(now, _ITERATE_EV, agent, -1, k, len(entries), err, False))

        # stop checks come before the broadcast: a converged run ends here
        if rt.within_tol:
            if not stop_all or within == n:
                emit(pack(now, _CONVERGE_EV, agent, -1, -1, -1, err, False))
                converged = True
                stop_reason = "tol"
                break
        elif not math.isfinite(err):
            stop_reason = "diverged"
            break

        if fire_trigger(k, prev_time, now, trigger):
            neighbors = neighbors_of[agent]
            emit(pack(now, _BROADCAST_EV, agent, -1, k, len(neighbors), 0.0, False))
            entry = (agent, agents_mod.snapshot_payload(state), k)
            for nbr in neighbors:
                delay = delay_bound * (1.0 - next(rt.delays))  # (0, delay_bound]
                push(heap, (now + delay, _DELIVER, nbr, seq, entry))
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
                rt.halts += 1
                rt.downtime += duration
                emit(pack(now, _HALT_EV, agent, -1, -1, -1, now + duration, False))
                push(heap, (now + duration, _RESUME, agent, seq, None))
                seq += 1
                continue

        push(heap, (now + next(rt.gaps), _ITERATE, agent, seq, None))
        seq += 1
    else:
        stop_reason = "k_max"

    return RunResult(
        states=[rt.state for rt in runtimes],
        metrics=collect_metrics(runtimes, failure, now, oracle, ls_ref, converged, len(log)),
        log=log,
        converged=converged,
        stop_reason=stop_reason,
        config=cfg,
    )


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


def audit_broadcast_spacing(result: RunResult) -> list[AuditViolation]:
    """Check that each broadcast cascade finishes before the next schedule time.

    A cascade is: broadcast attributed to schedule time T_s -> delivery ->
    first use (the receiver's next Iterate in the log; a Deliver sorts
    before an Iterate at the same time).  Returns the cascades whose use
    lands after T_{s+1}, in the order of their use.  Undelivered or
    never-used messages at run end are not violations.
    """
    trigger = result.config.trigger
    if not isinstance(trigger, GlobalSchedule):
        return []
    spacing = trigger.spacing
    sent: dict[tuple[int, int], float] = {}
    unused: dict[int, list[tuple[int, float, float]]] = {}   # receiver -> (sender, sent, arrived)
    violations = []
    for time, code, agent, peer, k, _, _, _ in result.log.records():
        if code == _BROADCAST_EV:
            sent[agent, k] = time
        elif code == _DELIVER_EV:
            unused.setdefault(agent, []).append((peer, sent[peer, k], time))
        elif code == _ITERATE_EV:
            for sender, send_time, arrival_time in unused.pop(agent, ()):
                t_s = math.floor(send_time / spacing) * spacing
                t_next = t_s + spacing
                if time > t_next + 1e-12:
                    violations.append(AuditViolation(t_s, t_next, sender, agent,
                                                     send_time, arrival_time, time))
    return violations
