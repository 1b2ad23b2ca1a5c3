import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kaczsim import agents, engine, graphs, harness, linalg, problems, rng, topology
from kaczsim.agents import AgentConfig
from kaczsim.engine import Event, EventLog, EveryK, FailurePlan, GlobalSchedule, SimConfig
from kaczsim.errors import InvalidParameter
from oracles import write_events_csv as csv_writer_events


def build_cfg(inst, *, block=10, lam=None, trigger=EveryK(5), tol=None, seed=0,
              stop_mode="all", budget=50_000, k_max=10**6, failure=FailurePlan(0.0, 0.0),
              delay_bound=1.0, t_min=0.5, t_max=1.0, oracle=None, **kw):
    n_agents = inst.agents
    topo = topology.build_pascal(n_agents, n_agents, seed=0)
    acfgs = [AgentConfig(i, s.A, s.b, s.rows, min(block, s.A.shape[0]),
                         lam=lam, t_min=t_min, t_max=t_max)
             for i, s in enumerate(problems.partition(inst.A, inst.b, inst.agents))]
    oracle = inst.x_star if oracle is None else oracle
    tol = 1e-4 * np.linalg.norm(oracle) if tol is None else tol
    return SimConfig(topo, acfgs, oracle, delay_bound, trigger, tol=tol,
                     k_max=k_max, event_budget=budget, seed=seed,
                     stop_mode=stop_mode, failure=failure,
                     ls_reference=inst.x_star, **kw)


def err_trace(res):
    """(events up to and including it, agent, error) for each Iterate in the log."""
    return [(i + 1, ev.agent, ev.value) for i, ev in enumerate(res.log) if ev.kind == "Iterate"]


def iterate_times(res):
    """Per agent, the times of its Iterate events."""
    times = [[] for _ in res.states]
    for ev in res.log:
        if ev.kind == "Iterate":
            times[ev.agent].append(ev.time)
    return times


@pytest.fixture(scope="module")
def consistent_instance():
    g = np.random.default_rng(0)
    A = g.normal(size=(60, 10)) @ g.normal(size=(10, 20))  # rank 10 of 20
    x_plant = g.normal(size=20)
    return problems.from_arrays(A, A @ x_plant, 4, x_planted=x_plant)


# ------------------------------------------------------------------ basic runs

def test_single_agent_square_system_converges_in_one_iteration():
    g = np.random.default_rng(1)
    A = g.normal(size=(6, 6))
    inst = problems.from_arrays(A, g.normal(size=6), 1)
    cfg = build_cfg(inst, block=6, tol=1e-8)
    res = engine.run(cfg)
    assert res.converged
    assert res.metrics.k_iter == 1.0
    assert res.metrics.c == 0.0          # no neighbors, nothing sent


def test_deterministic_replay(consistent_instance):
    cfg = build_cfg(consistent_instance, seed=3)
    a = engine.run(cfg)
    b = engine.run(cfg)
    assert a.log == b.log
    assert a.metrics == b.metrics
    assert all(np.array_equal(x.x, y.x) for x, y in zip(a.states, b.states))
    c = engine.run(build_cfg(consistent_instance, seed=4))
    assert a.log != c.log


def test_all_agents_reach_min_norm_solution(consistent_instance):
    inst = consistent_instance
    res = engine.run(build_cfg(inst, seed=2))
    scale = np.linalg.norm(inst.x_star)
    for st in res.states:
        assert np.linalg.norm(st.x - inst.x_star) <= 1e-4 * scale


def test_budget_exhaustion_returns_result(consistent_instance):
    cfg = build_cfg(consistent_instance, budget=300, tol=1e-14)
    res = engine.run(cfg)
    assert res.stop_reason == "budget"
    assert len(res.log) == 300


@pytest.mark.parametrize("stop_reason, kwargs", [
    ("tol", {}),
    ("k_max", {"k_max": 7, "tol": 1e-14}),
    ("budget", {"budget": 300, "tol": 1e-14}),
    ("diverged", {"init": [np.full(20, 1e308)] * 4}),
], ids=["tol", "k_max", "budget", "diverged"])
def test_run_returns_result_for_every_stop_reason(consistent_instance, stop_reason, kwargs):
    res = engine.run(build_cfg(consistent_instance, seed=2, **kwargs))
    assert res.stop_reason == stop_reason
    assert res.converged == (stop_reason == "tol")
    assert res.metrics.converged == float(res.converged)
    assert res.metrics.events == len(res.log)


# budgets whose log ends at, one past and two past the budget
@pytest.mark.parametrize("budget, past", [(2, 0), (92, 0), (1, 1), (97, 1), (15, 2), (150, 2)])
def test_budget_stop_logs_at_most_two_events_past_the_budget(budget, past):
    # every agent halts and resumes, and broadcasts after every iteration, so
    # one Iterate can log an Iterate, a Broadcast and a Halt
    inst = problems.generate(problems.ProblemSpec(m=40, n=10, density=0.5, seed=3, agents=4))
    opts = harness.RunOptions(block_size=5, interval=1, failure_rho=1.0, failure_xi=0.5,
                              event_budget=budget, tol=1e-12, k_max=10**6)
    res = harness.run_single(inst, opts)
    assert res.stop_reason == "budget"
    assert len(res.log) == budget + past <= budget + 2
    kinds = [ev.kind for ev in res.log]
    last_iterate = len(kinds) - 1 - kinds[::-1].index("Iterate")
    assert last_iterate < budget   # the budget was not spent when it was popped
    assert set(kinds[budget:]) <= {"Iterate", "Broadcast", "Halt"}


def test_k_max_stops_all_agents(consistent_instance):
    cfg = build_cfg(consistent_instance, k_max=7, tol=1e-14)
    res = engine.run(cfg)
    assert res.stop_reason == "k_max"
    assert all(st.k == 7 for st in res.states)


def test_k_max_holds_under_failure_injection():
    inst = problems.generate(problems.ProblemSpec(m=60, n=20, density=0.3, seed=2, agents=4))
    opts = harness.RunOptions(block_size=5, interval=2, failure_rho=1.0, failure_xi=3.0,
                              k_max=50, seed=2)
    res = harness.run_single(inst, opts)
    assert res.stop_reason == "k_max"
    assert max(st.k for st in res.states) == 50
    assert max(len(times) for times in iterate_times(res)) == 50


@pytest.mark.parametrize("lam", [None, 0.5], ids=["consistent", "regularized"])
def test_iid_k_max_run_draws_exactly_k_max_blocks(consistent_instance, monkeypatch, lam):
    # iid agents draw their blocks in batches; a run to k_max = 40 (a batch
    # of agents.BATCH, then a short one) draws 40 blocks per agent and leaves
    # each block stream where 40 one-at-a-time Generator.choice draws leave it
    cfg = build_cfg(consistent_instance, block=4, lam=lam, tol=1e-300, k_max=40)
    cfg.agents = [dataclasses.replace(acfg, sampling=agents.IID) for acfg in cfg.agents]
    drawn = [0] * len(cfg.agents)
    next_blocks = agents.next_blocks

    def counting(state, acfg):
        blocks = next_blocks(state, acfg)
        drawn[acfg.agent_id] += len(blocks)
        return blocks

    monkeypatch.setattr(agents, "next_blocks", counting)
    res = engine.run(cfg)
    assert res.stop_reason == "k_max" and all(st.k == 40 for st in res.states)
    assert drawn == [40] * len(cfg.agents)
    for i, (acfg, st) in enumerate(zip(cfg.agents, res.states)):
        g = rng.stream(cfg.seed, rng.BLOCKS, i)
        for _ in range(40):
            g.choice(acfg.local_rows, size=acfg.block_size, replace=False)
        assert st.rng.bit_generator.state == g.bit_generator.state and not st.ready


def test_iid_block_failure_raises_only_when_used():
    # one agent whose row 7 is near 1e160: a block holding it has a Gram
    # matrix that overflows.  A run whose budget ends before the first such
    # block finishes, though that block was drawn and factored with its batch.
    g = np.random.default_rng(41)
    A = g.normal(size=(12, 5))
    A[7] *= 1e160
    acfg = AgentConfig(0, problems.CsrRows.from_dense(A), g.normal(size=12), np.arange(12), 3,
                       lam=1.0, sampling=agents.IID)
    blocks = rng.stream(3, rng.BLOCKS, 0)
    k_fail = next(k for k in range(1000) if 7 in blocks.choice(12, size=3, replace=False))
    assert k_fail % agents.BATCH != 0   # the block is not the first of its batch

    def run(budget):
        # no neighbors and no broadcasts: the log is one Iterate per step
        cfg = SimConfig(topology.build_pascal(1, 1), [acfg], np.zeros(5), 1.0, EveryK(10**6),
                        tol=1e-300, k_max=1000, event_budget=budget, seed=3)
        return engine.run(cfg)

    res = run(k_fail)
    assert res.stop_reason == "budget" and res.states[0].k == k_fail
    with pytest.raises(InvalidParameter, match="overflows"):
        run(k_fail + 1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rel_tol", [1e-1, 1e-2])
def test_stop_all_converges_at_first_iterate_with_every_agent_within_tol(
        consistent_instance, seed, rel_tol):
    inst = consistent_instance
    cfg = build_cfg(inst, seed=seed, stop_mode="all", tol=rel_tol * np.linalg.norm(inst.x_star))
    res = engine.run(cfg)
    # brute force over the Iterates: every agent's latest error, starting from x = 0
    latest = [float(np.linalg.norm(inst.x_star))] * inst.agents
    expected = None
    for ev_idx, agent, err in err_trace(res):
        latest[agent] = err
        if all(e <= cfg.tol for e in latest):
            expected = ev_idx
            break
    assert expected is not None
    iterate, converge = res.log[expected - 1], res.log[expected]
    assert iterate.kind == "Iterate" and converge.kind == "Converge"
    assert converge.agent == iterate.agent and converge.value == iterate.value
    assert len(res.log) == expected + 1


def test_stop_all_counts_agents_leaving_tol(consistent_instance):
    """The run above at seed 1, rel_tol 0.1 has agents leave the tolerance
    ball before all are in it, so the within-tol count goes both ways."""
    inst = consistent_instance
    cfg = build_cfg(inst, seed=1, stop_mode="all", tol=0.1 * np.linalg.norm(inst.x_star))
    res = engine.run(cfg)
    inside = [False] * inst.agents
    leaves = 0
    for _, agent, err in err_trace(res):
        leaves += inside[agent] and err > cfg.tol
        inside[agent] = err <= cfg.tol
    assert leaves > 0
    assert all(inside) and res.stop_reason == "tol"


@pytest.mark.parametrize("lam", [None, 1.0], ids=["consistent", "regularized"])
def test_non_finite_run_stops_as_diverged(lam):
    inst = problems.generate(problems.ProblemSpec(m=30, n=8, density=0.5, seed=1, agents=3))
    cfg = harness.build_sim_config(inst, harness.RunOptions(lam=lam, block_size=5))
    cfg = dataclasses.replace(cfg, init=[np.full(8, 1e308)] * 3)
    with np.errstate(over="ignore", invalid="ignore"):
        res = engine.run(cfg)
    assert res.stop_reason == "diverged"
    assert not res.converged
    # the first Iterate's error is non-finite and ends the run before it broadcasts
    iterates = [ev for ev in res.log if ev.kind == "Iterate"]
    # reads build new Event records, and nan != nan, so the last event is
    # compared field by field
    last = res.log[-1]
    assert len(iterates) == 1
    assert (last.kind, last.agent, last.k) == (iterates[0].kind, iterates[0].agent, iterates[0].k)
    assert math.isnan(last.value)
    assert sum(st.k for st in res.states) == 1
    assert res.messages == []
    # log equality is bitwise, so the nan error does not keep a replay apart
    assert last != engine.run(cfg).log[-1]
    assert engine.run(cfg).log == res.log


# ------------------------------------------------------------------ typed events

def test_event_detail_formats_each_kind():
    cases = [
        (Event(1.5, "Iterate", 2, k=7, count=3, value=1.23456789e-4), "k=7;d=3;err=1.234568e-04"),
        (Event(1.5, "Iterate", 2, k=1, count=1, value=math.inf), "k=1;d=1;err=inf"),
        (Event(1.5, "Broadcast", 2, k=10, count=4), "k=10;n=4"),
        (Event(1.5, "Deliver", 1, peer=3, k=9, kept=True), "from=3;iter=9;kept"),
        (Event(1.5, "Deliver", 1, peer=3, k=8, kept=False), "from=3;iter=8;stale"),
        (Event(2.0, "Halt", 0, value=4.2500004), "until=4.250000"),
        (Event(4.25, "Resume", 0), ""),
        (Event(9.0, "Converge", 2, value=9.999996e-6), "err=9.999996e-06"),
    ]
    for ev, detail in cases:
        assert ev.detail.encode() == detail.encode()
    assert {ev.kind for ev, _ in cases} == {"Iterate", "Broadcast", "Deliver", "Halt",
                                           "Resume", "Converge"}


@pytest.mark.parametrize("low, high", [(0.5, 1.0), (0.05, 0.1), (2.0, 2.0), (0.0, 1.0)])
def test_batched_draws_equal_scalar_calls(low, high):
    draws = engine.uniform_draws(rng.stream(5, rng.SCHEDULING, 2), low, high)
    batched = [next(draws) for _ in range(150)]   # crosses two batch boundaries
    stream = rng.stream(5, rng.SCHEDULING, 2)
    if (low, high) == (0.0, 1.0):   # the delay stream's call
        scalar = [stream.uniform() for _ in range(150)]
    else:
        scalar = [stream.uniform(low, high) for _ in range(150)]
    assert all(type(x) is float for x in batched)
    assert batched == scalar


# ---------------------------------------------------------- packed event log

def float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def fields(ev: Event) -> tuple:
    """An event's fields with its floats as their bits, so nan == nan and
    -0.0 != 0.0."""
    return (float_bits(ev.time), ev.kind, ev.agent, ev.peer, ev.k, ev.count,
            float_bits(ev.value), ev.kept)


def packed(events) -> bytes:
    return b"".join(struct.pack("<dBqqqqd?", ev.time, engine.KINDS.index(ev.kind), ev.agent,
                                ev.peer, ev.k, ev.count, ev.value, ev.kept) for ev in events)


EDGE_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.225073858507201e-308, 1.7976931348623157e308)
any_float = st.floats() | st.sampled_from(EDGE_FLOATS)
int64 = st.integers(-(2**63 - 1), 2**63 - 1)
small_int = st.integers(-1, 64)
events = st.builds(Event, time=any_float, kind=st.sampled_from(engine.KINDS),
                   agent=small_int | int64, peer=small_int | int64, k=small_int | int64,
                   count=small_int | int64, value=any_float, kept=st.booleans())
index_bound = st.none() | st.integers(-12, 12)


def test_event_record_fits_64_bytes():
    assert engine.RECORD.size == 50 <= 64


@settings(max_examples=150, deadline=None)
@given(st.lists(events, max_size=10), index_bound, index_bound,
       st.none() | st.integers(-3, 3).filter(bool))
def test_event_log_reads_like_a_list(evs, start, stop, step):
    log = EventLog(evs)
    assert len(log) == len(evs)
    assert [fields(ev) for ev in log] == [fields(ev) for ev in evs]
    assert all(type(ev) is Event for ev in log)
    for i in range(-len(evs), len(evs)):
        assert fields(log[i]) == fields(evs[i])
    for i in (len(evs), -len(evs) - 1):
        with pytest.raises(IndexError):
            log[i]
    window = slice(start, stop, step)
    assert [fields(ev) for ev in log[window]] == [fields(ev) for ev in evs[window]]


@settings(max_examples=150, deadline=None)
@given(st.lists(events, max_size=8), st.data())
def test_event_logs_are_equal_exactly_when_their_bytes_are(evs, data):
    other = list(evs)
    if other and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(other) - 1))
        other[i] = data.draw(events)
    assert EventLog(evs) == EventLog(list(evs))   # nan values included
    assert (EventLog(evs) == EventLog(other)) == (packed(evs) == packed(other))
    assert (EventLog(evs) != EventLog(other)) == (packed(evs) != packed(other))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(events, max_size=12))
def test_event_log_csv_bytes_match_csv_writer(tmp_path, evs):
    log = EventLog(evs)
    harness.write_events_csv(log, tmp_path / "events.csv")
    csv_writer_events(log, tmp_path / "reference.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# ---------------------------------------------------------------- trigger rules

def test_fire_trigger_every_k():
    assert EveryK(25).fires(50, 0.0, 1.0)
    assert not EveryK(25).fires(7, 0.0, 1.0)
    assert not EveryK(25).fires(0, 0.0, 1.0)


def test_fire_trigger_global_schedule():
    trig = GlobalSchedule(3.0)
    assert trig.fires(1, 2.9, 3.05)      # tick 3.0 inside (2.9, 3.05]
    assert not trig.fires(1, 3.05, 5.9)  # no tick inside
    assert trig.fires(1, 5.9, 6.0)       # tick at the right edge
    assert not trig.fires(1, 0.1, 2.9)   # before the first tick


def test_global_schedule_index_overflow():
    """A spacing so small that t / spacing overflows gives an infinite
    index, which counts as a schedule time passed."""
    trig = GlobalSchedule(1e-320)
    assert trig.index(0.5) == math.inf
    assert trig.fires(1, 0.5, 1.0)
    assert trig.index(0.0) == 0.0
    assert GlobalSchedule(0.1).index(1.0) == 9.0   # floor division, as fires reads it


def test_global_schedule_at_most_one_broadcast_per_tick(consistent_instance):
    spacing = 3.0  # = 2 * delay_bound + t_max
    cfg = build_cfg(consistent_instance, trigger=GlobalSchedule(spacing),
                    tol=1e-12, budget=4000)
    res = engine.run(cfg)
    per_tick = {}
    for ev in res.log:
        if ev.kind == "Broadcast":
            tick = int(ev.time // spacing)
            key = (ev.agent, tick)
            per_tick[key] = per_tick.get(key, 0) + 1
    assert per_tick and all(v == 1 for v in per_tick.values())


# -------------------------------------------------------------- message rules

def test_message_delays_bounded(consistent_instance):
    res = engine.run(build_cfg(consistent_instance, budget=5000, tol=1e-12))
    assert res.messages
    for m in res.messages:
        assert 0.0 < m.arrival_time - m.send_time <= 1.0 + 1e-12


def test_messages_derived_from_log_after_k_max_stop(consistent_instance):
    cfg = build_cfg(consistent_instance, k_max=40, tol=1e-14, delay_bound=2.5)
    res = engine.run(cfg)
    assert res.stop_reason == "k_max"
    # every broadcast drains from the queue before a k_max stop
    sent = sum(ev.count for ev in res.log if ev.kind == "Broadcast")
    assert len(res.messages) == sent == res.metrics.c * len(res.states)
    assert all(0.0 < m.arrival_time - m.send_time <= cfg.delay_bound for m in res.messages)
    broadcasts = {(ev.agent, ev.k): ev.time for ev in res.log if ev.kind == "Broadcast"}
    for m in res.messages:
        assert broadcasts[m.sender, m.sender_iter] == m.send_time
        assert m.receiver in cfg.topology.neighbors[m.sender]


def test_iteration_gaps_within_bounds(consistent_instance):
    res = engine.run(build_cfg(consistent_instance, budget=5000, tol=1e-12))
    for times in iterate_times(res):
        gaps = np.diff(times)
        assert np.all(gaps >= 0.5 - 1e-12)
        assert np.all(gaps <= 1.0 + 1e-12)


def test_mailbox_keeps_latest_and_drops_stale():
    g = np.random.default_rng(5)
    A = g.normal(size=(12, 6))
    inst = problems.from_arrays(A, A @ g.normal(size=6), 3)
    # sends every iteration with tiny gaps and long delays: reorders guaranteed
    cfg = build_cfg(inst, block=4, trigger=EveryK(1), t_min=0.05, t_max=0.1,
                    delay_bound=1.0, tol=1e-13, budget=6000)
    res = engine.run(cfg)
    stale_seen = 0
    kept: dict[tuple[int, int], int] = {}
    for ev in res.log:
        if ev.kind != "Deliver":
            continue
        sender, it = ev.peer, ev.k
        key = (ev.agent, sender)
        if ev.kept:
            assert kept.get(key, -1) < it      # stored iterations increase
            kept[key] = it
        else:
            stale_seen += 1
            assert kept.get(key, -1) >= it     # stale arrivals are older
    assert stale_seen > 0


def test_snapshot_weights_row_stochastic(consistent_instance):
    res = engine.run(build_cfg(consistent_instance, budget=4000, tol=1e-12))
    n_agents = consistent_instance.agents
    for rec in graphs.tick_trace(res):
        assert 1 <= rec.d_used <= n_agents
        assert len(rec.used) == rec.d_used
        assert rec.d_used * (1.0 / rec.d_used) == 1.0


# -------------------------------------------------------------------- failures

def test_inject_failures_counts():
    armed = engine.inject_failures(FailurePlan(0.3, 2.0), 13, seed=1)
    assert len(armed) == 4    # ceil(0.3 * 13)
    assert armed <= set(range(13))
    assert engine.inject_failures(FailurePlan(0.0, 1.0), 13, seed=1) == set()
    assert engine.inject_failures(SimConfig.failure, 13, seed=1) == set()
    assert engine.inject_failures(FailurePlan(1.0, 1.0), 13, seed=1) == set(range(13))


def test_failure_draw_means():
    stream = rng.stream(7, rng.FAILURE, 0)
    downtimes = [FailurePlan(1.0, 2.0).downtime(stream) for _ in range(1000)]
    assert abs(np.mean(downtimes) - 2.0) <= 0.2     # mean downtime ~ xi within 10%
    runs = [FailurePlan(1.0, 0.01).run_length(stream) for _ in range(1000)]
    assert abs(np.mean(runs) - 100.0) <= 10.0       # mean run length ~ 1/xi


def test_armed_agent_first_halt_after_first_run_length(consistent_instance):
    """Each armed agent halts first after plan.run_length of its (seed,
    FAILURE, i) stream iterations; unarmed agents never halt."""
    plan, seed = FailurePlan(0.5, 1.5), 1
    res = engine.run(build_cfg(consistent_instance, seed=seed, budget=20_000, tol=1e-12,
                               failure=plan))
    armed = engine.inject_failures(plan, consistent_instance.agents, seed)
    assert armed
    first_halt_k = {}
    last_k = {}
    for ev in res.log:
        if ev.kind == "Iterate":
            last_k[ev.agent] = ev.k
        elif ev.kind == "Halt":
            first_halt_k.setdefault(ev.agent, last_k[ev.agent])
    assert set(first_halt_k) == armed
    for i in armed:
        assert first_halt_k[i] == plan.run_length(rng.stream(seed, rng.FAILURE, i))


def test_rho_zero_matches_failure_free_run(consistent_instance):
    base = engine.run(build_cfg(consistent_instance, seed=6))
    with_plan = engine.run(build_cfg(consistent_instance, seed=6,
                                     failure=FailurePlan(0.0, 5.0)))
    assert base.log == with_plan.log
    assert base.metrics == with_plan.metrics


def test_halted_agents_skip_iterates_and_broadcasts(consistent_instance):
    cfg = build_cfg(consistent_instance, seed=1, budget=20_000, tol=1e-12,
                    failure=FailurePlan(0.5, 1.5))
    res = engine.run(cfg)
    halts = [(ev.agent, ev.time, ev.value) for ev in res.log if ev.kind == "Halt"]
    assert halts
    for agent, start, until in halts:
        for ev in res.log:
            if ev.agent == agent and ev.kind in ("Iterate", "Broadcast"):
                assert not (start < ev.time < until - 1e-12)
    assert res.metrics.k_stop > 0
    assert res.metrics.t_stop > 0


def test_gaps_respect_bounds_outside_halts(consistent_instance):
    cfg = build_cfg(consistent_instance, seed=2, budget=20_000, tol=1e-12,
                    failure=FailurePlan(0.5, 1.5))
    res = engine.run(cfg)
    halt_spans = {}
    for ev in res.log:
        if ev.kind == "Halt":
            halt_spans.setdefault(ev.agent, []).append((ev.time, ev.value))
    for agent, times in enumerate(iterate_times(res)):
        for a, b in zip(times, times[1:]):
            spans = [s for s in halt_spans.get(agent, []) if a <= s[0] < b]
            if spans:
                downtime = sum(e - s for s, e in spans)
                assert 0.5 - 1e-9 <= (b - a) - downtime <= 1.0 + 1e-9
            else:
                assert 0.5 - 1e-9 <= b - a <= 1.0 + 1e-9


# ------------------------------------------------------- broadcast-spacing audit

def test_audit_clean_at_design_spacing(consistent_instance):
    cfg = build_cfg(consistent_instance, trigger=GlobalSchedule(3.0),
                    tol=1e-12, budget=3000)
    res = engine.run(cfg)
    assert engine.audit_broadcast_spacing(res) == []


def test_audit_flags_tight_spacing(consistent_instance):
    cfg = build_cfg(consistent_instance, trigger=GlobalSchedule(0.75),
                    tol=1e-12, budget=3000)
    res = engine.run(cfg)
    violations = engine.audit_broadcast_spacing(res)
    assert violations
    v = violations[0]
    assert v.used_time > v.next_schedule_time
    assert v.next_schedule_time - v.schedule_time == pytest.approx(0.75)


@pytest.mark.parametrize("seed, count", [(0, 1484), (1, 1490), (2, 1521)])
def test_audit_violation_counts_pinned(consistent_instance, seed, count):
    """Counts recorded when the audit still read per-message records kept
    by the engine; reading the log alone must flag the same cascades."""
    cfg = build_cfg(consistent_instance, trigger=GlobalSchedule(0.75),
                    tol=1e-12, budget=3000, seed=seed)
    violations = engine.audit_broadcast_spacing(engine.run(cfg))
    assert len(violations) == count
    for v in violations:
        assert v.send_time < v.arrival_time <= v.used_time
        assert v.schedule_time <= v.send_time < v.next_schedule_time < v.used_time


def test_audit_empty_without_broadcasts():
    g = np.random.default_rng(8)
    A = g.normal(size=(6, 6))
    inst = problems.from_arrays(A, g.normal(size=6), 1)
    cfg = build_cfg(inst, block=6, trigger=GlobalSchedule(3.0), tol=1e-8)
    res = engine.run(cfg)
    assert res.messages == []
    assert engine.audit_broadcast_spacing(res) == []


def test_audit_survives_index_overflow(consistent_instance):
    """At a spacing whose schedule index overflows, every iteration broadcasts
    and no cascade can miss an infinite next schedule time."""
    res = engine.run(build_cfg(consistent_instance, trigger=GlobalSchedule(1e-320), budget=2000))
    kinds = [ev.kind for ev in res.log]
    assert kinds.count("Broadcast") == kinds.count("Iterate") - res.converged   # a converging Iterate stops first
    assert engine.audit_broadcast_spacing(res) == []


def test_audit_ignores_every_k_runs(consistent_instance):
    res = engine.run(build_cfg(consistent_instance, budget=2000, tol=1e-12))
    assert engine.audit_broadcast_spacing(res) == []


# ------------------------------------------------------------------- metrics

def test_metrics_no_broadcast_run():
    g = np.random.default_rng(9)
    A = g.normal(size=(4, 4))
    inst = problems.from_arrays(A, g.normal(size=4), 1)
    res = engine.run(build_cfg(inst, block=4, tol=1e-8))
    assert res.metrics.c == 0.0
    assert res.metrics.t_comm == 0.0
    assert res.metrics.k_iter == 1.0
    assert res.metrics.e_stop <= 1e-8


def test_metrics_converged_error_below_tol(consistent_instance):
    inst = consistent_instance
    res = engine.run(build_cfg(inst, seed=5))
    assert res.metrics.converged == 1.0
    assert res.metrics.e_stop_oracle <= 1e-4 * np.linalg.norm(inst.x_star)
    assert res.metrics.T == res.log[-1].time
    assert res.metrics.events == len(res.log)


# -------------------------------------------- regularized mode characterization

def test_single_agent_regularized_run_reaches_widened_oracle():
    g = np.random.default_rng(10)
    A = g.normal(size=(40, 12))
    b = A @ g.normal(size=12) + g.normal(size=40)
    lam = 1.0
    inst = problems.from_arrays(A, b, 1)
    x_reg, _ = linalg.augmented_min_norm_solve(A, b, lam)
    cfg = build_cfg(inst, block=8, lam=lam, oracle=x_reg,
                    tol=1e-5 * np.linalg.norm(x_reg), budget=100_000)
    res = engine.run(cfg)
    assert np.linalg.norm(res.states[0].x - x_reg) <= 1e-5 * np.linalg.norm(x_reg)


def test_multi_agent_regularized_run_consensus_is_feasible_but_weighted():
    """With mean aggregation of x and agent-local y, the network settles on a
    consensus solving the widened system, but consensus replication biases it
    away from the widened pseudoinverse point (reachable only at N=1)."""
    g = np.random.default_rng(11)
    A = g.normal(size=(40, 12))
    b = A @ g.normal(size=12) + g.normal(size=40)
    lam = 1.0
    n_agents = 4
    inst = problems.from_arrays(A, b, n_agents)
    x_reg, _ = linalg.augmented_min_norm_solve(A, b, lam)
    cfg = build_cfg(inst, block=5, lam=lam, oracle=x_reg, tol=1e-10,
                    budget=120_000, k_max=4000)
    res = engine.run(cfg)
    xs = [st.x for st in res.states]
    x_bar = np.mean(xs, axis=0)
    # consensus
    assert max(np.linalg.norm(x - x_bar) for x in xs) <= 1e-6 * np.linalg.norm(x_bar)
    # widened-system feasibility with the stacked local y parts
    y_full = np.concatenate([st.y for st in res.states])
    assert np.linalg.norm(A @ x_bar + lam * y_full - b) <= 1e-5 * np.linalg.norm(b)
    # x stays in the row space (zero initialization)
    basis = linalg.row_space_basis(A)
    assert np.linalg.norm(x_bar - basis @ (basis.T @ x_bar)) <= 1e-8
    # but the limit is not the widened pseudoinverse point
    assert np.linalg.norm(x_bar - x_reg) > 1e-2 * np.linalg.norm(x_reg)


# ------------------------------------------------------------------ validation

def test_config_validation():
    g = np.random.default_rng(12)
    A = g.normal(size=(4, 4))
    inst = problems.from_arrays(A, g.normal(size=4), 1)
    topo = topology.build_pascal(1, 1, seed=0)
    shard = problems.partition(inst.A, inst.b, inst.agents)[0]
    acfg = [AgentConfig(0, shard.A, shard.b, shard.rows, 4)]
    with pytest.raises(InvalidParameter):
        SimConfig(topo, acfg, inst.x_star, 0.0, EveryK(5))
    with pytest.raises(InvalidParameter):
        SimConfig(topo, acfg, inst.x_star, 1.0, EveryK(5), tol=0.0)
    with pytest.raises(InvalidParameter):
        SimConfig(topo, acfg, inst.x_star, 1.0, EveryK(0))
    with pytest.raises(InvalidParameter):
        SimConfig(topo, acfg, inst.x_star, 1.0, EveryK(5), stop_mode="weird")
    with pytest.raises(InvalidParameter):
        SimConfig(topo, acfg, inst.x_star, 1.0, EveryK(5), k_max=0)
    with pytest.raises(InvalidParameter):
        SimConfig(topo, acfg, inst.x_star, 1.0, EveryK(5), event_budget=0)
    with pytest.raises(InvalidParameter):
        FailurePlan(1.5, 1.0)
