import dataclasses
import math

import numpy as np
import pytest

from kaczsim import engine, harness, linalg, problems, rng, topology
from kaczsim.agents import AgentConfig
from kaczsim.engine import Event, EveryK, FailurePlan, GlobalSchedule, SimConfig
from kaczsim.errors import InvalidParameter, NoConvergence


def build_cfg(inst, *, block=10, lam=None, trigger=EveryK(5), tol=None, seed=0,
              stop_mode="all", budget=50_000, k_max=10**6, failure=None,
              delay_bound=1.0, t_min=0.5, t_max=1.0, oracle=None, **kw):
    n_agents = len(inst.shards)
    topo = topology.build_pascal(n_agents, n_agents, seed=0)
    acfgs = [AgentConfig(i, s.A, s.b, s.rows, min(block, s.A.shape[0]),
                         lam=lam, t_min=t_min, t_max=t_max)
             for i, s in enumerate(inst.shards)]
    oracle = inst.x_star if oracle is None else oracle
    tol = 1e-4 * np.linalg.norm(oracle) if tol is None else tol
    return SimConfig(topo, acfgs, oracle, delay_bound, trigger, tol=tol,
                     k_max=k_max, event_budget=budget, seed=seed,
                     stop_mode=stop_mode, failure=failure,
                     ls_reference=inst.x_star, **kw)


def run_tolerant(cfg):
    try:
        return engine.run(cfg)
    except NoConvergence as exc:
        return exc.result


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


def test_budget_exhaustion_raises_with_result(consistent_instance):
    cfg = build_cfg(consistent_instance, budget=300, tol=1e-14)
    with pytest.raises(NoConvergence) as info:
        engine.run(cfg)
    res = info.value.result
    assert res.stop_reason == "budget"
    assert len(res.log) == 300
    assert info.value.final_error == res.metrics.e_stop_oracle


def test_k_max_stops_all_agents(consistent_instance):
    cfg = build_cfg(consistent_instance, k_max=7, tol=1e-14)
    res = run_tolerant(cfg)
    assert res.stop_reason == "k_max"
    assert all(st.k == 7 for st in res.states)


def test_k_max_holds_under_failure_injection():
    inst = problems.generate(problems.ProblemSpec(m=60, n=20, density=0.3, seed=2, agents=4))
    opts = harness.RunOptions(block_size=5, interval=2, failure_rho=1.0, failure_xi=3.0,
                              k_max=50, seed=2)
    res = harness.run_single(inst, opts)
    assert res.stop_reason == "k_max"
    assert max(st.k for st in res.states) == 50
    assert max(len(times) for times in res.iterate_times) == 50


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rel_tol", [1e-1, 1e-2])
def test_stop_all_converges_at_first_iterate_with_every_agent_within_tol(
        consistent_instance, seed, rel_tol):
    inst = consistent_instance
    cfg = build_cfg(inst, seed=seed, stop_mode="all", tol=rel_tol * np.linalg.norm(inst.x_star))
    res = engine.run(cfg)
    # brute force over err_trace: every agent's latest error, starting from x = 0
    latest = [float(np.linalg.norm(inst.x_star))] * len(inst.shards)
    expected = None
    for ev_idx, agent, err in res.err_trace:
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
    inside = [False] * len(inst.shards)
    leaves = 0
    for _, agent, err in res.err_trace:
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
        with pytest.raises(NoConvergence) as info:
            engine.run(cfg)
    res = info.value.result
    assert res.stop_reason == "diverged"
    assert not res.converged
    # the first Iterate's error is non-finite and ends the run before it broadcasts
    iterates = [ev for ev in res.log if ev.kind == "Iterate"]
    assert len(iterates) == 1 and res.log[-1] is iterates[0]
    assert not math.isfinite(iterates[0].value)
    assert sum(st.k for st in res.states) == 1
    assert res.messages == []


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


# ---------------------------------------------------------------- fire_trigger

def test_fire_trigger_every_k():
    assert engine.fire_trigger(50, 0.0, 1.0, EveryK(25))
    assert not engine.fire_trigger(7, 0.0, 1.0, EveryK(25))
    assert not engine.fire_trigger(0, 0.0, 1.0, EveryK(25))


def test_fire_trigger_global_schedule():
    trig = GlobalSchedule(3.0)
    assert engine.fire_trigger(1, 2.9, 3.05, trig)      # tick 3.0 inside (2.9, 3.05]
    assert not engine.fire_trigger(1, 3.05, 5.9, trig)  # no tick inside
    assert engine.fire_trigger(1, 5.9, 6.0, trig)       # tick at the right edge
    assert not engine.fire_trigger(1, 0.1, 2.9, trig)   # before the first tick


def test_global_schedule_at_most_one_broadcast_per_tick(consistent_instance):
    spacing = 3.0  # = 2 * delay_bound + t_max
    cfg = build_cfg(consistent_instance, trigger=GlobalSchedule(spacing),
                    tol=1e-12, budget=4000)
    res = run_tolerant(cfg)
    per_tick = {}
    for ev in res.log:
        if ev.kind == "Broadcast":
            tick = int(ev.time // spacing)
            key = (ev.agent, tick)
            per_tick[key] = per_tick.get(key, 0) + 1
    assert per_tick and all(v == 1 for v in per_tick.values())


# -------------------------------------------------------------- message rules

def test_message_delays_bounded(consistent_instance):
    res = run_tolerant(build_cfg(consistent_instance, budget=5000, tol=1e-12))
    assert res.messages
    for m in res.messages:
        assert 0.0 < m.arrival_time - m.send_time <= 1.0 + 1e-12


def test_iteration_gaps_within_bounds(consistent_instance):
    res = run_tolerant(build_cfg(consistent_instance, budget=5000, tol=1e-12))
    for times in res.iterate_times:
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
    res = run_tolerant(cfg)
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
    res = run_tolerant(build_cfg(consistent_instance, budget=4000, tol=1e-12))
    n_agents = len(consistent_instance.shards)
    for rec in res.ticks:
        assert 1 <= rec.d_used <= n_agents
        assert len(rec.used) == rec.d_used
        assert rec.d_used * (1.0 / rec.d_used) == 1.0


# -------------------------------------------------------------------- failures

def test_inject_failures_counts():
    states = engine.inject_failures(FailurePlan(0.3, 2.0, seed=1), 13)
    assert sum(fs.enabled for fs in states) == 4    # ceil(0.3 * 13)
    assert sum(fs.enabled for fs in engine.inject_failures(None, 13)) == 0
    assert sum(fs.enabled for fs in engine.inject_failures(FailurePlan(0.0, 1.0), 13)) == 0


def test_failure_draw_means():
    states = engine.inject_failures(FailurePlan(1.0, 2.0, seed=7), 1)
    fs = states[0]
    downtimes = [fs.draw_downtime(2.0) for _ in range(1000)]
    assert abs(np.mean(downtimes) - 2.0) <= 0.2     # mean downtime ~ xi within 10%
    runs = [fs.draw_run_length(0.01) for _ in range(1000)]
    assert abs(np.mean(runs) - 100.0) <= 10.0       # mean run length ~ 1/xi


def test_rho_zero_matches_failure_free_run(consistent_instance):
    base = engine.run(build_cfg(consistent_instance, seed=6))
    with_plan = engine.run(build_cfg(consistent_instance, seed=6,
                                     failure=FailurePlan(0.0, 5.0, seed=99)))
    assert base.log == with_plan.log
    assert base.metrics == with_plan.metrics


def test_halted_agents_skip_iterates_and_broadcasts(consistent_instance):
    cfg = build_cfg(consistent_instance, seed=1, budget=20_000, tol=1e-12,
                    failure=FailurePlan(0.5, 1.5, seed=3))
    res = run_tolerant(cfg)
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
                    failure=FailurePlan(0.5, 1.5, seed=3))
    res = run_tolerant(cfg)
    halt_spans = {}
    for ev in res.log:
        if ev.kind == "Halt":
            halt_spans.setdefault(ev.agent, []).append((ev.time, ev.value))
    for agent, times in enumerate(res.iterate_times):
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
    res = run_tolerant(cfg)
    assert engine.audit_broadcast_spacing(res) == []


def test_audit_flags_tight_spacing(consistent_instance):
    cfg = build_cfg(consistent_instance, trigger=GlobalSchedule(0.75),
                    tol=1e-12, budget=3000)
    res = run_tolerant(cfg)
    violations = engine.audit_broadcast_spacing(res)
    assert violations
    v = violations[0]
    assert v.used_time > v.next_schedule_time
    assert v.next_schedule_time - v.schedule_time == pytest.approx(0.75)


def test_audit_empty_without_broadcasts():
    g = np.random.default_rng(8)
    A = g.normal(size=(6, 6))
    inst = problems.from_arrays(A, g.normal(size=6), 1)
    cfg = build_cfg(inst, block=6, trigger=GlobalSchedule(3.0), tol=1e-8)
    res = engine.run(cfg)
    assert res.messages == []
    assert engine.audit_broadcast_spacing(res) == []


def test_audit_ignores_every_k_runs(consistent_instance):
    res = run_tolerant(build_cfg(consistent_instance, budget=2000, tol=1e-12))
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
    res = run_tolerant(cfg)
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
    shard = inst.shards[0]
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
