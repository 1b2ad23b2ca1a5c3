"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""
import itertools
import time

import numpy as np
import pytest

from kaczsim import engine, graphs, linalg, problems, rng, topology
from kaczsim.agents import AgentConfig
from kaczsim.engine import EveryK, FailurePlan, GlobalSchedule, SimConfig
from kaczsim.errors import InfeasibleTopology
from kaczsim.graphs import TickRecord
from oracles import adjacency


def verdict(num, note):
    print(f"criterion {num:>2}: PASS ({note})")


# ----------------------------------------------------------- shared instances

@pytest.fixture(scope="module")
def consistent_instance():
    """120 x 40 rank-30 noiseless system shared by criteria 1, 2, 3, 6, 8, 9."""
    g = np.random.default_rng(20)
    A = g.normal(size=(120, 30)) @ g.normal(size=(30, 40))
    x_plant = g.normal(size=40)
    inst = problems.from_arrays(A, A @ x_plant, 4, x_planted=x_plant)
    assert linalg.svd(inst.dense()).rank == 30
    return inst


@pytest.fixture(scope="module")
def inconsistent_instance():
    """100 x 30 noisy system shared by criteria 4 and 5."""
    return problems.generate(problems.ProblemSpec(m=100, n=30, density=0.3,
                                                  noise=1.0, seed=21, agents=4))


def consistent_config(inst, seed, *, budget=50_000, stop_mode="all", tol_rel=1e-4,
                      failure=None, init=None, trigger=EveryK(5),
                      tol=None, k_max=10**6):
    acfgs = [AgentConfig(i, s.A, s.b, s.rows, 10, t_min=0.5, t_max=1.0)
             for i, s in enumerate(problems.partition(inst.A, inst.b, inst.agents))]
    topo = topology.build_pascal(4, 4, seed=0)
    tol = tol_rel * np.linalg.norm(inst.x_star) if tol is None else tol
    return SimConfig(topo, acfgs, inst.x_star, 1.0, trigger, tol=tol,
                     k_max=k_max, event_budget=budget, seed=seed,
                     stop_mode=stop_mode, failure=failure,
                     init=init,
                     ls_reference=inst.x_star)


@pytest.fixture(scope="module")
def criterion1_runs(consistent_instance):
    runs = []
    for seed in range(10):
        cfg = consistent_config(consistent_instance, seed)
        t0 = time.monotonic()
        res = engine.run(cfg)
        runs.append((res, time.monotonic() - t0))
    return runs


# -------------------------------------------------------------------- criteria

def test_criterion_01_minimum_norm_convergence(consistent_instance, criterion1_runs):
    scale = np.linalg.norm(consistent_instance.x_star)
    for res, wall in criterion1_runs:
        assert res.converged
        assert len(res.log) <= 50_000
        assert wall < 10.0
        for st in res.states:
            assert np.linalg.norm(st.x - consistent_instance.x_star) <= 1e-4 * scale
    events = [len(r.log) for r, _ in criterion1_runs]
    verdict(1, f"10/10 seeds, events {min(events)}..{max(events)}, "
               f"slowest run {max(w for _, w in criterion1_runs):.2f}s")


def test_criterion_02_exponential_decay(consistent_instance, criterion1_runs):
    scale = np.linalg.norm(consistent_instance.x_star)
    interval = 250
    min_halvings = None
    for res, _ in criterion1_runs:
        current = {i: scale for i in range(4)}   # zero init: error starts at |x*|
        samples = [max(current.values())]
        next_mark = interval
        iterates = ((i + 1, ev.agent, ev.value)
                    for i, ev in enumerate(res.log) if ev.kind == "Iterate")
        for ev_idx, agent, err in iterates:
            while ev_idx > next_mark:
                samples.append(max(current.values()))
                next_mark += interval
            current[agent] = err
        samples.append(max(current.values()))
        halvings, ref = 0, samples[0]
        for v in samples[1:]:
            while v <= ref / 2:
                halvings += 1
                ref = ref / 2
        assert halvings >= 8
        min_halvings = halvings if min_halvings is None else min(min_halvings, halvings)
    verdict(2, f"max-agent error halves >= {min_halvings} times in every run")


def test_criterion_03_drift_with_random_init(consistent_instance):
    inst = consistent_instance
    init = [rng.stream(2, rng.INIT, i).normal(size=inst.n) for i in range(4)]
    cfg = consistent_config(inst, seed=2, budget=120_000, tol=1e-9, init=init)
    res = engine.run(cfg)
    assert not res.converged   # limit sits at x* + drift, away from x*
    basis = linalg.row_space_basis(inst.dense())
    xs = [st.x for st in res.states]
    pairwise = max(np.linalg.norm(a - b) for a, b in itertools.combinations(xs, 2))
    assert pairwise <= 1e-4
    row_errs = [np.linalg.norm(basis @ (basis.T @ x) - inst.x_star) for x in xs]
    assert max(row_errs) <= 1e-4
    drift = xs[0] - basis @ (basis.T @ xs[0])
    assert np.linalg.norm(drift) > 1e-3
    verdict(3, f"pairwise {pairwise:.1e}, row-space error {max(row_errs):.1e}, "
               f"drift norm {np.linalg.norm(drift):.3f}")


def test_criterion_04_regularized_oracle_bound(inconsistent_instance):
    inst = inconsistent_instance
    dense = inst.dense()
    x_star = inst.x_star
    sigma_min = linalg.svd(dense).sigma_min
    worst_gap = np.inf
    worst_rel = 0.0
    for lam in (0.5, 1.0, 2.0):
        x_reg, y_reg = linalg.augmented_min_norm_solve(dense, inst.b, lam)
        # (a) the regularized iteration converges to the widened-system point;
        #     run undiluted (single agent) where the update realizes it exactly
        single = problems.from_arrays(dense, inst.b, 1, x_planted=inst.x_planted)
        shard = problems.partition(single.A, single.b, single.agents)[0]
        acfg = [AgentConfig(0, shard.A, shard.b, shard.rows, 10, lam=lam,
                            t_min=0.5, t_max=1.0)]
        cfg = SimConfig(topology.build_pascal(1, 1, seed=0), acfg, x_reg, 1.0,
                        EveryK(5), tol=1e-4 * np.linalg.norm(x_reg), k_max=10**6,
                        event_budget=200_000, seed=3, stop_mode="all",
                        ls_reference=x_star)
        res = engine.run(cfg)
        rel_run = np.linalg.norm(res.states[0].x - x_reg) / np.linalg.norm(x_reg)
        assert rel_run <= 1e-4
        worst_rel = max(worst_rel, rel_run)
        # (b) oracle bound, exactly via the SVD
        rel_err = np.linalg.norm(x_star - x_reg) / np.linalg.norm(x_star)
        bound = linalg.regularization_error_bound(sigma_min, lam)
        assert bound - rel_err >= -1e-10
        worst_gap = min(worst_gap, bound - rel_err)
        # widened-system consistency of the oracle pair
        assert np.linalg.norm(dense @ x_reg + lam * y_reg - inst.b) <= 1e-8 * np.linalg.norm(inst.b)
    verdict(4, f"runs within {worst_rel:.1e} of the oracle; bound slack >= {worst_gap:.2e}")


def test_criterion_05_lambda_monotonicity(inconsistent_instance):
    inst = inconsistent_instance
    dense = inst.dense()
    lams = (0.7, 1.3, 2.0, 3.0)
    oracles = {lam: linalg.augmented_min_norm_solve(dense, inst.b, lam)[0] for lam in lams}
    shards = problems.partition(inst.A, inst.b, inst.agents)
    acfgs = {lam: [AgentConfig(i, s.A, s.b, s.rows, 10, lam=lam, t_min=0.5, t_max=1.0)
                   for i, s in enumerate(shards)] for lam in lams}
    topo = topology.build_pascal(4, 4, seed=0)
    monotone = 0
    for seed in range(10):
        e_stops = []
        for lam in lams:
            cfg = SimConfig(topo, acfgs[lam], oracles[lam], 1.0, EveryK(5),
                            tol=1e-10, k_max=500, event_budget=10**6, seed=seed,
                            stop_mode="all", ls_reference=inst.x_star)
            res = engine.run(cfg)
            e_stops.append(res.metrics.e_stop)
        monotone += all(a <= b + 1e-12 for a, b in zip(e_stops, e_stops[1:]))
    assert monotone >= 9
    verdict(5, f"e_stop nondecreasing over lambda grid in {monotone}/10 seeds")


def test_criterion_06_broadcast_spacing_audit(consistent_instance):
    inst = consistent_instance
    design_spacing = 2 * 1.0 + 1.0    # 2*delay_bound + max iteration gap
    clean = 0
    for seed in range(50):
        cfg = consistent_config(inst, seed, budget=2500, tol=1e-12,
                                trigger=GlobalSchedule(design_spacing))
        res = engine.run(cfg)
        assert res.messages
        clean += not engine.audit_broadcast_spacing(res)
    assert clean == 50
    flagged = 0
    for seed in range(50):
        cfg = consistent_config(inst, seed, budget=2500, tol=1e-12,
                                trigger=GlobalSchedule(0.25 * design_spacing))
        res = engine.run(cfg)
        flagged += bool(engine.audit_broadcast_spacing(res))
    assert flagged >= 1
    verdict(6, f"0 violations in 50/50 runs at the design spacing; "
               f"{flagged}/50 runs flagged at quarter spacing")


def _pattern_tick(tick, agent, row, listen):
    used = [(agent, 0)] + ([(1 - agent, 1)] if listen and tick > 0 else [])
    return TickRecord(tick=tick, time=float(tick), agent=agent, k=0, chunk=None,
                      rows=np.array([row]), used=tuple(used), d_used=len(used), err=0.0)


def test_criterion_07_contraction_certification():
    g = np.random.default_rng(22)
    schedule = [0, 1] * 4
    checked = complete_cases = 0
    worst_complete = 0.0
    for m1, m2 in ((2, 2), (3, 2), (1, 3)):
        A = g.normal(size=(m1 + m2, 3))
        basis = linalg.row_space_basis(A)
        agent_rows = [list(range(m1)), list(range(m1, m1 + m2))]
        for pattern in itertools.product(*[agent_rows[a] for a in schedule]):
            window = [_pattern_tick(t, a, r, listen=True)
                      for t, (a, r) in enumerate(zip(schedule, pattern))]
            tm = graphs.build_transition_matrix(window, A, 2, 1)
            checked += 1
            if all(tm.row_complete(A)):
                complete_cases += 1
                hn = graphs.hybrid_norm_A(tm, basis)
                assert hn < 1.0 - 1e-6
                worst_complete = max(worst_complete, hn)
        # counterexample: agent 0 never listens and its rows cannot span Row(A)
        window = []
        for t in range(8):
            a = schedule[t]
            row = agent_rows[a][0] if a == 0 else agent_rows[1][t // 2 % m2]
            window.append(_pattern_tick(t, a, row, listen=(a == 1)))
        tm = graphs.build_transition_matrix(window, A, 2, 1)
        assert not all(tm.row_complete(A))
        hn = graphs.hybrid_norm_A(tm, basis)
        assert abs(hn - 1.0) <= 1e-9
    assert complete_cases > 0
    verdict(7, f"{checked} selection patterns, {complete_cases} fully complete, "
               f"max contracted norm {worst_complete:.6f}; counterexamples pin 1.0")


def test_criterion_08_failure_robustness(consistent_instance, criterion1_runs):
    inst = consistent_instance
    scale = np.linalg.norm(inst.x_star)
    passed = 0
    for seed in range(10):
        cfg = consistent_config(inst, seed, budget=100_000,
                                failure=FailurePlan(0.3, 2.0, seed=seed))
        res = engine.run(cfg)
        if not res.converged:
            continue
        assert all(np.linalg.norm(st.x - inst.x_star) <= 1e-4 * scale for st in res.states)
        passed += 1
    assert passed >= 9
    # rho = 0 reproduces the failure-free run exactly
    base = criterion1_runs[0][0]
    res0 = engine.run(consistent_config(inst, 0, failure=FailurePlan(0.0, 2.0, seed=77)))
    assert res0.log == base.log
    assert res0.metrics == base.metrics
    verdict(8, f"{passed}/10 seeds converge under failures; rho=0 run bit-identical")


def test_criterion_09_structural_invariants(consistent_instance):
    inst = consistent_instance
    configs = [
        consistent_config(inst, 5, budget=6000, tol=1e-12,
                          failure=FailurePlan(0.5, 1.5, seed=4)),
        consistent_config(inst, 6, budget=4000, tol=1e-12, trigger=GlobalSchedule(3.0)),
    ]
    for cfg in configs:
        res = engine.run(cfg)
        # message delays bounded by the delay bound
        for m in res.messages:
            assert 0.0 < m.arrival_time - m.send_time <= cfg.delay_bound + 1e-12
        # iteration gaps within bounds outside halt windows
        halt_spans: dict[int, list[tuple[float, float]]] = {}
        for ev in res.log:
            if ev.kind == "Halt":
                halt_spans.setdefault(ev.agent, []).append((ev.time, ev.value))
        iterate_times = [[] for _ in res.states]
        for ev in res.log:
            if ev.kind == "Iterate":
                iterate_times[ev.agent].append(ev.time)
        for agent, times in enumerate(iterate_times):
            for a, b in zip(times, times[1:]):
                spans = [s for s in halt_spans.get(agent, []) if a <= s[0] < b]
                gap = (b - a) - sum(e - s for s, e in spans)
                assert 0.5 - 1e-9 <= gap <= 1.0 + 1e-9
        # keep-latest mailboxes: stored iterations strictly increase per sender
        kept: dict[tuple[int, int], int] = {}
        for ev in res.log:
            if ev.kind != "Deliver":
                continue
            key = (ev.agent, ev.peer)
            if ev.kept:
                assert kept.get(key, -1) < ev.k
                kept[key] = ev.k
            else:
                assert kept.get(key, -1) >= ev.k
        # every per-tick weight matrix is row-stochastic
        ticks = graphs.tick_trace(res)
        depth = graphs.max_observed_stage(ticks)
        for rec in ticks:
            W = graphs.build_delayed_graph(rec, 4, depth)
            assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)
        # bit-identical replay
        replay = engine.run(cfg)
        assert replay.log == res.log
        assert replay.metrics == res.metrics
    verdict(9, "delays, gaps, mailboxes, weight rows, and replay all hold on both runs")


def test_criterion_10_topology_grid():
    checked = infeasible = 0
    for n in (3, 13, 45):
        for cap in (2, -(-n // 4), n - 1):
            for seed in range(100):
                if n >= 3 and cap < 2:
                    with pytest.raises(InfeasibleTopology):
                        topology.build_pascal(n, cap, seed)
                    infeasible += 1
                    continue
                t = topology.build_pascal(n, cap, seed)
                assert graphs.strongly_connected(adjacency(t))
                assert max(t.degree(i) for i in range(n)) <= cap
                checked += 1
    verdict(10, f"{checked} builds connected and capped; "
                f"{infeasible} infeasible cap-1 cells rejected")
