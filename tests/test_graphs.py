import hashlib
import itertools

import numpy as np
import pytest

from kaczsim import agents, engine, graphs, linalg, problems, topology
from kaczsim.agents import AgentConfig
from kaczsim.errors import DelayBoundViolation, InvalidBasis, InvalidParameter
from kaczsim.graphs import TickRecord
from oracles import pinv, project_null, restricted_product_norm


def make_tick(tick, agent, rows, used):
    return TickRecord(tick=tick, time=float(tick), agent=agent, k=0, chunk=None,
                      rows=np.asarray(rows, dtype=int), used=tuple(used),
                      d_used=len(used), err=0.0)


def closure(g):
    """Reachability closure by repeated boolean multiplication (oracle)."""
    n = g.shape[0]
    r = (np.eye(n, dtype=bool) | g.astype(bool))
    while True:
        nxt = r | (r @ r)
        if np.array_equal(nxt, r):
            return r
        r = nxt


def random_strongly_connected(g, n):
    while True:
        adj = (g.random((n, n)) < 0.4).astype(np.uint8)
        np.fill_diagonal(adj, 1)
        if graphs.strongly_connected(adj):
            return adj


def layered_reachable(seq):
    """All-pairs reachability stepping through seq in order, with stays (oracle)."""
    n = seq[0].shape[0]
    reach = np.eye(n, dtype=bool)  # reach[i, j]: j reaches i so far
    for g in seq:
        reach = reach | (g.astype(bool) @ reach)
    return reach


# -------------------------------------------------------------------- compose

def test_compose_identity():
    g = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert np.array_equal(graphs.compose(np.eye(2, dtype=np.uint8), g), g)


def test_compose_path_semantics():
    n = 3
    g2 = np.zeros((n, n), np.uint8)  # a -> b   (rows are receivers)
    g1 = np.zeros((n, n), np.uint8)  # b -> c
    a, b, c = 0, 1, 2
    g2[b, a] = 1
    g1[c, b] = 1
    out = graphs.compose(g1, g2)
    assert out[c, a] == 1


def test_composition_of_n_minus_1_connected_graphs_is_complete():
    g = np.random.default_rng(0)
    n = 4
    for _ in range(25):
        seq = [random_strongly_connected(g, n) for _ in range(n - 1)]
        acc = seq[0]
        for adj in seq[1:]:
            acc = graphs.compose(adj, acc)
        # oracle: scheduled paths with stays reach everywhere
        assert np.all(layered_reachable(seq))
        assert np.all(acc == 1)


# --------------------------------------------------------- strongly_connected

def test_strongly_connected_cycle_and_split():
    cycle = np.roll(np.eye(4, dtype=np.uint8), 1, axis=0)
    assert graphs.strongly_connected(cycle)
    split = np.eye(4, dtype=np.uint8)
    split[0, 1] = split[1, 0] = 1
    assert not graphs.strongly_connected(split)


def test_strongly_connected_matches_closure_oracle():
    g = np.random.default_rng(1)
    for _ in range(60):
        n = int(g.integers(2, 7))
        adj = (g.random((n, n)) < 0.3).astype(np.uint8)
        expected = bool(np.all(closure(adj)) and np.all(closure(adj.T)))
        assert graphs.strongly_connected(adj) == expected


def test_strongly_connected_matches_scipy_csgraph():
    import scipy.sparse.csgraph

    g = np.random.default_rng(2)
    for n in range(13):
        for p in (0.1, 0.2, 0.35, 0.6):
            for _ in range(8):
                adj = (g.random((n, n)) < p).astype(np.uint8)
                count = (scipy.sparse.csgraph.connected_components(
                    adj, directed=True, connection="strong")[0] if n else 1)
                assert graphs.strongly_connected(adj) == (count == 1)


# ------------------------------------------------------------------ detect_C_l

def test_detect_C_l_complete_sequence():
    seq = [np.ones((3, 3), np.uint8)] * 4
    assert graphs.detect_C_l(seq, 1)


def test_detect_C_l_isolated_agent_fails_for_all_l():
    g = np.eye(4, dtype=np.uint8)
    g[:3, :3] = 1  # agent 3 never talks
    seq = [g.copy() for _ in range(6)]
    for l in range(1, 6):
        assert not graphs.detect_C_l(seq, l)


def test_detect_C_l_alternating_rings_vs_window_oracle():
    n = 5
    cw = np.roll(np.eye(n, dtype=np.uint8), 1, axis=0) | np.eye(n, dtype=np.uint8)
    ccw = np.roll(np.eye(n, dtype=np.uint8), -1, axis=0) | np.eye(n, dtype=np.uint8)
    seq = [cw, ccw] * 4
    for l in range(1, 6):
        expected = all(
            np.all(closure(layered_reachable(seq[s:s + l]).astype(np.uint8)))
            for s in range(len(seq) - l + 1)
        )
        assert graphs.detect_C_l(seq, l) == expected


def test_detect_C_l_monotone_in_window_length():
    g = np.random.default_rng(2)
    for trial in range(30):
        n = int(g.integers(2, 5))
        seq = []
        for _ in range(7):
            adj = (g.random((n, n)) < 0.35).astype(np.uint8)
            np.fill_diagonal(adj, 1)
            seq.append(adj)
        verdicts = [graphs.detect_C_l(seq, l) for l in range(1, 7)]
        for shorter, longer in zip(verdicts, verdicts[1:]):
            assert (not shorter) or longer


def test_detect_C_l_rejects_bad_window():
    seq = [np.ones((2, 2), np.uint8)] * 3
    with pytest.raises(InvalidParameter):
        graphs.detect_C_l(seq, 0)
    with pytest.raises(InvalidParameter):
        graphs.detect_C_l(seq, 9)


# -------------------------------------------------------------- delayed graph

def test_delayed_graph_single_agent_chain():
    rec = make_tick(0, 0, [0], [(0, 0)])
    W = graphs.build_delayed_graph(rec, 1, 2)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0   # self average
    expected[1, 0] = 1.0   # stage shifts
    expected[2, 1] = 1.0
    assert np.array_equal(W, expected)


def test_delayed_graph_fresh_neighbor_halves():
    rec = make_tick(0, 0, [0], [(0, 0), (1, 0)])
    W = graphs.build_delayed_graph(rec, 2, 1)
    assert W[0, 0] == 0.5 and W[0, 1] == 0.5
    assert W[1, 1] == 1.0            # non-iterating agent keeps state
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)


def test_delayed_graph_stage_overflow():
    rec = make_tick(0, 0, [0], [(0, 0), (1, 3)])
    with pytest.raises(DelayBoundViolation):
        graphs.build_delayed_graph(rec, 2, 2)


def _small_run(seed=0, trigger=engine.EveryK(3), budget=3000, agents=3,
               sampling="cycle", failure=engine.FailurePlan(0.0, 0.0)):
    inst = problems.generate(problems.ProblemSpec(m=30, n=8, density=0.4, noise=0.0,
                                                  seed=5, agents=agents))
    topo = topology.build_pascal(agents, agents, seed=0)
    acfgs = [AgentConfig(i, s.A, s.b, s.rows, 4, sampling=sampling)
             for i, s in enumerate(problems.partition(inst.A, inst.b, inst.agents))]
    cfg = engine.SimConfig(topo, acfgs, inst.x_star, 1.0, trigger,
                           tol=1e-6, k_max=10**6, event_budget=budget,
                           seed=seed, stop_mode="all", failure=failure)
    return engine.run(cfg), inst


def test_run_trace_weight_matrices_row_stochastic():
    result, _ = _small_run()
    ticks = graphs.tick_trace(result)
    depth = graphs.max_observed_stage(ticks)
    for rec in ticks:
        W = graphs.build_delayed_graph(rec, 3, depth)
        assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)


# SHA-256 of (tick, agent, k, chunk, rows, used, d_used) per tick, recorded
# when the simulator still built the trace during the run
TICK_TRACE_DIGESTS = {
    "cycle-every-k": (dict(seed=2, trigger=engine.EveryK(3)),
                      "debe8e363fecd7c4128364870b530deda3db246d4dbf40605fba6468a23e8046"),
    "iid-global-rho": (dict(seed=3, trigger=engine.GlobalSchedule(0.75), sampling="iid",
                            failure=engine.FailurePlan(0.5, 2.0)),
                       "145ca864592a7c8eec076d65ed158a4c0588f988f8b060d6bc8ed08916cb5d05"),
}


@pytest.mark.parametrize("case", sorted(TICK_TRACE_DIGESTS))
def test_tick_trace_pinned(case):
    kwargs, digest = TICK_TRACE_DIGESTS[case]
    result, _ = _small_run(**kwargs)
    ticks = graphs.tick_trace(result)
    assert len(ticks) == sum(ev.kind == "Iterate" for ev in result.log)
    fields = [(t.tick, t.agent, t.k, t.chunk, tuple(t.rows.tolist()), t.used, t.d_used)
              for t in ticks]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest


@pytest.mark.parametrize("sampling, k_max, sizes", [
    ("iid", 40, [agents.BATCH, 40 - agents.BATCH]),   # a batch, then a short one
    ("cycle", 12, [3] * 4),                           # four passes over 3 chunks
])
def test_tick_trace_replays_the_runs_draws(monkeypatch, sampling, k_max, sizes):
    """The replay calls agents.next_blocks as the run's steps did, agent for
    agent and batch for batch, and each tick's rows are the block its step
    used."""
    inst = problems.generate(problems.ProblemSpec(m=30, n=8, density=0.4, noise=0.0,
                                                  seed=5, agents=3))
    acfgs = [AgentConfig(i, s.A, s.b, s.rows, 4, sampling=sampling)
             for i, s in enumerate(problems.partition(inst.A, inst.b, inst.agents))]
    cfg = engine.SimConfig(topology.build_pascal(3, 3, seed=0), acfgs, inst.x_star, 1.0,
                           engine.EveryK(3), tol=1e-300, k_max=k_max, seed=7)
    calls, used = [], []
    next_blocks, step = agents.next_blocks, agents.step

    def recording_next_blocks(state, acfg):
        drawn = next_blocks(state, acfg)
        calls.append((acfg.agent_id, len(drawn)))
        return drawn

    def recording_step(state, acfg, entries):
        state = step(state, acfg, entries)
        used.append(acfg.rows[state.block])
        return state

    monkeypatch.setattr(agents, "next_blocks", recording_next_blocks)
    monkeypatch.setattr(agents, "step", recording_step)
    result = engine.run(cfg)
    assert result.stop_reason == "k_max"
    run_calls, calls[:] = calls[:], []
    ticks = graphs.tick_trace(result)
    assert calls == run_calls
    assert all([size for agent, size in calls if agent == i] == sizes for i in range(3))
    assert len(ticks) == len(used) == 3 * k_max
    assert all(np.array_equal(t.rows, rows) for t, rows in zip(ticks, used))


@pytest.mark.parametrize("trigger", [engine.EveryK(3), engine.GlobalSchedule(0.75)],
                         ids=["EveryK", "GlobalSchedule"])
def test_run_trace_stage_bound(trigger):
    result, _ = _small_run(trigger=trigger)
    bound = graphs.staleness_stage_bound(result.config)
    assert graphs.max_observed_stage(graphs.tick_trace(result)) <= bound


# ------------------------------------------------------- transition operator

def two_agent_window(A, schedule, pattern, listen=True):
    window = []
    for t, (a, row) in enumerate(zip(schedule, pattern)):
        used = [(a, 0)]
        if listen and t > 0:
            used.append((1 - a, 1))
        window.append(make_tick(t, a, [row], used))
    return window


def test_empty_window_is_identity():
    A = np.random.default_rng(3).normal(size=(4, 3))
    tm = graphs.build_transition_matrix([], A, 2, 1)
    assert np.array_equal(tm.dense, np.eye(4 * 3))
    assert tm.row_sets == [[0]] * 4


@pytest.mark.parametrize("case", ["random", "rank-deficient", "duplicated-rows"])
def test_one_tick_window_is_the_null_space_projector(case):
    # one agent, one tick, depth 0: the operator is I - pinv(A_J) A_J, and
    # exactly symmetric; the two agree to rounding that grows with cond(A_J)
    g = np.random.default_rng(32)
    eps = np.finfo(float).eps
    for _ in range(25):
        m, n = int(g.integers(2, 8)), int(g.integers(2, 10))
        if case == "rank-deficient":
            rank = int(g.integers(1, min(m, n)))
            A = g.normal(size=(m, rank)) @ g.normal(size=(rank, n))
        else:
            A = g.normal(size=(m, n))
        rows = sorted(g.choice(m, size=int(g.integers(2, m + 1)), replace=False).tolist())
        if case == "duplicated-rows":
            A[rows[-1]] = A[rows[0]]
        A_J = A[rows]
        tm = graphs.build_transition_matrix([make_tick(0, 0, rows, [(0, 0)])], A, 1, 0)
        f = linalg.svd(A_J)
        cond = f.sigma[0] / f.sigma_min if f.rank else 1.0
        assert np.array_equal(tm.dense, tm.dense.T)
        assert np.abs(tm.dense - (np.eye(n) - pinv(A_J) @ A_J)).max() <= 8 * n * eps * cond


def test_weights_row_stochastic_for_any_window():
    g = np.random.default_rng(4)
    A = g.normal(size=(4, 3))
    schedule = [0, 1, 0, 1, 1]
    pattern = [0, 2, 1, 3, 2]
    weights = np.eye(4)
    for rec in two_agent_window(A, schedule, pattern):
        weights = graphs.build_delayed_graph(rec, 2, 1) @ weights
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)


def test_full_coverage_connected_window_contracts():
    g = np.random.default_rng(6)
    A = g.normal(size=(4, 3))
    schedule = [0, 1] * 4
    pattern = [0, 2, 1, 3, 0, 2, 1, 3]   # both agents sweep all their rows
    tm = graphs.build_transition_matrix(two_agent_window(A, schedule, pattern), A, 2, 1)
    assert all(tm.row_complete(A))
    assert graphs.hybrid_norm_A(tm, linalg.row_space_basis(A)) < 1.0


def test_isolated_deficient_agent_has_unit_norm():
    g = np.random.default_rng(7)
    A = g.normal(size=(4, 3))
    window = []
    for t in range(6):
        a = t % 2
        used = [(a, 0)] if a == 0 else [(1, 0), (0, 1)]
        window.append(make_tick(t, a, [a * 2], used))
    tm = graphs.build_transition_matrix(window, A, 2, 1)
    hn = graphs.hybrid_norm_A(tm, linalg.row_space_basis(A))
    assert abs(hn - 1.0) <= 1e-9


# ------------------------------------------------------------- completeness

def test_check_completeness_cases():
    g = np.random.default_rng(9)
    A = g.normal(size=(3, 2))  # rank 2; any 2 random rows span

    def complete(row_sets):
        tm = graphs.TransitionMatrix(1, 0, 2, np.eye(2), [row_sets])
        return tm.row_complete(A) == [True]

    assert complete([0b111])
    assert not complete([])       # no term at all
    assert not complete([0])      # identity term: no rows projected
    # proper subset with full rank is enough
    assert complete([0b101])
    # rank-deficient union is not
    assert not complete([0b010])


def test_sharp_row_criterion_matches_contraction_exhaustively():
    """Block-row contraction happens exactly when the union of projected rows
    over all terms spans Row(A); a single covering term is sufficient but not
    necessary (sums of partial products can still contract)."""
    g = np.random.default_rng(10)
    A = g.normal(size=(4, 3))
    basis = linalg.row_space_basis(A)
    rank = linalg.svd(A).rank
    schedule = [0, 1] * 3
    agent_rows = [[0, 1], [2, 3]]
    saw_gap = False
    for pattern in itertools.product(*[agent_rows[a] for a in schedule]):
        tm = graphs.build_transition_matrix(two_agent_window(A, schedule, pattern), A, 2, 1)
        term_complete = tm.row_complete(A)
        for i, sets in enumerate(tm.row_sets):
            rowsum = sum(
                float(np.linalg.norm(basis.T @ tm.block(i, j) @ basis, 2))
                for j in range(tm.blocks)
            )
            union = [r for r in range(A.shape[0]) if any(mask >> r & 1 for mask in sets)]
            sharp = bool(union) and linalg.svd(A[union]).rank == rank
            assert sharp == (rowsum < 1.0 - 1e-9)
            if term_complete[i]:
                assert sharp  # single-term completeness implies the sharp one
            elif sharp:
                saw_gap = True
    assert saw_gap


def _random_window(g, n_agents, depth, shards):
    window = []
    for t in range(int(g.integers(1, 7))):
        a = int(g.integers(n_agents))
        k = int(g.integers(1, len(shards[a]) + 1))
        rows = sorted(g.choice(shards[a], size=k, replace=False).tolist())
        used = [(a, 0)]
        for sender in range(n_agents):
            if sender != a and g.random() < 0.7:
                used.append((sender, int(g.integers(0, depth + 1))))   # stale stages too
        window.append(make_tick(t, a, rows, used))
    return window


def _path_unions(window, n_agents, depth, slot, pos):
    """Brute-force oracle: the row union of every nonzero-weight path that ends
    in block row `slot` after window position `pos`, one union per path."""
    if pos < 0:
        return [frozenset()]
    here = frozenset()
    for s in range(min(depth, pos) + 1):
        past = window[pos - s]
        if s * n_agents + past.agent == slot:
            here = frozenset(int(r) for r in past.rows)
    W = graphs.build_delayed_graph(window[pos], n_agents, depth)
    return [u | here
            for k in range(W.shape[1]) if W[slot, k] != 0.0
            for u in _path_unions(window, n_agents, depth, k, pos - 1)]


def test_row_complete_matches_path_enumeration():
    g = np.random.default_rng(21)
    checked = incomplete = 0
    for case in range(36):
        n_agents, depth = int(g.integers(2, 4)), int(g.integers(0, 3))
        m = int(g.integers(n_agents + 1, 7))
        A = g.normal(size=(m, int(g.integers(2, 5))))
        if case % 3 == 0:
            A[-1] = 2.0 * A[0]        # a repeated row direction
            A[:, -1] = A[:, 0]        # and rank-deficient columns
        rank = linalg.svd(A).rank

        def spans(rows):
            rows = sorted(rows)
            return bool(rows) and linalg.svd(A[rows]).rank == rank

        shards = np.array_split(np.arange(m), n_agents)
        window = _random_window(g, n_agents, depth, shards)
        tm = graphs.build_transition_matrix(window, A, n_agents, depth)
        complete = tm.row_complete(A)
        for i in range(tm.blocks):
            unions = _path_unions(window, n_agents, depth, i, len(window) - 1)
            assert complete[i] == any(spans(u) for u in unions)
            sharp = [r for r in range(m) if any(mask >> r & 1 for mask in tm.row_sets[i])]
            assert spans(sharp) == spans(frozenset().union(*unions))
            checked += 1
            incomplete += not complete[i]
    assert checked > 100 and incomplete > 10   # both outcomes are exercised


# ------------------------------------------------------------- hybrid norm

def test_hybrid_norm_zero_and_identity():
    A = np.eye(3)
    basis = linalg.row_space_basis(A)
    zero = graphs.TransitionMatrix(1, 1, 3, np.zeros((6, 6)), [[], []])
    assert graphs.hybrid_norm_A(zero, basis) == 0.0
    ident = graphs.TransitionMatrix(1, 1, 3, np.eye(6), [[0], [0]])
    assert graphs.hybrid_norm_A(ident, basis) == pytest.approx(1.0)


def test_hybrid_norm_upper_bounds_sampled_gains():
    g = np.random.default_rng(11)
    A = g.normal(size=(4, 3))
    basis = linalg.row_space_basis(A)
    schedule = [0, 1, 0, 1]
    tm = graphs.build_transition_matrix(two_agent_window(A, schedule, [0, 2, 1, 3]), A, 2, 1)
    hn = graphs.hybrid_norm_A(tm, basis)
    n = tm.dim
    for _ in range(200):
        x = np.concatenate([basis @ v / max(np.linalg.norm(v), 1e-12)
                            for v in g.normal(size=(tm.blocks, basis.shape[1]))])
        out = tm.dense @ x
        gain = max(np.linalg.norm(out[i * n:(i + 1) * n]) for i in range(tm.blocks))
        assert gain <= hn + 1e-9


def test_hybrid_norm_rejects_bad_basis():
    A = np.eye(3)
    tm = graphs.build_transition_matrix([], A, 1, 1)
    with pytest.raises(InvalidBasis):
        graphs.hybrid_norm_A(tm, 2.0 * np.eye(3))


# ---------------------------------------------------- product-norm dichotomy

def test_projection_product_dichotomy():
    """A product of null-space projections restricted to Row(A) contracts
    strictly iff the used rows jointly span the row space; otherwise a unit
    fixed vector survives and the norm is exactly one."""
    g = np.random.default_rng(12)
    for _ in range(20):
        A = g.normal(size=(5, 4))
        covering = [[0, 1], [2], [3, 4]]
        assert restricted_product_norm(A, covering) < 1.0 - 1e-9
        deficient = [[0, 1], [2]]  # rank <= 3 < 4
        assert abs(restricted_product_norm(A, deficient) - 1.0) <= 1e-12
        # eigen-analysis exhibits the unit-gain witness: a row-space vector
        # orthogonal to every used row, hence fixed by the whole product
        basis = linalg.row_space_basis(A)
        used = A[[0, 1, 2]]
        _, _, vt = np.linalg.svd(used @ basis)
        witness = basis @ vt[-1]
        assert np.linalg.norm(witness) == pytest.approx(1.0)
        for rows in deficient:
            assert np.allclose(project_null(A[rows], witness), witness, atol=1e-9)


def test_transition_matrix_reproduces_live_run_errors(monkeypatch):
    """End-to-end oracle: the stacked operator assembled from a run's trace,
    applied to the true delayed error stack at a window start, must reproduce
    the true stack at the window end to numerical precision."""
    g = np.random.default_rng(13)
    A = g.normal(size=(6, 3))
    x_sol = g.normal(size=3)
    inst = problems.from_arrays(A, A @ x_sol, 2, x_planted=x_sol)
    topo = topology.build_pascal(2, 2, seed=0)
    acfgs = [AgentConfig(i, s.A, s.b, s.rows, 2)
             for i, s in enumerate(problems.partition(inst.A, inst.b, inst.agents))]
    cfg = engine.SimConfig(topo, acfgs, inst.x_star, 1.0, engine.EveryK(2),
                           tol=1e-13, k_max=10**6, event_budget=220, seed=1,
                           stop_mode="all")
    step = agents.step
    estimates = []   # the produced estimate of each step call, in tick order

    def recording_step(*args, **kwargs):
        state = step(*args, **kwargs)
        estimates.append(state.x.copy())
        return state

    monkeypatch.setattr(agents, "step", recording_step)
    res = engine.run(cfg)
    ticks = graphs.tick_trace(res)
    assert len(estimates) == len(ticks)

    n = 3
    produced = {}   # (agent, tick) -> estimate after that tick
    for rec, x in zip(ticks, estimates):
        produced[(rec.agent, rec.tick)] = x

    def state_at(agent, q):
        """Estimate of `agent` inside the pre-update stack at tick q (post q-1)."""
        candidates = [t for (a, t) in produced if a == agent and t <= q - 1]
        return produced[(agent, max(candidates))] if candidates else np.zeros(n)

    start, end = 30, 42
    window = ticks[start:end]
    depth = max(graphs.max_observed_stage(window), 1)
    tm = graphs.build_transition_matrix(window, inst.dense(), 2, depth)

    def stack(q):
        return np.concatenate([state_at(a, q - s) - inst.x_star
                               for s in range(depth + 1) for a in range(2)])

    out = tm.dense @ stack(window[0].tick)
    expected = stack(window[-1].tick + 1)
    assert np.linalg.norm(out - expected) <= 1e-10 * max(np.linalg.norm(expected), 1.0)


def test_certification_report_fields():
    result, inst = _small_run(budget=400)
    report = graphs.certification_report(graphs.tick_trace(result), inst.dense(), 3, window=4)
    assert set(report) == {"window", "d", "hybrid_norm", "complete_rows", "C_l_verdict", "l"}
    assert report["window"] == 4
    assert 0.0 < report["hybrid_norm"] <= 1.0 + 1e-12
    assert len(report["complete_rows"]) == (report["d"] + 1) * 3


@pytest.mark.parametrize("window", [0, -3])
def test_certification_report_rejects_empty_window(window):
    result, inst = _small_run(budget=400)
    with pytest.raises(InvalidParameter):
        graphs.certification_report(graphs.tick_trace(result), inst.dense(), 3, window=window)
