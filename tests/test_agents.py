from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaczsim import agents, linalg, problems
from kaczsim.agents import AgentConfig
from kaczsim.errors import CorruptMessage, DimensionError, InvalidParameter
from oracles import mean_estimate, pinv, project_null, sequential_iid_step


def make_cfg(A, b, block=None, lam=None, sampling=agents.CYCLE):
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    return AgentConfig(0, problems.CsrRows.from_dense(A), b, np.arange(A.shape[0]), block or A.shape[0],
                       lam=lam, sampling=sampling)


def fresh(cfg, seed=0, init=None):
    return agents.initial_state(cfg, np.random.default_rng(seed), init=init)


def snap(*vecs):
    return [(i, np.asarray(v, float), 0) for i, v in enumerate(vecs)]


# ------------------------------------------------------------------ aggregate

def test_aggregate_singleton_is_identity():
    assert np.array_equal(agents.aggregate(snap([3.0, -1.0])), [3.0, -1.0])


def test_aggregate_of_equal_vectors():
    assert np.array_equal(agents.aggregate(snap([1.0, 2.0], [1.0, 2.0])), [1.0, 2.0])


def test_aggregate_mean():
    out = agents.aggregate(snap([1.0, 0.0], [0.0, 1.0], [2.0, 2.0]))
    assert np.allclose(out, [1.0, 1.0])


ZERO_HEAVY = np.array([-0.0, -0.0, -0.0, 0.0, 5e-324])
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1.7e308, -1.7e308])


def _awkward_values(g, shape, special, share):
    """Values of mixed scale and sign, a share of them replaced by draws
    from `special`."""
    x = g.standard_normal(shape) * 10.0 ** g.integers(-20, 20, shape)
    mask = g.random(shape) < share
    x[mask] = g.choice(special, size=int(mask.sum()))
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 400])
def test_aggregate_bit_equal_to_stacked_reduce(n):
    """The in-place sum is np.add.reduce over the stacked estimates bit for
    bit: with +-0.0 (a column of -0.0 included), subnormals, magnitudes near
    1e300 and overflow to inf and nan.  It returns a new array and leaves
    the entries as they were."""
    g = np.random.default_rng(n)
    for d in range(1, 21):
        for special, share in ((SPECIAL, 0.3), (ZERO_HEAVY, 0.9)):
            for _ in range(2 if n == 400 else 10):
                entries = [(i, v, 0) for i, v in enumerate(_awkward_values(g, (d, n), special, share))]
                before = [v.copy() for _, v, _ in entries]
                with np.errstate(over="ignore", invalid="ignore"):
                    out, ref = agents.aggregate(entries), mean_estimate(entries)
                assert out.tobytes() == ref.tobytes()
                assert all(v.tobytes() == w.tobytes() for (_, v, _), w in zip(entries, before))
                assert not any(np.shares_memory(out, v) for _, v, _ in entries)


# ---------------------------------------------------------------- next_blocks

def drawn_blocks(state, cfg, count):
    """The first count blocks next_blocks draws, calls made as the step
    makes them: k and chunk advanced as the blocks are used."""
    blocks = []
    while len(blocks) < count:
        for state.chunk, state.block in agents.next_blocks(state, cfg):
            blocks.append(state.block)
            state.k += 1
    return blocks[:count]


def test_single_chunk_uses_all_rows():
    g = np.random.default_rng(0)
    cfg = make_cfg(g.normal(size=(4, 3)), g.normal(size=4), block=4)
    state = fresh(cfg)
    for _ in range(3):
        ((chunk, J),) = agents.next_blocks(state, cfg)
        assert chunk == 0 and np.array_equal(J, np.arange(4))
        state.chunk = chunk


def test_cyclic_two_chunks_cover_in_any_two_consecutive_steps():
    g = np.random.default_rng(1)
    cfg = make_cfg(g.normal(size=(100, 5)), g.normal(size=100), block=50)
    blocks = drawn_blocks(fresh(cfg), cfg, 20)
    for a, b in zip(blocks, blocks[1:]):
        assert np.array_equal(np.sort(np.concatenate([a, b])), np.arange(100))


def test_cyclic_pass_covers_all_rows():
    g = np.random.default_rng(2)
    cfg = make_cfg(g.normal(size=(17, 4)), g.normal(size=17), block=5)
    n_chunks = len(agents.make_chunks(17, 5))
    drawn = agents.next_blocks(fresh(cfg), cfg)
    assert len(drawn) == n_chunks
    assert all(np.array_equal(J, cfg.chunks[chunk]) for chunk, J in drawn)
    seen = np.concatenate([J for _, J in drawn])
    assert np.array_equal(np.sort(seen), np.arange(17))
    assert all(len(c) <= 5 for c in agents.make_chunks(17, 5))


def test_iid_row_frequencies():
    g = np.random.default_rng(3)
    cfg = make_cfg(g.normal(size=(20, 4)), g.normal(size=20), block=5, sampling=agents.IID)
    counts = np.zeros(20)
    draws = 10_000
    for J in drawn_blocks(fresh(cfg, seed=11), cfg, draws):
        assert len(np.unique(J)) == 5
        counts[J] += 1
    expected = draws * 5 / 20
    assert np.all(np.abs(counts - expected) <= 0.05 * expected)


@st.composite
def block_draws(draw):
    """(pool, |J|, count, seed): pools on both sides of 10 000 and |J| on
    both sides of pool // 50, where numpy's choice shuffles a tail of
    range(pool) instead of running Floyd's algorithm; |J| = 1 and
    |J| = pool among them."""
    pool = draw(st.one_of(st.integers(1, 60), st.integers(9_900, 10_100), st.integers(10_001, 30_000)))
    size = draw(st.one_of(st.just(1), st.just(pool), st.integers(1, max(1, pool // 50)),
                          st.integers(1, pool)))
    return pool, size, draw(st.integers(1, agents.BATCH)), draw(st.integers(0, 2**63 - 1))


@settings(max_examples=120, deadline=None)
@given(block_draws())
@example((10_000, 201, 5, 1))   # Floyd: pool not above 10 000
@example((10_001, 200, 5, 2))   # Floyd: |J| not above pool // 50
@example((10_001, 201, 5, 3))   # tail shuffle
@example((40, 40, agents.BATCH, 4))
def test_draw_blocks_is_sorted_generator_choice(case):
    """A batch of count blocks is count calls of Generator.choice(pool, |J|,
    replace=False), each sorted, block for block, and leaves the stream where
    they leave it."""
    pool, size, count, seed = case
    g, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    blocks = agents.draw_blocks(g, pool, size, count)
    expected = [np.sort(ref.choice(pool, size=size, replace=False)) for _ in range(count)]
    assert blocks.shape == (count, size) and blocks.dtype == expected[0].dtype
    assert all(np.array_equal(J, K) for J, K in zip(blocks, expected))
    assert g.bit_generator.state == ref.bit_generator.state


# ------------------------------------------------------------- AgentConfig

@pytest.mark.parametrize("change, error", [
    ({"block_size": 0}, InvalidParameter),
    ({"block_size": 4}, InvalidParameter),
    ({"t_min": 0.0}, InvalidParameter),
    ({"t_min": 2.0, "t_max": 1.0}, InvalidParameter),
    ({"t_max": np.inf}, InvalidParameter),
    ({"lam": 0.0}, InvalidParameter),
    ({"lam": -1.0}, InvalidParameter),
    ({"lam": np.nan}, InvalidParameter),
    ({"lam": 1e-170}, InvalidParameter),
    ({"lam": 1e200}, InvalidParameter),
    ({"sampling": "sweep"}, InvalidParameter),
    ({"b": np.ones(2)}, DimensionError),
    ({"rows": np.arange(4)}, DimensionError),
    ({"A": problems.CsrRows.from_dense(np.diag([1.0, np.nan, 1.0]))}, InvalidParameter),
    ({"b": np.array([1.0, 1.0, np.inf])}, InvalidParameter),
], ids=["block-zero", "block-over-rows", "t-min-zero", "t-min-over-t-max", "t-max-inf",
        "lam-zero", "lam-negative", "lam-nan", "lam-square-underflows", "lam-square-overflows",
        "sampling", "b-length", "rows-length", "A-nan",
        "b-inf"])
def test_agent_config_validation(change, error):
    fields = dict(agent_id=0, A=problems.CsrRows.from_dense(np.eye(3)), b=np.ones(3),
                  rows=np.arange(3), block_size=3)
    with pytest.raises(error):
        AgentConfig(**{**fields, **change})


def test_initial_state_rejects_non_finite_init():
    cfg = make_cfg(np.eye(3), np.ones(3))
    with pytest.raises(CorruptMessage):
        fresh(cfg, init=[0.0, np.nan, 0.0])
    with pytest.raises(CorruptMessage):
        fresh(cfg, init=[0.0, 0.0])


# ------------------------------------------------------- step, consistent mode

def test_consistent_fixed_point_at_solution():
    g = np.random.default_rng(4)
    for shape, block in (((4, 6), 2), ((2, 4), 2)):   # the second agent has one chunk
        A = g.normal(size=shape)
        x_sol = g.normal(size=shape[1])
        b = A @ x_sol
        cfg = make_cfg(A, b, block=block)
        state = fresh(cfg, init=x_sol)
        out = agents.step(state, cfg, snap(x_sol, x_sol))
        assert np.allclose(out.x, x_sol, atol=1e-10)
        assert out.k == 1


def test_consistent_single_agent_square_system_one_step():
    g = np.random.default_rng(5)
    A = g.normal(size=(3, 3))
    b = g.normal(size=3)
    cfg = make_cfg(A, b)
    state = fresh(cfg)
    out = agents.step(state, cfg, snap(state.x))
    assert np.allclose(out.x, np.linalg.solve(A, b), atol=1e-9)
    # one-chunk agents: an identity block lands on b, a wide consistent block is solved
    identity = make_cfg(np.eye(2), [2.0, -1.0])
    out = agents.step(fresh(identity), identity, snap([9.0, 9.0]))
    assert np.allclose(out.x, [2.0, -1.0], atol=1e-12)
    A = g.normal(size=(2, 4))
    b = A @ g.normal(size=4)
    wide = make_cfg(A, b)
    out = agents.step(fresh(wide), wide, snap(g.normal(size=4)))
    assert np.linalg.norm(A @ out.x - b) <= 1e-9 * max(np.linalg.norm(b), 1.0)


def test_two_agents_alternating_converge_to_min_norm():
    g = np.random.default_rng(6)
    A = g.normal(size=(4, 2))
    b = A @ g.normal(size=2)
    x_star = linalg.min_norm_solve(A, b)
    cfgs = [
        AgentConfig(0, problems.CsrRows.from_dense(A[:2]), b[:2], np.arange(0, 2), 2),
        AgentConfig(1, problems.CsrRows.from_dense(A[2:]), b[2:], np.arange(2, 4), 2),
    ]
    states = [fresh(cfgs[0], 0), fresh(cfgs[1], 1)]
    for step in range(500):
        i = step % 2
        s = [(0, states[0].x.copy(), 0), (1, states[1].x.copy(), 0)]
        states[i] = agents.step(states[i], cfgs[i], s)
        if all(np.linalg.norm(st.x - x_star) <= 1e-6 for st in states):
            break
    assert all(np.linalg.norm(st.x - x_star) <= 1e-6 for st in states)


def test_consistent_step_preserves_off_block_error_component():
    g = np.random.default_rng(7)
    A = g.normal(size=(6, 5))
    b = A @ g.normal(size=5)
    cfg = make_cfg(A, b, block=2)
    state = fresh(cfg, init=g.normal(size=5))
    neighbor = g.normal(size=5)
    s = snap(state.x, neighbor)
    w = agents.aggregate(s)
    out = agents.step(state, cfg, s)
    A_J = A[out.block]
    # the update only moves within Row(A_J); the orthogonal part stays w's
    assert np.allclose(
        project_null(A_J, out.x), project_null(A_J, w), atol=1e-9
    )
    # the same on one-chunk agents with arbitrary right-hand sides
    for _ in range(20):
        A = g.normal(size=(3, 6))
        cfg = make_cfg(A, g.normal(size=3))
        w = g.normal(size=6)
        delta = agents.step(fresh(cfg), cfg, snap(w)).x - w
        assert np.linalg.norm(project_null(A, delta)) <= 1e-9 * max(np.linalg.norm(delta), 1.0)


def test_consistent_step_nonexpansive_toward_solutions():
    g = np.random.default_rng(8)
    A = g.normal(size=(5, 4))
    sol = g.normal(size=4)
    b = A @ sol
    cfg = make_cfg(A, b, block=2)
    for trial in range(20):
        state = fresh(cfg, seed=trial, init=g.normal(size=4))
        others = [g.normal(size=4) for _ in range(2)]
        s = snap(state.x, *others)
        out = agents.step(state, cfg, s)
        worst = max(np.linalg.norm(v - sol) for _, v, _ in s)
        assert np.linalg.norm(out.x - sol) <= worst + 1e-12


def direct_update(cfg, J, w, y=None):
    """The step's update with block J planned and factored on its own, as
    an iid block, for comparison with a chunk's entry in cfg.blocks."""
    ((_, cols, plan, b_J, factor),) = agents.block_entries(cfg, [J], [J])
    A_J = agents.densify(cfg.A, plan)
    x = w.copy()
    if cfg.lam is None:
        x[cols] += A_J.T @ (factor @ (factor.T @ (b_J - A_J @ w[cols])))
        return x, None
    alpha = factor @ (b_J - A_J @ w[cols] - cfg.lam * y[J])
    x[cols] += A_J.T @ alpha
    return x, y[J] + cfg.lam * alpha


def test_consistent_cache_matches_direct():
    g = np.random.default_rng(9)
    A = g.normal(size=(8, 5))
    b = g.normal(size=8)
    cfg = make_cfg(A, b, block=3)
    state = fresh(cfg, 2)
    for _ in range(6):
        w = state.x
        state = agents.step(state, cfg, snap(w))
        assert np.array_equal(state.x, direct_update(cfg, state.block, w)[0])
    assert len(cfg.blocks) == len(cfg.chunks) == 3


# ------------------------------------------------------ step, regularized mode

def test_augmented_hand_case():
    cfg = make_cfg([[1.0, 0.0]], [2.0], lam=1.0)
    state = fresh(cfg)
    out = agents.step(state, cfg, snap(np.zeros(2)))
    assert np.allclose(out.x, [1.0, 0.0], atol=1e-12)
    assert np.allclose(out.y, [1.0], atol=1e-12)
    # the widened row is now satisfied: 1*1 + 1*1 = 2
    assert out.x[0] + 1.0 * out.y[0] == pytest.approx(2.0)


def test_augmented_fixed_point():
    g = np.random.default_rng(10)
    A = g.normal(size=(3, 4))
    lam = 0.7
    x_tilde = g.normal(size=4)
    y_tilde = g.normal(size=3)
    b = A @ x_tilde + lam * y_tilde
    cfg = make_cfg(A, b, block=2, lam=lam)
    state = fresh(cfg, init=x_tilde)
    state.y[:] = y_tilde
    out = agents.step(state, cfg, snap(x_tilde, x_tilde.copy()))
    assert np.allclose(out.x, x_tilde, atol=1e-10)
    assert np.allclose(out.y, y_tilde, atol=1e-10)


def test_augmented_large_lambda_barely_moves():
    g = np.random.default_rng(11)
    A = g.normal(size=(2, 5))
    b = g.normal(size=2)
    lam = 1e3
    cfg = make_cfg(A, b, lam=lam)
    state = fresh(cfg)
    out = agents.step(state, cfg, snap(np.zeros(5)))
    alpha = (out.y - 0.0) / lam
    r = b  # w = 0 and y = 0
    sigma_max = np.linalg.norm(A, 2)
    assert abs(np.linalg.norm(alpha) * lam**2 / np.linalg.norm(r) - 1.0) <= (sigma_max / lam) ** 2 * 2
    assert np.linalg.norm(out.x) <= 2 * sigma_max * np.linalg.norm(r) / lam**2


def test_augmented_small_lambda_matches_consistent():
    g = np.random.default_rng(12)
    A = g.normal(size=(3, 6))
    b = A @ g.normal(size=6)  # consistent data
    w = g.normal(size=6)
    cons = make_cfg(A, b)
    aug = make_cfg(A, b, lam=1e-5)
    out_c = agents.step(fresh(cons, 3), cons, snap(w))
    out_a = agents.step(fresh(aug, 3), aug, snap(w))
    assert np.linalg.norm(out_c.x - out_a.x) <= 1e-8


def test_augmented_y_outside_block_bit_identical():
    g = np.random.default_rng(13)
    A = g.normal(size=(9, 4))
    b = g.normal(size=9)
    cfg = make_cfg(A, b, block=3, lam=1.0)
    state = fresh(cfg)
    state.y[:] = g.normal(size=9)
    before = state.y.copy()
    out = agents.step(state, cfg, snap(state.x, g.normal(size=4)))
    outside = np.setdiff1d(np.arange(9), out.block)
    assert np.array_equal(out.y[outside], before[outside])
    assert not np.array_equal(out.y[out.block], before[out.block])


def test_augmented_cache_matches_direct():
    g = np.random.default_rng(14)
    A = g.normal(size=(6, 4))
    b = g.normal(size=6)
    cfg = make_cfg(A, b, block=2, lam=0.5)
    state = fresh(cfg, 5)
    for _ in range(4):
        w, y = state.x, state.y.copy()
        state = agents.step(state, cfg, snap(w))
        x_direct, y_J = direct_update(cfg, state.block, w, y)
        assert np.array_equal(state.x, x_direct)
        assert np.array_equal(state.y[state.block], y_J)


# ----------------------------------------------------- reference equivalence

def reference_step(state, cfg, entries, order):
    """The step as first written: np.mean, make_chunks on every step, the
    chunks left in this pass kept in order (a list the caller owns), a
    fancy-indexed block factored afresh, the regularized alpha from
    np.linalg.solve on the Gram matrix, and a new state from replace with a
    copied y."""
    w = np.mean([vec for _, vec, _ in entries], axis=0)
    m = cfg.local_rows
    if cfg.sampling == agents.IID:
        state.block = np.sort(state.rng.choice(m, size=min(cfg.block_size, m), replace=False))
        state.chunk = None
    else:
        chunks = agents.make_chunks(m, cfg.block_size)
        if not order:
            order[:] = state.rng.permutation(len(chunks))
            while len(chunks) > 1 and state.chunk is not None and order[0] == state.chunk:
                order[:] = state.rng.permutation(len(chunks))
        state.chunk = order.pop(0)
        state.block = chunks[state.chunk]
    J = state.block
    A_J = cfg.A.toarray()[J]
    if cfg.lam is None:
        return replace(state, x=w + pinv(A_J) @ (cfg.b[J] - A_J @ w), k=state.k + 1)
    r = cfg.b[J] - A_J @ w - cfg.lam * state.y[J]
    alpha = np.linalg.solve(A_J @ A_J.T + cfg.lam**2 * np.eye(len(J)), r)
    y = state.y.copy()
    y[J] = y[J] + cfg.lam * alpha
    return replace(state, x=w + A_J.T @ alpha, y=y, k=state.k + 1)


def test_step_matches_reference_update():
    seen = set()
    for seed in range(64):
        g = np.random.default_rng(100 + seed)
        m = int(g.integers(1, 13))
        n = 1 if seed % 4 == 0 else int(g.integers(2, 9))
        lam = None if seed % 2 == 0 else float(g.uniform(0.05, 3.0))
        sampling = agents.IID if seed % 3 == 0 else agents.CYCLE
        cfg = make_cfg(g.normal(size=(m, n)), g.normal(size=m), block=int(g.integers(1, m + 1)),
                       lam=lam, sampling=sampling)
        init = g.normal(size=n)
        state, ref, order = fresh(cfg, seed, init), fresh(cfg, seed, init), []
        for _ in range(3 * len(cfg.chunks)):   # three passes in cyclic mode
            d = int(g.integers(1, 9))
            others = [(sender, g.normal(size=n), 0) for sender in range(1, d)]
            out = agents.step(state, cfg, [(0, state.x.copy(), 0)] + others)
            ref = reference_step(ref, cfg, [(0, ref.x.copy(), 0)] + others, order)
            assert out is state
            # A_J^T F r against pinv(A_J) r or an independent solve; restart the
            # reference from the step's state so that rounding differences do
            # not add up
            assert np.allclose(state.x, ref.x, rtol=1e-9, atol=1e-12)
            if lam is None:
                assert state.y is None and ref.y is None
            else:
                assert np.allclose(state.y, ref.y, rtol=1e-9, atol=1e-12)
                ref.y = state.y.copy()
            ref.x = state.x.copy()
            assert state.k == ref.k and state.chunk == ref.chunk
            assert np.array_equal(state.block, ref.block)
            seen.add((lam is None, sampling, n == 1, d))
    assert {(c, s) for c, s, _, _ in seen} == {(c, s) for c in (True, False)
                                              for s in (agents.CYCLE, agents.IID)}
    assert any(one for _, _, one, _ in seen)
    assert {d for *_, d in seen} == set(range(1, 9))


def test_chunk_factored_once(monkeypatch):
    calls = []   # the routine of each block factored, once per block of a stack
    gram_pinv_root, shifted_gram_inverse = linalg.gram_pinv_root, linalg.shifted_gram_inverse
    monkeypatch.setattr(linalg, "gram_pinv_root",
                        lambda A_J: calls.append("gram_pinv_root") or gram_pinv_root(A_J))
    monkeypatch.setattr(linalg, "shifted_gram_inverse",
                        lambda G, lam: calls.extend(["shifted_gram_inverse"] * len(G))
                        or shifted_gram_inverse(G, lam))
    g = np.random.default_rng(16)
    A = g.normal(size=(11, 4))
    b = g.normal(size=11)
    for lam, routine in ((None, "gram_pinv_root"), (0.5, "shifted_gram_inverse")):
        for sampling in (agents.CYCLE, agents.IID):
            cfg = make_cfg(A, b, block=3, lam=lam, sampling=sampling)
            steps = 3 * len(cfg.chunks)
            calls.clear()
            for run in range(2):   # a second run on the same config factors nothing new
                # an iid run to k_max = steps prepares exactly steps blocks
                state = agents.initial_state(cfg, np.random.default_rng(run), k_max=steps)
                for _ in range(steps):
                    agents.step(state, cfg, snap(state.x))
            assert calls == [routine] * (len(cfg.chunks) if sampling == agents.CYCLE else 2 * steps)
            if sampling == agents.CYCLE:
                # a chunk's entry holds a view of b, not a copy, and its plan
                # gives the chunk's rows on their columns (all of them here:
                # A is dense)
                for rows, cols, plan, b_J, _ in cfg.blocks:
                    assert np.shares_memory(b_J, cfg.b) and np.array_equal(cols, range(4))
                    assert np.array_equal(agents.densify(cfg.A, plan), A[rows])
                    assert np.array_equal(b_J, b[rows])


def test_block_factors_are_block_by_block(monkeypatch):
    built = []   # (A_J, factor) of every factor a step builds, cyclic or iid
    block_factors = agents.block_factors

    def recording(A_Js, lam):
        factors = block_factors(A_Js, lam)
        built.extend(zip(A_Js, factors))
        return factors

    monkeypatch.setattr(agents, "block_factors", recording)
    g = np.random.default_rng(17)
    A = g.normal(size=(11, 6))    # n = 6 columns, blocks of 2 or 3 rows
    A[1] = A[0]                   # the first chunk, rows 0-2, has rank 2
    b = g.normal(size=11)
    for lam in (None, 0.5):
        # |J| x rank in consistent mode, |J| x |J| in regularized mode
        def shape(A_J):
            return (len(A_J), len(A_J) if lam else np.linalg.matrix_rank(A_J))

        for sampling in (agents.CYCLE, agents.IID):
            cfg = make_cfg(A, b, block=3, lam=lam, sampling=sampling)
            built.clear()
            state = fresh(cfg)
            for _ in range(2 * len(cfg.chunks)):
                agents.step(state, cfg, snap(state.x))
            assert built and all(F.shape == shape(A_J) for A_J, F in built)
            # stacked or not, each factor is the one its block gets alone
            assert all(np.array_equal(F, block_factors([A_J], lam)[0]) for A_J, F in built)
            if sampling == agents.CYCLE:
                assert [F.shape for *_, F in cfg.blocks] == \
                    [shape(agents.densify(cfg.A, plan)) for _, _, plan, _, _ in cfg.blocks]
                assert cfg.blocks[0][4].shape == (3, 3 if lam else 2)


# ------------------------------------------------------------ batched iid blocks

def random_sparse_cfg(g, lam, whole):
    """An iid agent on a random m x n shard of density 0.05 to 1 (rows may be
    empty); its blocks are the whole shard or of a random height."""
    m, n = int(g.integers(1, 40)), int(g.integers(1, 50))
    A = g.normal(size=(m, n)) * (g.random(size=(m, n)) < g.uniform(0.05, 1.0))
    return make_cfg(A, g.normal(size=m), block=m if whole else int(g.integers(1, m + 1)),
                    lam=lam, sampling=agents.IID)


@pytest.mark.parametrize("lam", [None, 0.7], ids=["consistent", "regularized"])
def test_batched_iid_step_matches_sequential_reference(lam):
    for seed in range(40):
        g = np.random.default_rng(400 + seed)
        cfg = random_sparse_cfg(g, lam, whole=seed % 4 == 0)   # block_size == m_i
        steps = int(g.integers(1, 3 * agents.BATCH + 8))   # up to three batch boundaries
        k_max = steps if seed % 2 else None
        init = g.normal(size=cfg.dim)
        state = agents.initial_state(cfg, np.random.default_rng(seed), init, k_max=k_max)
        ref = agents.initial_state(cfg, np.random.default_rng(seed), init)
        if lam is not None:
            state.y[:] = ref.y[:] = g.normal(size=cfg.local_rows)
        for _ in range(steps):
            others = [(i, g.normal(size=cfg.dim), 0) for i in range(1, int(g.integers(1, 4)))]
            agents.step(state, cfg, [(0, state.x, state.k)] + others)
            sequential_iid_step(ref, cfg, [(0, ref.x, ref.k)] + others)
            assert np.array_equal(state.x, ref.x) and np.array_equal(state.block, ref.block)
            assert state.k == ref.k and state.chunk is None
            if lam is not None:
                assert np.array_equal(state.y, ref.y)
        # the batch drew ahead only the blocks it has not used yet, none when
        # the run's k_max was known
        assert len(state.ready) == (0 if k_max else -steps % agents.BATCH)
        for _ in state.ready:
            ref.rng.choice(cfg.local_rows, size=cfg.block_size, replace=False)
        assert state.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("lam", [None, 0.7], ids=["consistent", "regularized"])
def test_one_row_block_step_keeps_matmul_zero_signs(lam):
    """Row 0 makes a 1 x 1 A_J = [[-1]] whose step adds a zero correction
    to w = -0.0 (the mean of -5e-324 and 0.0 underflows).  @ computes that
    correction as +0.0, and so does the step; ndarray.dot would give -0.0
    and leave x[0] at -0.0."""
    cfg = make_cfg([[-1.0, 0.0], [0.0, 2.0]], [0.0, 1.0], block=1, lam=lam,
                   sampling=agents.IID)
    rows = set()
    for seed in range(8):
        state = fresh(cfg, seed, init=[-5e-324, 0.0])
        ref = fresh(cfg, seed, init=[-5e-324, 0.0])
        agents.step(state, cfg, [(0, state.x, 0), (1, np.zeros(2), 0)])
        sequential_iid_step(ref, cfg, [(0, ref.x, 0), (1, np.zeros(2), 0)])
        assert state.x.tobytes() == ref.x.tobytes()
        rows.add(int(state.block[0]))
    assert rows == {0, 1}


def test_iid_block_failure_raises_at_its_step():
    # row 7 near 1e160: a block holding it has a Gram matrix that overflows,
    # and the run must fail at the step that uses that block, not when its
    # batch is prepared
    g = np.random.default_rng(41)
    A = g.normal(size=(12, 5))
    A[7] *= 1e160
    cfg = make_cfg(A, g.normal(size=12), block=3, lam=1.0, sampling=agents.IID)

    def failing_step(step_fn):
        state = agents.initial_state(cfg, np.random.default_rng(5))
        while state.k < 200:
            try:
                step_fn(state, cfg, snap(state.x))
            except InvalidParameter as exc:
                assert "overflows" in str(exc) and 7 in state.block
                return state.k
        return None

    k_fail = failing_step(sequential_iid_step)
    assert k_fail is not None and k_fail % agents.BATCH != 0   # not the first of its batch
    assert failing_step(agents.step) == k_fail
    # a run that ends before that block finishes without error, though the
    # block was drawn and factored with its batch
    state = agents.initial_state(cfg, np.random.default_rng(5))
    for _ in range(k_fail):
        agents.step(state, cfg, snap(state.x))
    assert state.k == k_fail and np.all(np.isfinite(state.x))
    assert any(isinstance(entry[-1], InvalidParameter) for _, entry in state.ready)


def test_cyclic_chunk_failure_raises_at_its_step():
    # row 7 near 1e160: the Gram matrix of its chunk, rows 6-8, overflows.
    # The steps before that chunk's first use complete; the step that uses
    # it raises, as in iid sampling, not the agent's first step
    g = np.random.default_rng(42)
    A = g.normal(size=(12, 5))
    A[7] *= 1e160
    cfg = make_cfg(A, g.normal(size=12), block=3, lam=1.0)
    state = fresh(cfg, seed=1)
    k_fail = next(k for k, J in enumerate(drawn_blocks(fresh(cfg, seed=1), cfg, 4)) if 7 in J)
    assert k_fail > 0
    for _ in range(k_fail):
        agents.step(state, cfg, snap(state.x))
        assert 7 not in state.block
    assert state.k == k_fail and np.all(np.isfinite(state.x))
    with pytest.raises(InvalidParameter, match="overflows"):
        agents.step(state, cfg, snap(state.x))
    assert 7 in state.block and state.k == k_fail


# ---------------------------------------------------------------- sparse shards

def sparse_cfg(lam, sampling, seed=31, m=60, n=200, density=0.02, block=5):
    """A one-shard agent on a generated instance; with the defaults its
    5-row blocks lie on about 20 of the 200 columns."""
    inst = problems.generate(problems.ProblemSpec(m=m, n=n, density=density, noise=0.1,
                                                  seed=seed, agents=1))
    (shard,) = problems.partition(inst.A, inst.b, inst.agents)
    return AgentConfig(0, shard.A, shard.b, shard.rows, block, lam=lam, sampling=sampling)


def dense_step(cfg, J, w, y=None):
    """The step on the whole |J| x n block, as dense shards computed it."""
    A_J = cfg.A.toarray()[J]
    factor = agents.block_factors([A_J], cfg.lam)[0]
    r = cfg.b[J] - A_J @ w
    if cfg.lam is None:
        return w + A_J.T @ (factor @ (factor.T @ r)), None
    alpha = factor @ (r - cfg.lam * y[J])
    return w + A_J.T @ alpha, y[J] + cfg.lam * alpha


def test_block_rows_compresses_to_the_support():
    A = problems.CsrRows.from_dense(np.array([[1.0, 0, 0, 0, 2, 0, 0, 0],
                                              [0, 3.0, 0, 4, 0, 0, 0, 0],
                                              [0, 0, 0, 0, 0, 5.0, 0, 6],
                                              [0, 0, 0, 0, 0, 7.0, 0, 0]]))
    def planned(*blocks):
        return [(cols, agents.densify(A, plan))
                for cols, plan in agents.plan_blocks(A, [np.array(J) for J in blocks])]

    expected = {(0, 1): ([0, 1, 3, 4], [[1.0, 0, 0, 2], [0, 3, 4, 0]]),
                (1, 3): ([1, 3, 5], [[3.0, 4, 0], [0, 0, 7]]),
                (2, 3): ([5, 7], [[5.0, 6], [7, 0]]),
                (3,): ([5], [[7.0]]),
                (0, 1, 2, 3): ([0, 1, 3, 4, 5, 7], A.toarray()[:, [0, 1, 3, 4, 5, 7]])}
    for J, (cols, A_J) in expected.items():
        ((got_cols, got_A_J),) = planned(J)
        assert np.array_equal(got_cols, cols) and np.array_equal(got_A_J, A_J)
    # planned together, in any order and with repeats, each block gets the
    # plan it gets alone
    order = [(1, 3), (0, 1, 2, 3), (3,), (0, 1), (2, 3), (1, 3)]
    for J, (cols, A_J) in zip(order, planned(*order)):
        assert np.array_equal(cols, expected[J][0]) and np.array_equal(A_J, expected[J][1])


@pytest.mark.parametrize("lam", [None, 0.7])
@pytest.mark.parametrize("sampling", [agents.CYCLE, agents.IID])
@pytest.mark.parametrize("size", [dict(), dict(m=30, n=20, density=0.3)])
def test_compressed_step_matches_dense_step(lam, sampling, size):
    # sparse blocks on about 20 of 200 columns, dense-ish ones on 12 to 20 of 20
    cfg = sparse_cfg(lam, sampling, **size)
    g = np.random.default_rng(32)
    state = fresh(cfg, init=g.normal(size=cfg.dim))
    if lam is not None:
        state.y[:] = g.normal(size=cfg.local_rows)
    for _ in range(3 * len(cfg.chunks)):
        entries = [(0, state.x, 0), (1, g.normal(size=cfg.dim), 0)]
        w, y = agents.aggregate(entries), None if lam is None else state.y.copy()
        agents.step(state, cfg, entries)
        J = state.block
        ((cols, plan),) = agents.plan_blocks(cfg.A, [J])
        A_J = agents.densify(cfg.A, plan)
        # the products skip the zero columns and the SVD sees a narrower
        # block, so the rounding differs: most steps agree to 1e-16, and on
        # 20 seeds the worst was 15 eps kappa (consistent iid, rank-deficient)
        sigma = linalg.svd(A_J).sigma
        bound = 64 * np.finfo(float).eps * sigma[0] / sigma[-1]
        x_ref, y_J = dense_step(cfg, J, w, y)
        assert np.linalg.norm(state.x - x_ref) <= bound * np.linalg.norm(x_ref)
        if lam is not None:
            assert np.linalg.norm(state.y[J] - y_J) <= bound * np.linalg.norm(y_J)


@pytest.mark.parametrize("lam", [None, 0.7])
@pytest.mark.parametrize("sampling", [agents.CYCLE, agents.IID])
def test_full_support_step_gives_dense_bits(lam, sampling):
    # density 1: every block lies on all 20 columns
    cfg = sparse_cfg(lam, sampling, m=30, n=20, density=1.0)
    g = np.random.default_rng(33)
    state = fresh(cfg, init=g.normal(size=cfg.dim))
    for _ in range(3 * len(cfg.chunks)):
        entries = [(0, state.x, 0), (1, g.normal(size=cfg.dim), 0)]
        w, y = agents.aggregate(entries), None if lam is None else state.y.copy()
        agents.step(state, cfg, entries)
        assert len(agents.plan_blocks(cfg.A, [state.block])[0][0]) == cfg.dim
        x_ref, y_J = dense_step(cfg, state.block, w, y)
        assert np.array_equal(state.x, x_ref)
        if lam is not None:
            assert np.array_equal(state.y[state.block], y_J)


@pytest.mark.parametrize("dense", [False, True])
def test_new_x_aliases_no_entry(dense):
    for lam in (None, 0.7):
        cfg = sparse_cfg(lam, agents.IID, density=0.3 if dense else 0.02)
        g = np.random.default_rng(34)
        state = fresh(cfg)
        for d in (1, 3):
            # as the engine passes them: the agent's own x, then mailbox payloads
            entries = [(0, state.x, 0)] + [(i, g.normal(size=cfg.dim), 0) for i in range(1, d)]
            before = [vec.copy() for _, vec, _ in entries]
            agents.step(state, cfg, entries)
            for (_, vec, _), old in zip(entries, before):
                assert not np.shares_memory(state.x, vec)
                assert np.array_equal(vec, old)


def test_sparse_shards_hold_no_dense_copy():
    # 20000 x 2000 at 0.1 %: a dense shard would hold m_i * n = 10^7 doubles
    inst = problems.generate(problems.ProblemSpec(m=20000, n=2000, density=0.001, seed=35,
                                                  agents=4))
    for i, shard in enumerate(problems.partition(inst.A, inst.b, inst.agents)):
        dense_size = len(shard.rows) * inst.n
        for lam, sampling in ((None, agents.CYCLE), (0.5, agents.IID)):
            cfg = AgentConfig(i, shard.A, shard.b, shard.rows, 10, lam=lam, sampling=sampling)
            state = fresh(cfg)
            agents.step(state, cfg, [(0, state.x, 0)])
            held = [shard.b, shard.rows, cfg.b, cfg.rows, *cfg.chunks]
            held += [getattr(A, f) for A in (shard.A, cfg.A) for f in ("indptr", "indices", "data")]
            for _, cols, (entries, pos, _), b_J, factor in cfg.blocks:
                held += [a for a in (cols, entries, pos, b_J, factor) if isinstance(a, np.ndarray)]
            assert all(a.size < dense_size for a in held)
            assert sum(a.size for a in held) < dense_size / 10


@pytest.mark.parametrize("density", [0.02, 0.3])
def test_chunk_entries_hold_no_block_copy(density):
    # a chunk's entry keeps the plan of A_J, not A_J: the data stays in the
    # shard (entries is a slice), and cols and the positions pos hold at
    # most one number per entry of the chunk's rows, sparse or dense-ish
    for lam in (None, 0.7):
        cfg = sparse_cfg(lam, agents.CYCLE, density=density)
        dense = cfg.A.toarray()
        for J, (rows, cols, plan, b_J, _) in zip(cfg.chunks, cfg.blocks):
            entries, pos, shape = plan
            nnz = cfg.A.indptr[J[-1] + 1] - cfg.A.indptr[J[0]]
            assert isinstance(entries, slice) and entries.stop - entries.start == len(pos) == nnz
            assert len(cols) <= nnz
            assert np.array_equal(agents.densify(cfg.A, plan), dense[rows][:, cols])


# ------------------------------------------------------------ payload contract

def test_payload_is_x_only_and_a_copy():
    g = np.random.default_rng(15)
    A = g.normal(size=(3, 4))
    cfg = make_cfg(A, g.normal(size=3), lam=2.0)
    state = fresh(cfg)
    state.x[:] = [1.0, 2.0, 3.0, 4.0]
    payload = agents.snapshot_payload(state)
    assert payload.shape == (4,)            # never includes y
    state.x[0] = -9.0
    assert payload[0] == 1.0                # later mutation does not leak


def test_consistent_payload_matches_state():
    cfg = make_cfg(np.eye(3), np.ones(3))
    state = fresh(cfg)
    state.x[:] = [5.0, 6.0, 7.0]
    assert np.array_equal(agents.snapshot_payload(state), state.x)
