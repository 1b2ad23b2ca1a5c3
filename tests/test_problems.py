import json
import math

import numpy as np
import pytest

from kaczsim import cli, linalg, problems, rng
from kaczsim.errors import DegenerateInstance, InvalidParameter, IoError, TooManyAgents
from kaczsim.linalg import min_norm_solve
from oracles import coo_dense, sample_positions


def small_spec(**kw):
    base = dict(m=40, n=12, density=0.2, noise=0.0, seed=7, agents=3)
    base.update(kw)
    return problems.ProblemSpec(**base)


def test_noiseless_instance_is_consistent():
    inst = problems.generate(small_spec())
    resid = np.linalg.norm(inst.A @ inst.x_star - inst.b)
    assert resid <= 1e-8 * max(np.linalg.norm(inst.b), 1.0)


def test_same_seed_bit_identical():
    a = problems.generate(small_spec())
    b = problems.generate(small_spec())
    assert np.array_equal(a.A.toarray(), b.A.toarray())
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.x_planted, b.x_planted)


def test_different_seed_differs():
    a = problems.generate(small_spec())
    b = problems.generate(small_spec(seed=8))
    assert not np.array_equal(a.A.toarray(), b.A.toarray())


def test_noisy_instance_is_inconsistent():
    inst = problems.generate(problems.ProblemSpec(m=200, n=50, density=0.1, noise=1.0, seed=3, agents=4))
    assert np.linalg.norm(inst.A @ inst.x_star - inst.b) > 1e-3


def test_exact_nonzero_count():
    spec = small_spec(density=0.13)
    inst = problems.generate(spec)
    import math
    assert inst.A.nnz == math.ceil(0.13 * spec.m * spec.n)


@pytest.mark.parametrize("m, n, density, seed", [
    (6, 4, 1.0, 0), (6, 4, 1.0, 5), (50, 40, 0.9, 1), (50, 40, 0.9, 2),   # collision-heavy
    (400, 200, 0.02, 12), (400, 200, 0.02, 13)])                          # the golden shape
def test_sample_positions_match_one_draw_at_a_time(m, n, density, seed):
    nnz = math.ceil(density * m * n)
    g, ref = rng.stream(seed, rng.MATRIX), rng.stream(seed, rng.MATRIX)
    got = problems._sample_positions(g, m, n, nnz)
    assert got.dtype == np.int64 and got.tobytes() == sample_positions(ref, m, n, nnz).tobytes()
    assert len(np.unique(got)) == nnz
    # the same draws were made: the stream stands at the same place
    assert g.bit_generator.state == ref.bit_generator.state


def test_degenerate_density_rejected():
    with pytest.raises(DegenerateInstance):
        problems.generate(problems.ProblemSpec(m=3, n=3, density=1e-9, seed=0, agents=1))


def test_oracle_matches_min_norm_solve():
    inst = problems.generate(small_spec(noise=0.5))
    assert np.linalg.norm(inst.x_star - min_norm_solve(inst.dense(), inst.b)) <= 1e-10


# ------------------------------------------------------------------ partition

def test_partition_sizes_10_3():
    assert problems.partition_sizes(10, 3) == [4, 3, 3]


def test_partition_single_agent_is_whole_system():
    inst = problems.generate(small_spec(agents=1))
    (shard,) = problems.partition(inst.A, inst.b, inst.agents)
    assert np.array_equal(shard.A.toarray(), inst.dense())
    assert np.array_equal(shard.b, inst.b)


def test_partition_sizes_large_configuration():
    sizes = problems.partition_sizes(30000, 13)
    assert sum(sizes) == 30000
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) == 2308  # about 2308 rows per shard


def test_partition_rejects_too_many_agents():
    with pytest.raises(TooManyAgents):
        problems.partition_sizes(3, 4)
    with pytest.raises(TooManyAgents):
        problems.ProblemSpec(m=3, n=2, density=0.5, agents=4)


def test_spec_m_n_within_int64():
    """Flat positions m*n are int64: a spec up to 2**63 - 1 is accepted, one
    past it raises; building a spec allocates nothing."""
    n = (2**63 - 1) // 7    # 7 * n == 2**63 - 1
    assert 7 * n == np.iinfo(np.int64).max
    problems.ProblemSpec(m=7, n=n, density=1e-9)
    with pytest.raises(InvalidParameter, match="2\\*\\*63 - 1"):
        problems.ProblemSpec(m=7, n=n + 1, density=1e-9)


def test_shards_reassemble_exactly():
    inst = problems.generate(small_spec(noise=0.3, agents=5))
    shards = problems.partition(inst.A, inst.b, inst.agents)
    A = np.vstack([s.A.toarray() for s in shards])
    b = np.concatenate([s.b for s in shards])
    rows = np.concatenate([s.rows for s in shards])
    assert np.array_equal(rows, np.arange(inst.m))
    assert np.array_equal(A, inst.dense())
    assert np.array_equal(b, inst.b)


# ---------------------------------------------------------------- save / load

def test_save_load_round_trip_bit_exact(tmp_path):
    inst = problems.generate(small_spec(noise=0.25, agents=4))
    problems.save(inst, tmp_path / "inst")
    back = problems.load(tmp_path / "inst")
    assert np.array_equal(back.A.toarray(), inst.A.toarray())
    assert np.array_equal(back.b, inst.b)
    assert np.array_equal(back.x_planted, inst.x_planted)
    assert np.array_equal(back.x_star, inst.x_star)
    assert back.agents == inst.agents
    for s0, s1 in zip(problems.partition(inst.A, inst.b, inst.agents),
                      problems.partition(back.A, back.b, back.agents)):
        assert np.array_equal(s0.A.toarray(), s1.A.toarray())
        assert np.array_equal(s0.b, s1.b)
        assert np.array_equal(s0.rows, s1.rows)
    assert back.spec == inst.spec


def test_load_empty_dir_raises(tmp_path):
    with pytest.raises(IoError):
        problems.load(tmp_path)


def test_load_corrupt_vector_raises(tmp_path):
    inst = problems.generate(small_spec())
    problems.save(inst, tmp_path / "inst")
    (tmp_path / "inst" / "b.txt").write_text("not-a-number\n")
    with pytest.raises(IoError):
        problems.load(tmp_path / "inst")


def test_save_writes_exactly_five_files(tmp_path):
    problems.save(problems.generate(small_spec(agents=3)), tmp_path / "inst")
    names = sorted(p.name for p in (tmp_path / "inst").iterdir())
    assert names == ["A.mtx", "b.txt", "manifest.json", "x_planted.txt", "x_star.txt"]
    manifest = json.loads((tmp_path / "inst" / "manifest.json").read_text())
    assert sorted(manifest) == ["agents", "files", "spec"] and manifest["agents"] == 3


def test_matrix_market_header(tmp_path):
    inst = problems.generate(small_spec())
    problems.save(inst, tmp_path / "inst")
    first = (tmp_path / "inst" / "A.mtx").read_text().splitlines()[0]
    assert first.startswith("%%MatrixMarket matrix coordinate real general")


def test_vector_files_have_17_significant_digits(tmp_path):
    inst = problems.generate(small_spec())
    problems.save(inst, tmp_path / "inst")
    line = (tmp_path / "inst" / "b.txt").read_text().splitlines()[0]
    assert float(line) == inst.b[0]


# -------------------------------------------- corrupt and truncated instances

def _entries(lines):
    """Index of the size line; the entry lines follow it."""
    return next(i for i, line in enumerate(lines) if not line.startswith("%"))


def _set_entry(lines, k, field, value):
    at = _entries(lines) + 1 + k
    tokens = lines[at].split()
    tokens[field] = value
    lines[at] = " ".join(tokens)


def _set_size(lines, field, delta):
    at = _entries(lines)
    tokens = lines[at].split()
    tokens[field] = str(int(tokens[field]) + delta)
    lines[at] = " ".join(tokens)


def _drop_nnz(lines):
    at = _entries(lines)
    lines[at] = " ".join(lines[at].split()[:2])


CORRUPT_MATRIX = {
    "truncated-entries": lambda lines: lines[:-3],
    "truncated-mid-line": lambda lines: lines[:-1] + [" ".join(lines[-1].split()[:2])],
    "nnz-above-entries": lambda lines: _set_size(lines, 2, +1),
    "nnz-below-entries": lambda lines: _set_size(lines, 2, -1),
    "non-numeric-value": lambda lines: _set_entry(lines, 2, 2, "abc"),
    "non-numeric-index": lambda lines: _set_entry(lines, 2, 0, "x1"),
    "fractional-index": lambda lines: _set_entry(lines, 2, 1, "1.5"),
    "row-zero": lambda lines: _set_entry(lines, 0, 0, "0"),
    "col-zero": lambda lines: _set_entry(lines, 0, 1, "0"),
    "row-past-m": lambda lines: _set_entry(lines, 1, 0, "41"),
    "col-past-n": lambda lines: _set_entry(lines, 1, 1, "13"),
    "unsupported-header": lambda lines: ["%%MatrixMarket matrix array real general"] + lines[1:],
    "symmetric-header": lambda lines: ["%%MatrixMarket matrix coordinate real symmetric"] + lines[1:],
    "not-matrix-market": lambda lines: ["hello"] + lines[1:],
    "missing-size-line": lambda lines: lines[:_entries(lines)],
    "short-size-line": _drop_nnz,
    "size-line-m-huge": lambda lines: _set_size(lines, 0, 10**11 - 40),   # m = 10**11
    "empty-file": lambda lines: [],
}


def corrupt_instance(tmp_path, case):
    """A saved 40 x 12 instance whose A.mtx is broken as CORRUPT_MATRIX[case] says."""
    path = tmp_path / "inst"
    problems.save(problems.generate(small_spec()), path)
    lines = (path / "A.mtx").read_text().splitlines()
    changed = CORRUPT_MATRIX[case](lines)
    lines = lines if changed is None else changed
    (path / "A.mtx").write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize("case", sorted(CORRUPT_MATRIX))
def test_load_corrupt_matrix_raises(tmp_path, case):
    with pytest.raises(IoError):
        problems.load(corrupt_instance(tmp_path, case))


@pytest.mark.parametrize("case", sorted(CORRUPT_MATRIX))
def test_cli_run_corrupt_matrix_exit_1(tmp_path, capsys, case):
    path = corrupt_instance(tmp_path, case)
    assert cli.main(["run", "--instance", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["b.txt", "x_star.txt"])
def test_load_truncated_vector_raises(tmp_path, name):
    path = tmp_path / "inst"
    problems.save(problems.generate(small_spec()), path)
    lines = (path / name).read_text().splitlines()
    (path / name).write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(IoError, match="vector lengths"):
        problems.load(path)


def test_load_keeps_comments_and_stored_entry_order(tmp_path):
    inst = problems.generate(small_spec(agents=2))
    problems.save(inst, tmp_path / "inst")
    path = tmp_path / "inst" / "A.mtx"
    lines = path.read_text().splitlines()
    at = _entries(lines)
    # a comment line and the entries in reverse order: same matrix, same shards
    lines = lines[:at] + ["% another comment", lines[at]] + lines[:at:-1]
    path.write_text("\n".join(lines) + "\n")
    back = problems.load(tmp_path / "inst")
    assert np.array_equal(back.dense(), inst.dense())
    for s0, s1 in zip(problems.partition(inst.A, inst.b, inst.agents),
                      problems.partition(back.A, back.b, back.agents)):
        assert np.array_equal(s0.A.toarray(), s1.A.toarray())
        assert all(np.array_equal(getattr(s0.A, f), getattr(s1.A, f))
                   for f in ("indptr", "indices", "data"))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("reverse", [False, True], ids=["stored", "reversed"])
def test_load_adds_duplicate_entries_once_for_every_reader(tmp_path, monkeypatch, reverse):
    problems.save(problems.generate(small_spec(agents=2)), tmp_path / "inst")
    path = tmp_path / "inst" / "A.mtx"
    lines = path.read_text().splitlines()
    at = _entries(lines)
    i, j, _ = lines[at + 1].split()
    # three entries at one slot: 1 + 1e16 rounds, so their sum depends on their order
    entries = [f"{i} {j} {v}" for v in ("1", "1e16", "-1e16")] + lines[at + 2:]
    if reverse:
        entries = entries[::-1]
    _set_size(lines, 2, +2)
    path.write_text("\n".join(lines[:at + 1] + entries) + "\n")
    row, col, data = (np.array(v) for v in zip(*[(int(a) - 1, int(b) - 1, float(c))
                                                 for a, b, c in map(str.split, entries)]))
    back = problems.load(tmp_path / "inst")
    want = coo_dense(back.A.shape, row, col, data)
    assert want[int(i) - 1, int(j) - 1] == (1.0 if reverse else 0.0)
    assert same_bits(back.dense(), want)
    shards = problems.partition(back.A, back.b, back.agents)
    assert same_bits(np.vstack([s.A.toarray() for s in shards]), want)
    received = []

    def recording(A, b, damp):
        received.append(A.toarray())
        return lsqr(A, b, damp)

    lsqr = linalg._lsqr
    monkeypatch.setattr(linalg, "_lsqr", recording)
    monkeypatch.setattr(linalg, "SVD_MAX_ENTRIES", 0)
    linalg.min_norm_solve(back.A, back.b)
    assert len(received) == 1 and same_bits(received[0], want)


def test_shards_are_views_of_the_instance_matrix(tmp_path):
    inst = problems.generate(small_spec(agents=5))
    problems.save(inst, tmp_path / "inst")
    back = problems.load(tmp_path / "inst")
    for source, agents in [(inst, inst.agents), (back, back.agents), (inst, 3)]:
        shards = problems.partition(source.A, source.b, agents)
        for s in shards:
            assert np.shares_memory(s.A.data, source.A.data)
            assert np.shares_memory(s.A.indices, source.A.indices)
            assert np.shares_memory(s.b, source.b)
        assert sum(s.A.nnz for s in shards) == source.A.nnz
    # partition copies no entry: a change to the instance's entries shows in every shard
    shards = problems.partition(inst.A, inst.b, inst.agents)
    inst.A.data[:] *= 2.0
    inst.b[:] *= 2.0
    for s in shards:
        assert np.array_equal(s.A.toarray(), inst.dense()[s.rows])
        assert np.array_equal(s.b, inst.b[s.rows])


def test_from_coo_rows_match_dense_reference_bit_for_bit():
    g = np.random.default_rng(21)
    for case in range(60):
        m, n = int(g.integers(1, 12)), int(g.integers(1, 12))
        nnz = int(g.integers(0, 3 * m * n))     # duplicate positions are likely
        row, col = g.integers(0, m, nnz), g.integers(0, n, nnz)
        data = g.normal(size=nnz) * 10.0 ** g.integers(-8, 8, size=nnz)
        data[g.random(nnz) < 0.1] = -0.0
        data[g.random(nnz) < 0.1] = 0.0        # explicit zeros
        start = int(g.integers(0, m))
        stop = int(g.integers(start + 1, m + 1))
        for order in (slice(None), slice(None, None, -1)):   # stored and reversed order
            entries = (row[order], col[order], data[order])
            csr = problems.CsrRows.from_coo((m, n), *entries).rows(start, stop)
            assert same_bits(csr.toarray(), coo_dense((m, n), *entries)[start:stop])
            assert csr.shape == (stop - start, n) and csr.indptr[0] == 0
            assert csr.indptr[-1] == len(csr.indices) == len(csr.data)
            for i in range(stop - start):   # columns sorted and distinct within a row
                assert np.all(np.diff(csr.indices[csr.indptr[i]:csr.indptr[i + 1]]) > 0)


def test_from_coo_adds_duplicates_in_stored_order():
    # 1 + 1e16 rounds, so the sum of these three entries depends on their order
    row, col, data = np.zeros(3, np.int64), np.zeros(3, np.int64), np.array([1.0, 1e16, -1e16])
    sums = []
    for order in (slice(None), slice(None, None, -1)):
        A = problems.CsrRows.from_coo((1, 1), row, col, data[order])
        sums.append(A.data[0])
        assert same_bits(A.rows(0, 1).toarray(), coo_dense((1, 1), row, col, data[order]))
    assert sums[0] != sums[1]
    # -0.0 entries densify to +0.0, in both forms
    row, col, data = np.zeros(2, np.int64), np.array([1, 1]), np.array([-0.0, -0.0])
    assert same_bits(problems.CsrRows.from_coo((1, 2), row, col, data).rows(0, 1).toarray(),
                     np.zeros((1, 2)))
    assert same_bits(coo_dense((1, 2), row, col, data), np.zeros((1, 2)))


def test_csr_from_dense_round_trip():
    A = np.array([[0.0, -0.0, 1.5], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
    csr = problems.CsrRows.from_dense(A)
    assert same_bits(csr.toarray(), A)
    assert list(csr.indptr) == [0, 2, 3, 3] and list(csr.indices) == [1, 2, 0]


def test_matvec_matches_scipy_bit_for_bit():
    g = np.random.default_rng(3)
    for case in range(80):
        m, n = int(g.integers(1, 60)), int(g.integers(1, 60))
        inst = problems.generate(problems.ProblemSpec(m=m, n=n, density=float(g.uniform(0.05, 1.0)),
                                                      seed=case, agents=1))
        x = g.normal(size=n) * 10.0 ** g.integers(-8, 8, size=n)
        assert same_bits(inst.A @ x, inst.A.tocsr() @ x)
        assert same_bits(inst.dense(), inst.A.tocsr().toarray())


def test_transpose_product_matches_scipy_bit_for_bit():
    g = np.random.default_rng(4)
    for case in range(80):
        m, n = int(g.integers(1, 60)), int(g.integers(1, 60))
        A = g.normal(size=(m, n)) * (g.random((m, n)) < g.uniform(0.05, 1.0))
        A[(A == 0) & (g.random((m, n)) < 0.1)] = -0.0     # stored -0.0 entries
        A = problems.CsrRows.from_dense(A)
        u = g.normal(size=m) * 10.0 ** g.integers(-8, 8, size=m)
        assert same_bits(u @ A, A.tocsr().T @ u)
        x = g.normal(size=n)
        matvec, rmatvec = A.products()
        assert same_bits(matvec(x), A @ x) and same_bits(rmatvec(u), u @ A)
