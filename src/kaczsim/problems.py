"""Generation, persistence, and row partitioning of linear-system instances.

Instances are sparse systems A x = b with a planted solution and an exact
nonzero count: duplicate positions drawn during sampling are re-drawn until
ceil(density * m * n) distinct slots are filled, so the density is honored
exactly and the construction stays a pure function of the seed.

On disk an instance is a directory of five files: A in Matrix Market
coordinate format (A.mtx), the vectors b, x_planted and x_star as
one-value-per-line text with 17 significant digits, and a JSON manifest
with the default agent count, the file names and the generating spec.

Each datum is held once.  A is numpy arrays in compressed sparse row form
(CsrRows), from generate, load or from_arrays (which takes a CsrRows or a
dense array) through to the agents.  An instance
stores no shards, only its default agent count: partition cuts (A, b)
into contiguous row runs whose A and b are views of the instance's, so
partitioning copies no entry, and no m x n or m_i x n dense array is
built on the way to a run (inst.dense() builds one).  Generating, loading
and partitioning an instance do not import scipy, whose import takes
about 0.2 s, on either side of linalg.SVD_MAX_ENTRIES: the oracle's LSQR
runs on the numpy products of CsrRows.  scipy is imported only to write
A.mtx (save), which takes A from CsrRows.tocsr.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .errors import DegenerateInstance, InvalidParameter, IoError, TooManyAgents
from .linalg import min_norm_solve

MANIFEST_NAME = "manifest.json"

# The one Matrix Market header this package writes and reads.
_MTX_HEADER = ["%%matrixmarket", "matrix", "coordinate", "real", "general"]
# One Matrix Market entry line: 1-based row, 1-based column, value.
_MTX_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


@dataclass(frozen=True)
class ProblemSpec:
    m: int
    n: int
    density: float = 0.05
    noise: float = 0.0
    seed: int = 0
    agents: int = 1

    def __post_init__(self):
        if not (self.m >= self.agents >= 1):
            raise TooManyAgents(f"need m >= agents >= 1, got m={self.m}, agents={self.agents}")
        if self.m * self.n > np.iinfo(np.int64).max:   # flat positions are int64
            raise InvalidParameter(f"m*n must be at most 2**63 - 1, got {self.m}x{self.n}")
        if not (0.0 < self.density <= 1.0):   # False for nan
            raise InvalidParameter(f"density must lie in (0, 1], got {self.density}")
        if not (0.0 <= self.noise < math.inf):
            raise InvalidParameter(f"noise must be finite and nonnegative, got {self.noise}")


@dataclass(frozen=True, eq=False)
class CsrRows:
    """A sparse matrix in compressed sparse row form, as numpy arrays: row i
    holds data[indptr[i]:indptr[i + 1]] at columns indices[indptr[i]:
    indptr[i + 1]], sorted and distinct within the row, with indptr[0] = 0."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_coo(cls, shape, row, col, data) -> CsrRows:
        """Coordinate entries, data[e] at 0-based (row[e], col[e]); entries at
        the same position add up in stored order (so -0.0 alone gives +0.0)."""
        m, n = shape
        slots, slot = np.unique(np.asarray(row, np.int64) * n + col, return_inverse=True)
        summed = np.zeros(len(slots))
        np.add.at(summed, slot, data)
        return cls((m, n), np.searchsorted(slots, np.arange(m + 1) * n), slots % n, summed)

    @classmethod
    def from_dense(cls, A: np.ndarray) -> CsrRows:
        """The entries of a dense matrix that are not +0.0 (-0.0 and nan
        included), so that toarray() gives A back bit for bit."""
        A = np.asarray(A, dtype=float)
        row, col = np.nonzero((A != 0) | np.signbit(A))
        indptr = np.searchsorted(row, np.arange(A.shape[0] + 1))
        return cls(A.shape, indptr, col, A[row, col])

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self, start: int, stop: int) -> CsrRows:
        """Rows start:stop; indices and data are views of this matrix's."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return CsrRows((stop - start, self.shape[1]), self.indptr[start:stop + 1] - lo,
                       self.indices[lo:hi], self.data[lo:hi])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return out

    # u @ A with u an ndarray: numpy defers to __rmatmul__
    __array_ufunc__ = None

    def products(self):
        """The functions x -> A x and u -> u A (that is, A^T u), sharing one
        expansion of the row of every stored entry.  Each sums its products
        in stored order, as scipy's CSR product (A x) and CSC product of the
        transpose (A^T u) do, bit for bit."""
        m, n = self.shape
        row = np.repeat(np.arange(m), np.diff(self.indptr))

        def matvec(x: np.ndarray) -> np.ndarray:
            return np.bincount(row, weights=self.data * x[self.indices], minlength=m)

        def rmatvec(u: np.ndarray) -> np.ndarray:
            return np.bincount(self.indices, weights=self.data * u[row], minlength=n)

        return matvec, rmatvec

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.products()[0](x)

    def __rmatmul__(self, u: np.ndarray) -> np.ndarray:
        return self.products()[1](u)

    def tocsr(self):
        """This matrix as a scipy.sparse.csr_matrix (imports scipy)."""
        import scipy.sparse
        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


@dataclass
class Shard:
    """One agent's contiguous run of rows of the system; A and b are views
    of the instance's, made by partition."""

    A: CsrRows             # m_i x n
    b: np.ndarray          # m_i
    rows: np.ndarray       # global row indices, contiguous and sorted


@dataclass
class ProblemInstance:
    A: CsrRows
    b: np.ndarray
    x_planted: np.ndarray
    x_star: np.ndarray     # minimum-norm least-squares solution, pinv(A) b
    agents: int            # default shard count, in [1, m]
    spec: ProblemSpec | None = None

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def dense(self) -> np.ndarray:
        return self.A.toarray()


def partition_sizes(m: int, agents: int) -> list[int]:
    """Contiguous block sizes differing by at most one, larger blocks first."""
    if agents < 1:
        raise InvalidParameter(f"need at least one agent, got {agents}")
    if agents > m:
        raise TooManyAgents(f"{agents} agents for {m} rows")
    base, extra = divmod(m, agents)
    return [base + 1] * extra + [base] * (agents - extra)


def partition(A: CsrRows, b: np.ndarray, agents: int) -> list[Shard]:
    """Contiguous row shards of (A, b), sized by partition_sizes; each
    shard's A and b are views of A's and b's rows."""
    shards = []
    start = 0
    for size in partition_sizes(A.shape[0], agents):
        stop = start + size
        shards.append(Shard(A.rows(start, stop), b[start:stop], np.arange(start, stop)))
        start = stop
    return shards


def _sample_positions(g: np.random.Generator, m: int, n: int, nnz: int) -> np.ndarray:
    """Draw nnz distinct flat positions, re-drawing collisions: each batch
    draws as many positions as are still missing, and keeps, in draw order,
    the first occurrence of each position not taken before."""
    taken = np.empty(0, dtype=np.int64)        # sorted
    parts, count = [], 0
    while count < nnz:
        batch = g.integers(0, m * n, size=nnz - count)
        values, first = np.unique(batch, return_index=True)
        if len(taken):
            at = taken.searchsorted(values)
            fresh = taken[np.minimum(at, len(taken) - 1)] != values
            values, first = values[fresh], first[fresh]
            taken = np.insert(taken, at[fresh], values)
        else:
            taken = values
        first.sort()
        parts.append(batch[first])
        count += len(first)
    return np.concatenate(parts)


def generate(spec: ProblemSpec) -> ProblemInstance:
    """Build an instance from a spec; bit-identical for equal specs."""
    if spec.density * spec.m * spec.n < 1.0:
        raise DegenerateInstance(f"density {spec.density} yields no nonzeros for {spec.m}x{spec.n}")
    nnz = math.ceil(spec.density * spec.m * spec.n)
    g = rng.stream(spec.seed, rng.MATRIX)
    flat = _sample_positions(g, spec.m, spec.n, nnz)
    values = g.normal(size=nnz)
    A = CsrRows.from_coo((spec.m, spec.n), flat // spec.n, flat % spec.n, values)
    x_planted = rng.stream(spec.seed, rng.SOLUTION).normal(size=spec.n)
    b = A @ x_planted
    if spec.noise > 0.0:
        b = b + spec.noise * rng.stream(spec.seed, rng.NOISE).normal(size=spec.m)
    return from_arrays(A, b, spec.agents, x_planted=x_planted, spec=spec)


def from_arrays(A, b, agents: int, x_planted=None, spec=None) -> ProblemInstance:
    """Wrap explicit (A, b) into an instance: the oracle solution plus a
    default agent count, checked against m here.

    A is a CsrRows or a dense array (CsrRows.from_dense)."""
    if not isinstance(A, CsrRows):
        A = CsrRows.from_dense(A)
    partition_sizes(A.shape[0], agents)
    b = np.asarray(b, dtype=float)
    x_star = min_norm_solve(A, b)
    if x_planted is None:
        x_planted = x_star.copy()
    return ProblemInstance(A, b, np.asarray(x_planted, float), x_star, agents, spec)


def _write_vector(path: Path, v: np.ndarray) -> None:
    with open(path, "w") as fh:
        for value in v:
            fh.write(f"{value:.17g}\n")


def _read_vector(path: Path) -> np.ndarray:
    if not path.exists():
        raise IoError(f"missing vector file {path}")
    try:
        with open(path) as fh:
            v = np.array([float(line) for line in fh if line.strip()], dtype=float)
    except ValueError as exc:
        raise IoError(f"corrupt vector file {path}: {exc}") from exc
    if not np.all(np.isfinite(v)):
        raise IoError(f"corrupt vector file {path}: non-finite value")
    return v


def _read_matrix(path: Path, check_size) -> CsrRows:
    """A Matrix Market "coordinate real general" file as CsrRows, entries
    at the same position added in file order.

    The header, the size line (m n nnz), the entry count and every entry's
    1-based indices are checked; any mismatch raises IoError.  check_size(m,
    n) sees the size line first, so it can refuse a shape before any array
    of that size is built.
    """
    if not path.exists():
        raise IoError(f"missing matrix file {path}")
    try:
        with open(path) as fh:
            header = fh.readline().lower().split()
            if header != _MTX_HEADER:
                raise IoError(f"unsupported matrix file {path}: header {' '.join(header)!r} "
                              f"is not {' '.join(_MTX_HEADER)!r}")
            line = fh.readline()
            while line.startswith("%"):
                line = fh.readline()
            size = line.split()
            if len(size) != 3:
                raise IoError(f"corrupt matrix file {path}: missing size line 'm n nnz'")
            m, n, nnz = (int(v) for v in size)
            check_size(m, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # an empty entry list warns
                entries = np.loadtxt(fh, dtype=_MTX_ENTRY, ndmin=1)
    except ValueError as exc:   # UnicodeDecodeError included
        raise IoError(f"corrupt matrix file {path}: {exc}") from exc
    if min(m, n, nnz) < 0 or len(entries) != nnz:
        raise IoError(f"corrupt matrix file {path}: {len(entries)} entries for size line "
                      f"{m} {n} {nnz}")
    row, col = entries["i"] - 1, entries["j"] - 1
    if nnz and not (0 <= row.min() and row.max() < m and 0 <= col.min() and col.max() < n):
        raise IoError(f"corrupt matrix file {path}: an entry index lies outside {m} x {n}")
    return CsrRows.from_coo((m, n), row, col, entries["v"])


def save(inst: ProblemInstance, directory) -> Path:
    """Write an instance directory; see module docstring for the layout."""
    import scipy.io   # numpy's savetxt writer is ~9x slower at 32k entries

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scipy.io.mmwrite(directory / "A.mtx", inst.A.tocsr(), precision=17)
    _write_vector(directory / "b.txt", inst.b)
    _write_vector(directory / "x_planted.txt", inst.x_planted)
    _write_vector(directory / "x_star.txt", inst.x_star)
    manifest = {
        "agents": inst.agents,
        "files": {"A": "A.mtx", "b": "b.txt", "x_planted": "x_planted.txt", "x_star": "x_star.txt"},
    }
    if inst.spec is not None:
        manifest["spec"] = {
            "m": inst.spec.m, "n": inst.spec.n, "density": inst.spec.density,
            "noise": inst.spec.noise, "seed": inst.spec.seed, "agents": inst.spec.agents,
        }
    with open(directory / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return directory


def load(directory) -> ProblemInstance:
    """Read an instance directory; keys of the manifest it does not read
    (the shard list and m, n of older directories) are ignored."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise IoError(f"missing manifest {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        paths = {key: directory / manifest["files"][key] for key in ("A", "b", "x_planted", "x_star")}
        agents = manifest["agents"]
        spec = ProblemSpec(**manifest["spec"]) if "spec" in manifest else None
    except json.JSONDecodeError as exc:
        raise IoError(f"corrupt manifest {manifest_path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, InvalidParameter) as exc:
        raise IoError(f"malformed manifest {manifest_path}: missing or bad entry {exc}") from exc
    b = _read_vector(paths["b"])
    x_planted = _read_vector(paths["x_planted"])
    x_star = _read_vector(paths["x_star"])

    def check_size(m, n):
        if b.shape[0] != m or not x_planted.shape[0] == x_star.shape[0] == n:
            raise IoError(f"vector lengths b {b.shape[0]}, x_planted {x_planted.shape[0]}, "
                          f"x_star {x_star.shape[0]} do not fit the {m} x {n} A")

    A = _read_matrix(paths["A"], check_size)
    if type(agents) is not int or not 1 <= agents <= A.shape[0]:
        raise IoError(f"malformed manifest {manifest_path}: agents {agents!r} is not an "
                      f"integer in [1, {A.shape[0]}]")
    if spec is not None and (spec.m, spec.n) != A.shape:
        raise IoError(f"malformed manifest {manifest_path}: spec is {spec.m} x {spec.n} but "
                      f"{paths['A'].name} is {A.shape[0]} x {A.shape[1]}")
    return ProblemInstance(A, b, x_planted, x_star, agents, spec)
