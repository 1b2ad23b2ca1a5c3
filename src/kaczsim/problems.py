"""Generation, persistence, and row partitioning of linear-system instances.

Instances are sparse systems A x = b with a planted solution and an exact
nonzero count: duplicate positions drawn during sampling are re-drawn until
ceil(density * m * n) distinct slots are filled, so the density is honored
exactly and the construction stays a pure function of the seed.

On disk an instance is a directory holding A in Matrix Market coordinate
format, vectors as one-value-per-line text with 17 significant digits, and
a JSON manifest with the shard row ranges.

A stays sparse: the oracle solves take it as it is, and each shard's rows
are densified on their own, so the full m x n matrix is never built.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from . import rng
from .errors import DegenerateInstance, InvalidParameter, IoError, TooManyAgents
from .linalg import min_norm_solve

MANIFEST_NAME = "manifest.json"


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
        if not (0.0 < self.density <= 1.0):   # False for nan
            raise InvalidParameter(f"density must lie in (0, 1], got {self.density}")
        if not (0.0 <= self.noise < math.inf):
            raise InvalidParameter(f"noise must be finite and nonnegative, got {self.noise}")


@dataclass
class Shard:
    """One agent's contiguous slice of the system."""

    A: np.ndarray          # m_i x n dense block
    b: np.ndarray          # m_i
    rows: np.ndarray       # global row indices, contiguous and sorted


@dataclass
class ProblemInstance:
    A: scipy.sparse.coo_matrix
    b: np.ndarray
    x_planted: np.ndarray
    x_star: np.ndarray     # minimum-norm least-squares solution, pinv(A) b
    shards: list[Shard]
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


def _shard(A: scipy.sparse.csr_matrix, start: int, stop: int, b: np.ndarray) -> Shard:
    """Shard of rows start:stop of A, densified on their own, with right-hand side b."""
    return Shard(A[start:stop].toarray(), b, np.arange(start, stop))


def partition(A, b: np.ndarray, agents: int) -> list[Shard]:
    """Contiguous row shards of the sparse matrix A, sized by partition_sizes."""
    A = A.tocsr()
    shards = []
    start = 0
    for size in partition_sizes(A.shape[0], agents):
        shards.append(_shard(A, start, start + size, b[start:start + size].copy()))
        start += size
    return shards


def _sample_positions(g: np.random.Generator, m: int, n: int, nnz: int) -> np.ndarray:
    """Draw nnz distinct flat positions, re-drawing collisions."""
    taken: set[int] = set()
    order: list[int] = []
    while len(order) < nnz:
        batch = g.integers(0, m * n, size=nnz - len(order))
        for p in batch:
            p = int(p)
            if p not in taken:
                taken.add(p)
                order.append(p)
    return np.array(order, dtype=np.int64)


def generate(spec: ProblemSpec) -> ProblemInstance:
    """Build an instance from a spec; bit-identical for equal specs."""
    if spec.density * spec.m * spec.n < 1.0:
        raise DegenerateInstance(f"density {spec.density} yields no nonzeros for {spec.m}x{spec.n}")
    nnz = math.ceil(spec.density * spec.m * spec.n)
    g = rng.stream(spec.seed, rng.MATRIX)
    flat = _sample_positions(g, spec.m, spec.n, nnz)
    values = g.normal(size=nnz)
    # canonical row-major entry order
    order = np.argsort(flat, kind="stable")
    flat, values = flat[order], values[order]
    A = scipy.sparse.coo_matrix(
        (values, (flat // spec.n, flat % spec.n)), shape=(spec.m, spec.n)
    )
    x_planted = rng.stream(spec.seed, rng.SOLUTION).normal(size=spec.n)
    b = A @ x_planted
    if spec.noise > 0.0:
        b = b + spec.noise * rng.stream(spec.seed, rng.NOISE).normal(size=spec.m)
    return from_arrays(A, b, spec.agents, x_planted=x_planted, spec=spec)


def from_arrays(A, b, agents: int, x_planted=None, spec=None) -> ProblemInstance:
    """Wrap explicit (A, b) into an instance: oracle solution plus shards."""
    if not scipy.sparse.issparse(A):
        A = scipy.sparse.coo_matrix(np.asarray(A, dtype=float))
    A = A.tocoo()
    b = np.asarray(b, dtype=float)
    csr = A.tocsr()
    x_star = min_norm_solve(csr, b)
    if x_planted is None:
        x_planted = x_star.copy()
    return ProblemInstance(A, b, np.asarray(x_planted, float), x_star, partition(csr, b, agents), spec)


def _write_vector(path: Path, v: np.ndarray) -> None:
    with open(path, "w") as fh:
        for value in v:
            fh.write(f"{value:.17g}\n")


def _read_vector(path: Path) -> np.ndarray:
    if not path.exists():
        raise IoError(f"missing vector file {path}")
    try:
        with open(path) as fh:
            return np.array([float(line) for line in fh if line.strip()], dtype=float)
    except ValueError as exc:
        raise IoError(f"corrupt vector file {path}: {exc}") from exc


def save(inst: ProblemInstance, directory) -> Path:
    """Write an instance directory; see module docstring for the layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scipy.io.mmwrite(directory / "A.mtx", inst.A, precision=17)
    _write_vector(directory / "b.txt", inst.b)
    _write_vector(directory / "x_planted.txt", inst.x_planted)
    _write_vector(directory / "x_star.txt", inst.x_star)
    shard_entries = []
    for i, shard in enumerate(inst.shards):
        name = f"shard_{i:02d}_b.txt"
        _write_vector(directory / name, shard.b)
        shard_entries.append(
            {"rows": [int(shard.rows[0]), int(shard.rows[-1]) + 1], "b": name}
        )
    manifest = {
        "m": inst.m,
        "n": inst.n,
        "agents": len(inst.shards),
        "files": {"A": "A.mtx", "b": "b.txt", "x_planted": "x_planted.txt", "x_star": "x_star.txt"},
        "shards": shard_entries,
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
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise IoError(f"missing manifest {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        paths = {key: directory / manifest["files"][key] for key in ("A", "b", "x_planted", "x_star")}
        shard_entries = [(int(e["rows"][0]), int(e["rows"][1]), directory / e["b"])
                         for e in manifest["shards"]]
        spec = ProblemSpec(**manifest["spec"]) if "spec" in manifest else None
    except json.JSONDecodeError as exc:
        raise IoError(f"corrupt manifest {manifest_path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, InvalidParameter) as exc:
        raise IoError(f"malformed manifest {manifest_path}: missing or bad entry {exc}") from exc
    a_path = paths["A"]
    if not a_path.exists():
        raise IoError(f"missing matrix file {a_path}")
    try:
        A = scipy.io.mmread(a_path).tocoo()
    except Exception as exc:
        raise IoError(f"corrupt matrix file {a_path}: {exc}") from exc
    b = _read_vector(paths["b"])
    x_planted = _read_vector(paths["x_planted"])
    x_star = _read_vector(paths["x_star"])
    csr = A.tocsr()
    shards = []
    for start, stop, b_path in shard_entries:
        if not 0 <= start < stop <= A.shape[0]:
            raise IoError(f"malformed manifest {manifest_path}: shard rows [{start}, {stop}) "
                          f"outside the {A.shape[0]} rows of A")
        shard_b = _read_vector(b_path)
        if shard_b.shape[0] != stop - start:
            raise IoError(f"shard file {b_path.name} length {shard_b.shape[0]} != row range {stop - start}")
        shards.append(_shard(csr, start, stop, shard_b))
    return ProblemInstance(A, b, x_planted, x_star, shards, spec)
