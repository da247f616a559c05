"""Sparse regular signature-matrix ensembles on bipartite graphs.

A signature matrix assigns each of K users a sparse column over N shared
resources.  The regular ensemble fixes exactly ``d`` nonzeros per column and
``beta * d`` per row (``beta = K / N``), which makes the bipartite
resource/user graph biregular.  An irregular reference ensemble with i.i.d.
Bernoulli(d/N) entries is provided for comparison experiments.

Sampling uses the configuration model: column stubs are matched to row stubs
by a uniform random permutation, then parallel edges are removed with
degree-preserving double-edge switches.  Randomness comes from the PCG64
generator; the stream for realization ``i`` is seeded with ``seed XOR i`` so
ensembles are reproducible and trivially parallelizable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "EntryMode",
    "EnsembleSpec",
    "SparseSignatureMatrix",
    "GenerationError",
    "generate_regular",
    "generate_irregular",
    "cycle_diagnostics",
    "load_matrix",
]


class GenerationError(RuntimeError):
    """Raised when a sampler cannot produce a valid matrix."""


class EntryMode(Enum):
    """Value law for the nonzero entries."""

    ONES = "ones"
    RADEMACHER = "rademacher"

    @classmethod
    def parse(cls, token: str) -> "EntryMode":
        try:
            return cls(token.lower())
        except ValueError:
            raise ValueError(f"unknown entry mode {token!r}") from None


MAX_SEED = 2**64

# switch-attempt budget of the multi-edge repair, as a multiple of K*d
REPAIR_CAP_FACTOR = 100


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the PCG64 stream for realization ``index`` of a seeded ensemble."""
    return np.random.Generator(np.random.PCG64(seed ^ index))


# ======================================================================
# Ensemble description
# ======================================================================

@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of a signature ensemble.

    n_resources : int
        Number of rows N (shared channel resources).
    n_users : int
        Number of columns K, with K >= N.
    col_degree : int
        Nonzeros per column, d >= 2.  The implied row degree
        ``K * d / N`` must be an integer >= 2.
    entry_mode : EntryMode
        ONES for all +1 entries, RADEMACHER for independent +-1 signs.
    seed : int
        Base seed of the 64-bit PCG64 stream family.
    """

    n_resources: int
    n_users: int
    col_degree: int
    entry_mode: EntryMode = EntryMode.ONES
    seed: int = 0

    def __post_init__(self) -> None:
        n, k, d = self.n_resources, self.n_users, self.col_degree
        if n < 1 or k < 1:
            raise ValueError("matrix dimensions must be positive")
        if k < n:
            raise ValueError(f"need at least as many users as resources, got K={k} < N={n}")
        if d < 2:
            raise ValueError(f"column degree must be >= 2, got {d}")
        if (k * d) % n != 0:
            raise ValueError(
                f"K*d = {k * d} not divisible by N = {n}; row degree would not be integral"
            )
        if self.row_degree < 2:
            raise ValueError(f"row degree must be >= 2, got {self.row_degree}")
        if d > n:
            raise ValueError(f"column degree {d} exceeds number of resources {n}")
        if self.row_degree > k:
            raise ValueError(f"row degree {self.row_degree} exceeds number of users {k}")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    @classmethod
    def from_load(cls, n: int, beta: float, d: float, entry_mode: EntryMode,
                  seed: int) -> "EnsembleSpec":
        """Spec with ``n`` resources at real load ``beta`` and degree ``d``.

        Raises ValueError unless ``d`` is an integer and ``beta * n`` a whole
        number of users.
        """
        if abs(d - round(d)) > 1e-9:
            raise ValueError(f"sampled matrices need an integer degree, got {d}")
        k = beta * n
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"n = {n} resources do not realize load beta = {beta}")
        return cls(n_resources=n, n_users=int(round(k)), col_degree=int(round(d)),
                   entry_mode=entry_mode, seed=seed)

    @property
    def beta(self) -> float:
        """Load K / N."""
        return self.n_users / self.n_resources

    @property
    def row_degree(self) -> int:
        """Nonzeros per row, beta * d."""
        return self.n_users * self.col_degree // self.n_resources


# ======================================================================
# Matrix container and text serialization
# ======================================================================

@dataclass
class SparseSignatureMatrix:
    """A sampled N x K signature matrix in coordinate form.

    Entries are stored as parallel arrays sorted by (row, col).  ``irregular``
    marks matrices whose degrees are not exactly regular, which waives the
    degree invariants downstream.
    """

    spec: EnsembleSpec
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    irregular: bool = False
    realization: int = 0

    def __post_init__(self) -> None:
        order = np.lexsort((self.cols, self.rows))
        self.rows = np.ascontiguousarray(self.rows[order], dtype=np.int64)
        self.cols = np.ascontiguousarray(self.cols[order], dtype=np.int64)
        self.values = np.ascontiguousarray(self.values[order], dtype=np.float64)

    @property
    def nnz(self) -> int:
        return self.rows.size

    def column_degrees(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.spec.n_users)

    def row_degrees(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.spec.n_resources)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.spec.n_resources, self.spec.n_users))
        out[self.rows, self.cols] = self.values
        return out

    def gram(self) -> np.ndarray:
        """Dense N x N Gram matrix A A^T / d."""
        a = self.to_dense()
        return (a @ a.T) / self.spec.col_degree

    def save(self, path: str | Path) -> None:
        """Write the text format: header ``N K d mode seed`` then entry rows."""
        spec = self.spec
        lines = [f"{spec.n_resources} {spec.n_users} {spec.col_degree} "
                 f"{spec.entry_mode.value} {spec.seed}"]
        for r, c, v in zip(self.rows, self.cols, self.values):
            lines.append(f"{r} {c} {v:.0f}")
        Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path: str | Path) -> SparseSignatureMatrix:
    """Load the text format written by :meth:`SparseSignatureMatrix.save`.

    Degrees are checked against the header; a matrix that is not exactly
    (d, beta*d)-regular is flagged irregular.
    """
    text = Path(path).read_text().strip().split("\n")
    head = text[0].split()
    if len(head) != 5:
        raise ValueError(f"malformed header {text[0]!r}")
    n, k, d = int(head[0]), int(head[1]), int(head[2])
    mode, seed = EntryMode.parse(head[3]), int(head[4])
    spec = EnsembleSpec(n, k, d, mode, seed)
    body = np.array([line.split() for line in text[1:]], dtype=np.float64)
    if body.ndim != 2 or body.shape[1] != 3:
        raise ValueError("malformed entry rows")
    rows = body[:, 0].astype(np.int64)
    cols = body[:, 1].astype(np.int64)
    values = body[:, 2]
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= k:
        raise ValueError("entry index out of range")
    if not np.all(np.abs(values) == 1.0):
        raise ValueError("entries must be +-1")
    m = SparseSignatureMatrix(spec, rows, cols, values)
    pairs = m.rows * k + m.cols
    if np.unique(pairs).size != pairs.size:
        raise ValueError("duplicate entries in file")
    regular = (np.all(m.column_degrees() == d)
               and np.all(m.row_degrees() == spec.row_degree))
    m.irregular = not regular
    return m


# ======================================================================
# Samplers
# ======================================================================

def _draw_values(rng: np.random.Generator, n: int, mode: EntryMode) -> np.ndarray:
    if mode is EntryMode.ONES:
        return np.ones(n)
    return rng.choice(np.array([-1.0, 1.0]), size=n)


def generate_regular(spec: EnsembleSpec, realization: int = 0) -> SparseSignatureMatrix:
    """Sample a simple (d, beta*d)-biregular signature matrix.

    Configuration model with repair: K*d column stubs are matched to the row
    stubs by a uniform permutation, then parallel edges are eliminated with
    double-edge switches.  A switch exchanges the column endpoints of a
    parallel edge and a uniformly chosen partner edge and is accepted only
    if it creates no new parallel edge.  Total switch attempts are capped at
    ``100 * K * d``; exceeding the cap raises :class:`GenerationError`.
    """
    n, k, d = spec.n_resources, spec.n_users, spec.col_degree
    rng = stream(spec.seed, realization)
    cols = np.repeat(np.arange(k, dtype=np.int64), d)
    rows = np.repeat(np.arange(n, dtype=np.int64), spec.row_degree)
    rows = rows[rng.permutation(rows.size)]

    # edge (r, c) is keyed r * K + c; before any switch, column c holds
    # positions c*d .. c*d + d - 1, so each parallel edge is found in its block
    keys = (rows * k + cols).tolist()
    counts = Counter(keys)
    dup_positions = sorted(i for key, count in counts.items() if count > 1
                           for i in range(key % k * d, key % k * d + d)
                           if keys[i] == key)

    # a switch only creates edges of count 1, so a single pass in position
    # order leaves no parallel edge behind
    cap = REPAIR_CAP_FACTOR * k * d
    attempts = 0
    n_edges = len(keys)
    for i in dup_positions:
        ki = keys[i]
        while counts[ki] > 1:
            if attempts >= cap:
                raise GenerationError(
                    f"multi-edge repair exceeded {cap} switch attempts "
                    f"(N={n}, K={k}, d={d}, realization={realization})"
                )
            attempts += 1
            j = int(rng.integers(n_edges))
            kj = keys[j]
            if i == j or kj == ki:
                continue
            new_i = ki - ki % k + kj % k
            new_j = kj - kj % k + ki % k
            if counts[new_i] or counts[new_j]:
                continue
            counts[ki] -= 1
            counts[kj] -= 1
            counts[new_i] += 1
            counts[new_j] += 1
            keys[i], keys[j] = new_i, new_j
            cols[i], cols[j] = cols[j], cols[i]
            ki = new_i

    values = _draw_values(rng, n_edges, spec.entry_mode)
    return SparseSignatureMatrix(spec, rows, cols, values, realization=realization)


def generate_irregular(spec: EnsembleSpec, realization: int = 0) -> SparseSignatureMatrix:
    """Sample the i.i.d. reference ensemble: each entry nonzero w.p. d/N.

    Column degrees are then Binomial(N, d/N), close to Poisson(d) for large N.
    The result is flagged irregular.  Requires d/N < 1.
    """
    n, k, d = spec.n_resources, spec.n_users, spec.col_degree
    p = d / n
    if p >= 1.0:
        raise ValueError(f"Bernoulli probability d/N = {p} must be < 1")
    rng = stream(spec.seed, realization)
    rows_parts = []
    cols_parts = []
    # column blocks keep the mask memory bounded at large sizes
    block = max(1, min(k, 8_000_000 // max(n, 1)))
    for lo in range(0, k, block):
        hi = min(k, lo + block)
        mask = rng.random((n, hi - lo)) < p
        r, c = np.nonzero(mask)
        rows_parts.append(r)
        cols_parts.append(c + lo)
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    values = _draw_values(rng, rows.size, spec.entry_mode)
    return SparseSignatureMatrix(spec, rows, cols, values,
                                 irregular=True, realization=realization)


# ======================================================================
# Short-cycle diagnostics
# ======================================================================

def _quad_count(matrix: SparseSignatureMatrix) -> int:
    # number of 4-cycles: pairs of rows with >= 2 common columns,
    # sum over row pairs of C(common, 2)
    import scipy.sparse as sp

    spec = matrix.spec
    b = sp.csr_matrix((np.ones(matrix.nnz), (matrix.rows, matrix.cols)),
                      shape=(spec.n_resources, spec.n_users))
    m = (b @ b.T).tocoo()
    off = m.row != m.col
    common = m.data[off]
    return int(np.sum(common * (common - 1)) // 4)


def _hex_count(matrix: SparseSignatureMatrix) -> int:
    # number of 6-cycles from tr((B B^T)^3) with closed-walk corrections:
    # subtract walks revisiting a row, then column-coincidence terms by
    # inclusion-exclusion over the triple overlaps
    import scipy.sparse as sp

    spec = matrix.spec
    b = sp.csr_matrix((np.ones(matrix.nnz), (matrix.rows, matrix.cols)),
                      shape=(spec.n_resources, spec.n_users))
    m = (b @ b.T).tocsr()
    r = m.diagonal()
    tr_m3 = (m @ m).multiply(m.T).sum()
    m_off = m.copy()
    m_off.setdiag(0)
    m_off.eliminate_zeros()
    mixed = 3.0 * float((m_off.multiply(m_off)).dot(np.ones(spec.n_resources)) @ r)
    s3 = tr_m3 - float(np.sum(r**3)) - mixed

    mt = (b.T @ b).tocsr()
    c = matrix.column_degrees().astype(np.float64)
    diag_mt2 = np.asarray(mt.multiply(mt).sum(axis=1)).ravel()
    row_deg_sum = b.T @ r
    corr = 3.0 * float(np.sum((c - 2.0) * (diag_mt2 - row_deg_sum)))
    corr2 = 2.0 * float(np.sum(c * (c - 1.0) * (c - 2.0)))
    return int(round((s3 - corr + corr2) / 6.0))


def _oct_count(matrix: SparseSignatureMatrix) -> int:
    # exact 8-cycle count by rooted path enumeration: the smallest node on
    # each cycle is the root and both orientations are found, hence the /2
    spec = matrix.spec
    n_nodes = spec.n_resources + spec.n_users
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for r, c in zip(matrix.rows.tolist(), matrix.cols.tolist()):
        u, v = r, spec.n_resources + c
        adj[u].append(v)
        adj[v].append(u)

    total = 0
    length = 8
    for root in range(n_nodes):
        stack = [(root, 0, frozenset((root,)))]
        while stack:
            node, depth, seen = stack.pop()
            for nxt in adj[node]:
                if nxt == root and depth == length - 1:
                    total += 1
                elif nxt > root and nxt not in seen and depth < length - 1:
                    stack.append((nxt, depth + 1, seen | {nxt}))
    return total // 2


def cycle_diagnostics(matrix: SparseSignatureMatrix, max_len: int = 4) -> int:
    """Count simple cycles of length <= max_len in the bipartite graph.

    The graph is bipartite so all cycles have even length; supported lengths
    are 4, 6 and 8.  Lengths 4 and 6 use trace and common-neighbor closed
    forms, length 8 uses rooted path enumeration whose cost grows with the
    degrees as (d * beta * d)**4 per node, the reason for the length cap.
    """
    if max_len % 2 != 0 or not 4 <= max_len <= 8:
        raise ValueError(f"max_len must be 4, 6 or 8, got {max_len}")
    total = _quad_count(matrix)
    if max_len >= 6:
        total += _hex_count(matrix)
    if max_len >= 8:
        total += _oct_count(matrix)
    return total
