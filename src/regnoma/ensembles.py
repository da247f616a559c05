"""Sparse regular signature-matrix ensembles on bipartite graphs.

A signature matrix assigns each of K users a sparse column over N shared
resources.  The regular ensemble fixes exactly ``d`` nonzeros per column and
``beta * d`` per row (``beta = K / N``), which makes the bipartite
resource/user graph biregular.  An irregular reference ensemble with i.i.d.
Bernoulli(d/N) entries is provided for comparison experiments.

Sampling uses the configuration model: column stubs are matched to row stubs
by a uniform random permutation, then parallel edges are removed with
degree-preserving double-edge switches.  Randomness comes from the PCG64
generator; the stream for realization ``i`` is seeded with ``seed XOR i``, so
every realization can be drawn on its own and reruns are reproducible.  The
streams of different seeds are not independent: ``seed XOR i`` runs over
the same values for every seed that agrees above the bits of ``i``.  For any
seed below 16, for instance, realizations 0..1999 draw the same 2000
streams in another order, so Monte Carlo averages over them agree across
those seeds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "EntryMode",
    "EnsembleSpec",
    "SparseSignatureMatrix",
    "GenerationError",
    "generate_regular",
    "generate_irregular",
]


class GenerationError(RuntimeError):
    """Raised when a sampler cannot produce a valid matrix."""


class EntryMode(Enum):
    """Value law for the nonzero entries."""

    ONES = "ones"
    RADEMACHER = "rademacher"


MAX_SEED = 2**64

# switch-attempt budget of the multi-edge repair, as a multiple of K*d
REPAIR_CAP_FACTOR = 100

# largest N*K for which gram() takes the dense product, whose N*N*K cost
# wins at small sizes over the pair sum's fixed ~20 us.  Measured on a
# 2-vCPU VM: the two cross near N*K = 8e3 at d = 2 and 3e4 at d = 4; dense
# takes 4-8 us at (10, 15, 2), and 7-10 ms at (520, 1560, 4) against 1.4 ms
DENSE_GRAM_MAX_CELLS = 10_000


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the PCG64 stream for realization ``index`` of a seeded ensemble.

    The stream is seeded with ``seed XOR index``, so seeds collide: for
    seeds below 16 the indices 0..1999 yield one set of 2000 streams,
    permuted.
    """
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
# Matrix container
# ======================================================================

@dataclass
class SparseSignatureMatrix:
    """A sampled N x K signature matrix in coordinate form.

    The coordinates may be given as any sequences; they are stored as
    parallel int64, int64 and float64 arrays sorted by (row, col).
    """

    spec: EnsembleSpec
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    realization: int = 0

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        order = np.lexsort((cols, rows))
        self.rows, self.cols, self.values = rows[order], cols[order], values[order]

    @property
    def nnz(self) -> int:
        return self.rows.size

    @property
    def regular(self) -> bool:
        """Whether every column holds ``spec.col_degree`` entries and every
        row ``spec.row_degree``: the one test of regularity downstream."""
        return bool((self.column_degrees() == self.spec.col_degree).all()
                    and (self.row_degrees() == self.spec.row_degree).all())

    def column_degrees(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.spec.n_users)

    def row_degrees(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.spec.n_resources)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.spec.n_resources, self.spec.n_users))
        out[self.rows, self.cols] = self.values
        return out

    def gram(self) -> np.ndarray:
        """Dense N x N Gram matrix A A^T / d.

        Small matrices (N*K <= ``DENSE_GRAM_MAX_CELLS``) take the dense
        product.  Larger ones sum, for each column, the products ``v v'`` of
        its entry pairs into cell ``(r, r')`` with one ``np.bincount``: the
        dense A is never formed, and the cost is the sum of squared column
        degrees instead of N*N*K.  Every product is +-1 and every sum a small
        integer, so both paths give the same bits.
        """
        n, k = self.spec.n_resources, self.spec.n_users
        if n * k <= DENSE_GRAM_MAX_CELLS:
            a = self.to_dense()
            return (a @ a.T) / self.spec.col_degree
        order = np.argsort(self.cols, kind="stable")
        rows, cols, values = self.rows[order], self.cols[order], self.values[order]
        degrees = np.bincount(cols, minlength=k)
        # entry i pairs with the degrees[cols[i]] entries of its column, which
        # start at position col_start[cols[i]] of the column-sorted arrays
        per_entry = degrees[cols]
        col_start = np.cumsum(degrees) - degrees
        run_start = np.cumsum(per_entry) - per_entry
        first = np.repeat(np.arange(rows.size), per_entry)
        second = np.arange(first.size) + np.repeat(col_start[cols] - run_start, per_entry)
        g = np.bincount(rows[first] * n + rows[second],
                        weights=values[first] * values[second], minlength=n * n)
        # an empty weight array makes bincount return integers
        g = g.astype(np.float64, copy=False).reshape(n, n)
        g /= self.spec.col_degree
        return g


# ======================================================================
# Samplers
# ======================================================================

def _draw_values(rng: np.random.Generator, n: int, mode: EntryMode) -> np.ndarray:
    if mode is EntryMode.ONES:
        return np.ones(n)
    # the draws rng.choice(np.array([-1.0, 1.0]), size=n) makes, at half the cost
    return np.array([-1.0, 1.0])[rng.integers(0, 2, size=n)]


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
    Requires d/N < 1.
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
    return SparseSignatureMatrix(spec, rows, cols, values, realization=realization)

