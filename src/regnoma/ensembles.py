"""Sparse regular signature-matrix ensembles on bipartite graphs.

A signature matrix assigns each of K users a sparse column over N shared
resources.  The regular ensemble fixes exactly ``d`` nonzeros per column and
``beta * d`` per row (``beta = K / N``), which makes the bipartite
resource/user graph biregular.  An irregular reference ensemble with i.i.d.
Bernoulli(d/N) entries is provided for comparison experiments; it draws
only its edges, a binomial count of distinct cells, at O(E) cost.

Sampling uses the configuration model: column stubs are matched to row stubs
by a uniform random permutation, then parallel edges are removed with
degree-preserving double-edge switches.  Randomness comes from the PCG64
generator; realization ``i`` of seed ``s`` draws from the child stream
``SeedSequence(s, spawn_key=(i,))``, so every realization can be drawn on
its own, reruns are reproducible, and distinct (seed, realization) pairs
give independent streams.
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
    "stream",
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

    This is numpy's child-stream form, ``SeedSequence(seed,
    spawn_key=(index,))``, the stream ``SeedSequence(seed).spawn`` hands
    its ``index``-th child: the seed and the index are hashed together, so
    distinct (seed, index) pairs give independent streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


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
        if d > n:
            raise ValueError(f"column degree {d} exceeds number of resources {n}")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    @classmethod
    def from_load(cls, n: int, beta: float, d: float, entry_mode: EntryMode,
                  seed: int) -> "EnsembleSpec":
        """Spec with ``n`` resources at real load ``beta`` and degree ``d``.

        Raises ValueError unless ``d`` is an integer and ``beta * n`` a whole
        number of users.
        """
        if not (np.isfinite(beta) and np.isfinite(d)):
            raise ValueError(f"beta and d must be finite, got beta = {beta}, d = {d}")
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

def _coordinates(x, name: str) -> np.ndarray:
    """``x`` as int64; a value the cast would change raises ValueError.

    Integer input, which every sampler passes, skips the comparison.
    """
    a = np.asarray(x)
    if a.dtype.kind in "biu":
        return a.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        out = a.astype(np.int64)
    changed = out != a
    if np.count_nonzero(changed):
        i = int(changed.argmax())
        raise ValueError(f"{name}[{i}] = {a.flat[i]} is not an integral coordinate")
    return out


@dataclass
class SparseSignatureMatrix:
    """A sampled N x K signature matrix in coordinate form.

    The coordinates may be given as any sequences of one length; they are
    stored as parallel int64, int64 and float64 arrays sorted by (row, col).
    A coordinate that is not a whole number (0.5, but not 1.0), coordinates
    outside [0, N) x [0, K), a cell given more than once, and a value other
    than +1 or -1 (0, 2.0, NaN, inf) raise ValueError.
    """

    spec: EnsembleSpec
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        rows = _coordinates(self.rows, "rows")
        cols = _coordinates(self.cols, "cols")
        values = np.asarray(self.values, dtype=np.float64)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != values.shape:
            raise ValueError(f"rows, cols and values need one 1-D length, got shapes "
                             f"{rows.shape}, {cols.shape} and {values.shape}")
        off = np.abs(values) != 1.0  # NaN included
        if np.count_nonzero(off):
            i = int(off.argmax())
            raise ValueError(f"values[{i}] = {values[i]} is not +1 or -1")
        # a negative coordinate reads as a huge unsigned one, so one max bounds each
        n, k = self.spec.n_resources, self.spec.n_users
        if rows.size and not (rows.view(np.uint64).max() < n
                              and cols.view(np.uint64).max() < k):
            raise ValueError(f"coordinates outside [0, {n}) x [0, {k})")
        # a bounded cell's key row * K + col orders cells as (row, col) does, so
        # any sort of distinct keys is lexsort's, and a repeated cell is adjacent
        keys = rows * k + cols
        order = keys.argsort()
        keys = keys[order]
        repeated = keys[1:] == keys[:-1]
        if np.count_nonzero(repeated):
            r, c = divmod(int(keys[repeated.argmax()]), k)
            raise ValueError(f"cell ({r}, {c}) is given more than once")
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

    def gram(self, out: np.ndarray | None = None) -> np.ndarray:
        """Dense N x N Gram matrix A A^T / d, written into ``out`` if given.

        ``out`` must be a C-contiguous float64 N x N array; its contents are
        overwritten and it is returned, so a loop over draws can reuse one
        buffer.  Small matrices (N*K <= ``DENSE_GRAM_MAX_CELLS``) take the
        dense product.  Larger ones add, for each column, the products
        ``v v'`` of its entry pairs into cell ``(r, r')`` of the zeroed
        buffer with one in-place ``np.add.at``: the dense A is never formed,
        and the cost is the sum of squared column degrees instead of N*N*K.
        Every value is +-1, so every product is too and every sum a small
        integer, and both paths give the same bits.
        """
        n, k = self.spec.n_resources, self.spec.n_users
        if out is None:
            out = np.empty((n, n))
        elif not (isinstance(out, np.ndarray) and out.shape == (n, n)
                  and out.dtype == np.float64 and out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float64 array of shape {(n, n)}")
        if n * k <= DENSE_GRAM_MAX_CELLS:
            a = self.to_dense()
            np.matmul(a, a.T, out=out)
        else:
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
            out.fill(0.0)
            np.add.at(out.reshape(-1), rows[first] * n + rows[second],
                      values[first] * values[second])
        out /= self.spec.col_degree
        return out


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

    At d = N the only simple support is the complete one, and the repair
    exhausts its cap before reaching it on many draws (7 of 40 at N = 10,
    K = 15), so that support is returned directly: every (row, col) once,
    with the entry values still drawn from the realization's stream.
    """
    n, k, d = spec.n_resources, spec.n_users, spec.col_degree
    rng = stream(spec.seed, realization)
    if d == n:
        rows, cols = np.divmod(np.arange(n * k, dtype=np.int64), k)
        return SparseSignatureMatrix(spec, rows, cols, _draw_values(rng, n * k, spec.entry_mode))
    cols = np.repeat(np.arange(k, dtype=np.int64), d)
    rows = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), spec.row_degree))

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
    return SparseSignatureMatrix(spec, rows, cols, values)


def _bernoulli_probability(spec: EnsembleSpec) -> float:
    """The irregular ensemble's cell probability d/N; ValueError unless it is < 1."""
    p = spec.col_degree / spec.n_resources
    if p >= 1.0:
        raise ValueError(f"Bernoulli probability d/N = {p} must be < 1")
    return p


def generate_irregular(spec: EnsembleSpec, realization: int = 0) -> SparseSignatureMatrix:
    """Sample the i.i.d. reference ensemble: each entry nonzero w.p. d/N.

    An i.i.d. Bernoulli(p) field is a Binomial(N*K, p) count of occupied
    cells placed as a uniform subset, so drawing those cells keeps the law
    at O(E) time and memory.  Column degrees are Binomial(N, d/N), close to
    Poisson(d) for large N.  Requires d/N < 1.
    """
    n, k = spec.n_resources, spec.n_users
    p = _bernoulli_probability(spec)
    rng = stream(spec.seed, realization)
    # the matrix re-sorts its cells, so the subset needs no shuffle
    cells = rng.choice(n * k, rng.binomial(n * k, p), replace=False, shuffle=False)
    rows, cols = np.divmod(cells, k)
    values = _draw_values(rng, cells.size, spec.entry_mode)
    return SparseSignatureMatrix(spec, rows, cols, values)
