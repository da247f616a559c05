"""Cavity route to the Gram spectrum: fixed point, inversion, and graphs.

On the infinite biregular tree the resolvent of the bipartite adjacency
matrix closes on two scalars.  Written directly in the Gram spectral
variable z, the cavity variances solve

    delta(z)       = 1 / (z - gamma / (1 - alpha * delta(z)))
    delta_tilde(z) = 1 / (z - beta  / (1 - alpha * delta(z)))

with alpha = (d-1)/d and gamma = (beta d - 1)/d.  ``delta_tilde`` is the
Cauchy transform of the limiting law of A A^T / d, so the density follows
from the boundary values:  rho(lam) = -Im delta_tilde(lam + i eps) / pi.
For Im z > 0 the physical branch has nonpositive imaginary parts.
:func:`stieltjes_inversion` solves the pair on a whole grid at once: damped
iteration first, then the closed-form quadratic root where the iteration
stalls.  A point without a physical root is NaN, not an error.

The same message-passing runs on a sampled finite matrix: each directed
edge of the bipartite graph carries a message updated from the incoming
messages at its tail, excluding the reverse edge.  Messages depend only on
squared entries, so both entry modes produce identical variances.  The node
variances estimate the diagonal of the adjacency resolvent; their mean
estimates the adjacency Cauchy transform, which maps to the Gram transform
through :func:`gram_density_from_adjacency_transform`.  A run that misses
its stopping rule is NaN too, so both routes fail a point the same way.

A regular matrix (:attr:`~regnoma.ensembles.SparseSignatureMatrix.regular`)
starts every message at 1/z and gives all nodes of a side one degree, so
each orientation of the directed edges carries one value at every sweep:
the sweep runs on two complex scalars, one when the row and column degrees
agree.  Every other matrix is swept per directed edge with numpy arrays.
The scalar sweep reproduces the per-edge sweep bit for bit, including the
sweep count and the largest change, by three rounding rules.  Each node sum
adds its in-degree copies of the message in turn, real and imaginary parts
apart, as ``np.bincount`` does.  Each division rounds as numpy's complex
division: Python's ``/`` differs from it in the last bit for 26% of
200,000 random divisors.  The change goes through numpy's array
``np.abs`` on a 2-element buffer: Python's ``abs``, numpy's scalar ``abs``
and ``math.hypot`` each differ from it for ~38% of values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import DensityParams
from .ensembles import SparseSignatureMatrix

__all__ = [
    "GraphCavityMessages",
    "GraphRouteDensity",
    "stieltjes_inversion",
    "cavity_on_graph",
    "gram_density_from_adjacency_transform",
    "graph_route_density",
]

DAMPING = 0.5
DEFAULT_EPSILON = 1e-6
GRAPH_EPSILON = 5e-3
# stopping rule of the scalar iteration; points that miss it take the quadratic root
ITER_TOL = 1e-12
MAX_ITER = 100_000
_IM_SLACK = 1e-12
# stopping rule of graph message passing; a run that misses it is NaN
GRAPH_TOL = 1e-8
MAX_SWEEPS = 10_000


def _delta_tilde(z: np.ndarray, delta: np.ndarray, p: DensityParams) -> np.ndarray:
    # a failed point (nan delta) stays nan without a warning
    with np.errstate(invalid="ignore"):
        return 1.0 / (z - p.beta / (1.0 - p.alpha * delta))


def _iterate(z: np.ndarray, p: DensityParams) -> tuple[np.ndarray, np.ndarray]:
    """Damped fixed-point iteration from delta = 0, vectorized over z.

    Returns (delta, residual).  Each step updates only the live points,
    held as compact arrays of index, z and delta; a point whose residual
    falls below ``ITER_TOL`` is written back and dropped.  Points still
    live after ``MAX_ITER`` steps have stalled: they keep their last
    iterate and a residual of at least ``ITER_TOL``.
    """
    delta = np.zeros(z.size, dtype=complex)
    residual = np.full(z.size, np.inf)
    idx = np.arange(z.size)
    zl, dl, res = z.ravel(), delta.copy(), residual.copy()
    for _ in range(MAX_ITER):
        if not idx.size:
            break
        prop = 1.0 / (zl - p.gamma / (1.0 - p.alpha * dl))
        new = (1.0 - DAMPING) * dl + DAMPING * prop
        res = np.abs(new - dl)
        # a nan residual fails >= too: it ends its point, which is then not stalled
        if not res.min() >= ITER_TOL:
            live = res >= ITER_TOL
            done = ~live
            delta[idx[done]] = new[done]
            residual[idx[done]] = res[done]
            idx, zl, new, res = idx[live], zl[live], new[live], res[live]
        dl = new
    # what is still live has stalled
    delta[idx] = dl
    residual[idx] = res
    return delta.reshape(z.shape), residual.reshape(z.shape)


def _quadratic_roots(z: np.ndarray, p: DensityParams) -> tuple[np.ndarray, np.ndarray]:
    # the fixed point solves  alpha z delta^2 - (z - gamma + alpha) delta + 1 = 0
    a = p.alpha * z
    b = -(z - p.gamma + p.alpha)
    disc = np.sqrt(b * b - 4.0 * a)
    return (-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)


def _physical_root(z: np.ndarray, p: DensityParams) -> np.ndarray:
    """Closed-form root with Im <= 0; ties resolved toward the bounded branch."""
    r1, r2 = _quadratic_roots(z, p)
    ok1 = r1.imag <= _IM_SLACK
    ok2 = r2.imag <= _IM_SLACK
    pick = np.where(ok1, r1, r2)
    both = ok1 & ok2
    pick = np.where(both & (np.abs(r2) < np.abs(r1)), r2, pick)
    pick = np.where(ok1 | ok2, pick, np.nan + 1j * np.nan)
    return pick


def _cauchy_transform(z: np.ndarray, p: DensityParams) -> tuple[np.ndarray, np.ndarray]:
    """Physical cavity pair (delta, delta_tilde) at points with Im z > 0.

    Damped iteration (the physical relaxation) runs first; points where it
    stalls before ``MAX_ITER`` updates reach ``ITER_TOL`` take the root of
    the equivalent quadratic with nonpositive imaginary part.  Points with
    no physical root, or whose pair leaves the branch Im <= 0, are NaN.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(z.imag > 0.0):
        raise ValueError("need Im z > 0 at every point")
    delta, residual = _iterate(z, p)
    stalled = residual >= ITER_TOL
    if stalled.any():
        delta[stalled] = _physical_root(z[stalled], p)
    delta_tilde = _delta_tilde(z, delta, p)
    bad = np.isnan(delta) | (delta.imag > _IM_SLACK) | (delta_tilde.imag > _IM_SLACK)
    # a real nan would leave Im = 0 and read as a zero density
    delta[bad] = delta_tilde[bad] = complex(np.nan, np.nan)
    return delta, delta_tilde


def stieltjes_inversion(lambda_grid: np.ndarray, p: DensityParams,
                        epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Boundary-value density on a real grid: -Im delta_tilde(lam + i eps) / pi.

    ``epsilon`` must lie in (0, 1e-3] and the grid inside the padded support
    ``[lambda_minus - 1, lambda_plus + 1]``; a grid with a point outside it,
    NaN included, is rejected before any work.  Points where no physical
    root exists are returned as NaN rather than failing the batch.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=np.float64))
    lo, hi = p.lambda_minus - 1.0, p.lambda_plus + 1.0
    if np.any(~((grid >= lo) & (grid <= hi))):
        raise ValueError(f"grid must stay inside [{lo}, {hi}]")
    _, delta_tilde = _cauchy_transform(grid + 1j * epsilon, p)
    return -delta_tilde.imag / np.pi


# ======================================================================
# Message passing on a sampled graph
# ======================================================================

@dataclass
class GraphCavityMessages:
    """Directed-edge messages and node variances on one graph.

    Nodes 0..N-1 are resources, N..N+K-1 are users.  Edge ``e < nnz`` runs
    from resource ``rows[e]`` to user ``cols[e]`` and edge ``nnz + e`` back;
    ``messages[e]`` is the variance passed along edge ``e``.
    ``mean_variance`` is the plug-in estimate of the adjacency Cauchy
    transform at the run's z.  A run that stalled (``sweeps == MAX_SWEEPS``
    and ``max_change >= GRAPH_TOL``) keeps its last messages, and its node
    variances are NaN.
    """

    messages: np.ndarray
    node_variances: np.ndarray
    sweeps: int
    max_change: float

    @property
    def mean_variance(self) -> complex:
        return complex(self.node_variances.mean())


def cavity_on_graph(matrix: SparseSignatureMatrix, z: complex) -> GraphCavityMessages:
    """Run damped synchronous message passing on the bipartite graph of A.

    Updates use squared entry values, which are 1 in both entry modes, so
    only the support of A matters.  A regular matrix sweeps its two
    orientation messages as complex scalars (:func:`_orientation_sweep`);
    any other matrix sweeps every directed edge (:func:`_edge_sweep`).
    Both give the same bits, including the sweep count and the largest
    change.  When the largest per-sweep message change is still at least
    ``GRAPH_TOL`` after ``MAX_SWEEPS`` sweeps, the node variances (and so
    ``mean_variance``) are a complex NaN; nothing is raised.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"need Im z > 0, got z = {z}")
    if matrix.regular:
        return _orientation_sweep(matrix, z)
    return _edge_sweep(matrix, z)


def _edges(matrix: SparseSignatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Tail node of every directed edge, and the ``np.bincount`` bins of its head.

    Read through a float64 view, the messages interleave the real and
    imaginary part of each edge; bin ``2 v + j`` collects part ``j`` for
    node ``v``, so one ``np.bincount`` sums both parts apart, in edge-index
    order.
    """
    n = matrix.spec.n_resources
    src = np.concatenate([matrix.rows, matrix.cols + n])
    dst = np.concatenate([matrix.cols + n, matrix.rows])
    return src, (2 * dst[:, None] + np.arange(2)).ravel()


def _edge_sweep(matrix: SparseSignatureMatrix, z: complex) -> GraphCavityMessages:
    """One message per directed edge; the reverse of edge ``e`` is ``e +- nnz``."""
    n_nodes = matrix.spec.n_resources + matrix.spec.n_users
    src, in_bin = _edges(matrix)

    def incoming(msg: np.ndarray) -> np.ndarray:
        sums = np.bincount(in_bin, weights=msg.view(np.float64), minlength=2 * n_nodes)
        # an empty weight array makes bincount return integers
        return sums.astype(np.float64, copy=False).view(complex)

    msg = np.full(2 * matrix.nnz, 1.0 / z, dtype=complex)
    change = np.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        prop = 1.0 / (z - (incoming(msg)[src] - np.roll(msg, matrix.nnz)))
        new = (1.0 - DAMPING) * msg + DAMPING * prop
        change = float(np.abs(new - msg).max(initial=0.0))
        msg = new
        if change < GRAPH_TOL:
            variances = 1.0 / (z - incoming(msg))
            break
    else:
        variances = np.full(n_nodes, complex(np.nan, np.nan))
    return GraphCavityMessages(messages=msg, node_variances=variances, sweeps=sweep,
                               max_change=change)


def _in_sum(message: complex, times: int) -> complex:
    """``times`` copies of ``message`` added in turn, parts apart, as ``np.bincount`` does."""
    re = im = 0.0
    for _ in range(times):
        re += message.real
        im += message.imag
    return complex(re, im)


_ONE = np.float64(1.0)


def _inverse(w: complex) -> complex:
    """``1 / w`` rounded as numpy's complex division rounds it, not as Python's."""
    return complex(_ONE / np.complex128(w))


def _orientation_sweep(matrix: SparseSignatureMatrix, z: complex) -> GraphCavityMessages:
    """The per-edge sweep of a regular matrix on its two orientation messages.

    Every resource has ``row`` in-edges and every user ``col``, and all
    messages start at 1/z, so all resource-to-user edges carry one value,
    ``down``, and all user-to-resource edges another, ``up``; at
    ``row == col`` the two are equal.  They are plain complex scalars.  The
    in-sums add copies in turn (:func:`_in_sum`), the divisions round as
    numpy's (:func:`_inverse`), and the change goes through numpy's array
    ``np.abs``, whose rounding its scalar ``abs`` does not share, so the
    result is the per-edge sweep's bit for bit.
    """
    spec = matrix.spec
    row, col = spec.row_degree, spec.col_degree
    down = up = 1.0 / z
    diff = np.empty(2, dtype=complex)
    mag = np.empty(2)
    keep, step = 1.0 - DAMPING, DAMPING
    for sweep in range(1, MAX_SWEEPS + 1):
        new_down = keep * down + step * _inverse(z - (_in_sum(up, row) - up))
        new_up = (new_down if row == col else
                  keep * up + step * _inverse(z - (_in_sum(down, col) - down)))
        diff[:] = new_down - down, new_up - up
        np.abs(diff, out=mag)
        down, up = new_down, new_up
        if mag[0] < GRAPH_TOL and mag[1] < GRAPH_TOL:
            variances = np.repeat([_inverse(z - _in_sum(up, row)),
                                   _inverse(z - _in_sum(down, col))],
                                  [spec.n_resources, spec.n_users])
            break
    else:
        variances = np.full(spec.n_resources + spec.n_users, complex(np.nan, np.nan))
    return GraphCavityMessages(messages=np.repeat([down, up], matrix.nnz),
                               node_variances=variances, sweeps=sweep,
                               max_change=float(mag.max()))


def gram_density_from_adjacency_transform(g_adj: complex, z: complex,
                                          p: DensityParams) -> complex:
    """Map the adjacency Cauchy transform to the Gram transform.

    Let G_adj be the Cauchy transform of the (N+K)-node bipartite adjacency
    law at ``z``.  Squaring maps it to the law of the squared adjacency,
    ``G_sq(z^2) = G_adj(z) / z``, whose spectrum holds each Gram eigenvalue
    (times d) twice plus K - N zeros.  Removing the zero atom, reweighting
    to N dimensions and rescaling by d gives the Gram transform at
    ``w = z^2 / d``:

        G(w) = (1 + beta)/2 * d * G_adj(z) / z - (beta - 1) * d / (2 z^2)

    The large-w expansion is 1/w + beta/w^2, the unit mass and trace of the
    Gram law.  At beta = 1 the zero-atom correction vanishes.  ``z = 0``
    (the pole of the correction) is rejected.
    """
    z = complex(z)
    if z == 0.0:
        raise ValueError("z = 0 is the pole of the zero-atom correction")
    beta, d = p.beta, p.d
    return (1.0 + beta) / 2.0 * d * g_adj / z - (beta - 1.0) * d / (2.0 * z * z)


@dataclass(frozen=True)
class GraphRouteDensity:
    """Graph-route density on a grid with its message-passing diagnostics.

    ``density`` is NaN where the messages did not converge; ``sweeps``
    holds the sweeps run at each point (``MAX_SWEEPS`` where they stalled)
    and ``n_classes`` the messages each sweep updated: one per orientation
    on a regular matrix, one in all when its row and column degrees agree,
    and one per directed edge otherwise.
    """

    density: np.ndarray
    sweeps: np.ndarray
    n_classes: int

    @property
    def n_failed(self) -> int:
        return int(np.isnan(self.density).sum())


def check_graph_epsilon(epsilon: float) -> None:
    """Reject a graph-route offset that is not finite and positive.

    A negative offset evaluates the conjugate transform, a mirror-image
    density; zero puts the evaluation point on the spectrum.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def graph_route_density(matrix: SparseSignatureMatrix,
                        lambda_grid: np.ndarray,
                        epsilon: float = GRAPH_EPSILON) -> GraphRouteDensity:
    """Gram density estimate from message passing on one sampled matrix.

    Each Gram point ``lam`` maps to the adjacency point
    ``z = sqrt(d (lam + i eps))`` on the principal branch, so the transform
    lands exactly at ``w = lam + i eps``.  The default ``epsilon`` trades
    the Lorentzian smoothing bias against finite-size roughness; it must be
    finite and positive (:func:`check_graph_epsilon`), and a grid with a
    non-finite point is rejected before any point runs.  A point whose
    messages do not converge is NaN (:func:`cavity_on_graph`) and the batch
    continues.
    """
    check_graph_epsilon(epsilon)
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=np.float64))
    if not np.isfinite(grid).all():
        raise ValueError("every grid point must be finite")
    p = DensityParams.from_ensemble(matrix.spec)
    out = np.empty(grid.shape)
    sweeps = np.empty(grid.shape, dtype=np.int64)
    for i, lam in enumerate(grid):
        z = complex(np.sqrt(complex(p.d * lam, p.d * epsilon)))
        # one run per point: benchmarks/bench_trace.py counts these calls and
        # reads a scalar sweep count from each, so a grid-batched run waits
        # for a change to the benchmark
        run = cavity_on_graph(matrix, z)
        g = gram_density_from_adjacency_transform(run.mean_variance, z, p)
        out[i] = -g.imag / np.pi
        sweeps[i] = run.sweeps
    spec = matrix.spec
    if matrix.regular:
        n_classes = 1 if spec.row_degree == spec.col_degree else 2
    else:
        n_classes = 2 * matrix.nnz
    return GraphRouteDensity(density=out, sweeps=sweeps, n_classes=n_classes)
