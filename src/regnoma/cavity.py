"""Cavity route to the Gram spectrum: fixed point, inversion, and graphs.

On the infinite biregular tree the cavity recursion closes on two
scalars.  Written in the Gram spectral variable z, the cavity variances
solve

    delta(z)       = 1 / (z - gamma / (1 - alpha * delta(z)))
    delta_tilde(z) = 1 / (z - beta  / (1 - alpha * delta(z)))

with alpha = (d-1)/d and gamma = (beta d - 1)/d.  ``delta_tilde`` is the
Cauchy transform of the limiting law of A A^T / d, so the density follows
from the boundary values:  rho(lam) = -Im delta_tilde(lam + i eps) / pi.
For Im z > 0 the physical branch has nonpositive imaginary parts.
:func:`stieltjes_inversion` solves the pair on a whole grid at once: damped
iteration first, then the closed-form quadratic root where the iteration
stalls.  A point without a physical root is NaN, not an error.

The graph route runs the cavity recursion on a sampled finite matrix, in
the Gram variable w with Im w > 0.  The Gram resolvent (w - A A^T / d)^-1 is
the resource block of H^-1, with

    H = [[w I_N, -A / sqrt(d)], [-A^T / sqrt(d), I_K]],

so each node v has the diagonal entry c_v of H (w on a resource, 1 on a
user), and each directed edge of the bipartite graph carries the message

    1 / (c_tail - (sum of the messages into the tail - the reverse message) / d),

started at 1 / c_tail.  Messages depend only on squared entries, so both
entry modes give identical values.  The node values 1 / (c_v - (sum in) / d)
estimate the diagonal of H^-1, exact on a tree; their mean over the
resource nodes estimates the Gram transform, so the density is
-Im(mean) / pi, the sign convention of :func:`stieltjes_inversion`.  A run
that misses its stopping rule is NaN too, so both routes fail a point the
same way.

A regular matrix (:attr:`~regnoma.ensembles.SparseSignatureMatrix.regular`)
gives all nodes of a side one degree and one diagonal entry, so each
orientation of the directed edges carries one value at every sweep: the
sweep runs on two (points,) arrays, and each point leaves them at the
sweep that stops it.  Every other matrix is swept per directed edge, point
by point.  Both run the same numpy array arithmetic, so they agree bit for
bit, sweep counts and largest changes included, by one rounding rule: each
node sum adds its in-degree copies of the message in turn, as
``np.bincount`` does.
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
    """Messages and node values of one run; ``np.shape(w)`` leads every per-point field.

    ``messages[..., 0, e]`` runs along edge ``e`` from resource ``rows[e]`` to
    user ``cols[e]``, and ``messages[..., 1, e]`` back.  ``resource_values``
    and ``user_values`` estimate the diagonal of H^-1, and ``gram_transform``,
    their mean over the resources, the Gram transform tr (w - A A^T / d)^-1 / N.
    On a regular matrix the three arrays are read-only broadcast views that
    hold O(points) memory.  ``point_sweeps`` and ``max_change`` are per point;
    ``sweeps``, an int, is the run's count, the slowest point's (0 without
    points), and ``n_classes`` the messages a sweep updates per point.  A
    stalled point (``point_sweeps == MAX_SWEEPS`` and ``max_change >= GRAPH_TOL``)
    keeps its last messages, and its node values and ``gram_transform`` are NaN.
    """

    messages: np.ndarray
    resource_values: np.ndarray
    user_values: np.ndarray
    point_sweeps: np.ndarray
    max_change: np.ndarray
    sweeps: int
    n_classes: int
    gram_transform: np.ndarray


def cavity_on_graph(matrix: SparseSignatureMatrix, w) -> GraphCavityMessages:
    """Run damped synchronous message passing on the bipartite graph of A.

    ``w`` is a complex scalar or a 1-D array of Gram points, all swept in
    one run, each point stopping at its own sweep.  Updates use squared
    entry values, which are 1 in both entry modes, so only the support of A
    matters.  A regular matrix sweeps its two orientation messages
    (:func:`_orientation_sweep`); any other matrix sweeps every directed
    edge, point by point (:func:`_edge_sweep`).  Both give the same bits,
    sweep counts and largest changes included.  A point that is not finite
    or has Im w <= 0 is rejected before any sweep.  A point whose largest
    per-sweep message change is still at least ``GRAPH_TOL`` after
    ``MAX_SWEEPS`` sweeps gets complex NaN node values; nothing is raised.
    """
    w = np.asarray(w, dtype=complex)
    bad = ~(np.isfinite(w) & (w.imag > 0.0))
    if bad.any():
        raise ValueError(f"need a finite w with Im w > 0, got w = {w[bad]}")
    regular = matrix.regular
    sweep = _orientation_sweep if regular else _edge_sweep
    messages, resource, user, sweeps, change = (
        x.reshape(w.shape + x.shape[1:]) for x in sweep(matrix, w.ravel()))
    return GraphCavityMessages(
        messages=messages, resource_values=resource, user_values=user,
        point_sweeps=sweeps[()], max_change=change[()], sweeps=int(sweeps.max(initial=0)),
        n_classes=2 if regular else 2 * matrix.nnz, gram_transform=resource.mean(-1))


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


# messages, resource values, user values, sweeps and max change, per point
Sweep = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# a user's diagonal entry of H
_USER = complex(1.0)
_NAN = complex(np.nan, np.nan)


def _edge_sweep(matrix: SparseSignatureMatrix, w: np.ndarray) -> Sweep:
    """One message per directed edge, point by point; edge ``e``'s reverse is ``e +- nnz``.

    The messages and node values take O(points x (edges + nodes)) memory.
    """
    spec = matrix.spec
    n, n_nodes = spec.n_resources, spec.n_resources + spec.n_users
    inv_d = 1.0 / spec.col_degree
    src, in_bin = _edges(matrix)
    messages = np.empty((w.size, src.size), dtype=complex)
    values = np.full((w.size, n_nodes), _NAN)
    sweeps = np.empty(w.size, dtype=np.int64)
    changes = np.empty(w.size)

    def incoming(msg: np.ndarray) -> np.ndarray:
        sums = np.bincount(in_bin, weights=msg.view(np.float64), minlength=2 * n_nodes)
        # an empty weight array makes bincount return integers
        return sums.astype(np.float64, copy=False).view(complex)

    for i, point in enumerate(w):
        c = np.repeat([point, _USER], [n, spec.n_users])
        c_src = c[src]
        msg = 1.0 / c_src
        for sweep in range(1, MAX_SWEEPS + 1):
            prop = 1.0 / (c_src - (incoming(msg)[src] - np.roll(msg, matrix.nnz)) * inv_d)
            new = (1.0 - DAMPING) * msg + DAMPING * prop
            change = float(np.abs(new - msg).max(initial=0.0))
            msg = new
            if change < GRAPH_TOL:
                values[i] = 1.0 / (c - incoming(msg) * inv_d)
                break
        messages[i], sweeps[i], changes[i] = msg, sweep, change
    return (messages.reshape(w.size, 2, matrix.nnz), values[:, :n], values[:, n:],
            sweeps, changes)


def _orientation_sweep(matrix: SparseSignatureMatrix, w: np.ndarray) -> Sweep:
    """The per-edge sweep of a regular matrix on its two orientation messages.

    Every resource has ``row`` in-edges and every user ``col``, and every
    message starts at one over the diagonal entry of its tail, so all
    resource-to-user edges carry one value and all user-to-resource edges
    another: column 0 and column 1 of a (points, 2) array, whose column 1
    is also the reverse of column 0.  The in-sums add copies in turn, as
    ``np.bincount`` does, and the rest is the per-edge sweep's arithmetic,
    so each point gets the per-edge sweep's bits.  A point leaves the array
    at the sweep that stops it.  The fields broadcast the class values, so
    no (points x edges) or (points x nodes) array is built.
    """
    spec = matrix.spec
    row, col = spec.row_degree, spec.col_degree
    inv_d = 1.0 / col
    p = w.size
    # the diagonal entry of each orientation's tail: a resource, then a user
    c = np.stack([w, np.full(p, _USER)], axis=-1)

    def incoming(msg: np.ndarray) -> np.ndarray:
        # row user-to-resource messages into a resource, col the other way into a user
        total = np.zeros_like(msg)
        for _ in range(row):
            total[:, 0] += msg[:, 1]
        for _ in range(col):
            total[:, 1] += msg[:, 0]
        return total

    final = np.empty((p, 2), dtype=complex)
    sweeps = np.empty(p, dtype=np.int64)
    changes = np.empty(p)
    idx, c_live = np.arange(p), c
    msg = 1.0 / c
    for sweep in range(1, MAX_SWEEPS + 1):
        if not idx.size:
            break
        prop = 1.0 / (c_live - (incoming(msg) - msg[:, ::-1]) * inv_d)
        new = (1.0 - DAMPING) * msg + DAMPING * prop
        change = np.abs(new - msg).max(axis=-1)
        msg = new
        # a nan change fails < too: its point runs on and stalls
        stop = (change < GRAPH_TOL) | (sweep == MAX_SWEEPS)
        if stop.any():
            done = idx[stop]
            final[done], sweeps[done], changes[done] = msg[stop], sweep, change[stop]
            live = ~stop
            idx, c_live, msg = idx[live], c_live[live], msg[live]
    values = np.full((p, 2), _NAN)
    ok = changes < GRAPH_TOL
    values[ok] = 1.0 / (c[ok] - incoming(final[ok]) * inv_d)
    return (np.broadcast_to(final[:, :, None], (p, 2, matrix.nnz)),
            np.broadcast_to(values[:, :1], (p, spec.n_resources)),
            np.broadcast_to(values[:, 1:], (p, spec.n_users)), sweeps, changes)


@dataclass(frozen=True)
class GraphRouteDensity:
    """Graph-route density on a grid with its message-passing diagnostics.

    ``density`` is NaN where the messages did not converge; ``sweeps``
    holds the sweeps run at each point (``MAX_SWEEPS`` where they stalled)
    and ``n_classes`` the messages each sweep updated: one per orientation
    on a regular matrix and one per directed edge otherwise.
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

    One :func:`cavity_on_graph` run sweeps every grid point ``lam`` at
    ``w = lam + i eps`` and the density reads ``-Im gram_transform / pi``.
    The default ``epsilon`` trades the Lorentzian smoothing bias against
    finite-size roughness; it must be finite and positive
    (:func:`check_graph_epsilon`), and a grid with a non-finite point is
    rejected before any sweep.  A point whose messages do not converge is
    NaN and the others run on.
    """
    check_graph_epsilon(epsilon)
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=np.float64))
    if not np.isfinite(grid).all():
        raise ValueError("every grid point must be finite")
    w = grid.astype(complex)
    w.imag = epsilon
    run = cavity_on_graph(matrix, w)
    return GraphRouteDensity(density=-run.gram_transform.imag / np.pi,
                             sweeps=run.point_sweeps, n_classes=run.n_classes)
