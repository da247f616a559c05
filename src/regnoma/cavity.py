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
through :func:`gram_density_from_adjacency_transform`.

The sweeps run lifted, on classes of directed edges (as in counting belief
propagation).  All messages start at 1/z, so edges whose computation trees
agree hold one value at every sweep.  :func:`lift_graph` finds the
coarsest such partition that is equitable: starting from one class, it
splits edge u -> v by (its class, the class of u, the class of v -> u),
where a node's class is the *ordered* sequence of its in-edge classes,
until nothing splits.  Every member of a class then computes its update
from the same inputs.  Ordered rather than multiset sequences make those
inputs the same bits, not just the same numbers: ``np.bincount`` sums a
node's in-edges in edge-index order, and nodes of one class sum equal
values in equal order.  So a sweep that updates one value per class, with
a bincount over one member's in-edges per node class, reproduces the
per-edge sweep bit for bit, including the sweep count and the largest
change.  A biregular graph with beta > 1 has two classes (one per
orientation) and beta = 1 has one; a graph without symmetry has about 2E,
and the same loop then updates every edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import DensityParams
from .ensembles import SparseSignatureMatrix

__all__ = [
    "GraphCavityMessages",
    "GraphRouteDensity",
    "LiftedGraph",
    "CavityError",
    "stieltjes_inversion",
    "lift_graph",
    "cavity_on_graph",
    "gram_density_from_adjacency_transform",
    "graph_route_density",
]

DAMPING = 0.5
DEFAULT_EPSILON = 1e-6
# stopping rule of the scalar iteration; points that miss it take the quadratic root
ITER_TOL = 1e-12
MAX_ITER = 100_000
_IM_SLACK = 1e-12


class CavityError(RuntimeError):
    """Raised when message passing on a graph does not converge."""


def _delta_tilde(z: np.ndarray, delta: np.ndarray, p: DensityParams) -> np.ndarray:
    return 1.0 / (z - p.beta / (1.0 - p.alpha * delta))


def _iterate(z: np.ndarray, p: DensityParams) -> tuple[np.ndarray, np.ndarray]:
    """Damped fixed-point iteration from delta = 0, vectorized over z.

    Returns (delta, residual); points that stall keep their last iterate
    and a residual of at least ``ITER_TOL``.
    """
    delta = np.zeros(z.shape, dtype=complex)
    residual = np.full(z.shape, np.inf)
    active = np.ones(z.shape, dtype=bool)
    for _ in range(MAX_ITER):
        if not active.any():
            break
        za, da = z[active], delta[active]
        prop = 1.0 / (za - p.gamma / (1.0 - p.alpha * da))
        new = (1.0 - DAMPING) * da + DAMPING * prop
        res = np.abs(new - da)
        delta[active] = new
        residual[active] = res
        still = res >= ITER_TOL
        idx = np.flatnonzero(active)
        active[idx[~still]] = False
    return delta, residual


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
    ``[lambda_minus - 1, lambda_plus + 1]``.  Points where no physical root
    exists are returned as NaN rather than failing the batch.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=np.float64))
    lo, hi = p.lambda_minus - 1.0, p.lambda_plus + 1.0
    if grid.min() < lo or grid.max() > hi:
        raise ValueError(f"grid must stay inside [{lo}, {hi}]")
    _, delta_tilde = _cauchy_transform(grid + 1j * epsilon, p)
    return -delta_tilde.imag / np.pi


# ======================================================================
# Message passing on a sampled graph
# ======================================================================

@dataclass(frozen=True)
class LiftedGraph:
    """The bipartite graph of A with its directed edges grouped into classes.

    Nodes 0..N-1 are resources, N..N+K-1 are users.  Directed edge ``e``
    runs ``src[e] -> dst[e]``; there are exactly two per nonzero of A.
    ``edge_class`` and ``node_class`` label every edge and node with its
    class.  Per class, ``src_class`` is the class of the tail node and
    ``rev_class`` the class of the reverse edge.  Per node class, the
    in-edge classes of one member are listed in edge-index order by the
    parallel arrays ``in_node`` (the node class) and ``in_class``.
    """

    src: np.ndarray
    dst: np.ndarray
    edge_class: np.ndarray
    node_class: np.ndarray
    src_class: np.ndarray
    rev_class: np.ndarray
    in_node: np.ndarray
    in_class: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.src_class.size


def _row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in sorted order and the index of each row among them."""
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    return unique, inverse.ravel()


def lift_graph(matrix: SparseSignatureMatrix) -> LiftedGraph:
    """Group the directed edges of A's bipartite graph into update classes.

    Refinement starts from one class.  Each round labels every node by the
    ordered sequence of its in-edge classes and splits edge ``u -> v`` by
    (its class, the label of ``u``, the class of ``v -> u``), until no
    class splits.  Members of a class then take the same floating-point
    inputs at every sweep of :func:`cavity_on_graph`.
    """
    n, k = matrix.spec.n_resources, matrix.spec.n_users
    n_nodes = n + k
    n_edges = matrix.nnz
    src = np.concatenate([matrix.rows, matrix.cols + n])
    dst = np.concatenate([matrix.cols + n, matrix.rows])
    rev = np.concatenate([np.arange(n_edges, 2 * n_edges), np.arange(n_edges)])

    # in-edges of each node in edge-index order, the order bincount sums them;
    # short rows are padded with -1, so rows of different lengths differ
    by_dst = np.argsort(dst, kind="stable")
    degree = np.bincount(dst, minlength=n_nodes)
    slot = np.arange(2 * n_edges) - np.repeat(np.cumsum(degree) - degree, degree)
    in_rows = np.full((n_nodes, degree.max()), -1, dtype=np.int64)

    edge_class = np.zeros(2 * n_edges, dtype=np.int64)
    n_classes = 1
    while True:
        in_rows[dst[by_dst], slot] = edge_class[by_dst]
        sequences, node_class = _row_classes(in_rows)
        _, refined = _row_classes(
            np.stack([edge_class, node_class[src], edge_class[rev]], axis=1))
        split = int(refined.max()) + 1
        if split == n_classes:
            break
        edge_class, n_classes = refined, split

    filled = sequences >= 0
    first = np.unique(edge_class, return_index=True)[1]
    return LiftedGraph(src=src, dst=dst, edge_class=edge_class, node_class=node_class,
                       src_class=node_class[src[first]],
                       rev_class=edge_class[rev[first]],
                       in_node=np.nonzero(filled)[0], in_class=sequences[filled])


@dataclass
class GraphCavityMessages:
    """Converged directed-edge messages and node variances on one graph.

    Nodes 0..N-1 are resources, N..N+K-1 are users.  ``messages[e]`` is the
    variance passed along directed edge ``src[e] -> dst[e]``; there are
    exactly two directed edges per nonzero of A.  ``mean_variance`` is the
    plug-in estimate of the adjacency Cauchy transform at ``z``.
    """

    z: complex
    src: np.ndarray
    dst: np.ndarray
    messages: np.ndarray
    node_variances: np.ndarray
    sweeps: int
    max_change: float

    @property
    def mean_variance(self) -> complex:
        return complex(self.node_variances.mean())


def cavity_on_graph(graph: SparseSignatureMatrix | LiftedGraph, z: complex,
                    tol: float = 1e-8,
                    max_sweeps: int = 10_000) -> GraphCavityMessages:
    """Run damped synchronous message passing on the bipartite graph of A.

    Updates use squared entry values, which are 1 in both entry modes, so
    only the support of A matters.  A matrix is lifted first; pass the
    :class:`LiftedGraph` to reuse the lift across points.  Each sweep
    updates one message per edge class and the result is expanded to every
    edge.  Raises :class:`CavityError` when the largest per-sweep message
    change stays above ``tol`` after ``max_sweeps`` sweeps.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"need Im z > 0, got z = {z}")
    g = graph if isinstance(graph, LiftedGraph) else lift_graph(graph)
    n_node_classes = int(g.node_class.max()) + 1

    def incoming(msg: np.ndarray) -> np.ndarray:
        return (np.bincount(g.in_node, weights=msg.real[g.in_class],
                            minlength=n_node_classes)
                + 1j * np.bincount(g.in_node, weights=msg.imag[g.in_class],
                                   minlength=n_node_classes))

    msg = np.full(g.n_classes, 1.0 / z, dtype=complex)
    change = np.inf
    for sweep in range(1, max_sweeps + 1):
        prop = 1.0 / (z - (incoming(msg)[g.src_class] - msg[g.rev_class]))
        new = (1.0 - DAMPING) * msg + DAMPING * prop
        change = float(np.max(np.abs(new - msg)))
        msg = new
        if change < tol:
            break
    else:
        raise CavityError(
            f"messages did not converge at z = {z}: change {change} after {max_sweeps} sweeps")
    variances = 1.0 / (z - incoming(msg))
    return GraphCavityMessages(z=z, src=g.src, dst=g.dst, messages=msg[g.edge_class],
                               node_variances=variances[g.node_class], sweeps=sweep,
                               max_change=change)


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
    holds the sweeps run at each point (``max_sweeps`` where they stalled)
    and ``n_classes`` the edge classes each sweep updated.
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
                        epsilon: float = 5e-3,
                        max_sweeps: int = 10_000) -> GraphRouteDensity:
    """Gram density estimate from message passing on one sampled matrix.

    Each Gram point ``lam`` maps to the adjacency point
    ``z = sqrt(d (lam + i eps))`` on the principal branch, so the transform
    lands exactly at ``w = lam + i eps``.  The default ``epsilon`` trades
    the Lorentzian smoothing bias against finite-size roughness; it must be
    finite and positive (:func:`check_graph_epsilon`).  The matrix is lifted
    once for the whole grid.  A point whose messages do not converge is NaN
    and the batch continues.
    """
    check_graph_epsilon(epsilon)
    p = DensityParams.from_ensemble(matrix.spec)
    graph = lift_graph(matrix)
    grid = np.atleast_1d(np.asarray(lambda_grid, dtype=np.float64))
    out = np.full(grid.shape, np.nan)
    sweeps = np.full(grid.shape, max_sweeps, dtype=np.int64)
    for i, lam in enumerate(grid):
        z = complex(np.sqrt(complex(p.d * lam, p.d * epsilon)))
        try:
            run = cavity_on_graph(graph, z, max_sweeps=max_sweeps)
        except CavityError:
            continue
        g = gram_density_from_adjacency_transform(run.mean_variance, z, p)
        out[i] = -g.imag / np.pi
        sweeps[i] = run.sweeps
    return GraphRouteDensity(density=out, sweeps=sweeps, n_classes=graph.n_classes)
