"""Cavity route to the Gram spectrum: fixed point, inversion, and graphs.

On the infinite biregular tree the cavity recursion closes on two
scalars.  Written in the Gram spectral variable w, the cavity variances
solve

    delta(w)          = 1 / (w - gamma / (1 - alpha * delta(w)))
    gram_transform(w) = 1 / (w - beta  / (1 - alpha * delta(w)))

with alpha = (d-1)/d and gamma = (beta d - 1)/d.  ``gram_transform`` is
the Cauchy transform of the limiting law of A A^T / d, so the density
follows from the boundary values:  rho(lam) = -Im gram_transform(lam + i eps) / pi.
For Im w > 0 the physical branch has nonpositive imaginary parts.
:func:`cavity_on_tree` solves the pair at every point at once: damped
iteration first, then the closed form :func:`~regnoma.spectra.gram_transform`
where it stalls.  A point whose pair leaves the branch is NaN, not an error.

The graph route runs the cavity recursion on a sampled finite matrix, in
the same variable w.  The Gram resolvent (w - A A^T / d)^-1 is
the resource block of H^-1, with

    H = [[w I_N, -A / sqrt(d)], [-A^T / sqrt(d), I_K]],

so each node v has the diagonal entry c_v of H (w on a resource, 1 on a
user), and each directed edge of the bipartite graph carries the message

    1 / (c_tail - (sum of the messages into the tail - the reverse message) / d),

started at 1 / c_tail.  Messages depend only on squared entries, so both
entry modes give identical values.  The node values 1 / (c_v - (sum in) / d)
estimate the diagonal of H^-1, exact on a tree; their mean over the
resource nodes estimates the Gram transform.  Both routes take the same
points w, finite with Im w > 0.  A graph run that misses its stopping
rule is NaN too, so both routes fail a point the same way.

One loop sweeps every matrix on its message classes, sets of directed
edges that carry one value: two on a regular matrix
(:attr:`~regnoma.ensembles.SparseSignatureMatrix.regular`), one per
orientation, and one per directed edge on any other.  Each point stops at
its own sweep with the bits it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import DensityParams, gram_transform
from .ensembles import SparseSignatureMatrix

__all__ = [
    "GraphCavityMessages",
    "cavity_on_tree",
    "cavity_on_graph",
    "check_epsilon",
]

DAMPING = 0.5
DEFAULT_EPSILON = 1e-6
# summaries trust the scalar route only this far inside the square-root edges
EDGE_GAP = 1e-3
GRAPH_EPSILON = 5e-3
# stopping rule of the scalar iteration; points that miss it take the closed form
ITER_TOL = 1e-12
MAX_ITER = 100_000
_IM_SLACK = 1e-12
# stopping rule of graph message passing; a run that misses it is NaN
GRAPH_TOL = 1e-8
MAX_SWEEPS = 10_000


def _check_points(w) -> np.ndarray:
    """``w`` as a complex array; a point not finite or with Im w <= 0 raises
    ``ValueError`` naming the first."""
    w = np.asarray(w, dtype=complex)
    bad = ~(np.isfinite(w) & (w.imag > 0.0))
    if bad.any():
        raise ValueError(f"need a finite w with Im w > 0, got w = {w[bad][0]}")
    return w


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


def cavity_on_tree(p: DensityParams, w) -> tuple[np.ndarray, np.ndarray]:
    """Physical cavity pair (delta, gram_transform) of the tree at Gram points w.

    ``w`` is a complex scalar or array, and both results have its shape.  A
    point that is not finite or has Im w <= 0 is rejected before any step.
    Damped iteration (the physical relaxation) runs first; points where it
    stalls before ``MAX_ITER`` updates reach ``ITER_TOL`` take the closed
    form's delta, :func:`~regnoma.spectra.gram_transform`.  A point whose
    pair leaves the branch Im <= 0 is complex NaN.  The density at lam is
    ``-gram_transform.imag / pi`` at w = lam + i eps.
    """
    w = _check_points(w)
    z = w.ravel()
    delta, residual = _iterate(z, p)
    stalled = residual >= ITER_TOL
    if stalled.any():
        delta[stalled] = gram_transform(z[stalled], p)[0]
    # a failed point (nan delta) stays nan without a warning
    with np.errstate(invalid="ignore"):
        gram = 1.0 / (z - p.beta / (1.0 - p.alpha * delta))
    bad = np.isnan(delta) | (delta.imag > _IM_SLACK) | (gram.imag > _IM_SLACK)
    # a real nan would leave Im = 0 and read as a zero density
    delta[bad] = gram[bad] = complex(np.nan, np.nan)
    return delta.reshape(w.shape), gram.reshape(w.shape)


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
    On a regular matrix the three arrays are read-only broadcast views of
    one value per class, O(points) in memory.  ``point_sweeps`` and
    ``max_change`` are per point; ``sweeps``, an int, is the run's count, the
    slowest point's (0 without points), and ``n_classes`` the message
    classes a sweep updates per point.  A stalled point (``point_sweeps ==
    MAX_SWEEPS`` and ``max_change >= GRAPH_TOL``) keeps its last messages,
    and its node values and ``gram_transform`` are NaN.  ``density`` is
    ``-Im gram_transform / pi``, and ``n_failed`` the NaN points of
    ``gram_transform``.
    """

    messages: np.ndarray
    resource_values: np.ndarray
    user_values: np.ndarray
    point_sweeps: np.ndarray
    max_change: np.ndarray
    sweeps: int
    n_classes: int
    gram_transform: np.ndarray

    @property
    def density(self) -> np.ndarray:
        return -self.gram_transform.imag / np.pi

    @property
    def n_failed(self) -> int:
        return int(np.isnan(self.gram_transform).sum())


def cavity_on_graph(matrix: SparseSignatureMatrix, w) -> GraphCavityMessages:
    """Run damped synchronous message passing on the bipartite graph of A.

    ``w`` is a complex scalar or a 1-D array of Gram points, all swept in
    one run, each point stopping at its own sweep.  Updates use squared
    entry values, which are 1 because the matrix holds only +-1, so only the
    support of A matters.  :func:`_sweep` runs the message classes of
    :func:`_message_classes`.  A point that is not finite or has
    Im w <= 0 is rejected before any sweep.  A point whose largest
    per-sweep message change is still at least ``GRAPH_TOL`` after
    ``MAX_SWEEPS`` sweeps gets complex NaN node values; nothing is raised.
    """
    return _sweep(matrix, _check_points(w))


def _edges(matrix: SparseSignatureMatrix) -> np.ndarray:
    """Tail node of every directed edge, a (2, nnz) array.

    Resources are nodes ``0 .. N-1`` and users ``N .. N+K-1``.  Edge ``(0,
    e)`` runs from resource ``rows[e]`` to user ``cols[e]`` and edge ``(1,
    e)`` back, so each orientation's tails are the other's heads.
    """
    return np.stack([matrix.rows, matrix.cols + matrix.spec.n_resources])


def _message_classes(matrix: SparseSignatureMatrix
                     ) -> tuple[tuple[int, int], np.ndarray, np.ndarray | None, np.ndarray]:
    """The graph as node and message classes, each holding one value per point.

    Returns the node classes of each side (resources, users), the tail
    node class of each message class as a (2, classes per orientation)
    array whose row 0 runs from resources to users and row 1 back, and the
    flat message class (None: each class in turn) and head node class of
    each in-sum term, in summation order.  On a regular matrix all nodes
    of a side share one degree and one diagonal entry: one node class per
    side and one message class per orientation, and a resource sums
    ``row`` copies of the user-to-resource message and a user ``col``
    copies of the other.  Any other matrix makes each node and each
    directed edge a class (:func:`_edges`).
    """
    spec = matrix.spec
    if matrix.regular:
        degrees = [spec.row_degree, spec.col_degree]
        return ((1, 1), np.arange(2)[:, None], np.repeat([1, 0], degrees),
                np.repeat([0, 1], degrees))
    tail = _edges(matrix)
    return (spec.n_resources, spec.n_users), tail, None, tail[::-1].ravel()


# a user's diagonal entry of H
_USER = complex(1.0)
# messages per chunk of points: a sweep costs more per message on larger arrays
_CHUNK = 8192
_NAN = complex(np.nan, np.nan)


def _spread(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # one value per class becomes a read-only stride-0 view over its nodes or edges
    return a if a.shape == shape else np.broadcast_to(a, shape)


def _sweep(matrix: SparseSignatureMatrix, w: np.ndarray) -> GraphCavityMessages:
    """Sweep the message classes of every point until each point stops.

    The points run in chunks of at most ``_CHUNK`` messages (one point at
    least).  A chunk's messages form a (points, 2, classes per orientation)
    array, and a point leaves it at the sweep that stops it.  One complex
    ``np.add.at`` forms every in-sum of a sweep: slot ``k n_nodes + v``
    collects the terms into node class ``v`` of the k-th live point, in
    term order.
    """
    spec = matrix.spec
    (n_res, n_users), tail, term_msg, term_head = _message_classes(matrix)
    n_nodes, n_classes = n_res + n_users, tail.size
    inv_d = 1.0 / spec.col_degree
    lead, w = w.shape, w.ravel()
    p = w.size
    chunk = max(1, _CHUNK // max(n_classes, 1))
    # the diagonal entry of H at each node class: w on a resource, 1 on a user
    c = np.full((p, n_nodes), _USER)
    c[:, :n_res] = w[:, None]
    slots = (np.arange(min(chunk, p))[:, None] * n_nodes + term_head).ravel()

    def incoming(msg: np.ndarray) -> np.ndarray:
        if term_msg is not None:
            msg = msg.reshape(-1, n_classes).take(term_msg, axis=1)
        sums = np.zeros(msg.shape[0] * n_nodes, dtype=complex)
        np.add.at(sums, slots[:msg.size], msg.ravel())
        return sums.reshape(-1, n_nodes)

    final = np.empty((p,) + tail.shape, dtype=complex)
    sweeps = np.empty(p, dtype=np.int64)
    changes = np.empty(p)
    values = np.full((p, n_nodes), _NAN)
    for start in range(0, p, chunk):
        span = np.arange(start, min(start + chunk, p))
        idx, c_tail = span, c[span].take(tail, axis=1)
        msg = 1.0 / c_tail
        for sweep in range(1, MAX_SWEEPS + 1):
            # msg[:, ::-1] holds the reverse of each message
            cavity_sum = incoming(msg).take(tail, axis=1) - msg[:, ::-1]
            prop = 1.0 / (c_tail - cavity_sum * inv_d)
            new = (1.0 - DAMPING) * msg + DAMPING * prop
            change = np.abs(new - msg).max(axis=(1, 2), initial=0.0)
            msg = new
            # a nan change fails < too: its point runs on and stalls
            stop = (change < GRAPH_TOL) | (sweep == MAX_SWEEPS)
            if stop.any():
                done = idx[stop]
                final[done], sweeps[done], changes[done] = msg[stop], sweep, change[stop]
                live = ~stop
                if not live.any():
                    break
                idx, c_tail, msg = idx[live], c_tail[live], msg[live]
        ok = span[changes[span] < GRAPH_TOL]
        values[ok] = 1.0 / (c[ok] - incoming(final[ok]) * inv_d)
    values = values.reshape(lead + (n_nodes,))
    resource = _spread(values[..., :n_res], lead + (spec.n_resources,))
    return GraphCavityMessages(
        messages=_spread(final.reshape(lead + tail.shape), lead + (2, matrix.nnz)),
        resource_values=resource,
        user_values=_spread(values[..., n_res:], lead + (spec.n_users,)),
        point_sweeps=sweeps.reshape(lead)[()], max_change=changes.reshape(lead)[()],
        sweeps=int(sweeps.max(initial=0)), n_classes=n_classes,
        gram_transform=resource.mean(-1))


def check_epsilon(epsilon: float) -> None:
    """Reject an offset eps of w = lam + i eps that is not finite and positive.

    A negative offset evaluates the conjugate transform, a mirror-image
    density; zero puts the evaluation point on the spectrum.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")

