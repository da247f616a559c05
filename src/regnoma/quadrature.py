"""Gauss-Legendre quadrature over a square-root-edged spectral support.

All bulk densities handled here vanish like a square root at the support
edges (or diverge like an inverse square root at a zero lower edge).  The
substitution ``lam = lo + (hi - lo) * sin(theta)**2`` absorbs both behaviors
and yields an integrand analytic in theta on [0, pi/2], so Gauss-Legendre
converges geometrically.  :func:`support_integral` doubles its node count
until the estimate is stable.  :func:`partial_integrals` integrates once
over a fixed table of theta panels and adds one short rule per point over
that point's partial panel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "support_integral", "partial_integrals"]

# theta panels of the partial-integral table and Gauss-Legendre nodes per panel
PANELS = 64
PANEL_ORDER = 20
# points per block of partial panels; bounds the temporaries of a large call,
# each (BLOCK, PANEL_ORDER) float array being ~160 KiB at 1,024 points.
# Every point runs the same arithmetic in any block, and values are
# bit-identical for any BLOCK from 512 to 65,536 (tested).  The 52,000-point
# CDF of a 100-trial N = 520 pool (beta = 3, d = 4) peaks under tracemalloc at
#   BLOCK     analytic_cdf   ks_distance
#   512       1.13 MiB       1.98 MiB
#   1,024     1.77 MiB       2.16 MiB
#   2,048     2.76 MiB       3.15 MiB
#   4,096     5.04 MiB       5.44 MiB
#   65,536    58.6 MiB       59.0 MiB
# and takes 30-72 ms at every size on a shared 2-vCPU VM, no size reliably
# faster.  At 1,024 the KS step's temporaries stay below the draw loop's
# own two N x N buffers (the Gram buffer that spectra shares across draws,
# and eigvalsh's private copy of it), so that loop sets a pooled run's peak
# RSS.  Blocks this small keep glibc's dynamic mmap threshold low, so a
# multi-MB array is mapped and page-faulted afresh at every allocation,
# which is why the draw loop reuses one Gram buffer
BLOCK = 1_024
# node budget of support_integral's doubling, read at call time
N_MAX = 1 << 15


class QuadratureError(RuntimeError):
    """Raised when node doubling fails to stabilize the estimate."""


@lru_cache(maxsize=32)
def _nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _theta_eval(density: Callable[[np.ndarray], np.ndarray],
                lo: float, hi: float,
                theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nodes ``lam`` of ``theta`` and ``density(lam)`` times the Jacobian."""
    width = hi - lo
    lam = lo + width * np.sin(theta) ** 2
    jac = width * np.sin(2.0 * theta)
    return lam, density(lam) * jac


def support_integral(density: Callable[[np.ndarray], np.ndarray],
                     lo: float, hi: float,
                     weight: Callable[[np.ndarray], np.ndarray] | None = None,
                     tol: float = 1e-9,
                     n_start: int = 32) -> float | np.ndarray:
    """Integrate ``weight * density`` over (lo, hi) with edge substitution.

    The node count doubles until two successive estimates differ by less
    than ``tol``; past ``N_MAX`` nodes it raises :class:`QuadratureError`.
    Nodes are strictly interior, so improper edge behavior (including a
    1/sqrt(lam) divergence at lo = 0) is never evaluated at the singular
    point.

    A ``weight`` that maps the n nodes to an (m, n) array integrates m
    weights at once and returns an (m,) array.  The density is evaluated
    once per node count for all of them, each component stops at its own
    node count with the bits a lone call with its row as the weight would
    give, and the weight's rows of stopped components are not multiplied
    further.  One component that misses ``N_MAX`` raises for the call.

    Two known limits.  The stop rule can accept a wrong value when a pole
    of the integrand sits just outside a support edge: for the limiting law
    at beta = 1.6804, d = 1 + 1/beta + 5.1e-7, the regular throughput at
    snr = 0.179 comes out off by a relative 6.5e-7.  And ``tol`` is
    absolute, so a small integral is accurate only to a relative
    ``tol / value``.
    """
    if not hi > lo:
        raise ValueError(f"empty support [{lo}, {hi}]")
    out = live = prev = None
    n = n_start
    while n <= N_MAX:
        x, w = _nodes(n)
        lam, base = _theta_eval(density, lo, hi, (x + 1.0) * (np.pi / 4.0))
        weights = 1.0 if weight is None else weight(lam)
        if out is None:  # the first weight fixes the batch: a 1-D one is a batch of one
            scalar = np.ndim(weights) < 2
            out = np.empty(len(np.atleast_2d(weights)))
            live = np.arange(out.size)
        # one 1-D dot per row, as a lone call reduces; a 2-D product rounds otherwise
        vals = np.array([np.dot(row, w) * (np.pi / 4.0)
                         for row in base * np.atleast_2d(weights)[live]])
        if prev is not None:
            done = np.abs(vals - prev) < tol
            out[live[done]] = vals[done]
            live, vals = live[~done], vals[~done]
            if live.size == 0:
                return float(out[0]) if scalar else out
        prev = vals
        n *= 2
    raise QuadratureError(f"no convergence to tol={tol} within {N_MAX} nodes")


def partial_integrals(density: Callable[[np.ndarray], np.ndarray],
                      lo: float, hi: float,
                      lams: np.ndarray) -> np.ndarray:
    """Vectorized integrals of ``density`` from lo to each value in ``lams``.

    The theta range [0, pi/2] is cut into ``PANELS`` equal panels, each
    integrated once with a ``PANEL_ORDER``-node Gauss-Legendre rule, and the
    panel integrals are summed cumulatively at the panel boundaries.  A
    point then adds one ``PANEL_ORDER``-node rule over its own partial panel,
    from the boundary below it to its theta.  A call therefore evaluates the
    density ``PANEL_ORDER * (PANELS + len(lams))`` times, ``BLOCK`` points at
    a time, so its temporaries stay bounded however many points it gets.
    For the limiting spectral law this matches the arcsine closed form
    (beta = 1, d = 2) to rounding, and adaptive quadrature to 1e-15 over
    beta in [1, 7.5] and d in [2, 50].  Accuracy degrades when a support
    edge sits close to a pole of the density just outside it: the error is
    ~5e-7 at beta = 1.001, d = 2, and ~1e-12 at d within 1e-4 of
    1 + 1/beta.  Values are clipped to [0, 1] against rounding at the edges.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    x, w = _nodes(PANEL_ORDER)
    h = (np.pi / 2.0) / PANELS

    def integrand(theta: np.ndarray) -> np.ndarray:
        return _theta_eval(density, lo, hi, theta.ravel())[1].reshape(theta.shape)

    starts = h * np.arange(PANELS)
    table = integrand(starts[:, None] + (h / 2.0) * (x + 1.0)) @ w * (h / 2.0)
    below = np.concatenate(([0.0], np.cumsum(table)))

    parts = []
    for block in np.split(lams, np.arange(BLOCK, lams.size, BLOCK)):
        frac = np.clip((block - lo) / (hi - lo), 0.0, 1.0)
        theta_hi = np.arcsin(np.sqrt(frac))
        panel = np.minimum((theta_hi / h).astype(np.int64), PANELS - 1)
        start = h * panel
        half = (theta_hi - start) / 2.0
        part = integrand(start[:, None] + half[:, None] * (x + 1.0)) @ w * half
        parts.append(np.clip(below[panel] + part, 0.0, 1.0))
    return np.concatenate(parts)
