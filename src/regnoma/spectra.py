"""Limiting and empirical spectra of the Gram matrix A A^T / d.

For the regular ensemble with load ``beta = K/N >= 1`` and column degree
``d``, the eigenvalue density of A A^T / d converges to a deterministic law
supported on ``[lambda_minus, lambda_plus]``:

    rho(lam) = (beta * d / (2 pi)) * sqrt((lambda_plus - lam) * (lam - lambda_minus))
               / ((beta * d - lam) * lam)

with ``lambda_{-,+} = alpha + gamma -+ 2 sqrt(alpha gamma)``,
``alpha = (d - 1)/d`` and ``gamma = (beta d - 1)/d``.  This is the factored
arrangement of the equivalent form
``(beta / 2 pi) sqrt((d tau - (xi-1)^2)((xi+1)^2 - d tau)) / (tau lam)``
with ``tau = beta d - lam`` and ``xi = d sqrt(alpha gamma)``; the two square
root factors are linear in lam and vanish exactly at the edges, and the
factored version avoids their cancellation error near the edges.

At ``beta = 1`` the law reduces to the Kesten-McKay density of squared
adjacency spectra of d-regular graphs; for ``d -> inf`` it converges to the
Marchenko-Pastur law with mean beta.  For ``d >= 1 + 1/beta`` the total mass
is 1 and the first moment is beta (the normalized trace of the Gram matrix).
Below that bound the continuous part carries only mass ``beta * (d - 1)``
and the law has an atom of mass ``1 - beta * (d - 1)`` at ``lam = beta * d``,
which this closed form omits; :class:`DensityParams` rejects such (beta, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import quadrature
from .ensembles import EnsembleSpec, EntryMode, SparseSignatureMatrix, generate_regular

__all__ = [
    "DensityParams",
    "analytic_density",
    "gram_transform",
    "kesten_mckay_density",
    "marchenko_pastur_density",
    "analytic_cdf",
    "pooled_spectrum",
    "ks_distance",
    "spectrum_histogram",
]

TRIVIAL_TOL = 1e-6


def _check_loads(beta: float | np.ndarray) -> np.ndarray:
    """A load K/N, or an array of loads, as a float array; a load that is
    not finite and >= 1 raises ``ValueError`` naming the first."""
    betas = np.asarray(beta, dtype=np.float64)
    bad = ~(np.isfinite(betas) & (betas >= 1.0))
    if bad.any():
        raise ValueError(f"load beta must be finite and >= 1, got {betas[bad][0]}")
    return betas


@dataclass(frozen=True)
class DensityParams:
    """Parameters (beta, d) of the limiting law plus derived constants.

    beta : real load K/N, finite and >= 1 (the rule of every load here).
    d : finite real column degree, >= 1 + 1/beta, where the closed form is
        a probability law.  Non-integer d is allowed; the density extends
        analytically and is used for the dense-limit comparisons.

    beta and d may also be 1-D arrays of one length, a batch of laws whose
    derived constants are arrays too; the closed forms that read only
    those constants (:func:`gram_transform` and the regular throughput)
    then evaluate law by law, elementwise.  A value outside its rule raises
    ``ValueError`` naming it, the first one of a batch, and so do a 2-D
    beta or d and two arrays of different lengths.
    """

    beta: float
    d: float

    def __post_init__(self) -> None:
        shapes = {np.shape(self.beta), np.shape(self.d)} - {()}
        if len(shapes) > 1 or any(len(s) > 1 for s in shapes):
            raise ValueError(f"beta and d must be scalars or 1-D arrays of one length, got "
                             f"shapes {np.shape(self.beta)} and {np.shape(self.d)}")
        betas, d = np.broadcast_arrays(_check_loads(self.beta),
                                       np.asarray(self.d, dtype=np.float64))
        low = ~(d >= 1.0 + 1.0 / betas)
        if low.any():
            b = betas[low][0]
            raise ValueError(f"degree d must be >= 1 + 1/beta = {1.0 + 1.0 / b}"
                             f" at beta = {b}, got {d[low][0]}")
        if not np.isfinite(d).all():
            raise ValueError(f"degree d must be finite, got {d[~np.isfinite(d)][0]}")

    @classmethod
    def from_ensemble(cls, spec: EnsembleSpec) -> "DensityParams":
        return cls(beta=spec.beta, d=float(spec.col_degree))

    @cached_property
    def alpha(self) -> float:
        return (self.d - 1.0) / self.d

    @cached_property
    def gamma(self) -> float:
        return (self.beta * self.d - 1.0) / self.d

    @cached_property
    def lambda_minus(self) -> float:
        return np.maximum(self.alpha + self.gamma - 2.0 * np.sqrt(self.alpha * self.gamma), 0.0)

    @cached_property
    def lambda_plus(self) -> float:
        return self.alpha + self.gamma + 2.0 * np.sqrt(self.alpha * self.gamma)


def analytic_density(lam: np.ndarray | float, p: DensityParams) -> np.ndarray | float:
    """Limiting eigenvalue density of A A^T / d, zero off the open support.

    Support edges evaluate to 0 and NaN points to NaN.  For beta = 1 the
    density is improper at lam = 0 (inverse square root); 0 is outside the
    open support so the value there is 0 and integration uses interior
    nodes only.
    """
    lo, hi = p.lambda_minus, p.lambda_plus
    bd = p.beta * p.d
    return _on_open_support(
        lam, lo, hi,
        lambda x: bd / (2.0 * np.pi) * np.sqrt((hi - x) * (x - lo)) / ((bd - x) * x))


def gram_transform(w, p: DensityParams) -> tuple[np.ndarray, np.ndarray]:
    """Cavity pair (delta, G) of the law at complex points w, in closed form.

    G(w) = int rho(lam) / (w - lam) dlam.  delta is the root of
    alpha w delta^2 - (w - gamma + alpha) delta + 1 = 0 that is ~ 1/w at
    infinity and analytic off the cut [lambda_minus, lambda_plus]:

        delta = 2 / (w - gamma + alpha + sqrt(w - lambda_minus) sqrt(w - lambda_plus)),
        G     = 1 / (w - beta / (1 - alpha delta)),

    with principal roots, whose product adds to w - gamma + alpha without
    cancellation.  Both take the shape of w, broadcast against p's
    constants when p is a batch of laws.  A point lam + 0j gives the
    boundary value from above, so the density is ``-G.imag / pi`` there; a
    NaN point gives NaN, and nothing raises.
    """
    w = np.asarray(w, dtype=complex)
    root = np.sqrt(w - p.lambda_minus) * np.sqrt(w - p.lambda_plus)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = 2.0 / (w - p.gamma + p.alpha + root)
        return delta, 1.0 / (w - p.beta / (1.0 - p.alpha * delta))


def _on_open_support(lam: np.ndarray | float, lo: float, hi: float,
                     density: Callable[[np.ndarray], np.ndarray]) -> np.ndarray | float:
    """``density`` at the points inside (lo, hi), 0 at the others and NaN at NaN.

    A NaN point fails both support comparisons, so it starts as NaN rather
    than reading as zero density.
    """
    lam = np.asarray(lam, dtype=np.float64)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.where(np.isnan(lam), np.nan, 0.0)
    m = (lam > lo) & (lam < hi)
    out[m] = density(lam[m])
    return float(out[0]) if scalar else out


def kesten_mckay_density(lam: np.ndarray | float, d: float) -> np.ndarray:
    """Kesten-McKay density of squared d-regular adjacency spectra.

    Supported on [0, 4(d-1)/d]; edge values are 0 by convention (the upper
    edge diverges only in the degenerate case d = 2) and NaN points are NaN.
    ``d`` is one law's degree, finite and > 1; an array of degrees, or a
    degree outside that rule, raises ``ValueError``.
    """
    if np.ndim(d):
        raise ValueError(f"need one degree d, got shape {np.shape(d)}")
    if not 1.0 < d < np.inf:
        raise ValueError(f"degree d must be finite and > 1, got {d}")
    return _on_open_support(
        lam, 0.0, 4.0 * (d - 1.0) / d,
        lambda x: d * np.sqrt(4.0 * (d - 1.0) - d * x) / (2.0 * np.pi * (d - x) * np.sqrt(d * x)))


def marchenko_pastur_density(lam: np.ndarray | float, beta: float) -> np.ndarray:
    """Dense-spreading limit law with unit mass and mean beta.

    Supported on ``[(1 - sqrt(beta))^2, (1 + sqrt(beta))^2]`` with density
    ``sqrt((lam - lo)(hi - lam)) / (2 pi lam)``.  This is the law of the
    N-dimensional Gram spectrum; the K-dimensional variant carries an extra
    1/beta and a point mass at zero and is not what the finite matrices
    produce here.  NaN points are NaN, and a bad load raises ``ValueError``.
    """
    beta = _check_loads(beta).item()  # one law: an array of loads raises ValueError
    lo = (1.0 - np.sqrt(beta)) ** 2
    hi = (1.0 + np.sqrt(beta)) ** 2
    return _on_open_support(lam, lo, hi,
                            lambda x: np.sqrt((x - lo) * (hi - x)) / (2.0 * np.pi * x))


def analytic_cdf(lam: np.ndarray | float, p: DensityParams) -> np.ndarray | float:
    """Distribution function of the limiting law: 0 below, 1 above support, NaN at NaN.

    ``lam`` of any shape gives an array of its shape (a float for a scalar);
    the quadrature runs on the flattened points.
    """
    lam = np.asarray(lam, dtype=np.float64)
    shape = lam.shape
    lam = lam.ravel()  # a view of a contiguous array: no copy for a 1-D pool
    nan = np.isnan(lam)
    if nan.any():  # a stand-in keeps NaN out of the quadrature; no copy otherwise
        lam = np.where(nan, p.lambda_minus, lam)
    out = quadrature.partial_integrals(
        lambda x: analytic_density(x, p), p.lambda_minus, p.lambda_plus, lam)
    out[lam >= p.lambda_plus] = 1.0
    out[nan] = np.nan
    return out.reshape(shape) if shape else float(out[0])


# ======================================================================
# Empirical spectra
# ======================================================================

def _sampled_eigenvalues(sample: Callable[..., SparseSignatureMatrix], spec: EnsembleSpec,
                         trials: int, skip: tuple[type[Exception], ...] = ()) -> np.ndarray:
    """Eigenvalues of A A^T / d of realizations 0 .. trials - 1, row t for draw t.

    ``sample(spec, realization=t)`` draws each matrix, and every draw writes
    its Gram matrix into one N x N buffer, so many draws do not allocate,
    and page-fault, a fresh one each.  A draw or eigensolve that raises one
    of ``skip`` leaves its row NaN; any other error propagates at that draw.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    g = np.empty((spec.n_resources, spec.n_resources))
    eigs = np.full((trials, spec.n_resources), np.nan)
    for t in range(trials):
        try:
            eigs[t] = np.linalg.eigvalsh(sample(spec, realization=t).gram(g))
        except skip:
            pass
    return eigs


def pooled_spectrum(spec: EnsembleSpec, trials: int) -> np.ndarray:
    """Eigenvalues of A A^T / d of regular realizations 0 .. trials - 1,
    each draw's in ascending order, concatenated in realization order.

    In ONES mode the all-ones vector is an exact eigenvector of a regular
    matrix and contributes a deterministic eigenvalue beta * d; values
    within ``TRIVIAL_TOL`` of it are dropped so distribution comparisons
    see the random part only.  The pool is a single result: a draw or
    eigensolve that fails raises its own exception at that draw.
    """
    eigs = _sampled_eigenvalues(generate_regular, spec, trials)
    if spec.entry_mode is EntryMode.ONES:
        bd = float(spec.beta * spec.col_degree)
        return eigs[np.abs(eigs - bd) > TRIVIAL_TOL]
    return eigs.ravel()


def _nonempty(eigenvalues: np.ndarray) -> np.ndarray:
    """``eigenvalues`` as float64; none at all, or a NaN or inf, raises ValueError."""
    a = np.asarray(eigenvalues, dtype=np.float64)
    if not a.size:
        raise ValueError("need at least one eigenvalue")
    bad = ~np.isfinite(a)
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        raise ValueError(f"eigenvalues[{i}] = {a.flat[i]} is not finite")
    return a


def ks_distance(eigenvalues: np.ndarray, p: DensityParams) -> float:
    """Kolmogorov-Smirnov distance of pooled eigenvalues to the analytic law.

    An empty pool, or a NaN or infinite eigenvalue, raises ValueError.
    """
    pooled = np.sort(_nonempty(eigenvalues))
    n = pooled.size
    cdf = analytic_cdf(pooled, p)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(np.abs(cdf - i / n)),
                     np.max(np.abs(cdf - (i - 1.0) / n))))


def spectrum_histogram(eigenvalues: np.ndarray, p: DensityParams,
                       bins: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Density-normalized histogram over ``[lambda_minus - 0.1, lambda_plus + 0.1]``.

    Returns (bin centers, empirical density) of the pooled eigenvalues.
    Eigenvalues outside the padded range land in the edge bins via
    clipping so mass is never silently dropped; an empty pool, or a NaN or
    infinite eigenvalue, raises ValueError.
    """
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    pooled = _nonempty(eigenvalues)
    lo, hi = p.lambda_minus - 0.1, p.lambda_plus + 0.1
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.clip(pooled, lo, hi), bins=edges)
    widths = np.diff(edges)
    dens = counts / (pooled.size * widths)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, dens
