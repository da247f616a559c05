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
from typing import Iterable

import numpy as np

from . import quadrature
from .ensembles import EnsembleSpec, EntryMode, SparseSignatureMatrix

__all__ = [
    "DensityParams",
    "SpectrumSample",
    "analytic_density",
    "kesten_mckay_density",
    "marchenko_pastur_density",
    "analytic_cdf",
    "empirical_spectrum",
    "ks_distance",
    "spectrum_histogram",
]

TRIVIAL_TOL = 1e-6


@dataclass(frozen=True)
class DensityParams:
    """Parameters (beta, d) of the limiting law plus derived constants.

    beta : real load K/N, >= 1.
    d : real column degree, >= 1 + 1/beta, where the closed form is a
        probability law.  Non-integer d is allowed; the density extends
        analytically and is used for the dense-limit comparisons.
    """

    beta: float
    d: float

    def __post_init__(self) -> None:
        if not self.beta >= 1.0:
            raise ValueError(f"load beta must be >= 1, got {self.beta}")
        if not self.d >= 1.0 + 1.0 / self.beta:
            raise ValueError(f"degree d must be >= 1 + 1/beta = {1.0 + 1.0 / self.beta}"
                             f" at beta = {self.beta}, got {self.d}")

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
        if self.beta == 1.0:
            return 0.0
        return max(self.alpha + self.gamma - 2.0 * np.sqrt(self.alpha * self.gamma), 0.0)

    @cached_property
    def lambda_plus(self) -> float:
        return self.alpha + self.gamma + 2.0 * np.sqrt(self.alpha * self.gamma)


def analytic_density(lam: np.ndarray | float, p: DensityParams) -> np.ndarray | float:
    """Limiting eigenvalue density of A A^T / d, zero off the open support.

    Support edges evaluate to 0.  For beta = 1 the density is improper at
    lam = 0 (inverse square root); 0 is outside the open support so the
    returned value there is 0 and integration uses interior nodes only.
    """
    lam = np.asarray(lam, dtype=np.float64)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.zeros_like(lam)
    lo, hi = p.lambda_minus, p.lambda_plus
    m = (lam > lo) & (lam < hi)
    x = lam[m]
    bd = p.beta * p.d
    out[m] = bd / (2.0 * np.pi) * np.sqrt((hi - x) * (x - lo)) / ((bd - x) * x)
    return float(out[0]) if scalar else out


def kesten_mckay_density(lam: np.ndarray | float, d: float) -> np.ndarray:
    """Kesten-McKay density of squared d-regular adjacency spectra.

    Supported on [0, 4(d-1)/d]; edge values are 0 by convention (the upper
    edge diverges only in the degenerate case d = 2).
    """
    if not d > 1.0:
        raise ValueError(f"degree d must be > 1, got {d}")
    lam = np.asarray(lam, dtype=np.float64)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.zeros_like(lam)
    hi = 4.0 * (d - 1.0) / d
    m = (lam > 0.0) & (lam < hi)
    x = lam[m]
    out[m] = d * np.sqrt(4.0 * (d - 1.0) - d * x) / (2.0 * np.pi * (d - x) * np.sqrt(d * x))
    return float(out[0]) if scalar else out


def marchenko_pastur_density(lam: np.ndarray | float, beta: float) -> np.ndarray:
    """Dense-spreading limit law with unit mass and mean beta.

    Supported on ``[(1 - sqrt(beta))^2, (1 + sqrt(beta))^2]`` with density
    ``sqrt((lam - lo)(hi - lam)) / (2 pi lam)``.  This is the law of the
    N-dimensional Gram spectrum; the K-dimensional variant carries an extra
    1/beta and a point mass at zero and is not what the finite matrices
    produce here.
    """
    if not beta >= 1.0:
        raise ValueError(f"load beta must be >= 1, got {beta}")
    lam = np.asarray(lam, dtype=np.float64)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.zeros_like(lam)
    lo = (1.0 - np.sqrt(beta)) ** 2
    hi = (1.0 + np.sqrt(beta)) ** 2
    m = (lam > lo) & (lam < hi)
    x = lam[m]
    out[m] = np.sqrt((x - lo) * (hi - x)) / (2.0 * np.pi * x)
    return float(out[0]) if scalar else out


def analytic_cdf(lam: np.ndarray | float, p: DensityParams) -> np.ndarray | float:
    """Distribution function of the limiting law, 0 below and 1 above support."""
    lam = np.asarray(lam, dtype=np.float64)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = quadrature.partial_integrals(
        lambda x: analytic_density(x, p), p.lambda_minus, p.lambda_plus, lam)
    out[lam <= p.lambda_minus] = 0.0
    out[lam >= p.lambda_plus] = 1.0
    return float(out[0]) if scalar else out


# ======================================================================
# Empirical spectra
# ======================================================================

@dataclass
class SpectrumSample:
    """Sorted Gram eigenvalues of one realization with trivial-value flags.

    In ONES mode the all-ones vector is an exact eigenvector of a regular
    matrix and contributes a deterministic eigenvalue beta * d; such values
    carry a flag so distribution comparisons can drop them.
    """

    eigenvalues: np.ndarray
    trivial: np.ndarray
    spec: EnsembleSpec

    def nontrivial(self) -> np.ndarray:
        return self.eigenvalues[~self.trivial]


def empirical_spectrum(matrix: SparseSignatureMatrix) -> SpectrumSample:
    """Eigendecompose A A^T / d and flag deterministic eigenvalues.

    A failed eigensolve raises ``np.linalg.LinAlgError``.
    """
    eigs = np.linalg.eigvalsh(matrix.gram())
    spec = matrix.spec
    trivial = np.zeros(eigs.size, dtype=bool)
    if spec.entry_mode is EntryMode.ONES and not matrix.irregular:
        bd = float(spec.beta * spec.col_degree)
        trivial = np.abs(eigs - bd) <= TRIVIAL_TOL
    return SpectrumSample(eigenvalues=eigs, trivial=trivial, spec=spec)


def _pool(samples: Iterable[SpectrumSample] | SpectrumSample) -> np.ndarray:
    """Sorted pooled eigenvalues, flagged trivial values dropped."""
    if isinstance(samples, SpectrumSample):
        samples = [samples]
    parts = [s.nontrivial() for s in samples]
    if not parts:
        raise ValueError("need at least one spectrum sample")
    pooled = np.concatenate(parts)
    if pooled.size == 0:
        raise ValueError("no eigenvalues left after trivial exclusion")
    return np.sort(pooled)


def ks_distance(samples: Iterable[SpectrumSample] | SpectrumSample,
                p: DensityParams) -> float:
    """Kolmogorov-Smirnov distance of pooled nontrivial eigenvalues to the analytic law."""
    pooled = _pool(samples)
    n = pooled.size
    cdf = analytic_cdf(pooled, p)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(np.abs(cdf - i / n)),
                     np.max(np.abs(cdf - (i - 1.0) / n))))


def spectrum_histogram(samples: Iterable[SpectrumSample] | SpectrumSample,
                       p: DensityParams,
                       bins: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Density-normalized histogram over ``[lambda_minus - 0.1, lambda_plus + 0.1]``.

    Returns (bin centers, empirical density) of the pooled nontrivial
    eigenvalues.  Eigenvalues outside the padded range land in the edge
    bins via clipping so mass is never silently dropped.
    """
    pooled = _pool(samples)
    lo, hi = p.lambda_minus - 0.1, p.lambda_plus + 0.1
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.clip(pooled, lo, hi), bins=edges)
    widths = np.diff(edges)
    dens = counts / (pooled.size * widths)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, dens
