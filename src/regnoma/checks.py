"""Registry of the numerical checks behind ``regnoma validate`` and the release gate.

Each :class:`Check` is data: a name, a level (``fast`` runs in seconds,
``full`` adds sampled ensembles), the acceptance criterion it serves, the
bounds its measurements must meet, and a function that measures them.
``validate`` runs the registry and ``tests/test_acceptance.py`` runs it one
criterion at a time, so both hold the same checks at the same tolerances.

A measuring function takes ``(density, seed)``.  ``density(lam, p)`` is
the law that the check evaluates wherever it reads the closed form;
callers pass :func:`~regnoma.spectra.analytic_density`, or a corrupted copy
to show that the checks catch it.  The throughput layer takes no density,
so a corrupted law reaches only the checks that evaluate ``density``
themselves; the others measure the same values under either law.  ``seed``
seeds the sampled ensembles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from . import throughput as tp
from .cavity import graph_route_density, stieltjes_inversion
from .ensembles import EnsembleSpec, EntryMode, generate_regular
from .spectra import (DensityParams, empirical_spectrum, kesten_mckay_density,
                      ks_distance, marchenko_pastur_density)

__all__ = ["Bound", "Gate", "Check", "CHECKS"]

Density = Callable[[np.ndarray, DensityParams], np.ndarray]

_OPS = {"<": operator.lt, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Bound:
    """Requirement ``value op tolerance`` on one measured quantity."""

    quantity: str
    op: str
    tolerance: float


@dataclass(frozen=True)
class Gate:
    """A measured value held against its bound; NaN never passes."""

    bound: Bound
    value: float

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.bound.op](self.value, self.bound.tolerance))

    @property
    def margin(self) -> float:
        """Distance to the tolerance, positive when the gate passes with room;
        an equality gate has no room and reads ``-|value - tolerance|``."""
        b = self.bound
        if b.op == "==":
            return 0.0 - abs(self.value - b.tolerance)  # 0.0, not -0.0, when met
        if b.op == "<":
            return b.tolerance - self.value
        return self.value - b.tolerance

    def __str__(self) -> str:
        b = self.bound
        return f"{b.quantity} = {self.value:.4g} (need {b.op} {b.tolerance:g})"


@dataclass(frozen=True)
class Check:
    """A named check; it passes when every one of its gates passes."""

    name: str
    level: str
    criterion: int | None
    measure: Callable[[Density, int], tuple[float, ...]]
    bounds: tuple[Bound, ...]

    def run(self, density: Density, seed: int) -> list[Gate]:
        values = self.measure(density, seed)
        return [Gate(b, float(v)) for b, v in zip(self.bounds, values, strict=True)]


def _column(rows: list[dict], key: str) -> np.ndarray:
    return np.array([row[key] for row in rows], dtype=np.float64)  # None -> NaN


# ======================================================================
# Closed-form and scalar-route checks
# ======================================================================

def _kesten_mckay(density, seed):
    diffs = []
    for d in (2.0, 3.0, 10.0):
        p = DensityParams(beta=1.0, d=d)
        width = p.lambda_plus - p.lambda_minus
        grid = np.linspace(p.lambda_minus + 1e-6 * width,
                           p.lambda_plus - 1e-6 * width, 1000)
        diffs.append(np.abs(density(grid, p) - kesten_mckay_density(grid, d)))
    return (np.max(diffs),)


_MOMENT_GRID = tuple(DensityParams(beta=beta, d=d) for beta in (1.0, 1.5, 2.0, 3.0)
                     for d in (2.0, 3.0, 4.0, 10.0))


def _moment(density, p: DensityParams, power: int) -> float:
    return quadrature.support_integral(lambda lam: lam ** power * density(lam, p),
                                       p.lambda_minus, p.lambda_plus, tol=1e-10)


def _normalization(density, seed):
    return (np.max([abs(_moment(density, p, 0) - 1.0) for p in _MOMENT_GRID]),)


def _first_moment(density, seed):
    return (np.max([abs(_moment(density, p, 1) - p.beta) for p in _MOMENT_GRID]),)


def _marchenko_pastur(density, seed):
    beta, degrees = 1.5, (2.0, 4.0, 10.0, 40.0, 1000.0)
    params = [DensityParams(beta=beta, d=d) for d in degrees]
    lo = min((1.0 - math.sqrt(beta)) ** 2, *(p.lambda_minus for p in params))
    hi = max((1.0 + math.sqrt(beta)) ** 2, *(p.lambda_plus for p in params))
    grid = np.linspace(lo, hi, 2001)
    mp = marchenko_pastur_density(grid, beta)
    sups = np.array([np.abs(density(grid, p) - mp).max() for p in params])
    return np.min(sups[:-1] - sups[1:]), sups[-1]


def _scalar_cavity(density, seed):
    p = DensityParams(beta=1.5, d=2.0)
    grid = np.linspace(p.lambda_minus, p.lambda_plus, 512)
    scalar = stieltjes_inversion(grid, p, epsilon=1e-6)
    # the inversion is ill-conditioned right at the square-root edges
    interior = (grid > p.lambda_minus + 1e-3) & (grid < p.lambda_plus - 1e-3)
    return (int(np.isnan(scalar).sum()),
            np.max(np.abs(scalar - density(grid, p))[interior]))


# ======================================================================
# Throughput checks
# ======================================================================

def _ordering(density, seed):
    rows = tp.sweep(tp.SweepSpec(variable=tp.SweepVariable.LOAD,
                                 values=(1.0, 1.5, 2.0, 2.5, 3.0),
                                 d=2.0, ebno_db=10.0))
    reg, dense, cw = (_column(rows, k) for k in ("regular", "dense_rs", "cover_wyner"))
    return (sum(row["failed"] for row in rows), np.min(reg - dense),
            np.min(cw - reg), np.min(cw - dense))


def _small_snr_slope(density, seed):
    snr, p = 1e-6, DensityParams(beta=1.5, d=2.0)
    slope = p.beta / (2.0 * tp.LN2)
    return (abs(tp.regular_throughput(snr, p) / snr / slope - 1.0),
            abs(tp.dense_rs_throughput(snr, p.beta) / snr / slope - 1.0))


def _quadrature_stability(density, seed):
    p = DensityParams(beta=1.5, d=2.0)
    doubled = 0.5 * quadrature.support_integral(
        lambda lam: density(lam, p), p.lambda_minus, p.lambda_plus,
        weight=lambda lam: np.log1p(10.0 * lam) / tp.LN2, tol=1e-9, n_start=64)
    return (abs(tp.regular_throughput(10.0, p) - doubled),)


def _closed_form_vs_quadrature(density, seed):
    # the closed-form regular curve against the quadrature of the given law
    errs = []
    for beta in (1.0, 1.5, 3.0):
        for d in (2.0, 4.0, 10.0):
            p = DensityParams(beta=beta, d=d)
            for snr in (1e-3, 1.0, 10.0, 1e3, 1e5):
                quad = 0.5 * quadrature.support_integral(
                    lambda lam: density(lam, p), p.lambda_minus, p.lambda_plus,
                    weight=lambda lam: np.log1p(snr * lam) / tp.LN2)
                errs.append(abs(tp.regular_throughput(snr, p) / quad - 1.0))
    return (max(errs),)


def _ebno_round_trip(density, seed):
    target, p = tp.db_to_linear(10.0), DensityParams(beta=1.5, d=2.0)
    snr = tp.snr_for_ebno(target, p.beta, p.d)
    back = tp.ebno_from_snr(snr, p.beta, tp.regular_throughput(snr, p))
    return (abs(back / target - 1.0),)


# ======================================================================
# Sampled-ensemble checks
# ======================================================================

def _spec(n: int, seed: int, mode: EntryMode = EntryMode.RADEMACHER) -> EnsembleSpec:
    """The sampled ensemble at load 1.5 and degree 2 with n resources."""
    return EnsembleSpec.from_load(n, 1.5, 2, mode, seed)


def _scaled_spectrum(density, seed):
    from scipy.stats import ks_2samp  # ~1 s to import; keep it off the CLI start-up

    p = DensityParams(beta=1.5, d=2.0)
    ks, pools = [], []
    for mode in (EntryMode.ONES, EntryMode.RADEMACHER):
        espec = _spec(520, seed, mode)
        samples = [empirical_spectrum(generate_regular(espec, realization=t))
                   for t in range(200)]
        ks.append(ks_distance(samples, p))
        pools.append(np.concatenate([s.nontrivial() for s in samples]))
    return (*ks, ks_2samp(*pools).statistic)


def _graph_route(density, seed):
    p = DensityParams(beta=1.5, d=2.0)
    matrix = generate_regular(_spec(1000, seed), realization=0)
    width = p.lambda_plus - p.lambda_minus
    grid = np.linspace(p.lambda_minus + 0.03 * width,
                       p.lambda_plus - 0.03 * width, 64)
    route = graph_route_density(matrix, grid)
    return (np.max(np.abs(route.density - density(grid, p))),)  # NaN fails the gate


def _mc_vs_closed_form(density, seed):
    res = tp.finite_n_throughput_mc(_spec(200, seed), 10.0, 100)
    asymptotic = tp.regular_throughput(10.0, DensityParams(beta=1.5, d=2.0))
    return (abs(res.mean - asymptotic) - 3.0 * res.stderr,)


def _finite_n_vs_asymptotic(density, seed):
    p, espec = DensityParams(beta=1.5, d=2.0), _spec(10, seed)
    n_failed, rel_errs = 0, []
    for ebno_db in (4.0, 7.0, 10.0, 13.0):
        snr = tp.snr_for_ebno(tp.db_to_linear(ebno_db), p.beta, p.d)
        asymptotic = tp.regular_throughput(snr, p)
        mc = tp.finite_n_throughput_mc(espec, snr, 10_000)
        n_failed += mc.n_failed
        rel_errs.append(abs(mc.mean - asymptotic) / asymptotic)
    return n_failed, np.max(rel_errs)


def _regular_vs_irregular(density, seed):
    espec = _spec(200, seed)
    reg = tp.finite_n_throughput_mc(espec, 10.0, 200)
    irr = tp.finite_n_throughput_mc(espec, 10.0, 200, irregular=True)
    return ((reg.mean - irr.mean) / math.hypot(reg.stderr, irr.stderr),)


def _full_scale_spectrum(density, seed):
    espec = _spec(2600, seed)
    samples = [empirical_spectrum(generate_regular(espec, realization=t))
               for t in range(1000)]
    return (ks_distance(samples, DensityParams(beta=1.5, d=2.0)),)


CHECKS = (
    Check("kesten_mckay_identity", "fast", 1, _kesten_mckay,
          (Bound("max_abs_diff", "<", 1e-12),)),
    Check("density_normalization", "fast", 2, _normalization,
          (Bound("max_abs_mass_err", "<", 1e-8),)),
    Check("density_first_moment", "fast", 2, _first_moment,
          (Bound("max_abs_mean_err", "<", 1e-6),)),
    Check("marchenko_pastur_limit", "fast", 3, _marchenko_pastur,
          (Bound("min_sup_decrease", ">", 0.0), Bound("sup_abs_diff_d1000", "<", 1e-2))),
    Check("scalar_cavity_agreement", "fast", 4, _scalar_cavity,
          (Bound("n_failed_points", "==", 0), Bound("interior_sup_abs_err", "<", 1e-3))),
    Check("throughput_ordering", "fast", 7, _ordering,
          (Bound("n_failed_rows", "==", 0),
           Bound("min_regular_minus_dense_rs", ">", 0.0),
           Bound("min_cover_wyner_minus_regular", ">=", 0.0),
           Bound("min_cover_wyner_minus_dense_rs", ">=", 0.0))),
    Check("small_snr_slope", "fast", 9, _small_snr_slope,
          (Bound("regular_rel_slope_err", "<", 1e-3), Bound("dense_rs_rel_slope_err", "<", 1e-3))),
    Check("quadrature_stability", "fast", None, _quadrature_stability,
          (Bound("abs_diff_doubled_start", "<", 1e-9),)),
    Check("ebno_round_trip", "fast", None, _ebno_round_trip,
          (Bound("rel_err", "<", 1e-6),)),
    Check("throughput_closed_form_vs_quadrature", "fast", None, _closed_form_vs_quadrature,
          (Bound("max_rel_err", "<", 1e-9),)),
    Check("scaled_spectrum_ks", "full", 5, _scaled_spectrum,
          (Bound("ks_ones", "<", 0.02), Bound("ks_rademacher", "<", 0.02),
           Bound("ks_ones_vs_rademacher", "<", 0.02))),
    Check("graph_route_agreement", "full", 4, _graph_route,
          (Bound("sup_abs_err", "<", 0.05),)),
    Check("mc_vs_closed_form", "full", None, _mc_vs_closed_form,
          (Bound("abs_err_minus_3_stderr", "<", 0.01),)),
    Check("finite_n_vs_asymptotic", "full", 6, _finite_n_vs_asymptotic,
          (Bound("n_failed_trials", "==", 0), Bound("max_rel_err", "<", 0.05))),
    Check("regular_vs_irregular", "full", 8, _regular_vs_irregular,
          (Bound("gap_over_pooled_stderr", ">", 5.0),)),
    Check("full_scale_spectrum_ks", "full", None, _full_scale_spectrum,
          (Bound("ks", "<", 0.02),)),
)
