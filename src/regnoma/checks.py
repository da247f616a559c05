"""Registry of the numerical checks behind ``regnoma validate`` and the release gate.

Each :class:`Check` is data: a name, a level (``fast`` runs in seconds,
``full`` adds sampled ensembles), the acceptance criterion it serves, the
bounds its measurements must meet, and a function that measures them.
``validate`` and ``tests/test_acceptance.py`` (one criterion at a time) both
run it through :func:`run_checks`: one runner, one policy for a raising check.

A measuring function takes the ``seed`` of the sampled ensembles.
Wherever it reads the closed-form law, it calls this module's
``analytic_density``; the two cavity routes are held against the law's
closed-form transform, this module's ``gram_transform``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from . import throughput as tp
from .cavity import EDGE_GAP, GRAPH_EPSILON, cavity_on_graph, cavity_on_tree
from .ensembles import EnsembleSpec, EntryMode, generate_regular
from .spectra import (DensityParams, analytic_density, gram_transform, kesten_mckay_density,
                      ks_distance, marchenko_pastur_density, pooled_spectrum)

__all__ = ["Bound", "Gate", "Check", "run_checks", "CHECKS"]

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
    measure: Callable[[int], tuple[float, ...]]
    bounds: tuple[Bound, ...]


def run_checks(checks: Sequence[Check], seed: int) -> tuple[str, int, list[dict]]:
    """Run ``checks`` in order at ``seed``: the report (a PASS/FAIL line per check,
    then the count), the number failed and a record per gate.  A check that
    raises one of ``NUMERICAL_ERRORS`` fails with NaN gates and a line naming it."""
    lines, records, n_failed = [], [], 0
    for check in checks:
        try:
            values = check.measure(seed)
            gates = [Gate(b, float(v)) for b, v in zip(check.bounds, values, strict=True)]
            passed, detail = all(g.passed for g in gates), "; ".join(map(str, gates))
        except tp.NUMERICAL_ERRORS as exc:
            gates = [Gate(b, math.nan) for b in check.bounds]
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        n_failed += not passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {check.name}: {detail}")
        records += [{"check": check.name, **vars(g.bound), "value": g.value,
                     "margin": g.margin, "passed": g.passed} for g in gates]
    lines.append(f"{len(checks) - n_failed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", n_failed, records


# ======================================================================
# Closed-form and scalar-route checks
# ======================================================================

def _kesten_mckay(seed):
    diffs = []
    for d in (2.0, 3.0, 10.0):
        p = DensityParams(beta=1.0, d=d)
        width = p.lambda_plus - p.lambda_minus
        grid = np.linspace(p.lambda_minus + 1e-6 * width,
                           p.lambda_plus - 1e-6 * width, 1000)
        diffs.append(np.abs(analytic_density(grid, p) - kesten_mckay_density(grid, d)))
    return (np.max(diffs),)


_MOMENT_GRID = tuple(DensityParams(beta=beta, d=d) for beta in (1.0, 1.5, 2.0, 3.0)
                     for d in (2.0, 3.0, 4.0, 10.0))


def _moment(p: DensityParams, power: int) -> float:
    # support_integral: tol is absolute, and a pole just outside an edge can fool it
    return quadrature.support_integral(
        lambda lam: lam ** power * analytic_density(lam, p),
        p.lambda_minus, p.lambda_plus, tol=1e-10)


def _normalization(seed):
    return (np.max([abs(_moment(p, 0) - 1.0) for p in _MOMENT_GRID]),)


def _first_moment(seed):
    return (np.max([abs(_moment(p, 1) - p.beta) for p in _MOMENT_GRID]),)


def _marchenko_pastur(seed):
    beta, degrees = 1.5, (2.0, 4.0, 10.0, 40.0, 1000.0)
    params = [DensityParams(beta=beta, d=d) for d in degrees]
    lo = min((1.0 - math.sqrt(beta)) ** 2, *(p.lambda_minus for p in params))
    hi = max((1.0 + math.sqrt(beta)) ** 2, *(p.lambda_plus for p in params))
    grid = np.linspace(lo, hi, 2001)
    mp = marchenko_pastur_density(grid, beta)
    sups = np.array([np.abs(analytic_density(grid, p) - mp).max() for p in params])
    return np.min(sups[:-1] - sups[1:]), sups[-1]


def _scalar_cavity(seed):
    p = DensityParams(beta=1.5, d=2.0)
    grid = np.linspace(p.lambda_minus, p.lambda_plus, 512)
    _, tree = cavity_on_tree(p, grid + 1j * 1e-6)
    scalar = -tree.imag / np.pi
    interior = (grid > p.lambda_minus + EDGE_GAP) & (grid < p.lambda_plus - EDGE_GAP)
    return (int(np.isnan(scalar).sum()),
            np.max(np.abs(scalar - analytic_density(grid, p))[interior]))


def _routes_vs_closed_form(seed):
    # both cavity routes against the closed-form transform off the real axis;
    # on a regular draw the graph route reads only the degrees
    p = DensityParams(beta=1.5, d=2.0)
    w = np.array([0.5 + 0.5j, 2.0 + 0.05j, 6.0 + 1.0j, 1.0 + 0.001j, 3.0 + 0.2j])
    exact = gram_transform(w, p)[1]
    tree = cavity_on_tree(p, w)[1]
    graph = cavity_on_graph(generate_regular(_spec(1000, seed), realization=0), w).gram_transform
    # NaN fails the gate
    return tuple(np.max(np.abs(route - exact) / np.abs(exact)) for route in (tree, graph))


# ======================================================================
# Throughput checks
# ======================================================================

def _ordering(seed):
    table = tp.sweep(tp.SweepSpec(variable=tp.SweepVariable.LOAD,
                                  values=(1.0, 1.5, 2.0, 2.5, 3.0),
                                  d=2.0, ebno_db=10.0))
    reg, dense, cw = (table[c.value] for c in tp.DEFAULT_CURVES)
    return (table["failed"].sum(), np.min(reg - dense),
            np.min(cw - reg), np.min(cw - dense))


def _small_snr_slope(seed):
    snr, p = 1e-6, DensityParams(beta=1.5, d=2.0)
    slope = p.beta / (2.0 * tp.LN2)
    return (abs(tp.regular_throughput(snr, p) / snr / slope - 1.0),
            abs(tp.dense_rs_throughput(snr, p.beta) / snr / slope - 1.0))


def _quadrature_stability(seed):
    # support_integral: tol is absolute, and a pole just outside an edge can fool it
    p = DensityParams(beta=1.5, d=2.0)
    doubled = 0.5 * quadrature.support_integral(
        lambda lam: analytic_density(lam, p), p.lambda_minus, p.lambda_plus,
        weight=lambda lam: np.log1p(10.0 * lam) / tp.LN2, tol=1e-9, n_start=64)
    return (abs(tp.regular_throughput(10.0, p) - doubled),)


def _closed_form_vs_quadrature(seed):
    # the closed-form regular curve against the quadrature of the closed-form law
    # support_integral: tol is absolute, and a pole just outside an edge can fool it
    # one quadrature per (beta, d), the five snrs as the rows of one weight
    snrs = np.array([1e-3, 1.0, 10.0, 1e3, 1e5])
    err = 0.0
    for beta in (1.0, 1.5, 3.0):
        for d in (2.0, 4.0, 10.0):
            p = DensityParams(beta=beta, d=d)
            quads = 0.5 * quadrature.support_integral(
                lambda lam: analytic_density(lam, p),
                p.lambda_minus, p.lambda_plus,
                weight=lambda lam: np.log1p(np.multiply.outer(snrs, lam)) / tp.LN2)
            err = max(err, np.max(np.abs(tp.regular_throughput(snrs, p) / quads - 1.0)))
    return (err,)


def _high_snr_offset(seed):
    # as snr -> inf, 2 ln2 C - ln snr -> E[ln lam], and the regular law's E[ln lam]
    # exceeds the Marchenko-Pastur one by 1 + (k - 1) ln((k - 1)/k) at k = beta d;
    # beta > 1 only, since at beta = 1 the support reaches lam = 0, where ln lam diverges
    # support_integral: tol is absolute, and a pole just outside an edge can fool it
    snr, offset_errs, limit_errs = 1e12, [], []
    for p in (q for q in _MOMENT_GRID if q.beta > 1.0):
        k = p.beta * p.d
        log_moment = quadrature.support_integral(
            lambda lam: analytic_density(lam, p), p.lambda_minus, p.lambda_plus,
            weight=np.log, tol=1e-12)
        mp = (p.beta - 1.0) * math.log(p.beta / (p.beta - 1.0)) - 1.0 + math.log(p.beta)
        offset_errs.append(abs(log_moment - mp - (1.0 + (k - 1.0) * math.log((k - 1.0) / k))))
        limit_errs.append(abs(2.0 * tp.LN2 * tp.regular_throughput(snr, p) - math.log(snr)
                              - log_moment))
    return np.max(offset_errs), np.max(limit_errs)  # NaN fails the gate


def _ebno_round_trip(seed):
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


def _scaled_spectrum(seed):
    from scipy.stats import ks_2samp  # ~1 s to import; keep it off the CLI start-up

    p = DensityParams(beta=1.5, d=2.0)
    ks, pools = [], []
    for mode in (EntryMode.ONES, EntryMode.RADEMACHER):
        pools.append(pooled_spectrum(_spec(520, seed, mode), 200))
        ks.append(ks_distance(pools[-1], p))
    return (*ks, ks_2samp(*pools).statistic)


def _graph_route(seed):
    p = DensityParams(beta=1.5, d=2.0)
    matrix = generate_regular(_spec(1000, seed), realization=0)
    width = p.lambda_plus - p.lambda_minus
    grid = np.linspace(p.lambda_minus + 0.03 * width,
                       p.lambda_plus - 0.03 * width, 64)
    density = cavity_on_graph(matrix, grid + 1j * GRAPH_EPSILON).density
    # NaN fails the gate
    return (np.max(np.abs(density - analytic_density(grid, p))),)


def _finite_n_vs_asymptotic(seed):
    p = DensityParams(beta=1.5, d=2.0)
    targets = np.array([tp.db_to_linear(ebno_db) for ebno_db in (4.0, 7.0, 10.0, 13.0)])
    snrs = tp.snr_for_ebno(targets, p.beta, p.d)
    asymptotic = tp.regular_throughput(snrs, p)
    mc = tp.finite_n_throughput_mc(_spec(10, seed), snrs, 10_000)
    return mc.n_failed, np.max(np.abs(mc.mean - asymptotic) / asymptotic)


def _regular_vs_irregular(seed):
    espec = _spec(200, seed)
    reg = tp.finite_n_throughput_mc(espec, 10.0, 200)
    irr = tp.finite_n_throughput_mc(espec, 10.0, 200, irregular=True)
    # the regular draws also hold the Monte Carlo against the closed form
    asymptotic = tp.regular_throughput(10.0, DensityParams(beta=1.5, d=2.0))
    return ((reg.mean - irr.mean) / math.hypot(reg.stderr, irr.stderr),
            abs(reg.mean - asymptotic) - 3.0 * reg.stderr)


def _full_scale_spectrum(seed):
    pooled = pooled_spectrum(_spec(2600, seed), 1000)
    return (ks_distance(pooled, DensityParams(beta=1.5, d=2.0)),)


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
    Check("routes_vs_closed_form", "fast", None, _routes_vs_closed_form,
          (Bound("tree_max_rel_err", "<", 1e-10), Bound("graph_max_rel_err", "<", 1e-6))),
    Check("high_snr_offset", "fast", None, _high_snr_offset,
          (Bound("max_abs_offset_err", "<", 1e-12), Bound("max_abs_limit_err", "<", 1e-10))),
    Check("scaled_spectrum_ks", "full", 5, _scaled_spectrum,
          (Bound("ks_ones", "<", 0.02), Bound("ks_rademacher", "<", 0.02),
           Bound("ks_ones_vs_rademacher", "<", 0.02))),
    Check("graph_route_agreement", "full", 4, _graph_route,
          (Bound("sup_abs_err", "<", 0.05),)),
    Check("finite_n_vs_asymptotic", "full", 6, _finite_n_vs_asymptotic,
          (Bound("n_failed_trials", "==", 0), Bound("max_rel_err", "<", 0.05))),
    Check("regular_vs_irregular", "full", 8, _regular_vs_irregular,
          (Bound("gap_over_pooled_stderr", ">", 5.0),
           Bound("abs_err_minus_3_stderr", "<", 0.01))),
    Check("full_scale_spectrum_ks", "full", None, _full_scale_spectrum,
          (Bound("ks", "<", 0.02),)),
)
