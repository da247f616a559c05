"""Total achievable throughput per resource of sparse and dense spreading.

The asymptotic throughput at signal-to-noise ratio ``snr`` is the spectral
average

    C(snr) = 1/2 * integral log2(1 + snr * lam) rho(lam) dlam

in bits per resource use, evaluated against the regular-ensemble law, the
dense-spreading (Marchenko-Pastur) reference, or bounded by the orthogonal
multiple-access value ``1/2 log2(1 + beta snr)``.  The finite-size
counterpart averages ``1/(2N) sum log2(1 + snr lam_i)`` over sampled
matrices.  Energy-per-bit ratios follow from ``Eb/N0 = beta snr / (2 C)``
and are inverted by a bracketed secant search in log snr; the small-snr
limit of that map is ln 2 for every curve.  The regular curve is always its
exact closed form, read off the law's transform at ``w = -1/snr`` (see
:func:`regular_throughput`), so no function here takes a density; the dense
reference is integrated numerically.  Every curve takes 1-D arrays of snrs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from . import quadrature
from .ensembles import (EnsembleSpec, EntryMode, GenerationError,
                        _bernoulli_probability, generate_irregular, generate_regular)
from .spectra import (DensityParams, _check_loads, _sampled_eigenvalues, gram_transform,
                      marchenko_pastur_density)

__all__ = [
    "NUMERICAL_ERRORS",
    "Curve",
    "DEFAULT_CURVES",
    "SWEEP_COLUMNS",
    "SweepVariable",
    "SweepSpec",
    "MCResult",
    "regular_throughput",
    "dense_rs_throughput",
    "cover_wyner_bound",
    "ebno_from_snr",
    "snr_for_ebno",
    "finite_n_throughput_mc",
    "sweep",
    "db_to_linear",
]

LN2 = math.log(2.0)
SNR_BRACKET = (1e-6, 1e6)  # the bracket of the Eb/N0 search, and the range of a fixed snr
LOG_SNR_TOL = 1e-14  # final bracket width of the Eb/N0 inversion, in ln snr

# what a single numerical result raises; batches catch exactly these, mark
# the item failed and count it (density routes return NaN per point instead)
NUMERICAL_ERRORS = (quadrature.QuadratureError, GenerationError, np.linalg.LinAlgError)


class Curve(Enum):
    """A throughput curve; its value names the curve's sweep column."""

    REGULAR = "regular"
    DENSE_RS = "dense_rs"
    COVER_WYNER = "cover_wyner"
    REGULAR_MC = "regular_mc"
    IRREGULAR_MC = "irregular_mc"


DEFAULT_CURVES = (Curve.REGULAR, Curve.DENSE_RS, Curve.COVER_WYNER)
# the curves snr_for_ebno selects by name; the others run at the regular
# curve's snr, selected by the degree
_NAMED_CURVES = (Curve.DENSE_RS, Curve.COVER_WYNER)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _check_snrs(snr: float | np.ndarray, beta: float | np.ndarray = 1.0
                ) -> tuple[np.ndarray, np.ndarray]:
    """Every curve's input rule: a scalar or 1-D array of snrs, finite and >= 0,
    and one load or a load per snr (:func:`~regnoma.spectra._check_loads`), as
    checked 1-D float arrays of one length; any other input raises ``ValueError``."""
    if np.ndim(snr) > 1:
        raise ValueError(f"snr must be a scalar or a 1-D array, got shape {np.shape(snr)}")
    snrs = np.atleast_1d(np.asarray(snr, dtype=np.float64))
    bad = ~(np.isfinite(snrs) & (snrs >= 0.0))
    if bad.any():
        raise ValueError(f"snr must be finite and >= 0, got {snrs[bad][0]}")
    if np.ndim(beta) and np.shape(beta) != np.shape(snr):
        raise ValueError(f"beta must be a scalar or of the snrs' shape, got {np.shape(beta)}")
    return snrs, np.broadcast_to(_check_loads(beta), snrs.shape)


def regular_throughput(snr: float | np.ndarray, p: DensityParams) -> float | np.ndarray:
    """Asymptotic throughput of the regular ensemble, bits per resource use.

    The spectral average of the closed-form law is exact: with
    ``t2 = snr / d`` and the cavity pair (u, r),

        2 ln2 C = ln(1 + beta d t2 u) + beta ln(1 + d t2 r)
                  - beta d ln(1 + t2 u r).

    This is the Bethe free energy of ``log det(I + snr A A^T / d) / N`` on
    the biregular tree, the local limit of the sampled graphs: ``u`` and
    ``r`` are the user-side and resource-side cavity variances of the
    precision matrix ``[[I, i t A], [i t A^T, I]]``.  Their fixed point is
    the law's transform at ``w = -1/snr``: with ``delta`` of
    :func:`~regnoma.spectra.gram_transform` there,

        r = -delta / snr,    u = 1 / (1 - alpha delta),

    and ``delta``'s root does not cancel at real ``w < 0``, so every snr
    keeps its digits.  The energy is stationary in both, so rounding in
    (u, r) enters ``C`` only at second order.  Below snr 1e-300, where
    ``-1/snr`` can overflow, ``C`` is its first-order term
    ``beta snr / (2 ln2)``, exact to rounding there; snr 0 gives +0.0.

    ``snr`` is a scalar (giving a float) or a 1-D array, whose values are
    the bits of scalar calls.  ``p`` may be a batch of laws of the array's
    length (see :class:`~regnoma.spectra.DensityParams`), one law per snr;
    a batch of any other length raises ``ValueError`` before any work.
    """
    # a batch of laws, whichever of beta and d makes it, has one law per snr
    laws = np.broadcast_shapes(np.shape(p.beta), np.shape(p.d))
    snrs = _check_snrs(snr, np.broadcast_to(p.beta, laws))[0]
    tiny = snrs < 1e-300
    s = np.where(tiny, 1.0, snrs)
    delta = gram_transform(-1.0 / s, p)[0].real
    t2, bd = s / p.d, p.beta * p.d
    u, r = 1.0 / (1.0 - p.alpha * delta), -delta / s
    out = np.where(tiny, p.beta * snrs, np.log1p(bd * t2 * u) + p.beta * np.log1p(p.d * t2 * r)
                   - bd * np.log1p(t2 * u * r)) / (2.0 * LN2)
    return float(out[0]) if np.ndim(snr) == 0 else out


def dense_rs_throughput(snr: float | np.ndarray, beta: float | np.ndarray) -> float | np.ndarray:
    """Dense random-spreading reference throughput from the Marchenko-Pastur law.

    ``snr`` is a scalar or a 1-D array, and ``beta`` one load or one per snr.
    Each distinct load takes one :func:`~regnoma.quadrature.support_integral`
    call, a weight row per snr, so each snr keeps the bits of a scalar call.
    A bad snr or load (see :func:`_check_snrs`) raises before any quadrature.
    """
    snrs, betas = _check_snrs(snr, beta)
    out = np.empty(snrs.size)
    for b in dict.fromkeys(betas.tolist()):
        rows = betas == b
        s = snrs[rows]
        out[rows] = 0.5 * quadrature.support_integral(
            lambda lam: marchenko_pastur_density(lam, b),
            (1.0 - math.sqrt(b)) ** 2, (1.0 + math.sqrt(b)) ** 2,
            weight=lambda lam: np.log1p(np.multiply.outer(s, lam)) / LN2)
    return float(out[0]) if np.ndim(snr) == 0 else out


def cover_wyner_bound(snr: float | np.ndarray, beta: float | np.ndarray) -> float | np.ndarray:
    """Orthogonal multiple-access ceiling ``1/2 log2(1 + beta snr)``, at a
    scalar or 1-D array of snrs and one load or a load per snr."""
    snrs, betas = _check_snrs(snr, beta)
    out = 0.5 * np.log1p(betas * snrs) / LN2
    return float(out[0]) if np.ndim(snr) == 0 else out


def ebno_from_snr(snr: float | np.ndarray, beta: float | np.ndarray,
                  c: float | np.ndarray) -> float | np.ndarray:
    """Linear energy-per-bit ratio ``beta * snr / (2 C)`` at throughput ``C``.

    ``snr`` and ``c`` are scalars, or 1-D arrays of one length, and ``beta``
    one load or a load per snr.
    """
    (snrs, betas), cs = _check_snrs(snr, beta), np.atleast_1d(np.asarray(c, dtype=np.float64))
    if not (cs > 0.0).all():
        raise ValueError(f"throughput must be positive, got {c}")
    out = betas * snrs / (2.0 * cs)
    return float(out[0]) if np.ndim(snr) == 0 else out


def _at(v, rows: np.ndarray):
    """A parameter's value at ``rows``: a scalar is every row's, an array has one per row."""
    return v if np.ndim(v) == 0 else v[rows]


def _curve_throughput(beta: float | np.ndarray, d: float | np.ndarray | Curve
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """The curve that ``d`` selects, at a 1-D array of snrs.  ``beta`` and a
    degree ``d`` are scalars or arrays with a value per snr, one curve per
    snr."""
    if d is Curve.DENSE_RS:
        return lambda snrs: dense_rs_throughput(snrs, beta)
    if d is Curve.COVER_WYNER:
        return lambda snrs: cover_wyner_bound(snrs, beta)
    if isinstance(d, (Curve, str)):
        raise ValueError(f"unknown curve selector {d!r}")
    p = DensityParams(beta=beta, d=d)
    return lambda snrs: regular_throughput(snrs, p)


def _reach(targets: np.ndarray, beta: float | np.ndarray,
           d: float | np.ndarray | Curve) -> tuple[np.ndarray, np.ndarray]:
    """The linear Eb/N0 of each target's curve at the ends of ``SNR_BRACKET``
    (one value for all when the curve is shared); a target not strictly
    between them, ln 2 or less included, raises ``ValueError``."""
    def db(x: float) -> str:  # in dB where the ratio has a logarithm
        return f"{10.0 * math.log10(x):.10g} dB" if x > 0.0 else f"{x} (linear)"

    laws = np.broadcast(beta, d).size
    rows = np.tile(np.arange(laws), 2)
    ends = np.repeat(SNR_BRACKET, laws)
    b = _at(beta, rows)
    e_lo, e_hi = np.split(ebno_from_snr(ends, b, _curve_throughput(b, _at(d, rows))(ends)), 2)
    bad = np.flatnonzero(~((e_lo < targets) & (e_hi > targets)))
    if bad.size:
        i = bad[0]
        target, lo, hi = targets[i], e_lo[i % laws], e_hi[i % laws]
        curve = (f"the {d.value} curve at beta = {_at(beta, i)}" if isinstance(d, Curve)
                 else f"the regular curve at beta = {_at(beta, i)}, d = {_at(d, i)}")
        if not lo < target:
            raise ValueError(f"Eb/N0 {db(target)} is not above the minimum achievable on "
                             f"{curve}, {db(lo)} at snr = {SNR_BRACKET[0]}; a level at or "
                             f"below the minimum achievable has no snr")
        raise ValueError(f"Eb/N0 {db(target)} is not reachable below snr = "
                         f"{SNR_BRACKET[1]} on {curve}, which ends at {db(hi)}")
    return e_lo, e_hi


def snr_for_ebno(ebno_target: float | np.ndarray, beta: float | np.ndarray,
                 d: float | np.ndarray | Curve) -> float | np.ndarray:
    """Invert the Eb/N0 map on the curve selected by ``d``.

    ``d`` is a degree for the regular curve, or ``Curve.DENSE_RS`` or
    ``Curve.COVER_WYNER`` for the dense reference or the ceiling; any other
    selector raises ``ValueError``.  The map is
    monotone increasing in snr with infimum ln 2, so the target (linear)
    must exceed ln 2.  The root is bracketed in log snr on [1e-6, 1e6] and
    found by the Illinois variant of regula falsi: a secant step on the
    bracket that halves the kept end's residual when the same end is kept
    twice, and a bisection step when a secant point falls outside the
    bracket.  It stops when the bracket is narrower than a relative 1e-14
    in snr.  Only the dense curve is integrated; the regular and
    Cover-Wyner curves are closed forms.

    ``ebno_target`` is a scalar or a 1-D array of targets.  An array runs
    one search: each step evaluates the curve once at the points still
    running (one quadrature per distinct load for the dense curve), and
    each point stops at its own step with the bits of a scalar call.  With
    an array of targets, ``beta`` and a degree ``d`` may be arrays of its
    length too, one curve per target.  Every target is checked against the
    bracket before the first step.
    """
    if np.ndim(ebno_target) > 1:
        raise ValueError(
            f"Eb/N0 target must be a scalar or a 1-D array, got shape {np.shape(ebno_target)}")
    targets = np.atleast_1d(np.asarray(ebno_target, dtype=np.float64))
    beta, d = (v if np.ndim(v) == 0 else np.asarray(v, dtype=np.float64) for v in (beta, d))
    if any(np.ndim(v) and np.shape(v) != targets.shape for v in (beta, d)):
        raise ValueError("beta and d must be scalars or arrays of the targets' shape")

    def log(v: np.ndarray) -> np.ndarray:
        # libm per point: numpy's log differs from it in the last bit
        return np.array([math.log(x) for x in v.tolist()])

    lo, hi = SNR_BRACKET
    e_lo, e_hi = _reach(targets, beta, d)
    # the residual ln(Eb/N0 / target) is close to linear in ln snr away from ln 2
    f_lo, f_hi = log(e_lo / targets), log(e_hi / targets)
    x_lo, x_hi = np.full(targets.size, math.log(lo)), np.full(targets.size, math.log(hi))
    # written out rather than scipy.optimize.brentq: importing scipy.optimize
    # takes ~0.5 s and lifts a run's peak RSS from ~33 to ~77 MB
    kept = np.zeros(targets.size)  # -1 after the low end moved, +1 after the high end moved
    live = np.arange(targets.size)  # the points still running, and their state below
    log_snr = np.empty(targets.size)  # each point's final bracket midpoint
    for _ in range(200):
        x = x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo)
        x = np.where((x_lo <= x) & (x <= x_hi), x, 0.5 * (x_lo + x_hi))
        # a point within rounding of an end would barely shrink the bracket
        x = np.minimum(np.maximum(x, x_lo + 0.5 * LOG_SNR_TOL), x_hi - 0.5 * LOG_SNR_TOL)
        snrs = np.array([math.exp(v) for v in x.tolist()])
        b = _at(beta, live)
        f = log(ebno_from_snr(snrs, b, _curve_throughput(b, _at(d, live))(snrs)) / targets[live])
        low = f < 0.0
        f_lo, f_hi = (np.where(low, f, np.where(kept > 0, 0.5 * f_lo, f_lo)),
                      np.where(low, np.where(kept < 0, 0.5 * f_hi, f_hi), f))
        x_lo, x_hi = np.where(low, x, x_lo), np.where(low, x_hi, x)
        kept = np.where(low, -1.0, 1.0)
        done = x_hi - x_lo < LOG_SNR_TOL
        log_snr[live[done]] = 0.5 * (x_lo[done] + x_hi[done])
        run = ~done
        live, x_lo, x_hi, f_lo, f_hi, kept = (
            a[run] for a in (live, x_lo, x_hi, f_lo, f_hi, kept))
        if live.size == 0:
            break
    log_snr[live] = 0.5 * (x_lo + x_hi)
    snrs = [math.exp(v) for v in log_snr.tolist()]
    return snrs[0] if np.ndim(ebno_target) == 0 else np.array(snrs)


# ======================================================================
# Finite-size Monte Carlo
# ======================================================================

@dataclass(frozen=True)
class MCResult:
    """Sample mean and standard error of finite-size throughput.

    ``mean`` and ``stderr`` have the shape of the snr they were run at: floats
    for a scalar snr, arrays for an array of snrs.  A trial fails or not
    whatever the snr, so the trial counts are plain ints.
    """

    mean: float | np.ndarray
    stderr: float | np.ndarray
    n_trials: int
    n_failed: int


def finite_n_throughput_mc(spec: EnsembleSpec, snr: float | np.ndarray, trials: int,
                           irregular: bool = False) -> MCResult:
    """Average finite-size throughput over sampled realizations.

    ``snr`` is a scalar or a 1-D array of snrs, all checked before any draw.
    The trials are drawn by the loop that also serves
    :func:`~regnoma.spectra.pooled_spectrum`: trial t's Gram goes into one
    N x N buffer and its eigenvalues into row t of a trials x N array.
    Every snr is then evaluated on those rows, so an array call returns,
    snr by snr, the bits of one scalar call per snr.

    Trial ``t`` runs on the child stream ``SeedSequence(spec.seed,
    spawn_key=(t,))`` (:func:`~regnoma.ensembles.stream`); trials run
    serially in trial order, and distinct seeds give independent runs.
    Every eigenvalue enters the
    per-trial sum, including the deterministic one of ONES-mode matrices,
    matching the finite-size formula exactly.  A trial whose draw or
    eigensolve fails (``GenerationError``, ``LinAlgError``) leaves its row
    NaN, and is skipped at every snr and counted once.
    """
    snrs = _check_snrs(snr)[0]
    if snrs.size == 0:
        raise ValueError("need at least one snr")
    eigs = _sampled_eigenvalues(generate_irregular if irregular else generate_regular,
                                spec, trials, skip=(GenerationError, np.linalg.LinAlgError))
    drawn = ~np.isnan(eigs).any(axis=1)  # a failed trial's row stays NaN
    n_good = int(drawn.sum())
    if n_good == 0:
        raise GenerationError(f"all {trials} trials failed")
    good = eigs[drawn]
    values = np.empty((snrs.size, n_good))  # one row per snr, one column per trial
    for s, row in zip(snrs, values):  # an snr at a time: no snrs x trials x N array
        np.log1p(s * good).sum(axis=1, out=row)  # per trial, a lone 1-D sum's bits
    values /= 2.0 * spec.n_resources * LN2
    means = values.mean(axis=1)
    stderrs = (values.std(axis=1, ddof=1) / math.sqrt(n_good) if n_good > 1
               else np.full(snrs.size, math.inf))
    if np.ndim(snr) == 0:
        return MCResult(float(means[0]), float(stderrs[0]), n_good, trials - n_good)
    return MCResult(means, stderrs, n_good, trials - n_good)


# ======================================================================
# Curve sweeps
# ======================================================================

class SweepVariable(Enum):
    LOAD = "load"
    SPARSITY = "sparsity"
    EBNO = "ebno"


_MC_CURVES = (Curve.REGULAR_MC, Curve.IRREGULAR_MC)
_NEEDS_FIXED = {SweepVariable.LOAD: "LOAD sweep needs a fixed degree d",
                SweepVariable.SPARSITY: "SPARSITY sweep needs a fixed load beta",
                SweepVariable.EBNO: "EBNO sweep needs fixed beta and d"}

# a column per curve, and an MC curve's standard error after its mean
SWEEP_COLUMNS = ("x", *(key for c in Curve for key in (
    (c.value, c.value + "_stderr") if c in _MC_CURVES else (c.value,))))


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep of throughput curves.

    ``values`` are loads (LOAD), degrees (SPARSITY) or Eb/N0 in dB (EBNO).
    The non-swept operating point comes from ``beta``, ``d`` and exactly one
    of ``snr_db`` or ``ebno_db`` (EBNO sweeps carry the operating point on
    the axis).  Monte Carlo curves additionally need ``mc_n``, ``mc_trials``
    and ``seed``; both MC curves run at the snr of the asymptotic regular
    curve so ensembles are compared at equal received power.  Construction
    checks every row before any point runs: its (beta, d), its operating
    point (an Eb/N0 level in the reach of every curve it is inverted on, a
    snr within ``SNR_BRACKET``) and, with an MC curve, its ensemble; the
    irregular curve's Bernoulli(d/N) draws also need d < ``mc_n``.  A reach
    is checked once per curve, over every row; a miss names the row's law.
    """

    variable: SweepVariable
    values: tuple[float, ...]
    curves: tuple[Curve, ...] = DEFAULT_CURVES
    beta: float | None = None
    d: float | None = None
    snr_db: float | None = None
    ebno_db: float | None = None
    mc_n: int | None = None
    mc_trials: int | None = None
    seed: int = 0
    entry_mode: EntryMode = EntryMode.RADEMACHER

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sweep needs at least one point")
        if len(set(self.curves)) != len(self.curves):
            raise ValueError("duplicate curves requested")
        if self.variable is SweepVariable.EBNO:
            if self.snr_db is not None or self.ebno_db is not None:
                raise ValueError("EBNO sweep carries the operating point on the axis")
        elif (self.snr_db is None) == (self.ebno_db is None):
            raise ValueError("need exactly one of snr_db or ebno_db")
        mc = any(c in self.curves for c in _MC_CURVES)
        if mc and (self.mc_n is None or self.mc_trials is None):
            raise ValueError("Monte Carlo curves need mc_n and mc_trials")
        if mc and self.mc_trials < 1:
            raise ValueError(f"need at least one trial, got {self.mc_trials}")
        for x in self.values:
            beta, d, ebno_db = self._point(x)
            if beta is None or d is None:
                raise ValueError(_NEEDS_FIXED[self.variable])
            DensityParams(beta=beta, d=d)  # raises ValueError outside the domain
            if self.variable is SweepVariable.LOAD and not self._integer_load(beta, d):
                raise ValueError(
                    f"beta * d must be an integer > 1 for a realizable ensemble, "
                    f"got beta={beta}, d={d}")
            level = self.snr_db if ebno_db is None else ebno_db
            if not math.isfinite(level):
                raise ValueError(f"Eb/N0 and snr in dB must be finite, got {level}")
            lo, hi = (10.0 * math.log10(s) for s in SNR_BRACKET)
            if ebno_db is None and not lo <= level <= hi:
                raise ValueError(f"snr in dB must lie in [{lo:g}, {hi:g}], got {level}")
            if mc:  # an unrealizable ensemble fails here, before any inversion or draw
                ens = self._ensemble(beta, d)
                if Curve.IRREGULAR_MC in self.curves:
                    _bernoulli_probability(ens)
        if self.snr_db is None:  # every row has an Eb/N0 level to invert
            for selector in self._selectors:
                try:
                    _reach(*self._inversion(selector, np.arange(len(self.values))))
                except NUMERICAL_ERRORS:
                    continue  # sweep fails the rows this curve serves

    @property
    def _selectors(self) -> tuple[Curve, ...]:
        """The curves an Eb/N0 is inverted on (see :func:`sweep`), in the order
        of ``curves``: ``Curve.REGULAR`` stands for the regular and MC curves."""
        return tuple(dict.fromkeys(c if c in _NAMED_CURVES else Curve.REGULAR
                                   for c in self.curves))

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's load, degree and linear Eb/N0 target (NaN at a fixed snr)."""
        betas, ds, levels = zip(*map(self._point, self.values))
        return (np.array(betas), np.array(ds),
                np.array([math.nan if x is None else db_to_linear(x) for x in levels]))

    def _inversion(self, selector: Curve, rows: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | Curve]:
        """The targets, ``beta`` and ``d`` that invert ``rows`` on the selector's
        curve with :func:`snr_for_ebno`: every row's own load and, on the regular
        curve, its own degree."""
        betas, ds, targets = (v[rows] for v in self._rows)
        return targets, betas, ds if selector is Curve.REGULAR else selector

    def _point(self, x: float) -> tuple[float | None, float | None, float | None]:
        """The (beta, d, ebno_db) of the row at axis value ``x``."""
        return (x if self.variable is SweepVariable.LOAD else self.beta,
                x if self.variable is SweepVariable.SPARSITY else self.d,
                x if self.variable is SweepVariable.EBNO else self.ebno_db)

    def _ensemble(self, beta: float, d: float) -> EnsembleSpec:
        """The Monte Carlo ensemble of the row at load ``beta`` and degree ``d``."""
        return EnsembleSpec.from_load(self.mc_n, beta, d, self.entry_mode, self.seed)

    @classmethod
    def from_range(cls, variable: SweepVariable, lo: float, hi: float,
                   steps: int, **fixed) -> "SweepSpec":
        """Build a sweep from a uniform grid.

        LOAD grids keep only points with an integer beta * d, per the
        realizability constraint; an empty admissible set is an error.
        """
        if steps < 1:
            raise ValueError(f"need at least one step, got {steps}")
        grid = np.linspace(lo, hi, steps)
        # without a degree the constructor rejects the LOAD sweep
        if variable is SweepVariable.LOAD and fixed.get("d") is not None:
            grid = np.asarray([b for b in grid if cls._integer_load(b, fixed["d"])])
            if grid.size == 0:
                raise ValueError(
                    "no grid point satisfies the integer beta * d constraint")
        return cls(variable=variable, values=tuple(float(x) for x in grid), **fixed)

    @staticmethod
    def _integer_load(beta: float, d: float) -> bool:
        """Whether beta * d is an integer > 1, as a realizable ensemble needs."""
        bd = beta * d
        return abs(bd - round(bd)) <= 1e-9 and round(bd) > 1


def sweep(spec: SweepSpec) -> dict[str, np.ndarray]:
    """Evaluate the requested curves at every sweep point.

    Returns the table as columns, one cell per point: every key of
    ``SWEEP_COLUMNS`` maps to a float64 array, NaN where a curve was not
    requested or the row failed, and ``failed_mc_trials`` (int64, the Monte
    Carlo trials skipped at that point) and ``failed`` (bool) follow.  A
    failed row has every curve cell NaN and no trial count, and the batch
    continues.  Of the asymptotic curves only ``dense_rs`` is integrated;
    ``regular`` and ``cover_wyner`` are closed forms.

    Each curve an Eb/N0 is inverted on runs once, over every row not yet
    failed, each row at its own (beta, d): the dense and Cover-Wyner curves
    select themselves, and the regular and MC curves the regular curve (the
    MC curves run at its snr).  A run is one :func:`snr_for_ebno` call over
    the rows' targets (or the fixed snr) and one evaluation of its
    asymptotic curve; the regular curve's run then makes one
    :func:`finite_n_throughput_mc` call per MC curve and (beta, d), on the
    ensemble that fixes.  So every sweep inverts each curve once, an Eb/N0
    sweep draws each MC ensemble once (common random numbers across its
    markers), and load and sparsity sweeps change the ensemble at every
    point.  A call that raises one of ``NUMERICAL_ERRORS`` fails the rows
    it served, and later curves skip them; a later dense or Cover-Wyner
    run that fails discards the MC draws.  Two loads that round to one
    ensemble make one MC call each, with the bits of one shared call.
    """
    n = len(spec.values)
    table = {key: np.full(n, np.nan) for key in SWEEP_COLUMNS}
    table.update(x=np.array(spec.values, dtype=np.float64),
                 failed_mc_trials=np.zeros(n, dtype=np.int64), failed=np.zeros(n, dtype=bool))

    def fail(rows: list[int]) -> None:
        for key in SWEEP_COLUMNS[1:]:
            table[key][rows] = np.nan
        table["failed_mc_trials"][rows] = 0
        table["failed"][rows] = True

    mc_curves = [c for c in spec.curves if c in _MC_CURVES]
    for selector in spec._selectors:
        live = np.flatnonzero(~table["failed"])
        if not live.size:
            continue
        targets, *law = spec._inversion(selector, live)
        try:
            if spec.snr_db is not None:
                snrs = np.full(len(live), db_to_linear(spec.snr_db))
            else:
                snrs = snr_for_ebno(targets, *law)
            if selector in spec.curves:
                table[selector.value][live] = _curve_throughput(*law)(snrs)
        except NUMERICAL_ERRORS:
            fail(live)
            continue
        if selector is not Curve.REGULAR:
            continue
        ensembles: dict[tuple[float, float], list[int]] = {}
        for j, key in enumerate(zip(law[0].tolist(), law[1].tolist())):
            ensembles.setdefault(key, []).append(j)
        for (b, d), js in ensembles.items():
            sub = live[js]
            try:
                for curve in mc_curves:
                    res = finite_n_throughput_mc(spec._ensemble(b, d), snrs[js],
                                                 spec.mc_trials,
                                                 irregular=(curve is Curve.IRREGULAR_MC))
                    table[curve.value][sub] = res.mean
                    table[curve.value + "_stderr"][sub] = res.stderr
                    table["failed_mc_trials"][sub] += res.n_failed
            except NUMERICAL_ERRORS:
                fail(sub)
    return table
