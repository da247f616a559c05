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
exact closed form (see :func:`regular_throughput`), so no function here
takes a density; the dense reference is integrated numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import quadrature
from .ensembles import (EnsembleSpec, EntryMode, GenerationError,
                        _bernoulli_probability, generate_irregular, generate_regular)
from .spectra import DensityParams, _sampled_eigenvalues, marchenko_pastur_density

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
SNR_BRACKET = (1e-6, 1e6)
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


def _check_snr(snr: float) -> float:
    snr = float(snr)
    if snr < 0.0 or not math.isfinite(snr):
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    return snr


def _check_snrs(snr: float | np.ndarray) -> np.ndarray:
    """A scalar or 1-D array of snrs as a checked 1-D float array."""
    if np.ndim(snr) > 1:
        raise ValueError(f"snr must be a scalar or a 1-D array, got shape {np.shape(snr)}")
    return np.array([_check_snr(s) for s in np.atleast_1d(snr).tolist()], dtype=np.float64)


def regular_throughput(snr: float, p: DensityParams) -> float:
    """Asymptotic throughput of the regular ensemble, bits per resource use.

    The spectral average of the closed-form law is exact: with
    ``t2 = snr / d``, ``b = (beta d - 1) t2`` and ``q = 1 + (d - 1) t2 - b``,

        u = 2 / (q + sqrt(q^2 + 4 b)),    r = 1 / (1 + b u),
        2 ln2 C = ln(1 + beta d t2 u) + beta ln(1 + d t2 r)
                  - beta d ln(1 + t2 u r).

    This is the Bethe free energy of ``log det(I + snr A A^T / d) / N`` on
    the biregular tree, the local limit of the sampled graphs: ``u`` and
    ``r`` are the user-side and resource-side cavity variances of the
    precision matrix ``[[I, i t A], [i t A^T, I]]``, and their fixed point
    is the quadratic solved for ``u``.  The energy is stationary in both,
    so rounding in ``u`` enters ``C`` only at second order.

    The root cancels once ``q < 0``: at (beta, d) = (10, 2), ``C`` is within
    6.9e-16 of a 50-digit reference over ``SNR_BRACKET`` (-60 to 60 dB), but
    1.6e-10 off at 120 dB, 5.7e-3 at 155 dB and divides by zero at 160 dB.
    So an snr above the bracket, like a negative one, raises ``ValueError``.
    """
    snr = _check_snr(snr)
    if snr > SNR_BRACKET[1]:
        raise ValueError(f"snr must not exceed SNR_BRACKET's {SNR_BRACKET[1]:g}, where the "
                         f"regular closed form loses digits, got {snr}")
    t2 = snr / p.d
    bd = p.beta * p.d
    b = (bd - 1.0) * t2
    q = 1.0 + (p.d - 1.0) * t2 - b
    u = 2.0 / (q + math.sqrt(q * q + 4.0 * b))
    r = 1.0 / (1.0 + b * u)
    return (math.log1p(bd * t2 * u) + p.beta * math.log1p(p.d * t2 * r)
            - bd * math.log1p(t2 * u * r)) / (2.0 * LN2)


def dense_rs_throughput(snr: float | np.ndarray, beta: float) -> float | np.ndarray:
    """Dense random-spreading reference throughput from the Marchenko-Pastur law.

    ``snr`` is a scalar or a 1-D array of snrs; an array is integrated in
    one :func:`~regnoma.quadrature.support_integral` call, snr by snr with
    the bits of a scalar call, and gives an array.
    """
    snrs = _check_snrs(snr)
    lo = (1.0 - math.sqrt(beta)) ** 2
    hi = (1.0 + math.sqrt(beta)) ** 2
    out = 0.5 * quadrature.support_integral(
        lambda lam: marchenko_pastur_density(lam, beta),
        lo, hi,
        weight=lambda lam: np.log1p(np.multiply.outer(snrs, lam)) / LN2)
    return float(out[0]) if np.ndim(snr) == 0 else out


def cover_wyner_bound(snr: float, beta: float) -> float:
    """Orthogonal multiple-access ceiling ``1/2 log2(1 + beta snr)``."""
    snr = _check_snr(snr)
    return 0.5 * math.log1p(beta * snr) / LN2


def ebno_from_snr(snr: float | np.ndarray, beta: float,
                  c: float | np.ndarray) -> float | np.ndarray:
    """Linear energy-per-bit ratio ``beta * snr / (2 C)`` at throughput ``C``.

    ``snr`` and ``c`` are scalars, or 1-D arrays of one length.
    """
    snrs, cs = _check_snrs(snr), np.atleast_1d(np.asarray(c, dtype=np.float64))
    if not (cs > 0.0).all():
        raise ValueError(f"throughput must be positive, got {c}")
    out = beta * snrs / (2.0 * cs)
    return float(out[0]) if np.ndim(snr) == 0 else out


def _curve_throughput(beta: float, d: float | Curve) -> Callable[[np.ndarray], np.ndarray]:
    """The curve that ``d`` selects, at a 1-D array of snrs; the closed forms
    run snr by snr."""
    if d is Curve.DENSE_RS:
        return lambda snrs: dense_rs_throughput(np.atleast_1d(snrs), beta)
    if d is Curve.COVER_WYNER:
        point = functools.partial(cover_wyner_bound, beta=beta)
    elif isinstance(d, (Curve, str)):
        raise ValueError(f"unknown curve selector {d!r}")
    else:
        point = functools.partial(regular_throughput, p=DensityParams(beta=beta, d=float(d)))
    return lambda snrs: np.array([point(s) for s in np.atleast_1d(snrs).tolist()])


def _reach(targets: list[float], beta: float, d: float | Curve) -> tuple[float, float]:
    """The linear Eb/N0 of the curve ``d`` selects at the ends of ``SNR_BRACKET``;
    a target not strictly between them, ln 2 or less included, raises ``ValueError``."""
    def db(x: float) -> str:  # in dB where the ratio has a logarithm
        return f"{10.0 * math.log10(x):.10g} dB" if x > 0.0 else f"{x} (linear)"

    bracket = np.array(SNR_BRACKET)
    e_lo, e_hi = ebno_from_snr(bracket, beta, _curve_throughput(beta, d)(bracket)).tolist()
    curve = f"the {d.value if isinstance(d, Curve) else f'regular (d = {d})'} curve"
    for target in targets:
        if not e_lo < target:
            raise ValueError(f"Eb/N0 {db(target)} is not above the minimum achievable on "
                             f"{curve}, {db(e_lo)} at snr = {SNR_BRACKET[0]}; a level at or "
                             f"below the minimum achievable has no snr")
        if not e_hi > target:
            raise ValueError(f"Eb/N0 {db(target)} is not reachable below snr = "
                             f"{SNR_BRACKET[1]} on {curve}, which ends at {db(e_hi)}")
    return e_lo, e_hi


def snr_for_ebno(ebno_target: float | np.ndarray, beta: float,
                 d: float | Curve) -> float | np.ndarray:
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

    ``ebno_target`` is a scalar or a 1-D array of targets on the one curve.
    An array runs one search: each step evaluates the curve once at the
    points still running (one quadrature for the dense curve), and each
    point stops at its own step with the bits of a scalar call.  Every
    target is checked against the bracket before the first step.
    """
    if np.ndim(ebno_target) > 1:
        raise ValueError(
            f"Eb/N0 target must be a scalar or a 1-D array, got shape {np.shape(ebno_target)}")
    targets = np.atleast_1d(np.asarray(ebno_target, dtype=np.float64))
    cfun = _curve_throughput(beta, d)

    def log(v: np.ndarray) -> np.ndarray:
        # libm per point: numpy's log differs from it in the last bit
        return np.array([math.log(x) for x in v.tolist()])

    lo, hi = SNR_BRACKET
    e_lo, e_hi = _reach(targets.tolist(), beta, d)
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
        f = log(ebno_from_snr(snrs, beta, cfun(snrs)) / targets[live])
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

    Trial ``t`` runs on the PCG64 stream seeded with ``spec.seed XOR t``;
    trials run serially in trial order.  Seeds are not independent runs:
    for any two seeds below 16, 2000 trials draw the same 2000 streams in
    another order, so their means agree to rounding
    (:func:`~regnoma.ensembles.stream`).  Every eigenvalue enters the
    per-trial sum, including the deterministic one of ONES-mode matrices,
    matching the finite-size formula exactly.  A trial whose draw or
    eigensolve fails (``GenerationError``, ``LinAlgError``) leaves its row
    NaN, and is skipped at every snr and counted once.
    """
    snrs = _check_snrs(snr)
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
    irregular curve's Bernoulli(d/N) draws also need d < ``mc_n``.
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
            for (beta, selector), levels in self._groups().items():
                try:
                    _reach([db_to_linear(x) for x in levels.values()], beta, selector)
                except NUMERICAL_ERRORS:
                    continue  # sweep fails the rows this curve serves

    def _groups(self) -> dict[tuple[float, float | Curve], dict[int, float | None]]:
        """(beta, selector) -> {row index: Eb/N0 in dB, or None at a fixed snr};
        the selector is the curve a row's Eb/N0 is inverted on (see :func:`sweep`)."""
        groups: dict[tuple[float, float | Curve], dict[int, float | None]] = {}
        for i, x in enumerate(self.values):
            beta, d, ebno_db = self._point(x)
            for curve in self.curves:
                selector = curve if curve in _NAMED_CURVES else d
                groups.setdefault((beta, selector), {})[i] = ebno_db
        return groups

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

    The rows are grouped by (beta, selector), the curve an Eb/N0 is
    inverted on: the dense and Cover-Wyner curves select themselves, and the
    regular and MC curves the row's degree (the MC curves run at the regular
    curve's snr).  Each group runs once and fills its rows' cells by index:
    one :func:`snr_for_ebno` call over its rows' targets (or the fixed snr),
    one evaluation of its asymptotic curve, and one
    :func:`finite_n_throughput_mc` call per MC curve on the ensemble its
    (beta, d) fixes.  So an Eb/N0 or sparsity sweep inverts the dense and
    Cover-Wyner curves once, an Eb/N0 sweep draws each MC ensemble once
    (common random numbers across its markers), and load and sparsity
    sweeps change the ensemble at every point.  A call that raises one of
    ``NUMERICAL_ERRORS`` fails the group's live rows, and later groups skip
    them; a later dense or Cover-Wyner group that fails a row discards its
    MC draws.  Two loads that round to one ensemble make one MC call each,
    with the bits of one shared call.
    """
    n = len(spec.values)
    table = {key: np.full(n, np.nan) for key in SWEEP_COLUMNS}
    table.update(x=np.array(spec.values, dtype=np.float64),
                 failed_mc_trials=np.zeros(n, dtype=np.int64), failed=np.zeros(n, dtype=bool))
    for (beta, selector), members in spec._groups().items():
        curves = ((selector,) if selector in _NAMED_CURVES else
                  tuple(c for c in spec.curves if c not in _NAMED_CURVES))
        live = [i for i in members if not table["failed"][i]]
        if not live:
            continue
        try:
            if spec.snr_db is not None:
                snrs = np.full(len(live), db_to_linear(spec.snr_db))
            else:
                targets = np.array([db_to_linear(members[i]) for i in live])
                snrs = snr_for_ebno(targets, beta, selector)
            for curve in curves:
                if curve in _MC_CURVES:
                    res = finite_n_throughput_mc(spec._ensemble(beta, selector), snrs,
                                                 spec.mc_trials,
                                                 irregular=(curve is Curve.IRREGULAR_MC))
                    table[curve.value][live] = res.mean
                    table[curve.value + "_stderr"][live] = res.stderr
                    table["failed_mc_trials"][live] += res.n_failed
                else:
                    table[curve.value][live] = _curve_throughput(beta, selector)(snrs)
        except NUMERICAL_ERRORS:
            for key in SWEEP_COLUMNS[1:]:
                table[key][live] = np.nan
            table["failed_mc_trials"][live] = 0
            table["failed"][live] = True
    return table
