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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import quadrature
from .ensembles import (EnsembleSpec, EntryMode, GenerationError,
                        generate_irregular, generate_regular)
from .spectra import DensityParams, marchenko_pastur_density

__all__ = [
    "NUMERICAL_ERRORS",
    "Curve",
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
    "linear_to_db",
]

LN2 = math.log(2.0)
SNR_BRACKET = (1e-6, 1e6)
LOG_SNR_TOL = 1e-14  # final bracket width of the Eb/N0 inversion, in ln snr

# what a single numerical result raises; batches catch exactly these, mark
# the item failed and count it (density routes return NaN per point instead)
NUMERICAL_ERRORS = (quadrature.QuadratureError, GenerationError, np.linalg.LinAlgError)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    if not x > 0.0:
        raise ValueError(f"need a positive ratio, got {x}")
    return 10.0 * math.log10(x)


def _check_snr(snr: float) -> float:
    snr = float(snr)
    if snr < 0.0 or not math.isfinite(snr):
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    return snr


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
    """
    snr = _check_snr(snr)
    if snr == 0.0:
        return 0.0
    t2 = snr / p.d
    bd = p.beta * p.d
    b = (bd - 1.0) * t2
    q = 1.0 + (p.d - 1.0) * t2 - b
    u = 2.0 / (q + math.sqrt(q * q + 4.0 * b))
    r = 1.0 / (1.0 + b * u)
    return (math.log1p(bd * t2 * u) + p.beta * math.log1p(p.d * t2 * r)
            - bd * math.log1p(t2 * u * r)) / (2.0 * LN2)


def dense_rs_throughput(snr: float, beta: float) -> float:
    """Dense random-spreading reference throughput from the Marchenko-Pastur law."""
    snr = _check_snr(snr)
    if snr == 0.0:
        return 0.0
    lo = (1.0 - math.sqrt(beta)) ** 2
    hi = (1.0 + math.sqrt(beta)) ** 2
    return 0.5 * quadrature.support_integral(
        lambda lam: marchenko_pastur_density(lam, beta),
        lo, hi,
        weight=lambda lam: np.log1p(snr * lam) / LN2)


def cover_wyner_bound(snr: float, beta: float) -> float:
    """Orthogonal multiple-access ceiling ``1/2 log2(1 + beta snr)``."""
    snr = _check_snr(snr)
    return 0.5 * math.log1p(beta * snr) / LN2


def ebno_from_snr(snr: float, beta: float, c: float) -> float:
    """Linear energy-per-bit ratio ``beta * snr / (2 C)`` at throughput ``C``."""
    snr = _check_snr(snr)
    if not c > 0.0:
        raise ValueError(f"throughput must be positive, got {c}")
    return beta * snr / (2.0 * c)


def _curve_throughput(beta: float, d: float | str) -> Callable[[float], float]:
    if isinstance(d, str):
        token = d.lower()
        if token == "dense":
            return lambda snr: dense_rs_throughput(snr, beta)
        if token == "cover_wyner":
            return lambda snr: cover_wyner_bound(snr, beta)
        raise ValueError(f"unknown curve selector {d!r}")
    p = DensityParams(beta=beta, d=float(d))
    return lambda snr: regular_throughput(snr, p)


def snr_for_ebno(ebno_target: float, beta: float, d: float | str) -> float:
    """Invert the Eb/N0 map on the curve selected by ``d``.

    ``d`` is a degree for the regular curve or the string ``"dense"`` for
    the dense reference (``"cover_wyner"`` is also accepted).  The map is
    monotone increasing in snr with infimum ln 2, so the target (linear)
    must exceed ln 2.  The root is bracketed in log snr on [1e-6, 1e6] and
    found by the Illinois variant of regula falsi: a secant step on the
    bracket that halves the kept end's residual when the same end is kept
    twice, and a bisection step when a secant point falls outside the
    bracket.  It stops when the bracket is narrower than a relative 1e-14
    in snr.  Only the dense curve is integrated; the regular and
    Cover-Wyner curves are closed forms.
    """
    target = float(ebno_target)
    cfun = _curve_throughput(beta, d)

    def ebno(snr: float) -> float:
        return ebno_from_snr(snr, beta, cfun(snr))

    lo, hi = SNR_BRACKET
    e_lo, e_hi = ebno(lo), ebno(hi)
    if not e_lo < target:
        raise ValueError(
            f"Eb/N0 target {target} is below the minimum achievable "
            f"(ln 2 = {LN2:.6f} as snr -> 0); bracket failure")
    if not e_hi > target:
        raise ValueError(f"Eb/N0 target {target} not reachable below snr = {hi}")
    # the residual ln(Eb/N0 / target) is close to linear in ln snr away from ln 2
    f_lo, f_hi = math.log(e_lo / target), math.log(e_hi / target)
    x_lo, x_hi = math.log(lo), math.log(hi)
    kept = 0  # -1 after the low end moved, +1 after the high end moved
    for _ in range(200):
        x = x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo)
        if not x_lo <= x <= x_hi:
            x = 0.5 * (x_lo + x_hi)
        # a point within rounding of an end would barely shrink the bracket
        x = min(max(x, x_lo + 0.5 * LOG_SNR_TOL), x_hi - 0.5 * LOG_SNR_TOL)
        f = math.log(ebno(math.exp(x)) / target)
        if f < 0.0:
            x_lo, f_lo = x, f
            if kept < 0:
                f_hi *= 0.5
            kept = -1
        else:
            x_hi, f_hi = x, f
            if kept > 0:
                f_lo *= 0.5
            kept = 1
        if x_hi - x_lo < LOG_SNR_TOL:
            break
    return math.exp(0.5 * (x_lo + x_hi))


# ======================================================================
# Finite-size Monte Carlo
# ======================================================================

@dataclass(frozen=True)
class MCResult:
    """Sample mean and standard error of finite-size throughput."""

    mean: float
    stderr: float
    n_trials: int
    n_failed: int


def _trial_throughput(spec: EnsembleSpec, snr: float, trial: int,
                      irregular: bool) -> float:
    gen = generate_irregular if irregular else generate_regular
    matrix = gen(spec, realization=trial)
    eigs = np.linalg.eigvalsh(matrix.gram())
    n = spec.n_resources
    return float(np.sum(np.log1p(snr * eigs)) / (2.0 * n * LN2))


def finite_n_throughput_mc(spec: EnsembleSpec, snr: float, trials: int,
                           irregular: bool = False) -> MCResult:
    """Average finite-size throughput over sampled realizations.

    Trial ``t`` runs on the PCG64 stream seeded with ``spec.seed XOR t``;
    trials run serially in trial order.  Every eigenvalue enters the
    per-trial sum, including the deterministic one of ONES-mode matrices,
    matching the finite-size formula exactly.  Failed trials are skipped
    and counted.
    """
    snr = _check_snr(snr)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    values = np.full(trials, np.nan)
    for t in range(trials):
        try:
            values[t] = _trial_throughput(spec, snr, t, irregular)
        except (GenerationError, np.linalg.LinAlgError):
            pass  # stays NaN and is counted as failed

    good = values[np.isfinite(values)]
    n_failed = trials - good.size
    if good.size == 0:
        raise GenerationError(f"all {trials} trials failed")
    stderr = float(good.std(ddof=1) / math.sqrt(good.size)) if good.size > 1 else float("inf")
    return MCResult(mean=float(good.mean()), stderr=stderr,
                    n_trials=int(good.size), n_failed=int(n_failed))


# ======================================================================
# Curve sweeps
# ======================================================================

class Curve(Enum):
    REGULAR = "regular"
    DENSE_RS = "dense_rs"
    COVER_WYNER = "cover_wyner"
    REGULAR_MC = "regular_mc"
    IRREGULAR_MC = "irregular_mc"

    @classmethod
    def parse(cls, token: str) -> "Curve":
        try:
            return cls(token.lower())
        except ValueError:
            raise ValueError(f"unknown curve {token!r}") from None


class SweepVariable(Enum):
    LOAD = "load"
    SPARSITY = "sparsity"
    EBNO = "ebno"

    @classmethod
    def parse(cls, token: str) -> "SweepVariable":
        try:
            return cls(token.lower())
        except ValueError:
            raise ValueError(f"unknown sweep variable {token!r}") from None


_MC_CURVES = (Curve.REGULAR_MC, Curve.IRREGULAR_MC)

SWEEP_COLUMNS = ("x", "regular", "dense_rs", "cover_wyner",
                 "regular_mc", "regular_mc_stderr",
                 "irregular_mc", "irregular_mc_stderr")


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep of throughput curves.

    ``values`` are loads (LOAD), degrees (SPARSITY) or Eb/N0 in dB (EBNO).
    The non-swept operating point comes from ``beta``, ``d`` and exactly one
    of ``snr_db`` or ``ebno_db`` (EBNO sweeps carry the operating point on
    the axis).  Monte Carlo curves additionally need ``mc_n``, ``mc_trials``
    and ``seed``; both MC curves run at the snr of the asymptotic regular
    curve so ensembles are compared at equal received power.
    """

    variable: SweepVariable
    values: tuple[float, ...]
    curves: tuple[Curve, ...] = (Curve.REGULAR, Curve.DENSE_RS, Curve.COVER_WYNER)
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
        if self.variable is SweepVariable.LOAD:
            if self.d is None:
                raise ValueError("LOAD sweep needs a fixed degree d")
            for beta in self.values:
                self._check_load(beta, self.d)
        elif self.variable is SweepVariable.SPARSITY:
            if self.beta is None:
                raise ValueError("SPARSITY sweep needs a fixed load beta")
            DensityParams(beta=self.beta, d=min(self.values))
        else:
            if self.beta is None or self.d is None:
                raise ValueError("EBNO sweep needs fixed beta and d")
            DensityParams(beta=self.beta, d=self.d)
        if self.variable is SweepVariable.EBNO:
            if self.snr_db is not None or self.ebno_db is not None:
                raise ValueError("EBNO sweep carries the operating point on the axis")
        else:
            if (self.snr_db is None) == (self.ebno_db is None):
                raise ValueError("need exactly one of snr_db or ebno_db")
        if any(c in self.curves for c in _MC_CURVES):
            if self.mc_n is None or self.mc_trials is None:
                raise ValueError("Monte Carlo curves need mc_n and mc_trials")

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
        if variable is SweepVariable.LOAD:
            d = fixed.get("d")
            if d is None:
                raise ValueError("LOAD sweep needs a fixed degree d")
            grid = np.asarray([b for b in grid
                               if abs(b * d - round(b * d)) <= 1e-9 and round(b * d) > 1])
            if grid.size == 0:
                raise ValueError(
                    "no grid point satisfies the integer beta * d constraint")
        return cls(variable=variable, values=tuple(float(x) for x in grid), **fixed)

    @staticmethod
    def _check_load(beta: float, d: float) -> None:
        DensityParams(beta=beta, d=d)  # raises ValueError outside the domain
        bd = beta * d
        if abs(bd - round(bd)) > 1e-9 or round(bd) <= 1:
            raise ValueError(
                f"beta * d must be an integer > 1 for a realizable ensemble, "
                f"got beta={beta}, d={d}")


def _sweep_point(spec: SweepSpec, x: float) -> dict[str, float | None]:
    beta = x if spec.variable is SweepVariable.LOAD else spec.beta
    d = x if spec.variable is SweepVariable.SPARSITY else spec.d
    p = DensityParams(beta=beta, d=float(d))

    def curve_snr(selector: float | str) -> float:
        if spec.variable is SweepVariable.EBNO:
            return snr_for_ebno(db_to_linear(x), beta, selector)
        if spec.snr_db is not None:
            return db_to_linear(spec.snr_db)
        return snr_for_ebno(db_to_linear(spec.ebno_db), beta, selector)

    row: dict[str, float | None] = dict.fromkeys(SWEEP_COLUMNS)
    row.update(x=float(x), failed_mc_trials=0)
    mc_snr: float | None = None
    for curve in spec.curves:
        if curve is Curve.REGULAR:
            row["regular"] = regular_throughput(curve_snr(d), p)
        elif curve is Curve.DENSE_RS:
            row["dense_rs"] = dense_rs_throughput(curve_snr("dense"), beta)
        elif curve is Curve.COVER_WYNER:
            row["cover_wyner"] = cover_wyner_bound(curve_snr("cover_wyner"), beta)
        else:
            if mc_snr is None:
                mc_snr = curve_snr(d)
            ens = EnsembleSpec.from_load(spec.mc_n, beta, d, spec.entry_mode, spec.seed)
            res = finite_n_throughput_mc(ens, mc_snr, spec.mc_trials,
                                         irregular=(curve is Curve.IRREGULAR_MC))
            key = "irregular_mc" if curve is Curve.IRREGULAR_MC else "regular_mc"
            row[key] = res.mean
            row[key + "_stderr"] = res.stderr
            row["failed_mc_trials"] += res.n_failed
    return row


def sweep(spec: SweepSpec) -> list[dict[str, float | bool | None]]:
    """Evaluate the requested curves at every sweep point.

    Returns one mapping per point with the keys of ``SWEEP_COLUMNS`` plus
    ``failed_mc_trials`` (Monte Carlo trials skipped at that point) and
    ``failed``; curves that were not requested stay None.  A point that
    raises one of ``NUMERICAL_ERRORS`` leaves that row's curve cells None
    under a ``failed`` flag, with no trial count, and the batch continues.
    Of the asymptotic curves only ``dense_rs`` is integrated; ``regular``
    and ``cover_wyner`` are closed forms.
    """
    rows = []
    for x in spec.values:
        try:
            row = _sweep_point(spec, x)
            row["failed"] = False
        except NUMERICAL_ERRORS:
            row = dict.fromkeys(SWEEP_COLUMNS)
            row.update(x=float(x), failed_mc_trials=0, failed=True)
        rows.append(row)
    return rows
