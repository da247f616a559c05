"""Command-line surface for the spectral and throughput computations.

Subcommands evaluate the closed-form limiting density, cross-check it
against the scalar and per-graph cavity routes, pool sampled finite-size
spectra, and tabulate throughput curves.  Every file-emitting run writes a
JSON manifest next to the output (subcommand, resolved parameters, seed,
package version, output checksum); reruns with identical flags produce
byte-identical output and manifest.

Exit codes: 0 on success, 2 for usage errors (bad flags or values), 3 for
numerical failures (non-convergence, generation failure, eigensolver
breakdown, failed validation checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, quadrature
from . import cavity as cavity_mod
from . import spectra as spectra_mod
from . import throughput as tp
from .ensembles import EnsembleSpec, EntryMode, GenerationError, generate_regular
from .quadrature import QuadratureError
from .spectra import (DensityParams, SpectraError, analytic_density,
                      empirical_spectrum, kesten_mckay_density, ks_distance,
                      marchenko_pastur_density)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (cavity_mod.CavityError, QuadratureError, GenerationError,
                    SpectraError, np.linalg.LinAlgError)

SWEEP_COLUMNS = ("x", "regular", "dense_rs", "cover_wyner",
                 "regular_mc", "regular_mc_stderr",
                 "irregular_mc", "irregular_mc_stderr")

CAVITY_COLUMNS = ("lambda", "density_closed_form", "density_cavity_scalar",
                  "density_cavity_graph", "abs_err_scalar", "abs_err_graph")


# ======================================================================
# Output plumbing
# ======================================================================

def _cell(value) -> str:
    if value is None:
        return ""
    x = float(value)
    if math.isnan(x):
        return ""
    return format(x, ".17g")


def _clean(value):
    if value is None:
        return None
    if isinstance(value, (bool, int, str)):
        return value
    x = float(value)
    return None if math.isnan(x) else x


def _table_bytes(columns, rows, fmt: str) -> bytes:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_cell(row[c]) for c in columns) for row in rows)
        return ("\n".join(lines) + "\n").encode()
    doc = {"columns": list(columns),
           "rows": [{c: _clean(row[c]) for c in columns} for row in rows]}
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _resolved_params(args: argparse.Namespace) -> dict:
    skip = {"func", "subcommand"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_manifest(args: argparse.Namespace, out_path: str, data: bytes,
                    results: dict) -> None:
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "parameters": _resolved_params(args),
        "output": {
            "path": out_path,
            "sha256": hashlib.sha256(data).hexdigest(),
        },
        "results": {k: _clean(v) if not isinstance(v, list) else v
                    for k, v in results.items()},
    }
    payload = (json.dumps(manifest, indent=2, sort_keys=True,
                          allow_nan=False) + "\n").encode()
    Path(out_path + ".manifest.json").write_bytes(payload)


def _emit(args: argparse.Namespace, columns, rows, results: dict) -> int:
    data = _table_bytes(columns, rows, args.format)
    Path(args.out).write_bytes(data)
    _write_manifest(args, args.out, data, results)
    return EXIT_OK


def _require_positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def _ensemble_from(n: int, beta: float, d: float, mode: EntryMode,
                   seed: int) -> EnsembleSpec:
    if abs(d - round(d)) > 1e-9:
        raise ValueError(f"sampled matrices need an integer degree, got {d}")
    k = beta * n
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"n = {n} does not realize load beta = {beta}")
    return EnsembleSpec(n_resources=n, n_users=int(round(k)),
                        col_degree=int(round(d)), entry_mode=mode, seed=seed)


# ======================================================================
# Subcommands
# ======================================================================

def _cmd_density(args: argparse.Namespace) -> int:
    _require_positive("--points", args.points)
    p = DensityParams(beta=args.beta, d=args.d)
    grid = np.linspace(p.lambda_minus, p.lambda_plus, args.points)
    dens = analytic_density(grid, p)
    rows = [{"lambda": x, "density": y} for x, y in zip(grid, dens)]
    return _emit(args, ("lambda", "density"), rows,
                 {"lambda_minus": p.lambda_minus, "lambda_plus": p.lambda_plus})


def _cmd_cavity(args: argparse.Namespace) -> int:
    _require_positive("--points", args.points)
    p = DensityParams(beta=args.beta, d=args.d)
    grid = np.linspace(p.lambda_minus, p.lambda_plus, args.points)
    closed = analytic_density(grid, p)
    scalar = cavity_mod.stieltjes_inversion(grid, p, epsilon=args.epsilon)
    have_graph = args.graph_n is not None
    if have_graph:
        espec = _ensemble_from(args.graph_n, args.beta, args.d,
                               EntryMode.RADEMACHER, args.seed)
        matrix = generate_regular(espec, realization=0)
        graph = cavity_mod.graph_route_density(matrix, grid,
                                               epsilon=args.graph_epsilon)
    else:
        graph = np.full(grid.size, np.nan)
    err_scalar = np.abs(scalar - closed)
    err_graph = np.abs(graph - closed)
    rows = []
    for i, lam in enumerate(grid):
        rows.append({
            "lambda": lam,
            "density_closed_form": closed[i],
            "density_cavity_scalar": scalar[i],
            "density_cavity_graph": graph[i] if have_graph else None,
            "abs_err_scalar": err_scalar[i],
            "abs_err_graph": err_graph[i] if have_graph else None,
        })
    # square-root edges are ill-conditioned for the inversion; the summary
    # statistic excludes their immediate neighborhoods
    interior = ((grid > p.lambda_minus + 1e-3) & (grid < p.lambda_plus - 1e-3))
    results = {
        "lambda_minus": p.lambda_minus,
        "lambda_plus": p.lambda_plus,
        "n_failed_scalar": int(np.isnan(scalar).sum()),
        "sup_abs_err_scalar_interior": _sup_or_none(err_scalar[interior]),
        "sup_abs_err_graph": _sup_or_none(err_graph) if have_graph else None,
    }
    return _emit(args, CAVITY_COLUMNS, rows, results)


def _sup_or_none(err: np.ndarray):
    finite = err[np.isfinite(err)]
    return float(finite.max()) if finite.size else None


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require_positive("--trials", args.trials)
    _require_positive("--bins", args.bins)
    mode = EntryMode.parse(args.entries)
    espec = _ensemble_from(args.n, args.beta, args.d, mode, args.seed)
    p = DensityParams.from_ensemble(espec)
    samples = [empirical_spectrum(generate_regular(espec, realization=t))
               for t in range(args.trials)]
    ks = ks_distance(samples, p, exclude_trivial=True)
    centers, empirical = spectra_mod.spectrum_histogram(
        samples, p, bins=args.bins, exclude_trivial=True)
    overlay = analytic_density(centers, p)
    rows = [{"lambda": c, "analytic_density": a, "empirical_density": e}
            for c, a, e in zip(centers, overlay, empirical)]
    n_trivial = int(sum(int(s.trivial.sum()) for s in samples))
    results = {
        "ks_distance": ks,
        "n_eigenvalues_pooled": args.trials * espec.n_resources - n_trivial,
        "n_trivial_excluded": n_trivial,
        "lambda_minus": p.lambda_minus,
        "lambda_plus": p.lambda_plus,
    }
    return _emit(args, ("lambda", "analytic_density", "empirical_density"),
                 rows, results)


def _parse_curves(token: str) -> tuple[tp.Curve, ...]:
    names = [t.strip() for t in token.split(",") if t.strip()]
    if not names:
        raise ValueError("need at least one curve")
    return tuple(tp.Curve.parse(name) for name in names)


def _emit_sweep_rows(args: argparse.Namespace, spec: tp.SweepSpec,
                     x_override: float | None = None) -> int:
    rows = tp.sweep(spec)
    failed = [row["x"] for row in rows if row.pop("failed")]
    if x_override is not None:
        for row in rows:
            row["x"] = x_override
    return _emit(args, SWEEP_COLUMNS, rows, {"failed_points": failed})


def _cmd_throughput(args: argparse.Namespace) -> int:
    common = dict(curves=_parse_curves(args.curves),
                  mc_n=args.mc_n, mc_trials=args.mc_trials, seed=args.seed,
                  entry_mode=EntryMode.parse(args.entries),
                  threads=args.threads)
    if args.ebno_db is not None:
        spec = tp.SweepSpec(variable=tp.SweepVariable.EBNO,
                            values=(args.ebno_db,),
                            beta=args.beta, d=args.d, **common)
        return _emit_sweep_rows(args, spec)
    spec = tp.SweepSpec(variable=tp.SweepVariable.SPARSITY,
                        values=(args.d,),
                        beta=args.beta, snr_db=args.snr_db, **common)
    # the row abscissa is the operating point, not the degree
    return _emit_sweep_rows(args, spec, x_override=args.snr_db)


def _cmd_sweep(args: argparse.Namespace) -> int:
    variable = tp.SweepVariable.parse(args.variable)
    common = dict(curves=_parse_curves(args.curves),
                  beta=args.beta, d=args.d,
                  snr_db=args.snr_db, ebno_db=args.ebno_db,
                  mc_n=args.mc_n, mc_trials=args.mc_trials, seed=args.seed,
                  entry_mode=EntryMode.parse(args.entries),
                  threads=args.threads)
    if args.values is not None:
        values = tuple(float(t) for t in args.values.split(","))
        spec = tp.SweepSpec(variable=variable, values=values, **common)
    else:
        lo, hi, steps = args.grid_range
        spec = tp.SweepSpec.from_range(variable, lo, hi, int(steps), **common)
    return _emit_sweep_rows(args, spec)


# ======================================================================
# Validation suite
# ======================================================================

def _check_kesten_mckay() -> tuple[bool, str]:
    worst = 0.0
    for d in (2.0, 3.0, 10.0):
        p = DensityParams(beta=1.0, d=d)
        width = p.lambda_plus - p.lambda_minus
        grid = np.linspace(p.lambda_minus + 1e-6 * width,
                           p.lambda_plus - 1e-6 * width, 1000)
        diff = np.abs(analytic_density(grid, p) - kesten_mckay_density(grid, d))
        worst = max(worst, float(diff.max()))
    return worst < 1e-12, f"max |density - Kesten-McKay| = {worst:.3e} (tol 1e-12)"


_PARAM_GRID = tuple((beta, d) for beta in (1.0, 1.5, 2.0, 3.0)
                    for d in (2.0, 3.0, 4.0, 10.0))


def _check_normalization() -> tuple[bool, str]:
    worst = 0.0
    for beta, d in _PARAM_GRID:
        p = DensityParams(beta=beta, d=d)
        mass = quadrature.support_integral(
            lambda lam: analytic_density(lam, p),
            p.lambda_minus, p.lambda_plus, tol=1e-10)
        worst = max(worst, abs(mass - 1.0))
    return worst < 1e-8, f"max |mass - 1| = {worst:.3e} over 16 (beta, d) pairs (tol 1e-8)"


def _check_first_moment() -> tuple[bool, str]:
    worst = 0.0
    for beta, d in _PARAM_GRID:
        p = DensityParams(beta=beta, d=d)
        mean = quadrature.support_integral(
            lambda lam: analytic_density(lam, p),
            p.lambda_minus, p.lambda_plus,
            weight=lambda lam: lam, tol=1e-10)
        worst = max(worst, abs(mean - beta))
    return worst < 1e-6, f"max |mean - beta| = {worst:.3e} over 16 (beta, d) pairs (tol 1e-6)"


def _check_mp_limit() -> tuple[bool, str]:
    beta = 1.5
    mp_lo = (1.0 - math.sqrt(beta)) ** 2
    mp_hi = (1.0 + math.sqrt(beta)) ** 2
    sups = []
    for d in (2.0, 4.0, 10.0, 40.0, 1000.0):
        p = DensityParams(beta=beta, d=d)
        grid = np.linspace(min(p.lambda_minus, mp_lo),
                           max(p.lambda_plus, mp_hi), 2001)
        diff = np.abs(analytic_density(grid, p)
                      - marchenko_pastur_density(grid, beta))
        sups.append(float(diff.max()))
    monotone = all(a > b for a, b in zip(sups, sups[1:]))
    ok = monotone and sups[-1] < 1e-2
    pretty = ", ".join(f"{s:.3g}" for s in sups)
    return ok, f"sup distance over d in (2, 4, 10, 40, 1000): {pretty}"


def _check_scalar_cavity() -> tuple[bool, str]:
    p = DensityParams(beta=1.5, d=2.0)
    grid = np.linspace(p.lambda_minus, p.lambda_plus, 512)
    est = cavity_mod.stieltjes_inversion(grid, p, epsilon=1e-6)
    interior = ((grid > p.lambda_minus + 1e-3) & (grid < p.lambda_plus - 1e-3))
    err = np.abs(est - analytic_density(grid, p))[interior]
    if np.isnan(err).any():
        return False, "scalar inversion failed at interior grid points"
    sup = float(err.max())
    return sup < 1e-3, f"sup |inversion - closed form| = {sup:.3e} (tol 1e-3)"


def _check_ordering() -> tuple[bool, str]:
    target = tp.db_to_linear(10.0)
    ok = True
    min_gap = math.inf
    for beta in (1.0, 1.5, 2.0, 2.5, 3.0):
        p = DensityParams(beta=beta, d=2.0)
        c_reg = tp.regular_throughput(tp.snr_for_ebno(target, beta, 2.0), p)
        c_dense = tp.dense_rs_throughput(tp.snr_for_ebno(target, beta, "dense"), beta)
        c_cw = tp.cover_wyner_bound(
            tp.snr_for_ebno(target, beta, "cover_wyner"), beta)
        ok = ok and (c_cw >= c_reg > c_dense)
        min_gap = min(min_gap, c_reg - c_dense)
    return ok, f"min regular - dense gap = {min_gap:.4f} at Eb/N0 = 10 dB"


def _check_small_snr_slope() -> tuple[bool, str]:
    snr = 1e-6
    p = DensityParams(beta=1.5, d=2.0)
    slope = snr * p.beta / (2.0 * tp.LN2)
    rel_reg = abs(tp.regular_throughput(snr, p) / slope - 1.0)
    rel_dense = abs(tp.dense_rs_throughput(snr, p.beta) / slope - 1.0)
    worst = max(rel_reg, rel_dense)
    return worst < 1e-3, f"max relative slope error = {worst:.3e} (tol 1e-3)"


def _check_quadrature_stability() -> tuple[bool, str]:
    p = DensityParams(beta=1.5, d=2.0)
    c_a = tp.regular_throughput(10.0, p)
    c_b = 0.5 * quadrature.support_integral(
        lambda lam: analytic_density(lam, p),
        p.lambda_minus, p.lambda_plus,
        weight=lambda lam: np.log1p(10.0 * lam) / tp.LN2,
        tol=1e-9, n_start=64)
    diff = abs(c_a - c_b)
    return diff < 1e-9, f"|C(n) - C(2n)| = {diff:.3e} (tol 1e-9)"


def _check_ebno_round_trip() -> tuple[bool, str]:
    target = tp.db_to_linear(10.0)
    p = DensityParams(beta=1.5, d=2.0)
    snr = tp.snr_for_ebno(target, p.beta, p.d)
    back = tp.ebno_from_snr(snr, p.beta, tp.regular_throughput(snr, p))
    rel = abs(back / target - 1.0)
    return rel < 1e-6, f"round-trip relative error = {rel:.3e} (tol 1e-6)"


def _pooled_nontrivial(espec: EnsembleSpec, trials: int) -> np.ndarray:
    parts = [empirical_spectrum(generate_regular(espec, realization=t)).nontrivial()
             for t in range(trials)]
    return np.sort(np.concatenate(parts))


def _two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _sorted_ks(pooled: np.ndarray, p: DensityParams) -> float:
    n = pooled.size
    cdf = spectra_mod.analytic_cdf(pooled, p)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(np.abs(cdf - i / n)),
                     np.max(np.abs(cdf - (i - 1.0) / n))))


def _check_scaled_spectrum(seed: int) -> tuple[bool, str]:
    p = DensityParams(beta=1.5, d=2.0)
    pools = {}
    for mode in (EntryMode.ONES, EntryMode.RADEMACHER):
        espec = EnsembleSpec(n_resources=520, n_users=780, col_degree=2,
                             entry_mode=mode, seed=seed)
        pools[mode] = _pooled_nontrivial(espec, 200)
    ks_ones = _sorted_ks(pools[EntryMode.ONES], p)
    ks_rad = _sorted_ks(pools[EntryMode.RADEMACHER], p)
    ks_cross = _two_sample_ks(pools[EntryMode.ONES], pools[EntryMode.RADEMACHER])
    ok = max(ks_ones, ks_rad, ks_cross) < 0.02
    return ok, (f"KS ones = {ks_ones:.4f}, rademacher = {ks_rad:.4f}, "
                f"cross = {ks_cross:.4f} (tol 0.02)")


def _check_full_scale_spectrum(seed: int) -> tuple[bool, str]:
    p = DensityParams(beta=1.5, d=2.0)
    espec = EnsembleSpec(n_resources=2600, n_users=3900, col_degree=2,
                         entry_mode=EntryMode.RADEMACHER, seed=seed)
    pooled = _pooled_nontrivial(espec, 1000)
    ks = _sorted_ks(pooled, p)
    return ks < 0.02, f"KS over 1000 realizations at 2600x3900 = {ks:.4f} (tol 0.02)"


def _check_graph_route(seed: int) -> tuple[bool, str]:
    p = DensityParams(beta=1.5, d=2.0)
    espec = EnsembleSpec(n_resources=1000, n_users=1500, col_degree=2,
                         entry_mode=EntryMode.RADEMACHER, seed=seed)
    matrix = generate_regular(espec, realization=0)
    width = p.lambda_plus - p.lambda_minus
    grid = np.linspace(p.lambda_minus + 0.03 * width,
                       p.lambda_plus - 0.03 * width, 64)
    est = cavity_mod.graph_route_density(matrix, grid)
    sup = float(np.max(np.abs(est - analytic_density(grid, p))))
    return sup < 0.05, f"sup |graph route - closed form| = {sup:.4f} (tol 0.05)"


def _check_mc_vs_quadrature(seed: int, threads: int) -> tuple[bool, str]:
    p = DensityParams(beta=1.5, d=2.0)
    espec = EnsembleSpec(n_resources=200, n_users=300, col_degree=2,
                         entry_mode=EntryMode.RADEMACHER, seed=seed)
    res = tp.finite_n_throughput_mc(espec, 10.0, 100, threads=threads)
    asymptotic = tp.regular_throughput(10.0, p)
    diff = abs(res.mean - asymptotic)
    bound = 3.0 * res.stderr + 0.01
    return diff < bound, (f"|MC - quadrature| = {diff:.4f} "
                          f"(bound 3 stderr + 0.01 = {bound:.4f})")


def _check_regular_vs_irregular(seed: int, threads: int) -> tuple[bool, str]:
    espec = EnsembleSpec(n_resources=200, n_users=300, col_degree=2,
                         entry_mode=EntryMode.RADEMACHER, seed=seed)
    reg = tp.finite_n_throughput_mc(espec, 10.0, 200, threads=threads)
    irr = tp.finite_n_throughput_mc(espec, 10.0, 200, irregular=True,
                                    threads=threads)
    gap = reg.mean - irr.mean
    pooled = math.hypot(reg.stderr, irr.stderr)
    return gap > 5.0 * pooled, (f"regular - irregular = {gap:.4f}, "
                                f"pooled stderr = {pooled:.5f} (need > 5x)")


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.inject_sign_flip:
        spectra_mod._DENSITY_SIGN = -1.0
    try:
        checks: list[tuple[str, object]] = [
            ("kesten_mckay_identity", _check_kesten_mckay),
            ("density_normalization", _check_normalization),
            ("density_first_moment", _check_first_moment),
            ("marchenko_pastur_limit", _check_mp_limit),
            ("scalar_cavity_agreement", _check_scalar_cavity),
            ("throughput_ordering", _check_ordering),
            ("small_snr_slope", _check_small_snr_slope),
            ("quadrature_stability", _check_quadrature_stability),
            ("ebno_round_trip", _check_ebno_round_trip),
        ]
        if args.level == "full":
            seed, threads = args.seed, args.threads
            checks += [
                ("scaled_spectrum_ks", lambda: _check_scaled_spectrum(seed)),
                ("graph_route_agreement", lambda: _check_graph_route(seed)),
                ("mc_vs_quadrature", lambda: _check_mc_vs_quadrature(seed, threads)),
                ("regular_vs_irregular", lambda: _check_regular_vs_irregular(seed, threads)),
                ("full_scale_spectrum_ks", lambda: _check_full_scale_spectrum(seed)),
            ]
        lines = []
        n_fail = 0
        for name, fn in checks:
            try:
                ok, detail = fn()
            except (ValueError, *NUMERICAL_ERRORS) as exc:
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            if not ok:
                n_fail += 1
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
        report = "\n".join(lines) + "\n"
        sys.stdout.write(report)
        if args.out is not None:
            data = report.encode()
            Path(args.out).write_bytes(data)
            _write_manifest(args, args.out, data,
                            {"level": args.level, "n_checks": len(checks),
                             "n_failed": n_fail})
        return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL
    finally:
        spectra_mod._DENSITY_SIGN = 1.0


# ======================================================================
# Parser
# ======================================================================

def _add_common(sp: argparse.ArgumentParser, out_required: bool = True) -> None:
    sp.add_argument("--out", required=out_required,
                    help="output file path" + ("" if out_required else " (optional report copy)"))
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output table format")
    sp.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker cap for Monte Carlo trials; results are thread-count independent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regnoma",
        description="Limiting spectra and throughput of regular sparse code-domain spreading.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("density",
                        help="closed-form limiting density on a uniform support grid")
    sp.add_argument("--beta", type=float, required=True, help="load K/N, >= 1")
    sp.add_argument("--d", type=float, required=True, help="signature sparsity, >= 1 + 1/beta")
    sp.add_argument("--points", type=int, default=512, help="grid size")
    _add_common(sp)
    sp.set_defaults(func=_cmd_density)

    sp = sub.add_parser("cavity",
                        help="closed form vs scalar cavity inversion (and optional per-graph route)")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--d", type=float, required=True)
    sp.add_argument("--epsilon", type=float, default=1e-6,
                    help="imaginary offset for the scalar inversion, in (0, 1e-3]")
    sp.add_argument("--points", type=int, default=512)
    sp.add_argument("--graph-n", type=int, default=None,
                    help="sample one n-resource matrix and add the message-passing route")
    sp.add_argument("--graph-epsilon", type=float, default=5e-3,
                    help="imaginary offset for the per-graph route")
    _add_common(sp)
    sp.set_defaults(func=_cmd_cavity)

    sp = sub.add_parser("simulate",
                        help="pooled eigenvalue histogram of sampled matrices with analytic overlay")
    sp.add_argument("--n", type=int, required=True, help="resources per matrix")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100, help="number of realizations")
    sp.add_argument("--entries", choices=("ones", "rademacher"),
                    default="rademacher", help="nonzero entry mode")
    sp.add_argument("--bins", type=int, default=100, help="histogram bins")
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("throughput",
                        help="throughput curves at one operating point")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--d", type=float, required=True)
    point = sp.add_mutually_exclusive_group(required=True)
    point.add_argument("--snr-db", type=float, default=None,
                       help="per-user SNR in dB")
    point.add_argument("--ebno-db", type=float, default=None,
                       help="energy per bit over noise density in dB")
    sp.add_argument("--curves", default="regular,dense_rs,cover_wyner",
                    help="comma-separated subset of regular, dense_rs, cover_wyner, regular_mc, irregular_mc")
    sp.add_argument("--mc-n", type=int, default=None,
                    help="resources per Monte Carlo matrix")
    sp.add_argument("--mc-trials", type=int, default=None,
                    help="Monte Carlo trials")
    sp.add_argument("--entries", choices=("ones", "rademacher"),
                    default="rademacher")
    _add_common(sp)
    sp.set_defaults(func=_cmd_throughput)

    sp = sub.add_parser("sweep", help="throughput curves over a parameter grid")
    sp.add_argument("--variable", required=True,
                    choices=("load", "sparsity", "ebno"),
                    help="swept quantity; ebno sweeps read the grid in dB")
    grid = sp.add_mutually_exclusive_group(required=True)
    grid.add_argument("--values", default=None,
                      help="comma-separated grid points")
    grid.add_argument("--range", dest="grid_range", nargs=3, type=float,
                      default=None, metavar=("LO", "HI", "STEPS"),
                      help="uniform grid; load grids keep only integer beta*d points")
    sp.add_argument("--beta", type=float, default=None,
                    help="fixed load (sparsity and ebno sweeps)")
    sp.add_argument("--d", type=float, default=None,
                    help="fixed sparsity (load and ebno sweeps)")
    sp.add_argument("--snr-db", type=float, default=None)
    sp.add_argument("--ebno-db", type=float, default=None)
    sp.add_argument("--curves", default="regular,dense_rs,cover_wyner")
    sp.add_argument("--mc-n", type=int, default=None)
    sp.add_argument("--mc-trials", type=int, default=None)
    sp.add_argument("--entries", choices=("ones", "rademacher"),
                    default="rademacher")
    _add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("validate",
                        help="run the numerical invariant suite and report pass/fail")
    sp.add_argument("--level", choices=("fast", "full"), default="fast",
                    help="fast runs in seconds; full adds sampled-ensemble checks (minutes)")
    sp.add_argument("--inject-sign-flip", action="store_true",
                    help=argparse.SUPPRESS)
    _add_common(sp, out_required=False)
    sp.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
