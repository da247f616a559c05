"""Command-line surface for the spectral and throughput computations.

Subcommands evaluate the closed-form limiting density, cross-check it
against the scalar and per-graph cavity routes, pool sampled finite-size
spectra, and tabulate throughput curves.  Every file-emitting run writes a
JSON manifest next to the output (subcommand, resolved parameters, seed,
package version, output checksum); reruns with identical flags produce
byte-identical output and manifest.

Exit codes: 0 on success, 2 for usage errors (bad flags or values), 3 for
numerical failures (one of ``throughput.NUMERICAL_ERRORS``: quadrature
non-convergence, generation failure, eigensolver breakdown; or failed
validation checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import cavity as cavity_mod
from . import throughput as tp
from .checks import CHECKS, Gate
from .ensembles import EnsembleSpec, EntryMode, generate_regular
from .spectra import (DensityParams, analytic_density, empirical_spectrum,
                      ks_distance, spectrum_histogram)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

CAVITY_COLUMNS = ("lambda", "density_closed_form", "density_cavity_scalar",
                  "density_cavity_graph", "abs_err_scalar", "abs_err_graph")


# ======================================================================
# Output plumbing
# ======================================================================

def _clean(value):
    """The value as written out: NaN and infinities become None."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_clean(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    x = float(value)
    return x if math.isfinite(x) else None


def _cell(value) -> str:
    x = _clean(value)
    return "" if x is None else format(float(x), ".17g")


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
        "results": _clean(results),
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
    have_graph = args.graph_n is not None
    if have_graph:  # a bad graph route is a usage error before any work
        cavity_mod.check_graph_epsilon(args.graph_epsilon)
        espec = EnsembleSpec.from_load(args.graph_n, args.beta, args.d,
                                       EntryMode.RADEMACHER, args.seed)
    grid = np.linspace(p.lambda_minus, p.lambda_plus, args.points)
    closed = analytic_density(grid, p)
    scalar = cavity_mod.stieltjes_inversion(grid, p, epsilon=args.epsilon)
    graph = np.full(grid.size, np.nan)
    graph_results = dict.fromkeys(("n_failed_graph", "graph_sweeps_total",
                                   "graph_sweeps_max", "graph_message_classes"))
    if have_graph:
        matrix = generate_regular(espec, realization=0)
        route = cavity_mod.graph_route_density(matrix, grid,
                                               epsilon=args.graph_epsilon)
        graph = route.density
        graph_results = {"n_failed_graph": route.n_failed,
                         "graph_sweeps_total": int(route.sweeps.sum()),
                         "graph_sweeps_max": int(route.sweeps.max()),
                         "graph_message_classes": route.n_classes}
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
        **graph_results,
    }
    return _emit(args, CAVITY_COLUMNS, rows, results)


def _sup_or_none(err: np.ndarray):
    finite = err[np.isfinite(err)]
    return float(finite.max()) if finite.size else None


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require_positive("--trials", args.trials)
    _require_positive("--bins", args.bins)
    mode = EntryMode.parse(args.entries)
    espec = EnsembleSpec.from_load(args.n, args.beta, args.d, mode, args.seed)
    p = DensityParams.from_ensemble(espec)
    samples = [empirical_spectrum(generate_regular(espec, realization=t))
               for t in range(args.trials)]
    ks = ks_distance(samples, p)
    centers, empirical = spectrum_histogram(samples, p, bins=args.bins)
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
    results = {"failed_points": [row["x"] for row in rows if row["failed"]],
               "failed_mc_trials": sum(row["failed_mc_trials"] for row in rows)}
    if x_override is not None:
        for row in rows:
            row["x"] = x_override
    return _emit(args, tp.SWEEP_COLUMNS, rows, results)


def _cmd_throughput(args: argparse.Namespace) -> int:
    common = dict(curves=_parse_curves(args.curves),
                  mc_n=args.mc_n, mc_trials=args.mc_trials, seed=args.seed,
                  entry_mode=EntryMode.parse(args.entries))
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
                  entry_mode=EntryMode.parse(args.entries))
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

def _cmd_validate(args: argparse.Namespace) -> int:
    density = ((lambda lam, p: -analytic_density(lam, p)) if args.inject_sign_flip
               else analytic_density)
    checks = [c for c in CHECKS if args.level == "full" or c.level == "fast"]
    lines, records = [], []
    n_fail = 0
    for check in checks:
        try:
            gates = check.run(density, args.seed)
            ok = all(g.passed for g in gates)
            detail = "; ".join(map(str, gates))
        except tp.NUMERICAL_ERRORS as exc:
            gates = [Gate(b, math.nan) for b in check.bounds]  # recorded as null
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        n_fail += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {check.name}: {detail}")
        records.extend({"check": check.name, "quantity": g.bound.quantity,
                        "op": g.bound.op, "tolerance": g.bound.tolerance,
                        "value": g.value, "margin": g.margin, "passed": g.passed}
                       for g in gates)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out is not None:
        data = report.encode()
        Path(args.out).write_bytes(data)
        _write_manifest(args, args.out, data,
                        {"level": args.level, "n_checks": len(checks),
                         "n_failed": n_fail, "gates": records})
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


# ======================================================================
# Parser
# ======================================================================

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", required=True, help="output file path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output table format")
    sp.add_argument("--seed", type=int, default=0, help="base RNG seed")


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
    sp.add_argument("--epsilon", type=float, default=cavity_mod.DEFAULT_EPSILON,
                    help="imaginary offset for the scalar inversion, in (0, 1e-3]")
    sp.add_argument("--points", type=int, default=512)
    sp.add_argument("--graph-n", type=int, default=None,
                    help="sample one n-resource matrix and add the message-passing route")
    sp.add_argument("--graph-epsilon", type=float, default=cavity_mod.GRAPH_EPSILON,
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
    sp.add_argument("--out", default=None, help="optional copy of the report")
    sp.add_argument("--seed", type=int, default=0,
                    help="base RNG seed of the sampled-ensemble checks")
    sp.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tp.NUMERICAL_ERRORS as exc:  # first: LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
