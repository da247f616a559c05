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
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import cavity as cavity_mod
from . import throughput as tp
from .ensembles import EnsembleSpec, EntryMode, generate_regular
from .spectra import (DensityParams, analytic_density, ks_distance, pooled_spectrum,
                      spectrum_histogram)

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


def _table_bytes(table: dict[str, np.ndarray], fmt: str) -> bytes:
    """The table's columns, in its key order, as a CSV or JSON file; each cell
    is converted once, a non-finite one to an empty cell or a null."""
    names = list(table)
    if fmt == "csv":
        def cell(x: float) -> str:
            return format(x, ".17g") if math.isfinite(x) else ""
    else:
        def cell(x: float) -> float | None:
            return x if math.isfinite(x) else None
    rows = zip(*([cell(x) for x in np.asarray(column, dtype=np.float64).tolist()]
                 for column in table.values()))
    if fmt == "csv":
        return ("\n".join([",".join(names), *map(",".join, rows)]) + "\n").encode()
    doc = {"columns": names, "rows": [dict(zip(names, row)) for row in rows]}
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _resolved_params(args: argparse.Namespace) -> dict:
    skip = {"func", "subcommand"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _overwrite(path: str, data: bytes) -> None:
    """Write ``data`` over the file at ``path``, then cut it to length.

    Truncating to zero before the write, as ``Path.write_bytes`` does, makes
    ext4 flush the file on close: 0.1-0.25 ms per file, against ~10 us for
    a write in place.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        f.truncate()


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
    _overwrite(out_path + ".manifest.json", payload)


def _emit(args: argparse.Namespace, table: dict[str, np.ndarray], results: dict) -> int:
    """Write ``table``, a column name -> 1-D array mapping, and its manifest."""
    data = _table_bytes(table, args.format)
    _overwrite(args.out, data)
    _write_manifest(args, args.out, data, results)
    return EXIT_OK


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


# ======================================================================
# Subcommands
# ======================================================================

def _cmd_density(args: argparse.Namespace) -> int:
    _require_positive("--points", args.points)
    p = DensityParams(beta=args.beta, d=args.d)
    grid = np.linspace(p.lambda_minus, p.lambda_plus, args.points)
    return _emit(args, {"lambda": grid, "density": analytic_density(grid, p)},
                 {"lambda_minus": p.lambda_minus, "lambda_plus": p.lambda_plus})


def _cmd_cavity(args: argparse.Namespace) -> int:
    _require_positive("--points", args.points)
    p = DensityParams(beta=args.beta, d=args.d)
    for epsilon in (args.epsilon, args.graph_epsilon):  # usage errors before any work
        cavity_mod.check_epsilon(epsilon)
    have_graph = args.graph_n is not None
    if have_graph:
        espec = EnsembleSpec.from_load(args.graph_n, args.beta, args.d,
                                       EntryMode.RADEMACHER, args.seed)
    grid = np.linspace(p.lambda_minus, p.lambda_plus, args.points)
    closed = analytic_density(grid, p)
    _, tree = cavity_mod.cavity_on_tree(p, grid + 1j * args.epsilon)
    scalar = -tree.imag / np.pi
    graph = np.full(grid.size, np.nan)
    graph_results = dict.fromkeys(("n_failed_graph", "graph_sweeps_total",
                                   "graph_sweeps_max", "graph_message_classes"))
    if have_graph:
        matrix = generate_regular(espec, realization=0)
        run = cavity_mod.cavity_on_graph(matrix, grid + 1j * args.graph_epsilon)
        graph = run.density
        graph_results = {"n_failed_graph": run.n_failed,
                         "graph_sweeps_total": int(run.point_sweeps.sum()),
                         "graph_sweeps_max": run.sweeps,
                         "graph_message_classes": run.n_classes}
    err_scalar = np.abs(scalar - closed)
    err_graph = np.abs(graph - closed)  # NaN, written as missing, without a graph
    gap = cavity_mod.EDGE_GAP
    interior = (grid > p.lambda_minus + gap) & (grid < p.lambda_plus - gap)
    results = {
        "lambda_minus": p.lambda_minus,
        "lambda_plus": p.lambda_plus,
        "n_failed_scalar": int(np.isnan(scalar).sum()),
        "sup_abs_err_scalar_interior": _sup_or_none(err_scalar[interior]),
        "sup_abs_err_graph": _sup_or_none(err_graph),
        **graph_results,
    }
    return _emit(args, dict(zip(CAVITY_COLUMNS, (grid, closed, scalar, graph, err_scalar,
                                                 err_graph))), results)


def _sup_or_none(err: np.ndarray):
    finite = err[np.isfinite(err)]
    return float(finite.max()) if finite.size else None


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require_positive("--trials", args.trials)
    _require_positive("--bins", args.bins)
    espec = EnsembleSpec.from_load(args.n, args.beta, args.d,
                                   EntryMode(args.entries), args.seed)
    p = DensityParams.from_ensemble(espec)
    pooled = pooled_spectrum(espec, args.trials)
    ks = ks_distance(pooled, p)
    centers, empirical = spectrum_histogram(pooled, p, bins=args.bins)
    results = {
        "ks_distance": ks,
        "n_eigenvalues_pooled": pooled.size,
        "n_trivial_excluded": args.trials * espec.n_resources - pooled.size,
        "lambda_minus": p.lambda_minus,
        "lambda_plus": p.lambda_plus,
    }
    return _emit(args, {"lambda": centers, "analytic_density": analytic_density(centers, p),
                        "empirical_density": empirical}, results)


def _parse_curves(token: str) -> tuple[tp.Curve, ...]:
    """The comma-separated curve names of ``--curves``, in any case."""
    names = [t.strip() for t in token.split(",") if t.strip()]
    if not names:
        raise ValueError("need at least one curve")
    known = {c.value: c for c in tp.Curve}
    for name in names:
        if name.lower() not in known:
            raise ValueError(f"unknown curve {name!r}")
    return tuple(known[name.lower()] for name in names)


def _cmd_sweep(args: argparse.Namespace) -> int:
    fields = dict(variable=tp.SweepVariable(args.variable),
                  curves=_parse_curves(args.curves), beta=args.beta, d=args.d,
                  snr_db=args.snr_db, ebno_db=args.ebno_db, mc_n=args.mc_n,
                  mc_trials=args.mc_trials, seed=args.seed,
                  entry_mode=EntryMode(args.entries))
    if args.values is not None:
        values = tuple(float(t) for t in args.values.split(","))
        spec = tp.SweepSpec(values=values, **fields)
    else:
        lo, hi, steps = args.grid_range
        if not steps.is_integer():  # nan and inf included
            raise ValueError(f"STEPS must be a whole number, got {steps}")
        spec = tp.SweepSpec.from_range(lo=lo, hi=hi, steps=int(steps), **fields)
    table = tp.sweep(spec)
    results = {"failed_points": table["x"][table["failed"]].tolist(),
               "failed_mc_trials": int(table["failed_mc_trials"].sum())}
    return _emit(args, {key: table[key] for key in tp.SWEEP_COLUMNS}, results)


# ======================================================================
# Validation suite
# ======================================================================

def _cmd_validate(args: argparse.Namespace) -> int:
    from .checks import CHECKS, run_checks  # only validate loads the registry
    checks = [c for c in CHECKS if args.level == "full" or c.level == "fast"]
    report, n_fail, gates = run_checks(checks, args.seed)
    sys.stdout.write(report)
    if args.out is not None:
        data = report.encode()
        _overwrite(args.out, data)
        _write_manifest(args, args.out, data, {"level": args.level, "n_checks": len(checks),
                                               "n_failed": n_fail, "gates": gates})
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


# ======================================================================
# Parser
# ======================================================================

def _names(enum) -> list[str]:
    return [member.value for member in enum]


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", required=True, help="output file path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output table format")
    sp.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _add_entries(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--entries", choices=_names(EntryMode),
                    default=EntryMode.RADEMACHER.value, help="nonzero entry mode")


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
                    help="imaginary offset for the scalar route, finite and positive")
    sp.add_argument("--points", type=int, default=512)
    sp.add_argument("--graph-n", type=int, default=None,
                    help="sample one n-resource matrix and add the message-passing route")
    sp.add_argument("--graph-epsilon", type=float, default=cavity_mod.GRAPH_EPSILON,
                    help="imaginary offset for the per-graph route, finite and positive")
    _add_common(sp)
    sp.set_defaults(func=_cmd_cavity)

    sp = sub.add_parser("simulate",
                        help="pooled eigenvalue histogram of sampled matrices with analytic overlay")
    sp.add_argument("--n", type=int, required=True, help="resources per matrix")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100, help="number of realizations")
    _add_entries(sp)
    sp.add_argument("--bins", type=int, default=100, help="histogram bins")
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("sweep", help="throughput curves over a parameter grid")
    sp.add_argument("--variable", required=True,
                    choices=_names(tp.SweepVariable),
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
    sp.add_argument("--snr-db", type=float, default=None,
                    help="fixed per-user SNR in dB (load and sparsity sweeps)")
    sp.add_argument("--ebno-db", type=float, default=None,
                    help="fixed energy per bit over noise density in dB")
    sp.add_argument("--curves", default=",".join(_names(tp.DEFAULT_CURVES)),
                    help=f"comma-separated subset of {', '.join(_names(tp.Curve))}")
    sp.add_argument("--mc-n", type=int, default=None,
                    help="resources per Monte Carlo matrix")
    sp.add_argument("--mc-trials", type=int, default=None,
                    help="Monte Carlo trials")
    _add_entries(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("validate",
                        help="run the numerical invariant suite and report pass/fail")
    sp.add_argument("--level", choices=("fast", "full"), default="fast",
                    help="fast runs in seconds; full adds sampled-ensemble checks (minutes)")
    sp.add_argument("--out", default=None, help="optional copy of the report")
    sp.add_argument("--seed", type=int, default=0,
                    help="base RNG seed of the sampled-ensemble checks")
    sp.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and reused after it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
