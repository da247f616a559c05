"""The benchmark's workloads and the correctness gate applied to their outputs.

A workload is a fixed list of ``regnoma`` CLI invocations; the benchmark
appends ``--seed`` and ``--out`` to each.  Every invocation names the gate
that checks its output table and manifest.  Gates use the release-gate
tolerances of the acceptance tests and record how far each measured value
sits from its tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Gate:
    """One measured value held against a tolerance: ``value op limit``."""

    name: str
    value: float
    op: str
    limit: float

    @property
    def passed(self) -> bool:
        v, lim = self.value, self.limit
        return {"<": v < lim, ">": v > lim, ">=": v >= lim, "==": v == lim}[self.op]

    @property
    def margin(self) -> float:
        """Distance to the tolerance, positive when the gate passes with room."""
        if self.op == "==":
            return -abs(self.value - self.limit)
        if self.op == "<":
            return self.limit - self.value
        return self.value - self.limit


Rows = list[dict[str, float | None]]
Checker = Callable[[Rows, dict], list[Gate]]


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    check: Checker

    def command(self, seed: int, workdir: Path) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", str(workdir / f"{self.label}.csv")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


def read_output(path: Path) -> tuple[Rows, dict]:
    """Parse a CLI output CSV (empty cells become None) and its manifest."""
    with open(path, newline="") as fh:
        rows = [{k: (float(v) if v != "" else None) for k, v in row.items()}
                for row in csv.DictReader(fh)]
    manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
    return rows, manifest


def _num(x) -> float:
    return math.nan if x is None else float(x)


def _worst(values, pick=max) -> float:
    """Worst of the values; NaN (a missing cell counts as failed) if any is NaN."""
    values = [_num(v) for v in values]
    if not values or any(math.isnan(v) for v in values):
        return math.nan
    return pick(values)


def support_edges(beta: float, d: float) -> tuple[float, float]:
    """Support of the limiting law, lambda_pm = alpha + gamma +- 2 sqrt(alpha gamma)."""
    alpha, gamma = (d - 1.0) / d, (beta * d - 1.0) / d
    r = 2.0 * math.sqrt(alpha * gamma)
    return alpha + gamma - r, alpha + gamma + r


def check_cavity(rows: Rows, manifest: dict) -> list[Gate]:
    params, res = manifest["parameters"], manifest["results"]
    lo, hi = support_edges(params["beta"], params["d"])
    lam = [r["lambda"] for r in rows]
    # the inversion is ill-conditioned right at the square-root edges
    interior = [r for r in rows if lo + 1e-3 < r["lambda"] < hi - 1e-3]
    inset = 0.03 * (hi - lo)
    # the graph route's Lorentzian smoothing dominates the raw full-grid
    # error near the edges, so the graph gate uses the 3%-inset support
    inner = [r for r in rows if lo + inset <= r["lambda"] <= hi - inset]

    def err(r, col):
        return abs(_num(r[col]) - _num(r["density_closed_form"]))

    return [
        Gate("rows", len(rows), "==", params["points"]),
        Gate("support_edge_abs_err",
             _worst([abs(lam[0] - lo), abs(lam[-1] - hi)]) if lam else math.nan, "<", 1e-12),
        Gate("n_failed_scalar", _num(res["n_failed_scalar"]), "==", 0),
        Gate("sup_abs_err_scalar_interior",
             _worst(err(r, "density_cavity_scalar") for r in interior), "<", 1e-3),
        Gate("sup_abs_err_graph_inset",
             _worst(err(r, "density_cavity_graph") for r in inner), "<", 0.05),
    ]


def check_spectrum(rows: Rows, manifest: dict) -> list[Gate]:
    params, res = manifest["parameters"], manifest["results"]
    centers = [r["lambda"] for r in rows]
    width = (centers[-1] - centers[0]) / (len(centers) - 1) if len(centers) > 1 else math.nan
    mass = sum(_num(r["empirical_density"]) for r in rows) * width
    return [
        Gate("rows", len(rows), "==", params["bins"]),
        Gate("ks_distance", _num(res["ks_distance"]), "<", 0.02),
        Gate("n_eigenvalues_pooled", _num(res["n_eigenvalues_pooled"]), "==",
             params["trials"] * params["n"]),
        Gate("histogram_mass_abs_err", abs(mass - 1.0), "<", 1e-9),
    ]


def _grid_size(params: dict) -> int:
    if params.get("values") is not None:
        return len(params["values"].split(","))
    return int(params["grid_range"][2])


def check_sweep_fine(rows: Rows, manifest: dict) -> list[Gate]:
    params, res = manifest["parameters"], manifest["results"]

    def ebno_err(r):
        # Eb/N0 = beta snr / 2C and 2C = log2(1 + beta snr) on the ceiling
        two_c = 2.0 * _num(r["cover_wyner"])
        return abs((2.0 ** two_c - 1.0) / two_c / 10.0 ** (r["x"] / 10.0) - 1.0)

    return [
        Gate("rows", len(rows), "==", _grid_size(params)),
        Gate("failed_points", len(res["failed_points"]), "==", 0),
        Gate("min_cover_wyner_minus_regular",
             _worst((_num(r["cover_wyner"]) - _num(r["regular"]) for r in rows), min), ">=", 0.0),
        Gate("min_regular_minus_dense_rs",
             _worst((_num(r["regular"]) - _num(r["dense_rs"]) for r in rows), min), ">", 0.0),
        Gate("cover_wyner_ebno_rel_err", _worst(ebno_err(r) for r in rows), "<", 1e-6),
    ]


def check_sweep_mc(rows: Rows, manifest: dict) -> list[Gate]:
    params, res = manifest["parameters"], manifest["results"]

    def rel(r):
        return abs(_num(r["regular_mc"]) - _num(r["regular"])) / _num(r["regular"])

    def gap(r):
        pooled = math.hypot(_num(r["regular_mc_stderr"]), _num(r["irregular_mc_stderr"]))
        return (_num(r["regular_mc"]) - _num(r["irregular_mc"])) / pooled

    return [
        Gate("rows", len(rows), "==", _grid_size(params)),
        Gate("failed_points", len(res["failed_points"]), "==", 0),
        Gate("max_rel_err_regular_mc", _worst(rel(r) for r in rows), "<", 0.05),
        Gate("min_mc_gap_over_pooled_stderr", _worst((gap(r) for r in rows), min), ">", 5.0),
    ]


def cavity_invocations(graph_n: int, points: int) -> tuple[Invocation, ...]:
    return (Invocation("cavity", ("cavity", "--beta", "1.5", "--d", "2", "--graph-n",
                                  str(graph_n), "--points", str(points)), check_cavity),)


def simulate_invocations(n: int, trials: int) -> tuple[Invocation, ...]:
    return (Invocation("spectrum", ("simulate", "--n", str(n), "--beta", "3", "--d", "4",
                                    "--trials", str(trials), "--entries", "rademacher"),
                       check_spectrum),)


def sweep_invocations(steps: int, values: str, trials: int) -> tuple[Invocation, ...]:
    return (
        Invocation("fine", ("sweep", "--variable", "ebno", "--range", "0", "20", str(steps),
                            "--beta", "1.5", "--d", "2"), check_sweep_fine),
        Invocation("mc", ("sweep", "--variable", "ebno", "--values", values,
                          "--beta", "1.5", "--d", "2",
                          "--curves", "regular,regular_mc,irregular_mc",
                          "--mc-n", "10", "--mc-trials", str(trials)), check_sweep_mc),
    )


WORKLOADS = {w.name: w for w in (
    Workload("cavity_graph",
             "three-route density check; graph message passing dominates, "
             "sampling, eigensolves and quadrature stay idle",
             cavity_invocations(1000, 128)),
    Workload("spectrum_pool",
             "pooled N=520 spectra and KS against the analytic CDF; a few medium dense "
             "Gram products and eigensolves dominate",
             simulate_invocations(520, 100)),
    Workload("throughput_curves",
             "fine Eb/N0 throughput curve plus MC markers; quadrature-heavy inversions "
             "and 16k tiny samples and eigensolves",
             sweep_invocations(201, "4,7,10,13", 2000)),
)}
