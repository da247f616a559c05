"""Benchmark of the regnoma command line, end to end and layer by layer.

Run from the root of a regnoma checkout:

    python3 benchmarks/run.py --workload cavity_graph --seed 0 --seconds 20 --trace 0

Each pass runs the workload's fixed CLI invocations in this process through
``regnoma.cli.main``, writing under ``.bench_work/``.  Every pass's outputs go
through the workload's correctness gate.  One cold pass at ``--heldout-seed``
comes first; warm passes at ``--seed`` then repeat for ``--seconds`` seconds.

``--trace 0`` times warm passes with no tracing installed and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced passes with passes
traced by ``bench_trace.Tracer`` and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (CLI invocations) and ``metrics``; a full record
(machine, argv, gate margins, output digests, per-pass numbers) is written
to ``.bench_work/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_trace
from bench_workloads import WORKLOADS, Invocation, read_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# seeds 0..3 draw the same 2000 MC realizations under PCG64(seed ^ trial);
# 2**32 shares no stream with any small seed
HELDOUT_SEED = 2 ** 32
SETUP_FIRST = 3

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (metric, unit); every count and time here is better lower
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.cold_pass_excess_s", "s"),
    ("trace_overhead_frac", "frac"),
    ("cavity.self_s", "s"),
    ("cavity.cavity_on_graph.calls", "count"),
    ("cavity.cavity_on_graph.self_s", "s"),
    ("cavity.cavity_on_graph.p50_ms", "ms"),
    ("cavity.cavity_on_graph.p90_ms", "ms"),
    ("cavity.mp_sweeps", "count"),
    ("cavity.mp_sweeps_max", "count"),
    ("cavity.stieltjes_inversion.self_s", "s"),
    ("cavity.graph_route_density.self_s", "s"),
    ("linalg.self_s", "s"),
    ("linalg.calls", "count"),
    ("linalg.n3_sum", "count"),
    ("ensembles.self_s", "s"),
    ("ensembles.gram.calls", "count"),
    ("ensembles.gram.self_s", "s"),
    ("ensembles.gram.bytes_computed", "B"),
    ("ensembles.generate_regular.calls", "count"),
    ("ensembles.generate_regular.self_s", "s"),
    ("ensembles.generate_irregular.calls", "count"),
    ("ensembles.generate_irregular.self_s", "s"),
    ("spectra.self_s", "s"),
    ("spectra.ks_distance.self_s", "s"),
    ("quadrature.self_s", "s"),
    ("quadrature.partial_integrals.self_s", "s"),
    ("quadrature.partial_integrals.points", "count"),
    ("quadrature.support_integral.calls", "count"),
    ("quadrature.support_integral.self_s", "s"),
    ("quadrature.support_integral.per_inversion", "ratio"),
    ("throughput.self_s", "s"),
    ("throughput.snr_for_ebno.calls", "count"),
    ("throughput.snr_for_ebno.self_s", "s"),
    ("throughput.finite_n_throughput_mc.self_s", "s"),
    ("throughput.mc_trials", "count"),
    ("throughput.mc_failed", "count"),
)

# per-layer metric -> traced span, where the two names differ
SPAN_OF = {"ensembles.gram": "ensembles.SparseSignatureMatrix.gram"}
# spans whose self_s includes their child spans: gram densifies the matrix
# through to_dense, its only caller, and that step is part of its cost
INCLUSIVE = frozenset(("ensembles.gram",))
# cli.self_s was 0.1-0.4% of a full-size traced pass and about 1.5% of a
# self-test's smoke-size one; a binding site the tracer misses moves its
# time into cli.self_s, so a larger share fails the run
CLI_SELF_LIMIT = 0.05


def import_cli():
    """Import ``regnoma.cli`` from this checkout's sources, or exit nonzero."""
    init = SRC / "regnoma" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: {init} not found; run from a regnoma checkout")
    sys.path.insert(0, str(SRC))
    from regnoma import cli
    if Path(cli.__file__).resolve().parent != init.resolve().parent:
        raise SystemExit(f"benchmark: imported regnoma from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(count: int) -> list[float]:
    """Seconds each of ``count`` fresh interpreters spends importing the CLI."""
    code = ("import time; t = time.perf_counter(); import regnoma, regnoma.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout))
    return out


class Ledger:
    """Counts invocations, failures, gate margins and output digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.margins: dict[str, dict] = {}
        self.digests: dict[int, dict[str, str]] = {}

    def check(self, invocations: tuple[Invocation, ...], codes: list[int | None],
              seed: int, workdir: Path) -> None:
        for inv, code in zip(invocations, codes):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.problems.append(f"{inv.label} seed {seed}: exit code {code}")
                continue
            try:
                rows, manifest = read_output(workdir / f"{inv.label}.csv")
                self.digests.setdefault(seed, {})[inv.label] = manifest["output"]["sha256"]
                gates = inv.check(rows, manifest)
            except Exception:
                # an output the gate cannot read is a failed invocation
                self.failed += 1
                self.problems.append(f"{inv.label} seed {seed}: unreadable output\n"
                                     + traceback.format_exc())
                continue
            for g in gates:
                key = f"{inv.label}.{g.name}"
                worst = self.margins.get(key)
                if worst is None or not g.margin >= worst["margin"]:
                    self.margins[key] = {"value": g.value, "op": g.op,
                                         "limit": g.limit, "margin": g.margin}
            bad = [g for g in gates if not g.passed]
            if bad:
                self.failed += 1
                self.problems.extend(f"{inv.label} seed {seed}: {g.name} = {g.value} "
                                     f"fails {g.op} {g.limit}" for g in bad)


def run_pass(cli, invocations: tuple[Invocation, ...], seed: int,
             workdir: Path) -> tuple[float, float, list[int | None]]:
    """Run the invocations once; return wall seconds, CPU seconds, exit codes."""
    commands = [inv.command(seed, workdir) for inv in invocations]
    codes: list[int | None] = []
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in commands:
        try:
            codes.append(cli.main(argv))
        except Exception:
            traceback.print_exc()
            codes.append(None)
    return time.perf_counter() - t0, time.process_time() - c0, codes


def layer_metrics(tracer: bench_trace.Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    stats = tracer.stats
    out: dict[str, float] = {f"{layer}.self_s": 0.0
                             for layer in (*bench_trace.LAYERS, "linalg")}
    out["linalg.calls"] = 0
    for name, span in stats.items():
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += span.self_time
        if layer == "linalg":
            out["linalg.calls"] += span.calls
    for metric, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if metric in bench_trace.COUNTER_NAMES:
            out[metric] = tracer.counters.get(metric, 0)
        elif field in ("calls", "self_s") and metric not in out:
            span = stats.get(SPAN_OF.get(base, base))
            if span is None:
                out[metric] = 0
            elif field == "calls":
                out[metric] = span.calls
            else:
                out[metric] = span.total if base in INCLUSIVE else span.self_time
    inversions = out["throughput.snr_for_ebno.calls"]
    out["quadrature.support_integral.per_inversion"] = (
        out["quadrature.support_integral.calls"] / inversions if inversions else 0.0)
    return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 to 99) of a non-empty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return None
    q = int(100 * (1 - 10 / len(values)))
    return {"percentile": q, "value": percentile(values, q)}


def machine_record() -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 2 has no dict mode
        deps = {}
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--heldout-seed", type=int, default=HELDOUT_SEED,
                    help="seed of the cold first pass, gated but not timed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long warm passes repeat")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    invocations = workload.invocations
    workdir = WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()

    # set-up samples are spread over the run (a few first, then one after
    # each timed pass) so their median sees the same machine as the passes
    setup = [] if args.trace else measure_setup(SETUP_FIRST)

    def checked_pass(seed: int) -> tuple[float, float]:
        wall, cpu, codes = run_pass(cli, invocations, seed, workdir)
        ledger.check(invocations, codes, seed, workdir)
        return wall, cpu

    # the first pass in the process runs at the held-out seed: it warms
    # the process up and proves the gate on data the workload seed never draws
    cold_wall, _ = checked_pass(args.heldout_seed)

    walls: list[float] = []
    cpus: list[float] = []
    traced: list[dict] = []
    traced_walls: list[float] = []
    graph_durations: list[float] = []
    start = time.perf_counter()
    while not walls or (args.trace and not traced) or time.perf_counter() - start < args.seconds:
        bench_trace.assert_untraced()
        wall, cpu = checked_pass(args.seed)
        walls.append(wall)
        cpus.append(cpu)
        if not args.trace:
            setup += measure_setup(1)
            continue
        tracer = bench_trace.Tracer()
        with tracer.installed():
            wall, _, codes = run_pass(cli, invocations, args.seed, workdir)
        ledger.check(invocations, codes, args.seed, workdir)
        layers = layer_metrics(tracer)
        top = sum(tracer.top_level)
        if abs(wall - top) > layers["cli.self_s"]:
            ledger.problems.append(f"traced pass wall {wall:.6f} s and top-level spans "
                                   f"{top:.6f} s differ by more than cli.self_s")
        if layers["cli.self_s"] > CLI_SELF_LIMIT * wall:
            ledger.problems.append(f"cli.self_s is {layers['cli.self_s'] / wall:.2%} of the "
                                   f"traced pass, over {CLI_SELF_LIMIT:.0%}: a call "
                                   "escaped the tracer")
        traced.append(layers)
        traced_walls.append(wall)
        span = tracer.stats.get("cavity.cavity_on_graph")
        graph_durations.extend(span.durations if span else [])

    warm = statistics.median(walls)
    if args.trace:
        metrics = {m: statistics.median(p[m] for p in traced) for m, _ in PER_LAYER
                   if m in traced[0]}
        for q in (50, 90):
            metrics[f"cavity.cavity_on_graph.p{q}_ms"] = (
                percentile(graph_durations, q) * 1e3 if graph_durations else 0.0)
        metrics["cli.cold_pass_excess_s"] = cold_wall - warm
        metrics["trace_overhead_frac"] = statistics.median(traced_walls) / warm - 1.0
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_s": warm,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END)

    correct = ledger.failed == 0 and not ledger.problems
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "heldout_seed": args.heldout_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": {str(s): [["regnoma", *inv.command(s, workdir)] for inv in invocations]
                 for s in (args.seed, args.heldout_seed)},
        "machine": machine_record(),
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
        "margins": ledger.margins,
        "output_sha256": {str(k): v for k, v in ledger.digests.items()},
        "cold_pass_wall_s": cold_wall,
        "warm_pass_wall_s": walls,
        "warm_pass_cpu_s": cpus,
        "warm_pass_count": len(walls),
        "wall_s_tail": tail(walls),
        "setup_s_samples": setup,
        "traced_pass_count": len(traced),
        "traced_pass_wall_s": traced_walls,
        "traced_pass_layers": traced,
        "metrics": metrics,
    }
    record_path = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for problem in ledger.problems:
        print(f"FAIL {problem}")
    print(f"{workload.name}: {len(walls)} warm passes, median {warm:.4f} s; "
          f"{ledger.failed}/{ledger.attempted} invocations failed; record in {record_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
