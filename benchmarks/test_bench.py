"""Self-tests of the benchmark at smoke size: pipeline, gate, seeds, tracing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_trace
import run
from bench_workloads import (WORKLOADS, Workload, cavity_invocations, read_output,
                             simulate_invocations, sweep_invocations)

ROOT = Path(__file__).resolve().parent.parent


# each workload's pipeline at smoke size
SMOKE = {w.name: Workload(w.name, w.why, invocations) for w, invocations in (
    (WORKLOADS["cavity_graph"], cavity_invocations(200, 16)),
    (WORKLOADS["spectrum_pool"], simulate_invocations(208, 40)),
    (WORKLOADS["throughput_curves"], sweep_invocations(21, "4,10", 600)),
)}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "WORKLOADS", SMOKE)
    return tmp_path


def bench(capsys, *argv):
    assert run.main([*argv, "--seconds", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def single_pass(name, seed, workdir):
    cli = run.import_cli()
    ledger = run.Ledger()
    invocations = SMOKE[name].invocations
    _, _, codes = run.run_pass(cli, invocations, seed, workdir)
    ledger.check(invocations, codes, seed, workdir)
    return ledger, invocations


IDLE = {
    "cavity_graph": ("quadrature.support_integral.calls", "throughput.mc_trials",
                     "linalg.calls", "ensembles.gram.calls"),
    "spectrum_pool": ("cavity.cavity_on_graph.calls", "quadrature.support_integral.calls",
                      "throughput.snr_for_ebno.calls"),
    "throughput_curves": ("cavity.cavity_on_graph.calls", "quadrature.partial_integrals.points"),
}
BUSY = {
    "cavity_graph": ("cavity.cavity_on_graph.calls", "cavity.mp_sweeps"),
    "spectrum_pool": ("linalg.n3_sum", "ensembles.gram.bytes_computed",
                      "quadrature.partial_integrals.points"),
    "throughput_curves": ("quadrature.support_integral.calls", "throughput.mc_trials",
                          "ensembles.generate_irregular.calls", "linalg.calls"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(name, workdir, capsys):
    result = bench(capsys, "--workload", name, "--seed", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m for m, _ in run.PER_LAYER}
    for m in IDLE[name]:
        assert metrics[m]["value"] == 0, m
    for m in BUSY[name]:
        assert metrics[m]["value"] > 0, m
    bench_trace.assert_untraced()


def test_traced_run_fails_when_a_layer_escapes_the_tracer(workdir, capsys, monkeypatch):
    # with the throughput module unwrapped, its time lands in cli.self_s
    monkeypatch.setattr(bench_trace, "LAYERS",
                        tuple(x for x in bench_trace.LAYERS if x != "throughput"))
    result = bench(capsys, "--workload", "throughput_curves", "--seed", "0", "--trace", "1")
    assert not result["correct"] and result["failed"] == 0


def test_untraced_smoke_run_reports_end_to_end_metrics(workdir, capsys):
    result = bench(capsys, "--workload", "spectrum_pool", "--seed", "1", "--trace", "0")
    assert result["correct"]
    assert result["attempted"] == 2  # the cold pass and one warm pass
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gate_flags_doctored_graph_cell(workdir):
    ledger, (inv,) = single_pass("cavity_graph", 0, workdir)
    assert ledger.failed == 0
    path = workdir / "cavity.csv"
    lines = path.read_text().splitlines()
    cells = lines[8].split(",")
    col = lines[0].split(",").index("density_cavity_graph")
    cells[col] = repr(float(cells[col]) + 0.1)
    lines[8] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    doctored = {g.name: g for g in inv.check(*read_output(path))}
    assert not doctored["sup_abs_err_graph_inset"].passed
    assert doctored["sup_abs_err_graph_inset"].margin < 0


def test_gate_flags_doctored_ks_distance(workdir):
    ledger, (inv,) = single_pass("spectrum_pool", 0, workdir)
    assert ledger.failed == 0
    manifest_path = workdir / "spectrum.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["results"]["ks_distance"] = 0.03
    manifest_path.write_text(json.dumps(manifest))
    ledger.check((inv,), [0], 0, workdir)
    assert ledger.failed == 1
    assert any("ks_distance" in p for p in ledger.problems)


def test_nonzero_exit_counts_as_failed(workdir):
    ledger = run.Ledger()
    ledger.check(SMOKE["cavity_graph"].invocations, [3], 0, workdir)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_heldout_seed_draws_different_throughput_outputs(workdir):
    ledger, _ = single_pass("throughput_curves", 0, workdir)
    first = dict(ledger.digests[0])
    ledger, _ = single_pass("throughput_curves", run.HELDOUT_SEED, workdir)
    assert ledger.failed == 0
    assert ledger.digests[run.HELDOUT_SEED]["mc"] != first["mc"]


def test_tracer_reaches_every_binding_site_and_restores_it():
    cli = run.import_cli()
    import numpy
    import regnoma
    from regnoma import ensembles, throughput

    originals = (regnoma.generate_regular, cli.generate_regular,
                 throughput.generate_regular, numpy.linalg.eigvalsh,
                 ensembles.SparseSignatureMatrix.gram)
    tracer = bench_trace.Tracer()
    with tracer.installed():
        for obj in (regnoma.generate_regular, cli.generate_regular,
                    throughput.generate_regular, numpy.linalg.eigvalsh,
                    vars(ensembles.SparseSignatureMatrix)["gram"]):
            assert bench_trace.is_span_wrapper(obj)
        spec = regnoma.EnsembleSpec(20, 30, 2, regnoma.EntryMode.ONES, 0)
        res = regnoma.finite_n_throughput_mc(spec, 10.0, 3)
    assert res.n_failed == 0
    stats = tracer.stats
    assert stats["ensembles.generate_regular"].calls == 3
    assert stats["linalg.eigvalsh"].calls == 3
    assert tracer.counters["linalg.n3_sum"] == 3 * 20 ** 3
    assert tracer.counters["ensembles.gram.bytes_computed"] == 3 * 8 * (20 * 30 + 20 * 20)
    assert tracer.counters["throughput.mc_trials"] == 3
    assert tracer.top_level == [stats["throughput.finite_n_throughput_mc"].total]
    bench_trace.assert_untraced()
    assert (regnoma.generate_regular, cli.generate_regular, throughput.generate_regular,
            numpy.linalg.eigvalsh, ensembles.SparseSignatureMatrix.gram) == originals


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "cavity_graph",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
