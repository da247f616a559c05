"""Command-line interface: outputs, manifests, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regnoma
from regnoma import checks, cli
from regnoma.ensembles import GenerationError
from regnoma.checks import CHECKS
from regnoma.spectra import DensityParams, analytic_density, kesten_mckay_density
from regnoma.throughput import db_to_linear, regular_throughput
from test_acceptance import PINNED


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path):
    with open(str(path) + ".manifest.json") as fh:
        return json.load(fh)


def no_root_anywhere(monkeypatch):
    # one update stalls every point of the scalar inversion, and no point
    # then has a physical root
    monkeypatch.setattr(cli.cavity_mod, "MAX_ITER", 1)
    monkeypatch.setattr(cli.cavity_mod, "_physical_root",
                        lambda z, p: np.full(z.shape, complex(np.nan, np.nan)))


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's regnoma."""
    src = str(Path(regnoma.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_installed_script_reports_version(self):
        proc = run_python("-m", "regnoma.cli", "--version")
        assert proc.returncode == 0
        assert "regnoma 0.8.0" in proc.stdout

    def test_import_leaves_scipy_unloaded(self):
        # every CLI run pays the start-up: scipy.stats costs about a second to
        # import and scipy.sparse ~0.17 s; only validate --level full needs scipy
        proc = run_python("-c", "import sys, regnoma.cli; "
                                "print(sorted(m for m in sys.modules "
                                "if m.partition('.')[0] == 'scipy'))")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["density", "--beta", "1", "--d", "2", "--threads", "2"],
        ["cavity", "--beta", "1.5", "--d", "2", "--threads", "2"],
        ["simulate", "--n", "10", "--beta", "1.5", "--d", "2", "--threads", "2"],
        ["validate", "--format", "json"],
        ["throughput", "--beta", "1.5", "--d", "2", "--snr-db", "10", "--threads", "2"],
        ["sweep", "--variable", "load", "--values", "1.5", "--d", "2",
         "--ebno-db", "10", "--threads", "2"],
        ["validate", "--threads", "2"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2


class TestDensity:
    def test_unit_load_grid_matches_kesten_mckay(self, tmp_path):
        out = tmp_path / "density.csv"
        assert run(["density", "--beta", "1", "--d", "2", "--points", "64",
                    "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 64
        lams = np.array([float(r["lambda"]) for r in rows])
        dens = np.array([float(r["density"]) for r in rows])
        assert np.allclose(dens, kesten_mckay_density(lams, 2.0), atol=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["density", "--beta", "1.5", "--d", "3", "--points", "32",
                "--out", str(tmp_path / "a.csv")]
        assert run(argv) == 0
        first = (tmp_path / "a.csv").read_bytes()
        first_manifest = (tmp_path / "a.csv.manifest.json").read_bytes()
        assert run(argv) == 0
        assert (tmp_path / "a.csv").read_bytes() == first
        assert (tmp_path / "a.csv.manifest.json").read_bytes() == first_manifest

    def test_json_format(self, tmp_path):
        out = tmp_path / "density.json"
        assert run(["density", "--beta", "2", "--d", "2", "--points", "16",
                    "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["lambda", "density"]
        assert len(doc["rows"]) == 16
        assert all(isinstance(r["density"], float) for r in doc["rows"])

    def test_manifest_checksum_and_metadata(self, tmp_path):
        out = tmp_path / "density.csv"
        run(["density", "--beta", "1.5", "--d", "2", "--points", "16",
             "--seed", "7", "--out", str(out)])
        manifest = read_manifest(out)
        assert manifest["subcommand"] == "density"
        assert manifest["seed"] == 7
        assert manifest["parameters"]["beta"] == 1.5
        assert manifest["output"]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        p = DensityParams(beta=1.5, d=2.0)
        assert manifest["results"]["lambda_plus"] == pytest.approx(p.lambda_plus)

    @pytest.mark.parametrize("argv", [
        ["density", "--beta", "1", "--d", "2", "--points", "0"],
        ["density", "--beta", "0.5", "--d", "2"],
        ["density", "--beta", "1", "--d", "1"],
    ])
    def test_bad_values_exit_2(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_output_exits_2(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        assert run(["density", "--beta", "1", "--d", "2",
                    "--out", str(out)]) == 2


class TestCavity:
    def test_header_and_scalar_agreement(self, tmp_path):
        out = tmp_path / "cavity.csv"
        assert run(["cavity", "--beta", "1.5", "--d", "2", "--points", "64",
                    "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(cli.CAVITY_COLUMNS)
        manifest = read_manifest(out)
        assert manifest["results"]["n_failed_scalar"] == 0
        assert manifest["results"]["sup_abs_err_scalar_interior"] < 1e-3
        assert manifest["results"]["sup_abs_err_graph"] is None
        for key in ("n_failed_graph", "graph_sweeps_total", "graph_sweeps_max",
                    "graph_message_classes"):
            assert manifest["results"][key] is None

    def test_graph_columns_empty_without_sampled_matrix(self, tmp_path):
        out = tmp_path / "cavity.json"
        run(["cavity", "--beta", "1.5", "--d", "2", "--points", "8",
             "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert all(r["density_cavity_graph"] is None for r in doc["rows"])
        assert all(r["abs_err_graph"] is None for r in doc["rows"])

    def test_sampled_matrix_route(self, tmp_path):
        out = tmp_path / "cavity.csv"
        assert run(["cavity", "--beta", "1.5", "--d", "2", "--points", "24",
                    "--graph-n", "200", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(r["density_cavity_graph"] != "" for r in rows)
        results = read_manifest(out)["results"]
        assert 0.0 < results["sup_abs_err_graph"] < 0.5
        assert results["n_failed_graph"] == 0
        assert results["graph_message_classes"] == 2
        assert 0 < results["graph_sweeps_max"] < results["graph_sweeps_total"]

    @pytest.mark.parametrize("argv,classes,sha256", [
        (["--beta", "1.5", "--d", "2", "--graph-n", "200"], 2,
         "532c2275fdacaa17dae2cc0b9affbb6477eb0b2a054bcc9411bb16bc82087d67"),
        (["--beta", "1", "--d", "3", "--graph-n", "60"], 2,
         "6ffe71e6b984d9b8bde70857cf3e49bba181f6a755aaa4cb9ce2e6b24682fe5e"),
    ])
    def test_graph_route_bytes_are_pinned(self, tmp_path, argv, classes, sha256):
        # the class sweep must reproduce the per-edge sweep bit for bit, and
        # these digests came from a route that did; they cover every column
        out = tmp_path / "cavity.csv"
        assert run(["cavity", *argv, "--points", "16", "--seed", "5",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        assert read_manifest(out)["results"]["graph_message_classes"] == classes

    def test_stalled_graph_points_are_blank_and_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.cavity_mod, "MAX_SWEEPS", 1)
        out = tmp_path / "cavity.csv"
        assert run(["cavity", "--beta", "1.5", "--d", "2", "--points", "6",
                    "--graph-n", "20", "--out", str(out)]) == 0
        assert all(r["density_cavity_graph"] == "" for r in read_csv(out))
        results = read_manifest(out)["results"]
        assert results["n_failed_graph"] == 6
        assert results["graph_sweeps_total"] == 6
        assert results["sup_abs_err_graph"] is None

    def test_failed_scalar_points_are_blank_and_counted(self, tmp_path, monkeypatch):
        no_root_anywhere(monkeypatch)
        out = tmp_path / "cavity.csv"
        assert run(["cavity", "--beta", "1.5", "--d", "2", "--points", "6",
                    "--out", str(out)]) == 0
        assert all(r["density_cavity_scalar"] == "" for r in read_csv(out))
        results = read_manifest(out)["results"]
        assert results["n_failed_scalar"] == 6
        assert results["sup_abs_err_scalar_interior"] is None

    def test_out_of_range_epsilon_exits_2(self, tmp_path):
        assert run(["cavity", "--beta", "1.5", "--d", "2",
                    "--epsilon", "2e-3", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("eps", ["-0.005", "0"])
    def test_nonpositive_graph_epsilon_exits_2_without_output(
            self, tmp_path, capsys, monkeypatch, eps):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the offset was checked")

        # the value is rejected before the scalar inversion or the sampler runs
        monkeypatch.setattr(cli, "generate_regular", no_work)
        monkeypatch.setattr(cli.cavity_mod, "stieltjes_inversion", no_work)
        assert run(["cavity", "--beta", "1.5", "--d", "2", "--graph-n", "100",
                    "--graph-epsilon", eps, "--out", str(tmp_path / "x.csv")]) == 2
        assert "epsilon" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_pooled_spectrum_tracks_limit(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--n", "120", "--beta", "1.5", "--d", "2",
                    "--trials", "20", "--bins", "40", "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["results"]["ks_distance"] < 0.05
        assert manifest["results"]["n_trivial_excluded"] == 0
        assert manifest["results"]["n_eigenvalues_pooled"] == 20 * 120
        assert len(read_csv(out)) == 40

    def test_all_ones_entries_exclude_one_eigenvalue_per_trial(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--n", "120", "--beta", "1.5", "--d", "2",
                    "--trials", "20", "--entries", "ones",
                    "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["results"]["n_trivial_excluded"] == 20
        assert manifest["results"]["n_eigenvalues_pooled"] == 20 * 120 - 20
        assert manifest["results"]["ks_distance"] < 0.05

    def test_unrealizable_load_exits_2(self, tmp_path):
        assert run(["simulate", "--n", "10", "--beta", "1.27", "--d", "2",
                    "--trials", "2", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("entries,seed,csv_sha256,results_sha256", [
        ("ones", 0,
         "36e8d8c30778564d903e32c7a3c8f00048f7d60d66350dffeaccceb619f42559",
         "355161dc9b348eab8a08deb12488ff3dfcd0afa8b1eb6082a37fb7fdff8ad444"),
        ("rademacher", 0,
         "947368be80f80a1fe19c8e56ae1a79d734429973d7a3bd3b232df0bfdbd98b1d",
         "eec43ac24df29e4c00dfd3658b9f93654dbb88ed5d11c5e455b3c661b56c3f44"),
        ("ones", 2 ** 32,
         "dcb3bd1d6bfa78b0456015b04f5d50148635cc4e5c6ae0648cf339e74d8bfe56",
         "da0e89e457a175707410ec6607e7a43e4f019c9be879527c7008aea7918878e7"),
        ("rademacher", 2 ** 32,
         "a8a350a7e0f634ea424e11f3ce1e832fd19f9cd5ba5a058484a27825ec46ce8a",
         "f0de0d514b6144767cf915413233549fd52e564b36a3c31678725bb0d5fd184a"),
    ])
    def test_pooled_spectrum_bytes_are_pinned(self, tmp_path, entries, seed,
                                              csv_sha256, results_sha256):
        # the histogram, the KS distance and the trivial-eigenvalue counts of
        # both entry modes; row degree 12 exercises multi-edge repair
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--n", "104", "--beta", "3", "--d", "4",
                    "--trials", "20", "--entries", entries, "--seed", str(seed),
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
        results = json.dumps(read_manifest(out)["results"], sort_keys=True)
        assert hashlib.sha256(results.encode()).hexdigest() == results_sha256

    def test_seed_determinism(self, tmp_path):
        argv = ["simulate", "--n", "60", "--beta", "1.5", "--d", "2",
                "--trials", "5", "--seed", "3", "--out", str(tmp_path / "s.csv")]
        assert run(argv) == 0
        first = (tmp_path / "s.csv").read_bytes()
        assert run(argv) == 0
        assert (tmp_path / "s.csv").read_bytes() == first


class TestThroughput:
    def test_fixed_snr_point(self, tmp_path):
        out = tmp_path / "tp.json"
        assert run(["throughput", "--beta", "1.5", "--d", "2",
                    "--snr-db", "10", "--format", "json",
                    "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["x"] == 10.0
        expected = regular_throughput(db_to_linear(10.0),
                                      DensityParams(beta=1.5, d=2.0))
        assert row["regular"] == pytest.approx(expected, rel=1e-9)
        assert row["cover_wyner"] >= row["regular"] > row["dense_rs"]
        assert row["regular_mc"] is None

    def test_fixed_ebno_point_with_monte_carlo(self, tmp_path):
        out = tmp_path / "tp.json"
        assert run(["throughput", "--beta", "1.5", "--d", "2",
                    "--ebno-db", "10",
                    "--curves", "regular,regular_mc",
                    "--mc-n", "10", "--mc-trials", "50",
                    "--format", "json", "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["x"] == 10.0
        assert row["regular_mc_stderr"] > 0.0
        assert abs(row["regular_mc"] - row["regular"]) < 0.2
        assert row["dense_rs"] is None

    def test_both_operating_point_flags_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["throughput", "--beta", "1.5", "--d", "2",
                 "--snr-db", "10", "--ebno-db", "10",
                 "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("fmt, blank", [("csv", ""), ("json", None)])
    def test_single_trial_stderr_is_written_blank(self, tmp_path, fmt, blank):
        # one trial has no standard error; the infinite value is left out
        out = tmp_path / f"tp.{fmt}"
        assert run(["throughput", "--beta", "1.5", "--d", "2", "--snr-db", "10",
                    "--curves", "regular_mc", "--mc-n", "10", "--mc-trials", "1",
                    "--format", fmt, "--out", str(out)]) == 0
        row = (read_csv(out) if fmt == "csv" else json.loads(out.read_text())["rows"])[0]
        assert row["regular_mc_stderr"] == blank
        assert float(row["regular_mc"]) > 0.0

    @pytest.mark.parametrize("argv", [
        ["throughput", "--beta", "1.5", "--d", "2.5", "--snr-db", "10", "--mc-n", "10"],
        ["throughput", "--beta", "1.5", "--d", "2", "--snr-db", "10", "--mc-n", "7"],
        ["sweep", "--variable", "ebno", "--values", "10", "--beta", "1.5",
         "--d", "2.5", "--mc-n", "10"],
        ["sweep", "--variable", "load", "--values", "1.5", "--d", "2",
         "--snr-db", "10", "--mc-n", "7"],
    ])
    def test_unrealizable_monte_carlo_ensemble_exits_2(self, tmp_path, argv):
        assert run(argv + ["--curves", "regular,regular_mc", "--mc-trials", "2",
                           "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_curve_exits_2(self, tmp_path):
        assert run(["throughput", "--beta", "1.5", "--d", "2",
                    "--snr-db", "10", "--curves", "bogus",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestSweep:
    def test_explicit_load_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--variable", "load", "--values", "1,1.5,2",
                    "--d", "2", "--ebno-db", "10", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [float(r["x"]) for r in rows] == [1.0, 1.5, 2.0]
        for r in rows:
            assert (float(r["cover_wyner"]) >= float(r["regular"])
                    > float(r["dense_rs"]))
        assert read_manifest(out)["results"] == {"failed_points": [],
                                                 "failed_mc_trials": 0}

    def test_failed_mc_trials_reach_the_manifest(self, tmp_path, monkeypatch):
        real_generate = cli.tp.generate_regular

        def flaky(spec, realization=0):
            if realization == 0:
                raise GenerationError("forced")
            return real_generate(spec, realization=realization)

        monkeypatch.setattr(cli.tp, "generate_regular", flaky)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--variable", "ebno", "--values", "8,10",
                    "--beta", "1.5", "--d", "2", "--curves", "regular,regular_mc",
                    "--mc-n", "10", "--mc-trials", "4", "--out", str(out)]) == 0
        assert read_manifest(out)["results"] == {"failed_points": [],
                                                 "failed_mc_trials": 2}
        assert out.read_text().splitlines()[0] == ",".join(cli.tp.SWEEP_COLUMNS)
        assert all(r["regular_mc"] != "" for r in read_csv(out))

    def test_range_grid_keeps_admissible_loads(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--variable", "load", "--range", "1", "3", "9",
                    "--d", "2", "--ebno-db", "10", "--out", str(out)]) == 0
        assert [float(r["x"]) for r in read_csv(out)] == [1.0, 1.5, 2.0, 2.5, 3.0]

    @pytest.mark.parametrize("argv,sha256", [
        (["--range", "0", "20", "21"],
         "729d2c4a972183b2ac9a083c567d3c5b3cfb4de6604434c8ce23430b72d63476"),
        (["--values", "4,10", "--curves", "regular,regular_mc,irregular_mc",
          "--mc-n", "10", "--mc-trials", "300"],
         "f12fcbe8447e5cce867515bdfadc07875457e92159fc39120fda9e66761fd730"),
    ])
    def test_throughput_bytes_are_pinned(self, tmp_path, argv, sha256):
        # every curve of both benchmark sweeps, Eb/N0 inversions and MC included
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--variable", "ebno", *argv, "--beta", "1.5", "--d", "2",
                    "--seed", "5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_curve_names_ignore_case(self, tmp_path):
        tables = []
        for curves in ("REGULAR,Dense_RS", "regular,dense_rs"):
            out = tmp_path / "tp.csv"
            assert run(["throughput", "--beta", "1.5", "--d", "2", "--snr-db", "10",
                        "--curves", curves, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        (row,) = read_csv(out)
        assert row["regular"] != "" and row["dense_rs"] != "" and row["cover_wyner"] == ""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10", "--beta", "1.5", "--d", "2", "--entries", "ONES"],
        ["sweep", "--variable", "Load", "--values", "1.5", "--d", "2", "--ebno-db", "10"],
    ])
    def test_entry_mode_and_variable_are_case_sensitive(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

    def test_inconsistent_operating_point_exits_2(self, tmp_path):
        assert run(["sweep", "--variable", "ebno", "--values", "4,8",
                    "--beta", "1.5", "--d", "2", "--snr-db", "10",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestValidate:
    def test_fast_suite_passes(self, capsys):
        assert run(["validate", "--level", "fast"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "10/10 checks passed"
        assert len(lines) == 11
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_failed_scalar_points_fail_the_cavity_check(self, monkeypatch):
        no_root_anywhere(monkeypatch)
        check = next(c for c in CHECKS if c.name == "scalar_cavity_agreement")
        n_failed = check.run(0)[0]
        assert n_failed.value == 512 and not n_failed.passed

    def test_injected_sign_flip_is_detected(self, tmp_path, capsys, monkeypatch):
        # a check that reads the law must fail by its gates under the flip,
        # and one whose measurements do not move must still pass
        fast = [c for c in CHECKS if c.level == "fast"]
        true_values = {c.name: [g.value for g in c.run(0)] for c in fast}
        monkeypatch.setattr(checks, "analytic_density",
                            lambda lam, p: -analytic_density(lam, p))
        reads_law = []
        for check in fast:
            gates = check.run(0)
            if [g.value for g in gates] != true_values[check.name]:
                reads_law.append(check.name)
                assert all(np.isfinite(g.value) for g in gates), check.name
                assert not all(g.passed for g in gates), check.name
            else:
                assert all(g.passed for g in gates), check.name
        assert reads_law == [
            "kesten_mckay_identity", "density_normalization", "density_first_moment",
            "marchenko_pastur_limit", "scalar_cavity_agreement", "quadrature_stability",
            "throughput_closed_form_vs_quadrature"]

        report = tmp_path / "r.txt"
        assert run(["validate", "--level", "fast", "--out", str(report)]) == 3
        out = capsys.readouterr().out
        assert "raised" not in out
        assert out.strip().endswith("3/10 checks passed")
        gates = read_manifest(report)["results"]["gates"]
        assert all(g["value"] is not None for g in gates)
        # the corrupted density does not outlive its patch
        monkeypatch.undo()
        assert run(["validate", "--level", "fast"]) == 0

    def test_a_raising_check_fails_and_the_batch_continues(self, tmp_path, monkeypatch,
                                                          capsys):
        def broken(seed):
            raise GenerationError("forced")

        first = dataclasses.replace(cli.CHECKS[0], measure=broken)
        monkeypatch.setattr(cli, "CHECKS", (first, *cli.CHECKS[1:]))
        report = tmp_path / "r.txt"
        assert run(["validate", "--level", "fast", "--out", str(report)]) == 3
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == f"FAIL {first.name}: raised GenerationError: forced"
        assert lines[-1] == "9/10 checks passed"
        gates = read_manifest(report)["results"]["gates"]
        assert [g["value"] for g in gates if g["check"] == first.name] == [None]

    def test_report_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert run(["validate", "--level", "fast", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().strip().endswith("10/10 checks passed")
        manifest = Path(str(out) + ".manifest.json").read_bytes()
        results = json.loads(manifest)["results"]
        gates = results.pop("gates")
        assert results == {"level": "fast", "n_checks": 10, "n_failed": 0}
        fast = [(check, quantity, op, tol) for (check, quantity), (_, level, op, tol)
                in PINNED.items() if level == "fast"]
        assert len(gates) == len(fast) == 16
        assert [(g["check"], g["quantity"], g["op"], g["tolerance"])
                for g in gates] == fast
        assert all(g["passed"] and g["margin"] >= 0.0 for g in gates)
        assert run(["validate", "--level", "fast", "--out", str(out)]) == 0
        assert Path(str(out) + ".manifest.json").read_bytes() == manifest


class TestNumericalExit:
    def test_cavity_generation_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken(spec, realization=0):
            raise GenerationError("forced generation failure")

        monkeypatch.setattr(cli, "generate_regular", broken)
        out = tmp_path / "x.csv"
        assert run(["cavity", "--beta", "1.5", "--d", "2", "--points", "8",
                    "--graph-n", "20", "--out", str(out)]) == 3
        assert "forced generation failure" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_eigensolver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken(a, *args, **kwargs):
            raise np.linalg.LinAlgError("forced eigensolver failure")

        monkeypatch.setattr(np.linalg, "eigvalsh", broken)
        out = tmp_path / "x.csv"
        assert run(["simulate", "--n", "10", "--beta", "1.5", "--d", "2",
                    "--trials", "2", "--out", str(out)]) == 3
        assert "forced eigensolver failure" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()
