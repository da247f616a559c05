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
from regnoma import cli
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
        assert "regnoma 0.4.0" in proc.stdout

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about a second to import; only validate --level full needs it
        proc = run_python("-c", "import sys, regnoma.cli; "
                                "print('scipy.stats' in sys.modules)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

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
        n_failed = check.run(analytic_density, 0)[0]
        assert n_failed.value == 512 and not n_failed.passed

    def test_injected_sign_flip_is_detected(self, tmp_path, capsys):
        def flipped(lam, p):
            return -analytic_density(lam, p)

        # a check that reads the law must fail by its gates under the flip,
        # and one whose measurements do not move must still pass
        reads_law = []
        for check in (c for c in CHECKS if c.level == "fast"):
            true_values = [g.value for g in check.run(analytic_density, 0)]
            gates = check.run(flipped, 0)
            if [g.value for g in gates] != true_values:
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
        assert run(["validate", "--level", "fast", "--inject-sign-flip",
                    "--out", str(report)]) == 3
        out = capsys.readouterr().out
        assert "raised" not in out
        assert out.strip().endswith("3/10 checks passed")
        gates = read_manifest(report)["results"]["gates"]
        assert all(g["value"] is not None for g in gates)
        # the corrupted density does not outlive its run
        assert run(["validate", "--level", "fast"]) == 0

    def test_a_raising_check_fails_and_the_batch_continues(self, tmp_path, monkeypatch,
                                                          capsys):
        def broken(density, seed):
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
