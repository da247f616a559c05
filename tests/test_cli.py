"""Command-line interface: outputs, manifests, determinism, exit codes."""

import ast
import csv
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import pkgutil
import shlex
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
from regnoma.throughput import LN2, db_to_linear, regular_throughput
from test_acceptance import PINNED

# the layers whose __all__ the package re-exports
LAYERS = [importlib.import_module(f"regnoma.{name}")
          for name in ("ensembles", "quadrature", "spectra", "cavity", "throughput")]


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path):
    with open(str(path) + ".manifest.json") as fh:
        return json.load(fh)


def no_root_anywhere(monkeypatch):
    # one update stalls every point of the scalar inversion, and the closed
    # form it then takes gives NaN everywhere
    nan = complex(np.nan, np.nan)
    monkeypatch.setattr(cli.cavity_mod, "MAX_ITER", 1)
    monkeypatch.setattr(cli.cavity_mod, "gram_transform",
                        lambda w, p: (np.full(w.shape, nan), np.full(w.shape, nan)))


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
        assert proc.stdout.split() == ["regnoma", regnoma.__version__]

    def test_package_metadata_version_matches_the_module(self):
        tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == regnoma.__version__

    @pytest.mark.parametrize("module", [regnoma] + [
        importlib.import_module(f"regnoma.{m.name}")
        for m in pkgutil.iter_modules(regnoma.__path__)], ids=lambda m: m.__name__)
    def test_every_exported_name_resolves(self, module):
        # a name deleted from the code must not stay behind in an __all__
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

    @pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
    def test_layer_surface_is_its_all_bound_in_the_package(self, module):
        # each public function or class is exported once, by its own layer;
        # the benchmark tracer wraps an object at every binding, so
        # regnoma.<name> must be the layer's own object
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        assert sorted(defined - set(module.__all__)) == []
        assert [n for n in module.__all__
                if getattr(regnoma, n, None) is not getattr(module, n)] == []

    def test_package_exports_the_layers_names_once(self):
        assert len(set(regnoma.__all__)) == len(regnoma.__all__)
        assert set(regnoma.__all__) == {"__version__", *(n for m in LAYERS for n in m.__all__)}

    def test_import_leaves_scipy_unloaded(self):
        # every CLI run pays the start-up: scipy.stats costs about a second to
        # import and scipy.sparse ~0.17 s; only validate --level full needs scipy.
        # Only validate reads the check registry, so only validate loads it
        proc = run_python("-c", "import sys, regnoma.cli; "
                                "print(sorted(m for m in sys.modules "
                                "if m.partition('.')[0] == 'scipy'), "
                                "'regnoma.checks' in sys.modules)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[] False"

    def test_cli_imports_only_traced_layers_and_checks(self):
        # the benchmark tracer times the layers' public functions; work that cli
        # takes from any other regnoma module would be timed as cli's own
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "bench_trace_layers", root / "benchmarks" / "bench_trace.py")
        bench_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_trace)
        imported = set()
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
            if isinstance(node, ast.Import):
                dotted = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "regnoma." * node.level + (node.module or "")
                # from regnoma import name: a submodule, or a dunder such as __version__
                dotted = ([f"regnoma.{a.name}" for a in node.names if not a.name.startswith("__")]
                          if module.rstrip(".") == "regnoma" else [module])
            else:
                continue
            imported.update(name.split(".")[1] for name in dotted
                            if name.startswith("regnoma."))
        assert {"cavity", "checks", "ensembles", "spectra", "throughput"} <= imported
        assert imported <= {*bench_trace.LAYERS, "checks"}

    @pytest.mark.parametrize("argv", [
        ["density", "--beta", "1", "--d", "2", "--threads", "2"],
        ["cavity", "--beta", "1.5", "--d", "2", "--threads", "2"],
        ["simulate", "--n", "10", "--beta", "1.5", "--d", "2", "--threads", "2"],
        ["validate", "--format", "json"],
        ["sweep", "--variable", "load", "--values", "1.5", "--d", "2",
         "--ebno-db", "10", "--threads", "2"],
        ["validate", "--threads", "2"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2


    def test_readme_commands_parse(self):
        # a documented command that names a deleted subcommand or flag fails here
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = readme.read_text().split("```sh\n")[1:]
        lines = "\n".join(b.split("```")[0] for b in blocks).replace("\\\n", " ")
        commands = [shlex.split(line, comments=True)[1:] for line in lines.splitlines()
                    if line.startswith("regnoma ")]
        for argv in commands:
            cli.build_parser().parse_args(argv + ["--out", "x.csv"])
        assert {argv[0] for argv in commands} == {
            "density", "cavity", "simulate", "sweep", "validate"}

    def test_readme_python_blocks_compile_and_import(self):
        # compiled, not run (the first block draws 200 matrices at N = 1000):
        # a documented name the package renamed or dropped fails here
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = [b.split("```")[0] for b in readme.read_text().split("```python\n")[1:]]
        missing = []
        for block in blocks:
            compile(block, "README.md", "exec")
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.partition(".")[0] == "regnoma":
                            importlib.import_module(alias.name)
                elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "regnoma":
                    module = importlib.import_module(node.module)
                    missing += [f"{node.module}.{alias.name}" for alias in node.names
                                if not hasattr(module, alias.name)]
        assert len(blocks) >= 3 and missing == []


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

    def test_rerun_over_longer_stale_files_leaves_the_fresh_bytes(self, tmp_path):
        out = tmp_path / "a.csv"
        manifest = tmp_path / "a.csv.manifest.json"
        argv = ["density", "--beta", "1.5", "--d", "3", "--points", "8",
                "--out", str(out)]
        assert run(argv) == 0
        fresh = out.read_bytes(), manifest.read_bytes()
        for path, data in zip((out, manifest), fresh):
            path.write_bytes(data + b"stale tail\n" * 1000)
        assert run(argv) == 0
        assert (out.read_bytes(), manifest.read_bytes()) == fresh

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

    def test_epsilon_above_1e_3_runs(self, tmp_path):
        # the scalar route takes any offset the graph route takes
        out = tmp_path / "cavity.csv"
        assert run(["cavity", "--beta", "1.5", "--d", "2", "--points", "8",
                    "--epsilon", "2e-3", "--out", str(out)]) == 0
        assert read_manifest(out)["results"]["n_failed_scalar"] == 0

    @pytest.mark.parametrize("flag", ["--epsilon", "--graph-epsilon"])
    @pytest.mark.parametrize("eps", ["0", "-1e-6", "-0.005", "nan", "inf"])
    def test_bad_epsilon_exits_2_without_output(
            self, tmp_path, capsys, monkeypatch, flag, eps):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the offset was checked")

        # the value is rejected before the scalar route or the sampler runs
        monkeypatch.setattr(cli, "generate_regular", no_work)
        monkeypatch.setattr(cli.cavity_mod, "cavity_on_tree", no_work)
        # argparse would read a lone -1e-6 as an option
        assert run(["cavity", "--beta", "1.5", "--d", "2", "--graph-n", "100",
                    f"{flag}={eps}", "--out", str(tmp_path / "x.csv")]) == 2
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

    def test_degree_equal_to_resources_runs(self, tmp_path):
        # the complete support, where switch repair ran out of its cap at seed 0
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--n", "10", "--beta", "1.5", "--d", "10",
                    "--trials", "2", "--out", str(out)]) == 0
        assert read_manifest(out)["results"]["n_eigenvalues_pooled"] == 2 * 10

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
        assert run(["sweep", "--variable", "sparsity", "--values", "2", "--beta", "1.5",
                    "--snr-db", "10", "--format", "json",
                    "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["x"] == 2.0  # the degree
        expected = regular_throughput(db_to_linear(10.0),
                                      DensityParams(beta=1.5, d=2.0))
        assert row["regular"] == pytest.approx(expected, rel=1e-9)
        assert row["cover_wyner"] >= row["regular"] > row["dense_rs"]
        assert row["regular_mc"] is None

    def test_fixed_ebno_point_with_monte_carlo(self, tmp_path):
        out = tmp_path / "tp.json"
        assert run(["sweep", "--variable", "ebno", "--values", "10",
                    "--beta", "1.5", "--d", "2",
                    "--curves", "regular,regular_mc",
                    "--mc-n", "10", "--mc-trials", "50",
                    "--format", "json", "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["x"] == 10.0  # the Eb/N0 in dB
        assert row["regular_mc_stderr"] > 0.0
        assert abs(row["regular_mc"] - row["regular"]) < 0.2
        assert row["dense_rs"] is None

    @pytest.mark.parametrize("fmt, blank", [("csv", ""), ("json", None)])
    def test_single_trial_stderr_is_written_blank(self, tmp_path, fmt, blank):
        # one trial has no standard error; the infinite value is left out
        out = tmp_path / f"tp.{fmt}"
        assert run(["sweep", "--variable", "sparsity", "--values", "2", "--beta", "1.5",
                    "--snr-db", "10",
                    "--curves", "regular_mc", "--mc-n", "10", "--mc-trials", "1",
                    "--format", fmt, "--out", str(out)]) == 0
        row = (read_csv(out) if fmt == "csv" else json.loads(out.read_text())["rows"])[0]
        assert row["regular_mc_stderr"] == blank
        assert float(row["regular_mc"]) > 0.0

    @pytest.mark.parametrize("argv", [
        ["sweep", "--variable", "sparsity", "--values", "2.5", "--beta", "1.5",
         "--snr-db", "10", "--mc-n", "10"],
        ["sweep", "--variable", "sparsity", "--values", "2", "--beta", "1.5",
         "--snr-db", "10", "--mc-n", "7"],
        ["sweep", "--variable", "ebno", "--values", "10", "--beta", "1.5",
         "--d", "2.5", "--mc-n", "10"],
        ["sweep", "--variable", "load", "--values", "1.5", "--d", "2",
         "--snr-db", "10", "--mc-n", "7"],
    ])
    def test_unrealizable_monte_carlo_ensemble_exits_2(self, tmp_path, argv):
        assert run(argv + ["--curves", "regular,regular_mc", "--mc-trials", "2",
                           "--out", str(tmp_path / "x.csv")]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_unknown_curve_exits_2(self, tmp_path):
        assert run(["sweep", "--variable", "sparsity", "--values", "2", "--beta", "1.5",
                    "--snr-db", "10", "--curves", "bogus",
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_empty_curve_list_exits_2(self, tmp_path, capsys):
        assert run(["sweep", "--variable", "sparsity", "--values", "2", "--beta", "1.5",
                    "--snr-db", "10", "--curves", ",",
                    "--out", str(tmp_path / "x.csv")]) == 2
        assert "need at least one curve" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("steps", ["2.5", "inf", "nan"])
    def test_range_steps_must_be_a_whole_number(self, tmp_path, capsys, steps):
        assert run(["sweep", "--variable", "load", "--range", "1", "3", steps,
                    "--d", "2", "--ebno-db", "10", "--out", str(tmp_path / "x.csv")]) == 2
        assert "STEPS" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_range_grid_keeps_admissible_loads(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--variable", "load", "--range", "1", "3", "9",
                    "--d", "2", "--ebno-db", "10", "--out", str(out)]) == 0
        assert [float(r["x"]) for r in read_csv(out)] == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_curve_names_ignore_case(self, tmp_path):
        tables = []
        for curves in ("REGULAR,Dense_RS", "regular,dense_rs"):
            out = tmp_path / "tp.csv"
            assert run(["sweep", "--variable", "sparsity", "--values", "2", "--beta", "1.5",
                        "--snr-db", "10", "--curves", curves, "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("argv", [
        ["--variable", "ebno", "--values", "10,nan", "--beta", "1.5"],
        ["--variable", "ebno", "--values", "10,inf", "--beta", "1.5"],
        ["--variable", "load", "--values", "1.5", "--ebno-db", "nan"],
    ])
    def test_non_finite_ebno_exits_2_without_output(self, tmp_path, capsys, monkeypatch,
                                                    argv):
        def no_work(*args, **kwargs):
            raise AssertionError("inverted an Eb/N0 point before the check")

        monkeypatch.setattr(cli.tp, "snr_for_ebno", no_work)
        assert run(["sweep", *argv, "--d", "2", "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("values,match", [
        ("10,48.7", "not reachable below snr"),
        (repr(10.0 * math.log10(LN2) + 1e-6), "not above the minimum achievable"),
    ], ids=["above_cover_wyner_reach", "just_above_ln2"])
    def test_out_of_reach_ebno_exits_2_without_output(self, tmp_path, capsys, monkeypatch,
                                                      values, match):
        def no_work(*args, **kwargs):
            raise AssertionError("inverted an Eb/N0 point before the check")

        monkeypatch.setattr(cli.tp, "snr_for_ebno", no_work)
        assert run(["sweep", "--variable", "ebno", "--values", values, "--beta", "1.5",
                    "--d", "2", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and match in err
        assert list(tmp_path.iterdir()) == []

    def test_snr_outside_the_bracket_exits_2_without_output(self, tmp_path, capsys):
        # 160 dB divides by zero in the regular closed form's root
        assert run(["sweep", "--variable", "load", "--values", "10", "--d", "2",
                    "--snr-db", "160", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "must lie in [-60, 60]" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,match", [
        (["--variable", "load", "--values", "1,1.5", "--beta", "7", "--d", "2"],
         "LOAD sweep takes beta from its values, got beta = 7.0"),
        (["--variable", "sparsity", "--values", "2,3", "--beta", "1.5", "--d", "2"],
         "SPARSITY sweep takes d from its values, got d = 2.0"),
    ], ids=["load", "sparsity"])
    def test_fixed_value_for_the_swept_quantity_exits_2(self, tmp_path, capsys, argv, match):
        # no row would read it, so the manifest would record a parameter never used
        assert run(["sweep", *argv, "--snr-db", "10", "--out", str(tmp_path / "x.csv")]) == 2
        assert match in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_inconsistent_operating_point_exits_2(self, tmp_path):
        assert run(["sweep", "--variable", "ebno", "--values", "4,8",
                    "--beta", "1.5", "--d", "2", "--snr-db", "10",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestTablesPinned:
    """Table bytes and the manifest's results of every pinned CLI output, in
    one table: a change that moves an output edits its rows here."""

    DENSITY = ["density", "--beta", "1.5", "--d", "3", "--points", "32"]
    CAVITY = ["cavity", "--beta", "1.5", "--d", "2", "--points", "16"]  # graph columns blank
    # the class sweep must reproduce the per-edge sweep bit for bit, and these
    # digests came from a route that did; they cover every column
    GRAPH = [*CAVITY, "--graph-n", "200", "--seed", "5"]
    GRAPH_D3 = ["cavity", "--beta", "1", "--d", "3", "--points", "16", "--graph-n", "60",
                "--seed", "5"]
    # the histogram, the KS distance and the trivial-eigenvalue counts of both
    # entry modes; row degree 12 exercises multi-edge repair
    SIMULATE = ["simulate", "--n", "104", "--beta", "3", "--d", "4", "--trials", "20"]
    ONES, RADEMACHER = ["--entries", "ones"], ["--entries", "rademacher"]
    # every curve of both benchmark sweeps, Eb/N0 inversions and MC included
    SWEEP = ["sweep", "--variable", "ebno", "--beta", "1.5", "--d", "2", "--seed", "5"]
    FINE = [*SWEEP, "--range", "0", "20", "21"]
    MC = [*SWEEP, "--values", "4,10", "--curves", "regular,regular_mc,irregular_mc",
          "--mc-n", "10", "--mc-trials", "300"]
    ONE_TRIAL = ["sweep", "--variable", "sparsity", "--values", "2,4", "--beta", "1.5",
                 "--snr-db", "10", "--curves", "regular,regular_mc,irregular_mc",
                 "--mc-n", "10", "--mc-trials", "1", "--seed", "5"]  # stderr blank
    # the default curves on the throughput_ordering grid, a curve per row
    LOAD = ["sweep", "--variable", "load", "--values", "1,1.5,2,2.5,3", "--d", "2",
            "--ebno-db", "10", "--seed", "5"]
    LOAD_CSV = "770247e45653bcce7a65ab5cb3be44853b7482f11a4f8452a5cdba5278524986"
    # the default curves over a degree grid at one Eb/N0, a degree per row
    SPARSITY = ["sweep", "--variable", "sparsity", "--range", "2", "12", "11", "--beta", "1.5",
                "--ebno-db", "6"]
    NO_FAILURES = "82677c5f5b5e1da6e370de93fb27052eab6c2af6c9b642ba84c2f5d23b3f1e96"

    @pytest.mark.parametrize("argv,fmt,sha256,results_sha256", [
        (DENSITY, "csv", "fde679700293c3d6f6e232e83bdb23df14f37c3329498ac4dcaf2f60784cd91d",
         "29606dd450f6e34ada409108989ee9d7fa424d0b232573d325dc2a788f0b568a"),
        (DENSITY, "json", "14286ba5a3fe0002beb24621dca4b12986508b9f6fd171c07820217c2d9d23b7",
         "29606dd450f6e34ada409108989ee9d7fa424d0b232573d325dc2a788f0b568a"),
        (CAVITY, "csv", "bae1811b61bf812504faf6731f7420e9ba736739bef9977686e9eac7ac6aa986",
         "084958abafd107304c580dee64f85296c368ff7d679b72aed81aa1c438019d67"),
        (CAVITY, "json", "ac3c36996c5c5051da8ac4a398764149509d8092a3ec6686badb921d2e17bddb",
         "084958abafd107304c580dee64f85296c368ff7d679b72aed81aa1c438019d67"),
        (GRAPH, "csv", "532c2275fdacaa17dae2cc0b9affbb6477eb0b2a054bcc9411bb16bc82087d67",
         "e2e43255867778875e53636ec9cac8b745b27f2966e5b2b5deff22fbd0d8e434"),
        (GRAPH_D3, "csv", "6ffe71e6b984d9b8bde70857cf3e49bba181f6a755aaa4cb9ce2e6b24682fe5e",
         "6301d35fc01c83d5a1db13e5b18e6b4dffb7b432eec8018bda23c46bf5dddb58"),
        ([*SIMULATE, *ONES, "--seed", "0"], "csv",
         "620c578d38fc5d722995edd3d280df75c2326f9f8eb159a6dedcc242ad4817b1",
         "6e7c571e9477a71bf2657d1d66a9fe2553b24787bac08739acccc49a5f8e3ba7"),
        ([*SIMULATE, *RADEMACHER, "--seed", "0"], "csv",
         "958e5720c00811b8131de5e7f80dd3dac0fb0298189a1e5d6c0935628933007d",
         "f09015e8811e18999182c50c63e5ea0449546477a547263c28d8f569af9d15b6"),
        ([*SIMULATE, *ONES, "--seed", str(2 ** 32)], "csv",
         "f5c77597b5aefc25f1689c3ee0188071b282d619a3149b2f9ae6ab6550c7527a",
         "ef040ea954d998640c3a7e4b03d140ba33c0bb1d952d00580ee5cb4da0c86cf3"),
        ([*SIMULATE, *RADEMACHER, "--seed", str(2 ** 32)], "csv",
         "5c78c1bd63a97b3eee9bfb6c8f812c9e1b1476a17c831256d450a40ea63099c7",
         "822018de08dd2fd5af546ffd5c481c566ee4175450515a3f11f3ba87884baa9d"),
        (FINE, "csv", "a2568ede2c799dfba08d7cf53f2c2115c365f7107e7cdbe0c5bd5f3be2007253",
         NO_FAILURES),
        (FINE, "json", "886b73dd20e8d599de8ea6354eb70c54b4c41f3ec71aff1162b328cc166d93b9",
         NO_FAILURES),
        (MC, "csv", "05d1e5942cd5b8a1f0c2c3a90658f819126e25b22aeb30400413333510cee1c6",
         NO_FAILURES),
        (MC, "json", "e3d1008d84281143236f0b06b1c3c3595cf9dc15e8e1055f1482d44c67f25a86",
         NO_FAILURES),
        (ONE_TRIAL, "csv", "76ef2a72a52a88aa84d7c43c4e3c59b7107526f7900f63f91a9dabafac76d8b0",
         NO_FAILURES),
        (ONE_TRIAL, "json", "2a3a4b5dc625a40e60d97f16cbbf68035538e53414660942b915327c6992b30a",
         NO_FAILURES),
        (LOAD, "csv", LOAD_CSV, NO_FAILURES),
        (LOAD, "json", "b03929d1e9c67fe7e4e13d1443a7ac23ec3cc24b51f58f79f1afe8df79a4ec96",
         NO_FAILURES),
        (SPARSITY, "csv", "40595097398d99c144d74a5cb53fba0f2b00763a8b197d6d8ab187e48afad10c",
         NO_FAILURES),
    ], ids=["density_csv", "density_json", "cavity_csv", "cavity_json", "graph_csv",
            "graph_d3_csv", "simulate_ones_seed0_csv", "simulate_rademacher_seed0_csv",
            "simulate_ones_seed2e32_csv", "simulate_rademacher_seed2e32_csv",
            "sweep_fine_csv", "sweep_fine_json", "sweep_mc_csv", "sweep_mc_json",
            "sweep_one_trial_csv", "sweep_one_trial_json", "sweep_load_csv",
            "sweep_load_json", "sweep_sparsity_csv"])
    def test_table_bytes_are_pinned(self, tmp_path, argv, fmt, sha256, results_sha256):
        out = tmp_path / f"table.{fmt}"
        assert run([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        results = read_manifest(out)["results"]
        results_json = json.dumps(results, sort_keys=True)
        assert hashlib.sha256(results_json.encode()).hexdigest() == results_sha256
        if "--graph-n" in argv:  # both biregular graphs lift onto two message classes
            assert results["graph_message_classes"] == 2

    def test_readme_load_range_writes_the_load_table(self, tmp_path):
        # the README's grid command: from_range's integer-load filter keeps the
        # LOAD row's five loads, so it writes that row's bytes
        argv = ["sweep", "--variable", "load", "--range", "1", "3", "9", "--d", "2",
                "--ebno-db", "10"]
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert f"regnoma {' '.join(argv)} --out" in readme
        out = tmp_path / "sweep.csv"
        assert run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.LOAD_CSV


class TestValidate:
    def test_fast_suite_passes(self, capsys):
        assert run(["validate", "--level", "fast"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "14/14 checks passed"
        assert len(lines) == 15
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_failed_scalar_points_fail_the_cavity_check(self, monkeypatch):
        no_root_anywhere(monkeypatch)
        check = next(c for c in CHECKS if c.name == "scalar_cavity_agreement")
        _, n_failed, gates = checks.run_checks([check], 0)
        assert n_failed == 1
        assert gates[0]["value"] == 512 and not gates[0]["passed"]

    def test_injected_sign_flip_is_detected(self, tmp_path, capsys, monkeypatch):
        # a check that reads the law must fail by its gates under the flip,
        # and one whose measurements do not move must still pass
        fast = [c for c in CHECKS if c.level == "fast"]
        true_values = {c.name: [g["value"] for g in checks.run_checks([c], 0)[2]] for c in fast}
        monkeypatch.setattr(checks, "analytic_density",
                            lambda lam, p: -analytic_density(lam, p))
        reads_law = []
        for check in fast:
            _, n_failed, gates = checks.run_checks([check], 0)
            if [g["value"] for g in gates] != true_values[check.name]:
                reads_law.append(check.name)
                assert all(np.isfinite(g["value"]) for g in gates), check.name
                assert n_failed == 1, check.name
            else:
                assert n_failed == 0, check.name
        assert reads_law == [
            "kesten_mckay_identity", "density_normalization", "density_first_moment",
            "marchenko_pastur_limit", "scalar_cavity_agreement", "quadrature_stability",
            "throughput_closed_form_vs_quadrature", "high_snr_offset",
            "wideband_second_order"]

        report = tmp_path / "r.txt"
        assert run(["validate", "--level", "fast", "--out", str(report)]) == 3
        out = capsys.readouterr().out
        assert "raised" not in out
        assert out.strip().endswith("5/14 checks passed")
        gates = read_manifest(report)["results"]["gates"]
        assert all(g["value"] is not None for g in gates)
        # the corrupted density does not outlive its patch
        monkeypatch.undo()
        assert run(["validate", "--level", "fast"]) == 0

    def test_a_raising_check_fails_and_the_batch_continues(self, tmp_path, monkeypatch,
                                                          capsys):
        def broken(seed):
            raise GenerationError("forced")

        first = dataclasses.replace(CHECKS[0], measure=broken)
        monkeypatch.setattr(checks, "CHECKS", (first, *CHECKS[1:]))
        report = tmp_path / "r.txt"
        assert run(["validate", "--level", "fast", "--out", str(report)]) == 3
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == f"FAIL {first.name}: raised GenerationError: forced"
        assert lines[-1] == "13/14 checks passed"
        gates = read_manifest(report)["results"]["gates"]
        assert [g["value"] for g in gates if g["check"] == first.name] == [None]

    def test_report_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert run(["validate", "--level", "fast", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().strip().endswith("14/14 checks passed")
        manifest = Path(str(out) + ".manifest.json").read_bytes()
        results = json.loads(manifest)["results"]
        gates = results.pop("gates")
        assert results == {"level": "fast", "n_checks": 14, "n_failed": 0}
        fast = [(check, quantity, op, tol) for (check, quantity), (_, level, op, tol)
                in PINNED.items() if level == "fast"]
        assert len(gates) == len(fast) == 23
        assert [(g["check"], g["quantity"], g["op"], g["tolerance"])
                for g in gates] == fast
        assert all(g["passed"] and g["margin"] >= 0.0 for g in gates)
        assert run(["validate", "--level", "fast", "--out", str(out)]) == 0
        assert Path(str(out) + ".manifest.json").read_bytes() == manifest


class TestNonFiniteParameters:
    @pytest.mark.parametrize("argv", [
        ["density", "--beta", "inf", "--d", "2", "--points", "4"],
        ["density", "--beta", "1.5", "--d", "inf", "--points", "4"],
        ["simulate", "--n", "10", "--beta", "inf", "--d", "2", "--trials", "2"],
        ["cavity", "--beta", "inf", "--d", "2", "--points", "4", "--graph-n", "10"],
        ["sweep", "--variable", "sparsity", "--values", "2", "--beta", "inf",
         "--snr-db", "10", "--curves", "regular_mc", "--mc-n", "10", "--mc-trials", "2"],
        ["sweep", "--variable", "load", "--values", "1.5,inf", "--d", "2", "--snr-db", "10",
         "--curves", "regular,regular_mc", "--mc-n", "10", "--mc-trials", "2"],
        ["sweep", "--variable", "sparsity", "--values", "3,inf", "--beta", "1.5",
         "--snr-db", "10"],
    ], ids=["density_beta", "density_d", "simulate", "cavity", "throughput_mc",
            "load_sweep_mc", "sparsity_sweep"])
    def test_exits_2_before_writing(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
