"""Command-line contracts: formats, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fovisc
from fovisc.cli import dispatch
from fovisc.glkernel import build_kernel
from fovisc.models import FoSlsParams
from fovisc.passivity import passivity_function


def subprocess_env():
    """The environment for a child interpreter that imports the fovisc under test."""
    src = os.path.dirname(os.path.dirname(fovisc.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def read_csv(path):
    header = None
    rows = []
    comments = {}
    for line in path.read_text().splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, comments


class TestCoeffs:
    def test_csv_rows_and_summary(self, tmp_path):
        out = tmp_path / "c.csv"
        code = dispatch(["coeffs", "--alpha", "0.5", "--n", "3", "--t", "0.001", "-o", str(out)])
        assert code == 0
        header, rows, comments = read_csv(out)
        assert header == ["index", "coefficient"]
        assert len(rows) == 4
        assert [float(r[1]) for r in rows] == [1.0, -0.5, -0.125, -0.0625]
        assert float(comments["delta_p"]) == pytest.approx(1.4375)

    def test_json_summary(self, tmp_path):
        out = tmp_path / "c.json"
        assert dispatch(["coeffs", "--alpha", "0.5", "--n", "3", "--t", "0.001", "--json", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["coefficients"] == [1.0, -0.5, -0.125, -0.0625]
        assert payload["summary"]["delta_p_asymptotic"] == pytest.approx(math.sqrt(2.0), rel=1e-11)
        assert payload["config"]["alpha"] == 0.5


class TestBound:
    def test_unit_maxwell_bound_json(self, tmp_path):
        out = tmp_path / "b.json"
        code = dispatch(
            ["bound", "--alpha", "0.5", "--k0", "0", "--k1", "1", "--b1", "1",
             "--n", "101", "--t", "0.001", "--b-plant", "0.0025", "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["b_min"] == pytest.approx(4.890652392e-4, rel=1e-6)
        assert payload["method"] == "closed_form_odd_n"
        assert payload["margin_ok"] is True
        assert payload["variants"]["sufficient"] >= payload["b_min"]

    def test_even_memory_uses_grid(self, tmp_path):
        out = tmp_path / "b.json"
        code = dispatch(
            ["bound", "--alpha", "0.5", "--k1", "1", "--b1", "1", "--n", "100",
             "--t", "0.001", "--grid-points", "1024", "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "grid"
        assert payload["omega_star"] < math.pi / 0.001


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert dispatch(["coeffs", "--alpha", "0.5", "--n", "3", "--t", "0.001", "--bogus"]) == 2

    def test_missing_subcommand_is_usage_error(self):
        assert dispatch([]) == 2

    def test_domain_error(self):
        assert dispatch(["coeffs", "--alpha", "1.5", "--n", "3", "--t", "0.001"]) == 3

    def test_even_memory_region_not_an_error(self, tmp_path):
        out = tmp_path / "r.csv"
        code = dispatch(
            ["region", "--alpha", "1.0", "--b-plant", "0.0025", "--b1-min", "0.01",
             "--b1-max", "0.1", "--steps", "3", "--n", "101", "-o", str(out)]
        )
        assert code == 0


class TestRegion:
    def test_order_one_boundary_values(self, tmp_path):
        out = tmp_path / "r.csv"
        code = dispatch(
            ["region", "--alpha", "1.0", "--b-plant", "0.0025", "--b1-min", "0.01",
             "--b1-max", "1.0", "--steps", "4", "--k1-max", "100000", "--n", "101",
             "--t", "0.001", "-o", str(out)]
        )
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["b1", "k1_max"]
        b = 0.0025
        for b1_s, k1_s in rows:
            b1, k1 = float(b1_s), float(k1_s)
            assert k1 == pytest.approx(2.0 * b * b1 / (0.001 * (b1 - b)), rel=1e-9)


class TestSweep:
    def test_passivity_sweep_matches_module(self, tmp_path):
        out = tmp_path / "f.csv"
        code = dispatch(
            ["sweep", "--what", "f", "--k0", "0", "--k1", "1", "--b1", "1", "--alpha", "0.5",
             "--n", "51", "--t", "0.001", "--points", "64", "-o", str(out)]
        )
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["omega_t", "f"]
        assert len(rows) == 64
        assert float(rows[-1][0]) == pytest.approx(math.pi, rel=1e-12)
        # one array evaluation over the grid, row for row the scalar function
        params, kern = FoSlsParams(0.0, 1.0, 1.0, 0.5), build_kernel(0.5, 51, 0.001)
        omegas = np.linspace(0.0, math.pi / 0.001, 65)[1:]
        for (wt_s, f_s), w in zip(rows, omegas):
            assert float(wt_s) == pytest.approx(w * 0.001, rel=1e-11)
            assert float(f_s) == pytest.approx(passivity_function(params, kern, w), rel=1e-11)

    def test_lowfreq_form_single_row(self, tmp_path):
        out = tmp_path / "es.csv"
        code = dispatch(
            ["sweep", "--what", "es", "--form", "lowfreq", "--k0", "1", "--k1", "2",
             "--b1", "1", "--alpha", "0.4", "--n", "51", "--t", "0.001", "-o", str(out)]
        )
        assert code == 0
        _, rows, _ = read_csv(out)
        assert len(rows) == 1


class TestSimulate:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = dispatch(
            ["simulate", "--k0", "0", "--k1", "2", "--b1", "100", "--alpha", "0.5",
             "--n", "51", "--t", "0.001", "--excite", "impulse:0.01",
             "--duration", "0.5", "-o", str(out)]
        )
        assert code == 0
        header, rows, comments = read_csv(out)
        assert header == ["time_s", "position_mm", "velocity_mm_s", "force_n", "force_cmd_n", "energy_nmm"]
        assert len(rows) == 500
        assert comments["diverged"] == "False"

    def test_boundary_json(self, tmp_path):
        out = tmp_path / "k.json"
        code = dispatch(
            ["simulate", "--boundary", "--alpha", "1.0", "--b1", "100", "--n", "101",
             "--t", "0.001", "--duration", "4", "--trials", "1", "--resolution", "0.2",
             "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.8 < payload["ratio"] < 1.2
        assert payload["k1_star"] == pytest.approx(payload["ratio"] * payload["analytical_k1"], rel=1e-9)

    def test_bad_excitation_spec(self):
        assert dispatch(["simulate", "--excite", "kick:1", "--duration", "0.1"]) == 3

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--trials", "0"], "n_trials"),
            (["--trials", "7"], "n_trials"),
            (["--resolution", "0"], "resolution"),
            (["--resolution", "-1"], "resolution"),
            (["--resolution", "nan"], "resolution"),
        ],
    )
    def test_bad_boundary_search_settings_are_domain_errors(self, flags, match, capsys):
        argv = ["simulate", "--boundary", "--alpha", "1.0", "--b1", "100", "--n", "101", *flags]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err


class TestSynthFitRoundtrip:
    def test_synth_then_fit(self, tmp_path):
        creep = tmp_path / "creep.csv"
        relax = tmp_path / "relax.csv"
        common = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203",
                  "--n", "101", "--t", "0.001"]
        assert dispatch(["synth", *common, "--protocol", "creep", "-o", str(creep)]) == 0
        assert dispatch(["synth", *common, "--protocol", "relaxation", "-o", str(relax)]) == 0
        header, rows, _ = read_csv(creep)
        assert header == ["time_s", "value"]
        assert len(rows) == 6001

        out = tmp_path / "fit.json"
        code = dispatch(
            ["fit", "--creep", str(creep), "--relax", str(relax), "--n", "101",
             "--b-plant", "0.0025", "--seed", "0", "--starts", "2",
             "--max-evals", "2000", "-o", str(out)]
        )
        payload = json.loads(out.read_text())
        assert code in (0, 4)
        assert (code == 0) == payload["converged"]
        assert set(payload["params"]) == {"k0", "k1", "b1", "alpha"}

    def test_non_whole_float_durations_keep_their_last_sample(self, tmp_path):
        # 0.7 / 0.001 evaluates to 699.999...; the records must not lose a sample
        relax, trace = tmp_path / "relax.csv", tmp_path / "trace.csv"
        material = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203", "--t", "0.001"]
        assert dispatch(["synth", *material, "--protocol", "relaxation", "--duration", "0.7", "-o", str(relax)]) == 0
        _, rows, _ = read_csv(relax)
        assert len(rows) == 701
        assert float(rows[-1][0]) == 0.7
        assert dispatch(["simulate", "--k1", "2", "--b1", "100", "--duration", "0.7", "-o", str(trace)]) == 0
        _, rows, _ = read_csv(trace)
        assert len(rows) == 700

    def test_creep_fit_sizes_recovery_from_the_record(self, tmp_path):
        creep, out = tmp_path / "creep.csv", tmp_path / "fit.json"
        material = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203", "--t", "0.001"]
        assert dispatch(
            ["synth", *material, "--protocol", "creep", "--t-hold", "0.7", "--t-recover", "0.7", "-o", str(creep)]
        ) == 0
        code = dispatch(
            ["fit", "--creep", str(creep), "--t-hold", "0.7", "--starts", "1", "--max-evals", "2000", "-o", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["nrmse"] < 1e-6

    def test_hold_past_the_end_of_the_record_is_a_domain_error(self, tmp_path, capsys):
        creep = tmp_path / "creep.csv"
        material = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203", "--t", "0.001"]
        assert dispatch(
            ["synth", *material, "--protocol", "creep", "--t-hold", "1", "--t-recover", "1", "-o", str(creep)]
        ) == 0
        capsys.readouterr()
        # the default --t-hold 3 needs 3001 hold samples; the record has 2001 rows
        assert dispatch(["fit", "--creep", str(creep), "--starts", "1"]) == 3
        err = capsys.readouterr().err
        assert "3001" in err and "2001" in err
        assert "Traceback" not in err

    def test_non_finite_record_is_a_domain_error(self, tmp_path, capsys):
        relax = tmp_path / "relax.csv"
        relax.write_text("time_s,value\n0,5\n0.001,4.5\n0.002,nan\n0.003,4.2\n")
        assert dispatch(["fit", "--relax", str(relax), "--starts", "1"]) == 3
        err = capsys.readouterr().err
        assert "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k1", "2", "--b1", "100"],
            ["simulate", "--boundary", "--alpha", "1.0", "--b1", "100", "--n", "101"],
            ["synth", "--k1", "2", "--b1", "1", "--alpha", "0.5", "--protocol", "relaxation"],
        ],
        ids=["simulate", "boundary", "synth"],
    )
    def test_non_finite_duration_is_a_domain_error(self, tmp_path, capsys, argv, value):
        assert dispatch([*argv, "--duration", value, "-o", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"duration {value}" in err
        assert "Traceback" not in err

    def test_noise_is_seeded(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--k1", "2", "--b1", "1", "--alpha", "0.5", "--n", "51",
                "--t", "0.001", "--protocol", "relaxation", "--noise", "0.05", "--seed", "9"]
        assert dispatch([*args, "-o", str(a)]) == 0
        assert dispatch([*args, "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestReduce:
    def test_io_kv_rows(self, tmp_path):
        out = tmp_path / "kv.csv"
        code = dispatch(
            ["reduce", "--kind", "io_kv", "--k0", "10", "--k1", "1", "--b1", "0.01",
             "--alpha", "1.0", "--n", "5", "--t", "0.001", "--points", "16", "-o", str(out)]
        )
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["omega", "re_H", "im_H"]
        omegas = np.linspace(0.0, math.pi / 0.001, 17)[1:]  # the sweep grid
        for (w_s, re_s, im_s), w in zip(rows, omegas):
            assert float(w_s) == pytest.approx(w, rel=1e-11)
            h = 10.0 + 0.01 / 0.001 * (1.0 - np.exp(-1j * w * 0.001))
            assert float(re_s) == pytest.approx(h.real, rel=1e-9)
            assert float(im_s) == pytest.approx(h.imag, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("kind", ["io_sls", "io_kv", "io_maxwell"])
    def test_integer_order_kinds_refuse_zero_memory(self, tmp_path, capsys, kind):
        out = tmp_path / "io.csv"
        code = dispatch(
            ["reduce", "--kind", kind, "--k1", "1", "--b1", "1", "--alpha", "0.5", "--n", "0",
             "--points", "4", "-o", str(out)]
        )
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "at least one memory term" in err and "Traceback" not in err


class TestGnuplot:
    def test_plot_script_written(self, tmp_path):
        out = tmp_path / "c.csv"
        code = dispatch(
            ["coeffs", "--alpha", "0.5", "--n", "5", "--t", "0.001", "-o", str(out), "--gnuplot"]
        )
        assert code == 0
        script = (tmp_path / "c.csv.gp").read_text()
        assert "plot" in script and "c.csv" in script


class TestColdStart:
    def test_commands_without_records_leave_scipy_signal_and_optimize_unimported(self, tmp_path):
        readme_runs = [
            ["coeffs", "--alpha", "0.5", "--n", "101", "--t", "0.001", "--json"],
            ["bound", "--k0", "0", "--k1", "1", "--b1", "1", "--alpha", "0.5", "--n", "101",
             "--t", "0.001", "--b-plant", "0.0025"],
            ["region", "--alpha", "0.5", "--b-plant", "0.0025", "--b1-min", "0.05", "--b1-max", "2",
             "--steps", "40"],
            ["sweep", "--what", "f", "--k0", "0", "--k1", "1", "--b1", "1", "--alpha", "0.5",
             "--n", "101", "--t", "0.001"],
            ["reduce", "--kind", "io_kv", "--k0", "10", "--k1", "1", "--b1", "0.01", "--alpha", "1",
             "--n", "5", "--t", "0.001"],
        ]
        script = (
            "import json, sys\n"
            "from fovisc.cli import dispatch\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    assert dispatch([*argv, '-o', f'{sys.argv[2]}/out{i}']) == 0, argv\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(readme_runs), str(tmp_path)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]


class TestLibraryBoundary:
    def test_cli_reads_no_private_name_of_a_library_module(self):
        import fovisc.cli

        with open(fovisc.cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules, private = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fovisc")):
                if node.module in (None, "fovisc"):
                    modules.update(a.asname or a.name for a in node.names)
                else:
                    private += [a.name for a in node.names if a.name.startswith("_")]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                private.append(f"{node.value.id}.{node.attr}")
        assert "passivity" in modules
        assert private == []


class TestEntryPoint:
    def test_installed_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fovisc.cli", "coeffs", "--alpha", "1.0", "--n", "2", "--t", "0.001"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "index,coefficient"

    def test_determinism_byte_identical(self, tmp_path):
        argv = ["bound", "--alpha", "0.3", "--k0", "1", "--k1", "4", "--b1", "2",
                "--n", "101", "--t", "0.001"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert dispatch([*argv, "-o", str(a)]) == 0
        assert dispatch([*argv, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
