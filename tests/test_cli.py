"""Command-line contracts: formats, exit codes, determinism."""

import argparse
import ast
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import fovisc
from fovisc import cli, fitting, glkernel, impedance, models, passivity, simloop
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


class TestDegenerateSizes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["region", "--alpha", "0.5", "--b-plant", "0.0025", "--b1-min", "0.05", "--b1-max", "2",
              "--steps", "0"], "--steps must be at least 1, got 0"),
            (["sweep", "--what", "f", "--k1", "1", "--b1", "1", "--alpha", "0.5", "--points", "0"],
             "--points must be at least 1, got 0"),
            (["reduce", "--kind", "io_kv", "--k1", "1", "--b1", "1", "--alpha", "1", "--points", "-1"],
             "--points must be at least 1, got -1"),
            (["simulate", "--duration", "0.0005"], "duration 0.0005 s is shorter than one sample period"),
        ],
        ids=["region-steps-0", "sweep-points-0", "reduce-points-negative", "simulate-under-one-period"],
    )
    def test_refused_instead_of_a_header_only_csv(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert dispatch([*argv, "-o", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag, limit",
        [
            (["sweep", "--what", "f", "--k1", "1", "--b1", "1", "--alpha", "0.5"], "--points", 10**6),
            (["reduce", "--kind", "io_kv", "--k1", "1", "--b1", "1", "--alpha", "1"], "--points", 10**6),
            (["region", "--alpha", "0.5", "--b-plant", "0.0025", "--b1-min", "0.05", "--b1-max", "2",
              "--n", "100"], "--steps", 10**4),
            (["bound", "--k1", "1", "--b1", "1", "--alpha", "0.5", "--n", "100"], "--grid-points", 10**6),
        ],
        ids=["sweep-points", "reduce-points", "region-steps", "bound-grid-points"],
    )
    def test_counts_above_their_limit_are_refused(self, tmp_path, capsys, argv, flag, limit):
        # 1e11 would size arrays of ~800 GB: refused before anything is allocated
        out = tmp_path / "out"
        assert dispatch([*argv, flag, "100000000000", "-o", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{flag} must be at most {limit}, got 100000000000" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--alpha", "0.5", "--t", "0.001"],
            ["bound", "--k1", "1", "--b1", "1", "--alpha", "0.5"],
            ["region", "--alpha", "0.5", "--b-plant", "0.0025", "--b1-min", "0.05", "--b1-max", "2"],
            ["sweep", "--what", "f", "--k1", "1", "--b1", "1", "--alpha", "0.5"],
            ["simulate", "--k1", "1"],
            ["fit", "--relax", "absent.csv"],
            ["synth", "--k1", "1", "--b1", "1", "--alpha", "0.5", "--protocol", "relaxation"],
            ["reduce", "--kind", "fo_kv", "--k1", "1", "--b1", "1", "--alpha", "0.5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_memory_length_above_its_limit_is_refused(self, tmp_path, capsys, argv):
        # a kernel of 1e11 weights would need ~800 GB: refused before any is built
        out = tmp_path / "out"
        assert dispatch([*argv, "--n", "100000000000", "-o", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--n must be at most 1000000, got 100000000000" in err and "Traceback" not in err

    @pytest.mark.parametrize("n_mem", ["100", "101"])
    def test_bound_refuses_nan_plant_damping(self, tmp_path, capsys, n_mem):
        # "b_plant": NaN is not JSON, and nan compares false against every bound
        out = tmp_path / "b.json"
        argv = ["bound", "--k1", "1", "--b1", "1", "--alpha", "0.5", "--n", n_mem,
                "--grid-points", "1024", "--b-plant", "nan", "-o", str(out)]
        assert dispatch(argv) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "plant damping must be a number, got nan" in err and "Traceback" not in err

    @pytest.mark.parametrize("n_mem", ["100", "101"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--b1-min", "nan", "b1 grid values must be positive and finite"),
            ("--b1-max", "inf", "b1 grid values must be positive and finite"),
            ("--k1-max", "nan", "k1_max must be positive and finite, got nan"),
            ("--k1-max", "inf", "k1_max must be positive and finite, got inf"),
            ("--b-plant", "nan", "plant damping must be a number, got nan"),
        ],
    )
    def test_region_refuses_non_finite_inputs(self, tmp_path, capsys, n_mem, flag, value, message):
        # the odd-N inversion wrote nan and inf rows for these and exited 0
        out = tmp_path / "r.csv"
        flags = {"--b1-min": "0.1", "--b1-max": "1", "--k1-max": "1000", "--b-plant": "0.0025"}
        flags[flag] = value
        argv = ["region", "--alpha", "0.5", "--steps", "3", "--n", n_mem,
                *[item for pair in flags.items() for item in pair], "-o", str(out)]
        assert dispatch(argv) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and "Warning" not in err


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

    @pytest.mark.parametrize("form, code", [("finite", 0), ("asymptotic", 3), ("lowfreq", 3)])
    def test_f_has_only_the_finite_form(self, tmp_path, capsys, form, code):
        # the asymptotic and lowfreq forms once wrote the finite-memory f, exit 0
        out = tmp_path / "f.csv"
        assert dispatch(["sweep", "--what", "f", "--form", form, "--k1", "1", "--b1", "1", "--alpha", "0.5",
                         "--n", "51", "--points", "8", "-o", str(out)]) == code
        err = capsys.readouterr().err
        assert out.exists() == (code == 0)
        if code:
            assert err == f"fovisc: error: --what f has only the finite form, got --form {form}\n"


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
             "--t", "0.001", "--duration", "4", "--momentum", "0.01", "--resolution", "0.2",
             "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.8 < payload["ratio"] < 1.2
        assert payload["k1_star"] == pytest.approx(payload["ratio"] * payload["analytical_k1"], rel=1e-9)

    def test_bad_excitation_spec(self):
        assert dispatch(["simulate", "--excite", "kick:1", "--duration", "0.1"]) == 3

    @pytest.mark.parametrize(
        "excite, quantity",
        [("impulse:nan", "momentum"), ("impulse:inf", "momentum"), ("chirp:nan,2,1,1", "f0"),
         ("chirp:1,2,nan,1", "span"), ("chirp:1,2,0.003,inf", "amplitude"), ("chirp:1,2,0,1", "span")],
    )
    def test_a_non_finite_excitation_or_empty_chirp_is_refused(self, tmp_path, capsys, excite, quantity):
        # each once wrote a NaN trace marked diverged = True, and exited 0
        out = tmp_path / "trace.csv"
        argv = ["simulate", "--k1", "2", "--b1", "100", "--excite", excite, "--duration", "0.004", "-o", str(out)]
        assert dispatch(argv) == 3
        assert f"{quantity} " in capsys.readouterr().err
        assert not out.exists()

    def test_free_plant_chirp(self, tmp_path):
        # the default --k1 0 renders no law: the plant alone under the chirp
        out = tmp_path / "free.csv"
        code = dispatch(
            ["simulate", "--excite", "chirp:1,20,0.5,0.05", "--duration", "1", "-o", str(out)]
        )
        assert code == 0
        _, rows, comments = read_csv(out)
        assert len(rows) == 1000
        assert all(float(row[3]) == 0.0 for row in rows)
        assert max(abs(float(row[4])) for row in rows) > 0.04
        assert comments["diverged"] == "False"

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--k1", "-1"], "k1 must be positive"),
            (["--k0", "1"], "--k1 0 renders none"),
        ],
    )
    def test_bad_rendered_law_is_a_domain_error(self, flags, match, capsys):
        assert dispatch(["simulate", "--duration", "0.01", *flags]) == 3
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--resolution", "inf"], "resolution"),
            (["--momentum=-inf"], "momentum"),
            (["--resolution", "0"], "resolution"),
            (["--resolution", "-1"], "resolution"),
            (["--resolution", "nan"], "resolution"),
            (["--momentum", "0"], "momentum"),
            (["--momentum", "nan"], "momentum"),
            (["--momentum", "inf"], "momentum"),
        ],
    )
    def test_bad_boundary_search_settings_are_domain_errors(self, flags, match, capsys):
        argv = ["simulate", "--boundary", "--alpha", "1.0", "--b1", "100", "--n", "101", *flags]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--boundary", "--alpha", "1", "--b1", "100", "--k0", "7", "--k1", "3",
              "--excite", "chirp:1,2,3,4", "--duration", "2"],
             "simulate with --boundary takes no --k0, --k1, --excite"),
            (["simulate", "--k1", "2", "--b1", "100", "--momentum", "5", "--duration", "0.01"],
             "simulate without --boundary takes no --momentum"),
            (["simulate", "--k1", "2", "--b1", "100", "--k1-lo", "1", "--k1-hi", "3", "--resolution", "0.1",
              "--duration", "0.01"],
             "simulate without --boundary takes no --k1-lo, --k1-hi, --resolution"),
        ],
        ids=["boundary", "trace-momentum", "trace-search"],
    )
    def test_a_flag_of_the_other_mode_is_refused(self, tmp_path, capsys, argv, message):
        # these exited 0, echoed the flags and ran as if none were given
        out = tmp_path / "out"
        assert dispatch([*argv, "-o", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_even_memory_analytical_boundary_puts_the_bound_on_the_plant_damping(self, tmp_path):
        # at even N the analytical K1 is the inverted bound, not a bisection of it
        out = tmp_path / "k.json"
        argv = ["simulate", "--boundary", "--alpha", "0.5", "--b1", "100", "--n", "100",
                "--plant-b", "0.0025", "--duration", "2", "--resolution", "1", "-o", str(out)]
        assert dispatch(argv) == 0
        k1 = json.loads(out.read_text())["analytical_k1"]
        kern = build_kernel(0.5, 100, 0.001)
        b_min = passivity.max_passivity(FoSlsParams(0.0, k1, 100.0, 0.5), kern).b_min
        assert b_min == pytest.approx(0.0025, rel=1e-9)


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
             "--b-plant", "0.0025", "--max-evals", "2000", "-o", str(out)]
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
            ["fit", "--creep", str(creep), "--t-hold", "0.7", "--max-evals", "2000", "-o", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["nrmse"] < 1e-6

    def test_ignored_start_flags_parse_and_change_nothing(self, tmp_path):
        # the start is estimated from the records, so --starts and --seed no
        # longer steer the fit; older command lines still run, to the same bytes
        creep, relax = tmp_path / "creep.csv", tmp_path / "relax.csv"
        material = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203", "--t", "0.001"]
        assert dispatch(["synth", *material, "--protocol", "creep", "--t-hold", "1", "--t-recover", "1",
                         "-o", str(creep)]) == 0
        assert dispatch(["synth", *material, "--protocol", "relaxation", "--duration", "1", "-o", str(relax)]) == 0
        argv = ["fit", "--creep", str(creep), "--relax", str(relax), "--t-hold", "1"]
        plain, legacy = tmp_path / "plain.json", tmp_path / "legacy.json"
        assert dispatch([*argv, "-o", str(plain)]) == 0
        assert dispatch([*argv, "--starts", "8", "--seed", "3", "-o", str(legacy)]) == 0
        assert plain.read_bytes() == legacy.read_bytes()
        assert "seed" not in json.loads(plain.read_text())["config"]

    def test_hold_past_the_end_of_the_record_is_a_domain_error(self, tmp_path, capsys):
        creep = tmp_path / "creep.csv"
        material = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203", "--t", "0.001"]
        assert dispatch(
            ["synth", *material, "--protocol", "creep", "--t-hold", "1", "--t-recover", "1", "-o", str(creep)]
        ) == 0
        capsys.readouterr()
        # the default --t-hold 3 needs 3001 hold samples; the record has 2001 rows
        assert dispatch(["fit", "--creep", str(creep)]) == 3
        err = capsys.readouterr().err
        assert "3001" in err and "2001" in err
        assert "Traceback" not in err

    def test_diverging_creep_record_is_a_domain_error(self, tmp_path, capsys):
        # passive by the closed-form bound (b_min 0.002403 < 0.0025), but the
        # force law has no stable inverse: this record grew to 8.6e35 mm
        creep = tmp_path / "creep.csv"
        flags = ["--k0", "-9.663399485574615", "--k1", "19.95069809321432",
                 "--b1", "7.059139793870999", "--alpha", "0.26436587608063844"]
        argv = ["synth", *flags, "--protocol", "creep", "--t-hold", "1", "--t-recover", "1"]
        assert dispatch([*argv, "-o", str(creep)]) == 3
        err = capsys.readouterr().err
        assert "creep record diverges" in err
        assert "Traceback" not in err
        assert not creep.exists()
        # the relaxation record of the same material is bounded, and is written
        assert dispatch(["synth", *flags, "--protocol", "relaxation", "--duration", "1",
                         "-o", str(tmp_path / "relax.csv")]) == 0

    def test_non_finite_record_is_a_domain_error(self, tmp_path, capsys):
        relax = tmp_path / "relax.csv"
        relax.write_text("time_s,value\n0,5\n0.001,4.5\n0.002,nan\n0.003,4.2\n")
        assert dispatch(["fit", "--relax", str(relax)]) == 3
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


MATERIAL_FLAGS = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203"]


@pytest.fixture(scope="module")
def short_records(tmp_path_factory):
    """The material's 0.5 s relaxation record r.csv and creep record c.csv."""
    d = tmp_path_factory.mktemp("short")
    assert dispatch(["synth", *MATERIAL_FLAGS, "--protocol", "relaxation", "--duration", "0.5",
                     "-o", str(d / "r.csv")]) == 0
    assert dispatch(["synth", *MATERIAL_FLAGS, "--protocol", "creep", "--t-hold", "0.5", "--t-recover", "0.5",
                     "-o", str(d / "c.csv")]) == 0
    return d


class TestRefusedInputs:
    @pytest.mark.parametrize(
        "argv, quantity",
        [
            # "k0 nan is not finite", exit 3
            (["fit", "--relax", "{r}", "--b-plant", "nan"], "b_plant"),
            (["fit", "--relax", "{r}", "--b-plant", "inf"], "b_plant"),
            # exit 0 with passivity_ok true, NRMSE 1574 and K0 = -2000
            (["fit", "--relax", "{r}", "--b-plant", "-1"], "b_plant"),
            # "SVD did not converge", exit 3
            (["fit", "--relax", "{r}", "--x0", "nan"], "x0"),
            (["fit", "--creep", "{c}", "--t-hold", "0.5", "--f-hold", "nan"], "f_hold"),
            # exit 0, and a record with no noise
            (["synth", *MATERIAL_FLAGS, "--protocol", "relaxation", "--duration", "0.5", "--noise", "nan"],
             "noise"),
        ],
        ids=["b-plant-nan", "b-plant-inf", "b-plant-negative", "x0-nan", "f-hold-nan", "noise-nan"],
    )
    def test_a_value_is_checked_where_it_enters(self, short_records, tmp_path, capsys, argv, quantity):
        out = tmp_path / "out"
        argv = [a.format(r=short_records / "r.csv", c=short_records / "c.csv") for a in argv]
        assert dispatch([*argv, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert quantity in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_creep_record_running_backwards_is_refused(self, short_records, tmp_path, capsys):
        # the hold is sized at the record's period before the record is checked
        header, *rows = (short_records / "c.csv").read_text().splitlines()
        backwards = tmp_path / "b.csv"
        backwards.write_text("\n".join([header, *reversed(rows)]) + "\n")
        assert dispatch(["fit", "--creep", str(backwards), "--t-hold", "0.5"]) == 3
        assert "sampling period must be positive, got -0.001" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--relax", "{d}/missing.csv"], ["--relax", "{r}", "-o", "{d}/no/dir/x.json"]],
                             ids=["missing-input", "output-in-missing-directory"])
    def test_a_path_that_cannot_be_opened_is_a_usage_error(self, short_records, tmp_path, capsys, argv):
        # both once ended in a FileNotFoundError traceback, exit 1
        argv = [a.format(d=tmp_path, r=short_records / "r.csv") for a in argv]
        assert dispatch(["fit", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fovisc: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, work", [
        (["fit", "--relax", "{r}"], (fitting, "fit")),
        (["simulate", "--k1", "2", "--b1", "100", "--duration", "0.1"], (simloop, "simulate")),
        (["sweep", "--what", "ed", "--k1", "1", "--b1", "1", "--alpha", "0.5"], (impedance, "es_ed_finite")),
    ], ids=["fit", "simulate", "sweep"])
    def test_an_output_directory_is_checked_before_the_work(self, short_records, tmp_path, capsys, monkeypatch,
                                                            argv, work):
        # the whole run once went ahead, and only writing its output exited 2
        monkeypatch.setattr(*work, lambda *a, **k: pytest.fail("the work ran"))
        argv = [a.format(r=short_records / "r.csv") for a in argv]
        assert dispatch([*argv, "-o", str(tmp_path / "no" / "dir" / "x.out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fovisc: error: ") and "no directory" in err and "Traceback" not in err
        assert not (tmp_path / "no").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_json_is_refused_and_not_written(self, short_records, tmp_path, capsys):
        # the fit's NRMSE overflows to inf, once written as "nrmse": Infinity,
        # which is not JSON
        out = tmp_path / "fit.json"
        assert dispatch(["fit", "--relax", str(short_records / "r.csv"), "--b-plant", "1e300",
                         "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "nrmse not finite" in err
        assert "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("argv, message", [
        (["bound", "--k1", "1", "--b1", "1", "--alpha", "0.5"], "unrecognized arguments: --gnuplot"),
        (["fit", "--relax", "{r}"], "unrecognized arguments: --gnuplot"),
        (["coeffs", "--alpha", "0.5", "--n", "5", "--t", "0.001", "--json"],
         "fovisc: error: coeffs --json writes JSON, which --gnuplot cannot plot\n"),
        (["simulate", "--boundary", "--alpha", "0.5", "--b1", "100"],
         "fovisc: error: simulate --boundary writes JSON, which --gnuplot cannot plot\n"),
    ], ids=["bound", "fit", "coeffs-json", "simulate-boundary"])
    def test_json_only_commands_take_no_plot_flag(self, short_records, tmp_path, capsys, monkeypatch, argv, message):
        # each once exited 0 and wrote no script
        monkeypatch.setattr(glkernel, "build_kernel", lambda *a: pytest.fail("the work ran"))
        out = tmp_path / "out.json"
        argv = [a.format(r=short_records / "r.csv") for a in argv]
        assert dispatch([*argv, "-o", str(out), "--gnuplot"]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("error:") == 1
        assert not out.exists() and not (tmp_path / "out.json.gp").exists()


def _f12(x):
    return float(f"{float(x):.12g}")


def _one_value(v):
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def reference_csv(header, rows, comments=None):
    """The CSV as written one value at a time: ``.12g`` for floats, ``str`` for the rest."""
    lines = [",".join(header)]
    lines += [",".join(_one_value(v) for v in row) for row in rows]
    lines += [f"# {key} = {_one_value(value)}" for key, value in (comments or {}).items()]
    return "\n".join(lines) + "\n"


def reference_gnuplot(csv_path, header):
    plots = ", ".join(f"'{csv_path}' using 1:{i + 2} with lines" for i in range(len(header) - 1))
    return (
        "set datafile separator ','\nset key autotitle columnhead\n"
        f"set xlabel '{header[0]}'\nplot {plots}\npause -1\n"
    )


# Each table is rebuilt from the library row by row, floats through float()
# and sweep and reduce values rounded to 12 digits first, so the CLI's
# column writer is held to a value-at-a-time reference.
T = 0.001
MATERIAL = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203"]
TRACE_HEADER = ["time_s", "position_mm", "velocity_mm_s", "force_n", "force_cmd_n", "energy_nmm"]


def _coeffs_table():
    kern = build_kernel(0.5, 101, T)
    summary = {
        "delta_p": _f12(glkernel.delta_p(kern)),
        "delta_s": _f12(glkernel.delta_s(0.5, 101)),
        "delta_d": _f12(glkernel.delta_d(0.5, 101)),
        "delta_p_asymptotic": _f12(glkernel.delta_p_asymptotic(0.5)),
    }
    return ["index", "coefficient"], [(i, float(c)) for i, c in enumerate(kern.coeffs)], summary


def _region_table():
    region = passivity.region_scan(0.5, build_kernel(0.5, 101, T), 0.0025, np.linspace(0.05, 2, 40), 1000.0)
    rows = [(float(b), float(k)) for b, k in zip(region.b1, region.k1)]
    return ["b1", "k1_max"], rows, {"feasible": region.feasible}


SWEEP_PARAMS, SWEEP_KERNEL = FoSlsParams(10.0, 32.0, 0.01, 0.5), build_kernel(0.5, 101, T)
SWEEP_OMEGAS = np.linspace(0.0, math.pi / T, 201)[1:]


def _sweep_f_table():
    values = passivity_function(SWEEP_PARAMS, SWEEP_KERNEL, SWEEP_OMEGAS)
    return ["omega_t", "f"], [(float(w * T), _f12(f)) for w, f in zip(SWEEP_OMEGAS, values)], None


def _sweep_table(what, form):
    def table():
        omegas = SWEEP_OMEGAS
        if form == "lowfreq":
            es, ed = impedance.es_ed_lowfreq(SWEEP_PARAMS, SWEEP_KERNEL)
            omegas, es, ed = [0.0], [es], [ed]
        elif form == "finite":
            es, ed = impedance.es_ed_finite(SWEEP_PARAMS, SWEEP_KERNEL, omegas)
        else:
            es, ed = impedance.es_ed_asymptotic(SWEEP_PARAMS, omegas, T)
        rows = [(float(w), _f12(v)) for w, v in zip(omegas, es if what == "es" else ed)]
        return ["omega", what], rows, None

    return table


def _reduce_table(kind):
    def table():
        h = models.freq_response(kind, SWEEP_PARAMS, SWEEP_KERNEL, SWEEP_OMEGAS)
        rows = [(float(w), _f12(v.real), _f12(v.imag)) for w, v in zip(SWEEP_OMEGAS, h)]
        return ["omega", "re_H", "im_H"], rows, None

    return table


def _synth_table(protocol, noise_sd=0.0, seed=0):
    def table():
        params, kern = FoSlsParams(-2.89, 5.7, 5.89, 0.203), build_kernel(0.203, 101, T)
        exp = fitting.synth_experiment(params, kern, protocol, noise_sd, seed)
        return ["time_s", "value"], list(zip(exp.time, exp.values)), None

    return table


def _trace_table(params, excitation, duration, n_mem=101):
    def table():
        plant = simloop.PlantParams(mass=7.34e-5, damping=0.0025)
        ve = models.DiscreteVE(params, build_kernel(params.alpha, n_mem, T))
        trace = simloop.simulate(plant, ve, excitation, duration, T)
        rows = zip(trace.t, trace.position, trace.velocity, trace.force, trace.force_cmd, trace.energy)
        return TRACE_HEADER, [tuple(float(v) for v in row) for row in rows], {"diverged": trace.diverged}

    return table


_SWEEP_FLAGS = "--k0 10 --k1 32 --b1 0.01 --alpha 0.5 --n 101 --t 0.001 --points 200"
CSV_CASES = {
    "coeffs": ("coeffs --alpha 0.5 --n 101 --t 0.001", _coeffs_table),
    "region": ("region --alpha 0.5 --b-plant 0.0025 --b1-min 0.05 --b1-max 2 --steps 40", _region_table),
    "sweep-f": (f"sweep --what f {_SWEEP_FLAGS}", _sweep_f_table),
    **{
        f"sweep-{what}-{form}": (
            f"sweep --what {what} --form {form} {_SWEEP_FLAGS}", _sweep_table(what, form)
        )
        for what in ("es", "ed")
        for form in ("finite", "asymptotic", "lowfreq")
    },
    **{
        f"reduce-{kind}": (f"reduce --kind {kind} {_SWEEP_FLAGS}", _reduce_table(kind))
        for kind in models.REDUCTION_KINDS
    },
    "synth-creep": (
        f"synth {' '.join(MATERIAL)} --protocol creep",
        _synth_table(fitting.CreepProtocol()),
    ),
    "synth-relaxation-noise": (
        f"synth {' '.join(MATERIAL)} --protocol relaxation --noise 0.0025 --seed 3",
        _synth_table(fitting.RelaxationProtocol(), 0.0025, 3),
    ),
    "simulate-impulse": (
        "simulate --k1 2 --b1 100 --alpha 0.5 --excite impulse:0.01 --duration 10",
        _trace_table(FoSlsParams(0.0, 2.0, 100.0, 0.5), simloop.Impulse(momentum=0.01), 10.0),
    ),
    "simulate-chirp": (
        "simulate --k0 1 --k1 2 --b1 5 --alpha 0.3 --n 51 --excite chirp:1,20,2,0.05 --duration 3",
        _trace_table(FoSlsParams(1.0, 2.0, 5.0, 0.3), simloop.ForceChirp(1.0, 20.0, 2.0, 0.05), 3.0, 51),
    ),
    "simulate-diverging": (
        "simulate --k1 50 --b1 100 --alpha 0.5 --duration 10",
        _trace_table(FoSlsParams(0.0, 50.0, 100.0, 0.5), simloop.Impulse(momentum=0.01), 10.0),
    ),
}


class TestCsvBytes:
    @pytest.mark.parametrize("name", list(CSV_CASES))
    def test_file_stdout_and_plot_script_match_the_reference_writer(self, tmp_path, capsys, name):
        argv, table = CSV_CASES[name]
        header, rows, comments = table()
        expected = reference_csv(header, rows, comments)
        out = tmp_path / "out.csv"
        assert dispatch([*argv.split(), "-o", str(out), "--gnuplot"]) == 0
        assert out.read_bytes() == expected.encode()
        assert (tmp_path / "out.csv.gp").read_text() == reference_gnuplot(str(out), header)
        capsys.readouterr()
        assert dispatch(argv.split()) == 0
        assert capsys.readouterr().out == expected

    def test_diverging_trace_ends_past_the_limit(self, tmp_path):
        out = tmp_path / "div.csv"
        assert dispatch([*CSV_CASES["simulate-diverging"][0].split(), "-o", str(out)]) == 0
        _, rows, comments = read_csv(out)
        assert comments["diverged"] == "True"
        assert abs(float(rows[-1][1])) > simloop.DIVERGENCE_LIMIT_MM

    def test_the_long_trace_spans_several_blocks(self):
        rows = len(CSV_CASES["simulate-impulse"][1]()[1])
        assert rows > 2 * cli._CSV_BLOCK_ROWS


def _write(tmp_path, header, columns, comments=None):
    out = tmp_path / "w.csv"
    cli._write_csv(argparse.Namespace(output=str(out), gnuplot=False), header, columns, comments)
    return out.read_text()


class TestWriteCsv:
    EDGES = [-0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 5e-324, 0.1, -123456789.123456789, 2.0**53]

    def test_edge_values(self, tmp_path):
        index = np.arange(len(self.EDGES)) - 3
        values = np.array(self.EDGES)
        comments = {"diverged": True, "delta_d": None, "zero": -0.0}
        got = _write(tmp_path, ["i", "x", "reversed"], [index, values, values[::-1]], comments)
        rows = [(int(i), float(x), float(y)) for i, x, y in zip(index, values, values[::-1])]
        assert got == reference_csv(["i", "x", "reversed"], rows, comments)
        assert got.splitlines()[1] == "-3,-0,9.00719925474e+15"

    def test_integer_column_alone_and_large_indices(self, tmp_path):
        index = np.array([0, 7, 2**40, -(2**40)])
        got = _write(tmp_path, ["index"], [index])
        assert got == "index\n0\n7\n1099511627776\n-1099511627776\n"

    def test_zero_rows_write_the_header_and_comments(self, tmp_path):
        got = _write(tmp_path, ["index", "coefficient"], [np.arange(0), np.empty(0)], {"feasible": False})
        assert got == "index,coefficient\n# feasible = False\n"

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_row_counts_around_the_block_size(self, tmp_path, capsys, blocks, offset):
        n = blocks * cli._CSV_BLOCK_ROWS + offset
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        index = np.arange(n)
        expected = reference_csv(["index", "value"], [(int(i), float(v)) for i, v in zip(index, values)])
        assert _write(tmp_path, ["index", "value"], [index, values]) == expected
        cli._write_csv(argparse.Namespace(output=None), ["index", "value"], [index, values])
        assert capsys.readouterr().out == expected


def cold_modules(runs, out_dir):
    """Which of scipy.signal and scipy.optimize a fresh interpreter has
    imported after dispatching runs (each writing into out_dir)."""
    script = (
        "import json, os, sys\n"
        "from fovisc.cli import dispatch\n"
        "os.chdir(sys.argv[2])\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert dispatch(argv) == 0, argv\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), str(out_dir)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestColdStart:
    def test_commands_without_records_leave_scipy_signal_and_optimize_unimported(self, tmp_path):
        readme_runs = [
            ["coeffs", "--alpha", "0.5", "--n", "101", "--t", "0.001", "--json", "-o", "out0"],
            ["bound", "--k0", "0", "--k1", "1", "--b1", "1", "--alpha", "0.5", "--n", "101",
             "--t", "0.001", "--b-plant", "0.0025", "-o", "out1"],
            ["region", "--alpha", "0.5", "--b-plant", "0.0025", "--b1-min", "0.05", "--b1-max", "2",
             "--steps", "40", "-o", "out2"],
            ["sweep", "--what", "f", "--k0", "0", "--k1", "1", "--b1", "1", "--alpha", "0.5",
             "--n", "101", "--t", "0.001", "-o", "out3"],
            ["reduce", "--kind", "io_kv", "--k0", "10", "--k1", "1", "--b1", "0.01", "--alpha", "1",
             "--n", "5", "--t", "0.001", "-o", "out4"],
        ]
        assert cold_modules(readme_runs, tmp_path) == ["[]"]

    def test_time_domain_commands_leave_scipy_signal_unimported(self, tmp_path):
        # the records and the loop run SciPy's compiled filter without its
        # package; only fit imports scipy.optimize, for its solver
        material = ["--k0", "-2.89", "--k1", "5.7", "--b1", "5.89", "--alpha", "0.203"]
        readme_runs = [
            ["synth", *material, "--protocol", "creep", "-o", "creep.csv"],
            ["synth", *material, "--protocol", "relaxation", "-o", "relax.csv"],
            ["synth", *material, "--n", "0", "--protocol", "creep", "-o", "creep0.csv"],
            ["simulate", "--k1", "2", "--b1", "100", "--alpha", "0.5", "--excite", "impulse:0.01",
             "--duration", "10", "-o", "trace.csv"],
            ["simulate", "--boundary", "--alpha", "0.5", "--b1", "100", "--plant-m", "7.34e-5",
             "--plant-b", "0.0025", "-o", "boundary.json"],
        ]
        assert cold_modules(readme_runs, tmp_path) == ["[]"]
        fit = ["fit", "--creep", "creep.csv", "--relax", "relax.csv", "--n", "101", "--b-plant", "0.0025",
               "-o", "fit.json"]
        assert cold_modules([fit], tmp_path) == ["['scipy.optimize']"]


class TestReadme:
    def test_every_command_line_of_the_readme_runs(self, tmp_path, monkeypatch, capsys):
        # the documented commands, run in a scratch directory in their order
        # (fit reads what the synth lines write), must keep working as written
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            blocks = fh.read().split("```bash\n")[1:]
        lines = [ln for block in blocks for ln in block.split("```")[0].splitlines()]
        commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("fovisc ")]
        assert len(commands) >= 10
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert dispatch(argv) == 0, argv
            assert "Traceback" not in capsys.readouterr().err


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

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, capsys):
        # dispatch builds its parser once; a usage error must not leave state
        # behind, so each later call writes what a fresh interpreter writes
        runs = [
            ["coeffs", "--alpha", "0.5", "--n", "5", "--t", "0.001"],
            ["bound", "--k1", "2", "--b1", "0.5", "--alpha", "0.4", "--n", "100", "--b-plant", "0.003"],
            ["region", "--alpha", "0.5", "--b-plant", "0.0025", "--b1-min", "0.05", "--b1-max", "2",
             "--steps", "4", "--n", "101"],
            ["sweep", "--what", "es", "--k1", "1", "--b1", "1", "--alpha", "0.5", "--points", "16"],
        ]
        assert dispatch(["bound", "--k1", "1"]) == 2
        for i, argv in enumerate(runs):
            assert dispatch([*argv, "-o", str(tmp_path / f"here{i}")]) == 0
            assert dispatch([argv[0], "--bogus"]) == 2
        capsys.readouterr()
        for i, argv in enumerate(runs):
            proc = subprocess.run(
                [sys.executable, "-m", "fovisc.cli", *argv, "-o", str(tmp_path / f"fresh{i}")],
                capture_output=True, env=subprocess_env(),
            )
            assert proc.returncode == 0
            assert (tmp_path / f"here{i}").read_bytes() == (tmp_path / f"fresh{i}").read_bytes()
        assert cli.build_parser() is not cli.build_parser()

    def test_determinism_byte_identical(self, tmp_path):
        argv = ["bound", "--alpha", "0.3", "--k0", "1", "--k1", "4", "--b1", "2",
                "--n", "101", "--t", "0.001"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert dispatch([*argv, "-o", str(a)]) == 0
        assert dispatch([*argv, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
