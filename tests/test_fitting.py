"""Fit-quality metric, synthetic protocols, and constrained identification."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fovisc import fitting
from fovisc.cli import dispatch
from fovisc.fitting import (
    CreepProtocol,
    ExperimentData,
    FitConfig,
    RelaxationProtocol,
    _passive_params,
    fit,
    nrmse,
    synth_experiment,
)
from fovisc.glkernel import build_kernel
from fovisc.models import FoSlsParams, creep_response, relaxation_response
from fovisc.passivity import bound_closed_form

T = 0.001
MATERIAL_N101 = FoSlsParams(k0=-2.89, k1=5.70, b1=5.89, alpha=0.203)

QUICK = FitConfig(n_starts=3, max_evals_per_start=6000, seed=0)


class TestNrmse:
    def test_identical_series(self):
        y = np.array([1.0, 2.0, 4.0])
        assert nrmse(y, y) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=100)
        r = float(np.max(y) - np.min(y))
        assert nrmse(y + 0.3, y) == pytest.approx(0.3 / r, rel=1e-12)

    def test_zero_range_errors(self):
        with pytest.raises(ValueError):
            nrmse(np.ones(5), np.ones(5))

    def test_normalization_variants(self):
        y = np.array([1.0, 3.0])
        p = np.array([2.0, 4.0])
        rms = np.sqrt(np.mean(y**2))
        assert nrmse(p, y, "range") == pytest.approx(1.0 / 2.0)
        assert nrmse(p, y, "mean") == pytest.approx(1.0 / 2.0)
        assert nrmse(p, y, "rms") == pytest.approx(1.0 / rms)

    def test_self_consistency_on_model_output(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        exp = synth_experiment(MATERIAL_N101, kern, RelaxationProtocol())
        assert nrmse(exp.values, exp.values) < 1e-10


class TestSynth:
    def test_noiseless_is_exact_model_output(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        a = synth_experiment(MATERIAL_N101, kern, CreepProtocol())
        b = synth_experiment(MATERIAL_N101, kern, CreepProtocol(), noise_sd=0.0, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_averaging_flag_quarters_the_noise(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        raw = synth_experiment(MATERIAL_N101, kern, RelaxationProtocol(), noise_sd=0.4, seed=1)
        avg = synth_experiment(
            MATERIAL_N101, kern, RelaxationProtocol(), noise_sd=0.4, seed=1, average_16=True
        )
        clean = synth_experiment(MATERIAL_N101, kern, RelaxationProtocol())
        sd_raw = float(np.std(raw.values - clean.values))
        sd_avg = float(np.std(avg.values - clean.values))
        assert sd_raw == pytest.approx(0.4, rel=0.1)
        assert sd_avg == pytest.approx(0.1, rel=0.1)

    def test_relaxation_decays_after_peak(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        exp = synth_experiment(MATERIAL_N101, kern, RelaxationProtocol())
        assert exp.values[0] == max(exp.values)
        assert exp.values[-1] < exp.values[0]

    def test_experiment_validation(self):
        with pytest.raises(ValueError):
            ExperimentData("creep", np.array([0.0, 0.0, 1.0]), np.zeros(3), CreepProtocol())
        with pytest.raises(ValueError):
            ExperimentData("wrong", np.array([0.0, 1.0]), np.zeros(2), CreepProtocol())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_records(self, bad):
        t = np.arange(4) * T
        values = np.array([1.0, bad, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            ExperimentData("relaxation", t, values, RelaxationProtocol())
        with pytest.raises(ValueError, match="finite"):
            ExperimentData("relaxation", np.append(t[:3], bad), np.ones(4), RelaxationProtocol())


class TestFitConfig:
    @pytest.mark.parametrize("evals", [-1, 0, 1])
    def test_rejects_a_budget_below_one_step(self, evals):
        # one residual plus one Jacobian is the least a step needs
        with pytest.raises(ValueError, match="max_evals_per_start"):
            FitConfig(max_evals_per_start=evals)
        assert FitConfig(max_evals_per_start=2).max_evals_per_start == 2


class TestPassiveParams:
    @given(
        log_k1=st.floats(-6.9, 6.9),
        log_b1=st.floats(-6.9, 6.9),
        u=st.floats(-50.0, 50.0),
        b_plant=st.sampled_from([0.0, 1e-4, 0.0025]) | st.floats(0.0, 0.01),
        t_samp=st.sampled_from([1e-3, 5e-4, 2e-3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_zero_slack_sits_on_the_bound(self, log_k1, log_b1, u, b_plant, t_samp):
        # K0 at zero slack is the cap: the bound holds exactly as the library
        # computes it, and misses b_plant by no more than roundoff
        params, kern = _passive_params([0.0, log_k1, log_b1, u], 101, t_samp, b_plant)
        b_min = bound_closed_form(params, kern).b_min
        assert b_min <= b_plant
        assert b_plant - b_min <= 1e-12 * (abs(params.k0) * t_samp + b_plant)


def central_jacobian(residuals, theta, h=1e-4):
    """Fourth-order central differences of the residual, column by column, at
    the widest step h/10^k whose matrix agrees with the next step's to 5e-7 of
    its largest entry (half the bound the Jacobian is held to).

    A step wider than the distance to a singular point of the residual (a
    creep filter with its zero on the unit circle) straddles it, and the
    differences miss by most of the matrix; steps below that distance agree.
    """

    def at(h):
        cols = []
        for j in range(theta.size):
            e = np.zeros(theta.size)
            e[j] = h
            near = residuals(theta + e) - residuals(theta - e)
            far = residuals(theta + 2 * e) - residuals(theta - 2 * e)
            cols.append((8.0 * near - far) / (12.0 * h))
        return np.column_stack(cols)

    wide = at(h)
    while h > 1e-10:
        h /= 10.0
        narrow = at(h)
        if np.max(np.abs(wide - narrow)) <= 5e-7 * np.max(np.abs(narrow)):
            return wide
        wide = narrow
    raise AssertionError("no two steps of the reference differences agree")


class TestJacobian:
    @given(
        slack=st.floats(0.01, 10.0),
        log_k1=st.floats(math.log(0.1), math.log(50.0)),
        log_b1=st.floats(math.log(0.1), math.log(50.0)),
        u=st.floats(-3.0, 3.0) | st.just(50.0),  # logit 50 rounds alpha to exactly 1
        n_mem=st.sampled_from([1, 51, 101]),
        kinds=st.sampled_from([("creep",), ("relaxation",), ("creep", "relaxation")]),
        f_hold=st.sampled_from([3.0, 0.0]),  # no hold force: 1/den from a filter pass
        t_hold=st.sampled_from([0.6, 0.15]),  # the recovery undone over 1 or 4 blocks
    )
    @settings(max_examples=80, deadline=None)
    # K0 = -K1*B1/(B1 + K1*T) at K1 = B1 = alpha = 1: the creep filter's zero
    # sits on the unit circle, and steps of 1e-4 to 1e-7 straddle it
    @example(slack=5.0, log_k1=0.0, log_b1=0.0, u=50.0, n_mem=101, kinds=("creep",), f_hold=3.0, t_hold=0.6)
    @example(
        slack=5.0, log_k1=0.0, log_b1=0.0, u=50.0, n_mem=1, kinds=("creep", "relaxation"),
        f_hold=0.0, t_hold=0.15,
    )
    def test_matches_central_differences(self, slack, log_k1, log_b1, u, n_mem, kinds, f_hold, t_hold):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        protocols = {
            "creep": CreepProtocol(f_hold=f_hold, t_hold=t_hold, t_recover=0.6),
            "relaxation": RelaxationProtocol(duration=0.6),
        }
        data = [synth_experiment(MATERIAL_N101, kern, protocols[k]) for k in kinds]
        residuals, jacobian = fitting._objective(data, n_mem, FitConfig())
        theta = np.array([slack, log_k1, log_b1, u])
        assume(np.all(np.abs(residuals(theta)) < fitting._WALL))
        jac = jacobian(theta)
        # relative to the whole matrix: every column differentiates the same
        # weighted residual in an O(1) variable, and Euler's relation gives
        # the B1 column by a difference that can be far smaller than its terms
        err = np.max(np.abs(jac - central_jacobian(residuals, theta)))
        assert err <= 1e-6 * np.max(np.abs(jac))

    def test_wall_records_give_zero_rows(self):
        # at this theta the creep inverse filter is unstable and its record
        # sits on the wall, while the relaxation record stays inside it
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        data = [
            synth_experiment(MATERIAL_N101, kern, CreepProtocol(t_hold=0.5, t_recover=0.5)),
            synth_experiment(MATERIAL_N101, kern, RelaxationProtocol(duration=0.5)),
        ]
        n_creep = data[0].values.size
        residuals, jacobian = fitting._objective(data, 101, FitConfig())
        theta = np.array([3.0, 2.0, 1.0, 0.0])
        r = residuals(theta)
        assert np.any(np.abs(r[:n_creep]) == fitting._WALL)
        assert np.all(np.abs(r[n_creep:]) < fitting._WALL)
        with np.errstate(all="raise"):
            jac = jacobian(theta)
        assert np.all(jac[:n_creep] == 0.0)
        assert np.all(np.abs(jac[n_creep:]).max(axis=0) > 0.0)

    def test_reuses_the_records_of_the_last_residual(self, monkeypatch):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        data = synth_experiment(MATERIAL_N101, kern, RelaxationProtocol(duration=0.5))
        residuals, jacobian = fitting._objective([data], 101, FitConfig())
        theta = np.array([1.0, 1.5, 1.5, -1.0])
        residuals(theta)
        expected = jacobian(theta)
        monkeypatch.setattr(fitting, "relaxation_response", lambda *a: pytest.fail("model ran"))
        assert np.array_equal(jacobian(theta.copy()), expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFit:
    def make_data(self, params, n_gen=101):
        kern = build_kernel(params.alpha, n_gen, T)
        return [
            synth_experiment(params, kern, CreepProtocol()),
            synth_experiment(params, kern, RelaxationProtocol()),
        ]

    def test_recovers_identified_material_row(self):
        result = fit(self.make_data(MATERIAL_N101), 101, QUICK)
        assert result.nrmse < 0.005
        assert result.params.alpha == pytest.approx(MATERIAL_N101.alpha, abs=0.02)
        assert result.passivity_ok

    def test_recovers_integer_order_generator(self):
        # generator kept inside the b_plant = 0.0025 admissible region, so the
        # optimum is unconstrained and the order should be pushed to the top
        true = FoSlsParams(k0=0.5, k1=2.0, b1=0.4, alpha=1.0)
        result = fit(self.make_data(true), 101, FitConfig(n_starts=6, max_evals_per_start=12000, seed=0))
        assert result.params.alpha >= 0.95
        assert result.nrmse < 0.005

    def test_zero_damping_budget_degrades_the_fit(self):
        # with no dissipation budget every well-fitting candidate violates the
        # bound; the search stays on passive sets, trading fit quality for
        # formal feasibility
        config = FitConfig(b_plant=0.0, n_starts=2, max_evals_per_start=1500, seed=0)
        result = fit(self.make_data(MATERIAL_N101), 101, config)
        kern = build_kernel(result.params.alpha, 101, T)
        bound = bound_closed_form(result.params, kern).b_min
        assert result.passivity_ok == (bound <= 0.0)
        feasible_fit = fit(self.make_data(MATERIAL_N101), 101, QUICK)
        assert result.nrmse > 100.0 * feasible_fit.nrmse

    def test_reported_feasibility_is_reverified(self):
        result = fit(self.make_data(MATERIAL_N101), 101, QUICK)
        kern = build_kernel(result.params.alpha, result.n_mem, T)
        bound = bound_closed_form(result.params, kern).b_min
        assert result.passivity_ok == (bound <= QUICK.b_plant)

    def test_deterministic_given_seed(self):
        data = self.make_data(MATERIAL_N101)
        config = FitConfig(n_starts=2, max_evals_per_start=1200, seed=7)
        r1 = fit(data, 101, config)
        r2 = fit(data, 101, config)
        assert r1.params == r2.params
        assert r1.nrmse == r2.nrmse
        assert r1.objective_evals == r2.objective_evals

    def test_rejects_even_memory(self):
        with pytest.raises(ValueError):
            fit(self.make_data(MATERIAL_N101), 100, QUICK)

    def test_rejects_mixed_periods(self):
        kern_a = build_kernel(0.5, 51, 0.001)
        kern_b = build_kernel(0.5, 51, 0.002)
        p = FoSlsParams(0.0, 1.0, 1.0, 0.5)
        data = [
            synth_experiment(p, kern_a, RelaxationProtocol()),
            synth_experiment(p, kern_b, RelaxationProtocol()),
        ]
        with pytest.raises(ValueError):
            fit(data, 51, QUICK)

    @pytest.mark.parametrize("b_plant", [0.0, 1e-4, 0.0025])
    def test_identified_set_is_passive_by_construction(self, b_plant):
        config = FitConfig(b_plant=b_plant, n_starts=2, max_evals_per_start=300, seed=0)
        result = fit(self.make_data(MATERIAL_N101), 101, config)
        kern = build_kernel(result.params.alpha, 101, T)
        assert result.passivity_ok
        assert bound_closed_form(result.params, kern).b_min <= b_plant

    def test_evaluations_count_every_residual_within_the_budget(self, monkeypatch):
        kern = build_kernel(0.5, 51, T)
        data = synth_experiment(FoSlsParams(0.0, 1.0, 1.0, 0.5), kern, RelaxationProtocol(duration=0.5))
        runs = []

        def counting(*args):
            runs.append(args)
            return relaxation_response(*args)

        objective = fitting._objective
        jacobians = []

        def counting_objective(*args):
            residuals, jacobian = objective(*args)

            def counted(theta):
                jacobians.append(theta)
                return jacobian(theta)

            return residuals, counted

        monkeypatch.setattr(fitting, "relaxation_response", counting)
        monkeypatch.setattr(fitting, "_objective", counting_objective)
        result = fit(data, 51, FitConfig(n_starts=2, max_evals_per_start=40, seed=0))
        # an evaluation is a residual (one model run) or a Jacobian (none: it
        # reuses the residual's record); plus the up-front length check and
        # the final report
        assert jacobians
        assert len(runs) + len(jacobians) == result.objective_evals + 2
        assert result.objective_evals <= 2 * 40

    def test_short_protocol_fails_before_the_search(self, monkeypatch):
        kern = build_kernel(0.5, 51, T)
        exp = synth_experiment(FoSlsParams(0.0, 1.0, 1.0, 0.5), kern, RelaxationProtocol(duration=1.0))
        short = ExperimentData("relaxation", exp.time, exp.values, RelaxationProtocol(duration=0.5))
        monkeypatch.setattr(fitting, "least_squares", lambda *a, **k: pytest.fail("search ran"))
        with pytest.raises(ValueError, match="shorter than the measured record"):
            fit(short, 51, QUICK)

    def test_unstable_creep_candidates_meet_a_finite_wall(self, monkeypatch):
        # with seed 1 a start crosses sets whose creep inverse filter is
        # unstable; their non-finite predictions must not reach the solver
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        data = synth_experiment(MATERIAL_N101, kern, CreepProtocol(t_hold=1.0, t_recover=1.0))
        unstable = []

        def recording(*args):
            t, x = creep_response(*args)
            if not np.all(np.isfinite(x)):
                unstable.append(args[0])
            return t, x

        monkeypatch.setattr(fitting, "creep_response", recording)
        result = fit(data, 101, FitConfig(n_starts=2, max_evals_per_start=300, seed=1))
        assert unstable
        assert np.isfinite(result.nrmse)
        assert result.passivity_ok


class TestCsvRoundTrip:
    @given(
        slack=st.floats(0.05, 3.0),
        log_k1=st.floats(0.0, math.log(20.0)),
        log_b1=st.floats(0.0, math.log(20.0)),
        u=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=5, deadline=None)
    def test_synth_csv_fit_recovers_the_generator(self, tmp_path_factory, slack, log_k1, log_b1, u):
        # a passive generator (K0 below the cap by the slack), written by synth
        # at 12 significant digits and read back by fit
        d = tmp_path_factory.mktemp("roundtrip")
        true, kern = _passive_params([slack, log_k1, log_b1, u], 101, T, 0.0025)
        # a generator whose force law loses its inverse somewhere on the unit
        # circle has a diverging creep record: no material to recover. The
        # record synth would write (its default forces 3 and 0.5) is checked
        # before synth runs, since one that overflows float64 is refused.
        _, x = creep_response(true, kern, 3.0, 1.0, 0.5, 1.0)
        assume(np.max(np.abs(x)) < 1e3)
        flags = ["--k0", repr(true.k0), "--k1", repr(true.k1), "--b1", repr(true.b1),
                 "--alpha", repr(true.alpha)]
        creep, relax, out = d / "creep.csv", d / "relax.csv", d / "fit.json"
        assert dispatch(["synth", *flags, "--protocol", "creep", "--t-hold", "1",
                         "--t-recover", "1", "-o", str(creep)]) == 0
        assert dispatch(["synth", *flags, "--protocol", "relaxation", "--duration", "1",
                         "-o", str(relax)]) == 0
        assert np.max(np.abs(np.loadtxt(creep, delimiter=",", skiprows=1)[:, 1])) < 1e3
        code = dispatch(["fit", "--creep", str(creep), "--relax", str(relax), "--t-hold", "1",
                         "--starts", "2", "--seed", "0", "-o", str(out)])
        result = json.loads(out.read_text())
        assert code == 0
        assert result["params"]["alpha"] == pytest.approx(true.alpha, abs=0.02)
        assert result["nrmse"] < 0.005
