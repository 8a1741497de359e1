"""Fit-quality metric, synthetic protocols, and constrained identification."""

import argparse
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from fovisc import cli, fitting
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
from fovisc.models import FoSlsParams, _law_filter, _poles_outside, creep_response
from fovisc.passivity import bound_closed_form

T = 0.001
MATERIAL_N101 = FoSlsParams(k0=-2.89, k1=5.70, b1=5.89, alpha=0.203)

QUICK = FitConfig(max_evals=6000)


def order_logit(alpha):
    """theta's order coordinate of alpha; the box edge, where alpha rounds to 1, at alpha = 1."""
    return math.log((alpha - fitting._ALPHA_LO) / (1.0 - alpha)) if alpha < 1.0 else fitting._U_BOX


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
        assert nrmse(p, y) == pytest.approx(1.0 / 2.0)

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

    def test_noise_has_the_requested_sd(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        clean = synth_experiment(MATERIAL_N101, kern, RelaxationProtocol())
        for sd in (0.4, 0.1):
            noisy = synth_experiment(MATERIAL_N101, kern, RelaxationProtocol(), noise_sd=sd, seed=1)
            assert float(np.std(noisy.values - clean.values)) == pytest.approx(sd, rel=0.1)

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
        # a stimulus of the other kind: fit would read a field it does not have
        with pytest.raises(ValueError, match="creep record needs a CreepProtocol stimulus, got Relax"):
            ExperimentData("creep", np.arange(3) * T, np.zeros(3), RelaxationProtocol())
        with pytest.raises(ValueError, match="relaxation record needs a RelaxationProtocol .*got Creep"):
            ExperimentData("relaxation", np.arange(3) * T, np.zeros(3), CreepProtocol())

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
        with pytest.raises(ValueError, match="max_evals"):
            FitConfig(max_evals=evals)
        assert FitConfig(max_evals=2).max_evals == 2


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
    """Fourth-order central differences of the residual, each column at the
    widest step h/10^k at which it agrees with the next step's column to 5e-7
    of that step's largest matrix entry (half the bound the Jacobian is held to).

    A step wider than the distance to a singular point of the residual (a
    creep filter with its zero on the unit circle) straddles it, and the
    differences miss by most of the matrix; steps below that distance agree.
    That distance differs between columns.  At slack = 2*b_plant/T the law's
    Nyquist value K0 + branch is 0 whatever K1, B1 and alpha are, so only
    the slack moves the zero off z = -1; at B1 = e, N = 1 the slack column
    first agrees at 1e-9, where the roundoff in the other columns is already
    ~6e-6 of the matrix.
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
    ref, done = np.empty_like(wide), np.zeros(theta.size, dtype=bool)
    while h > 1e-10:
        h /= 10.0
        narrow = at(h)
        agree = np.max(np.abs(wide - narrow), axis=0) <= 5e-7 * np.max(np.abs(narrow))
        ref[:, agree & ~done] = wide[:, agree & ~done]
        done |= agree
        if done.all():
            return ref
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
    # B1 = e moves that zero ~2.7x faster with the slack: the slack column
    # agrees only at steps where the other columns are roundoff
    @example(slack=5.0, log_k1=0.0, log_b1=1.0, u=50.0, n_mem=1, kinds=("creep",), f_hold=3.0, t_hold=0.6)
    def test_matches_central_differences(self, slack, log_k1, log_b1, u, n_mem, kinds, f_hold, t_hold):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        protocols = {
            "creep": CreepProtocol(f_hold=f_hold, t_hold=t_hold, t_recover=0.6),
            "relaxation": RelaxationProtocol(duration=0.6),
        }
        data = [synth_experiment(MATERIAL_N101, kern, protocols[k]) for k in kinds]
        residuals, jacobian, _ = fitting._objective(data, n_mem, FitConfig())
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
        residuals, jacobian, _ = fitting._objective(data, 101, FitConfig())
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
        residuals, jacobian, _ = fitting._objective([data], 101, FitConfig())
        theta = np.array([1.0, 1.5, 1.5, -1.0])
        residuals(theta)
        expected = jacobian(theta)
        monkeypatch.setattr(fitting, "_record_filter", lambda *a: pytest.fail("model ran"))
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
        result = fit(self.make_data(true), 101, FitConfig(max_evals=12000))
        assert result.params.alpha >= 0.95
        assert result.nrmse < 0.005

    def test_zero_damping_budget_degrades_the_fit(self):
        # with no dissipation budget every well-fitting candidate violates the
        # bound; the search stays on passive sets, trading fit quality for
        # formal feasibility
        config = FitConfig(b_plant=0.0, max_evals=1500)
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

    def test_two_calls_give_identical_results(self):
        data = self.make_data(MATERIAL_N101)
        config = FitConfig(max_evals=1200)
        r1 = fit(data, 101, config)
        r2 = fit(data, 101, config)
        assert r1.params == r2.params
        assert r1.nrmse == r2.nrmse
        assert r1.objective_evals == r2.objective_evals

    def test_a_start_on_the_record_stops_at_once(self):
        # at alpha = 1 the estimate reproduces this exact record, to a zero
        # residual: the solve must stop there, not run to its budget
        true, kern = _passive_params([0.16398485195103757, 0.345220708939621, 1.6634181588816266, 50.0],
                                     101, T, 0.0025)
        data = synth_experiment(true, kern, CreepProtocol(t_hold=1.0, t_recover=1.0))
        result = fit(data, 101, FitConfig(max_evals=1000))
        assert result.converged
        assert result.nrmse < 1e-12
        assert result.objective_evals <= len(fitting._START_ALPHAS) + 2

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
        config = FitConfig(b_plant=b_plant, max_evals=300)
        result = fit(self.make_data(MATERIAL_N101), 101, config)
        kern = build_kernel(result.params.alpha, 101, T)
        assert result.passivity_ok
        assert bound_closed_form(result.params, kern).b_min <= b_plant

    def test_evaluations_count_every_residual_within_the_budget(self, monkeypatch):
        kern = build_kernel(0.5, 51, T)
        data = synth_experiment(FoSlsParams(0.0, 1.0, 1.0, 0.5), kern, RelaxationProtocol(duration=0.5))
        runs, calls = [], {"residuals": 0, "jacobian": 0, "score": 0}
        record_filter, objective = fitting._record_filter, fitting._objective

        def counting_filter(*args):
            runs.append(args)
            return record_filter(*args)

        def counting_objective(*args):
            def counted(name, fn):
                def call(*a):
                    calls[name] += 1
                    return fn(*a)

                return call

            return [counted(name, fn) for name, fn in zip(calls, objective(*args))]

        monkeypatch.setattr(fitting, "_record_filter", counting_filter)
        monkeypatch.setattr(fitting, "_objective", counting_objective)
        result = fit(data, 51, FitConfig(max_evals=40))
        # an evaluation is a residual (one model run), a Jacobian (none: it
        # reuses the residual's record) or a scored start (one model run, stopped
        # early or not), one per valid order; plus the up-front length check and
        # the final report.  The budget caps the solve.
        starts = fitting._equation_error_starts([data], 51, FitConfig())
        assert calls["jacobian"] and calls["score"] == len(starts) > 1
        assert sum(calls.values()) == result.objective_evals
        assert len(runs) + calls["jacobian"] == result.objective_evals + 2
        assert result.objective_evals <= len(fitting._START_ALPHAS) + 40

    def test_short_protocol_fails_before_the_search(self, monkeypatch):
        kern = build_kernel(0.5, 51, T)
        exp = synth_experiment(FoSlsParams(0.0, 1.0, 1.0, 0.5), kern, RelaxationProtocol(duration=1.0))
        short = ExperimentData("relaxation", exp.time, exp.values, RelaxationProtocol(duration=0.5))
        monkeypatch.setattr(fitting, "least_squares", lambda *a, **k: pytest.fail("search ran"))
        with pytest.raises(ValueError, match="shorter than the measured record"):
            fit(short, 51, QUICK)

    def test_unstable_creep_candidates_meet_a_finite_wall(self):
        # a passive set (b_min 0.002403 < 0.0025) whose force law has no stable
        # inverse: its creep prediction grows to ~1e35 mm, and must reach the
        # solver as finite residuals on the wall with zero Jacobian rows
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        data = synth_experiment(MATERIAL_N101, kern, CreepProtocol(t_hold=1.0, t_recover=1.0))
        unstable = FoSlsParams(k0=-9.663399485574615, k1=19.95069809321432, b1=7.059139793870999,
                               alpha=0.26436587608063844)
        theta = np.array([0.0, math.log(unstable.k1), math.log(unstable.b1), order_logit(unstable.alpha)])
        theta[0] = _passive_params(theta, 101, T, 0.0025)[0].k0 - unstable.k0  # the slack below the cap
        params, kern_u = _passive_params(theta, 101, T, 0.0025)
        for name in ("k0", "k1", "b1", "alpha"):
            assert getattr(params, name) == pytest.approx(getattr(unstable, name), rel=1e-9)
        assert _poles_outside(_law_filter(params, kern_u)[0]) > 0
        residuals, jacobian, _ = fitting._objective([data], 101, FitConfig())
        r = residuals(theta)
        assert np.all(np.isfinite(r))
        assert np.any(np.abs(r) == fitting._WALL)
        with np.errstate(all="raise"):
            jac = jacobian(theta)
        assert np.all(jac == 0.0)


def reference_starts(experiments, n_mem, config, passes=1):
    """The start scan with every column convolved and one SVD of the stacked
    m x 4 matrix per order and pass: (theta, singular values of the
    estimate) of each valid order.  The pass, if any, prefilters each record
    by lfilter with the estimate's den (relaxation) or num (creep), scaled to
    a leading coefficient of 1, and an order keeps its estimate when the
    pass's vector is not valid or its creep prefilter has a pole outside the
    unit circle.  alpha = 1, on the box edge, keeps its estimate."""
    t_samp = experiments[0].t_samp
    series = []
    for exp in experiments:
        m, s, scale = exp.values.size, exp.stimulus, fitting._scale(exp.values)
        if exp.kind == "creep":
            f, x = fitting._creep_force(s.f_hold, s.t_hold, s.f_recover, s.t_recover, t_samp)[:m], exp.values
        else:
            f, x = exp.values, np.full(m, float(s.x0))
        series.append((exp.kind, f / scale, x / scale))

    def null_vector(c, records):
        rows = np.vstack([np.column_stack([fitting._fir(c, f), f, -fitting._fir(c, x), -x]) for f, x in records])
        norms = np.linalg.norm(rows, axis=0)
        _, singular, vectors = np.linalg.svd(rows / norms, full_matrices=False)
        return vectors[-1] / norms, singular

    def start(vector, alpha):
        a, b, p, q = vector
        with np.errstate(all="ignore"):
            k0, k1 = q / b, p / a - q / b
            theta = np.log([1.0, k1, a * k1 / b * t_samp**alpha, (alpha - fitting._ALPHA_LO) / (1.0 - alpha)])
        if np.all(np.isfinite(theta[1:3])) and abs(k0) <= fitting._K0_BOX:
            return np.clip(theta, *fitting._BOUNDS), k0
        return None

    starts = []
    for alpha in fitting._START_ALPHAS:
        c = build_kernel(alpha, n_mem, t_samp).coeffs
        vector, singular = null_vector(c, [(f, x) for _, f, x in series])
        estimate = start(vector, alpha)
        if estimate is None:
            continue
        for _ in range(passes if alpha < 1.0 else 0):
            prefilters = {}
            for kind, (g, h) in (("relaxation", vector[:2]), ("creep", vector[2:])):
                prefilters[kind] = g / (g + h) * c
                prefilters[kind][0] += h / (g + h)
            if any(kind == "creep" for kind, _, _ in series) and _poles_outside(prefilters["creep"]):
                break
            filtered = [(lfilter([1.0], prefilters[kind], f), lfilter([1.0], prefilters[kind], x))
                        for kind, f, x in series]
            vector = null_vector(c, filtered)[0]
            estimate = start(vector, alpha) or estimate
        theta, k0 = estimate
        cap = _passive_params(theta, n_mem, t_samp, config.b_plant)[0].k0
        theta[0] = np.clip(cap - k0, *fitting._BOUNDS[:, 0])
        starts.append((theta, singular))
    return starts


def scan_records(true, n_gen, kinds, csv_path=None, seconds=1.0):
    """The generator's records at memory n_gen under protocols of the given
    length (hold and recovery each, for creep), read back from the CLI's
    12-digit CSV when a path is given."""
    kern = build_kernel(true.alpha, n_gen, T)
    protocols = {"creep": CreepProtocol(t_hold=seconds, t_recover=seconds),
                 "relaxation": RelaxationProtocol(duration=seconds)}
    data = [synth_experiment(true, kern, protocols[k]) for k in kinds]
    if csv_path is None:
        return data
    out = argparse.Namespace(output=str(csv_path), gnuplot=False)
    for i, exp in enumerate(data):
        cli._write_csv(out, ["time_s", "value"], [exp.time, exp.values])
        data[i] = ExperimentData(exp.kind, *cli._read_series_csv(str(csv_path)), exp.stimulus)
    return data


def generator(slack, log_k1, log_b1, alpha):
    return _passive_params([slack, log_k1, log_b1, order_logit(alpha)], 101, T, 0.0025)[0]


class TestStartScan:
    """The start scan against its references: one SVD per order for the
    estimate, and min() over every start's complete sum for the choice."""

    @given(
        slack=st.floats(0.05, 3.0),
        log_k1=st.floats(0.0, math.log(20.0)),
        log_b1=st.floats(0.0, math.log(20.0)),
        alpha=st.floats(0.05, 1.0),
        n_gen=st.sampled_from([101, 301]),
        kinds=st.sampled_from([("creep", "relaxation"), ("creep",), ("relaxation",)]),
        from_csv=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    @example(slack=0.1422074159314801, log_k1=0.0, log_b1=0.0, alpha=0.505, n_gen=301,
             kinds=("creep", "relaxation"), from_csv=True)
    def test_matches_the_references(self, tmp_path_factory, slack, log_k1, log_b1, alpha, n_gen, kinds,
                                    from_csv):
        # a passive generator's records at matched (101) or longer (301)
        # memory, exact or read back from the CLI's 12-digit CSV, fit at N = 101
        true = generator(slack, log_k1, log_b1, alpha)
        kern = build_kernel(true.alpha, n_gen, T)
        assume("creep" not in kinds or _poles_outside(_law_filter(true, kern)[0]) == 0)
        path = tmp_path_factory.mktemp("scan") / "record.csv" if from_csv else None
        data = scan_records(true, n_gen, kinds, path)
        config = FitConfig()
        starts = fitting._equation_error_starts(data, 101, config)
        reference = reference_starts(data, 101, config)
        # the same valid orders, each with the reference's smallest singular
        # value to within a backward-stable computation's error
        assert [theta[3] for theta, _ in starts] == [theta[3] for theta, _ in reference]
        for (_, error), (_, singular) in zip(starts, reference):
            assert abs(error - singular[-1]) <= 64 * np.finfo(float).eps * singular[0]
        residuals, _, score = fitting._objective(data, 101, config)
        sums = [float(np.sum(residuals(theta) ** 2)) for theta, _ in starts]
        best = min(range(len(starts)), key=lambda k: sums[k])
        scored = []

        def counted(theta, least):
            scored.append(theta)
            return score(theta, least)

        # the refined starts, one per valid order, each scored once
        assert fitting._best_start(starts, counted) is starts[best][0]
        assert len(scored) == len(starts)
        for (theta, _), total in zip(starts, sums):
            # the complete sum bit for bit, and a start dropped early could not have won
            assert score(theta, math.inf) == total
            assert score(theta, sums[best]) in (total, math.inf)
            assert score(theta, sums[best]) == total or total > sums[best]

    @pytest.mark.parametrize(
        "case",
        ["criterion-10-matched", "criterion-10-51", "criterion-10-101", "criterion-10-151",
         "recovery-trap", "recovery-near-start"],
    )
    def test_estimate_matches_the_svd_reference_on_fixed_records(self, tmp_path, case):
        # criterion 10's four fits, and TestRecovery's two explicit examples
        n_mem = int(case.rsplit("-", 1)[1]) if case[-1].isdigit() else 101
        if case.startswith("criterion-10"):
            kern = build_kernel(MATERIAL_N101.alpha, 101 if case.endswith("matched") else 301, T)
            data = [synth_experiment(MATERIAL_N101, kern, p) for p in (CreepProtocol(), RelaxationProtocol())]
        elif case == "recovery-trap":
            data = scan_records(generator(0.1422074159314801, 0.0, 0.0, 0.505), 101, ("creep", "relaxation"),
                                tmp_path / "record.csv")
        else:
            true = generator(2.7511245335471606, 0.1397576148719802, 0.09073723733721725, 0.06920479468833954)
            data = scan_records(true, 101, ("creep",), tmp_path / "record.csv")
        starts = fitting._equation_error_starts(data, n_mem, FitConfig())
        reference = reference_starts(data, n_mem, FitConfig())
        assert [theta[3] for theta, _ in starts] == [theta[3] for theta, _ in reference]
        for (theta, _), (want, _) in zip(starts, reference):
            assert np.max(np.abs(theta - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("kinds", [("creep", "relaxation"), ("creep",), ("relaxation",)])
    def test_the_pass_keeps_an_exact_estimate(self, kinds):
        # noiseless records of a law at an order of the grid, fit at their own
        # memory: that order's estimate has zero equation error, and the pass
        # prefiltered by it solves the same vector
        order = 9
        true = replace(MATERIAL_N101, alpha=float(fitting._START_ALPHAS[order]))
        data = scan_records(true, 101, kinds)
        starts = fitting._equation_error_starts(data, 101, FitConfig())
        estimates = reference_starts(data, 101, FitConfig(), passes=0)
        at = [theta[3] for theta, _ in starts].index(order_logit(true.alpha))
        theta, estimate = starts[at][0], estimates[at][0]
        assert np.max(np.abs(theta - estimate)) <= 1e-12 * np.max(np.abs(estimate))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_unstable_creep_prefilter_keeps_the_estimate(self, monkeypatch):
        # a creep record of a law whose DC stiffness is near zero: at ten of
        # the valid orders the estimate's num has a zero inside the unit
        # circle, so 1/num would grow; those orders keep their estimate, as
        # does alpha = 1 on the box edge, and the other three are refined
        true = FoSlsParams(k0=-0.7225778402647309, k1=5.454695230520415, b1=1.9449918224192033,
                           alpha=0.952902774673619)
        data = scan_records(true, 101, ("creep",))
        outside, poles_outside = [], fitting._poles_outside

        def counting(poly):
            outside.append(poles_outside(poly))
            return outside[-1]

        monkeypatch.setattr(fitting, "_poles_outside", counting)
        starts = fitting._equation_error_starts(data, 101, FitConfig())
        estimates = reference_starts(data, 101, FitConfig(), passes=0)
        assert outside == [1] * 10 + [0] * 3  # one creep prefilter per valid order below the edge
        assert starts[-1][0][3] == fitting._U_BOX
        for (theta, _), (estimate, _), kept in zip(starts, estimates, outside + [1]):
            gap = np.max(np.abs(theta - estimate)) / np.max(np.abs(estimate))
            assert gap <= 1e-9 if kept else gap > 1e-4

    def test_scoring_drops_the_starts_that_cannot_win(self, monkeypatch):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        data = [synth_experiment(MATERIAL_N101, kern, p) for p in (CreepProtocol(), RelaxationProtocol())]
        starts = fitting._equation_error_starts(data, 101, FitConfig())
        score = fitting._objective(data, 101, FitConfig())[2]
        filtered, lfilter = [], fitting._lfilter

        def counting(b, a, u, *state):
            filtered.append(u.size)
            return lfilter(b, a, u, *state)

        monkeypatch.setattr(fitting, "_lfilter", counting)
        fitting._best_start(starts, score)
        # the first start visited runs whole and wins; every other one stops
        # after its first block
        assert len(starts) == 45
        assert sum(filtered) == 9002 + 44 * fitting._FIRST_BLOCK


class TestWorkCounts:
    """Evaluations of the bench's two fits, a count that repeats exactly: the
    material of record's creep and relaxation records, written by the CLI's
    12-digit CSV writer and read back, fit at N = 101 with b_plant = 0.0025."""

    @pytest.mark.parametrize(
        "n_gen, seconds, most",
        [(101, 3.0, 100), (301, 1.0, 150)],  # matched (83 with the plain estimate), mismatched (501)
        ids=["matched", "mismatched"],
    )
    def test_the_bench_fits_stay_within_their_counts(self, tmp_path, n_gen, seconds, most):
        data = scan_records(MATERIAL_N101, n_gen, ("creep", "relaxation"), tmp_path / "record.csv", seconds)
        result = fit(data, 101, FitConfig(b_plant=0.0025))
        assert result.converged and result.passivity_ok
        assert result.objective_evals <= most


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMemoryTrend:
    @given(
        slack=st.floats(0.05, 3.0),
        log_k1=st.floats(0.0, math.log(20.0)),
        log_b1=st.floats(0.0, math.log(20.0)),
        alpha=st.floats(0.05, 1.0),
        kinds=st.sampled_from([("creep", "relaxation"), ("creep",), ("relaxation",)]),
    )
    @settings(max_examples=10, deadline=None)
    # draws of alpha just below 1 where some fits end on the alpha = 1 box
    # edge, the parent's fits too: N = 51 and 101 on the first and third,
    # 101 and 151 on the second.  Two fits on the edge render one law, and
    # their order is the solve's stopping point.
    @example(slack=1.0, log_k1=0.0, log_b1=2.5, alpha=0.9921875, kinds=("creep", "relaxation")).xfail(
        reason="the N = 101 fit ends on the alpha = 1 box edge, NRMSE 9.4e-5 over N = 51's 6.6e-5",
        raises=AssertionError)
    @example(slack=1.0, log_k1=2.0, log_b1=1.0, alpha=0.99999, kinds=("relaxation",)).xfail(
        reason="the N = 101 fit ends on the alpha = 1 box edge, NRMSE 3.9e-7 over N = 51's 2.7e-7",
        raises=AssertionError)
    @example(slack=1.0, log_k1=0.0, log_b1=1.0, alpha=0.99999, kinds=("creep", "relaxation")).xfail(
        reason="the N = 51 and 101 fits end on the alpha = 1 box edge, NRMSE 1.16605e-7 and 1.16606e-7",
        raises=AssertionError)
    def test_error_does_not_grow_with_memory(self, slack, log_k1, log_b1, alpha, kinds):
        # criterion 10's shape on random passive generators: records of
        # memory N = 301 (1 s protocols) fit at N = 51, 101 and 151
        true = generator(slack, log_k1, log_b1, alpha)
        kern = build_kernel(true.alpha, 301, T)
        assume("creep" not in kinds or _poles_outside(_law_filter(true, kern)[0]) == 0)
        data = scan_records(true, 301, kinds)
        errs = [fit(data, n, FitConfig()).nrmse for n in (51, 101, 151)]
        # at alpha = 1 the weights past c_1 vanish, so the three laws are one
        # and their errors (~1e-14) differ by roundoff alone
        assert errs[0] + 1e-12 >= errs[1] and errs[1] + 1e-12 >= errs[2]


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
        # a generator whose force law has no stable inverse has a diverging
        # creep record: no material to recover, and synth refuses it. The
        # record synth would write (its default forces 3 and 0.5) must also
        # stay bounded.
        assume(_poles_outside(_law_filter(true, kern)[0]) == 0)
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
                         "-o", str(out)])
        result = json.loads(out.read_text())
        assert code == 0
        assert result["params"]["alpha"] == pytest.approx(true.alpha, abs=0.02)
        assert result["nrmse"] < 0.005


def synth_and_fit(d, true, kinds=("creep", "relaxation")):
    """Write the generator's records with synth (1 s protocols) and fit them at
    the generator's N = 101; returns (exit code, fit JSON)."""
    flags = ["--k0", repr(true.k0), "--k1", repr(true.k1), "--b1", repr(true.b1), "--alpha", repr(true.alpha)]
    argv = ["fit", "--t-hold", "1", "-o", str(d / "fit.json")]
    if "creep" in kinds:
        assert dispatch(["synth", *flags, "--protocol", "creep", "--t-hold", "1", "--t-recover", "1",
                         "-o", str(d / "creep.csv")]) == 0
        argv += ["--creep", str(d / "creep.csv")]
    if "relaxation" in kinds:
        assert dispatch(["synth", *flags, "--protocol", "relaxation", "--duration", "1",
                         "-o", str(d / "relax.csv")]) == 0
        argv += ["--relax", str(d / "relax.csv")]
    code = dispatch(argv)
    return code, json.loads((d / "fit.json").read_text())


def test_round_trip_trap_is_recovered(tmp_path):
    # a random start once ended on the box corner alpha 0.01, B1 ~ 1000, with
    # NRMSE 0.047 and exit 0; the records' own estimate starts in the basin
    true = FoSlsParams(k0=3.878863797685739, k1=1.0, b1=1.0, alpha=0.505)
    code, result = synth_and_fit(tmp_path, true)
    assert code == 0
    assert result["params"]["alpha"] == pytest.approx(0.505, abs=1e-3)
    assert result["nrmse"] < 1e-6


class TestRecovery:
    @given(
        slack=st.floats(0.05, 3.0),
        log_k1=st.floats(0.0, math.log(20.0)),
        log_b1=st.floats(0.0, math.log(20.0)),
        alpha=st.floats(0.05, 1.0),
        kinds=st.sampled_from([("creep", "relaxation"), ("creep",), ("relaxation",)]),
    )
    @settings(max_examples=40, deadline=None)
    # the trap of the random multi-start (see test_round_trip_trap_is_recovered)
    @example(slack=0.1422074159314801, log_k1=0.0, log_b1=0.0, alpha=0.505, kinds=("creep", "relaxation"))
    # a start within NRMSE ~1e-5 of the record: it meets TRF's default gradient
    # test (1e-8) at once, which left alpha at the start's 0.06
    @example(slack=2.7511245335471606, log_k1=0.1397576148719802, log_b1=0.09073723733721725,
             alpha=0.06920479468833954, kinds=("creep",))
    # a refined start on the alpha = 1 box edge would fit these records best,
    # and the solve would stop there (see fitting._equation_error_starts)
    @example(slack=1.0, log_k1=0.0, log_b1=0.0, alpha=0.9921875, kinds=("creep", "relaxation"))
    def test_fit_recovers_passive_generators(self, tmp_path_factory, slack, log_k1, log_b1, alpha, kinds):
        # a passive generator K0 = cap - slack, read back from its synth records
        # at matched memory, must be recovered: the fit lands in its basin
        true, kern = _passive_params([slack, log_k1, log_b1, order_logit(alpha)], 101, T, 0.0025)
        # synth refuses a creep record whose force law has no stable inverse
        assume("creep" not in kinds or _poles_outside(_law_filter(true, kern)[0]) == 0)
        code, result = synth_and_fit(tmp_path_factory.mktemp("recovery"), true, kinds)
        assert code == 0
        assert result["params"]["alpha"] == pytest.approx(true.alpha, abs=1e-3)
        assert result["nrmse"] < 1e-6


def test_recovery_from_the_order_box_edge(tmp_path):
    # a draw of TestRecovery that failed from the single start until the
    # refined starts: the alpha = 1 order's estimate fit these creep records
    # best, its start sits on the logit box edge u = 50, and the solve ended
    # at alpha 1.0, NRMSE 8e-6.  Now the refined alpha = 0.98 start fits best.
    true = FoSlsParams(k0=3.000530308811749, k1=1.0, b1=1.0, alpha=0.9921875)
    code, result = synth_and_fit(tmp_path, true, ("creep",))
    assert code == 0
    assert result["params"]["alpha"] == pytest.approx(true.alpha, abs=1e-3)
    assert result["nrmse"] < 1e-6
