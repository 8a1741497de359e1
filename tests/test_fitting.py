"""Fit-quality metric, synthetic protocols, and constrained identification."""

import argparse
import json
import math
from dataclasses import fields, replace

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
from fovisc.models import FoSlsParams, _law_filter, _poles_outside, creep_response, relaxation_response
from fovisc.passivity import bound_closed_form

T = 0.001
MATERIAL_N101 = FoSlsParams(k0=-2.89, k1=5.70, b1=5.89, alpha=0.203)

QUICK = FitConfig(max_evals=6000)


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
        num, den, u, offset = fitting._record_filter(MATERIAL_N101, kern, a.stimulus, a.values.size)
        assert np.array_equal(offset + lfilter(num, den, u), a.values)  # fit's forward filter

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
        assert [f.name for f in fields(ExperimentData)] == ["time", "values", "stimulus"]
        with pytest.raises(ValueError):
            ExperimentData(np.array([0.0, 0.0, 1.0]), np.zeros(3), CreepProtocol())
        # the protocol is the record's kind: anything else names none
        for stimulus in ("creep", None, CreepProtocol):
            with pytest.raises(ValueError, match="unknown protocol"):
                ExperimentData(np.arange(3) * T, np.zeros(3), stimulus)
        assert ExperimentData(np.arange(3) * T, np.zeros(3), CreepProtocol()).kind == "creep"
        assert ExperimentData(np.arange(3) * T, np.zeros(3), RelaxationProtocol()).kind == "relaxation"

    def test_an_unknown_protocol_is_refused(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        with pytest.raises(ValueError, match="unknown protocol"):
            synth_experiment(MATERIAL_N101, kern, "relaxation")

    @given(
        theta=st.tuples(st.floats(0.0, 20.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 1.0)),
        n_mem=st.sampled_from([1, 7, 51]),
        f_hold=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
        f_recover=st.floats(-5.0, 5.0),
        hold=st.floats(0.001, 0.3),
        recover=st.floats(0.0, 0.3),
        x0=st.floats(0.1, 5.0),
    )
    @example(theta=(1.0, 0.0, 0.0, 0.5), n_mem=7, f_hold=0.0, f_recover=1.0, hold=0.0105, recover=0.0205, x0=1.0)
    @settings(max_examples=60, deadline=None)
    def test_responses_are_the_synthesized_records(self, theta, n_mem, f_hold, f_recover, hold, recover, x0):
        # durations off the period grid: the protocol alone sizes the record
        params, kern = _passive_params(theta, n_mem, T, 0.0025)
        relaxation = RelaxationProtocol(x0=x0, duration=hold)
        t, force = relaxation_response(params, kern, x0, hold)
        exp = synth_experiment(params, kern, relaxation)
        assert force.tobytes() == exp.values.tobytes() and t.tobytes() == exp.time.tobytes()
        assert relaxation.stimulus(T).size == exp.values.size
        creep = CreepProtocol(f_hold=f_hold, t_hold=hold, f_recover=f_recover, t_recover=recover)
        t, x = creep_response(params, kern, f_hold, hold, f_recover, recover)
        try:
            exp = synth_experiment(params, kern, creep)
        except ValueError:  # the law has no stable inverse
            assume(False)
        assert x.tobytes() == exp.values.tobytes() and t.tobytes() == exp.time.tobytes()
        assert creep.stimulus(T).size == exp.values.size

    def test_list_inputs_fit_as_arrays(self):
        time, values = [0.0, 0.001, 0.002, 0.003], [1.0, 0.9, 0.85, 0.8]
        protocol = RelaxationProtocol(duration=0.003)
        listed = ExperimentData(time, values, protocol)
        assert isinstance(listed.time, np.ndarray) and isinstance(listed.values, np.ndarray)
        assert fit(listed, 51) == fit(ExperimentData(np.array(time), np.array(values), protocol), 51)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_records(self, bad):
        t = np.arange(4) * T
        values = np.array([1.0, bad, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            ExperimentData(t, values, RelaxationProtocol())
        with pytest.raises(ValueError, match="finite"):
            ExperimentData(np.append(t[:3], bad), np.ones(4), RelaxationProtocol())


class TestFitConfig:
    @pytest.mark.parametrize("evals", [-1, 0, 1, 2])
    def test_rejects_a_budget_below_one_step(self, evals):
        # one residual, one Jacobian and the step's residual are the least a step needs
        with pytest.raises(ValueError, match="max_evals must be at least 3"):
            FitConfig(max_evals=evals)
        assert FitConfig(max_evals=3).max_evals == 3


class TestPassiveParams:
    @given(
        log_k1=st.floats(-6.9, 6.9),
        log_b1=st.floats(-6.9, 6.9),
        alpha=st.floats(0.01, 1.0),
        b_plant=st.sampled_from([0.0, 1e-4, 0.0025]) | st.floats(0.0, 0.01),
        t_samp=st.sampled_from([1e-3, 5e-4, 2e-3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_zero_slack_sits_on_the_bound(self, log_k1, log_b1, alpha, b_plant, t_samp):
        # K0 at zero slack is the cap: the bound holds exactly as the library
        # computes it, and misses b_plant by no more than roundoff
        params, kern = _passive_params([0.0, log_k1, log_b1, alpha], 101, t_samp, b_plant)
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
        # the differences step alpha by up to 2e-4, which must stay inside its box
        alpha=st.floats(0.05, 0.95) | st.just(0.9998),
        n_mem=st.sampled_from([1, 51, 101]),
        kinds=st.sampled_from([("creep",), ("relaxation",), ("creep", "relaxation")]),
        f_hold=st.sampled_from([3.0, 0.0]),  # no hold force: 1/den from a filter pass
        t_hold=st.sampled_from([0.6, 0.15]),  # the recovery undone over 1 or 4 blocks
    )
    @settings(max_examples=80, deadline=None)
    # slack = 2*b_plant/T puts the law's Nyquist value at 0 for every K1, B1
    # and alpha: the creep filter's zero sits on the unit circle, and steps of
    # 1e-4 to 1e-7 straddle it
    @example(slack=5.0, log_k1=0.0, log_b1=0.0, alpha=0.9998, n_mem=101, kinds=("creep",), f_hold=3.0, t_hold=0.6)
    @example(
        slack=5.0, log_k1=0.0, log_b1=0.0, alpha=0.9998, n_mem=1, kinds=("creep", "relaxation"),
        f_hold=0.0, t_hold=0.15,
    )
    # B1 = e moves that zero ~2.7x faster with the slack: the slack column
    # agrees only at steps where the other columns are roundoff
    @example(slack=5.0, log_k1=0.0, log_b1=1.0, alpha=0.9998, n_mem=1, kinds=("creep",), f_hold=3.0, t_hold=0.6)
    def test_matches_central_differences(self, slack, log_k1, log_b1, alpha, n_mem, kinds, f_hold, t_hold):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        protocols = {
            "creep": CreepProtocol(f_hold=f_hold, t_hold=t_hold, t_recover=0.6),
            "relaxation": RelaxationProtocol(duration=0.6),
        }
        data = [synth_experiment(MATERIAL_N101, kern, protocols[k]) for k in kinds]
        residuals, jacobian, _ = fitting._objective(data, n_mem, FitConfig())
        theta = np.array([slack, log_k1, log_b1, alpha])
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
        theta = np.array([3.0, 2.0, 1.0, 0.505])
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
        theta = np.array([1.0, 1.5, 1.5, 0.276])
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
        true, kern = _passive_params([0.16398485195103757, 0.345220708939621, 1.6634181588816266, 1.0],
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
        # early or not), one per valid order the scan visits: 15 of the 30; plus
        # the final report.  The budget caps the solve.
        assert len(fitting._equation_error_starts([data], 51, FitConfig())) == 30
        assert calls["jacobian"] and calls["score"] == 15
        assert sum(calls.values()) == result.objective_evals
        assert len(runs) + calls["jacobian"] == result.objective_evals + 1
        assert result.objective_evals <= len(fitting._START_ALPHAS) + 40

    def test_short_protocol_fails_before_the_search(self, monkeypatch):
        kern = build_kernel(0.5, 51, T)
        exp = synth_experiment(FoSlsParams(0.0, 1.0, 1.0, 0.5), kern, RelaxationProtocol(duration=1.0))
        short = ExperimentData(exp.time, exp.values, RelaxationProtocol(duration=0.5))
        monkeypatch.setattr(fitting, "_levenberg_marquardt", lambda *a, **k: pytest.fail("search ran"))
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
        theta = np.array([0.0, math.log(unstable.k1), math.log(unstable.b1), unstable.alpha])
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
    unit circle."""
    t_samp = experiments[0].t_samp
    series = []
    for exp in experiments:
        m, s, scale = exp.values.size, exp.stimulus, fitting._scale(exp.values)
        if exp.kind == "creep":
            f, x = s.stimulus(t_samp)[:m], exp.values
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
            theta = np.append(np.log([1.0, k1, a * k1 / b * t_samp**alpha]), alpha)
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
        for _ in range(passes):
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
        data[i] = ExperimentData(*cli._read_series_csv(str(csv_path)), exp.stimulus)
    return data


def generator(slack, log_k1, log_b1, alpha):
    return _passive_params([slack, log_k1, log_b1, alpha], 101, T, 0.0025)[0]


# a passive generator's records at matched (101) or longer (301) memory,
# exact or read back from the CLI's 12-digit CSV, for a fit at N = 101
SCAN_DRAWS = dict(
    slack=st.floats(0.05, 3.0),
    log_k1=st.floats(0.0, math.log(20.0)),
    log_b1=st.floats(0.0, math.log(20.0)),
    alpha=st.floats(0.05, 1.0),
    n_gen=st.sampled_from([101, 301]),
    kinds=st.sampled_from([("creep", "relaxation"), ("creep",), ("relaxation",)]),
    from_csv=st.booleans(),
)
SCAN_TRAP = dict(slack=0.1422074159314801, log_k1=0.0, log_b1=0.0, alpha=0.505, n_gen=301,
                 kinds=("creep", "relaxation"), from_csv=True)


def scan_draw(tmp_path_factory, slack, log_k1, log_b1, alpha, n_gen, kinds, from_csv):
    true = generator(slack, log_k1, log_b1, alpha)
    kern = build_kernel(true.alpha, n_gen, T)
    assume("creep" not in kinds or _poles_outside(_law_filter(true, kern)[0]) == 0)
    path = tmp_path_factory.mktemp("scan") / "record.csv" if from_csv else None
    return scan_records(true, n_gen, kinds, path)


def fixed_records(case, tmp_path):
    """(records, fit memory) of criterion 10's four fits, the bench's two
    (TestWorkCounts) and TestRecovery's three explicit examples."""
    n_mem = int(case.rsplit("-", 1)[1]) if case[-1].isdigit() else 101
    if case.startswith("criterion-10"):
        kern = build_kernel(MATERIAL_N101.alpha, 101 if case.endswith("matched") else 301, T)
        return [synth_experiment(MATERIAL_N101, kern, p) for p in (CreepProtocol(), RelaxationProtocol())], n_mem
    if case.startswith("bench"):
        n_gen, seconds = (101, 3.0) if case.endswith("-matched") else (301, 1.0)
        return scan_records(MATERIAL_N101, n_gen, ("creep", "relaxation"), tmp_path / "record.csv", seconds), n_mem
    draws = {"recovery-trap": ((0.1422074159314801, 0.0, 0.0, 0.505), ("creep", "relaxation")),
             "recovery-near-start": ((2.7511245335471606, 0.1397576148719802, 0.09073723733721725,
                                      0.06920479468833954), ("creep",)),
             "recovery-edge": ((1.0, 0.0, 0.0, 0.9921875), ("creep", "relaxation"))}
    draw, kinds = draws[case]
    return scan_records(generator(*draw), 101, kinds, tmp_path / "record.csv"), n_mem


FIXED_CASES = ["criterion-10-matched", "criterion-10-51", "criterion-10-101", "criterion-10-151",
               "bench-matched", "bench-mismatched", "recovery-trap", "recovery-near-start", "recovery-edge"]


class TestStartScan:
    """The start scan against its references: one SVD per order for the
    estimate, and min() over every start's complete sum for the choice."""

    @given(**SCAN_DRAWS)
    @settings(max_examples=30, deadline=None)
    @example(**SCAN_TRAP)
    def test_matches_the_references(self, tmp_path_factory, **draw):
        data = scan_draw(tmp_path_factory, **draw)
        config = FitConfig()
        starts = fitting._equation_error_starts(data, 101, config)
        reference = reference_starts(data, 101, config)
        # the same valid orders, each with the reference's smallest singular
        # value to within a backward-stable computation's error
        assert [theta[3] for _, theta, _ in starts] == [theta[3] for theta, _ in reference]
        for (_, _, error), (_, singular) in zip(starts, reference):
            assert abs(error - singular[-1]) <= 64 * np.finfo(float).eps * singular[0]
        residuals, _, score = fitting._objective(data, 101, config)
        sums = [float(np.sum(residuals(theta) ** 2)) for _, theta, _ in starts]
        best = min(range(len(starts)), key=lambda k: sums[k])
        scored = []

        def counted(theta, least):
            scored.append(theta)
            return score(theta, least)

        # the refined starts, one per valid order, each scored once
        least, order, theta = fitting._best_start(starts, counted)
        assert (least, order) == (sums[best], starts[best][0]) and theta is starts[best][1]
        assert len(scored) == len(starts)
        for (_, theta, _), total in zip(starts, sums):
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
        # criterion 10's four fits, and TestRecovery's first two explicit examples
        data, n_mem = fixed_records(case, tmp_path)
        starts = fitting._equation_error_starts(data, n_mem, FitConfig())
        reference = reference_starts(data, n_mem, FitConfig())
        assert [theta[3] for _, theta, _ in starts] == [theta[3] for theta, _ in reference]
        for (_, theta, _), (want, _) in zip(starts, reference):
            assert np.max(np.abs(theta - want)) <= 1e-9 * np.max(np.abs(want))

    @given(**SCAN_DRAWS)
    @settings(max_examples=30, deadline=None)
    @example(**SCAN_TRAP)
    def test_the_two_level_pick_is_the_exhaustive_one(self, tmp_path_factory, **draw):
        # min() by complete sum over one start per valid order, the earliest
        # order of equal sums, from at most 14 coarse and 6 fine orders
        data = scan_draw(tmp_path_factory, **draw)
        config = FitConfig()
        residuals, _, score = fitting._objective(data, 101, config)
        starts = fitting._equation_error_starts(data, 101, config)
        (least, order, theta), scored = fitting._scan(data, 101, config, score)
        if not starts:
            assert theta is None and scored == 0
            return
        sums = [float(np.sum(residuals(theta) ** 2)) for _, theta, _ in starts]
        best = min(range(len(starts)), key=lambda k: sums[k])
        assert (least, order) == (sums[best], starts[best][0])
        assert np.array_equal(theta, starts[best][1])
        assert scored <= 20

    @pytest.mark.parametrize("case", FIXED_CASES)
    def test_the_two_level_pick_is_the_exhaustive_one_on_fixed_records(self, tmp_path, case):
        data, n_mem = fixed_records(case, tmp_path)
        score = fitting._objective(data, n_mem, FitConfig())[2]
        starts = fitting._equation_error_starts(data, n_mem, FitConfig())
        (least, order, theta), scored = fitting._scan(data, n_mem, FitConfig(), score)
        want = fitting._best_start(starts, score)
        assert (least, order) == want[:2]
        assert np.array_equal(theta, want[2])
        assert scored <= len(starts)

    def test_with_no_valid_coarse_order_every_other_order_is_visited(self, monkeypatch):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        data = [synth_experiment(MATERIAL_N101, kern, p) for p in (CreepProtocol(), RelaxationProtocol())]
        coarse = {*fitting._START_ALPHAS[::fitting._COARSE_STRIDE], 1.0}
        order_start = fitting._order_start
        monkeypatch.setattr(fitting, "_order_start",
                            lambda vector, alpha, t_samp: None if alpha in coarse else order_start(vector, alpha, t_samp))
        score = fitting._objective(data, 101, FitConfig())[2]
        starts = fitting._equation_error_starts(data, 101, FitConfig())
        (least, order, theta), scored = fitting._scan(data, 101, FitConfig(), score)
        want = fitting._best_start(starts, score)
        assert scored == len(starts) == 33
        assert (least, order) == want[:2]
        assert np.array_equal(theta, want[2])

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
        at = [theta[3] for _, theta, _ in starts].index(true.alpha)
        theta, estimate = starts[at][1], estimates[at][0]
        assert np.max(np.abs(theta - estimate)) <= 1e-12 * np.max(np.abs(estimate))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_unstable_creep_prefilter_keeps_the_estimate(self, monkeypatch):
        # a creep record of a law whose DC stiffness is near zero: at ten of
        # the valid orders the estimate's num has a zero inside the unit
        # circle, so 1/num would grow; those orders keep their estimate, and
        # the other four, alpha = 1 among them, are refined
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
        assert outside == [1] * 10 + [0] * 4  # one creep prefilter per valid order
        assert starts[-1][1][3] == 1.0
        for (_, theta, _), (estimate, _), kept in zip(starts, estimates, outside):
            gap = np.max(np.abs(theta - estimate)) / np.max(np.abs(estimate))
            assert gap <= 1e-9 if kept else gap > 1e-4

    def test_scoring_drops_the_starts_that_cannot_win(self, monkeypatch):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        data = [synth_experiment(MATERIAL_N101, kern, p) for p in (CreepProtocol(), RelaxationProtocol())]
        score = fitting._objective(data, 101, FitConfig())[2]
        filtered, lfilter = [], fitting._lfilter

        def counting(b, a, u, *state):
            filtered.append(u.size)
            return lfilter(b, a, u, *state)

        def counted(theta, least):
            with monkeypatch.context() as patch:
                patch.setattr(fitting, "_lfilter", counting)
                return score(theta, least)

        (_, order, _), scored = fitting._scan(data, 101, FitConfig(), counted)
        # 12 valid coarse orders, then 6 fine ones around the coarse winner
        # (alpha 0.18), of which alpha 0.2 wins.  The first start visited at
        # each level runs whole and wins; the second coarse one stops after
        # 3,968 creep samples, and every other one after its first block.
        assert (order, scored) == (9, 18)
        assert sum(filtered) == 2 * 9002 + 3968 + 15 * fitting._FIRST_BLOCK


def recorded_solve(data, n_mem, max_evals=FitConfig().max_evals):
    """fit's solve on its own residuals from the scan's start: the thetas the
    residuals and the Jacobian were called at, the start's cost, the solve's
    (x, cost, nfev, njev, converged), and (residuals, jacobian, start)."""
    residuals, jacobian, score = fitting._objective(data, n_mem, FitConfig())
    (_, _, x0), _ = fitting._scan(data, n_mem, FitConfig(), score)
    calls = {"residuals": [], "jacobian": []}

    def recording(name, fn):
        def call(theta):
            calls[name].append(np.array(theta, dtype=float))
            return fn(theta)

        return call

    r0 = residuals(x0)
    start = 0.5 * float(r0 @ r0)  # the solve's own sum of squares
    end = fitting._levenberg_marquardt(recording("residuals", residuals), recording("jacobian", jacobian),
                                        x0, fitting._BOUNDS, max_evals)
    return calls, start, end, (residuals, jacobian, x0)


def criterion_10_fits():
    """(records, N) of criterion 10: the material's records at N = 101 fit at
    101, and its N = 301 records fit at 51, 101 and 151."""
    matched, longer = ([synth_experiment(MATERIAL_N101, build_kernel(MATERIAL_N101.alpha, n, T), protocol)
                        for protocol in (CreepProtocol(), RelaxationProtocol())] for n in (101, 301))
    return [(matched, 101), (longer, 51), (longer, 101), (longer, 151)]


class TestSolver:
    """fitting._levenberg_marquardt, the fit's box-bounded trust-region solve."""

    def test_a_linear_problem_ends_on_the_faces_it_presses_against(self):
        # r = x - c with c outside the box [0, 1]^4 in two coordinates: the
        # solution is c clipped to the box, with those two exactly on their faces
        c = np.array([2.0, -1.0, 0.5, 0.3])
        x, cost, nfev, njev, converged = fitting._levenberg_marquardt(
            lambda x: x - c, lambda x: np.eye(4), np.full(4, 0.5), (np.zeros(4), np.ones(4)), 100)
        assert converged
        assert x.tolist() == [1.0, 0.0, 0.5, 0.3]
        assert cost == 1.0
        # the Gauss-Newton step is shortened to where it meets the two faces;
        # there the two are frozen, one more step finishes the others, and
        # their gradient is then zero, so the solve stops without another residual
        assert (nfev, njev) == (3, 3)

    def test_a_shortened_step_lands_on_its_face_exactly(self):
        # 0.21 + ((1 - 0.21) / 2.39) * 2.39 rounds to 1 - 1.1e-16: the face a
        # step is shortened to is set, not computed
        c = np.array([2.6, 0.5, 0.5, 0.5])
        x0 = np.array([0.21, 0.5, 0.5, 0.5])
        x, cost, nfev, njev, converged = fitting._levenberg_marquardt(
            lambda x: x - c, lambda x: np.eye(4), x0, (np.zeros(4), np.ones(4)), 100)
        assert x.tolist() == [1.0, 0.5, 0.5, 0.5]
        assert (nfev, njev, converged) == (2, 2, True)

    def test_a_start_of_zero_cost_is_returned_after_one_residual(self):
        c = np.array([1.0, 0.0, 0.5, 0.3])
        jacobian = lambda x: pytest.fail("a Jacobian was taken")  # noqa: E731
        assert fitting._levenberg_marquardt(lambda x: x - c, jacobian, c, (np.zeros(4), np.ones(4)), 100)[1:] == (
            0.0, 1, 0, True)

    def test_every_theta_lies_inside_the_box_and_faces_are_hit_exactly(self):
        # criterion 10's N = 51 fit presses log B1 against its upper face
        calls, _, (x, *_), (_, _, x0) = recorded_solve(*criterion_10_fits()[1])
        thetas = np.array(calls["residuals"] + calls["jacobian"])
        lo, hi = fitting._BOUNDS
        assert np.all((lo <= thetas) & (thetas <= hi))
        assert np.any(thetas[:, 2] == hi[2])
        # the start is taken as given, and each Jacobian is at the last residual's theta
        np.testing.assert_array_equal(calls["residuals"][0], x0)
        for theta in calls["jacobian"]:
            assert any(np.array_equal(theta, r) for r in calls["residuals"])

    def test_a_valley_that_runs_into_a_face_is_followed_onto_it(self):
        # criterion 10's N = 51 fit: its valley in (log K1, log B1) runs into
        # log B1's upper face.  Clipping each step coordinate by coordinate
        # turns the steps out of the valley: 10 trials on the face are then
        # refused, and the solve stops at B1 = 999.94
        calls, _, (x, cost, nfev, njev, converged), _ = recorded_solve(*criterion_10_fits()[1])
        lo, hi = fitting._BOUNDS
        assert converged and x[2] == hi[2]
        # a step that would leave log B1's face is solved again without it,
        # not shortened to nothing: no theta is tried twice
        assert len({t.tobytes() for t in calls["residuals"]}) == nfev
        # a Jacobian is taken at the start and after each taken step but the last
        taken = calls["jacobian"] + [x]
        refused = [t for t in calls["residuals"] if not any(np.array_equal(t, s) for s in taken)]
        assert len([t for t in refused if np.any((t == lo) | (t == hi))]) <= 1

    def test_a_start_on_a_face_is_not_moved_off_it(self):
        # alpha = 1 exactly, the draw of TestMemoryTrend whose start lies on
        # alpha's face: the solve starts there and ends no worse
        true = generator(1.0, 2.0, 0.0, 1.0)
        data = scan_records(true, 301, ("relaxation",))
        calls, start, (x, cost, *_), (_, _, x0) = recorded_solve(data, 101)
        assert x0[3] == 1.0
        np.testing.assert_array_equal(calls["residuals"][0], x0)
        assert cost <= start

    @pytest.mark.parametrize("max_evals", [3, 4, 7, 12, 40])
    def test_residuals_and_jacobians_stay_within_the_budget(self, max_evals):
        calls, _, (x, cost, nfev, njev, converged), _ = recorded_solve(*criterion_10_fits()[1], max_evals)
        assert (len(calls["residuals"]), len(calls["jacobian"])) == (nfev, njev)
        assert nfev + njev <= max_evals
        assert nfev >= 2  # even the least budget tries a step
        assert not converged  # this fit takes more than 40

    @given(
        slack=st.floats(0.05, 3.0),
        log_k1=st.floats(0.0, math.log(20.0)),
        log_b1=st.floats(0.0, math.log(20.0)),
        alpha=st.floats(0.05, 1.0),
        n_mem=st.sampled_from([51, 101]),
        max_evals=st.integers(3, 60),
    )
    @settings(max_examples=15, deadline=None)
    def test_each_taken_step_lowers_the_cost(self, slack, log_k1, log_b1, alpha, n_mem, max_evals):
        # mismatched relaxation records (N = 301) of a random passive generator
        data = scan_records(generator(slack, log_k1, log_b1, alpha), 301, ("relaxation",))
        calls, start, (x, cost, nfev, njev, _), (residuals, _, _) = recorded_solve(data, n_mem, max_evals)
        assert nfev + njev <= max_evals
        assert cost <= start
        r = residuals(x)
        assert cost == 0.5 * float(r @ r)
        # a Jacobian is taken at the start and after each taken step
        costs = [0.5 * float(r @ r) for r in map(residuals, calls["jacobian"])]
        assert all(b < a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("case", ["bench-matched", "bench-mismatched", "c10-101", "c10-51", "c10-101-of-301",
                                      "c10-151"])
    def test_ends_no_worse_than_scipys_trust_region_reflective(self, tmp_path, case):
        # SciPy's TRF as fit once ran it, from the same start on the same residuals
        from scipy.optimize import least_squares

        if case.startswith("bench"):
            n_gen, seconds = (101, 3.0) if case == "bench-matched" else (301, 1.0)
            data, n_mem = scan_records(MATERIAL_N101, n_gen, ("creep", "relaxation"), tmp_path / "r.csv",
                                       seconds), 101
        else:
            data, n_mem = criterion_10_fits()[["c10-101", "c10-51", "c10-101-of-301", "c10-151"].index(case)]
        _, _, (x, cost, *_), (residuals, jacobian, x0) = recorded_solve(data, n_mem)
        trf = least_squares(residuals, x0, jac=jacobian, bounds=tuple(fitting._BOUNDS), method="trf",
                            gtol=1e-15, max_nfev=10000)
        # 1e-26 is the cost of an NRMSE of 1e-13: the exact records of the
        # matched fit are met to roundoff by both (~1e-30)
        assert cost <= trf.cost * (1.0 + 1e-5) + 1e-26


class TestWorkCounts:
    """Evaluations of the bench's two fits, a count that repeats exactly: the
    material of record's creep and relaxation records, written by the CLI's
    12-digit CSV writer and read back, fit at N = 101 with b_plant = 0.0025."""

    @pytest.mark.parametrize(
        "n_gen, seconds, most",
        # matched and mismatched: 47 and 32 (66 and 31 under SciPy's TRF), and
        # 74 and 49 when every valid order is scored
        [(101, 3.0, 52), (301, 1.0, 35)],
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
    # draws of alpha just below 1 whose fits once stuck at alpha = 1, where
    # the order coordinate (a logit) could not move: N = 101 ended with NRMSE
    # 9.4e-5 over N = 51's 6.6e-5 on the first, 3.9e-7 over 2.7e-7 on the
    # second, and N = 51 and 101 rendered one law on the third
    @example(slack=1.0, log_k1=0.0, log_b1=2.5, alpha=0.9921875, kinds=("creep", "relaxation"))
    @example(slack=1.0, log_k1=2.0, log_b1=1.0, alpha=0.99999, kinds=("relaxation",))
    @example(slack=1.0, log_k1=0.0, log_b1=1.0, alpha=0.99999, kinds=("creep", "relaxation"))
    # alpha = 1 exactly: a start on the box face, which a solve that first
    # moved it 1e-10 inside the box ended worse than (NRMSE 9.7e-13, 2.4e-12
    # and 3.9e-12); the solve now starts on the face itself
    @example(slack=1.0, log_k1=2.0, log_b1=0.0, alpha=1.0, kinds=("relaxation",))
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
        alpha=st.floats(0.12, 0.88),
    )
    @settings(max_examples=5, deadline=None)
    def test_synth_csv_fit_recovers_the_generator(self, tmp_path_factory, slack, log_k1, log_b1, alpha):
        # a passive generator (K0 below the cap by the slack), written by synth
        # at 12 significant digits and read back by fit
        d = tmp_path_factory.mktemp("roundtrip")
        true, kern = _passive_params([slack, log_k1, log_b1, alpha], 101, T, 0.0025)
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
    # a start within NRMSE ~1e-5 of the record: it met the default gradient
    # test (1e-8) of SciPy's TRF at once, which left alpha at the start's 0.06
    @example(slack=2.7511245335471606, log_k1=0.1397576148719802, log_b1=0.09073723733721725,
             alpha=0.06920479468833954, kinds=("creep",))
    # the refined alpha = 1 start fits these records best, and the solve must
    # move alpha off the box face
    @example(slack=1.0, log_k1=0.0, log_b1=0.0, alpha=0.9921875, kinds=("creep", "relaxation"))
    # creep records that once ended at alpha = 1.0, NRMSE 4.4e-6
    @example(slack=1.0, log_k1=0.0, log_b1=0.0, alpha=0.997, kinds=("creep",))
    def test_fit_recovers_passive_generators(self, tmp_path_factory, slack, log_k1, log_b1, alpha, kinds):
        # a passive generator K0 = cap - slack, read back from its synth records
        # at matched memory, must be recovered: the fit lands in its basin
        true, kern = _passive_params([slack, log_k1, log_b1, alpha], 101, T, 0.0025)
        # synth refuses a creep record whose force law has no stable inverse
        assume("creep" not in kinds or _poles_outside(_law_filter(true, kern)[0]) == 0)
        code, result = synth_and_fit(tmp_path_factory.mktemp("recovery"), true, kinds)
        assert code == 0
        assert result["params"]["alpha"] == pytest.approx(true.alpha, abs=1e-3)
        assert result["nrmse"] < 1e-6


def test_recovery_from_the_order_box_edge(tmp_path):
    # a draw of TestRecovery that once failed: the alpha = 1 order's start
    # fits these creep records best, and the solve ended there, at alpha 1.0
    # and NRMSE 8e-6, while alpha was a logit coordinate (d alpha/du ~2e-22)
    true = FoSlsParams(k0=3.000530308811749, k1=1.0, b1=1.0, alpha=0.9921875)
    code, result = synth_and_fit(tmp_path, true, ("creep",))
    assert code == 0
    assert result["params"]["alpha"] == pytest.approx(true.alpha, abs=1e-3)
    assert result["nrmse"] < 1e-6
