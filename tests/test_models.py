"""Discrete viscoelastic law: filter behavior, responses, reductions."""

import importlib.machinery
import importlib.util
import json
import math
import os
import pickle
import re
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.signal
from scipy.signal import lfilter

from fovisc import CreepProtocol, RelaxationProtocol, fitting, models, simloop
from fovisc.glkernel import build_kernel, delta_p, delta_s
from fovisc.impedance import es_ed_lowfreq
from fovisc.models import (
    DiscreteVE,
    FoSlsParams,
    KINDS,
    _law_filter,
    _lfilter,
    _poles_outside,
    _record_filter,
    creep_response,
    freq_response,
    relaxation_response,
)
from fovisc.util import n_samples

T = 0.001
MATERIAL_N101 = FoSlsParams(k0=-2.89, k1=5.70, b1=5.89, alpha=0.203)


@pytest.fixture
def ve():
    params = FoSlsParams(k0=1.0, k1=5.0, b1=2.0, alpha=0.6)
    return DiscreteVE(params, build_kernel(0.6, 101, T))


def run_filter(ve, x):
    ve.reset()
    return np.array([ve.force_step(xi) for xi in x])


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(k0=0.0, k1=-1.0, b1=1.0, alpha=0.5),
            dict(k0=0.0, k1=1.0, b1=0.0, alpha=0.5),
            dict(k0=0.0, k1=1.0, b1=1.0, alpha=0.0),
            dict(k0=0.0, k1=1.0, b1=1.0, alpha=1.2),
            dict(k0=float("nan"), k1=1.0, b1=1.0, alpha=0.5),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            FoSlsParams(**kw)

    def test_negative_k0_allowed(self):
        FoSlsParams(k0=-2.89, k1=5.7, b1=5.89, alpha=0.203)

    def test_kernel_order_mismatch(self):
        params, kern = FoSlsParams(0.0, 1.0, 1.0, 0.5), build_kernel(0.6, 10, T)
        with pytest.raises(ValueError):
            DiscreteVE(params, kern)
        with pytest.raises(ValueError, match="does not match parameter order"):
            relaxation_response(params, kern, 1.0, 0.1)
        with pytest.raises(ValueError, match="does not match parameter order"):
            creep_response(params, kern, 1.0, 0.1, 0.0, 0.1)


class TestForceStep:
    def test_rest_gives_zero(self, ve):
        assert run_filter(ve, np.zeros(50)).tolist() == [0.0] * 50

    def test_deterministic(self, ve):
        rng = np.random.default_rng(7)
        x = rng.normal(size=300)
        f1 = run_filter(ve, x)
        f2 = run_filter(ve, x)
        assert np.array_equal(f1, f2)

    def test_linearity(self, ve):
        rng = np.random.default_rng(1)
        x1, x2 = rng.normal(size=(2, 200))
        combo = run_filter(ve, 2.0 * x1 - 3.0 * x2)
        parts = 2.0 * run_filter(ve, x1) - 3.0 * run_filter(ve, x2)
        np.testing.assert_allclose(combo, parts, rtol=0, atol=1e-10)

    def test_time_invariance(self, ve):
        rng = np.random.default_rng(2)
        x = rng.normal(size=150)
        shift = 11
        f = run_filter(ve, x)
        f_shifted = run_filter(ve, np.concatenate([np.zeros(shift), x]))
        np.testing.assert_allclose(f_shifted[shift:], f, rtol=0, atol=0)

    def test_order_one_is_backward_difference_filter(self):
        params = FoSlsParams(k0=0.5, k1=4.0, b1=3.0, alpha=1.0)
        ve1 = DiscreteVE(params, build_kernel(1.0, 1, T))
        rng = np.random.default_rng(3)
        x = rng.normal(size=120)
        f = run_filter(ve1, x)
        # classical branch recursion: (K1 + B1/T) y = K1 B1/T (x - x_prev) + (B1/T) y_prev
        g = params.k1 * params.b1 / T / (params.k1 + params.b1 / T)
        h = (params.b1 / T) / (params.k1 + params.b1 / T)
        y_prev, x_prev = 0.0, 0.0
        ref = []
        for xn in x:
            y = g * (xn - x_prev) + h * y_prev
            ref.append(params.k0 * xn + y)
            y_prev, x_prev = y, xn
        np.testing.assert_allclose(f, ref, rtol=1e-13, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.01, 1.0),
        n_mem=st.integers(0, 60),
        k0=st.floats(-10.0, 10.0),
        k1=st.floats(0.1, 50.0),
        b1=st.floats(0.01, 20.0),
        x=st.lists(
            st.floats(-10.0, 10.0).map(lambda v: v if abs(v) > 1e-6 else 0.0),
            min_size=1,
            max_size=120,
        ),
    )
    def test_matches_branch_filter_on_random_input(self, alpha, n_mem, k0, k1, b1, x):
        params = FoSlsParams(k0=k0, k1=k1, b1=b1, alpha=alpha)
        kern = build_kernel(alpha, n_mem, T)
        x = np.array(x)
        want = lfilter(*_law_filter(params, kern), x)
        got = run_filter(DiscreteVE(params, kern), x)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))

    @pytest.mark.parametrize("frac", np.linspace(0.02, 0.95, 10))
    def test_sinusoid_matches_freq_response(self, ve, frac):
        w = frac * math.pi / T
        n = np.arange(3000)
        x = np.sin(w * n * T)
        f = run_filter(ve, x)
        sl = slice(2000, 3000)
        design = np.column_stack([np.sin(w * n[sl] * T), np.cos(w * n[sl] * T)])
        a, b = np.linalg.lstsq(design, f[sl], rcond=None)[0]
        measured = a + 1j * b
        assert abs(measured / freq_response("fo_sls", ve.params, ve.kernel, w) - 1.0) < 1e-3


class TestFreqResponse:
    def test_dc_limit(self, ve):
        p = ve.params
        ds = delta_s(p.alpha, ve.kernel.n_mem)
        expected = p.k0 + p.k1 * p.b1 * ds / (p.b1 * ds + p.k1 * T**p.alpha)
        h = freq_response("fo_sls", ve.params, ve.kernel, 1e-6)
        assert h.real == pytest.approx(expected, rel=1e-6)
        assert abs(h.imag) < 1e-6

    def test_nyquist_real_value(self):
        params = FoSlsParams(k0=0.0, k1=1.0, b1=1.0, alpha=0.5)
        kern = build_kernel(0.5, 101, T)
        dp = delta_p(kern)
        expected = params.k1 * params.b1 * dp / T**0.5 / (params.k1 + params.b1 * dp / T**0.5)
        h = freq_response("fo_sls", params, kern, math.pi / T)
        assert h.real == pytest.approx(expected, rel=1e-12)
        assert abs(h.imag) < 1e-12
        # independent oracle: raw complex summation of the rendered law
        k = np.arange(kern.n_mem + 1)
        d = np.sum(kern.coeffs * np.exp(-1j * k * math.pi)) / T**0.5
        oracle = params.k1 * params.b1 * d / (params.k1 + params.b1 * d)
        assert h == pytest.approx(oracle, rel=1e-12)

    def test_order_one_any_memory_is_io_form(self):
        params = FoSlsParams(k0=2.0, k1=7.0, b1=0.5, alpha=1.0)
        for n_mem in (1, 5, 50):
            kern = build_kernel(1.0, n_mem, T)
            for w in (10.0, 500.0, math.pi / T):
                d = (1.0 - np.exp(-1j * w * T)) / T
                expected = params.k0 + params.k1 * params.b1 * d / (params.k1 + params.b1 * d)
                assert freq_response("fo_sls", params, kern, w) == pytest.approx(expected, rel=1e-12)

    def test_rejects_out_of_band(self, ve):
        with pytest.raises(ValueError):
            freq_response("fo_sls", ve.params, ve.kernel, 0.0)
        with pytest.raises(ValueError):
            freq_response("fo_sls", ve.params, ve.kernel, 1.02 * math.pi / T)


class TestRelaxation:
    def test_first_sample_instantaneous_stiffness(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        _, f = relaxation_response(MATERIAL_N101, kern, 5.0, 0.5)
        p = MATERIAL_N101
        expected = 5.0 * (p.k0 + p.k1 * p.b1 / (p.b1 + p.k1 * T**p.alpha))
        assert f[0] == pytest.approx(expected, rel=1e-12)

    def test_plateau_matches_dc_stiffness(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        _, f = relaxation_response(MATERIAL_N101, kern, 5.0, 3.0)
        es0, _ = es_ed_lowfreq(MATERIAL_N101, kern)
        assert f[-1] == pytest.approx(5.0 * es0, rel=0.02)

    def test_monotone_decay_after_peak(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        _, f = relaxation_response(MATERIAL_N101, kern, 5.0, 3.0)
        assert f[0] == max(f)
        assert np.all(np.diff(f) <= 1e-12)

    def test_order_one_single_exponential(self):
        # classical single-branch relaxation: time constant B1/K1 around the DC level
        params = FoSlsParams(k0=1.0, k1=4.0, b1=0.08, alpha=1.0)
        kern = build_kernel(1.0, 3, T)
        t, f = relaxation_response(params, kern, 2.0, 0.2)
        tau = params.b1 / params.k1  # 20 ms
        level = 2.0 * params.k0
        amp = f[0] - level
        expected = level + amp * np.exp(-t / tau)
        np.testing.assert_allclose(f, expected, rtol=0, atol=0.01 * abs(amp))

    def test_matches_stepwise_filter(self):
        kern = build_kernel(0.4, 51, T)
        params = FoSlsParams(k0=0.5, k1=3.0, b1=1.5, alpha=0.4)
        _, f = relaxation_response(params, kern, 1.7, 0.3)
        ve = DiscreteVE(params, kern)
        stepwise = run_filter(ve, np.full(f.size, 1.7))
        np.testing.assert_allclose(f, stepwise, rtol=1e-10, atol=1e-12)

    def test_preconditions(self):
        params = FoSlsParams(k0=0.0, k1=1.0, b1=1.0, alpha=0.5)
        kern = build_kernel(0.5, 5, T)
        with pytest.raises(ValueError):
            relaxation_response(params, kern, 0.0, 1.0)
        with pytest.raises(ValueError):
            relaxation_response(params, kern, 1.0, 0.0)


PERIODS = ("0.001", "0.0005", "0.002")


def decimal_duration(k: int, period: str) -> float:
    """k periods written out in decimals, as a flag or a CSV time stamp gives them."""
    return float(Decimal(k) * Decimal(period))


class TestSampleCounts:
    @given(k=st.integers(1, 200_000), period=st.sampled_from(PERIODS))
    @settings(max_examples=200, deadline=None)
    def test_whole_multiples_of_the_period_count_exactly(self, k, period):
        duration, t_samp = decimal_duration(k, period), float(period)
        assert n_samples(duration, t_samp) == k
        assert n_samples(duration, t_samp) * t_samp == pytest.approx(duration, rel=1e-12)

    @given(k=st.integers(1, 5000), period=st.sampled_from(PERIODS))
    @settings(max_examples=40, deadline=None)
    def test_relaxation_record_ends_at_its_duration(self, k, period):
        duration, t_samp = decimal_duration(k, period), float(period)
        kern = build_kernel(0.5, 5, t_samp)
        t, f = relaxation_response(FoSlsParams(0.0, 1.0, 1.0, 0.5), kern, 1.0, duration)
        assert t.size == f.size == k + 1
        assert t[-1] == pytest.approx(duration, rel=1e-12)

    def test_partial_periods_are_dropped(self):
        assert n_samples(0.7005, 0.001) == 700
        assert n_samples(0.0005, 0.001) == 0

    @pytest.mark.parametrize("duration, t_samp", [(math.inf, 0.001), (math.nan, 0.001), (1e306, 1e-3)])
    def test_non_finite_sample_counts_are_refused(self, duration, t_samp):
        with pytest.raises(ValueError, match=re.escape(f"duration {duration} s")):
            n_samples(duration, t_samp)


class TestProtocols:
    @pytest.mark.parametrize("protocol, field, message", [
        (CreepProtocol, {"f_hold": math.nan}, "f_hold nan is not finite"),
        (CreepProtocol, {"t_recover": math.inf}, "t_recover inf is not finite"),
        (RelaxationProtocol, {"x0": -math.inf}, "x0 -inf is not finite"),
        (CreepProtocol, {"t_hold": 0.0}, "hold duration must be positive and recovery nonnegative"),
        (CreepProtocol, {"t_recover": -0.001}, "hold duration must be positive and recovery nonnegative"),
        (RelaxationProtocol, {"x0": 0.0}, "step displacement must be nonzero"),
        (RelaxationProtocol, {"duration": 0.0}, "duration must be positive"),
        (RelaxationProtocol, {"duration": -1.0}, "duration must be positive"),
    ])
    def test_fields_are_checked_when_the_protocol_is_built(self, protocol, field, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            protocol(**field)

    @pytest.mark.parametrize("period", PERIODS)
    def test_the_stimulus_holds_each_level_for_its_duration(self, period):
        t_samp = float(period)
        force = CreepProtocol(2.0, 0.7, -0.5, 0.3).stimulus(t_samp)
        n_hold = n_samples(0.7, t_samp) + 1
        assert force.size == n_hold + n_samples(0.3, t_samp)
        assert np.all(force[:n_hold] == 2.0) and np.all(force[n_hold:] == -0.5)
        x = RelaxationProtocol(1.5, 0.7).stimulus(t_samp)
        assert x.size == n_hold and np.all(x == 1.5)


class TestCreep:
    def test_zero_force_stays_at_rest(self):
        kern = build_kernel(0.3, 21, T)
        params = FoSlsParams(k0=1.0, k1=2.0, b1=1.0, alpha=0.3)
        _, x = creep_response(params, kern, 0.0, 1.0, 0.0, 1.0)
        assert np.all(x == 0.0)

    def test_plateau_matches_dc_compliance(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        t, x = creep_response(MATERIAL_N101, kern, 3.0, 3.0, 0.5, 3.0)
        es0, _ = es_ed_lowfreq(MATERIAL_N101, kern)
        i_end_hold = int(3.0 / T) - 1
        assert x[i_end_hold] == pytest.approx(3.0 / es0, rel=0.02)
        # recovery settles toward the reduced-force compliance
        assert x[-1] == pytest.approx(0.5 / es0, rel=0.02)

    def test_roundtrip_with_force_law(self):
        kern = build_kernel(0.55, 41, T)
        params = FoSlsParams(k0=-0.5, k1=4.0, b1=2.0, alpha=0.55)
        _, x = creep_response(params, kern, 2.0, 0.5, 0.3, 0.5)
        ve = DiscreteVE(params, kern)
        f_back = run_filter(ve, x)
        n_hold = int(0.5 / T) + 1
        np.testing.assert_allclose(f_back[:n_hold], 2.0, rtol=1e-9)
        np.testing.assert_allclose(f_back[n_hold:], 0.3, rtol=1e-9)

    def test_order_one_exponential_saturation(self):
        params = FoSlsParams(k0=2.0, k1=5.0, b1=0.05, alpha=1.0)
        kern = build_kernel(1.0, 3, T)
        t, x = creep_response(params, kern, 1.0, 0.5, 1.0, 0.0)
        # saturates to F/K0 with no long-memory tail
        assert x[-1] == pytest.approx(1.0 / params.k0, rel=1e-3)
        mid = x[x.size // 2]
        assert abs(mid - 1.0 / params.k0) < abs(x[0] - 1.0 / params.k0)


class TestPolesOutside:
    def test_counts_the_poles_a_polynomial_was_built_from(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            radii = rng.choice([rng.uniform(0.05, 0.97), rng.uniform(1.03, 3.0)], size=rng.integers(1, 12))
            angles = rng.uniform(0.0, math.pi, size=radii.size)
            paired = rng.random(radii.size) < 0.6
            poles = np.concatenate([
                radii * np.exp(1j * angles * paired),
                (radii * np.exp(-1j * angles))[paired],
            ])
            den = np.real(np.poly(poles)) * rng.uniform(-5.0, 5.0)
            expected = int(np.sum(radii > 1.0) + np.sum((radii > 1.0) & paired))
            assert _poles_outside(den) == expected

    @pytest.mark.parametrize("n_mem, unstable", [(1, 0), (101, 0), (476, 0), (477, 1)])
    def test_creep_filter_of_the_material(self, n_mem, unstable):
        # K0 < 0: the truncated kernel's static gain falls as N grows, and from
        # N = 477 on num(1) = sum(num) < 0 < num(0): a real pole of the creep
        # filter den/num has left the unit circle through z = 1
        num, _ = _law_filter(MATERIAL_N101, build_kernel(MATERIAL_N101.alpha, n_mem, T))
        assert _poles_outside(num) == unstable
        assert (np.sum(num) < 0.0) == bool(unstable)


class TestLawFilter:
    @pytest.mark.parametrize(
        "params",
        [MATERIAL_N101, FoSlsParams(k0=0.7, k1=3.0, b1=0.02, alpha=1.0)],
        ids=["k0_negative", "order_one"],
    )
    @pytest.mark.parametrize("n_mem", [0, 1, 101])
    def test_unit_circle_values_are_the_impedance(self, params, n_mem):
        # the one time-domain filter and the one frequency response agree
        kern = build_kernel(params.alpha, n_mem, T)
        num, den = _law_filter(params, kern)
        omegas = np.linspace(0.002, 1.0, 500) * math.pi / T
        z_inv = np.exp(-1j * np.outer(omegas * T, np.arange(n_mem + 1)))
        got = (z_inv @ num) / (z_inv @ den)
        want = freq_response("fo_sls", params, kern, omegas)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestReduceModel:
    def test_io_kv_row(self):
        # the integer-order kinds take only T from a kernel of any order
        params = FoSlsParams(k0=10.0, k1=1.0, b1=0.01, alpha=1.0)
        for kern in (build_kernel(1.0, 5, T), build_kernel(0.3, 5, T)):
            for w in (50.0, 1000.0, math.pi / T):
                expected = 10.0 + 0.01 / T * (1.0 - np.exp(-1j * w * T))
                assert freq_response("io_kv", params, kern, w) == pytest.approx(expected, rel=1e-12)

    def test_io_sls_matches_general(self):
        params = FoSlsParams(k0=10.0, k1=32.0, b1=0.01, alpha=1.0)
        kern = build_kernel(1.0, 7, T)
        for w in np.linspace(1.0, math.pi / T, 25):
            general = freq_response("fo_sls", params, kern, w)
            assert freq_response("io_sls", params, kern, w) == pytest.approx(general, rel=1e-12)

    def test_fo_maxwell_is_zero_k0_path(self):
        params = FoSlsParams(k0=3.0, k1=2.0, b1=1.0, alpha=0.5)
        kern = build_kernel(0.5, 31, T)
        for w in (10.0, 700.0, math.pi / T):
            general = freq_response("fo_sls", FoSlsParams(0.0, 2.0, 1.0, 0.5), kern, w)
            assert freq_response("fo_maxwell", params, kern, w) == pytest.approx(general, rel=1e-12)

    def test_fo_kv_is_large_k1_limit(self):
        kern = build_kernel(0.5, 31, T)
        for w in (10.0, 700.0, math.pi / T):
            general = freq_response("fo_sls", FoSlsParams(1.0, 1e9, 0.5, 0.5), kern, w)
            row = freq_response("fo_kv", FoSlsParams(1.0, 1.0, 0.5, 0.5), kern, w)
            assert row == pytest.approx(general, rel=1e-6)

    @pytest.mark.parametrize("kind", ["fo_kv", "fo_maxwell", "io_sls", "io_kv", "io_maxwell"])
    def test_array_matches_per_point(self, kind):
        kern = build_kernel(0.5, 40, T)
        params = FoSlsParams(3.0, 2.0, 0.1, 0.5)
        omegas = np.linspace(0.0, math.pi / T, 65)[1:]  # the uniform grid: FFT path
        h = freq_response(kind, params, kern, omegas)
        assert h.shape == omegas.shape
        assert isinstance(freq_response(kind, params, kern, omegas[3]), complex)
        want = np.array([freq_response(kind, params, kern, w) for w in omegas])
        np.testing.assert_allclose(h, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        with pytest.raises(ValueError):
            freq_response(kind, params, kern, np.array([1.0, 0.0]))

    def test_unsupported_kind(self):
        message = f"unsupported kind 'zener'; expected one of {KINDS}"
        with pytest.raises(ValueError, match=re.escape(message)):
            freq_response("zener", FoSlsParams(0.0, 1.0, 1.0, 0.5), build_kernel(0.5, 3, T), 1.0)


@pytest.fixture(scope="module")
def library_filters():
    """(b, a, x, zi) of every filter pass the library runs while it synthesizes
    records at N = 0, 7 and 101, fits those at N = 101 (the start scan's
    prefilters and blocked runs, the solve and the final report), fits a creep
    record without a hold force and simulates a loop; plus
    the creep filter of a candidate whose force law has an unstable inverse."""
    calls = []

    def spy(b, a, x, zi=None):
        calls.append(tuple(None if v is None else np.array(v) for v in (b, a, x, zi)))
        return _lfilter(b, a, x, zi)

    creep, relax = CreepProtocol(3.0, 0.3, 0.5, 0.3), RelaxationProtocol(5.0, 0.4)
    with pytest.MonkeyPatch.context() as mp:
        for module in (models, fitting, simloop):
            mp.setattr(module, "_lfilter", spy)
        for n_mem in (0, 7, 101):
            kern = build_kernel(MATERIAL_N101.alpha, n_mem, T)
            records = [fitting.synth_experiment(MATERIAL_N101, kern, p) for p in (creep, relax)]
        fitting.fit(records, 101, fitting.FitConfig(max_evals=60))
        fitting.fit(fitting.synth_experiment(MATERIAL_N101, kern, CreepProtocol(0.0, 0.3, 0.5, 0.3)), 101,
                    fitting.FitConfig(max_evals=20))
        ve = DiscreteVE(FoSlsParams(0.0, 2.0, 100.0, 0.5), build_kernel(0.5, 101, T))
        simloop.simulate(simloop.PlantParams(7.34e-5, 0.0025), ve, simloop.Impulse(0.01), 0.5)
        b, a, u, _ = _record_filter(FoSlsParams(-1.0, 5.0, 0.05, 0.5), build_kernel(0.5, 7, T),
                                    CreepProtocol(1.0, 2.0, 0.0, 1.0))
        assert _poles_outside(a)
        with np.errstate(all="ignore"):
            models._lfilter(b, a, u)
    return calls


def same_bits(got, want):
    got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want)
    )


class TestLfilter:
    def test_the_library_filters_cover_every_form(self, library_filters):
        kinds = {
            "single tap": any(a.size == 1 for b, a, x, zi in library_filters),
            "a[0] != 1": any(a[0] != 1.0 for b, a, x, zi in library_filters),
            "records in rows": any(x.ndim == 2 for b, a, x, zi in library_filters),
            "state carried": any(zi is not None and zi.any() and a.size > 2 for b, a, x, zi in library_filters),
            "velocity with zi": any(zi is not None and a.size == 2 for b, a, x, zi in library_filters),
            "overflow": any(not np.isfinite(lfilter(b, a, x)).all() for b, a, x, zi in library_filters),
        }
        assert all(kinds.values()), kinds

    def test_direct_route_is_lfilter_bit_for_bit(self, library_filters):
        assert models._linear_filter() is not None
        with np.errstate(all="ignore"):
            for b, a, x, zi in library_filters:
                assert same_bits(_lfilter(b, a, x, zi), lfilter(b, a, x, zi=zi)), (b, a)

    @pytest.mark.parametrize("shape", [(9,), (2, 9)])
    def test_single_tap_with_state_is_lfilter_bit_for_bit(self, shape):
        # lfilter's FIR branch, which no library filter runs with a state
        rng = np.random.default_rng(3)
        b, a, x = rng.normal(size=4), [0.7], rng.normal(size=shape)
        zi = rng.normal(size=shape[:-1] + (3,))
        assert same_bits(_lfilter(b, a, x, zi), lfilter(b, a, x, zi=zi))
        assert same_bits(_lfilter(b, a, x), lfilter(b, a, x))

    def test_direct_route_runs_before_and_agrees_after_scipy_signal(self, library_filters, tmp_path):
        # a fresh interpreter filters before scipy.signal is imported, then
        # imports it and filters again through both routes
        cases = tmp_path / "cases.pkl"
        cases.write_bytes(pickle.dumps(library_filters))
        script = (
            "import pickle, sys\n"
            "import numpy as np\n"
            "from fovisc import models\n"
            "cases = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "np.seterr(all='ignore')\n"
            "first = [models._lfilter(b, a, x, zi) for b, a, x, zi in cases]\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "from scipy.signal import lfilter\n"
            "def bits(r):\n"
            "    return [(v.dtype.str, v.shape, v.tobytes()) for v in (r if isinstance(r, tuple) else (r,))]\n"
            "for (b, a, x, zi), got in zip(cases, first):\n"
            "    assert bits(got) == bits(lfilter(b, a, x, zi=zi)) == bits(models._lfilter(b, a, x, zi))\n"
            "print(len(first))\n"
        )
        src = os.path.dirname(os.path.dirname(models.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, str(cases)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(len(library_filters))]

    @pytest.mark.parametrize("failure", ["no file", "load fails", "no routine"])
    def test_falls_back_to_lfilter_when_the_routine_cannot_be_loaded(self, failure, library_filters,
                                                                    monkeypatch, tmp_path):
        if failure == "no file":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        elif failure == "load fails":
            def refuse(*args, **kwargs):
                raise ImportError("cannot load")
            monkeypatch.setattr(importlib.util, "spec_from_file_location", refuse)
        else:  # a module that loads but has no _linear_filter
            empty = tmp_path / "empty.py"
            empty.write_text("")
            load = importlib.util.spec_from_file_location
            monkeypatch.setattr(importlib.util, "spec_from_file_location", lambda name, path: load(name, empty))
        fallbacks = []

        def counted(*args, **kwargs):
            fallbacks.append(args)
            return lfilter(*args, **kwargs)

        monkeypatch.setattr(scipy.signal, "lfilter", counted)
        models._linear_filter.cache_clear()
        try:
            assert models._linear_filter() is None
            with np.errstate(all="ignore"):
                for b, a, x, zi in library_filters:
                    assert same_bits(_lfilter(b, a, x, zi), lfilter(b, a, x, zi=zi)), (b, a)
        finally:
            models._linear_filter.cache_clear()
        assert len(fallbacks) == sum(a.size > 1 for b, a, x, zi in library_filters)
