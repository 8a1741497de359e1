"""Effective stiffness/damping: four evaluation routes and their agreement."""

import cmath
import math
import re

import numpy as np
import pytest

from fovisc import impedance
from fovisc.glkernel import build_kernel, delta_s
from fovisc.impedance import (
    BfoElement,
    bfo_response,
    es_ed_asymptotic,
    es_ed_finite,
    es_ed_lowfreq,
    special_case_es_ed,
)
from fovisc.models import DiscreteVE, FoSlsParams, reduce_model

T = 0.001
SWEEP_PARAMS = FoSlsParams(k0=10.0, k1=32.0, b1=0.01, alpha=0.5)


def random_draws(n, rng, alphas=(0.05, 0.99)):
    for _ in range(n):
        yield FoSlsParams(
            k0=float(rng.uniform(0.0, 10.0)),
            k1=float(rng.uniform(0.1, 50.0)),
            b1=float(rng.uniform(0.01, 20.0)),
            alpha=float(rng.uniform(*alphas)),
        )


class TestDefinitionConsistency:
    def test_es_ed_equal_impedance_parts(self):
        rng = np.random.default_rng(11)
        for params in random_draws(25, rng):
            n_mem = int(rng.integers(1, 200))
            kern = build_kernel(params.alpha, n_mem, T)
            ve = DiscreteVE(params, kern)
            for w in np.linspace(0.03, 1.0, 7) * kern.nyquist:
                h = ve.freq_response(w)
                scale = max(1.0, abs(h))
                assert abs(es_ed_finite(params, kern, w)[0] - h.real) < 1e-12 * scale
                assert abs(es_ed_finite(params, kern, w)[1] - h.imag / w) < 1e-12 * scale

    def test_ed_nonnegative_everywhere(self):
        rng = np.random.default_rng(12)
        for params in random_draws(30, rng):
            n_mem = int(rng.integers(1, 300))  # both parities
            kern = build_kernel(params.alpha, n_mem, T)
            for w in np.linspace(0.005, 1.0, 40) * kern.nyquist:
                assert es_ed_finite(params, kern, w)[1] >= 0.0

    def test_es_at_least_k0_for_nonnegative_k0(self):
        rng = np.random.default_rng(13)
        for params in random_draws(15, rng):
            kern = build_kernel(params.alpha, 101, T)
            for w in np.linspace(0.01, 1.0, 15) * kern.nyquist:
                assert es_ed_finite(params, kern, w)[0] >= params.k0 - 1e-12


class TestAsymptotic:
    def test_compact_equals_trig_on_grid(self):
        # equality is asserted inside es_ed_asymptotic; sweep it across the band
        for params in (SWEEP_PARAMS, FoSlsParams(0.0, 1.0, 1.0, 0.25), FoSlsParams(2.0, 5.0, 3.0, 0.9)):
            for th in np.linspace(1e-4 * math.pi, math.pi, 1024):
                es_ed_asymptotic(params, th / T, T)

    def test_finite_n_converges_parity_matched(self):
        thetas = np.linspace(0.01 * math.pi, math.pi, 100)
        for alpha in (0.25, 0.5, 0.85):
            params = FoSlsParams(10.0, 32.0, 0.01, alpha)
            sup = []
            for n_mem in (101, 1001, 10001):
                kern = build_kernel(alpha, n_mem, T)
                worst = 0.0
                for th in thetas:
                    w = th / T
                    es_f, ed_f = es_ed_finite(params, kern, w)
                    es_a, ed_a = es_ed_asymptotic(params, w, T)
                    worst = max(worst, abs(es_f - es_a) / max(abs(es_a), 1e-30))
                    if abs(ed_a) > 1e-10:
                        worst = max(worst, abs(ed_f - ed_a) / abs(ed_a))
                sup.append(worst)
            assert sup[0] >= sup[1] >= sup[2]
            assert sup[2] < 1e-2

    def test_finite_vs_asymptotic_order_dependent_tolerance(self):
        # truncation tail scales like |c_N| / (2 sin(wT/2)) ~ N^(-1-alpha):
        # the 1e-6 agreement at N ~ 1e4 is reachable for high orders
        params = FoSlsParams(10.0, 32.0, 0.01, 0.95)
        kern = build_kernel(0.95, 10001, T)
        for th in np.linspace(0.01 * math.pi, math.pi, 400):
            w = th / T
            es_a, ed_a = es_ed_asymptotic(params, w, T)
            assert abs(es_ed_finite(params, kern, w)[0] - es_a) < 1e-6 * abs(es_a)
            if abs(ed_a) > 1e-10:
                assert abs(es_ed_finite(params, kern, w)[1] - ed_a) < 1e-6 * abs(ed_a)

    def test_sweep_equals_scalar_at_every_point(self):
        for params in (SWEEP_PARAMS, FoSlsParams(0.0, 1.0, 1.0, 0.25), FoSlsParams(2.0, 5.0, 3.0, 0.95)):
            omegas = np.linspace(0.0, math.pi / T, 513)[1:]
            es, ed = es_ed_asymptotic(params, omegas, T)
            assert list(zip(es.tolist(), ed.tolist())) == [
                es_ed_asymptotic(params, w, T) for w in omegas
            ]

    def test_cross_check_names_first_wrong_point(self, monkeypatch):
        omegas = np.linspace(0.0, math.pi / T, 65)[1:]
        trig = impedance._trig_branch

        def wrong_at_two(params, w, t_samp):
            re_t, im_t = trig(params, w, t_samp)
            return np.where(np.isin(w, omegas[[17, 40]]), re_t + 1e-6, re_t), im_t

        monkeypatch.setattr(impedance, "_trig_branch", wrong_at_two)
        with pytest.raises(AssertionError, match=re.escape(f"at omega = {omegas[17]}:")):
            es_ed_asymptotic(SWEEP_PARAMS, omegas, T)
        with pytest.raises(AssertionError, match="disagree"):
            es_ed_asymptotic(SWEEP_PARAMS, omegas[17], T)
        es_ed_asymptotic(SWEEP_PARAMS, omegas[16], T)  # the other points still agree

    def test_nyquist_value_consistent_with_alternating_sum(self):
        params = FoSlsParams(0.0, 1.0, 1.0, 0.5)
        es_a, _ = es_ed_asymptotic(params, math.pi / T, T)
        dp_inf = 2.0**0.5
        expected = params.k1 * params.b1 * dp_inf / (params.k1 * T**0.5 + params.b1 * dp_inf)
        assert es_a == pytest.approx(expected, rel=1e-12)


class TestLowFrequency:
    def test_material_dc_stiffness(self):
        params = FoSlsParams(-2.89, 5.70, 5.89, 0.203)
        kern = build_kernel(0.203, 101, T)
        es0, ed0 = es_ed_lowfreq(params, kern)
        ds = delta_s(0.203, 101)
        expected = -2.89 + 5.70 * 5.89 * ds / (5.89 * ds + 5.70 * T**0.203)
        assert es0 == pytest.approx(expected, rel=1e-12)
        assert ed0 > 0.0

    def test_matches_finite_at_millihertz(self):
        rng = np.random.default_rng(14)
        for params in random_draws(10, rng):
            kern = build_kernel(params.alpha, 101, T)
            es0, ed0 = es_ed_lowfreq(params, kern)
            w = 1e-3
            assert es_ed_finite(params, kern, w)[0] == pytest.approx(es0, rel=1e-3)
            assert es_ed_finite(params, kern, w)[1] == pytest.approx(ed0, rel=1e-3)

    def test_order_one_dc_damping_is_b1(self):
        params = FoSlsParams(k0=3.0, k1=7.0, b1=0.4, alpha=1.0)
        es0, ed0 = es_ed_lowfreq(params, build_kernel(1.0, 5, T))
        assert es0 == pytest.approx(params.k0, abs=1e-15)  # ds = 0
        assert ed0 == pytest.approx(params.b1, rel=1e-12)  # dd = 1

    def test_vanishing_order_degenerates_to_series_springs(self):
        params = FoSlsParams(k0=1.0, k1=2.0, b1=3.0, alpha=1e-6)
        es0, _ = es_ed_lowfreq(params, build_kernel(params.alpha, 25, T))
        series = params.k0 + params.k1 * params.b1 / (params.b1 + params.k1)
        assert es0 == pytest.approx(series, rel=1e-4)


class TestBfo:
    def test_low_frequency_limit(self):
        el = BfoElement(b1=2.0, alpha=0.5, t_samp=T)
        w = 1e-3 / T  # wT = 1e-3
        ref = el.b1 * (1j * w) ** el.alpha
        assert abs(bfo_response(el, w) / ref - 1.0) < 1e-3

    def test_nyquist_magnitude(self):
        el = BfoElement(b1=2.0, alpha=0.3, t_samp=T)
        assert abs(bfo_response(el, math.pi / T)) == pytest.approx(
            2.0 * 2.0**0.3 / T**0.3, rel=1e-12
        )

    def test_order_one_backward_difference(self):
        el = BfoElement(b1=0.7, alpha=1.0, t_samp=T)
        for w in (10.0, 400.0, 2000.0):
            expected = 0.7 / T * (1.0 - cmath.exp(-1j * w * T))
            assert bfo_response(el, w) == pytest.approx(expected, rel=1e-12)

    def test_zero_frequency(self):
        el = BfoElement(b1=1.0, alpha=0.5, t_samp=T)
        assert bfo_response(el, 0.0) == 0.0


class TestSpecialCases:
    def test_io_kv_quarter_band(self):
        params = FoSlsParams(k0=4.0, k1=1.0, b1=0.3, alpha=1.0)
        w = math.pi / (2.0 * T)
        es, ed = special_case_es_ed("io_kv", params, w, T)
        assert es == pytest.approx(4.0 + 0.3 / T, rel=1e-12)
        assert ed == pytest.approx(2.0 * 0.3 / math.pi, rel=1e-12)

    def test_io_kv_zero_damping_at_nyquist(self):
        params = FoSlsParams(k0=4.0, k1=1.0, b1=0.3, alpha=1.0)
        _, ed = special_case_es_ed("io_kv", params, math.pi / T, T)
        assert ed == pytest.approx(0.0, abs=1e-15)

    def test_fo_maxwell_equals_fo_sls_without_k0(self):
        params = FoSlsParams(k0=5.0, k1=2.0, b1=1.0, alpha=0.4)
        for th in (0.1, 1.0, math.pi):
            es_m, ed_m = special_case_es_ed("fo_maxwell", params, th / T, T)
            es_s, ed_s = special_case_es_ed("fo_sls", params, th / T, T)
            assert es_m == pytest.approx(es_s - params.k0, rel=1e-12, abs=1e-15)
            assert ed_m == pytest.approx(ed_s, rel=1e-12, abs=1e-15)

    def test_io_rows_match_finite_general(self):
        # alpha = 1 truncates exactly, so the row formulas equal the
        # finite-memory evaluation at any N >= 1
        params = FoSlsParams(k0=10.0, k1=32.0, b1=0.01, alpha=1.0)
        kern = build_kernel(1.0, 9, T)
        for th in np.linspace(0.05, 1.0, 9) * math.pi:
            w = th / T
            es_row, ed_row = special_case_es_ed("io_sls", params, w, T)
            assert es_row == pytest.approx(es_ed_finite(params, kern, w)[0], rel=1e-12)
            assert ed_row == pytest.approx(es_ed_finite(params, kern, w)[1], rel=1e-12, abs=1e-15)

    def test_kv_rows_match_large_k1(self):
        # substitution error of K1 = 1e9 is ~2*B1/(K1*T) for the io row, so
        # B1 must stay small for the 1e-6 agreement to reflect the limit
        base = FoSlsParams(k0=2.0, k1=1.0, b1=0.05, alpha=0.6)
        big = FoSlsParams(k0=2.0, k1=1e9, b1=0.05, alpha=0.6)
        big_io = FoSlsParams(k0=2.0, k1=1e9, b1=0.05, alpha=1.0)
        kern_io = build_kernel(1.0, 5, T)
        for th in np.linspace(0.05, 1.0, 9) * math.pi:
            w = th / T
            es_row, ed_row = special_case_es_ed("fo_kv", base, w, T)
            es_big, ed_big = es_ed_asymptotic(big, w, T)
            assert es_row == pytest.approx(es_big, rel=1e-6)
            assert ed_row == pytest.approx(ed_big, rel=1e-6, abs=1e-12)
            es_row, ed_row = special_case_es_ed("io_kv", base, w, T)
            assert es_row == pytest.approx(es_ed_finite(big_io, kern_io, w)[0], rel=1e-6)
            assert ed_row == pytest.approx(es_ed_finite(big_io, kern_io, w)[1], rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", ["fo_sls", "fo_kv", "fo_maxwell", "io_sls", "io_kv", "io_maxwell"])
    def test_rows_match_written_out_formulas(self, kind):
        # each row is the reduced impedance on the infinite spectrum; these are
        # the per-kind formulas it replaces, written out independently
        rng = np.random.default_rng(21)
        for params in random_draws(40, rng, alphas=(0.01, 1.0)):
            p = FoSlsParams(params.k0, params.k1, params.b1, 1.0) if kind.startswith("io_") else params
            k0 = 0.0 if kind.endswith("_maxwell") else p.k0
            w = float(rng.uniform(0.005, 1.0)) * math.pi / T
            th = w * T
            base = (1.0 - cmath.exp(-1j * th)) ** p.alpha
            t_a = T**p.alpha
            if kind == "io_kv":
                es_ref, ed_ref = k0 + p.b1 / T * (1.0 - math.cos(th)), p.b1 * math.sin(th) / th
            elif kind == "fo_kv":
                es_ref, ed_ref = k0 + p.b1 / t_a * base.real, p.b1 / (w * t_a) * base.imag
            else:
                branch = p.k1 * p.b1 * base / (p.k1 * t_a + p.b1 * base)
                es_ref, ed_ref = k0 + branch.real, branch.imag / w
            es, ed = special_case_es_ed(kind, params, w, T)
            # ED relative to the impedance: Im H -> 0 at Nyquist
            h_scale = abs(complex(es_ref, w * ed_ref))
            assert es == pytest.approx(es_ref, rel=1e-13)
            assert ed == pytest.approx(ed_ref, rel=1e-13, abs=1e-13 * h_scale / w)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            special_case_es_ed("burgers", SWEEP_PARAMS, 1.0, T)


class TestVectorisedSweep:
    """es_ed_finite evaluates a whole grid from one spectrum call."""

    @pytest.mark.parametrize("n_mem", [100, 101, 2001])
    def test_matches_per_point_values(self, n_mem):
        kern = build_kernel(SWEEP_PARAMS.alpha, n_mem, T)
        omegas = np.linspace(0.0, kern.nyquist, 513)[1:]  # the uniform grid: FFT path
        es, ed = es_ed_finite(SWEEP_PARAMS, kern, omegas)
        es_ref = np.array([es_ed_finite(SWEEP_PARAMS, kern, w)[0] for w in omegas])
        ed_ref = np.array([es_ed_finite(SWEEP_PARAMS, kern, w)[1] for w in omegas])
        np.testing.assert_allclose(es, es_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ed, ed_ref, rtol=1e-12, atol=1e-12 * np.max(ed_ref))
        assert ed[-1] == 0.0  # the Nyquist bin of the real FFT is real

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda kern, w: es_ed_finite(SWEEP_PARAMS, kern, w),
            lambda kern, w: es_ed_asymptotic(SWEEP_PARAMS, w, kern.t_samp),
        ],
        ids=["finite", "asymptotic"],
    )
    def test_scalar_array_and_empty_calls(self, evaluate):
        # a scalar takes the 1-element array path: the same bits as [w].  Off
        # the uniform grid a longer array sums the spectrum as one matrix
        # product, whose rounding may differ from the 1-row product by an ulp.
        kern = build_kernel(SWEEP_PARAMS.alpha, 100, T)
        omegas = np.random.default_rng(6).uniform(1.0, kern.nyquist, (3, 4))
        es, ed = evaluate(kern, omegas)
        assert es.shape == ed.shape == (3, 4)
        for idx in np.ndindex(es.shape):
            w = float(omegas[idx])
            es_w, ed_w = evaluate(kern, w)
            assert type(es_w) is float and type(ed_w) is float
            es_1, ed_1 = evaluate(kern, np.array([w]))
            assert (es_w, ed_w) == (es_1[0], ed_1[0])
            assert es_w == pytest.approx(es[idx], rel=1e-13)
            assert ed_w == pytest.approx(ed[idx], rel=1e-13)
        es, ed = evaluate(kern, np.array([]))
        assert es.shape == ed.shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -5.0, 1.01 * math.pi / T])
    def test_out_of_band_frequency_is_rejected(self, bad):
        kern = build_kernel(0.5, 100, T)
        omegas = np.array([10.0, bad, 100.0])
        with pytest.raises(ValueError, match="omega must lie in"):
            es_ed_finite(SWEEP_PARAMS, kern, omegas)
        with pytest.raises(ValueError, match="omega must lie in"):
            es_ed_finite(SWEEP_PARAMS, kern, bad)
        with pytest.raises(ValueError, match="omega must lie in"):
            es_ed_asymptotic(SWEEP_PARAMS, omegas, T)
        # the reductions hold the same band (beyond Nyquist ED would change sign)
        with pytest.raises(ValueError, match="omega must lie in"):
            special_case_es_ed("fo_sls", SWEEP_PARAMS, bad, T)
        with pytest.raises(ValueError, match="omega must lie in"):
            reduce_model("fo_kv", SWEEP_PARAMS, kern).freq_response(bad)

    @pytest.mark.parametrize("branch, what", [(-1.0 + 0.0j, "branch ES"), (1.0 - 1.0j, "ED")])
    def test_sign_check_still_fires(self, monkeypatch, branch, what):
        monkeypatch.setattr(impedance, "_branch_impedance", lambda p, t, s: np.full(s.shape, branch))
        kern = build_kernel(0.5, 100, T)
        omegas = np.linspace(0.0, kern.nyquist, 65)[1:]
        with pytest.raises(AssertionError, match=what):
            es_ed_finite(SWEEP_PARAMS, kern, omegas)
        with pytest.raises(AssertionError, match=what):
            es_ed_finite(SWEEP_PARAMS, kern, 100.0)
