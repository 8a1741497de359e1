"""Kernel coefficients: recursion vs. closed forms, sums, and spectrum."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from fovisc import glkernel
from fovisc.glkernel import (
    _s_conj_values,
    binom_general,
    build_kernel,
    delta_d,
    delta_p,
    delta_p_asymptotic,
    delta_p_sufficient,
    delta_s,
    s_of_omega,
)
from fovisc.models import KINDS, FoSlsParams, freq_response
from fovisc.passivity import passivity_function


def binomial_route(alpha, n_mem):
    """Independent oracle: c_i = (-1)^i C(alpha, i) straight from scipy."""
    i = np.arange(n_mem + 1)
    return (-1.0) ** i * special.binom(alpha, i)


class TestBuildKernel:
    def test_frozen_example_half(self):
        k = build_kernel(0.5, 3, 0.001)
        np.testing.assert_allclose(k.coeffs, [1.0, -0.5, -0.125, -0.0625], rtol=0, atol=1e-15)

    def test_backward_difference_at_order_one(self):
        k = build_kernel(1.0, 4, 0.001)
        np.testing.assert_allclose(k.coeffs, [1.0, -1.0, 0.0, 0.0, 0.0], rtol=0, atol=0)

    def test_zero_memory(self):
        assert build_kernel(0.5, 0, 0.001).coeffs.tolist() == [1.0]

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_recursion_matches_binomial_route(self, alpha):
        k = build_kernel(alpha, 500, 0.001)
        assert np.max(np.abs(k.coeffs - binomial_route(alpha, 500))) < 1e-12

    def test_recursion_matches_own_binomials(self):
        k = build_kernel(0.37, 300, 0.001)
        mine = np.array([(-1.0) ** i * binom_general(0.37, i) for i in range(301)])
        assert np.max(np.abs(k.coeffs - mine)) < 1e-12

    @given(
        alpha=st.floats(0.01, 0.999),
        n_mem=st.integers(1, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_and_decay_invariants(self, alpha, n_mem):
        c = build_kernel(alpha, n_mem, 0.001).coeffs
        assert c[0] == 1.0
        assert np.all(c[1:] < 0.0)
        tail = np.abs(c[1:])
        assert np.all(np.diff(tail) < 0.0)  # |c_{i+1}| < |c_i| for i >= 1
        assert np.sum(c) > 0.0  # partial sums stay positive

    def test_immutability(self):
        k = build_kernel(0.5, 5, 0.001)
        with pytest.raises(ValueError):
            k.coeffs[0] = 2.0

    @pytest.mark.parametrize(
        "alpha,n_mem,t_samp",
        [(0.0, 3, 0.001), (1.5, 3, 0.001), (-0.2, 3, 0.001), (0.5, -1, 0.001), (0.5, 3, 0.0)],
    )
    def test_domain_errors(self, alpha, n_mem, t_samp):
        with pytest.raises(ValueError):
            build_kernel(alpha, n_mem, t_samp)


class TestOrderDerivative:
    @given(alpha=st.floats(0.01, 1.0) | st.just(1.0), n_mem=st.sampled_from([0, 1, 2, 30]))
    @settings(max_examples=40, deadline=None)
    def test_matches_high_precision_oracle(self, alpha, n_mem):
        # d/dalpha of c_i = (-1)^i C(alpha, i), an entire function of alpha,
        # so alpha = 1 (where c_i = 0 for i >= 2) needs no one-sided rule
        import mpmath

        mpmath.mp.dps = 30
        dc = glkernel._coeffs_dalpha(build_kernel(alpha, n_mem, 0.001))
        ref = [
            float(mpmath.diff(lambda a, i=i: (-1) ** i * mpmath.binomial(a, i), mpmath.mpf(alpha)))
            for i in range(n_mem + 1)
        ]
        np.testing.assert_allclose(dc, ref, rtol=1e-12, atol=1e-15)

    def test_order_one_closed_form(self):
        # at alpha = 1: dc_1 = -1 and dc_i = 1/(i(i-1)) for i >= 2
        dc = glkernel._coeffs_dalpha(build_kernel(1.0, 6, 0.001))
        i = np.arange(2, 7)
        np.testing.assert_allclose(dc, [0.0, -1.0, *(1.0 / (i * (i - 1)))], rtol=1e-15)


class TestBinomGeneral:
    def test_product_examples(self):
        assert binom_general(0.5, 2) == pytest.approx(-0.125, abs=1e-15)
        assert binom_general(1.5, 2) == pytest.approx(0.375, abs=1e-15)

    def test_integer_reduction(self):
        for n in (0, 1, 4, 9):
            for k in range(0, 12):
                expected = math.comb(n, k) if k <= n else 0.0
                assert binom_general(float(n), k) == expected

    def test_negative_upper_argument(self):
        # needed for C(N - alpha, N) with N = 0
        assert binom_general(-0.5, 1) == pytest.approx(-0.5, abs=1e-15)
        assert binom_general(-2.0, 3) == pytest.approx(-4.0, abs=1e-12)

    @given(
        alpha=st.floats(-0.99, 0.99).filter(lambda a: abs(a) > 1e-6),
        k=st.sampled_from((2047, 2048)) | st.integers(0, 2048),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_high_precision_oracle(self, alpha, k):
        # scipy.special.binom itself drifts to ~1e-10 relative for tiny
        # upper arguments, so the referee is 40-digit arithmetic
        import mpmath

        mpmath.mp.dps = 40
        ref = float(mpmath.binomial(mpmath.mpf(alpha), k))
        ours = binom_general(alpha, k)
        assert ours == pytest.approx(ref, rel=1e-13, abs=1e-300)

    @given(
        alpha=st.floats(-0.99, 0.99).filter(lambda a: abs(a) > 1e-6),
        k=st.sampled_from((2049, 3000, 6000)) | st.integers(2049, 6000),
    )
    @example(alpha=1.01e-6, k=6000)
    @example(alpha=-2.06e-4, k=6000)
    @settings(max_examples=40, deadline=None)
    def test_log_gamma_route_matches_high_precision_oracle(self, alpha, k):
        # past k = 2048, where a log-gamma form once took over; the examples
        # sit next to Gamma's poles (alpha - k + 1), where that form dropped
        # alpha's low digits (2.3e-7 at alpha = 1.01e-6, k = 6000)
        import mpmath

        mpmath.mp.dps = 40
        ref = float(mpmath.binomial(mpmath.mpf(alpha), k))
        ours = binom_general(alpha, k)
        assert math.copysign(1.0, ours) == math.copysign(1.0, ref)
        assert ours == pytest.approx(ref, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("alpha", [0.05, 0.203, 0.5, 0.7, 0.99])
    def test_product_equals_the_per_term_loop(self, alpha):
        # below the reflection the vectorized product rounds as the loop does,
        # term for term, so the closed forms keep their bits; reflected, the
        # low-frequency ES of the material at N = 476 moves in its 12th digit
        def loop(a, k):
            out = np.longdouble(1.0)
            for j in range(k):
                out *= (np.longdouble(a) - j) / (j + 1)
            return float(out)

        for n in [476, *range(1, 2049, 11)]:
            for a, k in ((n - alpha, n), (n - alpha, n - 1), (alpha, n + 1)):
                assert binom_general(a, k) == loop(a, k), (a, k)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            binom_general(0.5, -1)


class TestDeltaSums:
    def test_delta_p_values(self):
        assert delta_p(build_kernel(0.5, 1, 0.001)) == pytest.approx(1.5, abs=1e-15)
        assert delta_p(build_kernel(0.5, 3, 0.001)) == pytest.approx(1.4375, abs=1e-15)
        for n in (1, 2, 7):
            assert delta_p(build_kernel(1.0, n, 0.001)) == pytest.approx(2.0, abs=0)

    def test_delta_p_asymptotic(self):
        assert delta_p_asymptotic(0.5) == pytest.approx(math.sqrt(2.0))
        assert delta_p_asymptotic(1.0) == 2.0
        assert delta_p_asymptotic(1e-9) == pytest.approx(1.0)

    def test_delta_p_sufficient_values(self):
        assert delta_p_sufficient(0.5, 1) == pytest.approx(math.sqrt(2.0) + 0.125, abs=1e-15)
        assert delta_p_sufficient(0.5, 3) == pytest.approx(math.sqrt(2.0) + 0.0390625, abs=1e-15)

    def test_delta_p_sufficient_rejects_even(self):
        with pytest.raises(ValueError):
            delta_p_sufficient(0.5, 2)

    @given(alpha=st.floats(0.05, 0.95), n_half=st.integers(0, 150))
    @settings(max_examples=60, deadline=None)
    def test_odd_bracketing(self, alpha, n_half):
        n = 2 * n_half + 1
        dp = delta_p(build_kernel(alpha, n, 0.001))
        assert 2.0**alpha < dp < delta_p_sufficient(alpha, n)

    @given(alpha=st.floats(0.05, 0.95), n_half=st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_even_below_asymptote(self, alpha, n_half):
        dp = delta_p(build_kernel(alpha, 2 * n_half, 0.001))
        assert dp < 2.0**alpha

    def test_parity_matched_convergence(self):
        alpha = 0.5
        gaps_odd = [abs(delta_p(build_kernel(alpha, n, 0.001)) - 2.0**alpha) for n in (3, 11, 51, 201)]
        gaps_even = [abs(delta_p(build_kernel(alpha, n, 0.001)) - 2.0**alpha) for n in (4, 12, 52, 202)]
        assert gaps_odd == sorted(gaps_odd, reverse=True)
        assert gaps_even == sorted(gaps_even, reverse=True)
        assert gaps_odd[-1] < 1e-3

    def test_delta_s_values(self):
        assert delta_s(0.5, 1) == pytest.approx(0.5, abs=1e-15)
        assert delta_s(0.5, 2) == pytest.approx(0.375, abs=1e-15)
        for n in (1, 4, 9):
            assert delta_s(1.0, n) == 0.0

    def test_delta_d_values(self):
        assert delta_d(0.5, 1) == pytest.approx(0.5, abs=1e-15)
        assert delta_d(0.5, 2) == pytest.approx(0.75, abs=1e-15)
        for n in (2, 5, 11):
            assert delta_d(1.0, n) == pytest.approx(1.0, abs=1e-12)

    def test_delta_d_rejects_zero_memory(self):
        with pytest.raises(ValueError):
            delta_d(0.5, 0)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.99])
    @pytest.mark.parametrize("n_mem", [2047, 2048, 2049, 10001, 16383, 20001])
    def test_closed_forms_match_high_precision_oracle(self, alpha, n_mem):
        # the oracle takes the closed forms' own float argument N - alpha.  The
        # partial products C(N - alpha, j) climb to ~2^N: N = 16383 is the
        # longest taken unreflected, at N = 20001 they would pass the extended
        # range.  An extended-precision product lands within ~2e-16 here, a
        # float64 one ~1e-14 off.
        import mpmath

        mpmath.mp.dps = 40
        upper = mpmath.mpf(n_mem - alpha)
        ref_s = mpmath.binomial(upper, n_mem)
        assert delta_s(alpha, n_mem) == pytest.approx(float(ref_s), rel=1e-15)
        ref_d = alpha * mpmath.binomial(upper, n_mem - 1)
        assert delta_d(alpha, n_mem) == pytest.approx(float(ref_d), rel=1e-15)
        if n_mem % 2:
            a = mpmath.mpf(alpha)
            ref_p = 2**a - mpmath.binomial(a, n_mem + 1)
            assert delta_p_sufficient(alpha, n_mem) == pytest.approx(float(ref_p), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.1, 0.45, 0.8, 1.0])
    @pytest.mark.parametrize("n_mem", [1, 2, 17, 100, 500])
    def test_closed_forms_match_direct_sums(self, alpha, n_mem):
        # 1e-12 on the scale-normalized difference: delta_d reaches ~28 at
        # N=500 where the float64 recursion feeding the direct sum already
        # carries a few-e-12 of absolute noise.
        c = build_kernel(alpha, n_mem, 0.001).coeffs
        direct_s = math.fsum(c)
        assert abs(delta_s(alpha, n_mem) - direct_s) < 1e-12
        direct_d = -math.fsum(i * ci for i, ci in enumerate(c))
        assert abs(delta_d(alpha, n_mem) - direct_d) < 1e-12 * max(1.0, abs(direct_d))


class TestSpectrum:
    def test_boundary_values(self):
        k = build_kernel(0.35, 40, 0.001)
        s0 = s_of_omega(k, 0.0)
        s_nyq = s_of_omega(k, k.nyquist)
        assert s0.imag == pytest.approx(0.0, abs=1e-12)
        assert s0.real == pytest.approx(delta_s(0.35, 40), abs=1e-12)
        assert s_nyq.imag == pytest.approx(0.0, abs=1e-12)
        assert s_nyq.real == pytest.approx(delta_p(k), abs=1e-12)

    def test_quarter_band_example(self):
        k = build_kernel(0.5, 3, 0.001)
        s = s_of_omega(k, math.pi / (2 * k.t_samp))
        assert s == pytest.approx(1.125 - 0.4375j, abs=1e-12)
        assert s.conjugate() == pytest.approx(1.125 + 0.4375j, abs=1e-12)

    def test_magnitude_bound(self):
        k = build_kernel(0.6, 200, 0.001)
        cap = float(np.sum(np.abs(k.coeffs)))
        assert np.all(np.abs(s_of_omega(k, np.linspace(0.0, k.nyquist, 37))) <= cap + 1e-12)

    def test_rejects_out_of_band(self):
        k = build_kernel(0.5, 10, 0.001)
        with pytest.raises(ValueError):
            s_of_omega(k, -1.0)
        with pytest.raises(ValueError):
            s_of_omega(k, 1.01 * k.nyquist)

    @pytest.mark.parametrize("n_mem, count", [(10, 300), (100, 300), (10001, 37), (65535, 70)])
    def test_batch_equals_scalar_calls_off_the_grid(self, n_mem, count):
        # a frequency's value must not depend on the other frequencies in the
        # call: off the FFT grid each one is its own row product (300 spans a
        # chunk boundary: 256 frequencies, or 64 at N = 65535)
        k = build_kernel(0.43, n_mem, 0.001)
        params = FoSlsParams(k0=0.7, k1=3.0, b1=1.5, alpha=0.43)
        omegas = np.random.default_rng(n_mem).uniform(0.0, k.nyquist, count)
        evaluators = [lambda w: s_of_omega(k, w), lambda w: passivity_function(params, k, w)]
        evaluators += [lambda w, kind=kind: freq_response(kind, params, k, w) for kind in KINDS]
        for evaluate in evaluators:
            batch = evaluate(omegas)
            assert batch.tolist() == [evaluate(w) for w in omegas]


def direct_spectrum(kernel, omegas, rows=128):
    """Oracle: sum_k c_k e^{-ik w T} as an explicit matrix product, in row blocks."""
    k = np.arange(kernel.n_mem + 1)
    wt = omegas * kernel.t_samp
    return np.concatenate(
        [np.exp(-1j * np.outer(wt[i : i + rows], k)) @ kernel.coeffs for i in range(0, wt.size, rows)]
    )


def uniform_grid(kernel, g):
    return np.linspace(0.0, kernel.nyquist, g + 1)[1:]


class TestFftSpectrum:
    """The uniform-grid spectrum is a folded real FFT; it must equal the direct sum."""

    @pytest.mark.parametrize("g", [2, 3, 64, 1000])
    @pytest.mark.parametrize("n_case", ["0", "1", "2G-2", "2G-1", "2G", "2G+1", "10001"])
    def test_matches_direct_sum(self, g, n_case):
        n_mem = {"0": 0, "1": 1, "2G-2": 2 * g - 2, "2G-1": 2 * g - 1, "2G": 2 * g,
                 "2G+1": 2 * g + 1, "10001": 10001}[n_case]
        k = build_kernel(0.37, n_mem, 0.001)
        omegas = uniform_grid(k, g)
        want = direct_spectrum(k, omegas)
        got = _s_conj_values(k, omegas)
        assert got.shape == (g,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @given(alpha=st.floats(0.01, 1.0), n_mem=st.integers(0, 3000), g=st.integers(2, 300))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sum_property(self, alpha, n_mem, g):
        k = build_kernel(alpha, n_mem, 0.0005)
        omegas = uniform_grid(k, g)
        want = direct_spectrum(k, omegas)
        assert np.max(np.abs(_s_conj_values(k, omegas) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_mem, g", [(100, 2), (101, 256), (501, 8192), (10001, 1024)])
    def test_nyquist_bin_is_real_delta_p(self, n_mem, g):
        k = build_kernel(0.5, n_mem, 0.001)
        s = _s_conj_values(k, uniform_grid(k, g))
        assert s[-1].imag == 0.0
        assert abs(s[-1].real - delta_p(k)) <= 1e-13 * np.max(np.abs(s))

    def test_off_grid_frequencies_take_the_direct_sum(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("FFT path taken")

        k = build_kernel(0.5, 300, 0.001)
        grid = uniform_grid(k, 512)
        off = grid.copy()
        off[7] = np.nextafter(off[7], np.inf)
        monkeypatch.setattr(glkernel.np.fft, "rfft", no_fft)
        with pytest.raises(AssertionError, match="FFT path taken"):
            _s_conj_values(k, grid)
        got = _s_conj_values(k, off)
        want = direct_spectrum(k, off)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
