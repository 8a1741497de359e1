"""Passivity function, closed-form bounds, reductions, and region scans."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovisc import passivity
from fovisc.glkernel import build_kernel, delta_p
from fovisc.impedance import es_ed_finite
from fovisc.models import KINDS, FoSlsParams, freq_response
from fovisc.passivity import (
    bound_closed_form,
    bound_variants,
    max_passivity,
    passivity_function,
    region_scan,
    special_case_bound,
)

T = 0.001
UNIT_FM = FoSlsParams(k0=0.0, k1=1.0, b1=1.0, alpha=0.5)
MATERIAL_N101 = FoSlsParams(k0=-2.89, k1=5.70, b1=5.89, alpha=0.203)


def random_admissible(rng, odd_n=True, n_max=400):
    params = FoSlsParams(
        k0=float(rng.uniform(0.0, 10.0)),
        k1=float(rng.uniform(0.1, 50.0)),
        b1=float(rng.uniform(0.01, 20.0)),
        alpha=float(rng.uniform(0.05, 0.99)),
    )
    n = int(rng.integers(1, n_max // 2)) * 2 + (1 if odd_n else 2)
    return params, build_kernel(params.alpha, n, T)


class TestPassivityFunction:
    def test_nyquist_value_zero_k0(self):
        kern = build_kernel(0.5, 101, T)
        dp = delta_p(kern)
        expected = (UNIT_FM.k1 * T / 2.0) * UNIT_FM.b1 * dp / (UNIT_FM.b1 * dp + UNIT_FM.k1 * T**0.5)
        assert passivity_function(UNIT_FM, kern, math.pi / T) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.89e-4, rel=1e-3)

    def test_nyquist_order_one(self):
        params = FoSlsParams(k0=3.0, k1=8.0, b1=0.5, alpha=1.0)
        expected = 3.0 * T / 2.0 + 8.0 * 0.5 * T / (2.0 * 0.5 + 8.0 * T)
        assert passivity_function(params, build_kernel(1.0, 7, T), math.pi / T) == pytest.approx(expected, rel=1e-12)

    def test_independent_complex_oracle(self):
        kern = build_kernel(0.5, 101, T)
        for w in (50.0, 800.0, 2500.0, math.pi / T):
            z_inv = np.exp(-1j * w * T)
            d = np.polyval(kern.coeffs[::-1], z_inv) / T**0.5  # sum c_i z^-i
            h = UNIT_FM.k0 + UNIT_FM.k1 * UNIT_FM.b1 * d / (UNIT_FM.k1 + UNIT_FM.b1 * d)
            oracle = T / (2.0 * (1.0 - math.cos(w * T))) * ((1.0 - z_inv) * h).real
            assert passivity_function(UNIT_FM, kern, w) == pytest.approx(oracle, rel=1e-10)

    def test_domain_errors(self):
        kern = build_kernel(0.5, 11, T)
        with pytest.raises(ValueError):
            passivity_function(UNIT_FM, kern, 0.0)
        with pytest.raises(ValueError):
            passivity_function(UNIT_FM, kern, 1.01 * math.pi / T)

    def test_scalar_array_and_empty_calls(self):
        # a scalar takes the 1-element array path: the same bits as [w]
        kern = build_kernel(0.5, 100, T)
        omegas = np.random.default_rng(5).uniform(1.0, kern.nyquist, (3, 4))
        values = passivity_function(UNIT_FM, kern, omegas)
        assert values.shape == (3, 4)
        for idx in np.ndindex(values.shape):
            w = float(omegas[idx])
            f = passivity_function(UNIT_FM, kern, w)
            assert type(f) is float and f == passivity_function(UNIT_FM, kern, np.array([w]))[0]
            assert f == pytest.approx(values[idx], rel=1e-13)
        assert passivity_function(UNIT_FM, kern, np.array([])).shape == (0,)


class TestMaxPassivity:
    def test_odd_memory_binds_at_nyquist(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            params, kern = random_admissible(rng, odd_n=True)
            result = max_passivity(params, kern, 1024)
            assert result.method == "closed_form_odd_n"
            assert result.omega_star == kern.nyquist

    def test_even_memory_interior_maximum(self):
        kern = build_kernel(0.5, 100, T)
        result = max_passivity(UNIT_FM, kern)
        assert result.method == "grid"
        assert result.omega_star < kern.nyquist
        assert result.b_min > passivity_function(UNIT_FM, kern, kern.nyquist)
        # below the infinite-memory Nyquist value
        dp_inf = 2.0**0.5
        asym = (UNIT_FM.k1 * T / 2.0) * UNIT_FM.b1 * dp_inf / (UNIT_FM.b1 * dp_inf + UNIT_FM.k1 * T**0.5)
        assert passivity_function(UNIT_FM, kern, kern.nyquist) < asym

    def test_long_memory_surrogate_is_monotone(self):
        kern = build_kernel(0.5, 10001, T)
        omegas = np.linspace(0.0, kern.nyquist, 1025)[1:]
        values = passivity_function(UNIT_FM, kern, omegas)
        assert np.all(np.diff(values) >= -1e-9)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            max_passivity(UNIT_FM, build_kernel(0.5, 10, T), 128)


class TestClosedFormBound:
    def test_unit_maxwell_value(self):
        kern = build_kernel(0.5, 101, T)
        result = bound_closed_form(UNIT_FM, kern)
        assert result.b_min == pytest.approx(4.890652392e-4, rel=1e-9)
        assert result.method == "closed_form_odd_n"
        assert result.omega_star == kern.nyquist

    def test_order_one_reduces_to_classical(self):
        params = FoSlsParams(k0=1.0, k1=20.0, b1=0.4, alpha=1.0)
        kern = build_kernel(1.0, 15, T)
        expected = 1.0 * T / 2.0 + 20.0 * 0.4 * T / (2.0 * 0.4 + 20.0 * T)
        assert bound_closed_form(params, kern).b_min == pytest.approx(expected, rel=1e-14)

    def test_identified_material_is_renderable(self):
        kern = build_kernel(MATERIAL_N101.alpha, 101, T)
        result = bound_closed_form(MATERIAL_N101, kern, b_plant=0.0025)
        assert result.b_min < 0.0025
        assert result.margin_ok is True

    def test_rejects_even_memory(self):
        with pytest.raises(ValueError, match="odd"):
            bound_closed_form(UNIT_FM, build_kernel(0.5, 100, T))

    def test_rejects_kernel_of_another_order(self):
        params = FoSlsParams(0.0, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError, match="does not match parameter order"):
            bound_closed_form(params, build_kernel(0.5, 101, T))
        with pytest.raises(ValueError, match="does not match parameter order"):
            max_passivity(params, build_kernel(0.5, 101, T))
        with pytest.raises(ValueError, match="does not match parameter order"):
            passivity_function(params, build_kernel(0.5, 101, T), 100.0)
        with pytest.raises(ValueError, match="does not match parameter order"):
            es_ed_finite(params, build_kernel(0.5, 101, T), 100.0)
        for kind in ("fo_sls", "fo_kv", "fo_maxwell"):
            with pytest.raises(ValueError, match="does not match parameter order"):
                freq_response(kind, params, build_kernel(0.5, 101, T), 100.0)
        assert bound_closed_form(params, build_kernel(0.3, 101, T)).b_min == pytest.approx(
            4.536e-4, rel=1e-3
        )

    def test_matches_grid_maximum(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            params, kern = random_admissible(rng, odd_n=True)
            omegas = np.linspace(0.0, kern.nyquist, 8193)[1:]
            grid_max = float(np.max(passivity_function(params, kern, omegas)))
            closed = bound_closed_form(params, kern).b_min
            assert abs(closed - grid_max) / closed < 1e-6

    def test_monotone_in_each_parameter(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            params, kern = random_admissible(rng, odd_n=True)
            base = bound_closed_form(params, kern).b_min
            bumped = [
                FoSlsParams(params.k0 + 0.5, params.k1, params.b1, params.alpha),
                FoSlsParams(params.k0, params.k1 * 1.05, params.b1, params.alpha),
                FoSlsParams(params.k0, params.k1, params.b1 * 1.05, params.alpha),
            ]
            for p in bumped:
                assert bound_closed_form(p, kern).b_min >= base - 1e-15


class TestBoundVariants:
    def test_ordering_for_odd_memory(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            params, kern = random_admissible(rng, odd_n=True)
            closed = bound_closed_form(params, kern).b_min
            variants = bound_variants(params, kern)
            assert variants["sufficient"] >= closed > variants["asymptotic"]

    def test_asymptotic_uses_sqrt2_at_half_order(self):
        kern = build_kernel(0.5, 101, T)
        variants = bound_variants(UNIT_FM, kern)
        dp = math.sqrt(2.0)
        expected = (UNIT_FM.k1 * T / 2.0) * UNIT_FM.b1 * dp / (UNIT_FM.b1 * dp + UNIT_FM.k1 * T**0.5)
        assert variants["asymptotic"] == pytest.approx(expected, rel=1e-14)

    def test_order_one_all_coincide(self):
        params = FoSlsParams(k0=0.5, k1=10.0, b1=1.0, alpha=1.0)
        kern = build_kernel(1.0, 21, T)
        closed = bound_closed_form(params, kern).b_min
        variants = bound_variants(params, kern)
        assert variants["asymptotic"] == pytest.approx(closed, rel=1e-14)
        assert variants["sufficient"] == pytest.approx(closed, rel=1e-14)


class TestSpecialCaseBound:
    def test_io_kv_example(self):
        params = FoSlsParams(k0=10.0, k1=1.0, b1=0.01, alpha=1.0)
        kern = build_kernel(1.0, 3, T)
        assert special_case_bound("io_kv", params, kern) == pytest.approx(0.015, rel=1e-14)

    def test_fo_kv_formula(self):
        params = FoSlsParams(k0=2.0, k1=1.0, b1=0.7, alpha=0.4)
        kern = build_kernel(0.4, 51, T)
        dp = delta_p(kern)
        expected = 2.0 * T / 2.0 + 0.7 * dp / (2.0 * T ** (0.4 - 1.0))
        assert special_case_bound("fo_kv", params, kern) == pytest.approx(expected, rel=1e-14)

    def test_io_maxwell_is_io_sls_without_k0(self):
        params = FoSlsParams(k0=5.0, k1=12.0, b1=0.3, alpha=1.0)
        kern = build_kernel(1.0, 9, T)
        with_k0 = special_case_bound("io_sls", params, kern)
        without = special_case_bound("io_maxwell", params, kern)
        assert without == pytest.approx(with_k0 - 5.0 * T / 2.0, rel=1e-12)

    def test_finite_rows_match_general(self):
        kern_io = build_kernel(1.0, 13, T)
        params_io = FoSlsParams(k0=4.0, k1=9.0, b1=0.2, alpha=1.0)
        general = bound_closed_form(params_io, kern_io).b_min
        assert special_case_bound("io_sls", params_io, kern_io) == pytest.approx(general, rel=1e-12)
        params_fo = FoSlsParams(k0=4.0, k1=9.0, b1=0.2, alpha=0.35)
        kern_fo = build_kernel(0.35, 77, T)
        general_m = bound_closed_form(
            FoSlsParams(0.0, params_fo.k1, params_fo.b1, params_fo.alpha), kern_fo
        ).b_min
        assert special_case_bound("fo_maxwell", params_fo, kern_fo) == pytest.approx(
            general_m, rel=1e-12
        )
        assert special_case_bound("fo_sls", params_fo, kern_fo) == pytest.approx(
            bound_closed_form(params_fo, kern_fo).b_min, rel=1e-12
        )

    def test_kv_rows_match_large_k1(self):
        kern = build_kernel(0.6, 101, T)
        params = FoSlsParams(k0=1.0, k1=1.0, b1=0.5, alpha=0.6)
        row = special_case_bound("fo_kv", params, kern)
        general = bound_closed_form(FoSlsParams(1.0, 1e9, 0.5, 0.6), kern).b_min
        assert row == pytest.approx(general, rel=1e-6)
        kern_io = build_kernel(1.0, 7, T)
        params_io = FoSlsParams(k0=1.0, k1=1.0, b1=0.05, alpha=1.0)
        row_io = special_case_bound("io_kv", params_io, kern_io)
        general_io = bound_closed_form(FoSlsParams(1.0, 1e9, 0.05, 1.0), kern_io).b_min
        assert row_io == pytest.approx(general_io, rel=1e-6)

    @pytest.mark.parametrize("kind", ["fo_sls", "fo_kv", "fo_maxwell", "io_sls", "io_kv", "io_maxwell"])
    def test_rows_match_written_out_formulas(self, kind):
        # every row is (T/2) Re H(dp) of the reduced impedance; these are the
        # per-kind expressions it replaces, written out independently
        rng = np.random.default_rng(31)
        for i in range(40):
            params, kern = random_admissible(rng)
            if i % 4 == 0:
                params = FoSlsParams(params.k0, params.k1, params.b1, 1.0)
                kern = build_kernel(1.0, kern.n_mem, T)
            p, dp, t_a = params, delta_p(kern), T**params.alpha
            k0 = 0.0 if kind.endswith("_maxwell") else p.k0
            expected = {
                "io_kv": k0 * T / 2.0 + p.b1,
                "io_sls": k0 * T / 2.0 + p.k1 * p.b1 * T / (2.0 * p.b1 + p.k1 * T),
                "fo_kv": k0 * T / 2.0 + p.b1 * dp / (2.0 * t_a / T),
                "fo_sls": k0 * T / 2.0 + (p.k1 * T / 2.0) * p.b1 * dp / (p.b1 * dp + p.k1 * t_a),
            }[kind.replace("maxwell", "sls")]
            assert special_case_bound(kind, params, kern) == pytest.approx(expected, rel=1e-14)

    def test_unsupported_kind(self):
        message = f"unsupported kind 'burgers'; expected one of {KINDS}"
        with pytest.raises(ValueError, match=re.escape(message)):
            special_case_bound("burgers", UNIT_FM, build_kernel(0.5, 3, T))

    @pytest.mark.parametrize("kind", ["fo_sls", "fo_kv", "fo_maxwell"])
    def test_fractional_kinds_reject_kernel_of_another_order(self, kind):
        with pytest.raises(ValueError, match="does not match parameter order"):
            special_case_bound(kind, FoSlsParams(0.0, 1.0, 1.0, 0.3), build_kernel(0.9, 101, T))

    @pytest.mark.parametrize("kind", ["io_sls", "io_kv", "io_maxwell"])
    def test_integer_order_kinds_take_any_kernel_order(self, kind):
        # the io_* kinds force alpha = 1 and dp = 2; only T comes from the kernel
        params = FoSlsParams(0.5, 1.0, 1.0, 0.3)
        assert special_case_bound(kind, params, build_kernel(0.9, 101, T)) == special_case_bound(
            kind, params, build_kernel(0.3, 101, T)
        )


class TestRegionScan:
    def test_order_one_closed_inversion(self):
        b = 0.0025
        kern = build_kernel(1.0, 101, T)
        b1_grid = [0.01, 0.1, 1.0]
        region = region_scan(1.0, kern, b, b1_grid, k1_max=1e4)
        for b1, k1 in zip(region.b1, region.k1):
            if b1 > b:
                expected = 2.0 * b * b1 / (T * (b1 - b))
                assert k1 == pytest.approx(expected, rel=1e-12)
                # verify by substitution into the classical bound
                back = k1 * b1 * T / (2.0 * b1 + k1 * T)
                assert back == pytest.approx(b, rel=1e-9)

    def test_small_damper_column_is_capped(self):
        # at order 1 the branch bound saturates at B1, so B1 <= b admits any K1
        kern = build_kernel(1.0, 101, T)
        region = region_scan(1.0, kern, 0.0025, [0.001], k1_max=500.0)
        assert region.capped[0]
        assert region.k1[0] == 500.0

    def test_small_order_approaches_stiffness_only_constraint(self):
        # dp -> 1 and T^a -> 1: the damper degenerates to a spring of
        # stiffness B1 and the boundary solves (T/2)*series(K1, B1) = b,
        # which needs B1 > 2b/T to close at finite K1
        alpha = 0.02
        kern = build_kernel(alpha, 101, T)
        b, b1 = 0.0025, 50.0
        region = region_scan(alpha, kern, b, [b1], k1_max=1e5)
        dp = delta_p(kern)
        k1 = float(region.k1[0])
        assert not region.capped[0]
        assert dp == pytest.approx(1.0, abs=0.02)
        back = (k1 * T / 2.0) * b1 * dp / (b1 * dp + k1 * T**alpha)
        assert back == pytest.approx(b, rel=1e-9)
        series_spring = k1 * b1 / (k1 + b1)
        assert back == pytest.approx(series_spring * T / 2.0, rel=0.05)

    def test_monotone_in_plant_damping(self):
        kern = build_kernel(0.5, 101, T)
        grid = [0.5, 1.0, 2.0]
        k1_lo = region_scan(0.5, kern, 0.002, grid, k1_max=1e6).k1
        k1_hi = region_scan(0.5, kern, 0.003, grid, k1_max=1e6).k1
        assert np.all(k1_hi >= k1_lo)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.01, 1.0),
        half_n=st.integers(0, 150),
        b1=st.lists(st.floats(1e-4, 50.0), min_size=1, max_size=8),
        b_plant=st.floats(1e-5, 0.05),
        k1_max=st.floats(1.0, 1e6),
    )
    def test_odd_memory_inversion_property(self, alpha, half_n, b1, b_plant, k1_max):
        # the bound rises with K1 toward its K1 -> inf limit: an uncapped column
        # puts the bound exactly on b_plant, a capped one leaves it at or below
        kern = build_kernel(alpha, 2 * half_n + 1, T)
        region = region_scan(alpha, kern, b_plant, b1, k1_max)
        assert region.feasible
        # the per-column scalar loop it replaced, same arithmetic: equal bits
        dp, t_a = delta_p(kern), T**alpha
        for b1_j, k1_j, cap in zip(b1, region.k1, region.capped):
            inverse = None
            if b_plant < (T / 2.0) * b1_j * dp / t_a:
                inverse = 2.0 * b_plant * b1_j * dp / (T * b1_j * dp - 2.0 * b_plant * t_a)
            want_cap = inverse is None or inverse >= k1_max
            assert (cap, k1_j) == (want_cap, k1_max if want_cap else inverse)
        for b1_j, k1_j, cap in zip(region.b1, region.k1, region.capped):
            if cap:
                assert k1_j == k1_max
                at_cap = bound_closed_form(FoSlsParams(0.0, k1_max, b1_j, alpha), kern).b_min
                assert at_cap <= b_plant * (1.0 + 1e-9)
            else:
                assert 0.0 < k1_j < k1_max
                back = bound_closed_form(FoSlsParams(0.0, k1_j, b1_j, alpha), kern).b_min
                assert back == pytest.approx(b_plant, rel=1e-9)

    def test_nonpositive_damping_is_signalled(self):
        kern = build_kernel(0.5, 101, T)
        region = region_scan(0.5, kern, 0.0, [1.0, 2.0], k1_max=100.0)
        assert not region.feasible
        assert np.all(region.k1 == 0.0)

    def test_even_memory_grid_path(self):
        kern = build_kernel(0.5, 100, T)
        b = 0.0025
        region = region_scan(0.5, kern, b, [100.0], k1_max=50.0, resolution=0.05, grid_points=1024)
        k1 = float(region.k1[0])
        assert max_passivity(FoSlsParams(0.0, k1, 100.0, 0.5), kern, 1024).b_min <= b
        assert max_passivity(FoSlsParams(0.0, k1 + 0.06, 100.0, 0.5), kern, 1024).b_min > b

    def test_kernel_order_mismatch(self):
        with pytest.raises(ValueError):
            region_scan(0.4, build_kernel(0.5, 101, T), 0.0025, [1.0], 10.0)

    @pytest.mark.parametrize(
        "alpha, n_mem, b_plant, grid",
        [(0.5, 100, 0.0025, 256), (0.3, 60, 0.004, 512), (0.8, 200, 0.0015, 1024)],
    )
    def test_even_memory_matches_reference_bisection(self, alpha, n_mem, b_plant, grid):
        # the scan shares one grid spectrum and skips refinement of candidates
        # already refused on the grid; the answer must be exactly that of a
        # plain bisection on max_passivity
        kern = build_kernel(alpha, n_mem, T)
        b1_grid = np.array([0.001, 0.05, 0.4, 1.0, 2.0])
        k1_max, resolution = 1000.0, 0.1
        region = region_scan(alpha, kern, b_plant, b1_grid, k1_max, resolution, grid)

        def reference(b1):
            def bound(k1):
                return max_passivity(FoSlsParams(0.0, k1, b1, alpha), kern, grid).b_min

            if bound(k1_max) <= b_plant:
                return k1_max, True
            lo, hi = 0.0, k1_max
            while hi - lo > resolution:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if bound(mid) <= b_plant else (lo, mid)
            return lo, False

        want = [reference(b1) for b1 in b1_grid]
        assert region.k1.tolist() == [k1 for k1, _ in want]
        assert region.capped.tolist() == [cap for _, cap in want]
        assert any(region.capped) and not all(region.capped)

    def test_even_memory_spectrum_computed_once(self, monkeypatch):
        sizes = []
        spectrum = passivity._s_conj_values

        def counted(kernel, omegas):
            sizes.append(np.size(omegas))
            return spectrum(kernel, omegas)

        monkeypatch.setattr(passivity, "_s_conj_values", counted)
        kern = build_kernel(0.5, 100, T)
        region_scan(0.5, kern, 0.0025, [0.05, 0.5, 2.0], 1000.0, grid_points=512)
        assert sizes.count(512) == 1
        assert set(sizes) == {1, 512}  # the rest are single-point refinements
        sizes.clear()
        region_scan(0.5, build_kernel(0.5, 101, T), 0.0025, [0.05, 0.5, 2.0], 1000.0)
        assert sizes == []  # odd N: closed form, no spectrum at all
