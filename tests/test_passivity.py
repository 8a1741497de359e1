"""Passivity function, closed-form bounds, reductions, and region scans."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fovisc import glkernel, models, passivity
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


def dense_max(params, kern):
    """Maximum of f over a 2**20-point grid (~50 points per memory term at
    N = 20,000), taken again on 401 points across the two cells around it."""
    omegas = np.linspace(0.0, kern.nyquist, 2**20 + 1)[1:]
    i = int(np.argmax(passivity_function(params, kern, omegas)))
    local = np.linspace(omegas[max(i - 1, 0)], omegas[min(i + 1, omegas.size - 1)], 401)
    return float(np.max(passivity_function(params, kern, np.append(local, omegas[i]))))


def scalar_parabolic_search(params, kern, grid):
    """The even-N search one frequency at a time: grid maximum of f, a
    65-point scan of the two cells around it, then parabolic steps whose
    stencil shrinks from the scan spacing h0 as h -> h^2/(10 h0) down to
    1e-6 of a cell, on the spectrum's Taylor expansion about the grid point;
    it never ends below the grid maximum."""
    omegas = np.linspace(0.0, kern.nyquist, grid + 1)[1:]
    values = passivity_function(params, kern, omegas)
    i = int(np.argmax(values))
    centre, scale = omegas[i], T * (kern.n_mem + 1)
    taylor = glkernel._s_conj_taylor(kern, centre, glkernel._taylor_terms((omegas[1] - omegas[0]) * scale))

    def f(x):
        s = glkernel._taylor_values(taylor, np.array([(x - centre) * scale]))
        return float(passivity._f_values(params, T, np.array([x]), s)[0])

    lo, hi = omegas[max(i - 1, 0)], omegas[min(i + 1, grid - 1)]
    tol = (omegas[1] - omegas[0]) * 1e-6
    scan = [lo + (hi - lo) * float(u) for u in np.linspace(0.0, 1.0, 65)]
    scanned = [f(x) for x in scan]
    p, h = scan[scanned.index(max(scanned))], (hi - lo) / 64
    h0 = h
    while True:
        p = min(max(p, lo + h), hi - h)
        x = [p - h, p, p + h]
        f_lo, f_mid, f_hi = (f(v) for v in x)
        bend = f_lo - 2.0 * f_mid + f_hi
        if math.isfinite(bend) and bend < 0.0:
            p = p + min(max(h * (f_lo - f_hi) / (2.0 * bend), -h), h)
        else:
            p = x[[f_lo, f_mid, f_hi].index(max(f_lo, f_mid, f_hi))]
        h = h * (h / (10.0 * h0))
        if 2.0 * h <= tol:
            break
    x = min(max(p, lo), hi)
    f_star = f(x)
    return (omegas[i], values[i]) if f_star < values[i] else (x, f_star)


def scalar_grid_search(params, kern, grid):
    """The even-N search one frequency at a time: grid maximum of f, then a
    golden section inside the best grid cell that never ends below it."""
    omegas = np.linspace(0.0, kern.nyquist, grid + 1)[1:]
    values = passivity_function(params, kern, omegas)
    i = int(np.argmax(values))
    a, b = omegas[max(i - 1, 0)], omegas[min(i + 1, grid - 1)]
    tol = (omegas[1] - omegas[0]) * 1e-6
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = passivity_function(params, kern, c), passivity_function(params, kern, d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = passivity_function(params, kern, d)
        else:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = passivity_function(params, kern, c)
    x = 0.5 * (a + b)
    f_star = passivity_function(params, kern, x)
    return (omegas[i], values[i]) if f_star < values[i] else (x, f_star)


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

    def test_one_row_search_is_the_scalar_parabolic_search(self):
        # max_passivity runs the array search with one row; it must take the
        # arithmetic of a search run one frequency at a time, to the bit, and
        # find the maximum the golden section on direct sums found
        rng = np.random.default_rng(13)
        for _ in range(12):
            params, kern = random_admissible(rng, odd_n=False, n_max=300)
            grid = int(rng.choice([256, 1024, 8192]))
            result = max_passivity(params, kern, grid)
            # the search grid is never coarser than 4(N+1) points
            points = passivity._grid(kern, grid).size
            assert points == models._fft_len(max(grid, 4 * (kern.n_mem + 1)))
            assert (result.omega_star, result.b_min) == scalar_parabolic_search(params, kern, points)
            grid_max = float(np.max(passivity_function(params, kern, passivity._grid(kern, grid))))
            assert result.b_min >= grid_max
            assert result.b_min == pytest.approx(scalar_grid_search(params, kern, points)[1], rel=1e-13)

    def test_rows_refined_together_end_as_rows_refined_alone(self):
        # at alpha 0.5, N = 10 some maxima sit in the last grid cell and some
        # inside, so a search of many rows (as region_scan runs one on its
        # columns) carries brackets of two widths and spectra expanded about
        # different grid points; each row must end where the one-row search
        # of max_passivity ends
        kern = build_kernel(0.5, 10, T)
        grid = 256
        omegas = np.linspace(0.0, kern.nyquist, grid + 1)[1:]
        b1, k1 = (v.ravel() for v in np.meshgrid([0.001, 0.01, 0.05, 0.4, 2.0], [0.01, 0.1, 1.0, 10.0]))
        params = [FoSlsParams(0.0, float(k), float(b), 0.5) for k, b in zip(k1, b1)]
        values = [passivity_function(p, kern, omegas) for p in params]
        i_best = np.array([int(np.argmax(v)) for v in values])
        spectrum = passivity._cell_spectrum(kern, omegas, i_best)

        def f(rows, x):
            columns = SimpleNamespace(k0=0.0, k1=k1[rows, None], b1=b1[rows, None], alpha=0.5)
            return passivity._f_values(columns, T, x, spectrum(rows, x))

        w, f_star = passivity._parabolic_max(f, *passivity._cell(omegas, i_best))
        for j, p in enumerate(params):
            i = i_best[j]
            together = (omegas[i], values[j][i]) if f_star[j] < values[j][i] else (w[j], f_star[j])
            alone = max_passivity(p, kern, grid)
            assert together == (alone.omega_star, alone.b_min)
        assert set(i_best == grid - 1) == {True, False}

    def test_long_memory_surrogate_is_monotone(self):
        kern = build_kernel(0.5, 10001, T)
        omegas = np.linspace(0.0, kern.nyquist, 1025)[1:]
        values = passivity_function(UNIT_FM, kern, omegas)
        assert np.all(np.diff(values) >= -1e-9)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            max_passivity(UNIT_FM, build_kernel(0.5, 10, T), 128)

    @pytest.mark.parametrize(
        "grid, n_mem, points",
        [(8192, 100, 8192), (2048, 100, 2048), (8191, 100, 8192), (257, 10, 270),
         (999983, 1000, 10**6), (256, 2000, 8100)],
    )
    def test_grid_is_a_five_smooth_count(self, grid, n_mem, points):
        # a requested count with a large prime factor is rounded up like the
        # 4(N+1) floor, so the grid spectrum's FFT stays fast
        omegas = passivity._grid(build_kernel(0.5, n_mem, T), grid)
        assert omegas.size == points
        assert omegas[-1] == math.pi / T and omegas[0] == omegas[-1] / points

    def test_long_even_memory_finds_the_dense_maximum(self):
        # f ripples once per memory term: at N = 20,000 the default 8,192
        # points are under half a point per term, and land on a lobe 5.7e-9
        # (relative) below the peak
        params = FoSlsParams(0.0, 1.0, 1.0, 0.3)
        kern = build_kernel(0.3, 20000, T)
        assert max_passivity(params, kern).b_min == pytest.approx(dense_max(params, kern), rel=1e-12)


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

    @pytest.mark.parametrize("n_mem", [100, 101])
    def test_margin_against_a_plant_damping(self, n_mem):
        kern = build_kernel(0.5, n_mem, T)
        b_min = max_passivity(UNIT_FM, kern, 1024).b_min
        assert max_passivity(UNIT_FM, kern, 1024).margin_ok is None
        assert max_passivity(UNIT_FM, kern, 1024, b_plant=1.01 * b_min).margin_ok is True
        assert max_passivity(UNIT_FM, kern, 1024, b_plant=b_min).margin_ok is False
        with pytest.raises(ValueError, match="plant damping must be a number, got nan"):
            max_passivity(UNIT_FM, kern, 1024, b_plant=math.nan)
        if n_mem % 2:
            with pytest.raises(ValueError, match="plant damping must be a number, got nan"):
                bound_closed_form(UNIT_FM, kern, b_plant=math.nan)

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

    @pytest.mark.parametrize("n_mem", [10, 100])
    @pytest.mark.parametrize("kind", ["fo_sls", "fo_kv", "fo_maxwell"])
    def test_fractional_kinds_reject_even_memory(self, kind, n_mem):
        # at even N the maximum of f is interior: the Nyquist value of fo_kv at
        # alpha 0.2, N 10 sits 0.41% below it, an unsafe bound
        params = FoSlsParams(0.0, 5.0, 2.0, 0.2)
        with pytest.raises(ValueError, match="odd memory length"):
            special_case_bound(kind, params, build_kernel(0.2, n_mem, T))

    @pytest.mark.parametrize("n_mem", [2, 10, 100])
    @pytest.mark.parametrize("kind", ["io_sls", "io_kv", "io_maxwell"])
    def test_integer_order_kinds_take_even_memory(self, kind, n_mem):
        # every order-one kernel with N >= 1 has the spectrum 1 - e^{-iwT}, 2 at
        # Nyquist, so the even-N bound is the odd-N one
        params = FoSlsParams(0.5, 5.0, 2.0, 1.0)
        even = special_case_bound(kind, params, build_kernel(1.0, n_mem, T))
        assert even == special_case_bound(kind, params, build_kernel(1.0, n_mem + 1, T))
        if kind == "io_sls":  # and the grid search finds its maximum there
            assert max_passivity(params, build_kernel(1.0, n_mem, T)).b_min == pytest.approx(even, rel=1e-9)

    @pytest.mark.parametrize("kind", ["io_sls", "io_kv", "io_maxwell"])
    def test_integer_order_kinds_take_any_kernel_order(self, kind):
        # the io_* kinds force alpha = 1 and dp = 2; only T comes from the kernel
        params = FoSlsParams(0.5, 1.0, 1.0, 0.3)
        assert special_case_bound(kind, params, build_kernel(0.9, 101, T)) == special_case_bound(
            kind, params, build_kernel(0.3, 101, T)
        )


FIVE_COLUMNS = [0.001, 0.05, 0.4, 1.0, 2.0]


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

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.01, 1.0),
        half_n=st.integers(0, 150),
        b_plant=st.floats(1e-5, 0.05),
        ratios=st.lists(st.one_of(st.floats(1e-6, 0.9), st.floats(1.1, 100.0)), min_size=1, max_size=8),
    )
    def test_odd_memory_inversion_is_the_nyquist_root(self, alpha, half_n, b_plant, ratios):
        # At wT = pi the spectrum is the real dp, and _boundary_k1's quadratic
        # factors as (kappa + D)((T/2 D - lam) kappa - lam D) = 0, with
        # D = dp/T^a and lam = b/B1: the odd-N inverse is its positive root,
        # and there is none where b_plant >= sup = (T/2) B1 D.  Near the cap
        # both forms lose accuracy as 1/(1 - b/sup), so the draws keep
        # b/sup at most 0.9 or at least 1.1.
        kern = build_kernel(alpha, 2 * half_n + 1, T)
        dp, t_a = delta_p(kern), T**alpha
        b1 = 2.0 * b_plant * t_a / (T * dp * np.array(ratios))  # b_plant / sup is the ratio
        above = b_plant >= (T / 2.0) * b1 * dp / t_a
        assert np.array_equal(above, np.array(ratios) > 1.0)
        region = region_scan(alpha, kern, b_plant, b1, k1_max=1e300)
        roots = passivity._boundary_k1(b1, alpha, T, b_plant, np.array(math.pi / T), np.array(dp))
        assert np.array_equal(region.capped, above)
        assert np.array_equal(np.isinf(roots), above)
        np.testing.assert_allclose(region.k1[~above], roots[~above], rtol=1e-12, atol=0.0)

    def test_nonpositive_damping_is_signalled(self):
        kern = build_kernel(0.5, 101, T)
        region = region_scan(0.5, kern, 0.0, [1.0, 2.0], k1_max=100.0)
        assert not region.feasible
        assert np.all(region.k1 == 0.0)

    def test_even_memory_grid_path(self):
        kern = build_kernel(0.5, 100, T)
        b = 0.0025
        region = region_scan(0.5, kern, b, [100.0], k1_max=50.0, grid_points=1024)
        k1 = float(region.k1[0])
        assert max_passivity(FoSlsParams(0.0, k1, 100.0, 0.5), kern, 1024).b_min <= b
        assert max_passivity(FoSlsParams(0.0, k1 + 0.06, 100.0, 0.5), kern, 1024).b_min > b

    def test_kernel_order_mismatch(self):
        with pytest.raises(ValueError):
            region_scan(0.4, build_kernel(0.5, 101, T), 0.0025, [1.0], 10.0)

    @staticmethod
    def scan_against_reference_bisection(alpha, kern, b_plant, b1_grid, k1_max, resolution, grid):
        """region_scan against a plain bisection on max_passivity per column
        down to resolution: a column the bisection caps is capped, and any
        other column's k1 lies in its final bracket [lo, hi], hi - lo <= resolution."""
        region = region_scan(alpha, kern, b_plant, b1_grid, k1_max, grid)
        for b1, k1, capped in zip(b1_grid, region.k1, region.capped):

            def bound(k1_val):
                return max_passivity(FoSlsParams(0.0, k1_val, b1, alpha), kern, grid).b_min

            if bound(k1_max) <= b_plant:
                assert (k1, capped) == (k1_max, True)
                continue
            lo, hi = 0.0, k1_max
            while hi - lo > resolution:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if bound(mid) <= b_plant else (lo, mid)
            assert not capped and lo <= k1 <= hi
        return region

    @pytest.mark.parametrize(
        "alpha, n_mem, b_plant, grid, b1_grid",
        [
            pytest.param(0.5, 100, 0.0025, 256, FIVE_COLUMNS, id="0.5-100-0.0025-256"),
            pytest.param(0.3, 60, 0.004, 512, FIVE_COLUMNS, id="0.3-60-0.004-512"),
            pytest.param(0.8, 200, 0.0015, 1024, FIVE_COLUMNS, id="0.8-200-0.0015-1024"),
            pytest.param(0.5, 100, 0.0025, 2048, np.linspace(0.05, 2.0, 40).tolist(), id="bench-40-columns"),
            pytest.param(1.0, 100, 0.0025, 256, FIVE_COLUMNS, id="last-grid-cell"),
            # refinements of last-cell and interior brackets, of two widths, together
            pytest.param(0.5, 10, 0.004, 256, [0.01, 0.05, 0.4, 2.0], id="mixed-cells"),
        ],
    )
    def test_even_memory_matches_reference_bisection(self, alpha, n_mem, b_plant, grid, b1_grid):
        # the scan inverts the bound per frequency and refines the least root
        # of all columns together; the bisection it replaced is the oracle
        kern = build_kernel(alpha, n_mem, T)
        region = self.scan_against_reference_bisection(alpha, kern, b_plant, b1_grid, 1000.0, 0.1, grid)
        assert any(region.capped) and not all(region.capped)
        if alpha == 1.0:
            omegas = np.linspace(0.0, kern.nyquist, grid + 1)[1:]
            for b1, k1 in zip(b1_grid, region.k1):
                f = passivity_function(FoSlsParams(0.0, k1, b1, alpha), kern, omegas)
                assert int(np.argmax(f)) == grid - 1

    def test_each_column_stops_at_its_own_resolution(self):
        # from [0, 102.4] an oracle bracket is 0.1 wide after ten halvings
        # where every midpoint was exact, and a rounded midpoint leaves it
        # wider, so the oracle stops after 10 or 11 steps per column: each
        # column's boundary lies in its own final bracket
        kern = build_kernel(0.5, 100, T)
        b1_grid = np.linspace(0.05, 2.0, 40)[::3]
        self.scan_against_reference_bisection(0.5, kern, 0.0025, b1_grid, 102.4, 0.1, 256)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.02, 1.0),
        half_n=st.integers(0, 150),
        b1_grid=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=4),
        b_plant=st.floats(5e-4, 0.01),
        k1_max=st.floats(1.0, 2000.0),
        resolution=st.floats(0.01, 1.0),
    )
    def test_even_memory_lock_step_property(self, alpha, half_n, b1_grid, b_plant, k1_max, resolution):
        kern = build_kernel(alpha, 2 * half_n, T)
        self.scan_against_reference_bisection(alpha, kern, b_plant, b1_grid, k1_max, resolution, 256)

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(0.02, 1.0),
        half_n=st.integers(0, 150),
        b1=st.floats(1e-3, 20.0),
        b_plant=st.floats(5e-4, 0.01),
    )
    def test_even_memory_boundary_is_the_admissible_set(self, alpha, half_n, b1, b_plant):
        # the admissible K1 of a column is [0, k1]: k1 passes on a grid four
        # times finer than the scan's, a step past it fails, and K1 below it
        # passes (a second positive root at some frequency would break this)
        kern = build_kernel(alpha, 2 * half_n, T)
        grid, k1_max = 2048, 1000.0
        region = region_scan(alpha, kern, b_plant, [b1], k1_max, grid)
        k1 = float(region.k1[0])

        def bound(k1_val):
            return max_passivity(FoSlsParams(0.0, k1_val, b1, alpha), kern, 4 * grid).b_min

        assert bound(k1) <= b_plant * (1.0 + 1e-12)
        if not region.capped[0]:
            assert bound(k1 * (1.0 + 1e-6)) > b_plant
        for fraction in (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999):
            assert bound(fraction * k1) <= b_plant

    def test_long_even_memory_boundary_is_admissible(self):
        # the default 2,048 points alone put the boundary at K1 = 6.44003586,
        # where f exceeds b_plant by 2.9e-8 (relative) near wT = 3.14129
        kern = build_kernel(0.5, 10000, T)
        k1 = float(region_scan(0.5, kern, 0.0025, [0.5], 1000.0).k1[0])
        assert dense_max(FoSlsParams(0.0, k1, 0.5, 0.5), kern) <= 0.0025

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.02, 1.0),
        half_n=st.integers(0, 400),
        b1=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=9),
        b_plant=st.floats(5e-4, 0.01),
        grid=st.sampled_from([256, 1024, 2048]),
        t_samp=st.just(T),
    )
    @example(alpha=0.5, half_n=50, b1=[0.5, 0.5, 2.0, 0.5], b_plant=0.0025, grid=2048, t_samp=T)  # tied columns
    @example(alpha=0.5, half_n=50, b1=[1e-3, 0.002, 1.0], b_plant=0.0025, grid=2048, t_samp=T)  # no root
    @example(alpha=1.0, half_n=50, b1=[0.05, 1.0, 2.0], b_plant=0.0025, grid=256, t_samp=T)  # root in the last cell
    @example(alpha=0.5, half_n=75, b1=[0.05, 1.0, 2.0], b_plant=0.0025, grid=256, t_samp=T)  # G = 625
    @example(alpha=0.5, half_n=50, b1=[1e-300, 1.0, 1e300], b_plant=0.0025, grid=2048, t_samp=T)
    # past B1 ~ 1e30 every grid root rounds to 2 b_plant / T: the first of equal roots
    @example(alpha=0.5, half_n=1, b1=[1e40, 1e60], b_plant=0.0025, grid=256, t_samp=T)
    # |D|^2 overflows, and every root is nan
    @example(alpha=0.98, half_n=1, b1=[1.0, 1e-200], b_plant=1e-250, grid=256, t_samp=1e-300)
    def test_pruned_grid_pass_is_the_full_pass(self, alpha, half_n, b1, b_plant, grid, t_samp):
        # each column's least grid root and its first grid index, as np.argmin
        # takes them over every root of the grid: the same bits
        kern = build_kernel(alpha, 2 * half_n, t_samp)
        omegas = passivity._grid(kern, grid)
        s = glkernel._s_conj_values(kern, omegas)
        b1 = np.array(b1)
        with np.errstate(all="ignore"):  # B1 = 1e-300 overflows lam |D|^2
            i_best, k1 = passivity._least_grid_roots(b1, alpha, t_samp, b_plant, omegas, s)
            roots = passivity._boundary_k1(b1[:, None], alpha, t_samp, b_plant, omegas, s)
        want = np.argmin(roots, axis=1)
        assert np.array_equal(i_best, want)
        assert np.array_equal(k1.view(np.int64), roots[np.arange(b1.size), want].view(np.int64))

    @staticmethod
    def grid_pass_shapes(monkeypatch, kern, b1_grid):
        """region_scan's k1, and the shapes of the root arrays of its grid pass
        (before refinement), split into the block bounds and the grid roots."""
        g = passivity._grid(kern, 2048).size
        blocks = -(-g // passivity._BLOCK)
        bounds, roots, refining = [], [], []
        root_step, cell_spectrum = passivity._root_step, passivity._cell_spectrum

        def recording(b1, b_plant, terms):
            out = root_step(b1, b_plant, terms)
            if not refining:
                (bounds if np.shape(terms[0]) == (blocks,) else roots).append(out.shape)
            return out

        def refine(*args):
            refining.append(True)
            return cell_spectrum(*args)

        with monkeypatch.context() as patch:
            patch.setattr(passivity, "_root_step", recording)
            patch.setattr(passivity, "_cell_spectrum", refine)
            k1 = region_scan(kern.alpha, kern, 0.0025, b1_grid, 1000.0).k1
        return k1, bounds, roots

    @pytest.mark.parametrize("n_mem, share", [(100, 0.25), (10000, 0.02)])
    def test_even_memory_grid_pass_evaluates_few_roots(self, monkeypatch, n_mem, share):
        # a count, not a timing: the bench's 40 columns evaluate 12% of the
        # (columns x G) roots at N = 100 (G = 2048) and 0.7% at N = 10^4;
        # the full pass evaluates them all
        kern = build_kernel(0.5, n_mem, T)
        b1_grid = np.linspace(0.05, 2.0, 40)
        _, bounds, roots = self.grid_pass_shapes(monkeypatch, kern, b1_grid)
        full = b1_grid.size * passivity._grid(kern, 2048).size
        assert bounds and sum(math.prod(shape) for shape in roots) <= share * full

    def test_even_memory_pass_holds_at_most_2_20_values(self, monkeypatch):
        # one (columns x grid) pass of 2,000 columns at G = 2048 peaked at
        # 186 MB, so no array of the bounds or of the grid roots holds more
        # than 2**20 values; pieces of columns and a smaller limit change no value
        kern = build_kernel(0.5, 100, T)
        b1_grid = np.linspace(0.05, 2.0, 2000)
        k1, bounds, roots = self.grid_pass_shapes(monkeypatch, kern, b1_grid)
        assert max(math.prod(shape) for shape in bounds + roots) <= 2**20
        pieces = [
            region_scan(0.5, kern, 0.0025, b1_grid[lo : lo + 400], 1000.0).k1
            for lo in range(0, b1_grid.size, 400)
        ]
        assert np.array_equal(np.concatenate(pieces), k1)
        monkeypatch.setattr(passivity, "_MAX_VALUES", 4096)
        small, bounds, roots = self.grid_pass_shapes(monkeypatch, kern, b1_grid)
        assert max(math.prod(shape) for shape in bounds + roots) <= 4096
        assert np.array_equal(small, k1)

    def test_even_memory_spectrum_computed_once(self, monkeypatch):
        # the grid spectrum is one call; refinement makes no direct-sum call
        # and expands the spectrum once about each distinct grid cell
        sizes, centres = [], []
        spectrum, taylor = passivity._s_conj_values, passivity._s_conj_taylor

        def counted(kernel, omegas):
            sizes.append(np.size(omegas))
            return spectrum(kernel, omegas)

        def expanded(kernel, omega, terms):
            centres.append(omega)
            return taylor(kernel, omega, terms)

        monkeypatch.setattr(passivity, "_s_conj_values", counted)
        monkeypatch.setattr(passivity, "_s_conj_taylor", expanded)
        kern = build_kernel(0.5, 100, T)
        b1_grid = np.linspace(0.05, 2.0, 40)
        region_scan(0.5, kern, 0.0025, b1_grid, 1000.0)
        assert sizes == [2048]
        omegas = passivity._grid(kern, 2048)
        roots = passivity._boundary_k1(b1_grid[:, None], 0.5, T, 0.0025, omegas, spectrum(kern, omegas))
        cells = np.unique(np.argmin(roots[np.isfinite(roots).any(axis=1)], axis=1))
        # the bench's 40 columns share 2 cells
        assert centres == omegas[cells].tolist() and len(centres) == 2
        sizes.clear()
        centres.clear()
        result = max_passivity(UNIT_FM, kern)
        assert sizes == [8192] and len(centres) == 1
        assert abs(centres[0] - result.omega_star) <= kern.nyquist / 8192  # within a cell of it
        region_scan(0.5, build_kernel(0.5, 101, T), 0.0025, [0.05, 0.5, 2.0], 1000.0)
        assert sizes == [8192] and len(centres) == 1  # odd N: closed form, no spectrum at all
