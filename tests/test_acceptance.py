"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here, not configurable.  Scale conventions: {N, mm, s};
plant of record m = 7.34e-5 N*s^2/mm, b = 0.0025 N*s/mm; sampling 1 kHz.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from fovisc.fitting import (
    CreepProtocol,
    FitConfig,
    RelaxationProtocol,
    fit,
    synth_experiment,
)
from fovisc.glkernel import (
    build_kernel,
    binom_general,
    delta_d,
    delta_p,
    delta_p_asymptotic,
    delta_p_sufficient,
    delta_s,
)
from fovisc.impedance import (
    bfo_response,
    es_ed_asymptotic,
    es_ed_finite,
    es_ed_lowfreq,
    special_case_es_ed,
)
from fovisc.models import DiscreteVE, FoSlsParams, freq_response
from fovisc.passivity import (
    bound_closed_form,
    max_passivity,
    passivity_function,
    region_scan,
    special_case_bound,
)
from fovisc.simloop import (
    ForceChirp,
    PlantParams,
    empirical_boundary,
    plant_ident,
    simulate,
)

T = 0.001
NYQ = math.pi / T
PLANT = PlantParams(mass=7.34e-5, damping=0.0025)
UNIT_FM = FoSlsParams(k0=0.0, k1=1.0, b1=1.0, alpha=0.5)
MATERIAL_N101 = FoSlsParams(k0=-2.89, k1=5.70, b1=5.89, alpha=0.203)


def _pass(num, title, t0, detail=""):
    extra = f" [{detail}]" if detail else ""
    print(f"\n[acceptance] criterion {num} ({title}): PASS in {time.perf_counter() - t0:.1f}s{extra}")


def _draw(rng, odd, n_max=501):
    params = FoSlsParams(
        k0=float(rng.uniform(0.0, 10.0)),
        k1=float(rng.uniform(0.1, 50.0)),
        b1=float(rng.uniform(0.01, 20.0)),
        alpha=float(rng.uniform(0.05, 0.99)),
    )
    n = 2 * int(rng.integers(1, n_max // 2)) + (1 if odd else 2)
    return params, build_kernel(params.alpha, n, T)


def test_criterion_01_kernel_correctness():
    t0 = time.perf_counter()
    n_grid = (1, 2, 5, 10, 25, 51, 100, 251, 500)
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        kern = build_kernel(alpha, 500, T)
        i = np.arange(501)
        reference = (-1.0) ** i * special.binom(alpha, i)
        assert np.max(np.abs(kern.coeffs - reference)) < 1e-12
        for n in n_grid:
            c = kern.coeffs[: n + 1]
            ds_direct = math.fsum(c)
            assert abs(delta_s(alpha, n) - ds_direct) < 1e-12 * max(1.0, abs(ds_direct))
            if n >= 1:
                dd_direct = -math.fsum(k * ck for k, ck in enumerate(c))
                assert abs(delta_d(alpha, n) - dd_direct) < 1e-12 * max(1.0, abs(dd_direct))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, "kernel correctness", t0)


def test_criterion_02_alternating_sum_bracketing():
    t0 = time.perf_counter()
    for alpha in np.arange(0.1, 0.91, 0.1):
        for n in (3, 5, 9, 15, 21, 41, 61, 101, 201, 401):
            dp = delta_p(build_kernel(alpha, n, T))
            assert 2.0**alpha < dp < 2.0**alpha - binom_general(alpha, n + 1)
            assert delta_p_sufficient(alpha, n) == pytest.approx(
                2.0**alpha - binom_general(alpha, n + 1), rel=1e-14
            )
    gap = abs(delta_p(build_kernel(0.5, 101, T)) - delta_p_asymptotic(0.5))
    assert gap < 3e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, "alternating-sum bracketing", t0, f"gap at (0.5, 101) = {gap:.2e}")


def test_criterion_03_binding_frequency_parity():
    t0 = time.perf_counter()
    # odd memory: Nyquist maximum, above the infinite-memory value there
    kern_odd = build_kernel(0.5, 101, T)
    result_odd = max_passivity(UNIT_FM, kern_odd, 8192)
    assert result_odd.omega_star == NYQ
    dp_inf = 2.0**0.5
    f_inf_nyq = (UNIT_FM.k1 * T / 2.0) * UNIT_FM.b1 * dp_inf / (UNIT_FM.b1 * dp_inf + UNIT_FM.k1 * T**0.5)
    assert result_odd.b_min > f_inf_nyq
    # even memory: interior maximum, Nyquist value below the asymptote
    kern_even = build_kernel(0.5, 100, T)
    result_even = max_passivity(UNIT_FM, kern_even, 8192)
    assert result_even.omega_star < NYQ
    assert passivity_function(UNIT_FM, kern_even, NYQ) < f_inf_nyq
    # property form over random odd-memory draws
    rng = np.random.default_rng(1003)
    omegas = np.linspace(0.0, NYQ, 2049)[1:]
    for _ in range(100):
        params, kern = _draw(rng, odd=True)
        values = passivity_function(params, kern, omegas)
        assert int(np.argmax(values)) == omegas.size - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(3, "binding-frequency parity", t0, f"interior max at wT = {result_even.omega_star * T:.4f}")


def test_criterion_04_closed_form_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    omegas = np.linspace(0.0, NYQ, 8193)[1:]
    worst = 0.0
    for _ in range(100):
        params, kern = _draw(rng, odd=True)
        grid_max = float(np.max(passivity_function(params, kern, omegas)))
        closed = bound_closed_form(params, kern).b_min
        worst = max(worst, abs(closed - grid_max) / closed)
    assert worst < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(4, "closed-form bound exactness", t0, f"worst vs grid = {worst:.2e}")


def test_criterion_05_bound_table_unification():
    t0 = time.perf_counter()
    # finite rows at 1e-12
    io = FoSlsParams(k0=4.0, k1=9.0, b1=0.2, alpha=1.0)
    kern_io = build_kernel(1.0, 13, T)
    assert special_case_bound("io_sls", io, kern_io) == pytest.approx(
        bound_closed_form(io, kern_io).b_min, rel=1e-12
    )
    assert special_case_bound("io_sls", io, kern_io) == pytest.approx(
        io.k0 * T / 2.0 + io.k1 * io.b1 * T / (2.0 * io.b1 + io.k1 * T), rel=1e-12
    )
    assert special_case_bound("io_maxwell", io, kern_io) == pytest.approx(
        bound_closed_form(FoSlsParams(0.0, io.k1, io.b1, 1.0), kern_io).b_min, rel=1e-12
    )
    fo = FoSlsParams(k0=4.0, k1=9.0, b1=0.2, alpha=0.35)
    kern_fo = build_kernel(0.35, 77, T)
    assert special_case_bound("fo_sls", fo, kern_fo) == pytest.approx(
        bound_closed_form(fo, kern_fo).b_min, rel=1e-12
    )
    assert special_case_bound("fo_maxwell", fo, kern_fo) == pytest.approx(
        bound_closed_form(FoSlsParams(0.0, fo.k1, fo.b1, fo.alpha), kern_fo).b_min, rel=1e-12
    )
    # infinite-branch-stiffness rows against K1 = 1e9 at 1e-6
    assert special_case_bound("fo_kv", fo, kern_fo) == pytest.approx(
        bound_closed_form(FoSlsParams(fo.k0, 1e9, fo.b1, fo.alpha), kern_fo).b_min, rel=1e-6
    )
    io_small = FoSlsParams(k0=4.0, k1=9.0, b1=0.05, alpha=1.0)
    assert special_case_bound("io_kv", io_small, kern_io) == pytest.approx(
        bound_closed_form(FoSlsParams(4.0, 1e9, 0.05, 1.0), kern_io).b_min, rel=1e-6
    )
    _pass(5, "bound-table unification", t0)


def test_criterion_06_impedance_table_and_consistency():
    t0 = time.perf_counter()
    # all six rows against the general formulas under their substitutions
    io = FoSlsParams(k0=10.0, k1=32.0, b1=0.01, alpha=1.0)
    kern_io = build_kernel(1.0, 9, T)
    fo = FoSlsParams(k0=2.0, k1=5.0, b1=0.5, alpha=0.6)
    big_fo = FoSlsParams(2.0, 1e9, 0.5, 0.6)
    big_io = FoSlsParams(10.0, 1e9, 0.01, 1.0)
    for th in np.linspace(0.05, 1.0, 12) * math.pi:
        w = th / T
        es, ed = special_case_es_ed("io_sls", io, w, T)
        assert es == pytest.approx(es_ed_finite(io, kern_io, w)[0], rel=1e-12)
        assert ed == pytest.approx(es_ed_finite(io, kern_io, w)[1], rel=1e-12, abs=1e-15)
        es, ed = special_case_es_ed("io_maxwell", io, w, T)
        assert es == pytest.approx(es_ed_finite(FoSlsParams(0.0, 32.0, 0.01, 1.0), kern_io, w)[0], rel=1e-12)
        es_sls, ed_sls = special_case_es_ed("fo_sls", fo, w, T)
        es_ref, ed_ref = es_ed_asymptotic(fo, w, T)
        assert es_sls == pytest.approx(es_ref, rel=1e-12)
        assert ed_sls == pytest.approx(ed_ref, rel=1e-12, abs=1e-15)
        es_m, ed_m = special_case_es_ed("fo_maxwell", fo, w, T)
        es_ref, ed_ref = es_ed_asymptotic(FoSlsParams(0.0, 5.0, 0.5, 0.6), w, T)
        assert es_m == pytest.approx(es_ref, rel=1e-12, abs=1e-15)
        es_kv, ed_kv = special_case_es_ed("fo_kv", fo, w, T)
        es_big, ed_big = es_ed_asymptotic(big_fo, w, T)
        assert es_kv == pytest.approx(es_big, rel=1e-6)
        assert ed_kv == pytest.approx(ed_big, rel=1e-6, abs=1e-12)
        es_ikv, ed_ikv = special_case_es_ed("io_kv", io, w, T)
        assert es_ikv == pytest.approx(es_ed_finite(big_io, kern_io, w)[0], rel=1e-6)
        assert ed_ikv == pytest.approx(es_ed_finite(big_io, kern_io, w)[1], rel=1e-6, abs=1e-9)
    # finite-memory vs asymptotic at 1e-6: reachable at N ~ 1e4 for high order
    # (truncation tail ~ |c_N| / (2 sin(wT/2)), i.e. O(N^(-1-alpha)))
    hi = FoSlsParams(10.0, 32.0, 0.01, 0.95)
    kern_hi = build_kernel(0.95, 10001, T)
    for th in np.linspace(0.01 * math.pi, math.pi, 400):
        w = th / T
        es_a, ed_a = es_ed_asymptotic(hi, w, T)
        assert abs(es_ed_finite(hi, kern_hi, w)[0] - es_a) < 1e-6 * abs(es_a)
        if abs(ed_a) > 1e-10:
            assert abs(es_ed_finite(hi, kern_hi, w)[1] - ed_a) < 1e-6 * abs(ed_a)
    # low-frequency corollaries and sign of the dissipative part
    rng = np.random.default_rng(1006)
    for _ in range(15):
        params, kern = _draw(rng, odd=bool(rng.integers(0, 2)), n_max=301)
        es0, ed0 = es_ed_lowfreq(params, kern)
        assert es_ed_finite(params, kern, 1e-3)[0] == pytest.approx(es0, rel=1e-3)
        assert es_ed_finite(params, kern, 1e-3)[1] == pytest.approx(ed0, rel=1e-3)
        for w in np.linspace(0.002, 1.0, 25) * NYQ:
            assert es_ed_finite(params, kern, w)[1] >= 0.0
    # discrete fractional element approaches B1*(i w)^alpha
    for alpha in (0.25, 0.5, 0.9):
        w = 1e-3 / T
        assert abs(bfo_response(2.0, alpha, w, T) / (2.0 * (1j * w) ** alpha) - 1.0) < 1e-3
    _pass(6, "impedance-table unification and consistency", t0)


def test_criterion_07_frequency_time_cross_validation():
    t0 = time.perf_counter()
    params = FoSlsParams(k0=1.0, k1=5.0, b1=2.0, alpha=0.6)
    kern = build_kernel(0.6, 101, T)
    ve = DiscreteVE(params, kern)
    n = np.arange(3000)
    worst = 0.0
    for frac in np.linspace(0.02, 0.95, 10):
        w = frac * NYQ
        ve.reset()
        x = np.sin(w * n * T)
        f = np.array([ve.force_step(xi) for xi in x])
        sl = slice(2000, 3000)
        design = np.column_stack([np.sin(w * n[sl] * T), np.cos(w * n[sl] * T)])
        a, b = np.linalg.lstsq(design, f[sl], rcond=None)[0]
        worst = max(worst, abs((a + 1j * b) / freq_response("fo_sls", params, kern, w) - 1.0))
    assert worst < 1e-3
    # relaxation and creep plateaus against the DC stiffness (material of record)
    from fovisc.models import creep_response, relaxation_response

    kern3 = build_kernel(MATERIAL_N101.alpha, 101, T)
    es0, _ = es_ed_lowfreq(MATERIAL_N101, kern3)
    _, force = relaxation_response(MATERIAL_N101, kern3, 5.0, 3.0)
    assert force[-1] == pytest.approx(5.0 * es0, rel=0.02)
    _, disp = creep_response(MATERIAL_N101, kern3, 3.0, 3.0, 0.5, 3.0)
    assert disp[int(3.0 / T) - 1] == pytest.approx(3.0 / es0, rel=0.02)
    assert disp[-1] == pytest.approx(0.5 / es0, rel=0.02)
    _pass(7, "frequency/time cross-validation", t0, f"worst gain/phase mismatch = {worst:.1e}")


def test_criterion_08_simulated_stability_boundary():
    t0 = time.perf_counter()
    b1 = 100.0  # stiffly damped branch: binding mechanism matches the bound
    ratios = {}
    for alpha in (0.25, 0.5, 0.75, 1.0):
        kern = build_kernel(alpha, 101, T)
        analytical = float(region_scan(alpha, kern, PLANT.damping, [b1], k1_max=1e9).k1[0])
        k1_star = empirical_boundary(
            PLANT,
            alpha,
            b1,
            kern,
            (0.6 * analytical, 1.7 * analytical),
            resolution=0.1,
            duration=10.0,
        )
        ratios[alpha] = k1_star / analytical
        assert abs(k1_star - analytical) / analytical < 0.10, (alpha, k1_star, analytical)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    detail = ", ".join(f"a={a}: {r:.3f}" for a, r in ratios.items())
    _pass(8, "simulated stability boundary", t0, detail)


def test_criterion_09_plant_identification():
    t0 = time.perf_counter()
    trace = simulate(
        PLANT, None, ForceChirp(f0=1.0, f1=10.0, span=15.0, amplitude=0.05), 15.0, t_samp=T
    )
    result = plant_ident(trace)
    assert result.params.mass == pytest.approx(PLANT.mass, rel=5e-3)
    assert result.params.damping == pytest.approx(PLANT.damping, rel=5e-3)
    assert result.r_squared > 0.999
    _pass(
        9,
        "plant identification",
        t0,
        f"m err {abs(result.params.mass / PLANT.mass - 1):.1e}, "
        f"b err {abs(result.params.damping / PLANT.damping - 1):.1e}, R2 {result.r_squared:.6f}",
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_criterion_10_fit_recovery_and_memory_trend():
    t0 = time.perf_counter()
    # self-recovery from the identified-material generator at matching memory
    kern = build_kernel(MATERIAL_N101.alpha, 101, T)
    data = [
        synth_experiment(MATERIAL_N101, kern, CreepProtocol()),
        synth_experiment(MATERIAL_N101, kern, RelaxationProtocol()),
    ]
    result = fit(data, 101, FitConfig())
    assert result.nrmse < 0.005
    assert result.params.alpha == pytest.approx(MATERIAL_N101.alpha, abs=0.02)
    # memory-length trend on fixed longer-memory generator data: the fitted
    # error must be nonincreasing in the window length
    gen_kern = build_kernel(MATERIAL_N101.alpha, 301, T)
    gen_data = [
        synth_experiment(MATERIAL_N101, gen_kern, CreepProtocol()),
        synth_experiment(MATERIAL_N101, gen_kern, RelaxationProtocol()),
    ]
    errs = [fit(gen_data, n, FitConfig()).nrmse for n in (51, 101, 151)]
    assert errs[0] >= errs[1] >= errs[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _pass(
        10,
        "fit recovery and memory trend",
        t0,
        f"recovery nrmse {result.nrmse:.2e}, trend {errs[0]:.3%} -> {errs[1]:.3%} -> {errs[2]:.3%}",
    )


def test_criterion_11_identified_parameters_comply_with_bound():
    t0 = time.perf_counter()
    kern = build_kernel(MATERIAL_N101.alpha, 101, T)
    result = bound_closed_form(MATERIAL_N101, kern, b_plant=0.0025)
    assert result.b_min < 0.0025
    assert result.margin_ok is True
    # re-derived, not assumed: the grid search must agree
    grid = max_passivity(MATERIAL_N101, kern, 8192)
    assert grid.b_min == pytest.approx(result.b_min, rel=1e-9)
    assert grid.b_min < 0.0025
    _pass(11, "identified parameters comply with the bound", t0, f"b_min = {result.b_min:.3e}")
