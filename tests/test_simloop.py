"""Sampled loop: exact plant stepping, energy observer, boundary search,
plant identification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovisc import simloop
from fovisc.glkernel import build_kernel
from fovisc.models import DiscreteVE, FoSlsParams
from fovisc.passivity import bound_closed_form, region_scan
from fovisc.simloop import (
    ForceChirp,
    Impulse,
    PlantParams,
    PureSpring,
    Scripted,
    SimTrace,
    empirical_boundary,
    energy_observer,
    is_unstable,
    plant_ident,
    simulate,
)
from fovisc.util import n_samples

T = 0.001
PLANT = PlantParams(mass=7.34e-5, damping=0.0025)


def loop_kernel(alpha, n_mem=101):
    return build_kernel(alpha, n_mem, T)


def mp_plant_gains(mass, damping, t_samp):
    """The textbook plant-step gains and Pn's second coefficient, in enough
    digits to survive their cancellation at small bT/m."""
    import mpmath

    m, b, T = (mpmath.mpf(v) for v in (mass, damping, t_samp))
    if b == 0:
        return [1, T / m, T, T * T / (2 * m), T * T / (2 * m)]
    mpmath.mp.dps = 40 + 3 * int(-mpmath.log10(b * T / m))
    m, b, T = (mpmath.mpf(v) for v in (mass, damping, t_samp))
    d = mpmath.exp(-b * T / m)
    g_x = (m / b) * (1 - d)
    c1 = (T - g_x) / b
    return [d, (1 - d) / b, g_x, c1, g_x * (1 - d) / b - c1 * d]


def reference_simulate(plant, ve, excitation, duration, t_samp=None):
    """The loop stepped one sample at a time: a fresh DiscreteVE.force_step per
    sample, the exact ZOH plant step (gains from mp_plant_gains, so none of
    the textbook forms' cancellation at small bT/m), and an early exit once
    |x| exceeds the divergence limit or is not finite."""
    T = ve.kernel.t_samp if t_samp is None else float(t_samp)
    m, b = plant.mass, plant.damping
    steps = n_samples(duration, T)
    if isinstance(ve, DiscreteVE):
        stepper = DiscreteVE(ve.params, ve.kernel).force_step
    elif isinstance(ve, PureSpring):
        stepper = lambda x_new: ve.k * x_new
    else:
        stepper = lambda x_new: 0.0
    f_script = excitation.force_samples(steps, T)
    rows = np.zeros((steps, 5))
    x, v = 0.0, excitation.initial_velocity(m)
    decay, gain_f, gain_x, c1, _ = (float(g) for g in mp_plant_gains(m, b, T))
    energy = 0.0
    diverged = False
    n_done = steps
    for n in range(steps):
        f_ve = stepper(x)
        f_cmd = float(f_script[n])
        energy += f_ve * v * T
        rows[n] = x, v, f_ve, f_cmd, energy
        if abs(x) > simloop.DIVERGENCE_LIMIT_MM or not math.isfinite(x):
            diverged = True
            n_done = n + 1
            break
        f_tot = f_cmd - f_ve
        x, v = x + gain_x * v + c1 * f_tot, decay * v + gain_f * f_tot
    rows = rows[:n_done]
    return SimTrace(
        t=np.arange(n_done) * T,
        position=rows[:, 0],
        velocity=rows[:, 1],
        force=rows[:, 2],
        force_cmd=rows[:, 3],
        energy=rows[:, 4],
        t_samp=T,
        excite_end=float(excitation.end_time(T)),
        diverged=diverged,
    )


def assert_traces_agree(new, ref, rel=1e-9):
    """Same length and flag; each column within rel * max|column| of the reference."""
    assert new.t.size == ref.t.size
    assert new.diverged == ref.diverged
    np.testing.assert_array_equal(new.t, ref.t)
    for name in ("position", "velocity", "force", "force_cmd", "energy"):
        a, r = getattr(new, name), getattr(ref, name)
        finite = np.isfinite(r)
        np.testing.assert_array_equal(np.isfinite(a), finite, err_msg=name)
        scale = float(np.max(np.abs(r[finite]), initial=0.0))
        np.testing.assert_allclose(a[finite], r[finite], rtol=0.0, atol=rel * scale, err_msg=name)


class TestPlantGains:
    @given(frac=st.floats(0.0, 1e-3) | st.floats(1e-3, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_continuous_in_damping(self, frac):
        # b in [0, 1e-3]*m/T, where the textbook forms cancel, and beyond
        mass = 7.34e-5
        ours = simloop._plant_gains(PlantParams(mass, frac * mass / T), T)
        for got, want in zip(ours, mp_plant_gains(mass, frac * mass / T, T)):
            assert got == pytest.approx(float(want), rel=1e-14)

    @pytest.mark.parametrize("damping", [0.0, 1e-12, 1e-9])
    def test_free_plant_under_a_constant_push(self, damping):
        # 0.001 N for 1 s on 73.4 g ends at 6.798 mm; b = 1e-12 once gave -918.8 mm
        import mpmath

        mpmath.mp.dps = 60
        mass, push, t = mpmath.mpf(7.34e-5), mpmath.mpf(0.001), 999 * mpmath.mpf(T)
        if damping:
            b = mpmath.mpf(damping)
            want = push * mass / b**2 * (b * t / mass - 1 + mpmath.exp(-b * t / mass))
        else:
            want = push * t**2 / (2 * mass)
        trace = simulate(PlantParams(7.34e-5, damping), None, Scripted(np.full(1000, 0.001)), 1.0, T)
        assert trace.position[-1] == pytest.approx(float(want), rel=1e-12)
        assert trace.position[-1] == pytest.approx(6.798, rel=1e-4)


class TestSimulate:
    def test_zero_everything_stays_zero(self):
        ve = DiscreteVE(FoSlsParams(1.0, 2.0, 1.0, 0.5), loop_kernel(0.5, 21))
        trace = simulate(PLANT, ve, Impulse(momentum=0.0), 0.5)
        assert np.all(trace.position == 0.0)
        assert np.all(trace.force == 0.0)
        assert np.all(trace.energy == 0.0)

    def test_impulse_free_plant_exponential_decay(self):
        j = 0.01
        trace = simulate(PLANT, None, Impulse(momentum=j), 1.0, t_samp=T)
        v0 = j / PLANT.mass
        assert trace.velocity[0] == pytest.approx(v0, rel=1e-14)
        expected = v0 * np.exp(-PLANT.damping * trace.t / PLANT.mass)
        np.testing.assert_allclose(trace.velocity, expected, rtol=1e-10)

    def test_constant_force_matches_closed_form(self):
        force = 0.004
        steps = 200
        trace = simulate(
            PLANT, None, Scripted(np.full(steps, force)), steps * T, t_samp=T
        )
        m, b = PLANT.mass, PLANT.damping
        t = trace.t
        v_exact = (force / b) * (1.0 - np.exp(-b * t / m))
        x_exact = (force / b) * t - (force / b) * (m / b) * (1.0 - np.exp(-b * t / m))
        np.testing.assert_allclose(trace.velocity, v_exact, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(trace.position, x_exact, rtol=1e-10, atol=1e-15)

    def test_undamped_path_is_exact(self):
        plant = PlantParams(mass=2e-4, damping=0.0)
        force = 0.002
        steps = 100
        trace = simulate(plant, None, Scripted(np.full(steps, force)), steps * T, t_samp=T)
        t = trace.t
        np.testing.assert_allclose(trace.velocity, force * t / plant.mass, rtol=1e-13)
        np.testing.assert_allclose(
            trace.position, 0.5 * force * t**2 / plant.mass, rtol=1e-12, atol=1e-18
        )

    def test_deterministic(self):
        ve = DiscreteVE(FoSlsParams(0.0, 2.0, 100.0, 0.5), loop_kernel(0.5))
        t1 = simulate(PLANT, ve, Impulse(0.01), 2.0)
        ve2 = DiscreteVE(FoSlsParams(0.0, 2.0, 100.0, 0.5), loop_kernel(0.5))
        t2 = simulate(PLANT, ve2, Impulse(0.01), 2.0)
        assert np.array_equal(t1.position, t2.position)
        assert np.array_equal(t1.energy, t2.energy)

    def test_divergence_guard(self):
        # order-1 rendered damper far beyond b + 2m/T blows up the loop
        ve = DiscreteVE(FoSlsParams(0.0, 1e4, 50.0, 1.0), build_kernel(1.0, 3, T))
        trace = simulate(PLANT, ve, Impulse(0.01), 5.0)
        assert trace.diverged
        assert trace.t.size < 5000

    def test_requires_period_without_kernel(self):
        with pytest.raises(ValueError):
            simulate(PLANT, None, Impulse(0.01), 1.0)

    @pytest.mark.parametrize("duration, rows", [(0.0005, 0), (0.001, 1), (0.002, 2)])
    def test_records_shorter_than_the_kick(self, duration, rows):
        ve = DiscreteVE(FoSlsParams(0.0, 2.0, 100.0, 0.5), loop_kernel(0.5))
        new = simulate(PLANT, ve, Impulse(0.01), duration)
        assert new.t.size == rows
        assert_traces_agree(new, reference_simulate(PLANT, ve, Impulse(0.01), duration))

    def test_unsupported_rendered_law(self):
        with pytest.raises(TypeError, match="cannot render"):
            simulate(PLANT, object(), Impulse(0.01), 1.0, t_samp=T)

    def test_leaves_the_stepping_state_alone(self):
        ve = DiscreteVE(FoSlsParams(1.0, 2.0, 100.0, 0.5), loop_kernel(0.5, 21))
        x = np.linspace(0.0, 1.0, 30)
        before = [ve.force_step(xi) for xi in x]
        simulate(PLANT, ve, Impulse(0.01), 0.5)
        after = [ve.force_step(xi) for xi in x]
        ve.reset()
        assert after == [ve.force_step(xi) for xi in np.concatenate([x, x])][30:]
        assert before != after

    def test_excitation_records(self):
        assert np.array_equal(Impulse(0.01).force_samples(4, T), np.zeros(4))
        script = Scripted(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(script.force_samples(5, T), [1.0, 2.0, 3.0, 0.0, 0.0])
        assert np.array_equal(script.force_samples(2, T), [1.0, 2.0])
        chirp = ForceChirp(f0=1.0, f1=10.0, span=0.004, amplitude=0.5)
        rec = chirp.force_samples(7, T)
        t = np.arange(7) * T
        expected = [0.5 * math.sin(2.0 * math.pi * (ti + 4.5 * ti * ti / 0.004)) for ti in t[:5]]
        np.testing.assert_allclose(rec[:5], expected, rtol=1e-15, atol=1e-17)
        assert np.array_equal(rec[5:], [0.0, 0.0])

    @pytest.mark.parametrize(
        "law, excitation, plant",
        [
            (DiscreteVE(FoSlsParams(0.0, 1e4, 50.0, 1.0), build_kernel(1.0, 3, T)), Impulse(0.01), PLANT),
            (DiscreteVE(FoSlsParams(-2.89, 5.7, 5.89, 0.203), build_kernel(0.203, 101, T)),
             ForceChirp(f0=1.0, f1=10.0, span=1.5, amplitude=0.05), PLANT),
            (PureSpring(2.5), Impulse(0.0001), PlantParams(mass=7.34e-5, damping=5e-5)),
            (PureSpring(1.0), Impulse(0.01), PlantParams(mass=7.34e-5, damping=0.0)),
            (None, ForceChirp(f0=1.0, f1=10.0, span=1.5, amplitude=0.05), PLANT),
        ],
        ids=["diverging-order-one", "material-chirp", "overstiff-spring", "undamped-spring", "free-chirp"],
    )
    def test_matches_the_per_sample_loop(self, law, excitation, plant):
        new = simulate(plant, law, excitation, 2.0, t_samp=T)
        assert_traces_agree(new, reference_simulate(plant, law, excitation, 2.0, t_samp=T))

    def test_small_static_stiffness_behind_a_stiff_damper(self):
        # K0 + K1 = 0.0027 N/mm against B1/T^a ~ 4.6e5: the loop polynomial
        # cancels near z = 1, and only the refinement pass keeps the drift of
        # a randomly forced run as close to the per-sample loop as its own
        # roundoff (unrefined: 4.5e-10 of the column maximum)
        plant = PlantParams(mass=7.34e-5, damping=0.0052)
        ve = DiscreteVE(FoSlsParams(-0.01, 0.0127, 752.0, 0.927), loop_kernel(0.927, 77))
        excitation = Scripted(np.random.default_rng(288).normal(0.0, 0.01, 1600))
        new = simulate(plant, ve, excitation, 1.6)
        assert_traces_agree(new, reference_simulate(plant, ve, excitation, 1.6), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(0.05, 1.0),
        n_mem=st.integers(0, 120),
        k0=st.floats(-1.0, 5.0),
        log_k1=st.floats(math.log(1e-2), math.log(1e4)),
        log_b1=st.floats(math.log(1e-2), math.log(1e3)),
        damping=st.one_of(st.just(0.0), st.floats(1e-4, 0.01)),
        scripted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        duration=st.floats(0.01, 3.0),
    )
    def test_matches_the_per_sample_loop_property(
        self, alpha, n_mem, k0, log_k1, log_b1, damping, scripted, seed, duration
    ):
        plant = PlantParams(mass=7.34e-5, damping=damping)
        ve = DiscreteVE(FoSlsParams(k0, math.exp(log_k1), math.exp(log_b1), alpha), loop_kernel(alpha, n_mem))
        rng = np.random.default_rng(seed)
        if scripted:
            excitation = Scripted(rng.normal(0.0, 0.01, int(rng.integers(1, 3000))))
        else:
            excitation = Impulse(float(rng.uniform(-0.02, 0.02)))
        new = simulate(plant, ve, excitation, duration)
        assert_traces_agree(new, reference_simulate(plant, ve, excitation, duration))


class TestEnergyObserver:
    def test_zero_force_trace(self):
        trace = simulate(PLANT, None, Impulse(0.005), 1.0, t_samp=T)
        report = energy_observer(trace)
        assert report.min_energy == 0.0
        assert not report.violation

    def test_passive_spring_no_violation(self):
        # rendered spring with k*T/2 well under the plant damping
        trace = simulate(PLANT, PureSpring(1.0), Impulse(0.01), 4.0, t_samp=T)
        assert not energy_observer(trace).violation
        assert not is_unstable(trace)

    def test_overstiff_spring_violation(self):
        weak = PlantParams(mass=7.34e-5, damping=5e-5)
        trace = simulate(weak, PureSpring(2.5), Impulse(0.0001), 4.0, t_samp=T)
        assert energy_observer(trace).violation or trace.diverged

    def test_passive_by_construction_draws(self):
        rng = np.random.default_rng(31)
        count = 0
        while count < 50:
            alpha = float(rng.uniform(0.1, 1.0))
            b1 = float(rng.uniform(0.5, 200.0))
            k1 = float(rng.uniform(0.1, 100.0))
            params = FoSlsParams(0.0, k1, b1, alpha)
            kern = loop_kernel(alpha)
            if not bound_closed_form(params, kern, b_plant=PLANT.damping / 1.1).margin_ok:
                continue  # keep only sets passive with a 10% margin
            count += 1
            ve = DiscreteVE(params, kern)
            trace = simulate(PLANT, ve, Impulse(0.01), 10.0)
            assert not energy_observer(trace).violation, (alpha, b1, k1)


class TestStabilityVerdicts:
    def test_half_and_triple_boundary(self):
        alpha, b1 = 0.5, 100.0
        kern = loop_kernel(alpha)
        k1_star = float(region_scan(alpha, kern, PLANT.damping, [b1], k1_max=1e9).k1[0])
        stable = simulate(
            PLANT, DiscreteVE(FoSlsParams(0.0, 0.5 * k1_star, b1, alpha), kern), Impulse(0.01), 6.0
        )
        assert not is_unstable(stable)
        unstable = simulate(
            PLANT, DiscreteVE(FoSlsParams(0.0, 3.0 * k1_star, b1, alpha), kern), Impulse(0.01), 6.0
        )
        assert is_unstable(unstable)


class TestEmpiricalBoundary:
    def test_order_one_matches_inversion(self):
        alpha, b1 = 1.0, 100.0
        kern = loop_kernel(alpha)
        analytical = float(region_scan(alpha, kern, PLANT.damping, [b1], k1_max=1e9).k1[0])
        k1_star = empirical_boundary(
            PLANT,
            alpha,
            b1,
            kern,
            (0.6 * analytical, 1.7 * analytical),
            resolution=0.1,
            n_trials=2,
            duration=8.0,
        )
        assert abs(k1_star - analytical) / analytical < 0.10

    def test_no_bracket_errors(self):
        alpha, b1 = 0.5, 100.0
        kern = loop_kernel(alpha)
        analytical = float(region_scan(alpha, kern, PLANT.damping, [b1], k1_max=1e9).k1[0])
        with pytest.raises(ValueError, match="still stable"):
            empirical_boundary(
                PLANT, alpha, b1, kern, (0.3 * analytical, 0.6 * analytical),
                n_trials=1, duration=4.0,
            )
        with pytest.raises(ValueError, match="already unstable"):
            empirical_boundary(
                PLANT, alpha, b1, kern, (2.0 * analytical, 4.0 * analytical),
                n_trials=1, duration=4.0,
            )

    def test_reference_loop_gives_the_same_boundary(self, monkeypatch):
        alpha, b1 = 0.5, 100.0
        kern = loop_kernel(alpha)
        analytical = float(region_scan(alpha, kern, PLANT.damping, [b1], k1_max=1e9).k1[0])
        args = (PLANT, alpha, b1, kern, (0.6 * analytical, 1.7 * analytical))
        kw = dict(resolution=0.1, n_trials=2, duration=4.0)
        k1_star = empirical_boundary(*args, **kw)
        monkeypatch.setattr(simloop, "simulate", reference_simulate)
        assert empirical_boundary(*args, **kw) == k1_star

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(resolution=0.0), "resolution"),
            (dict(resolution=-1.0), "resolution"),
            (dict(resolution=math.nan), "resolution"),
            (dict(resolution=math.inf), "resolution"),
            (dict(n_trials=0), "n_trials"),
            (dict(n_trials=6), "n_trials"),
            (dict(n_trials=7), "n_trials"),
        ],
    )
    def test_search_settings_are_checked_before_simulating(self, monkeypatch, kw, match):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the search settings were checked")

        monkeypatch.setattr(simloop, "simulate", no_simulation)
        with pytest.raises(ValueError, match=match):
            empirical_boundary(PLANT, 0.5, 100.0, loop_kernel(0.5), (1.0, 10.0), **kw)

    def test_each_trial_is_one_simulation(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].momentum)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(simloop, "simulate", counting)
        kern = loop_kernel(0.5)
        analytical = float(region_scan(0.5, kern, PLANT.damping, [100.0], k1_max=1e9).k1[0])
        empirical_boundary(
            PLANT, 0.5, 100.0, kern, (0.5 * analytical, 2.0 * analytical),
            resolution=0.5 * analytical, n_trials=5, duration=1.0,
        )
        # the stable low end runs all five momenta
        assert calls[:5] == pytest.approx([0.01, 0.005, 0.015, 0.0075, 0.02])

    def test_undamped_plant_has_no_passive_margin(self):
        # with zero plant damping any rendered stiffness is active, so the
        # low endpoint already fails and the search reports no bracket
        plant0 = PlantParams(mass=7.34e-5, damping=0.0)
        kern = loop_kernel(0.5)
        with pytest.raises(ValueError, match="already unstable"):
            empirical_boundary(plant0, 0.5, 100.0, kern, (0.5, 10.0), n_trials=1, duration=6.0)


class TestPlantIdent:
    def chirp_trace(self, noise=0.0, seed=0, amplitude=0.05):
        trace = simulate(
            PLANT, None, ForceChirp(f0=1.0, f1=10.0, span=15.0, amplitude=amplitude), 15.0, t_samp=T
        )
        if noise > 0.0:
            rng = np.random.default_rng(seed)
            scale = lambda arr: noise * float(np.std(arr))
            trace = SimTrace(
                t=trace.t,
                position=trace.position + rng.normal(0, scale(trace.position), trace.t.size),
                velocity=trace.velocity + rng.normal(0, scale(trace.velocity), trace.t.size),
                force=trace.force,
                force_cmd=trace.force_cmd + rng.normal(0, scale(trace.force_cmd), trace.t.size),
                energy=trace.energy,
                t_samp=trace.t_samp,
                excite_end=trace.excite_end,
            )
        return trace

    def test_noiseless_recovery(self):
        result = plant_ident(self.chirp_trace())
        assert result.params.mass == pytest.approx(PLANT.mass, rel=5e-3)
        assert result.params.damping == pytest.approx(PLANT.damping, rel=5e-3)
        assert result.r_squared > 0.999

    def test_constant_velocity_is_rank_deficient(self):
        n = 200
        t = np.arange(n) * T
        v = np.full(n, 30.0)
        trace = SimTrace(
            t=t,
            position=30.0 * t,
            velocity=v,
            force=np.zeros(n),
            force_cmd=np.full(n, PLANT.damping * 30.0),
            energy=np.zeros(n),
            t_samp=T,
            excite_end=n * T,
        )
        with pytest.raises(ValueError, match="rank-deficient"):
            plant_ident(trace)

    def test_noise_robustness_monte_carlo(self):
        errs_m, errs_b = [], []
        for seed in range(20):
            result = plant_ident(self.chirp_trace(noise=0.01, seed=seed))
            errs_m.append(abs(result.params.mass - PLANT.mass) / PLANT.mass)
            errs_b.append(abs(result.params.damping - PLANT.damping) / PLANT.damping)
        assert max(errs_m) < 0.05
        assert max(errs_b) < 0.05
