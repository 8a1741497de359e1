"""Reference computations the benchmark checks fovisc outputs against.

Written from the formulas in the README, not from the library: the weights
come from scipy.special.binom, the time-domain laws are stepped sample by
sample, and every frequency-domain quantity is a direct DTFT of the weights
(or, for infinite memory, the trigonometric closed form).  Nothing here
imports fovisc.

Units are {N, mm, s}.  A parameter set is a tuple (k0, k1, b1, alpha).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import binom


def gl_weights(alpha: float, n_mem: int) -> np.ndarray:
    """Grunwald-Letnikov weights c_i = (-1)^i C(alpha, i), i = 0..N."""
    i = np.arange(n_mem + 1)
    return np.where(i % 2 == 0, 1.0, -1.0) * binom(alpha, i)


def n_samples(duration: float, t_samp: float) -> int:
    """Sample intervals in a duration that is a whole multiple of T."""
    return int(round(duration / t_samp))


def _gains(params, t_samp):
    k0, k1, b1, alpha = params
    scale = b1 / t_samp**alpha
    den = k1 + scale
    return k1 * scale / den, scale / den


def relaxation(params, weights, t_samp, x0, n):
    """Force for a held displacement x0, stepping the README recursion."""
    k0 = params[0]
    gx, gy = _gains(params, t_samp)
    m = weights.size - 1
    xh = np.zeros(m + 1 + n)  # position history, zero before t = 0
    yh = np.zeros(m + n)  # branch-force history
    c, c_tail = weights[::-1], weights[:0:-1]
    force = np.empty(n)
    for j in range(n):
        xh[m + j] = x0
        y = gx * float(c @ xh[j : j + m + 1]) - gy * float(c_tail @ yh[j : j + m])
        yh[m + j] = y
        force[j] = k0 * x0 + y
    return force


def creep(params, weights, t_samp, force):
    """Displacement under a force history, inverting the law at every step.

    F[j] = K0 x[j] + y[j] is affine in the unknown x[j] once the history is
    fixed, so each step solves for x[j] and then records y[j] = F[j] - K0 x[j].
    """
    k0 = params[0]
    gx, gy = _gains(params, t_samp)
    m = weights.size - 1
    n = force.size
    xh = np.zeros(m + n)
    yh = np.zeros(m + n)
    c_tail = weights[:0:-1]
    x = np.empty(n)
    for j in range(n):
        past = gx * float(c_tail @ xh[j : j + m]) - gy * float(c_tail @ yh[j : j + m])
        xj = (force[j] - past) / (k0 + gx)
        xh[m + j] = xj
        yh[m + j] = force[j] - k0 * xj
        x[j] = xj
    return x


def creep_force(f_hold, t_hold, f_recover, t_recover, t_samp):
    """Force samples of the creep protocol: hold through t_hold, then recover."""
    n_hold = n_samples(t_hold, t_samp) + 1
    n_rec = n_samples(t_recover, t_samp)
    return np.concatenate([np.full(n_hold, float(f_hold)), np.full(n_rec, float(f_recover))])


def spectrum(weights, theta, chunk=32):
    """S*(theta) = sum_k c_k e^{-ik theta} by direct summation.

    Frequencies go in small chunks so that long kernels do not raise the
    peak memory the benchmark reports for the program.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    k = np.arange(weights.size)
    out = np.empty(theta.shape, dtype=complex)
    for lo in range(0, theta.size, chunk):
        out[lo : lo + chunk] = np.exp(-1j * np.outer(theta[lo : lo + chunk], k)) @ weights
    return out


def branch(params, s, t_samp):
    """Branch impedance K1 B1 D / (K1 + B1 D) with D = S / T^alpha."""
    _, k1, b1, alpha = params
    d = s / t_samp**alpha
    return k1 * b1 * d / (k1 + b1 * d)


def f_from_spectrum(params, s, theta, t_samp):
    """Colgate passivity function f on frequencies theta = omega T."""
    h = params[0] + branch(params, s, t_samp)
    lead = 1.0 - np.exp(-1j * theta)
    return t_samp / (2.0 * (1.0 - np.cos(theta))) * (lead * h).real


def f_values(params, weights, theta, t_samp):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return f_from_spectrum(params, spectrum(weights, theta), theta, t_samp)


def nyquist_bound(params, weights, t_samp):
    """f at theta = pi: the minimum damping for odd memory lengths."""
    return float(f_values(params, weights, math.pi, t_samp)[0])


def invert_nyquist_k1(b_plant, b1, alpha, weights, t_samp):
    """K1 at which the k0 = 0 Nyquist bound equals b_plant.

    At theta = pi the branch is real: b = (T/2) K1 B1 D / (K1 + B1 D) with
    D = sum_k (-1)^k c_k / T^alpha, so K1 = b B1 D / ((T/2) B1 D - b).
    Returns inf when no finite K1 reaches b_plant.
    """
    d = float(np.sum(weights[::2]) - np.sum(weights[1::2])) / t_samp**alpha
    den = 0.5 * t_samp * b1 * d - b_plant
    return math.inf if den <= 0.0 else b_plant * b1 * d / den


def max_f(params, weights, t_samp, grid=8192, s_grid=None):
    """Maximum of f over (0, pi]: dense grid, then bounded refinement."""
    theta = math.pi * np.arange(1, grid + 1) / grid
    if s_grid is None:
        s_grid = spectrum(weights, theta)
    vals = f_from_spectrum(params, s_grid, theta, t_samp)
    j = int(np.argmax(vals))
    lo, hi = theta[max(j - 1, 0)], theta[min(j + 1, grid - 1)]
    res = minimize_scalar(
        lambda th: -f_values(params, weights, th, t_samp)[0],
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return max(float(vals[j]), float(-res.fun))


def es_ed_finite(params, weights, omegas, t_samp):
    s = spectrum(weights, np.asarray(omegas) * t_samp)
    br = branch(params, s, t_samp)
    return params[0] + br.real, br.imag / np.asarray(omegas)


def es_ed_infinite(params, omegas, t_samp):
    """Infinite-memory ES/ED from the trigonometric form of (1 - e^{-i th})^alpha.

    1 - e^{-i th} = 2 sin(th/2) e^{i (pi - th)/2}, so its alpha power has
    modulus (2 sin(th/2))^alpha and phase alpha (pi - th)/2.
    """
    k0, k1, b1, alpha = params
    omegas = np.asarray(omegas, dtype=float)
    th = omegas * t_samp
    r = (2.0 * np.sin(0.5 * th)) ** alpha
    ph = 0.5 * alpha * (math.pi - th)
    w = r * (np.cos(ph) + 1j * np.sin(ph))
    br = branch(params, w, t_samp)
    return k0 + br.real, br.imag / omegas


def truncation_gap(params, weights, t_samp):
    """Upper bound on |branch_N - branch_inf| over all frequencies.

    For 0 < alpha < 1 the weights beyond N are all negative and the full
    series sums to zero, so the dropped tail is at most sum_{i<=N} c_i in
    modulus.  Both spectra have a nonnegative real part, so the branch
    denominators stay at least K1 in modulus and the branch moves by at most
    B1 |dS| / T^alpha.
    """
    _, _, b1, alpha = params
    return b1 * float(np.sum(weights)) / t_samp**alpha


def nrmse(pred, meas):
    """RMS error over the measured range."""
    return float(np.sqrt(np.mean((pred - meas) ** 2))) / float(np.max(meas) - np.min(meas))


def self_test() -> None:
    """Check the references against textbook values; raise on any miss."""
    if not np.array_equal(gl_weights(1.0, 4), [1.0, -1.0, 0.0, 0.0, 0.0]):
        raise AssertionError("alpha = 1 weights are not 1, -1, 0, ...")
    if not np.allclose(gl_weights(0.5, 3), [1.0, -0.5, -0.125, -0.0625], rtol=1e-15, atol=0):
        raise AssertionError("alpha = 0.5 weights do not start 1, -0.5, -0.125, -0.0625")

    t = 1e-3
    k0, k1, b1 = 0.7, 3.0, 0.02
    sls = k0 * t / 2.0 + k1 * b1 * t / (2.0 * b1 + k1 * t)
    for n_mem in (1, 101):
        got = nyquist_bound((k0, k1, b1, 1.0), gl_weights(1.0, n_mem), t)
        if not math.isclose(got, sls, rel_tol=1e-12):
            raise AssertionError(f"integer-order SLS bound {got} != {sls} at N = {n_mem}")

    w = gl_weights(0.5, 101)
    k1_inv = invert_nyquist_k1(0.0025, 100.0, 0.5, w, t)
    back = nyquist_bound((0.0, k1_inv, 100.0, 0.5), w, t)
    if not math.isclose(back, 0.0025, rel_tol=1e-10):
        raise AssertionError(f"K1 inversion does not round-trip: {back}")

    p = (-2.89, 5.7, 5.89, 0.203)
    w = gl_weights(p[3], 21)
    f_rel = relaxation(p, w, t, 5.0, 50)
    first = 5.0 * (p[0] + p[1] * p[2] / (p[2] + p[1] * t ** p[3]))
    if not math.isclose(f_rel[0], first, rel_tol=1e-12):
        raise AssertionError("relaxation does not start at the instantaneous stiffness")
    force = creep_force(3.0, 0.02, 0.5, 0.02, t)
    x = creep(p, w, t, force)
    # feed the displacement back through the forward law: the force returns
    gx, gy = _gains(p, t)
    yh = np.zeros(force.size)
    for j in range(force.size):
        sx = sum(w[i] * x[j - i] for i in range(min(j, 21) + 1))
        sy = sum(w[i] * yh[j - i] for i in range(1, min(j, 21) + 1))
        yh[j] = gx * sx - gy * sy
    if not np.allclose(p[0] * x + yh, force, rtol=1e-12, atol=1e-12):
        raise AssertionError("creep inversion does not reproduce its force")

    th = np.array([0.3, 1.7, math.pi])
    pa = (10.0, 32.0, 0.01, 0.5)
    es, ed = es_ed_infinite(pa, th / t, t)
    compact = branch(pa, (1.0 - np.exp(-1j * th)) ** 0.5, t)
    if not (np.allclose(es, 10.0 + compact.real, rtol=1e-12) and np.allclose(ed * th / t, compact.imag, atol=1e-12)):
        raise AssertionError("trigonometric ES/ED disagree with the principal power")
