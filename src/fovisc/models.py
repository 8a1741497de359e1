"""Discrete viscoelastic environment: a spring in parallel with a
spring/fractional-damper branch, realized as a sampled filter.

The rendered impedance (force per unit position) is

    H(z) = K0 + K1*B1*D(z) / (K1 + B1*D(z)),    D(z) = T^-alpha * sum_i c_i z^-i,

evaluated on the unit circle with z^-i = e^{-i w T i}.  With that convention
the imaginary part of H is nonnegative for positive parameters, i.e. the
dissipative component carries the physical sign (see README, sign
conventions).  Time-domain stepping uses the equivalent recursion

    y[n] = (K1*B1/T^a * sum_i c_i x[n-i] - B1/T^a * sum_{i>=1} c_i y[n-i])
           / (K1 + B1/T^a),
    F[n] = K0*x[n] + y[n],

with zero-padded history before startup (system at rest for t < 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .glkernel import (
    GLKernel,
    _flat_omegas,
    _s_conj_infinite,
    _s_conj_values,
    _shaped,
    delta_p,
)
from .util import n_samples

__all__ = [
    "FoSlsParams",
    "DiscreteVE",
    "freq_response",
    "relaxation_response",
    "creep_response",
    "REDUCTION_KINDS",
    "KINDS",
]

REDUCTION_KINDS = ("fo_kv", "fo_maxwell", "io_sls", "io_kv", "io_maxwell")
KINDS = ("fo_sls",) + REDUCTION_KINDS


@dataclass(frozen=True)
class FoSlsParams:
    """Constitutive parameters, fixed project-wide to {N, mm, s} units.

    k0     parallel stiffness [N/mm]; sign-unrestricted (identified sets
           can carry k0 < 0 to offset the branch stiffness)
    k1     branch stiffness [N/mm], > 0
    b1     branch fractional damping [N*s^alpha/mm], > 0
    alpha  derivative order in (0, 1]
    """

    k0: float
    k1: float
    b1: float
    alpha: float

    def __post_init__(self):
        for name in ("k0", "k1", "b1", "alpha"):
            v = getattr(self, name)
            if not math.isfinite(float(v)):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.k1 <= 0.0:
            raise ValueError(f"branch stiffness k1 must be positive, got {self.k1}")
        if self.b1 <= 0.0:
            raise ValueError(f"branch damping b1 must be positive, got {self.b1}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"order alpha must lie in (0, 1], got {self.alpha}")


def _branch_impedance(params: FoSlsParams, t_samp: float, s):
    """Branch impedance K1*B1*S / (K1*T^a + B1*S), as K1*B1*D / (K1 + B1*D) with D = S/T^a."""
    d = s / t_samp**params.alpha
    den = params.k1 + params.b1 * d
    if (np.abs(den) < 1e-300).any():  # numpy scalars have .any(): cheap on scalar bounds
        raise ValueError("singular branch denominator K1 + B1*S/T^a")
    return params.k1 * params.b1 * d / den


def _reduced_params(kind: str, params: FoSlsParams) -> FoSlsParams:
    """The parameters a kind renders: alpha = 1 for the integer-order kinds,
    k0 = 0 for the Maxwell kinds; 'fo_sls' and the rest keep them as given.
    Every entry that takes a kind checks it here."""
    if kind not in KINDS:
        raise ValueError(f"unsupported kind {kind!r}; expected one of {KINDS}")
    if kind.startswith("io_"):
        params = replace(params, alpha=1.0)
    if kind.endswith("_maxwell"):
        params = replace(params, k0=0.0)
    return params


def _reduced_impedance(kind: str, params: FoSlsParams, t_samp: float, s):
    """Rendered impedance at spectrum S: K0 + branch(S), or K0 + B1*S/T^a for the
    Kelvin-Voigt kinds (infinite branch stiffness as its own formula, never a
    large-K1 substitution).  Every special case is this with reduced params."""
    if kind.endswith("_kv"):
        return params.k0 + params.b1 * (s / t_samp**params.alpha)
    return params.k0 + _branch_impedance(params, t_samp, s)


def _branch_filter(params: FoSlsParams, kernel: GLKernel):
    """(b, a) coefficients of the branch filter y = lfilter(b, a, x)."""
    scale = params.b1 / kernel.t_samp**params.alpha
    b = params.k1 * scale * kernel.coeffs
    a = scale * kernel.coeffs.copy()
    a[0] += params.k1
    return b, a


def _check_order(alpha: float, kernel: GLKernel) -> None:
    """Refuse a kernel built for another order than the parameters' alpha."""
    if abs(alpha - kernel.alpha) > 1e-12:
        raise ValueError(f"kernel order {kernel.alpha} does not match parameter order {alpha}")


def _kind_rules(kind: str, params: FoSlsParams, kernel: GLKernel):
    """(reduced params, spectrum, dp) of one model kind at (params, kernel).

    spectrum maps a 1-D array of frequencies to S* = sum_k c_k e^{-ik w T};
    dp is its real value at pi/T.  The fractional kinds read the kernel's
    weights, so its order must match params.alpha.  The integer-order kinds
    take only T from a kernel of any order: the compact form 1 - e^{-i w T}
    (dp = 2) is the exact spectrum of every order-one kernel with N >= 1.
    """
    p = _reduced_params(kind, params)
    if kind.startswith("io_"):
        if kernel.n_mem < 1:
            raise ValueError("integer-order kinds need at least one memory term")
        return p, lambda omegas: _s_conj_infinite(omegas, kernel.t_samp, 1.0), 2.0
    _check_order(params.alpha, kernel)
    return p, lambda omegas: _s_conj_values(kernel, omegas), delta_p(kernel)


def freq_response(kind: str, params: FoSlsParams, kernel: GLKernel, omegas):
    """Rendered impedance H(e^{i w T}) [N/mm] of one model kind at frequencies
    in (0, pi/T]: a complex for a scalar omega, else an array of omega's shape.

    'fo_sls' is the full law; the reductions of REDUCTION_KINDS select
    parameters: branch stiffness to infinity for the Kelvin-Voigt forms (a
    formula of its own, never a large-K1 substitution), k0 = 0 for the
    Maxwell forms, alpha = 1 for the integer-order forms.
    """
    p, spectrum, _ = _kind_rules(kind, params, kernel)
    flat, shape = _flat_omegas(omegas, kernel.t_samp)
    return _shaped(_reduced_impedance(kind, p, kernel.t_samp, spectrum(flat)), shape)


class DiscreteVE:
    """The viscoelastic law at one (params, kernel), with a stateful per-sample
    evaluator.

    force_step owns ring buffers of the last N+1 positions and last N branch
    forces, zero-initialized; stepping is deterministic and single-writer.  It
    is the per-sample form of the filters that relaxation_response and
    simulate run over whole records.  simulate takes a DiscreteVE as the
    rendered law and reads only its params and kernel; the law's impedance is
    freq_response("fo_sls", params, kernel, omegas).
    """

    def __init__(self, params: FoSlsParams, kernel: GLKernel):
        _check_order(params.alpha, kernel)
        self.params = params
        self.kernel = kernel
        t_a = kernel.t_samp**params.alpha
        den = params.k1 + params.b1 / t_a
        self._x_gain = (params.k1 * params.b1 / t_a) / den
        self._y_gain = (params.b1 / t_a) / den
        self._c = kernel.coeffs
        self._c_tail = kernel.coeffs[1:]
        self.reset()

    def reset(self):
        """Return to rest: zero position and branch-force history."""
        self._xh = np.zeros(self.kernel.n_mem + 1)
        self._yh = np.zeros(self.kernel.n_mem)

    def force_step(self, x_new: float) -> float:
        """Advance one sample with position x_new [mm]; return force [N]."""
        xh, yh = self._xh, self._yh
        xh[1:] = xh[:-1]
        xh[0] = x_new
        y = self._x_gain * float(np.dot(self._c, xh)) - self._y_gain * float(
            np.dot(self._c_tail, yh)
        )
        if self.kernel.n_mem > 0:
            yh[1:] = yh[:-1]
            yh[0] = y
        return self.params.k0 * x_new + y


def relaxation_response(
    params: FoSlsParams, kernel: GLKernel, x0: float, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """Force history under a held step displacement x0 [mm].

    Returns (t, force) sampled at the kernel period.  The first sample is the
    instantaneous response x0*(K0 + K1*B1/(B1 + K1*T^a)); the tail settles
    toward x0 times the DC stiffness.
    """
    _check_order(params.alpha, kernel)
    if x0 == 0.0:
        raise ValueError("step displacement must be nonzero")
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    n = n_samples(duration, kernel.t_samp) + 1
    t = np.arange(n) * kernel.t_samp
    x = np.full(n, float(x0))
    b, a = _branch_filter(params, kernel)
    force = params.k0 * x + _lfilter(b, a, x)
    return t, force


def creep_response(
    params: FoSlsParams,
    kernel: GLKernel,
    f_hold: float,
    t_hold: float,
    f_recover: float,
    t_recover: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement history under a held force step followed by recovery.

    The force law F[n] = K0 x[n] + y[n] is affine in x[n] at every step, so
    the displacement follows from the exact per-step inversion; in filter
    form x = lfilter(a_branch, den, F) with den[0] = K0*K1 + (K0+K1)*B1/T^a.
    """
    _check_order(params.alpha, kernel)
    if t_hold <= 0.0 or t_recover < 0.0:
        raise ValueError("hold duration must be positive and recovery nonnegative")
    T = kernel.t_samp
    n_hold = n_samples(t_hold, T) + 1
    n_rec = n_samples(t_recover, T)
    force = np.concatenate([np.full(n_hold, float(f_hold)), np.full(n_rec, float(f_recover))])
    t = np.arange(force.size) * T
    _, a = _branch_filter(params, kernel)
    x = _lfilter(a, _creep_den(params, kernel), force)
    return t, x


def _lfilter(b, a, x):
    """scipy.signal.lfilter, imported on first use: the package takes longer to
    import than the subcommands without a time-domain record take to run."""
    from scipy.signal import lfilter

    return lfilter(b, a, x)


def _creep_den(params: FoSlsParams, kernel: GLKernel) -> np.ndarray:
    """den = (K0+K1)*s*c + K0*K1 of the creep filter x = (a/den) F, s = B1/T^a."""
    scale = params.b1 / kernel.t_samp**params.alpha
    den = (params.k0 + params.k1) * scale * kernel.coeffs.copy()
    den[0] += params.k0 * params.k1
    if abs(den[0]) < 1e-300:
        raise ValueError("zero instantaneous stiffness: force cannot be inverted for position")
    return den


@functools.lru_cache(maxsize=None)
def _fft_len(n: int) -> int:
    """Smallest 5-smooth length >= n (fast for numpy's FFT)."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _squared_products(params: FoSlsParams, kernel: GLKernel, dc: np.ndarray, h: np.ndarray, numerators):
    """First m = len(h) samples of h*h*p for each numerator polynomial p.

    numerators(S, dS) gives the spectra of the p from S and dS, the spectra
    of s*c and d(s*c)/dalpha (s = B1/T^a, dc the weights' order
    derivatives).  Those samples depend only on h's first m.  With h cut
    where it has decayed below roundoff of its peak, to L samples, an FFT
    length n >= max(m, 2L + 2N) keeps them clear of wrap-around for any p of
    degree <= 2N.  A growing h (an unstable filter short of the fit's wall)
    is first weighted by rho^-n, rho its growth per sample, and the products
    weighted back: otherwise the roundoff of the discarded, far larger tail
    of the products swamps the kept samples.
    """
    m = h.size
    head, tail = np.max(np.abs(h[: m // 2])), np.max(np.abs(h[m // 2 :]))
    log_rho = math.log(tail / head) / (m - m // 2) if tail > head else 0.0
    scale = params.b1 / kernel.t_samp**params.alpha
    polys = np.array([kernel.coeffs, dc - math.log(kernel.t_samp) * kernel.coeffs]) * scale
    if log_rho:
        h = h * np.exp(-log_rho * np.arange(m))
        polys *= np.exp(-log_rho * np.arange(kernel.n_mem + 1))
    mag = np.abs(h)
    live = np.flatnonzero(mag > 1e-17 * np.max(mag))
    h = h[: live[-1] + 1] if live.size else h
    n = _fft_len(max(m, 2 * (h.size + kernel.n_mem)))
    s_f, ds_f = np.fft.rfft(polys, n)
    hh = np.fft.rfft(h, n) ** 2
    out = np.fft.irfft(hh * np.array(numerators(s_f, ds_f)), n)[:, :m]
    return out * np.exp(log_rho * np.arange(m)) if log_rho else out


def _relaxation_sensitivities(
    params: FoSlsParams, kernel: GLKernel, dc: np.ndarray, x0: float, force: np.ndarray
) -> np.ndarray:
    """Rows dF/dK0, dF/dK1, dF/dB1, dF/dalpha of a relaxation record.

    force is relaxation_response's record at params (any leading part of it);
    dc the order derivatives of the weights.  With F = x0*(K0 + y), y the unit
    step response of the branch b/a (a = s*c + K1, b = K1*s*c):

        dy/dK1 = (s*c)^2 / a^2,   dy/dalpha = K1^2 d(s*c)/dalpha / a^2,

    dy/dB1 from Euler's relation K1*dy/dK1 + B1*dy/dB1 = y (b/a is
    homogeneous of degree 1), and 1/a from the record: b/a = K1 - K1^2/a.
    """
    k1 = params.k1
    y = force / x0 - params.k0
    inv_a = np.diff((k1 - y) / k1**2, prepend=0.0)
    products = _squared_products(params, kernel, dc, inv_a, lambda s, ds: [s**2, k1**2 * ds])
    y_k1, y_alpha = np.cumsum(products, axis=1)
    y_b1 = (y - k1 * y_k1) / params.b1
    return x0 * np.array([np.ones_like(y), y_k1, y_b1, y_alpha])


def _creep_sensitivities(
    params: FoSlsParams,
    kernel: GLKernel,
    dc: np.ndarray,
    f_hold: float,
    t_hold: float,
    f_recover: float,
    x: np.ndarray,
) -> np.ndarray:
    """Rows dx/dK0, dx/dK1, dx/dB1, dx/dalpha of a creep record.

    x is creep_response's record at params (any leading part of it); dc the
    order derivatives of the weights.  With x = (a/den) F, den = (K0+K1)*s*c
    + K0*K1:

        d(a/den)/dK0 = -a^2/den^2,   d(a/den)/dK1 = -(s*c)^2/den^2,
        d(a/den)/dalpha = -K1^2 d(s*c)/dalpha / den^2,

    dx/dB1 from Euler's relation K0*x_K0 + K1*x_K1 + B1*x_B1 = -x (degree
    -1).  Since (K0+K1)*(a/den) - 1 = K1^2/den, the impulse response of 1/den
    comes from the unit step response of a/den, which the record gives once
    the two-level force is undone block by block; with no hold force it takes
    one filter pass instead.
    """
    k0, k1 = params.k0, params.k1
    m = x.size
    n_hold = n_samples(t_hold, kernel.t_samp) + 1
    jump = float(f_recover) - float(f_hold)
    if f_hold != 0.0:
        step = x / f_hold
        for lo in range(n_hold, m, n_hold):
            hi = min(lo + n_hold, m)
            step[lo:hi] -= jump / f_hold * step[lo - n_hold : hi - n_hold]
        inv_den = np.diff(((k0 + k1) * step - 1.0) / k1**2, prepend=0.0)
    else:
        impulse = np.zeros(m)
        impulse[0] = 1.0
        inv_den = _lfilter([1.0], _creep_den(params, kernel), impulse)
    products = _squared_products(
        params, kernel, dc, inv_den, lambda s, ds: [(s + k1) ** 2, s**2, k1**2 * ds]
    )
    unit = np.cumsum(products, axis=1)
    response = -float(f_hold) * unit
    if n_hold < m:
        response[:, n_hold:] -= jump * unit[:, : m - n_hold]
    x_k0, x_k1, x_alpha = response
    x_b1 = (-x - k0 * x_k0 - k1 * x_k1) / params.b1
    return np.array([x_k0, x_k1, x_b1, x_alpha])
