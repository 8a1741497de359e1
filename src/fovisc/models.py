"""Discrete viscoelastic environment: a spring in parallel with a
spring/fractional-damper branch, realized as a sampled filter.

The rendered impedance (force per unit position) is

    H(z) = K0 + K1*B1*D(z) / (K1 + B1*D(z)),    D(z) = T^-alpha * sum_i c_i z^-i,

evaluated on the unit circle with z^-i = e^{-i w T i}.  With that convention
the imaginary part of H is nonnegative for positive parameters, i.e. the
dissipative component carries the physical sign (see README, sign
conventions).  In the time domain the same law is one sampled filter
F = (num/den) x in z^-1 (see _law_filter), with s = B1/T^a,

    den = s*c + K1,    num = (K0 + K1)*s*c + K0*K1,

and zero-padded history before startup (system at rest for t < 0).

A record is its protocol: CreepProtocol and RelaxationProtocol check their
own fields and give their input samples at a period (stimulus), and
_record_filter turns a protocol into its record's filter.  Relaxation
records run the law forward, creep records its inverse den/num.
relaxation_response, creep_response, fitting's synth_experiment and the fit
all run that one filter, and _record_sensitivities differentiates the record
it gives.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
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
from .util import _check_finite, n_samples

__all__ = [
    "FoSlsParams",
    "DiscreteVE",
    "CreepProtocol",
    "RelaxationProtocol",
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
        _check_finite(self)
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


def _reduced_branch(kind: str, params: FoSlsParams, t_samp: float, s):
    """A kind's branch impedance at spectrum S: branch(S), or B1*S/T^a for the
    Kelvin-Voigt kinds (infinite branch stiffness as its own formula, never a
    large-K1 substitution)."""
    if kind.endswith("_kv"):
        return params.b1 * (s / t_samp**params.alpha)
    return _branch_impedance(params, t_samp, s)


def _reduced_impedance(kind: str, params: FoSlsParams, t_samp: float, s):
    """Rendered impedance at spectrum S, K0 + _reduced_branch(S).  Every
    special case is this with reduced params."""
    return params.k0 + _reduced_branch(kind, params, t_samp, s)


def _law_filter(params: FoSlsParams, kernel: GLKernel) -> tuple[np.ndarray, np.ndarray]:
    """(num, den) of the law's filter F = lfilter(num, den, x): H = num/den in z^-1.

    With s = B1/T^a, den = s*c + K1 is the branch's own denominator and
    num = (K0+K1)*s*c + K0*K1 = K0*den + K1*s*c.  At K0 = 0 it is the
    branch filter alone.  A law whose coefficients overflow (such as K1 =
    B1 = 1e200) is refused, naming its parameters.
    """
    scale = params.b1 / kernel.t_samp**params.alpha
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        den = scale * kernel.coeffs
        den[0] += params.k1
        num = (params.k0 + params.k1) * scale * kernel.coeffs
        num[0] += params.k0 * params.k1
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise ValueError(f"the force law of K0 {params.k0:g}, K1 {params.k1:g}, B1 {params.b1:g}, "
                         f"alpha {params.alpha:g} overflows: its filter coefficients are not finite")
    return num, den


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

    force_step steps the law's filter num/den (see _law_filter) in direct
    form, owning buffers of the last N+1 positions and last N forces,
    zero-initialized; stepping is deterministic and single-writer.  It is the
    per-sample reference for the same filter that relaxation_response and
    simulate run over whole records.  simulate takes a DiscreteVE as the
    rendered law and reads only its params and kernel; the law's impedance is
    freq_response("fo_sls", params, kernel, omegas).
    """

    def __init__(self, params: FoSlsParams, kernel: GLKernel):
        _check_order(params.alpha, kernel)
        self.params = params
        self.kernel = kernel
        self._num, self._den = _law_filter(params, kernel)
        self.reset()

    def reset(self):
        """Return to rest: zero position and force history."""
        self._xh = np.zeros(self.kernel.n_mem + 1)
        self._fh = np.zeros(self.kernel.n_mem)

    def force_step(self, x_new: float) -> float:
        """Advance one sample with position x_new [mm]; return force [N]."""
        xh, fh = self._xh, self._fh
        xh[1:] = xh[:-1]
        xh[0] = x_new
        f = (float(np.dot(self._num, xh)) - float(np.dot(self._den[1:], fh))) / self._den[0]
        if fh.size:
            fh[1:] = fh[:-1]
            fh[0] = f
        return f


@dataclass(frozen=True)
class CreepProtocol:
    """Held force then partial unload, displacement observed throughout."""

    f_hold: float = 3.0  # N
    t_hold: float = 3.0  # s
    f_recover: float = 0.5  # N
    t_recover: float = 3.0  # s

    def __post_init__(self):
        _check_finite(self)
        if self.t_hold <= 0.0 or self.t_recover < 0.0:
            raise ValueError("hold duration must be positive and recovery nonnegative")

    def stimulus(self, t_samp: float) -> np.ndarray:
        """The force [N] at period t_samp: f_hold from t = 0 through t_hold, then f_recover."""
        n_hold, n_rec = n_samples(self.t_hold, t_samp) + 1, n_samples(self.t_recover, t_samp)
        return np.concatenate([np.full(n_hold, float(self.f_hold)), np.full(n_rec, float(self.f_recover))])


@dataclass(frozen=True)
class RelaxationProtocol:
    """Held deformation, force observed."""

    x0: float = 5.0  # mm
    duration: float = 3.0  # s

    def __post_init__(self):
        _check_finite(self)
        if self.x0 == 0.0:
            raise ValueError("step displacement must be nonzero")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")

    def stimulus(self, t_samp: float) -> np.ndarray:
        """The displacement [mm] at period t_samp: x0 from t = 0 through duration."""
        return np.full(n_samples(self.duration, t_samp) + 1, float(self.x0))


def relaxation_response(
    params: FoSlsParams, kernel: GLKernel, x0: float, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """Force history under a held step displacement x0 [mm].

    Returns (t, force) sampled at the kernel period.  The first sample is the
    instantaneous response x0*(K0 + K1*B1/(B1 + K1*T^a)); the tail settles
    toward x0 times the DC stiffness.
    """
    return _response(params, kernel, RelaxationProtocol(x0, duration))


def creep_response(
    params: FoSlsParams,
    kernel: GLKernel,
    f_hold: float,
    t_hold: float,
    f_recover: float,
    t_recover: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement history under a held force step followed by recovery.

    The displacement runs the law's filter inverted, x = lfilter(den, num, F)
    (see _law_filter); it needs the instantaneous stiffness
    num[0]/den[0] to be nonzero.
    """
    return _response(params, kernel, CreepProtocol(f_hold, t_hold, f_recover, t_recover))


def _response(params: FoSlsParams, kernel: GLKernel, protocol) -> tuple[np.ndarray, np.ndarray]:
    b, a, u, offset = _record_filter(params, kernel, protocol)
    return np.arange(u.size) * kernel.t_samp, offset + _lfilter(b, a, u)


def _record_filter(params: FoSlsParams, kernel: GLKernel, protocol, size=None):
    """(b, a, input, offset) of a protocol's record offset + lfilter(b, a, input),
    the input cut to size samples (the filter is causal).

    A relaxation record is the force through the law's filter at K0 = 0, with
    K0*x0 outside the filter, which keeps it exact for the fit's y = F/x0 - K0.
    A creep record is the displacement through the law's filter inverted.
    """
    if not isinstance(protocol, (CreepProtocol, RelaxationProtocol)):
        raise ValueError(f"unknown protocol {protocol!r}")
    _check_order(params.alpha, kernel)
    u = protocol.stimulus(kernel.t_samp)
    if isinstance(protocol, RelaxationProtocol):
        num, den = _law_filter(replace(params, k0=0.0), kernel)
        return num, den, u[:size], params.k0 * float(protocol.x0)
    num, den = _law_filter(params, kernel)
    if abs(num[0]) < 1e-300:
        raise ValueError("zero instantaneous stiffness: force cannot be inverted for position")
    return den, num, u[:size], 0.0


def _steps_through(response: np.ndarray, at: np.ndarray, heights: np.ndarray, m: int) -> np.ndarray:
    """First m samples (along the last axis) of the steps (at, heights) through
    a filter whose unit step response is response (at least m long)."""
    out = np.zeros(response.shape[:-1] + (m,))
    for j, h in zip(at, heights):
        out[..., j:] += h * response[..., : m - j]
    return out


def _fir(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Causal FIR filter h applied to u, same length as u."""
    return np.convolve(u, h)[: u.size] if u.size else u.copy()


def _lfilter(b, a, x, zi=None):
    """scipy.signal.lfilter(b, a, x, zi=zi) along the last axis, bit for bit,
    without importing scipy.signal: that package loads scipy.stats,
    scipy.interpolate and more, which takes longer than a time-domain
    subcommand takes to run.  With a state zi it returns (output, final
    state), as lfilter does.

    A denominator of two or more taps runs SciPy's compiled _linear_filter,
    the routine lfilter itself calls there (see _linear_filter), and lfilter
    only when that routine cannot be loaded.  A single tap is lfilter's own
    FIR branch: b/a[0] convolved, zi added to the head of the output.
    """
    b, a, x = np.atleast_1d(b), np.atleast_1d(a), np.asarray(x)
    zi = None if zi is None else np.asarray(zi)
    if a.size > 1:
        run = _linear_filter()
        if run is None:
            from scipy.signal import lfilter

            return lfilter(b, a, x, zi=zi)
        return run(b, a, x, -1) if zi is None else run(b, a, x, -1, zi)
    dtype = np.result_type(b, a, x, *([] if zi is None else [zi]))
    b = np.array(b, dtype=dtype)
    b /= a.astype(dtype)[0]
    full = np.apply_along_axis(lambda y: np.convolve(b, y), -1, x.astype(dtype, copy=False))
    if zi is None:
        return full[..., : x.shape[-1]]
    full[..., : zi.shape[-1]] += zi
    return full[..., : x.shape[-1]], full[..., x.shape[-1] :]


@functools.cache
def _linear_filter():
    """SciPy's compiled _linear_filter(b, a, x, axis[, zi]), loaded once from
    the extension file scipy/signal/_sigtools alone, so that
    scipy/signal/__init__.py does not run; None when the file cannot be
    found or loaded or lacks the routine (a private name, not a stable API)."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    folder = os.path.join(scipy.submodule_search_locations[0], "signal")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sigtools" + suffix)
        if os.path.isfile(path):
            break
    else:
        return None
    try:
        spec = importlib.util.spec_from_file_location("_sigtools", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    return getattr(module, "_linear_filter", None)


def _poles_outside(den: np.ndarray) -> int:
    """Poles of the filter 1/den(z^-1) outside the unit circle.

    They are the zeros of p(w) = sum_k den[k] w^k inside |w| < 1, which the
    argument principle counts as the turns of p around 0 on |w| = 1.  den is
    real, so the half circle 0 <= theta <= pi holds half the turn: one rFFT
    with eight points per coefficient, where np.roots would take ~16 ms at
    degree ~100.  A grid on which p turns by pi/2 or more between two points
    may miss a zero near the circle, so it doubles until no step does (up to
    2^10 times; a zero on the circle may be counted either way).  den is
    first scaled to a largest magnitude of 1, which moves no zero, so that
    the products of neighbouring values neither overflow nor underflow.
    """
    den = den / np.max(np.abs(den))
    size = 4 * den.size
    while True:
        p = np.fft.rfft(den, 2 * _fft_len(size))  # p(e^{-i theta})
        turn = np.angle(p[1:] * np.conj(p[:-1]))
        if np.max(np.abs(turn)) < 0.5 * math.pi or size >= 4096 * den.size:
            return round(-float(np.sum(turn)) / math.pi)
        size *= 2


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


def _record_sensitivities(
    params: FoSlsParams, kernel: GLKernel, dc: np.ndarray, protocol, record: np.ndarray
) -> np.ndarray:
    """Rows d record/d(K0, K1, B1, alpha) of a protocol's record at params.

    record is the protocol's record at params (any leading part of it); dc
    the order derivatives of the weights.  A relaxation record is F = x0*(K0 +
    y), y the unit step response of the branch, the law's filter num/den at
    K0 = 0 (den = s*c + K1, num = K1*s*c):

        dy/dK1 = (s*c)^2 / den^2,   dy/dalpha = K1^2 d(s*c)/dalpha / den^2,

    dy/dB1 from Euler's relation K1*dy/dK1 + B1*dy/dB1 = y (num/den is
    homogeneous of degree 1), and 1/den from the record: num/den = K1 - K1^2/den.

    A creep record is x = (den/num) F, the law's filter inverted (den = s*c +
    K1, num = (K0+K1)*s*c + K0*K1):

        d(den/num)/dK0 = -den^2/num^2,   d(den/num)/dK1 = -(s*c)^2/num^2,
        d(den/num)/dalpha = -K1^2 d(s*c)/dalpha / num^2,

    each row the force's steps through the unit step response of these
    filters, and dx/dB1 from Euler's relation K0*x_K0 + K1*x_K1 + B1*x_B1 = -x
    (degree -1).  Since (K0+K1)*(den/num) - 1 = K1^2/num, the impulse
    response of 1/num comes from the unit step response of den/num, which
    the record gives once the two-level force is undone block by block; with
    no hold force it takes one filter pass instead.
    """
    k0, k1 = params.k0, params.k1
    if isinstance(protocol, RelaxationProtocol):
        x0 = protocol.x0
        y = record / x0 - k0
        inv_den = np.diff((k1 - y) / k1**2, prepend=0.0)
        products = _squared_products(params, kernel, dc, inv_den, lambda s, ds: [s**2, k1**2 * ds])
        y_k1, y_alpha = np.cumsum(products, axis=1)
        y_b1 = (y - k1 * y_k1) / params.b1
        return x0 * np.array([np.ones_like(y), y_k1, y_b1, y_alpha])
    m = record.size
    steps = np.diff(protocol.stimulus(kernel.t_samp)[:m], prepend=0.0)
    at = np.flatnonzero(steps)
    f_hold = float(protocol.f_hold)
    if f_hold != 0.0:
        step = record / f_hold
        if at.size > 1:  # the recovery step, n_hold samples in
            n_hold, jump = at[1], steps[at[1]]
            for lo in range(n_hold, m, n_hold):
                hi = min(lo + n_hold, m)
                step[lo:hi] -= jump / f_hold * step[lo - n_hold : hi - n_hold]
        inv_num = np.diff(((k0 + k1) * step - 1.0) / k1**2, prepend=0.0)
    else:
        impulse = np.zeros(m)
        impulse[0] = 1.0
        inv_num = _lfilter([1.0], _law_filter(params, kernel)[0], impulse)
    products = _squared_products(
        params, kernel, dc, inv_num, lambda s, ds: [(s + k1) ** 2, s**2, k1**2 * ds]
    )
    x_k0, x_k1, x_alpha = _steps_through(np.cumsum(products, axis=1), at, -steps[at], m)
    x_b1 = (-record - k0 * x_k0 - k1 * x_k1) / params.b1
    return np.array([x_k0, x_k1, x_b1, x_alpha])
