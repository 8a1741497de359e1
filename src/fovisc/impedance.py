"""Effective stiffness and damping of the rendered impedance.

The impedance H(e^{i w T}) splits into an energy-storing part and a
dissipative part:

    ES(w) = Re+{H},        ED(w) = Im+{H} / w,

where the + marks the physically assigned (nonnegative) component.  Every
route is H = K0 + branch(S) at one spectrum S: the finite-memory coefficient
sums, the infinite-memory compact form S = (1 - e^{-i w T})^alpha (checked
against the trigonometric closed form), and the low-frequency limit S =
delta_s (ED there from delta_d).  The classical reductions substitute their
reduced parameters into the same impedance.
"""

from __future__ import annotations

import math

import numpy as np

from .glkernel import (
    GLKernel,
    _flat_omegas,
    _s_conj_infinite,
    _s_conj_values,
    _shaped,
    delta_d,
    delta_s,
)
from .models import (
    FoSlsParams,
    _branch_impedance,
    _check_order,
    _reduced_branch,
    _reduced_params,
)

__all__ = [
    "es_ed_finite",
    "es_ed_asymptotic",
    "es_ed_lowfreq",
    "bfo_response",
    "special_case_es_ed",
]

# Tolerance for the sign assertion behind the + superscript: anything more
# negative than this indicates a convention bug, not roundoff.
_NEG_TOL = -1e-12


def _assigned_positive(value, what: str):
    """Clamp the physically nonnegative component(s) at zero; a value below
    roundoff is refused."""
    worst = np.min(value, initial=np.inf)
    if worst < _NEG_TOL:
        raise AssertionError(f"{what} = {worst:.3e} is negative beyond tolerance; sign convention violated")
    return np.maximum(value, 0.0)


def _es_ed(params: FoSlsParams, branch: np.ndarray, omegas: np.ndarray, shape: tuple):
    """(ES, ED) in the input's shape from the branch impedance on the 1-D omegas."""
    es = params.k0 + _assigned_positive(branch.real, "branch ES")
    ed = _assigned_positive(branch.imag / omegas, "ED")
    return _shaped(es, shape), _shaped(ed, shape)


def es_ed_finite(params: FoSlsParams, kernel: GLKernel, omegas):
    """Finite-memory effective stiffness [N/mm] and damping [N*s/mm] at
    frequencies in (0, pi/T], from one spectrum evaluation: floats for a
    scalar omega, else arrays of omega's shape."""
    _check_order(params.alpha, kernel)
    flat, shape = _flat_omegas(omegas, kernel.t_samp)
    branch = _branch_impedance(params, kernel.t_samp, _s_conj_values(kernel, flat))
    return _es_ed(params, branch, flat, shape)


def _trig_branch(params: FoSlsParams, omegas: np.ndarray, t_samp: float):
    """Infinite-memory branch (re, im) arrays from the trigonometric closed form."""
    p = params
    th = omegas * t_samp
    t_a = t_samp**p.alpha
    r = (2.0 * np.sin(0.5 * th)) ** p.alpha
    phase = 0.5 * (th - math.pi) * p.alpha
    cosp, sinp = np.cos(phase), np.sin(phase)
    den = p.k1**2 * t_a**2 + p.b1**2 * r * r + 2.0 * p.b1 * p.k1 * t_a * r * cosp
    re = p.k1 * p.b1 * (p.b1 * r * r + p.k1 * t_a * r * cosp) / den
    im = -p.b1 * p.k1**2 * t_a * r * sinp / den
    return re, im


def es_ed_asymptotic(params: FoSlsParams, omegas, t_samp: float):
    """Infinite-memory effective stiffness and damping at frequencies in
    (0, pi/T]: floats for a scalar omega, else arrays of omega's shape.

    The branch on the compact spectrum (1 - e^{-i w T})^alpha and the
    trigonometric closed form describe the same analytic object; both are
    evaluated and required to agree to 1e-12 at every point before the values
    are returned.
    """
    omegas, shape = _flat_omegas(omegas, t_samp)
    branch = _branch_impedance(params, t_samp, _s_conj_infinite(omegas, t_samp, params.alpha))
    re_t, im_t = _trig_branch(params, omegas, t_samp)
    tol = 1e-12 * np.maximum(1.0, np.abs(branch))
    bad = np.flatnonzero((np.abs(branch.real - re_t) > tol) | (np.abs(branch.imag - im_t) > tol))
    if bad.size:
        i = bad[0]
        raise AssertionError(
            f"trigonometric and compact evaluations disagree at omega = {omegas[i]}: "
            f"({re_t[i]}, {im_t[i]}) vs ({branch.real[i]}, {branch.imag[i]})"
        )
    return _es_ed(params, branch, omegas, shape)


def es_ed_lowfreq(params: FoSlsParams, kernel: GLKernel) -> tuple[float, float]:
    """Low-frequency limits for a finite memory length.

    ES -> K0 + K1*B1*ds / (B1*ds + K1*T^a)
    ED -> B1*K1^2*T^(a+1)*dd / (B1*ds + K1*T^a)^2

    with ds = C(N - alpha, N) and dd = alpha*C(N - alpha, N - 1).  ED needs
    N >= 1.  This is also the route for reporting ED at w = 0, where the
    Im/w definition is indeterminate.
    """
    p = params
    ds = delta_s(p.alpha, kernel.n_mem)
    dd = delta_d(p.alpha, kernel.n_mem)
    t_a = kernel.t_samp**p.alpha
    es = p.k0 + _branch_impedance(p, kernel.t_samp, ds)  # S(0) = ds
    ed = p.b1 * p.k1**2 * kernel.t_samp * t_a * dd / (p.b1 * ds + p.k1 * t_a) ** 2
    return es, ed


def bfo_response(b1: float, alpha: float, omegas, t_samp: float):
    """Frequency response of the discrete fractional element B1/T^a * (1 - z^-1)^a
    [N/mm] at frequencies in [0, pi/T]: a complex for a scalar omega, else an
    array of omega's shape.

    Approaches B1*(i w)^alpha as w T -> 0 and stays bounded at Nyquist with
    magnitude B1*2^alpha/T^alpha.
    """
    flat, shape = _flat_omegas(omegas, t_samp, allow_dc=True)
    return _shaped(b1 / t_samp**alpha * _s_conj_infinite(flat, t_samp, alpha), shape)


def special_case_es_ed(kind: str, params: FoSlsParams, omegas, t_samp: float):
    """Effective stiffness and damping of one model kind on the infinite-memory
    spectrum, at frequencies in (0, pi/T]: floats for a scalar omega, else
    arrays of omega's shape.

    The reduced impedance: Kelvin-Voigt kinds are the dedicated
    infinite-branch-stiffness formulas; Maxwell kinds drop k0; integer-order
    kinds fix alpha = 1.  'fo_sls' selects the unreduced compact form, which
    es_ed_asymptotic also cross-checks against the trigonometric one.
    """
    p = _reduced_params(kind, params)
    flat, shape = _flat_omegas(omegas, t_samp)
    branch = _reduced_branch(kind, p, t_samp, _s_conj_infinite(flat, t_samp, p.alpha))
    return _es_ed(p, branch, flat, shape)
