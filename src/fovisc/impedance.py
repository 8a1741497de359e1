"""Effective stiffness and damping of the rendered impedance.

The impedance H(e^{i w T}) splits into an energy-storing part and a
dissipative part:

    ES(w) = Re+{H},        ED(w) = Im+{H} / w,

where the + marks the physically assigned (nonnegative) component.  Four
evaluation routes are provided: the finite-memory coefficient sums, the
infinite-memory trigonometric closed form, the equivalent compact complex
form built on (1 - e^{-i w T})^alpha, and the low-frequency limits in terms
of delta_s and delta_d.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .glkernel import GLKernel, _s_conj_values, delta_d, delta_s
from .models import REDUCTION_KINDS, FoSlsParams, _branch_impedance

__all__ = [
    "EffectiveImpedancePoint",
    "BfoElement",
    "es_finite",
    "ed_finite",
    "es_ed_asymptotic",
    "es_ed_lowfreq",
    "bfo_response",
    "sweep_points",
    "special_case_es_ed",
]

# Tolerance for the sign assertion behind the + superscript: anything more
# negative than this indicates a convention bug, not roundoff.
_NEG_TOL = -1e-12


@dataclass(frozen=True)
class EffectiveImpedancePoint:
    """One (frequency, stiffness, damping) sample with its evaluation route."""

    omega: float  # rad/s
    es: float  # N/mm
    ed: float  # N*s/mm
    form: str  # finite_n | compact | asymptotic | lowfreq


@dataclass(frozen=True)
class BfoElement:
    """Discrete fractional viscoelastic element B1/T^a * (1 - z^-1)^a."""

    b1: float  # N*s^alpha/mm
    alpha: float
    t_samp: float  # s


def _assigned_positive(value, what: str):
    """Clamp the physically nonnegative component(s), loudly if beyond roundoff."""
    worst = np.min(value, initial=np.inf)
    if worst < _NEG_TOL:
        msg = f"{what} = {worst:.3e} is negative beyond tolerance; sign convention violated"
        if __debug__:
            raise AssertionError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
    return np.maximum(value, 0.0)


def _es_ed_finite(
    params: FoSlsParams, kernel: GLKernel, omegas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-memory (ES, ED) arrays from one spectrum evaluation over omegas in (0, pi/T]."""
    bad = omegas[~((omegas > 0.0) & (omegas <= kernel.nyquist * (1.0 + 1e-12)))]
    if bad.size:
        raise ValueError(f"omega must lie in (0, pi/T], got {bad[0]}")
    branch = _branch_impedance(params, kernel.t_samp, _s_conj_values(kernel, omegas))
    es = params.k0 + _assigned_positive(branch.real, "branch ES")
    return es, _assigned_positive(branch.imag / omegas, "ED")


def es_finite(params: FoSlsParams, kernel: GLKernel, omega: float) -> float:
    """Finite-memory effective stiffness [N/mm]."""
    return float(_es_ed_finite(params, kernel, np.array([float(omega)]))[0][0])


def ed_finite(params: FoSlsParams, kernel: GLKernel, omega: float) -> float:
    """Finite-memory effective damping [N*s/mm]."""
    return float(_es_ed_finite(params, kernel, np.array([float(omega)]))[1][0])


def _compact_branch(params: FoSlsParams, omega: float, t_samp: float) -> complex:
    """Infinite-memory branch via the principal power (1 - e^{-i w T})^alpha.

    For w T in (0, pi] the base sits in the right half plane, away from the
    principal branch cut.
    """
    p = params
    w = (1.0 - cmath.exp(-1j * omega * t_samp)) ** p.alpha
    t_a = t_samp**p.alpha
    return p.k1 * p.b1 * w / (p.k1 * t_a + p.b1 * w)


def _trig_branch(params: FoSlsParams, omega: float, t_samp: float) -> tuple[float, float]:
    """Infinite-memory branch (re, im) from the trigonometric closed form."""
    p = params
    th = omega * t_samp
    t_a = t_samp**p.alpha
    r = (2.0 * math.sin(0.5 * th)) ** p.alpha
    phase = 0.5 * (th - math.pi) * p.alpha
    cosp, sinp = math.cos(phase), math.sin(phase)
    den = p.k1**2 * t_a**2 + p.b1**2 * r * r + 2.0 * p.b1 * p.k1 * t_a * r * cosp
    re = p.k1 * p.b1 * (p.b1 * r * r + p.k1 * t_a * r * cosp) / den
    im = -p.b1 * p.k1**2 * t_a * r * sinp / den
    return re, im


def es_ed_asymptotic(params: FoSlsParams, omega: float, t_samp: float) -> tuple[float, float]:
    """Infinite-memory effective stiffness and damping at one frequency.

    The trigonometric and compact-complex routes describe the same analytic
    object; both are evaluated and required to agree to 1e-12 before the
    values are returned.
    """
    omega = float(omega)
    if not (0.0 < omega <= math.pi / t_samp * (1.0 + 1e-12)):
        raise ValueError(f"omega must lie in (0, pi/T], got {omega}")
    branch = _compact_branch(params, omega, t_samp)
    re_t, im_t = _trig_branch(params, omega, t_samp)
    scale = max(1.0, abs(branch))
    if abs(branch.real - re_t) > 1e-12 * scale or abs(branch.imag - im_t) > 1e-12 * scale:
        raise AssertionError(
            "trigonometric and compact evaluations disagree: "
            f"({re_t}, {im_t}) vs ({branch.real}, {branch.imag})"
        )
    es = params.k0 + float(_assigned_positive(branch.real, "branch ES"))
    ed = float(_assigned_positive(branch.imag / omega, "ED"))
    return es, ed


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
    den = p.b1 * ds + p.k1 * t_a
    es = p.k0 + p.k1 * p.b1 * ds / den
    ed = p.b1 * p.k1**2 * kernel.t_samp * t_a * dd / den**2
    return es, ed


def bfo_response(element: BfoElement, omega: float) -> complex:
    """Frequency response of the discrete fractional element.

    Approaches B1*(i w)^alpha as w T -> 0 and stays bounded at Nyquist with
    magnitude B1*2^alpha/T^alpha.
    """
    omega = float(omega)
    nyq = math.pi / element.t_samp
    if not (0.0 <= omega <= nyq * (1.0 + 1e-12)):
        raise ValueError(f"omega must lie in [0, pi/T], got {omega}")
    base = 1.0 - cmath.exp(-1j * omega * element.t_samp)
    return element.b1 / element.t_samp**element.alpha * base**element.alpha


def sweep_points(
    params: FoSlsParams,
    kernel: GLKernel,
    omegas,
    form: str = "finite_n",
) -> list[EffectiveImpedancePoint]:
    """Evaluate (ES, ED) over a frequency grid with the chosen route.

    form 'lowfreq' ignores the grid and reports the single w = 0 limit
    point (that is also where ED must be reported at exactly zero frequency).
    form 'finite_n' evaluates the whole grid from one spectrum call.
    """
    if form == "lowfreq":
        es, ed = es_ed_lowfreq(params, kernel)
        return [EffectiveImpedancePoint(omega=0.0, es=es, ed=ed, form="lowfreq")]
    omegas = np.asarray(omegas, dtype=float)
    if form == "finite_n":
        es, ed = _es_ed_finite(params, kernel, omegas)
        values = zip(es.tolist(), ed.tolist())
    elif form in ("asymptotic", "compact"):
        values = (es_ed_asymptotic(params, w, kernel.t_samp) for w in omegas)
    else:
        raise ValueError(f"unknown form {form!r}")
    return [
        EffectiveImpedancePoint(omega=float(w), es=es, ed=ed, form=form)
        for w, (es, ed) in zip(omegas, values)
    ]


def special_case_es_ed(
    kind: str, params: FoSlsParams, omega: float, t_samp: float
) -> tuple[float, float]:
    """Effective stiffness and damping of one classical reduction.

    Kelvin-Voigt kinds are the dedicated infinite-branch-stiffness formulas;
    Maxwell kinds drop k0; integer-order kinds fix alpha = 1.  'fo_sls'
    selects the unreduced compact form.
    """
    if kind not in REDUCTION_KINDS + ("fo_sls",):
        raise ValueError(f"unsupported kind {kind!r}")
    omega = float(omega)
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    p = params
    if kind.startswith("io_"):
        p = FoSlsParams(k0=p.k0, k1=p.k1, b1=p.b1, alpha=1.0)
    th = omega * t_samp
    if kind == "io_kv":
        es = p.k0 + p.b1 / t_samp * (1.0 - math.cos(th))
        ed = p.b1 * math.sin(th) / th
        return es, ed
    if kind == "fo_kv":
        w = (1.0 - cmath.exp(-1j * th)) ** p.alpha
        es = p.k0 + p.b1 / t_samp**p.alpha * w.real
        ed = p.b1 / (omega * t_samp**p.alpha) * w.imag
        return es, ed
    k0 = 0.0 if kind in ("fo_maxwell", "io_maxwell") else p.k0
    branch = _compact_branch(p, omega, t_samp)
    return k0 + branch.real, branch.imag / omega
