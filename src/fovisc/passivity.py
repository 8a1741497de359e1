"""Sampled-data passivity bounds for the rendered viscoelastic law.

A haptic interface with damping b stays passive while rendering H(z) at
period T iff

    b > f(w) = T / (2 (1 - cos w T)) * Re{ (1 - e^{-i w T}) H(e^{i w T}) }

for all w in (0, pi/T].  For odd memory length the maximum of f sits exactly
at the Nyquist frequency, which collapses the bound to the closed form

    b > (T/2) * Re H(S = dp) = K0*T/2 + (K1*T/2) * B1*dp / (B1*dp + K1*T^alpha),

with dp the alternating coefficient sum, the spectrum at w = pi/T.  The
classical reductions are the same value of their reduced impedance.  Even memory lengths shift the
maximum into the interior, so they are always resolved by grid search plus
local refinement, never by the Nyquist shortcut.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .glkernel import (
    GLKernel,
    _flat_omegas,
    _s_conj_values,
    _shaped,
    delta_p,
    delta_p_asymptotic,
    delta_p_sufficient,
)
from .models import (
    FoSlsParams,
    _check_order,
    _kind_rules,
    _reduced_impedance,
)
from .util import worker_count

__all__ = [
    "PassivityResult",
    "RegionBoundary",
    "passivity_function",
    "max_passivity",
    "bound_closed_form",
    "bound_variants",
    "special_case_bound",
    "region_scan",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PassivityResult:
    """Minimum interface damping with its binding frequency and provenance.

    method 'closed_form_odd_n' implies omega_star == pi/T exactly.
    margin_ok is None unless a plant damping was supplied for comparison.
    """

    b_min: float  # N*s/mm
    omega_star: float  # rad/s
    method: str  # closed_form_odd_n | asymptotic | sufficient | grid
    margin_ok: bool | None = None


def _f_values(params: FoSlsParams, T: float, omegas: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f(w) on a 1-D array of frequencies in (0, pi/T] whose spectrum is s."""
    th = omegas * T
    h = _reduced_impedance("fo_sls", params, T, s)
    lead = 1.0 - np.exp(-1j * th)
    return T / (2.0 * (1.0 - np.cos(th))) * (lead * h).real


def passivity_function(params: FoSlsParams, kernel: GLKernel, omegas):
    """Colgate right-hand side f(w) [N*s/mm] at frequencies in (0, pi/T]: a
    float for a scalar omega, else an array of omega's shape."""
    _check_order(params.alpha, kernel)
    flat, shape = _flat_omegas(omegas, kernel.t_samp)
    return _shaped(_f_values(params, kernel.t_samp, flat, _s_conj_values(kernel, flat)), shape)


def _nyquist_value(kind: str, params: FoSlsParams, t_samp: float, dp: float) -> float:
    """f at w = pi/T, (T/2)*Re H there, where the spectrum is the real dp (the
    alternating sum, or a stand-in for it): no trigonometric roundoff."""
    return t_samp / 2.0 * float(_reduced_impedance(kind, params, t_samp, dp))


def _golden_max(fun, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
    x = 0.5 * (a + b)
    return x, fun(x)


def _grid(kernel: GLKernel, grid_points: int) -> np.ndarray:
    """The uniform search grid w_j = j*pi/(G*T), j = 1..G, whose spectrum is an FFT."""
    if grid_points < 256:
        raise ValueError(f"grid_points must be at least 256, got {grid_points}")
    return np.linspace(0.0, kernel.nyquist, grid_points + 1)[1:]


def _grid_max(
    params: FoSlsParams, kernel: GLKernel, omegas: np.ndarray, s: np.ndarray, refine_at_most: float
):
    """(omega, f) at the maximum of f over the search grid whose spectrum is s.

    A grid maximum at most refine_at_most is refined by golden section inside
    the best grid cell (f oscillates under truncation, so refinement must stay
    local); the result is never below the grid maximum.
    """
    T = kernel.t_samp
    values = _f_values(params, T, omegas, s)
    i_best = int(np.argmax(values))
    w_grid, f_grid = float(omegas[i_best]), float(values[i_best])
    if f_grid > refine_at_most:
        return w_grid, f_grid
    lo = omegas[max(i_best - 1, 0)]
    hi = omegas[min(i_best + 1, omegas.size - 1)]
    tol = (omegas[1] - omegas[0]) * 1e-6

    def f_at(w: float) -> float:
        w = np.array([w])
        return float(_f_values(params, T, w, _s_conj_values(kernel, w))[0])

    w_star, f_star = _golden_max(f_at, lo, hi, tol)
    return (w_grid, f_grid) if f_star < f_grid else (w_star, f_star)


def max_passivity(params: FoSlsParams, kernel: GLKernel, grid_points: int = 8192) -> PassivityResult:
    """Maximum of f over (0, pi/T], located by parity-aware search.

    Odd memory length: the maximum is at Nyquist; the grid is still swept and
    required to agree.  Even memory length: grid maximum followed by local
    golden-section refinement.
    """
    _check_order(params.alpha, kernel)
    omegas = _grid(kernel, grid_points)
    s = _s_conj_values(kernel, omegas)
    if kernel.n_mem % 2 == 0:
        w_star, f_star = _grid_max(params, kernel, omegas, s, math.inf)
        return PassivityResult(b_min=f_star, omega_star=w_star, method="grid")
    f_grid = _grid_max(params, kernel, omegas, s, -math.inf)[1]
    f_nyq = _nyquist_value("fo_sls", params, kernel.t_samp, delta_p(kernel))
    slack = 1e-9 * max(1.0, abs(f_nyq))
    if f_grid > f_nyq + slack:
        raise AssertionError(
            f"grid maximum {f_grid} exceeds the Nyquist value {f_nyq} for an odd memory length"
        )
    return PassivityResult(b_min=f_nyq, omega_star=kernel.nyquist, method="closed_form_odd_n")


def bound_closed_form(
    params: FoSlsParams, kernel: GLKernel, b_plant: float | None = None
) -> PassivityResult:
    """Minimum damping from the odd-memory closed form.

    Even memory lengths are refused (the Nyquist shortcut is invalid there);
    use max_passivity instead.  So is a kernel of another order than params.
    """
    _check_order(params.alpha, kernel)
    if kernel.n_mem % 2 == 0:
        raise ValueError(
            "closed-form bound requires an odd memory length; use max_passivity for even N"
        )
    b_min = _nyquist_value("fo_sls", params, kernel.t_samp, delta_p(kernel))
    ok = None if b_plant is None else bool(b_plant > b_min)
    return PassivityResult(
        b_min=b_min, omega_star=kernel.nyquist, method="closed_form_odd_n", margin_ok=ok
    )


def bound_variants(params: FoSlsParams, kernel: GLKernel) -> dict[str, float]:
    """Asymptotic (dp -> 2^alpha) and tail-bounded sufficient variants.

    For odd N the ordering is sufficient >= closed form > asymptotic; at
    alpha = 1 all three coincide.
    """
    dps = {
        "asymptotic": delta_p_asymptotic(params.alpha),
        "sufficient": delta_p_sufficient(params.alpha, kernel.n_mem),
    }
    return {k: _nyquist_value("fo_sls", params, kernel.t_samp, dp) for k, dp in dps.items()}


def special_case_bound(kind: str, params: FoSlsParams, kernel: GLKernel) -> float:
    """Minimum damping for one of the classical reductions.

    The Nyquist value of the reduced impedance.  Kelvin-Voigt kinds use the
    dedicated infinite-branch-stiffness formula; integer-order kinds are exact
    for any N >= 1 (the alternating sum is 2).  The fractional kinds take the
    alternating sum from the kernel, so its order must match params.alpha.
    """
    p, _, dp = _kind_rules(kind, params, kernel)
    return _nyquist_value(kind, p, kernel.t_samp, dp)


@dataclass(frozen=True)
class RegionBoundary:
    """Largest admissible branch stiffness per damping-grid column (k0 = 0).

    capped marks columns whose bound saturates below the plant damping, where
    the scan cap k1_max was reported instead of a finite boundary.  feasible
    is False when no positive stiffness is admissible at all.
    """

    b1: np.ndarray
    k1: np.ndarray
    capped: np.ndarray
    feasible: bool


def region_scan(
    alpha: float,
    kernel: GLKernel,
    b_plant: float,
    b1_grid,
    k1_max: float,
    resolution: float = 0.1,
    grid_points: int = 2048,
) -> RegionBoundary:
    """Boundary of the admissible (B1, K1) region at k0 = 0.

    Odd memory length inverts the closed form exactly; even memory length
    bisects the grid-search bound down to `resolution` [N/mm].  The grid
    spectrum does not depend on (K1, B1), so it is computed once per call, and
    a candidate whose grid maximum already exceeds the plant damping is
    refused unrefined.  Columns run concurrently on the even-length path
    (worker cap: FOVISC_THREADS).
    """
    _check_order(alpha, kernel)
    if k1_max <= 0.0:
        raise ValueError(f"k1_max must be positive, got {k1_max}")
    b1_grid = np.asarray(list(b1_grid), dtype=float)
    if np.any(b1_grid <= 0.0):
        raise ValueError("b1 grid values must be positive")
    k1 = np.zeros(b1_grid.size)
    capped = np.zeros(b1_grid.size, dtype=bool)
    if b_plant <= 0.0:
        # bound -> 0+ as K1 -> 0+, so a nonpositive budget admits nothing
        return RegionBoundary(b1=b1_grid, k1=k1, capped=capped, feasible=False)

    if kernel.n_mem % 2 == 1:
        # the bound rises with K1 toward sup; below it, invert for K1
        T, dp, t_a = kernel.t_samp, delta_p(kernel), kernel.t_samp**alpha
        sup = (T / 2.0) * b1_grid * dp / t_a
        with np.errstate(divide="ignore", invalid="ignore"):
            inverse = 2.0 * b_plant * b1_grid * dp / (T * b1_grid * dp - 2.0 * b_plant * t_a)
        capped = (b_plant >= sup) | (inverse >= k1_max)
        k1 = np.where(capped, k1_max, inverse)
        return RegionBoundary(b1=b1_grid, k1=k1, capped=capped, feasible=True)

    omegas = _grid(kernel, grid_points)
    s = _s_conj_values(kernel, omegas)

    def column(b1: float) -> tuple[float, bool]:
        def admissible(k1_val: float) -> bool:
            params = FoSlsParams(k0=0.0, k1=k1_val, b1=b1, alpha=alpha)
            return _grid_max(params, kernel, omegas, s, b_plant)[1] <= b_plant

        if admissible(k1_max):
            return k1_max, True
        lo, hi = 0.0, k1_max
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if admissible(mid):
                lo = mid
            else:
                hi = mid
        return lo, False

    with ThreadPoolExecutor(max_workers=worker_count(b1_grid.size)) as pool:
        for j, (val, cap) in enumerate(pool.map(column, b1_grid)):
            k1[j], capped[j] = val, cap
    return RegionBoundary(b1=b1_grid, k1=k1, capped=capped, feasible=True)
