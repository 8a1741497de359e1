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

At k0 = 0 and a fixed frequency, f = b is a quadratic in K1, so the even-N
region inverts the bound per frequency: a column's boundary is the smallest
positive root over the band, located on the grid and refined by the same
golden section that refines the maximum of f.
"""

from __future__ import annotations

import math
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
    _fft_len,
    _kind_rules,
    _reduced_impedance,
)

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
    method: str  # closed_form_odd_n | grid
    margin_ok: bool | None = None


def _f_values(params, T: float, omegas: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f(w) at frequencies in (0, pi/T] whose spectrum is s."""
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


def _margin_ok(b_plant: float | None, b_min: float) -> bool | None:
    """Whether a plant damping, if one is given, exceeds b_min; nan is refused."""
    if b_plant is not None and math.isnan(b_plant):
        raise ValueError("plant damping must be a number, got nan")
    return None if b_plant is None else bool(b_plant > b_min)


def _golden_max(value, lo: np.ndarray, hi: np.ndarray, tol: float):
    """(x, value) arrays at the golden-section maximum of value(rows, x), one
    per row on its own bracket [lo, hi]; value maps an index array of rows and
    one abscissa per row to their values.

    The rows step together, one evaluation each per step; a row leaves once
    its own bracket is at most tol wide, so it takes exactly the steps of a
    search run for it alone.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    live = np.arange(lo.size)
    fc, fd = value(live, c), value(live, d)
    a_end, b_end = np.empty_like(lo), np.empty_like(hi)
    span = b - a
    while live.size:
        go = span > tol
        if not go.all():
            a_end[live[~go]], b_end[live[~go]] = a[~go], b[~go]
            live, a, b, c, d, fc, fd, span = (v[go] for v in (live, a, b, c, d, fc, fd, span))
            continue
        up = fc < fd  # the maximum lies in [c, b]: a moves up to c, else b down to d
        a, b = np.where(up, c, a), np.where(up, b, d)
        span = b - a
        step = _GOLDEN * span
        x = np.where(up, a + step, b - step)  # the new d where a moved, else the new c
        c, d = np.where(up, d, x), np.where(up, x, c)
        f_new = value(live, x)
        fc, fd = np.where(up, fd, f_new), np.where(up, f_new, fc)
    x = 0.5 * (a_end + b_end)
    return x, value(np.arange(lo.size), x)


def _cell(omegas: np.ndarray, i) -> tuple:
    """The two grid cells around grid index i as a bracket, and its golden-section tolerance."""
    lo = omegas[np.maximum(i - 1, 0)]
    hi = omegas[np.minimum(i + 1, omegas.size - 1)]
    return lo, hi, (omegas[1] - omegas[0]) * 1e-6


def _grid(kernel: GLKernel, grid_points: int) -> np.ndarray:
    """The uniform search grid w_j = j*pi/(G*T), j = 1..G, whose spectrum is an FFT.

    G is grid_points but at least 4(N+1), rounded up to a 5-smooth count (a
    fast FFT, also for a requested count with a large prime factor): f
    ripples once per memory term, and a coarser grid can put its maximum or
    least root on the wrong lobe, which refinement in its cell cannot leave.
    """
    if grid_points < 256:
        raise ValueError(f"grid_points must be at least 256, got {grid_points}")
    points = _fft_len(max(grid_points, 4 * (kernel.n_mem + 1)))
    return np.linspace(0.0, kernel.nyquist, points + 1)[1:]


def max_passivity(
    params: FoSlsParams, kernel: GLKernel, grid_points: int = 8192, b_plant: float | None = None
) -> PassivityResult:
    """Maximum of f over (0, pi/T], located by parity-aware search.

    Odd memory length: the maximum is at Nyquist; the grid is still swept and
    required to agree.  Even memory length: grid maximum followed by local
    golden-section refinement.  The grid has grid_points points, but never
    fewer than 4(N+1), rounded up to a 5-smooth count (see _grid).
    margin_ok compares b_plant, if given (not nan).
    """
    _check_order(params.alpha, kernel)
    omegas = _grid(kernel, grid_points)
    values = _f_values(params, kernel.t_samp, omegas, _s_conj_values(kernel, omegas))
    i = int(np.argmax(values))
    if kernel.n_mem % 2 == 0:
        w, b_min = float(omegas[i]), float(values[i])
        # f oscillates under truncation, so refinement stays inside the best grid cell
        w_star, f_star = _golden_max(
            lambda _, x: _f_values(params, kernel.t_samp, x, _s_conj_values(kernel, x)),
            *_cell(omegas, np.array([i])),
        )
        if not f_star[0] < b_min:
            w, b_min = float(w_star[0]), float(f_star[0])
        return PassivityResult(b_min, w, "grid", _margin_ok(b_plant, b_min))
    f_grid = float(values[i])
    f_nyq = special_case_bound("fo_sls", params, kernel)
    slack = 1e-9 * max(1.0, abs(f_nyq))
    if f_grid > f_nyq + slack:
        raise AssertionError(
            f"grid maximum {f_grid} exceeds the Nyquist value {f_nyq} for an odd memory length"
        )
    return PassivityResult(f_nyq, kernel.nyquist, "closed_form_odd_n", _margin_ok(b_plant, f_nyq))


def bound_closed_form(
    params: FoSlsParams, kernel: GLKernel, b_plant: float | None = None
) -> PassivityResult:
    """Minimum damping from the odd-memory closed form.

    Even memory lengths are refused (the Nyquist shortcut is invalid there);
    use max_passivity instead.  So is a kernel of another order than params,
    and a nan b_plant.
    """
    b_min = special_case_bound("fo_sls", params, kernel)
    return PassivityResult(b_min, kernel.nyquist, "closed_form_odd_n", _margin_ok(b_plant, b_min))


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
    """Minimum damping of one kind as its Nyquist value, where that is the bound.

    The Nyquist value of the reduced impedance.  Kelvin-Voigt kinds use the
    dedicated infinite-branch-stiffness formula; integer-order kinds are exact
    for any N >= 1 (the alternating sum is 2).  The fractional kinds take the
    alternating sum from the kernel, so its order must match params.alpha, and
    are refused at even N, where the Nyquist value is below the bound.
    """
    p, _, dp = _kind_rules(kind, params, kernel)
    if kind.startswith("fo_") and kernel.n_mem % 2 == 0:
        raise ValueError(f"{kind} bound requires an odd memory length; use max_passivity for even N")
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


def _boundary_k1(b1, alpha: float, t_samp: float, b_plant: float, omegas, s) -> np.ndarray:
    """Smallest K1 > 0 with f = b_plant at k0 = 0, per b1 and frequency in
    (0, pi/T] whose spectrum is s, broadcast together; inf if there is none.

    With D = S/T^a and w = T(1 - e^{-i wT}) / (2(1 - cos wT)), whose real part
    is T/2 and imaginary part (T/2) cot(wT/2), f = Re{w B1 D K1 / (K1 + B1 D)};
    in kappa = K1/B1 and lam = b/B1, f = b reads

        (Re(wD) - lam) kappa^2 + (|D|^2 T/2 - 2 lam Re D) kappa - lam |D|^2 = 0.

    Its roots are taken free of cancellation: 2 lam |D|^2 / (beta + sqrt(disc))
    for a positive linear coefficient beta, else (sqrt(disc) - beta) / (2a)
    for a positive leading one a; with neither, no root is positive.
    """
    d = s / t_samp**alpha
    half = t_samp / 2.0
    m = d.real**2 + d.imag**2
    lam = b_plant / b1
    a = half * (d.real - d.imag / np.tan(omegas * t_samp / 2.0)) - lam
    c = lam * m
    beta = half * m - 2.0 * lam * d.real
    # in place from here, so that a block holds few (columns x grid) arrays at once
    disc = 4.0 * a
    disc *= c
    disc += beta * beta
    real = (disc >= 0.0) & ((beta > 0.0) | (a > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.sqrt(disc, out=disc)
        c *= 2.0
        c /= beta + kappa
        kappa -= beta
        kappa /= 2.0 * a
    np.copyto(kappa, c, where=beta > 0.0)
    kappa[~real] = np.inf
    kappa *= b1
    return kappa


def region_scan(
    alpha: float,
    kernel: GLKernel,
    b_plant: float,
    b1_grid,
    k1_max: float,
    grid_points: int = 2048,
) -> RegionBoundary:
    """Boundary of the admissible (B1, K1) region at k0 = 0.

    Odd memory length inverts the closed form exactly.  Even memory length
    inverts f = b_plant per frequency (see _boundary_k1): a column's boundary
    is the smallest positive root over the band, on a grid of grid_points
    points but never fewer than 4(N+1), rounded up to a 5-smooth count (see
    _grid).  One (columns x grid) pass over the grid spectrum, computed once
    per call and taken in blocks of at most 2**20 values (512 columns at
    G = 2048, one column past G = 2**20), finds each column's least grid
    root; a golden section on the root curve inside that grid cell, all
    columns stepping together, refines it, and the column keeps the smaller
    of the two, reported one part in 1e12 below it.  Up to
    that K1 no grid or refined frequency has f above b_plant.  Columns whose
    boundary is at or past k1_max are capped.  k1_max and the b1 values must
    be positive and finite, and b_plant not nan.
    """
    _check_order(alpha, kernel)
    if not (math.isfinite(k1_max) and k1_max > 0.0):
        raise ValueError(f"k1_max must be positive and finite, got {k1_max}")
    b1_grid = np.asarray(list(b1_grid), dtype=float)
    bad = b1_grid[~(np.isfinite(b1_grid) & (b1_grid > 0.0))]
    if bad.size:
        raise ValueError(f"b1 grid values must be positive and finite, got {bad[0]}")
    if not _margin_ok(b_plant, 0.0):
        # bound -> 0+ as K1 -> 0+, so a nonpositive budget admits nothing
        k1, capped = np.zeros(b1_grid.size), np.zeros(b1_grid.size, dtype=bool)
        return RegionBoundary(b1=b1_grid, k1=k1, capped=capped, feasible=False)

    T = kernel.t_samp
    if kernel.n_mem % 2 == 1:
        # the bound rises with K1 toward sup; below it, invert for K1
        dp, t_a = delta_p(kernel), T**alpha
        sup = (T / 2.0) * b1_grid * dp / t_a
        with np.errstate(divide="ignore", invalid="ignore"):
            inverse = 2.0 * b_plant * b1_grid * dp / (T * b1_grid * dp - 2.0 * b_plant * t_a)
        capped = (b_plant >= sup) | (inverse >= k1_max)
        k1 = np.where(capped, k1_max, inverse)
        return RegionBoundary(b1=b1_grid, k1=k1, capped=capped, feasible=True)

    omegas = _grid(kernel, grid_points)
    s = _s_conj_values(kernel, omegas)
    i_best = np.empty(b1_grid.size, dtype=int)
    k1 = np.empty(b1_grid.size)
    block = max(1, 2**20 // omegas.size)
    for start in range(0, b1_grid.size, block):
        part = slice(start, start + block)
        roots = _boundary_k1(b1_grid[part, None], alpha, T, b_plant, omegas, s)
        i_best[part] = np.argmin(roots, axis=1)
        k1[part] = roots[np.arange(roots.shape[0]), i_best[part]]
    cols = np.flatnonzero(np.isfinite(k1))  # a column with no grid root is refined nowhere

    def neg_root(rows, x):
        return -_boundary_k1(b1_grid[cols[rows]], alpha, T, b_plant, x, _s_conj_values(kernel, x))

    k1[cols] = np.minimum(k1[cols], -_golden_max(neg_root, *_cell(omegas, i_best[cols]))[1])
    capped = ~(k1 < k1_max)
    # f at a root is b_plant only up to its roundoff, on either side: one part
    # in 1e12 below the root, f is below b_plant
    k1 = np.where(capped, k1_max, k1 * (1.0 - 1e-12))
    return RegionBoundary(b1=b1_grid, k1=k1, capped=capped, feasible=True)
