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

The even-N search runs over arrays of candidates, one (k0, k1, b1) per row,
each row taking the arithmetic of a search for it alone: max_passivity is
the one-row case, region_scan a row per damping column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


class _Rows(NamedTuple):
    """Candidate parameter sets at one order, one per row: k0, k1 and b1 are
    equal-length 1-D arrays.  _f_values reads them as it reads FoSlsParams."""

    k0: np.ndarray
    k1: np.ndarray
    b1: np.ndarray
    alpha: float

    @classmethod
    def of(cls, params: FoSlsParams) -> "_Rows":
        return cls(np.array([params.k0]), np.array([params.k1]), np.array([params.b1]), params.alpha)

    def take(self, rows) -> "_Rows":
        return _Rows(self.k0[rows], self.k1[rows], self.b1[rows], self.alpha)


def _f_values(params, T: float, omegas: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f(w) at frequencies in (0, pi/T] whose spectrum is s, for FoSlsParams or
    _Rows whose fields broadcast against omegas."""
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


def _nyquist_bound(kind: str, params: FoSlsParams, kernel: GLKernel) -> float:
    """Minimum damping of one kind as its Nyquist value, where that is the bound:
    io_* kinds at any N >= 1 (spectrum 2 at pi/T), fo_* kinds at odd N only
    (even N moves the maximum of f inside the band, above this value)."""
    p, _, dp = _kind_rules(kind, params, kernel)
    if kind.startswith("fo_") and kernel.n_mem % 2 == 0:
        raise ValueError(f"{kind} bound requires an odd memory length; use max_passivity for even N")
    return _nyquist_value(kind, p, kernel.t_samp, dp)


def _margin_ok(b_plant: float | None, b_min: float) -> bool | None:
    """Whether a plant damping, if one is given, exceeds b_min; nan is refused."""
    if b_plant is not None and math.isnan(b_plant):
        raise ValueError("plant damping must be a number, got nan")
    return None if b_plant is None else bool(b_plant > b_min)


def _f_points(rows: _Rows, kernel: GLKernel, omegas: np.ndarray) -> np.ndarray:
    """f of each candidate row at its own frequency."""
    return _f_values(rows, kernel.t_samp, omegas, _s_conj_values(kernel, omegas))


def _golden_max(rows: _Rows, kernel: GLKernel, lo: np.ndarray, hi: np.ndarray, tol: float):
    """(omega, f) arrays at the golden-section maximum of f, one per candidate
    row on its own bracket [lo, hi].

    The rows step together, one f evaluation each per step; a row leaves once
    its own bracket is at most tol wide, so it takes exactly the steps of a
    search run for it alone.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = _f_points(rows, kernel, c), _f_points(rows, kernel, d)
    a_end, b_end = np.empty_like(lo), np.empty_like(hi)
    live, sub, span = np.arange(lo.size), rows, b - a
    while live.size:
        go = span > tol
        if not go.all():
            a_end[live[~go]], b_end[live[~go]] = a[~go], b[~go]
            live, a, b, c, d, fc, fd, span = (v[go] for v in (live, a, b, c, d, fc, fd, span))
            sub = sub.take(go)
            continue
        up = fc < fd  # the maximum lies in [c, b]: a moves up to c, else b down to d
        a, b = np.where(up, c, a), np.where(up, b, d)
        span = b - a
        step = _GOLDEN * span
        x = np.where(up, a + step, b - step)  # the new d where a moved, else the new c
        c, d = np.where(up, d, x), np.where(up, x, c)
        f_new = _f_points(sub, kernel, x)
        fc, fd = np.where(up, fd, f_new), np.where(up, f_new, fc)
    x = 0.5 * (a_end + b_end)
    return x, _f_points(rows, kernel, x)


def _grid(kernel: GLKernel, grid_points: int) -> np.ndarray:
    """The uniform search grid w_j = j*pi/(G*T), j = 1..G, whose spectrum is an FFT."""
    if grid_points < 256:
        raise ValueError(f"grid_points must be at least 256, got {grid_points}")
    return np.linspace(0.0, kernel.nyquist, grid_points + 1)[1:]


def _grid_max(rows: _Rows, kernel: GLKernel, omegas: np.ndarray, s: np.ndarray, refine_at_most: float):
    """(omega, f) arrays at the maximum of f over the search grid whose
    spectrum is s, one per candidate row, from one (rows x grid) pass taken
    in blocks of at most 2**20 values (512 rows at G = 2048).

    A row's grid maximum at most refine_at_most is refined by golden section
    inside its best grid cell (f oscillates under truncation, so refinement
    must stay local); the result is never below the grid maximum.
    """
    i_best = np.empty(rows.k1.size, dtype=int)
    f = np.empty(rows.k1.size)
    block = max(1, 2**20 // omegas.size)
    for lo in range(0, rows.k1.size, block):
        part = slice(lo, lo + block)
        columns = _Rows(rows.k0[part, None], rows.k1[part, None], rows.b1[part, None], rows.alpha)
        values = _f_values(columns, kernel.t_samp, omegas, s)
        i_best[part] = np.argmax(values, axis=1)
        f[part] = values[np.arange(values.shape[0]), i_best[part]]
    w = omegas[i_best]
    refine = ~(f > refine_at_most)
    if refine.any():
        i = i_best[refine]
        lo = omegas[np.maximum(i - 1, 0)]
        hi = omegas[np.minimum(i + 1, omegas.size - 1)]
        tol = (omegas[1] - omegas[0]) * 1e-6
        w_star, f_star = _golden_max(rows.take(refine), kernel, lo, hi, tol)
        keep = f_star < f[refine]
        w[refine] = np.where(keep, w[refine], w_star)
        f[refine] = np.where(keep, f[refine], f_star)
    return w, f


def max_passivity(
    params: FoSlsParams, kernel: GLKernel, grid_points: int = 8192, b_plant: float | None = None
) -> PassivityResult:
    """Maximum of f over (0, pi/T], located by parity-aware search.

    Odd memory length: the maximum is at Nyquist; the grid is still swept and
    required to agree.  Even memory length: grid maximum followed by local
    golden-section refinement.  margin_ok compares b_plant, if given (not nan).
    """
    _check_order(params.alpha, kernel)
    omegas = _grid(kernel, grid_points)
    s = _s_conj_values(kernel, omegas)
    if kernel.n_mem % 2 == 0:
        w_star, f_star = _grid_max(_Rows.of(params), kernel, omegas, s, math.inf)
        b_min = float(f_star[0])
        return PassivityResult(b_min, float(w_star[0]), "grid", _margin_ok(b_plant, b_min))
    f_grid = float(_grid_max(_Rows.of(params), kernel, omegas, s, -math.inf)[1][0])
    f_nyq = _nyquist_bound("fo_sls", params, kernel)
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
    b_min = _nyquist_bound("fo_sls", params, kernel)
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
    """Minimum damping for one of the classical reductions.

    The Nyquist value of the reduced impedance.  Kelvin-Voigt kinds use the
    dedicated infinite-branch-stiffness formula; integer-order kinds are exact
    for any N >= 1 (the alternating sum is 2).  The fractional kinds take the
    alternating sum from the kernel, so its order must match params.alpha, and
    are refused at even N, where the Nyquist value is below the bound.
    """
    return _nyquist_bound(kind, params, kernel)


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
    bisects the grid-search bound down to `resolution` [N/mm].  resolution,
    k1_max and the b1 values must be positive and finite, resolution at least
    the float spacing at k1_max, and b_plant not nan.

    The even-N bisection runs all uncapped columns in lock-step.  A step is
    one (columns x grid) pass on the grid spectrum, which does not depend on
    (K1, B1) and is computed once per call, plus one golden-section
    refinement of the candidates whose grid maximum does not already exceed
    the plant damping.  Each column keeps its own bracket and stops at its
    own resolution (a rounded midpoint can leave one bracket an ulp wider
    than another), so it returns exactly what a bisection of it alone returns.
    """
    _check_order(alpha, kernel)
    if not (math.isfinite(k1_max) and k1_max > 0.0):
        raise ValueError(f"k1_max must be positive and finite, got {k1_max}")
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    if resolution < math.ulp(k1_max):
        # a bracket stops halving one float spacing wide, so the bisection would never end
        raise ValueError(
            f"resolution {resolution} is below the float spacing {math.ulp(k1_max)} at k1_max"
        )
    b1_grid = np.asarray(list(b1_grid), dtype=float)
    bad = b1_grid[~(np.isfinite(b1_grid) & (b1_grid > 0.0))]
    if bad.size:
        raise ValueError(f"b1 grid values must be positive and finite, got {bad[0]}")
    k1 = np.zeros(b1_grid.size)
    capped = np.zeros(b1_grid.size, dtype=bool)
    if not _margin_ok(b_plant, 0.0):
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

    def admissible(cols: np.ndarray, k1_vals: np.ndarray) -> np.ndarray:
        rows = _Rows(np.zeros(cols.size), k1_vals, b1_grid[cols], alpha)
        return _grid_max(rows, kernel, omegas, s, b_plant)[1] <= b_plant

    cols = np.arange(b1_grid.size)
    capped = admissible(cols, np.full(cols.size, k1_max))
    k1 = np.where(capped, k1_max, 0.0)
    cols = cols[~capped]
    lo, hi = np.zeros(cols.size), np.full(cols.size, k1_max)
    while cols.size:
        done = ~(hi - lo > resolution)
        if done.any():
            k1[cols[done]] = lo[done]
            cols, lo, hi = cols[~done], lo[~done], hi[~done]
            continue
        mid = 0.5 * (lo + hi)
        ok = admissible(cols, mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return RegionBoundary(b1=b1_grid, k1=k1, capped=capped, feasible=True)
