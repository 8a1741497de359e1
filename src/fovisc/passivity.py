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
parabolic search that refines the maximum of f.  The grid stage bounds the
roots of each block of grid points from below and evaluates only the blocks
whose bound can beat the column's least root.  Both searches evaluate the
spectrum near a grid point from its Taylor expansion about that point,
computed once per distinct point, not from a direct sum over the N + 1
weights per frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .glkernel import (
    GLKernel,
    _flat_omegas,
    _s_conj_taylor,
    _s_conj_values,
    _shaped,
    _taylor_terms,
    _taylor_values,
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

_SCAN = np.linspace(0.0, 1.0, 65)  # _parabolic_max's first pass across a bracket
_STENCIL = np.array([-1.0, 0.0, 1.0])
_BLOCK = 16  # grid points per block of the even-N root pass (_least_grid_roots)
_MAX_VALUES = 2**20  # values per array of a (columns x grid) pass


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


def _parabolic_max(value, lo: np.ndarray, hi: np.ndarray, tol: float):
    """(x, value) arrays at the maximum of value(rows, x) inside [lo, hi], one
    row per bracket; value maps an index array of rows and a (rows, k) array
    of abscissas, k per row, to their values.

    A row scans its bracket at 65 points, then takes parabolic steps
    (Brent, Algorithms for Minimization without Derivatives, 1973) from the
    best of them: the vertex of the parabola through a stencil of three
    points h apart, kept within the stencil, or the best of the three where
    they are not concave.  The vertex misses the maximum by O(h^2), so the
    stencil, centred on the new point inside the bracket, shrinks from the
    scan spacing h0 as h -> h^2/(10 h0), until it is at most tol wide.  The
    rows step together, one value call each per step, and a row's
    arithmetic is elementwise, so it ends where a search run for it alone
    ends.
    """
    live = np.arange(lo.size)
    x = lo[:, None] + (hi - lo)[:, None] * _SCAN
    h0 = (hi - lo) / (_SCAN.size - 1)
    p, h = x[live, np.argmax(value(live, x), axis=1)], h0
    x_end = np.empty_like(lo)
    while live.size:
        p = np.clip(p, lo + h, hi - h)
        x = p[:, None] + h[:, None] * _STENCIL
        f = value(live, x)
        f_lo, f_mid, f_hi = f.T
        bend = f_lo - 2.0 * f_mid + f_hi
        concave = np.isfinite(bend) & (bend < 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.clip(h * (f_lo - f_hi) / (2.0 * bend), -h, h)
        p = np.where(concave, p + step, x[np.arange(live.size), np.argmax(f, axis=1)])
        h = h * (h / (10.0 * h0))
        done = 2.0 * h <= tol
        x_end[live[done]] = np.clip(p[done], lo[done], hi[done])
        live, p, h, h0, lo, hi = (v[~done] for v in (live, p, h, h0, lo, hi))
    return x_end, value(np.arange(x_end.size), x_end[:, None])[:, 0]


def _cell(omegas: np.ndarray, i) -> tuple:
    """The two grid cells around grid index i as a bracket, and the search tolerance, 1e-6 of a cell."""
    lo = omegas[np.maximum(i - 1, 0)]
    hi = omegas[np.minimum(i + 1, omegas.size - 1)]
    return lo, hi, (omegas[1] - omegas[0]) * 1e-6


def _cell_spectrum(kernel: GLKernel, omegas: np.ndarray, i: np.ndarray):
    """The spectrum s(rows, x) near grid points omegas[i], one row each: one
    Taylor expansion (_s_conj_taylor) per distinct grid point, computed once
    here and evaluated in O(terms) per abscissa, whatever N is."""
    centres, row_cell = np.unique(i, return_inverse=True)
    scale = kernel.t_samp * (kernel.n_mem + 1)
    terms = _taylor_terms((omegas[1] - omegas[0]) * scale)
    taylor = np.array([_s_conj_taylor(kernel, omegas[j], terms) for j in centres]).reshape(-1, terms)[row_cell]

    def spectrum(rows, x):
        return _taylor_values(taylor[rows, None, :], (x - omegas[i[rows], None]) * scale)

    return spectrum


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
    required to agree.  Even memory length: grid maximum followed by a
    parabolic search in the two cells around it (_parabolic_max), on the
    spectrum's Taylor expansion about the grid point (_cell_spectrum); b_min
    is never below the grid maximum.  The grid has grid_points points, but
    never fewer than 4(N+1), rounded up to a 5-smooth count (see _grid).
    margin_ok compares b_plant, if given (not nan).
    """
    _check_order(params.alpha, kernel)
    omegas = _grid(kernel, grid_points)
    values = _f_values(params, kernel.t_samp, omegas, _s_conj_values(kernel, omegas))
    i = int(np.argmax(values))
    if kernel.n_mem % 2 == 0:
        w, b_min = float(omegas[i]), float(values[i])
        # f oscillates under truncation, so refinement stays inside the best grid cell
        cell = np.array([i])
        spectrum = _cell_spectrum(kernel, omegas, cell)
        w_star, f_star = _parabolic_max(
            lambda rows, x: _f_values(params, kernel.t_samp, x, spectrum(rows, x)), *_cell(omegas, cell)
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


def _root_terms(alpha: float, t_samp: float, omegas, s) -> tuple:
    """The per-frequency terms of _boundary_k1's quadratic at frequencies in
    (0, pi/T] whose spectrum is s: Re D, |D|^2, Re(wD) and (T/2)|D|^2."""
    d = s / t_samp**alpha
    half = t_samp / 2.0
    m = d.real**2 + d.imag**2
    return d.real, m, half * (d.real - d.imag / np.tan(omegas * t_samp / 2.0)), half * m


def _root_step(b1, b_plant: float, terms) -> np.ndarray:
    """_boundary_k1 per b1 and frequency from the frequency's _root_terms,
    broadcast together, with correctly rounded +, -, *, / and sqrt only: a
    root taken from the grid's terms has the bits of the full pass."""
    re_d, m, u, half_m = terms
    lam = b_plant / b1
    a = u - lam
    c = lam * m
    beta = half_m - 2.0 * lam * re_d
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
    return _root_step(b1, b_plant, _root_terms(alpha, t_samp, omegas, s))


def _least_grid_roots(b1: np.ndarray, alpha: float, t_samp: float, b_plant: float, omegas, s) -> tuple:
    """Each column's least grid root and the grid index of its first
    occurrence, as np.argmin over the full (columns x grid) pass of
    _boundary_k1 gives them, from the roots of a few blocks of the grid.

    The grid is cut into blocks of _BLOCK points.  On the block's largest
    Re(wD) and (T/2)|D|^2 and least Re D and |D|^2, the quadratic is at least
    that of every frequency in the block for kappa > 0, so _root_step there
    gives a lower bound on every root in the block, inf where none has a
    root; computed roots keep that order up to a few roundings.  A column
    evaluates its block of least bound, then every block whose bound, less
    one part in 1e6, is not above that block's least root, and whose bound
    is not inf.  A column prunes nothing where an intermediate of its roots
    could overflow, which breaks that order.  No array holds more than
    _MAX_VALUES values, but one column's bounds past that many blocks.
    """
    terms = _root_terms(alpha, t_samp, omegas, s)
    re_d, m, u, half_m = terms
    starts = np.arange(0, omegas.size, _BLOCK)
    extremes = tuple(
        reduce.reduceat(t, starts)
        for reduce, t in zip((np.minimum, np.minimum, np.maximum, np.maximum), terms)
    )
    lam = b_plant / b1
    with np.errstate(over="ignore", invalid="ignore"):
        # at least every intermediate of _root_step over the column, in magnitude
        worst = 4.0 * (np.max(np.abs(u)) + lam) * (lam * np.max(m))
        worst += (np.max(half_m) + 2.0 * lam * np.max(np.abs(re_d))) ** 2
    prunes = worst < 1e300  # nan: nothing
    cells, step = np.arange(_BLOCK), max(1, _MAX_VALUES // _BLOCK)

    def block_minima(col, block):
        # the least root of each (column, block) pair and its first grid index
        k, i = np.empty(col.size), np.empty(col.size, dtype=int)
        for lo in range(0, col.size, step):
            part = slice(lo, lo + step)
            # a short last block repeats the last grid point, after its first place
            idx = np.minimum(block[part, None] * _BLOCK + cells, omegas.size - 1)
            roots = _root_step(b1[col[part], None], b_plant, tuple(t[idx] for t in terms))
            j = np.argmin(roots, axis=1)
            rows = np.arange(j.size)
            k[part], i[part] = roots[rows, j], idx[rows, j]
        return k, i

    k1, i_best = np.empty(b1.size), np.empty(b1.size, dtype=int)
    chunk = max(1, _MAX_VALUES // starts.size)
    for lo in range(0, b1.size, chunk):
        cols = np.arange(lo, min(lo + chunk, b1.size))
        bound = _root_step(b1[cols, None], b_plant, extremes)
        first = np.argmin(bound, axis=1)
        k, i = block_minima(cols, first)
        pruned = prunes[cols, None] & ((bound * (1.0 - 1e-6) > k[:, None]) | (bound == np.inf))
        pruned[np.arange(cols.size), first] = True  # evaluated already
        row, block = np.nonzero(~pruned)
        more = block_minima(cols[row], block)
        col, k, i = (np.concatenate(pair) for pair in zip((cols, k, i), (cols[row], *more)))
        # per column the least root (nan first, as np.argmin takes it), ties to the smaller index
        order = np.lexsort((i, np.where(np.isnan(k), -np.inf, k), col))
        head = order[np.r_[True, col[order][1:] != col[order][:-1]]]
        k1[cols] = k[head]
        # a column with no root anywhere is inf throughout, whose np.argmin is 0
        i_best[cols] = np.where(k[head] == np.inf, 0, i[head])
    return i_best, k1


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
    _grid).  The grid spectrum is computed once per call, and each column's
    least grid root comes from a lower bound per block of 16 grid points and
    the roots of the few blocks whose bound can beat the column's best
    (_least_grid_roots): the root and index of a full (columns x grid) pass.
    A parabolic search on the root curve in the two cells around it
    (_parabolic_max), all columns stepping together, refines it on the
    spectrum's Taylor expansion about that grid point, one expansion per
    distinct point however many columns share it (_cell_spectrum).  The
    column keeps the smaller of the two roots, reported one part in 1e12
    below it.  Up to that K1 no grid or refined frequency has f above
    b_plant.  Columns whose boundary is at or past k1_max are capped.  k1_max
    and the b1 values must be positive and finite, and b_plant finite; a
    nonpositive b_plant admits no K1 (feasible is False).
    """
    _check_order(alpha, kernel)
    if not (math.isfinite(k1_max) and k1_max > 0.0):
        raise ValueError(f"k1_max must be positive and finite, got {k1_max}")
    b1_grid = np.asarray(list(b1_grid), dtype=float)
    bad = b1_grid[~(np.isfinite(b1_grid) & (b1_grid > 0.0))]
    if bad.size:
        raise ValueError(f"b1 grid values must be positive and finite, got {bad[0]}")
    if math.isinf(b_plant):  # the inversions would take inf/inf and inf - inf
        raise ValueError(f"plant damping must be finite, got {b_plant}")
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
    i_best, k1 = _least_grid_roots(b1_grid, alpha, T, b_plant, omegas, _s_conj_values(kernel, omegas))
    cols = np.flatnonzero(np.isfinite(k1))  # a column with no grid root is refined nowhere
    spectrum = _cell_spectrum(kernel, omegas, i_best[cols])

    def neg_root(rows, x):
        return -_boundary_k1(b1_grid[cols[rows], None], alpha, T, b_plant, x, spectrum(rows, x))

    k1[cols] = np.minimum(k1[cols], -_parabolic_max(neg_root, *_cell(omegas, i_best[cols]))[1])
    capped = ~(k1 < k1_max)
    # f at a root is b_plant only up to its roundoff, on either side: one part
    # in 1e12 below the root, f is below b_plant
    k1 = np.where(capped, k1_max, k1 * (1.0 - 1e-12))
    return RegionBoundary(b1=b1_grid, k1=k1, capped=capped, feasible=True)
