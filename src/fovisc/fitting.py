"""Passivity-constrained identification from creep and relaxation records.

A record is an ExperimentData: its samples and the protocol of ``models``
that produced them.  The protocol gives everything the fit knows of the
record besides its samples: the stimulus the start scan reads, and the
record filter and sensitivities (models._record_filter and
_record_sensitivities) that synth_experiment, the residuals and the
Jacobian run.

The odd-memory closed-form bound b_min = K0*T/2 + branch(K1, B1, alpha) is
affine in K0, so the search never leaves the passive set: it varies
(slack >= 0, log K1, log B1, alpha) and takes

    K0 = (2/T) * (b_plant - branch(K1, B1, alpha)) - slack,

the largest parallel stiffness the plant damping admits, less the slack.
The start comes from the records: once alpha is fixed the law is linear in
its parameters, so an equation-error estimate at an order of a fixed grid,
refined by one Steiglitz-McBride pass on the records prefiltered by it,
gives a candidate.  The grid is scanned coarse to fine: every fourth order
and alpha = 1 first, then the orders between the best coarse one's
neighbours.  The candidates are scored best-first by their estimate's
equation error, and one whose leading samples already fit worse than the
best so far is dropped there.  The candidate whose forward records fit best
starts one box-bounded trust-region Levenberg-Marquardt solve
(_levenberg_marquardt) on the residuals of all experiments, each scaled by
its NRMSE scale.  It starts at the candidate itself, keeps the box (alpha's
[_ALPHA_LO, 1] among it) exactly, and takes only steps that lower the cost,
so the fit is never worse than its start.  A residual, a start's score and
the reported NRMSE are each one run of the records through their filters
(_record_run), which a score stops once the candidate cannot win.  The
Jacobian is exact: the record sensitivities of ``models``, built from the
predictions of the last residual run, chained through the passive map.  An
evaluation is one residual, one Jacobian or one scored candidate, stopped
early or not; the budget caps the solve's.  SciPy's optimizers are not
used, so a fit does not import scipy.optimize.  The returned set is
re-verified against the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .glkernel import GLKernel, _coeffs_dalpha, build_kernel, delta_p
from .models import (
    CreepProtocol,
    FoSlsParams,
    RelaxationProtocol,
    _fir,
    _lfilter,
    _poles_outside,
    _record_filter,
    _record_sensitivities,
    _steps_through,
)
from .passivity import _nyquist_value, bound_closed_form

__all__ = [
    "ExperimentData",
    "FitResult",
    "FitConfig",
    "nrmse",
    "fit",
    "synth_experiment",
]

_ALPHA_LO = 0.01  # floor keeps the order away from the degenerate spring

# Search box of theta = (slack, log K1, log B1, alpha): wide enough for
# any plausible material in {N, mm, s} units, finite so candidates cannot reach
# degenerate corners (astronomical stiffness with vanishing damping still
# satisfies the bound).  The slack spans the width of the K0 box.
_K0_BOX = 1e3
_LOG_BOX = math.log(1e3)
_BOUNDS = np.array([[0.0, -_LOG_BOX, -_LOG_BOX, _ALPHA_LO], [2.0 * _K0_BOX, _LOG_BOX, _LOG_BOX, 1.0]])

# Orders at which the start is estimated from the records
_START_ALPHAS = np.linspace(0.02, 1.0, 50)

# Grid indices between two coarse orders of the start scan
_COARSE_STRIDE = 4

# Samples of a record in a candidate's first scored block; each next block is twice as long
_FIRST_BLOCK = 128

# Cap on a single residual.  Unstable creep inverse filters and undefined
# predictions land on it; a record that touches it gives zero Jacobian rows,
# so the matrix handed to the QR stays finite.
_WALL = 1e3

# Relative tolerance of the solve's stopping tests on the cost and the step
# (ftol = xtol of MINPACK's lmder)
_TOL = 1e-8


@dataclass(frozen=True)
class ExperimentData:
    """One recorded protocol: displacement [mm] under a CreepProtocol, force
    [N] under a RelaxationProtocol, on a strictly increasing uniform time grid."""

    time: np.ndarray  # s
    values: np.ndarray
    stimulus: CreepProtocol | RelaxationProtocol

    def __post_init__(self):
        if not isinstance(self.stimulus, (CreepProtocol, RelaxationProtocol)):
            raise ValueError(f"unknown protocol {self.stimulus!r}")
        t, values = np.asarray(self.time, dtype=float), np.asarray(self.values, dtype=float)
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "values", values)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least two samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(values))):
            raise ValueError("time and values must be finite (no NaN or inf)")
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            raise ValueError("time stamps must be strictly increasing")
        if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
            raise ValueError("time grid must be uniform")
        if values.shape != t.shape:
            raise ValueError("time and value lengths differ")

    @property
    def kind(self) -> str:
        return "creep" if isinstance(self.stimulus, CreepProtocol) else "relaxation"

    @property
    def t_samp(self) -> float:
        return float(self.time[1] - self.time[0])


@dataclass(frozen=True)
class FitResult:
    params: FoSlsParams
    n_mem: int
    nrmse: float
    passivity_ok: bool
    objective_evals: int
    converged: bool


@dataclass(frozen=True)
class FitConfig:
    b_plant: float = 0.0025  # N*s/mm available for dissipation
    max_evals: int = 20000  # residual plus Jacobian evaluations

    def __post_init__(self):
        if not (0.0 <= self.b_plant < math.inf):  # as simloop.PlantParams requires
            raise ValueError(f"plant damping b_plant must be finite and nonnegative, got {self.b_plant}")
        if self.max_evals < 3:  # one residual, one Jacobian and one step
            raise ValueError("max_evals must be at least 3")


def nrmse(predicted, measured) -> float:
    """Root-mean-square error over the measured signal's range (max - min)."""
    predicted = np.asarray(predicted, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if predicted.shape != measured.shape or measured.size < 2:
        raise ValueError("series must have equal length >= 2")
    with np.errstate(over="ignore"):  # an overflowing prediction has an infinite error
        return float(np.sqrt(np.mean((predicted - measured) ** 2))) / _scale(measured)


def _scale(measured: np.ndarray) -> float:
    scale = float(np.max(measured) - np.min(measured))
    if scale <= 0.0:
        raise ValueError("measured series has zero scale; NRMSE undefined")
    return scale


def synth_experiment(
    params: FoSlsParams,
    kernel,
    protocol: CreepProtocol | RelaxationProtocol,
    noise_sd: float = 0.0,
    seed: int | None = None,
) -> ExperimentData:
    """Model output under a protocol, optionally with additive Gaussian noise.

    A creep record is refused when the force law has no stable inverse: its
    creep filter has a pole outside the unit circle, so the record diverges.
    """
    if not (0.0 <= noise_sd < math.inf):
        raise ValueError(f"noise_sd must be finite and nonnegative, got {noise_sd}")
    b, a, u, offset = _record_filter(params, kernel, protocol)
    unstable = isinstance(protocol, CreepProtocol) and _poles_outside(a)  # a is the law's num
    if unstable:
        msg = f"the force law's inverse has {unstable} pole(s) outside the unit circle"
        raise ValueError(f"the creep record diverges: {msg}")
    values = offset + _lfilter(b, a, u)
    if noise_sd > 0.0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sd, size=values.size)
    return ExperimentData(time=np.arange(u.size) * kernel.t_samp, values=values, stimulus=protocol)


def _passive_params(
    theta, n_mem: int, t_samp: float, b_plant: float
) -> tuple[FoSlsParams, GLKernel]:
    """Candidate for theta = (slack, log K1, log B1, alpha) whose
    closed-form bound does not exceed b_plant."""
    slack, log_k1, log_b1, alpha = (float(v) for v in theta)
    k1, b1 = math.exp(log_k1), math.exp(log_b1)
    kern = build_kernel(alpha, n_mem, t_samp)
    dp = delta_p(kern)
    branch = _nyquist_value("fo_sls", FoSlsParams(0.0, k1, b1, alpha), t_samp, dp)
    k0 = 2.0 / t_samp * (b_plant - branch) - slack
    while True:
        params = FoSlsParams(k0=k0, k1=k1, b1=b1, alpha=alpha)
        # bound_closed_form(params, kern).b_min, bit for bit
        excess = _nyquist_value("fo_sls", params, t_samp, dp) - b_plant
        if excess <= 0.0:
            return params, kern
        # roundoff can leave the recomputed bound a few ulps above b_plant
        k0 = min(float(np.nextafter(k0, -math.inf)), k0 - 2.0 * excess / t_samp)


def _passive_map_jacobian(params: FoSlsParams, kern: GLKernel, dc: np.ndarray) -> np.ndarray:
    """d(K0, K1, B1, alpha)/d theta of _passive_params (the ulp step-down ignored).

    K0 = (2/T) b_plant - Z - slack with Z = K1*B1*D/q, D = dp/T^a, q = K1 + B1*D.
    """
    k1, b1, alpha, t_samp = params.k1, params.b1, params.alpha, kern.t_samp
    d = delta_p(kern) / t_samp**alpha
    d_alpha = float(np.sum(dc[::2]) - np.sum(dc[1::2])) / t_samp**alpha - d * math.log(t_samp)
    q2 = (k1 + b1 * d) ** 2
    z_k1, z_b1, z_alpha = (b1 * d) ** 2 / q2, k1 * k1 * d / q2, k1 * k1 * b1 * d_alpha / q2
    return np.array([
        [-1.0, -k1 * z_k1, -b1 * z_b1, -z_alpha],
        [0.0, k1, 0.0, 0.0],
        [0.0, 0.0, b1, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def _record_run(experiments: list[ExperimentData], n_mem: int, config: FitConfig):
    """(run, records): the one forward pass of a fit's records, and each
    record's (data, slice of r, weight): r's squared norm sums the squared NRMSEs.

    run(theta, best=inf) is (r, model): theta's weighted residuals, NaN and
    any beyond the wall put on it, and model = (params, kernel, predictions),
    None when the candidate is refused (e.g. zero instantaneous stiffness:
    creep has no inverse; every residual then sits on the wall) or the run
    stops.  A record runs in blocks, _FIRST_BLOCK samples and each next twice
    as long (one block when best is inf), the filter state carried, which
    gives the samples of one pass.  Once a leading part sums past
    best*(1 + 2n*eps), the complete sum exceeds best (a computed sum of n
    nonnegative terms is within a relative (n-1)*eps/2 of the exact one), so
    the run stops, its residuals inf from that block on.
    """
    t_samp = experiments[0].t_samp
    edges = np.cumsum([0] + [e.values.size for e in experiments])
    records = [(e, slice(lo, hi), 1.0 / (_scale(e.values) * e.values.size**0.5))
               for e, lo, hi in zip(experiments, edges[:-1], edges[1:])]
    rounding = 1.0 + 2.0 * edges[-1] * np.finfo(float).eps

    def run(theta, best=math.inf):
        r = np.full(edges[-1], _WALL)
        try:
            params, kern = _passive_params(theta, n_mem, t_samp, config.b_plant)
            filters = [_record_filter(params, kern, e.stimulus, e.values.size) for e in experiments]
        except ValueError:
            return r, None
        preds, prefix = [], 0.0
        for (b, a, u, offset), (exp, block, weight) in zip(filters, records):
            pred, state = np.empty(u.size), np.zeros(a.size - 1)
            lo, size = 0, _FIRST_BLOCK if best < math.inf else u.size
            while lo < u.size:
                part, hi = r[block][lo : lo + size], min(lo + size, u.size)
                with np.errstate(over="ignore", invalid="ignore"):
                    y, state = _lfilter(b, a, u[lo:hi], state)
                    np.subtract(np.add(offset, y, out=pred[lo:hi]), exp.values[lo:hi], out=part)
                    part *= weight
                np.fmax(np.fmin(part, _WALL, out=part), -_WALL, out=part)  # fmin takes NaN to the wall
                prefix += float(np.sum(part**2))
                if prefix > best * rounding:
                    r[block.start + lo :] = math.inf
                    return r, None
                lo, size = hi, 2 * size
            preds.append(pred)
        return r, (params, kern, preds)

    return run, records


def _objective(experiments: list[ExperimentData], n_mem: int, config: FitConfig):
    """(residuals, jacobian, score) in theta of the weighted residuals of all
    records.  residuals(theta) is run(theta) of _record_run, and score(theta,
    best) the sum of squares of run(theta, best): float(np.sum(residuals(theta)
    ** 2)) bit for bit, or inf once the run stops.  The Jacobian reuses the
    predictions of the last residual run, which is where the solve asks for
    it; at any other theta it runs the residual first.  A
    record whose residuals touch the wall, or whose sensitivities are not
    finite, gives zero rows.
    """
    run, records = _record_run(experiments, n_mem, config)
    last = {}

    def residuals(theta: np.ndarray) -> np.ndarray:
        r, model = run(theta)
        last.update(theta=np.array(theta, dtype=float), r=r, model=model)
        return r

    def score(theta: np.ndarray, best: float) -> float:
        return float(np.sum(run(theta, best)[0] ** 2))

    def jacobian(theta: np.ndarray) -> np.ndarray:
        if not np.array_equal(theta, last.get("theta")):
            residuals(theta)
        jac = np.zeros((4, last["r"].size))
        if last["model"] is None:
            return jac.T
        params, kern, preds = last["model"]
        dc = _coeffs_dalpha(kern)
        chain = _passive_map_jacobian(params, kern, dc).T
        for (exp, block, weight), pred in zip(records, preds):
            if np.any(np.abs(last["r"][block]) >= _WALL):
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                rows = chain @ (_record_sensitivities(params, kern, dc, exp.stimulus, pred) * weight)
            if np.all(np.isfinite(rows)):
                jac[:, block] = rows
        return jac.T

    return residuals, jacobian, score


def _lm_step(r_free: np.ndarray, qtr: np.ndarray, d: np.ndarray, delta: float, lam: float):
    """(p, lam): the step p minimising ||R p + qtr||^2 + lam ||D p||^2 whose
    ||D p|| is delta within 10%, or the Gauss-Newton step when that is shorter.

    R (4 x k, the free columns of the Jacobian's R) scaled by D has the SVD
    U S V^T, so ||D p(lam)|| = ||c / (s^2 + lam)|| with c = S U^T qtr, and lam
    comes from Newton's method on 1/||D p|| = 1/delta, safeguarded between
    Newton's lower bound from 0 and ||c||/delta, from the last lam on (More,
    LNM 630, 1978).
    """
    u, s, vt = np.linalg.svd(r_free / d, full_matrices=False)
    rank = s > s[0] * s.size * np.finfo(float).eps  # directions below roundoff take no step
    c, s2 = (s * (u.T @ qtr))[rank], (s * s)[rank]

    def step(lam):
        w = c / (s2 + lam)
        return -(vt[rank].T @ w) / d, float(np.linalg.norm(w)), float(np.sum(w * w / (s2 + lam)))

    p, norm, slope = step(0.0)
    if norm <= 1.1 * delta:
        return p, 0.0
    # Newton on 1/||D p||, whose ||D p|| falls with lam at the rate slope/||D p||
    lower = (norm - delta) / delta * norm**2 / slope if np.all(rank) else 0.0
    upper = float(np.linalg.norm(c)) / delta
    for _ in range(10):
        if not lower < lam < upper:
            lam = max(1e-3 * upper, math.sqrt(lower * upper))
        p, norm, slope = step(lam)
        if abs(norm - delta) <= 0.1 * delta:
            break
        if norm > delta:
            lower = lam
        else:
            upper = lam
        lam += (norm - delta) / delta * norm**2 / slope
    return p, lam


def _levenberg_marquardt(residuals, jacobian, x0, bounds, max_evals: int):
    """(x, cost, nfev, njev, converged) of a box-bounded trust-region
    Levenberg-Marquardt solve of min 0.5 ||residuals(x)||^2 from x0.

    More's (LNM 630, 1978) as in MINPACK's lmder: D is the running maximum of
    the Jacobian's column norms, the radius starts at 100 ||D x0|| and is cut
    to the first step's length.  A step whose ratio rho of actual to
    predicted reduction is below 0.25 cuts the radius to a quarter of the
    shorter of it and the step, one above 0.75 widens it to at least twice
    the step, and one above 1e-4 is taken.  The step and its predicted
    reduction come from R and Q^T r of one QR of [J r] (see _lm_step), so no
    other n-row factorisation runs.  A coordinate on a face of the box whose
    gradient points out of it is frozen, one on a face that the step would
    leave by is held there and the step solved again for the others, and a
    step that would leave the box is shortened along its direction to the
    first face it meets: every x residuals sees is inside, on a face exactly
    when a step ends there, and x0 is taken as given.  (Clipping a step
    coordinate by coordinate instead turns it out of a narrow valley that
    runs into a face.)  The solve stops on a zero cost, on a zero
    projected gradient, when the last step's actual and predicted reductions
    are both within _TOL of the cost, or when the radius falls below
    _TOL ||D x||; converged is False only when nfev + njev would pass
    max_evals first.  Each step is one residual, and each taken step one
    Jacobian, at the residual's x.
    """
    lo, hi = bounds
    x = np.array(x0, dtype=float)
    r = residuals(x)
    cost, nfev, njev = 0.5 * float(r @ r), 1, 0
    d = np.zeros(x.size)
    delta = lam = None
    while cost > 0.0:
        if nfev + njev + 2 > max_evals:  # room for a Jacobian and a step
            return x, cost, nfev, njev, False
        jac = jacobian(x)
        njev += 1
        d = np.maximum(d, np.linalg.norm(jac, axis=0))
        d[d == 0.0] = 1.0
        if delta is None:
            delta, lam = 100.0 * (float(np.linalg.norm(d * x)) or 1.0), 0.0
        qr = np.linalg.qr(np.column_stack([jac, r]), mode="r")
        r_mat, qtr = qr[: x.size, : x.size], qr[: x.size, x.size]
        g = r_mat.T @ qtr  # the cost's gradient, J^T r
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if not np.any(g[free]):
            break
        while True:
            held = ~free
            while True:  # hold each coordinate on a face that the step would leave by
                p = np.zeros(x.size)
                p[~held], lam = _lm_step(r_mat[:, ~held], qtr, d[~held], delta, lam)
                out = ((x <= lo) & (p < 0.0)) | ((x >= hi) & (p > 0.0))
                if not np.any(out):
                    break
                held |= out
            with np.errstate(all="ignore"):  # a zero component has no face ahead
                room = np.where(p > 0.0, (hi - x) / p, np.where(p < 0.0, (lo - x) / p, np.inf))
            t = min(1.0, float(np.min(room)))
            trial = np.clip(x + t * p, lo, hi)
            met = room == t  # the faces the shortened step meets
            trial[met] = np.where(p > 0.0, hi, lo)[met]
            p = trial - x
            step = float(np.linalg.norm(d * p))
            if njev == 1 and nfev == 1:
                delta = min(delta, step)
            r_trial = residuals(trial)
            nfev += 1
            cost_trial = 0.5 * float(r_trial @ r_trial)
            actual = cost - cost_trial
            predicted = -float(g @ p) - 0.5 * float(np.sum((r_mat @ p) ** 2))
            rho = actual / predicted if predicted > 0.0 else 0.0
            if rho < 0.25:  # the next trial is shorter than this one
                delta, lam = 0.25 * min(delta, step), 4.0 * lam
            elif rho > 0.75:
                delta, lam = max(delta, 2.0 * step), 0.5 * lam
            small = abs(actual) <= _TOL * cost and predicted <= _TOL * cost and rho <= 2.0
            taken = rho > 1e-4
            if taken:
                x, r, cost = trial, r_trial, cost_trial
            if small or delta <= _TOL * float(np.linalg.norm(d * x)) or cost == 0.0:
                return x, cost, nfev, njev, True
            if taken:
                break
            if nfev + njev >= max_evals:
                return x, cost, nfev, njev, False
    return x, cost, nfev, njev, True


def _null_vector(columns: np.ndarray) -> tuple[np.ndarray, float]:
    """(v, sigma): the smallest singular value of columns with each column
    scaled to unit norm, and its right singular vector in the columns' own
    units.  Both come from the 4x4 R of one QR: R's columns have the norms of
    the matrix's, and scaling a column of the matrix scales that of R."""
    r = np.linalg.qr(columns, mode="r")
    norms = np.sqrt(np.einsum("ij,ij->j", r, r))
    singular, vectors = np.linalg.svd(r / norms)[1:]
    return vectors[-1] / norms, float(singular[-1])


def _order_start(vector: np.ndarray, alpha: float, t_samp: float):
    """(theta, K0) of the vector (a, b, p, q) at order alpha, theta's slack
    left at 0 until the cap is known; None when the vector gives K1 <= 0,
    B1 <= 0 or K0 outside the box."""
    a, b, p, q = vector
    with np.errstate(all="ignore"):  # a degenerate vector gives inf or NaN, and is skipped
        k0, k1 = q / b, p / a - q / b
        theta = np.append(np.log([1.0, k1, a * k1 / b * t_samp**alpha]), alpha)
    if np.all(np.isfinite(theta[1:3])) and abs(k0) <= _K0_BOX:
        return np.clip(theta, *_BOUNDS), k0
    return None


def _prefiltered_vector(columns: np.ndarray, records: list, c: np.ndarray, vector: np.ndarray):
    """The null vector of the records prefiltered by the filters of vector
    (see _equation_error_starts), filled into columns; None when the creep
    prefilter has a pole outside the unit circle, or a prefilter has g = 0
    or P[0] = 0."""
    prefilters = {}  # creep? -> (g, h, P) of P = g*c + h with P[0] = 1
    for creep, part, stimulus, at, heights, series in records:
        if creep not in prefilters:
            g, h = vector[2:] if creep else vector[:2]  # num for creep, den for relaxation
            if g == 0.0 or g + h == 0.0:
                return None
            g, h = g / (g + h), h / (g + h)
            poly = g * c
            poly[0] += h
            if creep and _poles_outside(poly):
                return None
            prefilters[creep] = g, h, poly
        g, h, poly = prefilters[creep]
        measured, step = _lfilter([1.0], poly, np.vstack([series, np.ones(series.size)]))
        known = _steps_through(step, at, heights, series.size)
        f, x, f_p, x_p = (stimulus, series, known, measured) if creep else (series, stimulus, measured, known)
        columns[part, 0], columns[part, 1] = (f - h * f_p) / g, f_p  # c*~u = (u - h*~u)/g
        columns[part, 2], columns[part, 3] = (h * x_p - x) / g, -x_p
    return _null_vector(columns)[0]


def _equation_error_starts(experiments: list[ExperimentData], n_mem: int, config: FitConfig,
                           orders=range(_START_ALPHAS.size)) -> list:
    """(order, theta, equation error) of each grid index in orders whose
    estimate at _START_ALPHAS[order] gives K1 > 0, B1 > 0 and K0 inside the
    box, K0 taken as slack below its cap; the estimate is refined by one
    Steiglitz-McBride pass.  An order's start does not depend on which other
    orders are built with it.

    Once alpha fixes the weights c, den*F = num*x (models._law_filter) is linear
    in (a, b, p, q) = lambda*(s, K1, (K0+K1)*s, K0*K1).  The smallest right
    singular vector of [c*F, F, -c*x, -x], stacked over the records (each over
    its scale) with normalized columns, is the equation-error (ARX) estimate of
    Ljung, System Identification (1999), and its singular value the equation
    error.  Both come from the 4x4 R of the matrix's QR.  Only the measured
    series is convolved with c: the known stimulus (the held x0, the two-level
    force) is a sum of steps, and c filters a unit step into the cumulative
    sums of c.

    The pass (Steiglitz and McBride, IEEE TAC 10(4), 1965) solves for the
    same null vector once more, from the records u filtered by the estimate's
    own P = g*c + h scaled to P[0] = 1: den = a*c + b for a relaxation
    record, num = p*c + q for a creep record.  The equation error of the
    prefiltered records is close to their output error.  ~u = u/P is one
    recursive pass, a stimulus needs only P's step response, and
    c*~u = (u - h*~u)/g needs no convolution.  An order keeps its estimate
    when the refined vector is not valid, or when its creep prefilter has a
    pole outside the unit circle (den = s*c + K1 has none).
    """
    orders = list(orders)
    t_samp = experiments[0].t_samp
    sizes = [exp.values.size for exp in experiments]
    edges = np.cumsum([0] + sizes)
    columns = np.empty((edges[-1], 4), order="F")  # [c*F, F, -c*x, -x], reused at every order
    prefiltered = np.empty_like(columns)  # the same of the prefiltered records
    records = []  # (creep?, rows, stimulus, its steps (at, height), measured series), over the record's scale
    for exp, lo, hi in zip(experiments, edges[:-1], edges[1:]):
        scale, creep = _scale(exp.values), exp.kind == "creep"
        series = exp.values / scale
        stimulus = exp.stimulus.stimulus(t_samp)[: hi - lo] / scale
        if creep:
            columns[lo:hi, 1], columns[lo:hi, 3] = stimulus, -series
        else:
            columns[lo:hi, 1], columns[lo:hi, 3] = series, -stimulus
        steps = np.diff(stimulus, prepend=0.0)
        at = np.flatnonzero(steps)
        records.append((creep, slice(lo, hi), stimulus, at, steps[at], series))
    # weights past the longest record filter nothing; each row is build_kernel's
    alphas = _START_ALPHAS[orders]
    i = np.arange(1.0, min(n_mem, max(sizes) - 1) + 1)
    weights = np.ones((alphas.size, i.size + 1))
    weights[:, 1:] = np.cumprod((i - alphas[:, None] - 1.0) / i, axis=1)
    unit_steps = np.cumsum(weights, axis=1)
    starts = []
    for order, alpha, c, unit_step in zip(orders, alphas, weights, unit_steps):
        step = np.full(max(sizes), unit_step[-1])
        step[: unit_step.size] = unit_step
        for creep, part, _, at, heights, series in records:
            m = part.stop - part.start
            columns[part, 0] = _steps_through(step, at, heights, m) if creep else _fir(c, series)
            columns[part, 2] = -_fir(c, series) if creep else -_steps_through(step, at, heights, m)
        vector, error = _null_vector(columns)
        start = _order_start(vector, alpha, t_samp)
        if start is None:
            continue
        refined = _prefiltered_vector(prefiltered, records, c, vector)
        if refined is not None:
            start = _order_start(refined, alpha, t_samp) or start
        theta, k0 = start
        cap = _passive_params(theta, n_mem, t_samp, config.b_plant)[0].k0
        theta[0] = np.clip(cap - k0, *_BOUNDS[:, 0])
        starts.append((order, theta, error))
    return starts


def _best_start(starts: list, score, best=(math.inf, math.inf, None)) -> tuple:
    """(score, order, theta) of the least by (score(theta, inf), order) of
    best and the starts (order, theta, equation error), the earliest order of
    equal scores: the starts are scored best-first by equation error, each
    against the best so far."""
    for order, theta, _ in sorted(starts, key=lambda start: start[2]):
        total = score(theta, best[0])
        if (total, order) < best[:2]:
            best = total, order, theta
    return best


def _scan(experiments: list[ExperimentData], n_mem: int, config: FitConfig, score) -> tuple:
    """((score, order, theta), starts scored) of the two-level start scan,
    theta None when no order is valid.

    The coarse orders, every _COARSE_STRIDE-th of the grid and alpha = 1,
    are built and scored first.  Then the orders strictly between the coarse
    winner's two coarse neighbours are, against the coarse best.  The pick is
    _best_start's over every start visited.  When no coarse order is valid,
    every other order is visited.  On the bench's records, criterion 10's
    fits, 48 random passive generators fit at N = 51, 101 and 151 and 90 of
    alpha 0.985 to 1, the pick was the one of scoring every valid order.
    """
    coarse = sorted({*range(0, _START_ALPHAS.size, _COARSE_STRIDE), _START_ALPHAS.size - 1})
    starts = _equation_error_starts(experiments, n_mem, config, coarse)
    best = _best_start(starts, score)
    if starts:
        at = coarse.index(best[1])
        lo, hi = coarse[max(at - 1, 0)], coarse[min(at + 1, len(coarse) - 1)]
        fine = [k for k in range(lo + 1, hi) if k != best[1]]
    else:
        fine = [k for k in range(_START_ALPHAS.size) if k not in coarse]
    more = _equation_error_starts(experiments, n_mem, config, fine)
    return _best_start(more, score, best), len(starts) + len(more)


def fit(
    data: ExperimentData | list[ExperimentData],
    n_mem: int,
    config: FitConfig = FitConfig(),
) -> FitResult:
    """Identify the constitutive parameters from one or more experiments.

    Deterministic: one Levenberg-Marquardt solve (see _levenberg_marquardt)
    from the start whose forward records fit best, among one per valid order
    the two-level scan visits (see _scan): its equation-error estimate
    refined by one Steiglitz-McBride pass (see _equation_error_starts).  When
    no order is valid, the solve starts from K0 = 0, K1 = B1 = 1 and alpha =
    0.505.  Returns the solve's end, which fits no worse than the start;
    converged is False when the solve stopped on config.max_evals, which caps
    its residuals plus Jacobians, rather than on its tests.  Every
    candidate, the returned one included, satisfies the closed-form bound at
    config.b_plant.  objective_evals counts the solve's residuals and
    Jacobians, and one per scored start, whether or not its scoring stopped
    early.  A protocol shorter than its record is refused before the scan;
    the NRMSE comes from one record run (see _record_run) at the returned set.
    """
    experiments = [data] if isinstance(data, ExperimentData) else list(data)
    if not experiments:
        raise ValueError("need at least one experiment")
    if n_mem % 2 == 0:
        raise ValueError("memory length must be odd so the closed-form bound applies")
    t_samp = experiments[0].t_samp
    for exp in experiments[1:]:
        if abs(exp.t_samp - t_samp) > 1e-9 * t_samp:
            raise ValueError("experiments must share one sampling period")
    for exp in experiments:  # the filter is causal, so only a longer protocol can be cut
        if exp.stimulus.stimulus(t_samp).size < exp.values.size:
            raise ValueError(f"{type(exp.stimulus).__name__} shorter than the measured record")

    residuals, jacobian, score = _objective(experiments, n_mem, config)
    (_, _, x0), scored = _scan(experiments, n_mem, config, score)
    if x0 is None:  # K1 = B1 = 1, and the slack that takes K0 from its cap to 0
        fallback = [0.0, 0.0, 0.0, 0.505]
        x0 = np.clip([_passive_params(fallback, n_mem, t_samp, config.b_plant)[0].k0, *fallback[1:]], *_BOUNDS)
    theta, _, nfev, njev, converged = _levenberg_marquardt(residuals, jacobian, x0, _BOUNDS, config.max_evals)

    run = _record_run(experiments, n_mem, config)[0]
    params, kern, preds = run(theta)[1]
    errs = [nrmse(pred, e.values) for pred, e in zip(preds, experiments)]
    return FitResult(
        params=params,
        n_mem=n_mem,
        nrmse=float(np.mean(errs)),
        passivity_ok=bool(bound_closed_form(params, kern).b_min <= config.b_plant),
        objective_evals=scored + nfev + njev,
        converged=converged,
    )
