"""Passivity-constrained identification from creep and relaxation records.

The odd-memory closed-form bound b_min = K0*T/2 + branch(K1, B1, alpha) is
affine in K0, so the search never leaves the passive set: it varies
(slack >= 0, log K1, log B1, logit alpha) and takes

    K0 = (2/T) * (b_plant - branch(K1, B1, alpha)) - slack,

the largest parallel stiffness the plant damping admits, less the slack.
The start comes from the records: once alpha is fixed the law is linear in
its parameters, so an equation-error estimate at each order of a fixed grid,
refined by one Steiglitz-McBride pass on the records prefiltered by it,
gives a candidate, and the one whose forward records fit best starts one
trust-region-reflective least-squares solve (box bounds kept exactly) on
the residuals of all experiments, each scaled by its NRMSE scale.  The
candidates are scored best-first by their estimate's equation error, and
one whose leading samples already fit worse than the best so far is
dropped there.  The
Jacobian is exact: the record sensitivities of ``models``, built from the
forward records the residual has just computed, chained through the passive
map.  An evaluation is one residual, one Jacobian or one scored candidate,
stopped early or not; the budget caps the solve's.  The returned set is
re-verified against the bound afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .glkernel import GLKernel, _coeffs_dalpha, build_kernel, delta_p
from .models import (
    FoSlsParams,
    _creep_filter,
    _creep_force,
    _creep_sensitivities,
    _fir,
    _law_filter,
    _lfilter,
    _poles_outside,
    _relaxation_filter,
    _relaxation_sensitivities,
    creep_response,
    relaxation_response,
)
from .passivity import _nyquist_value, bound_closed_form

__all__ = [
    "ExperimentData",
    "FitResult",
    "FitConfig",
    "CreepProtocol",
    "RelaxationProtocol",
    "nrmse",
    "fit",
    "synth_experiment",
]

_ALPHA_LO = 0.01  # logit floor keeps the order away from the degenerate spring

# Search box of theta = (slack, log K1, log B1, logit alpha): wide enough for
# any plausible material in {N, mm, s} units, finite so candidates cannot reach
# degenerate corners (astronomical stiffness with vanishing damping still
# satisfies the bound).  The slack spans the width of the K0 box.
_K0_BOX = 1e3
_LOG_BOX = math.log(1e3)
_U_BOX = 50.0
_BOUNDS = np.array([[0.0, -_LOG_BOX, -_LOG_BOX, -_U_BOX], [2.0 * _K0_BOX, _LOG_BOX, _LOG_BOX, _U_BOX]])

# Orders at which the start is estimated from the records
_START_ALPHAS = np.linspace(0.02, 1.0, 50)

# Samples of a record in a candidate's first scored block; each next block is twice as long
_FIRST_BLOCK = 128

# Cap on a single residual.  Unstable creep inverse filters and undefined
# predictions land on it; a record that touches it gives zero Jacobian rows,
# so the matrix handed to the SVD stays finite.
_WALL = 1e3


def _check_finite(obj) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} {value} is not finite")


@dataclass(frozen=True)
class CreepProtocol:
    """Held force then partial unload, displacement observed throughout."""

    f_hold: float = 3.0  # N
    t_hold: float = 3.0  # s
    f_recover: float = 0.5  # N
    t_recover: float = 3.0  # s

    def __post_init__(self):
        _check_finite(self)


@dataclass(frozen=True)
class RelaxationProtocol:
    """Held deformation, force observed."""

    x0: float = 5.0  # mm
    duration: float = 3.0  # s

    def __post_init__(self):
        _check_finite(self)


@dataclass(frozen=True)
class ExperimentData:
    """One recorded protocol: displacement [mm] for creep, force [N] for
    relaxation, on a strictly increasing uniform time grid."""

    kind: str  # 'creep' | 'relaxation'
    time: np.ndarray  # s
    values: np.ndarray
    stimulus: CreepProtocol | RelaxationProtocol

    def __post_init__(self):
        if self.kind not in ("creep", "relaxation"):
            raise ValueError(f"kind must be 'creep' or 'relaxation', got {self.kind!r}")
        protocol = CreepProtocol if self.kind == "creep" else RelaxationProtocol
        if not isinstance(self.stimulus, protocol):
            name = type(self.stimulus).__name__
            raise ValueError(f"a {self.kind} record needs a {protocol.__name__} stimulus, got {name}")
        t = np.asarray(self.time, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least two samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(self.values))):
            raise ValueError("time and values must be finite (no NaN or inf)")
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            raise ValueError("time stamps must be strictly increasing")
        if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
            raise ValueError("time grid must be uniform")
        if len(self.values) != t.size:
            raise ValueError("time and value lengths differ")

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
        if self.max_evals < 2:  # one residual and one Jacobian
            raise ValueError("max_evals must be at least 2")


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


def _response(params: FoSlsParams, kernel, protocol) -> tuple[np.ndarray, np.ndarray]:
    """(t, record) of the law under a protocol: displacement for creep, force for relaxation."""
    p = protocol
    if isinstance(p, RelaxationProtocol):
        return relaxation_response(params, kernel, p.x0, p.duration)
    if isinstance(p, CreepProtocol):
        return creep_response(params, kernel, p.f_hold, p.t_hold, p.f_recover, p.t_recover)
    raise ValueError(f"unknown protocol {protocol!r}")


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
    t, values = _response(params, kernel, protocol)
    kind = "creep" if isinstance(protocol, CreepProtocol) else "relaxation"
    unstable = kind == "creep" and _poles_outside(_law_filter(params, kernel)[0])
    if unstable:
        msg = f"the force law's inverse has {unstable} pole(s) outside the unit circle"
        raise ValueError(f"the creep record diverges: {msg}")
    if noise_sd > 0.0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sd, size=values.size)
    return ExperimentData(kind=kind, time=t, values=values, stimulus=protocol)


def _passive_params(
    theta, n_mem: int, t_samp: float, b_plant: float
) -> tuple[FoSlsParams, GLKernel]:
    """Candidate for theta = (slack, log K1, log B1, logit alpha) whose
    closed-form bound does not exceed b_plant."""
    slack, log_k1, log_b1, u = (float(v) for v in theta)
    k1, b1 = math.exp(log_k1), math.exp(log_b1)
    alpha = _ALPHA_LO + (1.0 - _ALPHA_LO) / (1.0 + math.exp(-u))
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


def _passive_map_jacobian(theta, params: FoSlsParams, kern: GLKernel, dc: np.ndarray) -> np.ndarray:
    """d(K0, K1, B1, alpha)/d theta of _passive_params (the ulp step-down ignored).

    K0 = (2/T) b_plant - Z - slack with Z = K1*B1*D/q, D = dp/T^a, q = K1 + B1*D.
    """
    k1, b1, alpha, t_samp = params.k1, params.b1, params.alpha, kern.t_samp
    u = float(theta[3])
    e = math.exp(-abs(u))
    dalpha_du = (1.0 - _ALPHA_LO) * e / (1.0 + e) ** 2
    d = delta_p(kern) / t_samp**alpha
    d_alpha = float(np.sum(dc[::2]) - np.sum(dc[1::2])) / t_samp**alpha - d * math.log(t_samp)
    q2 = (k1 + b1 * d) ** 2
    z_k1, z_b1, z_alpha = (b1 * d) ** 2 / q2, k1 * k1 * d / q2, k1 * k1 * b1 * d_alpha / q2
    return np.array([
        [-1.0, -k1 * z_k1, -b1 * z_b1, -dalpha_du * z_alpha],
        [0.0, k1, 0.0, 0.0],
        [0.0, 0.0, b1, 0.0],
        [0.0, 0.0, 0.0, dalpha_du],
    ])


def _record_filter(params: FoSlsParams, kernel, exp: ExperimentData):
    """(b, a, input, offset) of a record's prediction offset + lfilter(b, a, input),
    the protocol's input cut to the record's length (the filter is causal)."""
    s = exp.stimulus
    if exp.kind == "relaxation":
        b, a, u, offset = _relaxation_filter(params, kernel, s.x0, s.duration)
    else:
        b, a, u, offset = _creep_filter(params, kernel, s.f_hold, s.t_hold, s.f_recover, s.t_recover)
    if u.size < exp.values.size:  # a length that depends only on the protocol and T
        raise ValueError(f"{exp.kind} protocol shorter than the measured record")
    return b, a, u[: exp.values.size], offset


def _predict(params: FoSlsParams, kernel, exp: ExperimentData) -> np.ndarray:
    b, a, u, offset = _record_filter(params, kernel, exp)
    return offset + _lfilter(b, a, u)


def _sensitivities(params: FoSlsParams, kernel, dc, exp: ExperimentData, pred) -> np.ndarray:
    """Rows d pred/d(K0, K1, B1, alpha) of one record, from its prediction pred."""
    s = exp.stimulus
    if exp.kind == "relaxation":
        return _relaxation_sensitivities(params, kernel, dc, s.x0, pred)
    return _creep_sensitivities(params, kernel, dc, s.f_hold, s.t_hold, s.f_recover, pred)


def _objective(experiments: list[ExperimentData], n_mem: int, config: FitConfig):
    """(residuals, jacobian, score) in theta of the weighted residuals of all records.

    The Jacobian reuses the forward records of the last residual evaluation,
    which is where trust-region-reflective asks for it; at any other theta it
    evaluates the residual first.  A record whose residuals touch the wall,
    or whose sensitivities are not finite, gives zero rows.

    score(theta, best) is float(np.sum(residuals(theta) ** 2)), bit for bit,
    or inf once a leading part of the records sums past best*(1 + 2n*eps):
    a computed sum of n nonnegative terms is within a relative (n-1)*eps/2 of
    the exact one, so the complete sum would have exceeded best.  The
    records run through their filters in growing blocks, the filter state
    carried, which gives the samples of one pass.
    """
    t_samp = experiments[0].t_samp
    measured = np.concatenate([exp.values for exp in experiments])
    # 1 / (scale * sqrt(n)): the squared residual norm sums the squared NRMSEs
    scales = [_scale(e.values) * e.values.size**0.5 for e in experiments]
    weight = np.repeat(1.0 / np.array(scales), [e.values.size for e in experiments])
    edges = np.cumsum([0] + [e.values.size for e in experiments])
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    rounding = 1.0 + 2.0 * measured.size * np.finfo(float).eps
    last = {}

    def model(theta):
        params, kern = _passive_params(theta, n_mem, t_samp, config.b_plant)
        return params, kern, [_record_filter(params, kern, exp) for exp in experiments]

    def weigh(r: np.ndarray, part: slice, pred: np.ndarray) -> None:
        """r[part] = the weighted residuals of pred, NaN and beyond the wall put on it."""
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(pred, measured[part], out=r[part])
            r[part] *= weight[part]
        np.fmax(np.fmin(r[part], _WALL, out=r[part]), -_WALL, out=r[part])  # fmin takes NaN to the wall

    def residuals(theta: np.ndarray) -> np.ndarray:
        r = np.empty(measured.size)
        last.update(theta=np.array(theta, dtype=float), r=r, model=None)
        try:
            params, kern, filters = model(theta)
            with np.errstate(over="ignore", invalid="ignore"):
                preds = [offset + _lfilter(b, a, u) for b, a, u, offset in filters]
        except ValueError:  # e.g. zero instantaneous stiffness: creep has no inverse
            r.fill(_WALL)
            return r
        for block, pred in zip(blocks, preds):
            weigh(r, block, pred)
        last["model"] = params, kern, preds
        return r

    def score(theta: np.ndarray, best: float) -> float:
        r = np.full(measured.size, _WALL)
        try:
            filters = model(theta)[2]
        except ValueError:
            filters = []
        prefix = 0.0
        for (b, a, u, offset), block in zip(filters, blocks):
            state = np.zeros(a.size - 1)
            lo, size = 0, _FIRST_BLOCK
            while lo < u.size:
                part = slice(block.start + lo, block.start + min(lo + size, u.size))
                with np.errstate(over="ignore", invalid="ignore"):
                    y, state = _lfilter(b, a, u[lo : lo + size], state)
                    weigh(r, part, offset + y)
                prefix += float(np.sum(r[part] ** 2))
                if prefix > best * rounding:
                    return math.inf
                lo, size = lo + size, 2 * size
        return float(np.sum(r**2))

    def jacobian(theta: np.ndarray) -> np.ndarray:
        if not np.array_equal(theta, last.get("theta")):
            residuals(theta)
        jac = np.zeros((4, measured.size))
        if last["model"] is None:
            return jac.T
        params, kern, preds = last["model"]
        dc = _coeffs_dalpha(kern)
        chain = _passive_map_jacobian(theta, params, kern, dc).T
        for block, exp, pred in zip(blocks, experiments, preds):
            if np.any(np.abs(last["r"][block]) >= _WALL):
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                rows = chain @ (_sensitivities(params, kern, dc, exp, pred) * weight[block])
            if np.all(np.isfinite(rows)):
                jac[:, block] = rows
        return jac.T

    return residuals, jacobian, score


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first use: the package takes
    longer to import than most subcommands take to run."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def _steps_through(response: np.ndarray, at: np.ndarray, heights: np.ndarray, m: int) -> np.ndarray:
    """First m samples of the steps (at, heights) through a filter whose unit
    step response is response (at least m long)."""
    out = np.zeros(m)
    for j, h in zip(at, heights):
        out[j:] += h * response[: m - j]
    return out


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
        theta = np.log([1.0, k1, a * k1 / b * t_samp**alpha, (alpha - _ALPHA_LO) / (1.0 - alpha)])
    if np.all(np.isfinite(theta[1:3])) and abs(k0) <= _K0_BOX:
        return np.clip(theta, *_BOUNDS), k0  # alpha = 1 has logit inf: the box edge
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


def _equation_error_starts(experiments: list[ExperimentData], n_mem: int, config: FitConfig) -> list:
    """(theta, equation error) of each order of _START_ALPHAS whose estimate
    gives K1 > 0, B1 > 0 and K0 inside the box, K0 taken as slack below its
    cap; the estimate is refined by one Steiglitz-McBride pass.

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
    pole outside the unit circle (den = s*c + K1 has none).  So does
    alpha = 1, whose start sits on the logit box edge: there d alpha/du is
    ~2e-22, and the solve leaves the edge only through the long first steps
    of a start that does not fit yet.  A refined edge start, already fit in
    K0, K1 and B1, stops the solve within a few steps at alpha = 1, and it
    would win the scoring on records of alpha just below 1: on 90 generators
    of alpha 0.985 to 1, recovery failed for 43 with the edge refined and
    for 13 with its estimate.
    """
    t_samp = experiments[0].t_samp
    sizes = [exp.values.size for exp in experiments]
    edges = np.cumsum([0] + sizes)
    columns = np.empty((edges[-1], 4), order="F")  # [c*F, F, -c*x, -x], reused at every order
    prefiltered = np.empty_like(columns)  # the same of the prefiltered records
    records = []  # (creep?, rows, stimulus, its steps (at, height), measured series), over the record's scale
    for exp, lo, hi in zip(experiments, edges[:-1], edges[1:]):
        s, scale, creep = exp.stimulus, _scale(exp.values), exp.kind == "creep"
        series = exp.values / scale
        if creep:
            stimulus = _creep_force(s.f_hold, s.t_hold, s.f_recover, s.t_recover, t_samp)[: hi - lo] / scale
            columns[lo:hi, 1], columns[lo:hi, 3] = stimulus, -series
        else:
            stimulus = np.full(hi - lo, float(s.x0) / scale)
            columns[lo:hi, 1], columns[lo:hi, 3] = series, -stimulus
        steps = np.diff(stimulus, prepend=0.0)
        at = np.flatnonzero(steps)
        records.append((creep, slice(lo, hi), stimulus, at, steps[at], series))
    # weights past the longest record filter nothing; each row is build_kernel's
    i = np.arange(1.0, min(n_mem, max(sizes) - 1) + 1)
    weights = np.ones((_START_ALPHAS.size, i.size + 1))
    weights[:, 1:] = np.cumprod((i - _START_ALPHAS[:, None] - 1.0) / i, axis=1)
    unit_steps = np.cumsum(weights, axis=1)
    starts = []
    for alpha, c, unit_step in zip(_START_ALPHAS, weights, unit_steps):
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
        if alpha < 1.0:  # the order on the box edge keeps its estimate
            refined = _prefiltered_vector(prefiltered, records, c, vector)
            if refined is not None:
                start = _order_start(refined, alpha, t_samp) or start
        theta, k0 = start
        cap = _passive_params(theta, n_mem, t_samp, config.b_plant)[0].k0
        theta[0] = np.clip(cap - k0, *_BOUNDS[:, 0])
        starts.append((theta, error))
    return starts


def _best_start(starts: list, score) -> np.ndarray:
    """The theta of starts (theta, equation error) that min() by score(theta,
    inf) would pick, the earliest of equal scores: the starts are scored
    best-first by equation error, each against the best so far."""
    best, least = len(starts), math.inf
    for k in sorted(range(len(starts)), key=lambda k: starts[k][1]):
        total = score(starts[k][0], least)
        if (total, k) < (least, best):
            least, best = total, k
    return starts[best][0]


def fit(
    data: ExperimentData | list[ExperimentData],
    n_mem: int,
    config: FitConfig = FitConfig(),
) -> FitResult:
    """Identify the constitutive parameters from one or more experiments.

    Deterministic: one trust-region-reflective solve from the start whose
    forward records fit best, among one per valid order of the grid: its
    equation-error estimate refined by one Steiglitz-McBride pass (see
    _equation_error_starts).  Every candidate, the returned one
    included, satisfies the closed-form bound at config.b_plant.  Returns the
    solve's result even when its budget runs out, with converged = False.
    objective_evals counts the solve's residuals and Jacobians, and one per
    scored start, whether or not its scoring stopped early.
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
    probe = _passive_params(np.zeros(4), n_mem, t_samp, config.b_plant)
    for exp in experiments:  # refuses a protocol shorter than its record
        _record_filter(*probe, exp)

    residuals, jacobian, score = _objective(experiments, n_mem, config)
    fallback = np.clip([probe[0].k0, 0.0, 0.0, 0.0], *_BOUNDS)  # K0 = 0, K1 = B1 = 1, alpha ~ 0.5
    starts = _equation_error_starts(experiments, n_mem, config) or [(fallback, 0.0)]
    x0 = _best_start(starts, score)
    # each step costs one residual, and each accepted one a Jacobian too; the
    # gradient test sits at roundoff, since a start near a zero residual meets 1e-8
    res = least_squares(residuals, x0, jac=jacobian, bounds=tuple(_BOUNDS), method="trf", gtol=1e-15,
                        max_nfev=config.max_evals // 2)

    params, kern = _passive_params(res.x, n_mem, t_samp, config.b_plant)
    errs = [nrmse(_predict(params, kern, e), e.values) for e in experiments]
    return FitResult(
        params=params,
        n_mem=n_mem,
        nrmse=float(np.mean(errs)),
        passivity_ok=bool(bound_closed_form(params, kern).b_min <= config.b_plant),
        objective_evals=len(starts) + res.nfev + res.njev,
        converged=bool(res.status > 0),
    )
