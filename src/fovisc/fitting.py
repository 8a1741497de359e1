"""Passivity-constrained identification from creep and relaxation records.

The odd-memory closed-form bound b_min = K0*T/2 + branch(K1, B1, alpha) is
affine in K0, so the search never leaves the passive set: it varies
(slack >= 0, log K1, log B1, logit alpha) and takes

    K0 = (2/T) * (b_plant - branch(K1, B1, alpha)) - slack,

the largest parallel stiffness the plant damping admits, less the slack.
The start comes from the records: once alpha is fixed the law is linear in
its parameters, so an equation-error estimate at each order of a fixed grid
gives a candidate, and the one whose forward records fit best starts one
trust-region-reflective least-squares solve (box bounds kept exactly) on
the residuals of all experiments, each scaled by its NRMSE scale.  The
Jacobian is exact: the record sensitivities of ``models``, built from the
forward records the residual has just computed, chained through the passive
map.  An evaluation is one residual or one Jacobian; the budget caps the
solve's.  The returned set is re-verified against the bound afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .glkernel import GLKernel, _coeffs_dalpha, build_kernel, delta_p
from .models import (
    FoSlsParams,
    _creep_force,
    _creep_sensitivities,
    _fir,
    _law_filter,
    _poles_outside,
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

# Cap on a single residual.  Unstable creep inverse filters and undefined
# predictions land on it; a record that touches it gives zero Jacobian rows,
# so the matrix handed to the SVD stays finite.
_WALL = 1e3


@dataclass(frozen=True)
class CreepProtocol:
    """Held force then partial unload, displacement observed throughout."""

    f_hold: float = 3.0  # N
    t_hold: float = 3.0  # s
    f_recover: float = 0.5  # N
    t_recover: float = 3.0  # s


@dataclass(frozen=True)
class RelaxationProtocol:
    """Held deformation, force observed."""

    x0: float = 5.0  # mm
    duration: float = 3.0  # s


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
        if self.max_evals < 2:  # one residual and one Jacobian
            raise ValueError("max_evals must be at least 2")


def nrmse(predicted, measured) -> float:
    """Root-mean-square error over the measured signal's range (max - min)."""
    predicted = np.asarray(predicted, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if predicted.shape != measured.shape or measured.size < 2:
        raise ValueError("series must have equal length >= 2")
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
    t, values = _response(params, kernel, protocol)
    kind = "creep" if isinstance(protocol, CreepProtocol) else "relaxation"
    unstable = kind == "creep" and _poles_outside(_law_filter(params, kernel)[0])
    if unstable:
        msg = f"the force law's inverse has {unstable} pole(s) outside the unit circle"
        raise ValueError(f"the creep record diverges: {msg}")
    if noise_sd < 0.0:
        raise ValueError("noise_sd must be nonnegative")
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


def _predict(params: FoSlsParams, kernel, exp: ExperimentData) -> np.ndarray:
    return _response(params, kernel, exp.stimulus)[1][: exp.values.size]


def _sensitivities(params: FoSlsParams, kernel, dc, exp: ExperimentData, pred) -> np.ndarray:
    """Rows d pred/d(K0, K1, B1, alpha) of one record, from its prediction pred."""
    s = exp.stimulus
    if exp.kind == "relaxation":
        return _relaxation_sensitivities(params, kernel, dc, s.x0, pred)
    return _creep_sensitivities(params, kernel, dc, s.f_hold, s.t_hold, s.f_recover, pred)


def _objective(experiments: list[ExperimentData], n_mem: int, config: FitConfig):
    """(residuals, jacobian) in theta of the weighted residuals of all records.

    The Jacobian reuses the forward records of the last residual evaluation,
    which is where trust-region-reflective asks for it; at any other theta it
    evaluates the residual first.  A record whose residuals touch the wall,
    or whose sensitivities are not finite, gives zero rows.
    """
    t_samp = experiments[0].t_samp
    measured = np.concatenate([exp.values for exp in experiments])
    # 1 / (scale * sqrt(n)): the squared residual norm sums the squared NRMSEs
    scales = [_scale(e.values) * e.values.size**0.5 for e in experiments]
    weight = np.repeat(1.0 / np.array(scales), [e.values.size for e in experiments])
    edges = np.cumsum([0] + [e.values.size for e in experiments])
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    last = {}

    def residuals(theta: np.ndarray) -> np.ndarray:
        r = np.empty(measured.size)
        last.update(theta=np.array(theta, dtype=float), r=r, model=None)
        try:
            params, kern = _passive_params(theta, n_mem, t_samp, config.b_plant)
            with np.errstate(over="ignore", invalid="ignore"):
                preds = [_predict(params, kern, exp) for exp in experiments]
                for block, pred in zip(blocks, preds):
                    np.subtract(pred, measured[block], out=r[block])
                r *= weight
        except ValueError:  # e.g. zero instantaneous stiffness: creep has no inverse
            r.fill(_WALL)
            return r
        last["model"] = params, kern, preds
        np.nan_to_num(r, copy=False, nan=_WALL)
        return np.clip(r, -_WALL, _WALL, out=r)

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

    return residuals, jacobian


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first use: the package takes
    longer to import than most subcommands take to run."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def _equation_error_starts(experiments: list[ExperimentData], n_mem: int, config: FitConfig) -> list:
    """Start thetas from the records' own law: one per order of _START_ALPHAS
    that gives K1 > 0, B1 > 0 and K0 inside the box, K0 taken as slack below its cap.

    Once alpha fixes the weights c, den*F = num*x (models._law_filter) is linear
    in (a, b, p, q) = lambda*(s, K1, (K0+K1)*s, K0*K1).  The smallest right
    singular vector of [c*F, F, -c*x, -x], stacked over the records (each over
    its scale) with normalized columns, is the equation-error (ARX) estimate of
    Ljung, System Identification (1999), step one of Steiglitz-McBride (1965).
    """
    t_samp = experiments[0].t_samp
    series = []  # (F, x) of each record, over the record's scale
    for exp in experiments:
        m, s, scale = exp.values.size, exp.stimulus, _scale(exp.values)
        if exp.kind == "creep":
            f, x = _creep_force(s.f_hold, s.t_hold, s.f_recover, s.t_recover, t_samp)[:m], exp.values
        else:
            f, x = exp.values, np.full(m, float(s.x0))
        series.append((f / scale, x / scale))
    starts = []
    for alpha in _START_ALPHAS:
        c = build_kernel(alpha, n_mem, t_samp).coeffs
        rows = np.vstack([np.column_stack([_fir(c, f), f, -_fir(c, x), -x]) for f, x in series])
        norms = np.linalg.norm(rows, axis=0)
        a, b, p, q = np.linalg.svd(rows / norms, full_matrices=False)[2][-1] / norms
        with np.errstate(all="ignore"):  # a degenerate vector gives inf or NaN, and is skipped
            k0, k1 = q / b, p / a - q / b
            # (slack, log K1, log B1, logit alpha) with slack log(1) = 0 until the cap is known
            theta = np.log([1.0, k1, a * k1 / b * t_samp**alpha, (alpha - _ALPHA_LO) / (1.0 - alpha)])
        if np.all(np.isfinite(theta[1:3])) and abs(k0) <= _K0_BOX:
            theta = np.clip(theta, *_BOUNDS)  # alpha = 1 has logit inf: the box edge
            cap = _passive_params(theta, n_mem, t_samp, config.b_plant)[0].k0
            theta[0] = np.clip(cap - k0, *_BOUNDS[:, 0])
            starts.append(theta)
    return starts


def fit(
    data: ExperimentData | list[ExperimentData],
    n_mem: int,
    config: FitConfig = FitConfig(),
) -> FitResult:
    """Identify the constitutive parameters from one or more experiments.

    Deterministic: one trust-region-reflective solve from the equation-error
    start whose forward records fit best.  Every candidate, the returned one
    included, satisfies the closed-form bound at config.b_plant.  Returns the
    solve's result even when its budget runs out, with converged = False.
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
    for exp in experiments:  # a prediction's length depends only on protocol and T
        if _predict(*probe, exp).size < exp.values.size:
            raise ValueError(f"{exp.kind} protocol shorter than the measured record")

    residuals, jacobian = _objective(experiments, n_mem, config)
    fallback = np.clip([probe[0].k0, 0.0, 0.0, 0.0], *_BOUNDS)  # K0 = 0, K1 = B1 = 1, alpha ~ 0.5
    starts = _equation_error_starts(experiments, n_mem, config) or [fallback]
    x0 = min(starts, key=lambda x: float(np.sum(residuals(x) ** 2)))
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
