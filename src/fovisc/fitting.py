"""Passivity-constrained identification from creep and relaxation records.

The odd-memory closed-form bound b_min = K0*T/2 + branch(K1, B1, alpha) is
affine in K0, so the search never leaves the passive set: it varies
(slack >= 0, log K1, log B1, logit alpha) and takes

    K0 = (2/T) * (b_plant - branch(K1, B1, alpha)) - slack,

the largest parallel stiffness the plant damping admits, less the slack.
Each start runs one trust-region-reflective least-squares solve (box bounds
kept exactly) on the residuals of all experiments, each scaled by its NRMSE
scale.  The Jacobian is exact: the record sensitivities of ``models``,
built from the forward records the residual has just computed, chained
through the passive map.  An evaluation is one residual or one Jacobian;
the budget caps their sum.  The returned set is re-verified against the
bound afterwards.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .glkernel import GLKernel, _coeffs_dalpha, build_kernel, delta_p
from .models import (
    FoSlsParams,
    _creep_sensitivities,
    _relaxation_sensitivities,
    creep_response,
    relaxation_response,
)
from .passivity import _nyquist_value, bound_closed_form
from .util import worker_count

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

NORMALIZATIONS = ("range", "mean", "rms")

_ALPHA_LO = 0.01  # logit floor keeps the order away from the degenerate spring

# Search box: wide enough for any plausible material in {N, mm, s} units,
# finite so candidates cannot reach degenerate corners (astronomical
# stiffness with vanishing damping still satisfies the bound).  The slack
# spans the width of the K0 box.
_K0_BOX = 1e3
_LOG_BOX = math.log(1e3)
_U_BOX = 50.0

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
    n_starts: int = 8
    max_evals_per_start: int = 20000  # residual plus Jacobian evaluations
    normalization: str = "range"
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("need at least one start")
        if self.max_evals_per_start < 2:  # one residual and one Jacobian
            raise ValueError("max_evals_per_start must be at least 2")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")


def nrmse(predicted, measured, normalization: str = "range") -> float:
    """Root-mean-square error over the measured signal's scale.

    The default scale is the measured range (max - min); 'mean' and 'rms'
    are available for comparability with other conventions.
    """
    predicted = np.asarray(predicted, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if predicted.shape != measured.shape or measured.size < 2:
        raise ValueError("series must have equal length >= 2")
    return float(np.sqrt(np.mean((predicted - measured) ** 2))) / _scale(measured, normalization)


def _scale(measured: np.ndarray, normalization: str) -> float:
    if normalization == "range":
        scale = float(np.max(measured) - np.min(measured))
    elif normalization == "mean":
        scale = abs(float(np.mean(measured)))
    elif normalization == "rms":
        scale = float(np.sqrt(np.mean(measured**2)))
    else:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    if scale <= 0.0:
        raise ValueError("measured series has zero scale; NRMSE undefined")
    return scale


def synth_experiment(
    params: FoSlsParams,
    kernel,
    protocol: CreepProtocol | RelaxationProtocol,
    noise_sd: float = 0.0,
    seed: int | None = None,
    average_16: bool = False,
) -> ExperimentData:
    """Model output under a protocol, optionally with additive Gaussian noise.

    average_16 emulates averaging 16 repeated trials (noise scaled by 1/4).
    """
    if isinstance(protocol, RelaxationProtocol):
        t, values = relaxation_response(params, kernel, protocol.x0, protocol.duration)
        kind = "relaxation"
    elif isinstance(protocol, CreepProtocol):
        t, values = creep_response(
            params, kernel, protocol.f_hold, protocol.t_hold, protocol.f_recover, protocol.t_recover
        )
        kind = "creep"
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    if noise_sd < 0.0:
        raise ValueError("noise_sd must be nonnegative")
    if noise_sd > 0.0:
        sd = noise_sd / 4.0 if average_16 else noise_sd
        values = values + np.random.default_rng(seed).normal(0.0, sd, size=values.size)
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
    s = exp.stimulus
    if exp.kind == "relaxation":
        _, pred = relaxation_response(params, kernel, s.x0, s.duration)
    else:
        _, pred = creep_response(params, kernel, s.f_hold, s.t_hold, s.f_recover, s.t_recover)
    return pred[: exp.values.size]


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
    scales = [_scale(e.values, config.normalization) * e.values.size**0.5 for e in experiments]
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


def fit(
    data: ExperimentData | list[ExperimentData],
    n_mem: int,
    config: FitConfig = FitConfig(),
) -> FitResult:
    """Identify the constitutive parameters from one or more experiments.

    Deterministic given config.seed.  Every candidate, the returned one
    included, satisfies the closed-form bound at config.b_plant.  Returns the
    best candidate even when the evaluation budget runs out, with
    converged = False in that case.
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

    def candidate(theta):
        return _passive_params(theta, n_mem, t_samp, config.b_plant)

    rng = np.random.default_rng(config.seed)
    lo = np.array([-5.0, math.log(0.1), math.log(0.1), -3.0])
    hi = np.array([5.0, math.log(50.0), math.log(50.0), 3.0])
    # (k0, log k1, log b1, logit alpha); the first is k0=0, k1=b1=1, alpha~0.5
    starts = [np.zeros(4)] + [rng.uniform(lo, hi) for _ in range(config.n_starts - 1)]
    lower = np.array([0.0, -_LOG_BOX, -_LOG_BOX, -_U_BOX])
    upper = np.array([2.0 * _K0_BOX, _LOG_BOX, _LOG_BOX, _U_BOX])
    for x in starts:  # k0 becomes the slack below its cap, clipped to the box
        x[0] = min(max(candidate([0.0, *x[1:]])[0].k0 - x[0], 0.0), upper[0])

    probe = candidate(starts[0])  # a prediction's length depends only on protocol and T
    for exp in experiments:
        if _predict(*probe, exp).size < exp.values.size:
            raise ValueError(f"{exp.kind} protocol shorter than the measured record")

    def run_start(x0: np.ndarray) -> tuple[float, np.ndarray, bool, int]:
        residuals, jacobian = _objective(experiments, n_mem, config)
        # each step costs one residual, and each accepted one a Jacobian too
        res = least_squares(
            residuals,
            x0,
            jac=jacobian,
            bounds=(lower, upper),
            method="trf",
            max_nfev=config.max_evals_per_start // 2,
        )
        return float(res.cost), res.x, bool(res.status > 0), res.nfev + res.njev

    with ThreadPoolExecutor(max_workers=worker_count(len(starts))) as pool:
        outcomes = list(pool.map(run_start, starts))
    evals = sum(o[3] for o in outcomes)
    _, best_x, best_ok, _ = min(outcomes, key=lambda o: o[0])

    params, kern = candidate(best_x)
    errs = [nrmse(_predict(params, kern, e), e.values, config.normalization) for e in experiments]
    final_err = float(np.mean(errs))
    passivity_ok = bool(bound_closed_form(params, kern).b_min <= config.b_plant)
    return FitResult(
        params=params,
        n_mem=n_mem,
        nrmse=final_err,
        passivity_ok=passivity_ok,
        objective_evals=evals,
        converged=best_ok,
    )
