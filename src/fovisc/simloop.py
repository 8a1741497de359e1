"""Sampled-data rendering loop: continuous mass-damper plant, position
sampler, discrete viscoelastic law, zero-order hold.

Between samples the plant obeys m*dv/dt + b*v = F with F constant (the held
rendered force plus the commanded excitation), so each step uses the exact
solution

    v+ = v*e^(-bT/m) + (F/b)*(1 - e^(-bT/m)),
    x+ = x + (F/b)*T + (v - F/b)*(m/b)*(1 - e^(-bT/m)),

with the series-expanded path at b = 0.  This keeps integrator error out of
the passivity experiments; whatever the energy observer sees comes from the
sampling loop itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .glkernel import GLKernel
from .models import DiscreteVE, FoSlsParams
from .util import n_samples

__all__ = [
    "PlantParams",
    "SimTrace",
    "Impulse",
    "ForceChirp",
    "Scripted",
    "PureSpring",
    "ObserverReport",
    "IdentResult",
    "simulate",
    "energy_observer",
    "is_unstable",
    "empirical_boundary",
    "plant_ident",
]

DIVERGENCE_LIMIT_MM = 1e6


@dataclass(frozen=True)
class PlantParams:
    """First-order haptic interface model Z(s) = m*s + b in {N, mm, s} units.

    mass     equivalent mass [N*s^2/mm] (73.4 g == 7.34e-5)
    damping  viscous damping [N*s/mm], >= 0
    """

    mass: float
    damping: float

    def __post_init__(self):
        if not (self.mass > 0.0) or not math.isfinite(self.mass):
            raise ValueError(f"plant mass must be positive, got {self.mass}")
        if self.damping < 0.0 or not math.isfinite(self.damping):
            raise ValueError(f"plant damping must be nonnegative, got {self.damping}")


@dataclass(frozen=True)
class Impulse:
    """Momentum kick at t = 0 (velocity jump momentum/mass)."""

    momentum: float  # N*s

    def initial_velocity(self, mass: float) -> float:
        return self.momentum / mass

    def sample_force(self, n: int, t_samp: float) -> float:
        return 0.0

    def end_time(self, t_samp: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ForceChirp:
    """Bidirectional linear chirp force sweeping f0 -> f1 [Hz] over span [s]."""

    f0: float
    f1: float
    span: float
    amplitude: float  # N

    def initial_velocity(self, mass: float) -> float:
        return 0.0

    def sample_force(self, n: int, t_samp: float) -> float:
        t = n * t_samp
        if t > self.span:
            return 0.0
        phase = 2.0 * math.pi * (self.f0 * t + 0.5 * (self.f1 - self.f0) * t * t / self.span)
        return self.amplitude * math.sin(phase)

    def end_time(self, t_samp: float) -> float:
        return self.span


@dataclass(frozen=True)
class Scripted:
    """Arbitrary per-sample force command, zero after the script runs out."""

    samples: np.ndarray

    def initial_velocity(self, mass: float) -> float:
        return 0.0

    def sample_force(self, n: int, t_samp: float) -> float:
        return float(self.samples[n]) if n < len(self.samples) else 0.0

    def end_time(self, t_samp: float) -> float:
        return len(self.samples) * t_samp


class PureSpring:
    """Stateless rendered spring F = k*x, for instrumentation checks."""

    def __init__(self, k: float):
        self.k = float(k)

    def force_step(self, x_new: float) -> float:
        return self.k * x_new

    def reset(self):
        pass


@dataclass
class SimTrace:
    """Uniformly sampled loop records.

    energy is the running left-Riemann sum of rendered-force power,
    sum_k force[k]*velocity[k]*T, i.e. the energy the plant has pushed into
    the rendered port up to and including each sample.
    """

    t: np.ndarray
    position: np.ndarray  # mm
    velocity: np.ndarray  # mm/s
    force: np.ndarray  # rendered force at the port [N]
    force_cmd: np.ndarray  # commanded excitation force [N]
    energy: np.ndarray  # N*mm
    t_samp: float
    excite_end: float  # time the excitation stops [s]
    diverged: bool = field(default=False)


def simulate(
    plant: PlantParams,
    ve,
    excitation,
    duration: float,
    t_samp: float | None = None,
) -> SimTrace:
    """Run the loop for `duration` seconds; ve may be None for a free plant.

    The run aborts with the diverged flag once |x| exceeds 1e6 mm.
    """
    if duration <= 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    if t_samp is None:
        if ve is None or not hasattr(ve, "kernel"):
            raise ValueError("t_samp is required when the rendered law does not carry a kernel")
        t_samp = ve.kernel.t_samp
    T = float(t_samp)
    m, b = plant.mass, plant.damping
    steps = n_samples(duration, T)
    t = np.arange(steps) * T
    x_arr = np.zeros(steps)
    v_arr = np.zeros(steps)
    f_arr = np.zeros(steps)
    fc_arr = np.zeros(steps)
    e_arr = np.zeros(steps)

    if ve is not None and hasattr(ve, "reset"):
        ve.reset()
    x = 0.0
    v = excitation.initial_velocity(m)
    if b > 0.0:
        decay = math.exp(-b * T / m)
        gain_f = (1.0 - decay) / b
        gain_x = (m / b) * (1.0 - decay)
    energy = 0.0
    diverged = False
    n_done = steps
    for n in range(steps):
        f_ve = ve.force_step(x) if ve is not None else 0.0
        f_cmd = excitation.sample_force(n, T)
        energy += f_ve * v * T
        x_arr[n], v_arr[n], f_arr[n], fc_arr[n], e_arr[n] = x, v, f_ve, f_cmd, energy
        if abs(x) > DIVERGENCE_LIMIT_MM or not math.isfinite(x):
            diverged = True
            n_done = n + 1
            break
        f_tot = f_cmd - f_ve
        if b > 0.0:
            v_next = v * decay + f_tot * gain_f
            x = x + (f_tot / b) * T + (v - f_tot / b) * gain_x
        else:
            v_next = v + f_tot * T / m
            x = x + v * T + 0.5 * f_tot * T * T / m
        v = v_next

    sl = slice(0, n_done)
    return SimTrace(
        t=t[sl],
        position=x_arr[sl],
        velocity=v_arr[sl],
        force=f_arr[sl],
        force_cmd=fc_arr[sl],
        energy=e_arr[sl],
        t_samp=T,
        excite_end=float(excitation.end_time(T)),
        diverged=diverged,
    )


@dataclass(frozen=True)
class ObserverReport:
    min_energy: float  # N*mm, over the post-excitation window
    violation: bool


def energy_observer(trace: SimTrace, drift_tol: float = 1e-9) -> ObserverReport:
    """Passivity verdict from the port-energy record.

    Even a well-damped loop leaks a little energy out of the rendered port
    (the hold releases ~stiffness*T/2 per unit of squared velocity), so the
    cumulative record of a stable run converges to a possibly negative value.
    A violation is a *sustained* downward drift after the excitation ends:
    the final fifth of the record keeps falling at least as fast (80%) as the
    fifth before it, instead of flattening out.  A diverged run is a
    violation by definition.
    """
    post = trace.energy[trace.t >= trace.excite_end - 1e-12]
    if post.size == 0:
        post = trace.energy
    min_energy = float(np.min(post)) if post.size else 0.0
    if trace.diverged:
        return ObserverReport(min_energy=min_energy, violation=True)
    if post.size < 10:
        return ObserverReport(min_energy=min_energy, violation=False)
    i60 = int(0.6 * (post.size - 1))
    i80 = int(0.8 * (post.size - 1))
    d_prev = float(post[i80] - post[i60])
    d_last = float(post[-1] - post[i80])
    tol = max(abs(drift_tol), 1e-9 * float(np.max(np.abs(post))))
    sustained = d_last < -tol and abs(d_last) >= 0.8 * abs(d_prev)
    return ObserverReport(min_energy=min_energy, violation=sustained)


def is_unstable(
    trace: SimTrace,
    drift_tol: float = 1e-6,
    growth_factor: float = 1.05,
    envelope_floor: float = 1e-9,
) -> bool:
    """Instability verdict: observer violation, divergence, or envelope growth.

    Envelope growth compares max|x| over the final fifth of the
    post-excitation window against the fifth starting at 20% of it; both
    thresholds are configurable because the verdict is a numeric stand-in for
    an observed loss of coupled stability.
    """
    if trace.diverged:
        return True
    if energy_observer(trace, drift_tol=drift_tol).violation:
        return True
    mask = trace.t >= trace.excite_end - 1e-12
    x = np.abs(trace.position[mask])
    n = x.size
    if n < 10:
        return False
    ref = float(np.max(x[n // 5 : 2 * n // 5]))
    last = float(np.max(x[4 * n // 5 :]))
    return last > envelope_floor and last > growth_factor * ref


def empirical_boundary(
    plant: PlantParams,
    alpha: float,
    b1: float,
    kernel: GLKernel,
    k1_range: tuple[float, float],
    resolution: float = 0.1,
    n_trials: int = 5,
    duration: float = 10.0,
    base_momentum: float = 0.01,
    drift_tol: float = 1e-6,
    growth_factor: float = 1.05,
) -> float:
    """Largest branch stiffness the simulated loop tolerates (k0 = 0).

    Impulse-excited runs at `n_trials` momenta give the per-candidate
    verdict (any unstable trial condemns the candidate); the K1 axis is then
    bisected down to `resolution` [N/mm].  The supplied range must bracket
    the boundary: stable at the low end, unstable at the high end.
    """
    if abs(alpha - kernel.alpha) > 1e-12:
        raise ValueError(f"kernel order {kernel.alpha} does not match alpha {alpha}")
    lo, hi = float(k1_range[0]), float(k1_range[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < k1_lo < k1_hi, got {k1_range}")
    momenta = base_momentum * np.array([1.0, 0.5, 1.5, 0.75, 2.0])[:n_trials]

    def unstable(k1: float) -> bool:
        params = FoSlsParams(k0=0.0, k1=k1, b1=b1, alpha=alpha)
        for j in momenta:
            ve = DiscreteVE(params, kernel)
            trace = simulate(plant, ve, Impulse(momentum=float(j)), duration)
            if is_unstable(trace, drift_tol=drift_tol, growth_factor=growth_factor):
                return True
        return False

    if unstable(lo):
        raise ValueError(f"k1 range does not bracket the boundary: {lo} is already unstable")
    if not unstable(hi):
        raise ValueError(f"k1 range does not bracket the boundary: {hi} is still stable")
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return lo


@dataclass(frozen=True)
class IdentResult:
    params: PlantParams
    r_squared: float


def plant_ident(trace: SimTrace) -> IdentResult:
    """Least-squares plant fit F = m*a + b*v from a recorded excitation run.

    The net force on the plant is the commanded force minus the rendered
    force.  Acceleration and velocity come from central differences; the
    force regressor is the two-step average, which matches the held-force
    integral over the same window exactly, so noiseless recovery is limited
    only by roundoff.
    """
    if trace.position.size < 8:
        raise ValueError("trace too short for identification")
    T = trace.t_samp
    f_net = trace.force_cmd - trace.force
    v = trace.velocity
    acc = (v[2:] - v[:-2]) / (2.0 * T)
    vel = v[1:-1]
    rhs = 0.5 * (f_net[:-2] + f_net[1:-1])
    design = np.column_stack([acc, vel])
    sing = np.linalg.svd(design, compute_uv=False)
    if sing[0] <= 0.0 or sing[-1] / sing[0] < 1e-10:
        raise ValueError("rank-deficient excitation: mass and damping are not both observable")
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 2:
        raise ValueError("rank-deficient excitation: mass and damping are not both observable")
    resid = rhs - design @ coef
    ss_tot = float(np.sum((rhs - rhs.mean()) ** 2))
    if ss_tot <= 0.0:
        raise ValueError("degenerate force record: zero variance")
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return IdentResult(params=PlantParams(mass=float(coef[0]), damping=float(coef[1])), r_squared=r2)
