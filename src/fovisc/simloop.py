"""Sampled-data rendering loop: continuous mass-damper plant, position
sampler, discrete viscoelastic law, zero-order hold.

Between samples the plant obeys m*dv/dt + b*v = F with F constant (the held
rendered force plus the commanded excitation), so each period advances it
by the exact solution

    v[n+1] = d*v[n] + g_f*F[n],             d = e^(-bT/m),  g_f = (1 - d)/b,
    x[n+1] = x[n] + g_x*v[n] + c1*F[n],     g_x = (m/b)*(1 - d),  c1 = (T - g_x)/b,

which at b = 0 takes its limits d = 1, g_f = T/m, g_x = T, c1 = T^2/(2m);
_plant_gains evaluates them without the cancellation of these forms at
small bT/m.
This keeps integrator error out of the passivity experiments; whatever the
energy observer sees comes from the sampling loop itself.

Plant, hold and rendered law form one linear time-invariant loop.  In z^-1
the plant maps net force to position through Pn/Pd with

    Pd = 1 - (1 + d) z^-1 + d z^-2,    Pn = c1 z^-1 + (g_x*g_f - c1*d) z^-2,

and the rendered impedance is a ratio H = num/den (for a DiscreteVE, the
law's filter models._law_filter), so with x[0] = 0 and v[0] = v0

    x = [den / (Pd*den + Pn*num)] (g_x*v0*delta[n-1] + Pn F_cmd),

simulate runs the loop over the whole record at once: one recursive pass of
1/(Pd*den + Pn*num), whose output filtered by den and by num gives position
and rendered force, one refinement pass of the same filter (see simulate),
and the velocity recursion above as a first-order filter.

empirical_boundary bisects the branch stiffness K1 for the largest stable
loop, one such run under an impulse per candidate, judged by is_unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .glkernel import GLKernel
from .models import DiscreteVE, FoSlsParams, _check_order, _fir, _law_filter, _lfilter
from .util import _check_finite, n_samples

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
# verdict thresholds: energy drift [N*mm], envelope growth ratio, envelope floor [mm]
_DRIFT_TOL = 1e-6
_GROWTH_FACTOR = 1.05
_ENVELOPE_FLOOR = 1e-9


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

    def __post_init__(self):
        _check_finite(self)

    def initial_velocity(self, mass: float) -> float:
        return self.momentum / mass

    def force_samples(self, steps: int, t_samp: float) -> np.ndarray:
        return np.zeros(steps)

    def end_time(self, t_samp: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ForceChirp:
    """Bidirectional linear chirp force sweeping f0 -> f1 [Hz] over span [s]."""

    f0: float
    f1: float
    span: float
    amplitude: float  # N

    def __post_init__(self):
        _check_finite(self)
        if self.span <= 0.0:  # the sweep rate (f1 - f0)/span is undefined
            raise ValueError(f"span must be positive, got {self.span}")

    def initial_velocity(self, mass: float) -> float:
        return 0.0

    def force_samples(self, steps: int, t_samp: float) -> np.ndarray:
        t = np.arange(steps) * t_samp
        phase = 2.0 * math.pi * (self.f0 * t + 0.5 * (self.f1 - self.f0) * t * t / self.span)
        return np.where(t > self.span, 0.0, self.amplitude * np.sin(phase))

    def end_time(self, t_samp: float) -> float:
        return self.span


@dataclass(frozen=True)
class Scripted:
    """Arbitrary per-sample force command, zero after the script runs out."""

    samples: np.ndarray

    def initial_velocity(self, mass: float) -> float:
        return 0.0

    def force_samples(self, steps: int, t_samp: float) -> np.ndarray:
        force = np.zeros(steps)
        head = np.asarray(self.samples, dtype=float)[:steps]
        force[: head.size] = head
        return force

    def end_time(self, t_samp: float) -> float:
        return len(self.samples) * t_samp


@dataclass(frozen=True)
class PureSpring:
    """Rendered spring F = k*x, for instrumentation checks."""

    k: float


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


def _rendered_filter(ve) -> tuple[np.ndarray, np.ndarray]:
    """(num, den) of the rendered impedance H = num/den in z^-1."""
    if ve is None:
        return np.zeros(1), np.ones(1)
    if isinstance(ve, PureSpring):
        return np.array([float(ve.k)]), np.ones(1)
    if isinstance(ve, DiscreteVE):
        return _law_filter(ve.params, ve.kernel)
    raise TypeError(f"cannot render {type(ve).__name__}; expected DiscreteVE, PureSpring or None")


def _phi_series(h: float) -> tuple[float, float]:
    """(phi_2(-h), (1 - e^-h (1 + h))/h^2) for 0 <= h < 1 by their power series
    sum_{n>=2} (-h)^(n-2)/n! and sum_{n>=2} (n-1)(-h)^(n-2)/n! (to 1/26!)."""
    phi2 = pn = 0.0
    term = 1.0
    for n in range(2, 27):
        term /= n
        phi2 += term
        pn += (n - 1) * term
        term *= -h
    return phi2, pn


def _plant_gains(plant: PlantParams, t_samp: float) -> tuple[float, float, float, float, float]:
    """(d, g_f, g_x, c1, Pn's g_x*g_f - c1*d) of the exact one-period plant step.

    With h = bT/m: g_x = T*phi_1(-h), g_f = g_x/m, c1 = (T^2/m)*phi_2(-h) and
    g_x*g_f - c1*d = (T^2/m)*(1 - e^-h (1 + h))/h^2, where phi_1(z) = (e^z - 1)/z
    and phi_2(z) = (e^z - 1 - z)/z^2.  expm1 and, below h = 1, the power
    series keep every digit as b -> 0; at b = 0 they are the limits T, T/m,
    T^2/(2m) and T^2/(2m).
    """
    m, b, T = plant.mass, plant.damping, t_samp
    h = b * T / m
    phi1 = -math.expm1(-h) / h if h > 0.0 else 1.0
    if h < 1.0:
        phi2, pn = _phi_series(h)
    else:
        phi2 = (math.expm1(-h) + h) / (h * h)
        pn = (-math.expm1(-h) - h * math.exp(-h)) / (h * h)
    return math.exp(-h), T * phi1 / m, T * phi1, T * T * phi2 / m, T * T * pn / m


def simulate(
    plant: PlantParams,
    ve,
    excitation,
    duration: float,
    t_samp: float | None = None,
) -> SimTrace:
    """Run the loop for `duration` seconds.

    ve is the rendered law: a DiscreteVE, a PureSpring, or None for a free
    plant; simulate reads its parameters and leaves a DiscreteVE's stepping
    state alone.  t_samp defaults to the DiscreteVE kernel's period.  The run
    stops with the diverged flag at the first sample where |x| exceeds 1e6 mm
    or is not finite; that sample is the last one kept.
    """
    if duration <= 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    if t_samp is None:
        if not isinstance(ve, DiscreteVE):
            raise ValueError("t_samp is required when the rendered law does not carry a kernel")
        t_samp = ve.kernel.t_samp
    T = float(t_samp)
    steps = n_samples(duration, T)
    num, den = _rendered_filter(ve)
    d, g_f, g_x, c1, pn2 = _plant_gains(plant, T)
    p_den = np.array([1.0, -(1.0 + d), d])
    p_num = np.array([0.0, c1, pn2])
    loop_den = np.convolve(p_den, den) + np.convolve(p_num, num)
    v0 = excitation.initial_velocity(plant.mass)
    f_cmd = excitation.force_samples(steps, T)
    drive = _fir(p_num, f_cmd)  # Pn F_cmd, plus the kick's g_x*v0 one period later
    if steps > 1:
        drive[1] += g_x * v0

    def respond(u):
        # position den/loop_den u and rendered force num/loop_den u, sharing one pass
        w = _lfilter([1.0], loop_den, u)
        return _fir(den, w), _fir(num, w)

    def velocity(f_net):
        return _lfilter([0.0, g_f], [1.0, -d], f_net, zi=[v0])[0]

    with np.errstate(all="ignore"):
        x, force = respond(drive)
        # One step of iterative refinement.  Where the loop polynomial cancels
        # near z = 1 (the plant's integrator against a small static
        # stiffness), its rounding moves the slow closed-loop poles.  The
        # position step in its factored form gives the residual; an error in
        # that step enters X*Pd through 1 - d z^-1, so the loop maps it back.
        f_net = f_cmd - force
        resid = x.copy()
        resid[1:] -= x[:-1] + g_x * velocity(f_net)[:-1] + c1 * f_net[:-1]
        dx, dforce = respond(_fir(np.array([1.0, -d]), resid))
        x -= dx
        force -= dforce
        over = np.flatnonzero(~(np.abs(x) <= DIVERGENCE_LIMIT_MM))
        n_done = int(over[0]) + 1 if over.size else steps
        x, force, f_cmd = x[:n_done], force[:n_done], f_cmd[:n_done]
        v = velocity(f_cmd - force)
        energy = np.cumsum(force * v * T)
    return SimTrace(
        t=np.arange(n_done) * T,
        position=x,
        velocity=v,
        force=force,
        force_cmd=f_cmd,
        energy=energy,
        t_samp=T,
        excite_end=float(excitation.end_time(T)),
        diverged=bool(over.size),
    )


@dataclass(frozen=True)
class ObserverReport:
    min_energy: float  # N*mm, over the post-excitation window
    violation: bool


def energy_observer(trace: SimTrace) -> ObserverReport:
    """Passivity verdict from the port-energy record.

    Even a well-damped loop leaks a little energy out of the rendered port
    (the hold releases ~stiffness*T/2 per unit of squared velocity), so the
    cumulative record of a stable run converges to a possibly negative value.
    A violation is a *sustained* downward drift after the excitation ends:
    the final fifth of the record keeps falling at least as fast (80%) as the
    fifth before it, instead of flattening out.  A fall smaller than 1e-6
    N*mm or 1e-9 of the record's peak, whichever is larger, is roundoff.  A
    diverged run is a violation by definition.
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
    tol = max(_DRIFT_TOL, 1e-9 * float(np.max(np.abs(post))))
    sustained = d_last < -tol and abs(d_last) >= 0.8 * abs(d_prev)
    return ObserverReport(min_energy=min_energy, violation=sustained)


def is_unstable(trace: SimTrace) -> bool:
    """Instability verdict: observer violation (a diverged run is one) or envelope growth.

    Envelope growth compares max|x| over the final fifth of the
    post-excitation window against the fifth starting at 20% of it.  The
    verdict is a numeric stand-in for an observed loss of coupled stability,
    so its fixed thresholds only have to clear roundoff (the energy drift and
    the envelope floor) and the ripple of a settling loop (5% growth).
    """
    if energy_observer(trace).violation:
        return True
    mask = trace.t >= trace.excite_end - 1e-12
    x = np.abs(trace.position[mask])
    n = x.size
    if n < 10:
        return False
    ref = float(np.max(x[n // 5 : 2 * n // 5]))
    last = float(np.max(x[4 * n // 5 :]))
    return last > _ENVELOPE_FLOOR and last > _GROWTH_FACTOR * ref


def empirical_boundary(
    plant: PlantParams,
    alpha: float,
    b1: float,
    kernel: GLKernel,
    k1_range: tuple[float, float],
    resolution: float = 0.1,
    duration: float = 10.0,
    momentum: float = 0.02,
) -> float:
    """Largest branch stiffness the simulated loop tolerates (k0 = 0).

    Each K1 candidate is one run under an impulse of `momentum` [N*s]
    (nonzero and finite; its sign is free), judged by is_unstable; the K1
    axis is bisected down to `resolution` [N/mm], which must be positive.
    The supplied range must bracket the boundary: stable at the low end,
    unstable at the high end.
    """
    _check_order(alpha, kernel)
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    if not (math.isfinite(momentum) and momentum != 0.0):
        raise ValueError(f"momentum must be nonzero and finite, got {momentum}")
    lo, hi = float(k1_range[0]), float(k1_range[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < k1_lo < k1_hi, got {k1_range}")
    kick = Impulse(momentum=float(momentum))

    def unstable(k1: float) -> bool:
        ve = DiscreteVE(FoSlsParams(k0=0.0, k1=k1, b1=b1, alpha=alpha), kernel)
        return is_unstable(simulate(plant, ve, kick, duration))

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
