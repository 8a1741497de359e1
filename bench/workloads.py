"""The benchmark's three workloads: one round of CLI operations each, with checks.

A round is a fixed list of operations.  Each operation is one
``fovisc.cli.dispatch(argv)`` call that writes with ``-o`` into the run's
scratch directory, plus a check that reads what it wrote and compares it
with ``reference`` or with a property the method must have.  The seed draws
only inputs whose cost does not depend on their value (parameter jitter,
operation order); the inputs whose cost does (the fit records, the region
flags, the boundary orders) are fixed, so every run does the same work.

Every operation has a role, and the end-to-end metrics are per role:

    search  fit | region | simulate --boundary
    direct  synth | sweep, bound | simulate (trace)
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

T = 0.001
B_PLANT = 0.0025
MATERIAL = (-2.89, 5.7, 5.89, 0.203)  # k0, k1, b1, alpha of the material of record

@dataclass
class Verdict:
    """failed: the operation did not deliver (exit code, record shape).
    wrong: it delivered values that disagree with the references."""

    failed: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)  # what the check read back, e.g. objective_evals


@dataclass
class Op:
    slot: str  # operations with the same slot repeat the same work
    role: str  # search | direct
    argv: list[str]
    check: Callable[[], Verdict]  # called only after the operation exited 0
    fault: bool = False  # exhibits the known sample-count fault until it is mended


def _g(x: float) -> str:
    return f"{x:.6g}"


def _model_flags(p, n_mem):
    k0, k1, b1, alpha = p
    return ["--k0", _g(k0), "--k1", _g(k1), "--b1", _g(b1), "--alpha", _g(alpha), "--n", str(n_mem), "--t", _g(T)]


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln and not ln.startswith("#")]
    comments = {}
    for ln in lines:
        if ln.startswith("#"):
            key, _, value = ln[1:].partition("=")
            comments[key.strip()] = value.strip()
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return header, data, comments


def _mismatch(a, b, rtol, atol=0.0):
    """Largest |a - b| beyond rtol*|b| + atol, or 0.0 when all agree."""
    excess = np.abs(np.asarray(a) - np.asarray(b)) - (rtol * np.abs(np.asarray(b)) + atol)
    return float(np.max(excess, initial=0.0))


def _load_json(path, verdict):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        verdict.failed.append(f"no readable output: {exc}")
        return None


def _series(path, verdict, rows=None, t_end=None):
    """Read a time_s,... CSV and check its sample count and end time."""
    try:
        header, data, comments = _read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        verdict.failed.append(f"no readable output: {exc}")
        return None, None
    if rows is not None and data.shape[0] != rows:
        verdict.failed.append(f"{data.shape[0]} rows, expected {rows}")
    if t_end is not None and data.shape[0] and abs(data[-1, 0] - t_end) > 1e-9:
        verdict.failed.append(f"record ends at {float(data[-1, 0])!r} s, expected {t_end} s")
    if verdict.failed:
        return None, None
    if np.max(np.abs(data[:, 0] - np.arange(data.shape[0]) * T), initial=0.0) > 1e-9:
        verdict.wrong.append("time column is not k*T")
    return data, comments


# ---------------------------------------------------------------- identify


def _synth_op(path, p, n_mem, proto, fault=False):
    if proto[0] == "creep":
        _, f_hold, t_hold, f_rec, t_rec = proto
        extra = ["--protocol", "creep", "--f-hold", _g(f_hold), "--t-hold", _g(t_hold),
                 "--f-recover", _g(f_rec), "--t-recover", _g(t_rec)]
        duration = t_hold + t_rec
    else:
        _, x0, duration = proto
        extra = ["--protocol", "relaxation", "--x0", _g(x0), "--duration", _g(duration)]
    argv = ["synth", *_model_flags(p, n_mem), *extra, "-o", path]

    def check():
        v = Verdict()
        n = ref.n_samples(duration, T) + 1
        data, _ = _series(path, v, rows=n, t_end=duration)
        if data is None:
            return v
        w = ref.gl_weights(p[3], n_mem)
        if proto[0] == "creep":
            pred = ref.creep(p, w, T, ref.creep_force(f_hold, t_hold, f_rec, t_rec, T))
        else:
            pred = ref.relaxation(p, w, T, x0, n)
        bad = _mismatch(data[:, 1], pred, 0.0, 1e-10 * np.max(np.abs(pred)))
        if bad:
            v.wrong.append(f"record departs from the reference recursion by {bad:.3g}")
        return v

    return Op(f"synth:{proto[0]}:{n_mem}:{_g(duration)}", "direct", argv, check, fault=fault)


def _fit_op(out, creep_path, relax_path, n_mem, t_hold, matched):
    argv = ["fit", "--creep", creep_path, "--relax", relax_path, "--n", str(n_mem),
            "--b-plant", _g(B_PLANT), "--starts", "1", "--seed", "0",
            "--t-hold", _g(t_hold), "-o", out]
    def check():
        v = Verdict()
        res = _load_json(out, v)
        if res is None:
            return v
        v.info = {"objective_evals": int(res["objective_evals"]), "experiments": 2}
        q = res["params"]
        p = (q["k0"], q["k1"], q["b1"], q["alpha"])
        w = ref.gl_weights(p[3], n_mem)
        _, creep, _ = _read_csv(creep_path)
        _, relax, _ = _read_csv(relax_path)
        n_hold = ref.n_samples(t_hold, T) + 1
        force = np.concatenate([np.full(n_hold, 3.0), np.full(creep.shape[0] - n_hold, 0.5)])
        errs = [
            ref.nrmse(ref.creep(p, w, T, force), creep[:, 1]),
            ref.nrmse(ref.relaxation(p, w, T, 5.0, relax.shape[0]), relax[:, 1]),
        ]
        if _mismatch(np.mean(errs), res["nrmse"], 1e-6, 1e-9):
            v.wrong.append(f"reported nrmse {res['nrmse']} but the reference gives {np.mean(errs)}")
        bound = ref.nyquist_bound(p, w, T)
        if not bound <= B_PLANT:
            v.wrong.append(f"identified set needs {bound} N*s/mm > plant {B_PLANT}")
        if res["passivity_ok"] is not True or res["converged"] is not True:
            v.wrong.append("fit reports passivity_ok/converged false")
        if matched and not (abs(p[3] - MATERIAL[3]) <= 0.02 and res["nrmse"] < 0.005):
            v.wrong.append(f"matched records not recovered: alpha {p[3]}, nrmse {res['nrmse']}")
        return v

    return Op(f"fit:{'matched' if matched else 'mismatched'}", "search", argv, check)


def identify(seed: int, d: str) -> list[Op]:
    """synth then fit on records of the material of record.

    Matched: records at N = 101 under the default protocols (3 s creep hold
    plus 3 s recovery, 3 s relaxation).  Mismatched: records at N = 301,
    which the N = 101 model cannot match, under 1 s protocols.  Both fit at
    N = 101 with one start, which is enough for each to exit 0.
    """
    rng = np.random.default_rng(seed)
    P = os.path.join
    records = [
        _synth_op(P(d, "creep101.csv"), MATERIAL, 101, ("creep", 3.0, 3.0, 0.5, 3.0)),
        _synth_op(P(d, "relax101.csv"), MATERIAL, 101, ("relaxation", 5.0, 3.0)),
        _synth_op(P(d, "creep301.csv"), MATERIAL, 301, ("creep", 3.0, 1.0, 0.5, 1.0)),
        _synth_op(P(d, "relax301.csv"), MATERIAL, 301, ("relaxation", 5.0, 1.0)),
        # 0.7/0.001 = 699.999..., and floor() drops the last sample
        _synth_op(P(d, "relax07.csv"), MATERIAL, 101, ("relaxation", 5.0, 0.7), fault=True),
    ]
    fits = [
        _fit_op(P(d, "fit_matched.json"), P(d, "creep101.csv"), P(d, "relax101.csv"), 101, 3.0, True),
        _fit_op(P(d, "fit_mismatched.json"), P(d, "creep301.csv"), P(d, "relax301.csv"), 101, 1.0, False),
    ]
    first, second = (fits[i] for i in rng.permutation(2))
    # the records are written again between and after the fits, so that the
    # synth medians sample the whole round
    return records + [first] + records + [second] + records


# ---------------------------------------------------------------- freq-domain


def _bound_op(out, p, n_mem):
    """Even memory length: the bound is the interior maximum of f."""
    argv = ["bound", *_model_flags(p, n_mem), "--b-plant", _g(B_PLANT), "-o", out]
    p = tuple(float(_g(x)) for x in p)

    def check():
        v = Verdict()
        res = _load_json(out, v)
        if res is None:
            return v
        w = ref.gl_weights(p[3], n_mem)
        f_max = ref.max_f(p, w, T)
        if _mismatch(res["b_min"], f_max, 1e-9):
            v.wrong.append(f"b_min {res['b_min']} != reference maximum {f_max}")
        at_star = ref.f_values(p, w, res["omega_star"] * T, T)[0]
        if _mismatch(at_star, res["b_min"], 1e-9):
            v.wrong.append(f"f(omega_star) = {at_star} but b_min = {res['b_min']}")
        if res["margin_ok"] is not (B_PLANT > res["b_min"]):
            v.wrong.append("margin_ok disagrees with b_min")
        return v

    return Op("bound", "direct", argv, check)


def _region_op(out, alpha, n_mem, b1_lo, b1_hi, steps, k1_max=1000.0, resolution=0.1):
    argv = ["region", "--alpha", _g(alpha), "--b-plant", _g(B_PLANT), "--b1-min", _g(b1_lo),
            "--b1-max", _g(b1_hi), "--steps", str(steps), "--n", str(n_mem), "--t", _g(T), "-o", out]

    def check():
        v = Verdict()
        try:
            _, data, comments = _read_csv(out)
        except (OSError, ValueError, IndexError) as exc:
            v.failed.append(f"no readable output: {exc}")
            return v
        if data.shape[0] != steps or comments.get("feasible") != "True":
            v.failed.append(f"{data.shape[0]} columns (expected {steps}), feasible={comments.get('feasible')}")
            return v
        w = ref.gl_weights(alpha, n_mem)
        grid = 8192
        s_grid = ref.spectrum(w, math.pi * np.arange(1, grid + 1) / grid)
        for b1, k1 in data:
            if k1 >= k1_max:
                if ref.max_f((0.0, k1_max, b1, alpha), w, T, grid, s_grid) > B_PLANT:
                    v.wrong.append(f"b1={b1}: capped column, but k1_max is not admissible")
                continue
            if ref.max_f((0.0, k1, b1, alpha), w, T, grid, s_grid) > B_PLANT * (1.0 + 1e-12):
                v.wrong.append(f"b1={b1}: reported k1={k1} is not admissible")
            if ref.max_f((0.0, k1 + 2.0 * resolution, b1, alpha), w, T, grid, s_grid) <= B_PLANT:
                v.wrong.append(f"b1={b1}: k1 + 2*resolution is still admissible")
        return v

    return Op("region", "search", argv, check)


def _sweep_op(out, what, form, p, n_mem, points=1024):
    argv = ["sweep", "--what", what, "--form", form, *_model_flags(p, n_mem),
            "--points", str(points), "-o", out]
    p = tuple(float(_g(x)) for x in p)
    omegas = np.linspace(0.0, math.pi / T, points + 1)[1:]

    def check():
        v = Verdict()
        try:
            _, data, _ = _read_csv(out)
        except (OSError, ValueError, IndexError) as exc:
            v.failed.append(f"no readable output: {exc}")
            return v
        if data.shape[0] != points:
            v.failed.append(f"{data.shape[0]} rows, expected {points}")
            return v
        x_col, got = data[:, 0], data[:, 1]
        if what == "f":
            if _mismatch(x_col, omegas * T, 1e-11):
                v.wrong.append("omega_t column is not the uniform grid")
            want = ref.f_values(p, ref.gl_weights(p[3], n_mem), omegas * T, T)
            bad = _mismatch(got, want, 1e-9, 1e-12 * np.max(np.abs(want)))
            if bad:
                v.wrong.append(f"f departs from the reference by {bad:.3g}")
            return v
        if _mismatch(x_col, omegas, 1e-11):
            v.wrong.append("omega column is not the uniform grid")
        if form == "finite":
            w = ref.gl_weights(p[3], n_mem)
            es, ed = ref.es_ed_finite(p, w, omegas, T)
        else:
            es, ed = ref.es_ed_infinite(p, omegas, T)
        want = es if what == "es" else ed
        bad = _mismatch(got, want, 1e-9, 1e-12 * np.max(np.abs(want)))
        if bad:
            v.wrong.append(f"{what} ({form}) departs from the reference by {bad:.3g}")
        if what == "ed" and np.min(got) < 0.0:
            v.wrong.append("negative effective damping")
        if form == "finite" and n_mem > 1000:
            # long memory: within the truncated tail of the infinite-memory value
            es_inf, ed_inf = ref.es_ed_infinite(p, omegas, T)
            inf = es_inf if what == "es" else ed_inf * omegas
            gap = np.abs((got if what == "es" else got * omegas) - inf)
            bound = ref.truncation_gap(p, ref.gl_weights(p[3], n_mem), T)
            if np.max(gap) > bound:
                v.wrong.append(f"N={n_mem} {what} is {np.max(gap):.3g} from infinite memory, tail bound {bound:.3g}")
        return v

    return Op(f"sweep:{what}:{form}:{n_mem}", "direct", argv, check)


def freq_domain(seed: int, d: str) -> list[Op]:
    """Even-N region and bound, and f/ES/ED sweeps: passivity and the spectrum only."""
    rng = np.random.default_rng(seed)
    P = os.path.join

    def jitter(x):
        return x * rng.uniform(0.8, 1.25)

    unit = (0.0, jitter(1.0), jitter(1.0), 0.5)
    soft = (jitter(10.0), jitter(32.0), jitter(0.01), 0.5)
    bound = _bound_op(P(d, "bound.json"), unit, 100)
    sweeps = [_sweep_op(P(d, "f.csv"), "f", "finite", unit, 100)]
    for what in ("es", "ed"):
        sweeps.append(_sweep_op(P(d, f"{what}_100.csv"), what, "finite", soft, 100))
        sweeps.append(_sweep_op(P(d, f"{what}_inf.csv"), what, "asymptotic", soft, 101))
        sweeps.append(_sweep_op(P(d, f"{what}_10001.csv"), what, "finite", soft, 10001))
    short = [op for i in rng.permutation(len(sweeps)) for op in (sweeps[i], bound)]
    return short + [_region_op(P(d, "region.csv"), 0.5, 100, 0.05, 2.0, 40)] + short


# ---------------------------------------------------------------- stability-boundary


def _boundary_op(out, alpha, b1, n_mem):
    argv = ["simulate", "--boundary", "--alpha", _g(alpha), "--b1", _g(b1), "--n", str(n_mem),
            "--t", _g(T), "--plant-b", _g(B_PLANT), "-o", out]

    def check():
        v = Verdict()
        res = _load_json(out, v)
        if res is None:
            return v
        k1_ref = ref.invert_nyquist_k1(B_PLANT, b1, alpha, ref.gl_weights(alpha, n_mem), T)
        if _mismatch(res["analytical_k1"], k1_ref, 1e-9):
            v.wrong.append(f"analytical_k1 {res['analytical_k1']} != reference inversion {k1_ref}")
        if not abs(res["ratio"] - 1.0) <= 0.1:
            v.wrong.append(f"simulated boundary ratio {res['ratio']} is not within 10%")
        if _mismatch(res["k1_star"] / res["analytical_k1"], res["ratio"], 1e-9):
            v.wrong.append("ratio != k1_star / analytical_k1")
        return v

    return Op(f"boundary:{_g(alpha)}", "search", argv, check)


def _trace_op(out, k1, b1, alpha, momentum, duration, fault=False):
    argv = ["simulate", "--k1", _g(k1), "--b1", _g(b1), "--alpha", _g(alpha), "--t", _g(T),
            "--excite", f"impulse:{_g(momentum)}", "--duration", _g(duration), "-o", out]

    def check():
        v = Verdict()
        steps = ref.n_samples(duration, T)
        data, comments = _series(out, v, rows=steps, t_end=(steps - 1) * T)
        if data is None:
            return v
        if comments.get("diverged") != "False":
            v.wrong.append("a stable setting diverged")
        power = data[:, 3] * data[:, 2] * T  # force * velocity * T
        energy = np.cumsum(power)
        tol = 1e-9 * np.cumsum(np.abs(power)) + 1e-15
        if np.any(np.abs(energy - data[:, 5]) > tol):
            v.wrong.append("energy column is not the running sum of force*velocity*T")
        return v

    return Op(f"simulate:{_g(duration)}", "direct", argv, check, fault=fault)


def stability_boundary(seed: int, d: str) -> list[Op]:
    """Simulated stability boundary at b1 = 100 for four orders, plus a 10 s trace."""
    rng = np.random.default_rng(seed)
    P = os.path.join
    k1 = rng.uniform(1.5, 2.5)  # well inside the ~5 N/mm boundary at alpha = 0.5
    trace = _trace_op(P(d, "trace.csv"), k1, 100.0, 0.5, rng.uniform(0.005, 0.02), 10.0)
    # 0.7/0.001 = 699.999..., and floor() drops the last step
    short = _trace_op(P(d, "trace07.csv"), 2.0, 100.0, 0.5, 0.01, 0.7, fault=True)
    ops = []
    for alpha in rng.permutation([0.25, 0.5, 0.75, 1.0]):
        ops += [_boundary_op(P(d, "boundary.json"), float(alpha), 100.0, 101), trace, short]
    return ops


ROUNDS = {"identify": identify, "freq-domain": freq_domain, "stability-boundary": stability_boundary}
