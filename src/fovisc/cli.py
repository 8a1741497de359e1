"""Command-line front end.

Every subcommand writes either CSV (header row mandatory, comma delimiter,
12 significant digits) or JSON with the invoking configuration echoed, so a
run is reproducible from its flag set plus seed.  Exit codes: 0 success,
2 usage error, 3 domain/precondition error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fitting, glkernel, impedance, models, passivity, simloop, util

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4


def _f12(x: float) -> float:
    """Round-trip through 12 significant digits for stable output."""
    return float(f"{float(x):.12g}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _config_echo(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in vars(args).items():
        if key in ("handler", "output", "gnuplot"):
            continue
        if isinstance(value, float):
            value = _f12(value)
        out[key] = value
    return out


def _write_text(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(args: argparse.Namespace, header: list[str], rows, comments: dict | None = None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    if comments:
        for key, value in comments.items():
            lines.append(f"# {key} = {_fmt(value)}")
    _write_text(args, "\n".join(lines) + "\n")
    if getattr(args, "gnuplot", False) and getattr(args, "output", None):
        _write_gnuplot(args.output, header)


def _write_gnuplot(csv_path: str, header: list[str]) -> None:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{header[0]}'",
        "plot " + ", ".join(f"'{csv_path}' using 1:{i + 2} with lines" for i in range(len(header) - 1)),
        "pause -1",
    ]
    with open(csv_path + ".gp", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(args: argparse.Namespace, payload: dict) -> None:
    payload = {"config": _config_echo(args), **payload}
    _write_text(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k0", type=float, default=0.0, help="parallel stiffness [N/mm]")
    sub.add_argument("--k1", type=float, required=True, help="branch stiffness [N/mm]")
    sub.add_argument("--b1", type=float, required=True, help="branch damping [N*s^alpha/mm]")
    sub.add_argument("--alpha", type=float, required=True, help="derivative order in (0,1]")
    sub.add_argument("--n", type=int, default=101, help="memory length N")
    sub.add_argument("--t", type=float, default=0.001, help="sampling period [s]")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--output", help="output path (default stdout)")
    sub.add_argument("--gnuplot", action="store_true", help="also emit a .gp plot script (CSV outputs with -o)")


def _params_from(args: argparse.Namespace) -> models.FoSlsParams:
    return models.FoSlsParams(k0=getattr(args, "k0", 0.0), k1=args.k1, b1=args.b1, alpha=args.alpha)


def cmd_coeffs(args: argparse.Namespace) -> int:
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    summary = {
        "delta_p": _f12(glkernel.delta_p(kern)),
        "delta_s": _f12(glkernel.delta_s(args.alpha, args.n)),
        "delta_d": _f12(glkernel.delta_d(args.alpha, args.n)) if args.n >= 1 else None,
        "delta_p_asymptotic": _f12(glkernel.delta_p_asymptotic(args.alpha)),
    }
    if args.json:
        _write_json(args, {"coefficients": [_f12(c) for c in kern.coeffs], "summary": summary})
    else:
        rows = [(i, float(c)) for i, c in enumerate(kern.coeffs)]
        _write_csv(args, ["index", "coefficient"], rows, comments=summary)
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    params = _params_from(args)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    if args.n % 2 == 1:
        result = passivity.bound_closed_form(params, kern)
        variants = {k: _f12(v) for k, v in passivity.bound_variants(params, kern).items()}
    else:
        result = passivity.max_passivity(params, kern, args.grid_points)
        variants = None
    payload = {
        "b_min": _f12(result.b_min),
        "omega_star": _f12(result.omega_star),
        "method": result.method,
        "margin_ok": None if args.b_plant is None else bool(args.b_plant > result.b_min),
    }
    if variants is not None:
        payload["variants"] = variants
    _write_json(args, payload)
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    b1_grid = np.linspace(args.b1_min, args.b1_max, args.steps)
    region = passivity.region_scan(
        args.alpha, kern, args.b_plant, b1_grid, args.k1_max, resolution=args.resolution
    )
    rows = [(float(b), float(k)) for b, k in zip(region.b1, region.k1)]
    _write_csv(args, ["b1", "k1_max"], rows, comments={"feasible": region.feasible})
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _params_from(args)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    nyq = kern.nyquist
    omegas = np.linspace(0.0, nyq, args.points + 1)[1:]
    if args.what == "f":
        values = passivity.passivity_function(params, kern, omegas)
        rows = [(float(w * args.t), _f12(f)) for w, f in zip(omegas, values)]
        _write_csv(args, ["omega_t", "f"], rows)
        return EXIT_OK
    if args.form == "lowfreq":
        # one row at w = 0, where ED is only defined as the limit
        es, ed = impedance.es_ed_lowfreq(params, kern)
        omegas, es, ed = [0.0], [es], [ed]
    elif args.form == "finite":
        es, ed = impedance.es_ed_finite(params, kern, omegas)
    else:
        es, ed = impedance.es_ed_asymptotic(params, omegas, kern.t_samp)
    rows = [(float(w), _f12(v)) for w, v in zip(omegas, es if args.what == "es" else ed)]
    _write_csv(args, ["omega", args.what], rows)
    return EXIT_OK


def _parse_excitation(spec: str) -> object:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "impulse":
            return simloop.Impulse(momentum=float(rest))
        if kind == "chirp":
            f0, f1, span, amp = (float(v) for v in rest.split(","))
            return simloop.ForceChirp(f0=f0, f1=f1, span=span, amplitude=amp)
        if kind == "none":
            return simloop.Impulse(momentum=0.0)
    except ValueError as exc:
        raise ValueError(f"cannot parse excitation {spec!r}: {exc}") from exc
    raise ValueError(f"unknown excitation kind {kind!r}; use impulse:J or chirp:f0,f1,span,amp")


def cmd_simulate(args: argparse.Namespace) -> int:
    plant = simloop.PlantParams(mass=args.plant_m, damping=args.plant_b)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    if args.boundary:
        region = passivity.region_scan(args.alpha, kern, args.plant_b, [args.b1], k1_max=1e9)
        if not region.feasible or region.capped[0]:
            raise ValueError("no finite analytical boundary for these settings")
        analytical = float(region.k1[0])
        lo = args.k1_lo if args.k1_lo is not None else 0.5 * analytical
        hi = args.k1_hi if args.k1_hi is not None else 2.0 * analytical
        k1_star = simloop.empirical_boundary(
            plant,
            args.alpha,
            args.b1,
            kern,
            (lo, hi),
            resolution=args.resolution,
            n_trials=args.trials,
            duration=args.duration,
            base_momentum=args.momentum,
        )
        _write_json(
            args,
            {
                "k1_star": _f12(k1_star),
                "analytical_k1": _f12(analytical),
                "ratio": _f12(k1_star / analytical),
            },
        )
        return EXIT_OK
    params = _params_from(args)
    ve = models.DiscreteVE(params, kern) if args.k1 > 0 else None
    trace = simloop.simulate(plant, ve, _parse_excitation(args.excite), args.duration, args.t)
    rows = zip(trace.t, trace.position, trace.velocity, trace.force, trace.force_cmd, trace.energy)
    _write_csv(
        args,
        ["time_s", "position_mm", "velocity_mm_s", "force_n", "force_cmd_n", "energy_nmm"],
        [tuple(float(v) for v in row) for row in rows],
        comments={"diverged": trace.diverged},
    )
    return EXIT_OK


def _read_series_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: expected at least two rows of columns time_s,value")
    return data[:, 0], data[:, 1]


def cmd_fit(args: argparse.Namespace) -> int:
    experiments = []
    if args.creep:
        t, v = _read_series_csv(args.creep)
        # recovery sized from the record's sample count, not from float times
        t_samp = float(t[1] - t[0])
        n_hold = util.n_samples(args.t_hold, t_samp) + 1
        if n_hold > t.size:
            raise ValueError(
                f"--t-hold {args.t_hold} s spans {n_hold} samples, "
                f"but the creep record has only {t.size} rows"
            )
        t_rec = (t.size - n_hold) * t_samp
        proto = fitting.CreepProtocol(
            f_hold=args.f_hold, t_hold=args.t_hold, f_recover=args.f_recover, t_recover=t_rec
        )
        experiments.append(fitting.ExperimentData("creep", t, v, proto))
    if args.relax:
        t, v = _read_series_csv(args.relax)
        proto = fitting.RelaxationProtocol(x0=args.x0, duration=float(t[-1]))
        experiments.append(fitting.ExperimentData("relaxation", t, v, proto))
    if not experiments:
        raise ValueError("supply at least one of --creep/--relax")
    config = fitting.FitConfig(
        b_plant=args.b_plant,
        n_starts=args.starts,
        max_evals_per_start=args.max_evals,
        normalization=args.normalization,
        seed=args.seed,
    )
    result = fitting.fit(experiments, args.n, config)
    _write_json(
        args,
        {
            "params": {
                "k0": _f12(result.params.k0),
                "k1": _f12(result.params.k1),
                "b1": _f12(result.params.b1),
                "alpha": _f12(result.params.alpha),
            },
            "n_mem": result.n_mem,
            "nrmse": _f12(result.nrmse),
            "passivity_ok": result.passivity_ok,
            "objective_evals": result.objective_evals,
            "converged": result.converged,
        },
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_synth(args: argparse.Namespace) -> int:
    params = _params_from(args)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    if args.protocol == "creep":
        proto = fitting.CreepProtocol(
            f_hold=args.f_hold,
            t_hold=args.t_hold,
            f_recover=args.f_recover,
            t_recover=args.t_recover,
        )
    else:
        proto = fitting.RelaxationProtocol(x0=args.x0, duration=args.duration)
    exp = fitting.synth_experiment(
        params, kern, proto, noise_sd=args.noise, seed=args.seed, average_16=args.avg16
    )
    _write_csv(args, ["time_s", "value"], list(zip(exp.time, exp.values)))
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    params = _params_from(args)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    omegas = np.linspace(0.0, kern.nyquist, args.points + 1)[1:]
    h = models.freq_response(args.kind, params, kern, omegas)
    rows = [(float(w), _f12(v.real), _f12(v.imag)) for w, v in zip(omegas, h)]
    _write_csv(args, ["omega", "re_H", "im_H"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fovisc",
        description="Fractional-order viscoelastic rendering toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeffs", help="truncated difference coefficients and their sums")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--json", action="store_true")
    grp.add_argument("--csv", action="store_true", help="CSV output (default)")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_coeffs)

    p = subs.add_parser("bound", help="minimum interface damping for passivity")
    _add_model_flags(p)
    p.add_argument("--b-plant", type=float, default=None, help="available plant damping [N*s/mm]")
    p.add_argument("--grid-points", type=int, default=8192)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_bound)

    p = subs.add_parser("region", help="(B1, K1) admissible-region boundary at k0=0")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--b-plant", type=float, required=True)
    p.add_argument("--b1-min", type=float, required=True)
    p.add_argument("--b1-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--k1-max", type=float, default=1000.0)
    p.add_argument("--resolution", type=float, default=0.1)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--t", type=float, default=0.001)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_region)

    p = subs.add_parser("sweep", help="frequency sweeps of f, ES, or ED")
    p.add_argument("--what", choices=("f", "es", "ed"), required=True)
    p.add_argument("--form", choices=("finite", "asymptotic", "lowfreq"), default="finite")
    _add_model_flags(p)
    p.add_argument("--points", type=int, default=1024)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = subs.add_parser("simulate", help="run the sampled loop or search its boundary")
    p.add_argument("--plant-m", type=float, default=7.34e-5, help="plant mass [N*s^2/mm]")
    p.add_argument("--plant-b", type=float, default=0.0025, help="plant damping [N*s/mm]")
    p.add_argument("--k0", type=float, default=0.0)
    p.add_argument("--k1", type=float, default=0.0, help="0 disables the rendered law")
    p.add_argument("--b1", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--t", type=float, default=0.001)
    p.add_argument("--excite", default="impulse:0.01", help="impulse:J | chirp:f0,f1,span,amp | none")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--boundary", action="store_true", help="bisect the largest stable K1 instead")
    p.add_argument("--k1-lo", type=float, default=None)
    p.add_argument("--k1-hi", type=float, default=None)
    p.add_argument("--resolution", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--momentum", type=float, default=0.01, help="impulse momentum [N*s]")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_simulate)

    p = subs.add_parser("fit", help="identify parameters from recorded series")
    p.add_argument("--creep", help="CSV time_s,value displacement record")
    p.add_argument("--relax", help="CSV time_s,value force record")
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--b-plant", type=float, default=0.0025)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--max-evals", type=int, default=20000)
    p.add_argument("--normalization", choices=fitting.NORMALIZATIONS, default="range")
    p.add_argument("--f-hold", type=float, default=3.0)
    p.add_argument("--t-hold", type=float, default=3.0)
    p.add_argument("--f-recover", type=float, default=0.5)
    p.add_argument("--x0", type=float, default=5.0)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_fit)

    p = subs.add_parser("synth", help="synthesize a protocol record from parameters")
    _add_model_flags(p)
    p.add_argument("--protocol", choices=("creep", "relaxation"), required=True)
    p.add_argument("--noise", type=float, default=0.0, help="additive noise sd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--avg16", action="store_true", help="emulate 16-trial averaging")
    p.add_argument("--f-hold", type=float, default=3.0)
    p.add_argument("--t-hold", type=float, default=3.0)
    p.add_argument("--f-recover", type=float, default=0.5)
    p.add_argument("--t-recover", type=float, default=3.0)
    p.add_argument("--x0", type=float, default=5.0)
    p.add_argument("--duration", type=float, default=3.0)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_synth)

    p = subs.add_parser("reduce", help="frequency response of a classical reduction")
    p.add_argument("--kind", choices=models.REDUCTION_KINDS, required=True)
    _add_model_flags(p)
    p.add_argument("--points", type=int, default=1024)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_reduce)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"fovisc: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:
        print(f"fovisc: inconsistency: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
