"""Command-line front end.

Every subcommand writes either CSV or JSON with the invoking configuration
echoed, so a run is reproducible from its flag set plus seed.  A CSV has a
mandatory header row and a comma delimiter; integer columns print as ``%d``,
every other value as ``%.12g``, and trailing comment lines as
``# key = value``.  CSV is formatted and written a block of rows at a time,
so memory stays bounded for long traces.  A JSON output is the library's
result as it is, its floats rounded to 12 significant digits in the writer.
Exit codes: 0 success, 2 usage error (a bad flag, or an input or output path
that cannot be opened), 3 domain/precondition error, 4 non-convergence.
dispatch builds the parser once per process and reuses it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import fitting, glkernel, impedance, models, passivity, simloop

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4

# rows per `%` when formatting CSV: bounds the text held at once
_CSV_BLOCK_ROWS = 4096

# Upper limits of the count flags, checked before anything is sized by them:
# far past any plot's resolution, and small enough that a run stays within
# memory (an even-N region bounds --steps x ~(N+1)/4 blocks of its grid and
# evaluates the roots of a few: at both caps, B1 from 0.5 to 2 took 73 s and
# 354 MB peak on a 2-core Xeon).
_MAX_POINTS = 10**6  # sweep/reduce --points, bound --grid-points
_MAX_STEPS = 10**4  # region --steps
_MAX_N = 10**6  # --n of every subcommand: a kernel holds N+1 weights


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


class _UsageError(Exception):
    """A usage error the parser cannot see: an input or output path that
    cannot be opened, or a flag the chosen output cannot honour."""


def _open(path: str, mode: str = "r"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(exc) from exc


@contextlib.contextmanager
def _output(args: argparse.Namespace):
    if getattr(args, "output", None):
        with _open(args.output, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_csv(
    args: argparse.Namespace, header: list[str], columns, comments: dict | None = None, finite: bool = False
):
    """Write one row per index of the equal-length 1-D ``columns``, one per header name.

    Beside float columns an integer column passes through float64, which is
    exact below 2**53.  With finite, a column holding NaN or inf is refused,
    by name, before the output is opened.
    """
    columns = [np.asarray(c) for c in columns]
    bad = [name for name, c in zip(header, columns) if finite and not np.isfinite(c).all()]
    if bad:
        raise ValueError(f"{', '.join(bad)} not finite: the rows would hold NaN or inf")
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.12g" for c in columns) + "\n"
    with _output(args) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, columns[0].size, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
        for key, value in (comments or {}).items():
            fh.write(f"# {key} = {_fmt(value)}\n")
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
    with _open(csv_path + ".gp", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _rounded(value, key: str, bad: list[str]):
    """value with every float rounded to 12 significant digits, for stable
    output; the dotted keys of its NaN and infinite floats are added to bad."""
    if isinstance(value, dict):
        return {k: _rounded(v, f"{key}.{k}" if key else k, bad) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v, key, bad) for v in value]
    if isinstance(value, float):
        if not math.isfinite(value):
            bad.append(key)
        return float(f"{value:.12g}")
    return value


def _write_json(args: argparse.Namespace, payload: dict) -> None:
    """Write strict JSON of the flags (the config echo) and payload, every
    float at 12 significant digits; NaN and inf are refused, by dotted key,
    before the output is opened."""
    config = {k: v for k, v in vars(args).items() if k not in ("handler", "output", "gnuplot", "ignored")}
    bad = []
    payload = _rounded({"config": config, **payload}, "", bad)
    if bad:
        raise ValueError(f"{', '.join(dict.fromkeys(bad))} not finite: JSON has no NaN or inf")
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _output(args) as fh:
        fh.write(text)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k0", type=float, default=0.0, help="parallel stiffness [N/mm]")
    sub.add_argument("--k1", type=float, required=True, help="branch stiffness [N/mm]")
    sub.add_argument("--b1", type=float, required=True, help="branch damping [N*s^alpha/mm]")
    sub.add_argument("--alpha", type=float, required=True, help="derivative order in (0,1]")
    sub.add_argument("--n", type=int, default=101, help="memory length N")
    sub.add_argument("--t", type=float, default=0.001, help="sampling period [s]")


def _add_protocol_flags(sub: argparse.ArgumentParser) -> None:  # fit's and synth's
    sub.add_argument("--f-hold", type=float, default=3.0)
    sub.add_argument("--t-hold", type=float, default=3.0)
    sub.add_argument("--f-recover", type=float, default=0.5)
    sub.add_argument("--x0", type=float, default=5.0)


def _add_output_flags(sub: argparse.ArgumentParser, plot: bool = True) -> None:
    sub.add_argument("-o", "--output", help="output path (default stdout)")
    if plot:  # bound and fit write only JSON, which has nothing to plot
        sub.add_argument("--gnuplot", action="store_true", help="also emit a .gp plot script (with -o)")


def _count(args: argparse.Namespace, name: str, upper: int) -> int:
    """An integer flag that sizes the output or the work: below 1 it would
    write no rows, above upper it would allocate past memory."""
    value = getattr(args, name)
    flag = "--" + name.replace("_", "-")
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    if value > upper:
        raise ValueError(f"{flag} must be at most {upper}, got {value}")
    return value


def _params_from(args: argparse.Namespace) -> models.FoSlsParams:
    return models.FoSlsParams(k0=getattr(args, "k0", 0.0), k1=args.k1, b1=args.b1, alpha=args.alpha)


def cmd_coeffs(args: argparse.Namespace) -> int:
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    summary = {
        "delta_p": glkernel.delta_p(kern),
        "delta_s": glkernel.delta_s(args.alpha, args.n),
        "delta_d": glkernel.delta_d(args.alpha, args.n) if args.n >= 1 else None,
        "delta_p_asymptotic": glkernel.delta_p_asymptotic(args.alpha),
    }
    if args.json:
        _write_json(args, {"coefficients": kern.coeffs.tolist(), "summary": summary})
    else:
        index = np.arange(kern.coeffs.size)
        _write_csv(args, ["index", "coefficient"], [index, kern.coeffs], comments=summary)
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    params = _params_from(args)
    grid_points = _count(args, "grid_points", _MAX_POINTS)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    with np.errstate(all="ignore"):  # an overflow gives NaN or inf, refused by _write_json
        if args.n % 2 == 1:
            result = passivity.bound_closed_form(params, kern, args.b_plant)
            extra = {"variants": passivity.bound_variants(params, kern)}
        else:
            result = passivity.max_passivity(params, kern, grid_points, args.b_plant)
            extra = {}
    _write_json(args, {**dataclasses.asdict(result), **extra})
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    steps = _count(args, "steps", _MAX_STEPS)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    with np.errstate(invalid="ignore"):  # an infinite end gives nan columns, refused below
        b1_grid = np.linspace(args.b1_min, args.b1_max, steps)
    region = passivity.region_scan(args.alpha, kern, args.b_plant, b1_grid, args.k1_max)
    _write_csv(args, ["b1", "k1_max"], [region.b1, region.k1], comments={"feasible": region.feasible})
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.what == "f" and args.form != "finite":
        raise ValueError(f"--what f has only the finite form, got --form {args.form}")
    params = _params_from(args)
    points = _count(args, "points", _MAX_POINTS)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    omegas = np.linspace(0.0, kern.nyquist, points + 1)[1:]
    with np.errstate(all="ignore"):  # an overflow gives NaN or inf, refused by _write_csv
        if args.what == "f":
            header, columns = ["omega_t", "f"], [omegas * args.t, passivity.passivity_function(params, kern, omegas)]
        else:
            if args.form == "lowfreq":
                # one row at w = 0, where ED is only defined as the limit
                es, ed = impedance.es_ed_lowfreq(params, kern)
                omegas, es, ed = [0.0], [es], [ed]
            elif args.form == "finite":
                es, ed = impedance.es_ed_finite(params, kern, omegas)
            else:
                es, ed = impedance.es_ed_asymptotic(params, omegas, kern.t_samp)
            header, columns = ["omega", args.what], [omegas, es if args.what == "es" else ed]
    _write_csv(args, header, columns, finite=True)
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


# simulate flags that act in one mode only, with their defaults: given in the
# other mode, a flag exits 3 instead of being ignored and echoed
_TRACE_FLAGS = {"k0": 0.0, "k1": 0.0, "excite": "impulse:0.01"}
_BOUNDARY_FLAGS = {"k1_lo": None, "k1_hi": None, "resolution": 0.1, "momentum": 0.02}


def cmd_simulate(args: argparse.Namespace) -> int:
    other = _TRACE_FLAGS if args.boundary else _BOUNDARY_FLAGS
    given = ["--" + name.replace("_", "-") for name in other if getattr(args, name) is not None]
    if given:
        mode = "with" if args.boundary else "without"
        raise ValueError(f"simulate {mode} --boundary takes no {', '.join(given)}")
    for name, default in {**_TRACE_FLAGS, **_BOUNDARY_FLAGS}.items():
        if getattr(args, name) is None:  # the config echo lists every flag
            setattr(args, name, default)
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
            duration=args.duration,
            momentum=args.momentum,
        )
        _write_json(args, {"k1_star": k1_star, "analytical_k1": analytical, "ratio": k1_star / analytical})
        return EXIT_OK
    if args.k1 == 0.0 and args.k0 != 0.0:
        raise ValueError(f"--k0 {args.k0} needs a rendered law, but --k1 0 renders none")
    ve = models.DiscreteVE(_params_from(args), kern) if args.k1 != 0.0 else None
    trace = simloop.simulate(plant, ve, _parse_excitation(args.excite), args.duration, args.t)
    if trace.t.size == 0:
        raise ValueError(f"duration {args.duration} s is shorter than one sample period {args.t} s")
    _write_csv(
        args,
        ["time_s", "position_mm", "velocity_mm_s", "force_n", "force_cmd_n", "energy_nmm"],
        [trace.t, trace.position, trace.velocity, trace.force, trace.force_cmd, trace.energy],
        comments={"diverged": trace.diverged},
    )
    return EXIT_OK


def _read_series_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with _open(path) as fh:
        data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: expected at least two rows of columns time_s,value")
    return data[:, 0], data[:, 1]


def cmd_fit(args: argparse.Namespace) -> int:
    experiments = []
    if args.creep:
        t, v = _read_series_csv(args.creep)
        # recovery sized from the record's sample count, not from float times
        t_samp = float(t[1] - t[0])
        hold = models.CreepProtocol(args.f_hold, args.t_hold, args.f_recover, t_recover=0.0)
        n_hold = hold.stimulus(t_samp).size
        if n_hold > t.size:
            raise ValueError(
                f"--t-hold {args.t_hold} s spans {n_hold} samples, "
                f"but the creep record has only {t.size} rows"
            )
        proto = dataclasses.replace(hold, t_recover=(t.size - n_hold) * t_samp)
        experiments.append(fitting.ExperimentData(t, v, proto))
    if args.relax:
        t, v = _read_series_csv(args.relax)
        proto = models.RelaxationProtocol(x0=args.x0, duration=float(t[-1]))
        experiments.append(fitting.ExperimentData(t, v, proto))
    if not experiments:
        raise ValueError("supply at least one of --creep/--relax")
    config = fitting.FitConfig(args.b_plant, args.max_evals)
    result = fitting.fit(experiments, args.n, config)
    _write_json(args, dataclasses.asdict(result))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_synth(args: argparse.Namespace) -> int:
    params = _params_from(args)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    if args.protocol == "creep":
        proto = models.CreepProtocol(
            f_hold=args.f_hold,
            t_hold=args.t_hold,
            f_recover=args.f_recover,
            t_recover=args.t_recover,
        )
    else:
        proto = models.RelaxationProtocol(x0=args.x0, duration=args.duration)
    exp = fitting.synth_experiment(params, kern, proto, noise_sd=args.noise, seed=args.seed)
    _write_csv(args, ["time_s", "value"], [exp.time, exp.values])
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    params = _params_from(args)
    points = _count(args, "points", _MAX_POINTS)
    kern = glkernel.build_kernel(args.alpha, args.n, args.t)
    omegas = np.linspace(0.0, kern.nyquist, points + 1)[1:]
    with np.errstate(all="ignore"):  # an overflow gives NaN or inf, refused by _write_csv
        h = models.freq_response(args.kind, params, kern, omegas)
    _write_csv(args, ["omega", "re_H", "im_H"], [omegas, h.real, h.imag], finite=True)
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
    p.add_argument("--json", action="store_true", help="JSON output (default CSV)")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_coeffs)

    p = subs.add_parser("bound", help="minimum interface damping for passivity")
    _add_model_flags(p)
    p.add_argument("--b-plant", type=float, default=None, help="available plant damping [N*s/mm]")
    p.add_argument(
        "--grid-points", type=int, default=8192,
        help="search grid points, raised to at least 4(N+1) and rounded up to a 5-smooth count",
    )
    _add_output_flags(p, plot=False)
    p.set_defaults(handler=cmd_bound)

    p = subs.add_parser("region", help="(B1, K1) admissible-region boundary at k0=0")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--b-plant", type=float, required=True)
    p.add_argument("--b1-min", type=float, required=True)
    p.add_argument("--b1-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--k1-max", type=float, default=1000.0)
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
    p.add_argument("--k0", type=float, help="trace only (default 0)")
    p.add_argument("--k1", type=float, help="trace only (default 0, which disables the rendered law)")
    p.add_argument("--b1", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--t", type=float, default=0.001)
    p.add_argument("--excite", help="trace only: impulse:J | chirp:f0,f1,span,amp | none (impulse:0.01)")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--boundary", action="store_true", help="bisect the largest stable K1 instead")
    p.add_argument("--k1-lo", type=float, help="boundary only (default 0.5x the analytical K1)")
    p.add_argument("--k1-hi", type=float, help="boundary only (default 2x the analytical K1)")
    p.add_argument("--resolution", type=float, help="boundary only (default 0.1)")
    p.add_argument("--momentum", type=float, help="boundary only: impulse momentum [N*s] (default 0.02)")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_simulate)

    p = subs.add_parser("fit", help="identify parameters from recorded series")
    p.add_argument("--creep", help="CSV time_s,value displacement record")
    p.add_argument("--relax", help="CSV time_s,value force record")
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--b-plant", type=float, default=0.0025)
    p.add_argument("--seed", "--starts", type=int, dest="ignored", metavar="N",
                   help="ignored (older command lines still run): the start comes from the records")
    p.add_argument("--max-evals", type=int, default=20000)
    _add_protocol_flags(p)
    _add_output_flags(p, plot=False)
    p.set_defaults(handler=cmd_fit)

    p = subs.add_parser("synth", help="synthesize a protocol record from parameters")
    _add_model_flags(p)
    p.add_argument("--protocol", choices=("creep", "relaxation"), required=True)
    p.add_argument("--noise", type=float, default=0.0, help="additive noise sd")
    p.add_argument("--seed", type=int, default=0)
    _add_protocol_flags(p)
    p.add_argument("--t-recover", type=float, default=3.0)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every dispatch in this process shares: building it (~100
    arguments) costs more than most parses, and parsing leaves it unchanged."""
    return build_parser()


def dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_USAGE
    try:
        if getattr(args, "n", 0) > _MAX_N:
            raise ValueError(f"--n must be at most {_MAX_N}, got {args.n}")
        # before the work, which an -o that cannot be written would waste; the
        # file itself is opened only when the output is ready
        output = getattr(args, "output", None)
        if output and not os.path.isdir(os.path.dirname(output) or "."):
            raise _UsageError(f"cannot write {output}: no directory {os.path.dirname(output)}")
        # JSON has nothing to plot: bound and fit take no --gnuplot, and these modes write JSON
        mode = next((f"--{flag}" for flag in ("json", "boundary") if getattr(args, flag, False)), None)
        if mode and getattr(args, "gnuplot", False):
            raise _UsageError(f"{args.command} {mode} writes JSON, which --gnuplot cannot plot")
        return args.handler(args)
    except _UsageError as exc:
        print(f"fovisc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"fovisc: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError:  # closed forms on Python floats raise where NumPy gives inf
        print("fovisc: error: a result overflows at these inputs", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:
        print(f"fovisc: inconsistency: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
