"""Span recorder for the traced runs, and the per-layer metrics drawn from it.

``Tracer.install`` replaces public functions of fovisc's modules with
recording wrappers at the names their callers look up (``fitting`` calls
``creep_response`` through its own module namespace, so the wrapper goes on
``fitting.creep_response``).  Each span records its name, start, end, parent
span, operation id and a work amount.  Spans stay in memory until the run
ends.  Because ``fit`` and ``region_scan`` run their work on thread pools,
each thread records into its own buffer; a span opened on a pool thread
with nothing open on that thread is parented to the innermost open span of
the thread that runs the operation.

Per-sample calls (``DiscreteVE.force_step``) are not wrapped: they are
counted from the length of each simulated trace.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np


def _size(result):
    return float(np.size(result))


def _length(result):
    return float(len(result))


def _region_columns(result):
    return float(np.size(result.b1))


def _steps(result):
    return float(np.size(result.t)), bool(result.diverged)


# (module, attribute, span name, work amount from the result): every name
# through which the workloads' code paths reach a layer
TARGETS = [
    ("fitting", "fit", "fitting.fit", None),
    ("fitting", "synth_experiment", "fitting.synth_experiment", None),
    ("fitting", "creep_response", "models.creep_response", None),
    ("fitting", "relaxation_response", "models.relaxation_response", None),
    ("fitting", "build_kernel", "glkernel.build_kernel", None),
    ("fitting", "bound_closed_form", "passivity.bound_closed_form", None),
    ("glkernel", "build_kernel", "glkernel.build_kernel", None),
    ("passivity", "_s_conj_values", "glkernel.spectrum", _size),
    ("passivity", "passivity_function", "passivity.passivity_function", None),
    ("passivity", "max_passivity", "passivity.max_passivity", None),
    ("passivity", "region_scan", "passivity.region_scan", _region_columns),
    ("impedance", "_s_conj_values", "glkernel.spectrum", _size),
    ("impedance", "sweep_points", "impedance.sweep_points", _length),
    ("simloop", "simulate", "simloop.simulate", _steps),
    ("simloop", "is_unstable", "simloop.is_unstable", None),
    ("simloop", "empirical_boundary", "simloop.empirical_boundary", None),
]


class _Buffer:
    """One thread's open-span stack and finished spans; only that thread writes it."""

    def __init__(self, index: int):
        self.base = index << 32  # span ids are unique across threads
        self.count = 0
        self.stack: list[int] = []
        # (span id, name, start, end, parent id, op id, work, flag)
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()  # guards the buffer registry
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        # Written only by the thread running the operation, read by pool
        # threads; each is a single reference, replaced whole.
        self._owner: _Buffer | None = None
        self._owner_top = -1
        self._op = -1
        self._restore: list[tuple] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, buf: _Buffer) -> tuple[int, int]:
        sid = buf.base + buf.count
        buf.count += 1
        parent = buf.stack[-1] if buf.stack else self._owner_top
        buf.stack.append(sid)
        if buf is self._owner:
            self._owner_top = sid
        return sid, parent

    def _close(self, buf: _Buffer, record: tuple) -> None:
        buf.stack.pop()
        buf.spans.append(record)
        if buf is self._owner:
            self._owner_top = buf.stack[-1] if buf.stack else -1

    def run_op(self, op_id: int, fn, *args):
        """Run one operation as a ``cli.dispatch`` span owned by this thread."""
        buf = self._buffer()
        self._owner, self._op = buf, op_id
        sid, parent = self._open(buf)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(buf, (sid, "cli.dispatch", t0, time.perf_counter(), parent, op_id, 0.0, False))
            self._owner, self._op = None, -1

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            sid, parent = self._open(buf)
            op = self._op
            t0 = time.perf_counter()
            amount, flag = 0.0, False
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = work(result)
                    if isinstance(amount, tuple):
                        amount, flag = amount
                return result
            finally:
                self._close(buf, (sid, name, t0, time.perf_counter(), parent, op, amount, flag))

        return traced

    def install(self, package) -> None:
        """Wrap every target that this version of the package still has."""
        for module_name, attr, name, work in TARGETS:
            module = getattr(package, module_name, None)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, work))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """All finished spans, sorted by id, with parents as row indexes (-1: none).

        Call once the traced operations have returned, so no thread still writes.
        """
        with self._lock:
            rec = sorted(r for buf in self._buffers for r in buf.spans)
        cols = list(zip(*rec)) if rec else [()] * 8
        names = sorted(set(cols[1]))
        ids = np.array(cols[0], dtype=np.int64)
        parent_ids = np.array(cols[4], dtype=np.int64)
        parent = np.searchsorted(ids, parent_ids)
        parent[parent_ids < 0] = -1
        return {
            "id": ids,
            "name": np.searchsorted(names, np.array(cols[1], dtype=str)).astype(np.int64),
            "start": np.array(cols[2], dtype=float),
            "end": np.array(cols[3], dtype=float),
            "parent": parent.astype(np.int64),
            "op": np.array(cols[5], dtype=np.int64),
            "work": np.array(cols[6], dtype=float),
            "flag": np.array(cols[7], dtype=bool),
            "names": np.array(names, dtype=str),
        }


def self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the part of its interval that child spans cover.

    Children on pool threads overlap each other, so coverage is the length
    of the union of the child intervals, not their sum.
    """
    dur = a["end"] - a["start"]
    cover = np.zeros(dur.size)
    has_parent = np.flatnonzero(a["parent"] >= 0)
    if has_parent.size == 0:
        return dur
    order = has_parent[np.lexsort((a["start"][has_parent], a["parent"][has_parent]))]
    parents = a["parent"][order]
    bounds = np.flatnonzero(np.diff(parents)) + 1
    for group in np.split(order, bounds):
        s, e = a["start"][group], a["end"][group]
        frontier = np.maximum.accumulate(np.concatenate(([-np.inf], e[:-1])))
        cover[a["parent"][group[0]]] += float(np.sum(np.maximum(0.0, e - np.maximum(s, frontier))))
    return dur - cover


_UNITS = {"s": "s", "self_s": "s", "wall_s": "s", "us_per_call": "us", "us_per_point": "us",
          "us_per_step": "us", "ms_per_call": "ms", "evals_per_s": "1/s", "model_reach_ratio": "ratio"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return _UNITS.get(metric.rsplit(".", 1)[-1], "count")


def layer_metrics(a: dict[str, np.ndarray], infos, rounds: int) -> dict[str, float]:
    """Per-layer metrics of a traced run; counts and seconds are per round.

    infos holds, in op-id order, what each operation's check read back
    (objective_evals for a fit).
    """
    names = list(a["names"])
    name_of = np.array(names, dtype=object)[a["name"]] if a["name"].size else np.array([], dtype=object)
    dur = a["end"] - a["start"]
    selft = self_times(a)
    parent_name = np.full(dur.size, "", dtype=object)
    has = a["parent"] >= 0
    parent_name[has] = name_of[a["parent"][has]]

    def sel(name, parent=None):
        m = name_of == name
        return m & (parent_name == parent) if parent is not None else m

    def calls(name, parent=None):
        return int(np.count_nonzero(sel(name, parent)))

    def secs(name):
        return float(np.sum(dur[sel(name)]))

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    fits = [(i, info) for i, info in enumerate(infos) if "objective_evals" in info]
    fit_ops = [i for i, _ in fits]
    evals = sum(info["objective_evals"] for _, info in fits)
    evaluated = sum(info["objective_evals"] * info["experiments"] for _, info in fits)
    forward = np.isin(name_of, ["models.creep_response", "models.relaxation_response"])
    in_fit = np.isin(a["op"], fit_ops)
    columns = float(np.sum(a["work"][sel("passivity.region_scan")]))
    sim = sel("simloop.simulate")
    steps = float(np.sum(a["work"][sim]))
    verdict_steps = float(np.sum(a["work"][sel("simloop.simulate", "simloop.empirical_boundary")]))
    points = float(np.sum(a["work"][sel("impedance.sweep_points")]))

    r = float(rounds)
    m = {
        "cli.dispatch.calls": calls("cli.dispatch") / r,
        "cli.dispatch.s": secs("cli.dispatch") / r,
        "cli.dispatch.self_s": float(np.sum(selft[sel("cli.dispatch")])) / r,
        "fitting.fit.calls": calls("fitting.fit") / r,
        "fitting.fit.s": secs("fitting.fit") / r,
        "fitting.fit.self_s": float(np.sum(selft[sel("fitting.fit")])) / r,
        "fitting.fit.objective_evals": evals / r,
        "fitting.fit.evals_per_s": ratio(evals, secs("fitting.fit")),
        "fitting.model_reach_ratio": ratio(np.count_nonzero(forward & in_fit), evaluated),
        "fitting.synth_experiment.calls": calls("fitting.synth_experiment") / r,
        "fitting.synth_experiment.s": secs("fitting.synth_experiment") / r,
    }
    for fn in ("creep_response", "relaxation_response"):
        name = f"models.{fn}"
        m[f"{name}.calls"] = calls(name) / r
        m[f"{name}.s"] = secs(name) / r
        m[f"{name}.us_per_call"] = 1e6 * ratio(secs(name), calls(name))
    m.update({
        "glkernel.build_kernel.calls": calls("glkernel.build_kernel") / r,
        "glkernel.build_kernel.s": secs("glkernel.build_kernel") / r,
        "glkernel.spectrum.calls": calls("glkernel.spectrum") / r,
        "glkernel.spectrum.points": float(np.sum(a["work"][sel("glkernel.spectrum")])) / r,
        "glkernel.spectrum.s": secs("glkernel.spectrum") / r,
        "passivity.bound_closed_form.calls": calls("passivity.bound_closed_form") / r,
        "passivity.bound_closed_form.s": secs("passivity.bound_closed_form") / r,
        "passivity.max_passivity.calls": calls("passivity.max_passivity") / r,
        "passivity.max_passivity.s": secs("passivity.max_passivity") / r,
        "passivity.max_passivity.ms_per_call": 1e3 * ratio(secs("passivity.max_passivity"), calls("passivity.max_passivity")),
        "passivity.max_passivity.calls_per_column": ratio(calls("passivity.max_passivity", "passivity.region_scan"), columns),
        "passivity.region_scan.columns": columns / r,
        "passivity.region_scan.s": secs("passivity.region_scan") / r,
        "passivity.passivity_function.calls": calls("passivity.passivity_function") / r,
        "passivity.passivity_function.s": secs("passivity.passivity_function") / r,
        "impedance.sweep_points.points": points / r,
        "impedance.sweep_points.s": secs("impedance.sweep_points") / r,
        "impedance.sweep_points.us_per_point": 1e6 * ratio(secs("impedance.sweep_points"), points),
        "simloop.simulate.calls": calls("simloop.simulate") / r,
        "simloop.simulate.steps": steps / r,
        "simloop.simulate.s": secs("simloop.simulate") / r,
        "simloop.simulate.us_per_step": 1e6 * ratio(secs("simloop.simulate"), steps),
        "simloop.simulate.diverged_runs": float(np.count_nonzero(a["flag"] & sim)) / r,
        "simloop.is_unstable.calls": calls("simloop.is_unstable") / r,
        "simloop.is_unstable.s": secs("simloop.is_unstable") / r,
        "simloop.empirical_boundary.calls": calls("simloop.empirical_boundary") / r,
        "simloop.empirical_boundary.s": secs("simloop.empirical_boundary") / r,
        "simloop.steps_per_verdict": ratio(verdict_steps, calls("simloop.is_unstable")),
        "trace.spans": dur.size / r,
    })
    return m
