"""Small shared helpers."""

from __future__ import annotations

import math
import os

__all__ = ["n_samples", "worker_count"]

_SAMPLE_RTOL = 1e-9


def n_samples(duration: float, t_samp: float) -> int:
    """Whole sample periods in a duration.

    A duration within a relative 1e-9 of a whole multiple of T counts as that
    multiple (0.7/0.001 evaluates to 699.999..., not 700); any other
    duration is floored.  A non-finite duration, or one spanning a
    non-finite number of periods, is refused.
    """
    q = duration / t_samp
    if not math.isfinite(q):
        raise ValueError(f"duration {duration} s at period {t_samp} s is not a finite number of samples")
    k = round(q)
    return int(k) if abs(q - k) <= _SAMPLE_RTOL * max(1.0, abs(q)) else math.floor(q)


def worker_count(n_tasks: int) -> int:
    """Worker cap for fit's multi-start pool.

    FOVISC_THREADS limits the pool size; otherwise the CPU count does.
    """
    env = os.environ.get("FOVISC_THREADS", "").strip()
    if env:
        try:
            limit = int(env)
        except ValueError as exc:
            raise ValueError(f"FOVISC_THREADS must be an integer, got {env!r}") from exc
        if limit < 1:
            raise ValueError(f"FOVISC_THREADS must be >= 1, got {limit}")
    else:
        limit = os.cpu_count() or 1
    return max(1, min(int(n_tasks), limit))
