"""Small shared helpers."""

from __future__ import annotations

import math
from dataclasses import fields

__all__ = ["n_samples"]

_SAMPLE_RTOL = 1e-9


def n_samples(duration: float, t_samp: float) -> int:
    """Whole sample periods in a duration.

    A duration within a relative 1e-9 of a whole multiple of T counts as that
    multiple (0.7/0.001 evaluates to 699.999..., not 700); any other
    duration is floored.  A period that is not positive, a non-finite
    duration, or one spanning a non-finite number of periods, is refused.
    """
    if not t_samp > 0.0:
        raise ValueError(f"sampling period must be positive, got {t_samp}")
    q = duration / t_samp
    if not math.isfinite(q):
        raise ValueError(f"duration {duration} s at period {t_samp} s is not a finite number of samples")
    k = round(q)
    return int(k) if abs(q - k) <= _SAMPLE_RTOL * max(1.0, abs(q)) else math.floor(q)


def _check_finite(obj) -> None:
    """Refuse a dataclass with a field that is NaN or infinite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} {value} is not finite")
