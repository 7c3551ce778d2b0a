"""Resolution of the lost-edge-count thresholds of the improved algorithms."""

from __future__ import annotations

import math

from .errors import UsageError

__all__ = ["streett_threshold", "mec_threshold", "parse_threshold"]


def _resolve(value, n, auto):
    """A positive integer as is, else the named rule; `auto` is the
    caller's unrounded ``auto`` value."""
    if isinstance(value, int):
        if value < 1:
            raise UsageError("threshold must be a positive integer")
        return value
    if value == "auto":
        return max(1, math.ceil(auto))
    if value == "practical":
        return max(1, math.ceil(2 * math.log2(max(n, 2))))
    raise UsageError(f"bad threshold {value!r}")


def parse_threshold(text: str):
    """`text` as a threshold value, checked as the resolvers check it."""
    try:
        value = int(text)
    except ValueError:
        value = text
    _resolve(value, 2, 1)
    return value


def streett_threshold(value, n: int, m: int) -> int:
    """Threshold for the fairness algorithms.

    ``auto`` is ``ceil(sqrt(m / log2 n))``, the asymptotically optimal
    choice; ``practical`` is ``ceil(2 * log2 n)``, a lower value that
    favors the lock-step path on instances with few pairs.  Logarithms
    are binary and `n` is clamped to at least 2.
    """
    return _resolve(value, n, math.sqrt(m / math.log2(max(n, 2))))


def mec_threshold(value, n: int, m: int) -> int:
    """Threshold for end-component decomposition: ``auto`` is ``ceil(sqrt(m))``
    and ``practical`` is as for :func:`streett_threshold`."""
    return _resolve(value, n, math.sqrt(m))
