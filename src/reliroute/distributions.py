"""Probability mass functions for travel times on a uniform time grid.

Time is discretized into bins of ``dt`` seconds.  A :class:`DiscreteDistribution`
stores a dense array ``mass`` where ``mass[k]`` is the probability that the
travel time equals ``k * dt``.  Dense storage (rather than sparse pairs) keeps
the inner loops of the dynamic program and of path evaluation predictable,
since those loops touch nearly every bin anyway.

Probability that would fall at or beyond a convolution cap is never silently
dropped: it is accumulated into ``truncated_tail`` so total mass remains
auditable.  The tail's exact bin positions are not recorded, only that they
lie past the stored support.

Instances are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Slack allowed when checking that probabilities sum to one.
NORMALIZATION_TOL = 1e-9

#: Slack within which two probabilities count as equal: the policy solver's
#: tie tolerance between edges, and the rounding slack of the mass, percentile
#: and path-mode potential checks.
EXACT_TOL = 1e-12


def _immutable(self, *args):
    # __setattr__ and __delattr__ of the immutable types, once they are built.
    raise AttributeError(f"{type(self).__name__} is immutable")


def _integer(value, name: str, least: int = 0, bound: tuple[str, int] | None = None) -> int:
    """``value`` as an ``int`` if it is an integer (numpy integers included,
    booleans not) of at least ``least`` and, given ``bound = (bound_name,
    most)``, at most ``most``; otherwise ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < least:
        shape = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {shape}, got {value}")
    if bound is not None and value > bound[1]:
        raise ValueError(f"{name} {value} exceeds {bound[0]} {bound[1]}")
    return value


class DiscreteDistribution:
    """An immutable PMF on integer time bins.

    Parameters
    ----------
    mass:
        Probability per bin, indexed from bin 0.  Trailing zero bins are
        trimmed; leading zeros are kept because bin indices are absolute.
    dt:
        Bin width in seconds.
    truncated_tail:
        Probability mass known to lie at bins past ``len(mass)`` (produced by
        capped convolutions).  ``sum(mass) + truncated_tail`` must be 1 within
        ``NORMALIZATION_TOL``.

    ``total_mass`` is ``sum(mass)``, the stored mass without the truncated
    tail, summed once at construction.
    """

    __slots__ = ("dt", "mass", "truncated_tail", "total_mass", "min_bin")

    def __init__(self, mass, dt: float = 1.0, truncated_tail: float = 0.0):
        arr = np.array(mass, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("mass must be a 1-D array of probabilities per bin")
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be {'finite' if dt > 0 else 'positive'}, got {dt}")
        if not (math.isfinite(truncated_tail) and truncated_tail >= -EXACT_TOL):
            raise ValueError(f"truncated_tail must be finite and nonnegative, got {truncated_tail}")
        # min and max propagate NaN, so together they see every non-finite value.
        lowest, highest = float(arr.min(initial=0.0)), float(arr.max(initial=0.0))
        if not (math.isfinite(lowest) and math.isfinite(highest)):
            raise ValueError("probability mass must be finite; NaN or infinity in mass array")
        if lowest < -EXACT_TOL:
            raise ValueError(f"negative probability {lowest} in mass array")
        if lowest < 0.0:
            np.clip(arr, 0.0, None, out=arr)
        nonzero = arr.nonzero()[0]
        arr = arr[: int(nonzero[-1]) + 1] if nonzero.size else arr[:0]

        tail, stored = max(float(truncated_tail), 0.0), float(arr.sum())
        total = stored + tail
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"probability mass sums to {total!r}; expected 1 within {NORMALIZATION_TOL} "
                "(including any truncated tail)"
            )

        arr.setflags(write=False)
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "mass", arr)
        object.__setattr__(self, "truncated_tail", tail)
        object.__setattr__(self, "total_mass", stored)
        object.__setattr__(self, "min_bin", int(nonzero[0]) if nonzero.size else None)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # Unpickling and copying run the constructor and its checks.
        return DiscreteDistribution, (self.mass, self.dt, self.truncated_tail)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence], dt: float = 1.0) -> "DiscreteDistribution":
        """Build from ``[(bin, probability), ...]`` pairs.

        Bins must be nonnegative integers and must not repeat.
        """
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty PMF")
        bins = [_integer(k, "bin index") for k, _ in pairs]
        if len(set(bins)) != len(bins):
            raise ValueError("duplicate bin index in PMF pairs")
        arr = np.zeros(max(bins) + 1, dtype=np.float64)
        for (_, p), b in zip(pairs, bins):
            arr[b] = float(p)
        return cls(arr, dt=dt)

    @classmethod
    def point_mass(cls, at_bin: int, dt: float = 1.0) -> "DiscreteDistribution":
        """A deterministic travel time of exactly ``at_bin`` bins."""
        at_bin = _integer(at_bin, "bin index")
        arr = np.zeros(at_bin + 1, dtype=np.float64)
        arr[at_bin] = 1.0
        return cls(arr, dt=dt)

    # -- basic queries -----------------------------------------------------

    @property
    def support_end(self) -> int:
        """One past the last stored bin."""
        return len(self.mass)

    def cdf_array(self) -> np.ndarray:
        """Cumulative mass per bin, clamped into [0, 1], computed on each call."""
        return np.minimum(np.cumsum(self.mass), 1.0)

    def cdf(self, t: int) -> float:
        """P(travel time <= t bins), ``t`` a nonnegative integer.  The
        truncated tail never counts: its bins are only known to lie past the
        stored support."""
        t = _integer(t, "bin index")
        c = self.cdf_array()
        if len(c) == 0:
            return 0.0
        return float(c[min(t, len(c) - 1)])

    def percentile(self, p: float) -> int:
        """Smallest bin ``t`` with ``cdf(t) >= p`` (up to EXACT_TOL slack)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile fraction must lie in [0, 1], got {p}")
        c = self.cdf_array()
        idx = int(np.searchsorted(c, p - EXACT_TOL, side="left"))
        if idx >= len(c):
            raise ValueError(f"probability mass never reaches {p} within the stored support")
        return idx

    def mean(self) -> float:
        """Expected travel time in seconds.

        Undefined when mass was truncated away, since the tail's position is
        unknown.
        """
        if self.truncated_tail > NORMALIZATION_TOL:
            raise ValueError("mean is undefined for a truncated distribution")
        return float(np.dot(np.arange(len(self.mass)), self.mass)) * self.dt

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}:{self.mass[k]:.6g}" for k in np.nonzero(self.mass)[0][:8])
        more = "..." if np.count_nonzero(self.mass) > 8 else ""
        tail = f", tail={self.truncated_tail:.3g}" if self.truncated_tail > 0 else ""
        return f"DiscreteDistribution(dt={self.dt}, {{{pairs}{more}}}{tail})"


def convolve(a: DiscreteDistribution, b: DiscreteDistribution, cap: int | None = None) -> DiscreteDistribution:
    """Distribution of the sum of two independent travel times.

    ``result[k] = sum_j a[j] * b[k - j]`` for ``k < cap``; mass at or past
    ``cap`` is accumulated into the result's truncated tail.  Bookkeeping is
    exact: the result's total (stored + tail) equals ``total(a) * total(b)``.
    """
    if a.dt != b.dt:
        raise ValueError(f"time-step mismatch: {a.dt} vs {b.dt}")
    if cap is not None:
        cap = _integer(cap, "cap", 1)
    full, tail = _convolved(a.mass, a.total_mass + a.truncated_tail, b.mass, b.total_mass + b.truncated_tail, cap)
    return DiscreteDistribution(full, dt=a.dt, truncated_tail=tail)


def _convolved(a, a_whole, b, b_whole, cap):
    """The masses below ``cap`` of the sum of two independent travel times,
    with masses ``a`` and ``b`` and totals, tails included, ``a_whole`` and
    ``b_whole``; and the truncated tail, what the product of the totals
    leaves beyond those masses."""
    full = (np.convolve(a, b) if len(a) and len(b) else np.zeros(0))[:cap]
    return full, max(a_whole * b_whole - float(full.sum()), 0.0)

