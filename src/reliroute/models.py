"""Parametric travel-time models discretized onto the time grid.

Continuous delay distributions are mapped to bins by rounding each outcome to
the nearest grid point: delay bin ``j`` receives the probability of the
interval ``((j - 1/2) dt, (j + 1/2) dt]``.  This keeps the discretized mean
within half a bin of the continuous mean and, crucially, keeps the free-flow
time itself reachable, so an edge's minimum travel time lands exactly at
``ceil(free_flow / dt)`` bins.

Residual mass past the cutoff quantile is folded into the last bin so every
generated PMF sums to one exactly.

CDFs and quantiles come from :mod:`scipy.special` alone, imported on first use:
importing it, let alone :mod:`scipy.stats`, costs more than the rest of the package.
"""

from __future__ import annotations

import base64
import math

import numpy as np

from .distributions import NORMALIZATION_TOL, DiscreteDistribution, _integer

#: Upper-tail probability at which generated supports are cut off.
TAIL_EPS = 1e-12


def free_flow_bins(free_flow_seconds: float, dt: float) -> int:
    """Minimum-travel-time bin for a free-flow time, rounded up to the grid."""
    if not 0 < dt < math.inf:
        raise ValueError(f"time step must be {'finite' if dt > 0 else 'positive'}, got {dt}")
    if not 0 < free_flow_seconds < math.inf:
        shape = "finite" if free_flow_seconds > 0 else "positive"
        raise ValueError(f"free-flow time must be {shape}, got {free_flow_seconds}")
    if free_flow_seconds < dt * (1.0 - 1e-9):
        raise ValueError(
            f"free-flow time {free_flow_seconds:.6g}s is below one time bin "
            f"(dt={dt:.6g}s); decrease dt so that dt <= minimum travel time"
        )
    return max(1, math.ceil(free_flow_seconds / dt - 1e-9))


def _fold_residual(pmf: np.ndarray) -> np.ndarray:
    residual = 1.0 - pmf.sum()
    pmf[-1] += residual
    return pmf


def _nonnegative(name: str, value) -> float:
    """``value`` as a finite, nonnegative ``float``; otherwise ``ValueError`` naming ``name``."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def _from_bin_zero(first_bin: int, mass) -> np.ndarray:
    # Masses that start at first_bin, as a dense array from bin 0.
    full = np.zeros(first_bin + len(mass))
    full[first_bin:] = mass
    return full


def shifted_gamma_masses(min_bins, mean_delays, cov: float, dt: float = 1.0) -> tuple[list[int], list[np.ndarray]]:
    """Gamma-distributed delays on top of deterministic minimum travel times,
    one PMF per ``(min_bins[i], mean_delays[i])`` pair, all with the
    coefficient of variation ``cov``: each PMF's first bin, and its masses
    from that bin on.

    ``mean_delays[i]`` is the expected extra time in seconds beyond
    ``min_bins[i]``.  A zero delay, or ``cov == 0``, degenerates to a point
    mass shifted by the rounded delay.  The gamma shape depends on ``cov``
    alone, so the cutoff quantile takes one ``gammaincinv`` call and every
    edge's bin midpoints one ``gammainc`` call over their concatenation; the
    gamma PMFs are views of that one array, each summing to one exactly.
    """
    min_bins, mean_delays = list(min_bins), list(mean_delays)
    if len(min_bins) != len(mean_delays):
        raise ValueError(f"got {len(min_bins)} minimum bins but {len(mean_delays)} mean delays")
    cov = _nonnegative("coefficient of variation", cov)
    firsts, masses, gamma = [], [], []
    for i, (min_bin, mean_delay) in enumerate(zip(min_bins, mean_delays)):
        min_bin = _integer(min_bin, "minimum bin")
        if min_bin < 1:
            raise ValueError("edge distributions must have their minimum travel time at bin 1 or later")
        mean_delays[i] = mean_delay = _nonnegative("mean delay", mean_delay)
        if mean_delay == 0.0 or cov == 0.0:
            # A deterministic delay still shifts the point mass.
            firsts.append(min_bin + int(round(mean_delay / dt)))
            masses.append(np.ones(1))
        else:
            firsts.append(min_bin)
            masses.append(None)
            gamma.append(i)
    if not gamma:
        return firsts, masses

    from scipy import special

    shape = 1.0 / (cov * cov)
    scale = np.array([mean_delays[i] for i in gamma]) * cov * cov
    # Equals scipy.stats.gamma.ppf(1 - TAIL_EPS, shape, scale=scale) exactly.
    quantile = special.gammaincinv(shape, 1.0 - TAIL_EPS)
    lasts = [int(math.ceil(x)) + 1 for x in (quantile * scale / dt).tolist()]
    # Edge k owns bins starts[k] .. starts[k + 1] - 1 of the concatenation,
    # its delays 0 .. lasts[k].
    sizes = np.array(lasts) + 1
    starts = np.zeros(len(gamma) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    delay = np.arange(starts[-1]) - np.repeat(starts[:-1], sizes)
    cdf = special.gammainc(shape, (delay + 0.5) * dt / np.repeat(scale, sizes))
    pmf = np.empty_like(cdf)
    pmf[1:] = np.diff(cdf)
    pmf[starts[:-1]] = cdf[starts[:-1]]
    bounds = starts.tolist()
    for k, i in enumerate(gamma):
        masses[i] = _fold_residual(pmf[bounds[k]:bounds[k + 1]])
    return firsts, masses


def shifted_gamma_pmfs(
    min_bins, mean_delays, cov: float, dt: float = 1.0
) -> list[DiscreteDistribution]:
    """:func:`shifted_gamma_masses` as one :class:`DiscreteDistribution` per pair."""
    firsts, masses = shifted_gamma_masses(min_bins, mean_delays, cov, dt=dt)
    return [DiscreteDistribution(_from_bin_zero(f, m), dt=dt) for f, m in zip(firsts, masses)]


def gaussian_mixture_pmf(
    components: list[dict], dt: float = 1.0, min_seconds: float | None = None
) -> DiscreteDistribution:
    """Discretized Gaussian mixture over absolute travel times.

    Each component is ``{"weight": w, "mean": seconds, "std": seconds}``.
    Mass below the physical floor (``min_seconds``, default one bin) is folded
    into the floor bin so the result respects the minimum-travel-time rule.
    """
    if not components:
        raise ValueError("mixture must have at least one component")
    weights = np.array([float(c["weight"]) for c in components])
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= NORMALIZATION_TOL):  # NaN fails both
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    means, stds = ([float(c[key]) for c in components] for key in ("mean", "std"))
    if not all(map(math.isfinite, means + stds)):
        raise ValueError(f"mixture component means and stds must be finite, got {means} and {stds}")
    if min(stds) <= 0:
        raise ValueError("mixture component std must be positive")
    floor = dt if min_seconds is None else float(min_seconds)
    floor_bin = free_flow_bins(floor, dt)
    last = max(floor_bin + 1, int(math.ceil(max(m + 9.0 * s for m, s in zip(means, stds)) / dt)))
    from scipy import special

    edges = (np.arange(floor_bin, last + 1) + 0.5) * dt
    cdf = np.zeros(len(edges))
    for mean, std, w in zip(means, stds, weights):
        cdf += w * special.ndtr((edges - mean) / std)
    pmf = np.empty(len(edges))
    pmf[0] = cdf[0]  # everything at or below the floor bin
    pmf[1:] = np.diff(cdf)
    return DiscreteDistribution(_from_bin_zero(floor_bin, _fold_residual(pmf)), dt=dt)


def dense_literal(mass: np.ndarray, first_bin: int, truncated_tail: float) -> dict:
    """``{"first_bin": k, "mass_f64": "<base64>"}`` for the masses ``mass``
    from bin 0 whose first nonzero bin is ``first_bin``, plus
    ``"truncated_tail"`` when nonzero: the masses from ``first_bin`` on, as
    little-endian float64 bytes, which load back bit-identically."""
    raw = mass[first_bin:].astype("<f8", copy=False).tobytes()
    literal = {"first_bin": first_bin, "mass_f64": base64.b64encode(raw).decode("ascii")}
    if truncated_tail:
        literal["truncated_tail"] = truncated_tail
    return literal


def _decode_mass_f64(text) -> np.ndarray:
    # Little-endian float64 bytes in base64: one decode, one view, no per-bin loop.
    try:
        raw = base64.b64decode(text, validate=True) if isinstance(text, str) else b""
    except ValueError as exc:
        raise ValueError(f"'mass_f64' is not valid base64: {exc}") from None
    if not raw or len(raw) % 8:
        raise ValueError(f"'mass_f64' must be base64 of one or more float64 values, got {text!r:.40}")
    return np.frombuffer(raw, "<f8")


def literal_masses(literal: dict, dt: float) -> tuple[int, np.ndarray, float]:
    """A distribution literal's first bin, its masses from that bin on and its
    truncated tail (see :func:`resolve_distribution_literal` for the forms).

    A malformed literal raises ``ValueError``.  Dense histograms are decoded
    but their values are not checked: :func:`~reliroute.network.load_graph`
    checks every edge's masses at once.  The other forms resolve to a checked
    :class:`DiscreteDistribution`, whose masses start at bin 0.
    """
    if not isinstance(literal, dict):
        raise ValueError(f"distribution literal must be an object, got {type(literal).__name__}")
    if "dt" in literal and float(literal["dt"]) != dt:
        raise ValueError(
            f"distribution dt {literal['dt']} does not match the graph time step {dt}"
        )
    found = [key for key in ("mass_f64", "mass", "pmf") if key in literal]
    model = literal.get("model", "histogram" if found else None)
    if model == "histogram":
        if len(found) != 1:
            names = " and ".join(map(repr, found)) or "none"
            raise ValueError(f"histogram literal needs exactly one of 'mass_f64', 'mass', 'pmf'; found {names}")
        if found == ["pmf"]:
            dist = DiscreteDistribution.from_pairs(literal["pmf"], dt=dt)
            return 0, dist.mass, dist.truncated_tail
        first, mass = _integer(literal.get("first_bin"), "'first_bin'"), literal.get("mass")
        if "mass_f64" in literal:
            mass = _decode_mass_f64(literal["mass_f64"])
        elif not isinstance(mass, list) or not mass:
            raise ValueError(f"'mass' must be a nonempty list of probabilities, got {mass!r:.40}")
        else:  # copied into a 1-D row, which refuses nested lists
            mass = _from_bin_zero(0, np.asarray(mass, dtype=np.float64))
        return first, mass, float(literal.get("truncated_tail", 0.0))
    if model == "shifted-gamma":
        min_bin = free_flow_bins(float(literal["shift"]), dt)
        delay, cov = float(literal.get("mean_delay", 0.0)), float(literal.get("cov", 1.0))
        firsts, masses = shifted_gamma_masses([min_bin], [delay], cov, dt=dt)
        return firsts[0], masses[0], 0.0
    if model == "discretized-gaussian-mixture":
        dist = gaussian_mixture_pmf(literal["components"], dt=dt, min_seconds=literal.get("min_seconds"))
        return 0, dist.mass, dist.truncated_tail
    raise ValueError(f"unknown distribution literal: {literal!r}")


def resolve_distribution_literal(literal: dict, dt: float) -> DiscreteDistribution:
    """Turn a distribution literal from an input file into a PMF.

    Accepted forms::

        {"first_bin": k, "mass_f64": "<base64>"}         # optionally with
        {"first_bin": k, "mass": [p_k, p_k+1, ...]}      # "truncated_tail", "dt"
        {"pmf": [[bin, prob], ...]}                      # optionally with "dt"
        {"model": "histogram", ...}                      # either form above
        {"model": "shifted-gamma", "shift": s, "mean_delay": s, "cov": c}
        {"model": "discretized-gaussian-mixture",
         "components": [{"weight": w, "mean": s, "std": s}, ...],
         "min_seconds": s}

    A histogram carries exactly one of ``"mass_f64"``, ``"mass"`` and
    ``"pmf"``.  The first two are dense: ``mass[j]`` is the probability of bin
    ``first_bin + j`` and ``truncated_tail`` (default 0) the mass past the
    last bin.  :func:`~reliroute.network.save_graph` writes
    :func:`dense_literal`'s ``mass_f64``, which decodes with one
    ``np.frombuffer``; the ``mass`` list, for hand-written documents, still
    loads.  Both go through the same :class:`DiscreteDistribution` checks.
    """
    first, mass, tail = literal_masses(literal, dt)
    return DiscreteDistribution(_from_bin_zero(first, mass), dt=dt, truncated_tail=tail)
