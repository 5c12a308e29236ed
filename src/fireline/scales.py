"""Characteristic scales, regime classification, and trajectory metrics.

For ignition intensity lam in (0,1) and propagation rate pi > 0 the package
works with the derived scales

    a     = log(1/lam)        macroscopic time unit (raw time / a)
    n     = floor(1/(lam*a))  macroscopic length unit (sites / n)
    m     = floor(1/(lam*a^2))  occupation-density window half-width
    eps   = 1/a^3             generic error scale
    ratio = n/(a*pi)          front-crossing time of a unit macro length
    zeta  = log(pi)/log(1/lam)

and classifies (lam, pi) as fast, intermediate, or slow according to ratio.
This module also provides the interval metric delta, the trajectory metric
d_T (integral of value gap plus delta), and slope-p cone membership tests
that state the paths of the limit fronts; no engine calls them (the LFFP(p)
engine in limits.py computes its crossings directly).

All floors are computed from IEEE double evaluations (about 15.9
significant digits, comfortably above the 12 the contracts require).
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

# Regime thresholds and defaults; single source of truth for the package.
FAST_THRESHOLD = 0.05
SLOW_THRESHOLD = 20.0
FAST_RATIO_DEFAULT = 0.01
CONE_TOL = 1e-9
DEFAULT_GRID_POINTS = 512

Interval = Optional[Tuple[float, float]]


@dataclass(frozen=True)
class Scales:
    """Derived scales for one (lam, pi) pair.

    in_asymptotic_range is False when lam is too close to 1 for the scales
    to mean anything (a <= 1 or m < 1); such values are accepted anyway.
    """

    lam: float
    pi: float
    a: float
    n: int
    m: int
    eps: float
    ratio: float
    zeta: float
    in_asymptotic_range: bool


@dataclass(frozen=True)
class Regime:
    """Asymptotic regime tag: fast, intermediate(p), or slow(z0)."""

    kind: str
    p: Optional[float] = None
    z0: Optional[float] = None

    @staticmethod
    def fast() -> "Regime":
        return Regime("fast")

    @staticmethod
    def intermediate(p: float) -> "Regime":
        if not p > 0.0:
            raise ValueError(f"intermediate regime needs p > 0, got {p}")
        return Regime("intermediate", p=p)

    @staticmethod
    def slow(z0: float) -> "Regime":
        if not 0.0 <= z0 <= 1.0:
            raise ValueError(f"slow regime needs z0 in [0, 1], got {z0}")
        return Regime("slow", z0=z0)


def _check_lambda(lam: float) -> None:
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    if 1.0 / lam == math.inf:  # a = log(1/lam) would scale every time to inf
        raise ValueError(f"lam={lam} is too small: 1/lam overflows a float")


def compute_scales(lam: float, pi: float) -> Scales:
    """All derived scales for (lam, pi)."""
    _check_lambda(lam)
    if not 0.0 < pi < math.inf:
        raise ValueError(f"pi must be positive and finite, got {pi}")
    a = math.log(1.0 / lam)
    n = math.floor(1.0 / (lam * a))
    m = math.floor(1.0 / (lam * a * a))
    eps = 1.0 / a**3
    ratio = n / (a * pi)
    zeta = math.log(pi) / a
    return Scales(
        lam=lam,
        pi=pi,
        a=a,
        n=n,
        m=m,
        eps=eps,
        ratio=ratio,
        zeta=zeta,
        in_asymptotic_range=(a > 1.0 and m >= 1),
    )


def pi_for_regime(lam: float, target: Regime) -> float:
    """The pi that realizes a target regime exactly at this lam.

    intermediate(p): ratio == p, i.e. pi = n/(a*p).
    slow(z0):        pi = lam^-z0.
    fast:            ratio == FAST_RATIO_DEFAULT.
    """
    _check_lambda(lam)
    a = math.log(1.0 / lam)
    n = math.floor(1.0 / (lam * a))
    if target.kind == "intermediate":
        pi = n / (a * target.p)
    elif target.kind == "slow":
        pi = lam ** (-target.z0)
    elif target.kind == "fast":
        pi = n / (a * FAST_RATIO_DEFAULT)
    else:
        raise ValueError(f"unknown regime kind {target.kind!r}")
    if pi < 1.0:
        raise ValueError(
            f"regime {target.kind} at lam={lam} needs pi={pi} < 1, outside the model range"
        )
    return pi


def classify_regime(lam: float, pi: float) -> Tuple[Regime, float, float]:
    """Classify (lam, pi) by ratio; returns (regime, ratio, zeta).

    ratio below FAST_THRESHOLD is fast, above SLOW_THRESHOLD is slow with
    z0 = zeta clamped to [0, 1], anything between is intermediate(ratio).
    """
    s = compute_scales(lam, pi)
    if s.ratio < FAST_THRESHOLD:
        regime = Regime.fast()
    elif s.ratio > SLOW_THRESHOLD:
        regime = Regime.slow(min(1.0, max(0.0, s.zeta)))
    else:
        regime = Regime.intermediate(s.ratio)
    return regime, s.ratio, s.zeta


def kappa0(lam: float, pi: float) -> float:
    """Time for a fire to cross the density window: m/(a*pi) + eps."""
    s = compute_scales(lam, pi)
    return s.m / (s.a * pi) + s.eps


def kappa_z(lam: float, pi: float, z: float) -> float:
    """Time for a fire to cross lam^-z sites: 1/(lam^z * a * pi) + eps."""
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in (0, 1), got {z}")
    s = compute_scales(lam, pi)
    return 1.0 / (lam**z * s.a * pi) + s.eps


def varkappa_A(lam: float, pi: float, A: float) -> float:
    """Time for a fire to cross a macroscopic length A: n*A/(a*pi) + eps."""
    if not A > 0.0:
        raise ValueError(f"A must be positive, got {A}")
    s = compute_scales(lam, pi)
    return s.n * A / (s.a * pi) + s.eps


def m_gamma(lam: float, gamma: float, z0: float) -> int:
    """Window half-width floor(gamma / (lam^(gamma+(1-gamma)*z0) * a))."""
    _check_lambda(lam)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 <= z0 <= 1.0:
        raise ValueError(f"z0 must lie in [0, 1], got {z0}")
    a = math.log(1.0 / lam)
    return math.floor(gamma / (lam ** (gamma + (1.0 - gamma) * z0) * a))


# ---------------------------------------------------------------------------
# interval and trajectory metrics


def delta_interval(i: Interval, j: Interval) -> float:
    """Distance between closed intervals; an absent interval costs the other's length.

    delta([a,b],[c,d]) = |a-c| + |b-d|; delta([a,b], empty) = b - a;
    delta(empty, empty) = 0.  Represent empty as None.
    """
    if i is None and j is None:
        return 0.0
    if i is None:
        return j[1] - j[0]
    if j is None:
        return i[1] - i[0]
    return abs(i[0] - j[0]) + abs(i[1] - j[1])


@dataclass
class Trajectory:
    """A sampled path t -> (value, interval) on a strictly increasing grid."""

    times: np.ndarray
    values: np.ndarray
    intervals: List[Interval]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("grid must be one-dimensional with at least two points")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if len(self.values) != len(self.times) or len(self.intervals) != len(self.times):
            raise ValueError("values and intervals must match the grid length")


def _check_same_grid(t1: Trajectory, t2: Trajectory) -> np.ndarray:
    if len(t1.times) != len(t2.times) or not np.array_equal(t1.times, t2.times):
        raise ValueError("trajectories are sampled on different grids")
    return t1.times


def _interval_gaps(t1: Trajectory, t2: Trajectory) -> np.ndarray:
    """delta(interval, interval) at each grid point."""
    return np.fromiter(map(delta_interval, t1.intervals, t2.intervals), float, len(t1.times))


def _left_riemann(times: np.ndarray, *terms: np.ndarray) -> float:
    """Left-Riemann sum over the grid of the sum of the per-point terms.

    The products term[k] * step_k are added to 0.0 one at a time, grid
    point by grid point and term by term within a point: np.add.accumulate
    adds in sequence (np.sum would add pairwise), so the total has the bits
    of the plain loop."""
    steps = np.diff(times)
    products = np.stack([term[:-1] * steps for term in terms], axis=1).ravel()
    return np.add.accumulate(np.concatenate(([0.0], products)))[-1]


def delta_T(t1: Trajectory, t2: Trajectory) -> float:
    """Left-Riemann integral of delta(interval, interval) over the shared grid."""
    return _left_riemann(_check_same_grid(t1, t2), _interval_gaps(t1, t2))


def d_T(t1: Trajectory, t2: Trajectory) -> float:
    """Left-Riemann integral of |value gap| + delta(interval gap) over the grid."""
    times = _check_same_grid(t1, t2)
    return _left_riemann(times, np.abs(t1.values - t2.values), _interval_gaps(t1, t2))


def uniform_grid(T: float, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Evenly spaced grid on [0, T] with the package's default resolution.
    Raises ValueError when T is too small for `points` distinct times."""
    if not 0.0 < T < math.inf or points < 2:
        raise ValueError(
            f"need 0 < T < inf and at least two grid points, got T={T}, points={points}"
        )
    grid = np.linspace(0.0, T, points)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(f"T={T} is too small for {points} distinct grid times")
    return grid


# ---------------------------------------------------------------------------
# slope-p cones


def cone_contains(
    p: float,
    apex: Tuple[float, float],
    query: Tuple[float, float],
    direction: str = "past",
    tol: float = CONE_TOL,
) -> bool:
    """Whether query=(y,s) lies on the boundary cone of apex=(x,t).

    The past cone of (x,t) holds points with s = t - p|y-x|, the future cone
    those with s = t + p|y-x|.  With p = 0 both degenerate to the horizontal
    line s = t.
    """
    if p < 0.0:
        raise ValueError(f"p must be nonnegative, got {p}")
    x, t = apex
    y, s = query
    if s < -tol:
        return False  # the processes live on nonnegative times
    if direction == "past":
        return abs(s - (t - p * abs(y - x))) <= tol
    if direction == "future":
        return abs(s - (t + p * abs(y - x))) <= tol
    raise ValueError(f"direction must be 'past' or 'future', got {direction!r}")


def cone_segment_contains(
    p: float,
    apex: Tuple[float, float],
    endpoint: Tuple[float, float],
    query: Tuple[float, float],
    tol: float = CONE_TOL,
) -> bool:
    """Whether query lies on the cone segment joining endpoint to apex.

    endpoint must sit on the past cone of apex; the segment is the straight
    piece of that cone between the two, the path a fire lit at endpoint
    follows to reach apex.
    """
    if not cone_contains(p, apex, endpoint, "past", tol):
        raise ValueError("endpoint does not lie on the apex's past cone")
    x, t = apex
    y, s = query
    xe, _ = endpoint
    lo, hi = (xe, x) if xe <= x else (x, xe)
    if y < lo - tol or y > hi + tol:
        return False
    return cone_contains(p, apex, (y, s), "past", tol)
