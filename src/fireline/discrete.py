"""Finite-box forest-fire chain and the pure propagation process.

DiscreteFFP wraps the event engine in lattice coordinates: sites are the
integers in [-A_sites, A_sites] with permanently vacant ghosts outside,
macroscopic time t corresponds to raw clock time a*t, and macroscopic
space x to site floor(n*x).  Observables follow the rescaled conventions:
the cluster through x, its macroscopic extent D, the occupied fraction K
in a window of half-width m, and the logarithmic sizes Z and W.

run_propagation drives the one-fire variant: every site occupied, the
center burning, no matches, raw time.  Starting with a fire is what makes
the engine record front advance times, sparks (burning sites away from
the fronts), and the per-site vacancy-window indicators behind each front.
"""

import math
from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional, Sequence, Tuple

import numpy as np

# the box cap: checked here where flooring a box size could overflow, and
# in make_engine's words before an engine is built
from .engine import MEMORY_CAP_SITES, ResourceLimitError, check_box_sites, make_engine
from .rng import Mark
from .scales import Scales, compute_scales

STATE_VACANT, STATE_OCCUPIED, STATE_BURNING = 0, 1, 2


@dataclass(slots=True)
class ClusterObservables:
    """Observables at one space-time point, as a slotted, mutable dataclass
    (a frozen one costs several times as much to build).

    cluster: occupied interval through the queried site (lattice indices),
      or None when that site is not occupied.
    D: the cluster rescaled by n, as a macroscopic interval, or None.
    size: number of sites in the cluster (0 when empty).
    K: occupied fraction in the window of half-width m around the site,
      clipped at the box edge.
    Z: min(-log(1-K)/log(1/lambda), 1), the window occupancy on log scale.
    W: min(log(size)/log(1/lambda), 1), the cluster size on log scale.
    """

    cluster: Optional[Tuple[int, int]]
    D: Optional[Tuple[float, float]]
    size: int
    K: float
    Z: float
    W: float


def match_schedule_from_marks(
    marks: Sequence[Mark], scales: Scales, a_sites: int
) -> List[Tuple[float, int]]:
    """Map macroscopic marks (x, t) to the (t, site) pairs of an injected schedule.

    A mark at x lands on site floor(n*x); its time stays macroscopic (the
    wrapper converts to raw time on injection).  Marks on [-A, A] whose
    site is -a_sites-1 fall in the sliver between -A and the first site:
    they hit a permanently vacant ghost, have no effect, and are dropped.
    Marks anywhere else outside the box are rejected.
    """
    schedule: List[Tuple[float, int]] = []
    for mark in marks:
        site = math.floor(scales.n * mark.x)
        if site == -a_sites - 1:
            continue
        if abs(site) > a_sites:
            raise ValueError(f"mark at x={mark.x} maps to site {site}, outside the box")
        schedule.append((mark.t, site))
    return schedule


def discrete_box(lam: float, pi: float, A: float) -> Tuple[Scales, int]:
    """The scales of (lam, pi) and the half-width floor(A * n) in sites of
    DiscreteFFP's box, after its refusals: an A that is not positive and
    finite, bad lam or pi (compute_scales), and a box past the cap."""
    if not 0.0 < A < math.inf:
        raise ValueError(f"A must be positive and finite, got {A}")
    scales = compute_scales(lam, pi)
    span = A * scales.n  # the half-width in sites, before flooring
    if span > MEMORY_CAP_SITES:  # an infinite one would not floor
        raise ResourceLimitError(
            f"box of half-width {span:g} sites exceeds the cap of {MEMORY_CAP_SITES}"
        )
    a_sites = math.floor(span)
    check_box_sites(2 * a_sites + 1)
    return scales, a_sites


def advance_refusal(t: float, now: float) -> ValueError:
    """DiscreteFFP.advance_to's error for a target t it cannot reach from
    macroscopic time now."""
    return ValueError(f"cannot advance to t={t}: need now={now} <= t < inf")


class DiscreteFFP:
    """Forest-fire chain on the box [-A_sites, A_sites], A_sites = floor(A*n).

    injected_matches selects how matches arrive: None (the default) gives
    every site a rate-lambda match clock; a sequence of (t_macro, site)
    pairs gives exactly those matches and no others, so an empty one gives
    none.  Seeds always run at rate 1 and burning sites always extinguish
    at rate pi.
    """

    def __init__(
        self,
        lam: float,
        pi: float,
        A: float,
        seed: int,
        *,
        stream_id: int = 0,
        injected_matches: Optional[Sequence[Tuple[float, int]]] = None,
        initial: str = "vacant",
        engine: str = "auto",
    ):
        self.scales, self.a_sites = discrete_box(lam, pi, A)
        if initial not in ("vacant", "occupied"):
            raise ValueError('initial must be "vacant" or "occupied"')

        self.lam = lam
        self.pi = pi
        self.A = A
        self.seed = seed
        self.stream_id = stream_id
        self.n_sites = 2 * self.a_sites + 1

        a = self.scales.a
        schedule = () if injected_matches is None else injected_matches
        inj_t = [a * t for t, _ in schedule]
        inj_s = [s + self.a_sites for _, s in schedule]
        for (_, s), idx in zip(schedule, inj_s):  # make_engine checks the times
            if not 0 <= idx < self.n_sites:
                raise ValueError(f"injected match at site {s} is outside the box")

        self._eng = make_engine(
            self.n_sites,
            pi,
            lam if injected_matches is None else 0.0,
            seed,
            stream_id,
            initial_occupied=(initial == "occupied"),
            injected_t=inj_t,
            injected_site=inj_s,
            force=engine,
        )

    # -- time bookkeeping ----------------------------------------------------

    @property
    def now_raw(self) -> float:
        return self._eng.now

    @property
    def now(self) -> float:
        """Current macroscopic time."""
        return self._eng.now / self.scales.a

    @property
    def event_count(self) -> int:
        """Events the engine processed so far: every match and extinguish,
        and the seed rings that occupied a vacant site.  A seed clock is
        queued only while its site is vacant, so rings on occupied or
        burning sites are never processed and not counted."""
        return self._eng.event_count

    def advance_to(self, t: float) -> None:
        """Run the chain up to macroscopic time t.

        The target is compared in raw time, as the engine compares it, so
        advancing again to the current time t is always accepted (now,
        which is raw time / a, can exceed t by an ulp).  The engine checks
        the target; its refusal is reported in macroscopic time."""
        try:
            self._eng.advance_to(self.scales.a * t)
        except ValueError:
            raise advance_refusal(t, self.now) from None

    # -- state access ---------------------------------------------------------

    def states(self) -> bytes:
        """State bytes for sites -A_sites..A_sites, left to right."""
        return self._eng.state_view()

    def burned_bounds(self) -> Optional[Tuple[int, int]]:
        """Lattice interval touched by ignitions since the last reset."""
        if self._eng.burn_hi < self._eng.burn_lo:
            return None
        return (self._eng.burn_lo - self.a_sites, self._eng.burn_hi - self.a_sites)

    def matches(self) -> List[Tuple[float, int, bool]]:
        """Processed match events as (t_macro, lattice site, had an effect)."""
        a = self.scales.a
        log = np.asarray(self._eng.match_log, dtype=np.float64).reshape(-1, 3)
        return [(t / a, int(s) - self.a_sites, e != 0.0) for t, s, e in log.tolist()]

    # -- observables -----------------------------------------------------------

    def observables(self, x: float) -> ClusterObservables:
        """Cluster and window observables at macroscopic position x."""
        sc = self.scales
        n, a, m = sc.n, sc.a, sc.m
        a_sites = self.a_sites
        site0 = math.floor(n * x)
        if not -a_sites <= site0 <= a_sites:
            raise ValueError(f"x={x} maps to site {site0}, outside the box")
        idx = site0 + a_sites
        lo, hi, occ = self._eng.observe(idx, m)

        if lo >= 0:
            cluster = (lo - a_sites, hi - a_sites)
            size = hi - lo + 1
            d = (cluster[0] / n, cluster[1] / n)
            w = math.log(size) / a
            if w > 1.0:
                w = 1.0
        else:
            cluster = None
            size = 0
            d = None
            w = 0.0

        wlo = idx - m if idx > m else 0
        whi = idx + m if idx + m < self.n_sites else self.n_sites - 1
        k = occ / (whi - wlo + 1)
        if k >= 1.0:
            z = 1.0
        else:
            z = -math.log1p(-k) / a
            if z > 1.0:
                z = 1.0
        # positional: keyword arguments double the cost of the build
        return ClusterObservables(cluster, d, size, k, z, w)

    def sample(self, grid: Sequence[float]) -> List[ClusterObservables]:
        """Advance through the grid, reading the observables at the origin
        at each time.  A grid that advance_to would refuse at some point (a
        non-finite time, a time before the one before it, or a first time
        before now, compared in raw time) is refused before anything runs."""
        times = np.asarray(grid, dtype=float)
        with np.errstate(over="ignore"):  # an overflow to inf is refused below
            raw = self.scales.a * times
        if raw.size and not (
            np.isfinite(raw).all() and raw[0] >= self.now_raw and (raw[1:] >= raw[:-1]).all()
        ):
            raise ValueError(
                f"cannot sample the grid: need finite times, nondecreasing from now={self.now}"
            )
        advance_to, observables = self.advance_to, self.observables
        out = []
        for t in times.tolist():
            advance_to(t)
            out.append(observables(0.0))
        return out

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Run-length-encoded state snapshot with full parameters."""
        runs = [[sum(1 for _ in g), b] for b, g in groupby(self._eng.state_view())]
        return {
            "schema": "ffp-snapshot/1",
            "lambda": self.lam,
            "pi": self.pi,
            "A": self.A,
            "seed": self.seed,
            "stream": self.stream_id,
            "t_macro": self.now,
            "t_raw": self.now_raw,
            "encoding": "rle",
            "states": runs,
        }


# -- propagation process -------------------------------------------------------


def suggested_radius(pi: float, horizon: float) -> int:
    """Box half-width so the fronts stay inside with large margin.

    Each front advances like a Poisson process of rate pi, so pi*horizon
    plus ten standard deviations is comfortably past any realistic run.
    Raises ResourceLimitError when that box exceeds MEMORY_CAP_SITES, before
    an infinite mean reaches math.ceil.
    """
    mean = pi * horizon
    if not mean <= MEMORY_CAP_SITES:
        raise ResourceLimitError(
            f"a front travels about pi * horizon = {mean:g} sites, past the box cap of "
            f"{MEMORY_CAP_SITES}"
        )
    return math.ceil(mean + 10.0 * math.sqrt(mean)) + 10


@dataclass
class PropagationRun:
    """One realization of the propagation process.

    Fronts start at the center (offset 0).  The k-th entry of times_plus is
    the raw time the right front reached offset k; mirrored for times_minus.
    Every site is first ignited by a front advance, so times_plus[k-1] and
    times_minus[k-1] are also the first burn times of offsets +k and -k,
    and the sites ever burned are exactly the offsets
    -len(times_minus)..len(times_plus).  truncated says that a front
    reached the box edge.  spark_log has a float64 row (offset, ignite time,
    extinguish time) per ignition away from a front tip: an (n, 3) array.
    omega_right and omega_left hold one indicator per closed vacancy window:
    True when no seed landed on the site between the two successive front
    extinctions bracketing the window.

    event_count is the number of events the engine processed: extinguishes
    and the seed rings that re-occupied a vacant site.  Seed clocks are
    lazy (a site keeps one queued only while vacant), so a ring on an
    occupied or burning site is no event.  seed_rings_skipped counts the
    seed chain points stepped over when a site turned vacant, that is the
    rings its fire covered.  Rings still ahead of occupied sites, which no
    walk has reached (for example on the sites no fire touched), are not
    counted.
    """

    pi: float
    horizon: float
    radius: int
    seed: int
    stream_id: int
    times_plus: np.ndarray
    times_minus: np.ndarray
    spark_log: np.ndarray
    omega_right: np.ndarray
    omega_left: np.ndarray
    event_count: int = 0
    seed_rings_skipped: int = 0

    @property
    def truncated(self) -> bool:
        return len(self.times_plus) == self.radius or len(self.times_minus) == self.radius

    def front_position(self, t: float, side: str = "right") -> int:
        """Front offset at raw time t (number of advances up to t)."""
        if side == "right":
            return int(np.searchsorted(self.times_plus, t, side="right"))
        if side == "left":
            return int(np.searchsorted(self.times_minus, t, side="right"))
        raise ValueError('side must be "right" or "left"')

    def omega1_fraction(self) -> Tuple[float, int]:
        """Pooled fraction of clean vacancy windows and the window count."""
        total = len(self.omega_right) + len(self.omega_left)
        if total == 0:
            return (float("nan"), 0)
        clean = int(self.omega_right.sum()) + int(self.omega_left.sum())
        return (clean / total, total)


def propagation_radius(pi: float, horizon: float, radius: Optional[int] = None) -> int:
    """The box radius of run_propagation, suggested_radius when None, after
    its refusals of the horizon, pi, the radius and the box's cap."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 0.0 < pi < math.inf:
        raise ValueError(f"pi must be positive and finite, got {pi}")
    if radius is None:
        radius = suggested_radius(pi, horizon)
    if radius < 1:
        raise ValueError("radius must be at least 1")
    check_box_sites(2 * radius + 1)
    return radius


def run_propagation(
    pi: float,
    horizon: float,
    radius: Optional[int] = None,
    seed: int = 0,
    stream_id: int = 0,
    engine: str = "auto",
) -> PropagationRun:
    """Run the propagation process (raw time) up to the given horizon.

    Initial state: every site occupied, the center burning.  No matches.
    """
    radius = propagation_radius(pi, horizon, radius)
    n_sites = 2 * radius + 1
    eng = make_engine(
        n_sites,
        pi,
        0.0,
        seed,
        stream_id,
        initial_occupied=True,
        ignite_site=radius,
        force=engine,
    )
    eng.advance_to(horizon)

    sparks = np.asarray(eng.spark_log, dtype=np.float64).reshape(-1, 3)
    sparks[:, 0] -= radius  # site index to offset, exact in float64
    return PropagationRun(
        pi=pi,
        horizon=horizon,
        radius=radius,
        seed=seed,
        stream_id=stream_id,
        times_plus=np.asarray(eng.front_plus, dtype=np.float64),
        times_minus=np.asarray(eng.front_minus, dtype=np.float64),
        spark_log=sparks,
        omega_right=np.asarray(eng.omega_right, dtype=bool),
        omega_left=np.asarray(eng.omega_left, dtype=bool),
        event_count=eng.event_count,
        seed_rings_skipped=eng.seed_rings_skipped,
    )
