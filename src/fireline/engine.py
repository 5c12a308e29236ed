"""Engine selection: the C core when it loads, pure Python otherwise.

The C core is the event loop of _ccore.c, a hand-written twin of
_engine_py.PyEngineCore that uses no Python C-API.  fireline._clib builds,
caches and loads that library, which also serves the block draws of
fireline.rng.  If no library can be built or loaded the package uses
PyEngineCore, and FALLBACK_REASON says why; `fireline --version` prints it.

The two cores are bit-identical by construction (counter-based clock
draws, same event order), so the choice only affects speed.  COMPILED says
which one was picked; make_engine(force=...) pins one for benchmarks and
cross-checks.
"""

import ctypes
import weakref
from ctypes import c_double, c_int64

import numpy as np

from ._clib import FALLBACK_REASON, MEMORY_CAP_SITES, ResourceLimitError
from ._clib import lib as _lib
from ._engine_py import PyEngineCore, check_engine_args, observe_refusal

# log ids and row widths, as in the LOG_* enum of _ccore.c
(_LOG_FRONT_PLUS, _LOG_FRONT_MINUS, _LOG_SPARK,
 _LOG_OMEGA_RIGHT, _LOG_OMEGA_LEFT, _LOG_MATCH) = range(6)
_LOG_WIDTH = (1, 1, 3, 1, 1, 3)

COMPILED = _lib is not None


class _Scalars(ctypes.Structure):
    """The leading public block of the C engine struct."""

    _fields_ = [
        ("now", c_double),
        ("event_count", c_int64),
        ("seed_rings_skipped", c_int64),
        ("burning_count", c_int64),
        ("burn_lo", c_int64),
        ("burn_hi", c_int64),
    ]


def _scalar(name):
    return property(lambda self: getattr(self._scalars, name))


def _log(which):
    """A property that copies one C log into a new float64 array."""
    width = _LOG_WIDTH[which]

    def read(self):
        rows = c_int64()
        ptr = _lib.fl_log(self._handle, which, ctypes.byref(rows))
        out = np.empty((rows.value,) if width == 1 else (rows.value, width))
        # memmove, not np.ctypeslib.as_array, which caches a ctypes type
        # for every distinct log length for the life of the process
        if rows.value:  # an empty log may have no buffer
            ctypes.memmove(out.ctypes.data, ptr, out.nbytes)
        return out

    return property(read)


class CEngineCore:
    """C twin of PyEngineCore: same constructor, validation, attributes and
    methods.  advance_to is the one driving method; observe reads the
    observables of one site in place, while state_view and seed_last_view
    copy the per-site states and latest occupation times.
    The front, spark and clean-window logs fill only in a run that starts
    with a fire (ignite_site >= 0); the match log always does.
    Each access to a log copies it into a new float64 array, of shape (rows,)
    for the one-column logs and (rows, width) otherwise."""

    def __init__(
        self,
        n_sites,
        pi,
        match_rate,
        master_seed,
        stream_id,
        initial_occupied=False,
        ignite_site=-1,
        injected_t=(),
        injected_site=(),
    ):
        if _lib is None:
            raise RuntimeError(f"the C core is not available: {FALLBACK_REASON}")
        check_engine_args(
            n_sites, pi, match_rate, master_seed, stream_id,
            initial_occupied, ignite_site, injected_t, injected_site,
        )
        self.n_sites = n_sites
        self.pi = pi
        self.match_rate = match_rate
        self.master_seed = master_seed
        self.stream_id = stream_id
        n_inj = len(injected_t)
        handle = _lib.fl_new(
            int(n_sites), pi, match_rate, int(master_seed), int(stream_id),
            bool(initial_occupied), int(ignite_site), n_inj,
            (c_double * n_inj)(*map(float, injected_t)),
            (c_int64 * n_inj)(*map(int, injected_site)),
        )
        if not handle:
            raise MemoryError(f"engine allocation failed for {n_sites} sites")
        self._handle = handle
        self._scalars = _Scalars.from_address(handle)
        self._observed = (c_int64 * 3)()
        weakref.finalize(self, _lib.fl_free, handle)

    now = _scalar("now")
    event_count = _scalar("event_count")
    seed_rings_skipped = _scalar("seed_rings_skipped")
    burning_count = _scalar("burning_count")
    burn_lo = _scalar("burn_lo")
    burn_hi = _scalar("burn_hi")

    front_plus = _log(_LOG_FRONT_PLUS)
    front_minus = _log(_LOG_FRONT_MINUS)
    spark_log = _log(_LOG_SPARK)
    omega_right = _log(_LOG_OMEGA_RIGHT)
    omega_left = _log(_LOG_OMEGA_LEFT)
    match_log = _log(_LOG_MATCH)

    def advance_to(self, t_raw):
        """Process every event up to and including raw time t_raw."""
        status = _lib.fl_run(self._handle, t_raw)
        if status == -2:
            raise ValueError(f"cannot advance to {t_raw}: need now={self.now} <= target < inf")
        if status != 0:
            raise MemoryError("engine allocation failed while running")

    def observe(self, idx, m):
        """(lo, hi, count): the occupied run through site idx, or (-1, -1)
        when idx is not occupied, and the occupied count of the window of
        half-width m around idx, clipped to the box; read in place."""
        # ctypes wraps an integer beyond 64 bits instead of refusing it, so
        # the arguments are checked here too, and a window wider than the
        # box is passed as the box, which reads the same
        n = self.n_sites
        out = self._observed
        if not 0 <= idx < n or m < 0 or _lib.fl_observe(self._handle, idx, m if m < n else n, out):
            raise observe_refusal(n, idx, m)
        return out[0], out[1], out[2]

    def reset_burn_bounds(self):
        self._scalars.burn_lo = self.n_sites
        self._scalars.burn_hi = -1

    def state_view(self):
        """The raw state bytes (internal indices)."""
        return ctypes.string_at(_lib.fl_states(self._handle), self.n_sites)

    def seed_last_view(self):
        """Each site's latest occupation time, copied into a float64 array."""
        out = np.empty(self.n_sites)
        ctypes.memmove(out.ctypes.data, _lib.fl_seed_last(self._handle), out.nbytes)
        return out


EngineCore = CEngineCore if COMPILED else PyEngineCore


def core_description():
    """The active core, and why when it is the Python fallback."""
    return "compiled" if COMPILED else f"python (C core unavailable: {FALLBACK_REASON})"


def check_box_sites(n_sites):
    """Raise ResourceLimitError for a box of more than MEMORY_CAP_SITES
    sites, as make_engine does before it allocates."""
    if n_sites > MEMORY_CAP_SITES:
        raise ResourceLimitError(
            f"box of {n_sites} sites exceeds the cap of {MEMORY_CAP_SITES}"
        )


def make_engine(n_sites, *args, force="auto", **kwargs):
    """Construct an engine core.  force is "auto", "python", or "compiled".
    Raises ResourceLimitError, before allocating, for a box of more than
    MEMORY_CAP_SITES sites."""
    cores = {"auto": EngineCore, "python": PyEngineCore, "compiled": CEngineCore}
    if force not in cores:
        raise ValueError(f"unknown engine choice: {force!r}")
    check_box_sites(n_sites)
    return cores[force](n_sites, *args, **kwargs)
