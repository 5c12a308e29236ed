"""The compiled C library and the memory cap, below both engine and rng.

The library is _ccore.c: the C event core that fireline.engine wraps, the
Poisson mark sampler of fireline.rng (its other block draws are numpy
passes on either core), the LFFP(p) event loop of fireline.limits and its
queries, and fl_tail_runs, which makes a batch of the runs of
fireline.harness.limit_tail_experiment (sampler, loop and the D(0, T)
query, per stream) in one call.
It uses no Python C-API and is loaded with ctypes.CDLL, which releases
the GIL for each foreign call, and it keeps no global state (its only
file-scope data are static const tables), so concurrent calls on threads
run in parallel: limit_tail_experiment runs its fl_tail_runs chunks so.
PyDLL, which holds the GIL, must not replace CDLL.  setup.py compiles it
next to this module.  In a source checkout without that build, the first
import compiles the source with the system C compiler ($CC, default cc)
into $XDG_CACHE_HOME/fireline/<source hash>/ (default ~/.cache), publishing
the library by atomic rename so that concurrent processes never load a
partial file.  If no library can be built or loaded, lib is None and
FALLBACK_REASON says why.
"""

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from ctypes import POINTER, c_double, c_int, c_int64, c_uint64, c_void_p
from pathlib import Path

_SOURCE = Path(__file__).with_name("_ccore.c")
_LIB_NAME = "_ccore" + (sysconfig.get_config_var("EXT_SUFFIX") or ".so")

# The largest box make_engine builds, and the largest expected mark count
# poisson_rectangle samples.  It counts sites and marks, not bytes: a mark
# takes 16 B (a row of a MarkSet's float64 array), so a rectangle at the cap
# (simulate-limit -A 5000 -T 100000, area 10^9) would hold about 16 GB.
MEMORY_CAP_SITES = 2**30

# The flags of the library built on import.  No FMA contraction: the limit
# engine must round a * b + c as Python does.
CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]


class ResourceLimitError(RuntimeError):
    """A requested simulation exceeds the configured memory cap."""


def _compile(dest):
    cc = shlex.split(os.environ.get("CC", "cc"))
    if not cc or shutil.which(cc[0]) is None:
        raise OSError(f"no C compiler found (CC={os.environ.get('CC', 'cc')!r})")
    dest.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=".build-")
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, *CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            lines = proc.stderr.splitlines()
            first = next((ln for ln in lines if "error" in ln), f"exit status {proc.returncode}")
            raise OSError(f"{cc[0]} failed on {_SOURCE.name}: {first.strip()}")
        os.replace(tmp, dest)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_library():
    """The built C library: installed next to this module, else from the cache."""
    installed = Path(__file__).with_name(_LIB_NAME)
    # an in-place build older than the source is stale, so skip it
    if installed.exists() and not (
        _SOURCE.exists() and installed.stat().st_mtime < _SOURCE.stat().st_mtime
    ):
        return ctypes.CDLL(str(installed))
    if not _SOURCE.exists():
        raise OSError(f"the C core was not built and {_SOURCE.name} is missing")
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    cached = cache / "fireline" / digest / _LIB_NAME
    if not cached.exists():
        _compile(cached)
    return ctypes.CDLL(str(cached))


def _declare(lib):
    """Set the argument and return types of every export; an undeclared
    export would return a C int and truncate pointers."""
    lib.fl_new.argtypes = [
        c_int64, c_double, c_double, c_uint64, c_uint64, c_int, c_int64,
        c_int64, POINTER(c_double), POINTER(c_int64),
    ]
    lib.fl_new.restype = c_void_p
    lib.fl_free.argtypes = [c_void_p]
    lib.fl_free.restype = None
    lib.fl_run.argtypes = [c_void_p, c_double]
    lib.fl_run.restype = c_int
    lib.fl_observe.argtypes = [c_void_p, c_int64, c_int64, POINTER(c_int64)]
    lib.fl_observe.restype = c_int
    lib.fl_states.argtypes = [c_void_p]
    lib.fl_states.restype = c_void_p
    lib.fl_seed_last.argtypes = [c_void_p]
    lib.fl_seed_last.restype = c_void_p
    lib.fl_log.argtypes = [c_void_p, c_int, POINTER(c_int64)]
    lib.fl_log.restype = POINTER(c_double)
    lib.fl_poisson_rectangle.argtypes = [
        c_uint64, c_uint64, c_uint64, c_double, c_double, c_double, c_double, c_int64,
        c_int64, c_void_p, POINTER(c_uint64),
    ]
    lib.fl_poisson_rectangle.restype = c_int64
    lib.fl_limit_run.argtypes = [
        c_double, c_double, c_double, c_int64, c_void_p, c_void_p, c_void_p,
    ]
    lib.fl_limit_run.restype = c_int
    lib.fl_limit_query.argtypes = [
        c_double, c_double, c_int64, c_void_p, c_void_p, c_double, c_int64, c_void_p, c_void_p,
    ]
    lib.fl_limit_query.restype = None
    lib.fl_tail_runs.argtypes = [
        c_double, c_double, c_double, c_uint64, c_uint64, c_int64, c_void_p,
    ]
    lib.fl_tail_runs.restype = c_int
    return lib


try:
    lib = _declare(_load_library())
    FALLBACK_REASON = None
except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError) as exc:
    lib = None
    FALLBACK_REASON = str(exc)
