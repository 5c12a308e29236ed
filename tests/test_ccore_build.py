"""_ccore.c is plain C99: it builds with strict warnings as errors, both
with the compiler's 128-bit integers and without them (the portable
mulhilo); a build at another optimisation level, with the portable mulhilo,
or with the library's own flags for the build machine's instruction set
(where a * b + c could become a fused multiply-add) gives the same
Poisson marks, realizations, limit runs, limit queries and tail runs as
the loaded library; it exports the listed functions, each declared for
ctypes; and it declares no variable that calls share, so concurrent calls
on threads are safe."""

import ctypes
import hashlib
import os
import re
import shlex
import shutil
import subprocess

import numpy as np
import pytest

from fireline import engine, limits, rng
from fireline._clib import _SOURCE, CFLAGS, _declare
from fireline.rng import Mark, RngStream, poisson_rectangle
from fireline.scales import uniform_grid

_CC = os.environ.get("CC", "cc")
_STRICT = ["-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-shared", "-fPIC"]

needs_cc = pytest.mark.skipif(
    not shlex.split(_CC) or shutil.which(shlex.split(_CC)[0]) is None,
    reason=f"no C compiler {_CC!r} (set CC)",
)


def _build(dest, flags):
    proc = subprocess.run(
        [*shlex.split(_CC), *flags, "-o", str(dest), str(_SOURCE), "-lm"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return dest


@needs_cc
@pytest.mark.parametrize("extra", [[], ["-U__SIZEOF_INT128__"]], ids=["int128", "portable"])
def test_ccore_builds_as_strict_c99(tmp_path, extra):
    _build(tmp_path / "core.so", [*_STRICT, *extra])


def _rectangles(lib, monkeypatch):
    """The sha256 of 200 drawn rectangles, one to three strips each: the
    marks' bytes and each stream's final position, drawn through lib."""
    digest = hashlib.sha256()
    with monkeypatch.context() as m:
        m.setattr(rng, "_lib", lib)
        for k in range(200):
            stream = RngStream(k, 2**63 + k)
            t_hi = (3.0, 4.0, 9.5, 0.7)[k % 4]
            marks = poisson_rectangle(stream, -6.0 - k % 3, 6.0 + k % 5, 0.5, t_hi + 0.5)
            digest.update(marks.array.tobytes())
            digest.update(stream._index.to_bytes(8, "little"))
    return digest.hexdigest()


def _realization(lib, monkeypatch):
    """The sha256 of 200 Poisson rectangles, and one more rectangle drawn
    with round keys that wrap, at a stream index near the top of the
    counter range; the states, seed_last, logs and counters of a fast front
    and of slow extinguishes with re-ignitions; and the query answers (D, Z
    and H at fixed points and at some marks, and a 64-point trajectory), events,
    fronts, barriers, sweeps and counters of LFFP(0), LFFP(1) and LFFP(0.1)
    on Poisson marks (at p = 0.1 a fused multiply-add rounds some event
    times differently) and of LFFP(0.5) on lattice marks, whose event keys
    often tie; and three batches of tail runs (fl_tail_runs), one with round
    keys that wrap; run on lib."""
    got = [_rectangles(lib, monkeypatch)]
    with monkeypatch.context() as m:
        m.setattr(rng, "_lib", lib)
        stream = RngStream(2**64 - 1, 2**63 + 5)
        stream._index = 2**64 - 4096
        # area 600 in ten strips: about 1,800 of the 4,096 words left
        got += [poisson_rectangle(stream, -50.0, 50.0, 0.0, 6.0).array.tobytes(),
                stream._index]
    slow = [(25.0 * k + 0.1 * i, i) for k in range(1, 6) for i in range(0, 40, 3)]
    runs = (
        (dict(n_sites=301, pi=9.0, master_seed=123, stream_id=0, ignite_site=150), 15.0),
        (dict(n_sites=40, pi=0.05, master_seed=51, stream_id=2, ignite_site=20,
              injected_t=[t for t, _ in slow], injected_site=[i for _, i in slow]), 150.0),
    )
    with monkeypatch.context() as m:
        m.setattr(engine, "_lib", lib)
        for kwargs, horizon in runs:
            eng = engine.CEngineCore(match_rate=0.0, initial_occupied=True, **kwargs)
            eng.advance_to(horizon)
            got += [eng.state_view(), eng.seed_last_view().tobytes(),
                    (eng.event_count, eng.seed_rings_skipped)]
            got += [getattr(eng, name).tobytes() for name in (
                "front_plus", "front_minus", "spark_log", "omega_right", "omega_left",
                "match_log")]
            del eng  # freed by the library that made it
        m.setattr(limits, "_lib", lib)
        lattice = [Mark(0.5 * (k % 9 - 4), 0.25 * (k // 3)) for k in range(48)]
        for p, A, marks in ((0.0, 6.0, poisson_rectangle(RngStream(3, 0), -6.0, 6.0, 0.0, 4.0)),
                            (1.0, 6.0, poisson_rectangle(RngStream(3, 1), -6.0, 6.0, 0.0, 4.0)),
                            (0.1, 6.0, poisson_rectangle(RngStream(1, 6), -6.0, 6.0, 0.0, 4.0)),
                            (0.5, 2.0, lattice)):
            state = limits.LimitStateP(p, A, 4.0, limits._validate_marks(marks, A, 4.0))
            limits._run_alffp_c(state)
            points = [(0.0, 4.0), (1.25, 3.5), (-2.0, 1.75)]
            points += [(m.x, m.t) for m in list(state.marks)[::5]]
            traj = state.trajectory(uniform_grid(4.0, 64))
            got += [repr([(state.D(x, t), state.Z(x, t), state.H(x, t)) for x, t in points]),
                    traj.values.tobytes(), repr(traj.intervals)]
            got += [repr(state.events), repr(state.fronts), repr(state.barriers),
                    repr(state.sweeps), state.stats()]
    for p, A, seed, first in ((0.0, 6.0, 2**64 - 1, 0), (1.0, 6.0, 19, 40), (0.1, 20.0, 3, 7)):
        out = np.empty(60)
        assert lib.fl_tail_runs(p, A, 3.0, seed, first, 60, out.ctypes.data) == 0
        got.append(out.tobytes())
    return got


@needs_cc
@pytest.mark.parametrize("flags", [
    [*_STRICT, "-O0"],
    [*_STRICT, "-O3"],
    [*_STRICT, "-O2", "-U__SIZEOF_INT128__"],
    [*CFLAGS, "-O3", "-march=native"],
], ids=["O0", "O3", "portable", "native"])
def test_build_flags_do_not_change_the_output(tmp_path, monkeypatch, flags):
    assert engine._lib is not None, engine.FALLBACK_REASON
    built = _declare(ctypes.CDLL(str(_build(tmp_path / "core.so", flags))))
    assert _realization(built, monkeypatch) == _realization(engine._lib, monkeypatch)


# C return types and the ctypes restype each must be declared with
_RESTYPES = {"void": (None,), "int": (ctypes.c_int,), "int64_t": (ctypes.c_int64,)}


def _exports():
    """(name, return type, parameter count) of each non-static fl_* definition."""
    src = _SOURCE.read_text()
    found = re.findall(r"^FL_API\s+([^(;]*?)\s*\b(fl_\w+)\s*\(([^)]*)\)\s*\{", src, re.M)
    return [(name, ret, 0 if params.strip() == "void" else params.count(",") + 1)
            for ret, name, params in found]


@needs_cc
def test_every_export_is_declared():
    assert engine._lib is not None, engine.FALLBACK_REASON
    exports = _exports()
    # the whole list, so that adding or removing an export edits this test
    assert sorted(name for name, _, _ in exports) == [
        "fl_free", "fl_limit_query", "fl_limit_run", "fl_log", "fl_new", "fl_observe",
        "fl_poisson_rectangle", "fl_run", "fl_seed_last", "fl_states", "fl_tail_runs",
    ]
    for name, ret, n_params in exports:
        fn = getattr(engine._lib, name)
        assert fn.argtypes is not None and len(fn.argtypes) == n_params, name
        if ret.endswith("*"):
            # a pointer return must not be left as the default C int
            assert fn.restype is ctypes.c_void_p or hasattr(fn.restype, "contents"), name
        else:
            assert fn.restype in _RESTYPES[ret], name


def _shared_variables(src):
    """The declarations of a C source that make state every call shares:
    each one at file scope that is not static const, a type, a function
    or a prototype, and each static one inside a function that is not const."""
    src = re.sub(r"/\*.*?\*/|//[^\n]*", " ", src, flags=re.S)
    src = re.sub(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", " ", src, flags=re.M)  # directives
    shared, text, body, depth = [], "", "", 0
    for ch in src:
        if ch == "{":
            depth += 1
            text += "{}" if depth == 1 else ""
        elif ch == "}":
            depth -= 1
            if depth == 0 and re.search(r"\)\s*\{\}$", text):  # a function's body
                shared += re.findall(r"\bstatic\s+(?!const\b)[^;]*;", body)
                text = body = ""
        elif depth:
            body += ch
        elif ch == ";":
            decl = " ".join(text.split())
            declarator = decl.split("=")[0]
            constant = re.match(r"static const\b", decl) and not re.search(
                r"\*(?!\s*const\b)", declarator)  # a pointer to const may move
            prototype = re.fullmatch(r"[\w\s*]*\b\w+\s*\([^()]*\)", decl)
            if not (constant or prototype or decl.startswith("typedef ")
                    or re.fullmatch(r"(enum|struct|union)\b[\w\s]*\{\}", decl)):
                shared.append(decl)
            text = ""
        else:
            text += ch
    assert depth == 0 and not text.strip(), "unbalanced source"
    return shared


def test_ccore_keeps_no_shared_state():
    # limit_tail_experiment runs fl_tail_runs on several threads at once, so
    # the library may hold no variable outside a call's own buffers
    assert _shared_variables(_SOURCE.read_text()) == []


def test_guard_flags_shared_state():
    src = """
    #define TWICE(x) \\
        ((x) + (x))
    enum { A, B };
    struct pair { int a, b; };
    typedef struct { double v[2]; } vec;  /* int hidden; */
    static const int TABLE[2] = {1, 2};
    static const char *const NAMES[2] = {"a", "b"};
    int later(int a);
    static int used(const vec *v) { int n = 0; if (v) { n = TWICE(1); } return n; }
    static int cache;
    double *buffer = 0;
    static const double *last;
    int counter(void) { static int calls; static const int one = 1; return calls += one; }
    """
    assert _shared_variables(src) == [
        "static int cache", "double *buffer = 0", "static const double *last",
        "static int calls;",
    ]
