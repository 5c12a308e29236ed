"""_ccore.c is plain C99: it builds with strict warnings as errors, both
with the compiler's 128-bit integers and without them (the portable
mulhilo); and every function it exports is declared for ctypes."""

import ctypes
import os
import re
import shlex
import shutil
import subprocess

import pytest

from fireline import engine
from fireline._clib import _SOURCE

_CC = os.environ.get("CC", "cc")
_STRICT = ["-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-shared", "-fPIC"]


@pytest.mark.skipif(
    not shlex.split(_CC) or shutil.which(shlex.split(_CC)[0]) is None,
    reason=f"no C compiler {_CC!r} (set CC)",
)
@pytest.mark.parametrize("extra", [[], ["-U__SIZEOF_INT128__"]], ids=["int128", "portable"])
def test_ccore_builds_as_strict_c99(tmp_path, extra):
    proc = subprocess.run(
        [*shlex.split(_CC), *_STRICT, *extra, "-o", str(tmp_path / "core.so"),
         str(_SOURCE), "-lm"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# C return types and the ctypes restype each must be declared with
_RESTYPES = {"void": (None,), "int": (ctypes.c_int,), "int64_t": (ctypes.c_int64,)}


def _exports():
    """(name, return type, parameter count) of each non-static fl_* definition."""
    src = _SOURCE.read_text()
    found = re.findall(r"^FL_API\s+([^(;]*?)\s*\b(fl_\w+)\s*\(([^)]*)\)\s*\{", src, re.M)
    return [(name, ret, 0 if params.strip() == "void" else params.count(",") + 1)
            for ret, name, params in found]


@pytest.mark.skipif(
    not shlex.split(_CC) or shutil.which(shlex.split(_CC)[0]) is None,
    reason=f"no C compiler {_CC!r} (set CC)",
)
def test_every_export_is_declared():
    assert engine._lib is not None, engine.FALLBACK_REASON
    exports = _exports()
    assert {"fl_new", "fl_run", "fl_draw_block"} <= {name for name, _, _ in exports}
    for name, ret, n_params in exports:
        fn = getattr(engine._lib, name)
        assert fn.argtypes is not None and len(fn.argtypes) == n_params, name
        if ret.endswith("*"):
            # a pointer return must not be left as the default C int
            assert fn.restype is ctypes.c_void_p or hasattr(fn.restype, "contents"), name
        else:
            assert fn.restype in _RESTYPES[ret], name
