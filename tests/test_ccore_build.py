"""_ccore.c is plain C99: it builds with strict warnings as errors, both
with the compiler's 128-bit integers and without them (the portable
mulhilo)."""

import os
import shlex
import shutil
import subprocess

import pytest

from fireline.engine import _SOURCE

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
