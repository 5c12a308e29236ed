"""Build script for the optional compiled event core.

The package is pure Python plus one plain C file (fireline/_ccore.c), built
here as a shared library that fireline._clib loads with ctypes, for the
event engine, the Poisson mark sampler of fireline.rng, and the LFFP(p)
event loop of fireline.limits and its queries (block draws are numpy on
either core); it uses no Python C-API and needs nothing but a C compiler.
The extension is optional: without a compiler the package still installs,
and on import it compiles the source itself or falls back to the
pure-Python engine.
"""

import os

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "fireline._ccore",
            ["src/fireline/_ccore.c"],
            libraries=["m"] if os.name == "posix" else [],
            # no FMA contraction: the limit engine rounds as Python does
            extra_compile_args=["-ffp-contract=off"] if os.name == "posix" else [],
            optional=True,
        )
    ]
)
