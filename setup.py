"""Build the optional compiled kernel for the interned backend.

The package works without the extension (a pure-Python kernel is selected
at import time), so a failed compile only costs speed, not functionality.
To build in place: ``python setup.py build_ext --inplace``.  The build
compiles the shipped generated ``_speedups.c``, which needs only a C
compiler and the Python headers; it never runs Cython, so it cannot
rewrite the ``.c`` that ``tests/test_kernel_drift.py`` pins together with
``_speedups.pyx``.  After editing the ``.pyx``, regenerate the ``.c`` by
hand with ``cython -3 src/bddhc/_speedups.pyx`` and record the new pair
in that test.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("bddhc._speedups", ["src/bddhc/_speedups.c"], optional=True)
    ]
)
