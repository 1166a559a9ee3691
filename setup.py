"""Build the optional compiled kernel for the interned backend.

The package works without the extension (a pure-Python kernel is selected
at import time), so a failed compile only costs speed, not functionality.
To build in place: ``python setup.py build_ext --inplace``.  The kernel is
one hand-written C file, ``src/bddhc/_speedups.c``, which needs only a C
compiler and the Python headers.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("bddhc._speedups", ["src/bddhc/_speedups.c"], optional=True)
    ]
)
