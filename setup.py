"""Build the optional Cython kernel for the interned backend.

The package works without the extension (a pure-Python kernel is selected
at import time), so a failed compile only costs speed, not functionality.
To rebuild in place: ``python setup.py build_ext --inplace``.  With Cython
installed the kernel is regenerated from ``_speedups.pyx``; without it the
shipped generated ``_speedups.c`` is compiled as is, which needs only a C
compiler and the Python headers.
"""
from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [
        Extension("bddhc._speedups", ["src/bddhc/_speedups.c"], optional=True)
    ]
else:
    ext_modules = cythonize(
        [
            Extension(
                "bddhc._speedups",
                ["src/bddhc/_speedups.pyx"],
                optional=True,
            )
        ],
        language_level="3",
    )

setup(ext_modules=ext_modules)
