import atexit
import importlib
import importlib.machinery
import importlib.util
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

import bddhc
from bddhc import interned

sys.path.insert(0, str(Path(__file__).parent))

SPEEDUPS_C = Path(__file__).resolve().parent.parent / "src" / "bddhc" / "_speedups.c"


def _load_compiled_kernel() -> str:
    """Make the compiled kernel importable as ``bddhc._speedups``.

    ``_speedups.c`` is compiled, as ``setup.py`` compiles it, into a
    temporary directory removed at exit, and ``bddhc.interned`` is reloaded
    to pick it up.  It is built even when a kernel is already importable,
    so the suite tests the tree's source, never a stale in-place build.
    Returns why the kernel is missing, or ``""``.
    """
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tempfile.mkdtemp(prefix="bddhc-speedups-")
    atexit.register(shutil.rmtree, out, True)
    ext = Extension("bddhc._speedups", [str(SPEEDUPS_C)])
    cmd = build_ext(Distribution({"name": "bddhc", "ext_modules": [ext]}))
    cmd.build_lib = cmd.build_temp = out
    try:
        cmd.ensure_finalized()
        cmd.run()
        path = cmd.get_ext_fullpath(ext.name)
        loader = importlib.machinery.ExtensionFileLoader(ext.name, path)
        spec = importlib.util.spec_from_file_location(ext.name, path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except Exception as exc:  # no compiler, no headers, a failed link or load
        return f"building the compiled kernel failed: {type(exc).__name__}: {exc}"
    sys.modules[ext.name] = bddhc._speedups = module
    importlib.reload(interned)
    return ""


#: why the compiled kernel is not under test; empty when it is
COMPILED_MISSING = _load_compiled_kernel()

KERNELS = interned.available_kernels()


@pytest.fixture(params=KERNELS)
def kernel(request):
    """Every available interned-backend kernel, by name."""
    return request.param


@pytest.fixture
def manager(kernel):
    return interned.new_manager(kernel)
