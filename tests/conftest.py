import atexit
import contextlib
import importlib
import importlib.machinery
import importlib.util
import os
import shutil
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest

import bddhc
from bddhc import interned

sys.path.insert(0, str(Path(__file__).parent))

SPEEDUPS_C = Path(__file__).resolve().parent.parent / "src" / "bddhc" / "_speedups.c"


@contextlib.contextmanager
def _output_to(file):
    """Send what this process and its children write to fds 1 and 2 to ``file``."""
    sys.stdout.flush()
    sys.stderr.flush()
    saved = [os.dup(1), os.dup(2)]
    os.dup2(file.fileno(), 1)
    os.dup2(file.fileno(), 2)
    try:
        yield
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        for fd, copy in enumerate(saved, start=1):
            os.dup2(copy, fd)
            os.close(copy)


def _load_compiled_kernel() -> str:
    """Make the compiled kernel importable as ``bddhc._speedups``.

    ``_speedups.c`` is compiled, as ``setup.py`` compiles it, into a
    temporary directory removed at exit, and ``bddhc.interned`` is reloaded
    to pick it up.  It is built even when a kernel is already importable,
    so the suite tests the tree's source, never a stale in-place build.
    Returns the build error with the compiler's output, or ``""``; a
    missing setuptools is such an error, so only the compiled-kernel tests
    fail on it.
    """
    out = tempfile.mkdtemp(prefix="bddhc-speedups-")
    atexit.register(shutil.rmtree, out, True)
    log = tempfile.TemporaryFile("w+")
    try:
        from setuptools import Distribution, Extension
        from setuptools.command.build_ext import build_ext

        ext = Extension("bddhc._speedups", [str(SPEEDUPS_C)])
        cmd = build_ext(Distribution({"name": "bddhc", "ext_modules": [ext]}))
        cmd.build_lib = cmd.build_temp = out
        with _output_to(log):
            cmd.ensure_finalized()
            cmd.run()
        path = cmd.get_ext_fullpath(ext.name)
        loader = importlib.machinery.ExtensionFileLoader(ext.name, path)
        spec = importlib.util.spec_from_file_location(ext.name, path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except Exception as exc:  # no setuptools, no headers, a failed build or load
        log.seek(0)
        return f"{type(exc).__name__}: {exc}\n{log.read()}"
    finally:
        log.close()
    sys.modules[ext.name] = bddhc._speedups = module
    importlib.reload(interned)
    return ""


def _compiler_missing() -> str:
    """Why ``_speedups.c`` cannot be built here, or ``""``."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    if cc and shutil.which(cc[0]):
        return ""
    return f"no C compiler: {' '.join(cc)!r} is not on PATH"


#: why the compiled kernel is not under test (no C compiler); empty when it is
COMPILED_MISSING = _compiler_missing()
#: the error from building ``_speedups.c`` with a compiler present, or empty
BUILD_ERROR = "" if COMPILED_MISSING else _load_compiled_kernel()

KERNELS = ["python"] if COMPILED_MISSING else ["python", "compiled"]


def _require_kernel(name: str) -> None:
    """Fail the calling test with the build error if ``name`` did not build."""
    if name not in interned.available_kernels():
        pytest.fail(f"kernel {name!r} did not build: {BUILD_ERROR}", pytrace=False)


@pytest.fixture
def compiled_kernel():
    """For a test of the compiled kernel: skips only without a C compiler."""
    if COMPILED_MISSING:
        pytest.skip(COMPILED_MISSING)
    _require_kernel("compiled")


@pytest.fixture(params=KERNELS)
def kernel(request):
    """Every interned-backend kernel, by name: compiled whenever a compiler is."""
    _require_kernel(request.param)
    return request.param


@pytest.fixture
def manager(kernel):
    return interned.new_manager(kernel)
