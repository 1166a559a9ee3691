"""Kernel-drift guard: the compiled kernel's source and generated C move together.

``_speedups.c`` is generated from ``_speedups.pyx`` by Cython and is
shipped so the kernel builds with only a C compiler.  An edit to either
file alone leaves the two kernels' contracts out of step, so both
digests are recorded as one pair.
"""
import hashlib
from pathlib import Path

KERNEL_DIR = Path(__file__).resolve().parent.parent / "src" / "bddhc"

# (sha256 of _speedups.pyx, sha256 of _speedups.c)
RECORDED = (
    "680ec01ba0a4f93dc67ab6410f3db7dbd2f195a60f30c34fe1e49247eff6e2cf",
    "28618007147e257e8c352f7a3a3beca1ffc0187d5a96e970fd81493ff6d635fa",
)


def _sha256(name):
    return hashlib.sha256((KERNEL_DIR / name).read_bytes()).hexdigest()


def test_pyx_and_generated_c_match_the_recorded_pair():
    current = (_sha256("_speedups.pyx"), _sha256("_speedups.c"))
    assert current == RECORDED, (
        "src/bddhc/_speedups.pyx or _speedups.c changed: regenerate the .c "
        "from the .pyx (cython -3 src/bddhc/_speedups.pyx), run the suite on "
        "both kernels, then record the new pair of digests in RECORDED"
    )
