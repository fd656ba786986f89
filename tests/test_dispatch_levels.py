"""The host-sensitive tests, rerun under numpy's lower SIMD dispatch levels.

numpy picks its float64 transcendental kernels at import, by CPU feature
(NumPy NEP 38), and ``NPY_DISABLE_CPU_FEATURES`` makes one process run the
kernels of a CPU without the features it names.  A pin that holds only for
this host's kernels fails here, in a subprocess per level that this CPU can
emulate; a level the CPU lacks is skipped by name.  The tests rerun are those
whose bits pass through the transcendental kernels: the frozen checkpoint
format, the float32 filter's ulp bounds, the filtered ranks against exact
scores, criterion 10's two runs compared with each other, and the loss
kernel against the tape.
"""

from __future__ import annotations

import importlib.util
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HOST_SENSITIVE = (
    "tests/test_model.py::TestFrozenFormat",
    "tests/test_geometry.py::TestUlps",
    "tests/test_evaluation.py::TestFilteredRanksMatchExactScores",
    "tests/test_acceptance.py::test_10_byte_identical_artifacts",
    "tests/test_loss_kernel.py",
)
# each level by the features it needs, and the features above it that its
# run disables
LEVELS = {
    "X86_V3": (("X86_V3",), ("X86_V4", "AVX512_ICL", "AVX512_SPR")),
    "X86_64": ((), ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")),
}


def simd_found() -> list[str]:
    """``scripts/bench_pairs.py``'s ``simd_found``: what numpy finds in a
    process started with this process's environment."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.simd_found()


@pytest.mark.parametrize("level", list(LEVELS))
def test_host_sensitive_tests_pass_at_level(level, monkeypatch):
    needs, disabled = LEVELS[level]
    native = simd_found()
    if platform.machine().lower() not in ("x86_64", "amd64") or not set(needs) <= set(native):
        pytest.skip(f"this CPU lacks the {level} level")
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", " ".join(disabled))
    assert simd_found() == [f for f in native if f not in disabled]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *HOST_SENSITIVE],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
