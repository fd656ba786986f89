"""Smoke tests of scripts/kernel_ab.py: one repetition, this checkout's
``src/`` on both sides, then against a copy that moves the loss by one ulp;
no timing gate."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def kernel_ab(parent, change, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_ab.py"), str(parent), str(change),
         "--reps", "1", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_the_checkout_on_both_sides(tmp_path):
    out = tmp_path / "ab.json"
    proc = kernel_ab(SRC, SRC, "--json", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    record = json.loads(out.read_text())
    assert record["bits_equal"] is True
    calls = ("batch", "evaluate", "candidates", "score")
    assert record["calls"] == {"batch": 1, "evaluate": 1, "candidates": 10, "score": 10}
    for side in ("parent", "change"):
        medians = record["medians_ms"][side]
        assert set(medians) == {*calls, "loss_sum", "row_grads", "scatter"}
        assert all(ms > 0 for ms in medians.values())
        assert medians["loss_sum"] + medians["row_grads"] < medians["batch"]
    assert set(record["ratio_median"]) == set(calls)
    for side in ("parent", "change"):
        faults = record["faults"][side]
        assert set(faults) == set(calls)
        assert all(n >= 0 for n in faults.values())


def test_a_loss_one_ulp_off_fails_the_batch(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "ukge" / "training.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_exact_log_loss = _log_loss\n\n\n"
            "def _log_loss(p, n_pos):\n"
            "    return np.nextafter(_exact_log_loss(p, n_pos), np.inf)\n"
        )
    proc = kernel_ab(SRC, src)
    assert proc.returncode != 0
    assert proc.stderr.startswith("batch: the trees' results differ"), proc.stderr
