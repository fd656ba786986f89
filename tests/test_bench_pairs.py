"""Smoke test of scripts/bench_pairs.py: one toy pair, this checkout on
both sides; no timing gate.  Its verdicts are tested on synthetic runs."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_script():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_toy_pair_with_the_checkout_on_both_sides(tmp_path):
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--workload", "stats-ring", "--pairs", "1", "--first-seed", "3",
         "--scale", "toy", "--seconds", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    record = json.loads(out.read_text())
    assert record["seeds"] == [3]
    assert record["byte_compiled"] is True
    assert record["numpy_simd_found"] == load_script().simd_found()
    assert "numpy SIMD extensions found: " in proc.stdout
    assert record["first_in_pair"] == ["parent"]
    assert record["sides"]["parent"]["tree_sha256"] == record["sides"]["change"]["tree_sha256"]
    lines = int(subprocess.run("cat src/ukge/*.py | wc -l", shell=True, cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout)
    assert record["sides"]["parent"]["src_lines"] == record["sides"]["change"]["src_lines"] == lines
    assert f"src lines: parent {lines}, change {lines}, net +0" in proc.stdout
    for side in ("parent", "change"):
        (run,) = record["runs"][side]
        assert run["correct"] is True and run["failed"] == 0
        assert set(run["host_scaled"]) == {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["end_to_end"]:
        row = record["summary"][f"{metric['name']} (host_scaled)"]
        assert row["pairs"] == 1
        assert row["parent"]["q1"] <= row["parent"]["median"] <= row["parent"]["q3"]
        assert metric["name"] in proc.stdout
        assert row["gain_rule_met"] is False  # one pair is no claim
        assert row["worse_than_bound"] in (True, False)
    assert "parent correct: [True] failed: [0]" in proc.stdout


def test_one_toy_pair_compiled_at_import(tmp_path):
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--workload", "query-22k", "--pairs", "1", "--first-seed", "4",
         "--scale", "toy", "--seconds", "1", "--json", str(out), "--no-compile"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    record = json.loads(out.read_text())
    assert record["byte_compiled"] is False
    assert "query-22k, 1 pairs, compiled at import" in proc.stdout
    for side in ("parent", "change"):
        (run,) = record["runs"][side]
        assert run["correct"] is True and run["failed"] == 0
        assert set(run["host_scaled"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_simd_found_is_what_numpy_reports_for_the_runs_environment(monkeypatch):
    """The list of ``np.show_runtime()``, asked of a fresh interpreter with
    this environment, so a feature switched off for the runs drops out."""
    import numpy as np

    found = load_script().simd_found()
    assert all(isinstance(f, str) for f in found)
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        np.show_runtime()
    assert f"'found':{found!r}".replace(" ", "") in "".join(shown.getvalue().split())
    if found:
        disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", f"{disabled} {found[-1]}")
        assert load_script().simd_found() == found[:-1]


def synthetic_runs(name, parent, change):
    return {side: [{"host_scaled": {name: v}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def verdicts(better, change, parent=PARENT, bound=0.25):
    metric = {"name": "m", "unit": "1/s", "better": better, "bound": bound}
    (row,) = load_script().summarise(synthetic_runs("m", parent, change), [metric]).values()
    return row["pairs_won_by_change"], row["gain_rule_met"], row["worse_than_bound"]


def test_the_gain_rule_needs_nine_tenths_of_the_pairs_and_a_move_beyond_the_iqr():
    # the parent's quartiles are 102.25 and 106.75: an IQR of 4.5
    assert verdicts("higher", [v + 5.0 for v in PARENT]) == (10, True, False)
    assert verdicts("higher", [v + 4.0 for v in PARENT]) == (10, False, False)
    nine = [v + 6.0 for v in PARENT[:9]] + [PARENT[9]]  # one tie counts for neither
    assert verdicts("higher", nine) == (9, True, False)
    eight = [v + 6.0 for v in PARENT[:8]] + [PARENT[8] - 1.0, PARENT[9]]
    assert verdicts("higher", eight) == (8, False, False)
    assert verdicts("lower", [v - 5.0 for v in PARENT]) == (10, True, False)
    assert verdicts("lower", [v + 5.0 for v in PARENT]) == (0, False, False)
    assert verdicts("higher", [200.0] * 9, parent=PARENT[:9]) == (9, False, False)


def test_worse_than_bound_compares_the_medians_with_the_bound_share():
    # the parent's median is 104.5; a 10% bound allows 10.45 either way
    assert verdicts("higher", [v - 10.0 for v in PARENT], bound=0.1)[2] is False
    assert verdicts("higher", [v - 11.0 for v in PARENT], bound=0.1)[2] is True
    assert verdicts("lower", [v + 10.0 for v in PARENT], bound=0.1)[2] is False
    assert verdicts("lower", [v + 11.0 for v in PARENT], bound=0.1)[2] is True
    assert verdicts("lower", [v - 50.0 for v in PARENT], bound=0.1)[2] is False
