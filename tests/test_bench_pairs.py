"""Smoke test of scripts/bench_pairs.py: one toy pair, this checkout on
both sides; no timing gate."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


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
    assert record["first_in_pair"] == ["parent"]
    assert record["sides"]["parent"]["tree_sha256"] == record["sides"]["change"]["tree_sha256"]
    for side in ("parent", "change"):
        (run,) = record["runs"][side]
        assert run["correct"] is True and run["failed"] == 0
        assert set(run["host_scaled"]) == {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["end_to_end"]:
        row = record["summary"][f"{metric['name']} (host_scaled)"]
        assert row["pairs"] == 1
        assert row["parent"]["q1"] <= row["parent"]["median"] <= row["parent"]["q3"]
        assert metric["name"] in proc.stdout
    assert "parent correct: [True] failed: [0]" in proc.stdout
