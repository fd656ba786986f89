"""Smoke tests of scripts/kernel_ab.py: one repetition, this checkout's
``src/`` on both sides, then against copies that move the loss by one ulp,
add a byte to the TSV writer's file, count one entity fewer in the names
read, print one prediction fewer or count one pair more in a hierarchy
score, and its comparison of stores and of hierarchy scores; no timing
gate."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def simd_found() -> list[str]:
    """``scripts/bench_pairs.py``'s ``simd_found``, which kernel_ab.py imports."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.simd_found()


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
    found = simd_found()
    assert record["numpy_simd_found"] == found
    assert f"numpy's SIMD extensions {' '.join(found) or 'none'}" in proc.stdout
    calls = ("batch", "evaluate", "candidates", "score", "load", "write", "store", "hierarchy",
             "hierarchy-fb", "names", "predict")
    assert record["calls"] == {"batch": 1, "evaluate": 1, "candidates": 10, "score": 10,
                               "load": 10, "write": 10, "store": 10, "hierarchy": 10,
                               "hierarchy-fb": 1, "names": 10, "predict": 10}
    assert ("10 write, 10 store, 10 hierarchy, 1 hierarchy-fb, 10 names and 10 predict calls "
            "per side" in proc.stdout)
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
    assert set(record["faults_differ"]) == set(calls)
    # one untimed call per side under tracemalloc: the same tree's arrays
    # peak alike (the Python objects around them may differ by a few
    # hundred bytes), and a batch holds at least its loss's p vector
    peaks = record["peak_kb"]
    assert set(peaks) == {"parent", "change"}
    for side in ("parent", "change"):
        assert set(peaks[side]) == set(calls)
        assert all(kb > 0 for kb in peaks[side].values())
    assert peaks["parent"]["batch"] == pytest.approx(peaks["change"]["batch"], abs=4)
    assert peaks["parent"]["batch"] > 500 * 51 * 8 / 1024
    # a write holds at least the names of both dictionaries, encoded once
    assert peaks["parent"]["write"] == pytest.approx(peaks["change"]["write"], abs=4)
    assert peaks["parent"]["write"] > 21845 * 3 / 1024
    # the scores hold the 9,556 stats-ring triples, sorted once by relation
    assert peaks["parent"]["hierarchy"] > 9556 * 3 * 8 / 1024
    # and the FB15k-237-shaped store's 310,116 triples
    assert peaks["parent"]["hierarchy-fb"] > 310116 * 3 * 8 / 1024
    # the names hold the 76,456 entity fields' starts, and a predict call
    # reads the names and loads the 21,845 x 32 float64 entity table
    assert peaks["parent"]["names"] == pytest.approx(peaks["change"]["names"], abs=4)
    assert peaks["parent"]["names"] > 76456 * 8 / 1024
    assert peaks["parent"]["predict"] == pytest.approx(peaks["change"]["predict"], abs=4)
    assert peaks["parent"]["predict"] > max(21845 * 32 * 8 / 1024, peaks["parent"]["names"])
    for name in calls:
        assert row(proc.stdout, name).endswith(
            f"{peaks['parent'][name]:.0f}/{peaks['change'][name]:.0f}"
            + ("   faults differ" if record["faults_differ"][name] else ""))
    for name, differ in record["faults_differ"].items():
        assert differ == (record["faults"]["parent"][name] != record["faults"]["change"][name])
        assert ("faults differ" in row(proc.stdout, name)) == differ
    # one tree on both sides: the same tails, at least the gold per query and
    # fewer than every one of the 21,845
    scored = record["scored_per_query"]
    assert set(scored) == {"parent", "change"} and scored["parent"] == scored["change"]
    assert 1 <= scored["parent"] < 21845
    assert f"per evaluate query, parent/change: {scored['parent']:g}/" in proc.stdout
    # with one call, its mean is the median; the busiest query at least that
    mean, most = record["scored_per_query_mean"], record["scored_per_query_max"]
    assert set(mean) == set(most) == {"parent", "change"}
    assert mean["parent"] == mean["change"] == scored["parent"]
    assert most["parent"] == most["change"] and isinstance(most["parent"], int)
    assert mean["parent"] <= most["parent"] <= 21845
    assert f"; mean {mean['parent']:g}/{mean['change']:g}; max {most['parent']}/" in proc.stdout


def row(stdout: str, name: str) -> str:
    """The table row of the call ``name``."""
    return next(line for line in stdout.splitlines() if line.split()[:1] == [name])


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


def test_a_written_byte_more_fails_the_write(tmp_path):
    """The parent side's writer adds an LF: every other call agrees, and
    the set-up, which writes with the change's tree, loads as before."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "ukge" / "kgdata.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_bulk_write = write_split_tsv\n\n\n"
            "def write_split_tsv(store, split, path):\n"
            "    _bulk_write(store, split, path)\n"
            "    with open(path, \"ab\") as fh:\n"
            "        fh.write(b\"\\n\")\n"
        )
    proc = kernel_ab(src, SRC)
    assert proc.returncode != 0
    assert proc.stderr.startswith("write: the trees' results differ"), proc.stderr


def test_a_name_count_off_by_one_fails_the_names(tmp_path):
    """The parent side's ``read_names`` counts one entity fewer before the
    test split: the calls ahead of ``names`` agree, and ``names`` fails."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "ukge" / "kgdata.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_bulk_read_names = read_names\n\n\n"
            "def read_names(*paths):\n"
            "    entities, relations, n_seen = _bulk_read_names(*paths)\n"
            "    return entities, relations, n_seen - 1\n"
        )
    proc = kernel_ab(src, SRC)
    assert proc.returncode != 0
    assert proc.stderr.startswith("names: the trees' results differ"), proc.stderr


def test_a_prediction_line_fewer_fails_the_predict(tmp_path):
    """The parent side's ``predict`` prints one line fewer: every other
    call agrees, and ``predict`` fails."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "ukge" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_all_top_k = top_k\n\n\n"
            "def top_k(scores, k):\n"
            "    return _all_top_k(scores, k)[:-1]\n"
        )
    proc = kernel_ab(src, SRC)
    assert proc.returncode != 0
    assert proc.stderr.startswith("predict: the trees' results differ"), proc.stderr


def test_a_pair_count_off_by_one_fails_the_fb_shaped_hierarchy(tmp_path):
    """The parent side counts one reachable pair more in every relation
    that takes the strongly connected components: stats-ring's ``hierarchy``
    never does and agrees, and ``hierarchy-fb`` fails."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "ukge" / "kgdata.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_exact_reach_counts = _reach_counts\n\n\n"
            "def _reach_counts(heads, tails, n):\n"
            "    total, one_way = _exact_reach_counts(heads, tails, n)\n"
            "    return total + 1, one_way\n"
        )
    proc = kernel_ab(src, SRC)
    assert proc.returncode != 0
    assert proc.stderr.startswith("hierarchy-fb: the trees' results differ"), proc.stderr


def kernel_ab_module():
    """``scripts/kernel_ab.py``, imported."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        spec = importlib.util.spec_from_file_location("kernel_ab", ROOT / "scripts" / "kernel_ab.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return module


def test_stores_compare_field_by_field():
    """``same`` of two stores: equal when every field is, and not when one
    id, one name or the augmented flag differs."""
    from dataclasses import replace

    import numpy as np

    from ukge.kgdata import TripleStore

    module = kernel_ab_module()
    empty = np.empty((0, 3), dtype=np.int64)
    store = TripleStore(["a", "b"], ["r"], np.array([[0, 0, 1]]), empty, empty)
    assert module.same(store, replace(store))
    for other in (replace(store, train=np.array([[1, 0, 0]])),
                  replace(store, entity_names=["a", "c"]), replace(store, augmented=True)):
        assert not module.same(store, other)
        assert not module.same(other, store)


def test_hierarchy_scores_compare_bit_for_bit_with_none_in_place():
    """``same`` of two ``hierarchy_scores`` lists: a ``None`` matches only
    ``None``, and floats match only bit for bit."""
    module = kernel_ab_module()
    assert module.same([1.0, None, 0.25], [1.0, None, 0.25])
    for other in ([1.0, 0.0, 0.25], [1.0, None], [1.0, None, 0.25, None],
                  [1.0, None, float.fromhex("0x1.0000000000001p-2")]):
        assert not module.same([1.0, None, 0.25], other)
        assert not module.same(other, [1.0, None, 0.25])
    assert not module.same([0.0], [-0.0])
