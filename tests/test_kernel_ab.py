"""Smoke tests of scripts/kernel_ab.py: one repetition, this checkout's
``src/`` on both sides, then against copies that move one call's result,
and its comparison ``same``; no timing gate."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ukge.kgdata import TripleStore

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


KAB = kernel_ab_module()


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
    assert record["imported_first"] == "parent"  # at the default --seed 1
    found = KAB.simd_found()
    assert record["numpy_simd_found"] == found
    assert f"numpy's SIMD extensions {' '.join(found) or 'none'}" in proc.stdout
    calls = KAB.CALLS  # with --reps 1, each call runs its count once
    assert record["calls"] == calls
    assert ("calls per side, alternating: " + ", ".join(f"{n} {name}" for name, n in calls.items())
            in proc.stdout)
    for side in ("parent", "change"):
        medians = record["medians_ms"][side]
        assert set(medians) == {*calls, *KAB.STAGES}
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
    # a write holds at least the names of both dictionaries, joined once
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
        # a median lies inside its own side's quartiles, so equal medians are never flagged
        assert not differ or record["faults"]["parent"][name] != record["faults"]["change"][name]
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


MUTANTS = [
    # the loss one ulp off fails the batch
    ("training.py", "_exact_log_loss = _log_loss\n\n\ndef _log_loss(p, n_pos):\n"
     "    return np.nextafter(_exact_log_loss(p, n_pos), np.inf)\n", "change", "batch"),
    # the parent side's writer adds an LF: every other call agrees, and the
    # set-up, which writes with the change's tree, loads as before
    ("kgdata.py", "_bulk_write = write_split_tsv\n\n\ndef write_split_tsv(store, split, path):\n"
     "    _bulk_write(store, split, path)\n    with open(path, 'ab') as fh:\n"
     "        fh.write(b'\\n')\n", "parent", "write"),
    # the parent side's read_names counts one entity fewer before the test
    # split: the calls ahead of names agree, and names fails
    ("kgdata.py", "_bulk_read_names = read_names\n\n\ndef read_names(*paths):\n"
     "    entities, relations, n_seen = _bulk_read_names(*paths)\n"
     "    return entities, relations, n_seen - 1\n", "parent", "names"),
    # the parent side's predict prints one line fewer: every other call
    # agrees, and predict fails
    ("cli.py", "_all_top_k = top_k\n\n\ndef top_k(scores, k):\n"
     "    return _all_top_k(scores, k)[:-1]\n", "parent", "predict"),
    # the parent side counts one reachable pair more in every relation that
    # takes the strongly connected components: stats-ring's hierarchy never
    # does and agrees, and the FB15k-237-shaped one fails
    ("kgdata.py", "_exact_reach_counts = _reach_counts\n\n\ndef _reach_counts(heads, tails, n):\n"
     "    total, one_way = _exact_reach_counts(heads, tails, n)\n    return total + 1, one_way\n",
     "parent", "hierarchy-fb"),
]


@pytest.mark.parametrize("module, appended, mutated, fails", MUTANTS, ids=[m[3] for m in MUTANTS])
def test_a_mutant_fails_its_call(tmp_path, module, appended, mutated, fails):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "ukge" / module, "a", encoding="utf-8") as fh:
        fh.write("\n\n" + appended)
    proc = kernel_ab(*((src, SRC) if mutated == "parent" else (SRC, src)))
    assert proc.returncode != 0
    assert proc.stderr.startswith(f"{fails}: the trees' results differ"), proc.stderr


@pytest.mark.parametrize("parent, change, differ", [
    # one tree's noise: medians 3 and 4, each inside the other's quartiles
    ([2, 3, 3, 5, 6], [2, 3, 4, 4, 6], False),
    # one call on each side, as batch runs at --reps 1: equal counts only
    ([7], [7], False),
    ([7], [8], True),
    # the change faults in fresh pages on every call: 40 lies above 3-5
    ([2, 3, 4, 5, 6], [38, 40, 40, 41, 44], True),
])
def test_faults_differ_outside_the_quartiles(parent, change, differ):
    assert KAB.faults_differ(parent, change) is differ
    assert KAB.faults_differ(change, parent) is differ


def test_every_call_is_documented():
    for name in KAB.CALLS:
        assert f"``{name}``" in KAB.__doc__, name


EMPTY = np.empty((0, 3), dtype=np.int64)
STORE = TripleStore(["a", "b"], ["r"], np.array([[0, 0, 1]]), EMPTY, EMPTY)
NAN = np.array([np.nan])
SAME = [
    # stores compare field by field: equal when every field is, and not
    # when one id, one name or the augmented flag differs
    (STORE, replace(STORE), True),
    (STORE, replace(STORE, train=np.array([[1, 0, 0]])), False),
    (STORE, replace(STORE, entity_names=["a", "c"]), False),
    (STORE, replace(STORE, augmented=True), False),
    # hierarchy scores: a None matches only None, floats only bit for bit
    ([1.0, None, 0.25], [1.0, None, 0.25], True),
    ([1.0, None, 0.25], [1.0, 0.0, 0.25], False),
    ([1.0, None, 0.25], [1.0, None], False),
    ([1.0, None, 0.25], [1.0, None, 0.25, None], False),
    ([1.0, None, 0.25], [1.0, None, float.fromhex("0x1.0000000000001p-2")], False),
    ([0.0], [-0.0], False),
    ({"a": 1}, {"b": 1}, False),  # dicts whose keys differ
    (np.arange(3), np.arange(3.0), False),  # int64 against float64 of equal values
    (np.arange(3.0), np.arange(3.0).reshape(1, 3), False),
    (Path("x1"), Path("x2"), True),  # files of the same bytes, written below
    (Path("x1"), Path("y1"), False),
    (NAN, NAN.copy(), True),  # the same NaN bits
    (NAN, (NAN.view(np.uint64) + np.uint64(1)).view(np.float64), False),  # another payload
    # a name dictionary against a list of its names, as a parent holding lists
    (STORE.entity_names, ["a", "b"], True),
    (STORE.entity_names, ["a"], False),
]


@pytest.mark.parametrize("a, b, equal", SAME)
def test_same(tmp_path, monkeypatch, a, b, equal):
    monkeypatch.chdir(tmp_path)
    for path in (a, b):
        if isinstance(path, Path):
            path.write_text(path.name[0])
    assert KAB.same(a, b) is equal and KAB.same(b, a) is equal
