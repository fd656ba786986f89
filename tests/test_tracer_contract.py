"""The benchmark's tracer (``perfbench/tracing.py``) patches the package's
functions by name and reads some of their arguments by position.  These
tests run it in-process, read-only, so that a rename or a new signature
fails here and not only in the traced benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ukge import training
from ukge.geometry import Signature
from ukge.kgdata import make_synthetic
from ukge.model import init

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py`` as a module; its ``install`` imports the
    benchmark's ``workloads`` from the same directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_restore_undoes(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._patched
        for owner, attr, original in tracer._patched:
            assert callable(original)
            assert getattr(owner, attr).__wrapped__ is original

        store = make_synthetic()
        m = init(Signature(6, 2), store.n_entities, store.n_relations, seed=1)
        pos = store.train[:5]
        neg = training._sample_negatives_batch(pos, 3, m.n_entities, np.random.default_rng(2))
        training._batch_grads(m, pos, neg)
        assert tracer.counts["training.batches"] == 1
        assert tracer.counts["training.triples_scored"] == 5 + 5 * 3  # positives, negatives
    finally:
        patched = list(tracer._patched)
        tracer.restore()
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original
