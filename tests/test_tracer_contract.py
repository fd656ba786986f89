"""The benchmark's tracer (``perfbench/tracing.py``) patches the package's
functions by name and reads some of their arguments by position.  These
tests run it in-process, read-only, so that a rename or a new signature
fails here and not only in the traced benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ukge import evaluation, training
from ukge.geometry import Signature
from ukge.kgdata import augment_inverse, make_synthetic
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


def test_evaluate_counts_what_the_tracer_reads(tracing, monkeypatch):
    """Under the tracer, ``evaluate`` makes one ``filtered_rank`` call per
    query with the filter index as ``_index``, so ``evaluation.unfiltered``
    equals the competitors left by the known tails, and
    ``model.candidates_scored`` counts exactly the tails that
    ``_verify_block`` scored."""
    store = augment_inverse(make_synthetic(seed=2))
    m = init(Signature(6, 2), store.n_entities, store.n_relations, seed=5)
    verified, verify = [], evaluation._verify_block

    def counted(*args):
        block = verify(*args)
        verified.extend(entry[1].size for entry in block)  # the tails each query verified
        return block

    monkeypatch.setattr(evaluation, "_verify_block", counted)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        evaluation.evaluate(m, store)
    finally:
        tracer.restore()
    known = {}
    for h, r, t in store.all_triples().tolist():
        known.setdefault((h, r), set()).add(t)
    unfiltered = sum(m.n_entities - len(known[h, r] - {t}) - 1 for h, r, t in store.test.tolist())
    assert tracer.counts["evaluation.queries"] == len(verified) == store.test.shape[0]
    assert tracer.counts["evaluation.unfiltered"] == unfiltered
    assert tracer.counts["model.candidates_scored"] == sum(verified) > 0
