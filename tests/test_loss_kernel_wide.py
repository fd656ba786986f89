"""The loss kernel against the autodiff tape at wide signatures, where
numpy sums a row of 8 or more coordinates with eight accumulators; the
element count of the kernel's operator stages."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import SCORING_SIGNATURES
from test_loss_kernel import GEOMETRIES, OPERATORS
from test_loss_kernel import assert_kernel_equals_tape, random_batch, random_model
from ukge import evaluation, operators, training
from ukge.geometry import Signature
from ukge.kgdata import augment_inverse, make_synthetic
from ukge.model import init

S284 = Signature(28, 4)


@pytest.mark.parametrize("sig", SCORING_SIGNATURES, ids=str)
@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("operator", OPERATORS)
def test_kernel_equals_tape(sig, geometry, operator):
    rng = np.random.default_rng([sig.p, sig.q, OPERATORS.index(operator)])
    m = random_model(sig, geometry, operator, rng)
    pos, neg = random_batch(m, rng, 30, 5)
    assert_kernel_equals_tape(m, pos, neg)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_kernel_equals_tape_in_blocks(monkeypatch, geometry):
    """Blocks of 4 positives with their 5 negatives: 30 = 7 x 4 + 2."""
    rng = np.random.default_rng(28)
    m = random_model(S284, geometry, "rotref", rng)
    pos, neg = random_batch(m, rng, 30, 5)
    monkeypatch.setattr(training, "BLOCK_ROWS", 4 * (5 + 1))
    assert_kernel_equals_tape(m, pos, neg)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_batch_counts_the_elements_of_relation_transform(monkeypatch, geometry):
    """The kernel's stages count the elements that ``relation_transform``
    counts on the batch's gathered rows, also when split into blocks, and so
    does ``evaluate`` on its split's gathered (head, relation) rows."""
    rng = np.random.default_rng(30)
    m = random_model(S284, geometry, "rotref", rng)
    pos, neg = random_batch(m, rng, 30, 5)
    h, r, _ = np.concatenate([pos, neg.reshape(-1, 3)]).T
    with operators.count_operations() as expected:
        operators.relation_transform(
            m.theta[r], m.phi[r], m.mu[r], m.entities[h], m.sig, m.operator
        )
    for block_rows in (training.BLOCK_ROWS, 4 * (5 + 1)):
        monkeypatch.setattr(training, "BLOCK_ROWS", block_rows)
        with operators.count_operations() as counted:
            training._batch_grads(m, pos, neg)
        assert counted.elements == expected.elements > 0

    store = augment_inverse(make_synthetic())
    m = init(Signature(6, 2), store.n_entities, store.n_relations, seed=7, geometry=geometry)
    h, r, _ = store.test.T
    with operators.count_operations() as expected:
        operators.relation_transform(
            m.theta[r], m.phi[r], m.mu[r], m.entities[h], m.sig, m.operator
        )
    with operators.count_operations() as counted:
        evaluation.evaluate(m, store)
    assert counted.elements == expected.elements > 0
