"""The hand-written loss kernel of ``ukge.training`` against the autodiff
tape: the loss and every gradient family must agree bit for bit, including
where a numeric guard fires."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tape_oracle import _summed_loss as tape_summed_loss
from tape_oracle import score_triples
import ukge
from ukge import autodiff, geometry, operators, training
from ukge.geometry import EPS_TIME, Signature
from ukge.model import Model, init, layout
from ukge.training import PROB_CLAMP

OPERATORS = ("rotref", "rot", "ref")
GEOMETRIES = ("ultra", "euclidean")
S22 = Signature(2, 2, 1.0)


def assert_kernel_equals_tape(m, pos, neg):
    loss, grads = training._batch_grads(m, pos, neg)
    tape_loss, tape_grads = tape_summed_loss(m, pos, neg)
    assert loss == tape_loss
    assert list(grads) == list(tape_grads) == list(layout(m.sig, 1, 1))
    for name, expected in tape_grads.items():
        assert np.shape(grads[name]) == np.shape(expected), name
        assert np.array_equal(grads[name], expected), name


def random_model(sig, geometry, operator, rng, n_entities=12, n_relations=3, scale=1.0):
    m = init(sig, n_entities, n_relations, seed=int(rng.integers(1 << 30)),
             geometry=geometry, operator=operator, delta=float(rng.normal(0.0, 3.0)))
    m.entities[:] = rng.normal(0.0, scale, m.entities.shape)
    m.biases[:] = rng.normal(0.0, 0.5, m.biases.shape)
    if geometry == "ultra":
        m.mu[:] = rng.normal(0.0, 0.5, m.mu.shape)
    return m


def random_batch(m, rng, n, k):
    pos = np.stack(
        [rng.integers(0, m.n_entities, n), rng.integers(0, m.n_relations, n),
         rng.integers(0, m.n_entities, n)],
        axis=1,
    )
    return pos, training._sample_negatives_batch(pos, k, m.n_entities, rng)


class TestKernelEqualsTape:
    @pytest.mark.parametrize("pq", [(2, 2), (6, 2), (4, 4)])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("k", [0, 5])
    def test_random_batch(self, pq, geometry, operator, k):
        rng = np.random.default_rng([pq[0], pq[1], k, OPERATORS.index(operator)])
        m = random_model(Signature(*pq), geometry, operator, rng)
        # 12 entities and 3 relations: heads, tails and relations repeat
        pos, neg = random_batch(m, rng, 30, k)
        assert_kernel_equals_tape(m, pos, neg)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_repeated_triples_and_ids(self, geometry):
        rng = np.random.default_rng(5)
        m = random_model(Signature(4, 2), geometry, "rotref", rng, n_entities=3)
        pos = np.array([[0, 0, 1]] * 4 + [[1, 0, 0], [2, 1, 2], [2, 2, 2]])
        neg = training._sample_negatives_batch(pos, 3, m.n_entities, rng)
        assert_kernel_equals_tape(m, pos, neg)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pq=st.sampled_from([(2, 2), (4, 2), (4, 4), (6, 2)]),
        geometry=st.sampled_from(GEOMETRIES),
        operator=st.sampled_from(OPERATORS),
        n=st.integers(1, 12),
        k=st.integers(0, 4),
        scale=st.sampled_from([0.01, 1.0, 5.0]),
    )
    def test_hypothesis_batches(self, seed, pq, geometry, operator, n, k, scale):
        rng = np.random.default_rng(seed)
        m = random_model(Signature(*pq), geometry, operator, rng, scale=scale)
        pos, neg = random_batch(m, rng, n, k)
        assert_kernel_equals_tape(m, pos, neg)


def plain_model(entities, operator="rot", delta=0.0, angles=0.0, mu=0.0):
    """A one-relation model on S22 with the given entity rows; zero angles
    and boosts make the relation the identity."""
    entities = np.asarray(entities, dtype=np.float64)
    return Model(
        sig=S22, entities=entities, biases=np.zeros((entities.shape[0], 2)),
        theta=np.full((1, 2), angles), phi=np.full((1, 2), -angles),
        mu=np.full((1, 2), mu), delta=delta, operator=operator,
    )


def leg_terms(m, triples):
    """The guard inputs of the plain distance of ``triples``, through the
    public forward functions."""
    h, r, t = np.asarray(triples).T
    head = geometry.phi(m.entities[h], m.sig)
    moved = operators.relation_transform(
        m.theta[r], m.phi[r], m.mu[r], head, m.sig, m.operator
    )
    tx = geometry.terms_columns(moved.T.copy(), m.sig)
    ty = geometry.terms_columns(geometry.phi(m.entities[t], m.sig).T.copy(), m.sig)
    _, (_, _, cos, angle, arg_xy, arg_yx, _, same) = geometry.manhattan_legs_columns(tx, ty, m.sig)
    alpha = m.sig.alpha
    leg_xy = tx[2] * angle + alpha * np.arccosh(np.clip(arg_xy, 1.0, None))
    leg_yx = ty[2] * angle + alpha * np.arccosh(np.clip(arg_yx, 1.0, None))
    return cos, arg_xy, arg_yx, leg_xy == leg_yx, same


class TestGuards:
    """One batch per numeric guard; each asserts that its guard fires."""

    NEG = np.array([[[0, 0, 1], [1, 0, 0]], [[2, 0, 1], [1, 0, 2]]])

    def test_time_norm_bump(self):
        m = plain_model(
            [[0.3, -0.2, 1e-10, 0.0], [0.1, 0.4, 0.8, 0.6], [-0.5, 0.2, 0.0, 1.0]],
            operator="rotref", angles=0.7, mu=0.3,
        )
        assert np.linalg.norm(m.entities[0, 2:]) < EPS_TIME
        pos = np.array([[0, 0, 1], [1, 0, 0]])
        assert_kernel_equals_tape(m, pos, self.NEG)

    def test_coincident_rows(self):
        m = plain_model([[0.3, -0.2, 1.0, 0.5], [0.1, 0.4, 0.8, 0.6], [0.0, 0.0, 0.0, 1.0]])
        pos = np.array([[0, 0, 0], [1, 0, 1]])
        same = leg_terms(m, pos)[4]
        assert same is not None and np.all(same)
        assert_kernel_equals_tape(m, pos, self.NEG)

    def test_arccos_clamp(self):
        # parallel and antiparallel time blocks: the cosine is exactly +-1
        m = plain_model([[0.3, 0.1, 2.0, 0.0], [-0.2, 0.5, 0.7, 0.0], [0.4, 0.0, -0.7, 0.0]])
        pos = np.array([[0, 0, 1], [0, 0, 2]])
        cos = leg_terms(m, pos)[0]
        np.testing.assert_array_equal(cos, [1.0, -1.0])
        assert_kernel_equals_tape(m, pos, self.NEG)

    def test_arccosh_clamp(self):
        m = plain_model([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.2, 0.1, 1.0, 1.0]])
        pos = np.array([[0, 0, 1], [1, 0, 0]])
        _, arg_xy, arg_yx, _, _ = leg_terms(m, pos)
        assert np.all(arg_xy <= 1.0) and np.all(arg_yx <= 1.0)
        assert_kernel_equals_tape(m, pos, self.NEG)

    def test_exact_leg_tie(self):
        # mirrored space blocks and orthogonal times: both orders cost the same
        m = plain_model([[0.3, 0.4, 1.0, 0.0], [0.4, 0.3, 0.0, 1.0], [0.2, 0.1, 1.0, 1.0]])
        pos = np.array([[0, 0, 1], [1, 0, 0]])
        _, arg_xy, _, tie, _ = leg_terms(m, pos)
        assert np.all(tie) and np.all(arg_xy > 1.0)
        assert_kernel_equals_tape(m, pos, self.NEG)

    @pytest.mark.parametrize("delta", [60.0, -60.0])
    def test_saturated_probability(self, delta):
        m = plain_model(
            [[0.3, -0.2, 1.0, 0.5], [0.1, 0.4, 0.8, 0.6], [-0.5, 0.2, 0.0, 1.0]],
            operator="rotref", angles=0.7, mu=0.3, delta=delta,
        )
        pos = np.array([[0, 0, 1], [1, 0, 2]])
        stacked = np.concatenate([pos, self.NEG.reshape(-1, 3)])
        prob = 1.0 / (1.0 + np.exp(-score_triples(m, *stacked.T)))
        assert np.all((prob <= PROB_CLAMP) | (prob >= 1.0 - PROB_CLAMP))
        assert_kernel_equals_tape(m, pos, self.NEG)


class TestNoTape:
    def test_training_does_not_import_autodiff(self):
        assert not any(
            value is autodiff or getattr(value, "__module__", None) == "ukge.autodiff"
            for value in vars(training).values()
        )
        source = inspect.getsource(training)
        assert not re.search(r"^\s*(from|import)\s.*autodiff", source, re.MULTILINE)

    def test_only_autodiff_imports_autodiff(self):
        """The tape is the tests' oracle: no production module imports it."""
        importers = [
            path.name
            for path in sorted(Path(ukge.__file__).parent.rglob("*.py"))
            if path.name != "autodiff.py"
            and re.search(r"^\s*(from|import)\s.*autodiff", path.read_text(), re.MULTILINE)
        ]
        assert importers == []

    def test_loss_and_gradients_build_no_tensors(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = random_model(Signature(4, 2), "ultra", "rotref", rng)
        pos, neg = random_batch(m, rng, 6, 2)

        def no_tape(*args, **kwargs):
            raise AssertionError("built an autodiff tensor")

        monkeypatch.setattr(autodiff.Tensor, "__init__", no_tape)
        assert np.isfinite(training.bce_loss(m, pos, neg))
        assert all(np.all(np.isfinite(g)) for g in training.gradients(m, pos, neg).values())


class TestBlocks:
    """``_batch_grads`` scores a batch in blocks of at most ``BLOCK_ROWS``
    scored rows; the block size may not move a bit of the loss or the
    gradients."""

    @staticmethod
    def block_rows(monkeypatch, positives, k):
        """Blocks of ``positives`` positives with their ``k`` negatives."""
        monkeypatch.setattr(training, "BLOCK_ROWS", positives * (k + 1))

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("positives", [1, 4])  # 30 = 7 x 4 + a ragged 2
    def test_kernel_equals_tape_in_blocks(self, monkeypatch, geometry, operator, positives):
        rng = np.random.default_rng([positives, OPERATORS.index(operator)])
        m = random_model(Signature(4, 2), geometry, operator, rng)
        pos, neg = random_batch(m, rng, 30, 5)
        self.block_rows(monkeypatch, positives, 5)
        assert_kernel_equals_tape(m, pos, neg)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_no_negatives(self, monkeypatch, geometry):
        rng = np.random.default_rng(11)
        m = random_model(Signature(4, 2), geometry, "rotref", rng)
        pos, neg = random_batch(m, rng, 10, 0)
        assert neg.shape == (10, 0, 3)
        self.block_rows(monkeypatch, 3, 0)
        assert_kernel_equals_tape(m, pos, neg)

    def test_ids_repeated_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(12)
        m = random_model(Signature(4, 2), "ultra", "rotref", rng, n_entities=3)
        pos = np.array([[0, 0, 1], [1, 0, 0], [0, 0, 1], [2, 1, 2], [0, 0, 1]])
        neg = np.tile(np.array([[[0, 0, 2], [1, 0, 1]]]), (5, 1, 1))
        self.block_rows(monkeypatch, 1, 2)
        assert_kernel_equals_tape(m, pos, neg)

    def test_scatter_keeps_batch_order_across_blocks(self, monkeypatch):
        """Positives fill two blocks, then the negatives four.  Entity 0 is
        the head of the two positives of the late positive block and the
        head and a tail of the negatives of the first two positives: the
        tape sums its terms in batch order, all positives first, so a scatter
        that took each positive's negatives next to it would add them in
        another order."""
        rng = np.random.default_rng(14)
        m = random_model(Signature(4, 2), "ultra", "rotref", rng, n_entities=4)
        pos = np.array([[1, 0, 2], [2, 1, 3], [3, 0, 1], [1, 1, 2], [2, 0, 3], [3, 1, 1],
                        [1, 0, 3], [2, 1, 1], [3, 0, 2], [1, 1, 3], [0, 0, 1], [0, 1, 2]])
        neg = np.stack([pos, pos], axis=1)
        neg[:, 0, 0] = pos[:, 0] % 3 + 1
        neg[:, 1, 2] = pos[:, 2] % 3 + 1
        neg[:2] = [[[0, 0, 0], [0, 0, 2]], [[0, 1, 3], [0, 1, 0]]]
        loss_sum, blocks = training._loss_sum, []

        def spy(m, params, pos, neg):
            blocks.append((pos.shape[0], np.size(neg) // 3))
            return loss_sum(m, params, pos, neg)

        monkeypatch.setattr(training, "BLOCK_ROWS", 6)
        monkeypatch.setattr(training, "_loss_sum", spy)
        assert_kernel_equals_tape(m, pos, neg)
        assert blocks == [(6, 0), (6, 0), (0, 6), (0, 6), (0, 6), (0, 6)]

    def test_time_bump_and_negative_zero_in_different_blocks(self, monkeypatch):
        """The ``EPS_TIME`` bump adds ``+0.0`` to every other row of its
        block, which turns an exact ``-0.0`` time coordinate into ``+0.0``
        on the tape's one batch but not in the kernel's other block."""
        m = plain_model(
            [[0.3, -0.2, 1e-10, 0.0], [0.1, 0.4, 0.8, 0.6], [-0.5, 0.2, -0.0, 1.0]],
            operator="rotref", angles=0.7, mu=0.3,
        )
        assert np.linalg.norm(m.entities[0, 2:]) < EPS_TIME
        assert np.signbit(m.entities[2, 2])
        pos = np.array([[0, 0, 1], [2, 0, 1]])
        neg = np.array([[[0, 0, 0], [1, 0, 0]], [[2, 0, 2], [1, 0, 2]]])
        self.block_rows(monkeypatch, 1, 2)
        assert_kernel_equals_tape(m, pos, neg)

    def test_batch_grads_equal_unblocked(self, monkeypatch):
        """Blocked equals unblocked, also with no negatives: 9 positives make
        3 blocks of 3."""
        rng = np.random.default_rng(13)
        m = random_model(Signature(6, 2), "ultra", "rotref", rng, n_entities=20)
        for n, k in ((41, 4), (9, 0)):
            pos, neg = random_batch(m, rng, n, k)
            monkeypatch.setattr(training, "BLOCK_ROWS", 10**9)
            loss, grads = training._batch_grads(m, pos, neg)
            self.block_rows(monkeypatch, 3, k)
            blocked_loss, blocked_grads = training._batch_grads(m, pos, neg)
            assert blocked_loss == loss
            assert list(blocked_grads) == list(grads)
            for name, expected in grads.items():
                assert np.array_equal(blocked_grads[name], expected), name
