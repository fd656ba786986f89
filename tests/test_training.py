"""Training tests: sampling, loss values, gradients, optimisers, fit."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from ukge.cli import TRAIN_OPTIONS, train_config
from ukge.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    EmptySplitError,
    IdLookupError,
    NonFiniteGradientError,
)
from ukge.geometry import EPS_TIME, Signature
from ukge.kgdata import augment_inverse, make_synthetic
from ukge.model import Model, init, parameters
from ukge.training import (
    OPTIMIZERS,
    Adagrad,
    Adam,
    PARAM_FAMILIES,
    TrainConfig,
    bce_loss,
    fit,
    gradients,
    sample_negatives,
)

from conftest import SCORING_SIGNATURES, assert_close

S22 = Signature(2, 2, 1.0)


def identity_model(n_entities=1, biases=None, delta=0.0):
    """Entities stacked on one manifold point, identity relation."""
    point = np.array([0.0, 0.0, 1.0, 0.0])
    entities = np.tile(point, (n_entities, 1))
    return Model(
        sig=S22,
        entities=entities,
        biases=np.zeros((n_entities, 2)) if biases is None else np.asarray(biases),
        theta=np.zeros((1, 2)),
        phi=np.zeros((1, 2)),
        mu=np.zeros((1, 2)),
        delta=delta,
        operator="rot",
    )


class TestNegativeSampling:
    def test_shape_and_relation_preserved(self, rng):
        neg = sample_negatives((3, 1, 7), 20, 50, rng)
        assert neg.shape == (20, 3)
        assert np.all(neg[:, 1] == 1)
        assert np.all((neg >= 0) & (neg < 50))

    def test_one_side_kept(self, rng):
        neg = sample_negatives((3, 1, 7), 200, 1000, rng)
        kept = (neg[:, 0] == 3) | (neg[:, 2] == 7)
        assert np.all(kept)

    def test_matches_generator_stream(self):
        """Coin block first, then the replacement block, one draw each."""
        rng = np.random.default_rng(77)
        neg = sample_negatives((3, 1, 7), 10, 1000, rng)
        ref = np.random.default_rng(77)
        coin = ref.random(10) < 0.5
        repl = ref.integers(0, 1000, 10)
        np.testing.assert_array_equal(neg[:, 0], np.where(coin, repl, 3))
        np.testing.assert_array_equal(neg[:, 2], np.where(coin, 7, repl))

    def test_head_tail_coin_is_fair(self):
        rng = np.random.default_rng(123)
        neg = sample_negatives((3, 1, 7), 100_000, 10**9, rng)
        # with a huge entity pool, a changed head means the coin chose heads
        freq = np.mean(neg[:, 0] != 3)
        assert abs(freq - 0.5) < 0.01

    def test_deterministic(self):
        a = sample_negatives((0, 0, 1), 16, 9, np.random.default_rng(5))
        b = sample_negatives((0, 0, 1), 16, 9, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestLoss:
    def test_zero_score_gives_log_two(self):
        # identity relation, zero distance, zero biases and margin: p = 1/2
        m = identity_model()
        loss = bce_loss(m, np.array([[0, 0, 0]]))
        assert_close(loss, math.log(2.0), rtol=1e-14)

    def test_negative_term_adds_log_two(self):
        m = identity_model(n_entities=2)
        loss = bce_loss(m, np.array([[0, 0, 0]]), np.array([[[0, 0, 1]]]))
        assert_close(loss, 2.0 * math.log(2.0), rtol=1e-14)

    def test_clamp_bounds_runaway_scores(self):
        m = identity_model(delta=-1e6)  # p = sigmoid(-1e6) clamps to 1e-12
        loss = bce_loss(m, np.array([[0, 0, 0]]))
        assert_close(loss, -math.log(1e-12), rtol=1e-12)

    def test_mean_over_positives(self):
        m = identity_model(delta=0.3)
        one = bce_loss(m, np.array([[0, 0, 0]]))
        two = bce_loss(m, np.array([[0, 0, 0], [0, 0, 0]]))
        assert_close(two, one, rtol=1e-14)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptySplitError):
            bce_loss(identity_model(), np.empty((0, 3), dtype=np.int64))
        with pytest.raises(EmptySplitError):
            gradients(identity_model(), np.empty((0, 3), dtype=np.int64))

    @pytest.mark.parametrize(
        "pos,neg",
        [
            ([[-1, 0, 1]], None),  # would index the last entity
            ([[0, 0, 10**6]], None),
            ([[0, 1, 0]], None),
            ([[0, 0, 0]], [[[0, 0, 1], [0, 0, -2]]]),
            ([[0, 0, 0]], [[[0, -1, 1]]]),
        ],
    )
    def test_ids_outside_the_model_rejected(self, pos, neg):
        m = identity_model(n_entities=2)
        for loss_or_grads in (bce_loss, gradients):
            with pytest.raises(IdLookupError, match="id -?[0-9]+ out of range"):
                loss_or_grads(m, pos, neg)

    @pytest.mark.parametrize("pos,neg", [
        ([[0, 0, 1.5]], None),  # would score tail 1
        ([[0, 0, 0]], [[[0, 0.5, 1]]]),
        (np.array([[True, False, True]]), None),
    ])
    def test_non_integer_ids_rejected(self, pos, neg):
        m = identity_model(n_entities=2)
        for loss_or_grads in (bce_loss, gradients):
            with pytest.raises(IdLookupError, match="must be integers"):
                loss_or_grads(m, pos, neg)

    @pytest.mark.parametrize("pos,neg,shape", [
        ([0, 0, 1, 2], None, r"positives of shape \(4,\)"),
        ([[0, 0, 1], [1, 0, 2]], [[0, 0, 2]] * 3, r"negatives of shape \(3, 3\)"),
        ([[0, 0, 1]], [0, 0], r"negatives of shape \(2,\)"),
    ])
    def test_malformed_batch_shapes_rejected(self, pos, neg, shape):
        m = identity_model(n_entities=3)
        for loss_or_grads in (bce_loss, gradients):
            with pytest.raises(DimensionError, match=shape):
                loss_or_grads(m, pos, neg)


def finite_difference_grads(m, pos, neg, h=1e-5):
    """Central differences of the batch loss in every parameter family."""
    out = {}
    for family in ("entities", "biases", "theta", "phi", "mu"):
        base = getattr(m, family)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            probe = m.clone()
            getattr(probe, family)[idx] = base[idx] + h
            up = bce_loss(probe, pos, neg)
            getattr(probe, family)[idx] = base[idx] - h
            down = bce_loss(probe, pos, neg)
            g[idx] = (up - down) / (2.0 * h)
        out[family] = g
    for delta_shift in (h,):
        probe_up = m.clone()
        probe_up.delta = m.delta + delta_shift
        probe_dn = m.clone()
        probe_dn.delta = m.delta - delta_shift
        out["delta"] = (bce_loss(probe_up, pos, neg) - bce_loss(probe_dn, pos, neg)) / (
            2.0 * delta_shift
        )
    ent = out.pop("entities")
    out["entity_space"] = ent[:, : m.sig.p]
    out["entity_time"] = ent[:, m.sig.p :]
    return out


def max_rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / scale))


class TestGradients:
    def small_batch(self, geometry="ultra"):
        m = init(S22, 5, 2, seed=11, delta=0.5, operator="rotref", geometry=geometry)
        rng = np.random.default_rng(3)
        pos = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 2]])
        neg = np.stack([sample_negatives(row, 6, 5, rng) for row in pos])
        return m, pos, neg

    def test_matches_finite_differences(self):
        m, pos, neg = self.small_batch()
        analytic = gradients(m, pos, neg)
        numeric = finite_difference_grads(m, pos, neg)
        assert set(analytic) == set(PARAM_FAMILIES)
        for family in PARAM_FAMILIES:
            assert max_rel_err(analytic[family], numeric[family]) < 1e-4, family

    def test_matches_finite_differences_euclidean(self):
        m, pos, neg = self.small_batch(geometry="euclidean")
        analytic = gradients(m, pos, neg)
        numeric = finite_difference_grads(m, pos, neg)
        for family in PARAM_FAMILIES:
            if family == "mu":
                continue  # pinned to zero on this path
            assert max_rel_err(analytic[family], numeric[family]) < 1e-4, family

    def test_euclidean_mu_gradient_zero(self):
        m, pos, neg = self.small_batch(geometry="euclidean")
        assert np.all(gradients(m, pos, neg)["mu"] == 0.0)

    def test_delta_gradient_closed_form(self):
        """dL/d(delta) = (1/N) [sum (p_i - 1) + sum p~_ij]."""
        from ukge.model import score

        m, pos, neg = self.small_batch()
        p_pos = [1.0 / (1.0 + math.exp(-score(m, *row))) for row in pos]
        p_neg = [
            1.0 / (1.0 + math.exp(-score(m, *row)))
            for block in neg
            for row in block
        ]
        expected = (sum(p - 1.0 for p in p_pos) + sum(p_neg)) / pos.shape[0]
        assert_close(gradients(m, pos, neg)["delta"], expected, rtol=1e-10)

    def test_untouched_entities_get_zero_gradient(self):
        m, pos, neg = self.small_batch()
        used = set(pos[:, [0, 2]].ravel()) | set(neg[:, :, [0, 2]].ravel())
        g = gradients(m, pos, neg)
        full = np.concatenate([g["entity_space"], g["entity_time"]], axis=1)
        for e in range(5):
            if e not in used:
                assert np.all(full[e] == 0.0)


class TestOptimizers:
    def test_adam_first_step_is_signed_lr(self):
        p = {"w": np.array([1.0, -2.0])}
        opt = Adam({"w": (2,)}, lr=0.1)
        opt.step(p, {"w": np.array([0.5, -0.25])})
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
        assert_close(p["w"], [0.9, -1.9], rtol=1e-6)

    def test_adagrad_steps(self):
        p = {"w": np.array([1.0])}
        opt = Adagrad({"w": (1,)}, lr=0.5)
        eps = 1e-10
        opt.step(p, {"w": np.array([2.0])})
        first = 1.0 - 0.5 * 2.0 / (2.0 + eps)
        assert_close(p["w"], [first], rtol=1e-12)  # 1 - 0.5 * 2/(2 + eps)
        opt.step(p, {"w": np.array([2.0])})
        # accumulator now 8: step = 0.5 * 2 / (sqrt(8) + eps)
        assert_close(p["w"], [first - 1.0 / (np.sqrt(8.0) + eps)], rtol=1e-12)

    def test_adam_moment_decay(self):
        opt = Adam({"w": (1,)}, lr=1.0)
        p = {"w": np.array([0.0])}
        opt.step(p, {"w": np.array([1.0])})
        opt.step(p, {"w": np.array([0.0])})
        assert opt.t == 2
        assert_close(opt.m["w"], [0.09], rtol=1e-12)

    @pytest.mark.parametrize("optimizer", ["adam", "adagrad"])
    def test_in_place_steps_match_the_plain_formulas(self, optimizer):
        """The allocation-free steps keep every operation and operand order
        of the textbook updates, so they match them bit for bit."""
        rng = np.random.default_rng(21)
        shapes = {"w": (40, 8), "b": (40, 2), "s": (3,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        opt = OPTIMIZERS[optimizer](shapes, lr=5e-3)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        b1, b2 = 0.9, 0.999
        for t in range(1, 41):
            grads = {k: rng.normal(0.0, 10.0 ** rng.integers(-6, 3), s)
                     for k, s in shapes.items()}
            opt.step(params, grads)
            for k, g in grads.items():
                if optimizer == "adam":
                    b1c, b2c = 1.0 - b1**t, 1.0 - b2**t
                    m[k] = b1 * m[k] + (1.0 - b1) * g
                    v[k] = b2 * v[k] + (1.0 - b2) * g * g
                    ref[k] -= 5e-3 * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + 1e-8)
                else:
                    v[k] += g * g
                    ref[k] -= 5e-3 * g / (np.sqrt(v[k]) + 1e-10)
            for k in shapes:
                assert np.array_equal(params[k], ref[k]), (t, k)


def synth_setup(geometry="ultra", operator="rot", seed=0):
    store = augment_inverse(make_synthetic(seed=0))
    m = init(S22, store.n_entities, store.n_relations, delta=2.0, seed=seed,
             operator=operator, geometry=geometry)
    return m, store


class TestFit:
    def test_zero_epochs_is_identity(self):
        m, store = synth_setup()
        trained, trace = fit(m, store, TrainConfig(epochs=0))
        assert trace == []
        np.testing.assert_array_equal(trained.entities, m.entities)
        assert trained is not m

    def test_input_model_untouched(self):
        m, store = synth_setup()
        before = m.entities.copy()
        fit(m, store, TrainConfig(epochs=3, batch_size=8, neg_samples=4))
        np.testing.assert_array_equal(m.entities, before)

    def test_loss_decreases(self):
        m, store = synth_setup()
        cfg = TrainConfig(epochs=25, batch_size=8, neg_samples=5, learning_rate=0.03)
        _, trace = fit(m, store, cfg)
        assert len(trace) == 25
        assert trace[-1] < 0.5 * trace[0]

    def test_bitwise_deterministic(self):
        m, store = synth_setup()
        cfg = TrainConfig(epochs=5, batch_size=8, neg_samples=5, seed=7)
        t1, trace1 = fit(m, store, cfg)
        t2, trace2 = fit(m, store, cfg)
        assert trace1 == trace2
        for name in ("entities", "biases", "theta", "phi", "mu"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))

    def test_seed_changes_trajectory(self):
        m, store = synth_setup()
        _, trace1 = fit(m, store, TrainConfig(epochs=3, batch_size=8, seed=1))
        _, trace2 = fit(m, store, TrainConfig(epochs=3, batch_size=8, seed=2))
        assert trace1 != trace2

    def test_delta_never_updated(self):
        m, store = synth_setup()
        trained, _ = fit(m, store, TrainConfig(epochs=3, batch_size=8, neg_samples=4))
        assert trained.delta == m.delta

    def test_euclidean_keeps_mu_frozen(self):
        m, store = synth_setup(geometry="euclidean")
        trained, _ = fit(m, store, TrainConfig(epochs=3, batch_size=8, neg_samples=4))
        assert np.all(trained.mu == 0.0)
        assert not np.array_equal(trained.entities, m.entities)

    def test_time_guard_enforced(self):
        m, store = synth_setup()
        trained, _ = fit(m, store, TrainConfig(epochs=5, batch_size=8, neg_samples=4))
        norms = np.linalg.norm(trained.entities[:, 2:], axis=-1)
        assert np.all(norms >= EPS_TIME)

    def test_epoch_callback(self):
        m, store = synth_setup()
        seen = []
        _, trace = fit(
            m, store, TrainConfig(epochs=4, batch_size=8, neg_samples=4),
            epoch_callback=lambda e, loss, model: seen.append((e, loss, model)),
        )
        assert [e for e, _, _ in seen] == [0, 1, 2, 3]
        assert [l for _, l, _ in seen] == trace

    def test_adagrad_also_learns(self):
        m, store = synth_setup()
        cfg = TrainConfig(epochs=25, batch_size=8, neg_samples=5,
                          learning_rate=0.1, optimizer="adagrad")
        _, trace = fit(m, store, cfg)
        assert trace[-1] < 0.7 * trace[0]

    @pytest.mark.parametrize("geometry", ["ultra", "euclidean"])
    def test_thread_counts_agree_bitwise(self, geometry):
        """Every thread count trains the bits of one thread.  32 triples in
        batches of 10 end with a batch of 2 positives, fewer than 3 or 5
        threads."""
        m, store = synth_setup(geometry=geometry)
        runs = [
            fit(m, store, TrainConfig(epochs=3, batch_size=10, neg_samples=4,
                                      threads=threads))
            for threads in (1, 2, 3, 5)
        ]
        one, trace_one = runs[0]
        assert len(trace_one) == 3
        for trained, trace in runs[1:]:
            assert trace == trace_one
            for name in ("entities", "biases", "theta", "phi", "mu"):
                assert np.array_equal(getattr(trained, name), getattr(one, name)), name

    def test_deterministic_flag_forces_single_thread(self):
        """The train command's ``deterministic`` option reaches ``fit`` as
        one thread, whatever ``threads`` says."""
        options = {k: v[1] for k, v in TRAIN_OPTIONS.items()}
        options.update(epochs=2, batch=16, neg=4, threads=8, deterministic=True)
        det = train_config(options)
        assert det.threads == 1
        options.update(threads=1, deterministic=False)
        one = train_config(options)
        m, store = synth_setup()
        t_det, trace_det = fit(m, store, det)
        t_one, trace_one = fit(m, store, one)
        assert trace_det == trace_one
        np.testing.assert_array_equal(t_det.entities, t_one.entities)

    def test_nan_parameters_raise_divergence(self):
        m, store = synth_setup()
        m.entities[0, 0] = np.nan
        with pytest.raises(DivergenceError) as exc:
            fit(m, store, TrainConfig(epochs=2, batch_size=32, neg_samples=4))
        assert exc.value.epoch == 0
        # last_good holds the state before the failed epoch: the start here
        assert np.isnan(exc.value.last_good.entities[0, 0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("optimizer", ["adam", "adagrad"])
    def test_overflowing_step_raises_divergence(self, optimizer):
        """A finite loss and finite gradients, but ``lr * g`` overflows in
        the optimizer step: the end-of-epoch check names the family."""
        m, store = synth_setup()
        cfg = TrainConfig(epochs=2, batch_size=store.train.shape[0], neg_samples=4,
                          learning_rate=1.7e308, optimizer=optimizer)
        with pytest.raises(DivergenceError, match="'theta' became non-finite") as exc:
            fit(m, store, cfg)
        assert exc.value.epoch == 0
        for name in ("entities", "biases", "theta", "phi", "mu"):
            assert np.all(np.isfinite(getattr(exc.value.last_good, name))), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_coincident_entities_raise_gradient_error(self):
        """Euclidean twin points: the loss is finite (distance exactly 0)
        but the norm derivative at 0 turns the gradient non-finite."""
        from ukge.kgdata import TripleStore

        entities = np.array(
            [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 1.0]]
        )
        m = Model(
            sig=S22, entities=entities, biases=np.zeros((3, 2)),
            theta=np.zeros((1, 2)), phi=np.zeros((1, 2)), mu=np.zeros((1, 2)),
            delta=0.0, operator="rot", geometry="euclidean",
        )
        store = TripleStore(
            ["a", "b", "c"], ["r"],
            np.array([[0, 0, 1]]), np.empty((0, 3), dtype=np.int64),
            np.empty((0, 3), dtype=np.int64),
        )
        with pytest.raises(NonFiniteGradientError) as exc:
            fit(m, store, TrainConfig(epochs=1, batch_size=1, neg_samples=2))
        assert "entities" in str(exc.value)

    def test_store_larger_than_model_rejected(self):
        """Checked before the first batch, not met as an IndexError in one."""
        m, store = synth_setup()
        cfg = TrainConfig(epochs=1, batch_size=8, neg_samples=2)
        for n_entities, n_relations in [
            (store.n_entities - 1, store.n_relations),
            (store.n_entities, store.n_relations - 1),
        ]:
            small = init(m.sig, n_entities, n_relations, seed=0)
            with pytest.raises(IdLookupError, match="store has"):
                fit(small, store, cfg)

    def test_triple_ids_outside_the_store_rejected(self):
        m, store = synth_setup()
        bad = store.train.copy()
        bad[0, 2] = store.n_entities
        with pytest.raises(IdLookupError, match=f"entity id {store.n_entities} out of range"):
            fit(m, replace(store, train=bad), TrainConfig(epochs=1, batch_size=8, neg_samples=2))

    def test_empty_train_split(self):
        m, store = synth_setup()
        empty = type(store)(
            store.entity_names, store.relation_names,
            np.empty((0, 3), dtype=np.int64), store.valid, store.test,
            augmented=True,
        )
        with pytest.raises(EmptySplitError):
            fit(m, empty, TrainConfig(epochs=1))


class TestPlainLoss:
    """``bce_loss`` scores the plain arrays: no tape, the tape's bits."""

    @pytest.mark.parametrize("geometry", ["ultra", "euclidean"])
    @pytest.mark.parametrize("k", [0, 5])
    def test_equals_summed_loss_bitwise(self, geometry, k, monkeypatch):
        from ukge import autodiff, training
        from tape_oracle import _summed_loss

        m = init(Signature(6, 2, 1.0), 30, 4, seed=3, geometry=geometry)
        rng = np.random.default_rng(4)
        m.entities[:] = rng.normal(0.0, 1.0, m.entities.shape)
        m.biases[:] = rng.normal(0.0, 0.5, m.biases.shape)
        pos = np.stack(
            [rng.integers(0, 30, 40), rng.integers(0, 4, 40), rng.integers(0, 30, 40)],
            axis=1,
        )
        neg = training._sample_negatives_batch(pos, k, 30, rng)
        taped = _summed_loss(m, pos, neg)[0] / pos.shape[0]

        def no_tape(*args, **kwargs):
            raise AssertionError("bce_loss built autodiff tensors")

        monkeypatch.setattr(autodiff.Tensor, "__init__", no_tape)
        assert bce_loss(m, pos, neg) == taped

    @pytest.mark.parametrize("geometry", ["ultra", "euclidean"])
    def test_walks_the_blocks_without_vjps(self, geometry, monkeypatch):
        """``bce_loss`` scores the batch in the blocks of ``_batch_grads``,
        runs no VJP, and gives the bits of one unblocked pass."""
        from ukge import training

        m = init(Signature(6, 2, 1.0), 30, 4, seed=3, geometry=geometry)
        rng = np.random.default_rng(6)
        pos = np.stack(
            [rng.integers(0, 30, 11), rng.integers(0, 4, 11), rng.integers(0, 30, 11)],
            axis=1,
        )
        neg = training._sample_negatives_batch(pos, 4, 30, rng)
        unblocked = training._loss_sum(m, parameters(m), pos, neg)[0] / pos.shape[0]
        loss_sum, positives = training._loss_sum, []

        def spy(m, params, pos, neg):
            positives.append(pos.shape[0])
            return loss_sum(m, params, pos, neg)

        def no_vjp(*args):
            raise AssertionError("bce_loss ran the VJPs")

        monkeypatch.setattr(training, "BLOCK_ROWS", 3 * (4 + 1))
        monkeypatch.setattr(training, "_loss_sum", spy)
        monkeypatch.setattr(training, "_row_grads", no_vjp)
        assert bce_loss(m, pos, neg) == unblocked
        assert max(positives) <= 3 and sum(positives) == 11


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=0),
            dict(neg_samples=0),
            dict(learning_rate=0.0),
            dict(learning_rate=-1.0),
            dict(learning_rate=np.inf),
            dict(epochs=-1),
            dict(epochs=1001),
            dict(optimizer="sgd"),
            dict(threads=0),
            dict(seed=-1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs).validate()

    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_effective_threads(self):
        """``threads`` is the thread count ``fit`` uses: no second field
        overrides it."""
        assert TrainConfig(threads=8).threads == 8
        assert not hasattr(TrainConfig, "effective_threads")
        with pytest.raises(TypeError):
            TrainConfig(threads=8, deterministic=True)


class TestOneScoringPath:
    """The tape scores training sees are the scores eval and predict see."""

    @pytest.mark.parametrize("geometry", ["ultra", "euclidean"])
    def test_tape_forward_equals_score_candidates_bitwise(self, geometry):
        """Also with 8 or more space or time coordinates, where the dot
        products take numpy's eight-accumulator branch, and with a time
        block below the floor (entity 5) and a -0.0 time coordinate
        (entity 6) among the candidates."""
        for sig in SCORING_SIGNATURES:
            self.check_signature(sig, geometry)

    def check_signature(self, sig, geometry):
        from tape_oracle import _leaves, score_triples
        from ukge.model import score, score_candidates

        m = init(sig, 40, 3, seed=8, geometry=geometry)
        m.biases[:] = np.random.default_rng(8).normal(0.0, 0.5, m.biases.shape)
        m.entities[5, sig.p :] = 0.0
        m.entities[6, -1] = -0.0
        rng = np.random.default_rng(9)
        triples = np.stack(
            [rng.integers(0, 40, 60), rng.integers(0, 3, 60), rng.integers(0, 40, 60)],
            axis=1,
        )
        tape = score_triples(
            m, triples[:, 0], triples[:, 1], triples[:, 2], _leaves(m)
        ).value
        plain = np.array([score(m, h, r, t) for h, r, t in triples])
        np.testing.assert_array_equal(tape, plain)
        # one query against every candidate, as evaluate and predict score it
        h, r = int(triples[0, 0]), int(triples[0, 1])
        every = np.arange(m.n_entities)
        tape = score_triples(
            m, np.full(40, h), np.full(40, r), every, _leaves(m)
        ).value
        np.testing.assert_array_equal(tape, score_candidates(m, h, r))
        # a candidate equal to the moved head is at exact zero distance
        if geometry == "ultra":
            m.operator = "rot"
            m.theta[r] = m.phi[r] = m.mu[r] = 0.0
            m.entities[7] = m.entities[h]
            scores = score_candidates(m, h, r)
            tape = score_triples(m, np.full(40, h), np.full(40, r), every, _leaves(m)).value
            np.testing.assert_array_equal(tape, scores)
            assert scores[7] == m.biases[h, 0] + m.biases[7, 1] + m.delta


class TestSamplerStream:
    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_one_row_matches_batch_and_reference_stream(self, k):
        from ukge.training import _sample_negatives_batch

        one = sample_negatives((3, 1, 7), k, 1000, np.random.default_rng(k))
        batch = _sample_negatives_batch(
            np.array([[3, 1, 7]]), k, 1000, np.random.default_rng(k)
        )
        np.testing.assert_array_equal(one, batch[0])
        ref = np.random.default_rng(k)
        coin = ref.random(k) < 0.5
        repl = ref.integers(0, 1000, k)
        expected = np.stack(
            [np.where(coin, repl, 3), np.full(k, 1), np.where(coin, 7, repl)], axis=1
        )
        np.testing.assert_array_equal(one, expected)
