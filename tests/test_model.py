"""Model scoring and checkpoint format tests."""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
import tracemalloc

import numpy as np
import pytest

from ukge import CorruptPayloadError
from ukge.errors import (
    ConfigurationError,
    CorruptHeaderError,
    DimensionError,
    IdLookupError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from ukge.geometry import EPS_TIME, Signature, point_terms_columns
from ukge.cli import main as cli_main
from ukge.evaluation import evaluate
from ukge.kgdata import augment_inverse, load_triples, make_synthetic
from ukge.model import (
    TRANSPOSE_BLOCK,
    Model,
    apply_time_guard,
    candidate_tails,
    check_triples,
    dictionary_digest,
    init,
    load,
    parameters,
    save,
    score,
    score_candidates,
)
from ukge.training import TrainConfig, fit

from conftest import assert_close

S22 = Signature(2, 2, 1.0)
S62 = Signature(6, 2, 1.0)


def tiny_model(**overrides) -> Model:
    """Two entities on the manifold, one identity relation (zero angles, rot).

    The points sit at two-leg distance exactly a + b = 1.6 (hyperbolic leg
    0.7, spherical leg 0.9), so the score formula can be checked by hand.
    The second point's coordinates are written out bit for bit, not
    computed: numpy's ``sinh`` rounds by 1 ulp differently on a CPU without
    AVX-512, and :class:`TestFrozenFormat`'s digests pin the format only.
    """
    entities = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [float.fromhex("0x1.8465153d5bdbdp-1"), 0.0,  # sinh(0.7)
             float.fromhex("0x1.8f79b9b0ec829p-1"),  # cosh(0.7) cos(0.9)
             float.fromhex("0x1.f766fe82a4f9bp-1")],  # cosh(0.7) sin(0.9)
        ]
    )
    fields = dict(
        sig=S22,
        entities=entities,
        biases=np.array([[0.25, 0.5], [0.75, 1.0]]),
        theta=np.zeros((1, 2)),
        phi=np.zeros((1, 2)),
        mu=np.zeros((1, 2)),
        delta=0.3,
        operator="rot",
    )
    fields.update(overrides)
    return Model(**fields)


class TestScoring:
    def test_hand_worked_score(self):
        # -1.6^2 + head bias 0.25 + tail bias 1.0 + margin 0.3
        assert_close(score(tiny_model(), 0, 0, 1), -1.01, rtol=1e-9)

    def test_self_score_is_biases_plus_margin(self):
        m = tiny_model()
        # identity relation, zero distance to itself
        assert_close(score(m, 0, 0, 0), 0.25 + 0.5 + 0.3, rtol=0, atol=0)

    def test_margin_shifts_all_scores(self):
        base = tiny_model()
        shifted = tiny_model(delta=2.3)
        for h, t in ((0, 0), (0, 1), (1, 0)):
            gap = score(shifted, h, 0, t) - score(base, h, 0, t)
            assert_close(gap, 2.0, rtol=0, atol=1e-12)

    def test_bias_roles(self):
        m = tiny_model()
        bumped = tiny_model(biases=m.biases + np.array([[0.0, 0.7]]))
        # tail-role bump moves the score; head-role column of the tail doesn't
        assert_close(score(bumped, 0, 0, 1) - score(m, 0, 0, 1), 0.7, atol=1e-12)
        head_only = tiny_model(biases=m.biases + np.array([[0.0, 0.0], [0.4, 0.0]]))
        assert score(head_only, 0, 0, 1) == score(m, 0, 0, 1)

    def test_candidates_match_single_scores(self, rng):
        m = init(S62, 7, 3, seed=5)
        full = score_candidates(m, 2, 1)
        assert full.shape == (7,)
        for t in range(7):
            assert score(m, 2, 1, t) == full[t]

    def test_candidate_subset(self):
        m = init(S62, 7, 3, seed=5)
        full = score_candidates(m, 2, 1)
        sub = score_candidates(m, 2, 1, tails=candidate_tails(m, [4, 0, 6])[0])
        assert_close(sub, full[[4, 0, 6]], rtol=0, atol=0)

    def test_id_range_checks(self):
        m = tiny_model()
        with pytest.raises(IdLookupError):
            score(m, 2, 0, 0)
        with pytest.raises(IdLookupError):
            score(m, 0, 1, 0)
        with pytest.raises(IdLookupError):
            score(m, 0, 0, 5)
        with pytest.raises(IdLookupError):
            candidate_tails(m, np.array([0, 2]))

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [1.7, 0.9, np.float64(0.0), True, np.array([0.0])])
    def test_non_integer_ids_rejected(self, position, bad):
        """A float or bool id is refused in every position, not truncated
        (``score(m, 0, 0, 1.7)`` used to score tail 1)."""
        m = tiny_model()
        ids = [0, 0, 1]
        ids[position] = bad
        with pytest.raises(IdLookupError, match="must be integers"):
            score(m, *ids)

    def test_integer_types_accepted(self):
        m = tiny_model()
        expected = score(m, 0, 0, 1)
        for ids in ((np.int32(0), np.uint8(0), np.int64(1)), (np.array(0), 0, np.array(1))):
            assert score(m, *ids) == expected
        np.testing.assert_array_equal(
            candidate_tails(m, np.array([1], dtype=np.uint16))[0][1], candidate_tails(m, [1])[0][1]
        )

    def test_euclidean_distance_path(self):
        m = tiny_model(
            geometry="euclidean",
            entities=np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 0.0, 0.0]]),
        )
        # zero-angle rot flavour leaves vectors alone; |z0 - z1|^2 = 25
        assert_close(score(m, 0, 0, 1), -25.0 + 0.25 + 1.0 + 0.3, rtol=1e-12)

    def test_euclidean_ignores_boosts(self):
        flat = tiny_model(geometry="euclidean")
        boosted = tiny_model(geometry="euclidean", mu=np.full((1, 2), 1.7))
        assert score(flat, 0, 0, 1) == score(boosted, 0, 0, 1)


def same_bits(actual, expected) -> bool:
    """Equal shapes and equal bytes in C order (no NaN occurs here)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


class TestCheckTriples:
    @pytest.mark.parametrize("bad", ["negative", "past the bound"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("row", [0, -1])
    def test_one_bad_id_is_named(self, row, column, bad):
        """One bad id in the first or the last row fails the reductions, and
        the message names it, as the mask alone did."""
        triples = np.random.default_rng(3).integers(0, 3, (50, 3))
        bound = 3 if column == 1 else 5  # 5 entities, 3 relations
        value = -1 if bad == "negative" else bound
        triples[row, column] = value
        kind = "relation" if column == 1 else "entity"
        with pytest.raises(IdLookupError, match=rf"^{kind} id {value} out of range \[0, {bound}\)$"):
            check_triples(triples, 5, 3)

    def test_the_first_bad_entity_is_named_before_any_relation(self):
        triples = np.array([[0, 9, 1], [0, 0, 7], [8, 0, 1]])
        with pytest.raises(IdLookupError, match="^entity id 7 out of range"):
            check_triples(triples, 5, 3)


class TestCandidateTails:
    """The side is the transposed candidate table, whatever the candidate
    count is relative to the block that ``candidate_tails`` transposes."""

    COUNTS = [1, TRANSPOSE_BLOCK - 1, TRANSPOSE_BLOCK, TRANSPOSE_BLOCK + 1,
              2 * TRANSPOSE_BLOCK + 3]

    @pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
    @pytest.mark.parametrize("geometry", ["ultra", "euclidean"])
    @pytest.mark.parametrize("count", COUNTS)
    def test_side_is_the_transposed_table(self, monkeypatch, count, geometry, subset):
        rng = np.random.default_rng(count)
        n_entities = count + 7 if subset else count
        m = init(S62, n_entities, 2, seed=count, geometry=geometry)
        m.entities += rng.normal(0.0, 1.0, m.entities.shape)
        m.biases[:] = rng.normal(0.0, 1.0, m.biases.shape)
        cand = rng.permutation(n_entities)[:count] if subset else None
        expected = m.entities.T if cand is None else m.entities.T[:, cand]
        seen = []

        def capture(z, sig):
            seen.append(z.copy())
            return point_terms_columns(z, sig)

        monkeypatch.setattr("ukge.geometry.point_terms_columns", capture)
        (side, b_t), saved = candidate_tails(m, cand)
        assert same_bits(b_t, m.biases[:, 1] if cand is None else m.biases[cand, 1])
        if geometry == "euclidean":
            assert seen == []
            assert saved is None
            assert same_bits(side, expected)
        else:
            (raw,) = seen
            assert same_bits(raw, expected)
            want, want_saved = point_terms_columns(expected.copy(), S62)
            assert len(side) == len(want)
            for got, term in zip(side + saved, want + want_saved):
                assert same_bits(got, term)


class TestInit:
    def test_deterministic(self):
        a = init(S62, 11, 4, seed=42)
        b = init(S62, 11, 4, seed=42)
        for name in ("entities", "biases", "theta", "phi", "mu"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        c = init(S62, 11, 4, seed=43)
        assert not np.array_equal(a.entities, c.entities)

    def test_draw_order_and_scales(self):
        """The parameter draws come in a fixed order from one generator."""
        m = init(S62, 5, 3, seed=9)
        rng = np.random.default_rng(9)
        space = rng.normal(0.0, 0.01, (5, 6))
        time = rng.normal(0.0, 0.01, (5, 2))
        time[:, 0] += 1.0
        theta = rng.uniform(-np.pi, np.pi, (3, 4))
        phi = rng.uniform(-np.pi, np.pi, (3, 4))
        mu = rng.normal(0.0, 0.01, (3, 2))
        np.testing.assert_array_equal(m.entities, np.concatenate([space, time], axis=1))
        np.testing.assert_array_equal(m.theta, theta)
        np.testing.assert_array_equal(m.phi, phi)
        np.testing.assert_array_equal(m.mu, mu)
        assert np.all(m.biases == 0.0)

    def test_time_norms_above_floor(self):
        m = init(S62, 50, 2, seed=0)
        norms = np.linalg.norm(m.entities[:, 6:], axis=-1)
        assert np.all(norms >= EPS_TIME)

    def test_euclidean_shares_angle_draws(self):
        u = init(S62, 5, 3, seed=9)
        e = init(S62, 5, 3, seed=9, geometry="euclidean")
        np.testing.assert_array_equal(u.theta, e.theta)
        np.testing.assert_array_equal(u.phi, e.phi)
        np.testing.assert_array_equal(u.entities, e.entities)
        assert np.all(e.mu == 0.0)

    def test_defaults(self):
        m = init(S22, 2, 1)
        assert m.operator == "rotref"
        assert m.geometry == "ultra"
        assert m.delta == 6.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            init(S22, 0, 1)
        with pytest.raises(ConfigurationError):
            init(S22, 1, 0)
        with pytest.raises(ConfigurationError):
            init(S22, 2, 1, operator="spiral")
        with pytest.raises(ConfigurationError):
            init(S22, 2, 1, geometry="projective")

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_margin_rejected(self, delta):
        with pytest.raises(ConfigurationError, match="margin must be finite"):
            init(S22, 2, 1, delta=delta)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            init(S22, 2, 1, seed=-1)

    @pytest.mark.parametrize("field", ["n_entities", "n_relations", "seed"])
    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(2.0), True, "2", None])
    def test_non_integer_sizes_and_seed_rejected(self, field, bad):
        """A typed error, not numpy's TypeError, and ``True`` is not 1."""
        args = {"n_entities": 2, "n_relations": 1, "seed": 0, field: bad}
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            init(S22, args.pop("n_entities"), args.pop("n_relations"), **args)

    def test_numpy_integer_sizes_and_seed_accepted(self):
        m = init(S22, np.int64(3), np.int32(2), seed=np.uint8(4))
        assert (m.n_entities, m.n_relations) == (3, 2)
        assert same_bits(m.entities, init(S22, 3, 2, seed=4).entities)


class TestModelContainer:
    @pytest.mark.parametrize("p,q", [(3, 1), (4, 1), (3, 2)])
    def test_odd_signature_rejected(self, p, q):
        # no relation operator exists for odd p or q, and load refuses them
        with pytest.raises(ConfigurationError, match="even"):
            init(Signature(p, q, 1.0), 3, 1)

    def test_shape_validation(self):
        good = tiny_model()
        with pytest.raises(DimensionError):
            tiny_model(biases=np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            tiny_model(theta=np.zeros((1, 3)))
        with pytest.raises(DimensionError):
            tiny_model(mu=np.zeros((1, 1)))
        with pytest.raises(DimensionError):
            tiny_model(entities=good.entities[:, :3])

    def test_counts(self):
        m = init(S62, 7, 3)
        assert m.n_entities == 7
        assert m.n_relations == 3

    def test_clone_is_independent(self):
        m = init(S62, 4, 2, seed=1)
        c = m.clone()
        c.entities[0, 0] += 1.0
        c.biases[0, 0] += 1.0
        assert m.entities[0, 0] != c.entities[0, 0]
        assert m.biases[0, 0] == 0.0

    def test_time_guard_bumps_degenerate_rows(self):
        entities = np.array([[1.0, 2.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        apply_time_guard(entities, S22)
        assert entities[0, 2] == EPS_TIME
        np.testing.assert_array_equal(entities[1], [1.0, 2.0, 3.0, 4.0])


class TestLayout:
    """The entity table is coordinate-major in memory: the F-ordered float64
    view of a C-ordered (d, N) buffer, which the scoring paths read in place."""

    @staticmethod
    def built(how: str, tmp_path) -> Model:
        m = init(S62, 9, 4, seed=3)
        if how == "clone":
            return m.clone()
        if how == "load":
            save(m, str(tmp_path / "m.ukge"))
            return load(str(tmp_path / "m.ukge"))
        if how == "fit":
            store = augment_inverse(make_synthetic(seed=0))
            m = init(S62, store.n_entities, store.n_relations, seed=3)
            return fit(m, store, TrainConfig(epochs=1, batch_size=8, neg_samples=4))[0]
        if how == "c arrays":
            c = {k: np.ascontiguousarray(v) for k, v in parameters(m).items() if k != "delta"}
            assert c["entities"].flags.c_contiguous and not c["entities"].flags.f_contiguous
            back = Model(sig=S62, delta=m.delta, operator=m.operator, **c)
            assert same_bits(back.entities, m.entities)
            return back
        return m

    @pytest.mark.parametrize("how", ["init", "clone", "load", "fit", "c arrays"])
    def test_every_model_holds_it_coordinate_major(self, how, tmp_path):
        m = self.built(how, tmp_path)
        assert m.entities.dtype == np.float64
        assert m.entities.flags.f_contiguous and not m.entities.flags.c_contiguous
        assert m.entities.T.flags.c_contiguous
        for name in ("biases", "theta", "phi", "mu"):
            assert getattr(m, name).flags.c_contiguous

    def test_euclidean_tails_are_the_table_itself(self):
        m = init(S62, 40, 2, seed=1, geometry="euclidean")
        side = candidate_tails(m)[0][0]
        assert np.shares_memory(side, m.entities)
        assert same_bits(side, m.entities.T)

    @pytest.mark.parametrize("geometry", ["ultra", "euclidean"])
    def test_evaluate_and_predict_leave_the_table_unchanged(self, geometry, tmp_path,
                                                            monkeypatch, capsys):
        data = str(tmp_path / "data")
        assert cli_main(["synth", "--out", data]) == 0
        files = [f"{data}/{split}.tsv" for split in ("train", "valid", "test")]
        store = augment_inverse(load_triples(*files))
        m = init(S62, store.n_entities, store.n_relations, seed=2, geometry=geometry,
                 entity_digest=dictionary_digest(store.entity_names),
                 relation_digest=dictionary_digest(store.relation_names))
        m.entities += np.random.default_rng(2).normal(0.0, 1.0, m.entities.shape)
        before = m.entities.copy(order="K")
        evaluate(m, store)
        assert same_bits(m.entities, before)

        ckpt = str(tmp_path / "m.ukge")
        save(m, ckpt)
        loaded = []

        def keep(path):
            loaded.append(load(path))
            return loaded[-1]

        monkeypatch.setattr("ukge.model.load", keep)
        args = ["--train", files[0], "--valid", files[1], "--test", files[2]]
        head, rel = store.entity_names[0], store.relation_names[0]
        assert cli_main(["predict", "--model", ckpt, *args, "--head", head, "--rel", rel]) == 0
        assert capsys.readouterr().out
        (predicted,) = loaded
        assert same_bits(predicted.entities, before)

    @pytest.mark.parametrize("q", [8, 10])
    def test_time_guard_bumps_the_columns_the_forward_bumps(self, q):
        """Time norms a few ulps either side of the floor, on an F-ordered
        table: the guard's norms are the forward's, added pairwise, so both
        bump the same columns by the same shift."""
        sig = Signature(q, q, 1.0)
        rng = np.random.default_rng(q)
        n = 512
        time = rng.normal(0.0, 1.0, (n, q))
        target = EPS_TIME * (1.0 + rng.integers(-8, 9, n) * 2.0**-52)
        time *= (target / np.sqrt(np.sum(time * time, axis=1)))[:, None]
        table = np.asfortranarray(np.concatenate([rng.normal(0.0, 1.0, (n, q)), time], axis=1))
        before = table.copy(order="K")
        apply_time_guard(table, sig)
        guarded = np.flatnonzero(np.any(table != before, axis=1))
        _, (t, _, _) = point_terms_columns(before.T, sig)
        forward = np.flatnonzero(np.any(t != before.T[q:], axis=0))
        assert 0 < guarded.size < n
        assert np.array_equal(guarded, forward)
        assert np.array_equal(table.T[q:], t)


class TestDigest:
    def test_frozen_value(self):
        assert (
            dictionary_digest(["a", "b"])
            == "7e18f737311b2dc3b2f269dd78396b0351f14fb66efa879f768cb23181883c78"
        )

    def test_order_sensitive(self):
        assert dictionary_digest(["a", "b"]) != dictionary_digest(["b", "a"])


class TestCheckpoint:
    def roundtrip(self, m, tmp_path):
        path = str(tmp_path / "m.ukge")
        save(m, path)
        return path, load(path)

    def test_roundtrip_bitwise(self, tmp_path):
        m = init(S62, 9, 4, seed=3, delta=1.25, entity_digest="eee", relation_digest="rrr")
        path, back = self.roundtrip(m, tmp_path)
        for name in ("entities", "biases", "theta", "phi", "mu"):
            np.testing.assert_array_equal(getattr(back, name), getattr(m, name))
        assert back.delta == m.delta
        assert back.sig == m.sig
        assert back.operator == m.operator
        assert back.geometry == m.geometry
        assert back.entity_digest == "eee"
        assert back.relation_digest == "rrr"

    def test_roundtrip_euclidean_flavours(self, tmp_path):
        m = init(S22, 3, 2, seed=1, operator="ref", geometry="euclidean")
        _, back = self.roundtrip(m, tmp_path)
        assert back.operator == "ref"
        assert back.geometry == "euclidean"

    def test_save_is_deterministic(self, tmp_path):
        m = init(S62, 9, 4, seed=3)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        save(m, p1)
        save(m, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_save_load_save_identical(self, tmp_path):
        m = init(S62, 9, 4, seed=3)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        save(m, p1)
        save(load(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "m.ukge")
        save(init(S22, 2, 1), path)
        raw = bytearray(open(path, "rb").read())
        raw[0] = ord("X")
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_too_short_file(self, tmp_path):
        path = str(tmp_path / "m.ukge")
        open(path, "wb").write(b"UKGE\x01")
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_future_version(self, tmp_path):
        path = str(tmp_path / "m.ukge")
        save(init(S22, 2, 1), path)
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = struct.pack("<I", 2)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "m.ukge")
        save(init(S22, 2, 1), path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
        with pytest.raises(TruncatedPayloadError):
            load(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "m.ukge")
        save(init(S22, 2, 1), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_header_cut_short(self, tmp_path):
        path = str(tmp_path / "m.ukge")
        save(init(S22, 2, 1), path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:14])
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_garbled_header_json(self, tmp_path):
        path = str(tmp_path / "m.ukge")
        save(init(S22, 2, 1), path)
        raw = bytearray(open(path, "rb").read())
        raw[12] = ord("X")  # first header byte: '{' -> 'X'
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_invalid_signature_in_header(self, tmp_path):
        """A header whose p < q must be rejected as corrupt."""
        import json

        header = {
            "p": 1, "q": 2, "alpha": 1.0, "n_entities": 1, "n_relations": 1,
            "operator": "rotref", "geometry": "ultra",
            "entity_digest": "", "relation_digest": "",
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path = str(tmp_path / "m.ukge")
        with open(path, "wb") as fh:
            fh.write(b"UKGE" + struct.pack("<I", 1) + struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(b"\x00" * 8 * (3 + 2 + 1 + 1 + 2 + 1))
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load(str(tmp_path / "nope.ukge"))

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_not_a_regular_file(self):
        with pytest.raises(CorruptHeaderError, match="not a regular file"):
            load(os.devnull)

    def test_huge_promise_is_truncated_before_any_allocation(self, tmp_path):
        """The header's payload size is checked against the file's before
        the payload buffer exists: a promise of 2**40 entities (far beyond
        memory) raises at once, allocating next to nothing."""
        header = {
            "p": 2, "q": 2, "alpha": 1.0, "n_entities": 2**40, "n_relations": 1,
            "operator": "rot", "geometry": "ultra",
            "entity_digest": "", "relation_digest": "",
        }
        path = str(tmp_path / "m.ukge")
        _write_checkpoint(path, header, _payload_floats(2, 2, 2, 1))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(TruncatedPayloadError, match="header promises"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 1 << 20

    def test_file_shrinking_while_read_is_truncated(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.ukge")
        save(init(S22, 2, 1), path)
        real_fstat = os.fstat

        def fstat_then_shrink(fd):
            info = real_fstat(fd)
            os.truncate(path, info.st_size - 8)
            return info

        monkeypatch.setattr(os, "fstat", fstat_then_shrink)
        with pytest.raises(TruncatedPayloadError, match="header promises"):
            load(path)

    def test_loaded_families_are_separate_native_arrays(self, tmp_path):
        _, back = self.roundtrip(init(S62, 9, 4, seed=3), tmp_path)
        families = [v for k, v in parameters(back).items() if k != "delta"]
        for k, arr in zip(("entities", "biases", "theta", "phi", "mu"), families):
            assert arr.dtype == np.float64 and arr.dtype.isnative
            assert arr.flags.writeable and arr.flags.aligned
            # the entity table is coordinate-major, every other family row-major
            assert arr.flags.f_contiguous if k == "entities" else arr.flags.c_contiguous
        for i, a in enumerate(families):
            for b in families[i + 1 :]:
                assert not np.shares_memory(a, b)
        assert type(back.delta) is float

    @pytest.mark.parametrize("geometry", ["ultra", "euclidean"])
    def test_fit_on_loaded_model_writes_the_same_bytes(self, tmp_path, geometry):
        store = augment_inverse(make_synthetic(seed=0))
        m = init(S22, store.n_entities, store.n_relations, delta=2.0, seed=4,
                 operator="rotref", geometry=geometry)
        _, back = self.roundtrip(m, tmp_path)
        cfg = TrainConfig(epochs=2, batch_size=8, neg_samples=4, seed=5)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        save(fit(m, store, cfg)[0], p1)
        save(fit(back, store, cfg)[0], p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestFrozenFormat:
    """``save`` output pinned byte for byte for a model built without RNG, so
    that reordering or reshaping families in both ``save`` and ``load`` at
    once cannot pass unnoticed."""

    PINNED = {
        ("ultra", "rotref"): "d365284c24bd497d15a616c2f10562a1b08c444b55ee7a9644b0cdf00def9c96",
        ("ultra", "rot"): "cae0d6546f1cb9932a98495ccd623090de394f26bc25003c409a1ffc85440c93",
        ("ultra", "ref"): "7dc03299c11ff9cec6b6282fee2c29707503805cd0c916dccd671d3f95f4fb3c",
        ("euclidean", "rotref"): "6b103006ad475e20ead91590f060b5e54ba5a0fd5c95696106c9baee8ade7572",
        ("euclidean", "rot"): "1d5e9e6721cb493ae4656101cb8bbb321b1f30b2a2d51a9f797b3970ae9e9996",
        ("euclidean", "ref"): "b0088c6105e1ec8c7a837c079cc579daba1ed5617e6eab8eec2f5c1522f8cb34",
    }

    @pytest.mark.parametrize("geometry, operator", sorted(PINNED))
    def test_save_bytes_are_pinned(self, tmp_path, geometry, operator):
        # distinct values in theta, phi and mu so that swapping any two shows
        m = tiny_model(
            theta=np.array([[0.1, -0.2]]),
            phi=np.array([[0.3, -0.4]]),
            mu=np.array([[0.5, -0.6]]),
            operator=operator,
            geometry=geometry,
            entity_digest="e" * 64,
            relation_digest="r" * 64,
        )
        path = str(tmp_path / "m.ukge")
        save(m, path)
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert digest == self.PINNED[geometry, operator]


def _write_checkpoint(path: str, header, n_floats: int) -> None:
    """A checkpoint with the given JSON header and ``n_floats`` zero values."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(b"UKGE" + struct.pack("<II", 1, len(blob)) + blob)
        fh.write(b"\x00" * 8 * n_floats)


def _payload_floats(p: int, q: int, n_e: int, n_r: int) -> int:
    """Values a header promises: entities, biases, theta, phi, mu, delta."""
    return n_e * (p + q) + n_e * 2 + 2 * n_r * ((p + q) // 2) + n_r * q + 1


class TestHeaderValidation:
    """Every header field is checked; the payload always has the size the
    header promises, so only the field under test is wrong."""

    GOOD = dict(
        p=2, q=2, alpha=1.0, n_entities=2, n_relations=1, operator="rot",
        geometry="ultra", entity_digest="", relation_digest="",
    )

    BAD = {
        "unknown operator": dict(operator="bogus"),
        "unknown geometry": dict(geometry="flat"),
        "integer entity digest": dict(entity_digest=5),
        "null relation digest": dict(relation_digest=None),
        "zero entities": dict(n_entities=0),
        "zero relations": dict(n_relations=0),
        "odd p": dict(p=3),
        "odd q": dict(p=4, q=1),
        "string dimension": dict(p="2"),
        "boolean count": dict(n_relations=True),
        "null alpha": dict(alpha=None),
        "extra field": dict(comment="hello"),
    }

    def forge(self, tmp_path, header) -> str:
        dims = [
            header[k] if type(header.get(k)) is int else self.GOOD[k]
            for k in ("p", "q", "n_entities", "n_relations")
        ]
        path = str(tmp_path / "m.ukge")
        _write_checkpoint(path, header, _payload_floats(*dims))
        return path

    def test_good_header_loads(self, tmp_path):
        m = load(self.forge(tmp_path, self.GOOD))
        assert (m.n_entities, m.n_relations, m.operator) == (2, 1, "rot")

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_field_is_corrupt_header(self, tmp_path, case):
        path = self.forge(tmp_path, {**self.GOOD, **self.BAD[case]})
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_header_must_be_an_object(self, tmp_path):
        path = str(tmp_path / "m.ukge")
        _write_checkpoint(path, [2, 2], _payload_floats(2, 2, 2, 1))
        with pytest.raises(CorruptHeaderError):
            load(path)


class TestNonFinitePayload:
    #: first value of each family in the payload of ``tiny_model()``
    OFFSETS = {"entities": 0, "biases": 8, "theta": 12, "phi": 14, "mu": 16, "delta": 18}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", sorted(OFFSETS))
    def test_rejected_naming_the_family(self, tmp_path, family, bad):
        path = str(tmp_path / "m.ukge")
        save(tiny_model(), path)
        raw = bytearray(open(path, "rb").read())
        at = len(raw) - 8 * (19 - self.OFFSETS[family])
        raw[at : at + 8] = struct.pack("<d", bad)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CorruptPayloadError, match=repr(family)):
            load(path)


    @pytest.mark.parametrize("family", sorted(OFFSETS))
    def test_save_refuses_and_keeps_the_target(self, tmp_path, family):
        path = str(tmp_path / "m.ukge")
        save(tiny_model(), path)
        before = open(path, "rb").read()
        m = tiny_model()
        if family == "delta":
            m = tiny_model(delta=np.nan)
        else:
            getattr(m, family).flat[0] = np.nan
        with pytest.raises(CorruptPayloadError, match=repr(family)):
            save(m, path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["m.ukge"]


class TestAtomicSave:
    def test_failed_replace_keeps_old_bytes_and_no_temp_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.ukge")
        save(tiny_model(), path)
        before = open(path, "rb").read()

        def fail(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="simulated rename failure"):
            save(tiny_model(delta=9.0), path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["m.ukge"]

    def test_synced_before_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd)))
        monkeypatch.setattr(
            os, "replace", lambda a, b: (calls.append("replace"), real_replace(a, b))
        )
        path = str(tmp_path / "m.ukge")
        save(tiny_model(), path)
        assert calls == ["fsync", "replace"]
        assert os.listdir(tmp_path) == ["m.ukge"]
        assert load(path).delta == 0.3
