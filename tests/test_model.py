"""Model scoring and checkpoint format tests."""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from ukge import CorruptPayloadError
from ukge.errors import (
    ConfigurationError,
    CorruptHeaderError,
    DimensionError,
    IdLookupError,
    SignatureMismatchError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from ukge.geometry import EPS_TIME, Signature
from ukge.model import (
    Model,
    apply_time_guard,
    dictionary_digest,
    init,
    load,
    save,
    score,
    score_candidates,
)

from conftest import assert_close

S22 = Signature(2, 2, 1.0)
S62 = Signature(6, 2, 1.0)


def tiny_model(**overrides) -> Model:
    """Two entities on the manifold, one identity relation (zero angles, rot).

    The points sit at two-leg distance exactly a + b = 1.6 (hyperbolic leg
    0.7, spherical leg 0.9), so the score formula can be checked by hand.
    """
    a, b = 0.7, 0.9
    entities = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [np.sinh(a), 0.0, np.cosh(a) * np.cos(b), np.cosh(a) * np.sin(b)],
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
        sub = score_candidates(m, 2, 1, np.array([4, 0, 6]))
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
            score_candidates(m, 0, 0, np.array([0, 2]))

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

    def test_relation_params_accessor(self):
        m = init(S62, 4, 3, seed=1)
        r = m.relation_params(2)
        np.testing.assert_array_equal(r.theta, m.theta[2])
        np.testing.assert_array_equal(r.mu, m.mu[2])
        with pytest.raises(IdLookupError):
            m.relation_params(3)

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

    def test_expected_signature(self, tmp_path):
        m = init(S22, 2, 1, seed=0)
        path = str(tmp_path / "m.ukge")
        save(m, path)
        load(path, expected_sig=S22)  # matching is fine
        with pytest.raises(SignatureMismatchError):
            load(path, expected_sig=Signature(4, 2, 1.0))

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
