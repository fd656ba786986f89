"""Relation-operator tests.

The dense oracle here assembles the stage matrices directly from 2x2 blocks
with plain numpy, independently of the O(d) apply path, so the two routes
check each other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_oracle
from ukge import geometry, operators
from ukge.errors import ConfigurationError, DimensionError
from ukge.geometry import Signature, dist_manhattan, manifold_defect, phi, psi_inv, qdot
from ukge.operators import (
    OPERATOR_MODES,
    REFLECTION,
    ROTATION,
    RelationParams,
    as_dense,
    block_orthogonal_apply,
    count_operations,
    hyper_rot_apply,
    j_orth_defect,
    relation_apply,
    relation_param_count,
    relation_transform,
    require_even,
    signature_matrix,
    transform_columns,
)

from conftest import assert_close, assert_same_bits, random_manifold_points
from dense_boost import lorentz_boost

S11 = Signature(1, 1, 1.0)
S22 = Signature(2, 2, 1.0)
S42 = Signature(4, 2, 1.0)
S62 = Signature(6, 2, 1.0)


# --- independent dense oracle ---------------------------------------------------


def rot2(t: float) -> np.ndarray:
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def ref2(t: float) -> np.ndarray:
    return np.array([[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]])


def dense_stage(angles, mode: str, d: int) -> np.ndarray:
    out = np.zeros((d, d))
    block = rot2 if mode == ROTATION else ref2
    for i, t in enumerate(angles):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block(t)
    return out


def dense_hyper(mu, sig: Signature) -> np.ndarray:
    out = np.eye(sig.d)
    for i, m in enumerate(mu):
        ch, sh = np.cosh(m), np.sinh(m)
        s, t = i, sig.p + i
        out[s, s] = ch
        out[s, t] = sh
        out[t, s] = sh
        out[t, t] = ch
    return out


def dense_oracle(r: RelationParams, sig: Signature, operator: str) -> np.ndarray:
    u_mode, v_mode = OPERATOR_MODES[operator]
    u = dense_stage(r.theta, u_mode, sig.d)
    v = dense_stage(r.phi, v_mode, sig.d)
    return u @ dense_hyper(r.mu, sig) @ v


# --- Givens stage ---------------------------------------------------------------


class TestGivens:
    def test_rotation_quarter_turn(self):
        # (1, 2) rotated by pi/2 lands on (-2, 1)
        out = block_orthogonal_apply(
            np.full(2, np.pi / 2), np.array([1.0, 2.0, 1.0, 2.0]), S22, ROTATION
        )
        assert_close(out, [-2.0, 1.0, -2.0, 1.0], atol=1e-15)

    def test_reflection_quarter_turn(self):
        # reflection at pi/2 swaps the pair
        out = block_orthogonal_apply(
            np.full(2, np.pi / 2), np.array([1.0, 2.0, 1.0, 2.0]), S22, REFLECTION
        )
        assert_close(out, [2.0, 1.0, 2.0, 1.0], atol=1e-15)

    def test_reflection_at_zero_negates_second(self):
        out = block_orthogonal_apply(
            np.zeros(2), np.array([1.0, 2.0, 3.0, 4.0]), S22, REFLECTION
        )
        assert_close(out, [1.0, -2.0, 3.0, -4.0])

    def test_rotation_at_zero_is_identity(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert_close(block_orthogonal_apply(np.zeros(2), v, S22, ROTATION), v)

    def test_rotation_inverse(self, rng):
        t = rng.uniform(-np.pi, np.pi, 3)
        v = rng.normal(size=(5, 6))
        there = block_orthogonal_apply(t, v, S42, ROTATION)
        back = block_orthogonal_apply(-t, there, S42, ROTATION)
        assert_close(back, v, atol=1e-14)

    def test_reflection_involution(self, rng):
        t = rng.uniform(-np.pi, np.pi, 3)
        v = rng.normal(size=(5, 6))
        there = block_orthogonal_apply(t, v, S42, REFLECTION)
        back = block_orthogonal_apply(t, there, S42, REFLECTION)
        assert_close(back, v, atol=1e-14)

    def test_rotation_angles_add(self, rng):
        """Rotations in the same pair plane compose by angle addition."""
        t1 = rng.uniform(-np.pi, np.pi, 2)
        t2 = rng.uniform(-np.pi, np.pi, 2)
        v = rng.normal(size=4)
        chained = block_orthogonal_apply(
            t1, block_orthogonal_apply(t2, v, S22, ROTATION), S22, ROTATION
        )
        direct = block_orthogonal_apply(t1 + t2, v, S22, ROTATION)
        assert_close(chained, direct, atol=1e-14)

    def test_preserves_euclidean_norm(self, rng):
        v = rng.normal(size=(7, 6))
        t = rng.uniform(-np.pi, np.pi, 3)
        for mode in (ROTATION, REFLECTION):
            out = np.asarray(block_orthogonal_apply(t, v, S42, mode))
            assert_close(
                np.linalg.norm(out, axis=-1), np.linalg.norm(v, axis=-1), rtol=1e-13
            )

    def test_odd_length_rejected(self):
        with pytest.raises(DimensionError):
            block_orthogonal_apply(np.zeros(2), np.zeros(3), S22, ROTATION)

    def test_angle_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            block_orthogonal_apply(np.zeros(3), np.zeros(4), S22, ROTATION)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            block_orthogonal_apply(np.zeros(2), np.zeros(4), S22, "shear")

    def test_block_stage_needs_even_signature(self):
        with pytest.raises(ConfigurationError):
            block_orthogonal_apply(np.zeros(2), np.zeros(4), Signature(3, 1, 1.0), ROTATION)

    @pytest.mark.parametrize("p,q", [(2, 2), (4, 2), (6, 4)])
    def test_even_signatures_pass(self, p, q):
        require_even(Signature(p, q, 1.0))

    @pytest.mark.parametrize("p,q", [(3, 1), (4, 1), (3, 2), (5, 5)])
    def test_odd_signatures_rejected(self, p, q):
        with pytest.raises(ConfigurationError, match="even"):
            require_even(Signature(p, q, 1.0))


# --- hyperbolic rotation stage --------------------------------------------------


class TestHyperRot:
    def test_unit_boost(self):
        # mu = ln 2: cosh = 1.25, sinh = 0.75, so (0, 1) -> (0.75, 1.25)
        out = hyper_rot_apply(np.array([np.log(2.0)]), np.array([0.0, 1.0]), S11)
        assert_close(out, [0.75, 1.25])

    def test_pairing_order(self):
        """Space dim i couples with time dim p + i; other boosts stay put."""
        mu = np.array([np.log(2.0), 0.0])
        out = hyper_rot_apply(mu, np.array([0.0, 5.0, 1.0, 7.0]), S22)
        assert_close(out, [0.75, 5.0, 1.25, 7.0])

    def test_middle_block_untouched(self, rng):
        x = rng.normal(size=(3, 6))
        mu = rng.normal(size=2)
        out = np.asarray(hyper_rot_apply(mu, x, S42))
        assert_close(out[:, 2:4], x[:, 2:4], rtol=0, atol=0)

    def test_inverse(self, rng):
        x = rng.normal(size=(4, 6))
        mu = rng.normal(size=2)
        back = hyper_rot_apply(-mu, hyper_rot_apply(mu, x, S42), S42)
        assert_close(back, x, atol=1e-13)

    def test_preserves_bilinear_form(self, rng):
        x = rng.normal(size=(6, 8))
        mu = rng.normal(size=2)
        out = hyper_rot_apply(mu, x, S62)
        assert_close(qdot(out, out, S62), qdot(x, x, S62), rtol=1e-11, atol=1e-11)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            hyper_rot_apply(np.zeros(2), np.zeros(5), S42)
        with pytest.raises(DimensionError):
            hyper_rot_apply(np.zeros(3), np.zeros(6), S42)


# --- dense boost helper -----------------------------------------------------------


class TestLorentzBoost:
    def test_single_space_dim(self):
        # |b| = 0.75 gives gamma = 1.25; matches the mu = ln 2 shear
        assert_close(lorentz_boost(np.array([0.75])), [[1.25, 0.75], [0.75, 1.25]])

    def test_matches_hyper_rot_stage(self):
        mu = np.arcsinh(0.75)
        dense = hyper_rot_apply(np.array([mu]), np.eye(2), S11)
        assert_close(np.asarray(dense).T, lorentz_boost(np.array([0.75]), S11))

    def test_zero_boost_is_identity(self):
        assert_close(lorentz_boost(np.zeros(3)), np.eye(4), rtol=0, atol=0)

    def test_j_orthogonal(self, rng):
        sig = Signature(5, 1, 1.0)
        for _ in range(20):
            b = rng.normal(0.0, 2.0, 5)
            assert j_orth_defect(lorentz_boost(b, sig), sig) < 1e-12

    def test_symmetric(self, rng):
        m = lorentz_boost(rng.normal(size=4))
        assert_close(m, m.T, rtol=0, atol=0)

    def test_validation(self):
        with pytest.raises(DimensionError):
            lorentz_boost(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            lorentz_boost(np.zeros(0))
        with pytest.raises(ConfigurationError):
            lorentz_boost(np.zeros(2), S22)
        with pytest.raises(DimensionError):
            lorentz_boost(np.zeros(3), Signature(5, 1, 1.0))


# --- whole-operator behaviour -----------------------------------------------------


class TestRelationOperator:
    def test_matches_dense_oracle(self, rng):
        for sig in (S22, S62):
            for flavour in OPERATOR_MODES:
                r = RelationParams.random(sig, rng)
                m = dense_oracle(r, sig, flavour)
                x = rng.normal(size=(9, sig.d))
                fast = np.asarray(relation_apply(r, x, sig, flavour))
                assert_close(fast, x @ m.T, atol=1e-10)
                assert_close(as_dense(r, sig, flavour), m, atol=1e-12)

    @pytest.mark.parametrize("params,points", [
        pytest.param((n,), (n,), id=str(n)) for n in (1, 2, 5, 6, 40)
    ] + [
        pytest.param((), (), id="one"), pytest.param((2, 3), (2, 3), id="2x3"),
        pytest.param((), (7,), id="one-relation"), pytest.param((7,), (), id="one-point"),
        pytest.param((3, 1), (4,), id="3x1-by-4"),
    ])
    def test_columns_equal_the_rows_bitwise(self, rng, params, points):
        """``transform_columns`` gives each column the bits that the tape
        oracle's row-wise ``relation_transform`` gives its row, with fewer
        columns than the 5 relations (trig of the gathered columns) or at
        least as many (trig of the relation table); the public
        ``relation_transform``, ``block_orthogonal_apply`` and
        ``hyper_rot_apply`` give each point those bits, C-ordered, with the
        batch shapes ``params`` and ``points`` broadcast."""
        sig = Signature(6, 2, 1.0)
        theta, phi = rng.normal(size=(2, 5, sig.d // 2))
        mu = rng.normal(size=(5, sig.q))
        rows = rng.integers(0, 5, params)
        x = rng.normal(size=points + (sig.d,))
        batch = np.broadcast_shapes(params, points)
        xb = np.broadcast_to(x, batch + (sig.d,))
        cols = np.broadcast_to(rows, batch).ravel()
        for flavour in OPERATOR_MODES:
            expected = tape_oracle.relation_transform(theta[rows], phi[rows], mu[rows], xb, sig, flavour)
            moved, _ = transform_columns(theta, phi, mu, cols, xb.reshape(-1, sig.d).T.copy(), sig, flavour)
            np.testing.assert_array_equal(moved, expected.reshape(-1, sig.d).T)
            got = relation_transform(theta[rows], phi[rows], mu[rows], x, sig, flavour)
            assert got.flags.c_contiguous
            assert_same_bits(got, expected)
        for mode in (ROTATION, REFLECTION):
            got = block_orthogonal_apply(theta[rows], x, sig, mode)
            assert got.flags.c_contiguous
            assert_same_bits(got, tape_oracle.givens_apply(theta[rows], xb, mode))
        got = hyper_rot_apply(mu[rows], x, sig)
        assert got.flags.c_contiguous
        assert_same_bits(got, tape_oracle.boost_apply(mu[rows], xb, sig))

    def test_j_orthogonal_all_flavours(self, rng):
        for sig in (S22, S62, Signature(28, 4, 1.0)):
            for flavour in OPERATOR_MODES:
                for _ in range(10):
                    r = RelationParams.random(sig, rng)
                    defect = j_orth_defect(as_dense(r, sig, flavour), sig)
                    assert defect < 1e-9

    def test_maps_manifold_to_manifold(self, rng):
        for sig in (S22, S62):
            x = random_manifold_points(sig, 40, rng)
            r = RelationParams.random(sig, rng)
            y = relation_apply(r, x, sig)
            assert float(np.max(manifold_defect(y, sig))) < 1e-9

    def test_preserves_pairwise_form(self, rng):
        x = random_manifold_points(S62, 10, rng)
        y = random_manifold_points(S62, 10, rng)
        r = RelationParams.random(S62, rng)
        before = qdot(x, y, S62)
        after = qdot(relation_apply(r, x, S62), relation_apply(r, y, S62), S62)
        assert_close(after, before, rtol=1e-10, atol=1e-10)

    def test_identity_params_identity_map(self, rng):
        """rot flavour with all angles and boosts zero is the identity."""
        half = S62.d // 2
        r = RelationParams(np.zeros(half), np.zeros(half), np.zeros(2))
        x = rng.normal(size=(5, 8))
        assert_close(relation_apply(r, x, S62, "rot"), x, atol=0)

    def test_unknown_flavour_rejected(self, rng):
        r = RelationParams.random(S22, rng)
        with pytest.raises(ConfigurationError):
            relation_apply(r, np.zeros(4), S22, "spiral")

    def test_param_validation(self, rng):
        r = RelationParams(np.zeros(3), np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):
            r.validate(S22)
        with pytest.raises(DimensionError):
            RelationParams(np.zeros(2), np.zeros(2), np.zeros(1)).validate(S22)
        with pytest.raises(ConfigurationError):
            RelationParams(np.array([np.nan, 0.0]), np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):
            RelationParams(np.zeros((2, 2)), np.zeros(2), np.zeros(2))

    def test_param_count(self):
        assert relation_param_count(S62) == 10
        assert relation_param_count(Signature(28, 4, 1.0)) == 36
        r = RelationParams.random(S62, np.random.default_rng(0))
        assert r.n_params == relation_param_count(S62)

    def test_random_params_angle_range(self):
        r = RelationParams.random(S62, np.random.default_rng(7))
        assert np.all(np.abs(r.theta) < np.pi)
        assert np.all(np.abs(r.phi) < np.pi)

    def test_gradient_through_transform(self, rng):
        """Angle/boost gradients agree with central differences."""
        from conftest import central_diff

        x = rng.normal(size=(3, 4))
        theta0 = rng.uniform(-1.0, 1.0, 2)
        phi0 = rng.uniform(-1.0, 1.0, 2)
        mu0 = rng.normal(size=2)
        w = rng.normal(size=(3, 4))  # fixed projection to get a scalar

        def loss_np(theta, phi, mu):
            out = relation_transform(theta, phi, mu, x, S22)
            return float(np.sum(np.asarray(out) * w))

        g_theta, g_phi, g_mu = tape_oracle.tape_grad(
            lambda t, f, m: tape_oracle.relation_transform(t, f, m, x, S22) * w, theta0, phi0, mu0
        )
        assert_close(
            g_theta, central_diff(lambda a: loss_np(a, phi0, mu0), theta0), rtol=1e-6
        )
        assert_close(
            g_phi, central_diff(lambda a: loss_np(theta0, a, mu0), phi0), rtol=1e-6
        )
        assert_close(
            g_mu, central_diff(lambda a: loss_np(theta0, phi0, a), mu0), rtol=1e-6
        )


# --- relation patterns ------------------------------------------------------------


class TestPatterns:
    """Closure properties the operator family can realise exactly."""

    def test_symmetry_pure_reflection(self, rng):
        # theta = 0, mu = 0 leaves a lone reflection stage, an involution
        half = S62.d // 2
        r = RelationParams(np.zeros(half), rng.uniform(-np.pi, np.pi, half), np.zeros(2))
        x = random_manifold_points(S62, 25, rng)
        twice = relation_apply(r, relation_apply(r, x, S62), S62)
        assert float(np.max(np.abs(np.asarray(twice) - x))) < 1e-9
        dense = as_dense(r, S62)
        assert_close(dense, dense.T, atol=1e-12)

    def test_antisymmetry_moves_points(self, rng):
        """Reflection blocks away from the fixed angles move generic points."""
        half = S62.d // 2
        angles = rng.uniform(0.2, 2.9, half) * rng.choice([-1.0, 1.0], half)
        r = RelationParams(np.zeros(half), angles, np.zeros(2))
        x = random_manifold_points(S62, 25, rng)
        moved = np.asarray(relation_apply(r, x, S62))
        assert np.all(np.linalg.norm(moved - x, axis=-1) > 1e-3)
        twice = relation_apply(r, moved, S62)
        assert float(np.max(np.abs(np.asarray(twice) - x))) < 1e-9

    def test_inversion_opposite_rotations(self, rng):
        half = S62.d // 2
        t = rng.uniform(-np.pi, np.pi, half)
        fwd = RelationParams(t, np.zeros(half), np.zeros(2))
        rev = RelationParams(-t, np.zeros(half), np.zeros(2))
        x = random_manifold_points(S62, 25, rng)
        back = relation_apply(rev, relation_apply(fwd, x, S62, "rot"), S62, "rot")
        assert float(np.max(np.abs(np.asarray(back) - x))) < 1e-9

    def test_composition_angle_sum(self, rng):
        half = S62.d // 2
        t2 = rng.uniform(-1.5, 1.5, half)
        t3 = rng.uniform(-1.5, 1.5, half)
        r1 = RelationParams(t2 + t3, np.zeros(half), np.zeros(2))
        r2 = RelationParams(t2, np.zeros(half), np.zeros(2))
        r3 = RelationParams(t3, np.zeros(half), np.zeros(2))
        x = random_manifold_points(S62, 25, rng)
        chained = relation_apply(r2, relation_apply(r3, x, S62, "rot"), S62, "rot")
        direct = relation_apply(r1, x, S62, "rot")
        assert float(np.max(np.abs(np.asarray(chained) - np.asarray(direct)))) < 1e-9


# --- metric matrix and defect ------------------------------------------------------


class TestSignatureMatrix:
    def test_layout(self):
        assert_close(signature_matrix(S22), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_defect_of_identity(self):
        assert j_orth_defect(np.eye(4), S22) == 0.0

    def test_defect_example(self):
        # M = diag(2,1,1,1): M^T J M - J = diag(3,0,0,0)
        assert j_orth_defect(np.diag([2.0, 1.0, 1.0, 1.0]), S22) == 3.0

    def test_defect_shape_check(self):
        with pytest.raises(DimensionError):
            j_orth_defect(np.eye(3), S22)


# --- operation accounting -----------------------------------------------------------


class TestOperationCounting:
    def test_counts_scale_linearly_in_dimension(self, rng):
        sizes = {}
        for p in (6, 30, 126):
            sig = Signature(p, 2, 1.0)
            r = RelationParams.random(sig, rng)
            x = rng.normal(size=sig.d)
            with count_operations() as c:
                relation_apply(r, x, sig)
            sizes[sig.d] = c.elements
        slope = np.log(sizes[128] / sizes[8]) / np.log(128 / 8)
        assert 0.85 < slope < 1.15

    def test_counter_inactive_outside_context(self, rng):
        r = RelationParams.random(S22, rng)
        with count_operations() as c:
            relation_apply(r, np.zeros(4), S22)
        seen = c.elements
        assert seen > 0
        relation_apply(r, np.zeros(4), S22)  # not recorded
        assert c.elements == seen

    def test_nested_blocks_all_count(self, rng):
        """Every open block counts, and closing an inner block leaves the
        outer one counting (it used to stop it)."""
        r = RelationParams.random(S22, rng)
        with count_operations() as outer:
            with count_operations() as inner:
                relation_apply(r, np.zeros(4), S22)
            once = inner.elements
            relation_apply(r, np.zeros(4), S22)
        assert once > 0 and inner.elements == once
        assert outer.elements == 2 * once

    def test_batch_scales_with_rows(self, rng):
        r = RelationParams.random(S22, rng)
        with count_operations() as c1:
            relation_apply(r, rng.normal(size=(10, 4)), S22)
        with count_operations() as c2:
            relation_apply(r, rng.normal(size=(40, 4)), S22)
        assert c2.elements > 3 * c1.elements


# --- property: every sampled operator is J-orthogonal -------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    flavour=st.sampled_from(sorted(OPERATOR_MODES)),
    pq=st.sampled_from([(2, 2), (4, 2), (6, 4)]),
)
def test_operator_always_j_orthogonal(seed, flavour, pq):
    sig = Signature(pq[0], pq[1], 1.0)
    r = RelationParams.random(sig, np.random.default_rng(seed))
    r.mu *= 2.0  # boosts of scale 2
    assert j_orth_defect(as_dense(r, sig, flavour), sig) < 1e-9


# --- the public stages run the column kernels ----------------------------------------


def forbid_column_kernels(monkeypatch):
    """Make the coordinate-major kernels that train, evaluate and predict
    run raise: a public stage that runs them then raises too."""

    def kernel(*args, **kwargs):
        raise AssertionError("ran a column kernel")

    for owner, name in [(geometry, "point_terms_columns"), (geometry, "terms_columns"),
                        (geometry, "manhattan_legs_columns"), (operators, "_givens_columns"),
                        (operators, "_boost_columns"), (operators, "transform_columns")]:
        monkeypatch.setattr(owner, name, kernel)


@pytest.mark.parametrize("stage", [
    lambda r, x: phi(x, S22),
    lambda r, x: dist_manhattan(x, x[::-1], S22),
    lambda r, x: block_orthogonal_apply(r.theta, x, S22, ROTATION),
    lambda r, x: hyper_rot_apply(r.mu, x, S22),
    lambda r, x: relation_transform(r.theta, r.phi, r.mu, x, S22),
    lambda r, x: relation_apply(r, x, S22),
    lambda r, x: as_dense(r, S22),
], ids=["phi", "dist_manhattan", "block_orthogonal_apply", "hyper_rot_apply",
        "relation_transform", "relation_apply", "as_dense"])
def test_public_stages_run_the_column_kernels(stage, rng, monkeypatch):
    r = RelationParams.random(S22, rng)
    x = random_manifold_points(S22, 3, rng)
    assert np.all(np.isfinite(stage(r, x)))
    forbid_column_kernels(monkeypatch)
    with pytest.raises(AssertionError, match="column kernel"):
        stage(r, x)


# --- typed errors -----------------------------------------------------------------------


Z2, Z3, Z4, Z6 = np.zeros(2), np.zeros(3), np.zeros(4), np.zeros(6)
S32, S21 = Signature(3, 2, 1.0), Signature(2, 1, 1.0)

#: (name, call, error): every malformed argument of the stages, each with
#: the error it must raise
TYPED_ERRORS = [
    ("dist_manhattan batches", lambda: dist_manhattan(np.zeros((2, 4)), np.zeros((3, 4)), S22),
     DimensionError),
    ("dist_manhattan size", lambda: dist_manhattan(Z3, Z4, S22), DimensionError),
    ("qdot batches", lambda: qdot(np.zeros((2, 4)), np.zeros((3, 4)), S22), DimensionError),
    ("qdot size", lambda: qdot(Z4, Z3, S22), DimensionError),
    ("phi size", lambda: phi(Z3, S22), DimensionError),
    ("phi scalar", lambda: phi(1.0, S22), DimensionError),
    ("psi_inv batches", lambda: psi_inv((np.zeros((2, 2)), np.ones((1, 2)) / np.sqrt(2.0)), S22),
     DimensionError),
    ("psi_inv space size", lambda: psi_inv((Z3, np.array([1.0, 0.0])), S22), DimensionError),
    ("psi_inv time size", lambda: psi_inv((Z2, np.array([1.0, 0.0, 0.0])), S22), DimensionError),
    ("givens batches",
     lambda: block_orthogonal_apply(np.zeros((2, 2)), np.zeros((3, 4)), S22, ROTATION),
     DimensionError),
    ("givens points", lambda: block_orthogonal_apply(Z2, Z3, S22, ROTATION), DimensionError),
    ("givens angles", lambda: block_orthogonal_apply(Z3, Z4, S22, ROTATION), DimensionError),
    ("givens mode", lambda: block_orthogonal_apply(Z2, Z4, S22, "shear"), ConfigurationError),
    ("givens odd p", lambda: block_orthogonal_apply(Z2, Z4, S32, ROTATION), ConfigurationError),
    ("givens odd q",
     lambda: block_orthogonal_apply(Z2, Z4, S21, ROTATION), ConfigurationError),
    ("boost batches", lambda: hyper_rot_apply(np.zeros((2, 2)), np.zeros((3, 6)), S42),
     DimensionError),
    ("boost points", lambda: hyper_rot_apply(Z2, np.zeros(5), S42), DimensionError),
    ("boost magnitudes", lambda: hyper_rot_apply(Z3, Z6, S42), DimensionError),
    ("transform batches",
     lambda: relation_transform(np.zeros((2, 2)), Z2, Z2, np.zeros((3, 4)), S22), DimensionError),
    ("transform theta", lambda: relation_transform(Z3, Z2, Z2, Z4, S22), DimensionError),
    ("transform phi", lambda: relation_transform(Z2, Z3, Z2, Z4, S22), DimensionError),
    ("transform mu", lambda: relation_transform(Z2, Z2, Z3, Z4, S22), DimensionError),
    ("transform x", lambda: relation_transform(Z2, Z2, Z2, Z3, S22), DimensionError),
    ("transform operator", lambda: relation_transform(Z2, Z2, Z2, Z4, S22, "spiral"),
     ConfigurationError),
    ("transform odd p", lambda: relation_transform(Z2, Z2, Z2, Z4, S32), ConfigurationError),
    ("transform odd q", lambda: relation_transform(Z2, Z2, Z2, Z4, S21), ConfigurationError),
    ("apply theta",
     lambda: relation_apply(RelationParams(Z3, Z2, Z2), Z4, S22), DimensionError),
    ("apply mu", lambda: relation_apply(RelationParams(Z2, Z2, Z3), Z4, S22), DimensionError),
    ("apply operator",
     lambda: relation_apply(RelationParams(Z2, Z2, Z2), Z4, S22, "spiral"), ConfigurationError),
    ("dense operator", lambda: as_dense(RelationParams(Z2, Z2, Z2), S22, "spiral"),
     ConfigurationError),
]


@pytest.mark.parametrize("call,error", [case[1:] for case in TYPED_ERRORS],
                         ids=[case[0] for case in TYPED_ERRORS])
def test_malformed_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()
