"""Pseudo-hyperboloid geometry: frozen examples, invariants, gradients."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SCORING_SIGNATURES,
    assert_same_bits,
    central_diff,
    random_free_params,
    random_manifold_points,
)
import tape_oracle
from ukge.errors import (
    ConfigurationError,
    DegeneratePointError,
    DimensionError,
    PreconditionError,
)
from ukge.evaluation import ULPS, cos_shrink, legs_margin
from ukge.geometry import (
    EPS_TIME,
    Signature,
    _legs_forward,
    apply_time_guard,
    cosh_argument,
    dist_hyper,
    dist_manhattan,
    dist_sphere,
    dot_columns,
    manhattan_legs_columns,
    manifold_defect,
    norm,
    on_manifold,
    phi,
    point_terms_columns,
    project_conic,
    psi,
    psi_inv,
    qdot,
    space_radius,
    split_spacetime,
    terms_columns,
)
from ukge.operators import relation_transform

S11 = Signature(1, 1, 1.0)
S21 = Signature(2, 1, 1.0)
S22 = Signature(2, 2, 1.0)


class TestSignature:
    def test_valid(self):
        s = Signature(6, 2, 0.5)
        assert s.d == 8

    @pytest.mark.parametrize("p,q,alpha", [(1, 2, 1.0), (0, 1, 1.0), (2, 0, 1.0)])
    def test_order_constraint(self, p, q, alpha):
        with pytest.raises(ConfigurationError):
            Signature(p, q, alpha)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_alpha_constraint(self, alpha):
        with pytest.raises(ConfigurationError):
            Signature(2, 2, alpha)

    def test_non_integer_dimensions(self):
        with pytest.raises(ConfigurationError):
            Signature(2.0, 2, 1.0)

    @pytest.mark.parametrize("p,q", [(True, True), (6, True), (np.bool_(True), 1), (6.0, 2)])
    def test_bools_and_floats_are_not_integers(self, p, q):
        """The rule of ``check_int``: a bool or a float is not an integer."""
        with pytest.raises(ConfigurationError, match="must be an integer"):
            Signature(p, q)

    def test_numpy_integers_are_stored_as_int(self, tmp_path):
        """A numpy integer is an integer, kept as ``int``: the signature
        equals, hashes and checkpoints as the one built from ``int``s."""
        from ukge.model import init, save

        sig = Signature(np.int64(6), np.int32(2))
        assert type(sig.p) is int and type(sig.q) is int
        assert sig == Signature(6, 2) and hash(sig) == hash(Signature(6, 2))
        for name, s in (("numpy", sig), ("int", Signature(6, 2))):
            save(init(s, 5, 2, seed=1), str(tmp_path / name))
        assert (tmp_path / "numpy").read_bytes() == (tmp_path / "int").read_bytes()


class TestBilinearForm:
    def test_qdot_example(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([4.0, 5.0, 6.0])
        assert float(qdot(x, y, S21)) == -4.0  # 4 + 10 - 18

    def test_qdot_batched(self, rng):
        x = rng.normal(size=(7, 4))
        y = rng.normal(size=(7, 4))
        expect = (x[:, :2] * y[:, :2]).sum(-1) - (x[:, 2:] * y[:, 2:]).sum(-1)
        np.testing.assert_allclose(qdot(x, y, S22), expect)

    def test_same_bits_in_any_memory_order(self, rng):
        """F-ordered, strided and batch-transposed points give ``qdot``,
        ``manifold_defect`` and ``cosh_argument`` the bits of C-ordered ones,
        whose sums ``np.sum`` adds pairwise."""
        sig = Signature(28, 4)
        x, y = (random_manifold_points(sig, 400, rng).reshape(20, 20, sig.d) for _ in range(2))
        layouts = [
            np.asfortranarray,
            lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
            lambda a: np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2),
        ]
        for layout in layouts:
            a, b = layout(x), layout(y)
            assert_same_bits(qdot(a, b, sig), qdot(x, y, sig))
            assert_same_bits(cosh_argument(a, b, sig), cosh_argument(x, y, sig))
            assert_same_bits(manifold_defect(a, sig), manifold_defect(x, sig))

    def test_wrong_dimension_raises(self):
        with pytest.raises(DimensionError):
            qdot(np.ones(3), np.ones(3), S22)

    def test_manifold_defect_examples(self):
        # sqrt(10)**2 rounds to 10 + 2 ulp, hence the tiny residual
        assert float(manifold_defect(np.array([3.0, np.sqrt(10.0)]), S11)) <= 1e-14
        assert float(manifold_defect(np.array([1.0, 1.0]), S11)) == 1.0
        assert bool(on_manifold(np.array([3.0, np.sqrt(10.0)]), S11))
        assert not bool(on_manifold(np.array([1.0, 1.0]), S11))

    def test_split_spacetime(self):
        s, t = split_spacetime(np.arange(4.0), S22)
        np.testing.assert_array_equal(np.asarray(s), [0.0, 1.0])
        np.testing.assert_array_equal(np.asarray(t), [2.0, 3.0])


class TestDiffeomorphism:
    def test_phi_example(self):
        out = np.asarray(phi(np.array([3.0, 7.0]), S11))
        np.testing.assert_allclose(out, [3.0, np.sqrt(10.0)], rtol=1e-15)
        out = np.asarray(phi(np.array([3.0, -7.0]), S11))
        np.testing.assert_allclose(out, [3.0, -np.sqrt(10.0)], rtol=1e-15)

    def test_phi_lands_on_manifold(self, rng):
        for sig in (S11, S21, S22, Signature(6, 2, 0.5), Signature(5, 3, 2.0)):
            z = random_free_params(sig, 500, rng, scale=3.0)
            x = np.asarray(phi(z, sig))
            assert manifold_defect(x, sig).max() <= 1e-9

    def test_phi_idempotent_up_to_roundoff(self, rng):
        z = random_free_params(S22, 200, rng)
        x = np.asarray(phi(z, S22))
        x2 = np.asarray(phi(x, S22))
        np.testing.assert_allclose(x2, x, rtol=0, atol=1e-13)

    def test_phi_time_guard_bumps_zero_time(self):
        z = np.array([2.0, 0.0, 0.0, 0.0])  # zero time block
        out = np.asarray(phi(z, S22))
        assert np.all(np.isfinite(out))
        # the bump lands on the first time coordinate
        np.testing.assert_allclose(out[2:], [np.sqrt(5.0), 0.0])

    def test_phi_guard_threshold(self):
        z = np.array([0.0, 0.0, EPS_TIME / 2, 0.0])
        out = np.asarray(phi(z, S22))
        assert np.all(np.isfinite(out))
        assert manifold_defect(out, S22) <= 1e-9

    def test_guard_lifts_exactly_the_rows_phi_bumps(self, rng):
        """One floor: ``apply_time_guard`` lifts the rows whose time norm
        ``phi`` finds below :data:`EPS_TIME`, just below, at and just above
        it, and ``phi`` bumps none of them afterwards; the bumped time block
        is the one ``point_terms_columns`` keeps."""
        ulp = np.spacing(EPS_TIME)
        edge = EPS_TIME + ulp * np.arange(-3, 4)  # at EPS_TIME and 3 ulp either side
        unit = np.abs(rng.normal(size=(50, 2)))  # first coordinate >= 0
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        time = np.concatenate([
            np.stack([edge, np.zeros_like(edge)], axis=1),
            np.stack([np.zeros_like(edge), edge], axis=1),
            (unit[:, None, :] * edge[:, None]).reshape(-1, 2),
            [[0.0, 0.0]],
        ])
        z = np.concatenate([rng.normal(size=time.shape), time], axis=1)

        def bumped(z):
            time = point_terms_columns(z.T.copy(), S22)[1][0]
            return np.any(time != z[:, 2:].T, axis=0)

        would_bump = bumped(z)
        assert 0 < np.count_nonzero(would_bump) < len(z)
        guarded = z.copy()
        apply_time_guard(guarded, S22)
        np.testing.assert_array_equal(np.any(guarded != z, axis=1), would_bump)
        assert not np.any(bumped(guarded))

    @pytest.mark.parametrize("t0", [-0.999e-8, -0.5e-8, -0.0, 0.0, 0.5e-8, 0.999e-8])
    def test_one_shift_reaches_the_floor(self, t0):
        """The shift takes the first time coordinate's sign, so one guard
        call lifts the norm to the floor; adding ``+EPS_TIME`` to
        ``-0.999e-8`` left a norm of ``1e-11``."""
        z = np.array([[0.5, -0.5, t0, 0.0]])
        guarded = z.copy()
        apply_time_guard(guarded, S22)
        assert np.linalg.norm(guarded[0, 2:]) >= EPS_TIME
        assert np.signbit(guarded[0, 2]) == (t0 < 0.0)
        tn = point_terms_columns(z.T.copy(), S22)[1][1]
        assert tn[0] >= EPS_TIME
        np.testing.assert_array_equal(phi(guarded, S22), phi(z, S22))

    def test_psi_example(self):
        s, u = psi(np.array([3.0, np.sqrt(10.0)]), S11)
        np.testing.assert_allclose(np.asarray(s), [3.0])
        np.testing.assert_allclose(np.asarray(u), [1.0])

    def test_psi_rejects_degenerate_time(self):
        with pytest.raises(DegeneratePointError):
            psi(np.array([1.0, 0.0, 0.0, 0.0]), S22)

    def test_psi_inv_example(self):
        out = np.asarray(psi_inv((np.array([3.0]), np.array([1.0])), S11))
        np.testing.assert_allclose(out, [3.0, np.sqrt(10.0)], rtol=1e-15)

    def test_psi_inv_rejects_off_sphere_time(self):
        with pytest.raises(PreconditionError):
            psi_inv((np.array([3.0]), np.array([1.5])), S11)

    def test_psi_roundtrip(self, rng):
        for sig in (S11, S22, Signature(6, 2, 2.0)):
            x = random_manifold_points(sig, 300, rng, scale=3.0)
            back = np.asarray(psi_inv(psi(x, sig), sig))
            assert np.abs(back - x).max() <= 1e-10

    def test_phi_gradient_matches_fd(self, rng):
        sig = S22
        z0 = random_free_params(sig, 3, rng)
        w = rng.normal(size=(3, sig.d))
        (grad,) = tape_oracle.tape_grad(lambda z: tape_oracle.phi(z, sig) * w, z0)
        numeric = central_diff(lambda v: float(np.sum(np.asarray(phi(v, sig)) * w)), z0, h=1e-6)
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-8)


class TestProjection:
    def test_project_conic_example(self):
        x = np.array([2.0, 0.0, 0.3, 2.2])  # only the space part matters
        y = np.array([9.0, 9.0, 3.0, 4.0])
        out = np.asarray(project_conic(x, y, S22))
        r = np.sqrt(5.0)
        np.testing.assert_allclose(out, [2.0, 0.0, 0.6 * r, 0.8 * r], rtol=1e-15)

    def test_projection_lands_on_manifold(self, rng):
        x = random_manifold_points(S22, 100, rng)
        y = random_manifold_points(S22, 100, rng)
        proj = np.asarray(project_conic(x, y, sig=S22))
        assert manifold_defect(proj, S22).max() <= 1e-9

    def test_projection_broadcasts(self, rng):
        x = random_manifold_points(S22, 1, rng)[0]
        y = random_manifold_points(S22, 5, rng)
        assert np.asarray(project_conic(x, y, S22)).shape == (5, 4)

    def test_q1_projection_collapses_to_base_point(self, rng):
        # same-sheet q=1 points share their (rescaled) time direction, so the
        # projection of y onto x's conic section is x itself, bit for bit
        sig = S21
        z1 = random_free_params(sig, 200, rng)
        z2 = random_free_params(sig, 200, rng)
        z1[:, -1] = np.abs(z1[:, -1]) + 0.1
        z2[:, -1] = np.abs(z2[:, -1]) + 0.1
        x = np.asarray(phi(z1, sig))
        y = np.asarray(phi(z2, sig))
        np.testing.assert_array_equal(np.asarray(project_conic(x, y, sig)), x)


class TestDistances:
    def test_sphere_leg_quarter_turn(self):
        a = np.array([0.0, 0.0, 1.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        assert float(np.asarray(dist_sphere(a, b, S22))) == pytest.approx(np.pi / 2, rel=1e-15)

    def test_sphere_leg_scales_with_radius(self):
        sig = Signature(2, 2, 3.0)
        s = np.array([3.0, 4.0])
        r = np.sqrt(9.0 + 16.0 + 9.0)
        a = np.concatenate([s, [r, 0.0]])
        b = np.concatenate([s, [0.0, r]])
        assert float(np.asarray(dist_sphere(a, b, sig))) == pytest.approx(r * np.pi / 2, rel=1e-14)

    def test_sphere_leg_requires_shared_space(self):
        a = np.array([0.5, 0.0, 1.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(PreconditionError):
            dist_sphere(a, b, S22)

    def test_hyper_leg_example(self):
        x = np.array([0.0, 1.0])
        y = np.array([3.0, np.sqrt(10.0)])
        assert float(cosh_argument(x, y, S11)) == pytest.approx(np.sqrt(10.0), rel=1e-15)
        d = float(np.asarray(dist_hyper(x, y, S11)))
        assert d == pytest.approx(1.8184464592320668, rel=1e-15)

    def test_hyper_leg_requires_parallel_time(self):
        x = np.array([0.0, 0.0, 1.0, 0.0])
        y = np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(PreconditionError):
            dist_hyper(x, y, S22)

    def test_manhattan_closed_form_two_legs(self):
        # x at the time-circle base point, y one boost (a) and one arc (b) away:
        # the (x -> y) order gives a + b, the other order a + b*cosh(a) > a + b
        a, b = 0.7, 0.9
        x = np.array([0.0, 0.0, 1.0, 0.0])
        y = np.array(
            [np.sinh(a), 0.0, np.cosh(a) * np.cos(b), np.cosh(a) * np.sin(b)]
        )
        d = float(np.asarray(dist_manhattan(x, y, S22)))
        assert d == pytest.approx(a + b, rel=1e-12)

    def test_manhattan_pure_sphere_case(self):
        x = np.array([0.0, 0.0, 1.0, 0.0])
        y = np.array([0.0, 0.0, 0.0, 1.0])
        assert float(np.asarray(dist_manhattan(x, y, S22))) == pytest.approx(
            np.pi / 2, rel=1e-15
        )

    def test_manhattan_symmetry_is_exact(self, rng):
        x = random_manifold_points(S22, 500, rng)
        y = random_manifold_points(S22, 500, rng)
        d_xy = np.asarray(dist_manhattan(x, y, S22))
        d_yx = np.asarray(dist_manhattan(y, x, S22))
        np.testing.assert_array_equal(d_xy, d_yx)

    def test_manhattan_nonnegative(self, rng):
        for sig in (S21, S22, Signature(6, 2, 1.0)):
            x = random_manifold_points(sig, 300, rng, scale=3.0)
            y = random_manifold_points(sig, 300, rng, scale=3.0)
            assert np.all(np.asarray(dist_manhattan(x, y, sig)) >= 0.0)

    def test_manhattan_coincident_points_are_exactly_zero(self, rng):
        for sig in (S21, S22, Signature(28, 4, 1.0)):
            x = random_manifold_points(sig, 200, rng)
            np.testing.assert_array_equal(np.asarray(dist_manhattan(x, x, sig)), 0.0)
            np.testing.assert_array_equal(
                np.asarray(dist_manhattan(x, x.copy(), sig)), 0.0
            )

    def test_manhattan_rows_sharing_the_first_coordinate_are_apart(self, rng):
        # coincidence is decided on whole rows, not on the first coordinate
        for sig in (S22, Signature(6, 2, 1.0)):
            z = random_free_params(sig, sig.d - 1, rng)
            moved = z.copy()
            moved[np.arange(sig.d - 1), np.arange(1, sig.d)] += 0.5
            x, y = np.asarray(phi(z, sig)), np.asarray(phi(moved, sig))
            np.testing.assert_array_equal(x[:, 0], y[:, 0])
            assert np.all(np.asarray(dist_manhattan(x, y, sig)) >= 1e-7)

    def test_manhattan_distinguishes_distinct_points(self, rng):
        x = random_manifold_points(S22, 200, rng)
        y = random_manifold_points(S22, 200, rng)
        apart = np.abs(x - y).max(axis=-1) >= 1e-5
        d = np.asarray(dist_manhattan(x, y, S22))
        assert np.all(d[apart] >= 1e-7)

    def test_q1_reduction_to_lorentz_distance(self, rng):
        # with one time dimension the spherical leg vanishes and the two-leg
        # distance equals the classic hyperboloid formula
        for p in (1, 2, 6):
            sig = Signature(p, 1, 1.0)
            z1 = random_free_params(sig, 500, rng)
            z2 = random_free_params(sig, 500, rng)
            z1[:, -1] = np.abs(z1[:, -1]) + 0.1
            z2[:, -1] = np.abs(z2[:, -1]) + 0.1
            x = np.asarray(phi(z1, sig))
            y = np.asarray(phi(z2, sig))
            d = np.asarray(dist_manhattan(x, y, sig))
            ref = np.arccosh(np.clip(-qdot(x, y, sig), 1.0, None))
            rel = np.abs(d - ref) / np.maximum(ref, 1e-15)
            mask = ref > 1e-12
            assert rel[mask].max() <= 1e-8

    def test_independent_two_leg_oracle(self, rng):
        # plain-numpy reimplementation of both candidate routes
        sig = S22
        x = random_manifold_points(sig, 300, rng)
        y = random_manifold_points(sig, 300, rng)

        def route(a, b):
            r = np.sqrt((a[:, :2] ** 2).sum(-1) + 1.0)
            at, bt = a[:, 2:], b[:, 2:]
            cosang = (at * bt).sum(-1) / (
                np.linalg.norm(at, axis=-1) * np.linalg.norm(bt, axis=-1)
            )
            arc = r * np.arccos(np.clip(cosang, -1.0, 1.0))
            proj = np.concatenate(
                [a[:, :2], bt / np.linalg.norm(bt, axis=-1, keepdims=True) * r[:, None]],
                axis=-1,
            )
            arg = -((proj[:, :2] * b[:, :2]).sum(-1) - (proj[:, 2:] * b[:, 2:]).sum(-1))
            return arc + np.arccosh(np.clip(arg, 1.0, None))

        expect = np.minimum(route(x, y), route(y, x))
        got = np.asarray(dist_manhattan(x, y, sig))
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (6, 2), (28, 4)])
    def test_closed_form_matches_projection_construction(self, rng, p, q, alpha):
        # the conic projection and the single legs spelled out step by step,
        # on random pairs, one-against-all rows and relation-moved points
        sig = Signature(p, q, alpha)
        n = 400
        x = random_manifold_points(sig, n, rng)
        y = random_manifold_points(sig, n, rng)
        pairs = [(x, y), (x[:1], y)]
        if p % 2 == 0 and q % 2 == 0:
            half = sig.d // 2
            moved = np.asarray(relation_transform(
                rng.normal(size=(n, half)), rng.normal(size=(n, half)),
                rng.normal(0.0, 0.5, (n, q)), x, sig,
            ))
            pairs += [(moved, y), (moved[:1], y)]

        def order(a, b):
            proj = project_conic(a, b, sig)
            return np.asarray(dist_sphere(a, proj, sig)) + np.asarray(dist_hyper(proj, b, sig))

        for a, b in pairs:
            expect = np.minimum(order(a, b), order(b, a))
            np.testing.assert_allclose(np.asarray(dist_manhattan(a, b, sig)), expect, rtol=1e-10)

    def test_projected_cosh_argument_never_dips_below_one(self, rng):
        sig = S22
        z = random_free_params(sig, 2000, rng)
        x = np.asarray(phi(z, sig))
        y = np.asarray(phi(z + rng.normal(0, 1e-8, z.shape), sig))
        proj = np.asarray(project_conic(x, y, sig))
        assert np.asarray(cosh_argument(proj, y, sig)).min() >= 1.0 - 1e-12

    def test_distance_gradient_matches_fd(self, rng):
        sig = S22
        z1 = random_free_params(sig, 4, rng)
        z2 = random_free_params(sig, 4, rng)
        y = np.asarray(phi(z2, sig))

        def f(z):
            d = tape_oracle.dist_manhattan(tape_oracle.phi(z, sig), y, sig)
            return d * d

        (grad,) = tape_oracle.tape_grad(f, z1)

        def scalar(v):
            d = np.asarray(dist_manhattan(np.asarray(phi(v, sig)), y, sig))
            return float((d * d).sum())

        numeric = central_diff(scalar, z1, h=1e-6)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)


def layouts(x):
    """``x`` C-ordered, F-ordered, as the transposed view of a
    coordinate-major copy and as a strided view."""
    yield x
    yield np.asfortranarray(x)
    yield np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
    yield np.repeat(x, 2, axis=-1)[..., ::2]


class TestCoordinateMajor:
    """``dot_columns`` and ``point_terms_columns`` give each column the bits
    that ``np.sum`` and the tape oracle's row-wise functions give its row,
    and the public ``phi`` and ``dist_manhattan`` give each point those
    bits, whatever its batch shape and memory order."""

    SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 1.0])

    def rows(self, k, rng):
        """Rows of k values: mixed magnitudes, a tenth of them special, and
        rows of all -0.0, all +0.0, one inf, opposite infs and one NaN."""
        x = rng.normal(size=(60, k)) * 10.0 ** rng.integers(-12, 13, size=(60, k))
        mask = rng.random(x.shape) < 0.1
        x[mask] = rng.choice(self.SPECIAL, np.count_nonzero(mask))
        x[0], x[1] = -0.0, 0.0
        x[2, k // 2] = np.inf
        x[3, 0], x[3, -1] = np.inf, -np.inf
        x[4, k - 1] = np.nan
        return x

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", range(1, 41))
    def test_dot_columns_is_np_sum_of_rows(self, k):
        """Every k from 1 to 40, so both summation branches and every
        remainder of k mod 8; a numpy that sums a row in another order
        fails here instead of splitting eval bits from training bits."""
        rng = np.random.default_rng(k)
        x, y = self.rows(k, rng), self.rows(k, rng)
        y[:2] = 1.0  # the -0.0 and +0.0 rows keep their sign in x * y
        expected = np.sum(x * y, axis=-1)
        assert not np.signbit(expected[0])  # a row of -0.0 sums to +0.0
        for xc, yc in ((x.T, y.T), (np.ascontiguousarray(x.T), np.ascontiguousarray(y.T))):
            before = xc.copy(), yc.copy()
            assert_same_bits(dot_columns(xc, yc), expected)
            assert_same_bits(dot_columns(xc[:, 5:8], yc[:, 5:8]), expected[5:8])  # few columns
            for operand, copy in zip((xc, yc), before):  # the sums never alias an operand
                np.testing.assert_array_equal(operand.view(np.uint64), copy.view(np.uint64))
        # one row against every row, as one-against-all scoring sums it
        assert_same_bits(dot_columns(x[5][:, None], y.T.copy()), np.sum(x[5] * y, axis=-1))
        self.check_single_columns(x, y)

    @staticmethod
    def check_single_columns(x, y):
        """Each row alone as one column, as one-triple scoring sums it."""
        for xi, yi in zip(x, y):
            assert_same_bits(
                dot_columns(xi[:, None], yi[:, None]), np.sum(xi * yi, keepdims=True)
            )

    @pytest.mark.parametrize("k", [129, 300])
    def test_dot_columns_halves_long_rows(self, k):
        rng = np.random.default_rng(k)
        x, y = rng.normal(size=(20, k)), rng.normal(size=(20, k))
        assert_same_bits(dot_columns(x.T.copy(), y.T.copy()), np.sum(x * y, axis=-1))
        self.check_single_columns(x, y)

    @staticmethod
    def check_row_terms(got, x, sig):
        """``terms_columns`` of the points ``x`` (rows) against the blocks,
        the ``space_radius`` and the ``norm`` of the same rows."""
        xs, xt = split_spacetime(x, sig)
        for g, e in zip(got, (xs.T, xt.T, space_radius(xs, sig), norm(xt))):
            assert_same_bits(g, e)

    @pytest.mark.parametrize("sig", [S22] + SCORING_SIGNATURES + [S11, S21])
    def test_point_terms_columns_equal_rows(self, sig):
        """Also with a row below the time-norm floor, whose bump turns the
        batch's -0.0 time coordinates into +0.0, and without one; and
        ``terms_columns`` of each point alone, the single column that
        one-triple scoring and a query head take.  ``phi`` gives the
        oracle's bits at batch shapes (), (1,), (n,) and (a, b)."""
        rng = np.random.default_rng(sig.d)
        z = rng.normal(0.0, 2.0, (40, sig.d))
        z[3, sig.p :] = 0.0
        z[4, sig.p :] = -0.0
        z[5, sig.p :], z[5, sig.p] = 0.0, -0.5e-8
        z[6, sig.p + sig.q - 1] = -0.0
        z[7] = z[8]
        for rows in (z, z[6:], z[9], z[9:10], z.reshape(4, 10, sig.d)):
            got = phi(rows, sig)
            assert got.flags.c_contiguous
            assert_same_bits(got, tape_oracle.phi(rows, sig))
        for rows in (z, z[6:]):
            x = phi(rows, sig)
            expected = terms_columns(x.T.copy(), sig)
            self.check_row_terms(expected, x, sig)
            got = point_terms_columns(rows.T.copy(), sig)[0]
            for e, g in zip(expected, got):
                assert_same_bits(g, e)
        for x in phi(z, sig)[:, None]:
            self.check_row_terms(terms_columns(x.T, sig), x, sig)

    @pytest.mark.parametrize("sig", SCORING_SIGNATURES + [S11, S21])
    def test_legs_columns_equal_legs(self, sig):
        """One point against every candidate, a copy of it among them at
        exact zero distance; ``dist_manhattan`` gives the oracle's bits
        there and at batch shapes (), (1,), (n,) and (a, b)."""
        rng = np.random.default_rng(sig.d)
        z = rng.normal(0.0, 2.0, (50, sig.d))
        z[10, sig.p + sig.q - 1] = -0.0
        x = phi(z[[10]], sig)
        y = phi(z, sig)
        cols = point_terms_columns(z.T.copy(), sig)[0]
        got = manhattan_legs_columns(terms_columns(x.T, sig), cols, sig)[0]
        assert_same_bits(got, tape_oracle.dist_manhattan(x, y, sig))
        assert got[10] == 0.0 and np.count_nonzero(got == 0.0) == 1
        rev = y[::-1].copy()
        for a, b in ((x, y), (y[10], y), (y, y[10]), (y[3], y[4]), (y[:1], y[1:2]), (y, rev),
                     (y.reshape(5, 10, -1), rev.reshape(5, 10, -1)), (y[:10], y.reshape(5, 10, -1))):
            assert_same_bits(dist_manhattan(a, b, sig), tape_oracle.dist_manhattan(a, b, sig))

    def test_bits_do_not_depend_on_memory_order(self):
        """C-ordered, F-ordered and transposed-view points give ``phi`` and
        ``dist_manhattan`` the same bits: ``np.sum`` over a row that is not
        contiguous adds in sequence, and 8 or more coordinates are added
        pairwise where they are."""
        for sig in SCORING_SIGNATURES:
            rng = np.random.default_rng(sig.d)
            z = rng.normal(0.0, 2.0, (3, 40, sig.d))
            x, y = phi(z[:, :20], sig), phi(z[:, 20:], sig)
            want_phi, want_dist = phi(z, sig), dist_manhattan(x, y, sig)
            for zl, xl, yl in zip(layouts(z), layouts(x), layouts(y)):
                assert_same_bits(phi(zl, sig), want_phi)
                assert_same_bits(phi(zl[0], sig), want_phi[0])
                assert_same_bits(dist_manhattan(xl, yl, sig), want_dist)
                assert_same_bits(dist_manhattan(xl[0], yl[0], sig), want_dist[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_legs_forward_picks_as_where(self):
        """The shorter leg, with the bits of ``np.where(first, leg_xy,
        leg_yx)``: beside a NaN ``leg_xy`` (``s = inf`` with ``rx * ny``
        overflowing) that is the finite ``leg_yx``, where ``np.minimum``
        alone keeps the NaN.  Also a NaN ``leg_yx``, both legs NaN, an exact
        tie and finite legs either way."""
        sig = S22
        rx = np.array([1e200, 1.0, 1.0, 2.0, 1.5, 1.2])
        ry = np.array([1.0, 1e200, 1.0, 2.0, 1.2, 1.5])
        nx = np.array([1.0, 1e200, 1.0, 1.5, 1.1, 1.3])
        ny = np.array([1e200, 1.0, 1.0, 1.5, 1.3, 1.1])
        s = np.array([np.inf, np.inf, np.nan, 0.5, -0.25, -0.25])
        dot = np.array([0.5, 0.5, 0.5, 1.0, 0.3, 0.3])
        same = np.zeros(6, dtype=bool)
        best, saved = _legs_forward(dot, s, rx, nx, ry, ny, same, sig)
        _, _, _, angle, arg_xy, arg_yx, first, _ = saved
        leg_xy = rx * angle + sig.alpha * np.arccosh(np.clip(arg_xy, 1.0, None))
        leg_yx = ry * angle + sig.alpha * np.arccosh(np.clip(arg_yx, 1.0, None))
        np.testing.assert_array_equal(np.isnan(leg_xy), [True, False, True, False, False, False])
        np.testing.assert_array_equal(np.isnan(leg_yx), [False, True, True, False, False, False])
        assert leg_xy[3] == leg_yx[3] and leg_yx[4] < leg_xy[4] and leg_xy[5] < leg_yx[5]
        np.testing.assert_array_equal(first, [False, False, False, True, False, True])
        assert_same_bits(best, np.where(first, leg_xy, leg_yx))
        assert np.isfinite(best[0]) and best[0] == leg_yx[0]
        # without a NaN leg, np.minimum's bits
        best, _ = _legs_forward(dot[3:], s[3:], rx[3:], nx[3:], ry[3:], ny[3:], same[3:], sig)
        assert_same_bits(best, np.minimum(leg_xy[3:], leg_yx[3:]))


#: unit roundoffs of float64 and float32, and one ulp below 1 in each
U = 2.0**-53
U32 = 2.0**-24


def gamma(k, u=U):
    """Higham's ``gamma_k``: the relative error bound of a k-term sum."""
    return k * u / (1.0 - k * u)


def float32_leg(cos, arg, rmin, alpha):
    """The one leg of ``approx_scores``, ``rmin arccos(cos) + alpha
    arccosh(max(arg, 1))``, in float32, as float64."""
    f = np.float32
    cos, arg, rmin = (np.asarray(a, dtype=f) for a in (cos, arg, rmin))
    leg = np.arccos(cos) * rmin + f(alpha) * np.arccosh(np.maximum(arg, f(1.0)))
    return leg.astype(np.float64)


def margin_at(terms, cos, arg):
    """The bound of :func:`legs_margin`'s ``terms`` at a float32 cosine and
    argument, in float64."""
    (a, k_c, f_c), (b, k_a, f_a), e, _ = terms
    cos, arg = np.float64(cos), np.float64(arg)
    return a / np.maximum(k_c - np.abs(cos), f_c) + b / np.maximum(arg - k_a, f_a) + e


class TestLegsMargin:
    """``legs_margin`` bounds how far the float32 one leg of
    ``approx_scores``, squared, lies from ``d*d`` of :func:`_legs_forward`
    when both paths' cosines and ``arccosh`` arguments move by as much as
    rounding and any summation order may move them, in either direction:
    the float64 dot products by ``2 gamma_p r_x r_y`` and ``2 gamma_q n_x
    n_y``, the float32 cosine by ``gamma_q + 2u`` beside
    :func:`cos_shrink`, the float32 argument by ``gamma_(p+1) + 2u`` times
    its terms' magnitudes; at cosines of ±1 and one ulp inside,
    ``arccosh`` arguments of 1 and a few ulps above, large radii and alpha
    != 1."""

    #: target cosines: ±1, one float32 ulp inside each, a generic one
    COSINES = [1.0, 1.0 - U32, -1.0, -1.0 + U32, 0.3]
    #: target arccosh arguments: 1, a few float32 ulps above, a generic one
    ARGS = [1.0, 1.0 + 4 * U32, 1.0 + 16 * U32, 3.0]

    @pytest.mark.parametrize("alpha", [1.0, 0.3, 2.5])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("sig_pq", [(28, 4), (6, 2)])
    def test_moved_dot_products_stay_within(self, alpha, scale, sig_pq):
        sig = Signature(*sig_pq, alpha)
        rng = np.random.default_rng(int(scale) + sig.d)
        z = rng.normal(0.0, scale, (8, sig.d))
        z[5:, : sig.p] = z[0, : sig.p]  # tails 5-7 share the head's space: argument 1
        x = terms_columns(phi(z[:1], sig).T, sig)
        side = terms_columns(phi(z[1:], sig).T, sig)
        _, _, rx, nx = x
        _, _, ry, ny = side
        terms = legs_margin(rx, nx, ry.max(), ny.max(), np.max(np.abs(ny - ry)), sig)
        cos, arg = (g.reshape(-1, 1) for g in np.meshgrid(self.COSINES, self.ARGS))
        dot = cos * (nx * ny)  # every target pair against every tail
        # the space dot at the target argument, where |s| <= |x_s| |y_s| allows
        reach = np.sqrt(rx * rx - alpha * alpha) * np.sqrt(ry * ry - alpha * alpha)
        s = np.clip(rx * ny - arg * (alpha * alpha), -reach, reach)
        exact = _legs_forward(dot, s, rx, nx, ry, ny, False, sig)[0]
        assert np.all(exact * exact <= terms[3] * (1 + 1e-12))
        true_cos, true_arg = dot / (nx * ny), (rx * ny - s) / (alpha * alpha)
        move_cos = gamma(sig.q, U32) + 2 * U32
        move_arg = (gamma(sig.p + 1, U32) + 2 * U32) * (rx * ny + reach) / (alpha * alpha)
        signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for (sign_t, sign_s), (sign_c, sign_a) in itertools.product(signs, signs):
            moved = _legs_forward(
                dot + sign_t * 2 * gamma(sig.q) * nx * ny,
                s + sign_s * 2 * gamma(sig.p) * rx * ry,
                rx, nx, ry, ny, False, sig,
            )[0]
            c32 = np.float32(true_cos * cos_shrink(sig) + sign_c * move_cos)
            a32 = np.float32(true_arg + sign_a * move_arg)
            assert np.all(np.abs(c32) < 1.0)  # the shrink spares the clamp
            leg = float32_leg(c32, a32, np.minimum(rx, ry), alpha)
            assert np.all(np.abs(leg * leg - moved * moved) <= margin_at(terms, c32, a32))

    def test_clamped_ends_move_by_a_square_root(self):
        """From cosine 1 and argument 1, where the distance is 0, the float32
        leg moves by about the square root of its products' error, far
        beyond any Lipschitz bound; the margin covers ``L*L`` there and is
        within a small factor of ``2 L`` times that move, ``L^2`` being
        ``dd``."""
        sig = Signature(28, 4, 1.0)
        rx = nx = ry = ny = np.array([3.0])
        terms = legs_margin(rx, nx, 3.0, 3.0, 0.0, sig)
        s, dd = rx * ny - 1.0, terms[3]
        assert _legs_forward(nx * ny, s, rx, nx, ry, ny, False, sig)[0][0] == 0.0
        c32 = np.float32(cos_shrink(sig) - gamma(4, U32) - 2 * U32)
        a32 = np.float32(1.0 + (gamma(29, U32) + 2 * U32) * (rx * ny + rx * ry))
        moved = float32_leg(c32, a32, rx, 1.0)
        assert moved[0] > 1e3 * U32
        assert moved[0] ** 2 <= margin_at(terms, c32, a32)[0] <= 8 * np.sqrt(dd[0]) * moved[0]


class TestUlps:
    """``np.arccos`` and ``np.arccosh`` stay within the :data:`ULPS` ulps
    that ``legs_margin`` assumes of them, in float64 against
    ``np.longdouble`` and in float32 against float64, on dense grids next to
    ±1 and 1 and over wide arguments; a numpy whose functions are less
    accurate fails here instead of breaking the filter's proof."""

    @staticmethod
    def grids(dtype):
        """Arguments of ``arccos`` and of ``arccosh`` in ``dtype``."""
        eps, steps = np.finfo(dtype).eps, np.arange(4096)
        rng = np.random.default_rng(3)
        near = 1.0 - steps * (eps / 2)  # every one of the first 4096 below 1
        apart = np.logspace(np.log10(eps), 0.0, 4096)
        cos = np.concatenate([near, -near, 1.0 - apart, apart - 1.0, rng.uniform(-1, 1, 8192)])
        wide = np.logspace(0.0, np.log10(np.finfo(dtype).max) - 1.0, 4096)
        arg = np.concatenate([1.0 + steps * eps, 1.0 + apart, wide, rng.uniform(1, 100, 8192)])
        return cos.astype(dtype), arg.astype(dtype)

    @staticmethod
    def ulps(got, reference):
        """Errors of ``got`` in ulps of its own type."""
        gap = np.abs(got.astype(reference.dtype) - reference)
        return gap / np.spacing(np.abs(got)).astype(reference.dtype)

    def test_float32_against_float64(self):
        for fn, x in zip((np.arccos, np.arccosh), self.grids(np.float32)):
            assert fn(x).dtype == np.float32
            assert np.max(self.ulps(fn(x), fn(x.astype(np.float64)))) <= ULPS

    def test_float64_against_longdouble(self):
        if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
            pytest.skip("np.longdouble is no wider than float64 here")
        for fn, x in zip((np.arccos, np.arccosh), self.grids(np.float64)):
            assert np.max(self.ulps(fn(x), fn(x.astype(np.longdouble)))) <= ULPS


class TestSpaceRadius:
    def test_value(self):
        r = space_radius(np.array([3.0, 4.0]), Signature(2, 2, 1.0))
        assert float(np.asarray(r)) == pytest.approx(np.sqrt(26.0), rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 3),
    st.lists(st.floats(-50.0, 50.0), min_size=9, max_size=9),
)
def test_phi_always_lands_on_manifold(p_extra, q, coords):
    p = q + p_extra
    sig = Signature(p, q, 1.0)
    z = np.asarray(coords[: sig.d])
    if z.size < sig.d:
        z = np.concatenate([z, np.ones(sig.d - z.size)])
    x = np.asarray(phi(z, sig))
    assert np.all(np.isfinite(x))
    assert manifold_defect(x, sig) <= 1e-9
