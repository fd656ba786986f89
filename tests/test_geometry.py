"""Pseudo-hyperboloid geometry: frozen examples, invariants, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SCORING_SIGNATURES,
    central_diff,
    random_free_params,
    random_manifold_points,
)
from ukge.autodiff import Tensor
from ukge.errors import (
    ConfigurationError,
    DegeneratePointError,
    DimensionError,
    PreconditionError,
)
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
            time = point_terms_columns(z.T.copy(), S22, keep=True)[1][0]
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
        tn = point_terms_columns(z.T.copy(), S22, keep=True)[1][1]
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

        def f(z):
            return np.sum(phi(z, sig) * w)

        t = Tensor(z0, requires_grad=True)
        f(t).backward()
        numeric = central_diff(lambda v: float(np.sum(np.asarray(phi(v, sig)) * w)), z0, h=1e-6)
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-5, atol=1e-8)


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
            d = dist_manhattan(phi(z, sig), y, sig)
            return np.sum(d * d)

        t = Tensor(z1, requires_grad=True)
        f(t).backward()

        def scalar(v):
            d = np.asarray(dist_manhattan(np.asarray(phi(v, sig)), y, sig))
            return float((d * d).sum())

        numeric = central_diff(scalar, z1, h=1e-6)
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-4, atol=1e-7)


def assert_same_bits(actual, expected):
    """Equal bit for bit, where a NaN matches any NaN: numpy's compiled
    loops pick which of two NaNs an addition keeps."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


class TestCoordinateMajor:
    """``dot_columns`` and ``point_terms_columns`` give each column the bits
    that ``np.sum`` and the row-wise functions give its row."""

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

    @pytest.mark.parametrize("sig", [S22] + SCORING_SIGNATURES)
    def test_point_terms_columns_equal_rows(self, sig):
        """Also with a row below the time-norm floor, whose bump turns the
        batch's -0.0 time coordinates into +0.0, and without one; and
        ``terms_columns`` of each point alone, the single column that
        one-triple scoring and a query head take."""
        rng = np.random.default_rng(sig.d)
        z = rng.normal(0.0, 2.0, (40, sig.d))
        z[3, sig.p :] = 0.0
        z[4, sig.p :] = -0.0
        z[5, sig.p :], z[5, sig.p] = 0.0, -0.5e-8
        z[6, sig.p + sig.q - 1] = -0.0
        z[7] = z[8]
        for rows in (z, z[6:]):
            x = phi(rows, sig)
            expected = terms_columns(x.T.copy(), sig)
            self.check_row_terms(expected, x, sig)
            got = point_terms_columns(rows.T.copy(), sig)
            for e, g in zip(expected, got):
                assert_same_bits(g, e)
        for x in phi(z, sig)[:, None]:
            self.check_row_terms(terms_columns(x.T, sig), x, sig)

    @pytest.mark.parametrize("sig", SCORING_SIGNATURES)
    def test_legs_columns_equal_legs(self, sig):
        """One point against every candidate, a copy of it among them at
        exact zero distance."""
        rng = np.random.default_rng(sig.d)
        z = rng.normal(0.0, 2.0, (50, sig.d))
        z[10, sig.p + sig.q - 1] = -0.0
        x = phi(z[[10]], sig)
        cols = point_terms_columns(z.T.copy(), sig)
        got = manhattan_legs_columns(terms_columns(x.T, sig), cols, sig)
        assert_same_bits(got, dist_manhattan(x, phi(z, sig), sig))
        assert got[10] == 0.0 and np.count_nonzero(got == 0.0) == 1

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
