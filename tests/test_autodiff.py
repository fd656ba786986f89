"""Reverse-mode engine: every op against central finite differences, and
the NumPy dispatch protocols through which tensors enter numpy code."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff
from ukge import autodiff as ad
from ukge.autodiff import Tensor
from ukge.geometry import norm


def grad_of(f, x0, seed=None):
    """Gradient of ``sum(f(x))`` at ``x0`` via the tape."""
    t = Tensor(np.asarray(x0, dtype=np.float64), requires_grad=True)
    out = f(t)
    total = np.sum(out) if out.value.shape != () else out
    total.backward(seed)
    return t.grad


def check_against_fd(f, x0, rtol=1e-6, atol=1e-9, h=1e-6):
    analytic = grad_of(f, x0)
    def scalar(v):
        return float(np.sum(np.asarray(f(Tensor(v)))))
    numeric = central_diff(scalar, np.asarray(x0, float), h)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


class TestArithmetic:
    def test_add_sub_mul_div(self, rng):
        x = rng.normal(size=(3, 4))
        check_against_fd(lambda t: t + 2.0, x)
        check_against_fd(lambda t: 2.0 - t, x)
        check_against_fd(lambda t: t * t, x)
        check_against_fd(lambda t: 1.0 / (t * t + 1.0), x)
        check_against_fd(lambda t: -t, x)

    def test_broadcasting_collects_gradients(self, rng):
        a0 = rng.normal(size=(3, 1))
        b0 = rng.normal(size=(1, 4))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        np.sum(a * b).backward()
        np.testing.assert_allclose(a.grad, np.full((3, 1), b0.sum()))
        np.testing.assert_allclose(b.grad, np.full((1, 4), a0.sum()))

    def test_scalar_plus_tensor_stays_tensor(self):
        t = Tensor(np.ones(3), requires_grad=True)
        for out in (np.float64(2.0) + t, np.float64(2.0) * t, 2.0 - t, 6.0 / (t + 1.0)):
            assert isinstance(out, Tensor)

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x * x
        y.backward()
        assert float(y.value) == 18.0
        assert float(x.grad) == 12.0

    def test_constant_keeps_no_history(self):
        c = Tensor(np.ones(3)) + Tensor(np.ones(3))
        assert not c.requires_grad
        assert c._parents == ()


class TestUnaryOps:
    def test_smooth_ops_match_fd(self, rng):
        x = rng.uniform(0.2, 2.0, size=7)
        for op in (np.sqrt, np.log, np.cos, np.sin, np.cosh, np.sinh, ad.sigmoid):
            check_against_fd(op, x, rtol=1e-5)

    def test_sigmoid_is_stable_at_large_inputs(self):
        v = np.array([-800.0, 800.0])
        out = ad.sigmoid(Tensor(v, requires_grad=True))
        assert np.all(np.isfinite(out.value))
        np.testing.assert_allclose(out.value, [0.0, 1.0], atol=1e-300)

    def test_arccos_interior_matches_fd(self, rng):
        x = rng.uniform(-0.9, 0.9, size=9)
        check_against_fd(np.arccos, x, rtol=1e-5)

    def test_arccos_boundary_has_zero_gradient(self):
        t = Tensor(np.array([-1.0, 1.0]), requires_grad=True)
        out = np.arccos(t)
        np.sum(out).backward()
        np.testing.assert_allclose(out.value, [np.pi, 0.0])
        np.testing.assert_array_equal(t.grad, [0.0, 0.0])

    def test_arccosh_interior_and_boundary(self, rng):
        x = rng.uniform(1.1, 4.0, size=9)
        check_against_fd(np.arccosh, x, rtol=1e-5)
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = np.arccosh(t)
        out.backward(np.ones(1))
        assert float(out.value[0]) == 0.0
        assert float(t.grad[0]) == 0.0


class TestClipWhereMinimum:
    def test_clip_gradient_only_strictly_inside(self):
        t = Tensor(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), requires_grad=True)
        out = np.clip(t, -1.0, 1.0)
        np.sum(out).backward()
        np.testing.assert_allclose(out.value, [-1.0, -1.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_clip_one_sided(self):
        t = Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
        out = np.clip(t, 1.0, None)
        np.sum(out).backward()
        np.testing.assert_allclose(out.value, [1.0, 1.0, 2.0])
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0])

    def test_where_routes_gradient_by_condition(self, rng):
        cond = np.array([True, False, True])
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        np.sum(np.where(cond, a, b)).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("b_shape", [(4, 3), (3,)], ids=["same", "broadcast"])
    def test_minimum_is_where_a_le_b(self, rng, b_shape):
        """Value and both gradients of ``np.where(a <= b, a, b)``, bit for
        bit, with exact ties (which route to ``a``) in every column."""
        a0, b0 = rng.normal(size=(4, 3)), rng.normal(size=b_shape)
        a0[1] = b0 if b0.ndim == 1 else b0[1]
        seed = rng.normal(size=(4, 3))
        got = []
        for pick in (np.minimum, lambda a, b: np.where(a <= b, a, b)):
            a, b = Tensor(a0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
            out = pick(a, b)
            out.backward(seed)
            got.append([v.view(np.uint64) for v in (out.value, a.grad, b.grad)])
        for m, w in zip(*got):
            np.testing.assert_array_equal(m, w)
        assert np.array_equal(got[0][1][1], seed[1].view(np.uint64))  # ties go to a


class TestShapeOps:
    def test_sum_axis_and_keepdims(self, rng):
        x = rng.normal(size=(2, 3, 4))
        check_against_fd(lambda t: np.sum(t, axis=1), x)
        check_against_fd(lambda t: np.sum(t, axis=-1, keepdims=True), x)
        check_against_fd(lambda t: np.sum(t), x)

    def test_reshape_roundtrip(self, rng):
        x = rng.normal(size=(2, 6))
        check_against_fd(lambda t: np.reshape(t, (3, 4)) * 2.0, x)

    def test_broadcast_to(self, rng):
        x = rng.normal(size=(3, 1))
        t = Tensor(x, requires_grad=True)
        out = np.broadcast_to(t, (3, 5))
        np.sum(out).backward()
        np.testing.assert_allclose(t.grad, np.full((3, 1), 5.0))

    def test_concat_splits_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = np.concatenate([a, b], axis=-1)
        seed = rng.normal(size=(2, 5))
        np.sum(out * seed).backward()
        np.testing.assert_allclose(a.grad, seed[:, :3])
        np.testing.assert_allclose(b.grad, seed[:, 3:])

    def test_stack_last(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = np.stack([a, b], axis=-1)
        assert out.value.shape == (4, 2)
        np.sum(out[..., 0] * 2.0 + out[..., 1] * 3.0).backward()
        np.testing.assert_array_equal(a.grad, np.full(4, 2.0))
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))

    def test_getitem_basic_slice(self, rng):
        x = rng.normal(size=(4, 5))
        t = Tensor(x, requires_grad=True)
        np.sum(t[1:3, ::2]).backward()
        expect = np.zeros((4, 5))
        expect[1:3, ::2] = 1.0
        np.testing.assert_array_equal(t.grad, expect)

    def test_getitem_fancy_accumulates_repeats(self, rng):
        t = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        idx = np.array([0, 0, 3])
        np.sum(t[idx]).backward()
        expect = np.zeros((4, 2))
        expect[0] = 2.0
        expect[3] = 1.0
        np.testing.assert_array_equal(t.grad, expect)

    def test_take_accumulates_repeats(self, rng):
        t = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([2, 2, 2, 0])
        out = t[idx]
        assert out.value.shape == (4, 3)
        np.sum(out).backward()
        expect = np.zeros((5, 3))
        expect[2] = 3.0
        expect[0] = 1.0
        np.testing.assert_array_equal(t.grad, expect)

    def test_norm_and_sumsq(self, rng):
        x = rng.normal(size=(3, 4)) + 0.1
        check_against_fd(lambda t: np.sum(t * t, axis=-1), x)
        check_against_fd(lambda t: norm(t), x, rtol=1e-5)
        check_against_fd(lambda t: norm(t, keepdims=True) * 2.0, x, rtol=1e-5)


class TestBackwardMechanics:
    def test_backward_with_explicit_seed(self, rng):
        x = rng.normal(size=4)
        t = Tensor(x, requires_grad=True)
        out = t * 3.0
        seed = np.array([1.0, 0.0, 2.0, 0.0])
        out.backward(seed)
        np.testing.assert_array_equal(t.grad, seed * 3.0)

    def test_no_grad_leaf_stays_none(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3))
        np.sum(a * b).backward()
        assert b.grad is None


class TestProtocols:
    @pytest.mark.parametrize(
        "op",
        [np.exp, np.abs, np.linalg.norm, lambda t: np.add(t, 1.0, out=np.empty(3))],
        ids=["exp", "abs", "linalg.norm", "out"],
    )
    def test_op_without_a_rule_raises(self, op):
        with pytest.raises(TypeError):
            op(Tensor(np.ones(3), requires_grad=True))

    def test_comparison_returns_plain_bools(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        for out in (t < 1.5, t <= np.ones(2), 1.5 > t, t == t, t != 2.0):
            assert type(out) is np.ndarray and out.dtype == bool
        np.testing.assert_array_equal(t < 1.5, [True, False])

    def test_asarray_is_the_value(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        assert np.asarray(t) is t.value
        assert np.shape(t) == (2, 3) and np.size(t) == 6


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6),
)
def test_composite_expression_matches_fd(xs, ws):
    n = min(len(xs), len(ws))
    x = np.asarray(xs[:n])
    w = np.asarray(ws[:n])

    def f(t):
        return np.sum(ad.sigmoid(t * w) + np.cos(t) * 0.5 + np.sqrt(t * t + 1.0))

    analytic = grad_of(f, x)
    numeric = central_diff(lambda v: float(f(Tensor(v)).value), x, h=1e-6)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)
