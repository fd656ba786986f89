"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced; calling
:meth:`Tensor.backward` runs one reverse sweep and accumulates gradients on
every node that requires them.  Every function in this module also accepts
plain ndarrays (or scalars) and then simply computes with numpy, so numerical
code written against this module runs unchanged in differentiable and plain
modes.

Conventions used throughout:

* everything is float64; values are never promoted to other dtypes,
* broadcasting follows numpy; gradients are summed back to parent shapes,
* ``clip`` passes gradients only on the *open* interval between its bounds,
  so clamped values (including values sitting exactly on a bound) receive
  zero gradient,
* ``minimum(a, b)`` routes the gradient to ``a`` on exact ties.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "value_of",
    "sqrt",
    "log",
    "cos",
    "sin",
    "cosh",
    "sinh",
    "arccos",
    "arccosh",
    "sigmoid",
    "clip",
    "where",
    "minimum",
    "sum_",
    "concat",
    "stack_last",
    "reshape",
    "broadcast_to",
    "take",
    "sumsq",
    "norm",
]


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def value_of(x) -> np.ndarray:
    """The underlying ndarray of a Tensor, or ``x`` itself as float64."""
    return x.value if isinstance(x, Tensor) else _as_array(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """A node in the differentiation graph."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    # Never let numpy coerce a Tensor inside ufuncs; defer to our own
    # reflected operators instead.
    __array_ufunc__ = None

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjp: Callable[[np.ndarray], Sequence[tuple["Tensor", np.ndarray]]] | None = None,
    ):
        self.value = _as_array(value)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad: np.ndarray | None = None
        if self.requires_grad:
            self._parents = _parents
            self._vjp = _vjp
        else:  # constants keep no history
            self._parents = ()
            self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    # -- reverse sweep ------------------------------------------------------

    def backward(self, seed=None) -> None:
        """Accumulate gradients of ``self`` into every upstream ``.grad``."""
        if seed is None:
            seed = np.ones_like(self.value)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = _as_array(seed)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in node._vjp(node.grad):
                if not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self, _wrap(other)
        out = a.value + b.value
        def vjp(g):
            return ((a, _unbroadcast(g, a.value.shape)), (b, _unbroadcast(g, b.value.shape)))
        return Tensor(out, _parents=(a, b), _vjp=vjp)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _wrap(other)
        out = a.value - b.value
        def vjp(g):
            return ((a, _unbroadcast(g, a.value.shape)), (b, _unbroadcast(-g, b.value.shape)))
        return Tensor(out, _parents=(a, b), _vjp=vjp)

    def __rsub__(self, other):
        return _wrap(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, _wrap(other)
        out = a.value * b.value
        def vjp(g):
            return (
                (a, _unbroadcast(g * b.value, a.value.shape)),
                (b, _unbroadcast(g * a.value, b.value.shape)),
            )
        return Tensor(out, _parents=(a, b), _vjp=vjp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _wrap(other)
        out = a.value / b.value
        def vjp(g):
            return (
                (a, _unbroadcast(g / b.value, a.value.shape)),
                (b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)),
            )
        return Tensor(out, _parents=(a, b), _vjp=vjp)

    def __rtruediv__(self, other):
        return _wrap(other).__truediv__(self)

    def __neg__(self):
        a = self
        def vjp(g):
            return ((a, -g),)
        return Tensor(-a.value, _parents=(a,), _vjp=vjp)

    def __getitem__(self, key):
        a = self
        out = a.value[key]
        def vjp(g):
            full = np.zeros_like(a.value)
            if _is_basic_index(key):
                full[key] += g  # basic indexing selects disjoint elements
            else:
                np.add.at(full, key, g)
            return ((a, full),)
        return Tensor(out, _parents=(a,), _vjp=vjp)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _is_basic_index(key) -> bool:
    """True when ``key`` uses only ints/slices/Ellipsis (no index arrays)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        isinstance(k, (int, np.integer, slice)) or k is Ellipsis or k is None
        for k in parts
    )


# -- elementwise functions ---------------------------------------------------


def _unary(x, forward, backward):
    """Build a unary op; ``backward(value, out)`` returns the local derivative."""
    if not isinstance(x, Tensor):
        return forward(_as_array(x))
    out = forward(x.value)
    def vjp(g):
        return ((x, g * backward(x.value, out)),)
    return Tensor(out, _parents=(x,), _vjp=vjp)


def sqrt(x):
    return _unary(x, np.sqrt, lambda v, out: 0.5 / out)


def log(x):
    return _unary(x, np.log, lambda v, out: 1.0 / v)


def cos(x):
    return _unary(x, np.cos, lambda v, out: -np.sin(v))


def sin(x):
    return _unary(x, np.sin, lambda v, out: np.cos(v))


def cosh(x):
    return _unary(x, np.cosh, lambda v, out: np.sinh(v))


def sinh(x):
    return _unary(x, np.sinh, lambda v, out: np.cosh(v))


def _expit(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(x):
    return _unary(x, _expit, lambda v, out: out * (1.0 - out))


def arccos(x):
    """Inverse cosine whose derivative is defined as 0 at the domain ends.

    Inputs are expected to be pre-clamped into [-1, 1]; values landing
    exactly on the ends would have an infinite true derivative, and this
    op deliberately reports zero there instead (consistent with the
    zero-gradient-when-clamped convention).
    """
    def deriv(v, out):
        t = 1.0 - v * v
        safe = np.where(t > 0.0, t, 1.0)
        return np.where(t > 0.0, -1.0 / np.sqrt(safe), 0.0)
    return _unary(x, np.arccos, deriv)


def arccosh(x):
    """Inverse hyperbolic cosine; derivative defined as 0 at x == 1."""
    def deriv(v, out):
        t = v * v - 1.0
        safe = np.where(t > 0.0, t, 1.0)
        return np.where(t > 0.0, 1.0 / np.sqrt(safe), 0.0)
    return _unary(x, np.arccosh, deriv)


def clip(x, lo=None, hi=None):
    """Clamp into [lo, hi]; gradient flows only strictly inside the bounds."""
    if not isinstance(x, Tensor):
        return np.clip(_as_array(x), lo, hi)
    out = np.clip(x.value, lo, hi)
    inside = np.ones(x.value.shape, dtype=bool)
    if lo is not None:
        inside &= x.value > lo
    if hi is not None:
        inside &= x.value < hi
    def vjp(g):
        return ((x, g * inside),)
    return Tensor(out, _parents=(x,), _vjp=vjp)


# -- selection ---------------------------------------------------------------


def where(cond, a, b):
    """Elementwise selection; ``cond`` is a plain boolean array."""
    cond = np.asarray(cond, dtype=bool)
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return np.where(cond, a, b)
    a, b = _wrap(a), _wrap(b)
    out = np.where(cond, a.value, b.value)
    def vjp(g):
        return (
            (a, _unbroadcast(np.where(cond, g, 0.0), a.value.shape)),
            (b, _unbroadcast(np.where(cond, 0.0, g), b.value.shape)),
        )
    return Tensor(out, _parents=(a, b), _vjp=vjp)


def minimum(a, b):
    """Elementwise minimum; exact ties take the first argument's branch."""
    return where(value_of(a) <= value_of(b), a, b)


# -- reductions and shape ops -------------------------------------------------


def sum_(x, axis=None, keepdims: bool = False):
    if not isinstance(x, Tensor):
        return np.sum(_as_array(x), axis=axis, keepdims=keepdims)
    out = np.sum(x.value, axis=axis, keepdims=keepdims)
    def vjp(g):
        if axis is None:
            return ((x, np.broadcast_to(g, x.value.shape).copy()),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return ((x, np.broadcast_to(g2, x.value.shape).copy()),)
    return Tensor(out, _parents=(x,), _vjp=vjp)


def reshape(x, shape):
    if not isinstance(x, Tensor):
        return np.reshape(_as_array(x), shape)
    out = x.value.reshape(shape)
    def vjp(g):
        return ((x, g.reshape(x.value.shape)),)
    return Tensor(out, _parents=(x,), _vjp=vjp)


def broadcast_to(x, shape):
    if not isinstance(x, Tensor):
        return np.broadcast_to(_as_array(x), shape)
    out = np.broadcast_to(x.value, shape)
    def vjp(g):
        return ((x, _unbroadcast(g, x.value.shape)),)
    return Tensor(np.array(out), _parents=(x,), _vjp=vjp)


def concat(parts, axis: int = -1):
    if not any(isinstance(p, Tensor) for p in parts):
        return np.concatenate([_as_array(p) for p in parts], axis=axis)
    parts = [_wrap(p) for p in parts]
    values = [p.value for p in parts]
    out = np.concatenate(values, axis=axis)
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum(sizes)[:-1]
    def vjp(g):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(zip(parts, pieces))
    return Tensor(out, _parents=tuple(parts), _vjp=vjp)


def stack_last(a, b):
    """Stack two equally-shaped arrays along a new trailing axis."""
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return np.stack([_as_array(a), _as_array(b)], axis=-1)
    a, b = _wrap(a), _wrap(b)
    out = np.stack([a.value, b.value], axis=-1)
    def vjp(g):
        return ((a, g[..., 0]), (b, g[..., 1]))
    return Tensor(out, _parents=(a, b), _vjp=vjp)


def take(x, idx):
    """Gather rows by integer index; gradients accumulate over repeats."""
    idx = np.asarray(idx)
    if not isinstance(x, Tensor):
        return _as_array(x)[idx]
    out = x.value[idx]
    def vjp(g):
        full = np.zeros_like(x.value)
        np.add.at(full, idx, g)
        return ((x, full),)
    return Tensor(out, _parents=(x,), _vjp=vjp)


# -- composed helpers ---------------------------------------------------------


def sumsq(x, axis=-1, keepdims: bool = False):
    return sum_(x * x, axis=axis, keepdims=keepdims)


def norm(x, axis=-1, keepdims: bool = False):
    return sqrt(sumsq(x, axis=axis, keepdims=keepdims))
