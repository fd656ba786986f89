"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced; calling
:meth:`Tensor.backward` runs one reverse sweep and accumulates gradients on
every node that requires them.  Tensors enter plain numpy code through
NumPy's dispatch protocols (NEP 13 ``__array_ufunc__`` and NEP 18
``__array_function__``): the arithmetic operators, the ufuncs of
``_UFUNCS`` and the functions of ``_FUNCTIONS`` record a node, so the
package's numpy code is differentiated as written.  Any other numpy
operation on a Tensor raises ``TypeError`` instead of dropping a gradient.
Comparisons return plain bool arrays, ``np.shape`` and ``np.size`` read the
value, and ``np.asarray(t)`` is ``t.value``.  :func:`sigmoid` is the one op
called by name.

Conventions used throughout:

* everything is float64; values are never promoted to other dtypes,
* broadcasting follows numpy; gradients are summed back to parent shapes,
* ``np.clip`` passes gradients only on the *open* interval between its
  bounds, so clamped values (including values sitting exactly on a bound)
  receive zero gradient,
* ``np.arccos`` and ``np.arccosh`` report a zero derivative at the ends of
  their domains, where the true one is infinite,
* ``np.where`` routes the gradient by its plain boolean condition, and
  ``np.minimum(a, b)`` routes it as ``np.where(a <= b, a, b)`` would, ties
  to ``a``,
* fancy indexing accumulates repeated rows with ``np.add.at``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .training import _sigmoid

__all__ = ["Tensor", "sigmoid"]


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


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


class Tensor(NDArrayOperatorsMixin):
    """A node in the differentiation graph."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

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

    # -- numpy protocols -----------------------------------------------------

    def __array__(self, dtype=None, copy=None):
        """The value, for ``np.asarray``; reading it records nothing."""
        return np.array(self.value, dtype=dtype, copy=copy)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _COMPARISONS:
            return ufunc(*(_value(x) for x in inputs))
        rule = _UFUNCS.get(ufunc)
        return NotImplemented if rule is None else rule(*inputs)

    def __array_function__(self, func, types, args, kwargs):
        if func in _QUERIES:
            return func(*(_value(x) for x in args), **kwargs)
        rule = _FUNCTIONS.get(func)
        return NotImplemented if rule is None else rule(*args, **kwargs)

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


def _value(x):
    return x.value if isinstance(x, Tensor) else x


def _is_basic_index(key) -> bool:
    """True when ``key`` uses only ints/slices/Ellipsis (no index arrays)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        isinstance(k, (int, np.integer, slice)) or k is Ellipsis or k is None
        for k in parts
    )


# -- elementwise functions ---------------------------------------------------


def _binary(forward, da, db):
    """A binary op; ``da(g, a, b)`` and ``db(g, a, b)`` map the output
    gradient to its operands' before their broadcasting is undone."""
    def op(a, b):
        a, b = _wrap(a), _wrap(b)
        def vjp(g):
            return (
                (a, _unbroadcast(da(g, a.value, b.value), a.shape)),
                (b, _unbroadcast(db(g, a.value, b.value), b.shape)),
            )
        return Tensor(forward(a.value, b.value), _parents=(a, b), _vjp=vjp)
    return op


def _unary(forward, backward):
    """A unary op; ``backward(value, out)`` returns the local derivative."""
    def op(x):
        out = forward(x.value)
        def vjp(g):
            return ((x, g * backward(x.value, out)),)
        return Tensor(out, _parents=(x,), _vjp=vjp)
    return op


#: the logistic function of a Tensor, the kernel's own split by sign
sigmoid = _unary(_sigmoid, lambda v, out: out * (1.0 - out))


def _arccos_deriv(v, out):
    """Inputs are expected pre-clamped into [-1, 1]; at the ends the true
    derivative is infinite, and zero is reported instead (consistent with
    the zero-gradient-when-clamped convention)."""
    t = 1.0 - v * v
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, -1.0 / np.sqrt(safe), 0.0)


def _arccosh_deriv(v, out):
    """Zero at x == 1, the clamped end of the domain."""
    t = v * v - 1.0
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, 1.0 / np.sqrt(safe), 0.0)


def _negative(x):
    def vjp(g):
        return ((x, -g),)
    return Tensor(-x.value, _parents=(x,), _vjp=vjp)


def _clip(x, lo=None, hi=None):
    """Clamp into [lo, hi]; gradient flows only strictly inside the bounds."""
    out = np.clip(x.value, lo, hi)
    inside = np.ones(x.value.shape, dtype=bool)
    if lo is not None:
        inside &= x.value > lo
    if hi is not None:
        inside &= x.value < hi
    def vjp(g):
        return ((x, g * inside),)
    return Tensor(out, _parents=(x,), _vjp=vjp)


def _where(cond, a, b):
    """Elementwise selection; ``cond`` is a plain boolean array."""
    cond = np.asarray(cond, dtype=bool)
    a, b = _wrap(a), _wrap(b)
    out = np.where(cond, a.value, b.value)
    def vjp(g):
        return (
            (a, _unbroadcast(np.where(cond, g, 0.0), a.shape)),
            (b, _unbroadcast(np.where(cond, 0.0, g), b.shape)),
        )
    return Tensor(out, _parents=(a, b), _vjp=vjp)


# -- reductions and shape ops -------------------------------------------------


def _sum(x, axis=None, keepdims: bool = False):
    out = np.sum(x.value, axis=axis, keepdims=keepdims)
    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return ((x, np.broadcast_to(g, x.shape).copy()),)
    return Tensor(out, _parents=(x,), _vjp=vjp)


def _reshape(x, shape):
    def vjp(g):
        return ((x, g.reshape(x.shape)),)
    return Tensor(x.value.reshape(shape), _parents=(x,), _vjp=vjp)


def _broadcast_to(x, shape):
    def vjp(g):
        return ((x, _unbroadcast(g, x.shape)),)
    return Tensor(np.array(np.broadcast_to(x.value, shape)), _parents=(x,), _vjp=vjp)


def _concatenate(parts, axis: int = 0):
    parts = [_wrap(p) for p in parts]
    values = [p.value for p in parts]
    offsets = np.cumsum([v.shape[axis] for v in values])[:-1]
    def vjp(g):
        return tuple(zip(parts, np.split(g, offsets, axis=axis)))
    return Tensor(np.concatenate(values, axis=axis), _parents=tuple(parts), _vjp=vjp)


def _stack(parts, axis: int = 0):
    parts = [_wrap(p) for p in parts]
    def vjp(g):
        return tuple(zip(parts, np.moveaxis(g, axis, 0)))
    out = np.stack([p.value for p in parts], axis=axis)
    return Tensor(out, _parents=tuple(parts), _vjp=vjp)


#: ufunc -> rule recording it; any other ufunc raises TypeError
_UFUNCS = {
    np.add: _binary(np.add, lambda g, a, b: g, lambda g, a, b: g),
    np.subtract: _binary(np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    np.multiply: _binary(np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a),
    np.divide: _binary(np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
    np.minimum: _binary(np.minimum, lambda g, a, b: np.where(a <= b, g, 0.0),
                        lambda g, a, b: np.where(a <= b, 0.0, g)),
    np.negative: _negative,
    np.sqrt: _unary(np.sqrt, lambda v, out: 0.5 / out),
    np.log: _unary(np.log, lambda v, out: 1.0 / v),
    np.cos: _unary(np.cos, lambda v, out: -np.sin(v)),
    np.sin: _unary(np.sin, lambda v, out: np.cos(v)),
    np.cosh: _unary(np.cosh, lambda v, out: np.sinh(v)),
    np.sinh: _unary(np.sinh, lambda v, out: np.cosh(v)),
    np.arccos: _unary(np.arccos, _arccos_deriv),
    np.arccosh: _unary(np.arccosh, _arccosh_deriv),
}

#: comparisons read values and return plain bool arrays
_COMPARISONS = (np.less, np.less_equal, np.greater, np.greater_equal, np.equal, np.not_equal)

#: array function -> rule recording it; any other function raises TypeError
_FUNCTIONS = {
    np.clip: _clip,
    np.where: _where,
    np.sum: _sum,
    np.reshape: _reshape,
    np.broadcast_to: _broadcast_to,
    np.concatenate: _concatenate,
    np.stack: _stack,
}

#: array functions that only read shapes
_QUERIES = (np.shape, np.size)
