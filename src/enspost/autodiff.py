"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: it supports exactly the primitives needed
for MLPs, softmax attention and the scoring-rule losses used elsewhere in
this package (affine maps, elementwise arithmetic, softplus/exp/log/tanh/
sigmoid, softmax, mean/max/min reductions, concatenation and embedding
lookup).  Everything is eager: calling an op both computes the forward value
and records the adjoint closure on a tape implied by the parent links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, ContractError, NumericError

__all__ = [
    "ParamVector",
    "Tensor",
    "Graph",
    "constant",
    "eval_graph",
    "value_and_grad",
    "finite_diff_check",
]


# ---------------------------------------------------------------------------
# Parameter vectors
# ---------------------------------------------------------------------------


class ParamVector:
    """Flat float64 parameter vector with a named-slice layout.

    ``layout`` maps a name to ``(offset, shape)``.  Slices must be disjoint
    and cover the vector exactly; views returned by :meth:`view` alias the
    underlying storage.
    """

    def __init__(self, values, layout):
        values = np.asarray(values, dtype=np.float64).ravel()
        covered = 0
        for name, (offset, shape) in sorted(layout.items(), key=lambda kv: kv[1][0]):
            n = int(np.prod(shape, dtype=int))
            if offset != covered:
                raise ConfigError(f"layout slice {name!r} overlaps or leaves a gap")
            covered += n
        if covered != values.size:
            raise ConfigError(
                f"layout covers {covered} entries, vector has {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("parameter vector contains non-finite entries")
        self.values = values
        self.layout = dict(layout)

    @classmethod
    def build(cls, shapes, initializer=None):
        """Create a vector from ``{name: shape}``.

        ``initializer`` is either None (zeros) or a callable
        ``initializer(name, shape) -> array``.
        """
        layout = {}
        chunks = []
        offset = 0
        for name, shape in shapes.items():
            shape = tuple(int(s) for s in shape)
            layout[name] = (offset, shape)
            n = int(np.prod(shape, dtype=int))
            if initializer is None:
                chunk = np.zeros(n)
            else:
                chunk = np.asarray(initializer(name, shape), dtype=np.float64).ravel()
                if chunk.size != n:
                    raise ConfigError(f"initializer for {name!r} has wrong size")
            chunks.append(chunk)
            offset += n
        values = np.concatenate(chunks) if chunks else np.zeros(0)
        return cls(values, layout)

    def view(self, name):
        offset, shape = self.layout[name]
        n = int(np.prod(shape, dtype=int))
        return self.values[offset : offset + n].reshape(shape)

    def copy(self):
        return ParamVector(self.values.copy(), self.layout)

    def zeros_like(self):
        return ParamVector(np.zeros_like(self.values), self.layout)

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        return f"ParamVector(size={self.size}, slices={list(self.layout)})"


# ---------------------------------------------------------------------------
# Tensors and primitives
# ---------------------------------------------------------------------------


class Tensor:
    """Node in the differentiation tape."""

    __slots__ = ("value", "grad", "op", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None, op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.op = op
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    # -- graph traversal ----------------------------------------------------

    def _topo(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        return order

    def backward(self):
        if self.value.ndim != 0 and self.value.size != 1:
            raise ContractError("backward requires a scalar output")
        order = self._topo()
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad = self.grad + g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, reciprocal(_wrap(other)))

    def __rtruediv__(self, other):
        return mul(_wrap(other), reciprocal(self))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


def constant(x):
    """Wrap an array as a non-differentiable leaf."""
    return _wrap(x)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, s in enumerate(shape):
        if s == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value + b.value, (a, b), op="add")

    def backward(g):
        a._accumulate(_unbroadcast(g, a.value.shape))
        b._accumulate(_unbroadcast(g, b.value.shape))

    out._backward = backward
    return out


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value * b.value, (a, b), op="mul")

    def backward(g):
        a._accumulate(_unbroadcast(g * b.value, a.value.shape))
        b._accumulate(_unbroadcast(g * a.value, b.value.shape))

    out._backward = backward
    return out


def reciprocal(a):
    a = _wrap(a)
    out = Tensor(1.0 / a.value, (a,), op="reciprocal")

    def backward(g):
        a._accumulate(_unbroadcast(-g / (a.value * a.value), a.value.shape))

    out._backward = backward
    return out


def matmul(a, b):
    """Matrix product with numpy-style batch broadcasting on leading axes."""
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value @ b.value, (a, b), op="matmul")

    def backward(g):
        ga = g @ np.swapaxes(b.value, -1, -2)
        gb = np.swapaxes(a.value, -1, -2) @ g
        a._accumulate(_unbroadcast(ga, a.value.shape))
        b._accumulate(_unbroadcast(gb, b.value.shape))

    out._backward = backward
    return out


def exp(a):
    a = _wrap(a)
    y = np.exp(a.value)
    out = Tensor(y, (a,), op="exp")
    out._backward = lambda g: a._accumulate(g * y)
    return out


def log(a):
    a = _wrap(a)
    out = Tensor(np.log(a.value), (a,), op="log")
    out._backward = lambda g: a._accumulate(g / a.value)
    return out


def tanh(a):
    a = _wrap(a)
    y = np.tanh(a.value)
    out = Tensor(y, (a,), op="tanh")
    out._backward = lambda g: a._accumulate(g * (1.0 - y * y))
    return out


def _sigmoid(x):
    # piecewise exp form keeps full relative accuracy in both tails, which
    # the tanh identity does not (its absolute error ~1e-16 swamps tiny tails)
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a):
    a = _wrap(a)
    y = _sigmoid(a.value)
    out = Tensor(y, (a,), op="sigmoid")
    out._backward = lambda g: a._accumulate(g * y * (1.0 - y))
    return out


def softplus(a):
    a = _wrap(a)
    y = np.logaddexp(0.0, a.value)
    out = Tensor(y, (a,), op="softplus")
    out._backward = lambda g: a._accumulate(g * _sigmoid(a.value))
    return out


def _trunc_tail_value(lb):
    """Stable evaluation of ``e^{2 softplus(lb)} (softplus(-lb) - sigmoid(-lb))``.

    This is the tail contribution of the truncated-logistic CRPS.  Written
    in terms of ``w = sigmoid(-lb)`` it equals ``(-log1p(-w) - w) / w**2``,
    which tends to 1/2 as lb grows; the naive difference of softplus and
    sigmoid cancels catastrophically there, so small ``w`` switches to the
    Taylor series ``1/2 + w/3 + w^2/4 + w^3/5 + w^4/6``.
    """
    lb = np.asarray(lb, dtype=np.float64)
    small = lb > 6.9  # w = sigmoid(-lb) < 1e-3
    lb_d = np.minimum(lb, 6.9)  # keeps the unused direct branch finite
    direct = np.exp(2.0 * np.logaddexp(0.0, lb_d)) * (
        np.logaddexp(0.0, -lb_d) - _sigmoid(-lb_d)
    )
    w = _sigmoid(-lb)
    series = 0.5 + w * (1.0 / 3.0 + w * (0.25 + w * (0.2 + w / 6.0)))
    return np.where(small, series, direct)


def trunc_tail(a):
    """Tail term of the truncated-logistic CRPS; see :func:`_trunc_tail_value`.

    The derivative follows from d/dw[(-log1p(-w) - w)/w^2] together with
    dw/dlb = -w(1-w): it collapses to ``g'(lb) = 2 sigmoid(lb) g(lb) - 1``.
    """
    a = _wrap(a)
    y = _trunc_tail_value(a.value)
    out = Tensor(y, (a,), op="trunc_tail")
    out._backward = lambda g: a._accumulate(g * (2.0 * _sigmoid(a.value) * y - 1.0))
    return out


def softmax(a, axis=-1):
    a = _wrap(a)
    z = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (a,), op="softmax")

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        a._accumulate(y * (g - inner))

    out._backward = backward
    return out


def _sum(a, axis=None, keepdims=False):
    a = _wrap(a)
    out = Tensor(a.value.sum(axis=axis, keepdims=keepdims), (a,), op="sum")

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.value.shape).copy())

    out._backward = backward
    return out


def mean(a, axis=None, keepdims=False):
    a = _wrap(a)
    if axis is None:
        n = a.value.size
    else:
        n = a.value.shape[axis]
    return mul(_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def _extremum(a, axis, np_reduce):
    a = _wrap(a)
    y = np_reduce(a.value, axis=axis, keepdims=True)
    # ties share the gradient equally so finite differences stay consistent
    mask = (a.value == y).astype(np.float64)
    mask /= mask.sum(axis=axis, keepdims=True)
    out = Tensor(np.squeeze(y, axis=axis), (a,), op=np_reduce.__name__)

    def backward(g):
        a._accumulate(np.expand_dims(g, axis) * mask)

    out._backward = backward
    return out


def amax(a, axis):
    return _extremum(a, axis, np.max)


def amin(a, axis):
    return _extremum(a, axis, np.min)


def concat(tensors, axis=-1):
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.value for t in tensors], axis=axis),
                 tuple(tensors), op="concat")
    sizes = [t.value.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    out._backward = backward
    return out


def _gather(a, key, op):
    a = _wrap(a)
    out = Tensor(a.value[key], (a,), op=op)

    def backward(g):
        acc = np.zeros_like(a.value)
        np.add.at(acc, key, g)
        a._accumulate(acc)

    out._backward = backward
    return out


def take(a, key):
    return _gather(a, key, "take")


def embedding(table, indices):
    """Row lookup into ``table`` (a Tensor) with integer ``indices``."""
    return _gather(table, np.asarray(indices), "embedding")


def reshape(a, shape):
    a = _wrap(a)
    out = Tensor(a.value.reshape(shape), (a,), op="reshape")
    out._backward = lambda g: a._accumulate(g.reshape(a.value.shape))
    return out


def transpose(a, axes):
    a = _wrap(a)
    inverse = np.argsort(axes)
    out = Tensor(a.value.transpose(axes), (a,), op="transpose")
    out._backward = lambda g: a._accumulate(g.transpose(inverse))
    return out


def where(cond, a, b):
    """Select elementwise on a *constant* boolean condition."""
    cond = np.asarray(cond, dtype=bool)
    a, b = _wrap(a), _wrap(b)
    out = Tensor(np.where(cond, a.value, b.value), (a, b), op="where")

    def backward(g):
        a._accumulate(_unbroadcast(np.where(cond, g, 0.0), a.value.shape))
        b._accumulate(_unbroadcast(np.where(cond, 0.0, g), b.value.shape))

    out._backward = backward
    return out


def linear(x, w, b=None):
    """Affine map on the trailing axis: ``x @ w + b``."""
    y = matmul(x, w)
    return y if b is None else add(y, b)


# ---------------------------------------------------------------------------
# Graphs: functions of (parameters, inputs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Differentiable function ``fn(params, inputs) -> Tensor``.

    ``fn`` receives a mapping from parameter-slice name to leaf Tensor and a
    mapping from input name to constant Tensor.  Evaluation is deterministic
    given parameters and inputs.
    """

    fn: Callable[[Mapping[str, Tensor], Mapping[str, Tensor]], Tensor]


def _leaves(params: ParamVector):
    return {name: Tensor(params.view(name), op=f"param:{name}")
            for name in params.layout}


def _run(graph: Graph, params: ParamVector, inputs):
    leaves = _leaves(params)
    consts = {k: constant(v) for k, v in (inputs or {}).items()}
    out = graph.fn(leaves, consts)
    if not isinstance(out, Tensor):
        raise ConfigError("graph function must return a Tensor")
    return out, leaves


def _check_finite(out: Tensor):
    """Raise NumericError naming the first op with a non-finite value."""
    if not np.all(np.isfinite(out.value)):
        bad = next(n for n in out._topo() if not np.all(np.isfinite(n.value)))
        raise NumericError(f"non-finite value produced by op {bad.op!r}")


def eval_graph(graph: Graph, params: ParamVector, inputs=None):
    """Forward-evaluate a graph; returns a numpy array."""
    out, _ = _run(graph, params, inputs)
    _check_finite(out)
    return out.value.copy()


def value_and_grad(graph: Graph, params: ParamVector, inputs=None):
    """Scalar value and gradient of a graph in one forward/backward pass."""
    out, leaves = _run(graph, params, inputs)
    if out.value.ndim != 0 and out.value.size != 1:
        raise ContractError("value_and_grad requires a scalar-valued graph")
    _check_finite(out)
    out.backward()
    result = params.zeros_like()
    for name, leaf in leaves.items():
        if leaf.grad is not None:
            result.view(name)[...] = leaf.grad
    return float(out.value), result


def finite_diff_check(graph: Graph, params: ParamVector, inputs=None, step=1e-4):
    """Max relative error between analytic and central-difference gradients.

    Per parameter the error is ``|analytic - cd| / max(|analytic|, |cd|,
    floor)`` with ``floor = 1e-5 * max(1, ||cd||_inf)``.  Scaling the floor
    with the gradient magnitude keeps central-difference noise -- roundoff
    of order eps*|f|/step and truncation of order f'''*step^2, both set by
    the dominant gradient scale rather than the component under test -- from
    registering as error on components many orders below that scale, while
    a wrong gradient on any component that matters still scores O(1).
    """
    if step <= 0:
        raise ConfigError("step must be positive")
    analytic = value_and_grad(graph, params, inputs)[1].values
    numeric = np.zeros_like(analytic)
    work = params.copy()
    for j in range(work.size):
        orig = work.values[j]
        work.values[j] = orig + step
        up = float(eval_graph(graph, work, inputs))
        work.values[j] = orig - step
        down = float(eval_graph(graph, work, inputs))
        work.values[j] = orig
        numeric[j] = (up - down) / (2.0 * step)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    floor = 1e-5 * max(1.0, float(np.abs(numeric).max(initial=0.0)))
    return float(np.max(np.abs(analytic - numeric) / np.maximum(denom, floor)))
