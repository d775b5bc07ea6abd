"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: it supports exactly the primitives the
seven architectures' graphs and their scoring-rule losses use (affine maps,
elementwise arithmetic, abs, tanh/softplus, sum/mean/max/min reductions,
concatenation, reshapes, slicing and embedding lookup), plus two fused ops
with hand-written backwards: ``linear``, an affine map as one node that
keeps no product beside its output, and multi-head ``attention``.  The
closed-form CRPS loss (:func:`enspost.dist.crps_tlogis_core`) is one more
such node, built with :func:`_node` where its formula lives.  Every forward
is the NumPy expression of its op (``a / b`` divides), so a formula gives
the same bits on arrays and on the tape.
Everything is eager: calling an op computes its forward value at once.
A Tensor is always on the tape; ops on arrays return arrays.  An op with a
Tensor operand returns a Tensor that keeps those operands as parents and
its adjoint closure; an op on arrays or numbers alone returns a plain
float64 array, so no constant is boxed and no closure computes a gradient
for one.  :func:`eval_graph` hands the graph the parameter views
themselves, so a forward is plain NumPy: it builds no Tensor, keeps no
graph, and frees each intermediate as soon as the graph function drops it.
A node stores the first gradient it receives as is and adds the second out
of place, so backward closures never write into their incoming gradient;
later ones go in place into that sum, which the node owns.
A graph's backward runs once: it releases every interior node's value
before the sweep, so an activation lives on only where a closure captured
it, and each interior node's gradient, closure and parent links as soon as
the closure has run, so the activations of a training step are freed as
the reverse sweep passes them and only the leaf gradients remain.
A graph is a plain function ``fn(params, inputs) -> Tensor or array``: only
the parameter slices become leaves, and the input arrays (integer station
or cell ids included) reach ``fn`` as the caller passed them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError, NumericError

__all__ = [
    "ParamVector",
    "Tensor",
    "value_of",
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
    underlying storage.  They are built once, so ``values`` must only ever be
    written in place, never rebound.
    """

    def __init__(self, values, layout):
        values = np.asarray(values, dtype=np.float64).ravel()
        covered = 0
        for name, (offset, shape) in sorted(layout.items(), key=lambda kv: kv[1][0]):
            n = math.prod(shape)
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
        self._views = {name: values[offset:offset + math.prod(shape)]
                       .reshape(shape)
                       for name, (offset, shape) in self.layout.items()}

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
            n = math.prod(shape)
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
        return self._views[name]

    def copy(self):
        return ParamVector(self.values.copy(), self.layout)

    def __reduce__(self):
        # a pickled view would come back as a copy, no longer aliasing values
        return ParamVector, (self.values, self.layout)

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        return f"ParamVector(size={self.size}, slices={list(self.layout)})"


# ---------------------------------------------------------------------------
# Tensors and primitives
# ---------------------------------------------------------------------------


class Tensor:
    """Node on the tape: a leaf, or the output of an op with a Tensor
    operand, which keeps those operands as parents.  A Tensor is always on
    the tape; ops on arrays return arrays.

    NumPy defers to a Tensor (``__array_ufunc__ = None``): ``ndarray ⊕
    Tensor`` calls the Tensor's reflected operator and returns a Tensor.  A
    Tensor has no ``__array__``, through which NumPy would silently drop the
    tape; :func:`value_of` reads its array.
    """

    __slots__ = ("value", "grad", "op", "_parents", "_backward", "_owns_grad")
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None, op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.op = op
        self._parents = parents
        self._backward = backward
        self._owns_grad = False

    @property
    def shape(self):
        """The value's shape; None once :meth:`backward` released it."""
        return None if self.value is None else self.value.shape

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
        """Accumulate the gradient of this scalar into every leaf on the tape.

        A graph's backward runs once.  Before the sweep it sets the value of
        every interior node to None (leaves and this root keep theirs), so
        an activation that no closure captured, such as a pre-activation or
        a residual operand, is freed before the backward's temporaries
        peak.  The reverse sweep then drops each interior node's gradient,
        backward closure and parent links right after the closure runs, so
        the arrays its closure captured are freed as the sweep passes them.
        Leaf gradients stay.
        """
        if self.value.ndim != 0 and self.value.size != 1:
            raise ContractError("backward requires a scalar output")
        order = self._topo()
        for node in order:
            node.grad = None
            node._owns_grad = False
            if node._backward is not None and node is not self:
                node.value = None
        self.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if node._backward is None:        # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None
            node._parents = []

    def _accumulate(self, g):
        # the first gradient may alias another node's or be a read-only
        # broadcast view, so the second is added out of place; that sum is
        # this node's own, and later ones are added into it
        if self.grad is None:
            self.grad = g
        elif self._owns_grad:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._owns_grad = True

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
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape})"


def value_of(x):
    """The array of a Tensor, or ``x`` itself as a float64 array."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(value, operands, backward, op):
    """An op's result: a Tensor whose parents are its Tensor operands, or,
    when no operand is a Tensor, ``value`` as a float64 array."""
    parents = [a for a in operands if isinstance(a, Tensor)]
    if not parents:
        return np.asarray(value, dtype=np.float64)
    return Tensor(value, parents, backward, op)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, s in enumerate(shape):
        if s == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    av, bv = value_of(a), value_of(b)
    a_shape, b_shape = av.shape, bv.shape

    def backward(g):
        if isinstance(a, Tensor):
            a._accumulate(_unbroadcast(g, a_shape))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(g, b_shape))

    return _node(av + bv, (a, b), backward, "add")


def mul(a, b):
    av, bv = value_of(a), value_of(b)

    def backward(g):
        if isinstance(a, Tensor):
            a._accumulate(_unbroadcast(g * bv, av.shape))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(g * av, bv.shape))

    return _node(av * bv, (a, b), backward, "mul")


def div(a, b):
    av, bv = value_of(a), value_of(b)
    y = av / bv

    def backward(g):
        if isinstance(a, Tensor):
            a._accumulate(_unbroadcast(g / bv, av.shape))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(-g * y / bv, bv.shape))

    return _node(y, (a, b), backward, "div")


def _weight_grad(x, g):
    """Gradient of a 2-D weight ``w`` in ``x @ w``: one GEMM over all rows."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a, b):
    """Matrix product with numpy-style batch broadcasting on leading axes;
    ``b`` may be a 1-D constant."""
    av, bv = value_of(a), value_of(b)

    def backward(g):
        if isinstance(a, Tensor):
            ga = (g[..., None] * bv if bv.ndim == 1
                  else g @ np.swapaxes(bv, -1, -2))
            a._accumulate(_unbroadcast(ga, av.shape))
        if not isinstance(b, Tensor):
            return
        if bv.ndim == 2 and av.ndim >= 2:
            # a batch times a weight: every leading axis of ``a`` is a row
            b._accumulate(_weight_grad(av, g))
        else:
            gb = np.swapaxes(av, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, bv.shape))

    return _node(av @ bv, (a, b), backward, "matmul")


def absolute(a):
    av = value_of(a)
    return _node(np.abs(av), (a,),
                 lambda g: a._accumulate(g * np.sign(av)), "absolute")


def tanh(a):
    y = np.tanh(value_of(a))
    return _node(y, (a,), lambda g: a._accumulate(g * (1.0 - y * y)), "tanh")


def _sigmoid(x):
    # piecewise exp form keeps full relative accuracy in both tails, which
    # the tanh identity does not (its absolute error ~1e-16 swamps tiny tails)
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def softplus(a):
    av = value_of(a)
    return _node(np.logaddexp(0.0, av), (a,),
                 lambda g: a._accumulate(g * _sigmoid(av)), "softplus")


def _sum(a, axis=None):
    av = value_of(a)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, av.shape))

    return _node(av.sum(axis=axis), (a,), backward, "sum")


def mean(a, axis=None):
    av = value_of(a)
    n = av.size if axis is None else av.shape[axis]
    return mul(_sum(a, axis=axis), 1.0 / n)


def _extremum(a, axis, np_reduce):
    av = value_of(a)
    y = np_reduce(av, axis=axis, keepdims=True)

    def backward(g):
        # ties share the gradient equally so finite differences stay consistent
        mask = (av == y).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)
        a._accumulate(np.expand_dims(g, axis) * mask)

    return _node(np.squeeze(y, axis=axis), (a,), backward, np_reduce.__name__)


def amax(a, axis):
    return _extremum(a, axis, np.max)


def amin(a, axis):
    return _extremum(a, axis, np.min)


def concat(tensors, axis=-1):
    values = [value_of(t) for t in tensors]

    def backward(g):
        splits = np.cumsum([v.shape[axis] for v in values])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if isinstance(t, Tensor):
                t._accumulate(piece)

    return _node(np.concatenate(values, axis=axis), tensors, backward,
                 "concat")


def _gather(a, key, op):
    av = value_of(a)
    out = av[key]
    # a view (basic indexing) selects no position twice, so adding through
    # it gives np.add.at's bits without its per-element loop
    view = np.may_share_memory(out, av)

    def backward(g):
        acc = np.zeros_like(av)
        if view:
            acc[key] += g
        else:
            np.add.at(acc, key, g)
        a._accumulate(acc)

    return _node(out, (a,), backward, op)


def take(a, key):
    return _gather(a, key, "take")


def embedding(table, indices):
    """Row lookup into ``table`` with integer ``indices``."""
    return _gather(table, np.asarray(indices), "embedding")


def reshape(a, shape):
    av = value_of(a)
    return _node(av.reshape(shape), (a,),
                 lambda g: a._accumulate(g.reshape(av.shape)), "reshape")


def linear(x, w, b):
    """Affine map on the trailing axis, ``x @ w + b``, as one tape node.

    ``x`` is (..., D), ``w`` a 2-D (D, L) weight and ``b`` an (L,) bias.  The
    product is not kept beside the output, and the backward runs the ops of
    ``add(matmul(x, w), b)``, so every gradient is theirs bit for bit.
    """
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    y = xv @ wv
    y += bv

    def backward(g):
        if isinstance(x, Tensor):
            x._accumulate(g @ wv.T)
        if isinstance(w, Tensor):
            w._accumulate(_weight_grad(xv, g))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(g, bv.shape))

    return _node(y, (x, w, b), backward, "linear")


def _split_heads(t, heads):
    # (n, s, L) -> (n, heads, s, L/heads), a view
    n, s, width = t.shape
    return t.reshape(n, s, heads, width // heads).transpose(0, 2, 1, 3)


def _merge_heads(t):
    # (n, heads, s, d) -> (n, s, heads * d)
    n, heads, s, d = t.shape
    return t.transpose(0, 2, 1, 3).reshape(n, s, heads * d)


def _project(x, w, heads, scale=None):
    """Head-split projection ``x @ w`` (times ``scale``): the forward's Q,
    K and V, and the backward's recomputation of them."""
    t = x @ w
    if scale is not None:
        t *= scale
    return _split_heads(t, heads)


def attention(xq, xk, xv, wq, wk, wv, wo, heads):
    """Multi-head softmax attention as one tape node.

    Computes ``concat_h(softmax(Q_h K_hᵀ / √d) V_h) @ wo`` with
    ``Q = xq @ wq``, ``K = xk @ wk`` and ``V = xv @ wv``.  ``xk`` and ``xv``
    are (n, s, D); ``xq`` is (n, s_q, D) or a (1, s_q, D) query shared by the
    whole batch; ``wq``/``wk``/``wv`` are (D, L) and ``wo`` is (L, L_out),
    with ``heads`` dividing L.

    The forward scales Q rather than the scores, exponentiates the
    max-shifted scores in place and divides by the row sums after mixing the
    values, on (.., s_q, d) instead of (.., s_q, s).  The backward is written
    by hand: the softmax step uses ``gS = P ⊙ (gP − rowsum(gP ⊙ P))`` with
    the row sum taken as the equal, smaller ``rowsum(gO ⊙ O)`` (Dao et al.
    2022), and every weight gradient is one 2-D GEMM.

    For its backward the node keeps only the exponentiated scores, their
    row sums, the merged head outputs and its input arrays.  The backward
    recomputes Q, K and V with the forward's expressions, as FlashAttention
    does, normalises the scores in place (a graph's backward runs once) and
    drops each temporary after its last use.
    """
    operands = (xq, xk, xv, wq, wk, wv, wo)
    xq_v, xk_v, xv_v, wq_v, wk_v, wv_v, wo_v = (value_of(t) for t in operands)
    width = wq_v.shape[-1]
    if width % heads != 0:
        raise ConfigError("heads must divide the channel width")
    scale = 1.0 / np.sqrt(width / heads)
    e = _project(xq_v, wq_v, heads, scale) @ np.swapaxes(
        _project(xk_v, wk_v, heads), -1, -2)
    e -= e.max(axis=-1, keepdims=True)    # scaled scores, exponentiated
    np.exp(e, out=e)
    rows = e.reshape(-1, e.shape[-1])     # row sums as one GEMV
    total = (rows @ np.ones(rows.shape[1])).reshape(*e.shape[:-1], 1)
    o = e @ _project(xv_v, wv_v, heads)
    o /= total                            # softmax(scores) @ V
    mixed = _merge_heads(o)
    del o

    def backward(g):
        p = e
        p /= total                        # e / total, in place
        if isinstance(wo, Tensor):
            wo._accumulate(_weight_grad(mixed, g))
        go = _split_heads(g @ wo_v.T, heads)
        gs = go @ np.swapaxes(_project(xv_v, wv_v, heads), -1, -2)
        gs -= np.einsum("...i,...i->...", go,
                        _split_heads(mixed, heads))[..., None]
        gs *= p
        gq = gs @ _project(xk_v, wk_v, heads)
        gq *= scale
        _projection_grads(xq, wq, xq_v, wq_v, gq)
        del gq
        gk = np.swapaxes(gs, -1, -2) @ _project(xq_v, wq_v, heads, scale)
        del gs
        _projection_grads(xk, wk, xk_v, wk_v, gk)
        del gk
        gv = np.swapaxes(p, -1, -2) @ go
        del go
        _projection_grads(xv, wv, xv_v, wv_v, gv)

    return _node(mixed @ wo_v, operands, backward, "attention")


def _projection_grads(x, w, x_v, w_v, gh):
    """Pass the head-split gradient ``gh`` of ``x @ w`` to ``w`` and ``x``."""
    if gh.shape[0] != x_v.shape[0]:       # a query shared by the batch
        gh = gh.sum(axis=0, keepdims=True)
    gh = _merge_heads(gh)
    if isinstance(w, Tensor):
        w._accumulate(_weight_grad(x_v, gh))
    if isinstance(x, Tensor):
        x._accumulate(gh @ w_v.T)


# ---------------------------------------------------------------------------
# Graphs: functions ``fn(params, inputs) -> Tensor or array``
# ---------------------------------------------------------------------------


def _leaves(params: ParamVector):
    return {name: Tensor(view, op=f"param:{name}")
            for name, view in params._views.items()}


def _output(out):
    """``out`` if a graph may return it: a Tensor, an array or a float."""
    if not isinstance(out, (Tensor, np.ndarray, float)):
        raise ConfigError("graph function must return a Tensor or an array")
    return out


def _run(fn, params: ParamVector, inputs):
    """``fn(leaves, inputs)`` and the leaves: the parameter slices become
    Tensor leaves; the input arrays reach ``fn`` as the caller passed them."""
    leaves = _leaves(params)
    return _output(fn(leaves, inputs or {})), leaves


def _check_finite(out):
    """Raise NumericError unless a graph's result is finite, naming the
    first op on the tape with a non-finite value."""
    if np.all(np.isfinite(value_of(out))):
        return
    if not isinstance(out, Tensor):
        raise NumericError("non-finite value that no parameter reaches")
    bad = next(n for n in out._topo() if not np.all(np.isfinite(n.value)))
    raise NumericError(f"non-finite value produced by op {bad.op!r}")


def eval_graph(fn, params: ParamVector, inputs=None):
    """Forward-evaluate a graph; returns a fresh float64 array.

    The graph receives the parameter views themselves, so every op returns
    a plain array and the forward keeps no graph.  A non-finite output runs
    the graph once more on the tape, to name the op that produced it.
    """
    out = value_of(_output(fn(params._views, inputs or {})))
    if not np.all(np.isfinite(out)):
        _check_finite(_run(fn, params, inputs)[0])
    return np.array(out, order="C")


def value_and_grad(fn, params: ParamVector, inputs=None):
    """Scalar value and gradient of a graph in one forward/backward pass.

    The gradient is one flat float64 array in the layout of
    ``params.values``; slices that no path reaches are zero.
    """
    out, leaves = _run(fn, params, inputs)
    value = value_of(out)
    if value.ndim != 0 and value.size != 1:
        raise ContractError("value_and_grad requires a scalar-valued graph")
    _check_finite(out)
    if isinstance(out, Tensor):
        out.backward()
    grad = np.zeros_like(params.values)
    for name, leaf in leaves.items():
        if leaf.grad is not None:
            offset = params.layout[name][0]
            grad[offset:offset + leaf.value.size].reshape(
                leaf.value.shape)[...] = leaf.grad
    return float(value), grad


def finite_diff_check(fn, params: ParamVector, inputs=None, step=1e-4):
    """Max relative error between analytic and central-difference gradients.

    The numeric gradient is the fourth-order central difference
    ``(8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h``.  Its truncation
    error, of order f^(5)*h^4, stays far below the tolerance even on a
    component whose own slope is small while the third derivative along it
    is not; there the second-order stencil's f'''*h^2/6 reads as a
    relative error of some 1e-6.

    Per parameter the error is ``|analytic - cd| / max(|analytic|, |cd|,
    floor)`` with ``floor = 1e-5 * max(1, ||cd||_inf)``.  Scaling the floor
    with the gradient magnitude keeps roundoff, of order eps*|f|/step and
    set by the dominant scale rather than the component under test, from
    registering as error on components many orders below that scale, while
    a wrong gradient on any component that matters still scores O(1).
    """
    if step <= 0:
        raise ConfigError("step must be positive")
    analytic = value_and_grad(fn, params, inputs)[1]
    numeric = np.zeros_like(analytic)
    work = params.copy()

    def shifted(j, orig, offset):
        work.values[j] = orig + offset
        return float(eval_graph(fn, work, inputs))

    for j in range(work.size):
        orig = work.values[j]
        near = shifted(j, orig, step) - shifted(j, orig, -step)
        far = shifted(j, orig, 2.0 * step) - shifted(j, orig, -2.0 * step)
        work.values[j] = orig
        numeric[j] = (8.0 * near - far) / (12.0 * step)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    floor = 1e-5 * max(1.0, float(np.abs(numeric).max(initial=0.0)))
    return float(np.max(np.abs(analytic - numeric) / np.maximum(denom, floor)))
