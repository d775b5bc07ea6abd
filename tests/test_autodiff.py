"""Unit tests for the reverse-mode autodiff engine."""

import operator
import pickle
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import enspost.autodiff as ad
from enspost.data import SynthConfig, fit_norm, generate_synthetic
from enspost.dist import crps_tlogis_core
from enspost.errors import ConfigError, ContractError, NumericError
from enspost.models import ModelConfig, graph_inputs, init_params
from enspost.train import Adam, loss_graph
from oracles import (central_difference, crps_tlogis_composed, exp,
                     multihead_attention_ref, softmax, softplus_ref,
                     transpose, trunc_tail, where)


# ---------------------------------------------------------------------------
# ParamVector
# ---------------------------------------------------------------------------


def test_paramvector_build_and_views():
    pv = ad.ParamVector.build({"w": (2, 3), "b": (3,)})
    assert pv.size == 9
    assert pv.view("w").shape == (2, 3)
    pv.view("b")[...] = [1.0, 2.0, 3.0]
    assert pv.values[6:].tolist() == [1.0, 2.0, 3.0]


def test_paramvector_layout_must_tile_exactly():
    with pytest.raises(ConfigError):
        ad.ParamVector(np.zeros(5), {"a": (0, (2,)), "b": (3, (2,))})
    with pytest.raises(ConfigError):
        ad.ParamVector(np.zeros(3), {"a": (0, (2,)), "b": (1, (2,))})
    with pytest.raises(NumericError):
        ad.ParamVector(np.array([1.0, np.nan]), {"a": (0, (2,))})


def test_paramvector_copy_is_independent():
    pv = ad.ParamVector.build({"a": (2,), "b": (1, 3)})
    cp = pv.copy()
    cp.values[0] = 5.0
    assert pv.values[0] == 0.0
    # the copy has its own views, on its own values
    for name in pv.layout:
        assert np.shares_memory(cp.view(name), cp.values)
        assert not np.shares_memory(cp.view(name), pv.values)
    cp.values[:] = 7.0
    assert cp.view("b").tolist() == [[7.0, 7.0, 7.0]]
    assert pv.view("b").tolist() == [[0.0, 0.0, 0.0]]


def test_views_and_leaves_see_in_place_optimizer_steps():
    pv = ad.ParamVector.build({"w": (2, 2), "b": (2,)},
                              lambda name, shape: np.ones(shape))
    w = pv.view("w")

    def graph(P, I):
        return ad._sum(ad.linear(I["x"], P["w"], P["b"]))

    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    optimizer = Adam(pv.size, 0.1)
    for _ in range(3):
        _, grad = ad.value_and_grad(graph, pv, {"x": x})
        optimizer.step(pv.values, grad)
        assert pv.view("w") is w
        assert w.tolist() == pv.values[:4].reshape(2, 2).tolist()
        leaves = ad._leaves(pv)
        assert leaves["b"].value.tolist() == pv.values[4:].tolist()
        assert float(ad.eval_graph(graph, pv, {"x": x})) == \
            float(np.sum(x @ pv.values[:4].reshape(2, 2) + pv.values[4:]))
    assert pv.values[0] != 1.0


def test_paramvector_pickle_keeps_views_aliasing_values():
    pv = ad.ParamVector.build({"a": (2,), "b": (3,)},
                              lambda name, shape: np.arange(3.0)[:shape[0]])
    back = pickle.loads(pickle.dumps(pv))
    assert back.values.tolist() == pv.values.tolist()
    assert back.layout == pv.layout
    back.values[:] = -1.0
    assert back.view("a").tolist() == [-1.0, -1.0]
    assert back.view("b").tolist() == [-1.0, -1.0, -1.0]


# ---------------------------------------------------------------------------
# Primitive forward values
# ---------------------------------------------------------------------------


def test_sigmoid_matches_reference_and_is_tail_stable():
    x = np.array([-600.0, -40.0, -1.3, 0.0, 1.3, 40.0, 600.0])
    with mpmath.workdps(50):
        ref = np.array([float(1 / (1 + mpmath.e ** (-mpmath.mpf(xi))))
                        for xi in x])
    np.testing.assert_allclose(ad._sigmoid(x), ref, rtol=2e-16)
    # deep tails keep full relative precision instead of saturating
    assert ad._sigmoid(np.array([-100.0]))[0] == pytest.approx(
        np.exp(-100.0), rel=1e-14)
    assert ad._sigmoid(np.array([100.0]))[0] == 1.0


def test_softplus_matches_reference():
    x = np.linspace(-30, 30, 101)
    out = ad.softplus(x)
    np.testing.assert_allclose(out, softplus_ref(x), rtol=1e-14)


def test_trunc_tail_value_matches_high_precision_reference():
    # reference (-log(1 - w) - w) / w^2 with w = sigmoid(-lb), evaluated in
    # 50-digit arithmetic so every branch of the implementation is covered
    for lb in (-30.0, -2.0, 0.0, 3.0, 6.85, 6.95, 9.0, 40.0, 1e6):
        with mpmath.workdps(50):
            w = 1 / (1 + mpmath.e ** mpmath.mpf(lb))
            if lb > 30:
                # series sum_{k>=2} w^{k-2} / k of the same expression,
                # needed once 1 - w rounds to 1 even at 50 digits
                ref = float(sum(w ** (k - 2) / k for k in range(2, 8)))
            else:
                ref = float((-mpmath.log(1 - w) - w) / w**2)
        got = float(ad._trunc_tail_value(np.array([lb]))[0])
        assert got == pytest.approx(ref, rel=1e-12), lb
    # asymptote: all mass truncated
    assert float(ad._trunc_tail_value(np.array([1e8]))[0]) == pytest.approx(0.5)


def _op_cases(rows, cols, second):
    """Every op with the shapes of its operands: a (rows, cols) operand and,
    for the elementwise binary ops, a broadcast one of shape ``second``."""
    m = (rows, cols)
    return {
        "add": (ad.add, [m, second]),
        "mul": (ad.mul, [m, second]),
        "div": (ad.div, [m, second]),
        "rdiv": (ad.div, [second, m]),
        "matmul": (ad.matmul, [m, (cols, 2)]),
        "matvec": (lambda a: ad.matmul(a, np.arange(cols) - 0.5), [m]),
        "absolute": (ad.absolute, [m]),
        "tanh": (ad.tanh, [m]),
        "softplus": (ad.softplus, [m]),
        "crps_tlogis": (lambda a, b: crps_tlogis_core(a, b, 0.5, 0.0),
                        [m, second]),
        "sum": (ad._sum, [m]),
        "mean": (lambda a: ad.mean(a, axis=1), [m]),
        "amax": (lambda a: ad.amax(a, axis=0), [m]),
        "amin": (lambda a: ad.amin(a, axis=1), [m]),
        "concat": (lambda a, b: ad.concat([a, b], axis=0), [m, (1, cols)]),
        "take": (lambda a: ad.take(a, (slice(1, None), 0)), [m]),
        "take_repeated": (lambda a: ad.take(a, np.zeros(2, dtype=int)), [m]),
        "embedding": (lambda a: ad.embedding(a, np.arange(rows)[::-1]), [m]),
        "reshape": (lambda a: ad.reshape(a, (cols, rows)), [m]),
        "linear": (ad.linear, [m, (cols, 2), (2,)]),
        "attention": (lambda x, w: ad.attention(x, x, x, w, w, w, w, 2),
                      [(rows, cols, 4), (4, 4)]),
    }


def _operand(data, shape, integer):
    """A drawn operand: a Python number for shape (), else an array."""
    if shape == ():
        return data.draw(st.integers(-3, 3) if integer
                         else st.floats(-3.0, 3.0))
    if integer:
        return data.draw(hnp.arrays(np.int64, shape,
                                    elements=st.integers(-3, 3)))
    return data.draw(hnp.arrays(np.float64, shape,
                                elements=st.floats(-3.0, 3.0)))


@settings(max_examples=300)
@given(op=st.sampled_from(sorted(_op_cases(1, 1, ()))),
       rows=st.integers(1, 3), cols=st.integers(1, 3),
       second=st.sampled_from(["full", "row", "column", "number"]),
       integer=st.booleans(), data=st.data())
def test_ops_on_arrays_return_the_tensor_value_as_an_array(op, rows, cols,
                                                           second, integer,
                                                           data):
    shape = {"full": (rows, cols), "row": (cols,), "column": (rows, 1),
             "number": ()}[second]
    call, shapes = _op_cases(rows, cols, shape)[op]
    operands = [_operand(data, s, integer) for s in shapes]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        plain = call(*operands)
        taped = call(*[ad.Tensor(a) for a in operands])
    assert type(plain) is np.ndarray and plain.dtype == np.float64
    assert isinstance(taped, ad.Tensor) and taped._parents
    assert plain.shape == taped.shape
    assert plain.tobytes() == taped.value.tobytes()


# ---------------------------------------------------------------------------
# Gradients against an independent central-difference loop
# ---------------------------------------------------------------------------


def _check_graph_grad(build, x0, rel=5e-6):
    """Compare value_and_grad() with an independent finite-difference loop."""
    layout = {"x": (0, x0.shape)}
    pv = ad.ParamVector(x0.copy(), layout)
    analytic = ad.value_and_grad(build, pv)[1]

    def f(flat):
        return float(ad.eval_graph(build, ad.ParamVector(flat, layout)))

    numeric = central_difference(f, x0.ravel(), h=1e-6)
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < rel


def test_elementwise_chain_gradient():
    x0 = np.array([0.3, -1.2, 2.0, 0.05])

    def build(P, I):
        x = P["x"]
        return ad.mean(exp(ad.tanh(x)) / (1.0 + exp(-x))
                       + ad.softplus(-x))

    _check_graph_grad(build, x0)


def test_matmul_linear_softmax_gradient():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4, 2))

    def build(P, I):
        x = P["x"]
        h = softmax(x @ w0, axis=-1)
        return ad._sum(ad.tanh(4.0 * h))

    _check_graph_grad(build, x0)


def test_reduction_and_where_gradient():
    x0 = np.array([[0.4, -0.2, 1.4], [2.0, -3.0, 0.1]])

    def build(P, I):
        x = P["x"]
        big = ad.amax(x, axis=1)
        small = ad.amin(x, axis=1)
        sel = where(ad.value_of(x) > 0, x * 2.0, x / 3.0)
        return ad.mean(sel) + ad._sum(big - small)

    _check_graph_grad(build, x0)


def test_concat_reshape_transpose_take_gradient():
    x0 = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0

    def build(P, I):
        x = P["x"]
        a = transpose(ad.reshape(x, (2, 6)), (1, 0))
        b = ad.concat([a, a * 0.5], axis=1)
        sliced = ad.take(b, (slice(1, 5), slice(None)))
        return ad.mean(sliced * sliced)

    _check_graph_grad(build, x0)


_TAKE_KEYS = [0, -1, np.int64(2), slice(1, None), (slice(None), 0),
              (Ellipsis, 1), (None, slice(None, None, 2)),
              (1, slice(None, None, -1)), (slice(0, 3, 2), np.int64(-1)),
              True, np.array([0, 2, 0]), (np.array([1, 1]), slice(None))]


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(range(len(_TAKE_KEYS))), data=st.data())
def test_take_gradient_equals_add_at_bit_for_bit(key, data):
    # a basic key adds into a view of the zeros, an array key that may
    # repeat a position keeps np.add.at; both give np.add.at's bits, signed
    # zeros included
    key = _TAKE_KEYS[key]
    x = ad.Tensor(np.arange(12.0).reshape(3, 4))
    out = ad.take(x, key)
    g = data.draw(hnp.arrays(np.float64, out.shape, elements=st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))))
    out._backward(g)
    expected = np.zeros((3, 4))
    np.add.at(expected, key, g)
    assert x.grad.tobytes() == expected.tobytes()


def test_embedding_gradient_accumulates_repeats():
    table0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def build(P, I):
        emb = ad.embedding(P["x"], np.array([0, 2, 0, 1]))
        return ad._sum(emb * emb)

    _check_graph_grad(build, table0)


def test_trunc_tail_gradient():
    x0 = np.array([-5.0, -0.5, 1.0, 6.8, 7.2, 20.0])

    def build(P, I):
        return ad._sum(trunc_tail(P["x"]))

    _check_graph_grad(build, x0)


def test_broadcast_addition_unbroadcasts_gradient():
    x0 = np.array([1.0, -2.0, 0.5])

    def build(P, I):
        x = P["x"]
        return ad._sum(np.ones((4, 3)) + x)

    layout = {"x": (0, x0.shape)}
    pv = ad.ParamVector(x0.copy(), layout)
    g = ad.value_and_grad(build, pv)[1]
    np.testing.assert_allclose(g, [4.0, 4.0, 4.0])


# ---------------------------------------------------------------------------
# matmul backward: the 2-D weight GEMM and the generic batched path
# ---------------------------------------------------------------------------


def _random_params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return ad.ParamVector.build(
        shapes, lambda name, shape: rng.normal(0.0, 0.3, size=shape))


@pytest.mark.parametrize("a_shape, batch", [
    ((3, 4, 5), None),            # (n, M, K) @ (K, L)
    ((3, 5), None),               # (n, K) @ (K, L)
    ((1, 1, 5), (3, 4, 2)),       # a shared (1, 1, K) row, then a batch add
])
def test_matmul_weight_gemm_matches_generic_path_and_finite_differences(
        a_shape, batch):
    offset = np.random.default_rng(9).normal(size=batch or (1,))

    def build(weight):
        def fn(P, I):
            y = P["a"] @ weight(P["w"])
            return ad._sum(ad.tanh(y + offset))
        return fn

    pv = _random_params({"a": a_shape, "w": (5, 2)})
    # a (1, K, L) weight has a batch axis, so it takes the generic path
    gemm = build(lambda w: w)
    generic = build(lambda w: ad.reshape(w, (1, 5, 2)))
    g_gemm = ad.value_and_grad(gemm, pv)[1]
    g_generic = ad.value_and_grad(generic, pv)[1]
    np.testing.assert_allclose(g_gemm, g_generic, rtol=1e-13, atol=1e-15)
    assert ad.finite_diff_check(gemm, pv) < 1e-6
    assert ad.finite_diff_check(generic, pv) < 1e-6


def _affine_graph(affine, on_tape):
    """Loss of one affine map whose operands named in ``on_tape`` are
    parameter slices and the others input arrays; ``x`` is also used
    outside the map, so its gradient sums two parts."""
    def operand(P, I, name):
        return P[name] if name in on_tape else I[name]

    def fn(P, I):
        x, w, b = (operand(P, I, name) for name in "xwb")
        return ad._sum(ad.tanh(affine(x, w, b))) + ad._sum(ad.mul(x, x))
    return fn


def _affine_operands(x_shape, on_tape, seed=6):
    rng = np.random.default_rng(seed)
    arrays = {"x": rng.normal(size=x_shape), "w": rng.normal(size=(5, 3)),
              "b": rng.normal(size=(3,))}
    pv = ad.ParamVector.build({k: arrays[k].shape for k in on_tape},
                              lambda name, shape: arrays[name])
    return pv, {k: v for k, v in arrays.items() if k not in on_tape}


_TAPE_SUBSETS = ["x", "w", "b", "xw", "xb", "wb", "xwb"]


@pytest.mark.parametrize("on_tape", _TAPE_SUBSETS)
@pytest.mark.parametrize("x_shape", [(4, 5), (2, 4, 5)])
def test_linear_is_add_of_matmul_bit_for_bit(x_shape, on_tape):
    pv, inputs = _affine_operands(x_shape, on_tape)
    fused = _affine_graph(ad.linear, on_tape)
    composed = _affine_graph(lambda x, w, b: ad.add(ad.matmul(x, w), b),
                             on_tape)
    v_fused, g_fused = ad.value_and_grad(fused, pv, inputs)
    v_composed, g_composed = ad.value_and_grad(composed, pv, inputs)
    assert v_fused == v_composed
    assert g_fused.tobytes() == g_composed.tobytes()
    assert ad.eval_graph(fused, pv, inputs).tobytes() == \
        ad.eval_graph(composed, pv, inputs).tobytes()
    assert ad.finite_diff_check(fused, pv, inputs) <= 1e-6


def test_linear_is_one_tape_node():
    pv, inputs = _affine_operands((2, 4, 5), "xwb")
    out, leaves = ad._run(lambda P, I: ad.linear(P["x"], P["w"], P["b"]),
                          pv, inputs)
    assert out.op == "linear"
    assert out._parents == [leaves["x"], leaves["w"], leaves["b"]]


def test_nonfinite_affine_output_names_linear():
    pv, inputs = _affine_operands((4, 5), "wb")
    pv.view("w")[...] = 1e308

    def fn(P, I):
        return ad._sum(ad.linear(I["x"], P["w"], P["b"]))

    with np.errstate(over="ignore", invalid="ignore"):
        for run in (ad.eval_graph, ad.value_and_grad):
            with pytest.raises(NumericError, match="op 'linear'"):
                run(fn, pv, inputs)


def test_batched_matmul_gradient_matches_finite_differences():
    # (n, h, M, d) @ (n, h, d, M), the attention score product
    def fn(P, I):
        return ad._sum(ad.tanh(P["q"] @ P["k"]))

    pv = _random_params({"q": (2, 3, 4, 2), "k": (2, 3, 2, 4)})
    assert ad.finite_diff_check(fn, pv) < 1e-6


# ---------------------------------------------------------------------------
# Fused attention against the composed reference
# ---------------------------------------------------------------------------


def _attention_graph(attend, pooled, heads):
    """Loss graph of one attention call: self-attention over ``x`` or a
    broadcast (1, 1, L) query ``q`` over the members of ``x``."""
    weights = np.random.default_rng(4).normal(size=(2, 5, 8))

    def fn(P, I):
        x = P["x"]
        query = ad.reshape(P["q"], (1, 1, 8)) if pooled else x
        out = attend(query, x, x, P["wq"], P["wk"], P["wv"], P["wo"], heads)
        return ad._sum(ad.tanh(out) * weights[:, :out.shape[1]])
    return fn


_ATTENTION_SHAPES = {"x": (2, 5, 8), "q": (8,), "wq": (8, 8), "wk": (8, 8),
                     "wv": (8, 8), "wo": (8, 8)}


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_fused_attention_matches_composed_reference(heads, pooled):
    pv = _random_params(_ATTENTION_SHAPES, seed=heads)
    fused = _attention_graph(ad.attention, pooled, heads)
    reference = _attention_graph(multihead_attention_ref, pooled, heads)
    leaves = ad._leaves(pv)
    x = leaves["x"]
    query = ad.reshape(leaves["q"], (1, 1, 8)) if pooled else x
    args = (query, x, x, leaves["wq"], leaves["wk"], leaves["wv"],
            leaves["wo"], heads)
    np.testing.assert_allclose(ad.attention(*args).value,
                               multihead_attention_ref(*args).value,
                               rtol=1e-12, atol=0)
    v_fused, g_fused = ad.value_and_grad(fused, pv)
    v_ref, g_ref = ad.value_and_grad(reference, pv)
    assert v_fused == pytest.approx(v_ref, rel=1e-12)
    np.testing.assert_allclose(g_fused, g_ref, rtol=1e-12,
                               atol=1e-12 * np.abs(g_ref).max())
    assert ad.finite_diff_check(fused, pv) <= 1e-6


def test_fused_attention_rejects_heads_not_dividing_width():
    x = ad.Tensor(np.zeros((1, 2, 6)))
    w = ad.Tensor(np.zeros((6, 6)))
    with pytest.raises(ConfigError):
        ad.attention(x, x, x, w, w, w, w, 4)


# ---------------------------------------------------------------------------
# Gradients that reach a node more than once, or as read-only views
# ---------------------------------------------------------------------------


def _backward_keeping_upstream(graph, pv):
    """Leaf gradients of one backward pass, plus every incoming gradient
    each backward closure saw, paired with a copy taken before it ran."""
    out, leaves = ad._run(graph, pv, None)
    seen = []
    for node in out._topo():
        if node._backward is not None:
            def spy(g, inner=node._backward):
                seen.append((g, g.copy()))
                inner(g)
            node._backward = spy
    out.backward()
    grad = ad.ParamVector(np.zeros(pv.size), pv.layout)
    for name, leaf in leaves.items():
        grad.view(name)[...] = leaf.grad
    return grad.values, seen


@pytest.mark.parametrize("case", ["add_twice", "residual_attention",
                                  "mean_into_matmul", "three_into_one"])
def test_backward_never_writes_into_incoming_gradients(case, monkeypatch):
    weights = {"add_twice": "", "residual_attention": "qkvo",
               "mean_into_matmul": "q", "three_into_one": ""}[case]
    shapes = {"x": (2, 4, 4), **{f"w{c}": (4, 4) for c in weights}}

    def fn(P, I):
        x = P["x"]
        if case == "add_twice":
            return ad._sum(ad.tanh(ad.add(x, x)))
        if case == "residual_attention":
            h = x + ad.attention(x, x, x, P["wq"], P["wk"], P["wv"],
                                 P["wo"], 2)
            return ad._sum(ad.tanh(h))
        if case == "three_into_one":
            # x gets _sum's read-only broadcast view first, then mul's two
            # gradients and tanh's
            return (ad._sum(x) + ad._sum(ad.tanh(x * x))
                    + ad._sum(ad.tanh(x)))
        return ad.mean(x @ P["wq"])

    pv = _random_params(shapes, seed=5)
    analytic, seen = _backward_keeping_upstream(fn, pv)
    assert all(g.tobytes() == before.tobytes() for g, before in seen)
    # the flat gradient is the per-slice assembly, bit for bit
    assert ad.value_and_grad(fn, pv)[1].tobytes() == analytic.tobytes()
    if case == "mean_into_matmul":
        assert any(not g.flags.writeable for g, _ in seen)
    if case == "three_into_one":
        received, accumulate = [], ad.Tensor._accumulate

        def spy(node, g):
            if node.op == "param:x":
                received.append((g, g.copy()))
            accumulate(node, g)

        monkeypatch.setattr(ad.Tensor, "_accumulate", spy)
        flat = ad.value_and_grad(fn, pv)[1]
        assert len(received) >= 3 and not received[0][0].flags.writeable
        assert all(g.tobytes() == before.tobytes() for g, before in received)
        expected = received[0][1]
        for _, g in received[1:]:
            expected = expected + g
        assert flat.tobytes() == expected.tobytes()

    def f(flat):
        return float(ad.eval_graph(fn, ad.ParamVector(flat, pv.layout)))

    numeric = central_difference(f, pv.values, h=1e-6)
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < 5e-6


# ---------------------------------------------------------------------------
# The tape holds only what a gradient flows through
# ---------------------------------------------------------------------------


def _constants_graph(constant):
    """Loss with a constant block on both operand sides of every binary op,
    and a subgraph of constants alone; ``constant(P, I)`` gives the block."""
    def fn(P, I):
        x, w, c = P["x"], P["w"], constant(P, I)
        cond = ad.value_of(c) > 0.0
        only_c = exp(ad.mul(c, 0.5)) - 1.0 + ad.mul(1.0, -1.0)
        parts = [ad.add(c, x), ad.add(x, c), ad.mul(c, x), ad.mul(x, c),
                 c @ w, x @ c, where(cond, c, x), where(cond, x, c),
                 c - x, x - c, x / (c * c + 1.0), (c * c + 1.0) / (x * x + 1.0),
                 ad.amax(x * only_c, axis=1)[:, None] + c,
                 ad.concat([c, x], axis=1)[:, 2:6]]
        xs, cs = ad.reshape(x, (1, 4, 4)), ad.reshape(c, (1, 4, 4))
        parts.append(ad.reshape(
            ad.attention(cs, xs, cs, w, w, w, w, 2)
            + ad.attention(xs, cs, xs, w, w, w, w, 2), (4, 4)))
        return ad._sum(ad.tanh(sum(parts[1:], parts[0])))
    return fn


def _constants_params(seed=11):
    return _random_params({"x": (4, 4), "w": (4, 4), "c": (4, 4)}, seed)


def test_constants_off_the_tape_leave_every_gradient_bit_identical():
    # the same block as a parameter slice, on the tape, against the same
    # block as an input array, off it
    pv = _constants_params()
    c = pv.view("c").copy()
    on_tape = _constants_graph(lambda P, I: P["c"])
    off_tape = _constants_graph(lambda P, I: I["c"])
    v_on, g_on = ad.value_and_grad(on_tape, pv)
    v_off, g_off = ad.value_and_grad(off_tape, pv, {"c": c})
    assert v_on == v_off
    assert g_off[32:].tolist() == [0.0] * 16
    assert g_off[:32].tobytes() == g_on[:32].tobytes()


def test_value_and_grad_is_the_backward_assembly_with_constants():
    pv = _random_params({"x": (4, 4), "w": (4, 4)}, seed=12)
    c = np.random.default_rng(12).normal(0.0, 0.3, size=(4, 4))
    fn = _constants_graph(lambda P, I: c)
    analytic, seen = _backward_keeping_upstream(fn, pv)
    assert all(g.tobytes() == before.tobytes() for g, before in seen)
    assert ad.value_and_grad(fn, pv)[1].tobytes() == analytic.tobytes()
    assert ad.finite_diff_check(fn, pv) < 1e-6


def test_tape_holds_no_constant_and_nothing_computed_from_constants_alone():
    y = np.array([0.5, 3.0, -1.0, 40.0])

    def fn(P, I):
        # the composed CRPS builds mul(1.0, -1.0) and other constant nodes
        mu, sigma = P["theta"][:, 0], ad.softplus(P["theta"][:, 1]) + 0.1
        return ad.mean(crps_tlogis_composed(mu, sigma, y, 0.0))

    pv = _random_params({"theta": (4, 2)}, seed=3)
    out, leaves = ad._run(fn, pv, None)
    order = out._topo()
    assert leaves["theta"] in order
    for node in order:
        assert isinstance(node, ad.Tensor)
        assert node._parents or node.op.startswith("param:")
    assert not isinstance(ad.mul(1.0, -1.0), ad.Tensor)


def test_forward_of_eval_graph_keeps_no_graph(monkeypatch):
    # the graph receives the parameter views themselves and builds no Tensor
    pv = _constants_params(seed=13)
    graph = _constants_graph(lambda P, I: P["c"])
    seen = []

    def fn(P, I):
        seen.append(P)
        return graph(P, I)

    def refuse(*args, **kwargs):
        raise AssertionError("eval_graph built a Tensor")

    with monkeypatch.context() as patch:
        patch.setattr(ad.Tensor, "__init__", refuse)
        out = ad.eval_graph(fn, pv)
    assert seen[0].keys() == pv.layout.keys()
    assert all(seen[0][name] is pv.view(name) for name in pv.layout)
    assert type(out) is np.ndarray
    # the graph divides, and a Tensor's a / b divides too
    assert float(out) == ad.value_and_grad(graph, pv)[0]


def test_eval_graph_peak_memory_is_bounded_by_graph_width():
    # a chain of 20 tanh: with a graph kept, every activation stays alive
    size = 100_000
    pv = ad.ParamVector(np.linspace(-1.0, 1.0, size), {"x": (0, (size,))})

    def chain(P, I):
        h = P["x"]
        for _ in range(20):
            h = ad.tanh(h)
        return h

    tracemalloc.start()
    try:
        ad.eval_graph(chain, pv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * size


def test_backward_frees_each_interior_gradient_as_it_walks():
    # a chain of 20 tanh keeps 20 activations for its backward; a sweep
    # that kept every interior gradient as well would peak near 40 arrays
    size = 100_000
    pv = ad.ParamVector(np.linspace(-1.0, 1.0, size), {"x": (0, (size,))})

    def chain(P, I):
        h = P["x"]
        for _ in range(20):
            h = ad.tanh(h)
        return ad._sum(h)

    tracemalloc.start()
    try:
        _, grad = ad.value_and_grad(chain, pv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26 * 8 * size
    h, expected = pv.values, np.ones(size)
    for _ in range(20):
        h = np.tanh(h)
        expected *= 1.0 - h * h
    np.testing.assert_allclose(grad, expected, rtol=1e-12)


def test_set_model_training_step_keeps_only_what_its_gradients_need():
    # one st-bqn step at the benchmark workload's sizes (batch 64, 20
    # members, latent 32, 4 heads); a tape that kept Q, K, V, the
    # normalised scores and every interior value through the backward
    # rose by 8.2 MiB
    ds = generate_synthetic(SynthConfig(stations=8, days=8, members=20))
    config = ModelConfig(architecture="st-bqn", latent_width=32,
                         attention_heads=4, n_attention_blocks=1,
                         hidden_sizes=(32, 16), batch_size=64)
    inputs = {**graph_inputs(config, ds, fit_norm(ds)), "y": ds.obs}
    params = init_params(config, ds.n_predictors, ds.n_scalars,
                         ds.n_stations)
    loss = loss_graph(config)
    assert len(ds) == 64
    ad.value_and_grad(loss, params, inputs)     # warm-up
    tracemalloc.start()
    try:
        ad.value_and_grad(loss, params, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_backward_keeps_leaf_gradients_and_drops_interior_ones():
    pv = _random_params({"x": (3,), "w": (3,)}, seed=2)
    out, leaves = ad._run(
        lambda P, I: ad._sum(ad.tanh(P["x"] * P["w"])), pv, None)
    interior = [node for node in out._topo() if node._parents]
    out.backward()
    assert all(leaf.grad is not None for leaf in leaves.values())
    assert all(node.grad is None and node._backward is None
               and not node._parents for node in interior)
    # every interior value but the root's is released before the sweep;
    # the leaves still alias the parameter vector
    assert out.value is not None
    assert all(node.value is None for node in interior if node is not out)
    assert all(leaf.value is pv.view(name)
               and np.shares_memory(leaf.value, pv.values)
               for name, leaf in leaves.items())
    assert sorted(repr(node) for node in interior if node is not out) == [
        "Tensor(op='mul', shape=None)", "Tensor(op='tanh', shape=None)"]


# ---------------------------------------------------------------------------
# Graph evaluation machinery
# ---------------------------------------------------------------------------


def _quadratic_graph():
    def build(P, I):
        x = P["x"]
        return ad._sum(x * x) * 0.5

    return build


def test_value_and_grad_agree_with_separate_calls():
    pv = ad.ParamVector(np.array([3.0, -4.0]), {"x": (0, (2,))})
    graph = _quadratic_graph()
    value, g = ad.value_and_grad(graph, pv)
    assert value == float(ad.eval_graph(graph, pv)) == pytest.approx(12.5)
    np.testing.assert_allclose(g, [3.0, -4.0])
    assert ad.finite_diff_check(graph, pv) < 1e-8


def test_flat_gradient_has_the_layout_and_zeros_unreached_slices():
    pv = ad.ParamVector(np.array([3.0, -4.0, 1.0, 2.0, 5.0]),
                        {"unused": (0, (1, 2)), "x": (2, (3,))})
    _, g = ad.value_and_grad(_quadratic_graph(), pv)
    assert g.shape == pv.values.shape and g.dtype == np.float64
    assert g.flags.c_contiguous and not np.shares_memory(g, pv.values)
    assert g.tolist() == [0.0, 0.0, 1.0, 2.0, 5.0]


def test_value_and_grad_requires_scalar_output():
    def build(P, I):
        return P["x"] * 2.0

    pv = ad.ParamVector(np.array([1.0, 2.0]), {"x": (0, (2,))})
    with pytest.raises(ContractError):
        ad.value_and_grad(build, pv)


def test_nonfinite_forward_raises_numeric_error_naming_the_op():
    def build(P, I):
        return ad._sum(exp(P["x"]))

    pv = ad.ParamVector(np.array([1e3, 2.0]), {"x": (0, (2,))})
    with pytest.raises(NumericError, match="'exp'"):
        with np.errstate(over="ignore"):
            ad.eval_graph(build, pv)


def test_nonfinite_op_after_a_constant_subgraph_is_named():
    def build(P, I):
        scale = ad.mul(ad.add(1.0, 2.0), 300.0)     # 900, off the tape
        return ad._sum(exp(ad.mul(P["x"], scale)))

    pv = ad.ParamVector(np.array([1.0, 0.0]), {"x": (0, (2,))})
    with np.errstate(over="ignore"):
        for run in (ad.eval_graph, ad.value_and_grad):
            with pytest.raises(NumericError, match="'exp'"):
                run(build, pv)


def test_graph_receives_its_input_arrays_themselves():
    target = np.array([1.0, 2.0, 3.0])
    station = np.array([2, 0, 2], dtype=np.int64)
    seen = {}

    def build(P, I):
        seen.update(I)
        diff = P["x"] - I["target"]
        return ad.mean(diff * diff) + ad._sum(ad.embedding(P["emb"],
                                                           I["station"]))

    pv = ad.ParamVector([0.0, 0.0, 0.0, 3.0, 4.0, 5.0],
                        {"x": (0, (3,)), "emb": (3, (3,))})
    out = ad.eval_graph(build, pv, {"target": target, "station": station})
    assert seen["target"] is target and seen["station"] is station
    assert seen["station"].dtype == np.int64
    assert float(out) == pytest.approx(14.0 / 3.0 + 5.0 + 3.0 + 5.0)


def test_graph_with_no_path_to_a_parameter_has_a_zero_gradient():
    pv = ad.ParamVector(np.array([1.0, 2.0]), {"x": (0, (2,))})
    c = np.array([0.0, 1.0])
    value, grad = ad.value_and_grad(lambda P, I: ad._sum(exp(I["c"])), pv,
                                    {"c": c})
    assert value == float(np.sum(np.exp(c)))
    assert grad.tolist() == [0.0, 0.0]
    value, grad = ad.value_and_grad(lambda P, I: 2.5, pv)
    assert value == 2.5 and grad.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("result", [lambda P: 2.5, lambda P: np.float64(2.5),
                                    lambda P: np.array(2.5),
                                    lambda P: ad._sum(P["x"]),
                                    lambda P: P["x"][1]])
def test_eval_graph_of_a_scalar_result_is_a_float64_array(result):
    pv = ad.ParamVector(np.array([0.0, 2.5]), {"x": (0, (2,))})
    out = ad.eval_graph(lambda P, I: result(P), pv)
    assert type(out) is np.ndarray and out.dtype == np.float64
    assert out.shape == () and float(out) == 2.5
    assert not np.shares_memory(out, pv.values)


@pytest.mark.parametrize("result", [None, "2.5", [2.5], {"x": 2.5}])
def test_graph_returning_neither_an_array_nor_a_tensor_is_rejected(result):
    pv = ad.ParamVector(np.array([1.0]), {"x": (0, (1,))})
    for run in (ad.eval_graph, ad.value_and_grad):
        with pytest.raises(ConfigError, match="must return"):
            run(lambda P, I: result, pv)


def test_eval_graph_never_returns_a_view_of_the_parameters():
    pv = ad.ParamVector(np.array([1.0, 2.0, 3.0]), {"x": (0, (3,))})
    out = ad.eval_graph(lambda P, I: ad.reshape(P["x"], (3, 1)), pv)
    assert out.tolist() == [[1.0], [2.0], [3.0]]
    assert not np.shares_memory(out, pv.values) and out.flags.c_contiguous


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "@": operator.matmul}


@settings(max_examples=200)
@given(op=st.sampled_from(sorted(_OPERATORS)), rows=st.integers(1, 3),
       cols=st.integers(1, 3), broadcast=st.booleans(), data=st.data())
def test_ndarray_on_the_left_defers_to_the_tensor(op, rows, cols, broadcast,
                                                  data):
    """``ndarray ⊕ Tensor`` is the Tensor-first form bit for bit, and its
    gradient with respect to the Tensor passes the finite-difference check."""
    apply = _OPERATORS[op]
    if op == "@":
        right_shape = (cols, 2)
    else:
        right_shape = (cols,) if broadcast else (rows, cols)
    left = data.draw(hnp.arrays(np.float64, (rows, cols),
                                elements=st.floats(-2.0, 2.0)))
    magnitude = data.draw(hnp.arrays(np.float64, right_shape,
                                     elements=st.floats(1.0, 2.0)))
    sign = data.draw(hnp.arrays(np.bool_, right_shape))
    right = np.where(sign, magnitude, -magnitude)

    out = apply(left, ad.Tensor(right))
    assert isinstance(out, ad.Tensor)
    assert out.value.tobytes() == \
        apply(ad.Tensor(left), ad.Tensor(right)).value.tobytes()

    def build(P, I):
        return ad._sum(ad.tanh(apply(I["left"], P["t"])))

    pv = ad.ParamVector(right, {"t": (0, right_shape)})
    assert ad.finite_diff_check(build, pv, {"left": left}) < 1e-6


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------


def test_finite_diff_check_passes_correct_gradient():
    pv = ad.ParamVector(np.array([0.7, -1.1, 0.2]), {"x": (0, (3,))})
    assert ad.finite_diff_check(_quadratic_graph(), pv) < 1e-8


def test_finite_diff_check_catches_wrong_gradient():
    def bad_mul(a):
        av = ad.value_of(a)
        # deliberately wrong backward: d(x^2)/dx claimed to be x, not 2x
        return ad._node(av * av, (a,), lambda g: a._accumulate(g * av),
                        "bad")

    def build(P, I):
        return ad._sum(bad_mul(P["x"]))

    pv = ad.ParamVector(np.array([1.5, -2.0]), {"x": (0, (2,))})
    assert ad.finite_diff_check(build, pv) > 0.3


def test_finite_diff_check_rejects_bad_step():
    pv = ad.ParamVector(np.zeros(2), {"x": (0, (2,))})
    with pytest.raises(ConfigError):
        ad.finite_diff_check(_quadratic_graph(), pv, step=0.0)
