"""Unit tests for the reverse-mode autodiff engine."""

import mpmath
import numpy as np
import pytest

import enspost.autodiff as ad
from enspost.errors import ConfigError, ContractError, NumericError
from oracles import central_difference, softplus_ref


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
    pv = ad.ParamVector.build({"a": (2,)})
    cp = pv.copy()
    cp.values[0] = 5.0
    assert pv.values[0] == 0.0


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
    out = ad.softplus(ad.constant(x)).value
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


# ---------------------------------------------------------------------------
# Gradients against an independent central-difference loop
# ---------------------------------------------------------------------------


def _check_graph_grad(build, x0, rel=5e-6):
    """Compare value_and_grad() with an independent finite-difference loop."""
    layout = {"x": (0, x0.shape)}
    pv = ad.ParamVector(x0.copy(), layout)
    graph = ad.Graph(build)
    analytic = ad.value_and_grad(graph, pv)[1].values

    def f(flat):
        return float(ad.eval_graph(graph, ad.ParamVector(flat, layout)))

    numeric = central_difference(f, x0.ravel(), h=1e-6)
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < rel


def test_elementwise_chain_gradient():
    x0 = np.array([0.3, -1.2, 2.0, 0.05])

    def build(P, I):
        x = P["x"]
        return ad.mean(ad.exp(ad.tanh(x)) * ad.sigmoid(x) + ad.softplus(-x))

    _check_graph_grad(build, x0)


def test_matmul_linear_softmax_gradient():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4, 2))

    def build(P, I):
        x = P["x"]
        h = ad.softmax(x @ ad.constant(w0), axis=-1)
        return ad._sum(ad.log(h + 1e-3))

    _check_graph_grad(build, x0)


def test_reduction_and_where_gradient():
    x0 = np.array([[0.4, -0.2, 1.4], [2.0, -3.0, 0.1]])

    def build(P, I):
        x = P["x"]
        big = ad.amax(x, axis=1)
        small = ad.amin(x, axis=1)
        sel = ad.where(x.value > 0, x * 2.0, x / 3.0)
        return ad.mean(sel) + ad._sum(big - small)

    _check_graph_grad(build, x0)


def test_concat_reshape_transpose_take_gradient():
    x0 = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0

    def build(P, I):
        x = P["x"]
        a = ad.transpose(ad.reshape(x, (2, 6)), (1, 0))
        b = ad.concat([a, a * 0.5], axis=1)
        sliced = ad.take(b, (slice(1, 5), slice(None)))
        return ad.mean(sliced * sliced)

    _check_graph_grad(build, x0)


def test_embedding_gradient_accumulates_repeats():
    table0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def build(P, I):
        emb = ad.embedding(P["x"], np.array([0, 2, 0, 1]))
        return ad._sum(emb * emb)

    _check_graph_grad(build, table0)


def test_trunc_tail_gradient():
    x0 = np.array([-5.0, -0.5, 1.0, 6.8, 7.2, 20.0])

    def build(P, I):
        return ad._sum(ad.trunc_tail(P["x"]))

    _check_graph_grad(build, x0)


def test_broadcast_addition_unbroadcasts_gradient():
    x0 = np.array([1.0, -2.0, 0.5])

    def build(P, I):
        x = P["x"]
        mat = ad.constant(np.ones((4, 3)))
        return ad._sum(mat + x)

    layout = {"x": (0, x0.shape)}
    pv = ad.ParamVector(x0.copy(), layout)
    g = ad.value_and_grad(ad.Graph(build), pv)[1].values
    np.testing.assert_allclose(g, [4.0, 4.0, 4.0])


# ---------------------------------------------------------------------------
# Graph evaluation machinery
# ---------------------------------------------------------------------------


def _quadratic_graph():
    def build(P, I):
        x = P["x"]
        return ad._sum(x * x) * 0.5

    return ad.Graph(build)


def test_value_and_grad_agree_with_separate_calls():
    pv = ad.ParamVector(np.array([3.0, -4.0]), {"x": (0, (2,))})
    graph = _quadratic_graph()
    value, g = ad.value_and_grad(graph, pv)
    assert value == float(ad.eval_graph(graph, pv)) == pytest.approx(12.5)
    np.testing.assert_allclose(g.values, [3.0, -4.0])
    assert ad.finite_diff_check(graph, pv) < 1e-8


def test_value_and_grad_requires_scalar_output():
    def build(P, I):
        return P["x"] * 2.0

    pv = ad.ParamVector(np.array([1.0, 2.0]), {"x": (0, (2,))})
    with pytest.raises(ContractError):
        ad.value_and_grad(ad.Graph(build), pv)


def test_nonfinite_forward_raises_numeric_error_naming_the_op():
    def build(P, I):
        return ad._sum(ad.log(P["x"]))

    pv = ad.ParamVector(np.array([-1.0, 2.0]), {"x": (0, (2,))})
    with pytest.raises(NumericError, match="log"):
        ad.eval_graph(ad.Graph(build), pv)


def test_inputs_are_passed_as_constants():
    def build(P, I):
        return ad.mean((P["x"] - I["target"]) * (P["x"] - I["target"]))

    pv = ad.ParamVector(np.zeros(3), {"x": (0, (3,))})
    out = ad.eval_graph(ad.Graph(build), pv,
                        {"target": np.array([1.0, 2.0, 3.0])})
    assert float(out) == pytest.approx(14.0 / 3.0)


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------


def test_finite_diff_check_passes_correct_gradient():
    pv = ad.ParamVector(np.array([0.7, -1.1, 0.2]), {"x": (0, (3,))})
    assert ad.finite_diff_check(_quadratic_graph(), pv) < 1e-8


def test_finite_diff_check_catches_wrong_gradient():
    def bad_mul(a):
        a = ad._wrap(a)
        # deliberately wrong backward: d(x^2)/dx claimed to be x, not 2x
        return ad.Tensor(a.value * a.value, parents=(a,),
                         backward=lambda g: a._accumulate(g * a.value),
                         op="bad")

    def build(P, I):
        return ad._sum(bad_mul(P["x"]))

    pv = ad.ParamVector(np.array([1.5, -2.0]), {"x": (0, (2,))})
    assert ad.finite_diff_check(ad.Graph(build), pv) > 0.3


def test_finite_diff_check_rejects_bad_step():
    pv = ad.ParamVector(np.zeros(2), {"x": (0, (2,))})
    with pytest.raises(ConfigError):
        ad.finite_diff_check(_quadratic_graph(), pv, step=0.0)
