import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conjtamer import expressions as ex
from conjtamer.errors import SpecError
from conjtamer.expressions import UnknownFunction, compile_expression

X = np.linspace(0.0, 1.0, 37)


def test_identity():
    e = compile_expression("x")
    assert np.array_equal(e.value(X), X)
    assert np.array_equal(e.derivative(X), np.ones_like(X))


def test_trig_and_constants():
    e = compile_expression("x + 0.1*sin(2*pi*x)")
    np.testing.assert_allclose(e.value(X), X + 0.1 * np.sin(2 * np.pi * X), rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        e.derivative(X), 1 + 0.2 * np.pi * np.cos(2 * np.pi * X), rtol=0, atol=1e-14
    )


def test_mobius_form():
    # (1*x + 0) / (-1*x + 2) = x / (2 - x)
    e = compile_expression("mobius(1, 0, -1, 2)")
    assert e.value(np.array([0.5]))[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert e.value(np.array([0.0]))[0] == 0.0
    assert e.value(np.array([1.0]))[0] == 1.0
    # derivative (ad - bc)/(cx + d)^2 = 2/(2-x)^2
    d = e.derivative(np.array([0.0, 1.0]))
    np.testing.assert_allclose(d, [0.5, 2.0], atol=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        "x^2 + 0.5*x",
        "exp(x) / 3",
        "sqrt(x + 1)",
        "log(x + 2)",
        "cos(x)^2 - sin(x)^2",
        "(x + 1)*(x - 2)",
    ],
)
def test_derivative_matches_central_differences(text):
    e = compile_expression(text)
    x = np.linspace(0.1, 0.9, 17)
    h = 1e-6
    fd = (e.value(x + h) - e.value(x - h)) / (2 * h)
    np.testing.assert_allclose(e.derivative(x), fd, rtol=1e-7, atol=1e-7)


def test_power_binds_tighter_than_unary_minus():
    e = compile_expression("-x^2")
    assert e.value(np.array([3.0]))[0] == -9.0


def test_pi_is_a_constant():
    e = compile_expression("2*pi")
    assert e.value(np.array([0.3]))[0] == pytest.approx(2 * np.pi, abs=0)
    assert e.derivative(np.array([0.3]))[0] == 0.0


def test_syntax_error_carries_column():
    with pytest.raises(SpecError) as exc:
        compile_expression("x +")
    assert exc.value.col == 4


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        compile_expression("tanh(x)")


def test_unbalanced_parens():
    with pytest.raises(SpecError):
        compile_expression("sin(x")


def test_mobius_arity_checked():
    with pytest.raises(SpecError):
        compile_expression("mobius(1, 2)")


# ---------------------------------------------------------------------------
# The one-walk jet against the two-walk node evaluators it replaced.

def oracle_value(node, x):
    if isinstance(node, ex._Num):
        return np.full_like(x, node.v)
    if isinstance(node, ex._X):
        return np.array(x, dtype=float, copy=True)
    if isinstance(node, ex._Neg):
        return -oracle_value(node.a, x)
    if isinstance(node, ex._BinOp):
        a, b = oracle_value(node.a, x), oracle_value(node.b, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, ex._Pow):
        return oracle_value(node.a, x) ** node.p
    if isinstance(node, ex._Fun):
        return getattr(np, node.name)(oracle_value(node.a, x))
    assert isinstance(node, ex._Mobius)
    return (node.a * x + node.b) / (node.c * x + node.d)


def oracle_deriv(node, x):
    if isinstance(node, ex._Num):
        return np.zeros_like(x)
    if isinstance(node, ex._X):
        return np.ones_like(x)
    if isinstance(node, ex._Neg):
        return -oracle_deriv(node.a, x)
    if isinstance(node, ex._BinOp):
        da, db = oracle_deriv(node.a, x), oracle_deriv(node.b, x)
        if node.op == "+":
            return da + db
        if node.op == "-":
            return da - db
        a, b = oracle_value(node.a, x), oracle_value(node.b, x)
        if node.op == "*":
            return da * b + a * db
        return (da * b - a * db) / (b * b)
    if isinstance(node, ex._Pow):
        return node.p * oracle_value(node.a, x) ** (node.p - 1.0) * oracle_deriv(node.a, x)
    if isinstance(node, ex._Fun):
        a, da = oracle_value(node.a, x), oracle_deriv(node.a, x)
        if node.name == "sin":
            return np.cos(a) * da
        if node.name == "cos":
            return -np.sin(a) * da
        if node.name == "exp":
            return np.exp(a) * da
        if node.name == "log":
            return da / a
        return 0.5 * da / np.sqrt(a)
    assert isinstance(node, ex._Mobius)
    den = node.c * x + node.d
    return (node.a * node.d - node.b * node.c) / (den * den)


_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", "2.5", ".25", "1e-3", "10", "pi"]),
    st.floats(0.0, 20.0, allow_nan=False).map(repr),
)
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "0.5", "2.5", "1.5", "-1", "-2.5", "-0.5", "7"])
_FUNS = ("sin", "cos", "exp", "log", "sqrt")


def _expressions(leaves):
    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
            sub.map(lambda a: f"-({a})"),
            st.tuples(sub, _EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(_FUNS), sub).map(lambda t: f"{t[0]}({t[1]})"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


_CONSTANTS = _expressions(_NUMBERS)
_MOBIUS = st.tuples(_CONSTANTS, _CONSTANTS, _CONSTANTS, _CONSTANTS).map(
    lambda t: "mobius({})".format(", ".join(t))
)
# constant subtrees sit under ^ and every function, next to x-dependent ones
_TEXTS = _expressions(st.one_of(st.just("x"), _NUMBERS, _CONSTANTS, _MOBIUS))
_POINTS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-300, -5e-324]),
)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


@settings(deadline=None, max_examples=400)
@given(_TEXTS, st.lists(_POINTS, min_size=1, max_size=12))
def test_jet_matches_two_walk_oracle(text, points):
    x = np.array(points)
    with np.errstate(all="ignore"):
        e = compile_expression(text)
        value, deriv = e.jet(x)
        assert _same_bits(value, oracle_value(e._ast, x))
        assert _same_bits(deriv, oracle_deriv(e._ast, x))
        assert _same_bits(e.value(x), value) and _same_bits(e.derivative(x), deriv)


def test_jet_of_a_constant_at_a_scalar_point():
    # specfile evaluates constants at the 0-d point 0.0; scalar and array
    # powers may round differently, so the constant leaves stay arrays
    e = compile_expression("exp(pi)^-2.5")
    x = np.asarray(0.0)
    assert _same_bits(e.jet(x)[0], oracle_value(e._ast, x))
    arr = np.zeros(3)
    assert _same_bits(e.jet(arr)[0], oracle_value(e._ast, arr))
