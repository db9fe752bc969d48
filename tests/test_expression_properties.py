"""Properties of batched expression evaluation and of the CLI on random input.

The oracle below is the scalar tree walk over ``math`` that point-array
evaluation replaced: it raises exactly where a single point has no finite
value.  Batched evaluation must agree with it row by row, and must fail
exactly when some row fails, naming the first such row.  An expression
first walks its tree without bookkeeping and reruns the checked walk only
on a floating-point flag: the two must give the same bits and the same
errors, and a flag that a later node hides must still reach the checked walk.
"""

import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qkt.cli as cli
import qkt.expressions as expressions
from qkt.errors import ExpressionError
from qkt.expressions import BinOp, Call, Neg, Num, Pow, Var, parse_expression

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
FUZZ_SETTINGS = settings(derandomize=True, max_examples=12, deadline=None)

MATH = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


class OracleFailure(Exception):
    pass


def oracle(node, point) -> float:
    """Value of ``node`` at one point, by scalar float arithmetic."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(point[node.index - 1])
    if isinstance(node, Neg):
        return -oracle(node.arg, point)
    if isinstance(node, BinOp):
        a, b = oracle(node.left, point), oracle(node.right, point)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise OracleFailure("division by zero")
        return a / b
    if isinstance(node, Pow):
        x = oracle(node.base, point)
        try:
            return x ** node.exponent
        except (OverflowError, ZeroDivisionError):
            raise OracleFailure("power") from None
    if isinstance(node, Call):
        x = oracle(node.arg, point)
        try:
            return MATH[node.name](x)
        except (ValueError, OverflowError):
            raise OracleFailure(node.name) from None
    raise TypeError(node)


def oracle_value(expr, point):
    value = oracle(expr.ast, point)
    if not math.isfinite(value):
        raise OracleFailure("not finite")
    return value


# grammar text: leaves are coordinates and numbers, including ones that
# overflow, divide by zero or leave a function's domain at some rows
LEAVES = st.one_of(
    st.sampled_from(["x1", "x2", "x3", "x4"]),
    st.sampled_from(["0", "1", "2", "0.5", "3.25", "10", "700", "1e300", "1e-5"]),
)


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, st.sampled_from([-3, -1, 0, 1, 2, 3, 40])).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(sorted(MATH)), children).map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda t: f"-({t})"),
    )


EXPRESSIONS = st.recursive(LEAVES, _grow, max_leaves=8)
COORDINATES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                        st.floats(min_value=-3.0, max_value=3.0))
POINTS = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.lists(st.lists(COORDINATES, min_size=4, max_size=4),
                          min_size=rows, max_size=rows))


@SETTINGS
@given(EXPRESSIONS, POINTS)
def test_batched_evaluation_matches_scalar_oracle(text, rows):
    expr = parse_expression(text)
    points = np.array(rows, dtype=float)
    expected, first_bad = [], None
    for index, row in enumerate(points):
        try:
            expected.append(oracle_value(expr, row))
        except OracleFailure:
            first_bad = index if first_bad is None else first_bad
            expected.append(None)
    if first_bad is not None:
        try:
            expr(points)
        except ExpressionError as err:
            assert f"(row {first_bad})" in str(err)
            assert str([float(c) for c in points[first_bad]]) in str(err)
        else:
            raise AssertionError(f"{text!r} should fail at row {first_bad}")
        return
    values = expr(points)
    assert values.shape == (len(rows),)
    for got, want in zip(values, expected):
        if abs(want) < 1e300:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (text, got, want)
    # a single point is the empty batch
    single = expr(points[0])
    assert np.shape(single) == () and math.isclose(single, values[0], rel_tol=1e-12, abs_tol=1e-12)


def checked_walk(expr, points):
    """``expr(points)`` with the first walk skipped, as after a flag: the
    value, or the text of the :class:`ExpressionError`."""
    walk = expressions._eval

    def only_checked(node, x, fails):
        if fails is None:
            raise FloatingPointError("skipped")
        return walk(node, x, fails)

    with mock.patch.object(expressions, "_eval", only_checked):
        return evaluate(expr, points)


def evaluate(expr, points):
    try:
        return expr(points)
    except ExpressionError as err:
        return str(err)


def assert_same_bits(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# literals that overflow to infinity, and NaN or infinite coordinates, make a
# NaN or an infinity without a flag: the checked walk must take them
WIDE = st.recursive(st.one_of(LEAVES, st.just("1e400")), _grow, max_leaves=8)
WIDE_POINTS = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.lists(st.lists(st.one_of(COORDINATES, st.sampled_from([math.inf, -math.inf, math.nan])),
                                   min_size=4, max_size=4), min_size=rows, max_size=rows))


@SETTINGS
@given(WIDE, WIDE_POINTS)
def test_first_walk_matches_the_checked_walk(text, rows):
    expr = parse_expression(text)
    for points in (np.array(rows, dtype=float), np.array(rows[0], dtype=float)):
        assert_same_bits(evaluate(expr, points), checked_walk(expr, points))


@pytest.mark.parametrize("text, x1, message", [
    ("1/(1/x1)", 0.0, "division by zero"),
    ("0*ln(x1)", 0.0, "ln(0.0) has no finite real value"),
    ("1/exp(800*x1)", 1.0, "exp(800.0) has no finite real value"),
    ("1/(1e400/x1)", 0.0, "division by zero"),
])
def test_a_flag_that_a_later_node_hides_reaches_the_checked_walk(text, x1, message):
    # each inner failure ends in a finite value: only its flag shows it
    expr = parse_expression(text)
    points = np.array([[0.5, 0.1, 0.0, 0.0], [x1, 0.2, 0.0, 0.0]])
    got = evaluate(expr, points)
    assert got == checked_walk(expr, points)
    assert got == f"{message} at point {[x1, 0.2, 0.0, 0.0]} (row 1)"


def test_underflow_alone_stays_on_the_first_walk():
    expr = parse_expression("exp(-800*x1)")
    with mock.patch.object(expressions, "_Failures", None):   # no checked walk
        assert expr(np.array([1.0, 0.0])) == 0.0
        assert np.array_equal(expr(np.array([[1.0, 0.0], [0.0, 0.0]])), [0.0, 1.0])


def _verify(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", *args, "--points", "1", "--seed", "3"])


@FUZZ_SETTINGS
@given(EXPRESSIONS)
def test_cli_classifies_random_conformal_factors(text):
    # any exception escaping cli.main would print a traceback
    assert _verify(["--manifold", "conformal_flat", "--n", "1", f"--f={text}"]) in (0, 1, 2)


@FUZZ_SETTINGS
@given(st.lists(EXPRESSIONS, min_size=4, max_size=4))
def test_cli_classifies_random_torsion_forms(parts):
    assert _verify(["--manifold", "dim4_torsion", "--n", "1", f"--t={','.join(parts)}"]) in (0, 1, 2)
