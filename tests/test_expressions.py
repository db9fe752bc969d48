import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkt.errors import ExpressionError
from qkt.expressions import parse_expression


@pytest.mark.parametrize("text,point,expected", [
    ("exp(x1)", [0.0, 0, 0, 0], 1.0),
    ("1 + 2*x2^2", [0, 3.0, 0, 0], 19.0),
    ("1/(x1^2+x2^2+x3^2+x4^2)", [1.0, 1, 1, 1], 0.25),
    ("sin(x2)", [0, np.pi / 2, 0, 0], 1.0),
    ("sqrt(x1)*ln(x1)", [np.e ** 2, 0, 0, 0], np.e * 2),
    ("2^3", [0.0], 8.0),
    ("x1^-2", [2.0], 0.25),
    ("-x1^2", [3.0], -9.0),
    ("2 - 3 - 4", [0.0], -5.0),
    ("12/4/3", [0.0], 1.0),
])
def test_evaluation(text, point, expected):
    expr = parse_expression(text)
    assert expr(np.asarray(point, dtype=float)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [
    "", "  ", "1 +", "(x1", "x0", "y1", "exp()", "exp(x1", "exp", "1..2",
    "x1 ^ x2", "sin(x1, x2)", "1 @ 2",
])
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_error_carries_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("1 + frob(x1)")
    assert err.value.offset == 4


def test_unknown_coordinate_at_evaluation():
    expr = parse_expression("x7")
    with pytest.raises(ExpressionError):
        expr(np.zeros(4))


def test_domain_error_at_evaluation():
    expr = parse_expression("ln(x1)")
    with pytest.raises(ExpressionError):
        expr(np.array([-1.0]))


@pytest.mark.parametrize("text", ["exp(20000*x1^2)", "(10*x1)^400", "x1^-1"])
def test_overflow_and_zero_power_at_evaluation(text):
    point = np.array([0.0 if text == "x1^-1" else 1.0])
    with pytest.raises(ExpressionError):
        parse_expression(text)(point)


@pytest.mark.parametrize("text", ["exp(700)*exp(700)*x1", "exp(700)*exp(700)*(x1-x1)",
                                  "1e308 + 1e308"])
def test_non_finite_result_at_evaluation(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)(np.array([0.5]))


ROUND_TRIP_CORPUS = [
    "exp(x1)", "1+x1^2+x3^2", "1/(x1^2+x2^2+x3^2+x4^2)", "sin(x2)",
    "cos(x3)*sin(x4)", "sqrt(1+x1^2)", "x1*x2*x3", "x1/(1+x2^2)",
    "2.5*x1 - 0.5*x2", "exp(x1+x2)", "ln(2+x1)", "x1^3 - x2^3",
    "(x1+x2)*(x3-x4)", "1 - x1", "-x1", "-(x1+x2)", "x2^-1",
    "exp(sin(x1))", "sin(cos(x2))", "1/x4", "x1^2*x2^2",
    "(1+x1)^2", "x1 + x2 + x3 + x4", "x1 - x2 - x3", "3/(1+x1^4)",
    "sqrt(x1^2+1)", "0.001*x3", "10*exp(0-x1)", "x12", "x1*2",
    "2*(x1 - (x2 - x3))", "cos(x1)^2 + sin(x1)^2", "exp(x1)^2",
    "x1/x2/x3", "1e2*x1", "2.75", "x1^0", "(x1)", "((x2))",
    "x1 - -x2", "1/(2*x1 + 3*x2)", "exp(2*ln(1+x1^2))",
    "sin(x1)*cos(x2) - cos(x1)*sin(x2)", "sqrt(sqrt(1+x1^2))",
    "x1^2/(1+x1^2)", "5 - 1/(1+x2^2)", "0.5*(x1+x2)^2",
    "ln(exp(x3))", "x4^3", "1 + 1/(1 + 1/(1+x1^2))",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_print_parse_round_trip(text):
    expr = parse_expression(text)
    printed = str(expr)
    reparsed = parse_expression(printed)
    assert reparsed.ast == expr.ast
    assert str(reparsed) == printed


@given(st.floats(min_value=-5, max_value=5),
       st.floats(min_value=-5, max_value=5),
       st.integers(min_value=0, max_value=4))
def test_round_trip_preserves_values(a, b, k):
    text = f"{abs(a)!r} + {abs(b)!r}*x1^{k} - x2"
    expr = parse_expression(text)
    point = np.array([1.3, -0.7])
    again = parse_expression(str(expr))
    assert again(point) == expr(point)
