import pytest

from starsplit.errors import ExpressionError, UnboundParameterError
from starsplit.exprs import evaluate, parameter_names, parse_complex, parse_expression


def test_literals():
    assert parse_complex("1") == 1
    assert parse_complex("2.5") == 2.5
    assert parse_complex("2i") == 2j
    assert parse_complex(".5i") == 0.5j
    assert parse_complex("i") == 1j
    assert parse_complex("-0.2i") == -0.2j
    assert parse_complex("0+0.25i") == 0.25j
    assert parse_complex("0.1+0.1i") == 0.1 + 0.1j
    assert parse_complex("1e-3") == 1e-3


def test_precedence_and_parens():
    assert parse_complex("1+2*3") == 7
    assert parse_complex("(1+2)*3") == 9
    assert parse_complex("1-2-3") == -4
    assert parse_complex("8/2/2") == 2
    assert parse_complex("-2*-3") == 6
    assert parse_complex("2*i*i") == -2


def test_functions():
    assert evaluate("conj(1+2i)", {}) == 1 - 2j
    assert evaluate("abs2(3+4i)", {}) == 25
    assert evaluate("conj(t)*t", {"t": 1 + 1j}) == 2


def test_deformation_coefficient_expressions():
    t = 0.1 + 0.2j
    env = {"t": t}
    assert evaluate("i*(conj(t)+1)/(1-abs2(t))", env) == pytest.approx(
        1j * (t.conjugate() + 1) / (1 - abs(t) ** 2))
    assert evaluate("(1-conj(t))/(1-abs2(t))", env) == pytest.approx(
        (1 - t.conjugate()) / (1 - abs(t) ** 2))
    assert evaluate("i*(t-1)", env) == pytest.approx(1j * (t - 1))


def test_unbound_parameter():
    with pytest.raises(UnboundParameterError):
        evaluate("sigma12", {})
    assert parameter_names("a*conj(b)+1") == {"a", "b"}
    assert parameter_names("i+2") == set()


@pytest.mark.parametrize("bad", ["", "1+", "(1", "1#2", "conj 2", "conj(1"])
def test_syntax_errors(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


@pytest.mark.parametrize("bad", ["1/0", "1/(i-i)", "1e400", "-1e400i",
                                 "abs2(1e200)", "1e300*1e300"])
def test_arithmetic_failures_are_expression_errors(bad):
    with pytest.raises(ExpressionError):
        parse_complex(bad)


@pytest.mark.parametrize("text,params", [("abs2(t)", {"t": 1e300j}), ("abs2(1e200)", {}),
                                         ("abs2(conj(t))*2", {"t": -1e155})])
def test_overflow_is_reported_in_plain_words(text, params):
    """An overflowing evaluation names the expression, and no raw errno
    tuple such as "(34, 'Numerical result out of range')"."""
    with pytest.raises(ExpressionError) as info:
        evaluate(text, params)
    assert str(info.value) == f"{text!r} overflows a double"


# The grammar pinned by example: texts that read as numbers, and texts that
# are refused, with the class of the refusal.
@pytest.mark.parametrize("text,value", [
    ("007", 7), ("٣", 3), ("\t1\n+\t2\n", 3), ("1E+3i", 1000j), ("--1", 1),
    ("+-+1", -1), ("2i", 2j), (" i ", 1j), ("conj((1+i))", 1 - 1j)])
def test_accepted_texts(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text,error", [
    ("1j", ExpressionError), ("0x10", ExpressionError), ("1_0", ExpressionError),
    ("2**3", ExpressionError), ("8//2", ExpressionError), ("conj", ExpressionError),
    ("abs2+1", ExpressionError), ("t(1)", ExpressionError), ("(1)(2)", ExpressionError),
    ("2(3)", ExpressionError), ("1;2", ExpressionError), ("1#2", ExpressionError),
    ("conj(1,2)", ExpressionError), ("conj()", ExpressionError), ("conj(*t)", ExpressionError),
    ("(conj)(1)", ExpressionError),
    ("()", ExpressionError), ("2 i", ExpressionError), ("t.real", ExpressionError),
    ("'1'", ExpressionError), ("1 if t else 2", ExpressionError),
    ("True", UnboundParameterError), ("lambda", UnboundParameterError),
    ("not", UnboundParameterError)])
def test_refused_texts(text, error):
    with pytest.raises(error):
        parse_complex(text)


def test_python_keywords_are_plain_parameter_names():
    assert parameter_names("None*conj(if)+lambda") == {"None", "if", "lambda"}
    assert evaluate("True*2", {"True": 3}) == 6


# Each of these once raised RecursionError out of the parser or the evaluator.
@pytest.mark.parametrize("text", ["+".join(["1"] * 3000), "(" * 600 + "1" + ")" * 600,
                                  "-" * 3000 + "1", "-" * 20000 + "1"],
                         ids=["sum", "parentheses", "minuses", "parser-stack"])
def test_long_and_deep_expressions_are_expression_errors(text):
    with pytest.raises(ExpressionError):
        parse_complex(text)
    with pytest.raises(ExpressionError):
        evaluate(f"t*({text})", {"t": 1})
