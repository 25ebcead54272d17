"""Complex coefficient expressions, read as a subset of Python expressions.

Structure-constant tables and CLI values are numbers, the imaginary unit,
parameter names, binary ``+ - * /``, unary ``+ -``, parentheses and the
one-argument functions ``conj`` and ``abs2``, as in
``(conj(t)+1)/(1-abs2(t))*i``.  ``NUMBER`` is a decimal literal with
optional exponent; a directly attached ``i`` suffix (as in ``2i`` or
``.5i``) makes it imaginary, and a bare ``i`` is the imaginary unit.  Free
names are parameters bound at evaluation time.

A text is rewritten token by token to Python source (numbers as the
``repr`` of their float, ``i`` as ``j``, every name prefixed with ``_`` so
that none is a Python keyword), parsed with ``ast`` and refused unless
every node is on the grammar above.  Nothing is compiled or executed: the
tree is walked with complex arithmetic, left operand first.
"""

from __future__ import annotations

import ast
import cmath
import functools
import math
import operator
import re
from typing import Mapping, Union

from .errors import ExpressionError, UnboundParameterError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)

_FUNCTIONS = {"_conj": complex.conjugate, "_abs2": lambda v: complex(abs(v) ** 2, 0.0)}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
          ast.Load, ast.USub, ast.UAdd, *_BINARY)


def _to_python(text: str) -> str:
    pieces = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"cannot tokenize {text[pos:]!r} in {text!r}")
        pos = m.end()
        num, name = m.group("num", "name")
        if num:
            value = float(num.rstrip("i"))
            if math.isinf(value):
                raise ExpressionError(f"literal {num!r} overflows in {text!r}")
            pieces.append(repr(value) + "j" * num.endswith("i"))
        elif name:
            pieces.append("1j" if name == "i" else "_" + name)
        else:
            pieces.append(m.group("op"))
    return " ".join(pieces)


def _on_grammar(tree: ast.Expression) -> bool:
    """Whether every node of ``tree`` is on the grammar; ``conj`` and
    ``abs2`` only as called by name (``conj(x)``, not ``(conj)(x)``) with
    one argument."""
    callees = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                    and node.func.col_offset == node.col_offset and len(node.args) == 1):
                return False
            callees.add(node.func)
        elif not isinstance(node, _NODES):
            return False
        elif isinstance(node, ast.Name) and node.id in _FUNCTIONS and node not in callees:
            return False
    return True


@functools.lru_cache(maxsize=1024)
def parse_expression(text: str) -> ast.expr:
    """The tree of ``text``; cached, so callers share it and never modify it."""
    try:
        tree = ast.parse(_to_python(text), mode="eval")
    except SyntaxError:
        tree = None
    except (RecursionError, MemoryError):
        # the parser's limits: RecursionError while building the tree of a
        # long sum, MemoryError ("parser stack overflowed") past its depth
        raise ExpressionError(f"{text!r} is too long or too deeply nested") from None
    if tree is None or not _on_grammar(tree):
        raise ExpressionError(f"cannot parse {text!r}: expected numbers, i, parameter names, "
                              f"+ - * /, parentheses, conj(x) and abs2(x)")
    return tree.body


def _value(node: ast.expr, env: Mapping[str, complex]) -> complex:
    kind = type(node)
    if kind is ast.BinOp:
        return _BINARY[type(node.op)](_value(node.left, env), _value(node.right, env))
    if kind is ast.Constant:
        return complex(node.value)
    if kind is ast.Name:
        name = node.id[1:]
        if name not in env:
            raise UnboundParameterError(f"parameter {name!r} has no bound value")
        return complex(env[name])
    if kind is ast.UnaryOp:
        value = _value(node.operand, env)
        return -value if type(node.op) is ast.USub else value
    return _FUNCTIONS[node.func.id](_value(node.args[0], env))


def evaluate(node_or_text: Union[ast.expr, str],
             params: Mapping[str, complex] | None = None) -> complex:
    node = parse_expression(node_or_text) if isinstance(node_or_text, str) else node_or_text
    try:
        value = _value(node, params or {})
    except OverflowError as exc:
        raise ExpressionError(f"{node_or_text!r} overflows a double") from exc
    except ArithmeticError as exc:
        raise ExpressionError(f"cannot evaluate {node_or_text!r}: {exc}") from exc
    except RecursionError:
        raise ExpressionError(f"{node_or_text!r} is too long or too deeply nested") from None
    if not cmath.isfinite(value):
        raise ExpressionError(f"{node_or_text!r} evaluates to {value}")
    return value


def parameter_names(node_or_text: Union[ast.expr, str]) -> set:
    node = parse_expression(node_or_text) if isinstance(node_or_text, str) else node_or_text
    return {nd.id[1:] for nd in ast.walk(node)
            if isinstance(nd, ast.Name) and nd.id not in _FUNCTIONS}


def parse_complex(text: str) -> complex:
    """Parse a closed complex literal like ``0.1+0.25i`` (no free names)."""
    return evaluate(text, {})
