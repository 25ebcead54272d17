"""Tiny recursive-descent evaluator for complex coefficient expressions.

Structure-constant tables and CLI values use a minimal grammar:

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | atom
    atom   := NUMBER | 'i' | NAME | ('conj'|'abs2') '(' expr ')' | '(' expr ')'

``NUMBER`` is a decimal literal with optional exponent; a directly attached
``i`` suffix (as in ``2i`` or ``.5i``) makes it imaginary, and a bare ``i``
is the imaginary unit.  Free names are parameters bound at evaluation time.
This is deliberately not a CAS: just enough to encode coefficient tables
like ``(conj(t)+1)/(1-abs2(t))*i``.
"""

from __future__ import annotations

import cmath
import math
import re
from typing import List, Mapping, Tuple, Union

from .errors import ExpressionError, UnboundParameterError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)

_FUNCTIONS = ("conj", "abs2")

# AST nodes are nested tuples:
#   ("num", complex) ("param", name) ("call", fn, arg)
#   ("+"|"-"|"*"|"/", left, right) ("neg", arg)
Node = Tuple


def _tokenize(text: str) -> List[Tuple[str, Union[str, complex]]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"cannot tokenize {text[pos:]!r} in {text!r}")
        pos = m.end()
        if m.group("num"):
            lit = m.group("num")
            value = float(lit.rstrip("i"))
            if math.isinf(value):
                raise ExpressionError(f"literal {lit!r} overflows in {text!r}")
            tokens.append(("num", complex(0.0, value) if lit[-1] == "i" else complex(value, 0.0)))
        elif m.group("name"):
            name = m.group("name")
            if name == "i":
                tokens.append(("num", 1j))
            else:
                tokens.append(("name", name))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> Node:
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input in {self.text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            node = (op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            node = (op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek() == ("op", "-"):
            self.next()
            return ("neg", self.unary())
        if self.peek() == ("op", "+"):
            self.next()
            return self.unary()
        return self.atom()

    def atom(self) -> Node:
        kind, val = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            return ("param", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {val!r} in {self.text!r}")


def parse_expression(text: str) -> Node:
    return _Parser(text).parse()


def evaluate(node_or_text: Union[Node, str], params: Mapping[str, complex] | None = None) -> complex:
    node = parse_expression(node_or_text) if isinstance(node_or_text, str) else node_or_text
    env: Mapping[str, complex] = params or {}

    def walk(nd: Node) -> complex:
        tag = nd[0]
        if tag == "num":
            return nd[1]
        if tag == "param":
            if nd[1] not in env:
                raise UnboundParameterError(f"parameter {nd[1]!r} has no bound value")
            return complex(env[nd[1]])
        if tag == "neg":
            return -walk(nd[1])
        if tag == "call":
            v = walk(nd[2])
            return v.conjugate() if nd[1] == "conj" else complex(abs(v) ** 2, 0.0)
        a, b = walk(nd[1]), walk(nd[2])
        if tag == "+":
            return a + b
        if tag == "-":
            return a - b
        if tag == "*":
            return a * b
        if tag == "/":
            return a / b
        raise ExpressionError(f"bad node {nd!r}")

    try:
        value = walk(node)
    except OverflowError as exc:
        raise ExpressionError(f"{node_or_text!r} overflows a double") from exc
    except ArithmeticError as exc:
        raise ExpressionError(f"cannot evaluate {node_or_text!r}: {exc}") from exc
    if not cmath.isfinite(value):
        raise ExpressionError(f"{node_or_text!r} evaluates to {value}")
    return value


def parameter_names(node_or_text: Union[Node, str]) -> set:
    node = parse_expression(node_or_text) if isinstance(node_or_text, str) else node_or_text
    names = set()

    def walk(nd: Node):
        tag = nd[0]
        if tag == "param":
            names.add(nd[1])
        elif tag == "neg":
            walk(nd[1])
        elif tag == "call":
            walk(nd[2])
        elif tag in "+-*/":
            walk(nd[1])
            walk(nd[2])

    walk(node)
    return names


def parse_complex(text: str) -> complex:
    """Parse a closed complex literal like ``0.1+0.25i`` (no free names)."""
    return evaluate(text, {})
