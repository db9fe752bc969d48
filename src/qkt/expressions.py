"""Arithmetic expressions for user-supplied scalar fields.

Grammar (EBNF)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" integer)?
    base   := number | ident | "(" expr ")" | func "(" expr ")"
    func   := "exp" | "ln" | "sin" | "cos" | "sqrt"
    ident  := "x" digits          # 1-based coordinate index

"^" binds tightest and takes a literal integer exponent; "+", "-", "*",
"/" are left-associative.  As a convenience superset of the grammar a
unary "-" is accepted in base position.  Printing produces a canonical
text whose re-parse yields an equal AST.

An expression evaluates a whole point array ``(..., d)`` at once with
numpy ufuncs.  A point fails where the scalar tree walk would raise:
division by zero, a power or function with no finite real value, or a
non-finite result; the error names the first failing point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

FUNCTIONS = {
    "exp": np.exp,
    "ln": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    offset: int


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup == "num":
            tokens.append(Token("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.offset)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.offset)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.factor())
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self._integer())
        return node

    def _integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "num" or not tok.text.isdigit():
            raise ExpressionError("exponent must be an integer", tok.offset)
        self.advance()
        return sign * int(tok.text)

    def base(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            m = re.fullmatch(r"x(\d+)", tok.text)
            if m:
                index = int(m.group(1))
                if index == 0:
                    raise ExpressionError("coordinate indices are 1-based", tok.offset)
                return Var(index)
            raise ExpressionError(f"unknown identifier {tok.text!r}", tok.offset)
        raise ExpressionError(f"expected a value, found {tok.text or 'end of input'!r}", tok.offset)


class _Failures:
    """Where the scalar tree walk would raise: each row fails at its first
    failing node in walk order; ``first`` is (row, message) of the lowest row."""

    def __init__(self, shape):
        self.ok = np.ones(shape, dtype=bool)
        self.first = (self.ok.size, "")

    def record(self, mask, message, values=0.0):
        if mask.any():
            new = mask & self.ok
            row = int(np.argmax(new)) if new.any() else self.ok.size
            if row < self.first[0]:
                self.first = (row, message.format(float(np.broadcast_to(values, new.shape).flat[row])))
            self.ok &= ~new


def _eval(node, x, fails: _Failures):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        if node.index > x.shape[-1]:
            raise ExpressionError(f"x{node.index} out of range for a {x.shape[-1]}-dimensional point")
        return x[..., node.index - 1]
    if isinstance(node, Neg):
        return -_eval(node.arg, x, fails)
    if isinstance(node, BinOp):
        a = _eval(node.left, x, fails)
        b = _eval(node.right, x, fails)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        fails.record(b == 0.0, "division by zero")
        return a / b
    if isinstance(node, Pow):
        v = _eval(node.base, x, fails)
        out = v ** node.exponent
        fails.record(np.isfinite(v) & ~np.isfinite(out),
                     "{!r}^" + f"{node.exponent} is not a finite number", v)
        return out
    if isinstance(node, Call):
        v = _eval(node.arg, x, fails)
        out = FUNCTIONS[node.name](v)
        # math raises on a domain error (NaN from a non-NaN argument) and on
        # an overflow or pole (infinity from a finite argument)
        fails.record(~np.isnan(v) & (np.isnan(out) | (np.isinf(out) & np.isfinite(v))),
                     f"{node.name}" + "({!r}) has no finite real value", v)
        return out
    raise TypeError(f"not an AST node: {node!r}")


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _to_text(node, parent_prec: int = 0) -> str:
    if isinstance(node, Num):
        return repr(node.value) if node.value != int(node.value) else str(int(node.value))
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        inner = _to_text(node.arg, 9)
        return f"-{inner}"
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        left = _to_text(node.left, prec)
        # right operand of a left-associative chain needs parens at equal precedence
        right = _to_text(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Pow):
        base = _to_text(node.base, 9)
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.name}({_to_text(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


@dataclass(frozen=True)
class Expression:
    """A parsed scalar expression over coordinates x1..xd."""

    ast: object
    source: str

    def __call__(self, points) -> np.ndarray:
        """Values at the points ``points`` (..., d): an array of shape (...)."""
        x = np.asarray(points, dtype=float)
        fails = _Failures(x.shape[:-1])
        with np.errstate(all="ignore"):
            value = np.broadcast_to(_eval(self.ast, x, fails), x.shape[:-1])
        fails.record(~np.isfinite(value), f"{self.source!r} evaluates to " + "{!r}, not a finite number",
                     value)
        row, message = fails.first
        if row < value.size:
            point = [float(c) for c in x.reshape(-1, x.shape[-1])[row]]
            raise ExpressionError(f"{message} at point {point} (row {row})")
        return np.array(value)[()]

    def __str__(self) -> str:
        return _to_text(self.ast)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    Raises :class:`~qkt.errors.ExpressionError` with the byte offset on
    syntax errors, unknown identifiers, or malformed exponents.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    return Expression(_Parser(text).parse(), text)
