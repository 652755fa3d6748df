"""Closed-form scalar expressions on chart coordinates.

Parser and forward-mode dual evaluator for the expression grammar used by
scene files and the normal-form generator:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' signed_int)*
    atom   := NUMBER | 'x<k>' | fn '(' expr ')' | '(' expr ')'

with fn in {exp, log, sin, cos, sqrt} and coordinates x0 .. x{dim-1}.
Evaluation returns the value together with its exact gradient.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, IndexOutOfRange, UnknownSymbol

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Div:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Coord, Add, Sub, Mul, Div, Neg, Pow, Call]


@dataclass(frozen=True)
class DualScalar:
    """Value of an expression together with its coordinate gradient."""

    value: float
    gradient: np.ndarray

    def __iter__(self):
        yield self.value
        yield self.gradient


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}",
                                  len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.next()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                node = Pow(node, self._int_exponent())
            else:
                return node

    def _int_exponent(self) -> int:
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, off = self.peek()
        if kind != "num" or any(c in val for c in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", off)
        self.next()
        return sign * int(val)

    def atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            m = re.fullmatch(r"x(\d+)", val)
            if m and m.group(1) == str(int(m.group(1))):
                idx = int(m.group(1))
                if idx >= self.dim:
                    raise IndexOutOfRange(
                        f"coordinate x{idx} out of range for dimension {self.dim}",
                        off,
                    )
                return Coord(idx)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise UnknownSymbol(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def parse(text: str, dim: int) -> Expr:
    """Parse expression text against a chart of the given dimension."""
    return _Parser(text, dim).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Coord: 5, Call: 5}


def to_text(e: Expr) -> str:
    """Render an expression; parse(to_text(e), dim) returns an equal tree."""

    def wrap(child: Expr, parent_prec: int, right_assoc_same=False) -> str:
        text = to_text(child)
        prec = _PREC[type(child)]
        if prec < parent_prec or (right_assoc_same and prec == parent_prec):
            return f"({text})"
        return text

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Coord):
        return f"x{e.index}"
    if isinstance(e, Add):
        return f"{wrap(e.lhs, 1)} + {wrap(e.rhs, 2)}"
    if isinstance(e, Sub):
        return f"{wrap(e.lhs, 1)} - {wrap(e.rhs, 2)}"
    if isinstance(e, Mul):
        return f"{wrap(e.lhs, 2)}*{wrap(e.rhs, 3)}"
    if isinstance(e, Div):
        return f"{wrap(e.lhs, 2)}/{wrap(e.rhs, 3)}"
    if isinstance(e, Neg):
        return f"-{wrap(e.operand, 3, right_assoc_same=False)}"
    if isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        return f"{wrap(e.base, 5)}^{exp}"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# dual evaluation (reference interpreter)


def _eval(e: Expr, p, n: int):
    if isinstance(e, Num):
        return e.value, [0.0] * n
    if isinstance(e, Coord):
        g = [0.0] * n
        g[e.index] = 1.0
        return float(p[e.index]), g
    if isinstance(e, Add):
        va, ga = _eval(e.lhs, p, n)
        vb, gb = _eval(e.rhs, p, n)
        return va + vb, [x + y for x, y in zip(ga, gb)]
    if isinstance(e, Sub):
        va, ga = _eval(e.lhs, p, n)
        vb, gb = _eval(e.rhs, p, n)
        return va - vb, [x - y for x, y in zip(ga, gb)]
    if isinstance(e, Mul):
        va, ga = _eval(e.lhs, p, n)
        vb, gb = _eval(e.rhs, p, n)
        return va * vb, [va * y + vb * x for x, y in zip(ga, gb)]
    if isinstance(e, Div):
        va, ga = _eval(e.lhs, p, n)
        vb, gb = _eval(e.rhs, p, n)
        if vb == 0.0:
            raise DomainError("division by zero", expr=e)
        inv = 1.0 / vb
        return va * inv, [(x - va * inv * y) * inv for x, y in zip(ga, gb)]
    if isinstance(e, Neg):
        v, g = _eval(e.operand, p, n)
        return -v, [-x for x in g]
    if isinstance(e, Pow):
        v, g = _eval(e.base, p, n)
        k = e.exponent
        if k == 0:
            return 1.0, [0.0] * n
        if v == 0.0 and k < 0:
            raise DomainError("zero base with negative exponent", expr=e)
        val = v ** k
        dcoef = k * v ** (k - 1)
        return val, [dcoef * x for x in g]
    if isinstance(e, Call):
        v, g = _eval(e.arg, p, n)
        if e.fn == "exp":
            val = math.exp(v)
            d = val
        elif e.fn == "log":
            if v <= 0.0:
                raise DomainError("log of a non-positive value", expr=e)
            val = math.log(v)
            d = 1.0 / v
        elif e.fn == "sin":
            val = math.sin(v)
            d = math.cos(v)
        elif e.fn == "cos":
            val = math.cos(v)
            d = -math.sin(v)
        elif e.fn == "sqrt":
            if v <= 0.0:
                raise DomainError("sqrt of a non-positive value", expr=e)
            val = math.sqrt(v)
            d = 0.5 / val
        else:  # pragma: no cover - parser rejects unknown functions
            raise UnknownSymbol(f"unknown function {e.fn!r}")
        return val, [d * x for x in g]
    raise TypeError(f"not an expression node: {e!r}")


def eval_dual(e: Expr, p) -> DualScalar:
    """Evaluate with forward-mode duals: exact value and gradient at p."""
    p = np.asarray(p, dtype=float)
    v, g = _eval(e, p, len(p))
    return DualScalar(v, np.array(g))


# ---------------------------------------------------------------------------
# compiled fast path
#
# Field evaluation sits inside geodesic integration loops, so expression
# trees are compiled once into flat Python functions returning
# (value, g0, ..., g{n-1}).  Semantics (including domain errors) match the
# interpreter above; agreement is covered by tests.


def compile_dual(e: Expr, dim: int):
    """Compile an expression into fn(p) -> tuple(value, *gradient)."""
    lines = []
    subexprs = []
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}", [f"v{counter[0]}_g{k}" for k in range(dim)]

    def emit(node) -> tuple:
        if isinstance(node, Num):
            return repr(node.value), ["0.0"] * dim
        if isinstance(node, Coord):
            g = ["0.0"] * dim
            g[node.index] = "1.0"
            return f"p[{node.index}]", g
        if isinstance(node, (Add, Sub)):
            va, ga = emit(node.lhs)
            vb, gb = emit(node.rhs)
            op = "+" if isinstance(node, Add) else "-"
            v, g = fresh()
            lines.append(f"    {v} = {va} {op} {vb}")
            for k in range(dim):
                lines.append(f"    {g[k]} = {ga[k]} {op} {gb[k]}")
            return v, g
        if isinstance(node, Mul):
            va, ga = emit(node.lhs)
            vb, gb = emit(node.rhs)
            v, g = fresh()
            lines.append(f"    {v} = {va} * {vb}")
            for k in range(dim):
                lines.append(f"    {g[k]} = {va} * {gb[k]} + {vb} * {ga[k]}")
            return v, g
        if isinstance(node, Div):
            va, ga = emit(node.lhs)
            vb, gb = emit(node.rhs)
            idx = len(subexprs)
            subexprs.append(node)
            v, g = fresh()
            lines.append(f"    if {vb} == 0.0:")
            lines.append(f"        raise _DomainError('division by zero', expr=_sub[{idx}])")
            lines.append(f"    {v}_inv = 1.0 / {vb}")
            lines.append(f"    {v} = {va} * {v}_inv")
            for k in range(dim):
                lines.append(
                    f"    {g[k]} = ({ga[k]} - {v} * {gb[k]}) * {v}_inv"
                )
            return v, g
        if isinstance(node, Neg):
            va, ga = emit(node.operand)
            v, g = fresh()
            lines.append(f"    {v} = -{va}")
            for k in range(dim):
                lines.append(f"    {g[k]} = -{ga[k]}")
            return v, g
        if isinstance(node, Pow):
            va, ga = emit(node.base)
            k_exp = node.exponent
            v, g = fresh()
            if k_exp == 0:
                lines.append(f"    {v} = 1.0")
                for k in range(dim):
                    lines.append(f"    {g[k]} = 0.0")
                return v, g
            if k_exp < 0:
                idx = len(subexprs)
                subexprs.append(node)
                lines.append(f"    if {va} == 0.0:")
                lines.append(
                    f"        raise _DomainError('zero base with negative exponent',"
                    f" expr=_sub[{idx}])"
                )
            lines.append(f"    {v} = {va} ** {k_exp}")
            lines.append(f"    {v}_d = {k_exp} * {va} ** {k_exp - 1}")
            for k in range(dim):
                lines.append(f"    {g[k]} = {v}_d * {ga[k]}")
            return v, g
        if isinstance(node, Call):
            va, ga = emit(node.arg)
            v, g = fresh()
            if node.fn in ("log", "sqrt"):
                idx = len(subexprs)
                subexprs.append(node)
                lines.append(f"    if {va} <= 0.0:")
                lines.append(
                    f"        raise _DomainError('{node.fn} of a non-positive value',"
                    f" expr=_sub[{idx}])"
                )
            if node.fn == "exp":
                lines.append(f"    {v} = _exp({va})")
                lines.append(f"    {v}_d = {v}")
            elif node.fn == "log":
                lines.append(f"    {v} = _log({va})")
                lines.append(f"    {v}_d = 1.0 / {va}")
            elif node.fn == "sin":
                lines.append(f"    {v} = _sin({va})")
                lines.append(f"    {v}_d = _cos({va})")
            elif node.fn == "cos":
                lines.append(f"    {v} = _cos({va})")
                lines.append(f"    {v}_d = -_sin({va})")
            elif node.fn == "sqrt":
                lines.append(f"    {v} = _sqrt({va})")
                lines.append(f"    {v}_d = 0.5 / {v}")
            for k in range(dim):
                lines.append(f"    {g[k]} = {v}_d * {ga[k]}")
            return v, g
        raise TypeError(f"not an expression node: {node!r}")

    v, g = emit(e)
    src = "def _compiled(p):\n" + "\n".join(lines) + f"\n    return ({v}, {', '.join(g)})\n"
    namespace = {
        "_exp": math.exp,
        "_log": math.log,
        "_sin": math.sin,
        "_cos": math.cos,
        "_sqrt": math.sqrt,
        "_DomainError": DomainError,
        "_sub": tuple(subexprs),
    }
    exec(compile(src, f"<expr:{to_text(e)[:40]}>", "exec"), namespace)
    return namespace["_compiled"]


# ---------------------------------------------------------------------------
# coordinate remapping (used by the normal-form generator)


def shift_coords(e: Expr, offset: int) -> Expr:
    """Return a copy of the tree with every coordinate index shifted."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Coord):
        return Coord(e.index + offset)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(shift_coords(e.lhs, offset), shift_coords(e.rhs, offset))
    if isinstance(e, Neg):
        return Neg(shift_coords(e.operand, offset))
    if isinstance(e, Pow):
        return Pow(shift_coords(e.base, offset), e.exponent)
    if isinstance(e, Call):
        return Call(e.fn, shift_coords(e.arg, offset))
    raise TypeError(f"not an expression node: {e!r}")
