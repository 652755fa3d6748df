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

``compile_dual`` is the one evaluator: it generates one flat Python
function for an expression or for a tuple of them (all components of a
field), computing each distinct subtree once.  On a point of Python
floats, as ``fields`` passes it, an overflowing ``**`` raises where numpy
scalars would give inf.  Every error comes out as ``DomainError``: a
singularity names its subtree, and an arithmetic error of the float
operations (``OverflowError``, ``ValueError``) names the component that
met it.

``diff`` gives the derivative of a tree along one coordinate as a tree,
so ``compile_dual`` of it gives second derivatives exactly.
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


# Hand-written reprs, the dataclass strings without the recursion guard:
# the kernel cache keys on them, so Num(0.0) and Num(-0.0) never share code.


@dataclass(frozen=True, repr=False)
class Num:
    value: float

    def __repr__(self):
        return f"Num(value={self.value!r})"


@dataclass(frozen=True, repr=False)
class Coord:
    index: int

    def __repr__(self):
        return f"Coord(index={self.index!r})"


@dataclass(frozen=True, repr=False)
class _Binary:
    lhs: "Expr"
    rhs: "Expr"

    def __repr__(self):
        return f"{type(self).__name__}(lhs={self.lhs!r}, rhs={self.rhs!r})"


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


@dataclass(frozen=True, repr=False)
class Neg:
    operand: "Expr"

    def __repr__(self):
        return f"Neg(operand={self.operand!r})"


@dataclass(frozen=True, repr=False)
class Pow:
    base: "Expr"
    exponent: int

    def __repr__(self):
        return f"Pow(base={self.base!r}, exponent={self.exponent!r})"


@dataclass(frozen=True, repr=False)
class Call:
    fn: str
    arg: "Expr"

    def __repr__(self):
        return f"Call(fn={self.fn!r}, arg={self.arg!r})"


Expr = Union[Num, Coord, Add, Sub, Mul, Div, Neg, Pow, Call]


# ---------------------------------------------------------------------------
# parsing

# one scan: every character outside a token and whitespace is ``bad``
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)
_COORD = re.compile(r"x(\d+)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
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
            if not math.isfinite(float(val)):
                raise ExprSyntaxError(f"number literal {val!r} is not finite", off)
            return Num(float(val))
        if kind == "ident":
            m = _COORD.fullmatch(val)
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
    """Render an expression; parse(to_text(e), dim) returns an equal tree,
    except that a negative number literal comes back as the negation of
    its magnitude (same value)."""

    def wrap(child: Expr, parent_prec: int) -> str:
        text = to_text(child)
        prec = _PREC[type(child)]
        if isinstance(child, Num) and math.copysign(1.0, child.value) < 0:
            prec = _PREC[Neg]  # "-1.5" parses as a negation
        if prec < parent_prec:
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
        return f"-{wrap(e.operand, 3)}"
    if isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        return f"{wrap(e.base, 5)}^{exp}"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# compiled evaluation
#
# Field evaluation sits inside geodesic integration loops, so all component
# expressions of a field are compiled once into a single flat Python
# function returning (value, g0, ..., g{n-1}) for each component in turn:
# one call per field evaluation, with every distinct subtree computed once.


def _arithmetic_error(exc, e, p):
    """Raise the ``DomainError`` naming component ``e`` of a kernel whose
    arithmetic raised ``exc`` at the point ``p``."""
    raise DomainError(f"{type(exc).__name__} ({exc}) evaluating {to_text(e)} "
                      f"at {np.asarray(p, dtype=float)}", expr=e) from exc


def compile_dual(e, dim: int):
    """Compile an expression into fn(p) -> tuple(value, *gradient).

    ``e`` may also be a tuple of expressions; fn(p) then returns
    (value, *gradient) of each one in turn, flattened into one tuple, and
    raises the ``DomainError`` that evaluating them one by one, in order,
    would raise first.  Equal subtrees are emitted once, in the first
    component that uses them.  Subtrees count as equal when their reprs
    are: each node is keyed on its operator and the variables of its
    operands, and a number leaf on the repr of its value, so ``Num(0.0)``
    and ``Num(-0.0)`` (equal as dataclasses) never share code.

    A singularity (division by zero, the log or sqrt of a non-positive
    value, a zero base with a negative exponent) raises ``DomainError``
    with the offending subtree as ``.expr``.  An arithmetic error of
    Python's float operations (an overflowing ``**`` or ``exp``, ``sin``
    of an infinity) raises ``DomainError`` naming the component whose code
    met it, with the original exception as ``__cause__``.
    """
    exprs = e if isinstance(e, tuple) else (e,)
    lines = []
    subexprs = []
    memo = {}

    def fresh():
        name = f"v{len(memo)}"
        return name, [f"{name}_g{k}" for k in range(dim)]

    def guard(test, message, node):
        lines.append(f"    if {test}:")
        lines.append(f"        raise _DomainError({message!r}, expr=_sub[{len(subexprs)}])")
        subexprs.append(node)

    def emit(node) -> tuple:
        if isinstance(node, Num):
            # parenthesized, so a negative literal binds as a unit: -2.0 ** 2
            # would be -(2.0 ** 2)
            return f"({node.value!r})", ["0.0"] * dim
        if isinstance(node, Coord):
            g = ["0.0"] * dim
            g[node.index] = "1.0"
            return f"p[{node.index}]", g
        if isinstance(node, (Add, Sub, Mul, Div)):
            va, ga = emit(node.lhs)
            vb, gb = emit(node.rhs)
            key = (type(node), va, vb)
        elif isinstance(node, Neg):
            va, ga = emit(node.operand)
            key = (Neg, va)
        elif isinstance(node, Call):
            va, ga = emit(node.arg)
            key = (Call, node.fn, va)
        elif isinstance(node, Pow):
            va, ga = emit(node.base)
            key = (Pow, node.exponent, va)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        if key in memo:
            return memo[key]
        v, g = fresh()
        memo[key] = v, g
        if isinstance(node, (Add, Sub)):
            op = "+" if isinstance(node, Add) else "-"
            lines.append(f"    {v} = {va} {op} {vb}")
            for k in range(dim):
                lines.append(f"    {g[k]} = {ga[k]} {op} {gb[k]}")
        elif isinstance(node, Mul):
            lines.append(f"    {v} = {va} * {vb}")
            for k in range(dim):
                lines.append(f"    {g[k]} = {va} * {gb[k]} + {vb} * {ga[k]}")
        elif isinstance(node, Div):
            guard(f"{vb} == 0.0", "division by zero", node)
            lines.append(f"    {v}_inv = 1.0 / {vb}")
            lines.append(f"    {v} = {va} * {v}_inv")
            for k in range(dim):
                lines.append(f"    {g[k]} = ({ga[k]} - {v} * {gb[k]}) * {v}_inv")
        elif isinstance(node, Neg):
            lines.append(f"    {v} = -{va}")
            for k in range(dim):
                lines.append(f"    {g[k]} = -{ga[k]}")
        elif isinstance(node, Pow) and node.exponent == 0:
            lines.append(f"    {v} = 1.0")
            for k in range(dim):
                lines.append(f"    {g[k]} = 0.0")
        elif isinstance(node, Pow):
            k_exp = node.exponent
            if k_exp < 0:
                guard(f"{va} == 0.0", "zero base with negative exponent", node)
            lines.append(f"    {v} = {va} ** {k_exp}")
            lines.append(f"    {v}_d = {k_exp} * {va} ** {k_exp - 1}")
            for k in range(dim):
                lines.append(f"    {g[k]} = {v}_d * {ga[k]}")
        else:
            if node.fn in ("log", "sqrt"):
                guard(f"{va} <= 0.0", f"{node.fn} of a non-positive value", node)
            lines.append(f"    {v} = _{node.fn}({va})")
            lines.append(f"    {v}_d = {_CALL_DERIVATIVE[node.fn].format(v=v, a=va)}")
            for k in range(dim):
                lines.append(f"    {g[k]} = {v}_d * {ga[k]}")
        return v, g

    out = []
    for i, expr in enumerate(exprs):
        start = len(lines)
        v, g = emit(expr)
        if len(lines) > start:
            lines[start:] = ["    try:", *("    " + line for line in lines[start:]),
                             "    except (ArithmeticError, ValueError) as exc:",
                             f"        _arithmetic_error(exc, _exprs[{i}], p)"]
        out.append(v)
        out.extend(g)
    src = ("def _compiled(p):\n" + "\n".join(lines)
           + f"\n    return ({''.join(x + ', ' for x in out)})\n")
    namespace = {
        "_exp": math.exp,
        "_log": math.log,
        "_sin": math.sin,
        "_cos": math.cos,
        "_sqrt": math.sqrt,
        "_DomainError": DomainError,
        "_arithmetic_error": _arithmetic_error,
        "_sub": tuple(subexprs),
        "_exprs": exprs,
    }
    label = to_text(exprs[0])[:40] if exprs else ""
    exec(compile(src, f"<expr:{label}>", "exec"), namespace)
    return namespace["_compiled"]


# derivative of each builtin, in terms of its value {v} and argument {a}
_CALL_DERIVATIVE = {
    "exp": "{v}",
    "log": "1.0 / {a}",
    "sin": "_cos({a})",
    "cos": "-_sin({a})",
    "sqrt": "0.5 / {v}",
}


# ---------------------------------------------------------------------------
# symbolic derivatives


def _is_num(e: Expr, value: float) -> bool:
    return isinstance(e, Num) and e.value == value


def add(a: Expr, b: Expr) -> Expr:
    """The tree a + b, with a zero term dropped."""
    if _is_num(b, 0.0):
        return a
    return b if _is_num(a, 0.0) else Add(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    """The tree a * b; a zero factor gives zero, a unit factor is dropped."""
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    return a if _is_num(b, 1.0) else Mul(a, b)


def diff(e: Expr, k: int) -> Expr:
    """The tree of the exact derivative of ``e`` along x_k: sum, product,
    quotient and chain rules, with zero terms and unit factors dropped.
    The derivative of a quotient divides by the same denominator, and that
    of a negative power is a negative power of the same base, so both
    raise where ``e`` does."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Coord):
        return Num(1.0 if e.index == k else 0.0)
    if isinstance(e, Add):
        return add(diff(e.lhs, k), diff(e.rhs, k))
    if isinstance(e, Sub):
        da, db = diff(e.lhs, k), diff(e.rhs, k)
        if _is_num(db, 0.0):
            return da
        return Neg(db) if _is_num(da, 0.0) else Sub(da, db)
    if isinstance(e, Mul):
        return add(mul(e.lhs, diff(e.rhs, k)), mul(e.rhs, diff(e.lhs, k)))
    if isinstance(e, Div):
        # (a / b)' = (a' - (a / b) b') / b
        da, db = diff(e.lhs, k), diff(e.rhs, k)
        if _is_num(da, 0.0) and _is_num(db, 0.0):
            return Num(0.0)
        top = da if _is_num(db, 0.0) else Sub(da, mul(e, db))
        return Div(top, e.rhs)
    if isinstance(e, Neg):
        d = diff(e.operand, k)
        return d if _is_num(d, 0.0) else Neg(d)
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Num(0.0)
        outer = Num(1.0) if e.exponent == 1 else mul(
            Num(float(e.exponent)), Pow(e.base, e.exponent - 1))
        return mul(outer, diff(e.base, k))
    if isinstance(e, Call):
        d = diff(e.arg, k)
        if _is_num(d, 0.0):
            return d
        if e.fn == "exp":
            return mul(e, d)
        if e.fn == "log":
            return Div(d, e.arg)
        if e.fn == "sin":
            return mul(Call("cos", e.arg), d)
        if e.fn == "cos":
            return Neg(mul(Call("sin", e.arg), d))
        if e.fn == "sqrt":
            return Div(mul(Num(0.5), d), e)
        raise UnknownSymbol(f"unknown function {e.fn!r}")
    raise TypeError(f"not an expression node: {e!r}")


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
