"""Expression parsing, printing round-trips and dual-number gradients: the
compiled kernels against the reference interpreter of ``conftest``."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoequiv.errors import (
    DomainError,
    ExprSyntaxError,
    IndexOutOfRange,
    UnknownSymbol,
)
from geoequiv.exprdsl import (
    Add,
    Call,
    Coord,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    _tokenize,
    compile_dual,
    diff,
    parse,
    shift_coords,
    to_text,
)

from conftest import _eval, eval_dual, reference_tokenize


# ---------------------------------------------------------------------------
# parsing


def test_parse_div_pow():
    e = parse("1/(x0^2)", 2)
    assert e == Div(Num(1.0), Pow(Coord(0), 2))


def test_parse_mixed():
    e = parse("2 + 0.1*sin(x1)", 2)
    assert e == Add(Num(2.0), Mul(Num(0.1), Call("sin", Coord(1))))


def test_parse_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse("x3", 2)


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse("foo(x0)", 2)


def test_parse_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 + * 2", 1)
    assert exc.value.offset == 4


# the grammar's characters, whitespace (unicode included), digits that
# are not ASCII, and junk
_TEXT_PIECES = st.sampled_from(
    list("x0123456789+-*/^()._eE \t\n") + ["sin", "exp", "x12", "1e-3", "\u00a0",
                                             "\x1c", "\u0663", "\u00e9", "#", "$", "'"])


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_TEXT_PIECES, max_size=20).map("".join), st.text(max_size=12)))
def test_tokenizer_matches_the_reference_scan(text):
    def outcome(tokenize):
        try:
            return tokenize(text)
        except ExprSyntaxError as exc:
            return type(exc), str(exc), exc.offset

    assert outcome(_tokenize) == outcome(reference_tokenize)


def test_parse_precedence():
    # ^ binds tighter than unary minus; * tighter than +
    assert parse("-x0^2", 1) == Neg(Pow(Coord(0), 2))
    assert parse("1 + 2*x0", 1) == Add(Num(1.0), Mul(Num(2.0), Coord(0)))
    assert parse("1 - 2 - 3", 1) == Sub(Sub(Num(1.0), Num(2.0)), Num(3.0))


def test_parse_negative_exponent():
    e = parse("x0^-2", 1)
    assert e == Pow(Coord(0), -2)


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ExprSyntaxError):
        parse("x0^1.5", 1)


def test_parse_rejects_trailing():
    with pytest.raises(ExprSyntaxError):
        parse("1 + 2)", 1)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_product_gradient():
    value, *gradient = compile_dual(parse("x0*x1", 2), 2)([3.0, 4.0])
    assert value == 12.0
    assert np.allclose(gradient, [4.0, 3.0])


def test_eval_sin_at_zero():
    value, *gradient = compile_dual(parse("sin(x0)", 3), 3)([0.0, 1.0, 2.0])
    assert value == 0.0
    assert np.allclose(gradient, [1.0, 0.0, 0.0])


def test_eval_domain_error():
    with pytest.raises(DomainError) as exc:
        compile_dual(parse("1/(x0-1)", 2), 2)([1.0, 0.0])
    assert exc.value.expr is not None


def test_eval_log_sqrt_domains():
    with pytest.raises(DomainError):
        compile_dual(parse("log(x0)", 1), 1)([-1.0])
    with pytest.raises(DomainError):
        compile_dual(parse("sqrt(x0)", 1), 1)([0.0])


# ---------------------------------------------------------------------------
# random expressions: round trip and finite-difference agreement


def _expr_strategy(dim, depth=3):
    leaf = st.one_of(
        st.floats(min_value=0.1, max_value=3.0).map(lambda v: Num(round(v, 3))),
        st.integers(0, dim - 1).map(Coord),
    )

    def extend(children):
        binary = st.tuples(children, children)
        return st.one_of(
            binary.map(lambda t: Add(*t)),
            binary.map(lambda t: Sub(*t)),
            binary.map(lambda t: Mul(*t)),
            children.map(Neg),
            st.tuples(children, st.integers(1, 3)).map(lambda t: Pow(t[0], t[1])),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
                lambda t: Call(t[0], t[1])
            ),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_expr_strategy(3), st.integers(0, 10_000))
def test_roundtrip_and_fd_gradient(e, seed):
    # print -> parse gives an AST-equal tree
    assert parse(to_text(e), 3) == e

    rng = np.random.default_rng(seed)
    p = rng.uniform(-1.0, 1.0, size=3)
    try:
        d = eval_dual(e, p)
    except DomainError:
        return
    if not np.isfinite(d.value) or not np.all(np.isfinite(d.gradient)):
        return
    if abs(d.value) > 1e6 or np.max(np.abs(d.gradient)) > 1e6:
        return
    for k in range(3):
        h = 1e-6 * (1.0 + abs(p[k]))
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        try:
            fd = (eval_dual(e, pp).value - eval_dual(e, pm).value) / (2 * h)
        except DomainError:
            return
        scale = max(1.0, abs(d.gradient[k]))
        assert abs(fd - d.gradient[k]) <= 1e-6 * scale


@settings(max_examples=150, deadline=None)
@given(_expr_strategy(2), st.integers(0, 10_000))
def test_compiled_matches_interpreter(e, seed):
    fn = compile_dual(e, 2)
    rng = np.random.default_rng(seed)
    p = rng.uniform(-1.0, 1.0, size=2)
    try:
        want = eval_dual(e, p)
    except DomainError:
        with pytest.raises(DomainError):
            fn(p)
        return
    got = fn(p)
    assert got[0] == want.value
    assert np.array_equal(np.array(got[1:]), want.gradient)


def _pow_strategy(dim):
    """Powers with exponents of either sign over the trees of
    ``_expr_strategy`` and over negative and signed-zero literals."""
    literal = st.one_of(
        st.floats(min_value=0.1, max_value=3.0).map(lambda v: Num(-round(v, 3))),
        st.sampled_from([Num(0.0), Num(-0.0)]),
    )
    base = st.one_of(_expr_strategy(dim), literal,
                     st.tuples(literal, _expr_strategy(dim)).map(lambda t: Mul(*t)))
    power = st.tuples(base, st.integers(-4, 4)).map(lambda t: Pow(*t))
    return st.one_of(power, st.tuples(power, _expr_strategy(dim)).map(lambda t: Add(*t)))


_coordinate = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]),
                        st.floats(-1e120, 1e120))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_expr_strategy(2), _pow_strategy(2)),
       st.lists(_coordinate, min_size=2, max_size=2))
@example(Pow(Coord(0), 4), [1e120, 0.0])
@example(parse("sin(x0*1e300*1e300*x0)", 2), [0.5, 0.0])
def test_kernel_on_float_rows_matches_ndarray_rows_and_interpreter(e, p):
    # fields run a kernel on the Python floats of ``row.tolist()``; the
    # ndarray row (numpy scalar arithmetic) is the reference wherever it
    # is finite, and the interpreter meets the same errors: its domain
    # errors as they are, its arithmetic errors as the cause of a
    # DomainError naming the expression
    fn = compile_dual(e, 2)
    row = np.array(p)
    try:
        want = eval_dual(e, row)
    except DomainError as exc:
        with pytest.raises(type(exc)):
            fn(row.tolist())
        return
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(DomainError) as got:
            fn(row.tolist())
        cause = got.value.__cause__
        assert type(cause) is type(exc) and str(cause) == str(exc)
        assert got.value.expr == e and repr(got.value.expr) == repr(e)
        assert str(got.value) == (f"{type(exc).__name__} ({exc}) evaluating "
                                  f"{to_text(e)} at {row}")
        return
    got = fn(row.tolist())
    assert all(type(x) is float for x in got)
    assert _bits(got) == _bits([want.value, *want.gradient])
    with np.errstate(all="ignore"):
        reference = fn(row)
    if np.all(np.isfinite(reference)):
        assert _bits(got) == _bits(reference)


def test_compiled_domain_error_carries_subexpr():
    fn = compile_dual(parse("1/(x0-1)", 1), 1)
    with pytest.raises(DomainError) as exc:
        fn((1.0,))
    assert exc.value.expr == parse("1/(x0-1)", 1)


# ---------------------------------------------------------------------------
# fused kernels: one compiled function over a tuple of expressions


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _first_error(thunks):
    for thunk in thunks:
        try:
            thunk()
        except (DomainError, ArithmeticError, ValueError) as exc:
            return exc
    return None


@st.composite
def _expr_tuples(draw, dim=2):
    """Tuples of random trees with repeats and shared subtrees; with
    ``poles``, some entries divide by, or take the log of, an expression
    that is zero at the point (0.5, 0.25)."""
    base = draw(st.lists(_expr_strategy(dim), min_size=1, max_size=4))
    pool = list(base)
    pool += [Add(a, b) for a, b in zip(base, base[1:])]
    pool += [Mul(base[0], Neg(base[-1]))]
    pool += [
        Div(base[0], Sub(Coord(0), Num(0.5))),
        Call("log", Sub(Coord(1), Num(0.25))),
        Pow(Sub(Num(0.5), Coord(0)), -2),
        Call("sqrt", Mul(base[-1], Sub(Coord(1), Num(0.25)))),
    ]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return tuple(pool[i] for i in picks)


# exp(1000*x0) overflows at seed 4's point (x0 = 0.886); the components
# sharing it name the first of them, in either order
_SHARED_OVERFLOW = (Add(Coord(0), Num(1.0)), Mul(Num(2.0), parse("exp(1000*x0)", 2)),
                    Add(parse("exp(1000*x0)", 2), Num(1.0)))


@settings(max_examples=150, deadline=None)
@given(_expr_tuples(), st.integers(0, 10_000), st.booleans())
@example(_SHARED_OVERFLOW, 4, False)
@example(_SHARED_OVERFLOW[::-1], 4, False)
def test_fused_kernel_matches_single_kernels_and_interpreter(exprs, seed, at_pole):
    fused = compile_dual(exprs, 2)
    singles = [compile_dual(e, 2) for e in exprs]
    if at_pole:
        p = np.array([0.5, 0.25])
    else:
        p = np.random.default_rng(seed).uniform(-1.0, 1.0, size=2)
    want = _first_error([lambda fn=fn: fn(p) for fn in singles])
    if want is not None:
        assert _first_error([lambda e=e: _eval(e, p, 2) for e in exprs]) is not None
        with pytest.raises(DomainError) as exc:
            fused(p)
        got = exc.value
        assert type(got) is type(want) and str(got) == str(want)
        assert type(got.__cause__) is type(want.__cause__)
        assert got.expr == want.expr and repr(got.expr) == repr(want.expr)
        return
    got = fused(p)
    assert _bits(got) == _bits([x for fn in singles for x in fn(p)])
    reference = []
    for e in exprs:
        v, g = _eval(e, p, 2)
        reference += [v] + g
    assert _bits(got) == _bits(reference)


def test_single_expression_kernel_keeps_its_shape():
    e = parse("x0*sin(x1)", 2)
    assert len(compile_dual(e, 2)((0.5, 0.25))) == 3
    assert compile_dual((e,), 2)((0.5, 0.25)) == compile_dual(e, 2)((0.5, 0.25))


def test_fused_kernel_keeps_signed_zero_literals_apart():
    # Num(0.0) == Num(-0.0) as dataclasses; they must not share code
    exprs = (Mul(Num(0.0), Coord(0)), Mul(Num(-0.0), Coord(0)))
    value_pos, _, value_neg, _ = compile_dual(exprs, 1)([2.0])
    assert math.copysign(1.0, value_pos) == 1.0
    assert math.copysign(1.0, value_neg) == -1.0


def test_compiled_negative_literal_base():
    e = Pow(Num(-2.0), 2)
    assert compile_dual(e, 1)([0.5]) == (4.0, _eval(e, [0.5], 1)[1][0])


def _signed_expr_strategy(dim):
    """Trees whose number literals may be negative (-0.0 included), with
    some negative literals raised to a power."""
    literal = st.one_of(
        st.floats(min_value=-3.0, max_value=3.0).map(lambda v: Num(round(v, 3))),
        st.just(Num(-0.0)),
    )
    leaf = st.one_of(literal, st.integers(0, dim - 1).map(Coord))

    def extend(children):
        binary = st.tuples(children, children)
        return st.one_of(
            binary.map(lambda t: Add(*t)),
            binary.map(lambda t: Sub(*t)),
            binary.map(lambda t: Mul(*t)),
            children.map(Neg),
            st.tuples(st.one_of(children, literal), st.integers(-3, 3)).map(
                lambda t: Pow(*t)),
        )

    return st.recursive(leaf, extend, max_leaves=8)


def _dataclass_repr(e):
    """The repr ``dataclass`` generates, built from the fields."""
    if not dataclasses.is_dataclass(e):
        return repr(e)
    return f"{type(e).__qualname__}(" + ", ".join(
        f"{f.name}={_dataclass_repr(getattr(e, f.name))}" for f in dataclasses.fields(e)) + ")"


@settings(max_examples=200, deadline=None)
@given(st.one_of(_expr_strategy(3), _signed_expr_strategy(3)))
@example(Num(-0.0))
@example(Pow(Neg(Num(-0.0)), -3))
@example(Call("exp", Div(Coord(2), Num(1e-300))))
def test_node_reprs_are_the_dataclass_strings(e):
    # the kernel cache keys on the reprs
    assert repr(e) == _dataclass_repr(e)


def _eval_or_error(e, p):
    try:
        return _eval(e, p, len(p))
    except DomainError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(_signed_expr_strategy(2), st.integers(0, 10_000))
def test_text_round_trip_keeps_value_with_negative_literals(e, seed):
    p = np.random.default_rng(seed).uniform(-1.0, 1.0, size=2)
    want = _eval_or_error(e, p)
    if isinstance(want, tuple) and not np.all(np.isfinite([want[0]] + want[1])):
        return
    assert _eval_or_error(parse(to_text(e), 2), p) == want


def test_negative_power_base_is_parenthesized():
    assert to_text(Pow(Num(-1.5), 2)) == "(-1.5)^2"
    assert to_text(Pow(Num(-0.0), 3)) == "(-0.0)^3"
    assert _eval(parse(to_text(Pow(Num(-1.5), 2)), 1), [0.0], 1)[0] == 2.25
    # a negative literal elsewhere prints as before
    assert to_text(Mul(Coord(0), Num(-1.5))) == "x0*-1.5"


@pytest.mark.parametrize("text, offset", [("1e999*0 + 1", 0), ("x0 - 2e400", 5)])
def test_parse_rejects_non_finite_literal(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text, 1)
    assert exc.value.offset == offset


def test_shift_coords():
    e = parse("sin(x0) + x1^2", 2)
    shifted = shift_coords(e, 2)
    assert shifted == parse("sin(x2) + x3^2", 4)


def test_gradient_matches_fd_ten_thousand_samples():
    # every builtin appears; 10^4 (expr, point) samples in total
    exprs = [
        "exp(0.3*x0) + x1",
        "log(2 + x0^2 + x1^2)",
        "sin(x0*x1)",
        "cos(x0 - 2*x1)",
        "sqrt(4 + x0*x1)",
        "1/(3 + x0 + x1^2)",
        "x0^3 - 2*x0*x1 + x1^2",
        "-(x0 + 0.5)^2/(2 + sin(x1))",
        "exp(sin(x0))*cos(x1)",
        "sqrt(1 + x0^2)*log(3 + x1)",
    ]
    rng = np.random.default_rng(20240)
    for text in exprs:
        e = parse(text, 2)
        for _ in range(1000):
            p = rng.uniform(-1.0, 1.0, size=2)
            d = eval_dual(e, p)
            for k in range(2):
                h = 1e-6 * (1.0 + abs(p[k]))
                pp, pm = p.copy(), p.copy()
                pp[k] += h
                pm[k] -= h
                fd = (eval_dual(e, pp).value - eval_dual(e, pm).value) / (2 * h)
                assert abs(fd - d.gradient[k]) <= 1e-6 * max(1.0, abs(d.gradient[k]))


# ---------------------------------------------------------------------------
# symbolic derivatives


def _to_sympy(e, xs):
    import sympy as sp

    if isinstance(e, Num):
        return sp.Rational(e.value)
    if isinstance(e, Coord):
        return xs[e.index]
    if isinstance(e, (Add, Sub, Mul, Div)):
        a, b = _to_sympy(e.lhs, xs), _to_sympy(e.rhs, xs)
        if isinstance(e, Add):
            return a + b
        if isinstance(e, Sub):
            return a - b
        return a * b if isinstance(e, Mul) else a / b
    if isinstance(e, Neg):
        return -_to_sympy(e.operand, xs)
    if isinstance(e, Pow):
        return _to_sympy(e.base, xs) ** e.exponent
    return getattr(sp, e.fn)(_to_sympy(e.arg, xs))


def _sympy_value(expr, xs, p):
    return float(expr.evalf(40, subs={x: v for x, v in zip(xs, p)}))


@settings(max_examples=100, deadline=None)
@given(_expr_strategy(2), st.integers(0, 10_000))
def test_diff_matches_the_dual_gradient_and_sympy(e, seed):
    # the derivative tree evaluates to the dual gradient's bits (same
    # operations; dropped terms are exact zeros), and its own gradient is
    # sympy's second derivative
    import sympy as sp

    xs = sp.symbols("x0 x1")
    p = np.random.default_rng(seed).uniform(-1.0, 1.0, size=2)
    grad = eval_dual(e, p).gradient
    if not np.all(np.isfinite(grad)) or np.max(np.abs(grad)) > 1e6:
        return
    for k in range(2):
        d = diff(e, k)
        dual = eval_dual(d, p)
        assert dual.value == grad[k]
        assert compile_dual(d, 2)(p.tolist())[0] == grad[k]
        first = sp.diff(_to_sympy(e, xs), xs[k])
        want = _sympy_value(first, xs, p)
        assert abs(dual.value - want) <= 1e-9 * (1.0 + abs(want))
        for j in range(2):
            want = _sympy_value(sp.diff(first, xs[j]), xs, p)
            assert abs(dual.gradient[j] - want) <= 1e-9 * (1.0 + abs(want))


@pytest.mark.parametrize("text", [
    "log(2 + x0^2 + x1^2)",
    "sqrt(4 + x0*x1)",
    "1/(3 + x0 + x1^2)",
    "-(x0 + 0.5)^2/(2 + sin(x1))",
    "sqrt(1 + x0^2)*log(3 + x1)",
    "x0^-2*x1^-1 - 3",
])
def test_diff_of_quotients_logs_and_roots(text):
    import sympy as sp

    xs = sp.symbols("x0 x1")
    e = parse(text, 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.uniform(0.5, 1.0, size=2)
        grad = eval_dual(e, p).gradient
        for k in range(2):
            got = eval_dual(diff(e, k), p).value
            want = _sympy_value(sp.diff(_to_sympy(e, xs), xs[k]), xs, p)
            assert abs(got - want) <= 1e-14 * (1.0 + abs(want))
            assert abs(got - grad[k]) <= 1e-14 * (1.0 + abs(grad[k]))


def test_diff_drops_zero_terms_and_keeps_the_errors_of_e():
    assert diff(parse("3*x1 + 2", 2), 0) == Num(0.0)
    assert diff(parse("x0*x1", 2), 0) == Coord(1)
    assert diff(parse("exp(x1)", 2), 0) == Num(0.0)
    # a quotient's derivative divides by the same denominator
    with pytest.raises(DomainError):
        eval_dual(diff(parse("x1/x0", 2), 1), (0.0, 1.0))
    with pytest.raises(DomainError):
        eval_dual(diff(parse("x0^-2", 1), 0), (0.0,))
