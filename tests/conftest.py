"""Shared corpus of compatible pairs and negative controls, a metric
pair that degenerates at two rows of a stack, the Hermite
indicator the spectral projectors are tested against, closure-backed
fixture fields, the central-difference stencil that exact jacobians are
compared with, the reference interpreter that compiled expression
kernels are compared with, and the reference tokenizer that the parser's
one-scan tokenizer is compared with."""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from geoequiv.equiv import (
    LeviCivitaSpec,
    MultiBlock,
    SimpleEigenvalue,
    levi_civita_pair,
)
from geoequiv.errors import DomainError, ExprSyntaxError, UnknownSymbol
from geoequiv.exprdsl import Add, Call, Coord, Div, Mul, Neg, Num, Pow, Sub
from geoequiv.fields import Chart, MetricField
from geoequiv.smallmat import ScalarFunction


def _iv(half=0.4):
    return (-half, half)


CORPUS_SPECS = {
    # n = 2
    "lc2_sin": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*sin(x0)", _iv(0.5)),
            SimpleEigenvalue("2", _iv(0.5)),
        ),
        blocks=(),
    ),
    "lc2_exp": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("exp(0.2*x0)", _iv()),
            SimpleEigenvalue("-1", _iv()),
        ),
        blocks=(),
    ),
    "lc2_lin": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*x0", _iv()),
            SimpleEigenvalue("3 + 0.05*x0", _iv()),
        ),
        blocks=(),
    ),
    "lc2_weyl": LeviCivitaSpec(
        simple=(),
        blocks=(
            MultiBlock(
                3.0,
                2,
                (("1", "0.2*x1"), (None, "1.5 + 0.1*x0^2")),
                (_iv(), _iv()),
            ),
        ),
    ),
    "lc2_wide": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("2 + 0.3*sin(x0)", _iv()),
            SimpleEigenvalue("4 + 0.2*x0", _iv()),
        ),
        blocks=(),
    ),
    # n = 3
    "lc3_simple": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*sin(x0)", _iv()),
            SimpleEigenvalue("2 + 0.1*x0", _iv()),
            SimpleEigenvalue("3.5", _iv()),
        ),
        blocks=(),
    ),
    "lc3_mixed": LeviCivitaSpec(
        simple=(SimpleEigenvalue("1 + 0.1*sin(x0)", _iv()),),
        blocks=(
            MultiBlock(
                4.0,
                2,
                (("1", "0.2*x1"), (None, "1.5 + 0.1*x0^2")),
                (_iv(), _iv()),
            ),
        ),
    ),
    "lc3_sig": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("-1 - 0.1*x0", _iv(), sign=-1),
            SimpleEigenvalue("2 + 0.2*cos(x0)", _iv()),
            SimpleEigenvalue("5", _iv()),
        ),
        blocks=(),
    ),
    # n = 4
    "lc4_simple": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*x0", _iv(0.3)),
            SimpleEigenvalue("2 + 0.1*sin(x0)", _iv(0.3)),
            SimpleEigenvalue("3.3 + 0.1*cos(x0)", _iv(0.3)),
            SimpleEigenvalue("5", _iv(0.3)),
        ),
        blocks=(),
    ),
    "lc4_mixed": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*x0", _iv(0.3)),
            SimpleEigenvalue("2 + 0.1*sin(x0)", _iv(0.3)),
        ),
        blocks=(
            MultiBlock(
                5.0,
                2,
                (("1", "0.1*x0*x1"), (None, "1.2")),
                (_iv(0.3), _iv(0.3)),
            ),
        ),
    ),
    "lc4_two_blocks": LeviCivitaSpec(
        simple=(),
        blocks=(
            MultiBlock(
                2.0,
                2,
                (("1", "0.1*x1"), (None, "1.3 + 0.1*x0^2")),
                (_iv(0.3), _iv(0.3)),
            ),
            MultiBlock(
                5.0,
                2,
                (("1.1", "0"), (None, "0.9 + 0.05*x1^2")),
                (_iv(0.3), _iv(0.3)),
            ),
        ),
    ),
    "lc4_block3": LeviCivitaSpec(
        simple=(SimpleEigenvalue("1 + 0.1*x0", _iv(0.3)),),
        blocks=(
            MultiBlock(
                3.0,
                3,
                (
                    ("1", "0", "0.1*x2"),
                    (None, "1 + 0.2*x0^2", "0"),
                    (None, None, "2"),
                ),
                (_iv(0.3), _iv(0.3), _iv(0.3)),
            ),
        ),
    ),
}

# names of corpus entries whose pair tensor has at least two distinct
# eigenvalue groups (splittable)
SPLITTABLE = [
    name for name, spec in CORPUS_SPECS.items()
    if len(spec.simple) + len(spec.blocks) >= 2
]


def hermite_indicator(group1, group2):
    """Scalar function equal to 1 within a quarter of the gap of the
    eigenvalues ``group1`` and 0 within that distance of ``group2``, with
    every derivative zero; through ``matrix_function`` it gives the
    spectral projector onto the invariant subspace of ``group1``."""
    g1 = [complex(z) for z in group1]
    g2 = [complex(z) for z in group2]
    radius = 0.25 * min(abs(z - w) for z in g1 for w in g2)

    def dist(z, grp):
        return min(abs(z - w) for w in grp)

    return ScalarFunction(
        "indicator",
        lambda z: 1.0 + 0.0j if dist(z, g1) < dist(z, g2) else 0.0 + 0.0j,
        lambda z, k: 0.0 + 0.0j,
        lambda z: min(dist(z, g1), dist(z, g2)) <= radius,
    )


def central_difference(fn, p, step=6e-6):
    """Central differences of fn at p; out[k] = d fn / d x_k, with step
    ``step * (1 + |x_k|)`` per coordinate."""
    p = np.asarray(p, dtype=float)
    out = []
    for k in range(len(p)):
        h = step * (1.0 + abs(p[k]))
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        out.append((fn(pp) - fn(pm)) / (2.0 * h))
    return np.array(out)


def constant_metric(chart, m):
    """The constant metric with matrix ``m`` (its upper triangle)."""
    return MetricField.from_exprs(
        chart, [[Num(float(x)) for x in row] for row in np.asarray(m)])


def scaled(field, factor):
    """``factor`` times ``field``, with the exact jacobian."""
    def jac(rows, derivative):
        if not derivative:
            return factor * field.value(rows)
        vals, derivs = field.value_and_derivative(rows)
        return factor * vals, factor * derivs

    return type(field).from_function(field.chart, jac=jac)


def degenerate_stack():
    """g = diag(x0, 1) and gbar = diag(1 + x1, 1) on 7 rows: gbar
    degenerates at row 2, g at row 5."""
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (0.5, 0.5))
    g = MetricField.from_exprs(chart, [["x0", "0"], [None, "1"]])
    gbar = MetricField.from_exprs(chart, [["1 + x1", "0"], [None, "1"]])
    rows = np.array([[0.5, 0.2], [0.3, 0.1], [0.4, -1.0], [0.2, 0.3], [0.6, 0.1],
                     [0.0, 0.1], [0.1, 0.1]])
    return g, gbar, rows


def build_pair(name):
    return levi_civita_pair(CORPUS_SPECS[name])


def negative_pairs():
    """Deliberately non-equivalent pairs for margin checks."""
    out = {}
    c2 = Chart(2, ((-0.4, 0.4), (-0.4, 0.4)), (0.0, 0.0))
    out["neg2_exp"] = (
        MetricField.from_exprs(c2, [["1", "0"], ["0", "1"]]),
        MetricField.from_exprs(c2, [["exp(x0)", "0"], ["0", "1"]]),
    )
    out["neg2_swap"] = (
        MetricField.from_exprs(c2, [["1", "0"], ["0", "1 + 0.5*x0^2"]]),
        MetricField.from_exprs(c2, [["1 + 0.5*x1^2", "0"], ["0", "1"]]),
    )
    c3 = Chart(3, ((-0.4, 0.4),) * 3, (0.0, 0.0, 0.0))
    out["neg3_bump"] = (
        MetricField.from_exprs(
            c3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        ),
        MetricField.from_exprs(
            c3,
            [
                ["1 + x0^2", "0", "0"],
                ["0", "1", "0"],
                ["0", "0", "1 + 0.3*x1^2"],
            ],
        ),
    )
    return out


@pytest.fixture(scope="session")
def corpus():
    """name -> (g, gbar) for every corpus spec."""
    return {name: build_pair(name) for name in CORPUS_SPECS}


@pytest.fixture(scope="session")
def negatives():
    return negative_pairs()


# ---------------------------------------------------------------------------
# reference interpreter: a tree walk with forward-mode duals, which the
# compiled kernels of ``exprdsl.compile_dual`` are tested against


@dataclass(frozen=True)
class DualScalar:
    """Value of an expression together with its coordinate gradient."""

    value: float
    gradient: np.ndarray


def _eval(e, p, n: int):
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


def eval_dual(e, p) -> DualScalar:
    """Evaluate with forward-mode duals: exact value and gradient at p."""
    p = np.asarray(p, dtype=float)
    v, g = _eval(e, p, len(p))
    return DualScalar(v, np.array(g))


# ---------------------------------------------------------------------------
# reference tokenizer: a match per token from the current offset, and an
# error at the first character that starts none


_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def reference_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
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
