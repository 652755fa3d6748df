"""Chart-based tensor fields with derivative access.

Fields are backed either by closed-form expressions (exact forward-mode
derivatives) or by one derived closure.  A derived field has a batch
closure ``jac(rows, derivative)`` built from exact matrix calculus, which
returns the values and, when asked, their derivatives (the pair tensor,
the glued pair, the split pair, the spectral projectors, the iterated
decomposition's factor pairs, the operator-function rescaling, the
projective deformation, coordinate leaves).  Nothing is differentiated
numerically.

An expression-backed field evaluates through one compiled kernel
(``exprdsl.compile_dual`` over its distinct components, cached per
process in ``_compile_cache``): one call gives every value and first
derivative.  Expression-backed metrics mirror their upper triangle, so
they are symmetric to the bit and are not re-symmetrized.

A construction that maps a pair to a pair (split, glue, operator-function
rescaling, iterated decomposition) builds both metrics (split its k
projectors too, and ``projectors`` the projectors alone) with
``stacked_fields`` from one closure returning them stacked: the shared
work runs once per point, and one backing holds what every field reads.  ``restrict`` gives a field on a
coordinate leaf (the other coordinates frozen) whose value and jacobian
are slices of the whole field's.

Batch axis: a field's ``value``/``value_and_derivative`` and the operators
``christoffel``, ``covariant_derivative_op`` and ``nijenhuis`` take a point
of shape (n,) or a batch of points of shape (m, n); a batch puts a leading
axis of length m on every output, and a single point is a batch of 1.  An
expression-backed field still calls its scalar compiled kernel once per
row (numpy's vectorized exp and ``**`` differ from the scalar ones in the
last bit), on the row's Python floats: the kernel then runs the
interpreter's arithmetic at about a third of the cost of numpy scalars,
and an overflowing ``**`` raises as it does there.  A ``jac`` closure
gets the whole batch as one (m, n) array and returns values (m, ...) and
jacobians (m, n, ...).  Every backing keeps one batch, its last: its
rows, values and derivatives (when they were asked for).  Values at those
rows are read from it, and so are derivatives if it holds them; nothing
is kept per point.  Stacked ``det``, ``inv``, ``solve``, ``@`` and the
einsum contractions give each row the same bits as a batch of 1; norms,
matrix-vector products and the trace contractions do not always, so
those stay per row.  ``nondegenerate`` runs per row.  ``in_point_order``
turns an error raised by a batch into the one a per-point loop meets
first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exprdsl
from .errors import DegenerateMetric, DimensionCap, DomainError
from .smallmat import DIM_CAP

DEG_TOL = 1e-10
PROBE_SEED = 42


def nondegenerate(m, det=None, tol: float = DEG_TOL) -> bool:
    """Scale-relative nondegeneracy test, the only one in the package.

    Passes when |det M| exceeds ``tol`` times the product of M's row
    norms (Hadamard's bound on |det M|) and every row norm exceeds
    ``tol``: a row that small counts as a zero row.  ``det`` may be
    passed when the caller has it already.
    """
    m = np.asarray(m, dtype=float)
    if det is None:
        det = np.linalg.det(m)
    rows = [math.hypot(*row) for row in m.tolist()]
    return bool(min(rows) > tol and abs(det) > tol * math.prod(rows))


# ---------------------------------------------------------------------------
# charts and deterministic sampling


@dataclass(frozen=True)
class Chart:
    """Coordinate box with a distinguished base point."""

    dim: int
    box: tuple
    base_point: tuple

    def __post_init__(self):
        if self.dim < 1 or self.dim > DIM_CAP:
            raise DimensionCap(f"chart dimension {self.dim} outside 1..{DIM_CAP}")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        base = tuple(float(x) for x in self.base_point)
        if len(box) != self.dim or len(base) != self.dim:
            raise ValueError("box and base point must match the chart dimension")
        for k, (lo, hi) in enumerate(box):
            if not lo < hi:
                raise ValueError(f"box interval {k} must have lo < hi")
            if not lo <= base[k] <= hi:
                raise ValueError(f"base point coordinate {k} outside the box")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "base_point", base)

    def contains(self, p, margin: float = 0.0) -> bool:
        return self.contains_rows([np.asarray(p, dtype=float)], [margin])[0]

    def contains_rows(self, rows, margins=None) -> list:
        """Whether each row of points lies in the box widened by its own
        entry of ``margins`` (0 when omitted); a NaN coordinate lies
        outside."""
        inside = []
        for row, margin in zip(rows, itertools.repeat(0.0) if margins is None else margins):
            for (lo, hi), x in zip(self.box, row):
                if not lo - margin <= x <= hi + margin:
                    inside.append(False)
                    break
            else:
                inside.append(True)
        return inside

    def product(self, other: "Chart") -> "Chart":
        return Chart(
            self.dim + other.dim,
            self.box + other.box,
            self.base_point + other.base_point,
        )


class SplitMix64:
    """splitmix64 stream; reproducible across platforms."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return self.next_u64() / 2.0**64

    def normal_pair(self):
        # Box-Muller; u1 shifted away from 0
        u1 = (self.next_u64() + 1) / (2.0**64 + 1)
        u2 = self.uniform()
        r = np.sqrt(-2.0 * np.log(u1))
        return r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)


def sample_points(chart: Chart, count: int, seed: int = 42) -> np.ndarray:
    """Deterministic uniform samples in the chart box (splitmix64)."""
    rng = SplitMix64(seed)
    pts = np.empty((count, chart.dim))
    for i in range(count):
        for k, (lo, hi) in enumerate(chart.box):
            pts[i, k] = lo + (hi - lo) * rng.uniform()
    return pts


def probe_points(chart: Chart, count: int, seed: int = PROBE_SEED) -> np.ndarray:
    """The eager-validation probe set of a construction: ``count`` samples
    of ``sample_points`` followed by the chart base point."""
    return np.vstack([sample_points(chart, count, seed), [chart.base_point]])


# ---------------------------------------------------------------------------
# batches of points


def as_batch(p):
    """``(rows, single)``: the point or points ``p`` as an (m, n) float
    array, and whether ``p`` was a single point of shape (n,), for which
    callers return row 0 of their batch result."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        return p[None], True
    return p, False


def in_point_order(fn, rows):
    """``fn(rows)`` for an (m, n) batch.  If it raises, ``fn`` runs again on
    one row at a time, in order, so the exception that propagates (type,
    message and point) is the first one a per-point loop meets; any
    exception is replayed, since a batch evaluates each stage for every row
    before the next stage of the first."""
    try:
        return fn(rows)
    except Exception:
        for i in range(len(rows)):
            fn(rows[i:i + 1])
        raise


# ---------------------------------------------------------------------------
# field backings


_compile_cache: dict = {}


def _compiled(e, dim):
    """Compiled dual kernel of an expression, or of a field's distinct
    components given as ``{repr: expr}`` in order, made once per process.
    Keyed on repr, not on ==: dataclass equality has Num(0.0) ==
    Num(-0.0), and the two must not share code."""
    exprs = e if isinstance(e, dict) else {repr(e): e}
    key = (tuple(exprs), dim)
    if key not in _compile_cache:
        _compile_cache[key] = exprdsl.compile_dual(tuple(exprs.values()), dim)
    return _compile_cache[key]


class _Backing:
    """Shared machinery: value/derivative for a matrix- or vector-valued
    function of the chart point, at one point or a batch of them.

    Expression-backed components are evaluated by one compiled kernel over
    the distinct components (equal reprs share a slot, so a mirrored
    entry is computed once); ``_gather`` spreads its output over every
    entry.  A function-backed field has one closure, ``jac(rows,
    derivative)``.  Every backing keeps its last batch only.
    """

    # read by perfbench/tracer.py, which wraps a backing's ``_fn`` closure
    # when it is set; no backing sets it
    _fn = None

    def __init__(self, chart, shape, exprs=None, jac=None):
        if (exprs is None) == (jac is None):
            raise ValueError("a backing takes one of exprs and jac")
        self.chart = chart
        self.shape = shape
        self._jac = jac
        self._exprs = exprs
        self._kept = (None, None, None)  # rows key, values, derivatives
        if exprs is not None:
            keys, distinct = [], {}
            for row in exprs:
                for e in row if isinstance(row, tuple) else (row,):
                    key = repr(e)
                    distinct.setdefault(key, e)
                    keys.append(key)
            self._kernel = _compiled(distinct, chart.dim)
            self._components = tuple(distinct.values())
            slots = {key: i for i, key in enumerate(distinct)}
            width = chart.dim + 1
            self._width = len(distinct) * width  # kernel outputs per point
            self._gather = np.array(
                [[slots[key] * width + k for key in keys] for k in range(width)]
            )

    def _batch(self, rows: np.ndarray, derivative: bool):
        """``(values, derivatives)`` at the (m, n) batch ``rows``, with
        derivatives None unless asked for or already at hand.  The last
        batch is kept until another comes, and serves any request at the
        same rows that it holds enough for: the layers of one batch of
        checks (Christoffel, the pair tensor's jacobian, the residual,
        self-adjointness) ask for the same field at the same points, and
        keeping one batch bounds memory however many batches run."""
        key = rows.tobytes()
        kept_key, vals, derivs = self._kept
        if key == kept_key and (derivs is not None or not derivative):
            return vals, derivs
        m = len(rows)
        if self._exprs is not None:
            # the kernel gives every derivative with the values
            table = self._kernel_rows(rows).take(self._gather, 1)
            vals = table[:, 0].reshape((m,) + self.shape)
            derivs = table[:, 1:].reshape((m, self.chart.dim) + self.shape)
        else:
            out = self._jac(rows, derivative)
            vals, derivs = out if derivative else (out, None)
        self._kept = (key, vals, derivs)
        return vals, derivs

    def _kernel_rows(self, rows: np.ndarray) -> np.ndarray:
        """The kernel's outputs, one line per row; the kernel runs once per
        row, in order, on the row's Python floats.  ``take(self._gather,
        1)`` gives per row: line 0, the component values; line 1 + k, their
        derivatives along x_k.  An arithmetic error of the kernel (an
        overflow, ``sin`` of an infinity) comes out as the ``DomainError``
        of the first component that meets it."""
        outs = itertools.chain.from_iterable(map(self._kernel, rows.tolist()))
        try:
            return np.fromiter(outs, float, len(rows) * self._width).reshape(len(rows), -1)
        except (ArithmeticError, ValueError):
            # the interpreter meets the same error at the same component
            for p in rows:
                for e in self._components:
                    try:
                        exprdsl.eval_dual(e, p)
                    except (ArithmeticError, ValueError) as exc:
                        raise DomainError(
                            f"{type(exc).__name__} ({exc}) evaluating "
                            f"{exprdsl.to_text(e)} at {p}", expr=e) from exc
            raise

    def value(self, p: np.ndarray) -> np.ndarray:
        rows, single = as_batch(p)
        vals = self._batch(rows, False)[0]
        return vals[0] if single else vals

    def value_and_derivative(self, p: np.ndarray):
        rows, single = as_batch(p)
        vals, derivs = self._batch(rows, True)
        return (vals[0], derivs[0]) if single else (vals, derivs)


class _Part:
    """Backing of entry ``i`` along the leading axis of a shared backing's
    (k, n, n) values: value ``[i]``, derivative ``[:, i]``, each behind
    the batch axis when there is one."""

    def __init__(self, backing: _Backing, i: int):
        self._whole = backing
        self._i = i

    def value(self, p: np.ndarray) -> np.ndarray:
        return self._whole.value(p)[..., self._i, :, :]

    def value_and_derivative(self, p: np.ndarray):
        val, deriv = self._whole.value_and_derivative(p)
        return val[..., self._i, :, :], deriv[..., self._i, :, :]


# ---------------------------------------------------------------------------
# fields


class _Field:
    """Field on a chart with first-derivative access through a backing."""

    def __init__(self, chart: Chart, backing: _Backing, exprs_matrix=None):
        self.chart = chart
        self._backing = backing
        self.component_exprs = exprs_matrix  # n x n tuple of Expr, or None

    @classmethod
    def from_function(cls, chart: Chart, jac):
        """Field from one closure: ``jac(rows, derivative)`` takes an (m, n)
        batch and returns the values (m, n, n) and, with ``derivative``,
        the pair of them and their exact derivatives (m, n, n, n)."""
        n = chart.dim
        return cls(chart, _Backing(chart, (n, n), jac=jac))

    def value(self, p) -> np.ndarray:
        return self._backing.value(p)

    def derivative(self, p) -> np.ndarray:
        """d[k, i, j] = derivative of entry (i, j) along x_k."""
        return self.value_and_derivative(p)[1]

    def value_and_derivative(self, p):
        return self._backing.value_and_derivative(p)


class MetricField(_Field):
    """Symmetric-matrix-valued field with first-derivative access."""

    @classmethod
    def from_exprs(cls, chart: Chart, rows) -> "MetricField":
        """Build from an n x n matrix of expressions (strings or trees).

        The upper triangle is the source of truth; entries are mirrored so
        the field is symmetric by construction.
        """
        n = chart.dim
        parsed = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                e = rows[i][j]
                parsed[i][j] = exprdsl.parse(e, n) if isinstance(e, str) else e
                parsed[j][i] = parsed[i][j]
        exprs = tuple(tuple(row) for row in parsed)
        backing = _Backing(chart, (n, n), exprs=exprs)
        return cls(chart, backing, exprs_matrix=exprs)

    # An expression-backed field is mirrored by construction, so its value
    # and derivative are symmetric to the bit and symmetrizing would return
    # the same bits; only function-backed fields are symmetrized.

    def value(self, p) -> np.ndarray:
        v = super().value(p)
        if self.component_exprs is not None:
            return v
        return 0.5 * (v + v.swapaxes(-1, -2))

    def value_and_derivative(self, p):
        v, d = super().value_and_derivative(p)
        if self.component_exprs is not None:
            return v, d
        return (0.5 * (v + v.swapaxes(-1, -2)),
                0.5 * (d + d.swapaxes(-1, -2)))


def stacked_fields(classes, chart: Chart, jac):
    """One field of each class in ``classes`` from one closure that returns
    their (n, n) values stacked, given as for ``from_function``:
    ``jac(rows, derivative)`` with values (m, k, n, n) and derivatives
    (m, n, k, n, n) for k classes.  One backing serves every field, so the
    others cost nothing at rows where one has been evaluated; a metric
    field is symmetrized like ``MetricField.from_function``."""
    n = chart.dim
    whole = _Backing(chart, (len(classes), n, n), jac=jac)
    return tuple(cls(chart, _Part(whole, i)) for i, cls in enumerate(classes))


class OperatorField(_Field):
    """(1,1)-tensor field: matrix-valued function of the chart point;
    derivative d[k, i, j] = d L^i_j / d x_k."""

    @classmethod
    def from_exprs(cls, chart: Chart, rows) -> "OperatorField":
        n = chart.dim
        parsed = tuple(
            tuple(
                exprdsl.parse(e, n) if isinstance(e, str) else e for e in row
            )
            for row in rows
        )
        return cls(chart, _Backing(chart, (n, n), exprs=parsed), exprs_matrix=parsed)

    @classmethod
    def constant(cls, chart: Chart, matrix) -> "OperatorField":
        m = np.array(matrix, dtype=float)
        n = chart.dim

        def jac(rows, derivative):
            vals = np.stack([m] * len(rows))
            return (vals, np.zeros((len(rows), n, n, n))) if derivative else vals

        return cls.from_function(chart, jac=jac)


def restrict(field, coords, point):
    """The field on the coordinate leaf through ``point`` along the
    coordinates ``coords`` (the others frozen at ``point``), as a field of
    the same class on the sub-chart of those coordinates, whose box and
    base point are the chart's.  Its value and jacobian are slices of the
    whole field's, so its derivative is exact wherever the field's is."""
    chart = field.chart
    idx = np.array(coords, dtype=int)
    frozen = np.asarray(point, dtype=float)
    leaf = Chart(len(idx), tuple(chart.box[k] for k in idx),
                 tuple(chart.base_point[k] for k in idx))

    def jac(rows, derivative):
        qs = np.repeat(frozen[None], len(rows), axis=0)
        qs[:, idx] = rows
        if not derivative:
            return field.value(qs)[:, idx[:, None], idx]
        vals, derivs = field.value_and_derivative(qs)
        return (vals[:, idx[:, None], idx],
                derivs[:, idx[:, None, None], idx[:, None], idx])

    return type(field).from_function(leaf, jac=jac)


class VectorField:
    """Vector field given by component expressions."""

    def __init__(self, chart: Chart, exprs):
        n = chart.dim
        self.chart = chart
        self.component_exprs = tuple(
            exprdsl.parse(e, n) if isinstance(e, str) else e for e in exprs
        )
        if len(self.component_exprs) != n:
            raise ValueError("vector field needs one component per coordinate")
        self._backing = _Backing(chart, (n,), exprs=self.component_exprs)

    def value(self, p) -> np.ndarray:
        return self._backing.value(np.asarray(p, dtype=float))

    def derivative(self, p) -> np.ndarray:
        """d[k, i] = d v^i / d x_k."""
        return self._backing.value_and_derivative(np.asarray(p, dtype=float))[1]


# ---------------------------------------------------------------------------
# differential operators


def christoffel(g: MetricField, p) -> np.ndarray:
    """Levi-Civita connection coefficients; out[..., i, j, k] = Gamma^i_{jk}
    at a point or along a batch of points."""
    rows, single = as_batch(p)
    gv, dg = g.value_and_derivative(rows)
    for i, det in enumerate(np.linalg.det(gv).tolist()):
        if not nondegenerate(gv[i], det):
            raise DegenerateMetric(
                f"metric degenerate at {rows[i]} (det {det:.3e})", point=rows[i]
            )
    ginv = np.linalg.inv(gv)
    # Gamma^i_{jk} = 1/2 g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk})
    term = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg
    # einsum, not a BLAS matmul, which would sum in another order
    out = 0.5 * np.einsum("bil,bljk->bijk", ginv, term)
    return out[0] if single else out


def covariant_derivative_op(g: MetricField, L: OperatorField, p) -> np.ndarray:
    """Covariant derivative of a (1,1) field; out[..., i, j, k] =
    (nabla L)^i_{j,k} with k the differentiation index."""
    rows, single = as_batch(p)
    gamma = christoffel(g, rows)
    lv, dl = L.value_and_derivative(rows)
    # (nabla_k L)^i_j = d_k L^i_j + Gamma^i_{ks} L^s_j - Gamma^s_{kj} L^i_s
    out = np.einsum("bkij->bijk", dl)
    out = out + np.einsum("biks,bsj->bijk", gamma, lv)
    out = out - np.einsum("bskj,bis->bijk", gamma, lv)
    return out[0] if single else out


def nijenhuis(L: OperatorField, p) -> np.ndarray:
    """Nijenhuis torsion; out[..., i, j, k] = N^i_{jk}, antisymmetric in
    (j, k)."""
    rows, single = as_batch(p)
    lv, dl = L.value_and_derivative(rows)
    # N^i_{jk} = L^s_j d_s L^i_k - L^s_k d_s L^i_j - L^i_s (d_j L^s_k - d_k L^s_j)
    t1 = np.einsum("bsj,bsik->bijk", lv, dl)
    t2 = np.einsum("bsk,bsij->bijk", lv, dl)
    curl = np.einsum("bjsk->bsjk", dl) - np.einsum("bksj->bsjk", dl)
    t3 = np.einsum("bis,bsjk->bijk", lv, curl)
    out = t1 - t2 - t3
    out = 0.5 * (out - out.swapaxes(-2, -1))
    return out[0] if single else out


def lie_derivative_metric(v: VectorField, g: MetricField) -> MetricField:
    """Lie derivative of the metric along v as an expression-backed metric,

        (L_v g)_ij = v^s d_s g_ij + g_sj d_i v^s + g_is d_j v^s,

    built from the trees of v and of g and their ``exprdsl.diff``
    derivatives, so its jacobian is exact too.  g must be
    expression-backed."""
    if g.component_exprs is None:
        raise ValueError("the Lie derivative needs an expression-backed metric")
    n = g.chart.dim
    ge, ve = g.component_exprs, v.component_exprs
    dv = [[exprdsl.diff(ve[s], i) for s in range(n)] for i in range(n)]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = exprdsl.Num(0.0)
            for s in range(n):
                for term in (exprdsl.mul(ve[s], exprdsl.diff(ge[i][j], s)),
                             exprdsl.mul(ge[s][j], dv[i][s]),
                             exprdsl.mul(ge[i][s], dv[j][s])):
                    entry = exprdsl.add(entry, term)
            rows[i][j] = entry
    return MetricField.from_exprs(g.chart, rows)
