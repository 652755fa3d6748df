"""Normal-form generator for geodesically equivalent pairs.

Builds expression-backed metric pairs in adapted coordinates from a list
of eigenvalue blocks: simple real eigenvalues (each a function of its own
single coordinate) and constant multiple eigenvalues with their own block
metrics.  With weights

    P_i  = +- prod_{j != i} (lam_i - lam_j)^{k_j}
    rho_i = +- 1 / (lam_i * prod_alpha lam_alpha^{k_alpha})

the pair is

    ds_g^2    = sum_i P_i * (block_i),
    ds_gbar^2 = sum_i P_i rho_i * (block_i).

The per-block sign of P_i is normalized to the requested block signature
at the base point; the signs of the rho weights are fixed relative to the
P signs by the gluing identity (they are not free), up to one global sign
of the second metric which is normalized to make its first block weight
match the first block's signature sign at the base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import exprdsl
from ..errors import (
    DegenerateMetric,
    EigenvalueCollision,
    NonPositiveWeight,
)
from ..exprdsl import Div, Mul, Neg, Num, Pow, Sub
from ..fields import Chart, MetricField, nondegenerate, sample_points


def _interval(iv, what: str) -> tuple:
    """``iv`` as a (lo, hi) pair of finite floats with lo < hi."""
    lo, hi = (float(x) for x in iv)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"{what} must be finite with lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _inside(x, interval, what: str) -> float:
    """``x`` as a float inside the closed interval (NaN never is)."""
    x = float(x)
    lo, hi = interval
    if not lo <= x <= hi:
        raise ValueError(f"{what} {x} outside [{lo}, {hi}]")
    return x


@dataclass(frozen=True)
class SimpleEigenvalue:
    """Nonconstant eigenvalue living on its own single coordinate.

    ``expr`` is written in the local coordinate x0; ``interval`` is the
    coordinate range; ``sign`` is the block's signature sign in g.
    """

    expr: object
    interval: tuple
    base: float | None = None
    sign: int = 1

    def __post_init__(self):
        e = self.expr
        if isinstance(e, str):
            object.__setattr__(self, "expr", exprdsl.parse(e, 1))
        interval = _interval(self.interval, "interval")
        object.__setattr__(self, "interval", interval)
        if self.base is not None:
            object.__setattr__(self, "base", _inside(self.base, interval, "base"))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class MultiBlock:
    """Constant eigenvalue of multiplicity >= 2 with its own block metric.

    ``metric`` entries are written in the local coordinates
    x0..x{dim-1}; only the upper triangle is read.
    """

    value: float
    dim: int
    metric: tuple
    intervals: tuple
    base: tuple | None = None
    sign: int = 1

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("multiple blocks need dimension >= 2")
        if not math.isfinite(self.value):
            raise ValueError(f"block eigenvalue must be finite, got {self.value}")
        rows = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                e = self.metric[i][j] if j >= i else self.metric[j][i]
                row.append(exprdsl.parse(e, self.dim) if isinstance(e, str) else e)
            rows.append(tuple(row))
        object.__setattr__(self, "metric", tuple(rows))
        object.__setattr__(
            self, "intervals", tuple(_interval(iv, "interval") for iv in self.intervals)
        )
        if len(self.intervals) != self.dim:
            raise ValueError("need one coordinate interval per block dimension")
        if self.base is not None:
            if len(self.base) != self.dim:
                raise ValueError("need one base coordinate per block dimension")
            object.__setattr__(self, "base", tuple(
                _inside(x, iv, "base") for x, iv in zip(self.base, self.intervals)
            ))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class LeviCivitaSpec:
    simple: tuple
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "simple", tuple(self.simple))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.simple and not self.blocks:
            raise ValueError("spec needs at least one eigenvalue block")

    @property
    def dim(self) -> int:
        return len(self.simple) + sum(b.dim for b in self.blocks)

    @classmethod
    def from_dict(cls, data: dict) -> "LeviCivitaSpec":
        simple = tuple(
            SimpleEigenvalue(
                expr=s["lambda"],
                interval=tuple(s["interval"]),
                base=s.get("base"),
                sign=int(s.get("sign", 1)),
            )
            for s in data.get("simple", ())
        )
        blocks = tuple(
            MultiBlock(
                value=float(b["lambda"]),
                dim=int(b["dim"]),
                metric=tuple(tuple(row) for row in b["metric"]),
                intervals=tuple(tuple(iv) for iv in b["intervals"]),
                base=tuple(b["base"]) if b.get("base") is not None else None,
                sign=int(b.get("sign", 1)),
            )
            for b in data.get("blocks", ())
        )
        return cls(simple, blocks)


def _product(exprs):
    out = None
    for e in exprs:
        out = e if out is None else Mul(out, e)
    return Num(1.0) if out is None else out


def _signed(expr, sign):
    return expr if sign > 0 else Neg(expr)


def levi_civita_pair(spec: LeviCivitaSpec, collision_tol: float = 1e-6,
                     samples: int = 40, seed: int = 42):
    """Expression-backed compatible pair from a normal-form spec.

    Returns ``(g, gbar)`` on the assembled chart.  Raises
    EigenvalueCollision when eigenvalue functions collide (or vanish)
    somewhere on the sampled box, NonPositiveWeight when a weight cannot
    keep a constant sign, and DegenerateMetric for singular block metrics.
    """
    n = spec.dim
    # chart assembly: simple coordinates first, then the blocks
    box, base = [], []
    lam_exprs, mults, signs, offsets = [], [], [], []
    offset = 0
    for s in spec.simple:
        lo, hi = float(s.interval[0]), float(s.interval[1])
        box.append((lo, hi))
        base.append(0.5 * (lo + hi) if s.base is None else float(s.base))
        lam_exprs.append(exprdsl.shift_coords(s.expr, offset))
        mults.append(1)
        signs.append(s.sign)
        offsets.append(offset)
        offset += 1
    for b in spec.blocks:
        for k, (lo, hi) in enumerate(b.intervals):
            box.append((lo, hi))
            if b.base is None:
                base.append(0.5 * (lo + hi))
            else:
                base.append(float(b.base[k]))
        lam_exprs.append(Num(float(b.value)))
        mults.append(b.dim)
        signs.append(b.sign)
        offsets.append(offset)
        offset += b.dim
    chart = Chart(n, tuple(box), tuple(base))
    m = len(lam_exprs)

    def lam_values(p):
        return np.array([exprdsl.eval_dual(e, p).value for e in lam_exprs])

    pts = np.vstack([sample_points(chart, samples, seed), [chart.base_point]])
    lam_scale = 1.0 + max(np.max(np.abs(lam_values(p))) for p in pts)
    for p in pts:
        vals = lam_values(p)
        for i in range(m):
            if abs(vals[i]) <= collision_tol * lam_scale:
                raise NonPositiveWeight(
                    f"eigenvalue {i} vanishes near {p}; the second metric "
                    "would be degenerate",
                    point=p,
                )
            for j in range(i + 1, m):
                if abs(vals[i] - vals[j]) <= collision_tol * lam_scale:
                    raise EigenvalueCollision(
                        f"eigenvalues {i} and {j} collide near {p}", point=p
                    )

    # raw weights, then sign normalization at the base point
    raw_p = []
    for i in range(m):
        terms = []
        for j in range(m):
            if j == i:
                continue
            diff = Sub(lam_exprs[i], lam_exprs[j])
            terms.append(diff if mults[j] == 1 else Pow(diff, mults[j]))
        raw_p.append(_product(terms))
    denom_all = _product(
        [lam if mult == 1 else Pow(lam, mult) for lam, mult in zip(lam_exprs, mults)]
    )

    base_arr = np.asarray(chart.base_point)
    lam0 = lam_values(base_arr)
    rawp0 = np.array([exprdsl.eval_dual(e, base_arr).value for e in raw_p])
    s = [signs[i] * (1.0 if rawp0[i] > 0 else -1.0) for i in range(m)]
    # the rho weights inherit the P signs (the pair tensor of the result
    # is then the direct sum of the lambda_i blocks), up to one global
    # flip of the second metric, normalized so its first block matches the
    # first block's signature sign at the base point
    denom0 = float(np.prod([lam0[i] ** mults[i] for i in range(m)]))
    first_rho = s[0] * rawp0[0] / (lam0[0] * denom0)
    sigma = signs[0] * (1.0 if first_rho > 0 else -1.0)

    g_weights, gbar_weights = [], []
    for i in range(m):
        g_weights.append(_signed(raw_p[i], s[i]))
        sgn = s[i] * sigma
        gbar_weights.append(
            Div(_signed(raw_p[i], sgn), Mul(lam_exprs[i], denom_all))
        )

    zero = Num(0.0)
    g_rows = [[zero] * n for _ in range(n)]
    gb_rows = [[zero] * n for _ in range(n)]
    for i, sblk in enumerate(spec.simple):
        c = offsets[i]
        g_rows[c][c] = g_weights[i]
        gb_rows[c][c] = gbar_weights[i]
    for bi, blk in enumerate(spec.blocks):
        i = len(spec.simple) + bi
        c = offsets[i]
        for a in range(blk.dim):
            for b_ in range(a, blk.dim):
                entry = exprdsl.shift_coords(blk.metric[a][b_], c)
                g_rows[c + a][c + b_] = Mul(g_weights[i], entry)
                gb_rows[c + a][c + b_] = Mul(gbar_weights[i], entry)

    g = MetricField.from_exprs(chart, g_rows)
    gbar = MetricField.from_exprs(chart, gb_rows)

    for p in pts:
        for name, fld in (("g", g), ("gbar", gbar)):
            if not nondegenerate(fld.value(p)):
                raise DegenerateMetric(f"{name} degenerate at {p}", point=p)
        gw = np.array([exprdsl.eval_dual(w, p).value for w in g_weights])
        if np.any(np.sign(gw) != np.array(signs, dtype=float)):
            raise NonPositiveWeight(
                f"a block weight changed sign inside the box near {p}", point=p
            )
    return g, gbar
