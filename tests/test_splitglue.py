"""Splitting, gluing, block conditions and the iterated decomposition."""

import numpy as np
import pytest

from geoequiv.equiv import (
    GlueInput,
    splitglue,
    admissible_factorization,
    block_condition_residuals,
    compatibility_residual,
    full_decompose,
    glue,
    glue_fields,
    l_tensor_field,
    split,
)
from geoequiv.errors import NotAdapted, SpectraOverlap, ZeroChiAtZero
from geoequiv.fields import (
    Chart,
    MetricField,
    OperatorField,
    christoffel,
    sample_points,
)
from geoequiv.smallmat import char_poly, eigen, frob


def _restricted_fields(g2, gb2, L2, chart, coords, base):
    """Freeze the complementary coordinates of 2-D fields at the base."""
    idx = np.array(coords)
    other = np.array([k for k in range(chart.dim) if k not in coords])
    sub = Chart(len(coords), tuple(chart.box[k] for k in coords),
                tuple(chart.base_point[k] for k in coords))

    def embed(x):
        q = np.array(base, dtype=float)
        q[idx] = x
        return q

    mk = MetricField.from_function
    return (
        sub,
        mk(sub, lambda x: g2.value(embed(x))[np.ix_(idx, idx)]),
        mk(sub, lambda x: gb2.value(embed(x))[np.ix_(idx, idx)]),
        OperatorField.from_function(sub, lambda x: L2.value(embed(x))[np.ix_(idx, idx)]),
    )


# ---------------------------------------------------------------------------
# split


def test_split_worked_example():
    chart = Chart(2, ((-0.5, 0.5),) * 2, (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "1"]])
    gbar = MetricField.from_exprs(chart, [["1/20", "0"], ["0", "1/50"]])
    L = l_tensor_field(g, gbar)
    assert np.allclose(L.value((0, 0)), np.diag([2.0, 5.0]))
    fact = admissible_factorization(L, ((0,), (1,)))
    sr = split(g, gbar, fact)
    p0 = (0.0, 0.0)
    assert np.allclose(sr.h.value(p0), np.diag([-1.0 / 3.0, 1.0 / 3.0]))
    assert np.allclose(sr.hbar.value(p0), np.diag([1.0 / 12.0, -1.0 / 75.0]))
    assert np.allclose(sr.P1.value(p0) + sr.P2.value(p0), np.eye(2), atol=1e-10)


def test_split_local_product_structure(corpus):
    # covariant derivative of the projector vanishes in both split metrics
    g, gbar = corpus["lc3_simple"]
    L = l_tensor_field(g, gbar)
    fact = admissible_factorization(L, ((0,), (1, 2)))
    sr = split(g, gbar, fact)
    for p in sample_points(g.chart, 6, seed=8):
        pv, dp = sr.P1.value_and_derivative(p)
        for metric in (sr.h, sr.hbar):
            gamma = christoffel(metric, p)
            nabla = (
                np.einsum("kij->ijk", dp)
                + np.einsum("iks,sj->ijk", gamma, pv)
                - np.einsum("skj,is->ijk", gamma, pv)
            )
            assert frob(nabla) <= 1e-4


def test_split_factor_charpoly_matches(corpus):
    g, gbar = corpus["lc3_simple"]
    L = l_tensor_field(g, gbar)
    fact = admissible_factorization(L, ((0,), (1, 2)))
    sr = split(g, gbar, fact)
    for p in sample_points(g.chart, 8, seed=9):
        pv = sr.P1.value(p)
        q, _ = np.linalg.qr(pv[:, np.abs(np.diag(pv)) > 0.5])
        lr = q.T @ L.value(p) @ q
        chi1, _ = fact.chi_at(p)
        assert np.allclose(char_poly(lr).coeffs, chi1.coeffs, atol=1e-8)


def test_split_bracket_integrability(corpus):
    # brackets of projected coordinate frames stay inside the distribution
    g, gbar = corpus["lc3_mixed"]
    L = l_tensor_field(g, gbar)
    fact = admissible_factorization(L, ((1, 2), (0,)))  # the double eigenvalue
    sr = split(g, gbar, fact)
    h = 1e-5
    for p in sample_points(g.chart, 4, seed=10):
        p1v = sr.P1.value(p)
        p2v = sr.P2.value(p)
        dp1 = np.empty((3, 3, 3))
        for k in range(3):
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            dp1[k] = (sr.P1.value(pp) - sr.P1.value(pm)) / (2 * h)
        for i in range(3):
            for j in range(3):
                # [P1 e_i, P1 e_j] via directional derivatives of columns
                u, v = p1v[:, i], p1v[:, j]
                br = np.einsum("s,sk->k", u, dp1[:, :, j]) - np.einsum(
                    "s,sk->k", v, dp1[:, :, i]
                )
                assert np.linalg.norm(p2v @ br) <= 1e-5


# ---------------------------------------------------------------------------
# glue


def test_glue_worked_example_one_dim_blocks():
    c1 = Chart(1, ((-0.5, 0.5),), (0.0,))
    one = [["1"]]
    h1 = MetricField.from_exprs(c1, one)
    hb1 = MetricField.from_exprs(c1, one)
    h2 = MetricField.from_exprs(c1, one)
    hb2 = MetricField.from_exprs(c1, [["1/16"]])
    L1 = OperatorField.constant(c1, np.array([[1.0]]))
    L2 = OperatorField.constant(c1, np.array([[4.0]]))
    inp = GlueInput(h1, hb1, h2, hb2, L1, L2)
    gv, gbv = glue(inp, (0.0, 0.0))
    assert np.allclose(gv, np.diag([-3.0, 3.0]))
    assert np.allclose(gbv, np.diag([3.0 / 4.0, -3.0 / 16.0]))


def test_glue_same_spectrum_rejected():
    c1 = Chart(1, ((-0.5, 0.5),), (0.0,))
    one = [["1"]]
    h = MetricField.from_exprs(c1, one)
    hb = MetricField.from_exprs(c1, [["1/4"]])
    L = OperatorField.constant(c1, np.array([[2.0]]))
    inp = GlueInput(h, hb, h, hb, L, L)
    with pytest.raises(SpectraOverlap):
        glue(inp, (0.0, 0.0))


def test_glue_singular_factor_rejected():
    c1 = Chart(1, ((-0.5, 0.5),), (0.0,))
    one = [["1"]]
    h = MetricField.from_exprs(c1, one)
    with pytest.raises(ZeroChiAtZero):
        GlueInput(
            h, h, h, h,
            OperatorField.constant(c1, np.array([[0.0]])),
            OperatorField.constant(c1, np.array([[2.0]])),
        )


def test_glue_varying_pair_is_compatible():
    # honest 1-D factor + 2-D proportional factor; total dimension odd,
    # which exercises the orientation-sign correction
    cA = Chart(1, ((-0.4, 0.4),), (0.0,))
    hA = MetricField.from_exprs(cA, [["1"]])
    hbA = MetricField.from_exprs(cA, [["1/((1 + 0.1*sin(x0))^2)"]])
    cB = Chart(2, ((-0.4, 0.4),) * 2, (0.0, 0.0))
    hB = MetricField.from_exprs(
        cB, [["1", "0.2*x1"], ["0.2*x1", "1.5 + 0.1*x0^2"]]
    )
    hbB = MetricField.from_function(cB, lambda p: hB.value(p) / 4.0**3)
    inp = GlueInput(hA, hbA, hB, hbB, None,
                    OperatorField.constant(cB, 4.0 * np.eye(2)))
    g, gbar, l_direct = glue_fields(inp)
    L = l_tensor_field(g, gbar)
    for p in sample_points(g.chart, 15, seed=11):
        res, _ = compatibility_residual(g, L, p)
        assert res <= 1e-5
        res2, _ = compatibility_residual(g, l_direct, p)
        assert res2 <= 1e-5


def test_glued_pair_calls_glue_once_per_point(monkeypatch):
    # both glued metrics read one closure: value and derivative of g and
    # gbar at a point take 2n + 1 calls of glue, not 2 (2n + 1)
    cA = Chart(1, ((-0.4, 0.4),), (0.0,))
    hA = MetricField.from_exprs(cA, [["1"]])
    hbA = MetricField.from_exprs(cA, [["1/((1 + 0.1*sin(x0))^2)"]])
    hB = MetricField.from_exprs(cA, [["1"]])
    hbB = MetricField.from_exprs(cA, [["1/((3 + 0.1*x0)^2)"]])
    g, gbar, _ = glue_fields(GlueInput(hA, hbA, hB, hbB))
    calls = []
    real_glue = splitglue.glue
    monkeypatch.setattr(splitglue, "glue",
                        lambda inp, p: calls.append(p) or real_glue(inp, p))
    p = np.array([0.1, -0.2])
    g.value_and_derivative(p)
    gbar.value_and_derivative(p)
    gbar.value(p)
    assert len(calls) == 2 * g.chart.dim + 1


def test_glue_direct_sum_spectrum():
    cA = Chart(1, ((-0.4, 0.4),), (0.0,))
    hA = MetricField.from_exprs(cA, [["1"]])
    hbA = MetricField.from_exprs(cA, [["1/((1 + 0.1*sin(x0))^2)"]])
    cB = Chart(1, ((-0.4, 0.4),), (0.0,))
    hB = MetricField.from_exprs(cB, [["1"]])
    hbB = MetricField.from_exprs(cB, [["1/((3 + 0.1*x0)^2)"]])
    inp = GlueInput(hA, hbA, hB, hbB)
    g, gbar, l_direct = glue_fields(inp)
    L = l_tensor_field(g, gbar)
    for p in sample_points(g.chart, 10, seed=12):
        want = np.sort_complex(np.linalg.eigvals(l_direct.value(p)))
        got = np.sort_complex(np.linalg.eigvals(L.value(p)))
        match_plus = np.allclose(got, want, atol=1e-8)
        match_minus = np.allclose(got, -want[::-1].conjugate(), atol=1e-8)
        assert match_plus or match_minus


def test_glue_split_round_trip(corpus):
    # split a corpus pair, restrict the factors, glue them back: entries
    # reproduce the originals to 1e-12
    for name, grouping in (("lc2_sin", ((0,), (1,))), ("lc3_simple", ((0,), (1, 2)))):
        g, gbar = corpus[name]
        chart = g.chart
        n = chart.dim
        L = l_tensor_field(g, gbar)
        fact = admissible_factorization(L, grouping)
        sr = split(g, gbar, fact)
        r = fact.r
        base = chart.base_point
        sub1, h1, hb1, L1 = _restricted_fields(sr.h, sr.hbar, L, chart,
                                               tuple(range(r)), base)
        sub2, h2, hb2, L2 = _restricted_fields(sr.h, sr.hbar, L, chart,
                                               tuple(range(r, n)), base)
        inp = GlueInput(h1, hb1, h2, hb2, L1, L2)
        worst = 0.0
        for p in sample_points(chart, 25, seed=13):
            gv, gbv = glue(inp, p)
            worst = max(
                worst,
                float(np.max(np.abs(gv - g.value(p)))),
                float(np.max(np.abs(gbv - gbar.value(p)))),
            )
        assert worst <= 1e-12, name


def test_split_glue_round_trip_on_factors():
    # glue two honest factors, then split the result: the factor pairs
    # come back (up to the per-factor sign convention)
    cA = Chart(1, ((-0.3, 0.3),), (0.0,))
    hA = MetricField.from_exprs(cA, [["1"]])
    hbA = MetricField.from_exprs(cA, [["1/((1 + 0.2*x0)^2)"]])
    cB = Chart(1, ((-0.3, 0.3),), (0.0,))
    hB = MetricField.from_exprs(cB, [["2"]])
    hbB = MetricField.from_exprs(cB, [["2/((3 - 0.1*x0)^2)"]])
    inp = GlueInput(hA, hbA, hB, hbB)
    g, gbar, l_direct = glue_fields(inp)
    L = l_tensor_field(g, gbar)
    fact = admissible_factorization(L, ((0,), (1,)))
    sr = split(g, gbar, fact)
    for p in sample_points(g.chart, 15, seed=14):
        x, y = p[:1], p[1:]
        hv = sr.h.value(p)
        assert abs(abs(hv[0, 0]) - abs(hA.value(x)[0, 0])) <= 1e-9
        assert abs(abs(hv[1, 1]) - abs(hB.value(y)[0, 0])) <= 1e-9
        assert abs(hv[0, 1]) <= 1e-10


# ---------------------------------------------------------------------------
# block conditions


def test_block_conditions_on_glued_pair():
    cA = Chart(1, ((-0.4, 0.4),), (0.0,))
    hA = MetricField.from_exprs(cA, [["1"]])
    hbA = MetricField.from_exprs(cA, [["1/((1 + 0.1*sin(x0))^2)"]])
    cB = Chart(2, ((-0.4, 0.4),) * 2, (0.0, 0.0))
    hB = MetricField.from_exprs(
        cB, [["1", "0.2*x1"], ["0.2*x1", "1.5 + 0.1*x0^2"]]
    )
    hbB = MetricField.from_function(cB, lambda p: hB.value(p) / 4.0**3)
    inp = GlueInput(hA, hbA, hB, hbB, None,
                    OperatorField.constant(cB, 4.0 * np.eye(2)))
    g, gbar, l_direct = glue_fields(inp)
    for p in sample_points(g.chart, 10, seed=15):
        c1, c2, c3 = block_condition_residuals(g, inp.L1, inp.L2, p)
        assert c1 <= 1e-5 and c2 <= 1e-5 and c3 <= 1e-5


def test_block_conditions_constant_product():
    chart = Chart(2, ((-0.4, 0.4),) * 2, (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "1"]])
    c1d = Chart(1, ((-0.4, 0.4),), (0.0,))
    L1 = OperatorField.constant(c1d, np.array([[2.0]]))
    L2 = OperatorField.constant(c1d, np.array([[5.0]]))
    c1, c2, c3 = block_condition_residuals(g, L1, L2, (0.1, 0.2))
    assert max(c1, c2, c3) <= 1e-10


def test_block_conditions_detect_broken_product():
    chart = Chart(3, ((-0.4, 0.4),) * 3, (0.0, 0.0, 0.0))
    # second block mixes in the first coordinate off-diagonally; with a
    # non-scalar second operator block this breaks condition 3
    g = MetricField.from_exprs(
        chart,
        [
            ["1", "0", "0"],
            ["0", "1", "0.5*x0"],
            ["0", "0.5*x0", "1"],
        ],
    )
    c1d = Chart(1, ((-0.4, 0.4),), (0.0,))
    c2d = Chart(2, ((-0.4, 0.4),) * 2, (0.0, 0.0))
    L1 = OperatorField.constant(c1d, np.array([[2.0]]))
    L2 = OperatorField.constant(c2d, np.diag([4.0, 6.0]))
    worst = 0.0
    for p in sample_points(chart, 20, seed=16):
        c1, c2, c3 = block_condition_residuals(g, L1, L2, p)
        worst = max(worst, max(c2, c3))
    assert worst > 1e-2


# ---------------------------------------------------------------------------
# iterated decomposition


def test_full_decompose_single_factor():
    chart = Chart(2, ((-0.4, 0.4),) * 2, (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "1"]])
    gbar = MetricField.from_exprs(chart, [["1/8", "0"], ["0", "1/8"]])
    factors = full_decompose(g, gbar)
    assert len(factors) == 1
    assert factors[0].coords == (0, 1)
    assert factors[0].residual_max <= 1e-9


def test_full_decompose_complex_pair_bookkeeping():
    # constant pair whose operator has spectrum {2, 5, 1 +- i}
    chart = Chart(4, ((-0.4, 0.4),) * 4, (0.0,) * 4)
    gm = np.diag([1.0, 1.0, 1.0, -1.0])
    lm = np.zeros((4, 4))
    lm[0, 0], lm[1, 1] = 2.0, 5.0
    lm[2:, 2:] = [[1.0, -1.0], [1.0, 1.0]]  # eigenvalues 1 +- i
    det = float(np.linalg.det(lm))
    gbm = gm @ np.linalg.inv(lm) / det
    g = MetricField.from_function(chart, lambda p: gm)
    gbar = MetricField.from_function(chart, lambda p: gbm)
    factors = full_decompose(g, gbar)
    dims = sorted(len(f.coords) for f in factors)
    assert dims == [1, 1, 2]
    for f in factors:
        assert f.residual_max <= 1e-9  # constants: exact
    pair_factor = [f for f in factors if len(f.coords) == 2][0]
    imags = sorted(z.imag for z in pair_factor.base_eigenvalues)
    assert np.allclose(imags, [-1.0, 1.0])


def test_full_decompose_corpus_three_factors(corpus):
    g, gbar = corpus["lc3_simple"]
    factors = full_decompose(g, gbar, residual_points=10)
    assert len(factors) == 3
    assert sorted(len(f.coords) for f in factors) == [1, 1, 1]
    for f in factors:
        assert f.residual_max <= 1e-5


def test_full_decompose_not_adapted():
    # rotate a corpus-like pair so blocks no longer align with coordinates
    chart = Chart(2, ((-0.4, 0.4),) * 2, (0.0, 0.0))
    theta = 0.3
    q = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    gm = q @ np.diag([1.0, 1.0]) @ q.T
    gbm = q @ np.diag([1.0 / 20.0, 1.0 / 50.0]) @ q.T
    g = MetricField.from_function(chart, lambda p: gm)
    gbar = MetricField.from_function(chart, lambda p: gbm)
    with pytest.raises(NotAdapted):
        full_decompose(g, gbar)
