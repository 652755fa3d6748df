"""Splitting, gluing, block conditions and the iterated decomposition."""

from pathlib import Path

import numpy as np
import pytest

from geoequiv import fields
from geoequiv.cli import load_scene
from geoequiv.equiv import (
    GlueInput,
    LeviCivitaSpec,
    levi_civita_pair,
    factorization,
    splitglue,
    admissible_factorization,
    block_condition_residuals,
    compatibility_residual,
    full_decompose,
    glue,
    glue_fields,
    l_tensor_field,
    projectors,
    split,
)
from geoequiv.errors import NotAdapted, SpectraOverlap, ZeroChiAtZero
from geoequiv.fields import (
    Chart,
    MetricField,
    OperatorField,
    christoffel,
    restrict,
    sample_points,
)
from geoequiv.smallmat import char_poly, eigen, frob

from conftest import build_pair, central_difference, constant_metric, scaled
from test_factorization import _complex_pair_operator, _three_group_operator

SCENES = Path(__file__).resolve().parents[1] / "scenes"


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
    assert np.allclose(sr.projectors[0].value(p0) + sr.projectors[1].value(p0), np.eye(2), atol=1e-10)


def test_split_three_constant_groups():
    # L = diag(2, 3, 5): W_i(L) = diag(3, -2, 6) on the diagonal and
    # W_i(0) = (15, 10, 6)
    chart = Chart(3, ((-0.4, 0.4),) * 3, (0.0, 0.0, 0.0))
    gm = np.diag([1.0, 1.0, -1.0])
    lm = np.diag([2.0, 3.0, 5.0])
    gbm = gm @ np.linalg.inv(lm) / np.linalg.det(lm)
    g = constant_metric(chart, gm)
    gbar = constant_metric(chart, gbm)
    fact = admissible_factorization(l_tensor_field(g, gbar), ((0,), (1,), (2,)))
    sr = split(g, gbar, fact)
    assert len(sr.projectors) == 3
    for p in sample_points(chart, 5, seed=3):
        assert np.allclose(sr.h.value(p), np.diag([1 / 3, -1 / 2, -1 / 6]), atol=1e-12)
        assert np.allclose(sr.hbar.value(p), np.diag([1 / 12, -1 / 18, -1 / 150]),
                           atol=1e-12)
        pvs = [proj.value(p) for proj in sr.projectors]
        assert frob(sum(pvs) - np.eye(3)) <= 1e-12
        for i, pv in enumerate(pvs):
            assert np.allclose(pv, np.diag(np.eye(3)[i]), atol=1e-12)


def test_four_group_split_restricts_to_the_decomposition_factors(corpus):
    g, gbar = corpus["lc4_simple"]
    L = l_tensor_field(g, gbar)
    sr = split(g, gbar, admissible_factorization(L, ((0,), (1,), (2,), (3,))))
    p0 = np.array(g.chart.base_point)
    factors = full_decompose(g, gbar, residual_points=2)
    assert sorted(len(f.coords) for f in factors) == [1, 1, 1, 1]
    for f in factors:
        idx = np.array(f.coords)
        block = np.ix_(idx, idx)
        for x in sample_points(f.chart, 4, seed=24):
            q = p0.copy()
            q[idx] = x
            for whole, leaf in ((sr.h, f.h), (sr.hbar, f.hbar)):
                want = leaf.value(x)
                assert frob(whole.value(q)[block] - want) <= 1e-12 * frob(want)


def test_split_local_product_structure(corpus):
    # covariant derivative of the projector vanishes in both split metrics
    g, gbar = corpus["lc3_simple"]
    L = l_tensor_field(g, gbar)
    fact = admissible_factorization(L, ((0,), (1, 2)))
    sr = split(g, gbar, fact)
    for p in sample_points(g.chart, 6, seed=8):
        pv, dp = sr.projectors[0].value_and_derivative(p)
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
        pv = sr.projectors[0].value(p)
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
        p1v = sr.projectors[0].value(p)
        p2v = sr.projectors[1].value(p)
        dp1 = np.empty((3, 3, 3))
        for k in range(3):
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            dp1[k] = (sr.projectors[0].value(pp) - sr.projectors[0].value(pm)) / (2 * h)
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
    hbB = scaled(hB, 4.0**-3)
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
    # both glued metrics read one batch closure with an exact jacobian:
    # value and derivative of g and gbar at a point take one call of glue
    cA = Chart(1, ((-0.4, 0.4),), (0.0,))
    hA = MetricField.from_exprs(cA, [["1"]])
    hbA = MetricField.from_exprs(cA, [["1/((1 + 0.1*sin(x0))^2)"]])
    hB = MetricField.from_exprs(cA, [["1"]])
    hbB = MetricField.from_exprs(cA, [["1/((3 + 0.1*x0)^2)"]])
    g, gbar, _ = glue_fields(GlueInput(hA, hbA, hB, hbB))
    calls = []
    real_glue = splitglue.glue
    monkeypatch.setattr(splitglue, "glue",
                        lambda inp, p, **kw: calls.append(p) or real_glue(inp, p, **kw))
    p = np.array([0.1, -0.2])
    g.value_and_derivative(p)
    gbar.value_and_derivative(p)
    gbar.value(p)
    assert len(calls) == 1


def _scene_factors():
    """Glue input of scenes/factor-a.json x scenes/factor-b.json."""
    _, h1, hb1 = load_scene(str(SCENES / "factor-a.json"))
    _, h2, hb2 = load_scene(str(SCENES / "factor-b.json"))
    return GlueInput(h1, hb1, h2, hb2)


def _block_factors():
    """Glue input of factor-a.json (1-D) and a 2-D factor with one constant
    eigenvalue on a 2x2 block metric."""
    _, h1, hb1 = load_scene(str(SCENES / "factor-a.json"))
    spec = LeviCivitaSpec.from_dict({"blocks": [{
        "lambda": "3.6", "dim": 2,
        "metric": [["1.1", "0.15*x1"], [None, "1.3 + 0.1*x0^2"]],
        "intervals": [[-0.3, 0.3], [-0.3, 0.3]]}]})
    h2, hb2 = levi_civita_pair(spec)
    return GlueInput(h1, hb1, h2, hb2)


@pytest.mark.parametrize("make", [_scene_factors, _block_factors])
def test_glued_pair_exact_derivative(make):
    inp = make()
    g, gbar, _ = glue_fields(inp)
    for p in sample_points(g.chart, 8, seed=17):
        both = central_difference(lambda q: np.stack([g.value(q), gbar.value(q)]), p)
        for k, field in enumerate((g, gbar)):
            _, exact = field.value_and_derivative(p)
            assert frob(exact - both[:, k]) <= 1e-8 * (1.0 + frob(exact))


@pytest.mark.parametrize("make", [_scene_factors, _block_factors])
def test_glued_pair_value_paths_and_batches_agree(make):
    # value-only and jacobian evaluations give the same value bits, and a
    # batch of 20 rows gives the bits of 20 batches of 1
    inp = make()
    rows = sample_points(inp.product_chart, 20, seed=18)
    vals, derivs = glue(inp, rows, derivative=True)
    for i, p in enumerate(rows):
        assert glue(inp, p).tobytes() == vals[i].tobytes()
        val, deriv = glue(inp, p[None], derivative=True)
        assert val.tobytes() == vals[i:i + 1].tobytes()
        assert deriv.tobytes() == derivs[i:i + 1].tobytes()
    g, gbar, _ = glue_fields(inp)
    g2, gbar2, _ = glue_fields(inp)
    for p in rows[:5]:
        assert g.value(p).tobytes() == g2.value_and_derivative(p)[0].tobytes()
        assert gbar.value(p).tobytes() == gbar2.value_and_derivative(p)[0].tobytes()


def _one_dim(lam_expr, box=(-0.4, 0.4)):
    chart = Chart(1, (box,), (0.0,))
    return (MetricField.from_exprs(chart, [["1"]]),
            MetricField.from_exprs(chart, [[f"1/(({lam_expr})^2)"]]))


@pytest.mark.parametrize("error, inp, bad", [
    # the first factor's eigenvalue 2 + x0 meets the second's 3 at x0 = 1
    (SpectraOverlap, lambda: GlueInput(*_one_dim("2 + x0", (-0.5, 1.5)), *_one_dim("3")),
     (1.0, 0.2)),
    # an explicit first tensor x0 + 0.5 vanishes at x0 = -0.5, so chi1(0) = 0
    (ZeroChiAtZero, lambda: GlueInput(
        *_one_dim("0.5", (-0.6, 0.4)), *_one_dim("3"),
        OperatorField.from_exprs(Chart(1, ((-0.6, 0.4),), (0.0,)), [["x0 + 0.5"]]), None),
     (-0.5, 0.1)),
])
def test_glue_errors_same_through_value_and_jacobian(error, inp, bad):
    inp = inp()
    g, _, _ = glue_fields(inp)
    rows = np.vstack([sample_points(g.chart, 3, seed=19), [bad], [0.0, 0.0]])
    raised = []
    for evaluate in (lambda: g.value(np.array(bad)),
                     lambda: glue_fields(inp)[0].value_and_derivative(np.array(bad)),
                     lambda: glue_fields(inp)[1].value_and_derivative(rows)):
        with pytest.raises(error) as info:
            evaluate()
        raised.append(info.value)
    assert {type(e) for e in raised} == {error}
    for e in raised:
        assert np.array_equal(np.asarray(e.point), np.array(bad))


def test_check_disjoint_computes_eigenvalues_once_per_probe_point(monkeypatch):
    # 31 probe points per factor, 93 checked pairs
    inp = _scene_factors()
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or real(a))
    inp.check_disjoint()
    assert len(calls) == 62


def _disjoint_reference(inp):
    # every checked pair computes both spectra afresh
    pts1 = fields.probe_points(inp.chart1, 30)
    pts2 = fields.probe_points(inp.chart2, 30, fields.PROBE_SEED + 1)
    for x, y in zip(pts1, pts2):
        for xx, yy in ((pts1[0], y), (x, y), (x, pts2[0])):
            splitglue._check_separated(
                np.linalg.eigvals(inp.L1.value(xx)), np.linalg.eigvals(inp.L2.value(yy)),
                inp.eps_gap, np.concatenate([xx, yy]))


def test_check_disjoint_raises_the_first_overlap_of_the_pair_loop():
    # the first factor's eigenvalue jumps from 2 to the second factor's 3
    # for x0 > 0.2, so the overlap first shows at a later probe point
    h1, hb1 = _one_dim("2")

    def jump(rows, derivative):
        vals = np.where(rows[:, :, None] > 0.2, 3.0, 2.0)
        return (vals, np.zeros((len(rows), 1, 1, 1))) if derivative else vals

    L1 = OperatorField.from_function(h1.chart, jac=jump)
    h2, hb2 = _one_dim("3")
    inp = GlueInput(h1, hb1, h2, hb2, L1, None)
    raised = []
    for check in (inp.check_disjoint, lambda: _disjoint_reference(inp)):
        with pytest.raises(SpectraOverlap) as info:
            check()
        raised.append(info.value)
    got, want = raised
    assert str(got) == str(want) and got.witness == want.witness
    assert np.array_equal(got.point, want.point)
    assert got.point[0] > 0.2  # probe point 5, not the first


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
        base = chart.base_point
        first, second = range(fact.r), range(fact.r, n)
        inp = GlueInput(restrict(sr.h, first, base), restrict(sr.hbar, first, base),
                        restrict(sr.h, second, base), restrict(sr.hbar, second, base),
                        restrict(L, first, base), restrict(L, second, base))
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
    hbB = scaled(hB, 4.0**-3)
    inp = GlueInput(hA, hbA, hB, hbB, None,
                    OperatorField.constant(cB, 4.0 * np.eye(2)))
    g, gbar, l_direct = glue_fields(inp)
    for p in sample_points(g.chart, 10, seed=15):
        c1, c2, c3 = block_condition_residuals(g, inp.L1, inp.L2, p)
        assert c1 <= 1e-5 and c2 <= 1e-5 and c3 <= 1e-5


def test_block_conditions_exact_on_glued_levi_civita_factor():
    # a first factor with two simple eigenvalues makes the leaf residual
    # depend on the leaf metric's derivative, which is exact now
    spec = LeviCivitaSpec.from_dict({"simple": [
        {"lambda": "1 + 0.1*sin(x0)", "interval": [-0.4, 0.4]},
        {"lambda": "2 + 0.1*x0", "interval": [-0.4, 0.4]}]})
    _, h2, hb2 = load_scene(str(SCENES / "factor-b.json"))
    inp = GlueInput(*levi_civita_pair(spec), h2, hb2)
    g, _, _ = glue_fields(inp)
    for p in sample_points(g.chart, 10, seed=20):
        assert max(block_condition_residuals(g, inp.L1, inp.L2, p)) <= 1e-12


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
    g = constant_metric(chart, gm)
    gbar = constant_metric(chart, gbm)
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
    g = constant_metric(chart, gm)
    gbar = constant_metric(chart, gbm)
    with pytest.raises(NotAdapted):
        full_decompose(g, gbar)


def test_full_decompose_l_block_derivative_is_the_slice_of_L(corpus):
    g, gbar = corpus["lc4_mixed"]
    L = l_tensor_field(g, gbar)
    p0 = np.array(g.chart.base_point)
    factors = full_decompose(g, gbar, residual_points=2)
    assert sorted(len(f.coords) for f in factors) == [1, 1, 2]
    for f in factors:
        idx = np.array(f.coords)
        for x in sample_points(f.chart, 3, seed=23):
            q = p0.copy()
            q[idx] = x
            lv, dl = L.value_and_derivative(q)
            v, d = f.l_block.value_and_derivative(x)
            assert v.tobytes() == lv[np.ix_(idx, idx)].tobytes()
            assert d.tobytes() == dl[np.ix_(idx, idx, idx)].tobytes()


# ---------------------------------------------------------------------------
# coordinate leaves


@pytest.mark.parametrize("make", [_scene_factors, _block_factors])
def test_restrict_matches_the_leaf_closures_on_a_glued_pair(make):
    # the first-factor leaf that block_condition_residuals froze by hand
    inp = make()
    g, _, _ = glue_fields(inp)
    r, s = inp.chart1.dim, inp.chart2.dim
    for p in sample_points(g.chart, 4, seed=21):
        y0 = p[r:]

        def leaf_jac(rows, derivative, y0=y0):
            qs = np.hstack([rows, np.broadcast_to(y0, (len(rows), s))])
            if not derivative:
                return g.value(qs)[:, :r, :r]
            gv, dg = g.value_and_derivative(qs)
            return gv[:, :r, :r], dg[:, :r, :r, :r]

        old = MetricField.from_function(inp.chart1, jac=leaf_jac)
        new = restrict(g, range(r), p)
        assert type(new) is MetricField and new.chart == inp.chart1
        xs = np.vstack([p[:r], sample_points(inp.chart1, 3, seed=22)])
        for x in xs:
            assert new.value(x).tobytes() == old.value(x).tobytes()
        for a, b in zip(new.value_and_derivative(xs), old.value_and_derivative(xs)):
            assert a.tobytes() == b.tobytes()


def test_restrict_slices_value_and_exact_jacobian(corpus):
    g, gbar = corpus["lc3_mixed"]
    L = l_tensor_field(g, gbar)
    coords = (0, 2)
    idx = np.array(coords)
    for p in sample_points(g.chart, 3, seed=24):
        for field in (g, L):
            leaf = restrict(field, coords, p)
            assert type(leaf) is type(field)
            assert leaf.chart == Chart(2, (g.chart.box[0], g.chart.box[2]),
                                       (g.chart.base_point[0], g.chart.base_point[2]))
            for x in sample_points(leaf.chart, 3, seed=25):
                q = p.copy()
                q[idx] = x
                val, deriv = leaf.value_and_derivative(x)
                assert val.tobytes() == field.value(q)[np.ix_(idx, idx)].tobytes()
                fd = central_difference(leaf.value, x)
                assert frob(deriv - fd) <= 1e-8 * (1.0 + frob(deriv))


# ---------------------------------------------------------------------------
# exact jacobians of the polynomial-in-L constructions


def _split_fields(name, grouping):
    g, gbar = build_pair(name)
    sr = split(g, gbar, admissible_factorization(l_tensor_field(g, gbar), grouping))
    return [sr.h, sr.hbar]


def _projector_fields(make_l, grouping):
    L = make_l()
    return list(projectors(L, admissible_factorization(L, grouping)))


def _decompose_fields(pair):
    factors = full_decompose(*pair, residual_points=2)
    return [field for f in factors for field in (f.h, f.hbar)]


def _corpus_l(name):
    return lambda: l_tensor_field(*build_pair(name))


def _cross_dependent_pair():
    # L = diag(1 + 0.1*x1, 2 + 0.1*x0, 3.5) with g = Id: not a normal form,
    # so each factor's cofactor W_i moves along the factor's own leaf
    # (gbar = g L^-1 / det L)
    lams = ("1 + 0.1*x1", "2 + 0.1*x0", "3.5")
    prod = "*".join(f"({lam})" for lam in lams)
    chart = Chart(3, ((-0.4, 0.4),) * 3, (0.0, 0.0, 0.0))

    def diag(entries):
        return [[entries[i] if i == j else "0" for j in range(3)] for i in range(3)]

    return (MetricField.from_exprs(chart, diag(["1"] * 3)),
            MetricField.from_exprs(chart, diag([f"1/(({lam})*{prod})" for lam in lams])))


JACOBIAN_CASES = {
    "split-lc2_sin": lambda: _split_fields("lc2_sin", ((0,), (1,))),
    "split-lc3_mixed": lambda: _split_fields("lc3_mixed", ((1, 2), (0,))),
    "split-lc4_simple-4": lambda: _split_fields("lc4_simple", ((0,), (1,), (2,), (3,))),
    "projectors-lc3_simple": lambda: _projector_fields(_corpus_l("lc3_simple"),
                                                       ((0,), (1, 2))),
    "projectors-three-groups": lambda: _projector_fields(
        lambda: _three_group_operator()[1], ((0,), (1,), (2,))),
    "projectors-complex-pair": lambda: _projector_fields(_complex_pair_operator,
                                                         ((0, 1), (2,))),
    "decompose-lc3_simple": lambda: _decompose_fields(build_pair("lc3_simple")),
    "decompose-lc4_mixed": lambda: _decompose_fields(build_pair("lc4_mixed")),
    "decompose-cross-dependent": lambda: _decompose_fields(_cross_dependent_pair()),
}


def test_split_values_at_fresh_points_make_no_factor_derivative_work(monkeypatch):
    # a value-only batch asks for no directions, so it runs neither the
    # forward-mode char(L) nor the Sylvester solve of the factor derivatives
    sr = _split_fields("lc3_mixed", ((1, 2), (0,)))
    calls = []
    for owner, name in ((factorization, "char_poly"), (np.linalg, "solve")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    rows = sample_points(sr[0].chart, 6, seed=29)
    assert sr[0].value(rows).shape == (6, 3, 3)
    assert calls == []


@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_polynomial_constructions_have_exact_jacobians(case):
    for field in JACOBIAN_CASES[case]():
        for p in sample_points(field.chart, 3, seed=27):
            _, exact = field.value_and_derivative(p)
            fd = central_difference(field.value, p)
            assert frob(exact - fd) <= 1e-7 * (1.0 + frob(exact)), case


@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_polynomial_jacobians_keep_the_value_bits_and_batch_rows(case):
    # the closure gives the same value bits with and without the jacobian,
    # and a batch of 1 gives the bits of its row in a batch of 5
    by_value, by_jac, by_batch = (JACOBIAN_CASES[case]() for _ in range(3))
    for a, b, c in zip(by_value, by_jac, by_batch):
        rows = sample_points(a.chart, 5, seed=28)
        vals, derivs = c.value_and_derivative(rows)
        for i, p in enumerate(rows):
            assert a.value(p).tobytes() == b.value_and_derivative(p)[0].tobytes()
            val, deriv = b.value_and_derivative(rows[i:i + 1])
            assert val.tobytes() == vals[i:i + 1].tobytes()
            assert deriv.tobytes() == derivs[i:i + 1].tobytes()
