"""Pair tensor, compatibility residual, reconstruction, operator-function
rescaling, characteristic-polynomial differential, projective deformation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoequiv.equiv import (
    charpoly_differential_residual,
    compatibility_residual,
    compute_L,
    l_tensor_field,
    projective_deformation,
    reconstruct_gbar,
    shift_to_nondegenerate,
    topalov_sinjukov,
)
from geoequiv.errors import SingularL, ZeroInImage
from geoequiv.fields import (
    Chart,
    MetricField,
    OperatorField,
    VectorField,
    covariant_derivative_op,
    nijenhuis,
    sample_points,
)
from geoequiv.smallmat import ScalarFunction, frob


def euclidean_chart(n=2, half=0.5):
    chart = Chart(n, tuple((-half, half) for _ in range(n)), (0.0,) * n)
    rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return chart, MetricField.from_exprs(chart, rows)


# ---------------------------------------------------------------------------
# compute_L


def test_compute_l_conformal():
    chart, g = euclidean_chart(2)
    gbar = MetricField.from_exprs(chart, [["0.125", "0"], ["0", "0.125"]])
    lv = compute_L(g, gbar, (0.1, -0.2))
    assert np.allclose(lv, 2.0 * np.eye(2))


def test_compute_l_indefinite_frozen():
    chart, _ = euclidean_chart(2)
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "-1"]])
    gbar = MetricField.from_exprs(chart, [["2", "0"], ["0", "-1"]])
    lv = compute_L(g, gbar, (0.0, 0.0))
    r = 2.0 ** (1.0 / 3.0)
    assert np.allclose(lv, np.diag([r / 2.0, r]))


def test_compute_l_one_dim_sign_flip():
    chart = Chart(1, ((-0.5, 0.5),), (0.0,))
    h = MetricField.from_exprs(chart, [["-1/3"]])
    hbar = MetricField.from_exprs(chart, [["1/12"]])
    lv, flipped = compute_L(h, hbar, (0.0,), return_flag=True)
    assert flipped
    assert np.allclose(lv, [[2.0]])


def test_l_field_jacobian_matches_fd(corpus):
    g, gbar = corpus["lc2_sin"]
    L = l_tensor_field(g, gbar)
    p = np.array([0.2, -0.1])
    lv, dl = L.value_and_derivative(p)
    for k in range(2):
        h = 1e-6
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        fd = (L.value(pp) - L.value(pm)) / (2 * h)
        assert frob(fd - dl[k]) <= 1e-7 * (1 + frob(dl[k]))


def test_l_value_is_path_independent():
    # L.value, L.value_and_derivative and compute_L share one routine, so
    # the value has the same bits whichever path ran first at a point
    chart = Chart(3, ((-0.4, 0.4),) * 3, (0.0, 0.0, 0.0))
    g = MetricField.from_exprs(chart, [
        ["2 + 0.3*sin(x0)", "0.2*x1", "0.1"],
        [None, "1.5 + 0.1*x2^2", "0.05*x0"],
        [None, None, "-1 + 0.2*cos(x1)"],
    ])
    gbar = MetricField.from_exprs(chart, [
        ["1 + 0.1*x2", "0.3", "0.1*x0*x1"],
        [None, "2.5", "0.2*sin(x2)"],
        [None, None, "-0.7 - 0.1*x0^2"],
    ])
    for p in sample_points(chart, 20, seed=5):
        first_value = l_tensor_field(g, gbar)
        v1 = first_value.value(p)
        d1 = first_value.value_and_derivative(p)[0]
        first_jac = l_tensor_field(g, gbar)
        d2 = first_jac.value_and_derivative(p)[0]
        v2 = first_jac.value(p)
        direct = compute_L(g, gbar, p)
        for other in (d1, d2, v2, direct):
            assert other.tobytes() == v1.tobytes()


def _reference_pair_tensor(gv, gbv, dgv, dgbv):
    """The per-point pair tensor and its jacobian that the batched one
    replaced, kept as the reference for its bits."""
    n = len(gv)
    dg, dgb = float(np.linalg.det(gv)), float(np.linalg.det(gbv))
    ratio = dgb / dg
    if (n + 1) % 2 == 0 and ratio < 0.0:
        gv, dg, ratio, dgv = -gv, -dg, -ratio, -dgv
    rho = np.sign(ratio) * abs(ratio) ** (1.0 / (n + 1))
    gbinv = np.linalg.inv(gbv)
    core = gbinv @ gv
    ddg = dg * np.einsum("ij,kji->k", np.linalg.inv(gv), dgv)
    ddgb = dgb * np.einsum("ij,kji->k", gbinv, dgbv)
    drho = rho * ((ddgb * dg - dgb * ddg) / dg**2) / ((n + 1) * ratio)
    dgbinv = -np.einsum("ij,kjl,lm->kim", gbinv, dgbv, gbinv)
    dl = (np.einsum("k,ij->kij", drho, core)
          + rho * np.einsum("kij,jl->kil", dgbinv, gv)
          + rho * np.einsum("ij,kjl->kil", gbinv, dgv))
    return rho * core, dl


def _reference_residual(g, lv, dl, p):
    """The per-point compatibility residual that the batched one replaced."""
    gv, dg = g.value_and_derivative(p)
    ginv = np.linalg.inv(gv)
    term = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    gamma = 0.5 * np.einsum("il,ljk->ijk", ginv, term)
    nabla = (np.einsum("kij->ijk", dl) + np.einsum("iks,sj->ijk", gamma, lv)
             - np.einsum("skj,is->ijk", gamma, lv))
    l_cov = np.einsum("kii->k", dl)
    rhs = 0.5 * (np.einsum("ik,j->ijk", np.eye(len(p)), l_cov)
                 + np.einsum("i,kj->ijk", ginv @ l_cov, gv))
    resid = nabla - rhs
    return frob(resid) / (1.0 + frob(dl)), resid


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["lc2_sin", "lc2_exp", "lc3_mixed", "lc3_sig", "lc4_block3"]),
       st.lists(st.integers(0, 7), min_size=1, max_size=20),
       st.integers(0, 1000))
def test_batch_rows_match_batches_of_one(corpus, name, picks, seed):
    # row i of a batch has the bits of a batch of 1 at that row; the batch
    # and the single points use separate L fields, so neither reads the
    # other's point cache
    g, gbar = corpus[name]
    rows = sample_points(g.chart, 8, seed)[picks]
    batched, single = l_tensor_field(g, gbar), l_tensor_field(g, gbar)
    lv, dl = batched.value_and_derivative(rows)
    res, resid = compatibility_residual(g, batched, rows)
    nabla = covariant_derivative_op(g, batched, rows)
    torsion = nijenhuis(batched, rows)
    assert res.shape == (len(rows),)
    for i, p in enumerate(rows):
        one = p[None]
        lv1, dl1 = single.value_and_derivative(one)
        assert np.array_equal(lv[i], lv1[0]) and np.array_equal(dl[i], dl1[0])
        res1, resid1 = compatibility_residual(g, single, one)
        assert res[i] == res1[0] and np.array_equal(resid[i], resid1[0])
        assert np.array_equal(nabla[i], covariant_derivative_op(g, single, one)[0])
        assert np.array_equal(torsion[i], nijenhuis(single, one)[0])
        # a point of shape (n,) is row 0 of a batch of 1
        res0, resid0 = compatibility_residual(g, single, p)
        assert res0 == res1[0] and np.array_equal(resid0, resid1[0])
        assert np.array_equal(compute_L(g, gbar, p), lv1[0])
        # and the per-point loop it replaced gives the same bits
        gv, dgv = g.value_and_derivative(p)
        gbv, dgbv = gbar.value_and_derivative(p)
        want_lv, want_dl = _reference_pair_tensor(gv, gbv, dgv, dgbv)
        assert np.array_equal(lv[i], want_lv) and np.array_equal(dl[i], want_dl)
        want_res, want_resid = _reference_residual(g, want_lv, want_dl, p)
        assert res[i] == want_res and np.array_equal(resid[i], want_resid)


def test_l_self_adjointness(corpus):
    for name, (g, gbar) in corpus.items():
        L = l_tensor_field(g, gbar)
        for p in sample_points(g.chart, 20, seed=3):
            gl = g.value(p) @ L.value(p)
            assert frob(gl - gl.T) <= 1e-9 * (1.0 + frob(gl)), name


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_identity():
    chart, g = euclidean_chart(2)
    L = OperatorField.constant(chart, np.eye(2))
    assert np.allclose(reconstruct_gbar(g, L, (0.1, 0.2)), g.value((0.1, 0.2)))


def test_reconstruct_frozen_diag():
    chart, g = euclidean_chart(2)
    L = OperatorField.constant(chart, np.diag([2.0, 5.0]))
    gb = reconstruct_gbar(g, L, (0.0, 0.0))
    assert np.allclose(gb, np.diag([1.0 / 20.0, 1.0 / 50.0]))


def test_reconstruct_roundtrip_indefinite():
    chart, _ = euclidean_chart(2)
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "-1"]])
    gbar = MetricField.from_exprs(chart, [["2", "0"], ["0", "-1"]])
    lv = compute_L(g, gbar, (0.0, 0.0))
    L = OperatorField.constant(chart, lv)
    gb = reconstruct_gbar(g, L, (0.0, 0.0))
    # reconstruction returns the partner up to an overall constant factor
    want = gbar.value((0.0, 0.0))
    c = gb[0, 0] / want[0, 0]
    assert np.allclose(gb, c * want)
    lv2 = compute_L(g, MetricField.from_function(chart, lambda p: gb), (0.0, 0.0))
    assert np.allclose(lv2, lv)


def test_reconstruct_singular_raises():
    chart, g = euclidean_chart(2)
    L = OperatorField.constant(chart, np.diag([1.0, 0.0]))
    with pytest.raises(SingularL):
        reconstruct_gbar(g, L, (0.0, 0.0))


# ---------------------------------------------------------------------------
# compatibility residual


def test_residual_conformal_zero():
    chart, g = euclidean_chart(2)
    gbar = MetricField.from_exprs(chart, [["0.125", "0"], ["0", "0.125"]])
    L = l_tensor_field(g, gbar)
    res, arr = compatibility_residual(g, L, (0.1, 0.3))
    assert res <= 1e-14
    assert arr.shape == (2, 2, 2)


def test_residual_corpus_below_1e9(corpus):
    g, gbar = corpus["lc2_sin"]
    L = l_tensor_field(g, gbar)
    for p in sample_points(g.chart, 100, seed=42):
        res, _ = compatibility_residual(g, L, p)
        assert res <= 1e-9


def test_residual_negative_control(negatives):
    g, gbar = negatives["neg2_exp"]
    L = l_tensor_field(g, gbar)
    worst = max(
        compatibility_residual(g, L, p)[0]
        for p in sample_points(g.chart, 30, seed=42)
    )
    assert worst > 0.1


def test_residual_incompatible_diagonal_operator():
    chart, g = euclidean_chart(2)
    L = OperatorField.from_exprs(chart, [["x0", "0"], ["0", "x1"]])
    res, _ = compatibility_residual(g, L, (0.2, 0.3))
    assert res > 0.1


# ---------------------------------------------------------------------------
# operator-function rescaling


def test_rescale_constant_one_returns_same_objects(corpus):
    g, gbar = corpus["lc2_sin"]
    gf, gbf = topalov_sinjukov(g, gbar, ScalarFunction.one())
    assert gf is g and gbf is gbar


def test_rescale_by_z_keeps_compatibility(corpus):
    g, gbar = corpus["lc2_sin"]
    gf, gbf = topalov_sinjukov(g, gbar, ScalarFunction.identity())
    Lf = l_tensor_field(gf, gbf)
    for p in sample_points(g.chart, 30, seed=42):
        res, _ = compatibility_residual(gf, Lf, p)
        assert res <= 1e-5


def test_rescale_by_reciprocal_keeps_compatibility(corpus):
    g, gbar = corpus["lc2_sin"]
    f = ScalarFunction.reciprocal(6.0)  # outside the spectrum hull {1..2}
    gf, gbf = topalov_sinjukov(g, gbar, f)
    Lf = l_tensor_field(gf, gbf)
    for p in sample_points(g.chart, 20, seed=7):
        res, _ = compatibility_residual(gf, Lf, p)
        assert res <= 1e-5


def test_rescale_computes_f_of_l_once_per_point(corpus, monkeypatch):
    # g f(L) and gbar f(L) share one f(L) per point: value and derivative
    # of both at a fresh point take 2n + 1 matrix functions, not 2 (2n + 1)
    from geoequiv.equiv import core

    g, gbar = corpus["lc2_sin"]
    gf, gbf = topalov_sinjukov(g, gbar, ScalarFunction.exponential())
    calls = []
    real = core.matrix_function
    monkeypatch.setattr(core, "matrix_function",
                        lambda a, f: calls.append(f) or real(a, f))
    p = np.array([0.11, -0.07])
    gf.value_and_derivative(p)
    gbf.value_and_derivative(p)
    assert len(calls) == 2 * g.chart.dim + 1


def test_rescale_zero_in_image(corpus):
    g, gbar = corpus["lc2_sin"]
    # f(z) = z - 2 vanishes on the second eigenvalue branch
    with pytest.raises(ZeroInImage):
        topalov_sinjukov(g, gbar, ScalarFunction.polynomial([-2.0, 1.0]))


# ---------------------------------------------------------------------------
# characteristic-polynomial differential identity


def test_charpoly_differential_constant_operator():
    chart, _ = euclidean_chart(2)
    L = OperatorField.constant(chart, np.diag([2.0, 5.0]))
    resid = charpoly_differential_residual(L, 7.0, (0.1, 0.2))
    assert np.allclose(resid, 0.0, atol=1e-12)


def test_charpoly_differential_diagonal_closed_form():
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)), (0.0, 0.0))
    L = OperatorField.from_exprs(chart, [["x0", "0"], ["0", "2"]])
    p = np.array([0.3, 0.0])
    t = 7.0
    resid = charpoly_differential_residual(L, t, p)
    # closed form: chi(t) = (t - x0)(t - 2), so the identity holds exactly
    chi_t = (t - 0.3) * (t - 2.0)
    assert np.linalg.norm(resid) <= 1e-6 * (1.0 + abs(chi_t))


def test_charpoly_differential_corpus(corpus):
    g, gbar = corpus["lc3_simple"]
    L = l_tensor_field(g, gbar)
    rng = np.random.default_rng(5)
    for p in sample_points(g.chart, 5, seed=11):
        for t in rng.uniform(-2.0, 8.0, size=5):
            resid = charpoly_differential_residual(L, float(t), p)
            assert np.linalg.norm(resid) <= 1e-5


# ---------------------------------------------------------------------------
# projective deformation


def test_deformation_killing_field_zero():
    chart, g = euclidean_chart(2)
    v = VectorField(chart, ["-x1", "x0"])
    lt = projective_deformation(v, g)
    for p in sample_points(chart, 10, seed=3):
        assert frob(lt.value(p)) <= 1e-12


def test_deformation_euler_field_constant():
    chart, g = euclidean_chart(2)
    v = VectorField(chart, ["x0", "x1"])
    lt = projective_deformation(v, g)
    want = (2.0 / 3.0) * np.eye(2)
    assert np.allclose(lt.value((0.2, -0.1)), want)


def _sphere_gnomonic_metric():
    # constant-curvature metric in central-projection coordinates; its
    # geodesics are straight lines, so translations are projective fields
    chart = Chart(2, ((-0.4, 0.4), (-0.4, 0.4)), (0.1, 0.05))
    d = "(1 + x0^2 + x1^2)"
    rows = [
        [f"(1 + x1^2)/{d}^2", f"-(x0*x1)/{d}^2"],
        [None, f"(1 + x0^2)/{d}^2"],
    ]
    rows[1] = [rows[0][1], rows[1][1]]
    return chart, MetricField.from_exprs(chart, rows)


def test_deformation_projective_translation_on_sphere():
    chart, g = _sphere_gnomonic_metric()
    v = VectorField(chart, ["1", "0"])
    lt = projective_deformation(v, g)
    assert frob(lt.value(chart.base_point)) > 1e-3  # genuinely nontrivial
    shifted, c = shift_to_nondegenerate(lt)
    for p in sample_points(chart, 30, seed=42):
        res, _ = compatibility_residual(g, shifted, p)
        assert res <= 1e-5


def test_shift_to_nondegenerate_reports_constant():
    chart, g = euclidean_chart(2)
    L = OperatorField.constant(chart, np.diag([1.0, 0.0]))
    shifted, c = shift_to_nondegenerate(L)
    assert c > 0
    assert np.allclose(shifted.value((0.0, 0.0)), np.diag([1.0 + c, c]))
    L2 = OperatorField.constant(chart, np.diag([1.0, 2.0]))
    same, c2 = shift_to_nondegenerate(L2)
    assert c2 == 0.0 and same is L2
