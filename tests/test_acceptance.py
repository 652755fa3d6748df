"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (visible with -s); a
failing criterion fails its test.  Tolerances follow the ladder: 1e-9 for
dual-exact chains, 1e-5 after one finite-difference layer, 1e-4 after
two.
"""

import json
import subprocess
import sys

import numpy as np

from geoequiv.equiv import (
    GlueInput,
    admissible_factorization,
    block_condition_residuals,
    charpoly_differential_residual,
    compatibility_residual,
    glue,
    glue_fields,
    l_tensor_field,
    levi_civita_pair,
    projective_deformation,
    shift_to_nondegenerate,
    split,
    topalov_sinjukov,
)
from geoequiv.equiv.factorization import _paired_eigvals
from geoequiv.equiv.splitglue import _base_clusters
from geoequiv.fields import (
    Chart,
    MetricField,
    OperatorField,
    VectorField,
    christoffel,
    nijenhuis,
    restrict,
    sample_points,
)
from geoequiv.oracle import geodesic_defect_report
from geoequiv.smallmat import ScalarFunction, char_poly, frob, matrix_function

from conftest import CORPUS_SPECS, SPLITTABLE

TOL_DUAL = 1e-9
TOL_FD1 = 1e-5
TOL_FD2 = 1e-4
MARGIN = 1e3


def _first_vs_rest_grouping(L):
    """Split the base spectrum into its first cluster versus the rest."""
    values = _paired_eigvals(L.value(L.chart.base_point))
    clusters = _base_clusters(values, 1e-6 * (1.0 + np.max(np.abs(values))))
    first = set(clusters[0])
    idx1 = tuple(sorted(first))
    idx2 = tuple(i for i in range(len(values)) if i not in first)
    return idx1, idx2


def _f_family(c=10.0):
    return (
        ScalarFunction.identity(),
        ScalarFunction.polynomial([0.0, 0.0, 1.0]),
        ScalarFunction.reciprocal(c),
        ScalarFunction.exponential(),
    )


def _f_of_l_field(L, f):
    chart = L.chart
    return OperatorField.from_function(
        chart, lambda p: matrix_function(L.value(p), f)
    )


# ---------------------------------------------------------------------------


def test_ac1_corpus_soundness(corpus, negatives):
    assert len(corpus) >= 10
    dims = {g.chart.dim for g, _ in corpus.values()}
    assert dims == {2, 3, 4}
    mixed = any(spec.blocks and spec.simple for spec in CORPUS_SPECS.values())
    assert mixed

    for name, (g, gbar) in corpus.items():
        L = l_tensor_field(g, gbar)
        worst = max(
            compatibility_residual(g, L, p)[0]
            for p in sample_points(g.chart, 100, seed=42)
        )
        assert worst <= TOL_DUAL, f"{name}: residual {worst:.3e}"
        rep = geodesic_defect_report(g, gbar, trajectories=20, seed=42, T=0.5)
        assert rep.max_defect <= TOL_FD1, f"{name}: defect {rep.max_defect:.3e}"

    for name, (g, gbar) in negatives.items():
        L = l_tensor_field(g, gbar)
        worst = max(
            compatibility_residual(g, L, p)[0]
            for p in sample_points(g.chart, 100, seed=42)
        )
        assert worst > MARGIN * TOL_DUAL, f"{name}: residual margin {worst:.3e}"
        rep = geodesic_defect_report(g, gbar, trajectories=20, seed=42, T=0.5)
        assert rep.max_defect > MARGIN * TOL_FD1, (
            f"{name}: defect margin {rep.max_defect:.3e}"
        )
    print("AC1 corpus soundness: PASS")


def test_ac2_torsion_vanishing(corpus):
    for name, (g, gbar) in corpus.items():
        L = l_tensor_field(g, gbar)
        for p in sample_points(g.chart, 30, seed=1):
            lv, dl = L.value_and_derivative(p)
            bound = 1e-6 * (1.0 + frob(dl))
            assert frob(nijenhuis(L, p)) <= bound, name
        for f in _f_family():
            fl = _f_of_l_field(L, f)
            for p in sample_points(g.chart, 8, seed=2):
                assert frob(nijenhuis(fl, p)) <= TOL_FD2, (name, f.name)
    print("AC2 torsion of L and f(L): PASS")


def test_ac3_splitting(corpus):
    assert len(SPLITTABLE) >= 6
    for name in SPLITTABLE:
        g, gbar = corpus[name]
        L = l_tensor_field(g, gbar)
        fact = admissible_factorization(L, _first_vs_rest_grouping(L))
        sr = split(g, gbar, fact)
        for p in sample_points(g.chart, 12, seed=3):
            hv = sr.h.value(p)
            hbv = sr.hbar.value(p)
            assert frob(hv - hv.T) <= 1e-9 * (1 + frob(hv)), name
            assert abs(np.linalg.det(hv)) > 1e-10, name
            assert abs(np.linalg.det(hbv)) > 1e-10, name
            p1 = sr.projectors[0].value(p)
            p2 = sr.projectors[1].value(p)
            for m in (g.value(p), gbar.value(p)):
                assert frob(p1.T @ m @ p2) <= 1e-8 * (1 + frob(m)), name
            pv, dp = sr.projectors[0].value_and_derivative(p)
            for metric in (sr.h, sr.hbar):
                gamma = christoffel(metric, p)
                nabla = (
                    np.einsum("kij->ijk", dp)
                    + np.einsum("iks,sj->ijk", gamma, pv)
                    - np.einsum("skj,is->ijk", gamma, pv)
                )
                assert frob(nabla) <= TOL_FD2, name
            q, _ = np.linalg.qr(p1[:, np.abs(np.diag(p1)) > 0.5])
            lr = q.T @ L.value(p) @ q
            chi1, _ = fact.chi_at(p)
            dev = np.max(np.abs(np.array(char_poly(lr).coeffs) - chi1.coeffs))
            assert dev <= 1e-8, name
    print("AC3 splitting construction: PASS")


def test_ac4_bracket_integrability(corpus):
    h = 1e-5
    for name in SPLITTABLE:
        g, gbar = corpus[name]
        n = g.chart.dim
        L = l_tensor_field(g, gbar)
        fact = admissible_factorization(L, _first_vs_rest_grouping(L))
        sr = split(g, gbar, fact)
        for p in sample_points(g.chart, 5, seed=4):
            p1v = sr.projectors[0].value(p)
            p2v = sr.projectors[1].value(p)
            dp1 = np.empty((n, n, n))
            for k in range(n):
                pp, pm = p.copy(), p.copy()
                pp[k] += h
                pm[k] -= h
                dp1[k] = (sr.projectors[0].value(pp) - sr.projectors[0].value(pm)) / (2 * h)
            for i in range(n):
                for j in range(i + 1, n):
                    u, v = p1v[:, i], p1v[:, j]
                    br = np.einsum("s,sk->k", u, dp1[:, :, j]) - np.einsum(
                        "s,sk->k", v, dp1[:, :, i]
                    )
                    assert np.linalg.norm(p2v @ br) <= TOL_FD1, name
    print("AC4 distribution integrability proxy: PASS")


def _one_dim_factor(lam_expr, half=0.4):
    chart = Chart(1, ((-half, half),), (0.0,))
    h = MetricField.from_exprs(chart, [["1"]])
    hbar = MetricField.from_exprs(chart, [[f"1/(({lam_expr})^2)"]])
    return h, hbar, None


def _weyl_factor(lam, rows, half=0.4, indefinite=False):
    k = len(rows)
    chart = Chart(k, ((-half, half),) * k, (0.0,) * k)
    h = MetricField.from_exprs(chart, rows)
    hbar = MetricField.from_function(chart, lambda p: h.value(p) / lam ** (k + 1))
    L = OperatorField.constant(chart, lam * np.eye(k))
    return h, hbar, L


def test_ac5_gluing():
    cases = {
        "glue_1_1": GlueInput(
            *_one_dim_factor("1 + 0.1*sin(x0)")[:2],
            *_one_dim_factor("3 + 0.1*x0")[:2],
        ),
        "glue_1_2": GlueInput(
            *_one_dim_factor("1 + 0.1*sin(x0)")[:2],
            *_weyl_factor(4.0, [["1", "0.2*x1"], [None, "1.5 + 0.1*x0^2"]])[:2],
            None,
            _weyl_factor(4.0, [["1", "0.2*x1"], [None, "1.5 + 0.1*x0^2"]])[2],
        ),
        "glue_2_2_indefinite": GlueInput(
            *_weyl_factor(2.0, [["1", "0.1*x1"], [None, "1.3"]])[:2],
            *_weyl_factor(5.0, [["1", "0"], [None, "-1 - 0.1*x0^2"]])[:2],
            _weyl_factor(2.0, [["1", "0.1*x1"], [None, "1.3"]])[2],
            _weyl_factor(5.0, [["1", "0"], [None, "-1 - 0.1*x0^2"]])[2],
        ),
    }
    saw_indefinite = False
    for name, inp in cases.items():
        g, gbar, l_direct = glue_fields(inp)
        chart = inp.product_chart
        eigs = np.linalg.eigvalsh(g.value(chart.base_point))
        if (eigs > 0).any() and (eigs < 0).any():
            saw_indefinite = True
        L = l_tensor_field(g, gbar)
        for p in sample_points(chart, 30, seed=5):
            res, _ = compatibility_residual(g, L, p)
            assert res <= TOL_FD1, f"{name}: residual {res:.3e}"
        for p in sample_points(chart, 20, seed=6):
            c1, c2, c3 = block_condition_residuals(g, inp.L1, inp.L2, p)
            assert max(c1, c2, c3) <= TOL_FD1, name
        rep = geodesic_defect_report(g, gbar, trajectories=6, seed=7, T=0.4)
        assert rep.max_defect <= TOL_FD1, f"{name}: defect {rep.max_defect:.3e}"
    assert saw_indefinite

    # split(glue(...)) with explicit factor tensors reproduces the inputs
    # up to 1e-12: realized as glue(split(pair)) on a corpus pair
    g, gbar = levi_civita_pair(CORPUS_SPECS["lc3_simple"])
    chart = g.chart
    L = l_tensor_field(g, gbar)
    fact = admissible_factorization(L, ((0,), (1, 2)))
    sr = split(g, gbar, fact)
    base = chart.base_point
    inp = GlueInput(
        restrict(sr.h, (0,), base), restrict(sr.hbar, (0,), base),
        restrict(sr.h, (1, 2), base), restrict(sr.hbar, (1, 2), base),
        restrict(L, (0,), base), restrict(L, (1, 2), base),
    )
    worst = 0.0
    for p in sample_points(chart, 25, seed=8):
        gv, gbv = glue(inp, p)
        worst = max(
            worst,
            float(np.max(np.abs(gv - g.value(p)))),
            float(np.max(np.abs(gbv - gbar.value(p)))),
        )
    assert worst <= 1e-12, f"round trip error {worst:.3e}"
    print("AC5 gluing construction: PASS")


def test_ac6_function_rescaling(corpus):
    for name, (g, gbar) in corpus.items():
        gf, gbf = topalov_sinjukov(g, gbar, ScalarFunction.one())
        assert gf is g and gbf is gbar, name
        p0 = g.chart.base_point
        assert gf.value(p0).tobytes() == g.value(p0).tobytes(), name
        for f in _f_family():
            gf, gbf = topalov_sinjukov(g, gbar, f)
            Lf = l_tensor_field(gf, gbf)
            for p in sample_points(g.chart, 15, seed=9):
                res, _ = compatibility_residual(gf, Lf, p)
                assert res <= TOL_FD1, (name, f.name, res)
    print("AC6 operator-function rescaling: PASS")


def test_ac7_charpoly_differential(corpus):
    rng = np.random.default_rng(10)
    for name, (g, gbar) in corpus.items():
        L = l_tensor_field(g, gbar)
        for p in sample_points(g.chart, 3, seed=11):
            for t in rng.uniform(-2.0, 8.0, size=5):
                resid = charpoly_differential_residual(L, float(t), p)
                assert np.linalg.norm(resid) <= TOL_FD1, (name, t)
    print("AC7 characteristic polynomial differential: PASS")


def test_ac8_projective_deformation():
    # Killing field: exact zero deformation
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)), (0.0, 0.0))
    g_e = MetricField.from_exprs(chart, [["1", "0"], [None, "1"]])
    rot = VectorField(chart, ["-x1", "x0"])
    lt = projective_deformation(rot, g_e)
    for p in sample_points(chart, 20, seed=12):
        assert frob(lt.value(p)) <= 1e-12

    # affine (homothety) field on the flat metric
    euler = VectorField(chart, ["x0", "x1"])
    lt_e, c_e = shift_to_nondegenerate(projective_deformation(euler, g_e))
    for p in sample_points(chart, 20, seed=13):
        res, _ = compatibility_residual(g_e, lt_e, p)
        assert res <= TOL_FD1

    # genuinely projective field: translation in central-projection
    # coordinates of a constant-curvature metric (geodesics are lines)
    chart_s = Chart(2, ((-0.4, 0.4), (-0.4, 0.4)), (0.1, 0.05))
    d = "(1 + x0^2 + x1^2)"
    g_s = MetricField.from_exprs(
        chart_s,
        [[f"(1 + x1^2)/{d}^2", f"-(x0*x1)/{d}^2"], [None, f"(1 + x0^2)/{d}^2"]],
    )
    v = VectorField(chart_s, ["1", "0"])
    lt_raw = projective_deformation(v, g_s)
    assert frob(lt_raw.value(chart_s.base_point)) > 1e-3
    lt_s, c_s = shift_to_nondegenerate(lt_raw)
    for p in sample_points(chart_s, 20, seed=14):
        res, _ = compatibility_residual(g_s, lt_s, p)
        assert res <= TOL_FD1
    print("AC8 projective deformation: PASS")


def test_ac9_determinism(tmp_path):
    scene = {
        "dim": 2,
        "box": [[-0.5, 0.5], [-0.5, 0.5]],
        "base_point": [0.0, 0.0],
        "g": [["2 - (1 + 0.1*sin(x0))", "0"], [None, "2 - (1 + 0.1*sin(x0))"]],
        "gbar": [
            ["(2 - (1 + 0.1*sin(x0)))/((1 + 0.1*sin(x0))^2*2)", "0"],
            [None, "(2 - (1 + 0.1*sin(x0)))/(4*(1 + 0.1*sin(x0)))"],
        ],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    outputs = []
    for _ in range(2):
        run = subprocess.run(
            [sys.executable, "-m", "geoequiv.cli", "check", str(path),
             "--points", "50", "--seed", "42"],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and outputs[0].strip()
    print("AC9 deterministic reports: PASS")
