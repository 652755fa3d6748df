"""Eigenvalue-group tracking, admissible factorizations and spectral
projector fields."""

import itertools

import numpy as np
import pytest

from geoequiv.equiv import (
    admissible_factorization,
    l_tensor_field,
    projectors,
)
from geoequiv.equiv.factorization import (_greedy_match, cofactors,
                                          factors_and_derivatives,
                                          inverse_and_derivative)
from geoequiv.errors import AdmissibilityViolation, ConjugationViolation, DomainError
from geoequiv.fields import Chart, OperatorField, sample_points
from geoequiv.smallmat import MonicPoly, char_poly, frob, matrix_function

from conftest import build_pair, hermite_indicator


def test_constant_diagonal_factors():
    chart = Chart(2, ((-0.5, 0.5),) * 2, (0.0, 0.0))
    L = OperatorField.constant(chart, np.diag([2.0, 5.0]))
    fact = admissible_factorization(L, ((0,), (1,)))
    assert fact.r == 1
    for p in sample_points(chart, 10, seed=1):
        chi1, chi2 = fact.chi_at(p)
        assert np.allclose(chi1.coeffs, [-2.0])
        assert np.allclose(chi2.coeffs, [-5.0])


def test_tracked_smooth_coefficients():
    chart = Chart(2, ((-0.5, 0.5),) * 2, (0.0, 0.0))
    L = OperatorField.from_exprs(
        chart, [["1 + 0.1*sin(x0)", "0"], ["0", "2"]]
    )
    fact = admissible_factorization(L, ((0,), (1,)))
    for p in sample_points(chart, 20, seed=2):
        chi1, _ = fact.chi_at(p)
        lam = 1.0 + 0.1 * np.sin(p[0])
        assert abs(chi1.coeffs[0] + lam) <= 1e-10


def test_grouping_splitting_conjugate_pair_rejected():
    chart = Chart(3, ((-0.5, 0.5),) * 3, (0.0, 0.0, 0.0))
    m = np.zeros((3, 3))
    m[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    m[2, 2] = 3.0
    L = OperatorField.constant(chart, m)
    # canonical order: -i, +i, 3; splitting {-i} from {+i, 3} is invalid
    with pytest.raises(ConjugationViolation):
        admissible_factorization(L, ((0,), (1, 2)))
    # keeping the pair together is fine
    fact = admissible_factorization(L, ((0, 1), (2,)))
    chi1, chi2 = fact.chi_at((0.1, 0.0, 0.0))
    assert np.allclose(chi1.coeffs, [1.0, 0.0])  # t^2 + 1
    assert np.allclose(chi2.coeffs, [-3.0])


def test_grouping_validation_errors():
    chart = Chart(2, ((-0.5, 0.5),) * 2, (0.0, 0.0))
    L = OperatorField.constant(chart, np.diag([2.0, 5.0]))
    with pytest.raises(AdmissibilityViolation):
        admissible_factorization(L, ((), (0, 1)))
    with pytest.raises(AdmissibilityViolation):
        admissible_factorization(L, ((0,), (0, 1)))
    Lc = OperatorField.constant(chart, 2.0 * np.eye(2))
    with pytest.raises(AdmissibilityViolation):
        admissible_factorization(Lc, ((0,), (1,)))


def test_base_point_group_errors_carry_their_point():
    # the base point is checked by the tracker's own step check, so its
    # errors name the point and, for a gap, the gap as their witness
    chart = Chart(3, ((-0.5, 0.5),) * 3, (0.1, -0.2, 0.3))
    m = np.zeros((3, 3))
    m[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    m[2, 2] = 3.0
    with pytest.raises(ConjugationViolation) as info:
        admissible_factorization(OperatorField.constant(chart, m), ((0,), (1, 2)))
    assert np.array_equal(info.value.point, chart.base_point)
    close = OperatorField.constant(chart, np.diag([2.0, 5.0, 5.0 + 1e-8]))
    with pytest.raises(AdmissibilityViolation) as info:
        admissible_factorization(close, ((0, 1), (2,)))
    assert np.array_equal(info.value.point, chart.base_point)
    assert info.value.witness == pytest.approx(1e-8, rel=1e-6)


def test_gap_collapse_inside_box_detected():
    chart = Chart(1, ((-1.0, 1.0),), (-0.9,))
    # eigenvalues 1 + x0 and 1 - x0 collide at x0 = 0
    L = OperatorField.from_exprs(chart, [["1 + x0"]])
    L2 = OperatorField.from_exprs(
        Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (-0.9, 0.0)),
        [["1 + x0", "0"], ["0", "1 - x0"]],
    )
    fact = admissible_factorization(L2, ((0,), (1,)))
    with pytest.raises(AdmissibilityViolation):
        fact.groups_at((0.9, 0.0))


def test_projector_simple_diag():
    chart = Chart(3, ((-0.5, 0.5),) * 3, (0.0, 0.0, 0.0))
    L = OperatorField.constant(chart, np.diag([1.0, 1.0, 5.0]))
    fact = admissible_factorization(L, ((0, 1), (2,)))
    p1, p2 = projectors(L, fact)
    assert np.allclose(p1.value((0, 0, 0)), np.diag([1.0, 1.0, 0.0]), atol=1e-10)
    assert np.allclose(p2.value((0, 0, 0)), np.diag([0.0, 0.0, 1.0]), atol=1e-10)


def test_projector_annihilated_by_own_factor_jordan():
    chart = Chart(3, ((-0.5, 0.5),) * 3, (0.0, 0.0, 0.0))
    m = np.zeros((3, 3))
    m[:2, :2] = [[2.0, 1.0], [0.0, 2.0]]
    m[2, 2] = 5.0
    L = OperatorField.constant(chart, m)
    fact = admissible_factorization(L, ((0, 1), (2,)))
    p1, _ = projectors(L, fact)
    chi1, _ = fact.chi_at((0, 0, 0))
    pv = p1.value((0, 0, 0))
    assert frob(chi1.eval_matrix(m) @ pv) <= 1e-9
    assert frob(pv @ pv - pv) <= 1e-9


def test_projectors_partition_of_unity_on_corpus(corpus):
    g, gbar = corpus["lc3_mixed"]
    L = l_tensor_field(g, gbar)
    fact = admissible_factorization(L, ((0,), (1, 2)))
    p1, p2 = projectors(L, fact)
    for p in sample_points(g.chart, 15, seed=4):
        s = p1.value(p) + p2.value(p)
        assert frob(s - np.eye(3)) <= 1e-9
        # orthogonality in both metrics
        for m in (g.value(p), gbar.value(p)):
            assert frob(p1.value(p).T @ m @ p2.value(p)) <= 1e-8 * (1 + frob(m))


def test_factor_product_matches_charpoly(corpus):
    from geoequiv.smallmat import char_poly

    g, gbar = corpus["lc3_simple"]
    L = l_tensor_field(g, gbar)
    fact = admissible_factorization(L, ((0, 1), (2,)))
    for p in sample_points(g.chart, 10, seed=6):
        chi1, chi2 = fact.chi_at(p)
        prod = chi1.multiply(chi2)
        full = char_poly(L.value(p))
        assert np.allclose(prod.coeffs, full.coeffs, atol=1e-9)


def _greedy_reference(prev, cur):
    # repeated global minimum over free rows and columns, row-major first
    # on ties
    n = len(prev)
    dist = np.abs(prev[:, None] - cur[None, :])
    perm, max_d = [-1] * n, 0.0
    free_r, free_c = set(range(n)), set(range(n))
    for _ in range(n):
        d, i, j = min((dist[i, j], i, j) for i in free_r for j in free_c)
        perm[i] = j
        free_r.discard(i)
        free_c.discard(j)
        max_d = max(max_d, d)
    return perm, max_d


def test_greedy_match_matches_brute_force_with_ties():
    rng = np.random.default_rng(3)
    for trial in range(400):
        n = 1 + trial % 8
        if trial % 2:
            # small integers: many tied distances
            prev = rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n)
            cur = rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n)
        else:
            prev = rng.normal(size=n) + 1j * rng.normal(size=n)
            cur = prev + 0.1 * rng.normal(size=n)
        perm, max_d = _greedy_match(prev, cur)
        want_perm, want_d = _greedy_reference(prev, cur)
        assert perm.tolist() == want_perm
        assert max_d == want_d


def _three_group_operator():
    chart = Chart(3, ((-0.5, 0.5),) * 3, (0.0, 0.0, 0.0))
    return chart, OperatorField.from_exprs(chart, [
        ["1 + 0.1*sin(x0)", "0.05*x2", "0"],
        ["0", "3 + 0.1*x1", "0"],
        ["0.02*x1", "0", "6 - 0.1*x2"],
    ])


def test_three_group_factorization_and_projectors():
    chart, L = _three_group_operator()
    fact = admissible_factorization(L, ((0,), (1,), (2,)))
    assert fact.r == 1
    projs = projectors(L, fact)
    assert len(projs) == 3
    for p in sample_points(chart, 8, seed=5):
        lv = L.value(p)
        chis = fact.chi_at(p)
        assert len(chis) == 3 and len(fact.groups_at(p)) == 3
        prod = chis[0].multiply(chis[1]).multiply(chis[2])
        assert np.allclose(prod.coeffs, char_poly(lv).coeffs, atol=1e-9)
        pvs = [proj.value(p) for proj in projs]
        assert frob(sum(pvs) - np.eye(3)) <= 1e-9
        for chi, pv in zip(chis, pvs):
            assert frob(pv @ pv - pv) <= 1e-9
            assert frob(chi.eval_matrix(lv) @ pv) <= 1e-9


def _jordan_operator(k, seed=0):
    # Q diag(J_k(0.5), 3, 5) Q^-1, rounded, with its exact cluster projector
    m = np.diag([0.5] * k + [3.0, 5.0]) + np.diag([1.0] * (k - 1) + [0.0, 0.0], 1)
    q = np.eye(k + 2) + 0.3 * np.random.default_rng(seed).normal(size=(k + 2,) * 2)
    qinv = np.linalg.inv(q)
    chart = Chart(k + 2, ((-0.4, 0.4),) * (k + 2), (0.0,) * (k + 2))
    exact = q @ np.diag([1.0] * k + [0.0, 0.0]) @ qinv
    return OperatorField.constant(chart, q @ m @ qinv), exact


def _complex_pair_operator():
    chart = Chart(3, ((-0.4, 0.4),) * 3, (0.0, 0.0, 0.0))
    return OperatorField.from_exprs(chart, [
        ["1 + 0.1*x1", "-1", "0.05*x2"],
        ["1 + 0.1*x0", "1", "0"],
        ["0", "0.02*x0", "4"],
    ])


def _corpus_operator(name):
    g, gbar = build_pair(name)
    return l_tensor_field(g, gbar)


INDICATOR_CASES = {
    "lc2_sin": (lambda: _corpus_operator("lc2_sin"), ((0,), (1,))),
    "lc3_mixed": (lambda: _corpus_operator("lc3_mixed"), ((0,), (1, 2))),
    "lc3_sig": (lambda: _corpus_operator("lc3_sig"), ((0, 1), (2,))),
    "lc4_simple-4": (lambda: _corpus_operator("lc4_simple"),
                     ((0,), (1,), (2,), (3,))),
    "lc4_block3-2": (lambda: _corpus_operator("lc4_block3"), ((0,), (1, 2, 3))),
    "three-groups": (lambda: _three_group_operator()[1], ((0,), (1,), (2,))),
    "complex-pair": (_complex_pair_operator, ((0, 1), (2,))),
    **{f"jordan-{k}": (lambda k=k: _jordan_operator(k)[0],
                       (tuple(range(k)), (k,), (k + 1,))) for k in (2, 3, 4)},
}


@pytest.mark.parametrize("case", sorted(INDICATOR_CASES))
def test_projectors_match_the_hermite_indicator(case):
    # W_i(L) (sum_j W_j(L))^-1 against the indicator of group i through the
    # Hermite calculus, to 1e-12 relative in the Frobenius norm
    make, grouping = INDICATOR_CASES[case]
    L = make()
    fact = admissible_factorization(L, grouping)
    projs = projectors(L, fact)
    assert len(projs) == len(grouping)
    for p in sample_points(L.chart, 4, seed=7):
        groups = fact.groups_at(p)
        for i, proj in enumerate(projs):
            rest = np.concatenate(groups[:i] + groups[i + 1:])
            want = matrix_function(L.value(p), hermite_indicator(groups[i], rest))
            assert frob(proj.value(p) - want) <= 1e-12 * frob(want), (case, i)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_jordan_cluster_projector_matches_the_exact_one(k):
    L, exact = _jordan_operator(k)
    fact = admissible_factorization(L, (tuple(range(k)), (k,), (k + 1,)))
    p0 = L.chart.base_point
    got = projectors(L, fact)[0].value(p0)
    assert frob(got - exact) <= 1e-12 * frob(exact)


def test_cofactors_are_the_products_of_the_other_factors():
    chart, L = _three_group_operator()
    fact = admissible_factorization(L, ((0,), (1,), (2,)))
    p = (0.1, -0.2, 0.3)
    c1, c2, c3 = fact.chi_at(p)
    w1, w2, w3 = cofactors((c1, c2, c3))
    assert w1 == c2.multiply(c3)
    assert w2 == c1.multiply(c3)
    assert w3 == c1.multiply(c2)
    two = admissible_factorization(L, ((0,), (1, 2)))
    assert cofactors(two.chi_at(p)) == tuple(reversed(two.chi_at(p)))


def test_three_group_validation_errors():
    chart = Chart(3, ((-0.5, 0.5),) * 3, (0.0, 0.0, 0.0))
    L = OperatorField.constant(chart, np.diag([2.0, 5.0, 7.0]))
    for grouping in (((0, 1, 2),), ((0,), (), (1, 2)), ((0,), (1,), (1, 2)),
                     ((0,), (1,))):
        with pytest.raises(AdmissibilityViolation):
            admissible_factorization(L, grouping)
    # the closest pair of groups is the last two
    close = OperatorField.constant(chart, np.diag([2.0, 5.0, 5.0 + 1e-8]))
    with pytest.raises(AdmissibilityViolation):
        admissible_factorization(close, ((0,), (1,), (2,)))
    m = np.zeros((3, 3))
    m[0, 0] = 3.0
    m[1:, 1:] = [[0.0, -1.0], [1.0, 0.0]]  # canonical order: -i, +i, 3
    rot = OperatorField.constant(chart, m)
    with pytest.raises(ConjugationViolation):
        admissible_factorization(rot, ((0,), (1,), (2,)))
    admissible_factorization(rot, ((0, 1), (2,)))


def _crossing_in_group_operator():
    # group 0 holds 1 + x0 and the pair 1 +- i sqrt(1 - 0.1*x1): their real
    # parts cross at x0 = 0, so the canonical order within the group changes
    chart = Chart(4, ((-0.5, 0.5),) * 4, (-0.3, 0.0, 0.0, 0.0))
    return OperatorField.from_exprs(chart, [
        ["1 + x0", "0", "0", "0"],
        ["0", "1", "-1 + 0.1*x1", "0"],
        ["0", "1", "1", "0"],
        ["0", "0", "0", "5 + 0.1*x2"],
    ])


ORDER_CASES = {
    **{case: INDICATOR_CASES[case]
       for case in ("lc3_mixed", "three-groups", "complex-pair", "jordan-2")},
    "crossing-in-group": (_crossing_in_group_operator, ((0, 1, 2), (3,))),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_factors_do_not_depend_on_the_tracking_order(case):
    # each point is tracked from the nearest point tracked before it, so
    # the paths differ with the order; the factor bits must not
    make, grouping = ORDER_CASES[case]
    L = make()
    pts = sample_points(L.chart, 12, seed=26)
    bits = []
    for order in (range(12), range(11, -1, -1), np.random.default_rng(0).permutation(12)):
        fact = admissible_factorization(L, grouping)
        for i in order:
            fact.chi_at(pts[i])
        bits.append([[np.array(chi.coeffs).tobytes() for chi in fact.chi_at(p)]
                     for p in pts])
        # each group holds eigenvalues of L(p) itself, in canonical order
        for p in pts:
            groups = fact.groups_at(p)
            for grp in groups:
                assert grp.tobytes() == grp[np.lexsort((grp.imag, grp.real))].tobytes()
            w = np.linalg.eigvals(L.value(p))
            assert (np.sort_complex(np.concatenate(groups)).tobytes()
                    == np.sort_complex(w).tobytes())
    assert bits[0] == bits[1] == bits[2]


def test_gap_collapse_is_detected_in_every_tracking_order():
    # the groups 1 + x0 and 1 - x0 meet on x0 = 0; points tracked before
    # (0.9, 0), on either side, must not let it pass
    L2 = OperatorField.from_exprs(
        Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (-0.9, 0.0)),
        [["1 + x0", "0"], ["0", "1 - x0"]],
    )
    pts = [(-0.5, 0.0), (0.5, 0.0), (-0.2, 0.3), (0.9, 0.0)]
    for order in itertools.permutations(range(4)):
        fact = admissible_factorization(L2, ((0,), (1,)))
        for i in order:
            if i == 3:
                with pytest.raises(AdmissibilityViolation):
                    fact.groups_at(pts[i])
                continue
            try:
                fact.groups_at(pts[i])
            except AdmissibilityViolation:
                pass


def test_a_path_stops_at_the_first_error_of_its_walk():
    # L = [[x0, s], [0, 1]] with s = 1e-3 sqrt(1.5 - x0): the groups {x0}
    # and {1} meet at x0 = 1, a step of the 128-step path to x0 = 2, and L
    # has no value past x0 = 1.5.  The batch of a try's path meets the
    # domain error; the walk meets the admissibility violation first.
    chart = Chart(2, ((-0.5, 2.5), (-0.5, 0.5)), (0.0, 0.0))
    L = OperatorField.from_exprs(chart, [["x0", "0.001*sqrt(1.5 - x0)"], ["0", "1"]])
    qs = np.array([[2.0 * k / 128, 0.0] for k in range(1, 129)])
    with pytest.raises(DomainError):
        L.value(qs)
    fact = admissible_factorization(L, ((0,), (1,)))
    with pytest.raises(AdmissibilityViolation) as info:
        fact.groups_at((2.0, 0.0))
    assert np.array_equal(info.value.point, [1.0, 0.0])


class _SharedRoot:
    # two factors t - 2: not coprime
    def chi_at(self, p):
        return MonicPoly((-2.0,)), MonicPoly((-2.0,))


def test_singular_solves_are_admissibility_violations():
    p = np.array([0.1, 0.2])
    lv, dl = np.diag([2.0, 2.0]), np.ones((2, 2, 2))
    for solve in (lambda: factors_and_derivatives(_SharedRoot(), p, lv, dl),
                  lambda: inverse_and_derivative(np.zeros((2, 2)), dl, p)):
        with pytest.raises(AdmissibilityViolation) as info:
            solve()
        assert np.array_equal(info.value.point, p)
