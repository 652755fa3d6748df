"""Dense linear algebra: characteristic polynomials, eigen grouping and
the Hermite functional calculus."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoequiv.errors import (
    DimensionCap,
    DomainViolation,
    NotConjugationClosed,
    SymmetryViolation,
)
from geoequiv.smallmat import (
    MonicPoly,
    ScalarFunction,
    Spectrum,
    char_poly,
    eigen,
    frob,
    matrix_function,
    unpaired_conjugate,
)

from conftest import hermite_indicator


def _rng(seed):
    return np.random.default_rng(seed)


def small_matrix(seed, n, scale=1.0):
    return scale * _rng(seed).standard_normal((n, n))


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_char_poly_diagonal():
    p = char_poly(np.diag([2.0, 5.0]))
    assert p.degree == 2
    # t^2 - 7 t + 10
    assert np.allclose(p.coeffs, [10.0, -7.0])


def test_char_poly_identity_dim3():
    p = char_poly(np.eye(3))
    # (t - 1)^3 = t^3 - 3 t^2 + 3 t - 1
    assert np.allclose(p.coeffs, [-1.0, 3.0, -3.0])


def test_char_poly_triangular():
    p = char_poly([[2.0, 1.0], [0.0, 2.0]])
    assert np.allclose(p.coeffs, [4.0, -4.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_cayley_hamilton(seed, n):
    a = small_matrix(seed, n)
    p = char_poly(a)
    residual = p.eval_matrix(a)
    assert frob(residual) <= 1e-10 * (1.0 + frob(a)) ** n


def test_char_poly_matches_numpy_roots():
    a = small_matrix(7, 4)
    p = char_poly(a)
    # roots of the monic polynomial match the eigenvalues
    full = np.array((1.0,) + tuple(reversed(p.coeffs)))
    got = np.sort_complex(np.roots(full))
    want = np.sort_complex(np.linalg.eigvals(a))
    assert np.allclose(got, want, atol=1e-8)


def test_dimension_cap():
    with pytest.raises(DimensionCap):
        char_poly(np.eye(9))


def _spectrum_case(n, kind, seed):
    """Integer matrix A0 = S J S^-1 of dimension n (S unimodular, so A0 has
    integer entries, exact in floating point) and an integer direction A1.
    ``kind``: "generic" (J random), "repeated" (eigenvalue 2 of
    multiplicity n // 2 + 1, in a Jordan block of size 2 when n > 1) or
    "complex" (rotation blocks with eigenvalues 1 +- 2i)."""
    import sympy as sp

    rng = _rng(seed)
    if kind == "generic":
        j = rng.integers(-3, 4, (n, n))
    else:
        j = np.diag(rng.integers(-3, 4, n))
        if kind == "repeated":
            k = n // 2 + 1
            j[:k, :k] = 2 * np.eye(k, dtype=int)
            if k > 1:
                j[0, 1] = 1
        else:
            for i in range(0, n - 1, 2):
                j[i:i + 2, i:i + 2] = [[1, -2], [2, 1]]
    upper = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n, dtype=int)
    lower = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n, dtype=int)
    s_mat = sp.Matrix(upper @ lower)
    a0 = s_mat * sp.Matrix(j) * s_mat.inv()
    return a0, sp.Matrix(rng.integers(-2, 3, (n, n)))


def _floats(m):
    return np.array(m.tolist(), dtype=float)


CHARPOLY_CASES = [(n, kind) for n in range(1, 9)
                  for kind in ("generic", "repeated", "complex")
                  if not (kind == "complex" and n == 1)]


@pytest.mark.parametrize("n, kind", CHARPOLY_CASES)
def test_char_poly_forward_mode_matches_sympy(n, kind):
    # d/ds at s = 0 of the coefficients of det(t Id - A0 - s A1)
    import sympy as sp

    s, t = sp.symbols("s t")
    a0, a1 = _spectrum_case(n, kind, seed=10 * n + len(kind))
    exact = (a0 + s * a1).charpoly(t).all_coeffs()[::-1][:n]
    want = np.array([float(c.subs(s, 0)) for c in exact])
    want_d = np.array([float(sp.diff(c, s).subs(s, 0)) for c in exact])
    a, da = _floats(a0), _floats(a1)
    poly, dcoeffs = char_poly(a, np.stack([da, -da, 0.0 * da]))
    assert poly.coeffs == char_poly(a).coeffs
    assert np.max(np.abs(np.array(poly.coeffs) - want)) <= 1e-9 * (1 + np.max(np.abs(want)))
    assert np.max(np.abs(dcoeffs[0] - want_d)) <= 1e-9 * (1 + np.max(np.abs(want_d)))
    assert np.array_equal(dcoeffs[1], -dcoeffs[0])
    assert not dcoeffs[2].any()


@pytest.mark.parametrize("n, kind", CHARPOLY_CASES)
def test_eval_matrix_forward_mode_matches_sympy(n, kind):
    # d/ds at s = 0 of q_s(B0 + s B1), q_s monic of degree n with
    # coefficients c + s dc, with and without moving the coefficients
    import sympy as sp
    from sympy.polys.matrices import DomainMatrix

    s = sp.symbols("s")
    b0, b1 = _spectrum_case(n, kind, seed=10 * n + len(kind) + 5)
    rng = _rng(n)
    c, dc = rng.integers(-3, 4, n), rng.integers(-2, 3, n)
    b = DomainMatrix.from_Matrix(b0 + s * b1)
    eye = DomainMatrix.eye(n, b.domain)
    poly = MonicPoly(c)
    bf, dbf = _floats(b0), _floats(b1)
    for moving in (dc, None):
        acc = eye
        for k in reversed(range(n)):
            dc_k = 0 if moving is None else int(moving[k])
            acc = acc * b + eye * b.domain.from_sympy(int(c[k]) + s * dc_k)
        # value and derivative at s = 0: the coefficients of 1 and s
        gen = b.domain.ring.gens[0]
        want, want_d = (np.array([[float(e.coeff(m)) for e in row] for row in acc.to_list()])
                        for m in (1, gen))
        dcoeffs = None if moving is None else moving[None].astype(float)
        val, deriv = poly.eval_matrix(bf, dbf[None], dcoeffs)
        assert val.tobytes() == poly.eval_matrix(bf).tobytes()
        assert frob(val - want) <= 1e-9 * (1 + frob(want))
        assert frob(deriv[0] - want_d) <= 1e-9 * (1 + frob(want_d))


# ---------------------------------------------------------------------------
# eigen


def test_eigen_multiplicities():
    spec = eigen(np.diag([1.0, 1.0, 5.0]))
    assert spec.entries == ((1.0 + 0.0j, 2), (5.0 + 0.0j, 1))
    assert spec.dim == 3


def test_eigen_rotation_conjugate_pair():
    spec = eigen(np.array([[0.0, -1.0], [1.0, 0.0]]))
    vals = spec.values()
    assert vals[0] == vals[1].conjugate()
    assert np.isclose(vals[1], 1j)
    assert unpaired_conjugate(spec.eigenvalues(), 1e-12, real_tol=0.0) is None


def test_eigen_jordan_block():
    spec = eigen(np.array([[2.0, 1.0], [0.0, 2.0]]))
    assert len(spec.entries) == 1
    z, m = spec.entries[0]
    assert m == 2 and abs(z - 2.0) < 1e-7


def test_eigen_similarity_transformed_jordan():
    # non-triangular matrix with a defective eigenvalue: clustering must
    # absorb the sqrt(eps) splitting
    j = np.array([[2.0, 1.0], [0.0, 2.0]])
    s = np.array([[1.0, 0.3], [-0.2, 1.1]])
    a = s @ j @ np.linalg.inv(s)
    spec = eigen(a)
    assert len(spec.entries) == 1
    assert spec.entries[0][1] == 2


# ---------------------------------------------------------------------------
# matrix functions


def test_sqrt_of_diagonal():
    a = np.diag([1.0, 4.0])
    got = matrix_function(a, ScalarFunction.sqrt())
    assert np.allclose(got, np.diag([1.0, 2.0]), atol=1e-12)


def test_square_of_jordan_block_uses_derivative_node():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    got = matrix_function(a, ScalarFunction.polynomial([0.0, 0.0, 1.0]))
    assert np.allclose(got, [[4.0, 4.0], [0.0, 4.0]], atol=1e-12)


def _eig_function_oracle(a, fvals):
    """Brute-force f(A) through a full eigendecomposition."""
    w, v = np.linalg.eig(a)
    fw = np.array([fvals(z) for z in w])
    return (v @ np.diag(fw) @ np.linalg.inv(v)).real


def test_half_plane_indicator_on_rotation():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    f = hermite_indicator([1j, -1j], [3.0])
    got = matrix_function(a, f)
    assert np.allclose(got, np.eye(2), atol=1e-12)
    want = _eig_function_oracle(a, lambda z: 1.0)
    assert np.allclose(got, want, atol=1e-10)


def test_indicator_on_rotation_plus_block():
    a = np.zeros((3, 3))
    a[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    a[2, 2] = 3.0
    f = hermite_indicator([1j, -1j], [3.0])
    got = matrix_function(a, f)
    want = np.diag([1.0, 1.0, 0.0])
    assert np.allclose(got, want, atol=1e-10)
    oracle = _eig_function_oracle(a, lambda z: 1.0 if abs(z.imag) > 0.5 else 0.0)
    assert np.allclose(got, oracle, atol=1e-9)


def test_indicator_with_jordan_cluster():
    a = np.zeros((3, 3))
    a[:2, :2] = [[2.0, 1.0], [0.0, 2.0]]
    a[2, 2] = 5.0
    f = hermite_indicator([2.0], [5.0])
    p = matrix_function(a, f)
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-9)
    assert np.allclose(p @ p, p, atol=1e-9)
    # chi_1(L) P_1 = 0: the projector range lies in ker (L - 2)^2
    chi1 = MonicPoly((4.0, -4.0))
    assert frob(chi1.eval_matrix(a) @ p) <= 1e-9


def test_simple_indicator_on_diag():
    a = np.diag([1.0, 1.0, 5.0])
    f = hermite_indicator([1.0], [5.0])
    assert np.allclose(matrix_function(a, f), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 3))
def test_polynomial_calculus_matches_horner(seed, n, deg):
    rng = _rng(seed)
    a = rng.standard_normal((n, n))
    coeffs = rng.standard_normal(deg + 1)
    got = matrix_function(a, ScalarFunction.polynomial(coeffs))
    want = np.zeros((n, n))
    for c in reversed(coeffs):
        want = want @ a + c * np.eye(n)
    assert frob(got - want) <= 1e-12 * (1.0 + frob(want))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_projector_laws(seed, n):
    rng = _rng(seed)
    a = rng.standard_normal((n, n))
    spec = eigen(a)
    if len(spec.entries) < 2:
        return
    # split off the entry with the smallest real part (and its conjugate)
    first = spec.entries[0][0]
    g1 = [z for z, m in spec.entries for _ in range(m)
          if abs(z - first) < 1e-9 or abs(z - first.conjugate()) < 1e-9]
    g2 = [z for z, m in spec.entries for _ in range(m)
          if not (abs(z - first) < 1e-9 or abs(z - first.conjugate()) < 1e-9)]
    if not g1 or not g2:
        return
    if min(abs(z - w) for z in g1 for w in g2) < 1e-3:
        return
    p1 = matrix_function(a, hermite_indicator(g1, g2))
    p2 = matrix_function(a, hermite_indicator(g2, g1))
    tol = 1e-9 * (1.0 + frob(a))
    assert frob(p1 @ p1 - p1) <= tol
    assert frob(a @ p1 - p1 @ a) <= tol
    assert frob(p1 + p2 - np.eye(n)) <= tol


def test_exponential_matches_series():
    a = 0.3 * small_matrix(3, 3)
    got = matrix_function(a, ScalarFunction.exponential())
    want = np.eye(3)
    term = np.eye(3)
    for k in range(1, 30):
        term = term @ a / k
        want = want + term
    assert np.allclose(got, want, atol=1e-12)


def _jordan(k, lam=0.5):
    return lam * np.eye(k) + np.eye(k, k=1)


def _similar(a, seed=0):
    q = np.eye(len(a)) + 0.3 * _rng(seed).normal(size=a.shape)
    return q @ a @ np.linalg.inv(q)


_DEFECTIVE_SPLIT = pytest.mark.xfail(strict=True, reason=(
    "a rounded defective k x k block has eigenvalues about eps^(1/k) apart, "
    "beyond the 1e-8 * (1 + ||A||) cluster radius, so they are not merged"))


@pytest.mark.parametrize("a", [
    pytest.param(np.diag([1.0, 1.0 + 1e-9, 2.0]), id="near-cluster"),
    pytest.param(np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -0.5]]),
                 id="complex-pair"),
    pytest.param(_jordan(2), id="jordan-2"),
    pytest.param(_jordan(3), id="jordan-3"),
    pytest.param(_jordan(4), id="jordan-4"),
    pytest.param(_similar(_jordan(2)), id="similar-jordan-2"),
    pytest.param(_similar(_jordan(3)), id="similar-jordan-3", marks=_DEFECTIVE_SPLIT),
    pytest.param(_similar(_jordan(4)), id="similar-jordan-4", marks=_DEFECTIVE_SPLIT),
])
def test_exponential_matches_mpmath(a):
    with mpmath.workdps(50):
        want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
    got = matrix_function(a, ScalarFunction.exponential())
    assert frob(got - want) <= 1e-14 * frob(want)


def test_domain_violation_sqrt_of_negative():
    with pytest.raises(DomainViolation):
        matrix_function(np.diag([-1.0, 4.0]), ScalarFunction.sqrt())


def test_symmetry_violation():
    bad = ScalarFunction("bad", lambda z: 1j * z, lambda z, k: 1j if k == 1 else 0.0,
                         lambda z: True)
    with pytest.raises(SymmetryViolation):
        matrix_function(np.array([[0.0, -1.0], [1.0, 0.0]]), bad)


def test_indicator_group_errors():
    # an indicator that splits a conjugate pair is not conjugation
    # symmetric, and one that misses an eigenvalue is outside its domain
    with pytest.raises(SymmetryViolation):
        matrix_function(np.array([[0.0, -1.0], [1.0, 0.0]]),
                        hermite_indicator([1j], [-1j, 3.0]))
    with pytest.raises(DomainViolation):
        matrix_function(np.diag([1.0, 9.0]), hermite_indicator([1.0], [5.0]))


# ---------------------------------------------------------------------------
# misc types


def test_monic_poly_multiply():
    p = MonicPoly((-2.0,))  # t - 2
    q = MonicPoly((-5.0,))  # t - 5
    assert np.allclose(p.multiply(q).coeffs, [10.0, -7.0])


def test_monic_poly_from_roots_conjugation():
    p = MonicPoly.from_roots([1 + 2j, 1 - 2j])
    assert np.allclose(p.coeffs, [5.0, -2.0])
    with pytest.raises(NotConjugationClosed):
        MonicPoly.from_roots([1 + 2j, 3.0])


def test_spectrum_canonical_order():
    s = Spectrum(((5.0, 1), (1.0 + 1j, 1), (1.0 - 1j, 1)))
    assert s.values() == [1.0 - 1j, 1.0 + 1j, 5.0 + 0j]
