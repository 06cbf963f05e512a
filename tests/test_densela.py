"""Dense linear algebra kernels: thin QR, full and truncated SVD."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geomint import densela
from geomint.densela import as_matrix, qr_thin, svd_full, truncated_svd
from geomint.errors import ContractViolationError, require_real_array
from geomint.lowrank import LowRankFactors

# The shapes the low-rank workloads factor: K = U S and L = V S^T (40x8,
# 12x4, 12x3) and the 40x40 and 12x10 matrices behind the exact errors,
# plus square matrices of the retained ranks 1, 3, 4 and 8.
WORKLOAD_SHAPES = [(40, 8), (12, 4), (12, 3), (40, 40), (12, 10), (1, 1), (3, 3), (4, 4), (8, 8)]

# Tolerance of the properties below, about twenty times the worst error
# seen on these shapes; a kernel off by one part in 1e13 fails them.
PROPERTY_TOL = 1e-13


def random_matrix(rng, m, n, rank=None):
    if rank is None:
        return rng.standard_normal((m, n))
    left = rng.standard_normal((m, rank))
    right = rng.standard_normal((n, rank))
    return left @ right.T


@st.composite
def graded_matrices(draw):
    """A workload-shaped matrix whose column scales, or singular values,
    spread over up to twelve decades, as the low-rank benchmarks' do, and
    whose trailing ones are sometimes exactly zero (rank-deficient input)."""
    m, n = draw(st.sampled_from(WORKLOAD_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(m, n)
    grading = 10.0 ** -np.sort(rng.uniform(0.0, draw(st.floats(0.0, 12.0)), k))
    grading[k - draw(st.integers(0, k - 1)):] = 0.0
    if draw(st.booleans()):
        return rng.standard_normal((m, n)) * grading
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * grading) @ v.T


def orthonormality_defect(q):
    return np.linalg.norm(q.T @ q - np.eye(q.shape[1]))


def lower_sign_bits(r):
    """Sign bits of the strictly lower triangle (set for -0.0)."""
    return np.signbit(r[np.tril_indices_from(r, -1)])


# ---------------------------------------------------------------- as_matrix


def test_as_matrix_rejects_vectors():
    with pytest.raises(ContractViolationError):
        as_matrix(np.array([1.0, 2.0]), "x")


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ContractViolationError):
        as_matrix(np.array([[np.nan, 1.0], [0.0, 1.0]]), "x")


@pytest.mark.parametrize("call", [
    lambda: svd_full("abc"),
    lambda: qr_thin("abc"),
    lambda: qr_thin([[1.0], [1.0, 2.0]]),  # ragged
    lambda: truncated_svd([[1.0, "x"]], 1),
    lambda: as_matrix({"a": 1.0}),  # numpy raises TypeError here, not ValueError
    lambda: as_matrix(None),
], ids=["svd-str", "qr-str", "qr-ragged", "truncated-mixed", "dict", "none"])
def test_input_that_does_not_convert_to_a_float_matrix_is_a_contract_violation(call):
    with pytest.raises(ContractViolationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: qr_thin(1j * np.eye(2)),
    lambda: svd_full(np.eye(2) + 0j),  # a zero imaginary part is still complex
    lambda: as_matrix([[1.0, 2j]]),
    lambda: LowRankFactors(u=np.eye(2), s=np.eye(2, dtype=complex), v=np.eye(2)),
], ids=["qr", "svd", "list", "factors"])
def test_complex_input_is_a_contract_violation(call):
    # Converting it to float would drop the imaginary part with a
    # ComplexWarning (an error under this suite's RuntimeWarning filter).
    with pytest.raises(ContractViolationError, match="is complex"):
        call()


def test_require_real_array_returns_a_float64_array_as_is_and_converts_the_rest():
    a = np.ones((2, 3))
    assert require_real_array("a", a) is a
    for value in (np.ones((2, 3), dtype=np.float32), np.arange(6).reshape(2, 3), [[1, 2, 3]]):
        arr = require_real_array("a", value)
        assert type(arr) is np.ndarray and arr.dtype == np.float64
        assert np.array_equal(arr, np.asarray(value, dtype=float))
    with pytest.raises(ContractViolationError, match="a is complex"):
        require_real_array("a", np.ones(2, dtype=complex))
    for value in (np.array([object()]), np.array(["x"], dtype=object)):
        with pytest.raises(ContractViolationError, match="a does not convert"):
            require_real_array("a", value)


# ------------------------------------------------------------------ thin QR


def test_qr_identity():
    q, r = qr_thin(np.eye(3))
    assert np.allclose(q, np.eye(3), atol=1e-15)
    assert np.allclose(r, np.eye(3), atol=1e-15)


def test_qr_single_column():
    q, r = qr_thin(np.array([[3.0], [4.0]]))
    assert np.allclose(q, [[0.6], [0.8]], atol=1e-15)
    assert np.allclose(r, [[5.0]], atol=1e-15)


def test_qr_rank_deficient_square():
    a = np.ones((2, 2))
    q, r = qr_thin(a)
    assert r[1, 1] == 0.0
    assert np.linalg.norm(q @ r - a) <= 1e-12
    assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-12


def test_qr_rejects_wide_matrices():
    with pytest.raises(ContractViolationError):
        qr_thin(np.ones((2, 3)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qr_reconstruction_and_orthogonality(seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, 7, 4)
    q, r = qr_thin(a)
    assert q.shape == (7, 4) and r.shape == (4, 4)
    assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-13
    # R is upper triangular with nonnegative diagonal.
    assert np.allclose(r, np.triu(r))
    assert np.all(np.diag(r) >= 0.0)


@given(a=graded_matrices())
def test_qr_thin_properties_on_graded_matrices(a):
    q, r = qr_thin(a)
    n = a.shape[1]
    assert q.shape == a.shape and r.shape == (n, n)
    assert orthonormality_defect(q) <= PROPERTY_TOL
    assert np.array_equal(r, np.triu(r))
    assert not lower_sign_bits(r).any()  # +0.0, not -0.0
    assert np.all(np.diag(r) >= 0.0)
    # Column by column, so that the smallest columns count as much as the largest.
    residual = np.linalg.norm(q @ r - a, axis=0)
    assert np.all(residual <= PROPERTY_TOL * np.linalg.norm(a, axis=0))


# The shapes of K = U S and L = V S^T in the low-rank workloads, and a
# single column.
QR_SHAPES = [(40, 8), (12, 4), (12, 3), (12, 1)]


@st.composite
def tall_gaussian(draw):
    m, n = draw(st.sampled_from(QR_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, rng.standard_normal((m, n))


@given(draw=tall_gaussian())
def test_qr_thin_q_is_unique_under_triangular_column_mixing(draw):
    # Q R = A and Q (R T) = A T with R T upper triangular of positive
    # diagonal: a QR whose sign convention makes it unique returns the same Q.
    rng, a = draw
    n = a.shape[1]
    t = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) + np.diag(rng.uniform(0.5, 2.0, n))
    q, r = qr_thin(a)
    q_mixed, r_mixed = qr_thin(a @ t)
    assert np.linalg.norm(q - q_mixed) <= 1e-12
    assert not lower_sign_bits(r).any() and not lower_sign_bits(r_mixed).any()


@given(draw=tall_gaussian(), zero=st.booleans(), column=st.integers(0, 7))
def test_qr_thin_reports_a_dependent_or_zero_column_as_an_exact_zero(draw, zero, column):
    rng, a = draw
    n = a.shape[1]
    k = column % n
    if zero or k == 0:
        a[:, k] = 0.0
    else:
        a[:, k] = a[:, :k] @ rng.standard_normal(k)
    q, r = qr_thin(a)
    assert r[k, k] == 0.0
    assert orthonormality_defect(q) <= 1e-13
    assert not lower_sign_bits(r).any()
    assert np.linalg.norm(q @ r - a) <= 1e-13 * np.linalg.norm(a)


@given(draw=tall_gaussian(), value=st.sampled_from([np.nan, np.inf, -np.inf]),
       index=st.integers(0, 319))
def test_qr_thin_refuses_non_finite_input_before_factoring(draw, value, index):
    _, a = draw
    a.flat[index % a.size] = value
    with pytest.raises(ContractViolationError):
        qr_thin(a)


def reference_qr_thin(a):
    """qr_thin's conventions in their plainest form, the reference the
    in-place code must match bit for bit: a sign multiply over all of q
    and r, then ``np.triu``, then the noise rule on ``np.linalg.norm``
    column norms."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    q, r = np.linalg.qr(a)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q *= signs
    r = np.triu(signs[:, None] * r)
    noise = np.flatnonzero(np.diag(r) <= m * np.finfo(float).eps * np.linalg.norm(a, axis=0))
    r[noise, noise] = 0.0
    return q, r


@st.composite
def qr_inputs(draw):
    """A workload-shaped or graded matrix with some columns negated (so
    that signs must flip) and up to two columns made zero or dependent,
    stored in C or Fortran order."""
    if draw(st.booleans()):
        rng, a = draw(tall_gaussian())
    else:
        a = draw(graded_matrices())
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = a.shape[1]
    a = a * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    for _ in range(draw(st.integers(0, min(2, n)))):
        k = draw(st.integers(0, n - 1))
        a[:, k] = 0.0 if k == 0 or draw(st.booleans()) else a[:, :k] @ rng.standard_normal(k)
    return np.asfortranarray(a) if draw(st.booleans()) else a


@given(a=qr_inputs())
@example(a=np.eye(4))
@example(a=-np.eye(4))
@example(a=np.zeros((12, 3)))
def test_qr_thin_matches_the_reference_conventions_bit_for_bit(a):
    before = a.copy()
    q, r = qr_thin(a)
    q_ref, r_ref = reference_qr_thin(before)
    assert q.tobytes() == q_ref.tobytes()
    assert r.tobytes() == r_ref.tobytes()
    # The conventions are applied in place to LAPACK's outputs, never to a.
    assert a.tobytes() == before.tobytes()
    assert not np.shares_memory(q, a) and not np.shares_memory(r, a)


def failing_gufunc(*args, **kwargs):
    """Stands in for a LAPACK gufunc that fails.  numpy's gufuncs report a
    LAPACK failure by raising the floating-point invalid flag, which
    ``errstate(invalid="call")`` turns into a call of the LinAlgError
    call-back; the 0/0 here raises the same flag."""
    np.divide(np.zeros(1), np.zeros(1))
    return np.zeros((1, 1))


@pytest.mark.parametrize("kernel, gufunc, numpy_call", [
    (qr_thin, "qr_r_raw", np.linalg.qr),
    (svd_full, "svd_s", lambda a: np.linalg.svd(a, full_matrices=False)),
], ids=["qr", "svd"])
def test_a_lapack_failure_is_numpys_linalgerror(monkeypatch, kernel, gufunc, numpy_call):
    # numpy.linalg and densela call the same module's gufunc.
    monkeypatch.setattr(densela._umath_linalg, gufunc, failing_gufunc)
    with pytest.raises(np.linalg.LinAlgError) as ours:
        kernel(np.eye(3))
    with pytest.raises(np.linalg.LinAlgError) as numpys:
        numpy_call(np.eye(3))
    assert str(ours.value) == str(numpys.value)


def test_qr_thin_factors_columns_whose_sum_of_squares_overflows():
    # Entries of about 1e160 are finite, but their squares are not.
    a = 1e160 * np.random.default_rng(0).standard_normal((12, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, r = qr_thin(a)
    assert np.all(np.diag(r) > 0.0)
    assert np.linalg.norm((q @ r - a) / 1e160) <= 1e-14 * np.linalg.norm(a / 1e160)
    # A dependent column among them is still reported as an exact zero.
    a[:, 2] = a[:, 0] - a[:, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, r = qr_thin(a)
    assert np.all(np.diag(r)[:2] > 0.0) and r[2, 2] == 0.0


def test_qr_completes_degenerate_columns():
    """Repeated columns must still yield a full orthonormal Q."""
    rng = np.random.default_rng(3)
    col = rng.standard_normal(8)
    a = np.tile(col[:, None], (1, 6))
    q, r = qr_thin(a)
    assert np.linalg.norm(q.T @ q - np.eye(6)) <= 1e-12
    assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)
    # Only the first column carries weight.
    assert np.all(np.diag(r)[1:] == 0.0)


def test_qr_many_tiny_columns():
    # Forty columns whose scales span fifty orders of magnitude; most fall
    # below the degeneracy threshold, so the basis completion has to find
    # a fresh direction for nearly every column.
    rng = np.random.default_rng(11)
    d = np.array([2.0 ** -(i + 1) for i in range(40)])
    d[8:] *= 1e-6
    a = (rng.standard_normal((40, 40)) @ np.diag(d))[:, :40]
    q, r = qr_thin(a)
    assert np.linalg.norm(q.T @ q - np.eye(40)) <= 1e-11
    assert np.linalg.norm(q @ r - a) <= 1e-11 * max(np.linalg.norm(a), 1.0)


# ----------------------------------------------------------------- full SVD


def test_svd_diagonal():
    res = svd_full(np.diag([3.0, 2.0]))
    assert np.allclose(res.sigma, [3.0, 2.0], atol=1e-14)


def test_svd_antidiagonal():
    res = svd_full(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(res.sigma, [1.0, 1.0], atol=1e-14)


def test_svd_zero_matrix():
    res = svd_full(np.zeros((3, 2)))
    assert np.all(res.sigma == 0.0)
    assert np.linalg.norm(res.left @ np.diag(res.sigma) @ res.right.T) == 0.0


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
def test_svd_reconstruction(shape):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    a = random_matrix(rng, *shape)
    res = svd_full(a)
    recon = res.left @ np.diag(res.sigma) @ res.right.T
    assert np.linalg.norm(recon - a) <= 1e-12 * np.linalg.norm(a)
    k = min(shape)
    assert np.linalg.norm(res.left.T @ res.left - np.eye(k)) <= 1e-12
    assert np.linalg.norm(res.right.T @ res.right - np.eye(k)) <= 1e-12
    # Singular values descending and nonnegative.
    assert np.all(np.diff(res.sigma) <= 0.0)
    assert np.all(res.sigma >= 0.0)


def test_svd_matches_numpy_singular_values():
    rng = np.random.default_rng(42)
    a = random_matrix(rng, 6, 4)
    ours = svd_full(a).sigma
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(ours - ref)) <= 1e-10 * ref[0]


@given(a=graded_matrices())
def test_svd_full_properties_on_graded_matrices(a):
    res = svd_full(a)
    k = min(a.shape)
    assert res.left.shape == (a.shape[0], k) and res.right.shape == (a.shape[1], k)
    assert orthonormality_defect(res.left) <= PROPERTY_TOL
    assert orthonormality_defect(res.right) <= PROPERTY_TOL
    recon = (res.left * res.sigma) @ res.right.T
    assert np.linalg.norm(recon - a) <= PROPERTY_TOL * np.linalg.norm(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(res.sigma - ref)) <= PROPERTY_TOL * ref[0]


@st.composite
def svd_inputs(draw):
    """A graded, rank-deficient or zero matrix, tall, square, wide or 1x1,
    stored in C or Fortran order."""
    kind = draw(st.sampled_from(["graded", "zero", "one-by-one"]))
    if kind == "graded":
        a = draw(graded_matrices())
        a = a.T if draw(st.booleans()) else a  # m < n as well as m >= n
    elif kind == "zero":
        a = np.zeros(draw(st.sampled_from(WORKLOAD_SHAPES + [(3, 8), (1, 5)])))
    else:
        a = np.array([[draw(st.floats(-1e6, 1e6, allow_nan=False))]])
    return np.asfortranarray(a) if draw(st.booleans()) else np.ascontiguousarray(a)


@given(a=svd_inputs())
@example(a=np.zeros((1, 1)))
@example(a=np.asfortranarray(np.ones((3, 8))))
def test_svd_full_matches_numpy_svd_bit_for_bit(a):
    before = a.copy(order="K")
    res = svd_full(a)
    u, s, vt = np.linalg.svd(before, full_matrices=False)
    assert res.left.tobytes() == u.tobytes()
    assert res.sigma.tobytes() == s.tobytes()
    assert res.right.tobytes() == vt.T.tobytes()
    # LAPACK works on its own copy: a is neither written nor aliased.
    assert a.tobytes() == before.tobytes() and a.flags.f_contiguous == before.flags.f_contiguous
    assert not any(np.shares_memory(out, a) for out in (res.left, res.sigma, res.right))


def test_svd_transpose_has_same_spectrum():
    rng = np.random.default_rng(7)
    a = random_matrix(rng, 6, 4)
    sa = svd_full(a).sigma
    sat = svd_full(a.T).sigma
    assert np.max(np.abs(sa - sat)) <= 1e-10 * max(sa[0], 1.0)


# ------------------------------------------------------------ truncated SVD


def test_truncated_diagonal():
    a = np.diag([3.0, 2.0, 1.0])
    approx, factors, discarded = truncated_svd(a, 2)
    assert np.allclose(approx, np.diag([3.0, 2.0, 0.0]), atol=1e-12)
    assert np.allclose(factors.sigma, [3.0, 2.0], atol=1e-14)
    assert abs(discarded - 1.0) <= 1e-12


def test_truncated_exact_on_low_rank_input():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 8, 5, rank=2)
    approx, _, discarded = truncated_svd(a, 2)
    assert np.linalg.norm(approx - a) <= 1e-11 * np.linalg.norm(a)
    assert discarded <= 1e-11 * np.linalg.norm(a)


def test_truncated_handles_rank_deficient_input():
    approx, factors, discarded = truncated_svd(np.diag([5.0, 0.0]), 1)
    assert np.allclose(approx, np.diag([5.0, 0.0]), atol=1e-14)
    assert factors.sigma[0] == pytest.approx(5.0, abs=1e-14)
    assert discarded <= 1e-14


def test_truncation_is_optimal_in_frobenius_norm():
    """No random rank-r competitor beats the truncated SVD."""
    rng = np.random.default_rng(17)
    a = random_matrix(rng, 6, 5)
    r = 2
    approx, _, _ = truncated_svd(a, r)
    err = np.linalg.norm(a - approx)
    for _ in range(100):
        b = random_matrix(rng, 6, 5, rank=r)
        assert err <= np.linalg.norm(a - b) + 1e-9


def test_discarded_norm_equals_tail():
    rng = np.random.default_rng(23)
    a = random_matrix(rng, 7, 6)
    sigma = svd_full(a).sigma
    for r in (1, 3, 5):
        _, _, discarded = truncated_svd(a, r)
        assert discarded == pytest.approx(np.sqrt(np.sum(sigma[r:] ** 2)), rel=1e-12)
