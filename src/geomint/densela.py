"""Small dense linear algebra kernels.

Deterministic QR and SVD factorizations used by the low-rank integrator
and by diagnostics, with their sign conventions and thresholds pinned down
exactly:

* ``qr_thin``  -- LAPACK's Householder QR (``numpy.linalg.qr``) plus fixed
  conventions: finite, tall input checked first, R with a nonnegative
  diagonal (unique for full-rank input) and an exactly zero strictly
  lower triangle, and roundoff-level diagonal entries of dependent
  columns set to exact zeros.
* ``svd_full`` -- one-sided Jacobi iteration on columns, written directly
  on numpy arrays.  It stays Jacobi rather than LAPACK's bidiagonal SVD,
  whose small singular values are only accurate to about eps times the
  largest: Jacobi rotations act on the matrix itself, so singular values
  of graded matrices keep high relative accuracy, which matters when the
  low-rank benchmarks push singular values down to ~1e-12.

Intended for small dense problems (dimensions up to a few hundred).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

_EPS = np.finfo(float).eps

# One-sided Jacobi stops once every off-diagonal Gram entry |w_i . w_j| is
# below both thresholds: an absolute one scaled by ||A||_F^2 and a relative
# one scaled by the current column norms.  The relative test is what keeps
# the left vectors orthonormal when singular values span many decades.
_JACOBI_ABS_TOL = 1e-14
_JACOBI_REL_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 60


def as_matrix(a, name="a"):
    """Validate and return ``a`` as a 2-d float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ContractViolationError(f"{name} contains non-finite entries")
    return arr


@dataclass
class SvdResult:
    """Thin singular value decomposition a = left @ diag(sigma) @ right.T.

    ``left`` is m-by-k and ``right`` is n-by-k with orthonormal columns,
    k = min(m, n); ``sigma`` is nonnegative and sorted descending.
    """

    left: np.ndarray
    sigma: np.ndarray
    right: np.ndarray


def qr_thin(a):
    """Thin QR factorization: LAPACK's Householder QR (``numpy.linalg.qr``,
    reduced mode) under fixed conventions.

    Returns (q, r) with q of shape (m, n) having orthonormal columns and r
    upper triangular with nonnegative diagonal, q @ r = a; the diagonal
    signs make the factorization unique for full-rank input, and the
    strictly lower triangle of r is exactly +0.0.  Requires m >= n and
    finite entries (ContractViolationError otherwise, checked before
    LAPACK sees the input).  Rank-deficient input is allowed; the
    corresponding diagonal entries of r come out exactly zero.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ContractViolationError(f"qr_thin needs m >= n, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    # Sign fix: flip so that diag(r) >= 0, keeping q @ r unchanged.  triu
    # after the flip keeps the lower triangle +0.0 rather than -0.0.
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q *= signs
    r = np.triu(signs[:, None] * r)
    # A diagonal entry below roundoff relative to its own column is pure
    # reflector noise from a linearly dependent column; report it as an
    # exact zero.  The comparison is column-local on purpose: columns that
    # are genuinely tiny but independent keep their diagonal.
    noise = np.flatnonzero(np.diag(r) <= m * _EPS * np.linalg.norm(a, axis=0))
    r[noise, noise] = 0.0
    return q, r


def _orthonormal_columns(w, sigma):
    """Normalize the columns of ``w`` into an orthonormal basis.

    Columns are expected to be nearly orthogonal already (output of the
    Jacobi sweep, ordered by descending ``sigma``).  A two-pass
    Gram-Schmidt polish removes the residual non-orthogonality; columns
    with negligible norm are replaced by canonical basis vectors so the
    result always has exactly orthonormal columns.
    """
    m, k = w.shape
    q = np.zeros((m, k))
    scale = sigma[0] if k and sigma[0] > 0.0 else 1.0
    for i in range(k):
        x = w[:, i].copy()
        for _ in range(2):
            if i:
                x -= q[:, :i] @ (q[:, :i].T @ x)
        nrm = np.linalg.norm(x)
        if nrm <= m * _EPS * scale:
            # Degenerate direction: complete the basis with the identity
            # column least covered by the columns placed so far (its
            # residual norm is at least sqrt((m - i) / m), never zero).
            covered = np.sum(q[:, :i] ** 2, axis=1) if i else np.zeros(m)
            x = np.zeros(m)
            x[int(np.argmin(covered))] = 1.0
            for _ in range(2):
                if i:
                    x -= q[:, :i] @ (q[:, :i].T @ x)
            nrm = np.linalg.norm(x)
        q[:, i] = x / nrm
    return q


def svd_full(a, max_sweeps=_JACOBI_MAX_SWEEPS):
    """Singular value decomposition by one-sided Jacobi iteration.

    Orthogonal rotations are applied to column pairs of ``a`` until all
    off-diagonal Gram entries are negligible; the column norms are then
    the singular values.  Returns an SvdResult with sigma sorted
    descending and orthonormal singular vector factors.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        res = svd_full(a.T, max_sweeps=max_sweeps)
        return SvdResult(left=res.right, sigma=res.sigma, right=res.left)

    w = a.copy()
    v = np.eye(n)
    fro2 = float(np.sum(a * a))
    if fro2 == 0.0:
        return SvdResult(left=np.eye(m, n), sigma=np.zeros(n), right=v)
    abs_tol = _JACOBI_ABS_TOL * fro2

    for _ in range(max_sweeps):
        converged = True
        for i in range(n - 1):
            for j in range(i + 1, n):
                # Copies, not views: both rotation updates below must read
                # the pre-rotation columns.
                wi = w[:, i].copy()
                wj = w[:, j].copy()
                gij = float(wi @ wj)
                gii = float(wi @ wi)
                gjj = float(wj @ wj)
                rel_tol = _JACOBI_REL_TOL * np.sqrt(gii * gjj)
                if abs(gij) <= min(abs_tol, rel_tol):
                    continue
                converged = False
                zeta = (gjj - gii) / (2.0 * gij)
                t = np.sign(zeta) if zeta != 0.0 else 1.0
                t = t / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                w[:, i] = c * wi - s * wj
                w[:, j] = s * wi + c * wj
                vi = v[:, i].copy()
                v[:, i] = c * vi - s * v[:, j]
                v[:, j] = s * vi + c * v[:, j]
        if converged:
            break

    sigma = np.linalg.norm(w, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    w = w[:, order]
    v = v[:, order]
    left = _orthonormal_columns(w, sigma)
    right = _orthonormal_columns(v, np.ones(n))
    return SvdResult(left=left, sigma=sigma, right=right)


def truncated_svd(a, r):
    """Best rank-r approximation in the Frobenius norm.

    Returns (approx, factors, discarded_norm) where ``factors`` is the
    rank-r SvdResult and ``discarded_norm`` equals
    sqrt(sum of the squared discarded singular values), which is also
    ||a - approx||_F.
    """
    a = as_matrix(a)
    k = min(a.shape)
    if not isinstance(r, (int, np.integer)) or r < 1 or r > k:
        raise ContractViolationError(f"rank r must satisfy 1 <= r <= {k}, got {r!r}")
    res = svd_full(a)
    factors = SvdResult(
        left=res.left[:, :r].copy(),
        sigma=res.sigma[:r].copy(),
        right=res.right[:, :r].copy(),
    )
    approx = factors.left @ (factors.sigma[:, None] * factors.right.T)
    discarded = float(np.sqrt(np.sum(res.sigma[r:] ** 2)))
    return approx, factors, discarded
