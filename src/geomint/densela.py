"""Small dense linear algebra kernels.

Deterministic QR and SVD factorizations used by the low-rank integrator
and by diagnostics:

* ``qr_thin``  -- LAPACK's Householder QR (the ``dgeqrf``/``dorgqr`` pair
  behind ``numpy.linalg.qr``) plus fixed conventions: finite, tall input
  checked first, R with a nonnegative diagonal (unique for full-rank
  input) and an exactly zero strictly lower triangle, and roundoff-level
  diagonal entries of dependent columns set to exact zeros.  The
  conventions are applied in place to the fresh Q and R; the input is
  never written.
* ``svd_full`` -- LAPACK's SVD (the ``dgesdd`` call behind
  ``numpy.linalg.svd``, thin factors), finite input checked first.  Its
  small singular values are accurate to about eps times the largest,
  which every caller can afford: the graded spectra of the low-rank
  benchmarks are read from ``exact_sigma`` or the start's ``d_vals``,
  never from an SVD.  ``factorize`` truncates either a diagonal matrix
  (factored exactly) or the exact start of the exactness flows, whose
  retained singular values are all at least 0.25; and a record takes the
  SVD of ``exact_A(t)`` only for a flow without ``exact_sigma``, which
  every flow ``rotating_flow`` builds has.

Both call numpy's compiled LAPACK gufuncs (``numpy.linalg._umath_linalg``:
``qr_r_raw`` and ``qr_reduced``, ``svd_s``) directly, with the signatures,
the input copy and the ``errstate`` (a LinAlgError call-back on an
invalid-value flag) that ``numpy.linalg.qr`` and ``numpy.linalg.svd`` use.
The LAPACK calls, and so the bits, are the same; what is skipped is the
wrappers' type dispatch, ``triu``'s fresh mask and a second ``errstate``,
which cost more than LAPACK itself on the small matrices of the low-rank
steps.  This private import is the one place geomint reaches into numpy's
internals.  ``tests/test_densela.py`` compares both kernels bit for bit
with ``numpy.linalg.qr`` and ``numpy.linalg.svd``, so a numpy release
that changes either path fails the tests rather than the results.

Intended for small dense problems (dimensions up to a few hundred).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import ContractViolationError, require_real_array

_EPS = np.finfo(float).eps


def as_matrix(a, name="a"):
    """Validate and return real ``a`` as a 2-d float array with finite entries."""
    arr = require_real_array(name, a)
    if arr.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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


# ``numpy.linalg``'s LAPACK error call-backs: a gufunc that fails sets the
# invalid-value flag, and ``errstate(invalid="call")`` calls one of these.
def _raise_qr_error(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def _raise_svd_error(err, flag):
    raise LinAlgError("SVD did not converge")


@lru_cache
def _upper_mask(n):
    """Read-only n-by-n mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def qr_thin(a):
    """Thin QR factorization: LAPACK's Householder QR (``numpy.linalg.qr``,
    reduced mode, through its gufuncs) under fixed conventions.

    Returns (q, r) with q of shape (m, n) having orthonormal columns and r
    upper triangular with nonnegative diagonal, q @ r = a; the diagonal
    signs make the factorization unique for full-rank input, and the
    strictly lower triangle of r is exactly +0.0.  Requires m >= n and
    finite entries (ContractViolationError otherwise, checked before
    LAPACK sees the input).  Rank-deficient input is allowed; the
    corresponding diagonal entries of r come out exactly zero.  LAPACK
    works on a copy of ``a``, and the conventions are applied in place to
    the q and r it returns, which share no memory with ``a``; ``a`` is
    never written.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ContractViolationError(f"qr_thin needs m >= n, got shape {a.shape}")
    # numpy.linalg.qr's calls on numpy.linalg.qr's copy of a: dgeqrf
    # overwrites h with R above the diagonal and the reflectors below it,
    # then dorgqr builds Q from them.  The column norms of the noise rule
    # below are taken in the same block, where an overflow is ignored; they
    # are ``np.linalg.norm(a, axis=0)``'s arithmetic for real input.
    h = a.copy(order="K")
    with np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        tau = _umath_linalg.qr_r_raw(h, signature="d->d")
        q = _umath_linalg.qr_reduced(h, tau, signature="dd->d")
        col_norms = np.sqrt(np.add.reduce(a * a, axis=0))
    # np.triu(h[:n])'s bits: the upper triangle of h and +0.0 below it.
    upper = _upper_mask(n)
    r = np.where(upper, h[:n], 0.0)
    diag = r.diagonal()  # a view: it follows the writes below
    # Sign fix: negate the columns of q and the rows of r whose diagonal
    # entry is negative, keeping q @ r unchanged.  Only the upper triangle
    # of those rows is negated, so the lower triangle stays +0.0.
    flip = diag < 0.0
    if flip.any():
        np.negative(q, out=q, where=flip)
        np.negative(r, out=r, where=upper & flip[:, None])
    # A diagonal entry below roundoff relative to its own column is pure
    # reflector noise from a linearly dependent column; report it as an
    # exact zero.  The comparison is column-local on purpose: columns that
    # are genuinely tiny but independent keep their diagonal.
    noise = (diag <= m * _EPS * col_norms).nonzero()[0]
    if noise.size:
        # A sum of squares that overflows from finite entries makes an
        # infinite norm and so a false noise verdict; such a column's norm
        # is taken again with its largest entry scaled out.
        big = noise[~np.isfinite(col_norms[noise])]
        if big.size:
            cols = a[:, big]
            scale = np.abs(cols).max(axis=0)
            with np.errstate(over="ignore"):
                col_norms[big] = scale * np.sqrt(np.add.reduce((cols / scale) ** 2, axis=0))
            noise = noise[diag[noise] <= m * _EPS * col_norms[noise]]
        r[noise, noise] = 0.0
    return q, r


def svd_full(a):
    """Thin singular value decomposition: LAPACK's SVD
    (``numpy.linalg.svd``, ``full_matrices=False``, through its gufunc).

    Returns an SvdResult with sigma nonnegative and sorted descending and
    orthonormal singular vector factors, also for rank-deficient or zero
    input.  Requires finite entries (ContractViolationError otherwise,
    checked before LAPACK sees the input); ``a`` is never written.
    """
    a = as_matrix(a)
    with np.errstate(call=_raise_svd_error, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        left, sigma, right_t = _umath_linalg.svd_s(a, signature="d->ddd")
    return SvdResult(left=left, sigma=sigma, right=right_t.T)


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
