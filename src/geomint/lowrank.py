"""Rank-constrained integration of matrix differential equations.

A rank-r matrix is carried in factored form Y = U S V^T (U, V with
orthonormal columns, S square).  The integrator advances Y by splitting
the projected equation dY/dt = P_Y F(t, Y) into three subflows solved in
sequence per step:

    K substep:  dK/dt =  F(t, K V^T) V,          K = U S   (m x r)
    S substep:  dS/dt = -U^T F(t, U S V^T) V                (r x r)
    L substep:  dL/dt =  F(t, U L^T)^T U,        L = V S^T  (n x r)

with a thin QR refactorization after the K and L substeps.  The minus
sign in the S substep is essential; it is what makes the composition
exact on families of rank at most r.  No inverse of S appears
anywhere on this path, which is why the step stays well behaved when S
has tiny or zero singular values, as it does when a rank-r start holds a
matrix of lower rank.  A naive integrator of the gauge ODEs (whose
right-hand side does contain S^{-1}) is included for contrast only; the
experiment registry's ``lowrank-robustness`` runs both on the same flows.

Each subflow is solved by the classical explicit 4-stage order-4 method
with a configurable number of substeps.  When F does not depend on Y the
subflows are solved exactly in increment form (Lubich & Oseledets, BIT
2014): with G the integral of F over the interval, each subflow is one
update

    K1 = K0 + G V0,    S1 = S0 - U1^T G V0,    L1 = L0 + G^T U1.

A flow that knows G sets ``MatrixFlow.increment``; the splitting is then
exact on families of rank at most r up to roundoff, and ``substeps``,
which only RK4 reads, has no effect on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .densela import as_matrix, qr_thin, svd_full, truncated_svd
from .errors import ContractViolationError, SolverDivergenceError, require_count, require_real
from .symplectic import step_count

_ORTHO_TOL = 1e-10


def _orthonormality_defect(w):
    """||W^T W - I||_F in ``np.linalg.norm``'s arithmetic: the Gram matrix
    with 1 taken off its diagonal in place, then the square root of the
    dot product of the raveled result with itself.  A Gram matrix that
    overflows gives an inf or nan defect; the caller silences its
    warnings (``errstate(over="ignore", invalid="ignore")``)."""
    gram = (w.T @ w).reshape(-1)
    gram[:: w.shape[1] + 1] -= 1.0
    return math.sqrt(gram.dot(gram))


@dataclass
class LowRankFactors:
    """Factored rank-r matrix Y = u @ s @ v.T.

    ``u`` is m-by-r and ``v`` is n-by-r with orthonormal columns (checked
    on construction); ``s`` is r-by-r and may be singular -- it is never
    inverted by the integrator.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.u, "u")
        s = as_matrix(self.s, "s")
        v = as_matrix(self.v, "v")
        r = u.shape[1]
        if s.shape != (r, r) or v.shape[1] != r:
            raise ContractViolationError(
                f"inconsistent factor shapes u{u.shape}, s{s.shape}, v{v.shape}"
            )
        # An overflowing Gram matrix is a refusal, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for name, w in (("u", u), ("v", v)):
                defect = _orthonormality_defect(w)
                if not defect <= _ORTHO_TOL:
                    raise ContractViolationError(
                        f"{name} columns are not orthonormal (defect {defect:.3e})"
                    )
        self.u, self.s, self.v = u, s, v

    @property
    def rank(self):
        return self.u.shape[1]

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])


def to_full(y: LowRankFactors) -> np.ndarray:
    """Dense m-by-n matrix u @ s @ v.T."""
    return y.u @ y.s @ y.v.T


def factorize(a, r) -> LowRankFactors:
    """Best rank-r factorization of a dense matrix (truncated SVD)."""
    _, svd_r, _ = truncated_svd(a, r)
    return LowRankFactors(u=svd_r.left, s=np.diag(svd_r.sigma), v=svd_r.right)


def tangent_project(y: LowRankFactors, z) -> np.ndarray:
    """Orthogonal projection of ``z`` onto the tangent space at ``y``:

        P(z) = z V V^T - U U^T z V V^T + U U^T z
    """
    z = as_matrix(z, "z")
    if z.shape != y.shape:
        raise ContractViolationError(f"z has shape {z.shape}, expected {y.shape}")
    u, v = y.u, y.v
    zv = z @ v
    utz = u.T @ z
    return zv @ v.T - u @ ((u.T @ zv) @ v.T) + u @ utz


@dataclass
class MatrixFlow:
    """Right-hand side F of dY/dt = F(t, Y) plus optional exact solution.

    ``eval_F(t, y_full) -> array`` of the same shape.  ``exact_A(t)``, if
    given, returns the exact solution matrix, against which a run's
    records measure their error and best rank-r error (nan without it).
    ``exact_sigma``, if given, holds the singular values of ``exact_A(t)``
    in descending order, all min(m, n) of them; it is only valid for a
    family whose spectrum is the same for every t, and lets records skip
    an SVD of ``exact_A(t)``.  ``increment(t, span)``, if given, returns
    the exact integral of F over [t, t + span]; only a flow whose F does
    not depend on Y may set it, and the splitting steps then use it in
    place of RK4 on ``eval_F``.
    """

    shape: tuple
    eval_F: Callable
    exact_A: Optional[Callable] = None
    exact_sigma: Optional[np.ndarray] = None
    increment: Optional[Callable] = None


def _rk4(f, t0, span, y0, substeps):
    """Classical 4-stage order-4 method over [t0, t0 + span].

    The stage weights are 0-d arrays, which multiply an array faster than
    Python floats do and give the same bits."""
    h = span / substeps
    half, step, sixth, two = np.array(0.5 * h), np.array(h), np.array(h / 6.0), np.array(2.0)
    t = t0
    y = y0
    for _ in range(substeps):
        mid = t + 0.5 * h
        k1 = f(t, y)
        k2 = f(mid, y + half * k1)
        k3 = f(mid, y + half * k2)
        k4 = f(t + h, y + step * k3)
        y = y + sixth * (k1 + two * k2 + two * k3 + k4)
        t += h
    return y


def _check_columns(mat, substep):
    # A column sum of squares that is not finite, also one that overflows
    # from finite entries, is the divergence reported below, not a warning;
    # the column 2-norm, its square root, is finite exactly when it is.
    with np.errstate(over="ignore"):
        sums = np.add.reduce(mat * mat, axis=0)
    if not np.isfinite(sums).all():
        raise SolverDivergenceError(f"{substep} substep overflowed: its result is not finite")


def _check_shape(flow, y):
    if not isinstance(flow, MatrixFlow):
        raise ContractViolationError(f"flow must be a MatrixFlow, got {type(flow).__name__}")
    if not isinstance(y, LowRankFactors):
        raise ContractViolationError(f"factors must be LowRankFactors, got {type(y).__name__}")
    if y.shape != flow.shape:
        raise ContractViolationError(f"factors have shape {y.shape}, flow expects {flow.shape}")


def _validate_step_args(flow, y, t, h, substeps):
    _check_shape(flow, y)
    require_count("substeps", substeps)
    require_real("t", t)
    require_real("h", h, finite=True)


def _subflow_solver(flow, t, span, substeps):
    """Solver of the subflows over [t, t + span].

    ``solve(y0, lift, project)`` integrates dy/dt = project(F(tau, lift(y)))
    from y0, with ``project`` linear.  With ``flow.increment`` that is
    y0 + project(G) for one G shared by every subflow of the interval;
    otherwise it is RK4 on ``flow.eval_F``.
    """
    if flow.increment is not None:
        g = flow.increment(t, span)
        return lambda y0, lift, project: y0 + project(g)

    def solve(y0, lift, project):
        return _rk4(lambda tt, yy: project(flow.eval_F(tt, lift(yy))), t, span, y0, substeps)

    return solve


def _k_substep(solve, k0, v):
    """dK/dt = F(t, K V^T) V from K0 = U0 S0; returns (U1, S_hat) = qr(K1)."""
    k = solve(k0, lambda kk: kk @ v.T, lambda f: f @ v)
    _check_columns(k, "K")
    return qr_thin(k)


def _s_substep(solve, u, s0, v):
    """dS/dt = -U^T F(t, U S V^T) V, the backward-in-time core substep."""
    return solve(s0, lambda ss: u @ ss @ v.T, lambda f: -(u.T @ f @ v))


def _l_substep(solve, u, l0):
    """dL/dt = F(t, U L^T)^T U from L0 = V0 S0^T; returns (V1, S^T) = qr(L1)."""
    ell = solve(l0, lambda ll: u @ ll.T, lambda f: f.T @ u)
    _check_columns(ell, "L")
    return qr_thin(ell)


def _ksl(solve, y):
    u1, s_hat = _k_substep(solve, y.u @ y.s, y.v)
    s1 = _s_substep(solve, u1, s_hat, y.v)
    v1, s_t = _l_substep(solve, u1, y.v @ s1.T)
    return LowRankFactors(u=u1, s=s_t.T, v=v1)


def _lsk(solve, y):
    v1, s_t = _l_substep(solve, y.u, y.v @ y.s.T)
    s1 = _s_substep(solve, y.u, s_t.T, v1)
    u1, s2 = _k_substep(solve, y.u @ s1, v1)
    return LowRankFactors(u=u1, s=s2, v=v1)


def ksl_step(flow: MatrixFlow, y: LowRankFactors, t, h, substeps=10) -> LowRankFactors:
    """One splitting step of size h starting at time t (K, then S, then L)."""
    _validate_step_args(flow, y, t, h, substeps)
    if h == 0.0:
        return LowRankFactors(u=y.u.copy(), s=y.s.copy(), v=y.v.copy())
    return _ksl(_subflow_solver(flow, t, h, substeps), y)


def strang_step(flow: MatrixFlow, y: LowRankFactors, t, h, substeps=10) -> LowRankFactors:
    """Symmetrized splitting step: K,S,L over the first half step, then
    L,S,K over the second half.  One order higher than ksl_step."""
    _validate_step_args(flow, y, t, h, substeps)
    if h == 0.0:
        return LowRankFactors(u=y.u.copy(), s=y.s.copy(), v=y.v.copy())
    half = 0.5 * h
    mid = _ksl(_subflow_solver(flow, t, half, substeps), y)
    return _lsk(_subflow_solver(flow, t + half, half, substeps), mid)


_STEPPERS = {"ksl": ksl_step, "ksl-strang": strang_step}


@dataclass(frozen=True)
class LowRankRun:
    """A rank-constrained run: (n,) arrays of the record times ``t``, errors
    ||Y - A(t)||_F and best rank-r errors of A(t) (nan without ``exact_A``),
    one row per record, and the ``factors`` of the last step taken."""

    t: np.ndarray
    error: np.ndarray
    best_error: np.ndarray
    factors: LowRankFactors


def _tail_norm(sigma, rank):
    """sqrt(sum of the squared singular values past the first ``rank``)."""
    return float(np.sqrt(np.sum(sigma[rank:] ** 2)))


def _record(flow, y, t, best=None):
    """(error, best error) of ``y`` at time t; (nan, nan) without ``exact_A``.

    ``best`` is the best-approximation error when the caller knows it
    already; otherwise it comes from ``flow.exact_sigma`` when the flow
    knows its spectrum, and from an SVD of ``exact_A(t)`` if not.
    """
    if flow.exact_A is None:
        return math.nan, math.nan
    a = flow.exact_A(t)
    # np.linalg.norm's arithmetic for a real matrix.
    diff = (to_full(y) - a).ravel(order="K")
    if best is None:
        sig_a = flow.exact_sigma if flow.exact_sigma is not None else svd_full(a).sigma
        best = _tail_norm(sig_a, y.rank)
    return math.sqrt(diff.dot(diff)), best


def integrate_lowrank(flow, y0, t0, t_end, h, method="ksl", substeps=10, record_every=1) -> LowRankRun:
    """Fixed-step rank-constrained run of step_count(h, t_end - t0) steps.

    Records step k at t0 + k * h every ``record_every`` steps, and always
    the initial and final states.  If step k overflows, the raised
    SolverDivergenceError carries ``step_index = k`` and, in ``records``,
    the run cut to the rows before step k, ending at step k - 1's factors.
    """
    try:
        stepper = _STEPPERS[method]
    except KeyError:
        raise ContractViolationError(f"method must be one of {sorted(_STEPPERS)}, got {method!r}") from None
    require_real("t0", t0)
    require_real("t_end", t_end)
    n_steps = step_count(h, t_end - t0)
    require_count("record_every", record_every)
    _validate_step_args(flow, y0, t0, h, substeps)
    # A spectrum that is the same for every t gives one best error per run.
    best = None if flow.exact_sigma is None else _tail_norm(flow.exact_sigma, y0.rank)
    y = y0
    rows = [(t0, *_record(flow, y, t0, best))]  # (t, error, best error)
    for k in range(1, n_steps + 1):
        try:
            y = stepper(flow, y, t0 + (k - 1) * h, h, substeps=substeps)
        except SolverDivergenceError as exc:
            exc.step_index = k
            exc.records = LowRankRun(*np.array(rows).T, y)
            raise
        if k % record_every == 0 or k == n_steps:
            t = t0 + k * h
            rows.append((t, *_record(flow, y, t, best)))
    return LowRankRun(*np.array(rows).T, y)


def naive_gauge_rhs(flow, t, u, s, v):
    """Right-hand side of the factor ODEs in the standard gauge.

    With the gauge U^T dU = 0, V^T dV = 0 the factors obey

        dU = (I - U U^T) F V S^{-1}
        dS = U^T F V
        dV = (I - V V^T) F^T U S^{-T}

    This is the textbook form and it contains S^{-1}: it is used by the
    contrast integrator only, never by the splitting steps.
    """
    f = flow.eval_F(t, u @ s @ v.T)
    fv = f @ v
    ftu = f.T @ u
    s_dot = u.T @ fv
    u_dot = np.linalg.solve(s.T, (fv - u @ (u.T @ fv)).T).T
    v_dot = np.linalg.solve(s, (ftu - v @ (v.T @ ftu)).T).T
    return u_dot, s_dot, v_dot


def integrate_naive_gauge(flow, y0, t0, t_end, h):
    """Integrate the gauge ODEs with ``_rk4``, one substep per step, and
    return the dense U S V^T at t_end (U and V drift off orthonormality).

    Raises SolverDivergenceError on overflow or a singular core, which
    for ill-conditioned S is the expected outcome.
    """
    require_real("t0", t0)
    require_real("t_end", t_end)
    n_steps = step_count(h, t_end - t0)
    _check_shape(flow, y0)
    (m, n), r = y0.shape, y0.rank
    pack = lambda mats: np.concatenate([a.ravel() for a in mats])

    def unpack(x):
        u, s, v = np.split(x, (m * r, m * r + r * r))
        return u.reshape(m, r), s.reshape(r, r), v.reshape(n, r)

    rhs = lambda t, x: pack(naive_gauge_rhs(flow, t, *unpack(x)))
    x = pack((y0.u, y0.s, y0.v))
    with np.errstate(all="ignore"):
        for k in range(1, n_steps + 1):
            try:
                x = _rk4(rhs, t0 + (k - 1) * h, h, x, 1)
            except np.linalg.LinAlgError as exc:
                raise SolverDivergenceError(
                    f"naive gauge integration hit a singular core at step {k}",
                    step_index=k,
                ) from exc
            if not np.all(np.isfinite(x)):
                raise SolverDivergenceError(
                    f"naive gauge integration overflowed at step {k}",
                    step_index=k,
                )
    u, s, v = unpack(x)
    return u @ s @ v.T


def _skew_rotation_generator(rng, n):
    """Random skew-symmetric matrix scaled to unit spectral norm."""
    b = rng.standard_normal((n, n))
    w = 0.5 * (b - b.T)
    # Spectral norm of a skew matrix = largest |eigenvalue| of i*W.
    theta = np.linalg.eigvalsh(1j * w)
    return w / np.max(np.abs(theta))


@lru_cache(maxsize=1)
def _rotation_generators(m, n, seed, speed, sign):
    """Read-only (W1, W2, theta1, V1, theta2, V2) of ``rotating_flow``:
    the generators with spectral norm ``speed`` drawn from ``seed``, and
    i W = V diag(theta) V^H for each.  ``sign``, the sign of ``speed``,
    keeps -0.0 apart from +0.0, which compare and hash equal.  One set is
    held: a larger cache would only carry sets from one run to the next
    inside a long-lived process, which no CLI run is."""
    rng = np.random.default_rng(seed)
    w1 = speed * _skew_rotation_generator(rng, m)
    w2 = speed * _skew_rotation_generator(rng, n)
    theta1, vec1 = np.linalg.eigh(1j * w1)
    theta2, vec2 = np.linalg.eigh(1j * w2)
    generators = (w1, w2, theta1, vec1, theta2, vec2)
    for array in generators:
        array.flags.writeable = False
    return generators


def rotating_flow(diag_values, m=None, n=None, seed=0, y_dependent=True,
                  speed=1.0) -> MatrixFlow:
    """Flow whose exact solution is A(t) = e^{t W1} D e^{t W2}^T.

    ``diag_values``, a sequence of finite reals, fills the leading
    diagonal of the m-by-n matrix D (2 <= m, n <= 1000); W1, W2 are fixed
    random skew-symmetric matrices with spectral norm ``speed`` drawn from
    a generator seeded with the integer ``seed`` >= 0, so the singular
    values of A(t) are the diagonal values for every t.  With
    ``y_dependent`` the right-hand side is F(t, Y) = W1 Y + Y W2^T (A
    solves this exactly from A(0) = D); otherwise F(t, Y) = dA/dt
    evaluated from the closed form, independent of Y, and the flow sets
    ``increment``.

    Everything is evaluated in the eigenbases of the generators: with
    i W = V Theta V^H, e^k(t) = exp(-i t theta_k) and M = V1^H D conj(V2),

        sum_j w_j A(t_j) = Re(V1 [((w o E1)^T E2) o M] V2^T),

    where row j of E1, E2 holds e(t_j) and o is the entrywise product.
    ``exact_A(t)`` is the one-node sum, F(t) = W1 A(t) + A(t) W2^T, and
    ``increment(t, span)``, the integral of F, is the two-node sum
    A(t + span) - A(t): one complex triple product per interval.  A phase
    t * theta that overflows gives nan entries, which the splitting steps
    report as a divergence.  ``exact_sigma`` is set to the sorted
    |diagonal values|, padded with zeros to min(m, n).

    Flows with equal (m, n, seed, speed) share one read-only set of
    generators and eigendecompositions, whatever their diagonal values.
    At most one set is held: about 77 KB at 40 x 40, and about 48 MB at
    the 1,000 cap.  Each call still builds its own D, core and closures.
    """
    d_vals = as_matrix([diag_values], "diag_values")[0]
    r0 = d_vals.size
    m = require_count("m", r0 if m is None else m)
    n = require_count("n", r0 if n is None else n)
    if min(m, n) < 2:
        raise ContractViolationError(f"rotating_flow needs m, n >= 2, got {m}x{n}")
    if max(m, n) > 1000:
        # W1 and W2 are eigendecomposed densely (O(m**3) time, 16 m**2
        # bytes each) and every evaluation of A is a dense complex product:
        # at 1,000 x 1,000 a flow already takes about 2 s to build and
        # 0.17 s per A(t) on 2 vCPUs.  The experiments use at most 40 x 40.
        raise ContractViolationError(f"rotating_flow needs m, n <= 1000, got {m}x{n}")
    if r0 > min(m, n):
        raise ContractViolationError(f"{r0} diagonal values do not fit a {m}x{n} matrix")
    speed = require_real("speed", speed, finite=True)
    seed = require_count("seed", seed, minimum=0)
    d = np.zeros((m, n))
    d[:r0, :r0] = np.diag(d_vals)
    w1, w2, theta1, vec1, theta2, vec2 = _rotation_generators(
        m, n, seed, speed, math.copysign(1.0, speed))
    core = vec1.conj().T @ d @ vec2.conj()
    vec2_t = vec2.T
    one = np.ones(1)
    ends = np.array([-1.0, 1.0])

    def weighted_a(times, weights):
        with np.errstate(over="ignore", invalid="ignore"):
            e1 = np.exp(-1j * np.multiply.outer(times, theta1))
            e2 = np.exp(-1j * np.multiply.outer(times, theta2))
        return np.real(vec1 @ (((weights[:, None] * e1).T @ e2) * core) @ vec2_t)

    def exact_a(t):
        return weighted_a(np.array([float(t)]), one)

    increment = None
    if y_dependent:
        eval_f = lambda t, y: w1 @ y + y @ w2.T
    else:
        def eval_f(t, y):
            a = weighted_a(np.array([float(t)]), one)
            return w1 @ a + a @ w2.T

        increment = lambda t, span: weighted_a(np.array([t, t + span], dtype=float), ends)

    sigma = np.zeros(min(m, n))
    sigma[:r0] = np.sort(np.abs(d_vals))[::-1]
    return MatrixFlow(shape=(m, n), eval_F=eval_f, exact_A=exact_a, exact_sigma=sigma,
                      increment=increment)

