"""Fixed-step one-step methods for separable Hamiltonian systems.

For H(p, q) = p^T M^{-1} p / 2 + V(q), four Euler variants, indexed by
(alpha, beta) in {0, 1}^2, all read

    p1 = p - h * grad V(q_{beta})
    q1 = q + h * M^{-1} p_{alpha}

where the subscript 0 picks the old value and 1 the new one.  (0,0) is
the explicit method, (1,1) the implicit one, and the two mixed variants
are the symplectic Euler methods.  The three-stage method (half kick,
full drift, half kick) is their symmetric composition.  Every variant
except (1,1) runs explicitly; its position equation is solved by
fixed-point iteration or by a finite-difference Newton method.

Diagnostics measure, by centered finite differences of the step map,
how well a method preserves the symplectic two-form and whether it is
symmetric under time reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .errors import ContractViolationError, SolverDivergenceError
from .fdtools import central_jacobian
from .models.state import PhaseState, Trajectory
from .models.systems import SeparableSystem
from .series import SeriesTable

_SOLVERS = ("fixed-point", "newton")

# integrate() and the low-rank integrators refuse runs of more steps than
# this, which sits far above every registered experiment.
MAX_STEPS = 10**8


@dataclass(frozen=True)
class EulerVariant:
    """Argument selector (alpha, beta) for the Euler family."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha not in (0, 1) or self.beta not in (0, 1):
            raise ContractViolationError(
                f"variant indices must be 0 or 1, got ({self.alpha}, {self.beta})"
            )


EXPLICIT_EULER = EulerVariant(0, 0)
IMPLICIT_EULER = EulerVariant(1, 1)
SYMPLECTIC_EULER_PQ = EulerVariant(1, 0)  # new p enters first
SYMPLECTIC_EULER_QP = EulerVariant(0, 1)  # new q enters first


@dataclass(frozen=True)
class StepperConfig:
    """Step size plus implicit-solve parameters.

    ``step_size`` must be finite; integrate() additionally requires it
    positive, while the symmetry diagnostic deliberately runs steps with
    the sign flipped.  The solver tolerance is a max-norm residual
    relative to the state scale.
    """

    step_size: float
    solver: str = "fixed-point"
    solver_tol: float = 1e-12
    solver_max_iter: int = 50

    def __post_init__(self):
        if not np.isfinite(self.step_size):
            raise ContractViolationError(f"step_size must be finite, got {self.step_size}")
        if self.solver not in _SOLVERS:
            raise ContractViolationError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        if not 0.0 < self.solver_tol < 1.0:
            raise ContractViolationError(f"solver_tol must be in (0, 1), got {self.solver_tol}")
        if self.solver_max_iter < 1:
            raise ContractViolationError("solver_max_iter must be at least 1")


def _fixed_point(map_fn, x0, tol, max_iter):
    x = x0
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        x_new = map_fn(x)
        if not np.all(np.isfinite(x_new)):
            raise SolverDivergenceError(
                "fixed-point iteration produced non-finite values",
                iterations=iteration,
                residual=float("inf"),
            )
        residual = float(np.max(np.abs(x_new - x)))
        if residual <= tol * (1.0 + float(np.max(np.abs(x_new)))):
            return x_new
        x = x_new
    raise SolverDivergenceError(
        f"fixed-point iteration did not converge in {max_iter} iterations "
        f"(last update {residual:.3e})",
        iterations=max_iter,
        residual=residual,
    )


def _newton(residual_fn, x0, tol, max_iter):
    x = x0.copy()
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        r = residual_fn(x)
        if not np.all(np.isfinite(r)):
            raise SolverDivergenceError(
                "Newton residual is non-finite",
                iterations=iteration,
                residual=float("inf"),
            )
        residual = float(np.max(np.abs(r)))
        if residual <= tol * (1.0 + float(np.max(np.abs(x)))):
            return x
        jac = central_jacobian(residual_fn, x, step=1e-7)
        try:
            dx = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SolverDivergenceError(
                f"Newton Jacobian is singular: {exc}",
                iterations=iteration,
                residual=residual,
            ) from exc
        x = x - dx
    raise SolverDivergenceError(
        f"Newton iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        iterations=max_iter,
        residual=residual,
    )


def _solve(cfg, map_fn, residual_fn, x0):
    if cfg.solver == "fixed-point":
        return _fixed_point(map_fn, x0, cfg.solver_tol, cfg.solver_max_iter)
    return _newton(residual_fn, x0, cfg.solver_tol, cfg.solver_max_iter)


def _require_separable(sys):
    if not isinstance(sys, SeparableSystem):
        raise ContractViolationError(f"steppers need a SeparableSystem, got {type(sys).__name__}")


def _euler_kernel(variant, sys, cfg, h, p, q, g=None):
    # No variant evaluates grad V where its next step starts, so nothing
    # is carried: ``g`` is ignored and the returned gradient is None.
    a, b = variant.alpha, variant.beta
    if a == 0 and b == 0:
        return p - h * sys.grad_V(q), q + h * (sys.mass_inverse @ p), None
    if a == 1 and b == 0:
        p1 = p - h * sys.grad_V(q)
        return p1, q + h * (sys.mass_inverse @ p1), None
    if a == 0 and b == 1:
        q1 = q + h * (sys.mass_inverse @ p)
        return p - h * sys.grad_V(q1), q1, None
    # (1, 1): only the position equation is genuinely implicit.
    minv = sys.mass_inverse

    def q_map(q1):
        return q + h * (minv @ (p - h * sys.grad_V(q1)))

    def q_residual(q1):
        return q1 - q - h * (minv @ (p - h * sys.grad_V(q1)))

    q1 = _solve(cfg, q_map, q_residual, q)
    return p - h * sys.grad_V(q1), q1, None


def _verlet_kernel(sys, cfg, h, p, q, g=None):
    if g is None:
        g = sys.grad_V(q)
    p_half = p - 0.5 * h * g
    q1 = q + h * (sys.mass_inverse @ p_half)
    g1 = sys.grad_V(q1)
    return p_half - 0.5 * h * g1, q1, g1


def step_euler(sys, variant: EulerVariant, cfg: StepperConfig, y: PhaseState) -> PhaseState:
    """One step of the Euler variant ``variant`` with step cfg.step_size."""
    p, q, _ = _euler_kernel(variant, sys, cfg, cfg.step_size, y.p, y.q)
    return PhaseState(p=p, q=q)


def step_stormer_verlet(sys, cfg: StepperConfig, y: PhaseState) -> PhaseState:
    """One step of the symmetric three-stage (kick, drift, kick) method."""
    p, q, _ = _verlet_kernel(sys, cfg, cfg.step_size, y.p, y.q)
    return PhaseState(p=p, q=q)


METHOD_IDS = {
    "explicit-euler": partial(_euler_kernel, EXPLICIT_EULER),
    "implicit-euler": partial(_euler_kernel, IMPLICIT_EULER),
    "symplectic-euler-qp": partial(_euler_kernel, SYMPLECTIC_EULER_QP),
    "symplectic-euler-pq": partial(_euler_kernel, SYMPLECTIC_EULER_PQ),
    "stormer-verlet": _verlet_kernel,
}

MethodSpec = Union[str, Callable]


def resolve_method(method: MethodSpec):
    """Turn a method id or a kernel callable into a kernel.

    Kernels have signature (sys, cfg, h, p, q, g=None) -> (p1, q1, g1) on
    raw arrays.  ``g1`` is the gradient term the kernel evaluated at the
    new position q1, or None from a kernel that has none to hand on (the
    Euler variants).  ``g`` is that value from the previous step of the
    same size h, ending at q, or None to have it evaluated afresh.
    integrate() carries it from step to step, so Stormer-Verlet and the
    trigonometric kernels evaluate one gradient per step ("first same as
    last"); the step_* helpers and the finite-difference diagnostics pass
    None, so they never reuse a gradient from elsewhere.
    """
    if isinstance(method, str):
        try:
            return METHOD_IDS[method]
        except KeyError:
            raise ContractViolationError(
                f"unknown method id {method!r}; known: {sorted(METHOD_IDS)}"
            ) from None
    if callable(method):
        return method
    raise ContractViolationError(f"cannot interpret method {method!r}")


def step_count(h, span):
    """round(span / h), the number of fixed steps of size h over an interval
    of length ``span``: 0 for an empty interval.  The one step counter of
    integrate(), the low-rank integrators and the harness.

    Refuses h <= 0, span < 0, a nonempty interval shorter than half a step
    and more than MAX_STEPS steps (ContractViolationError).
    """
    if not h > 0.0:
        raise ContractViolationError(f"step size must be > 0, got {h}")
    if not span >= 0.0:
        raise ContractViolationError(f"interval length must be >= 0, got {span}")
    ratio = span / h
    if not ratio <= MAX_STEPS:
        raise ContractViolationError(
            f"{span} / {h} = {ratio:.3g} steps; at most MAX_STEPS = {MAX_STEPS:.0e} are taken"
        )
    n_steps = int(round(ratio))
    if n_steps == 0 and span > 0.0:
        raise ContractViolationError(f"step size {h} too large for an interval of length {span}")
    return n_steps


def integrate(sys, method: MethodSpec, cfg: StepperConfig, y0: PhaseState, t_end,
              record_every=1) -> Trajectory:
    """Run step_count(h, t_end) fixed steps from t = 0; return their Trajectory.

    Records every ``record_every``-th step plus, always, the initial and
    final states (t_end = 0 yields the single row of y0): row i of the
    trajectory's ``t``, ``p`` and ``q`` arrays holds one recorded step,
    and ``trajectory[i]`` is the pair (t_i, PhaseState).  The rows are
    preallocated and each recorded step's p and q are copied into its
    row.  If an implicit solve diverges at step k, or step k leaves p or
    q non-finite, the raised SolverDivergenceError carries
    ``step_index = k`` and, in its ``records`` attribute, the trajectory
    cut to the rows written before step k.
    """
    _require_separable(sys)
    h = cfg.step_size
    n_steps = step_count(h, t_end)
    record_every = int(record_every)
    if record_every < 1:
        raise ContractViolationError(f"record_every must be >= 1, got {record_every}")
    if y0.dim != sys.dim:
        raise ContractViolationError(f"y0 has dimension {y0.dim}, system expects {sys.dim}")
    kernel = resolve_method(method)
    recorded = np.arange(0, n_steps + 1, record_every)
    if recorded[-1] != n_steps:
        recorded = np.append(recorded, n_steps)
    times = recorded * h
    ps = np.empty((times.size, y0.dim))
    qs = np.empty((times.size, y0.dim))
    ps[0], qs[0] = y0.p, y0.q
    p, q, g = y0.p.copy(), y0.q.copy(), None
    row = 1
    # x.dot(zero) is nan exactly when x has an inf or nan entry (inf * 0 is
    # nan), which checks each step's result in two cheap calls.  Overflow
    # is then reported as the divergence it is, not as a warning.
    zero = np.zeros(y0.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            try:
                p, q, g = kernel(sys, cfg, h, p, q, g)
                if math.isnan(p.dot(zero) + q.dot(zero)):
                    raise SolverDivergenceError(f"step {k} left the state non-finite")
            except SolverDivergenceError as exc:
                exc.step_index = k
                exc.records = Trajectory(times[:row], ps[:row], qs[:row])
                raise
            if k % record_every == 0 or k == n_steps:
                ps[row] = p
                qs[row] = q
                row += 1
    return Trajectory(times, ps, qs)


def canonical_two_form(dim):
    """The matrix J of the symplectic form in the (p, q) flat layout."""
    j = np.zeros((2 * dim, 2 * dim))
    j[:dim, dim:] = np.eye(dim)
    j[dim:, :dim] = -np.eye(dim)
    return j


def symplecticity_defect(sys, method, cfg, y: PhaseState, fd_step=1e-6) -> float:
    """|| (D Phi)^T J (D Phi) - J ||_F with D Phi from centered differences.

    Exactly symplectic maps give zero up to finite-difference noise;
    the explicit and implicit Euler methods give a defect of order h^2.
    """
    _require_separable(sys)
    kernel = resolve_method(method)
    d = y.dim

    def phi(y_flat):
        p1, q1, _ = kernel(sys, cfg, cfg.step_size, y_flat[:d], y_flat[d:])
        return np.concatenate((p1, q1))

    dphi = central_jacobian(phi, y.flat(), step=fd_step)
    j = canonical_two_form(d)
    return float(np.linalg.norm(dphi.T @ j @ dphi - j))


def symmetry_defect(sys, method, cfg, y: PhaseState) -> float:
    """Max-norm of Phi_{-h}(Phi_h(y)) - y; zero for symmetric methods."""
    _require_separable(sys)
    kernel = resolve_method(method)
    h = cfg.step_size
    p1, q1, _ = kernel(sys, cfg, h, y.p, y.q)
    p2, q2, _ = kernel(sys, cfg, -h, p1, q1)
    return float(max(np.max(np.abs(p2 - y.p)), np.max(np.abs(q2 - y.q))))


def first_integral_series(records, integrals) -> SeriesTable:
    """Evaluate named functionals along a trajectory.

    ``records`` is the output of integrate(); ``integrals`` maps a name
    to a callable PhaseState -> float.  The table has, per integral I,
    columns I, I_drift (I(t) - I(0)) and I_rel_drift (drift normalized by
    |I(0)|, or the raw drift if I(0) is zero).
    """
    if not records:
        raise ContractViolationError("records must not be empty")
    names = list(integrals)
    columns = ["t"]
    for name in names:
        columns += [name, f"{name}_drift", f"{name}_rel_drift"]
    table = SeriesTable(columns)
    baseline = {name: float(integrals[name](records[0][1])) for name in names}
    for t, state in records:
        row = [t]
        for name in names:
            value = float(integrals[name](state))
            drift = value - baseline[name]
            scale = abs(baseline[name])
            row += [value, drift, drift / scale if scale > 0.0 else drift]
        table.append(row)
    return table
