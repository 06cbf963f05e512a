"""Fixed-step one-step methods for separable Hamiltonian systems.

For H(p, q) = p^T M^{-1} p / 2 + V(q) with diagonal M, the four Euler
methods all read

    p1 = p - h * grad V(q_b)
    q1 = q + h * M^{-1} p_a

where each of a and b picks the old value (0) or the new one (1).
a = b = 0 is the explicit method, a = b = 1 the implicit one, and the
two mixed choices are the symplectic Euler methods.  The three-stage
Stormer-Verlet method (half kick, full drift, half kick) is their
symmetric composition.  Every method except implicit Euler runs
explicitly; its position equation is solved by fixed-point iteration or
by a finite-difference Newton method.

Diagnostics measure, by centered finite differences of the step map,
how well a method preserves the symplectic two-form and whether it is
symmetric under time reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from typing import Callable, Union

import numpy as np

from .errors import ContractViolationError, SolverDivergenceError, require_count, require_real
from .fdtools import central_jacobian
from .models.state import PhaseState, Trajectory
from .models.systems import SeparableSystem
from .series import SeriesTable

_SOLVERS = ("fixed-point", "newton")

# integrate() and the low-rank integrators refuse runs of more steps than
# this, which sits far above every registered experiment.
MAX_STEPS = 10**8


# Implicit solves stop at a max-norm residual of SOLVER_TOL relative to
# the state scale, or give up after SOLVER_MAX_ITER iterations.
SOLVER_TOL = 1e-12
SOLVER_MAX_ITER = 50


@dataclass(frozen=True)
class StepperConfig:
    """Step size plus the implicit solver, ``fixed-point`` or ``newton``.

    ``step_size`` must be a finite real scalar and is stored as a Python
    float; integrate() additionally requires it positive, while the
    symmetry diagnostic deliberately runs steps with the sign flipped.
    """

    step_size: float
    solver: str = "fixed-point"

    def __post_init__(self):
        object.__setattr__(self, "step_size", require_real("step_size", self.step_size, finite=True))
        if self.solver not in _SOLVERS:
            raise ContractViolationError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")


def _fixed_point(map_fn, x0):
    x = x0
    residual = np.inf
    for iteration in range(1, SOLVER_MAX_ITER + 1):
        x_new = map_fn(x)
        if not np.isfinite(x_new).all():
            raise SolverDivergenceError(
                "fixed-point iteration produced non-finite values",
                iterations=iteration,
                residual=float("inf"),
            )
        residual = float(np.abs(x_new - x).max())
        if residual <= SOLVER_TOL * (1.0 + float(np.abs(x_new).max())):
            return x_new
        x = x_new
    raise SolverDivergenceError(
        f"fixed-point iteration did not converge in {SOLVER_MAX_ITER} iterations "
        f"(last update {residual:.3e})",
        iterations=SOLVER_MAX_ITER,
        residual=residual,
    )


def _newton(residual_fn, x0):
    x = x0.copy()
    residual = np.inf
    for iteration in range(1, SOLVER_MAX_ITER + 1):
        r = residual_fn(x)
        if not np.isfinite(r).all():
            raise SolverDivergenceError(
                "Newton residual is non-finite",
                iterations=iteration,
                residual=float("inf"),
            )
        residual = float(np.abs(r).max())
        if residual <= SOLVER_TOL * (1.0 + float(np.abs(x).max())):
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
        f"Newton iteration did not converge in {SOLVER_MAX_ITER} iterations "
        f"(last residual {residual:.3e})",
        iterations=SOLVER_MAX_ITER,
        residual=residual,
    )


def _require_problem(sys, y, name):
    """Refuse a system that is not separable and a state ``name`` that is
    not a PhaseState of the system's dimension."""
    if not isinstance(sys, SeparableSystem):
        raise ContractViolationError(f"steppers need a SeparableSystem, got {type(sys).__name__}")
    if not isinstance(y, PhaseState):
        raise ContractViolationError(f"{name} must be a PhaseState, got {type(y).__name__}")
    if y.dim != sys.dim:
        raise ContractViolationError(f"{name} has dimension {y.dim}, system expects {sys.dim}")


@lru_cache(maxsize=16)
def _step_constants(h, sign):
    """Read-only 0-d h and h / 2 (faster than floats); ``sign`` keeps -0.0 apart."""
    constants = np.array([h, 0.5 * h])
    constants.flags.writeable = False
    return constants[0, ...], constants[1, ...]


# Kernels: (sys, cfg, h, p, q, g=None) -> (p1, q1, g1); see resolve_method.
# No Euler method evaluates grad V where its next step starts, so nothing
# is carried: ``g`` is ignored and the returned gradient is None.


def _explicit_euler(sys, cfg, h, p, q, g=None):
    h, _ = _step_constants(h, math.copysign(1.0, h))
    return p - h * sys.grad_V(q), q + h * (sys.inverse_masses * p), None


def _symplectic_euler_pq(sys, cfg, h, p, q, g=None):
    h, _ = _step_constants(h, math.copysign(1.0, h))
    p1 = p - h * sys.grad_V(q)
    return p1, q + h * (sys.inverse_masses * p1), None


def _symplectic_euler_qp(sys, cfg, h, p, q, g=None):
    h, _ = _step_constants(h, math.copysign(1.0, h))
    q1 = q + h * (sys.inverse_masses * p)
    return p - h * sys.grad_V(q1), q1, None


def _implicit_euler(sys, cfg, h, p, q, g=None):
    # Only the position equation is genuinely implicit.
    h, _ = _step_constants(h, math.copysign(1.0, h))
    minv = sys.inverse_masses
    if cfg.solver == "fixed-point":
        q1 = _fixed_point(lambda q1: q + h * (minv * (p - h * sys.grad_V(q1))), q)
    else:
        q1 = _newton(lambda q1: q1 - q - h * (minv * (p - h * sys.grad_V(q1))), q)
    return p - h * sys.grad_V(q1), q1, None


def _verlet_kernel(sys, cfg, h, p, q, g=None):
    h, half = _step_constants(h, math.copysign(1.0, h))
    if g is None:
        g = sys.grad_V(q)
    p_half = p - half * g
    q1 = q + h * (sys.inverse_masses * p_half)
    g1 = sys.grad_V(q1)
    return p_half - half * g1, q1, g1


METHOD_IDS = {
    "explicit-euler": _explicit_euler,
    "implicit-euler": _implicit_euler,
    "symplectic-euler-qp": _symplectic_euler_qp,
    "symplectic-euler-pq": _symplectic_euler_pq,
    "stormer-verlet": _verlet_kernel,
}

MethodSpec = Union[str, Callable]


def resolve_method(method: MethodSpec):
    """Turn a method id or a kernel callable into a kernel.

    Kernels have signature (sys, cfg, h, p, q, g=None) -> (p1, q1, g1) on
    raw arrays.  ``g1`` is the gradient term the kernel evaluated at the
    new position q1, or None from a kernel that has none to hand on (the
    Euler methods).  ``g`` is that value from the previous step of the
    same size h, ending at q, or None to have it evaluated afresh.
    integrate() carries it from step to step, so Stormer-Verlet and the
    trigonometric kernels evaluate one gradient per step ("first same as
    last"); the finite-difference diagnostics pass None, so they never
    reuse a gradient from elsewhere.  One step of a method is
    ``resolve_method(id)(sys, cfg, h, p, q)``.
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

    Refuses a non-real h or span, h <= 0, span < 0, a nonempty interval
    shorter than half a step and more than MAX_STEPS steps (ContractViolationError).
    """
    if not (isinstance(h, Real) and h > 0.0):
        raise ContractViolationError(f"step size must be a real > 0, got {h!r}")
    if not (isinstance(span, Real) and span >= 0.0):
        raise ContractViolationError(f"interval length must be a real >= 0, got {span!r}")
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
    trajectory's ``t``, ``p`` and ``q`` arrays holds one recorded step.
    The rows are preallocated and each recorded step's p and q are copied
    into its row.  If an implicit solve diverges at step k, or step k
    leaves p or q non-finite, the raised SolverDivergenceError carries
    ``step_index = k`` and, in its ``records`` attribute, the trajectory
    cut to the rows written before step k.
    """
    _require_problem(sys, y0, "y0")
    h = cfg.step_size
    n_steps = step_count(h, t_end)
    require_count("record_every", record_every)
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
    # p.dot(q) is finite unless p or q has an inf or nan entry or the sum
    # overflows; only then is x.dot(zero) taken, nan exactly when x has an
    # inf or nan entry (inf * 0 is nan).  Overflow is thus a divergence.
    zero = np.zeros(y0.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            try:
                p, q, g = kernel(sys, cfg, h, p, q, g)
                if not math.isfinite(p.dot(q)) and math.isnan(p.dot(zero) + q.dot(zero)):
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


def symplecticity_defect(sys, method, cfg, y: PhaseState) -> float:
    """|| (D Phi)^T J (D Phi) - J ||_F with D Phi from centered differences
    of step 1e-6.

    Exactly symplectic maps give zero up to finite-difference noise;
    the explicit and implicit Euler methods give a defect of order h^2.
    """
    _require_problem(sys, y, "y")
    kernel = resolve_method(method)
    d = y.dim

    def phi(y_flat):
        p1, q1, _ = kernel(sys, cfg, cfg.step_size, y_flat[:d], y_flat[d:])
        return np.concatenate((p1, q1))

    dphi = central_jacobian(phi, y.flat(), step=1e-6)
    j = canonical_two_form(d)
    return float(np.linalg.norm(dphi.T @ j @ dphi - j))


def symmetry_defect(sys, method, cfg, y: PhaseState) -> float:
    """Max-norm of Phi_{-h}(Phi_h(y)) - y; zero for symmetric methods."""
    _require_problem(sys, y, "y")
    kernel = resolve_method(method)
    h = cfg.step_size
    p1, q1, _ = kernel(sys, cfg, h, y.p, y.q)
    p2, q2, _ = kernel(sys, cfg, -h, p1, q1)
    return float(max(np.max(np.abs(p2 - y.p)), np.max(np.abs(q2 - y.q))))


@np.errstate(over="ignore", invalid="ignore")
def first_integral_series(trajectory: Trajectory, integrals) -> SeriesTable:
    """Evaluate named functionals along a trajectory.

    ``trajectory`` is the output of integrate(); ``integrals`` maps a name
    to a callable (p, q) -> values on the last axis, as eval_H, called once
    on the stacked records.  The table has, per integral I, columns I,
    I_drift (I(t) - I(0)) and I_rel_drift (drift normalized by |I(0)|, or
    the raw drift if I(0) is zero); inf or nan values raise no warning.
    """
    if not isinstance(trajectory, Trajectory):
        raise ContractViolationError(
            f"first_integral_series needs a Trajectory, got {type(trajectory).__name__}")
    columns, values = ["t"], [trajectory.t]
    for name, integral in integrals.items():
        value = np.asarray(integral(trajectory.p, trajectory.q), dtype=float)
        if value.shape != trajectory.t.shape:
            raise ContractViolationError(f"{name} gave shape {value.shape}; it must act on the last axis")
        drift = value - value[0]
        scale = abs(value[0])
        columns += [name, f"{name}_drift", f"{name}_rel_drift"]
        values += [value, drift, drift / scale if scale > 0.0 else drift]
    return SeriesTable(columns, np.column_stack(values))
