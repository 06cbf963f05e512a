"""Exception types and argument rules shared across the package.

The command line harness maps these onto process exit codes, so the
hierarchy matters: anything that is the caller's fault (bad arguments,
violated preconditions, inadmissible step sizes) derives from
ContractViolationError, while a numerical failure at run time (a solve
that does not converge, a step that overflows) is a SolverDivergenceError.
A low-rank run whose factors lose rank is neither: the splitting
integrator carries a singular core on.
"""

import math
from numbers import Integral, Real

import numpy as np

_FLOAT64 = np.dtype(float)


class GeomintError(Exception):
    """Base class for all package-specific errors."""


class ContractViolationError(GeomintError):
    """An operation was called with arguments that violate its contract."""


class InadmissibleStepError(ContractViolationError):
    """A step size failed the non-resonance admissibility policy.

    Carries the offending ResonanceReport in the ``report`` attribute.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ResonantStepError(ContractViolationError):
    """A trigonometric step hit a filter singularity sinc(h*omega_j) = 0.

    The step size is inadmissible for the system, so this is a contract
    violation like InadmissibleStepError."""

    def __init__(self, message, block_index=None, h_omega=None):
        super().__init__(message)
        self.block_index = block_index
        self.h_omega = h_omega


class SolverDivergenceError(GeomintError):
    """An implicit solve failed to converge, or a step left finite values.

    Attributes record how far the run got so callers can log the
    failure as an experimental outcome instead of a crash.
    """

    def __init__(self, message, iterations=None, residual=None, step_index=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.step_index = step_index


def require_real(name, value, finite=False):
    """``value`` as a float; ContractViolationError unless it is a real number
    (a ``numbers.Real``: Python's and numpy's floats and ints) within the
    float range, finite if ``finite``."""
    try:
        x = float(value) if isinstance(value, Real) else None
    except OverflowError:  # an int beyond the float range
        x = None
    if x is None or (finite and not math.isfinite(x)):
        raise ContractViolationError(f"{name} must be a {'finite ' if finite else ''}real, got {value!r}")
    return x


def require_count(name, value, minimum=1):
    """``value`` as an int; ContractViolationError unless it is a
    ``numbers.Integral`` >= ``minimum``."""
    if not isinstance(value, Integral) or value < minimum:
        raise ContractViolationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_real_array(name, value):
    """``value`` as a float array of its own shape; ContractViolationError
    unless numpy converts it, and refused if complex (the conversion would
    drop the imaginary part).  Non-finite entries are left to the caller.
    A float64 ``ndarray`` is returned as is, as ``np.asarray`` returns it."""
    if type(value) is np.ndarray and value.dtype == _FLOAT64:
        return value
    try:
        if np.iscomplexobj(value):
            raise ContractViolationError(f"{name} is complex; a real array is needed")
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"{name} does not convert to a float array: {exc}") from None
