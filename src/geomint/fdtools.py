"""Centered finite-difference Jacobians: Newton's solves and the
symplecticity diagnostic.  A gradient of a scalar f is the one-row
Jacobian ``central_jacobian(lambda x: [f(x)], x, step)[0]``."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


def central_jacobian(f, x, step=1e-6):
    """Centered-difference Jacobian of a vector function at ``x``.

    ``step`` must lie in [1e-8, 1e-4]: below that the quotient is all
    roundoff, above it the truncation error drowns the quantities these
    Jacobians feed (symplecticity defects of order h^2).  ``f`` is called
    exactly 2 * x.size times, so ``x`` must not be empty.
    """
    if not 1e-8 <= step <= 1e-4:
        raise ContractViolationError(f"fd step must be in [1e-8, 1e-4], got {step}")
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ContractViolationError("central_jacobian needs a non-empty x")
    jac = None
    two_step = np.array(2.0 * step)  # 0-d: divides with less overhead, same bits
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        column = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / two_step
        if jac is None:
            jac = np.zeros((column.size, x.size))
        jac[:, i] = column
    return jac
