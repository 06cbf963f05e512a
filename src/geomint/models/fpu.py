"""Stiff spring chain (alternating soft quartic / stiff linear springs).

The chain of 2m mass points with fixed ends is written in scaled
variables: x_i is the scaled center of the i-th stiff spring and y_i its
scaled expansion.  All stiff springs share one frequency omega, so the
oscillatory layout is one slow block of dimension m (the centers) plus m
fast blocks of dimension 1 (the expansions).

Coupling potential:

    U(x, y) = 1/4 * [ (x_1 - y_1)^4
                      + sum_{i=1}^{m-1} (x_{i+1} - y_{i+1} - x_i - y_i)^4
                      + (x_m + y_m)^4 ]
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError, require_count, require_real
from .state import PhaseState
from .systems import OscillatorySystem


def _spring_terms(q, m):
    """The m+1 quartic spring arguments D_0 .. D_m along the last axis of
    q = (x_1 .. x_m, y_1 .. y_m)."""
    x, y = q[..., :m], q[..., m:]
    d = np.empty(q.shape[:-1] + (m + 1,))
    inner = d[..., 1:m]  # x_i - y_i - x_{i-1} - y_{i-1}, left to right, in place
    np.subtract(x, y, out=d[..., :m])
    np.subtract(inner, x[..., :-1], out=inner)
    np.subtract(inner, y[..., :-1], out=inner)
    np.add(x[..., -1], y[..., -1], out=d[..., m])
    return d


def make_fpu_chain(m, omega):
    """Build the chain as (system, initial_state).

    ``m`` stiff springs, all at frequency ``omega``.  The initial state
    puts unit energy into the first fast mode (y_1 = 1/omega, dy_1 = 1)
    and kicks the first center (x_1 = 1, dx_1 = 1); everything else
    starts at rest.  ``m`` is at most 100: the resonance screen's
    coefficient array grows like m**3 (about 1 GB at m = 400).
    """
    m = require_count("m", m)
    omega = require_real("omega", omega)
    if m > 100:
        raise ContractViolationError(f"m must be in [1, 100], got {m}")
    if omega < 10.0:
        # The scaled variables assume a clear fast/slow separation.
        raise ContractViolationError(f"omega must be >= 10, got {omega}")
    cube = np.array(3.0)  # a 0-d exponent: same bits as 3, less overhead

    def eval_U(q):
        d = _spring_terms(q, m)
        return 0.25 * np.sum(d**4, axis=-1)

    def grad_U(q):
        c = _spring_terms(q, m) ** cube
        left, right = c[:-1], c[1:]
        grad = np.empty(2 * m)  # (d/dx, d/dy), written in place
        d_dy = grad[m:]
        np.subtract(left, right, out=grad[:m])
        np.add(left, right, out=d_dy)
        np.negative(d_dy, out=d_dy)
        wall = 2.0 * c[m]  # the last spring ties x_m + y_m to the wall, flipping signs
        grad[m - 1] += wall
        grad[-1] += wall
        return grad

    sys = OscillatorySystem(
        frequencies=np.concatenate([[0.0], np.full(m, omega)]),
        block_dims=np.concatenate([[m], np.ones(m, dtype=int)]),
        eval_U=eval_U,
        grad_U=grad_U,
        name=f"fpu-chain-m{m}",
    )
    q0 = np.zeros(2 * m)
    p0 = np.zeros(2 * m)
    q0[0] = 1.0
    p0[0] = 1.0
    q0[m] = 1.0 / omega
    p0[m] = 1.0
    return sys, PhaseState(p=p0, q=q0)
