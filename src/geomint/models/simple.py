"""Low-dimensional test systems: harmonic oscillator, pendulum, two-body."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ContractViolationError, require_real
from .state import PhaseState
from .systems import SeparableSystem


def make_harmonic_oscillator():
    """H = (p^2 + q^2) / 2, unit frequency, one degree of freedom."""
    return SeparableSystem(
        inverse_masses=np.ones(1),
        eval_V=lambda q: 0.5 * np.vecdot(q, q),
        grad_V=lambda q: q.copy(),
        name="harmonic",
    )


def make_pendulum():
    """H = p^2 / 2 - cos(q)."""
    return SeparableSystem(
        inverse_masses=np.ones(1),
        eval_V=lambda q: -np.cos(q[..., 0]),
        grad_V=lambda q: np.sin(q),
        name="pendulum",
    )


# |q| as np.linalg.norm computes it: the square root of a dot product.
def _kepler_grad_V(q):
    r = math.sqrt(q.dot(q))
    return q / r**3


def make_kepler(eccentricity):
    """Planar two-body problem H = |p|^2/2 - 1/|q| with standard start.

    Returns (system, initial_state).  The initial condition
    q = (1 - e, 0), p = (0, sqrt((1+e)/(1-e))) puts the orbit at
    perihelion with energy H = -1/2 and angular momentum sqrt(1 - e^2)
    for every eccentricity 0 <= e < 1.
    """
    e = require_real("eccentricity", eccentricity)
    if not 0.0 <= e < 1.0:
        raise ContractViolationError(f"eccentricity must be in [0, 1), got {e}")
    sys = SeparableSystem(
        inverse_masses=np.ones(2),
        eval_V=lambda q: -1.0 / np.sqrt(np.vecdot(q, q)),
        grad_V=_kepler_grad_V,
        name="kepler",
    )
    q0 = np.array([1.0 - e, 0.0])
    p0 = np.array([0.0, np.sqrt((1.0 + e) / (1.0 - e))])
    return sys, PhaseState(p=p0, q=q0)


def angular_momentum_2d(states):
    """Planar angular momentum L = q1 p2 - q2 p1: a float for a PhaseState,
    an (n,) array for a Trajectory."""
    q, p = states.q, states.p
    return q[..., 0] * p[..., 1] - q[..., 1] * p[..., 0]
