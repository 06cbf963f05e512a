"""Spectral truncation of a nonlinear wave equation on the circle.

The field u(x, t) on [0, 2*pi) with

    u_tt = u_xx - rho * u + u^2

is truncated to the lowest 2K+1 real Fourier coefficients.  In the
orthonormal collocation basis (constant, sqrt(2) cos(jx), sqrt(2) sin(jx))
the truncated system is canonically Hamiltonian with one frequency

    omega_j = sqrt(j^2 + rho)

per mode block: dimension 1 for j = 0, dimension 2 (cosine and sine) for
1 <= j <= K.  Note omega_0 = sqrt(rho) > 0: this model has no
zero-frequency block at all.  The quadratic nonlinearity is evaluated
pseudospectrally on the 2K+1 collocation points with a direct
O(K^2) transform (no FFT); aliasing of modes above K is part of the
model definition, so the induced ODE is exactly Hamiltonian.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError, require_count, require_real
from .state import PhaseState
from .systems import OscillatorySystem


def collocation_basis(K):
    """Grid and orthonormal basis matrix for the 2K+1 mode truncation.

    Returns (points, basis) where points has length N = 2K+1 and
    basis[n, c] is the value of basis function c at points[n].  Columns
    are ordered (const, cos 1x, sin 1x, ..., cos Kx, sin Kx), scaled so
    that basis.T @ basis = N * identity (discrete orthonormality).
    """
    K = int(K)
    n_points = 2 * K + 1
    points = 2.0 * np.pi * np.arange(n_points) / n_points
    basis = np.empty((n_points, n_points))
    basis[:, 0] = 1.0
    for j in range(1, K + 1):
        basis[:, 2 * j - 1] = np.sqrt(2.0) * np.cos(j * points)
        basis[:, 2 * j] = np.sqrt(2.0) * np.sin(j * points)
    return points, basis


def make_klein_gordon(K, rho, eps):
    """Build the truncated wave system as (system, initial_state).

    ``K``: highest retained mode number (K <= 64 keeps the direct
    transform cheap); ``rho > 0``: mass parameter; ``eps``: the initial
    data excite only the modes with |j| = 1, with mode energy eps^2.
    """
    K = require_count("K", K)
    rho = require_real("rho", rho)
    eps = require_real("eps", eps)
    if K < 4 or K > 64:
        raise ContractViolationError(f"K must be in [4, 64], got {K}")
    if rho <= 0.0:
        raise ContractViolationError(f"rho must be positive, got {rho}")
    if not 0.0 <= eps <= 0.5:
        raise ContractViolationError(f"eps must be in [0, 0.5], got {eps}")

    n_points = 2 * K + 1
    _, basis = collocation_basis(K)
    divisor = np.array(float(n_points))  # a 0-d divisor: same bits, less overhead

    def eval_U(q):
        # basis @ q on the last axis; for a stack of states this gives each
        # row's values bit for bit (q @ basis.T does not).
        u = (basis @ q[..., None])[..., 0]
        return -np.sum(u**3, axis=-1) / (3.0 * n_points)

    def grad_U(q):
        u = basis @ q
        return -(basis.T @ (u * u)) / divisor

    mode_numbers = np.arange(K + 1)
    sys = OscillatorySystem(
        frequencies=np.sqrt(mode_numbers**2 + rho),
        block_dims=np.concatenate([[1], np.full(K, 2, dtype=int)]),
        eval_U=eval_U,
        grad_U=grad_U,
        name=f"klein-gordon-K{K}",
    )
    # Excite mode 1 (cosine component) with mode energy eps^2, split
    # evenly between kinetic and elastic parts.
    q0 = np.zeros(n_points)
    p0 = np.zeros(n_points)
    omega_1 = float(sys.frequencies[1])
    q0[1] = eps / omega_1
    p0[1] = eps
    return sys, PhaseState(p=p0, q=q0)
