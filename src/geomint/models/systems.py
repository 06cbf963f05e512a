"""System types: separable and oscillatory.

A SeparableSystem has H(p, q) = p^T M^{-1} p / 2 + V(q) with a diagonal
mass matrix M, given by the vector of its inverse diagonal; it exposes
``dim``, ``grad_V(q)`` and ``eval_H(p, q)``, ``eval_V(q)`` on the last axis
(of a state or a stack).  The canonical equations are then

    dp/dt = -grad V(q),    dq/dt = M^{-1} p = inverse_masses * p.

Separability is what lets the mixed Euler methods and the three-stage
method run explicitly.  OscillatorySystem further specializes to unit
mass with a quadratic frequency part plus a smooth coupling potential U.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ContractViolationError


@dataclass
class SeparableSystem:
    """H(p, q) = p^T diag(inverse_masses) p / 2 + V(q).

    ``inverse_masses`` must be a non-empty 1-d array of positive finite
    values.  ``eval_V`` and so ``eval_H`` act on the last axis: a state
    of shape (d,) gives a scalar, a stack of states of shape (n, d) gives
    the n values, each equal bit for bit to the value of its row alone.
    """

    inverse_masses: np.ndarray
    eval_V: Callable
    grad_V: Callable
    name: str = "separable"

    def __post_init__(self):
        m = np.asarray(self.inverse_masses, dtype=float)
        if m.ndim != 1 or m.size == 0 or not np.all(np.isfinite(m) & (m > 0.0)):
            raise ContractViolationError(
                f"inverse_masses must be a non-empty 1-d array of positive finite values, got {m!r}")
        self.inverse_masses = m

    @property
    def dim(self):
        return self.inverse_masses.size

    def eval_H(self, p, q):
        return 0.5 * np.vecdot(p, self.inverse_masses * p) + self.eval_V(q)


@dataclass
class OscillatorySystem(SeparableSystem):
    """Unit-mass system H = |p|^2/2 + |Omega q|^2/2 + U(q).

    Coordinates are grouped into blocks; block j has ``block_dims[j]``
    coordinates all sharing the frequency ``frequencies[j]``.  Block 0 is
    the slow block (frequency 0) in the standard layout; models whose
    spectrum has no zero frequency simply carry no zero-frequency block.
    ``eval_U`` (on the last axis, as ``eval_V``) and ``grad_U`` give U and its gradient.
    """

    frequencies: np.ndarray = None
    block_dims: np.ndarray = None
    eval_U: Callable = None
    grad_U: Callable = None

    def __init__(self, frequencies, block_dims, eval_U, grad_U, name="oscillatory"):
        freqs = np.asarray(frequencies, dtype=float)
        dims = np.asarray(block_dims, dtype=int)
        if freqs.ndim != 1 or dims.shape != freqs.shape:
            raise ContractViolationError("frequencies and block_dims must be 1-d, same length")
        if not np.all(np.isfinite(freqs)):
            raise ContractViolationError("frequencies must be finite")
        if np.any(freqs < 0.0):
            raise ContractViolationError("frequencies must be nonnegative")
        if np.any(freqs[1:] <= 0.0):
            raise ContractViolationError("only block 0 may have frequency zero")
        if np.any(dims < 0) or dims.sum() < 1:
            raise ContractViolationError("block dimensions must be nonnegative, total >= 1")
        d = int(dims.sum())
        self.frequencies = freqs
        self.block_dims = dims
        self.eval_U = eval_U
        self.grad_U = grad_U
        # Per-coordinate frequency vector, used by steppers and energies.
        self.omega = np.repeat(freqs, dims)
        with np.errstate(over="ignore"):  # a finite omega may square to inf
            self._omega_sq = self.omega**2
        self._block_slices = []
        start = 0
        for nd in dims:
            self._block_slices.append(slice(start, start + int(nd)))
            start += int(nd)
        super().__init__(
            inverse_masses=np.ones(d),
            eval_V=self._eval_V,
            grad_V=self._grad_V,
            name=name,
        )

    def _eval_V(self, q):
        wq = self.omega * q
        return 0.5 * np.vecdot(wq, wq) + self.eval_U(q)

    def _grad_V(self, q):
        return self._omega_sq * q + self.grad_U(q)

    def block_slice(self, j):
        return self._block_slices[j]

    @property
    def n_blocks(self):
        return self.frequencies.size


@dataclass
class EnergyBreakdown:
    """Oscillatory energy split: per-block energies and the three totals."""

    mode_energies: np.ndarray
    h_omega: float
    h_slow: float
    h_total: float


def oscillatory_energies(sys: OscillatorySystem, state) -> EnergyBreakdown:
    """Per-block mode energies E_j = (|p_j|^2 + omega_j^2 |q_j|^2) / 2.

    ``h_omega`` sums the energies of all positive-frequency blocks;
    ``h_slow`` collects the kinetic energy of zero-frequency blocks plus
    the coupling potential U(q).  Their sum equals eval_H exactly.
    """
    p, q = state.p, state.q
    if p.size != sys.dim or q.size != sys.dim:
        raise ContractViolationError(
            f"state has dimension {q.size}, system expects {sys.dim}"
        )
    energies = np.zeros(sys.n_blocks)
    h_omega = 0.0
    h_slow = float(sys.eval_U(q))
    for j in range(sys.n_blocks):
        sl = sys.block_slice(j)
        pj = p[sl]
        qj = q[sl]
        e = 0.5 * (float(pj @ pj) + sys.frequencies[j] ** 2 * float(qj @ qj))
        energies[j] = e
        if sys.frequencies[j] > 0.0:
            h_omega += e
        else:
            h_slow += e
    return EnergyBreakdown(
        mode_energies=energies,
        h_omega=h_omega,
        h_slow=h_slow,
        h_total=h_omega + h_slow,
    )


def strip_coupling(sys: OscillatorySystem) -> OscillatorySystem:
    """Copy of ``sys`` with the coupling potential U set to zero.

    Useful as a linear reference: every block then evolves as an exact
    harmonic oscillator (or freely, for frequency zero).
    """
    zero = lambda q: np.zeros(np.shape(q)[:-1])
    zero_grad = lambda q: np.zeros_like(np.asarray(q, dtype=float))
    return OscillatorySystem(
        frequencies=sys.frequencies.copy(),
        block_dims=sys.block_dims.copy(),
        eval_U=zero,
        grad_U=zero_grad,
        name=sys.name + "-linear",
    )
