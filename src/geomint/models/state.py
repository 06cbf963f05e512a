"""Phase-space state and trajectory containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractViolationError, require_real_array


@dataclass(frozen=True)
class PhaseState:
    """A point (p, q) in phase space; both arrays have the same length d.

    States are treated as immutable: integrators return fresh instances
    instead of mutating their input.  The flat layout used by Jacobian
    diagnostics is y = (p, q) concatenated, p first.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(require_real_array("p", self.p))
        q = np.atleast_1d(require_real_array("q", self.q))
        if p.ndim != 1 or q.ndim != 1 or p.size != q.size:
            raise ContractViolationError(
                f"p and q must be 1-d arrays of equal length, got {p.shape} and {q.shape}"
            )
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ContractViolationError("phase state contains non-finite entries")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def dim(self):
        return self.p.size

    def flat(self):
        """Concatenated (p, q) vector of length 2d."""
        return np.concatenate([self.p, self.q])


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of a run: times ``t`` (n,), ``p`` and ``q`` (n, d).

    Row i is the state at time t[i]; a trajectory holds at least one, and
    ``len`` counts them.  The final state is ``(p[-1], q[-1])``.  ``p`` and
    ``q`` are stored C-contiguous, so stacked energies sum each row as alone.
    """

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        p = np.ascontiguousarray(self.p, dtype=float)
        q = np.ascontiguousarray(self.q, dtype=float)
        if t.ndim != 1 or t.size < 1 or p.ndim != 2 or p.shape != q.shape or p.shape[0] != t.size:
            raise ContractViolationError(
                f"a trajectory needs t of shape (n,) and p, q of shape (n, d) with n >= 1, "
                f"got {t.shape}, {p.shape} and {q.shape}"
            )
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ContractViolationError("trajectory contains non-finite states")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __len__(self):
        return self.t.size
