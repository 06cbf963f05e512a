"""Phase-space state container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractViolationError


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
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
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
