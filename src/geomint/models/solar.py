"""Outer solar system N-body model.

Six gravitating bodies (Sun with the inner planets lumped in, Jupiter,
Saturn, Uranus, Neptune, Pluto) in units of astronomical units, earth
days and solar masses, with G = 2.95912208286e-4.  The initial data ship
as a plain-text file next to this module; the environment variable
GEOMINT_DATA_DIR overrides the directory it is read from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ContractViolationError
from .state import PhaseState
from .systems import SeparableSystem

GRAVITATIONAL_CONSTANT = 2.95912208286e-4
DATA_FILE = "outer_solar_system.txt"
DATA_DIR_ENV = "GEOMINT_DATA_DIR"


@dataclass
class NBodyData:
    """Parsed N-body dataset: names, masses, stacked positions and momenta."""

    names: list
    masses: np.ndarray
    positions: np.ndarray  # shape (n, 3)
    momenta: np.ndarray  # shape (n, 3)

    def __post_init__(self):
        n = len(self.names)
        if self.masses.shape != (n,) or np.any(self.masses <= 0.0):
            raise ContractViolationError("each body needs a positive mass")
        if self.positions.shape != (n, 3) or self.momenta.shape != (n, 3):
            raise ContractViolationError("positions and momenta must have shape (n, 3)")
        for arr in (self.masses, self.positions, self.momenta):
            if not np.all(np.isfinite(arr)):
                raise ContractViolationError("dataset contains non-finite entries")

    @property
    def n_bodies(self):
        return len(self.names)


def _data_path():
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env) / DATA_FILE
    return Path(__file__).parent / "data" / DATA_FILE


def load_nbody_data(path=None) -> NBodyData:
    """Read a dataset file: '#' comment lines, then one body per line
    with fields  name mass x y z px py pz  (whitespace separated)."""
    path = Path(path) if path is not None else _data_path()
    try:
        text = path.read_text()
    except OSError as exc:
        raise ContractViolationError(f"cannot read N-body dataset {path}: {exc}") from exc
    names, masses, pos, mom = [], [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 8:
            raise ContractViolationError(
                f"{path}:{lineno}: expected 8 fields (name mass x y z px py pz), got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise ContractViolationError(f"{path}:{lineno}: {exc}") from exc
        names.append(fields[0])
        masses.append(values[0])
        pos.append(values[1:4])
        mom.append(values[4:7])
    if len(names) < 2:
        raise ContractViolationError(f"{path}: need at least two bodies, found {len(names)}")
    return NBodyData(
        names=names,
        masses=np.array(masses),
        positions=np.array(pos),
        momenta=np.array(mom),
    )


class _NBodyPotential:
    """Pairwise gravitational potential and its gradient, vectorized."""

    def __init__(self, masses, g):
        self.g = g
        self.n = masses.size
        # m_i m_j over pairs i < j, G m_i m_j for forces; a 0-d exponent: same bits, less overhead
        mm = np.outer(masses, masses)
        self._pairs = (..., *np.triu_indices(self.n, k=1))  # on the last two axes
        self._pair_mm = mm[self._pairs]
        self._gmm = g * mm
        self._eye = np.eye(self.n)
        self._exponent = np.array(-1.5)

    def eval_V(self, q):
        x = q.reshape(q.shape[:-1] + (self.n, 3))
        diff = x[..., :, None, :] - x[..., None, :, :]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
        # C order: a stack's pair terms come out pair-major; each row must sum as alone.
        return -self.g * np.add.reduce(np.divide(self._pair_mm, dist[self._pairs], order="C"), axis=-1)

    def grad_V(self, q):
        x = q.reshape(self.n, 3)
        diff = x[:, None, :] - x[None, :, :]
        # r_ii^2 = 1, not 0: w_ii = G m_i^2 then meets diff_ii = +0.0, which
        # adds the same +0.0 term to the sum as a zeroed w_ii would.
        dist2 = np.add.reduce(diff * diff, axis=-1) + self._eye
        w = self._gmm * dist2**self._exponent
        return np.add.reduce(w[:, :, None] * diff, axis=1).reshape(-1)


def make_outer_solar_system(path=None):
    """Build the outer solar system as (system, initial_state, data).

    The Hamiltonian is H = sum |p_i|^2 / (2 m_i) - G sum_{i<j} m_i m_j / r_ij
    on stacked 3-vectors, so dim = 3 * n_bodies.
    """
    data = load_nbody_data(path)
    pot = _NBodyPotential(data.masses, GRAVITATIONAL_CONSTANT)
    sys = SeparableSystem(
        inverse_masses=np.repeat(1.0 / data.masses, 3),
        eval_V=pot.eval_V,
        grad_V=pot.grad_V,
        name="outer-solar-system",
    )
    state = PhaseState(p=data.momenta.reshape(-1), q=data.positions.reshape(-1))
    return sys, state, data


def heliocentric_distances(data: NBodyData, states) -> np.ndarray:
    """Distances of every body except the first from the first body: shape
    (n_bodies - 1,) for a PhaseState, (n, n_bodies - 1) for a Trajectory."""
    x = states.q.reshape(states.q.shape[:-1] + (data.n_bodies, 3))
    return np.linalg.norm(x[..., 1:, :] - x[..., :1, :], axis=-1)
