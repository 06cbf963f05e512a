"""Model library: phase states, system types, and benchmark systems."""

from .fpu import make_fpu_chain
from .kleingordon import collocation_basis, make_klein_gordon
from .simple import angular_momentum_2d, make_harmonic_oscillator, make_kepler, make_pendulum
from .solar import (
    DATA_DIR_ENV,
    GRAVITATIONAL_CONSTANT,
    NBodyData,
    heliocentric_distances,
    load_nbody_data,
    make_outer_solar_system,
)
from .state import PhaseState, Trajectory
from .systems import (
    EnergyBreakdown,
    OscillatorySystem,
    SeparableSystem,
    oscillatory_energies,
    strip_coupling,
)

__all__ = [
    "DATA_DIR_ENV",
    "EnergyBreakdown",
    "GRAVITATIONAL_CONSTANT",
    "NBodyData",
    "OscillatorySystem",
    "PhaseState",
    "SeparableSystem",
    "Trajectory",
    "angular_momentum_2d",
    "collocation_basis",
    "heliocentric_distances",
    "load_nbody_data",
    "make_fpu_chain",
    "make_harmonic_oscillator",
    "make_kepler",
    "make_klein_gordon",
    "make_outer_solar_system",
    "make_pendulum",
    "oscillatory_energies",
    "strip_coupling",
]
