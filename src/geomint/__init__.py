"""Structure-preserving time integration: symplectic and symmetric steppers
for Hamiltonian systems, filtered trigonometric steppers for stiff
oscillatory problems, and a projector-splitting integrator for
rank-constrained matrix differential equations, plus the small dense
linear-algebra kernels and the experiment harness they share.
"""

from . import densela, fdtools, lowrank, models, oscillatory, symplectic
from .errors import (
    ContractViolationError,
    GeomintError,
    InadmissibleStepError,
    ResonantStepError,
    SolverDivergenceError,
)
from .series import SeriesTable

__version__ = "0.1.0"

__all__ = [
    "densela",
    "fdtools",
    "lowrank",
    "models",
    "oscillatory",
    "symplectic",
    "GeomintError",
    "ContractViolationError",
    "InadmissibleStepError",
    "ResonantStepError",
    "SolverDivergenceError",
    "SeriesTable",
    "__version__",
]
