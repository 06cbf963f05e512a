"""Experiment front end: CSV emission, convergence studies, registry, CLI.

The command line lives in ``geomint.harness.cli``; it is not imported
here, so that ``python -m geomint.harness.cli`` runs it as a fresh module.
"""

from .csvio import emit_csv, parse_csv
from .convergence import convergence_table, observed_order
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment

__all__ = [
    "emit_csv",
    "parse_csv",
    "convergence_table",
    "observed_order",
    "EXPERIMENTS",
    "ExperimentConfig",
    "run_experiment",
]
