"""Observed-order studies via step halving against a tiny-step reference.

The reference trajectory is produced by the package itself (a much
smaller step of the order-2 method from the same family), so no closed
form is needed: every method in a family converges to the same limit
flow, and the reference error is negligible next to the coarse-step
errors being measured.
"""

from __future__ import annotations

import numpy as np

from .. import lowrank, symplectic
from ..errors import ContractViolationError, SolverDivergenceError
from ..models.simple import make_kepler
from ..series import SeriesTable

KEPLER_METHODS = tuple(symplectic.METHOD_IDS)
LOWRANK_METHODS = tuple(lowrank._STEPPERS)
_REFERENCE_REFINEMENT = 20


def _validate_h_list(h_list):
    h = [float(x) for x in h_list]
    if len(h) < 3:
        raise ContractViolationError(f"need at least 3 step sizes, got {len(h)}")
    if any(x <= 0.0 for x in h):
        raise ContractViolationError(f"step sizes must be positive: {h}")
    ratio = h[1] / h[0]
    if not ratio < 1.0:
        raise ContractViolationError(f"step sizes must decrease: {h}")
    for a, b in zip(h, h[1:]):
        if abs(b / a - ratio) > 1e-9:
            raise ContractViolationError(f"step sizes must form a geometric progression: {h}")
    return h


def kepler_stepper(method, h):
    """StepperConfig of a Kepler run: implicit Euler solves its position
    equation by Newton's method; no other method has a solve."""
    return symplectic.StepperConfig(
        step_size=h, solver="newton" if method == "implicit-euler" else "fixed-point")


def _kepler_final(method, h, t_end, y0, sys):
    records = symplectic.integrate(sys, method, kepler_stepper(method, h), y0, t_end,
                                   record_every=max(1, symplectic.step_count(h, t_end)))
    return np.concatenate([records.p[-1], records.q[-1]])


def _lowrank_final(flow, y0, method, h, t_end):
    records = lowrank.integrate_lowrank(
        flow, y0, 0.0, t_end, h, method=method,
        record_every=max(1, symplectic.step_count(h, t_end)),
    )
    return lowrank.to_full(records[-1].factors)


def _ladder_table(h_values, errors):
    orders = [float("nan")] + [
        float(np.log(errors[i - 1] / errors[i]) / np.log(h_values[i - 1] / h_values[i]))
        for i in range(1, len(errors))
    ]
    return SeriesTable(["h", "error", "order"],
                       np.column_stack([h_values[:len(errors)], errors, orders[:len(errors)]]))


def convergence_table(experiment, method, h_list, t_end=1.0, seed=0) -> SeriesTable:
    """Errors and pairwise observed orders over a geometric step ladder.

    ``experiment`` is 'kepler' (eccentricity 0.6, all symplectic-module
    methods) or 'lowrank-rotating' (rank-constrained methods on the
    rotating benchmark flow).  Columns: h, error, order; the first order
    entry is nan (orders are ratios of consecutive rows).  If a run
    diverges, the raised SolverDivergenceError carries the table of the
    rungs completed before it in ``records``.
    """
    h_values = _validate_h_list(h_list)
    if experiment == "kepler":
        if method not in KEPLER_METHODS:
            raise ContractViolationError(f"method {method!r} not valid for kepler; use one of {KEPLER_METHODS}")
        sys, y0 = make_kepler(0.6)
        final = lambda method, h: _kepler_final(method, h, t_end, y0, sys)
        reference_method = "stormer-verlet"
    elif experiment == "lowrank-rotating":
        if method not in LOWRANK_METHODS:
            raise ContractViolationError(f"method {method!r} not valid for lowrank-rotating; use one of {LOWRANK_METHODS}")
        # Rank 4 out of 12 decaying singular values, stepped with the exact
        # increments of the full-rank family: the rank truncation keeps the
        # splitting from being exact, and the self-reference cancels the
        # common truncation floor so the pure order in h is visible.
        d_vals = 2.0 ** -np.arange(1, 13)
        flow = lowrank.rotating_flow(d_vals, seed=seed, y_dependent=False)
        y0 = lowrank.factorize(np.diag(d_vals), 4)
        final = lambda method, h: _lowrank_final(flow, y0, method, h, t_end)
        reference_method = "ksl-strang"
    else:
        raise ContractViolationError(
            f"unknown convergence experiment {experiment!r}; use 'kepler' or 'lowrank-rotating'"
        )
    errors = []
    try:
        reference = final(reference_method, h_values[-1] / _REFERENCE_REFINEMENT)
        for h in h_values:
            errors.append(float(np.linalg.norm(final(method, h) - reference)))
    except SolverDivergenceError as exc:
        exc.records = _ladder_table(h_values, errors)
        raise
    return _ladder_table(h_values, errors)


def observed_order(table: SeriesTable) -> float:
    """Least-squares slope of log(error) against log(h)."""
    h = table.column("h")
    err = table.column("error")
    if np.any(err <= 0.0):
        raise ContractViolationError("cannot fit an order to non-positive errors")
    slope = np.polyfit(np.log(h), np.log(err), 1)[0]
    return float(slope)
