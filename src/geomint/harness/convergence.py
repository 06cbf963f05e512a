"""Observed-order studies via step halving against a tiny-step reference.

``kepler_final`` and ``lowrank_final`` build a family's model or flow once
and return its ``(method, h) -> final state`` function.
``convergence_table`` runs one method down a step ladder and measures
each rung against a reference final state.  The reference is produced by
the package itself (a much smaller step of the family's order-2 method),
so no closed form is needed: every method in a family converges to the
same limit flow, and the reference error is negligible next to the
coarse-step errors being measured.  The ladders, the reference step and
the order in which they run are the experiment registry's.
"""

from __future__ import annotations

import numpy as np

from .. import lowrank, symplectic
from ..errors import ContractViolationError, SolverDivergenceError
from ..models.simple import make_kepler
from ..series import SeriesTable

KEPLER_METHODS = tuple(symplectic.METHOD_IDS)
LOWRANK_METHODS = tuple(lowrank._STEPPERS)


def kepler_stepper(method, h):
    """StepperConfig of a Kepler run: implicit Euler solves its position
    equation by Newton's method; no other method has a solve."""
    return symplectic.StepperConfig(
        step_size=h, solver="newton" if method == "implicit-euler" else "fixed-point")


def kepler_final(t_end):
    """``(method, h) ->`` the flat (p, q) at t_end of the Kepler problem
    with eccentricity 0.6, for any method of KEPLER_METHODS."""
    sys, y0 = make_kepler(0.6)

    def final(method, h):
        records = symplectic.integrate(sys, method, kepler_stepper(method, h), y0, t_end,
                                       record_every=max(1, symplectic.step_count(h, t_end)))
        return np.concatenate([records.p[-1], records.q[-1]])

    return final


def lowrank_final(t_end, seed):
    """``(method, h) ->`` the dense Y(t_end) of a method of LOWRANK_METHODS
    on the rotating benchmark flow of generator seed ``seed``."""
    # Rank 4 out of 12 decaying singular values, stepped with the exact
    # increments of the full-rank family: the rank truncation keeps the
    # splitting from being exact, and the self-reference cancels the
    # common truncation floor so the pure order in h is visible.
    d_vals = 2.0 ** -np.arange(1, 13)
    flow = lowrank.rotating_flow(d_vals, seed=seed, y_dependent=False)
    y0 = lowrank.factorize(np.diag(d_vals), 4)

    def final(method, h):
        run = lowrank.integrate_lowrank(flow, y0, 0.0, t_end, h, method=method,
                                        record_every=max(1, symplectic.step_count(h, t_end)))
        return lowrank.to_full(run.factors)

    return final


def _ladder_table(h_values, errors):
    orders = [float("nan")] + [
        float(np.log(errors[i - 1] / errors[i]) / np.log(h_values[i - 1] / h_values[i]))
        for i in range(1, len(errors))
    ]
    return SeriesTable(["h", "error", "order"],
                       np.column_stack([h_values[:len(errors)], errors, orders[:len(errors)]]))


def convergence_table(final, reference, h_values) -> SeriesTable:
    """Errors ||final(h) - reference|| over the steps ``h_values``, with
    pairwise observed orders.

    Columns: h, error, order; the first order entry is nan (orders are
    ratios of consecutive rows).  If a run diverges, the raised
    SolverDivergenceError carries the table of the rungs completed before
    it in ``records``.
    """
    errors = []
    try:
        for h in h_values:
            errors.append(float(np.linalg.norm(final(h) - reference)))
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
