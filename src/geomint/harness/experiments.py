"""Registered experiments and their fixed CSV schemas.

Each experiment maps a configuration to a SeriesTable plus a small
summary dict.  Solver divergence inside a run is a recordable outcome:
the rows collected before the failure are returned and the result is
flagged, so the caller can still write a partial CSV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .. import lowrank, oscillatory, symplectic
from ..errors import ContractViolationError, SolverDivergenceError
from ..models import (
    make_fpu_chain,
    make_kepler,
    make_klein_gordon,
    make_outer_solar_system,
)
from ..models.simple import angular_momentum_2d
from ..models.solar import heliocentric_distances
from ..models.systems import oscillatory_energies  # noqa: F401 -- perfbench's tracer patches this name
from ..series import SeriesTable
from .convergence import (KEPLER_METHODS, LOWRANK_METHODS, convergence_table, kepler_stepper,
                          observed_order)

TRIG_METHODS = tuple(sorted(oscillatory.FILTERS))


def _convert(name, value, kind):
    """``value`` as ``kind`` (int, float or str), whether it comes as text
    from argv or a config file or as a number; ContractViolationError when
    it does not convert ('abc' for a float, '1.5' or 1.5 for an int)."""
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or (kind is int and not isinstance(value, str) and converted != value):
        raise ContractViolationError(f"{name} must be {kind.__name__}, got {value!r}")
    return converted


# The fields a run may read, with their types; each experiment's spec
# lists the ones its runner reads.
_FIELDS = {"method": str, "h": float, "t_end": float, "record_every": int, "seed": int}


@dataclass
class ExperimentConfig:
    """A validated run of a registered experiment; the one place that knows
    a config.

    A field the experiment reads (a key of its spec's defaults) takes the
    default when unset (None); a field it does not read stays None.
    Refused with ContractViolationError: an unknown experiment, a given
    field the experiment does not read, a method the experiment does not
    offer, an unknown parameter, a value that does not convert to its
    field's or parameter default's type, h or t_end <= 0, record_every < 1
    and seed < 0.
    """

    experiment: str
    method: Optional[str] = None
    h: Optional[float] = None
    t_end: Optional[float] = None
    record_every: Optional[int] = None
    params: dict = field(default_factory=dict)
    output: Optional[str] = None
    seed: Optional[int] = None

    def __post_init__(self):
        spec = EXPERIMENTS.get(self.experiment)
        if spec is None:
            raise ContractViolationError(
                f"unknown experiment {self.experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}"
            )
        for name, kind in _FIELDS.items():
            value = getattr(self, name)
            if name in spec.defaults:
                setattr(self, name, _convert(name, spec.defaults[name] if value is None else value, kind))
            elif value is not None:
                raise ContractViolationError(f"experiment {self.experiment} takes no {name}, got {value!r}")
        if self.method is not None and self.method not in spec.methods:
            raise ContractViolationError(
                f"method {self.method!r} not valid for {self.experiment}; "
                f"use one of: {', '.join(spec.methods)}"
            )
        if not all(x is None or x > 0.0 for x in (self.h, self.t_end)):
            raise ContractViolationError(f"h and t_end must be positive, got {self.h}, {self.t_end}")
        if self.record_every is not None and self.record_every < 1:
            raise ContractViolationError(f"record_every must be >= 1, got {self.record_every}")
        if self.seed is not None and self.seed < 0:
            raise ContractViolationError(f"seed must be >= 0, got {self.seed}")
        unknown = set(self.params) - set(spec.params)
        if unknown:
            raise ContractViolationError(
                f"unknown parameter(s) {sorted(unknown)} for {self.experiment}; "
                f"known: {sorted(spec.params)}"
            )
        self.params = {key: _convert(key, self.params.get(key, default), type(default))
                       for key, default in spec.params.items()}


@dataclass
class ExperimentResult:
    table: SeriesTable
    summary: dict
    diverged: bool = False


def _until_divergence(cfg: ExperimentConfig, run, *args, **kwargs):
    """run(*args, **kwargs), a summary and the divergence flag; a run that
    diverges at step k is a recordable outcome: the records so far that
    its SolverDivergenceError carries, with steps = k."""
    try:
        result = run(*args, **kwargs)
    except SolverDivergenceError as exc:
        return exc.records, {"diverged_at_step": exc.step_index, "steps": exc.step_index}, True
    return result, {"steps": symplectic.step_count(cfg.h, cfg.t_end)}, False


def _run_solar(cfg: ExperimentConfig) -> ExperimentResult:
    sys, y0, data = make_outer_solar_system()
    stepper = symplectic.StepperConfig(step_size=cfg.h)
    trajectory, summary, diverged = _until_divergence(
        cfg, symplectic.integrate, sys, cfg.method, stepper, y0, cfg.t_end,
        record_every=cfg.record_every)
    energy = symplectic.first_integral_series(trajectory, {"H": sys.eval_H})
    rel = energy.column("H_rel_drift")
    table = SeriesTable(
        ["t", "H", "rel_H_err", "r_J", "r_S", "r_U", "r_N", "r_P"],
        np.column_stack([trajectory.t, energy.column("H"), rel, heliocentric_distances(data, trajectory)]),
    )
    summary["max_rel_H_err"] = float(np.max(np.abs(rel)))
    summary["headline"] = f"max_rel_H_err={summary['max_rel_H_err']:.6g}"
    return ExperimentResult(table, summary, diverged)


def _run_kepler_longtime(cfg: ExperimentConfig) -> ExperimentResult:
    sys, y0 = make_kepler(cfg.params["eccentricity"])
    trajectory, summary, diverged = _until_divergence(
        cfg, symplectic.integrate, sys, cfg.method, kepler_stepper(cfg.method, cfg.h), y0,
        cfg.t_end, record_every=cfg.record_every)
    energy = symplectic.first_integral_series(trajectory, {"H": sys.eval_H})
    rel = energy.column("H_rel_drift")
    ell = angular_momentum_2d(trajectory)
    l_drift = ell - ell[0]
    table = SeriesTable(["t", "H", "rel_H_err", "L", "L_drift"],
                        np.column_stack([trajectory.t, energy.column("H"), rel, ell, l_drift]))
    max_l_drift = float(np.max(np.abs(l_drift)))
    summary["max_rel_H_err"] = float(np.max(np.abs(rel)))
    summary["max_L_drift"] = max_l_drift
    summary["headline"] = f"max_rel_H_err={np.max(np.abs(rel)):.6g} max_L_drift={max_l_drift:.3g}"
    return ExperimentResult(table, summary, diverged)


def _run_fpu_exchange(cfg: ExperimentConfig) -> ExperimentResult:
    m = cfg.params["m"]
    table, summary, diverged = _until_divergence(
        cfg, oscillatory.run_energy_exchange_experiment, m, cfg.params["omega"], cfg.h, cfg.t_end,
        filters=oscillatory.FILTERS[cfg.method](), record_every=cfg.record_every)
    swings = []
    for j in range(1, m + 1):
        e = table.column(f"E_{j}")
        swings.append(np.max(np.abs(e - e[0])))
    h_omega = table.column("H_omega")
    h_omega_drift = np.max(np.abs(h_omega - h_omega[0]))
    summary.update({
        "max_rel_H_err": float(np.max(np.abs(table.column("H_rel_drift")))),
        "h_omega_drift": float(h_omega_drift),
        "max_mode_swing": float(max(swings)),
        "headline": f"max_mode_swing={max(swings):.3g} h_omega_drift={h_omega_drift:.3g}",
    })
    return ExperimentResult(table, summary, diverged)


def _run_fpu_resonance_scan(cfg: ExperimentConfig) -> ExperimentResult:
    sys, _ = make_fpu_chain(cfg.params["m"], cfg.params["omega"])
    h_min, h_max, n_points = cfg.params["h_min"], cfg.params["h_max"], cfg.params["n_points"]
    if n_points < 1 or not np.isfinite(h_max - h_min):
        raise ContractViolationError(
            f"the scan needs finite h_min, h_max and n_points >= 1, got {h_min}, {h_max}, {n_points}")
    h_grid = np.linspace(h_min, h_max, n_points)
    rows = []
    n_admissible = 0
    for h in h_grid:
        report = oscillatory.resonance_report(sys, float(h))
        rows.append([
            h,
            float(np.max(report.h_omega)) if report.h_omega.size else 0.0,
            float(np.min(report.freq_distances)) if report.freq_distances.size else float("inf"),
            report.threshold,
            1.0 if report.admissible else 0.0,
            float(report.n_near_pairs),
        ])
        n_admissible += int(report.admissible)
    table = SeriesTable(["h", "h_omega", "freq_distance", "threshold", "admissible", "n_near_pairs"],
                        rows)
    summary = {
        "steps": len(h_grid),
        "n_admissible": n_admissible,
        "headline": f"admissible={n_admissible}/{len(h_grid)}",
    }
    return ExperimentResult(table, summary)


def _run_klein_gordon(cfg: ExperimentConfig) -> ExperimentResult:
    n_modes = cfg.params["modes"]
    sys, y0 = make_klein_gordon(n_modes, cfg.params["rho"], cfg.params["eps"])
    table, summary, diverged = _until_divergence(
        cfg, oscillatory.run_screened, sys, y0, oscillatory.FILTERS[cfg.method](), cfg.h,
        cfg.t_end, record_every=cfg.record_every)
    slope = mode_decay_slope(table, len(table) - 1, j_max=min(10, n_modes))
    max_rel_h_err = np.max(np.abs(table.column("H_rel_drift")))
    summary.update({
        "max_rel_H_err": float(max_rel_h_err),
        "final_decay_slope": slope,
        "headline": f"decay_slope={slope:.3g} max_rel_H_err={max_rel_h_err:.3g}",
    })
    return ExperimentResult(table, summary, diverged)


def mode_decay_slope(table: SeriesTable, row_index, j_min=2, j_max=10) -> float:
    """Least-squares slope of log E_j versus mode number j at one row."""
    j_values = np.arange(j_min, j_max + 1)
    energies = np.array([table.column(f"E_{j}")[row_index] for j in j_values])
    if np.any(energies <= 0.0):
        raise ContractViolationError("mode energies must be positive to fit a decay slope")
    return float(np.polyfit(j_values, np.log(energies), 1)[0])


def _run_lowrank_exactness(cfg: ExperimentConfig) -> ExperimentResult:
    runs, summaries = {}, []
    for label, diag in (("rank1", [1.0]), ("rank3", [1.0, 0.5, 0.25])):
        flow = lowrank.rotating_flow(diag, m=12, n=10, seed=cfg.seed, y_dependent=False)
        y0 = lowrank.factorize(flow.exact_A(0.0), len(diag))
        runs[label], run_summary, _ = _until_divergence(
            cfg, lowrank.integrate_lowrank, flow, y0, 0.0, cfg.t_end, cfg.h, method=cfg.method,
            record_every=cfg.record_every)
        summaries.append(run_summary)
    # The first divergence, if any; the table's rows stop with the shorter run.
    summary = min(summaries, key=lambda run_summary: run_summary["steps"])
    table = SeriesTable(["t", "error_rank1", "best_rank1", "error_rank3", "best_rank3"],
                        [[rec1.t, rec1.error, rec1.best_error, rec3.error, rec3.best_error]
                         for rec1, rec3 in zip(runs["rank1"], runs["rank3"])])
    summary.update({
        "final_error_rank1": runs["rank1"][-1].error,
        "final_error_rank3": runs["rank3"][-1].error,
        "headline": (f"final_error_rank1={runs['rank1'][-1].error:.3g} "
                     f"final_error_rank3={runs['rank3'][-1].error:.3g}"),
    })
    return ExperimentResult(table, summary, "diverged_at_step" in summary)


def _run_lowrank_robustness(cfg: ExperimentConfig) -> ExperimentResult:
    floors = [_convert("floors", x, int) for x in cfg.params["floors"].split(",") if x.strip()]
    if not floors:
        raise ContractViolationError(
            f"floors must list at least one exponent, got {cfg.params['floors']!r}")
    table = lowrank.robustness_benchmark(
        sv_floor_exponents=floors,
        rank=cfg.params["rank"],
        h=cfg.h,
        t_end=cfg.t_end,
        seed=cfg.seed,
        tail_scale=cfg.params["tail_scale"],
        speed=cfg.params["speed"],
        method=cfg.method,
    )
    envelope_ok = bool(np.all(table.column("within_envelope") == 1.0))
    # An overflowing splitting run is recorded as ksl_error = inf.
    diverged = bool(np.any(np.isinf(table.column("ksl_error"))))
    summary = {
        "steps": symplectic.step_count(cfg.h, cfg.t_end) * len(floors),
        "max_ksl_error": float(np.max(table.column("ksl_error"))),
        "all_within_envelope": envelope_ok,
        "headline": (f"max_ksl_error={np.max(table.column('ksl_error')):.3g} "
                     f"envelope={'ok' if envelope_ok else 'violated'}"),
    }
    return ExperimentResult(table, summary, diverged)


def _run_convergence_orders(cfg: ExperimentConfig) -> ExperimentResult:
    levels = cfg.params["levels"]
    if levels < 3:
        raise ContractViolationError(f"levels must be >= 3, got {levels}")
    method_list = list(KEPLER_METHODS) + list(LOWRANK_METHODS)
    rows = []
    orders = {}
    diverged = False
    for index, method in enumerate(method_list):
        try:
            if method in KEPLER_METHODS:
                h_list = [cfg.params["kepler_h0"] * 0.5**k for k in range(levels)]
                sub = convergence_table("kepler", method, h_list, t_end=cfg.t_end)
            else:
                h_list = [cfg.params["lowrank_h0"] * 0.5**k for k in range(levels)]
                sub = convergence_table("lowrank-rotating", method, h_list,
                                        t_end=cfg.t_end, seed=cfg.seed)
        except SolverDivergenceError as exc:
            # The ladder stops here; the rungs completed so far are the rows.
            sub, diverged = exc.records, True
        rows += [[float(index), *row] for row in sub.rows.tolist()]
        if diverged:
            break
        orders[method] = observed_order(sub)
    table = SeriesTable(["method_index", "h", "error", "order"], rows)
    summary = {
        "steps": len(rows),
        "orders": {k: round(v, 3) for k, v in orders.items()},
        "headline": " ".join(f"{k}={v:.2f}" for k, v in orders.items()),
    }
    return ExperimentResult(table, summary, diverged)


@dataclass
class ExperimentSpec:
    runner: Callable
    methods: tuple  # empty when the experiment takes no method
    defaults: dict  # the fields of _FIELDS its runner reads, with their defaults
    params: dict  # model parameters with their default values
    description: str


EXPERIMENTS = {
    "solar": ExperimentSpec(
        runner=_run_solar,
        methods=KEPLER_METHODS,
        defaults={"method": "symplectic-euler-qp", "h": 100.0, "t_end": 200000.0, "record_every": 10},
        params={},
        description="outer solar system energy drift and heliocentric distances",
    ),
    "kepler-longtime": ExperimentSpec(
        runner=_run_kepler_longtime,
        methods=KEPLER_METHODS,
        defaults={"method": "stormer-verlet", "h": 0.05, "t_end": 1000.0, "record_every": 10},
        params={"eccentricity": 0.6},
        description="two-body problem: energy and angular momentum over many periods",
    ),
    "fpu-exchange": ExperimentSpec(
        runner=_run_fpu_exchange,
        methods=TRIG_METHODS,
        defaults={"method": "trig-mollified", "h": 0.02, "t_end": 200.0, "record_every": 5},
        params={"m": 3, "omega": 50.0},
        description="stiff spring chain: slow energy exchange among fast modes",
    ),
    "fpu-resonance-scan": ExperimentSpec(
        runner=_run_fpu_resonance_scan,
        methods=(),
        defaults={},
        params={"m": 3, "omega": 50.0, "h_min": 0.005, "h_max": 0.13, "n_points": 126},
        description="step-size admissibility sweep for the spring chain",
    ),
    "klein-gordon-decay": ExperimentSpec(
        runner=_run_klein_gordon,
        methods=TRIG_METHODS,
        defaults={"method": "trig-mollified", "h": 0.05, "t_end": 100.0, "record_every": 10},
        params={"modes": 32, "rho": 0.5, "eps": 0.1},
        description="nonlinear wave truncation: geometric decay of mode energies",
    ),
    "lowrank-exactness": ExperimentSpec(
        runner=_run_lowrank_exactness,
        methods=LOWRANK_METHODS,
        defaults={"method": "ksl", "h": 0.05, "t_end": 1.0, "record_every": 1, "seed": 0},
        params={},
        description="splitting integrator on exactly low-rank solution families",
    ),
    "lowrank-robustness": ExperimentSpec(
        runner=_run_lowrank_robustness,
        methods=LOWRANK_METHODS,
        defaults={"method": "ksl", "h": 0.01, "t_end": 1.0, "seed": 0},
        params={"rank": 8, "floors": "10,20,30,40", "tail_scale": 1.0, "speed": 40.0},
        description="error versus singular-value floor, with naive gauge contrast",
    ),
    "convergence-orders": ExperimentSpec(
        runner=_run_convergence_orders,
        methods=(),
        defaults={"t_end": 1.0, "seed": 0},
        params={"kepler_h0": 0.01, "lowrank_h0": 0.2, "levels": 4},
        description="observed orders for every integrator by step halving",
    ),
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute a validated configuration and time it."""
    spec = EXPERIMENTS[config.experiment]
    start = time.perf_counter()
    result = spec.runner(config)
    result.summary["wall_seconds"] = time.perf_counter() - start
    return result
