"""Workloads of the benchmark: lists of harness jobs and their output checks.

A job is one ``geomint run ...`` command line, run in-process through
``geomint.harness.cli.main``.  After each job the benchmark checks its exit
code, parses the CSV it wrote back through ``geomint.harness.csvio`` and
hands the table to the job's check, which returns a list of problems (empty
when the output is correct).  Checks apply the bounds of the acceptance
tests and compare summary values against ``reference.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Summary values must agree with the stored reference to this relative
# tolerance.  Outputs are bit-identical for the same code and BLAS build;
# the tolerance leaves room for changes of summation order only.
REL_TOL = 1e-6


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple  # ``geomint run`` arguments, without --output
    exit_code: int
    rows: int  # expected CSV data rows
    summarize: Callable  # table -> {name: float}, compared with the reference
    bounds: Callable  # table -> [problem, ...], acceptance-test bounds
    seeded: bool = False  # takes the workload seed as --seed


def _no_bounds(table):
    return []


# --- hamiltonian -----------------------------------------------------------

def _solar_summary(table):
    final = table.rows[-1]
    return {
        "max_abs_rel_H_err": float(np.max(np.abs(table.column("rel_H_err")))),
        "final_t": float(final[0]),
        "final_r_J": float(table.column("r_J")[-1]),
        "final_r_P": float(table.column("r_P")[-1]),
    }


def _solar_bounds(table):
    t = table.column("t")
    err = np.abs(table.column("rel_H_err"))
    ratio = err.max() / err[t <= 20000.0].max()
    return [] if ratio <= 3.0 else [f"energy error grows x{ratio:.3f} after t=20000 (bound 3)"]


def _kepler_summary(table):
    return {
        "max_abs_rel_H_err": float(np.max(np.abs(table.column("rel_H_err")))),
        "final_H": float(table.column("H")[-1]),
        "final_L": float(table.column("L")[-1]),
    }


def _kepler_verlet_bounds(table):
    drift = float(np.max(np.abs(table.column("L_drift"))))
    return [] if drift <= 1e-10 else [f"angular momentum drift {drift:.3e} > 1e-10"]


def _exchange_summary(table):
    return {
        "max_mode_swing": float(max(
            np.max(np.abs(table.column(f"E_{j}") - table.column(f"E_{j}")[0])) for j in (1, 2, 3))),
        "final_E_1": float(table.column("E_1")[-1]),
        "max_abs_H_rel_drift": float(np.max(np.abs(table.column("H_rel_drift")))),
    }


def _exchange_bounds(table):
    h_omega = table.column("H_omega")
    h_slow = table.column("H_slow")
    h_total = table.column("H")
    fast = float(np.max(np.abs(h_omega - h_omega[0])))
    slow = float(np.max(np.abs(h_slow - h_slow[0])))
    swing = _exchange_summary(table)["max_mode_swing"]
    problems = []
    if fast > 0.1 * h_omega[0]:
        problems.append(f"H_omega drift {fast:.3g} > 0.1 H_omega(0)")
    if slow > 0.1 * abs(h_total[0]):
        problems.append(f"slow energy drift {slow:.3g} > 0.1 |H(0)|")
    if swing < 0.2 * h_omega[0]:
        problems.append(f"mode swing {swing:.3g} < 0.2 H_omega(0)")
    return problems


def decay_slope(table, row=-1, j_min=2, j_max=10):
    """Least-squares slope of log E_j against j at one row of the table."""
    j = np.arange(j_min, j_max + 1)
    energies = np.array([table.column(f"E_{k}")[row] for k in j])
    return float(np.polyfit(j, np.log(energies), 1)[0])


def _kg_summary(table):
    return {
        "final_decay_slope": decay_slope(table),
        "max_abs_H_rel_drift": float(np.max(np.abs(table.column("H_rel_drift")))),
        "final_E_1": float(table.column("E_1")[-1]),
    }


def _kg_bounds(table):
    problems = []
    if np.any(np.array([table.column(f"E_{k}")[-1] for k in range(2, 11)]) <= 0.0):
        return ["mode energies E_2..E_10 must be positive"]
    slope = decay_slope(table)
    if not slope < 0.0:
        problems.append(f"mode energies do not decay (slope {slope:.3g})")
    drift = float(np.max(np.abs(table.column("H_rel_drift"))))
    if drift > 0.05:
        problems.append(f"energy drift {drift:.3g} > 0.05")
    return problems


def _scan_summary(table):
    return {
        "n_admissible": float(np.sum(table.column("admissible"))),
        "total_near_pairs": float(np.sum(table.column("n_near_pairs"))),
        "min_freq_distance": float(np.min(table.column("freq_distance"))),
    }


# --- low rank ----------------------------------------------------------------

def _robustness_summary(table):
    # Whether the naive gauge run overflows (naive_error inf) depends on the
    # seed: at seed 7 it stays finite on floor 10.  So its outcome is checked
    # against the stored reference of each seed, not as a bound.
    summary = {}
    for row in table.rows:
        floor = int(row[table.columns.index("floor_exponent")])
        for column in ("ksl_error", "naive_error"):
            summary[f"{column}_floor{floor}"] = float(row[table.columns.index(column)])
    return summary


def _robustness_bounds(table):
    problems = []
    if not np.all(table.column("within_envelope") == 1.0):
        problems.append("ksl error outside its envelope for some floor")
    best = table.column("best_error")
    expected = [math.sqrt(sum(max(2.0 ** -i, 2.0 ** -f) ** 2 for i in range(9, 41)))
                for f in table.column("floor_exponent")]
    if not np.allclose(best, expected, rtol=REL_TOL, atol=0.0):
        problems.append(f"best-approximation errors {best.tolist()} != {expected}")
    return problems


def _exactness_summary(table):
    return {"final_t": float(table.column("t")[-1])}


def _exactness_bounds(table):
    problems = []
    for col in ("error_rank1", "error_rank3", "best_rank1", "best_rank3"):
        final = float(table.column(col)[-1])
        if not final <= 1e-9:
            problems.append(f"final {col} {final:.3e} > 1e-9")
    return problems


_HAMILTONIAN = (
    Job("solar", ("solar",), 0, 201, _solar_summary, _solar_bounds),
    # The documented collapse: divergence at step 12, exit 3, partial CSV.
    Job("solar-implicit", ("solar", "--method", "implicit-euler"), 3, 2,
        _solar_summary, _no_bounds),
    Job("kepler", ("kepler-longtime",), 0, 2001, _kepler_summary, _kepler_verlet_bounds),
    Job("kepler-implicit", ("kepler-longtime", "--method", "implicit-euler",
                            "--h", "0.01", "--t-end", "5"), 0, 51, _kepler_summary, _no_bounds),
    Job("fpu-exchange", ("fpu-exchange", "--record-every", "1"), 0, 10001,
        _exchange_summary, _exchange_bounds),
    Job("klein-gordon", ("klein-gordon-decay",), 0, 201, _kg_summary, _kg_bounds),
    Job("resonance-scan", ("fpu-resonance-scan",), 0, 126, _scan_summary, _no_bounds),
)

# Large dense kernels first (40x40, rank 8, two records per floor), then
# small ones (12x10, ranks 1 and 3, a record after every step, the only
# Strang run).  One workload, so that each run is long enough to catch the
# host's quieter stretches; every job is still timed on its own.
_LOWRANK = (
    Job("robustness", ("lowrank-robustness",), 0, 4, _robustness_summary,
        _robustness_bounds, seeded=True),
) + tuple(
    Job(f"exactness-{method}", ("lowrank-exactness", "--method", method, "--t-end", "2",
                                "--record-every", "1"), 0, 41,
        _exactness_summary, _exactness_bounds, seeded=True)
    for method in ("ksl", "ksl-strang")
)

WORKLOADS = {
    "lowrank": _LOWRANK,
    "hamiltonian": _HAMILTONIAN,
}


def job_argv(job, seed, output):
    """Command line for ``cli.main``; seeded jobs take the workload seed."""
    argv = ["run", *job.args, "--output", str(output)]
    if job.seeded:
        argv += ["--seed", str(seed)]
    return argv


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as stream:
        return json.load(stream)


def reference_for(reference, job, seed):
    """Stored summary of ``job`` at ``seed``, or None if none is stored.

    A summary that depends on the seed is stored under ``by_seed`` for a
    range of seeds; at other seeds only the job's bounds are checked.
    """
    entry = reference[job.name]
    if "by_seed" in entry:
        return entry["by_seed"].get(str(seed))
    return entry


def check_job(job, exit_code, table, reference):
    """Problems with one job's outcome; an empty list means correct."""
    if exit_code != job.exit_code:
        return [f"exit code {exit_code}, expected {job.exit_code}"]
    if table is None:
        return ["no CSV written"]
    if len(table) != job.rows:
        return [f"{len(table)} CSV rows, expected {job.rows}"]
    problems = list(job.bounds(table))
    if reference is not None:
        for key, value in job.summarize(table).items():
            want = reference.get(key)
            if want is None:
                problems.append(f"no reference for {key}")
            elif not math.isclose(value, want, rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{key} = {value!r}, reference {want!r} (rel tol {REL_TOL})")
    return problems
