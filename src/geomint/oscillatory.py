"""Trigonometric integrators for systems with fast harmonic blocks.

For H = |p|^2/2 + |Omega q|^2/2 + U(q) the one-step map with filter
functions psi, phi reads (all filter matrices are functions of h*Omega,
applied coordinate-wise):

    g(q)  = -grad U(phi(h Omega) q)
    q1    = cos(h Omega) q + Omega^{-1} sin(h Omega) p + h^2/2 Psi g(q)
    p1    = -Omega sin(h Omega) q + cos(h Omega) p
            + h/2 (Psi0 g(q) + Psi1 g(q1))

with Psi = psi(h Omega), Psi1 = psi(h Omega)/sinc(h Omega) and
Psi0 = cos(h Omega) Psi1, which makes the method symmetric and exact on
the uncoupled (U = 0) system.  Zero-frequency coordinates reduce to the
three-stage kick-drift-kick map.

Step sizes are screened by a non-resonance report: h*omega_j should stay
away from multiples of pi (by sqrt(h)), unless the product is itself
below sqrt(h) and the oscillation is fully resolved.  A product so large
that neighbouring doubles lie sqrt(h) or more apart is refused outright,
since its distance to a multiple of pi cannot be resolved.  Signed sums of the
h*omega_j are additionally checked against nonzero multiples of 2*pi.
The report is a warning-or-refuse policy device; it does not guarantee
the long-time behavior, it only refuses step sizes that are known bad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ContractViolationError, InadmissibleStepError, ResonantStepError,
                     SolverDivergenceError)
from .models.state import Trajectory
from .models.systems import OscillatorySystem
from .models.systems import oscillatory_energies  # noqa: F401 -- perfbench's tracer patches this name
from .models.fpu import make_fpu_chain
from .series import SeriesTable
from .symplectic import StepperConfig, integrate, step_count

_SINC_TAYLOR_CUTOFF = 1e-8
_SINC_SINGULARITY_TOL = 1e-12


def sinc(x):
    """sin(x)/x with the removable singularity filled in.

    Below the cutoff the fourth-order Taylor polynomial is used, which is
    exact to machine precision there and avoids any 0/0 evaluation.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_TAYLOR_CUTOFF
    out = np.empty_like(x)
    xs = x[small]
    out[small] = 1.0 - xs**2 / 6.0 + xs**4 / 120.0
    xl = x[~small]
    out[~small] = np.sin(xl) / xl
    return out


@dataclass(frozen=True)
class FilterPair:
    """Filter functions (psi, phi) of the one-step map.

    Both must be smooth, vectorized, and equal to 1 at 0 (checked to
    1e-12 on construction).
    """

    psi: Callable
    phi: Callable
    name: str = "custom"

    def __post_init__(self):
        zero = np.zeros(1)
        if abs(float(self.psi(zero)[0]) - 1.0) > 1e-12 or abs(float(self.phi(zero)[0]) - 1.0) > 1e-12:
            raise ContractViolationError("filters must satisfy psi(0) = phi(0) = 1")


def impulse_filter() -> FilterPair:
    """psi = sinc, phi = 1: the impulse (kick-rotate-kick) method."""
    return FilterPair(psi=sinc, phi=lambda x: np.ones_like(np.asarray(x, dtype=float)), name="impulse")


def mollified_impulse_filter() -> FilterPair:
    """psi = sinc * phi with phi = sinc: the mollified impulse method."""
    return FilterPair(psi=lambda x: sinc(x) ** 2, phi=sinc, name="mollified-impulse")


FILTERS = {
    "trig-impulse": impulse_filter,
    "trig-mollified": mollified_impulse_filter,
}


class TrigKernel:
    """Stepper kernel for one system/filter pair; caches coefficients per h.

    Instances are valid kernels for symplectic.integrate and friends:
    call signature (sys, cfg, h, p, q, g=None) -> (p1, q1, g1), where g1
    is the filtered force -grad U(phi(h Omega) q1) at the new position.
    Passed back as ``g`` to the next step of the same size h, it saves
    that step's first force evaluation; g=None evaluates it afresh.  The
    system argument must be the one the kernel was built for.
    """

    def __init__(self, sys: OscillatorySystem, filters: FilterPair):
        if not isinstance(sys, OscillatorySystem):
            raise ContractViolationError("trigonometric steps need an OscillatorySystem")
        self.sys = sys
        self.filters = filters
        self._coeff_cache = {}

    def _coefficients(self, h):
        cached = self._coeff_cache.get(h)
        if cached is not None:
            return cached
        sys = self.sys
        xi = h * sys.omega  # per coordinate
        sinc_xi = sinc(xi)
        bad = np.abs(sinc_xi) < _SINC_SINGULARITY_TOL
        if np.any(bad):
            coord = int(np.argmax(bad))
            block = int(np.searchsorted(np.cumsum(sys.block_dims), coord, side="right"))
            raise ResonantStepError(
                f"sinc(h*omega) vanishes for block {block} (h*omega = {xi[coord]:.6g}); "
                "the filtered step is singular at this step size",
                block_index=block,
                h_omega=float(xi[coord]),
            )
        psi = np.asarray(self.filters.psi(xi), dtype=float)
        phi = np.asarray(self.filters.phi(xi), dtype=float)
        cos_xi = np.cos(xi)
        coeffs = {
            "cos": cos_xi,
            "hsinc": h * sinc_xi,  # Omega^{-1} sin(h Omega)
            "wsin": sys.omega * np.sin(xi),  # Omega sin(h Omega)
            "phi": phi,
            "psi": psi,
            "psi1": psi / sinc_xi,
            "psi0": cos_xi * psi / sinc_xi,
        }
        self._coeff_cache[h] = coeffs
        return coeffs

    def __call__(self, sys, cfg, h, p, q, g=None):
        if sys is not self.sys:
            raise ContractViolationError("kernel used with a different system than it was built for")
        c = self._coefficients(h)
        if g is None:
            g = -self.sys.grad_U(c["phi"] * q)
        q1 = c["cos"] * q + c["hsinc"] * p + 0.5 * h * h * (c["psi"] * g)
        g1 = -self.sys.grad_U(c["phi"] * q1)
        p1 = -c["wsin"] * q + c["cos"] * p + 0.5 * h * (c["psi0"] * g + c["psi1"] * g1)
        return p1, q1, g1


def _signed_combinations(n_freqs, max_terms):
    """Coefficient vectors k with 1 <= sum |k_i| <= max_terms.

    Only one of {k, -k} is produced (first nonzero entry positive).
    """
    combos = []

    def extend(prefix, start, budget, nonzero_seen):
        if nonzero_seen:
            combos.append(tuple(prefix))
        if budget == 0 or start == n_freqs:
            return
        for idx in range(start, n_freqs):
            for mag in range(1, budget + 1):
                signs = (1,) if not nonzero_seen else (1, -1)
                for sign in signs:
                    k = [0] * n_freqs
                    k[:len(prefix)] = prefix
                    k[idx] = sign * mag
                    extend(k[: idx + 1], idx + 1, budget - mag, True)

    extend([], 0, max_terms, False)
    # Deduplicate (the generator can revisit): keep insertion order.
    seen = set()
    unique = []
    for k in combos:
        k_full = k + (0,) * (n_freqs - len(k))
        if k_full not in seen:
            seen.add(k_full)
            unique.append(k_full)
    return unique


def _distance_to_multiples(values, period, include_zero):
    """Distance of each value (>= 0) to the nearest multiple of ``period``."""
    values = np.asarray(values, dtype=float)
    rem = np.mod(values, period)
    dist = np.minimum(rem, period - rem)
    if not include_zero:
        # The multiple 0 does not count: values below period/2 are
        # measured against the first nonzero multiple instead.
        below = values < 0.5 * period
        dist = np.where(below, period - values, dist)
    return dist


@dataclass
class ResonanceReport:
    """Step-size admissibility data for one (system, h) pair."""

    h: float
    threshold: float  # sqrt(h)
    block_indices: np.ndarray  # positive-frequency blocks
    h_omega: np.ndarray  # h * omega_j for those blocks
    freq_distances: np.ndarray  # distance of h*omega_j to multiples of pi
    freq_admissible: np.ndarray  # per-block flags
    admissible: bool  # all single-frequency conditions hold
    sum_coefficients: list  # coefficient vectors over the positive blocks
    sum_values: np.ndarray  # |sum k_j h omega_j|
    sum_distances: np.ndarray  # distance to nonzero multiples of 2 pi
    sums_admissible: bool
    near_resonant_pairs: np.ndarray  # (n, 2) rows a < b: |sum_values[a] - sum_values[b]| < threshold


@np.errstate(over="ignore", invalid="ignore")
def resonance_report(sys: OscillatorySystem, h, n_sum_terms=1) -> ResonanceReport:
    """Screen step size ``h`` against the frequencies of ``sys``.

    Single-frequency rule: every h*omega_j must be at least sqrt(h) away
    from the nearest multiple of pi, except that a product below sqrt(h)
    (an oscillation fully resolved by the step) is admissible.  A product
    whose spacing of doubles (np.spacing) is sqrt(h) or more is never
    admissible: its distance to a multiple of pi means nothing there (an
    overflowing product is refused too, without a RuntimeWarning).  Sum rule:
    signed sums of at most ``n_sum_terms + 1`` of the h*omega_j must stay
    sqrt(h) away from nonzero multiples of 2*pi.  Pairs of sums closer
    than sqrt(h) to each other are reported as near-resonant combinations
    (these are genuine frequency resonances, not step-size artifacts, so
    they do not affect admissibility): ``near_resonant_pairs`` is an
    (n, 2) index array whose rows a < b index ``sum_coefficients`` and
    ``sum_values``.
    """
    h = float(h)
    if h <= 0.0 or not np.isfinite(h):
        raise ContractViolationError(f"h must be positive and finite, got {h}")
    if n_sum_terms < 0:
        raise ContractViolationError(f"n_sum_terms must be >= 0, got {n_sum_terms}")
    threshold = np.sqrt(h)
    positive = np.flatnonzero(sys.frequencies > 0.0)
    xi = h * sys.frequencies[positive]
    freq_dist = _distance_to_multiples(xi, np.pi, include_zero=True)
    freq_ok = ((freq_dist >= threshold) | (xi < threshold)) & (np.spacing(xi) < threshold)

    combos = _signed_combinations(positive.size, n_sum_terms + 1)
    omega = sys.frequencies[positive]
    if combos:
        kmat = np.array(combos, dtype=float)
        sums = np.abs(kmat @ (h * omega))
        sum_dist = _distance_to_multiples(sums, 2.0 * np.pi, include_zero=False)
        gap = sums[:, None] - sums[None, :]
        np.abs(gap, out=gap)
        pairs = np.argwhere(np.triu(gap < threshold, k=1))
    else:
        sums = np.zeros(0)
        sum_dist = np.zeros(0)
        pairs = np.zeros((0, 2), dtype=np.intp)
    return ResonanceReport(
        h=h,
        threshold=float(threshold),
        block_indices=positive,
        h_omega=xi,
        freq_distances=freq_dist,
        freq_admissible=freq_ok,
        admissible=bool(np.all(freq_ok)),
        sum_coefficients=combos,
        sum_values=sums,
        sum_distances=sum_dist,
        sums_admissible=bool(np.all(sum_dist >= threshold)),
        near_resonant_pairs=pairs,
    )


def energy_table(sys: OscillatorySystem, trajectory: Trajectory) -> SeriesTable:
    """Energies along an integrate() trajectory: columns t, E_j for every
    positive-frequency block j, H_omega, H_slow, H and H_rel_drift
    (relative to H at the first record).

    Each row holds the values oscillatory_energies gives for its record,
    bit for bit.  The table is built column by column from the
    trajectory's arrays: each block's energies over all records at once,
    summed in the same order, and U from one eval_U call on the stacked
    positions.
    """
    if not isinstance(trajectory, Trajectory):
        raise ContractViolationError(f"energy_table needs a Trajectory, got {type(trajectory).__name__}")
    p, q = trajectory.p, trajectory.q
    if q.shape[1] != sys.dim:
        raise ContractViolationError(f"states have dimension {q.shape[1]}, system expects {sys.dim}")
    h_slow = np.array(sys.eval_U(q), dtype=float)
    if h_slow.shape != trajectory.t.shape:
        raise ContractViolationError(
            f"eval_U of {q.shape} positions gave shape {h_slow.shape}; it must act on the last axis"
        )
    h_omega = np.zeros(len(trajectory))
    energies = []
    for j, freq in enumerate(sys.frequencies):
        sl = sys.block_slice(j)
        e = 0.5 * (np.vecdot(p[:, sl], p[:, sl]) + freq**2 * np.vecdot(q[:, sl], q[:, sl]))
        if freq > 0.0:
            h_omega += e
            energies.append(e)
        else:
            h_slow += e
    h_total = h_omega + h_slow
    rel_drift = (h_total - h_total[0]) / abs(h_total[0])
    blocks = np.flatnonzero(sys.frequencies > 0.0)
    return SeriesTable(
        ["t", *(f"E_{j}" for j in blocks), "H_omega", "H_slow", "H", "H_rel_drift"],
        np.column_stack([trajectory.t, *energies, h_omega, h_slow, h_total, rel_drift]),
    )


def run_screened(sys, y0, filters, h, t_end, record_every=None) -> SeriesTable:
    """energy_table of a filtered run, after refusing an inadmissible h
    (InadmissibleStepError with the resonance report attached).
    ``record_every`` defaults to max(1, steps // 2000).  If step k leaves
    the state non-finite, the raised SolverDivergenceError carries
    ``step_index = k`` and the energy_table of the records before it in
    ``records``."""
    report = resonance_report(sys, h)
    if not report.admissible:
        blocks = report.block_indices[~report.freq_admissible].tolist()
        raise InadmissibleStepError(
            f"step size {h} is resonant for {sys.name}: h*omega of block(s) {blocks} lies "
            f"within sqrt(h) = {report.threshold:.3g} of a multiple of pi, or is too large "
            "for that distance to be resolved",
            report=report,
        )
    if record_every is None:
        record_every = max(1, step_count(h, t_end) // 2000)
    # A bare name, looked up here at call time: perfbench's tracer patches it.
    try:
        trajectory = integrate(sys, TrigKernel(sys, filters), StepperConfig(step_size=float(h)), y0,
                               t_end, record_every=record_every)
    except SolverDivergenceError as exc:
        exc.records = energy_table(sys, exc.records)
        raise
    return energy_table(sys, trajectory)


def run_energy_exchange_experiment(m, omega, h, t_end, filters=None, record_every=None) -> SeriesTable:
    """run_screened on the stiff spring chain: its energy_table has columns
    t, E_1..E_m (fast-block energies), H_omega, H_slow, H and H_rel_drift."""
    sys, y0 = make_fpu_chain(m, omega)
    if filters is None:
        filters = mollified_impulse_filter()
    return run_screened(sys, y0, filters, h, t_end, record_every)
