"""Filtered trigonometric stepping for systems with fast harmonic blocks."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from geomint import models, oscillatory, symplectic
from geomint.errors import (
    ContractViolationError,
    InadmissibleStepError,
    ResonantStepError,
)
from geomint.models import PhaseState, Trajectory
from geomint.oscillatory import (
    FILTERS,
    FilterPair,
    OscillatorySystem,
    StepperConfig,
    TrigKernel,
    energy_table,
    resonance_report,
    run_screened,
    sinc,
)

MOLLIFIED = FILTERS["trig-mollified"]()
IMPULSE = FILTERS["trig-impulse"]()


def no_coupling(q):
    """U = 0 on the last axis of q, as eval_U's contract asks."""
    return np.zeros(np.shape(q)[:-1])


def fpu(m=3, omega=50.0):
    return models.make_fpu_chain(m, omega)


def trig_step(sys, filters, h, y):
    """One filtered step of size h from y."""
    p, q, _ = TrigKernel(sys, filters)(sys, StepperConfig(step_size=h), h, y.p, y.q)
    return PhaseState(p=p, q=q)


def trig_run(sys, filters, h, y0, t_end, record_every=1):
    """integrate() with the filtered kernel: the run run_screened makes."""
    return symplectic.integrate(sys, TrigKernel(sys, filters), StepperConfig(step_size=h), y0,
                                t_end, record_every=record_every)


def single_oscillator(omega):
    return OscillatorySystem(
        frequencies=[omega],
        block_dims=[1],
        eval_U=no_coupling,
        grad_U=lambda q: np.zeros(1),
    )


# ------------------------------------------------------------------ stepping


def test_pure_rotation_block():
    """With no coupling the step is the exact harmonic rotation."""
    sys = single_oscillator(2.0)
    y = PhaseState(p=np.array([0.0]), q=np.array([1.0]))
    out = trig_step(sys, MOLLIFIED, 0.25, y)
    assert out.p[0] == pytest.approx(-2.0 * np.sin(0.5), abs=1e-14)
    assert out.q[0] == pytest.approx(np.cos(0.5), abs=1e-14)


def test_zero_frequency_reduces_to_verlet():
    sys = OscillatorySystem(
        frequencies=[0.0],
        block_dims=[2],
        eval_U=lambda q: np.sum(q**4, axis=-1) / 4.0,
        grad_U=lambda q: q**3,
    )
    rng = np.random.default_rng(4)
    y = PhaseState(p=rng.standard_normal(2), q=rng.standard_normal(2))
    ours = trig_step(sys, MOLLIFIED, 0.05, y)
    ref_p, ref_q, _ = symplectic.METHOD_IDS["stormer-verlet"](sys, StepperConfig(step_size=0.05),
                                                              0.05, y.p, y.q)
    assert np.max(np.abs(ours.p - ref_p)) <= 1e-14
    assert np.max(np.abs(ours.q - ref_q)) <= 1e-14


def test_small_step_displacement_is_order_h():
    sys, y0 = fpu()
    for h in (1e-2, 1e-3):
        out = trig_step(sys, MOLLIFIED, h, y0)
        moved = max(np.max(np.abs(out.p - y0.p)), np.max(np.abs(out.q - y0.q)))
        assert moved <= 100.0 * h


def test_resonant_step_is_refused_by_the_kernel():
    sys, y0 = fpu()
    with pytest.raises(ResonantStepError):
        trig_step(sys, MOLLIFIED, np.pi / 50.0, y0)


def test_filters_share_value_one_at_zero():
    for pair in (MOLLIFIED, IMPULSE):
        assert pair.psi(0.0) == pytest.approx(1.0, abs=1e-15)
        assert pair.phi(0.0) == pytest.approx(1.0, abs=1e-15)
    assert isinstance(MOLLIFIED, FilterPair)
    # The two choices genuinely differ away from zero.
    assert abs(MOLLIFIED.psi(1.3) - IMPULSE.psi(1.3)) > 0.1


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(np.pi)) <= 1e-15
    x = np.array([0.5, 1.0, 2.0])
    assert np.allclose(sinc(x), np.sin(x) / x, atol=1e-15)


@given(filter_id=st.sampled_from(sorted(FILTERS)), h=st.floats(1e-3, 0.05),
       n_steps=st.integers(1, 60), record_every=st.integers(1, 7))
def test_integrate_carries_the_trig_force_bit_for_bit(filter_id, h, n_steps, record_every):
    sys, y0 = fpu()
    calls = []
    grad_U = sys.grad_U

    def counting_grad_U(q):
        calls.append(1)
        return grad_U(q)

    kernel = TrigKernel(sys, FILTERS[filter_id]())
    cfg = StepperConfig(step_size=h)
    p, q = y0.p.copy(), y0.q.copy()
    expected = [(0.0, p, q)]
    for k in range(1, n_steps + 1):
        p, q, _ = kernel(sys, cfg, h, p, q)  # g=None: both forces evaluated
        if k % record_every == 0 or k == n_steps:
            expected.append((k * h, p, q))
    sys.grad_U = counting_grad_U
    records = symplectic.integrate(sys, kernel, cfg, y0, n_steps * h, record_every=record_every)
    assert len(calls) == n_steps + 1  # one force per step, plus the first
    assert len(records) == len(expected)
    for t, p, q, (t_ref, p_ref, q_ref) in zip(records.t, records.p, records.q, expected):
        assert t == t_ref
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)


def _energy_table_by_record(sys, trajectory):
    """energy_table's rows built from oscillatory_energies, one record at a time."""
    blocks = np.flatnonzero(sys.frequencies > 0.0)
    rows = []
    h0 = None
    for t, p, q in zip(trajectory.t, trajectory.p, trajectory.q):
        e = models.oscillatory_energies(sys, PhaseState(p=p, q=q))
        if h0 is None:
            h0 = e.h_total
        rows.append([t, *e.mode_energies[blocks], e.h_omega, e.h_slow, e.h_total,
                     (e.h_total - h0) / abs(h0)])
    return rows


@given(model=st.sampled_from(["fpu", "klein-gordon"]), size=st.integers(1, 6),
       n_records=st.integers(1, 30), scale=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_energy_table_matches_per_record_energies_bit_for_bit(model, size, n_records, scale, seed):
    if model == "fpu":
        sys, _ = models.make_fpu_chain(size, 50.0)
    else:
        sys, _ = models.make_klein_gordon(size + 3, 0.5, 0.1)
    rng = np.random.default_rng(seed)
    # Record k draws its p, then its q: pq[k, 0] and pq[k, 1].
    pq = scale * rng.standard_normal((n_records, 2, sys.dim))
    trajectory = Trajectory(t=0.5 * np.arange(n_records), p=pq[:, 0], q=pq[:, 1])
    assert np.array_equal(energy_table(sys, trajectory).rows,
                          _energy_table_by_record(sys, trajectory))


@given(model=st.sampled_from(["fpu", "klein-gordon"]), size=st.integers(1, 6),
       n=st.integers(1, 30), scale=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_eval_U_of_a_stack_equals_its_rows_bit_for_bit(model, size, n, scale, seed):
    # FPU m = 1..6, Klein-Gordon K = 4..9.
    if model == "fpu":
        sys, _ = models.make_fpu_chain(size, 50.0)
    else:
        sys, _ = models.make_klein_gordon(size + 3, 0.5, 0.1)
    q = scale * np.random.default_rng(seed).standard_normal((n, sys.dim))
    stacked = sys.eval_U(q)
    assert stacked.shape == (n,)
    assert stacked.tolist() == [float(sys.eval_U(row)) for row in q]


# ----------------------------------------------------------------- resonance


@given(freqs=st.lists(st.floats(0.5, 40.0), min_size=1, max_size=5),
       slow=st.booleans(), h=st.floats(1e-3, 0.5))
def test_near_resonant_pairs_match_a_brute_force_search(freqs, slow, h):
    frequencies = sorted(freqs)
    if slow:
        frequencies = [0.0] + frequencies
    sys = OscillatorySystem(
        frequencies=frequencies,
        block_dims=[1] * len(frequencies),
        eval_U=no_coupling,
        grad_U=lambda q: np.zeros(len(frequencies)),
    )
    rep = resonance_report(sys, h)
    sums = rep.sum_values
    expected = [[a, b] for a in range(sums.size) for b in range(a + 1, sums.size)
                if abs(sums[a] - sums[b]) < rep.threshold]
    assert rep.near_resonant_pairs.shape == (len(expected), 2)
    assert rep.near_resonant_pairs.tolist() == expected
    assert len(rep.sum_coefficients) == sums.size


# Frequencies from a small set, so that many signed sums are equal (as in
# the spring chain, whose fast blocks share one frequency); h = 0.25 makes
# h * 2.0 = sqrt(h), so sums lie exactly on the threshold.  In the first two
# examples, two runs of equal sums x < y lie where y < x + sqrt(h) and
# y - x < sqrt(h) disagree (one way, then the other).  In the last, h * 1e308
# overflows: its sums are inf or nan and near nothing.
@given(freqs=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 50.0]), min_size=1, max_size=6),
       slow=st.booleans(), h=st.one_of(st.sampled_from([0.01, 0.25, 1.0]), st.floats(1e-3, 4.0)))
@example(freqs=[3.036470273831545] * 2 + [10.10753808569702] * 3, slow=False, h=0.02)
@example(freqs=[32.29761548794252] * 3 + [39.36868329980799] * 2, slow=False, h=0.02)
@example(freqs=[50.0, 1e308, 1e308], slow=True, h=2.0)
def test_near_pair_count_matches_a_brute_force_search_through_ties_and_overflow(freqs, slow, h):
    frequencies = sorted(freqs)
    if slow:
        frequencies = [0.0] + frequencies
    sys = OscillatorySystem(
        frequencies=frequencies,
        block_dims=[1] * len(frequencies),
        eval_U=no_coupling,
        grad_U=lambda q: np.zeros(len(frequencies)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = resonance_report(sys, h)
        pairs = rep.near_resonant_pairs
    sums = rep.sum_values.tolist()
    expected = [[a, b] for a in range(len(sums)) for b in range(a + 1, len(sums))
                if abs(sums[a] - sums[b]) < rep.threshold]
    assert rep.n_near_pairs == len(pairs) == len(expected)
    assert pairs.tolist() == expected


def test_screening_a_hundred_spring_chain_takes_memory_linear_in_its_sums():
    # m = 100: 10,100 sums, about half of all their pairs near.  A matrix of
    # the pairwise gaps alone would take 8 * 10,100**2 bytes, about 0.8 GB.
    # The coefficient array, cached per size, is built inside the window.
    m = 100
    sys, _ = models.make_fpu_chain(m, 50.0)
    oscillatory._signed_combinations.cache_clear()
    tracemalloc.start()
    try:
        rep = resonance_report(sys, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # h * omega = 1: the sums take the values 1 (m of them), 2 (m + m(m-1)/2)
    # and 0 (m(m-1)/2), and two sums are near exactly when they are equal.
    half = m * (m - 1) // 2
    assert rep.n_near_pairs == math.comb(m, 2) + math.comb(m + half, 2) + math.comb(half, 2)
    assert rep.n_near_pairs == 25_002_450


def test_klein_gordon_screen_counts_its_near_pairs_in_a_small_footprint():
    sys, _ = models.make_klein_gordon(32, 0.5, 0.1)
    oscillatory._signed_combinations.cache_clear()
    tracemalloc.start()
    try:
        rep = resonance_report(sys, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert (rep.sum_values.size, rep.n_near_pairs) == (1122, 111378)




def test_resonance_report_admissible_step():
    sys, _ = fpu()
    rep = resonance_report(sys, 0.02)
    assert rep.threshold == pytest.approx(np.sqrt(0.02), abs=1e-12)
    assert np.all(rep.freq_distances == pytest.approx(1.0, abs=1e-12))
    assert rep.admissible


def test_resonance_report_resonant_step():
    sys, _ = fpu()
    rep = resonance_report(sys, np.pi / 50.0)
    assert np.all(rep.freq_distances <= 1e-12)
    assert not rep.admissible


def test_overflowing_step_product_is_refused_without_a_warning():
    # h * omega overflows to inf; pyproject turns a RuntimeWarning into an
    # error, and this makes the check independent of that setting.
    sys, _ = models.make_fpu_chain(3, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = resonance_report(sys, 2.0)
    assert np.all(np.isinf(rep.h_omega))
    assert not rep.admissible


def test_resonance_report_flags_frequency_ratios():
    sys = OscillatorySystem(
        frequencies=[0.0, 50.0, 100.0],
        block_dims=[1, 1, 1],
        eval_U=no_coupling,
        grad_U=lambda q: np.zeros(3),
    )
    rep = resonance_report(sys, 0.02)
    assert len(rep.near_resonant_pairs) > 0


@pytest.mark.parametrize("n", range(9))
def test_signed_combinations_are_each_vector_of_one_or_two_units_once(n):
    oscillatory._signed_combinations.cache_clear()
    coefficients = oscillatory._signed_combinations(n)
    assert coefficients.dtype == np.int64 and coefficients.shape == (n * (n + 1), n)
    with pytest.raises(ValueError):
        coefficients[...] = 0
    rows = {tuple(row) for row in coefficients.tolist()}
    assert len(rows) == len(coefficients)
    brute = {k for k in itertools.product(range(-2, 3), repeat=n) if 1 <= sum(map(abs, k)) <= 2}
    # One of each {k, -k}: the rows and their negatives are the brute-force set, once each.
    negated = {tuple(-x for x in k) for k in rows}
    assert not rows & negated
    assert rows | negated == brute
    assert oscillatory._signed_combinations(n) is coefficients


def test_exchange_experiment_refuses_resonant_step():
    with pytest.raises(InadmissibleStepError) as info:
        run_screened(*fpu(), MOLLIFIED, np.pi / 50.0, 10.0, 1)
    assert info.value.report is not None
    assert not info.value.report.admissible


def test_energy_table_lists_positive_frequency_blocks_only():
    sys, y0 = fpu()
    records = trig_run(sys, MOLLIFIED, 0.02, y0, 1.0, record_every=10)
    table = energy_table(sys, records)
    assert table.columns == ["t", "E_1", "E_2", "E_3", "H_omega", "H_slow", "H", "H_rel_drift"]
    assert len(table) == len(records)
    assert table.rows[0][-1] == 0.0
    with pytest.raises(ContractViolationError):
        energy_table(sys, [])


# ------------------------------------------------------------------- physics


def test_energy_exchange_with_conserved_totals():
    table = run_screened(*fpu(), MOLLIFIED, 0.02, 200.0, 5)
    h_omega = table.column("H_omega")
    h_total = table.column("H")
    # Fast energy is nearly conserved while single-spring energies swing.
    assert max(abs(x - h_omega[0]) for x in h_omega) <= 0.1 * h_omega[0]
    assert max(abs(x - h_total[0]) for x in h_total) <= 0.1 * abs(h_total[0])
    swing = max(
        max(abs(x - col[0]) for x in col)
        for col in (table.column("E_1"), table.column("E_2"), table.column("E_3"))
    )
    assert swing >= 0.2 * h_omega[0]


def test_uncoupled_mode_energies_are_constant():
    sys, y0 = fpu()
    lin = models.strip_coupling(sys)
    records = trig_run(lin, MOLLIFIED, 0.02, y0, 10.0, record_every=10)
    e0 = models.oscillatory_energies(lin, PhaseState(p=records.p[0], q=records.q[0])).mode_energies
    for p, q in zip(records.p, records.q):
        e = models.oscillatory_energies(lin, PhaseState(p=p, q=q)).mode_energies
        assert np.max(np.abs(e - e0)) <= 1e-12


@pytest.mark.parametrize("pair", [MOLLIFIED, IMPULSE], ids=["mollified", "impulse"])
def test_linear_problem_is_integrated_exactly(pair):
    sys, y0 = fpu()
    lin = models.strip_coupling(sys)
    start = PhaseState(p=np.zeros(sys.dim), q=y0.q.copy())
    start.p[3:] = y0.p[3:]
    records = trig_run(lin, pair, 0.02, start, 100.0, record_every=10**9)
    t_f, out_p, out_q = records.t[-1], records.p[-1], records.q[-1]
    omega = lin.omega[3:]
    q_ref = start.q[3:] * np.cos(omega * t_f) + (start.p[3:] / omega) * np.sin(omega * t_f)
    p_ref = -omega * start.q[3:] * np.sin(omega * t_f) + start.p[3:] * np.cos(omega * t_f)
    worst = max(
        np.max(np.abs(out_q[3:] - q_ref)),
        np.max(np.abs(out_p[3:] - p_ref)),
        np.max(np.abs(out_q[:3] - start.q[:3])),
        np.max(np.abs(out_p[:3])),
    )
    assert worst <= 1e-11


def test_klein_gordon_linear_modes_are_exact():
    sys, y0 = models.make_klein_gordon(8, 0.5, 0.1)
    lin = models.strip_coupling(sys)
    records = trig_run(lin, IMPULSE, 0.02, y0, 1.0, record_every=10**9)
    t_f = records.t[-1]
    omega = lin.omega
    q_ref = y0.q * np.cos(omega * t_f) + (y0.p / omega) * np.sin(omega * t_f)
    p_ref = -omega * y0.q * np.sin(omega * t_f) + y0.p * np.cos(omega * t_f)
    assert np.max(np.abs(records.q[-1] - q_ref)) <= 1e-12
    assert np.max(np.abs(records.p[-1] - p_ref)) <= 1e-12


@st.composite
def uncoupled_systems(draw):
    """1-5 positive frequencies in [0.5, 60], sometimes after a zero-frequency
    block, each block of dimension 1 or 2, and U = 0."""
    freqs = draw(st.lists(st.floats(0.5, 60.0), min_size=1, max_size=5))
    if draw(st.booleans()):
        freqs = [0.0, *freqs]
    dims = draw(st.lists(st.integers(1, 2), min_size=len(freqs), max_size=len(freqs)))
    return OscillatorySystem(frequencies=freqs, block_dims=dims, eval_U=no_coupling,
                             grad_U=np.zeros_like)


@given(sys=uncoupled_systems(), h=st.floats(1e-3, 0.1), n_steps=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_uncoupled_admissible_spectra_are_integrated_exactly(sys, h, n_steps, seed):
    assume(resonance_report(sys, h).admissible)
    rng = np.random.default_rng(seed)
    y0 = PhaseState(p=rng.standard_normal(sys.dim), q=rng.standard_normal(sys.dim))
    omega = sys.omega
    for pair in (MOLLIFIED, IMPULSE):
        records = trig_run(sys, pair, h, y0, n_steps * h, record_every=10**9)
        t_f = records.t[-1]
        # The exact rotation of every block; t sinc(omega t) = sin(omega t) / omega
        # is also the free flight of the zero-frequency block.
        q_ref = y0.q * np.cos(omega * t_f) + y0.p * t_f * sinc(omega * t_f)
        p_ref = -omega * y0.q * np.sin(omega * t_f) + y0.p * np.cos(omega * t_f)
        assert np.max(np.abs(records.q[-1] - q_ref)) <= 1e-10
        assert np.max(np.abs(records.p[-1] - p_ref) / np.maximum(1.0, omega)) <= 1e-10


def test_step_is_time_symmetric():
    sys, y0 = fpu()
    fwd = trig_step(sys, MOLLIFIED, 0.02, y0)
    back = trig_step(sys, MOLLIFIED, -0.02, fwd)
    assert np.max(np.abs(back.p - y0.p)) <= 1e-11
    assert np.max(np.abs(back.q - y0.q)) <= 1e-11


def test_long_time_energy_drift_stays_small():
    sys, y0 = fpu()
    records = trig_run(sys, MOLLIFIED, 0.02, y0, 1000.0, record_every=100)
    h0 = sys.eval_H(y0.p, y0.q)
    drift = max(abs(sys.eval_H(p, q) - h0) / abs(h0) for p, q in zip(records.p, records.q))
    assert drift <= 0.05


# ---------------------------------------------------------------- validation


def test_integrate_validations():
    sys, y0 = fpu()
    with pytest.raises(ContractViolationError):
        trig_run(sys, MOLLIFIED, -0.1, y0, 1.0)
    with pytest.raises(ContractViolationError):
        trig_run(sys, MOLLIFIED, 0.02, y0, 1.0, record_every=0)


def test_oscillatory_system_frequency_layout():
    with pytest.raises(ContractViolationError):
        OscillatorySystem(frequencies=[-1.0], block_dims=[1],
                          eval_U=no_coupling, grad_U=lambda q: np.zeros(1))
    with pytest.raises(ContractViolationError):
        OscillatorySystem(frequencies=[0.0, 0.0], block_dims=[1, 1],
                          eval_U=no_coupling, grad_U=lambda q: np.zeros(2))
    with pytest.raises(ContractViolationError):
        OscillatorySystem(frequencies=[0.0, np.inf], block_dims=[1, 1],
                          eval_U=no_coupling, grad_U=lambda q: np.zeros(2))


def test_step_requires_oscillatory_system():
    with pytest.raises(ContractViolationError):
        trig_step(models.make_harmonic_oscillator(), MOLLIFIED, 0.1,
                  PhaseState(p=np.array([1.0]), q=np.array([0.0])))


def _screen_entry_points():
    """Each oscillatory entry point as a call of (system, filters)."""
    sys, y0 = fpu()
    trajectory = trig_run(sys, MOLLIFIED, 0.02, y0, 0.1)
    return {
        "resonance_report": lambda s, f: resonance_report(s, 0.02),
        "energy_table": lambda s, f: energy_table(s, trajectory),
        "TrigKernel": lambda s, f: TrigKernel(s, f),
        "run_screened": lambda s, f: run_screened(s, y0, f, 0.02, 0.1, 1),
    }


@pytest.mark.parametrize("bad", [models.make_kepler(0.5)[0], "x"], ids=["kepler", "str"])
@pytest.mark.parametrize("entry", ["resonance_report", "energy_table", "TrigKernel", "run_screened"])
def test_entry_points_refuse_a_system_that_is_not_oscillatory(entry, bad):
    with pytest.raises(ContractViolationError, match="need an OscillatorySystem, got"):
        _screen_entry_points()[entry](bad, MOLLIFIED)


@pytest.mark.parametrize("bad", ["trig-mollified", None, (oscillatory.sinc, oscillatory.sinc)],
                         ids=["str", "none", "tuple"])
@pytest.mark.parametrize("entry", ["TrigKernel", "run_screened"])
def test_entry_points_refuse_filters_that_are_not_a_filter_pair(entry, bad):
    sys, _ = fpu()
    with pytest.raises(ContractViolationError, match="filters must be a FilterPair, got"):
        _screen_entry_points()[entry](sys, bad)
