"""Fixed-step one-step methods and their structural diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomint import fdtools, models, oscillatory, symplectic
from geomint.errors import ContractViolationError, SolverDivergenceError
from geomint.models import PhaseState, SeparableSystem, Trajectory
from geomint.symplectic import (
    StepperConfig,
    first_integral_series,
    integrate,
    symmetry_defect,
    symplecticity_defect,
)

HARMONIC = models.make_harmonic_oscillator()
UNIT = PhaseState(p=np.array([1.0]), q=np.array([0.0]))


def cfg(h):
    return StepperConfig(step_size=h)


def step(sys, method, h, y):
    """One step of ``method`` (an id of METHOD_IDS) of size h from y."""
    p, q, _ = symplectic.resolve_method(method)(sys, cfg(h), h, y.p, y.q)
    return PhaseState(p=p, q=q)


def angular_momentum(p, q):
    """Planar L = q1 p2 - q2 p1 on the last axis."""
    return q[..., 0] * p[..., 1] - q[..., 1] * p[..., 0]


# ------------------------------------------------------------------ stepping


def test_symplectic_euler_p_first_on_harmonic():
    out = step(HARMONIC, "symplectic-euler-pq", 0.1, UNIT)
    assert out.p[0] == pytest.approx(1.0, abs=1e-15)
    assert out.q[0] == pytest.approx(0.1, abs=1e-15)


def test_explicit_euler_grows_energy():
    out = step(HARMONIC, "explicit-euler", 0.1, UNIT)
    assert out.p[0] == pytest.approx(1.0, abs=1e-15)
    assert out.q[0] == pytest.approx(0.1, abs=1e-15)
    assert HARMONIC.eval_H(out.p, out.q) > HARMONIC.eval_H(UNIT.p, UNIT.q)


def test_zero_step_is_identity():
    # The four Euler methods and Stormer-Verlet.
    for method in symplectic.METHOD_IDS:
        out = step(HARMONIC, method, 0.0, UNIT)
        assert out.p[0] == UNIT.p[0] and out.q[0] == UNIT.q[0], method


def test_verlet_on_harmonic():
    out = step(HARMONIC, "stormer-verlet", 0.1, UNIT)
    assert out.p[0] == pytest.approx(0.995, abs=1e-15)
    assert out.q[0] == pytest.approx(0.1, abs=1e-15)


def test_free_flight_is_exact():
    free = symplectic.SeparableSystem(
        inverse_masses=np.array([1.0, 0.5]),
        eval_V=lambda q: 0.0,
        grad_V=lambda q: np.zeros(2),
    )
    y = PhaseState(p=np.array([2.0, -1.0]), q=np.array([0.5, 0.5]))
    out = step(free, "stormer-verlet", 0.3, y)
    assert np.array_equal(out.p, y.p)
    assert np.allclose(out.q, y.q + 0.3 * free.inverse_masses * y.p, atol=1e-16)


def test_verlet_is_composition_of_mixed_euler_halves():
    pend = models.make_pendulum()
    rng = np.random.default_rng(8)
    for _ in range(5):
        y = PhaseState(p=rng.standard_normal(1), q=rng.standard_normal(1))
        direct = step(pend, "stormer-verlet", 0.2, y)
        mid = step(pend, "symplectic-euler-pq", 0.1, y)
        composed = step(pend, "symplectic-euler-qp", 0.1, mid)
        assert np.max(np.abs(direct.p - composed.p)) <= 1e-14
        assert np.max(np.abs(direct.q - composed.q)) <= 1e-14


def test_implicit_euler_satisfies_its_fixed_point():
    out = step(HARMONIC, "implicit-euler", 0.01, UNIT)
    # p1 = p - h * dH/dq(p1, q1), q1 = q + h * dH/dp(p1, q1)
    res_p = out.p[0] - (UNIT.p[0] - 0.01 * out.q[0])
    res_q = out.q[0] - (UNIT.q[0] + 0.01 * out.p[0])
    assert max(abs(res_p), abs(res_q)) <= 1e-12


def _dense_steps(m, a, h, p, q):
    """Each explicit method and H with the mass as the dense matrix diag(m)."""
    minv = np.diag(m)
    p_half = p - 0.5 * h * (a @ q)
    q_verlet = q + h * (minv @ p_half)
    p_pq = p - h * (a @ q)
    q_qp = q + h * (minv @ p)
    return {
        "explicit-euler": (p - h * (a @ q), q + h * (minv @ p)),
        "symplectic-euler-pq": (p_pq, q + h * (minv @ p_pq)),
        "symplectic-euler-qp": (p - h * (a @ q_qp), q_qp),
        "stormer-verlet": (p_half - 0.5 * h * (a @ q_verlet), q_verlet),
    }, 0.5 * float(p @ (minv @ p)) + 0.5 * float(q @ (a @ q))


@given(d=st.integers(1, 18), seed=st.integers(0, 2**32 - 1),
       log_m=st.lists(st.floats(-3.0, 3.0), min_size=18, max_size=18),
       pq=st.lists(st.floats(-1e3, 1e3), min_size=36, max_size=36), h=st.floats(-0.5, 0.5))
def test_inverse_mass_vector_steps_equal_the_dense_mass_matrix_bit_for_bit(d, seed, log_m, pq, h):
    # Each row of diag(m) has one nonzero product, so for finite p the
    # vector product m * p is the matrix product entry for entry.
    m = 10.0 ** np.array(log_m[:d])
    a = np.random.default_rng(seed).standard_normal((d, d))
    a = a + a.T
    p, q = np.array(pq[:d]), np.array(pq[18:18 + d])
    sys = SeparableSystem(m, lambda q: 0.5 * float(q @ (a @ q)), lambda q: a @ q)
    dense, h_dense = _dense_steps(m, a, h, p, q)
    for method, (p_dense, q_dense) in dense.items():
        p1, q1, _ = symplectic.resolve_method(method)(sys, cfg(h), h, p, q)
        assert np.array_equal(p1, p_dense) and np.array_equal(q1, q_dense), method
    assert np.array_equal(sys.eval_H(p, q), h_dense)


# ----------------------------------------------------------------- integrate


def test_record_every_larger_than_run():
    records = integrate(HARMONIC, "stormer-verlet", cfg(0.1), UNIT, 1.0, record_every=1000)
    assert len(records) == 2
    assert records.t[0] == 0.0
    assert records.t[-1] == pytest.approx(1.0, abs=1e-12)
    # A record_every that does not divide the n = 10 steps: rows at steps
    # 0, 3, 6, 9 and the final one, n // k + 2 in all, the last at n * h.
    records = integrate(HARMONIC, "stormer-verlet", cfg(0.1), UNIT, 1.0, record_every=3)
    assert len(records) == 10 // 3 + 2
    assert records.t.tolist() == [0.0, 3 * 0.1, 6 * 0.1, 9 * 0.1, 10 * 0.1]
    assert records.t[-1] == 10 * 0.1


def test_verlet_closes_harmonic_period():
    records = integrate(HARMONIC, "stormer-verlet", cfg(0.01), UNIT, 2 * np.pi, record_every=10**9)
    t_f = records.t[-1]
    assert abs(records.p[-1, 0] - np.cos(t_f)) <= 1e-3
    assert abs(records.q[-1, 0] - np.sin(t_f)) <= 1e-3


def test_verlet_kepler_self_convergence():
    sys, y0 = models.make_kepler(0.6)
    coarse = integrate(sys, "stormer-verlet", cfg(1e-3), y0, 1.0, record_every=10**9)
    fine = integrate(sys, "stormer-verlet", cfg(1e-5), y0, 1.0, record_every=10**9)
    diff = max(np.max(np.abs(coarse.p[-1] - fine.p[-1])), np.max(np.abs(coarse.q[-1] - fine.q[-1])))
    assert diff <= 1e-5


def test_empty_interval_takes_no_steps():
    assert symplectic.step_count(0.1, 0.0) == 0
    records = integrate(HARMONIC, "stormer-verlet", cfg(0.1), UNIT, 0.0)
    assert len(records) == 1
    assert records.t.tolist() == [0.0]
    assert np.array_equal(records.p[0], UNIT.p) and np.array_equal(records.q[0], UNIT.q)


def test_integrate_validations():
    with pytest.raises(ContractViolationError):
        integrate(HARMONIC, "stormer-verlet", cfg(0.1), UNIT, -1.0)
    with pytest.raises(ContractViolationError):
        integrate(HARMONIC, "stormer-verlet", cfg(0.1), UNIT, 1.0, record_every=0)
    with pytest.raises(ContractViolationError):
        integrate(HARMONIC, "runge-kutta", cfg(0.1), UNIT, 1.0)


@pytest.mark.parametrize("record_every", [1.5, 2.9, "2", None])
def test_record_every_that_is_not_an_integer_is_refused(record_every):
    with pytest.raises(ContractViolationError, match="record_every must be an integer >= 1"):
        integrate(HARMONIC, "stormer-verlet", cfg(0.1), UNIT, 1.0, record_every=record_every)
    records = integrate(HARMONIC, "stormer-verlet", cfg(0.1), UNIT, 1.0, record_every=np.int64(2))
    assert records.t.tolist() == pytest.approx([0.2 * k for k in range(6)])


class _NotSeparable:
    """Exposes the Hamiltonian interface but is not a SeparableSystem."""

    dim = 1
    inverse_masses = HARMONIC.inverse_masses

    def eval_H(self, p, q):
        return HARMONIC.eval_H(p, q)

    def grad_V(self, q):
        return HARMONIC.grad_V(q)


@pytest.mark.parametrize("run", [
    lambda sys: integrate(sys, "stormer-verlet", cfg(0.1), UNIT, 1.0),
    lambda sys: symplecticity_defect(sys, "symplectic-euler-pq", cfg(0.1), UNIT),
    lambda sys: symmetry_defect(sys, "stormer-verlet", cfg(0.1), UNIT),
], ids=["integrate", "symplecticity_defect", "symmetry_defect"])
def test_non_separable_system_is_contract_violation(run):
    with pytest.raises(ContractViolationError, match="SeparableSystem"):
        run(_NotSeparable())


@pytest.mark.parametrize("call, message", [
    (lambda: PhaseState("ab", "cd"), "p does not convert"),
    (lambda: PhaseState([1.0], 1j), "q is complex"),
    (lambda: oscillatory.sinc("x"), "x does not convert"),
    (lambda: oscillatory.sinc([0.5, 1j]), "x is complex"),
    (lambda: symmetry_defect(HARMONIC, "stormer-verlet", cfg(0.1), "x"), "y must be a PhaseState"),
    (lambda: symplecticity_defect(HARMONIC, "stormer-verlet", cfg(0.1), "x"), "y must be a PhaseState"),
    (lambda: integrate(HARMONIC, "stormer-verlet", cfg(0.1), "x", 1.0), "y0 must be a PhaseState"),
    (lambda: symmetry_defect(HARMONIC, "stormer-verlet", cfg(0.1), PhaseState([1.0, 0.0], [0.0, 1.0])),
     "y has dimension 2, system expects 1"),
], ids=["phase-state-text", "phase-state-complex", "sinc-text", "sinc-complex", "symmetry-defect-text",
        "symplecticity-defect-text", "integrate-text", "symmetry-defect-dimension"])
def test_states_and_sinc_arguments_that_are_not_real_arrays_are_contract_violations(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call()


@pytest.mark.parametrize("bad_cfg", ["x", None, 0.1], ids=["str", "none", "float"])
@pytest.mark.parametrize("run", [
    lambda config: integrate(HARMONIC, "stormer-verlet", config, UNIT, 1.0),
    lambda config: symplecticity_defect(HARMONIC, "stormer-verlet", config, UNIT),
    lambda config: symmetry_defect(HARMONIC, "stormer-verlet", config, UNIT),
], ids=["integrate", "symplecticity_defect", "symmetry_defect"])
def test_a_cfg_that_is_not_a_stepper_config_is_a_contract_violation(run, bad_cfg):
    # Each used to end in AttributeError on cfg.step_size.
    with pytest.raises(ContractViolationError, match="cfg must be a StepperConfig"):
        run(bad_cfg)


def test_method_ids_map_to_kernels():
    # A kernel callable passes through; ids resolve to the same objects
    # on every call; anything else is refused.
    assert symplectic.resolve_method(symplectic._verlet_kernel) is symplectic._verlet_kernel
    for name, kernel in symplectic.METHOD_IDS.items():
        assert symplectic.resolve_method(name) is kernel
    with pytest.raises(ContractViolationError):
        symplectic.resolve_method(42)


def test_stepper_config_validations():
    with pytest.raises(ContractViolationError):
        StepperConfig(step_size=float("nan"))
    with pytest.raises(ContractViolationError):
        StepperConfig(step_size=0.1, solver="conjugate-gradient")


@pytest.mark.parametrize("step_size", ["0.1", None, [0.1, 0.2], 1j, np.array([0.1]), 10**400],
                         ids=["str", "none", "list", "complex", "array", "int-beyond-float"])
def test_stepper_config_refuses_what_is_not_a_real_scalar(step_size):
    with pytest.raises(ContractViolationError, match="finite real"):
        StepperConfig(step_size=step_size)


def test_stepper_config_stores_the_step_size_as_a_python_float():
    for step_size in (np.float64(0.1), np.float32(0.5), 2, np.int64(3)):
        config = StepperConfig(step_size=step_size)
        assert type(config.step_size) is float and config.step_size == float(step_size)


@pytest.mark.parametrize("h, t_end", [(0.1, "10"), (0.1, None), ("0.1", 1.0), (None, 1.0), (0.1, 1j)])
def test_step_count_refuses_a_non_real_step_or_interval(h, t_end):
    with pytest.raises(ContractViolationError, match="must be a real"):
        symplectic.step_count(h, t_end)
    if isinstance(h, float):
        with pytest.raises(ContractViolationError, match="interval length must be a real"):
            integrate(HARMONIC, "stormer-verlet", cfg(h), UNIT, t_end)


def test_blow_up_is_a_divergence_with_the_step_and_partial_records():
    # Explicit Euler grows the harmonic energy by (1 + h^2) per step: at
    # h = 10 the state overflows after about 300 steps.
    with pytest.raises(SolverDivergenceError, match="non-finite") as info:
        integrate(HARMONIC, "explicit-euler", cfg(10.0), UNIT, 1e4)
    assert info.value.step_index == 308
    records = info.value.records
    assert len(records) == 308
    # The rows written before step 308, and no uninitialised tail.
    assert records.t[-1] == 3070.0 and records.p.shape == records.q.shape == (308, 1)
    assert np.isfinite(records.p).all() and np.isfinite(records.q).all()


@pytest.mark.parametrize("bad", [(0, np.inf), (0, -np.inf), (1, np.nan)], ids=["p-inf", "p-minus-inf", "q-nan"])
def test_any_non_finite_entry_stops_the_run_at_its_step(bad):
    # A kernel that spoils one entry of p or q at step 3 of a 3-d run.
    which, value = bad
    sys = symplectic.SeparableSystem(np.ones(3), lambda q: 0.0, lambda q: np.zeros(3))
    steps = []

    def kernel(sys, cfg, h, p, q, g=None):
        steps.append(1)
        out = [p + h, q.copy()]
        if len(steps) == 3:
            out[which][1] = value
        return out[0], out[1], None

    y0 = PhaseState(p=np.zeros(3), q=np.ones(3))
    with pytest.raises(SolverDivergenceError) as info:
        integrate(sys, kernel, cfg(0.1), y0, 1.0)
    assert info.value.step_index == 3
    assert len(info.value.records) == 3


def _two_dot_reference(kernel, sys, h, y0, n_steps, record_every):
    """integrate()'s loop with the check it had before the one-dot test:
    (step_index or None, records as (t, p, q) tuples)."""
    zero = np.zeros(y0.dim)
    p, q, g = y0.p.copy(), y0.q.copy(), None
    records = [(0.0, y0.p.copy(), y0.q.copy())]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            p, q, g = kernel(sys, cfg(h), h, p, q, g)
            if math.isnan(p.dot(zero) + q.dot(zero)):
                return k, records
            if k % record_every == 0 or k == n_steps:
                records.append((k * h, p.copy(), q.copy()))
    return None, records


@given(dim=st.integers(1, 5), n_steps=st.integers(1, 12), bad_step=st.integers(1, 14),
       record_every=st.integers(1, 4), spoil_p=st.booleans(), spoil_q=st.booleans(),
       entry=st.integers(0, 4), value=st.sampled_from([np.inf, -np.inf, np.nan]),
       magnitude=st.sampled_from([0.0, 1.0, 1e200, -1e200]), seed=st.integers(0, 2**32 - 1))
def test_the_one_dot_check_stops_where_the_two_dot_check_did(dim, n_steps, bad_step, record_every, spoil_p,
                                                                spoil_q, entry, value, magnitude, seed):
    # States of entries 0 or ±1e200, whose p.q overflows to ±inf or nan
    # without being a divergence; at ``bad_step`` the kernel writes inf or
    # nan into p and/or q.  The run must stop at the same step with the same
    # records as under the two-dot test, or not stop at all.
    sys = SeparableSystem(np.ones(dim), lambda q: 0.0, lambda q: np.zeros(dim))
    rng = np.random.default_rng(seed)
    states = magnitude * rng.choice([-1.0, 1.0], size=(n_steps + 1, 2, dim))

    def kernel(sys, cfg, h, p, q, g=None):
        k = 1 if g is None else g + 1  # the carried "gradient" counts the steps
        p1, q1 = states[k].copy()
        if k == bad_step:
            if spoil_p:
                p1[entry % dim] = value
            if spoil_q or not spoil_p:
                q1[entry % dim] = value
        return p1, q1, k

    y0 = PhaseState(p=np.zeros(dim), q=np.zeros(dim))
    stop, expected = _two_dot_reference(kernel, sys, 0.5, y0, n_steps, record_every)
    if stop is None:
        records = integrate(sys, kernel, cfg(0.5), y0, 0.5 * n_steps, record_every=record_every)
    else:
        with pytest.raises(SolverDivergenceError, match="non-finite") as info:
            integrate(sys, kernel, cfg(0.5), y0, 0.5 * n_steps, record_every=record_every)
        assert info.value.step_index == stop
        records = info.value.records
    assert_records_equal(records, expected)


def test_a_finite_state_whose_dot_product_overflows_is_not_a_divergence():
    big = np.array([1e200, 1e200])
    sys = SeparableSystem(np.ones(2), lambda q: 0.0, lambda q: np.zeros(2))
    for p_sign in (1.0, -1.0):  # p.q is inf, or inf - inf = nan

        def kernel(sys, cfg, h, p, q, g=None):
            return big * [1.0, p_sign], big.copy(), None

        records = integrate(sys, kernel, cfg(0.1), PhaseState(p=np.zeros(2), q=np.zeros(2)), 0.3)
        assert len(records) == 4 and np.array_equal(records.q[1:], np.tile(big, (3, 1)))


def test_step_count_ceiling_is_a_contract_violation():
    for h, t_end in ((1e-300, 1.0), (1e-300, 1e10), (1.0, float("inf"))):
        with pytest.raises(ContractViolationError, match="MAX_STEPS"):
            integrate(HARMONIC, "stormer-verlet", cfg(h), UNIT, t_end)
    assert symplectic.step_count(1.0, float(symplectic.MAX_STEPS)) == symplectic.MAX_STEPS


def _counting(sys):
    """A copy of ``sys`` whose grad_V counts its calls in ``calls``."""
    calls = []

    def grad_V(q):
        calls.append(1)
        return sys.grad_V(q)

    return symplectic.SeparableSystem(sys.inverse_masses, sys.eval_V, grad_V, sys.name), calls


def _kernel_loop(sys, kernel, h, y0, n_steps, record_every):
    """What integrate() records, from one kernel call with g=None per step."""
    p, q = y0.p.copy(), y0.q.copy()
    out = [(0.0, p, q)]
    for k in range(1, n_steps + 1):
        p, q, _ = kernel(sys, cfg(h), h, p, q)
        if k % record_every == 0 or k == n_steps:
            out.append((k * h, p, q))
    return out


def assert_records_equal(records, expected):
    assert len(records) == len(expected)
    for t, p, q, (t_ref, p_ref, q_ref) in zip(records.t, records.p, records.q, expected):
        assert t == t_ref
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)


@given(eccentricity=st.floats(0.0, 0.7), h=st.floats(1e-3, 0.1),
       n_steps=st.integers(1, 60), record_every=st.integers(1, 7))
def test_integrate_carries_the_verlet_gradient_bit_for_bit(eccentricity, h, n_steps, record_every):
    kepler, y0 = models.make_kepler(eccentricity)
    sys, calls = _counting(kepler)
    records = integrate(sys, "stormer-verlet", cfg(h), y0, n_steps * h, record_every=record_every)
    assert len(calls) == n_steps + 1  # one gradient per step, plus the first
    expected = _kernel_loop(kepler, symplectic._verlet_kernel, h, y0, n_steps, record_every)
    assert_records_equal(records, expected)


def test_implicit_divergence_reports_step():
    # Near-collision state with an oversized step: the fixed-point map is
    # not a contraction, and the run must say where it gave up.
    sys, _ = models.make_kepler(0.6)
    y = PhaseState(p=np.array([0.0, 2.0]), q=np.array([0.4, 0.0]))
    with pytest.raises(SolverDivergenceError) as info:
        integrate(sys, "implicit-euler", cfg(0.5), y, 5.0)
    assert info.value.step_index >= 1
    assert len(info.value.records) >= 1


# --------------------------------------------------------------- diagnostics


def test_symplecticity_defect_explicit_euler_harmonic():
    # For the 2x2 linear map the defect has the closed form h^2 * sqrt(2).
    d = symplecticity_defect(HARMONIC, "explicit-euler", cfg(0.1), UNIT)
    assert d == pytest.approx(0.01 * np.sqrt(2.0), abs=1e-4)


def test_symplecticity_defect_symplectic_euler_pendulum():
    pend = models.make_pendulum()
    y = PhaseState(p=np.array([0.3]), q=np.array([0.7]))
    d = symplecticity_defect(pend, "symplectic-euler-pq", cfg(0.1), y)
    assert d <= 1e-6


@st.composite
def quadratic_systems(draw):
    """V(q) = q^T A q / 2 with A random SPD, ||A||_2 in [0.1, 10] and
    condition number at most 10, inverse masses in [0.2, 5], and a
    random state."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    eigenvalues = rng.uniform(0.1, 1.0, d)
    eigenvalues *= draw(st.floats(0.1, 10.0)) / eigenvalues.max()
    a = (basis * eigenvalues) @ basis.T
    a = 0.5 * (a + a.T)
    sys = SeparableSystem(inverse_masses=rng.uniform(0.2, 5.0, d),
                          eval_V=lambda q: 0.5 * float(q @ (a @ q)), grad_V=lambda q: a @ q)
    return sys, a, PhaseState(p=rng.standard_normal(d), q=rng.standard_normal(d))


@given(problem=quadratic_systems(), h=st.floats(1e-3, 0.2))
def test_symplecticity_defect_on_random_quadratic_potentials(problem, h):
    sys, a, y = problem
    for method in ("symplectic-euler-qp", "symplectic-euler-pq", "stormer-verlet"):
        assert symplecticity_defect(sys, method, cfg(h), y) <= 1e-7, method
    # Explicit Euler's defect is sqrt(2) h^2 ||M^-1 A||_F exactly, at least
    # sqrt(2) h^2 ||M^-1||_2 lambda_min(A) >= 0.14 h^2 ||M^-1||_2 ||A||_2.
    bound = 0.1 * h**2 * sys.inverse_masses.max() * np.linalg.norm(a, 2)
    assert symplecticity_defect(sys, "explicit-euler", cfg(h), y) >= bound


def test_symplecticity_defect_zero_step():
    d = symplecticity_defect(HARMONIC, "explicit-euler", cfg(0.0), UNIT)
    assert d <= 1e-10


def test_symmetry_defect_verlet_kepler():
    sys, y0 = models.make_kepler(0.6)
    assert symmetry_defect(sys, "stormer-verlet", cfg(0.01), y0) <= 1e-13


def test_symmetry_defect_explicit_euler_positive():
    assert symmetry_defect(HARMONIC, "explicit-euler", cfg(0.1), UNIT) > 1e-3


def test_symmetry_defect_zero_step():
    assert symmetry_defect(HARMONIC, "explicit-euler", cfg(0.0), UNIT) == 0.0


def test_central_jacobian_evaluates_only_the_differences():
    calls = []

    def f(x):
        calls.append(x)
        return np.array([np.sin(x[0]) * x[1], x[1] * x[2]])

    x = np.array([0.3, -1.2, 2.0])
    jac = fdtools.central_jacobian(f, x, step=1e-6)
    assert len(calls) == 2 * x.size
    exact = np.array([[np.cos(0.3) * -1.2, np.sin(0.3), 0.0], [0.0, 2.0, -1.2]])
    assert jac.shape == (2, 3)
    assert np.max(np.abs(jac - exact)) <= 1e-8
    with pytest.raises(ContractViolationError):
        fdtools.central_jacobian(f, np.zeros(0))


# ------------------------------------------------------------ first integrals


def test_constant_integral_has_zero_drift():
    records = integrate(HARMONIC, "stormer-verlet", cfg(0.1), UNIT, 1.0)
    one = lambda p, q: np.ones(p.shape[:-1])
    table = first_integral_series(records, {"one": one})
    assert all(v == 0.0 for v in table.column("one_drift"))
    assert all(v == 0.0 for v in table.column("one_rel_drift"))
    with pytest.raises(ContractViolationError, match="Trajectory"):
        first_integral_series([], {"one": one})
    # An integral must act on the last axis: one value per record.
    with pytest.raises(ContractViolationError, match="it must act on the last axis"):
        first_integral_series(records, {"one": lambda p, q: 1.0})


def test_an_overflowing_integral_is_inf_without_a_warning():
    # Both records are finite; the second one's H overflows.
    sys, _ = models.make_kepler(0.6)
    records = Trajectory([0, 1], [[0, 1], [1e200, 1e200]], [[1, 0], [1e200, 1]])
    table = first_integral_series(records, {"H": sys.eval_H})
    assert table.column("H").tolist() == [-0.5, math.inf]
    assert table.column("H_drift")[1] == math.inf


def test_verlet_preserves_kepler_angular_momentum():
    sys, y0 = models.make_kepler(0.6)
    records = integrate(sys, "stormer-verlet", cfg(0.05), y0, 1000.0, record_every=100)
    table = first_integral_series(records, {"L": angular_momentum})
    assert max(abs(v) for v in table.column("L_drift")) <= 1e-12


def test_explicit_euler_energy_error_grows():
    sys, y0 = models.make_kepler(0.6)
    records = integrate(sys, "explicit-euler", cfg(1e-3), y0, 100.0, record_every=1000)
    table = first_integral_series(records, {"H": sys.eval_H})
    ts = table.column("t")
    errs = [abs(v) for v in table.column("H_rel_drift")]
    at = {t: e for t, e in zip(ts, errs)}
    assert at[100.0] >= 5.0 * at[10.0]


def test_halving_the_step_halves_long_time_energy_error():
    """First-order error constant visible in the t = 10^4 energy envelope."""
    sys, y0 = models.make_kepler(0.6)

    def max_rel_err(h):
        records = integrate(sys, "symplectic-euler-qp", cfg(h), y0, 1e4, record_every=200)
        h0 = sys.eval_H(y0.p, y0.q)
        return max(abs(sys.eval_H(p, q) - h0) / abs(h0) for p, q in zip(records.p, records.q))

    ratio = max_rel_err(0.025) / max_rel_err(0.0125)
    assert 1.6 <= ratio <= 2.4


def test_canonical_two_form_shape():
    j = symplectic.canonical_two_form(2)
    assert j.shape == (4, 4)
    assert np.array_equal(j, -j.T)
    assert np.array_equal(j @ j, -np.eye(4))
