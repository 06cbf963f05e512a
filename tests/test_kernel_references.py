"""Bit-for-bit pins of the step kernels and the model gradients.

The library's kernels and gradients are tuned for per-call overhead (0-d
step constants, no numpy wrappers, preallocated outputs).  Plain copies of
the straightforward code they replaced are kept here as references, with
Python-scalar broadcasts, ``np.sum``, a dict of trigonometric coefficients
and a concatenated spring-chain gradient; every result must match its
reference byte for byte, over states from 1e-5 to 1e5 and step sizes of
either sign, ±0.0 included.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomint import fdtools, lowrank, models, symplectic
from geomint.errors import GeomintError, SolverDivergenceError
from geomint.models import SeparableSystem
from geomint.models.kleingordon import collocation_basis
from geomint.models.solar import GRAVITATIONAL_CONSTANT
from geomint.oscillatory import FILTERS, TrigKernel, sinc
from geomint.symplectic import SOLVER_MAX_ITER, SOLVER_TOL, StepperConfig

# ---------------------------------------------------------------- references


def reference_central_jacobian(f, x, step):
    jac = None
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        column = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * step)
        if jac is None:
            jac = np.zeros((column.size, x.size))
        jac[:, i] = column
    return jac


def reference_fixed_point(map_fn, x0):
    x = x0
    residual = np.inf
    for iteration in range(1, SOLVER_MAX_ITER + 1):
        x_new = map_fn(x)
        if not np.all(np.isfinite(x_new)):
            raise SolverDivergenceError("non-finite", iterations=iteration, residual=float("inf"))
        residual = float(np.max(np.abs(x_new - x)))
        if residual <= SOLVER_TOL * (1.0 + float(np.max(np.abs(x_new)))):
            return x_new
        x = x_new
    raise SolverDivergenceError("no convergence", iterations=SOLVER_MAX_ITER, residual=residual)


def reference_newton(residual_fn, x0):
    x = x0.copy()
    residual = np.inf
    for iteration in range(1, SOLVER_MAX_ITER + 1):
        r = residual_fn(x)
        if not np.all(np.isfinite(r)):
            raise SolverDivergenceError("non-finite", iterations=iteration, residual=float("inf"))
        residual = float(np.max(np.abs(r)))
        if residual <= SOLVER_TOL * (1.0 + float(np.max(np.abs(x)))):
            return x
        jac = reference_central_jacobian(residual_fn, x, 1e-7)
        try:
            dx = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            raise SolverDivergenceError("singular", iterations=iteration, residual=residual) from None
        x = x - dx
    raise SolverDivergenceError("no convergence", iterations=SOLVER_MAX_ITER, residual=residual)


def reference_rk4(f, t0, span, y0, substeps):
    h = span / substeps
    t = t0
    y = y0
    for _ in range(substeps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def reference_explicit_euler(sys, cfg, h, p, q, g=None):
    return p - h * sys.grad_V(q), q + h * (sys.inverse_masses * p), None


def reference_symplectic_euler_pq(sys, cfg, h, p, q, g=None):
    p1 = p - h * sys.grad_V(q)
    return p1, q + h * (sys.inverse_masses * p1), None


def reference_symplectic_euler_qp(sys, cfg, h, p, q, g=None):
    q1 = q + h * (sys.inverse_masses * p)
    return p - h * sys.grad_V(q1), q1, None


def reference_implicit_euler(sys, cfg, h, p, q, g=None):
    minv = sys.inverse_masses
    if cfg.solver == "fixed-point":
        q1 = reference_fixed_point(lambda q1: q + h * (minv * (p - h * sys.grad_V(q1))), q)
    else:
        q1 = reference_newton(lambda q1: q1 - q - h * (minv * (p - h * sys.grad_V(q1))), q)
    return p - h * sys.grad_V(q1), q1, None


def reference_verlet(sys, cfg, h, p, q, g=None):
    if g is None:
        g = sys.grad_V(q)
    p_half = p - 0.5 * h * g
    q1 = q + h * (sys.inverse_masses * p_half)
    g1 = sys.grad_V(q1)
    return p_half - 0.5 * h * g1, q1, g1


REFERENCE_KERNELS = {
    "explicit-euler": reference_explicit_euler,
    "implicit-euler": reference_implicit_euler,
    "symplectic-euler-qp": reference_symplectic_euler_qp,
    "symplectic-euler-pq": reference_symplectic_euler_pq,
    "stormer-verlet": reference_verlet,
}


class ReferenceTrigKernel:
    def __init__(self, sys, filters):
        self.sys = sys
        self.filters = filters

    def _coefficients(self, h):
        xi = h * self.sys.omega
        sinc_xi = sinc(xi)
        psi = np.asarray(self.filters.psi(xi), dtype=float)
        return {
            "cos": np.cos(xi),
            "hsinc": h * sinc_xi,
            "wsin": self.sys.omega * np.sin(xi),
            "phi": np.asarray(self.filters.phi(xi), dtype=float),
            "psi": psi,
            "psi1": psi / sinc_xi,
            "psi0": np.cos(xi) * psi / sinc_xi,
        }

    def __call__(self, sys, cfg, h, p, q, g=None):
        c = self._coefficients(h)
        if g is None:
            g = -self.sys.grad_U(c["phi"] * q)
        q1 = c["cos"] * q + c["hsinc"] * p + 0.5 * h * h * (c["psi"] * g)
        g1 = -self.sys.grad_U(c["phi"] * q1)
        p1 = -c["wsin"] * q + c["cos"] * p + 0.5 * h * (c["psi0"] * g + c["psi1"] * g1)
        return p1, q1, g1


def reference_kepler_grad(q):
    r = math.sqrt(q.dot(q))
    return q / r**3


def reference_solar(masses):
    """(eval_V, grad_V) of the N-body potential."""
    n, g = masses.size, GRAVITATIONAL_CONSTANT
    mm = np.outer(masses, masses)
    diagonal = np.eye(n, dtype=bool)

    def eval_V(q):
        x = q.reshape(n, 3)
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        iu = np.triu_indices(n, k=1)
        return -g * float(np.sum(mm[iu] / dist[iu]))

    def grad_V(q):
        x = q.reshape(n, 3)
        diff = x[:, None, :] - x[None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        dist2[diagonal] = 1.0
        inv3 = dist2 ** (-1.5)
        inv3[diagonal] = 0.0
        w = g * mm * inv3
        return np.sum(w[:, :, None] * diff, axis=1).reshape(-1)

    return eval_V, grad_V


def reference_fpu_grad(q, m):
    x, y = q[:m], q[m:]
    d = np.empty(m + 1)
    d[0] = x[0] - y[0]
    d[1:m] = x[1:] - y[1:] - x[:-1] - y[:-1]
    d[m] = x[-1] + y[-1]
    c = d**3
    gx = c[:-1] - c[1:]
    gy = -(c[:-1] + c[1:])
    gx[m - 1] += 2.0 * c[m]
    gy[m - 1] += 2.0 * c[m]
    return np.concatenate([gx, gy])


def reference_klein_gordon_grad(q, K):
    _, basis = collocation_basis(K)
    u = basis @ q
    return -(basis.T @ (u * u)) / (2 * K + 1)


def reference_oscillatory_V(sys, q):
    """(V, grad V) of an OscillatorySystem: the harmonic part plus U."""
    return (0.5 * float((sys.omega * q) @ (sys.omega * q)) + float(sys.eval_U(q)),
            sys.omega**2 * q + sys.grad_U(q))


# ----------------------------------------------------------------- strategies

scales = st.integers(-5, 5).map(lambda e: 10.0**e)
seeds = st.integers(0, 2**32 - 1)
zero_shares = st.sampled_from([0.0, 0.5])  # share of entries set to +0.0 or -0.0
step_sizes = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-4.0, 2.0))
                       .map(lambda sign_exponent: sign_exponent[0] * 10.0**sign_exponent[1]))

KEPLER, _ = models.make_kepler(0.6)
SOLAR, SOLAR_Y0, SOLAR_DATA = models.make_outer_solar_system()
FPU, _ = models.make_fpu_chain(3, 50.0)
# Unequal masses that are not powers of two, where implicit Euler's
# fixed-point map contracts for |h| below about 0.5.
PENDULUMS = SeparableSystem(np.array([0.3, 1.7, 2.9]), lambda q: -float(np.sum(np.cos(q))), np.sin,
                            "pendulums")
SEPARABLE = {"kepler": KEPLER, "solar": SOLAR, "fpu": FPU, "pendulums": PENDULUMS}


def vector(rng, dim, scale, zero_share):
    """scale * N(0, 1) entries, a ``zero_share`` of them replaced by ±0.0."""
    x = scale * rng.standard_normal(dim)
    zero = rng.random(dim) < zero_share
    x[zero] = np.where(rng.random(dim) < 0.5, 0.0, -0.0)[zero]
    return x


def same_bytes(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """fn(*args), or the GeomintError it raised, with overflow and invalid
    operations of blown-up states left silent for both sides."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except GeomintError as exc:
            return exc


def assert_same_outcome(result, expected):
    if isinstance(expected, GeomintError):
        assert type(result) is type(expected)
        if isinstance(expected, SolverDivergenceError):
            assert (result.iterations, result.residual) == (expected.iterations, expected.residual)
        return
    assert not isinstance(result, Exception), result
    for got, want in zip(result, expected, strict=True):
        assert (got is None) == (want is None)
        if want is not None:
            assert same_bytes(got, want)


def drawn_state(name, seed, p_scale, q_scale, zero_share):
    sys = SEPARABLE[name]
    rng = np.random.default_rng(seed)
    p = vector(rng, sys.dim, p_scale, zero_share)
    q = vector(rng, sys.dim, q_scale, zero_share)
    if name == "solar":
        q = SOLAR_Y0.q + q  # bodies apart, some positions unperturbed
    return sys, p, q


def check_kernel(method, cfg, sys, h, p, q, carry):
    g = outcome(sys.grad_V, q) if carry else None
    expected = outcome(REFERENCE_KERNELS[method], sys, cfg, h, p, q, g)
    assert_same_outcome(outcome(symplectic.METHOD_IDS[method], sys, cfg, h, p, q, g), expected)


# -------------------------------------------------------------------- kernels


@given(method=st.sampled_from(sorted(set(symplectic.METHOD_IDS) - {"implicit-euler"})),
       name=st.sampled_from(sorted(SEPARABLE)), seed=seeds, p_scale=scales, q_scale=scales,
       zero_share=zero_shares, h=step_sizes, carry=st.booleans())
def test_explicit_kernels_match_their_references_bit_for_bit(method, name, seed, p_scale, q_scale, zero_share,
                                                             h, carry):
    sys, p, q = drawn_state(name, seed, p_scale, q_scale, zero_share)
    check_kernel(method, StepperConfig(h), sys, h, p, q, carry)


@given(solver=st.sampled_from(["fixed-point", "newton"]), name=st.sampled_from(sorted(SEPARABLE)), seed=seeds,
       p_scale=scales, q_scale=scales, zero_share=zero_shares, h=step_sizes)
def test_implicit_euler_matches_its_reference_bit_for_bit(solver, name, seed, p_scale, q_scale, zero_share, h):
    sys, p, q = drawn_state(name, seed, p_scale, q_scale, zero_share)
    check_kernel("implicit-euler", StepperConfig(h, solver=solver), sys, h, p, q, carry=False)


def test_kernels_keep_the_sign_of_a_zero_step():
    # -0.0 * 0.0 is -0.0, so p = -0.0 minus it is +0.0 at h = -0.0 and -0.0
    # at h = +0.0; the step constants for one must not serve the other.
    sys = models.make_harmonic_oscillator()
    p, q = np.array([-0.0]), np.array([0.0])
    for h in (0.0, -0.0, 0.0):
        for method, kernel in symplectic.METHOD_IDS.items():
            expected = REFERENCE_KERNELS[method](sys, StepperConfig(h), h, p, q)
            assert_same_outcome(kernel(sys, StepperConfig(h), h, p, q), expected)
    assert np.signbit(symplectic._explicit_euler(sys, None, 0.0, p, q)[0][0])
    assert not np.signbit(symplectic._explicit_euler(sys, None, -0.0, p, q)[0][0])


def test_cached_step_constants_are_read_only_0d_arrays():
    for h in (0.1, -0.1, 0.0, -0.0):
        constants = symplectic._step_constants(h, math.copysign(1.0, h))
        assert [c.shape for c in constants] == [(), ()]
        assert np.float64(constants[0]).tobytes() == np.float64(h).tobytes()
        assert np.float64(constants[1]).tobytes() == np.float64(0.5 * h).tobytes()
        for c in constants:
            assert not c.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                c[...] = 1.0


def _trig_systems():
    kg, _ = models.make_klein_gordon(6, 0.5, 0.1)
    return {"fpu": FPU, "klein-gordon": kg}


TRIG_SYSTEMS = _trig_systems()


@given(name=st.sampled_from(sorted(TRIG_SYSTEMS)), method=st.sampled_from(sorted(FILTERS)), seed=seeds,
       p_scale=scales, q_scale=scales, zero_share=zero_shares, h=step_sizes)
def test_trig_kernel_matches_its_reference_bit_for_bit(name, method, seed, p_scale, q_scale, zero_share, h):
    sys = TRIG_SYSTEMS[name]
    rng = np.random.default_rng(seed)
    p, q = vector(rng, sys.dim, p_scale, zero_share), vector(rng, sys.dim, q_scale, zero_share)
    filters, cfg = FILTERS[method](), StepperConfig(h)
    kernel, reference = TrigKernel(sys, filters), ReferenceTrigKernel(sys, filters)
    first = outcome(kernel, sys, cfg, h, p, q)
    expected = outcome(reference, sys, cfg, h, p, q)
    assert_same_outcome(first, expected)
    if isinstance(expected, GeomintError):
        return
    # The next step, carrying g1 and reading the cached coefficients; then
    # the same kernel at -h, whose zero step has its own entry.
    assert_same_outcome(outcome(kernel, sys, cfg, h, *first),
                        outcome(reference, sys, cfg, h, *expected))
    assert_same_outcome(outcome(kernel, sys, cfg, -h, p, q),
                        outcome(reference, sys, cfg, -h, p, q))


def test_trig_kernel_keeps_the_sign_of_a_zero_step():
    # At h = ±0.0, Omega^{-1} sin(h Omega) is ±0.0 and shows in the signs of
    # zero entries of q1; one kernel runs both signs, and each step must
    # match the reference at its own sign.
    kernel = TrigKernel(FPU, FILTERS["trig-impulse"]())
    p, q = np.full(FPU.dim, -0.0), np.full(FPU.dim, -0.0)
    steps = [kernel(FPU, None, h, p, q) for h in (0.0, -0.0)]
    for h, step in zip((0.0, -0.0), steps):
        assert_same_outcome(step, ReferenceTrigKernel(FPU, kernel.filters)(FPU, None, h, p, q))
    assert not same_bytes(steps[0][1], steps[1][1])


# ------------------------------------------------------------------ gradients


@given(seed=seeds, scale=scales, zero_share=zero_shares)
def test_model_gradients_match_their_references_bit_for_bit(seed, scale, zero_share):
    rng = np.random.default_rng(seed)
    q = scale * rng.standard_normal(2)
    assert same_bytes(KEPLER.grad_V(q), reference_kepler_grad(q))

    eval_V, grad_V = reference_solar(SOLAR_DATA.masses)
    q = SOLAR_Y0.q + vector(rng, SOLAR.dim, scale, zero_share)
    assert same_bytes(SOLAR.grad_V(q), grad_V(q))
    assert same_bytes(SOLAR.eval_V(q), eval_V(q))

    for m in (1, 2, 3, 5):
        fpu, _ = models.make_fpu_chain(m, 50.0)
        q = vector(rng, fpu.dim, scale, zero_share)
        assert same_bytes(fpu.grad_U(q), reference_fpu_grad(q, m))

    for K in (4, 9):
        kg, _ = models.make_klein_gordon(K, 0.5, 0.1)
        q = vector(rng, kg.dim, scale, zero_share)
        assert same_bytes(kg.grad_U(q), reference_klein_gordon_grad(q, K))


@given(seed=seeds, scale=scales, zero_share=zero_shares)
def test_oscillatory_potential_matches_its_reference_bit_for_bit(seed, scale, zero_share):
    rng = np.random.default_rng(seed)
    for sys in TRIG_SYSTEMS.values():
        q = vector(rng, sys.dim, scale, zero_share)
        value, grad = reference_oscillatory_V(sys, q)
        assert same_bytes(sys.eval_V(q), value)
        assert same_bytes(sys.grad_V(q), grad)


@given(seed=seeds, scale=scales, dim=st.integers(1, 8), step=st.sampled_from([1e-8, 1e-7, 3e-6, 1e-4]))
def test_central_jacobian_matches_its_reference_bit_for_bit(seed, scale, dim, step):
    rng = np.random.default_rng(seed)
    a, x = rng.standard_normal((dim + 1, dim)), scale * rng.standard_normal(dim)
    f = lambda x: np.sin(a @ x)  # noqa: E731
    assert same_bytes(fdtools.central_jacobian(f, x, step), reference_central_jacobian(f, x, step))


@given(seed=seeds, scale=scales, zero_share=zero_shares, shape=st.sampled_from([(1,), (7,), (6, 2), (40, 8)]),
       t0=st.floats(-10.0, 10.0), span=st.floats(-2.0, 2.0), substeps=st.integers(1, 10))
def test_lowrank_rk4_matches_its_reference_bit_for_bit(seed, scale, zero_share, shape, t0, span, substeps):
    # The low-rank subflows and the naive gauge contrast step with _rk4; the
    # field sees every stage time, so the times must match as well.
    rng = np.random.default_rng(seed)
    y0 = vector(rng, math.prod(shape), scale, zero_share).reshape(shape)
    a = rng.standard_normal(shape)

    def traced(times):
        def f(t, y):
            times.append(t)
            return math.cos(t) * a - y * np.tanh(y)
        return f

    times, reference_times = [], []
    y = lowrank._rk4(traced(times), t0, span, y0, substeps)
    assert same_bytes(y, reference_rk4(traced(reference_times), t0, span, y0, substeps))
    assert np.array(times).tobytes() == np.array(reference_times).tobytes()
