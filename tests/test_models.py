"""Model factories: Kepler, outer solar system, stiff spring chain, wave bar."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_models_with_states,
    gradient_max_relerr,
    kepler_test_states,
    random_states,
)
from geomint import models, oscillatory
from geomint.errors import ContractViolationError
from geomint.lowrank import rotating_flow
from geomint.models import PhaseState, Trajectory
from geomint.symplectic import first_integral_series


def rk4_separable(sys, y, h, n_steps, observe):
    """Reference integration used to probe exact-flow properties."""
    p, q = y.p.copy(), y.q.copy()

    def rhs(p, q):
        return -sys.grad_V(q), sys.inverse_masses * p

    out = []
    for _ in range(n_steps):
        k1p, k1q = rhs(p, q)
        k2p, k2q = rhs(p + h / 2 * k1p, q + h / 2 * k1q)
        k3p, k3q = rhs(p + h / 2 * k2p, q + h / 2 * k2q)
        k4p, k4q = rhs(p + h * k3p, q + h * k3q)
        p = p + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        q = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        out.append(observe(p, q))
    return out


# ------------------------------------------------------------------- Kepler


def test_kepler_initial_energy():
    sys, y0 = models.make_kepler(0.6)
    assert sys.eval_H(y0.p, y0.q) == pytest.approx(-0.5, abs=1e-14)


def test_kepler_initial_angular_momentum():
    _, y0 = models.make_kepler(0.6)
    assert models.angular_momentum_2d(y0) == pytest.approx(0.8, abs=1e-14)


@pytest.mark.parametrize("e", [-0.1, 1.0, 1.5])
def test_kepler_eccentricity_domain(e):
    with pytest.raises(ContractViolationError):
        models.make_kepler(e)


def test_kepler_circular_orbit():
    sys, y0 = models.make_kepler(0.0)
    assert sys.eval_H(y0.p, y0.q) == pytest.approx(-0.5, abs=1e-14)
    radii = rk4_separable(sys, y0, 1e-3, 1000, lambda p, q: np.linalg.norm(q))
    assert max(abs(r - 1.0) for r in radii) <= 1e-10


def test_kepler_exact_flow_conserves_energy_and_momentum():
    sys, y0 = models.make_kepler(0.6)
    h0 = sys.eval_H(y0.p, y0.q)
    l0 = models.angular_momentum_2d(y0)
    drift = rk4_separable(
        sys, y0, 1e-3, 10_000,
        lambda p, q: max(abs(sys.eval_H(p, q) - h0),
                         abs(models.angular_momentum_2d(PhaseState(p=p, q=q)) - l0)),
    )
    assert max(drift) <= 1e-10


# ----------------------------------------------------------------- solar system


@pytest.fixture(scope="module")
def solar():
    return models.make_outer_solar_system()


def test_solar_dimensions(solar):
    sys, y0, data = solar
    assert sys.dim == 18
    assert len(data.names) == 6
    assert data.names[0] == "Sun"
    assert data.masses.shape == (6,)


def test_solar_total_momentum_small(solar):
    # The source table gives the Sun zero initial velocity, so the total
    # momentum is the (small) planetary total rather than exactly zero.
    # The value below is the transcription's actual figure.
    _, y0, _ = solar
    total = y0.p.reshape(6, 3).sum(axis=0)
    assert np.linalg.norm(total) <= 6.76e-6


def test_solar_bound_system(solar):
    sys, y0, _ = solar
    assert sys.eval_H(y0.p, y0.q) < 0.0


def test_solar_gradient_consistency_at_initial_state(solar):
    sys, y0, _ = solar
    from geomint.fdtools import central_jacobian
    fd = central_jacobian(lambda q: [sys.eval_V(q)], y0.q, step=1e-6)[0]
    g = sys.grad_V(y0.q)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


def test_solar_heliocentric_distances(solar):
    # Transcription sanity: the five planets sit at recognizable orbital
    # radii (Pluto starts inside Neptune's orbit at this epoch).
    _, y0, data = solar
    d = models.heliocentric_distances(data, y0)
    lo = [4.5, 8.5, 17.0, 28.0, 28.0]
    hi = [6.0, 11.0, 21.0, 32.0, 41.0]
    assert np.all(d >= lo) and np.all(d <= hi)


def test_load_nbody_data_rejects_missing_file(tmp_path):
    with pytest.raises((ContractViolationError, OSError)):
        models.load_nbody_data(tmp_path / "nope.txt")


def test_load_nbody_data_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# header\nSun 1.0 0 0 0 0 0\n")  # one momentum short
    with pytest.raises(ContractViolationError):
        models.load_nbody_data(bad)


# --------------------------------------------------------- stiff spring chain


def test_fpu_zero_state_is_equilibrium():
    sys, _ = models.make_fpu_chain(3, 50.0)
    zero = np.zeros(sys.dim)
    assert sys.eval_U(zero) == 0.0
    assert np.all(sys.grad_U(zero) == 0.0)


def test_fpu_initial_energies():
    sys, y0 = models.make_fpu_chain(3, 50.0)
    eb = models.oscillatory_energies(sys, y0)
    # First stiff spring carries unit energy: E_1 = (1 + (omega*y_1)^2)/2 = 1.
    assert eb.mode_energies[1] == pytest.approx(1.0, abs=1e-12)
    assert eb.h_omega == pytest.approx(1.0, abs=1e-12)
    assert eb.h_total == pytest.approx(eb.h_omega + eb.h_slow, abs=1e-12)


def test_fpu_parameter_domain():
    with pytest.raises(ContractViolationError):
        models.make_fpu_chain(0, 50.0)
    with pytest.raises(ContractViolationError):
        models.make_fpu_chain(3, 5.0)


# ----------------------------------------------------------------- wave bar


def test_klein_gordon_frequencies():
    sys, _ = models.make_klein_gordon(8, 0.5, 0.1)
    assert sys.frequencies[0] == pytest.approx(np.sqrt(0.5), abs=1e-14)
    assert sys.frequencies[1] == pytest.approx(np.sqrt(1.5), abs=1e-14)
    assert sys.frequencies[8] == pytest.approx(np.sqrt(64.5), abs=1e-14)
    assert sys.dim == 17  # 2K+1 real coefficients


def test_klein_gordon_initial_excitation():
    _, y0 = models.make_klein_gordon(8, 0.5, 0.1)
    sys, _ = models.make_klein_gordon(8, 0.5, 0.1)
    eb = models.oscillatory_energies(sys, y0)
    nonzero = np.flatnonzero(eb.mode_energies > 1e-15)
    assert list(nonzero) == [1]
    assert eb.mode_energies[1] == pytest.approx(0.01, rel=1e-10)


def test_klein_gordon_zero_amplitude_is_equilibrium():
    sys, y0 = models.make_klein_gordon(8, 0.5, 0.0)
    assert np.all(y0.p == 0.0) and np.all(y0.q == 0.0)
    assert np.all(sys.grad_V(y0.q) == 0.0)


def test_klein_gordon_parameter_domain():
    for args in ((3, 0.5, 0.1), (8, 0.0, 0.1), (8, 0.5, 0.6), (8, 0.5, 0.0)):
        if args == (8, 0.5, 0.0):
            continue  # zero amplitude is allowed
        with pytest.raises(ContractViolationError):
            models.make_klein_gordon(*args)


def test_squaring_cosine_fills_modes_zero_and_two():
    """The pseudospectral nonlinearity of cos(x) lands only in modes 0, +-2."""
    k = 8
    points, basis = models.collocation_basis(k)
    u = np.cos(points)
    coeffs = np.linalg.solve(basis, u ** 2)
    hot = np.flatnonzero(np.abs(coeffs) > 1e-12)
    # Real layout: index 0 is the constant mode, then pairs for |j| = 1, 2, ...
    allowed = {0, 3, 4}
    assert set(hot.tolist()) <= allowed
    assert abs(coeffs[0]) > 0.1


# ------------------------------------------------------------ energies & misc


def test_oscillatory_energies_zero_state():
    sys, _ = models.make_fpu_chain(3, 50.0)
    eb = models.oscillatory_energies(sys, PhaseState(p=np.zeros(sys.dim), q=np.zeros(sys.dim)))
    assert np.all(eb.mode_energies == 0.0)
    assert eb.h_omega == 0.0 and eb.h_total == 0.0


def test_oscillatory_energies_single_excited_block():
    sys, _ = models.make_fpu_chain(2, 40.0)
    p = np.zeros(sys.dim)
    q = np.zeros(sys.dim)
    # Excite the first fast coordinate with (p, q) = (1, 1/omega).
    idx = int(sys.block_dims[0])
    p[idx] = 1.0
    q[idx] = 1.0 / 40.0
    eb = models.oscillatory_energies(sys, PhaseState(p=p, q=q))
    assert eb.mode_energies[1] == pytest.approx(1.0, abs=1e-13)


def test_oscillatory_energies_match_hamiltonian():
    sys, _ = models.make_fpu_chain(3, 50.0)
    rng = np.random.default_rng(0)
    for y in random_states(rng, sys.dim, 5):
        eb = models.oscillatory_energies(sys, y)
        assert eb.h_total == pytest.approx(sys.eval_H(y.p, y.q), abs=1e-12)


def test_oscillatory_energies_dimension_mismatch():
    sys, _ = models.make_fpu_chain(3, 50.0)
    with pytest.raises(ContractViolationError):
        models.oscillatory_energies(sys, PhaseState(p=np.zeros(2), q=np.zeros(2)))


def test_strip_coupling_removes_potential():
    sys, _ = models.make_fpu_chain(3, 50.0)
    lin = models.strip_coupling(sys)
    q = np.random.default_rng(1).standard_normal(sys.dim)
    assert lin.eval_U(q) == 0.0
    assert np.all(lin.grad_U(q) == 0.0)
    assert np.array_equal(lin.eval_U(np.ones((4, sys.dim))), np.zeros(4))
    assert np.array_equal(lin.frequencies, sys.frequencies)


def test_pendulum_and_harmonic_have_expected_energies():
    harm = models.make_harmonic_oscillator()
    y = PhaseState(p=np.array([1.0]), q=np.array([0.0]))
    assert harm.eval_H(y.p, y.q) == pytest.approx(0.5, abs=1e-15)
    pend = models.make_pendulum()
    rest = PhaseState(p=np.array([0.0]), q=np.array([0.0]))
    assert pend.eval_H(rest.p, rest.q) == pytest.approx(-1.0, abs=1e-15)


# Every model builder, one system each.
_SYSTEMS = {
    "harmonic": models.make_harmonic_oscillator(),
    "pendulum": models.make_pendulum(),
    "kepler": models.make_kepler(0.6)[0],
    "solar": models.make_outer_solar_system()[0],
    "fpu": models.make_fpu_chain(3, 50.0)[0],
    "klein-gordon": models.make_klein_gordon(4, 0.5, 0.1)[0],
}


def _by_row(energy, *stacks):
    """``energy`` of each row alone, as one array."""
    return np.array([energy(*rows) for rows in zip(*stacks)])


@given(name=st.sampled_from(sorted(_SYSTEMS)), n=st.integers(2, 30), scale=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1), strided=st.booleans())
def test_stacked_energies_equal_their_rows_bit_for_bit(name, n, scale, seed, strided):
    sys = _SYSTEMS[name]
    # C-ordered (n, d) stacks, or row-strided views: every other row of
    # stacks twice as tall.
    p, q = scale * np.random.default_rng(seed).standard_normal((2, 2 * n if strided else n, sys.dim))
    if strided:
        p, q = p[::2], q[::2]
    for rows in (1, n):  # shapes (1, d) and (n, d)
        ps, qs = p[:rows], q[:rows]
        v, h = sys.eval_V(qs), sys.eval_H(ps, qs)
        assert v.shape == h.shape == (rows,)
        assert v.tobytes() == _by_row(sys.eval_V, qs).tobytes()
        assert h.tobytes() == _by_row(sys.eval_H, ps, qs).tobytes()
    # A trajectory stores its states C-ordered, so a Fortran-ordered stack
    # gives the same table.
    t = np.arange(n, dtype=float)
    series = lambda p, q: first_integral_series(Trajectory(t, p, q), {"H": sys.eval_H}).rows
    assert series(np.asfortranarray(p), np.asfortranarray(q)).tobytes() == series(p, q).tobytes()


@pytest.mark.parametrize("inverse_masses", [np.eye(2), [], [1.0, 0.0], [1.0, -1.0], [1.0, np.nan],
                                            [1.0, np.inf]],
                         ids=["matrix", "empty", "zero", "negative", "nan", "inf"])
def test_inverse_masses_must_be_a_positive_finite_vector(inverse_masses):
    with pytest.raises(ContractViolationError, match="inverse_masses"):
        models.SeparableSystem(inverse_masses, lambda q: 0.0, lambda q: np.zeros_like(q))


# ------------------------------------------------------- gradient consistency


@pytest.mark.parametrize("name,sys,states", all_models_with_states(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_gradients_match_finite_differences(name, sys, states):
    assert gradient_max_relerr(sys, states) <= 1e-5


# ------------------------------------------------- argument types, library-wide

# One argument of a builder per entry: the others keep valid values.
_BUILDERS = {
    "make_kepler(eccentricity)": lambda v: models.make_kepler(v),
    "make_fpu_chain(m)": lambda v: models.make_fpu_chain(v, 50.0),
    "make_fpu_chain(omega)": lambda v: models.make_fpu_chain(3, v),
    "make_klein_gordon(K)": lambda v: models.make_klein_gordon(v, 0.5, 0.1),
    "make_klein_gordon(rho)": lambda v: models.make_klein_gordon(4, v, 0.1),
    "make_klein_gordon(eps)": lambda v: models.make_klein_gordon(4, 0.5, v),
    "resonance_report(h)": lambda v: oscillatory.resonance_report(
        models.make_fpu_chain(3, 50.0)[0], v),
    "rotating_flow(m)": lambda v: rotating_flow([1.0, 0.5], m=v, n=3),
    "rotating_flow(n)": lambda v: rotating_flow([1.0, 0.5], m=3, n=v),
}
# The valid values among those tried: None is rotating_flow's default size
# (the number of diagonal values), and 2.5 is a valid rho and step size.
_VALID = {("rotating_flow(m)", None), ("rotating_flow(n)", None),
          ("make_klein_gordon(rho)", 2.5), ("resonance_report(h)", 2.5)}


@pytest.mark.parametrize("value", ["3", None, 2.5, 1j], ids=["str", "none", "2.5", "complex"])
@pytest.mark.parametrize("entry", sorted(_BUILDERS))
def test_builders_refuse_what_the_cli_refuses(entry, value):
    # The CLI converts its parameters before they reach a builder; a
    # library caller gets the same refusal, not a silent float() or int().
    if (entry, value) in _VALID:
        _BUILDERS[entry](value)
    else:
        with pytest.raises(ContractViolationError):
            _BUILDERS[entry](value)


@pytest.mark.parametrize("entry", ["make_kepler(eccentricity)", "make_fpu_chain(omega)",
                                   "make_klein_gordon(rho)", "make_klein_gordon(eps)",
                                   "resonance_report(h)"])
def test_an_int_beyond_the_float_range_is_refused(entry):
    # float(10**400) raises OverflowError: a refusal, not that error, escapes.
    with pytest.raises(ContractViolationError, match="must be a real"):
        _BUILDERS[entry](10**400)
