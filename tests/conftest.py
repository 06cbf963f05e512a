"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import settings

from geomint import fdtools

# Property tests draw the same examples on every run (derandomize also turns
# off the example database) and have no per-example deadline; this profile
# is loaded by default.
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")


def gradient_max_relerr(sys, states, step=1e-6):
    """Worst relative mismatch between the analytic gradients of H, grad V(q)
    in q and inverse_masses * p in p, and centered differences.

    ``states`` is an iterable of PhaseState.  The denominator is the gradient
    norm at the state (or 1 when the gradient vanishes), so the result is
    comparable across models with very different scales.
    """
    worst = 0.0
    for y in states:
        for grad, fd in (
            (sys.grad_V(y.q), fdtools.central_jacobian(lambda q: [sys.eval_H(y.p, q)], y.q, step=step)[0]),
            (sys.inverse_masses * y.p,
             fdtools.central_jacobian(lambda p: [sys.eval_H(p, y.q)], y.p, step=step)[0]),
        ):
            scale = max(np.linalg.norm(fd), 1.0)
            worst = max(worst, np.linalg.norm(np.asarray(grad) - fd) / scale)
    return worst


def random_states(rng, dim, n, p_scale=1.0, q_offset=None, q_scale=1.0):
    from geomint.models import PhaseState

    states = []
    for _ in range(n):
        p = p_scale * rng.standard_normal(dim)
        q = q_scale * rng.standard_normal(dim)
        if q_offset is not None:
            q = q + q_offset
        states.append(PhaseState(p=p, q=q))
    return states


def kepler_test_states(rng, n):
    """Bound-ish planar two-body states away from the collision singularity."""
    from geomint.models import PhaseState

    states = []
    while len(states) < n:
        radius = 0.5 + rng.random()
        angle = 2 * np.pi * rng.random()
        q = radius * np.array([np.cos(angle), np.sin(angle)])
        p = 0.8 * rng.standard_normal(2)
        states.append(PhaseState(p=p, q=q))
    return states


def all_models_with_states(n_states=20):
    """Every model factory paired with sampling states in its working range."""
    from geomint import models

    rng = np.random.default_rng(2024)
    out = []
    harm = models.make_harmonic_oscillator()
    out.append(("harmonic", harm, random_states(rng, 1, n_states)))
    pend = models.make_pendulum()
    out.append(("pendulum", pend, random_states(rng, 1, n_states)))
    kep, _ = models.make_kepler(0.6)
    out.append(("kepler", kep, kepler_test_states(rng, n_states)))
    solar_sys, y0, _ = models.make_outer_solar_system()
    out.append(("solar", solar_sys,
                random_states(rng, 18, n_states, p_scale=1e-6, q_offset=y0.q, q_scale=0.05)))
    fpu, _ = models.make_fpu_chain(3, 50.0)
    out.append(("fpu", fpu, random_states(rng, fpu.dim, n_states, q_scale=0.3)))
    kg, _ = models.make_klein_gordon(8, 0.5, 0.1)
    out.append(("klein-gordon", kg, random_states(rng, kg.dim, n_states, q_scale=0.1)))
    return out
