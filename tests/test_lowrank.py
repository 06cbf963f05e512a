"""Rank-constrained matrix integration: factors, projection, splitting step."""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomint import lowrank
from geomint.errors import ContractViolationError, SolverDivergenceError
from geomint.harness import experiments
from geomint.lowrank import (
    LowRankFactors,
    MatrixFlow,
    factorize,
    integrate_lowrank,
    integrate_naive_gauge,
    ksl_step,
    naive_gauge_rhs,
    rotating_flow,
    strang_step,
    tangent_project,
    to_full,
)


def rank_one_2x2():
    return LowRankFactors(
        u=np.array([[1.0], [0.0]]),
        s=np.array([[2.0]]),
        v=np.array([[1.0], [0.0]]),
    )


def forced_flow(seed=5, m=6, n=5):
    """A full-rank forcing that is genuinely outside the tangent space."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, n))
    c /= np.linalg.norm(c)
    d = rng.standard_normal((m, n))
    return MatrixFlow(shape=(m, n), eval_F=lambda t, y: c + np.cos(t) * d)


# -------------------------------------------------------------------- factors


def test_to_full_rank_one():
    assert np.array_equal(to_full(rank_one_2x2()), [[2.0, 0.0], [0.0, 0.0]])


def test_zero_core_gives_zero_matrix():
    y = rank_one_2x2()
    y = LowRankFactors(u=y.u, s=np.array([[0.0]]), v=y.v)
    assert np.all(to_full(y) == 0.0)


def test_factorize_round_trip_preserves_spectrum():
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    s = np.diag([3.0, 1.0, 0.2]) + 0.05 * rng.standard_normal((3, 3))
    y = LowRankFactors(u=u, s=s, v=v)
    again = factorize(to_full(y), 3)
    ours = np.linalg.svd(s, compute_uv=False)
    theirs = np.linalg.svd(again.s, compute_uv=False)
    assert np.max(np.abs(ours - theirs)) <= 1e-12


def test_factor_validation():
    with pytest.raises(ContractViolationError):
        LowRankFactors(u=np.eye(3)[:, :2], s=np.eye(3), v=np.eye(3)[:, :2])
    skew = np.eye(3)[:, :2]
    skew[0, 1] = 0.5  # not orthonormal
    with pytest.raises(ContractViolationError):
        LowRankFactors(u=skew, s=np.eye(2), v=np.eye(3)[:, :2])


@settings(max_examples=60)
@given(m=st.integers(1, 40), r=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.0, 1e-6))
def test_orthonormality_defect_is_the_frobenius_norm_bit_for_bit(m, r, seed, scale):
    r = min(r, m)
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rng.standard_normal((m, r)))[0] + scale * rng.standard_normal((m, r))
    ours = lowrank._orthonormality_defect(w)
    reference = np.linalg.norm(w.T @ w - np.eye(r))
    assert np.float64(ours).tobytes() == reference.tobytes()


def test_an_overflowing_gram_matrix_is_refused_without_a_warning(monkeypatch):
    u = np.array([[1e160, 1e160], [1e160, -1e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="u columns are not orthonormal"):
            LowRankFactors(u=u, s=np.eye(2), v=np.eye(2))
    # A nan defect, as a Gram entry of inf - inf can give, is refused too.
    monkeypatch.setattr(lowrank, "_orthonormality_defect", lambda w: float("nan"))
    with pytest.raises(ContractViolationError, match=r"\(defect nan\)"):
        LowRankFactors(u=np.eye(2), s=np.eye(2), v=np.eye(2))


_Q = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 2)))[0]
_SKEW = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
_HUGE = np.array([[1e160, 1e160], [1e160, -1e160]])  # finite, with an overflowing Gram matrix


@pytest.mark.parametrize("factors, message", [
    ({"u": np.where(np.eye(5, 2) == 1.0, np.nan, _Q)}, "u contains non-finite entries"),
    ({"s": np.array([[1.0, np.inf], [0.0, 1.0]])}, "s contains non-finite entries"),
    ({"v": -np.inf * _Q}, "v contains non-finite entries"),
    ({"u": _Q[:, 0]}, "u must be 2-dimensional, got shape (5,)"),
    ({"s": np.ones((2, 2, 1))}, "s must be 2-dimensional, got shape (2, 2, 1)"),
    ({"s": np.eye(3)}, "inconsistent factor shapes u(5, 2), s(3, 3), v(5, 2)"),
    ({"v": np.eye(3)}, "inconsistent factor shapes u(5, 2), s(2, 2), v(3, 3)"),
    ({"u": _SKEW}, "u columns are not orthonormal (defect 7.500e-01)"),
    ({"v": _SKEW}, "v columns are not orthonormal (defect 7.500e-01)"),
    ({"u": _HUGE}, "u columns are not orthonormal (defect inf)"),
    ({"v": _HUGE}, "v columns are not orthonormal (defect inf)"),
    ({"u": _HUGE, "v": _HUGE}, "u columns are not orthonormal (defect inf)"),
    ({"v": np.array([[1e200, 0.0], [0.0, 1.0]])}, "v columns are not orthonormal (defect inf)"),
])
def test_factor_refusals_keep_their_order_and_messages(factors, message):
    # The suite turns RuntimeWarnings into errors, so an overflow that
    # warned would fail here instead of being refused.
    with pytest.raises(ContractViolationError) as info:
        LowRankFactors(**{"u": _Q, "s": np.eye(2), "v": _Q, **factors})
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["u", "v"])
def test_a_defect_just_above_the_tolerance_is_refused_with_its_value(name):
    # c * Q has W^T W - I = (c^2 - 1) I, a defect of (c^2 - 1) * sqrt(r).
    q = np.linalg.qr(np.random.default_rng(4).standard_normal((7, 3)))[0]
    just_above = q * np.sqrt(1.0 + 1.01 * lowrank._ORTHO_TOL / np.sqrt(3.0))
    just_below = q * np.sqrt(1.0 + 0.99 * lowrank._ORTHO_TOL / np.sqrt(3.0))
    defect = np.linalg.norm(just_above.T @ just_above - np.eye(3))
    assert defect > lowrank._ORTHO_TOL
    factors = {"u": q, "s": np.eye(3), "v": q}
    LowRankFactors(**{**factors, name: just_below})
    with pytest.raises(ContractViolationError) as info:
        LowRankFactors(**{**factors, name: just_above})
    assert str(info.value) == f"{name} columns are not orthonormal (defect {defect:.3e})"


# ------------------------------------------------------------------ tangent


def test_projection_fixes_the_point_itself():
    rng = np.random.default_rng(2)
    y = factorize(rng.standard_normal((6, 5)), 3)
    z = to_full(y)
    assert np.linalg.norm(tangent_project(y, z) - z) <= 1e-13


def test_projection_annihilates_orthogonal_complement():
    y = rank_one_2x2()
    z = np.array([[0.0, 0.0], [0.0, 3.0]])
    assert np.linalg.norm(tangent_project(y, z)) <= 1e-14


def test_projection_is_idempotent_and_self_adjoint():
    rng = np.random.default_rng(3)
    y = factorize(rng.standard_normal((7, 4)), 2)
    z1 = rng.standard_normal((7, 4))
    z2 = rng.standard_normal((7, 4))
    pz1 = tangent_project(y, z1)
    assert np.linalg.norm(tangent_project(y, pz1) - pz1) <= 1e-12
    lhs = np.sum(pz1 * z2)
    rhs = np.sum(z1 * tangent_project(y, z2))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_projection_dimension_mismatch():
    with pytest.raises(ContractViolationError):
        tangent_project(rank_one_2x2(), np.zeros((3, 3)))


def test_projection_of_a_non_matrix_is_a_contract_violation():
    with pytest.raises(ContractViolationError, match="z does not convert"):
        tangent_project(rank_one_2x2(), "x")


# ------------------------------------------------------------- splitting step


def test_zero_field_keeps_the_matrix():
    rng = np.random.default_rng(4)
    y = factorize(rng.standard_normal((5, 4)), 2)
    flow = MatrixFlow(shape=(5, 4), eval_F=lambda t, z: np.zeros((5, 4)))
    for stepper in (ksl_step, strang_step):
        out = stepper(flow, y, 0.0, 0.5)
        assert np.linalg.norm(to_full(out) - to_full(y)) <= 1e-13


def test_linear_growth_of_a_rank_one_family_is_exact():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(3)
    b /= np.linalg.norm(b)
    flow = MatrixFlow(
        shape=(4, 3),
        eval_F=lambda t, z: np.outer(a, b),
        exact_A=lambda t: (1.0 + t) * np.outer(a, b),
    )
    y0 = factorize(np.outer(a, b), 1)
    for stepper in (ksl_step, strang_step):
        out = stepper(flow, y0, 0.0, 0.5)
        assert np.linalg.norm(to_full(out) - 1.5 * np.outer(a, b)) <= 1e-12


def test_zero_step_returns_a_copy():
    y = rank_one_2x2()
    out = ksl_step(forced_flow(m=2, n=2), y, 0.0, 0.0)
    assert np.array_equal(to_full(out), to_full(y))
    assert out.u is not y.u


def test_factors_stay_orthonormal_after_stepping():
    flow = forced_flow()
    y = factorize(np.random.default_rng(9).standard_normal((6, 5)), 2)
    for _ in range(25):
        y = ksl_step(flow, y, 0.0, 0.1)
    r = y.rank
    assert np.linalg.norm(y.u.T @ y.u - np.eye(r)) <= 1e-12
    assert np.linalg.norm(y.v.T @ y.v - np.eye(r)) <= 1e-12


def test_zero_field_keeps_a_singular_core():
    # S = diag(1, 0): the K and L substeps see an exactly zero column,
    # which the thin QR completes to an orthonormal basis.
    y = LowRankFactors(u=np.eye(3)[:, :2], s=np.diag([1.0, 0.0]), v=np.eye(3)[:, :2])
    flow = MatrixFlow(shape=(3, 3), eval_F=lambda t, z: np.zeros((3, 3)))
    for stepper in (ksl_step, strang_step):
        assert np.array_equal(to_full(stepper(flow, y, 0.0, 0.1)), to_full(y))


@pytest.mark.parametrize("method", sorted(lowrank._STEPPERS))
@pytest.mark.parametrize("y_dependent", [True, False])
def test_over_approximated_ranks_stay_exact(method, y_dependent):
    # The splitting is exact on families of rank at most r (Lubich &
    # Oseledets, BIT 2014), including a rank-r start of a lower-rank matrix.
    for diag in ([1.0], [1.0, 0.5], [1.0, 0.5, 0.25]):
        flow = rotating_flow(diag, m=12, n=10, seed=3, y_dependent=y_dependent)
        for r in range(max(2, len(diag)), 7):
            y0 = factorize(flow.exact_A(0.0), r)
            run = integrate_lowrank(flow, y0, 0.0, 1.0, 0.05, method=method)
            assert run.t.size == 21
            assert run.error.max() <= 1e-10, (diag, r)


def test_step_argument_validation():
    flow = forced_flow()
    y = factorize(np.random.default_rng(0).standard_normal((6, 5)), 2)
    with pytest.raises(ContractViolationError):
        ksl_step(flow, y, 0.0, 0.1, substeps=0)
    with pytest.raises(ContractViolationError):
        ksl_step(forced_flow(m=4, n=4), y, 0.0, 0.1)


@pytest.mark.parametrize("substeps", [1.5, 2.0, "2", None])
@pytest.mark.parametrize("y_dependent", [True, False])
def test_non_integral_substeps_are_a_contract_violation(substeps, y_dependent):
    # y_dependent=False takes the increment path, True the RK4 path.
    flow = rotating_flow([1.0, 0.5], m=6, n=5, seed=3, y_dependent=y_dependent)
    y = factorize(flow.exact_A(0.0), 2)
    runs = (lambda: ksl_step(flow, y, 0.0, 0.1, substeps=substeps),
            lambda: strang_step(flow, y, 0.0, 0.1, substeps=substeps),
            lambda: integrate_lowrank(flow, y, 0.0, 0.2, 0.1, substeps=substeps),
            lambda: integrate_lowrank(flow, y, 0.0, 0.0, 0.1, substeps=substeps))
    for run in runs:
        with pytest.raises(ContractViolationError, match="substeps must be an integer >= 1"):
            run()
    # An integer of numpy's own type is an integer.
    assert ksl_step(flow, y, 0.0, 0.1, substeps=np.int64(2)).rank == 2


def test_step_halving_shows_first_and_second_order():
    flow = forced_flow()
    y0 = factorize(np.random.default_rng(5).standard_normal((6, 5)), 2)

    def final(method, h):
        run = integrate_lowrank(flow, y0, 0.0, 1.0, h, method=method,
                                substeps=40, record_every=10**9)
        return to_full(run.factors)

    for method, lo, hi in (("ksl", 1.7, 2.3), ("ksl-strang", 3.4, 4.8)):
        ref = final(method, 1.0 / 1024)
        errs = [np.linalg.norm(final(method, h) - ref) for h in (0.25, 0.125, 0.0625)]
        for coarse, finer in zip(errs, errs[1:]):
            assert lo <= coarse / finer <= hi


def test_strang_step_is_time_symmetric():
    flow = forced_flow()
    y0 = factorize(np.random.default_rng(6).standard_normal((6, 5)), 2)
    fwd = strang_step(flow, y0, 0.0, 0.1, substeps=20)
    back = strang_step(flow, fwd, 0.1, -0.1, substeps=20)
    assert np.linalg.norm(to_full(back) - to_full(y0)) <= 1e-12
    # The one-sided sweep is not symmetric; same experiment shows a gap.
    fwd_l = ksl_step(flow, y0, 0.0, 0.1, substeps=20)
    back_l = ksl_step(flow, fwd_l, 0.1, -0.1, substeps=20)
    assert np.linalg.norm(to_full(back_l) - to_full(y0)) > 1e-3


def test_no_core_inversion_on_the_splitting_path(monkeypatch):
    """The splitting step must run even if matrix inversion is unavailable."""

    def poisoned(*args, **kwargs):
        raise AssertionError("core inversion attempted")

    monkeypatch.setattr(np.linalg, "solve", poisoned)
    monkeypatch.setattr(np.linalg, "inv", poisoned)
    flow = forced_flow()
    y = factorize(np.random.default_rng(3).standard_normal((6, 5)), 2)
    ksl_step(flow, y, 0.0, 0.1)
    strang_step(flow, y, 0.0, 0.1)
    # The gauge-ODE right-hand side, by contrast, cannot avoid it.
    with pytest.raises(AssertionError):
        naive_gauge_rhs(flow, 0.0, y.u, y.s, y.v)


# ------------------------------------------------------------------ integrate


def test_exact_family_stays_exact_at_every_record():
    flow = rotating_flow([1.0, 0.5, 0.25], m=6, n=5, seed=1, y_dependent=False)
    y0 = factorize(flow.exact_A(0.0), 3)
    run = integrate_lowrank(flow, y0, 0.0, 1.0, 0.05)
    assert run.t.size == 21
    assert np.all(run.error <= 1e-10)


def test_zero_length_run_records_initial_state():
    flow = forced_flow()
    y0 = factorize(np.random.default_rng(2).standard_normal((6, 5)), 2)
    run = integrate_lowrank(flow, y0, 3.0, 3.0, 0.1)
    assert run.t.tolist() == [3.0]
    assert run.factors is y0
    # The flow has no exact_A: no error is measured.
    assert np.isnan(run.error).all() and np.isnan(run.best_error).all()


def test_full_rank_run_matches_dense_reference():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((5, 5))
    w = w - w.T
    a0 = rng.standard_normal((5, 5))
    flow = MatrixFlow(shape=(5, 5), eval_F=lambda t, z: w @ z)
    y0 = factorize(a0, 5)
    run = integrate_lowrank(flow, y0, 0.0, 1.0, 0.1, substeps=20, record_every=10**9)
    ours = to_full(run.factors)

    dense = a0.copy()
    n_sub = 200
    hh = 1.0 / n_sub
    t = 0.0
    for _ in range(n_sub):
        k1 = w @ dense
        k2 = w @ (dense + hh / 2 * k1)
        k3 = w @ (dense + hh / 2 * k2)
        k4 = w @ (dense + hh * k3)
        dense = dense + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += hh
    assert np.linalg.norm(ours - dense) <= 1e-8


def test_overflow_is_a_divergence_with_partial_records():
    y0 = factorize(np.random.default_rng(2).standard_normal((6, 5)), 2)
    flow = MatrixFlow(shape=(6, 5), eval_F=lambda t, y: 1e200 * y)
    with np.errstate(all="ignore"), pytest.raises(SolverDivergenceError) as info:
        integrate_lowrank(flow, y0, 0.0, 1.0, 0.1, substeps=1)
    assert type(info.value) is SolverDivergenceError
    assert info.value.step_index == 1
    assert info.value.records.t.size == 1


@settings(max_examples=30)
@given(t0=st.floats(-5.0, 5.0), h=st.floats(0.01, 0.2), n_steps=st.integers(0, 12),
       record_every=st.integers(1, 5), method=st.sampled_from(sorted(lowrank._STEPPERS)),
       blow_up=st.integers(1, 12))
def test_run_columns_are_a_plain_loop_of_the_steppers(t0, h, n_steps, record_every, method,
                                                      blow_up):
    flow = rotating_flow([1.0, 0.5, 0.25], m=6, n=5, seed=7, y_dependent=False, speed=3.0)
    y0 = factorize(flow.exact_A(t0), 2)
    t_end = t0 + n_steps * h
    # The loop the run replaces: every step, and a record after every
    # record_every-th one and the last.
    states, steps, times, errors = [y0], [0], [t0], [np.linalg.norm(to_full(y0) - flow.exact_A(t0))]
    for k in range(1, n_steps + 1):
        states.append(lowrank._STEPPERS[method](flow, states[-1], t0 + (k - 1) * h, h))
        if k % record_every == 0 or k == n_steps:
            t = t0 + k * h
            steps.append(k)
            times.append(t)
            errors.append(np.linalg.norm(to_full(states[-1]) - flow.exact_A(t)))
    run = integrate_lowrank(flow, y0, t0, t_end, h, method=method, record_every=record_every)
    assert run.t.tobytes() == np.array(times).tobytes()
    assert run.error.tobytes() == np.array(errors).tobytes()
    assert run.best_error.tolist() == [0.25] * len(times)
    assert np.array_equal(to_full(run.factors), to_full(states[-1]))
    if blow_up > n_steps:
        return
    # From step blow_up on, the increment is nan, as rotating_flow's is once
    # a phase t * theta overflows.
    start = t0 + (blow_up - 1.25) * h  # between Strang's half steps of steps blow_up - 1 and blow_up
    increment = lambda t, span: flow.increment(t, span) if t < start else np.full(flow.shape, np.nan)
    with pytest.raises(SolverDivergenceError) as info:
        integrate_lowrank(replace(flow, increment=increment), y0, t0, t_end, h, method=method,
                          record_every=record_every)
    assert info.value.step_index == blow_up
    prefix = info.value.records
    rows = sum(k < blow_up for k in steps)
    assert prefix.t.tobytes() == run.t[:rows].tobytes()
    assert prefix.error.tobytes() == run.error[:rows].tobytes()
    assert prefix.best_error.tobytes() == run.best_error[:rows].tobytes()
    assert np.array_equal(to_full(prefix.factors), to_full(states[blow_up - 1]))


@pytest.mark.parametrize("increment", [True, False])
@pytest.mark.parametrize("substep", ["K", "L"])
def test_finite_entries_with_an_overflowing_column_norm_are_a_divergence(substep, increment):
    # V0 spans the first two coordinates, so F V0 is exactly zero for the
    # L case's field: there K and S stay put and only L blows up.  Either
    # substep's result has finite entries of about 1e160 in one column,
    # whose 2-norm overflows.
    u0 = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 2)))[0]
    y0 = LowRankFactors(u=u0, s=np.diag([2.0, 1.0]), v=np.eye(5)[:, :2])
    if substep == "K":
        f = np.outer(np.random.default_rng(8).standard_normal(6), np.eye(5)[0])
    else:
        f = np.outer(u0[:, 0], np.eye(5)[4])
    f *= 1e161 / np.abs(f).max()
    flow = MatrixFlow(shape=(6, 5), eval_F=lambda t, y: f,
                      increment=(lambda t, span: span * f) if increment else None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverDivergenceError, match=f"{substep} substep overflowed") as info:
            integrate_lowrank(flow, y0, 0.0, 1.0, 0.1, substeps=1)
    assert type(info.value) is SolverDivergenceError
    assert info.value.step_index == 1
    assert info.value.records.t.size == 1


def test_integrate_validations():
    flow = forced_flow()
    y0 = factorize(np.random.default_rng(2).standard_normal((6, 5)), 2)
    with pytest.raises(ContractViolationError):
        integrate_lowrank(flow, y0, 0.0, 1.0, 0.1, method="euler")
    with pytest.raises(ContractViolationError):
        integrate_lowrank(flow, y0, 0.0, 1.0, -0.1)
    with pytest.raises(ContractViolationError):
        integrate_lowrank(flow, y0, 1.0, 0.0, 0.1)
    with pytest.raises(ContractViolationError):
        integrate_lowrank(flow, y0, 0.0, 1.0, 0.1, record_every=0)
    with pytest.raises(ContractViolationError):
        integrate_lowrank(flow, y0, 0.0, 1.0, 10.0)


@pytest.mark.parametrize("record_every", [1.5, 2.9, "2", None])
def test_record_every_that_is_not_an_integer_is_refused(record_every):
    flow = forced_flow()
    y0 = factorize(np.random.default_rng(2).standard_normal((6, 5)), 2)
    with pytest.raises(ContractViolationError, match="record_every must be an integer >= 1"):
        integrate_lowrank(flow, y0, 0.0, 1.0, 0.1, record_every=record_every)
    run = integrate_lowrank(flow, y0, 0.0, 1.0, 0.1, record_every=np.int64(2))
    assert run.t == pytest.approx([0.2 * k for k in range(6)])


# ------------------------------------------------------------- rotating flow


@st.composite
def rotating_flow_args(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(n, 12))
    rank = draw(st.integers(1, n))
    diag = draw(st.lists(
        st.floats(-10.0, 10.0, allow_nan=False).filter(lambda x: abs(x) >= 1e-3),
        min_size=1, max_size=n,
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    speed = draw(st.floats(0.1, 50.0))
    return diag, m, n, rank, seed, speed


@settings(max_examples=40)
@given(args=rotating_flow_args(), times=st.lists(st.floats(-5.0, 5.0, allow_nan=False),
                                                 min_size=1, max_size=10))
def test_rotating_field_matches_closed_form(args, times):
    diag, m, n, _, seed, speed = args
    flow = rotating_flow(diag, m=m, n=n, seed=seed, y_dependent=False, speed=speed)
    fresh = rotating_flow(diag, m=m, n=n, seed=seed, speed=speed)
    rng = np.random.default_rng(seed)
    w1 = speed * lowrank._skew_rotation_generator(rng, m)
    w2 = speed * lowrank._skew_rotation_generator(rng, n)
    for t in times:
        a = fresh.exact_A(t)
        assert np.array_equal(flow.eval_F(t, np.zeros((m, n))), w1 @ a + a @ w2.T)


@settings(max_examples=40)
@given(args=rotating_flow_args(), t=st.floats(-5.0, 5.0, allow_nan=False),
       turn=st.floats(0.01, 1.0), backward=st.booleans(), substeps=st.integers(1, 12))
def test_increment_is_exact_and_rk4_steps_stay_within_simpsons_error(args, t, turn, backward,
                                                                      substeps):
    diag, m, n, rank, seed, speed = args
    flow = rotating_flow(diag, m=m, n=n, seed=seed, y_dependent=False, speed=speed)
    assert flow.increment is not None
    # A step turns the generators by at most one radian.
    h = -turn / speed if backward else turn / speed
    d_norm = np.linalg.norm(diag)
    exact = flow.exact_A(t + h) - flow.exact_A(t)
    assert np.linalg.norm(flow.increment(t, h) - exact) <= 1e-14 * d_norm
    # For a Y-independent field, RK4 on `substeps` substeps computes the
    # composite-Simpson sum, whose error is |h|**5 / (2880 * substeps**4)
    # times a bound on the fourth derivative of F = dA/dt, here
    # (||W1|| + ||W2||)**5 * ||D|| = (2 * speed)**5 * ||D||.  A step
    # carries an error in its increment into its result with a gain of
    # about 1: the worst ratio over 5,000 random draws was 0.98, and the
    # constant 2 below leaves room for that.
    simpson = (2.0 * speed) ** 5 * abs(h) ** 5 / (2880.0 * substeps**4) * d_norm
    rk4_flow = replace(flow, increment=None)
    # A rank above len(diag) starts from a singular core.
    y = factorize(flow.exact_A(t), rank)
    for stepper in (ksl_step, strang_step):
        fast = to_full(stepper(flow, y, t, h, substeps=substeps))
        slow = to_full(stepper(rk4_flow, y, t, h, substeps=substeps))
        assert np.linalg.norm(fast - slow) <= 2.0 * simpson + 1e-12 * d_norm


def test_increment_strang_step_is_time_symmetric():
    flow = rotating_flow([1.0, 0.5, 0.25], m=6, n=5, seed=4, y_dependent=False, speed=3.0)
    y0 = factorize(np.random.default_rng(6).standard_normal((6, 5)), 2)
    fwd = strang_step(flow, y0, 0.0, 0.1)
    back = strang_step(flow, fwd, 0.1, -0.1)
    assert np.linalg.norm(to_full(back) - to_full(y0)) <= 1e-12


@settings(max_examples=40)
@given(m=st.integers(4, 12), n=st.integers(4, 12), rank=st.integers(1, 11),
       seed=st.integers(0, 2**32 - 1), speed=st.floats(0.1, 50.0),
       y_dependent=st.booleans(), turn=st.floats(0.001, 0.05), t=st.floats(-5.0, 5.0))
def test_strang_step_is_time_symmetric_on_random_flows(m, n, rank, seed, speed, y_dependent,
                                                       turn, t):
    # strang(-h) undoes strang(h) exactly for exact subflows, so what is left
    # is roundoff, which stays small only if each QR factors K and L the
    # same way in both directions.  The RK4 path (y_dependent) adds RK4's
    # own asymmetry, O((h * speed / substeps)**6) per substep: at most
    # 3.1e-15 relative over 400 random draws at these steps, and 1.9e-13
    # at steps twice as long.
    r = min(rank, min(m, n) - 1)
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.1, 1.0, rng.integers(1, min(m, n) + 1))
    flow = rotating_flow(diag, m=m, n=n, seed=seed, y_dependent=y_dependent, speed=speed)
    y = factorize(rng.standard_normal((m, n)), r)
    h = turn / speed
    back = strang_step(flow, strang_step(flow, y, t, h), t + h, -h)
    assert np.linalg.norm(to_full(back) - to_full(y)) <= 1e-12 * np.linalg.norm(to_full(y))


def _build_recording_generators(**kwargs):
    """rotating_flow(**kwargs) and the generator set it was handed."""
    shared = lowrank._rotation_generators
    handed = []

    def recording(*key):
        handed.append(shared(*key))
        return handed[-1]

    with mock.patch.object(lowrank, "_rotation_generators", recording):
        flow = rotating_flow(**kwargs)
    (generators,) = handed
    return flow, generators


@st.composite
def shared_generator_args(draw):
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    diags = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=min(m, n))
    speed = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0)))
    return (m, n, draw(st.integers(0, 2**32 - 1)), speed, draw(diags), draw(diags),
            draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=40)
@given(args=shared_generator_args(), t=st.floats(-5.0, 5.0), span=st.floats(-1.0, 1.0))
@example(args=(3, 2, 1, 0.0, [1.0], [2.0, 0.5], False, True), t=0.5, span=0.25)
@example(args=(3, 2, 1, -0.0, [1.0], [2.0, 0.5], True, True), t=0.5, span=0.25)
def test_flows_that_share_generators_are_exact_and_isolated(args, t, span):
    # The warm-up flow has the same key as the flow under test, or its speed
    # with the other sign: for +0.0 and -0.0 that is a key only the sign
    # tells apart, and the flows' generators differ in the sign of zeros.
    m, n, seed, speed, diag, warm_diag, y_dependent, flip = args
    kwargs = dict(m=m, n=n, seed=seed, y_dependent=y_dependent)
    lowrank._rotation_generators.cache_clear()
    rotating_flow(warm_diag, speed=-speed if flip else speed, **kwargs)
    warm, handed = _build_recording_generators(diag_values=diag, speed=speed, **kwargs)
    lowrank._rotation_generators.cache_clear()
    cold, fresh = _build_recording_generators(diag_values=diag, speed=speed, **kwargs)
    assert [a.tobytes() for a in handed] == [a.tobytes() for a in fresh]
    y = np.random.default_rng(seed).standard_normal((m, n))

    def outputs(flow):
        values = [flow.exact_A(t), flow.eval_F(t, y)]
        if not y_dependent:
            values.append(flow.increment(t, span))
        return [value.tobytes() for value in values]

    assert outputs(warm) == outputs(cold)
    # Every flow of the key holds these arrays; none may write to them.
    for array in handed:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@pytest.mark.parametrize("m, n", [(3, 1), (1, 1)])
def test_rotating_flow_rejects_a_dimension_below_two(m, n):
    with pytest.raises(ContractViolationError):
        rotating_flow([1.0], m=m, n=n)


@pytest.mark.parametrize("m, n", [(10**400, 3), (3, 10**400), (10**12, 3), (1001, 3)])
def test_rotating_flow_refuses_a_dimension_above_its_cap(m, n):
    # Refused before numpy sees the size: 10**400 used to end in numpy's
    # ValueError and 10**12 in a MemoryError for a 21.8-TiB D.
    with pytest.raises(ContractViolationError, match="m, n <= 1000"):
        rotating_flow([1.0, 0.5], m=m, n=n)


@pytest.mark.parametrize("speed", ["1", None, 1j, np.array(1.0), float("nan"), float("inf"), 10**400])
def test_rotating_flow_rejects_a_speed_that_is_not_a_finite_real(speed):
    with pytest.raises(ContractViolationError, match="speed must be a finite real"):
        rotating_flow([1.0, 0.5], m=4, n=3, speed=speed)


@pytest.mark.parametrize("diag_values, seed, message", [
    ([1j, 0.5], 0, "diag_values is complex"),
    ("ab", 0, "diag_values does not convert"),
    ([float("nan"), 0.5], 0, "diag_values contains non-finite"),
    (1.0, 0, "diag_values must be 2-dimensional"),
    ([1.0, 0.5], -1, "seed must be an integer >= 0"),
    ([1.0, 0.5], "a", "seed must be an integer >= 0"),
    ([1.0, 0.5], 1.0, "seed must be an integer >= 0"),
])
def test_rotating_flow_refuses_bad_diagonal_values_and_seeds(diag_values, seed, message):
    with pytest.raises(ContractViolationError, match=message):
        rotating_flow(diag_values, m=3, n=3, seed=seed)


@settings(max_examples=40)
@given(args=rotating_flow_args(), t=st.floats(-5.0, 5.0, allow_nan=False),
       method=st.sampled_from(sorted(lowrank._STEPPERS)), y_dependent=st.booleans())
def test_record_error_is_numpys_frobenius_norm_bit_for_bit(args, t, method, y_dependent):
    diag, m, n, rank, seed, speed = args
    flow = rotating_flow(diag, m=m, n=n, seed=seed, y_dependent=y_dependent, speed=speed)
    y = lowrank._STEPPERS[method](flow, factorize(flow.exact_A(0.0), rank), 0.0, 0.05, substeps=2)
    error, _ = lowrank._record(flow, y, t)
    assert np.float64(error).tobytes() == np.linalg.norm(to_full(y) - flow.exact_A(t)).tobytes()


@settings(max_examples=40)
@given(args=rotating_flow_args(), t=st.floats(-5.0, 5.0, allow_nan=False))
def test_known_spectrum_gives_the_svd_best_error(args, t):
    diag, m, n, rank, seed, speed = args
    flow = rotating_flow(diag, m=m, n=n, seed=seed, y_dependent=False, speed=speed)
    y = factorize(flow.exact_A(t), rank)
    _, known = lowrank._record(flow, y, t)
    _, from_svd = lowrank._record(replace(flow, exact_sigma=None), y, t)
    assert abs(known - from_svd) <= 1e-12 * np.linalg.norm(diag)


# ---------------------------------------------------------------- gauge ODEs


def test_gauge_rhs_satisfies_the_gauge_conditions():
    flow = rotating_flow([1.0, 0.5, 0.25], m=6, n=5, seed=11)
    y = factorize(flow.exact_A(0.0), 3)
    du, ds, dv = naive_gauge_rhs(flow, 0.0, y.u, y.s, y.v)
    assert np.linalg.norm(y.u.T @ du) <= 1e-13
    assert np.linalg.norm(y.v.T @ dv) <= 1e-13
    reassembled = du @ y.s @ y.v.T + y.u @ ds @ y.v.T + y.u @ y.s @ dv.T
    projected = tangent_project(y, flow.eval_F(0.0, to_full(y)))
    assert np.linalg.norm(reassembled - projected) <= 1e-13


def test_gauge_integration_works_on_well_conditioned_flows():
    flow = rotating_flow([1.0, 0.5, 0.25, 0.125], m=8, n=8, seed=2)
    y0 = factorize(flow.exact_A(0.0), 4)
    out = integrate_naive_gauge(flow, y0, 0.0, 1.0, 0.01)
    assert out.shape == (8, 8)
    assert np.linalg.norm(out - flow.exact_A(1.0)) <= 1e-8


def test_gauge_integration_overflows_on_the_stiff_benchmark():
    d_vals = 2.0 ** -np.arange(1, 41)
    flow = rotating_flow(d_vals, seed=0, y_dependent=True, speed=40.0)
    y0 = factorize(flow.exact_A(0.0), 8)
    with pytest.raises(SolverDivergenceError):
        integrate_naive_gauge(flow, y0, 0.0, 0.2, 0.01)


def test_gauge_integration_refuses_factors_of_another_shape():
    flow = rotating_flow([1.0, 0.5], m=4, n=3, seed=2)
    y0 = factorize(rotating_flow([1.0, 0.5], m=5, n=3, seed=2).exact_A(0.0), 2)
    with pytest.raises(ContractViolationError, match=r"factors have shape \(5, 3\), flow expects \(4, 3\)"):
        integrate_naive_gauge(flow, y0, 0.0, 1.0, 0.1)


def test_gauge_integration_refuses_a_backward_interval():
    flow = rotating_flow([1.0, 0.5], m=4, n=3, seed=2)
    y0 = factorize(flow.exact_A(0.0), 2)
    with pytest.raises(ContractViolationError):
        integrate_naive_gauge(flow, y0, 1.0, 0.0, 0.1)


def test_gauge_integration_refuses_a_step_longer_than_the_interval():
    flow = rotating_flow([1.0, 0.5], m=4, n=3, seed=2)
    y0 = factorize(flow.exact_A(0.0), 2)
    with pytest.raises(ContractViolationError):
        integrate_naive_gauge(flow, y0, 0.0, 1.0, 10.0)
    # An empty interval is not an error: the result is the initial matrix.
    assert np.array_equal(integrate_naive_gauge(flow, y0, 1.0, 1.0, 10.0), to_full(y0))


@pytest.mark.parametrize("bad", ["1.0", None, 1j, np.array(0.0)], ids=["str", "none", "complex", "0-d"])
@pytest.mark.parametrize("run", [integrate_lowrank, integrate_naive_gauge])
def test_times_that_are_not_real_are_refused_before_any_arithmetic(run, bad):
    flow = rotating_flow([1.0, 0.5], m=4, n=3, seed=2)
    y0 = factorize(flow.exact_A(0.0), 2)
    with pytest.raises(ContractViolationError, match="t_end must be a real"):
        run(flow, y0, 0.0, bad, 0.1)
    with pytest.raises(ContractViolationError, match="t0 must be a real"):
        run(flow, y0, bad, 1.0, 0.1)


@pytest.mark.parametrize("t, h, message", [
    ("0", 0.1, "t must be a real"),
    (None, 0.1, "t must be a real"),
    (0.0, "0.1", "h must be a finite real"),
    (0.0, None, "h must be a finite real"),
    (0.0, float("nan"), "h must be a finite real"),
    (0.0, float("inf"), "h must be a finite real"),
    (0.0, -float("inf"), "h must be a finite real"),
])
@pytest.mark.parametrize("step", [ksl_step, strang_step])
@pytest.mark.parametrize("y_dependent", [True, False])
def test_a_step_at_a_bad_time_or_step_size_is_a_contract_violation(step, y_dependent, t, h, message):
    # A non-finite h is a caller's mistake, as StepperConfig has it, not
    # a divergence of the step.
    flow = rotating_flow([1.0, 0.5], m=4, n=3, seed=2, y_dependent=y_dependent)
    y = factorize(flow.exact_A(0.0), 2)
    with pytest.raises(ContractViolationError, match=message):
        step(flow, y, t, h)


@pytest.mark.parametrize("h", ["0.1", None, 1j], ids=["str", "none", "complex"])
@pytest.mark.parametrize("run", [integrate_lowrank, integrate_naive_gauge])
def test_a_step_size_that_is_not_real_is_refused(run, h):
    flow = rotating_flow([1.0, 0.5], m=4, n=3, seed=2)
    y0 = factorize(flow.exact_A(0.0), 2)
    with pytest.raises(ContractViolationError, match="step size must be a real"):
        run(flow, y0, 0.0, 1.0, h)


@pytest.mark.parametrize("run", [integrate_lowrank, integrate_naive_gauge])
def test_step_ceiling_is_a_contract_violation(run):
    flow = rotating_flow([1.0, 0.5], m=4, n=3, seed=2)
    y0 = factorize(flow.exact_A(0.0), 2)
    with pytest.raises(ContractViolationError, match="MAX_STEPS"):
        run(flow, y0, 0.0, 1.0, 1e-300)


def test_benchmark_table_shape_and_best_error_formula():
    table = experiments.run_experiment(experiments.ExperimentConfig(
        "lowrank-robustness", params={"floors": "40"})).table
    assert table.columns == ["floor_exponent", "sigma_min_retained", "best_error",
                             "ksl_error", "naive_error", "within_envelope"]
    row = dict(zip(table.columns, table.rows[0]))
    d_vals = np.maximum(2.0 ** -np.arange(1, 41), 2.0**-40)
    assert row["best_error"] == pytest.approx(np.sqrt(np.sum(d_vals[8:] ** 2)), rel=1e-12)
    assert row["sigma_min_retained"] == pytest.approx(2.0**-8, rel=1e-12)
    assert row["within_envelope"] == 1.0


@pytest.mark.parametrize("case", ["flow-str", "flow-dict", "factors-dense", "factors-str"])
@pytest.mark.parametrize("run", [
    lambda flow, y: ksl_step(flow, y, 0.0, 0.1),
    lambda flow, y: strang_step(flow, y, 0.0, 0.1),
    lambda flow, y: integrate_lowrank(flow, y, 0.0, 0.2, 0.1),
    lambda flow, y: integrate_naive_gauge(flow, y, 0.0, 0.2, 0.1),
], ids=["ksl_step", "strang_step", "integrate_lowrank", "integrate_naive_gauge"])
def test_entry_points_refuse_a_flow_or_factors_of_the_wrong_type(run, case):
    flow = rotating_flow([1.0, 0.5], m=4, n=3, seed=2)
    y = factorize(flow.exact_A(0.0), 2)
    # The dense array has the flow's shape, so only its type is wrong.
    args, message = {
        "flow-str": (("x", y), "flow must be a MatrixFlow, got str"),
        "flow-dict": ((vars(flow), y), "flow must be a MatrixFlow, got dict"),
        "factors-dense": ((flow, to_full(y)), "factors must be LowRankFactors, got ndarray"),
        "factors-str": ((flow, "x"), "factors must be LowRankFactors, got str"),
    }[case]
    with pytest.raises(ContractViolationError, match=message):
        run(*args)
