"""End-to-end checks of the package's advertised guarantees.

One test per guarantee.  Each test prints a single pass/fail line (outside
pytest's capture) so a plain run doubles as the acceptance report.  Numeric
thresholds were frozen from calibration runs on the reference setup; the
assertions keep generous margins over the measured values.
"""

import time

import numpy as np

from conftest import all_models_with_states, gradient_max_relerr, kepler_test_states, random_states
from geomint import lowrank, models, oscillatory, symplectic
from geomint.harness import experiments
from geomint.models import PhaseState


def report(capsys, number, name, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"criterion {number} {name}: {status} ({detail})")


def run(experiment, **overrides):
    return experiments.run_experiment(
        experiments.ExperimentConfig(experiment=experiment, **overrides))


def test_criterion_01_symplecticity_defects(capsys):
    t0 = time.perf_counter()
    h = 0.1
    cfg = symplectic.StepperConfig(step_size=h)
    rng = np.random.default_rng(17)
    kepler_sys, _ = models.make_kepler(0.6)
    cases = [(models.make_pendulum(), random_states(rng, 1, 10)),
             (kepler_sys, kepler_test_states(rng, 10))]
    preserving = ("symplectic-euler-pq", "symplectic-euler-qp", "stormer-verlet")
    drifting = ("explicit-euler", "implicit-euler")
    worst_preserving = 0.0
    least_drifting = np.inf
    for sys, states in cases:
        for y in states:
            for method in preserving:
                worst_preserving = max(
                    worst_preserving, symplectic.symplecticity_defect(sys, method, cfg, y))
            for method in drifting:
                least_drifting = min(
                    least_drifting, symplectic.symplecticity_defect(sys, method, cfg, y))
    wall = time.perf_counter() - t0
    passed = worst_preserving <= 1e-6 and least_drifting >= 0.1 * h**2 and wall < 1.0
    report(capsys, 1, "symplecticity", passed,
           f"symplectic max {worst_preserving:.2e}, euler min {least_drifting:.2e}, {wall:.2f}s")
    assert worst_preserving <= 1e-6
    assert least_drifting >= 0.1 * h**2
    assert wall < 1.0


def test_criterion_02_observed_orders(capsys):
    t0 = time.perf_counter()
    res = run("convergence-orders")
    orders = res.summary["orders"]
    windows = {
        "explicit-euler": (0.9, 1.1),
        "implicit-euler": (0.9, 1.1),
        "symplectic-euler-qp": (0.9, 1.1),
        "symplectic-euler-pq": (0.9, 1.1),
        "stormer-verlet": (1.9, 2.1),
        "ksl": (0.8, 1.2),
        "ksl-strang": (1.8, 2.2),
    }
    misses = {name: orders[name] for name, (lo, hi) in windows.items()
              if not lo <= orders[name] <= hi}
    wall = time.perf_counter() - t0
    passed = not misses and wall < 30.0
    report(capsys, 2, "convergence orders", passed,
           " ".join(f"{k}={v:.2f}" for k, v in orders.items()) + f", {wall:.1f}s")
    assert not misses, f"orders outside their windows: {misses}"
    assert wall < 30.0


def test_criterion_03_solar_energy_drift(capsys):
    t0 = time.perf_counter()

    def max_rel_err(method, h, record_every):
        res = run("solar", method=method, h=h, record_every=record_every)
        t = res.table.column("t")
        err = np.abs(res.table.column("rel_H_err"))
        return t, err

    t, err = max_rel_err("symplectic-euler-qp", 100.0, 10)
    bounded_ratio = err.max() / err[t <= 20000.0].max()
    _, err_50 = max_rel_err("symplectic-euler-qp", 50.0, 20)
    _, err_25 = max_rel_err("symplectic-euler-qp", 25.0, 40)
    halving_ratio = err_50.max() / err_25.max()
    t_e, err_e = max_rel_err("explicit-euler", 0.5, 100)
    growth = err_e[-1] / err_e[int(np.argmin(np.abs(t_e - 20000.0)))]
    wall = time.perf_counter() - t0
    passed = (bounded_ratio <= 3.0 and 1.6 <= halving_ratio <= 2.4
              and growth >= 5.0 and wall < 60.0)
    report(capsys, 3, "solar long-time energy", passed,
           f"bounded x{bounded_ratio:.3f}, halving x{halving_ratio:.3f}, "
           f"euler growth x{growth:.2f}, {wall:.1f}s")
    assert bounded_ratio <= 3.0
    assert 1.6 <= halving_ratio <= 2.4
    assert growth >= 5.0
    assert wall < 60.0


def test_criterion_04_angular_momentum(capsys):
    t0 = time.perf_counter()
    res = run("kepler-longtime")  # stormer-verlet, e=0.6, h=0.05, t_end=1000
    drift = res.summary["max_L_drift"]
    wall = time.perf_counter() - t0
    passed = drift <= 1e-10 and wall < 5.0
    report(capsys, 4, "angular momentum", passed, f"|L drift| {drift:.2e}, {wall:.1f}s")
    assert drift <= 1e-10
    assert wall < 5.0


def test_criterion_05_energy_exchange_and_linear_exactness(capsys):
    t0 = time.perf_counter()
    sys, y0 = models.make_fpu_chain(3, 50.0)
    table = oscillatory.run_screened(sys, y0, oscillatory.mollified_impulse_filter(), 0.02, 200.0,
                                     record_every=5)
    h_omega = table.column("H_omega")
    h_slow = table.column("H_slow")
    h_total = table.column("H")
    fast_drift = np.max(np.abs(h_omega - h_omega[0]))
    slow_drift = np.max(np.abs(h_slow - h_slow[0]))
    swing = max(np.max(np.abs(table.column(f"E_{j}") - table.column(f"E_{j}")[0]))
                for j in (1, 2, 3))

    # With the coupling removed the method must reproduce the oscillators
    # exactly; only roundoff may accumulate over the 10^4 steps.
    lin = models.strip_coupling(sys)
    start = PhaseState(p=np.zeros(sys.dim), q=y0.q.copy())
    start.p[3:] = y0.p[3:]
    linear_err = 0.0
    for name in ("trig-mollified", "trig-impulse"):
        records = symplectic.integrate(
            lin, oscillatory.TrigKernel(lin, oscillatory.FILTERS[name]()),
            symplectic.StepperConfig(step_size=0.02), start, 200.0, record_every=10**9)
        t_f, out = records.t[-1], PhaseState(p=records.p[-1], q=records.q[-1])
        omega = lin.omega[3:]
        q_ref = start.q[3:] * np.cos(omega * t_f) + (start.p[3:] / omega) * np.sin(omega * t_f)
        p_ref = -omega * start.q[3:] * np.sin(omega * t_f) + start.p[3:] * np.cos(omega * t_f)
        linear_err = max(linear_err,
                         np.max(np.abs(out.q[3:] - q_ref)),
                         np.max(np.abs(out.p[3:] - p_ref)),
                         np.max(np.abs(out.q[:3] - start.q[:3])),
                         np.max(np.abs(out.p[:3])))
    wall = time.perf_counter() - t0
    passed = (fast_drift <= 0.1 * h_omega[0] and slow_drift <= 0.1 * abs(h_total[0])
              and swing >= 0.2 * h_omega[0] and linear_err <= 1e-11 and wall < 20.0)
    report(capsys, 5, "oscillatory energy exchange", passed,
           f"H_omega drift {fast_drift:.3f}, slow drift {slow_drift:.3f}, "
           f"swing {swing:.3f}, linear err {linear_err:.1e}, {wall:.1f}s")
    assert fast_drift <= 0.1 * h_omega[0]
    assert slow_drift <= 0.1 * abs(h_total[0])
    assert swing >= 0.2 * h_omega[0]
    assert linear_err <= 1e-11
    assert wall < 20.0


def test_criterion_06_mode_energy_decay(capsys):
    t0 = time.perf_counter()
    res = run("klein-gordon-decay", h=0.02, record_every=50)
    t = res.table.column("t")
    slope = experiments.mode_decay_slope(res.table, int(np.argmin(np.abs(t - 10.0))))
    h_drift = res.summary["max_rel_H_err"]
    wall = time.perf_counter() - t0
    passed = slope < 0.0 and h_drift <= 0.05 and wall < 30.0
    report(capsys, 6, "wave mode decay", passed,
           f"slope at t=10 {slope:.2f}, H drift {h_drift:.2e}, {wall:.1f}s")
    assert slope < 0.0
    assert h_drift <= 0.05
    assert wall < 30.0


def test_criterion_07_low_rank_exactness(capsys):
    t0 = time.perf_counter()
    res = run("lowrank-exactness")  # ksl, h=0.05 to t=1
    err1 = res.summary["final_error_rank1"]
    err3 = res.summary["final_error_rank3"]
    wall = time.perf_counter() - t0
    passed = err1 <= 1e-9 and err3 <= 1e-9 and wall < 5.0
    report(capsys, 7, "low-rank exactness", passed,
           f"rank-1 err {err1:.2e}, rank-3 err {err3:.2e}, {wall:.1f}s")
    assert err1 <= 1e-9
    assert err3 <= 1e-9
    assert wall < 5.0


def test_criterion_08_low_rank_robustness(capsys):
    t0 = time.perf_counter()
    bench = run("lowrank-robustness").table
    scaled = run("lowrank-robustness", params={"tail_scale": 1e-6}).table
    ksl_err = bench.column("ksl_error")
    best = bench.column("best_error")
    naive = bench.column("naive_error")
    envelope_ok = bool(np.all(ksl_err <= 10.0 * best + 10.0 * 0.01))
    flag_ok = bool(np.all(bench.column("within_envelope") == 1.0))
    naive_ok = bool(np.all(~np.isfinite(naive) | (naive >= 100.0 * ksl_err)))
    tail_ok = bool(np.all(scaled.column("ksl_error") <= 2.0 * ksl_err))
    wall = time.perf_counter() - t0
    passed = envelope_ok and flag_ok and naive_ok and tail_ok and wall < 60.0
    report(capsys, 8, "low-rank robustness", passed,
           f"max ksl err {ksl_err.max():.3f} (envelope {'ok' if envelope_ok else 'violated'}), "
           f"naive {'diverges/100x worse' if naive_ok else 'too close'}, "
           f"tail ratio {np.max(scaled.column('ksl_error') / ksl_err):.2f}, {wall:.1f}s")
    assert envelope_ok and flag_ok
    assert naive_ok
    assert tail_ok
    assert wall < 60.0


def test_criterion_09_oracle_equivalence(capsys):
    t0 = time.perf_counter()

    def qr_pos(mat):
        q, r = np.linalg.qr(mat)
        sgn = np.sign(np.diag(r)).copy()
        sgn[sgn == 0] = 1.0
        return q * sgn, r * sgn[:, None]

    def brute_ksl(flow, y, t, h, substeps):
        # Same splitting, but every right-hand side forms the dense matrix
        # explicitly and the refactorizations come from np.linalg.qr.
        def rk4(f, y0):
            hh = h / substeps
            tt, yy = t, y0
            for _ in range(substeps):
                k1 = f(tt, yy)
                k2 = f(tt + hh / 2, yy + hh / 2 * k1)
                k3 = f(tt + hh / 2, yy + hh / 2 * k2)
                k4 = f(tt + hh, yy + hh * k3)
                yy = yy + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                tt += hh
            return yy

        u0, s0, v0 = y.u, y.s, y.v
        k = rk4(lambda tt, kk: flow.eval_F(tt, kk @ v0.T) @ v0, u0 @ s0)
        u1, s_hat = qr_pos(k)
        s1 = rk4(lambda tt, ss: -(u1.T @ flow.eval_F(tt, u1 @ ss @ v0.T) @ v0), s_hat)
        ell = rk4(lambda tt, ll: flow.eval_F(tt, u1 @ ll.T).T @ u1, v0 @ s1.T)
        v1, st = qr_pos(ell)
        return u1 @ st.T @ v1.T

    worst = 0.0
    for i in range(100):
        rg = np.random.default_rng(1000 + i)
        c = rg.standard_normal((2, 2))
        w = rg.standard_normal((2, 2))
        flow = lowrank.MatrixFlow(
            shape=(2, 2), eval_F=lambda t, y, c=c, w=w: c + np.sin(t) * (w @ y))
        u = rg.standard_normal((2, 1))
        u /= np.linalg.norm(u)
        v = rg.standard_normal((2, 1))
        v /= np.linalg.norm(v)
        y = lowrank.LowRankFactors(u=u, s=np.array([[1.0 + rg.random()]]), v=v)
        t = 0.3 * rg.random()
        h = 0.05 * (1 + rg.random())
        out = lowrank.ksl_step(flow, y, t, h, substeps=7)
        worst = max(worst, np.linalg.norm(lowrank.to_full(out) - brute_ksl(flow, y, t, h, 7)))
    wall = time.perf_counter() - t0
    passed = worst <= 1e-12 and wall < 1.0
    report(capsys, 9, "oracle equivalence", passed,
           f"max |ksl - brute force| {worst:.2e} over 100 instances, {wall:.2f}s")
    assert worst <= 1e-12
    assert wall < 1.0


def test_criterion_10_gradient_consistency(capsys):
    t0 = time.perf_counter()
    errors = {name: gradient_max_relerr(sys, states)
              for name, sys, states in all_models_with_states(20)}
    worst = max(errors.values())
    wall = time.perf_counter() - t0
    passed = worst <= 1e-5 and wall < 1.0
    report(capsys, 10, "gradient consistency", passed,
           f"worst rel err {worst:.2e} ({max(errors, key=errors.get)}), {wall:.2f}s")
    assert worst <= 1e-5, errors
    assert wall < 1.0
