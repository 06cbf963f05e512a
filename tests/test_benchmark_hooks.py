"""The benchmark's span tracer and set-up probe still find every name they
patch, and what the tracer reads from the results still works.

``perfbench/tracer.py`` wraps geomint's callables from outside the package,
looking each one up by name (``experiments.oscillatory_energies``,
``oscillatory.make_fpu_chain``, ...), and takes notes from some results
(``len(report.near_resonant_pairs)``, the CSV size).  ``perfbench/setup_probe.py``
replaces the model and flow builders (``lowrank.factorize``,
``experiments.make_kepler``, ...) in the warm-up pass of every untraced run.  A
refactor that drops or renames one of those names, or changes a result's
shape, would otherwise only show up in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from geomint.harness import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Final times that shorten the benchmark's jobs to a fraction of a second
# each; experiments not listed run as the benchmark runs them.
SHORT_T_END = {"solar": "2000", "kepler-longtime": "2", "fpu-exchange": "2",
               "klein-gordon-decay": "2"}


def _load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _lookup(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_tracer_installs_and_restores_every_original():
    tracer = _load_perfbench_module("tracer").Tracer()
    patched = []
    replace = tracer._replace

    def recording_replace(owner, key, make):
        patched.append((owner, key, _lookup(owner, key)))
        replace(owner, key, make)

    tracer._replace = recording_replace
    try:
        tracer.install()
        assert patched
        for owner, key, original in patched:
            assert _lookup(owner, key) is not original, key
    finally:
        tracer.uninstall()
    for owner, key, original in patched:
        assert _lookup(owner, key) is original, key


def test_setup_probe_replaces_and_restores_every_builder(tmp_path):
    # Every untraced benchmark run records the builders' calls this way in
    # its warm-up pass; a builder renamed in geomint would break them all.
    probe = _load_perfbench_module("setup_probe")
    owners = [(importlib.import_module(module), name) for module, name in probe.BUILDERS]
    originals = [getattr(owner, name) for owner, name in owners]
    calls = []
    with probe.record_builds(calls):
        for (owner, name), original in zip(owners, originals):
            assert getattr(owner, name) is not original, name
        argv = ["run", "lowrank-exactness", "--t-end", "0.1", "--output", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 0
    for (owner, name), original in zip(owners, originals):
        assert getattr(owner, name) is original, name
    assert calls


def test_traced_hamiltonian_jobs_compute_every_note(tmp_path):
    tracer_module = _load_perfbench_module("tracer")
    jobs = _load_perfbench_module("workloads").WORKLOADS["hamiltonian"]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for index, job in enumerate(jobs):
            tracer.job = index
            args = list(job.args)
            if job.args[0] in SHORT_T_END:
                args += ["--t-end", SHORT_T_END[job.args[0]]]
            argv = ["run", *args, "--output", str(tmp_path / f"{job.name}.csv")]
            assert cli.main(argv) == job.exit_code, job.name
    finally:
        tracer.uninstall()
    noted = {"harness.csv", "oscillatory.resonance"}
    for name, _, _, _, job, note in tracer.spans:
        if name in noted:
            assert note is not None and not isinstance(note, str), (name, jobs[job].name, note)
    metrics = tracer_module.layer_metrics(tracer.spans)
    for name in ("symplectic.steps", "oscillatory.trig_steps", "models.grad_calls",
                 "models.energy_calls", "harness.csv_bytes"):
        assert metrics[name] > 0, name
    # Every near pair of every screen: 111,378 for Klein-Gordon, 21 for the FPU
    # run and 2,646 over the scan's 126 step sizes.  The tracer takes
    # len(near_resonant_pairs), so the list built on first read must still
    # hold all pairs.
    assert metrics["oscillatory.near_pairs"] == 114045
    assert metrics["symplectic.divergences"] == 1  # solar --method implicit-euler
    # One eval_H call per solar or Kepler job, on all its records at once,
    # and every CSV row: the 31 records of those jobs (3 + 2 + 5 + 21), plus
    # 101 (FPU), 5 (Klein-Gordon) and 126 (scan).  A change to how records or
    # energies are counted shows here.
    assert metrics["models.energy_calls"] == 4
    assert metrics["harness.csv_rows"] == 263
    # Every kernel call, made through oscillatory.integrate and
    # symplectic.resolve_method where the tracer wraps them: steps of solar
    # (20), its implicit-Euler divergence (12, the last one raising), Kepler
    # (40) and Kepler implicit Euler (200); trigonometric steps of FPU (100)
    # and Klein-Gordon (40).
    assert metrics["symplectic.steps"] == 272
    assert metrics["oscillatory.trig_steps"] == 140
    # Every gradient the kernels evaluate (the trigonometric kernels through
    # grad_U) and every Newton Jacobian of the Kepler implicit-Euler job: a
    # kernel that evaluated one more per step would show here.
    assert metrics["models.grad_calls"] == 2776
    assert metrics["fdtools.jacobian_calls"] == 400


def test_traced_lowrank_steps_count_every_qr(tmp_path):
    # The splitting factors K and L through lowrank.qr_thin, where the tracer
    # counts: two QRs per Lie step, four per Strang step (K, L of each half).
    # The SVDs go through densela's svd_full (one per factorize, via
    # truncated_svd); the records read the flows' exact_sigma and take none.
    # A QR or SVD called by any other name would zero the benchmark's QR or
    # SVD counts.
    tracer_module = _load_perfbench_module("tracer")
    jobs = {job.args[2]: job for job in _load_perfbench_module("workloads").WORKLOADS["lowrank"]
            if job.args[0] == "lowrank-exactness"}
    for method, qr_per_step in (("ksl", 2), ("ksl-strang", 4)):
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            args = [*jobs[method].args, "--t-end", "0.1"]  # h 0.05: two steps per flow
            assert cli.main(["run", *args, "--output", str(tmp_path / f"{method}.csv")]) == 0
        finally:
            tracer.uninstall()
        metrics = tracer_module.layer_metrics(tracer.spans)
        assert metrics["lowrank.steps"] == 2 * 2, method  # two flows, rank 1 and rank 3
        assert metrics["densela.qr_calls"] == qr_per_step * metrics["lowrank.steps"], method
        # Per flow: one factorize, and three records (t = 0, 0.05, 0.1),
        # each called through lowrank._record, where the tracer times them.
        assert metrics["densela.svd_calls"] == 2, method
        assert [span[0] for span in tracer.spans].count("lowrank.record") == 2 * 3, method
