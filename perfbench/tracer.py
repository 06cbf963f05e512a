"""Span tracer that wraps geomint's public callables from outside the package.

Nothing inside ``src/`` is changed.  ``Tracer.install`` replaces each traced
name where the caller looks it up: a module attribute, a dispatch-table
entry, an attribute of a freshly built model or flow, or (for the exact
solution that a Y-independent flow evaluates) the closure cell holding it.
``uninstall`` puts every original back, so untraced passes run the
unmodified code.

A span is ``[name, start, end, parent, job, note]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``job`` the index of the harness job
that caused it, and ``note`` the exception name when the call raised, or a
value taken from the result (near-resonant pair count, CSV size, the time at
which an exact solution was evaluated).  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []
        self._flows = 0

    def wrap(self, name, fn, note=None):
        """Return ``fn`` recording one span per call.

        A call made while a span of the same name is open (``svd_full``
        recursing on a transposed matrix) belongs to the outer span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                record[5] = note(args, result)
            return result

        return traced

    def _replace(self, owner, key, make):
        """Replace ``owner[key]`` (or the attribute) by ``make(original)``."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = make(original)
            self._undo.append(lambda: owner.__setitem__(key, original))
        else:
            original = getattr(owner, key)
            setattr(owner, key, make(original))
            self._undo.append(lambda: setattr(owner, key, original))

    def _patch(self, owner, key, name, note=None):
        self._replace(owner, key, lambda original: self.wrap(name, original, note))

    def install(self):
        from geomint import densela, lowrank, oscillatory, symplectic
        from geomint.harness import cli, experiments

        # harness: the job span itself is opened by the benchmark around cli.main.
        self._patch(cli, "run_experiment", "harness.run_experiment")
        self._patch(cli, "emit_csv", "harness.csv", note=_csv_size)
        # models: gradients and per-record energies of every model built.
        for owner, factory in ((experiments, "make_outer_solar_system"),
                               (experiments, "make_kepler"),
                               (experiments, "make_fpu_chain"),
                               (experiments, "make_klein_gordon"),
                               (oscillatory, "make_fpu_chain")):
            self._replace(owner, factory, self._traced_model_factory)
        for owner in (experiments, oscillatory):
            self._patch(owner, "oscillatory_energies", "models.energy")
        # symplectic: the integration loop and every kernel call it makes.
        for owner in (symplectic, oscillatory):
            self._patch(owner, "integrate", "symplectic.integrate")
        self._replace(symplectic, "resolve_method",
                      lambda resolve: self._traced_resolver(resolve, oscillatory.TrigKernel))
        # fdtools: the Newton solver's Jacobian.
        self._patch(symplectic, "central_jacobian", "fdtools.jacobian")
        # oscillatory: the step-size screen.
        self._patch(oscillatory, "resonance_report", "oscillatory.resonance",
                    note=lambda args, report: len(report.near_resonant_pairs))
        # lowrank: flows, steps, records and the naive gauge contrast.
        self._replace(lowrank, "rotating_flow", self._traced_flow_factory)
        for method in list(lowrank._STEPPERS):
            self._patch(lowrank._STEPPERS, method, "lowrank.step")
        self._patch(lowrank, "_record", "lowrank.record")
        self._patch(lowrank, "integrate_naive_gauge", "lowrank.gauge")
        # densela: lowrank calls the kernels through its own namespace;
        # truncated_svd reaches svd_full through densela's.
        self._patch(lowrank, "svd_full", "densela.svd")
        self._patch(densela, "svd_full", "densela.svd")
        self._patch(lowrank, "qr_thin", "densela.qr")

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _traced_model_factory(self, factory):
        from geomint.models import OscillatorySystem

        def build(*args, **kwargs):
            built = factory(*args, **kwargs)
            system = built[0]
            # An oscillatory system's grad_V calls grad_U, which the
            # trigonometric kernel also calls directly.
            grad = "grad_U" if isinstance(system, OscillatorySystem) else "grad_V"
            setattr(system, grad, self.wrap("models.grad", getattr(system, grad)))
            system.eval_H = self.wrap("models.energy", system.eval_H)
            return built

        return build

    def _traced_resolver(self, resolve, trig_kernel):
        def resolve_traced(method):
            kernel = resolve(method)
            name = "oscillatory.trig_step" if isinstance(kernel, trig_kernel) else "symplectic.step"
            return self.wrap(name, kernel)

        return resolve_traced

    def _traced_flow_factory(self, make_flow):
        def make_flow_traced(*args, **kwargs):
            flow = make_flow(*args, **kwargs)
            self._flows += 1
            flow_id = self._flows
            exact = self.wrap("lowrank.exact", flow.exact_A,
                              note=lambda args, _: (flow_id, args[0]))
            # F(t, Y) = dA/dt evaluates the exact solution from its closure.
            for cell in flow.eval_F.__closure__ or ():
                if cell.cell_contents is flow.exact_A:
                    cell.cell_contents = exact
            flow.exact_A = exact
            flow.eval_F = self.wrap("lowrank.flow", flow.eval_F)
            return flow

        return make_flow_traced


def _csv_size(args, _):
    table, destination = args
    return (len(table), os.path.getsize(destination))


# Per-layer metrics: (name, unit).  Every "_s" metric is self time, the
# span's duration minus that of its child spans, summed over one pass.
LAYER_METRICS = (
    ("models.grad_calls", "count"),
    ("models.grad_s", "s"),
    ("models.grad_per_step", "count/step"),
    ("models.energy_calls", "count"),
    ("models.energy_s", "s"),
    ("symplectic.steps", "count"),
    ("symplectic.step_s", "s"),
    ("symplectic.loop_s", "s"),
    ("symplectic.divergences", "count"),
    ("fdtools.jacobian_calls", "count"),
    ("fdtools.jacobian_s", "s"),
    ("oscillatory.trig_steps", "count"),
    ("oscillatory.trig_step_s", "s"),
    ("oscillatory.resonance_calls", "count"),
    ("oscillatory.resonance_s", "s"),
    ("oscillatory.near_pairs", "count"),
    ("lowrank.flow_calls", "count"),
    ("lowrank.flow_s", "s"),
    ("lowrank.exact_calls", "count"),
    ("lowrank.exact_s", "s"),
    ("lowrank.exact_distinct_ratio", "ratio"),
    ("lowrank.steps", "count"),
    ("lowrank.step_s", "s"),
    ("lowrank.record_s", "s"),
    ("lowrank.gauge_s", "s"),
    ("densela.svd_calls", "count"),
    ("densela.svd_s", "s"),
    ("densela.qr_calls", "count"),
    ("densela.qr_s", "s"),
    ("harness.jobs", "count"),
    ("harness.csv_rows", "count"),
    ("harness.csv_bytes", "bytes"),
    ("harness.csv_s", "s"),
    ("harness.self_s", "s"),
)

# Metrics that must repeat exactly between traced passes of the same code.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit != "s")


def _results(notes):
    """Notes taken from results, without those of calls that raised."""
    return [note for note in notes if not isinstance(note, str)]


def layer_metrics(spans):
    """Per-layer counts and self times of one traced pass."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    notes = defaultdict(list)
    for index, (name, start, end, _, _, note) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[index]
        notes[name].append(note)
    steps = calls["symplectic.step"] + calls["oscillatory.trig_step"]
    exact_calls = calls["lowrank.exact"]
    return {
        "models.grad_calls": calls["models.grad"],
        "models.grad_s": self_s["models.grad"],
        "models.grad_per_step": calls["models.grad"] / steps if steps else 0.0,
        "models.energy_calls": calls["models.energy"],
        "models.energy_s": self_s["models.energy"],
        "symplectic.steps": calls["symplectic.step"],
        "symplectic.step_s": self_s["symplectic.step"],
        "symplectic.loop_s": self_s["symplectic.integrate"],
        "symplectic.divergences": notes["symplectic.integrate"].count("SolverDivergenceError"),
        "fdtools.jacobian_calls": calls["fdtools.jacobian"],
        "fdtools.jacobian_s": self_s["fdtools.jacobian"],
        "oscillatory.trig_steps": calls["oscillatory.trig_step"],
        "oscillatory.trig_step_s": self_s["oscillatory.trig_step"],
        "oscillatory.resonance_calls": calls["oscillatory.resonance"],
        "oscillatory.resonance_s": self_s["oscillatory.resonance"],
        "oscillatory.near_pairs": sum(_results(notes["oscillatory.resonance"])),
        "lowrank.flow_calls": calls["lowrank.flow"],
        "lowrank.flow_s": self_s["lowrank.flow"],
        "lowrank.exact_calls": exact_calls,
        "lowrank.exact_s": self_s["lowrank.exact"],
        "lowrank.exact_distinct_ratio":
            len(set(notes["lowrank.exact"])) / exact_calls if exact_calls else 0.0,
        "lowrank.steps": calls["lowrank.step"],
        "lowrank.step_s": self_s["lowrank.step"],
        "lowrank.record_s": self_s["lowrank.record"],
        "lowrank.gauge_s": self_s["lowrank.gauge"],
        "densela.svd_calls": calls["densela.svd"],
        "densela.svd_s": self_s["densela.svd"],
        "densela.qr_calls": calls["densela.qr"],
        "densela.qr_s": self_s["densela.qr"],
        "harness.jobs": calls["harness.job"],
        "harness.csv_rows": sum(rows for rows, _ in _results(notes["harness.csv"])),
        "harness.csv_bytes": sum(size for _, size in _results(notes["harness.csv"])),
        "harness.csv_s": self_s["harness.csv"],
        "harness.self_s": self_s["harness.job"] + self_s["harness.run_experiment"],
    }
