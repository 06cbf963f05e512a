"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <src-dir> <calls-file>

``<calls-file>`` is a pickle of the model and flow constructions that one
pass of the workload makes, recorded by ``record_builds`` around the
benchmark's warm-up pass.  The probe imports geomint, replays those calls
with the arguments the jobs gave them, and prints the elapsed seconds
(reading the pickle excluded).  Because the calls are recorded from the
jobs themselves, the probe builds what the jobs build, sizes and seeds
included, even after the experiments change.  After the timed part it
prints the median time of ``CALIBRATION_SAMPLES`` samples of
``hostspeed``'s calibration loop, the host's speed at that moment.  run.py
starts it several times per run and reports the median of the set-up times,
each scaled to reference-host seconds by its own samples, as ``setup_s``.
"""

import importlib
import pickle
import sys
import time
from contextlib import contextmanager

# The functions that build models and flows, named where the jobs look them up.
BUILDERS = (
    ("geomint.harness.experiments", "make_outer_solar_system"),
    ("geomint.harness.experiments", "make_kepler"),
    ("geomint.harness.experiments", "make_fpu_chain"),
    ("geomint.harness.experiments", "make_klein_gordon"),
    ("geomint.oscillatory", "make_fpu_chain"),
    ("geomint.lowrank", "rotating_flow"),
    ("geomint.lowrank", "factorize"),
)

CALIBRATION_SAMPLES = 5


@contextmanager
def record_builds(calls):
    """Append ``(module, name, args, kwargs)`` to ``calls`` for every builder call.

    A builder called from inside another is part of the outer call and is
    not recorded on its own.
    """
    depth = [0]

    def recording(build):
        def build_recorded(*args, **kwargs):
            if not depth[0]:
                calls.append((build.__module__, build.__qualname__, args, kwargs))
            depth[0] += 1
            try:
                return build(*args, **kwargs)
            finally:
                depth[0] -= 1

        return build_recorded

    undo = []
    try:
        for module, name in BUILDERS:
            owner = importlib.import_module(module)
            undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, recording(getattr(owner, name)))
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def main():
    start = time.perf_counter()
    src, calls_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import geomint.harness.cli  # noqa: F401  (the import a CLI run pays)

    imported = time.perf_counter() - start
    with open(calls_file, "rb") as stream:
        calls = pickle.load(stream)
    start = time.perf_counter()
    for module, name, args, kwargs in calls:
        getattr(importlib.import_module(module), name)(*args, **kwargs)
    elapsed = imported + time.perf_counter() - start
    import hostspeed  # after the timed part, which includes importing NumPy

    print(repr(elapsed), repr(hostspeed.median_sample_s(CALIBRATION_SAMPLES)))


if __name__ == "__main__":
    main()
