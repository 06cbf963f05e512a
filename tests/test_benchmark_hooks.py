"""The benchmark's span tracer still finds every name it patches.

``perfbench/tracer.py`` wraps geomint's callables from outside the package,
looking each one up by name (``experiments.oscillatory_energies``,
``oscillatory.make_fpu_chain``, ...).  A refactor that drops or renames one of
those names would otherwise only show up in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_tracer_installs_and_restores_every_original():
    tracer = _load_tracer_module().Tracer()
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
