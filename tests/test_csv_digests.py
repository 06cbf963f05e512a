"""Every experiment's CSV is byte-identical for the same configuration and seed.

``csv_digests.json`` holds the exit code and the sha256 of the CSV of each
job below, together with the numpy version they were taken with: the bytes
depend on numpy's and its BLAS/LAPACK's arithmetic as well as on geomint's.
A change that moves bits on purpose regenerates the file and says so:

    PYTHONPATH=src python tests/test_csv_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from geomint.harness import cli
from geomint.harness.convergence import KEPLER_METHODS, LOWRANK_METHODS
from geomint.harness.experiments import EXPERIMENTS

DIGESTS = Path(__file__).with_name("csv_digests.json")


def _jobs():
    """The argv (after ``geomint run``) of every pinned job."""
    jobs = [[name] for name in sorted(EXPERIMENTS)]
    for name in ("kepler-longtime", "solar"):
        jobs += [[name, "--method", method] for method in KEPLER_METHODS
                 if method != EXPERIMENTS[name].defaults["method"]]
    jobs += [["lowrank-exactness", "--method", method, "--t-end", "2", "--record-every", "1",
              "--seed", seed] for method in LOWRANK_METHODS for seed in ("0", "28")]
    jobs.append(["lowrank-robustness", "--seed", "28"])
    jobs.append(["fpu-exchange", "--method", "trig-impulse", "--param", "m=5"])
    # The two ladders that diverge (exit 3) and write the rungs finished before.
    jobs.append(["convergence-orders", "--param", "kepler_h0=0.4"])
    jobs.append(["convergence-orders", "--param", "kepler_h0=0.1", "--param", "levels=3"])
    return jobs


def _run(argv, dest):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", *argv, "--output", str(dest)])
    digest = hashlib.sha256(dest.read_bytes()).hexdigest() if dest.exists() else None
    return {"exit": code, "sha256": digest}


def current_digests():
    with tempfile.TemporaryDirectory() as tmp:
        return {" ".join(argv): _run(argv, Path(tmp) / f"{i}.csv")
                for i, argv in enumerate(_jobs())}


def test_every_pinned_csv_is_byte_identical():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = current_digests()
    assert sorted(current) == sorted(pinned["jobs"]), "job list differs from csv_digests.json"
    mismatched = [f"  {job}: pinned {pinned['jobs'][job]}, now {result}"
                  for job, result in current.items() if result != pinned["jobs"][job]]
    assert not mismatched, (
        f"{len(mismatched)} of {len(current)} jobs changed (digests taken with numpy "
        f"{pinned['numpy']}, running numpy {np.__version__}):\n" + "\n".join(mismatched))


if __name__ == "__main__":
    record = {"numpy": np.__version__, "jobs": current_digests()}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(record['jobs'])} digests to {DIGESTS}\n")
