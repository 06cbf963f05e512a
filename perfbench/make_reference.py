"""Regenerate reference.json from the sources in this checkout.

    python3 perfbench/make_reference.py

Runs every job once and stores its summary values.  A summary that differs
between seeds 0 and 1 is stored per seed for seeds 0..SEEDS-1.  Regenerate
only in a change that is meant to alter results, and say so in that change.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS thread count before numpy loads
import workloads

SEEDS = 32  # seeds whose seed-dependent summaries are stored


def summary(main, parse_csv, job, seed, workdir):
    output = Path(workdir) / f"{job.name}.csv"
    code = main(workloads.job_argv(job, seed, output))
    if code != job.exit_code:
        raise SystemExit(f"{job.name} seed {seed}: exit code {code}, expected {job.exit_code}")
    return job.summarize(parse_csv(output))


def main():
    run.import_geomint()
    from geomint.harness import cli, csvio

    reference = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        for jobs in workloads.WORKLOADS.values():
            for job in jobs:
                first = summary(cli.main, csvio.parse_csv, job, 0, workdir)
                if job.seeded and summary(cli.main, csvio.parse_csv, job, 1, workdir) != first:
                    reference[job.name] = {"by_seed": {
                        str(seed): summary(cli.main, csvio.parse_csv, job, seed, workdir)
                        for seed in range(SEEDS)}}
                else:
                    reference[job.name] = first
                print(f"{job.name}: done", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as stream:
        json.dump(reference, stream, indent=1)
        stream.write("\n")


if __name__ == "__main__":
    main()
