"""geomint benchmark: run one workload of harness jobs, check it, print metrics.

    python3 perfbench/run.py --workload hamiltonian --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; geomint is imported from ``src/``.
With ``--trace 0`` the untraced passes give the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the traced ones give
the per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record (the
environment, every pass, every failed check) goes to
``perfbench/out/result-<workload>-trace<0|1>.json`` and the spans of a
traced run's last traced pass to ``perfbench/out/spans-<workload>.jsonl``.
See README.md.
"""

import os

# Fix the BLAS thread count before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from setup_probe import record_builds  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
MIN_TRACED_PASSES = 2  # counts of two traced passes are compared
SETUP_REPEATS = 15  # fresh interpreters per run; setup_s is their median


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_geomint():
    """Import geomint from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "geomint" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no geomint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geomint

    if Path(geomint.__file__).resolve().parent != SRC / "geomint":
        raise SystemExit(f"benchmark: geomint imported from {geomint.__file__}, not {SRC}")


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(numpy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _openblas_threads(numpy):
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def make_setup_probe(builds, workdir):
    """Return a function that times, in a fresh interpreter, importing
    geomint and making ``builds``: the model and flow constructions of one
    pass, as recorded by ``setup_probe.record_builds``.  It returns the
    set-up seconds and the median calibration sample time measured right
    after them in the same interpreter."""
    calls_file = workdir / "setup-calls.pickle"
    with open(calls_file, "wb") as stream:
        pickle.dump(builds, stream)

    def probe():
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(calls_file)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, sample = done.stdout.split()[-2:]
        return float(elapsed), float(sample)

    return probe


class Runner:
    """Runs the jobs of one workload and checks each job's output."""

    def __init__(self, jobs, seed, workdir):
        from geomint.errors import ContractViolationError
        from geomint.harness import cli, csvio

        self.jobs = jobs
        self.seed = seed
        self.workdir = workdir
        self.main = cli.main
        self.parse_csv = csvio.parse_csv
        self.bad_csv = ContractViolationError
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failures = []  # jobs whose exit code or output was wrong
        self.run_problems = []  # problems of the run as a whole

    def run_pass(self, tracer=None, host=None):
        """One pass over the jobs; returns [(wall seconds, CPU seconds)] per job.

        Only the ``cli.main`` calls are timed; checks run outside the timing.
        With ``host`` (a ``HostSpeed``), calibration samples interrupt each
        job and their time is taken out of the job's.
        """
        main = self.main if tracer is None else tracer.wrap("harness.job", self.main)
        times = []
        for index, job in enumerate(self.jobs):
            output = self.workdir / f"{job.name}.csv"
            output.unlink(missing_ok=True)
            argv = workloads.job_argv(job, self.seed, output)
            if tracer is not None:
                tracer.job = index
            sink = io.StringIO()
            sampling = nullcontext([]) if host is None else host.sampling()
            with redirect_stdout(sink), redirect_stderr(sink):
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    with sampling as taken:
                        code = main(argv)
                except Exception:
                    code = f"exception: {traceback.format_exc()}"
                times.append((time.perf_counter() - w0 - sum(wall for wall, _ in taken),
                              time.process_time() - c0 - sum(cpu for _, cpu in taken)))
            self.attempted += 1
            problems = self.check(job, code, output)
            if problems:
                self.failures.append({"job": job.name, "argv": argv, "problems": problems,
                                      "output": sink.getvalue()[-2000:]})
        return times

    def check(self, job, code, output):
        table = None
        if output.exists():
            try:
                table = self.parse_csv(output)
            except self.bad_csv as exc:
                return [f"CSV does not parse: {exc}"]
        reference = workloads.reference_for(self.reference, job, self.seed)
        return workloads.check_job(job, code, table, reference)


def timed_passes(seconds, minimum, one_cycle):
    """Repeat ``one_cycle`` until the next cycle would overrun ``seconds``."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(one_cycle())
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    index = len(ordered) - 11
    return {"percentile": (100 * (index + 1)) // len(ordered), "value": ordered[index]}


def mean_pass(passes, part):
    """Mean over the passes of a pass's total time; ``part`` 0 is wall
    time, 1 CPU time."""
    return statistics.fmean(sum(times[part] for times in jobs) for jobs in passes)


def run_untraced(runner, args, record, builds):
    probe = make_setup_probe(builds, runner.workdir)
    host = HostSpeed()
    setup_all = []
    start = time.perf_counter()

    def cycle():
        times = runner.run_pass(host=host)
        # Spread the set-up probes over the run, so that they meet the same
        # host load as the passes.
        due = min(SETUP_REPEATS, SETUP_REPEATS * (time.perf_counter() - start) / args.seconds)
        while len(setup_all) < due:
            setup_all.append(probe())
        return times

    passes = timed_passes(args.seconds, MIN_PASSES, cycle)
    while len(setup_all) < SETUP_REPEATS:
        setup_all.append(probe())
    walls = [sum(wall for wall, _ in jobs) for jobs in passes]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update(setup_and_sample_s=setup_all, pass_wall_s=walls,
                  pass_job_times_s=passes, wall_tail=tail_percentile(walls),
                  calibration_wall_s=host.walls, calibration_cpu_s=host.cpus,
                  wall_factor=host.wall_factor(), cpu_factor=host.cpu_factor())
    # Times in reference-host seconds: see hostspeed.py.
    return {
        "wall_s": (mean_pass(passes, 0) * host.wall_factor(), "s"),
        "cpu_s": (mean_pass(passes, 1) * host.cpu_factor(), "s"),
        "setup_s": (statistics.median(e * REFERENCE_S / sample for e, sample in setup_all), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def run_traced(runner, args, record):
    per_pass = []  # layer metrics of each traced pass
    last = []  # the last traced pass's tracer, whose spans are written out

    def cycle():
        untraced = runner.run_pass()
        tracer = Tracer()
        try:
            tracer.install()
            traced = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        per_pass.append(layer_metrics(tracer.spans))
        last[:] = [tracer]
        return untraced, traced

    cycles = timed_passes(args.seconds, MIN_TRACED_PASSES, cycle)
    mismatched = [name for name in COUNT_METRICS
                  if len({layer[name] for layer in per_pass}) > 1]
    runner.run_problems += [
        f"traced passes disagree on {name}: {[layer[name] for layer in per_pass]}"
        for name in mismatched]
    untraced = [u for u, _ in cycles]
    traced = [t for _, t in cycles]
    metrics = {name: (per_pass[0][name] if name in COUNT_METRICS
                      else statistics.median(layer[name] for layer in per_pass), unit)
               for name, unit in LAYER_METRICS}
    metrics["trace.overhead_ratio"] = (mean_pass(traced, 0) / mean_pass(untraced, 0), "ratio")
    record.update(pass_job_times_s=untraced, traced_pass_job_times_s=traced, per_pass=per_pass)
    write_spans(args.workload, last[0].spans)
    return metrics


def write_spans(workload, spans):
    """Spans of the last traced pass, one JSON array per line:
    [index, name, start, end, parent, job, note]."""
    with open(OUT / f"spans-{workload}.jsonl", "w", encoding="utf-8") as stream:
        for index, span in enumerate(spans):
            stream.write(json.dumps([index, *span], separators=(",", ":")))
            stream.write("\n")


def main(argv=None):
    args = parse_args(argv)
    import_geomint()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        runner = Runner(workloads.WORKLOADS[args.workload], args.seed, Path(workdir))
        # Warm-up: the first pass in a process runs slower (lazy imports,
        # caches).  It is checked, not timed, and records what a pass builds.
        builds = []
        with record_builds(builds):
            runner.run_pass()
        if args.trace:
            metrics = run_traced(runner, args, record)
        else:
            metrics = run_untraced(runner, args, record, builds)

    result = {
        "correct": not runner.failures and not runner.run_problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result=result, failures=runner.failures, run_problems=runner.run_problems)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)

    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"BLAS threads {env['blas_threads_runtime']}, nproc {env['nproc']}")
    if not args.trace:
        walls = record["pass_wall_s"]
        tail = record["wall_tail"]
        print(f"measured pass wall time over {len(walls)} passes: "
              f"median {statistics.median(walls):.4f} s, "
              + (f"p{tail['percentile']} {tail['value']:.4f} s" if tail
                 else "no percentile with ten passes beyond it")
              + f"; host speed factor {record['wall_factor']:.4f} "
              f"({len(record['calibration_wall_s'])} calibration samples)")
    print(f"failed_ratio {result['failed']}/{result['attempted']}")
    for failure in runner.failures:
        print(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    for problem in runner.run_problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
