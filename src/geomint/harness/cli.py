"""Command-line front end.

    geomint run <experiment> [--method ID] [--h H] [--t-end T]
                [--record-every N] [--output PATH] [--seed N]
                [--config FILE] [--param key=value ...]
    geomint list

Exit status: 0 success; 1 usage error: argv or config-file lines that do
not parse into flags or key/value pairs; 2 contract violation: any value
the registry or a model refuses (an unknown experiment, a flag the
experiment does not read, a method the experiment does not offer, a value
that does not convert to its type, a bad domain, an inadmissible or
resonant step size, more than symplectic.MAX_STEPS steps); 3 solver
divergence or any other numerical failure (a partial CSV is still written
when the experiment returns its rows); 4 I/O failure.  A config file holds
flat ``key = value`` lines mirroring the flags; command-line flags win.
The CLI only parses: ExperimentConfig converts the values, checks them
and fills in the experiment's defaults.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ContractViolationError, GeomintError, SolverDivergenceError
from .csvio import emit_csv
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

# Config-file keys mirroring the flags ("t-end" or "t_end" alike); every
# other key is a model parameter.
_CONFIG_KEYS = ("method", "h", "t_end", "record_every", "output", "seed")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geomint", description="geometric integration experiment runner")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    run_p = sub.add_parser("run", help="run a registered experiment")
    run_p.add_argument("experiment", help="experiment identifier (see 'geomint list')")
    run_p.add_argument("--method", help="integrator identifier")
    run_p.add_argument("--h", help="step size")
    run_p.add_argument("--t-end", dest="t_end", help="final time")
    run_p.add_argument("--record-every", dest="record_every", help="record every k-th step")
    run_p.add_argument("--output", help="CSV destination (default <experiment>.csv)")
    run_p.add_argument("--seed", help="seed for randomized diagnostics")
    run_p.add_argument("--config", help="flat key = value file mirroring the flags")
    run_p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="model parameter override (repeatable)")
    sub.add_parser("list", help="list experiments and defaults")
    return parser


def _parse_config_file(path):
    values = {}
    params = {}
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise _UsageError(f"{path}:{lineno}: empty key or value")
            name = key.replace("-", "_")
            if name in _CONFIG_KEYS:
                values[name] = value
            else:
                params[key] = value
    return values, params


def _split_param(text):
    if "=" not in text:
        raise _UsageError(f"--param needs KEY=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    if not key or not value:
        raise _UsageError(f"--param needs KEY=VALUE, got {text!r}")
    return key, value


def _list_experiments(stream):
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[name]
        stream.write(f"{name:<{width}}  {spec.description}\n")
        if spec.methods:
            stream.write(f"{'':<{width}}  methods: {', '.join(spec.methods)}\n")
        if spec.params:
            params = " ".join(f"{k}={v}" for k, v in spec.params.items())
            stream.write(f"{'':<{width}}  params: {params}\n")
        if spec.defaults:  # the fields the experiment reads
            defaults = " ".join(f"{k}={v}" for k, v in spec.defaults.items())
            stream.write(f"{'':<{width}}  defaults: {defaults}\n")
    return EXIT_OK


def _build_config(args):
    """Flags laid over the config file's lines; ExperimentConfig validates,
    converts and fills in the defaults."""
    given, params = ({}, {})
    if args.config:
        given, params = _parse_config_file(args.config)
    for key in _CONFIG_KEYS:
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    for item in args.param:
        key, value = _split_param(item)
        params[key] = value
    return ExperimentConfig(experiment=args.experiment, params=params, **given)


def _run(args, stdout, stderr):
    config = _build_config(args)
    out_path = config.output or f"{config.experiment}.csv"
    try:
        result = run_experiment(config)
    except SolverDivergenceError as exc:
        stderr.write(f"geomint: solver diverged: {exc}\n")
        return EXIT_DIVERGENCE
    emit_csv(result.table, out_path)
    summary = result.summary
    status = " status=diverged" if result.diverged else ""
    stdout.write(
        f"{config.experiment} method={config.method} steps={summary.get('steps', 0)} "
        f"{summary.get('headline', '')}{status} "
        f"wall={summary.get('wall_seconds', 0.0):.2f}s -> {out_path}\n"
    )
    return EXIT_DIVERGENCE if result.diverged else EXIT_OK


def main(argv=None) -> int:
    stdout, stderr = sys.stdout, sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        stderr.write(f"geomint: error: {exc}\n")
        stderr.write(parser.format_usage())
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)

    if args.command == "list":
        return _list_experiments(stdout)
    if args.command != "run":
        stderr.write(parser.format_usage())
        return EXIT_USAGE

    try:
        return _run(args, stdout, stderr)
    except _UsageError as exc:
        stderr.write(f"geomint: error: {exc}\n")
        return EXIT_USAGE
    except ContractViolationError as exc:
        stderr.write(f"geomint: contract violation: {exc}\n")
        return EXIT_CONTRACT
    except GeomintError as exc:
        stderr.write(f"geomint: numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_DIVERGENCE
    except OSError as exc:
        stderr.write(f"geomint: i/o failure: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
