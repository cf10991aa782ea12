"""Command-line interface.

Four subcommands cover the library surface:

    analyze    gap, structure, and bound report for a model file
    simulate   seeded Monte Carlo error study for a sampler config
    sweep      p95/bound trajectories along one closeness-budget grid
    estimate   gaps and bounds from a records CSV, optionally bootstrapped

Exit codes are total: 0 success, 2 input or validation problems, 3 undefined
quantities (zero-mass conditions, empty inputs), 4 sampler budget exhaustion.
Every run that writes files also writes a ``<out>.manifest.json`` recording
the resolved configuration, seed, the digest of the input bytes parsed, and
output paths, renamed into place together with the outputs; re-running with
that configuration and seed reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import math
import os
import sys
import time

from . import __version__
from .bounds import independence_diagnostics, bound_report, structure_params
from .errors import GapGaugeError, ValidationError, ZeroMassCondition
from .files import (
    atomic_paths,
    dumps_json,
    load_model_file,
    load_sampler_config,
    result_dict,
    write_errors_csv,
    write_histogram_csv,
    write_json,
    write_sweep_csv,
    write_text,
)
from .model import FullJoint, _require_real, _require_u64, compute_gaps, reduce
from .simulation import SamplerConfig, run_monte_carlo, sweep

__all__ = ["main", "parse_grid"]

_DEFAULT_SEED = 42

#: Most points a ``--grid`` may have: a step of 1e-4 across [0, 1].
GRID_MAX_POINTS = 10_001


#: The argument that names each command's input file.
_INPUT = {
    "analyze": "model", "simulate": "config_file", "sweep": "config_file", "estimate": "data",
}

#: The suffixes that ``--out`` takes for each result, in the order the command
#: returns them; a command not named here writes one result, to ``--out``.
_SUFFIXES = {"simulate": (".summary.json", ".errors.csv", ".hist.csv")}

#: Parsed arguments the manifest records elsewhere, or not at all.
_NOT_CONFIG = ("func", "command", "seed", "out")


def parse_grid(spec: str) -> list[float]:
    """Parse ``start:stop:step`` into a strictly increasing grid from ``start`` by ``step``.

    ``stop`` is in the grid only when the steps reach it: ``0:1:0.5`` gives
    0.0, 0.5, 1.0, but ``0:1:0.3`` gives 0.0, 0.3, 0.6, 0.9.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ValidationError(f"grid has non-numeric parts: {spec!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValidationError(f"grid parts must be finite, got {spec!r}")
    if step <= 0.0:
        raise ValidationError(f"grid step must be positive, got {step!r}")
    if stop < start:
        raise ValidationError(f"grid stop must be >= start, got {spec!r}")
    for value in (start, stop):
        if not (0.0 <= value <= 1.0):
            raise ValidationError(f"grid values must lie in [0, 1], got {value!r}")
    # the span may be huge or inf, so it is bounded before it is enumerated
    steps = (stop - start) / step + 1e-9
    if not steps < GRID_MAX_POINTS:
        raise ValidationError(f"grid {spec!r} has more than {GRID_MAX_POINTS} points")
    # normalize accumulated float error so grid values print cleanly
    values = [round(start + k * step, 12) for k in range(int(steps) + 1)]
    # the 1e-9 slack may add a last point up to 1e-9 steps past stop
    values[-1] = min(values[-1], stop)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValidationError(f"grid step {step!r} is finer than the grid's 1e-12 rounding")
    return values


def _flat_rows(obj, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for key in obj:
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(_flat_rows(obj[key], path))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            rows.extend(_flat_rows(item, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, "" if obj is None else repr(obj) if isinstance(obj, float) else str(obj)))
    return rows


def _render(report: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = ["field,value"]
        lines += [f"{field},{value}" for field, value in _flat_rows(report)]
        return "\n".join(lines) + "\n"
    return dumps_json(report)


def _report(args, report) -> list:
    return [(write_text, _render(result_dict(report), args.format))]


def _cmd_analyze(args, digest) -> list:
    _require_real(args.tol, "tol", 0.0, 1.0)
    model = load_model_file(args.model, digest)
    independence = None
    if isinstance(model, FullJoint):
        reduced = reduce(model)
        try:
            independence = independence_diagnostics(model, tol=args.tol)
        except ZeroMassCondition:
            pass
    else:
        reduced = model
    return _report(args, {
        "gap": compute_gaps(reduced),
        "structure": structure_params(reduced),
        "bounds": bound_report(reduced),
        "independence": independence,
    })


def _load_sampler(args, digest) -> SamplerConfig:
    """The sampler config of simulate and sweep, also recorded in the manifest."""
    config = load_sampler_config(args.config_file, digest)
    args.sampler = result_dict(config)
    return config


def _cmd_simulate(args, digest) -> list:
    result = run_monte_carlo(_load_sampler(args, digest), args.trials, args.seed, bins=args.bins)
    return [
        (write_json, result_dict(result)),
        (write_errors_csv, result.errors),
        (write_histogram_csv, result.histogram),
    ]


def _cmd_sweep(args, digest) -> list:
    config = _load_sampler(args, digest)
    points = sweep(config, args.varied, parse_grid(args.grid), args.trials, args.seed)
    return [(write_sweep_csv, points)]


def _cmd_estimate(args, digest) -> list:
    # imported here, so that the other commands never load empirical
    from .empirical import estimate_with_bootstrap, filter_ystar, read_records_csv

    dataset = read_records_csv(args.data, digest)
    if args.condition_ystar:
        dataset = filter_ystar(dataset)
    return _report(args, estimate_with_bootstrap(
        dataset,
        smoothing=args.smoothing,
        replicates=args.bootstrap,
        level=args.level,
        seed=args.seed,
        workers=args.workers,
    ))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help="64-bit master seed (default 42; GAPGAUGE_SEED overrides the default)",
    )
    common.add_argument(
        "--workers", type=int, default=1,
        help="threads for estimate's bootstrap, capped at its replicates and the CPUs "
             "(default 1); recorded in the manifest, never affects results",
    )
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format (default json)",
    )

    parser = argparse.ArgumentParser(
        prog="gap-gauge",
        description="Quantify the error of measuring a conditional gap through a noisy proxy.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[common, report],
        help="report gaps, structure, and bounds for a model file",
    )
    p_analyze.add_argument("model", help="model file (JSON, 'reduced' or 'joint')")
    p_analyze.add_argument("--tol", type=float, default=1e-9,
                           help="independence tolerance for full-joint inputs")
    p_analyze.add_argument("--out", default=None, help="output path (default: stdout)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="Monte Carlo error study for a sampler config"
    )
    p_sim.add_argument("config_file", metavar="config", help="sampler config (JSON)")
    p_sim.add_argument("--trials", type=int, default=100000)
    p_sim.add_argument("--bins", type=int, default=50)
    p_sim.add_argument("--out", required=True,
                       help="output prefix for .summary.json/.errors.csv/.hist.csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="rerun the study along one eps grid"
    )
    p_sweep.add_argument("config_file", metavar="config", help="constrained sampler config (JSON)")
    p_sweep.add_argument("--varied", required=True, choices=("eps_b1", "eps_b2"))
    p_sweep.add_argument(
        "--grid", required=True,
        help="grid start:stop:step; stop is in it only if the steps reach it",
    )
    p_sweep.add_argument("--trials", type=int, default=100000)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_est = sub.add_parser(
        "estimate", parents=[common, report], help="estimate gaps and bounds from records CSV"
    )
    p_est.add_argument("data", help="records CSV (header l,v,vhat,y[,ystar])")
    p_est.add_argument("--smoothing", type=float, default=0.0)
    p_est.add_argument("--bootstrap", type=int, default=0,
                       help="bootstrap replicates (default 0: no intervals)")
    p_est.add_argument("--level", type=float, default=0.95)
    p_est.add_argument("--condition-ystar", action="store_true",
                       help="restrict to rows with ystar = 1 first")
    p_est.add_argument("--out", default=None, help="output path (default: stdout)")
    p_est.set_defaults(func=_cmd_estimate)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        env = os.environ.get("GAPGAUGE_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ValidationError(
                    f"GAPGAUGE_SEED must be an integer, got {env!r}"
                ) from None
        else:
            seed = _DEFAULT_SEED
    return _require_u64(seed, "seed")


def _run(args) -> None:
    """Run the command; with ``--out``, commit its outputs and manifest together.

    The command reads its input through one digest and returns its outputs
    as ``(writer, result)`` pairs in ``_SUFFIXES`` order; without ``--out``,
    its one report goes to stdout. ``atomic_paths`` refuses any result path
    or ``<out>.manifest.json`` it could not replace before the command runs,
    and renames each output into place once, after all are written, so a
    failed write, the manifest's included, leaves every file as it was. An
    ``--out`` whose last component is empty, ``''`` or one ending in a path
    separator, is refused before all of that, for every command.
    """
    started = time.monotonic()
    digest = hashlib.sha256()
    if args.out is None:
        ((_, text),) = args.func(args, digest)
        sys.stdout.write(text)
        return
    if not args.out:  # '' + suffix would name hidden files, '.manifest.json' among them
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    if not os.path.basename(args.out):  # so would 'dir/' + suffix, in dir
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    paths = [args.out + suffix for suffix in _SUFFIXES.get(args.command, ("",))]
    with atomic_paths(*paths, args.out + ".manifest.json") as tmps:
        for tmp, (write, result) in zip(tmps, args.func(args, digest)):
            write(tmp, result)
        write_json(tmps[-1], {
            "command": args.command,
            "config": {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG},
            "seed": args.seed,
            "version": __version__,
            "inputs": {getattr(args, _INPUT[args.command]): "sha256:" + digest.hexdigest()},
            "outputs": sorted(paths),
            "duration_seconds": time.monotonic() - started,
        })


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ValidationError(f"--workers must be at least 1, got {args.workers}")
        args.seed = _resolve_seed(args)
        _run(args)
        return 0
    except (GapGaugeError, OSError) as exc:
        print(f"gap-gauge: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    # numpy is loaded by now, so the BLAS default of gap_gauge.__main__ cannot apply
    print("gap-gauge: run `python -m gap_gauge` or `gap-gauge`, not `python -m gap_gauge.cli`",
          file=sys.stderr)
    sys.exit(2)
