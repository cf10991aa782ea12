"""Workloads and metric tables shared by the benchmark runner, the tracer and the pinning script.

This module imports neither numpy nor ``gap_gauge`` at load time, so the
runner that imports it stays small (see ``records_child``).

A workload is a fixed list of ``gap_gauge`` CLI commands, run one after the
other (closed loop, one client). Its inputs come from the benchmark seed
through a *variant*: ``variant = seed % VARIANTS``. The variant picks the
CLI ``--seed`` and, for ``estimate``, the seed of the generated records CSV.
Keeping the inputs to a finite pool means every result file has a digest
pinned at the reference commit in ``digests.json``, whatever seed is passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("simulate", "sweep", "estimate")
VARIANTS = 8

#: Sizes of the timed runs, and of the smoke mode that exercises the whole
#: benchmark in seconds. Full-size commands take seconds each, so one run
#: repeats them several times and reports medians. The sweep uses the grid of
#: ``scripts/replicate.sh`` at fewer trials per point: each point is a single
#: simulation chunk (at most 8192 trials), so it runs without a process pool.
SIZES = {
    "full": {
        "simulate_trials": 50_000,
        "sweep_trials": 2_000,
        "sweep_grid": "0:1:0.1",
        "estimate_rows": 500_000,
        "estimate_bootstrap": 200,
    },
    "smoke": {
        "simulate_trials": 2_000,
        "sweep_trials": 300,
        "sweep_grid": "0:1:0.5",
        "estimate_rows": 5_000,
        "estimate_bootstrap": 10,
    },
}

#: Reduced model the estimate workload's records are drawn from (every cell
#: has positive mass, so no bootstrap replicate degenerates).
RECORDS_MODEL = {
    "slice0": {"p": 0.05, "r": 0.1, "a": 0.5, "b": 0.4, "c": 0.6, "d": 0.3},
    "slice1": {"p": 0.07, "r": 0.09, "a": 0.7, "b": 0.6, "c": 0.8, "d": 0.2},
}


#: Traced functions as (span name, defining module, attribute). A span is
#: named by the module that defines the function, whoever calls it.
SPANS = (
    ("cli.main", "cli", "main"),
    ("files.load_sampler_config", "files", "load_sampler_config"),
    ("files.write_json", "files", "write_json"),
    ("files.write_errors_csv", "files", "write_errors_csv"),
    ("files.write_histogram_csv", "files", "write_histogram_csv"),
    ("files.write_sweep_csv", "files", "write_sweep_csv"),
    ("simulation.run_monte_carlo", "simulation", "run_monte_carlo"),
    ("simulation.sweep", "simulation", "sweep"),
    ("simulation.config_bounds", "simulation", "config_bounds"),
    ("simulation.derive_trial_stream", "simulation", "derive_trial_stream"),
    ("simulation.sample_unconstrained", "simulation", "sample_unconstrained"),
    ("simulation.sample_constrained", "simulation", "sample_constrained"),
    ("simulation.percentile", "simulation", "percentile"),
    ("model.compute_gaps", "model", "compute_gaps"),
    ("model.reduce", "model", "reduce"),
    ("bounds.structure_params", "bounds", "structure_params"),
    ("bounds.bound_report", "bounds", "bound_report"),
    ("empirical.read_records_csv", "empirical", "read_records_csv"),
    ("empirical.estimate_with_bootstrap", "empirical", "estimate_with_bootstrap"),
    ("empirical.estimate", "empirical", "estimate"),
    ("empirical.bootstrap", "empirical", "bootstrap"),
    ("empirical.fit_joint", "empirical", "fit_joint"),
    ("empirical.RecordDataset.take", "empirical", "RecordDataset.take"),
)

#: Derived per-layer metrics, with their units, besides ``<span>.calls``
#: (count) and ``<span>.self_s`` (s). Each reads 0 where the workload never
#: calls the function it derives from.
DERIVED = {
    "simulation.sample_constrained.accept_ratio": "ratio",
    "simulation.parallel_util": "ratio",
    "files.write_errors_csv.bytes_per_s": "B/s",
    "empirical.read_records_csv.rows_per_s": "1/s",
    "empirical.bootstrap.useful_ratio": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.wrapper_cost_s": "s",
    "trace.layer_share": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m gap_gauge <argv>`` from the checkout root.

    ``outputs`` are the result files (paths relative to the root) whose
    digests are pinned; manifests are left out because they record the run's
    duration. ``trials`` counts seeded trial streams the command consumes
    (Monte Carlo trials, or bootstrap replicates); ``rows`` counts data rows
    it processes (rows parsed plus rows resampled, or result rows written).
    """

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    trials: int
    rows: int


def cli_seed(variant: int) -> int:
    # variant 0 uses the CLI default seed
    return 42 + variant


def records_seed(variant: int) -> int:
    # kept apart from the CLI seeds: sample_dataset and bootstrap replicate 0
    # would otherwise read the same trial stream
    return 1000 + variant


def records_path(size: str, variant: int) -> str:
    return f"perfbench/work/inputs/records-n{SIZES[size]['estimate_rows']}-seed{records_seed(variant)}.csv"


def commands(workload: str, size: str, variant: int, workers: int, tag: str) -> list[Command]:
    """The workload's CLI commands, writing under ``perfbench/work/<tag>/``."""
    s = SIZES[size]
    out = f"perfbench/work/{tag}/{workload}"
    common = ("--seed", str(cli_seed(variant)), "--workers", str(workers))
    if workload == "simulate":
        trials = s["simulate_trials"]
        cmds = []
        for config, name in (("graphA_classifier", "simA"), ("graph3_base", "sim3")):
            prefix = f"{out}/{name}"
            cmds.append(Command(
                argv=("simulate", f"configs/{config}.json", "--trials", str(trials),
                      "--out", prefix, *common),
                outputs=tuple(f"{prefix}.{ext}" for ext in ("summary.json", "errors.csv", "hist.csv")),
                trials=trials,
                rows=trials,
            ))
        return cmds
    if workload == "sweep":
        trials = s["sweep_trials"]
        points = _grid_points(s["sweep_grid"])
        cmds = []
        for varied in ("eps_b1", "eps_b2"):
            path = f"{out}/vary_{varied}.csv"
            cmds.append(Command(
                argv=("sweep", "configs/graph3_base.json", "--varied", varied,
                      "--grid", s["sweep_grid"], "--trials", str(trials),
                      "--out", path, *common),
                outputs=(path,),
                trials=trials * points,
                rows=points,
            ))
        return cmds
    if workload == "estimate":
        n, b = s["estimate_rows"], s["estimate_bootstrap"]
        path = f"{out}/estimate.json"
        return [Command(
            argv=("estimate", records_path(size, variant), "--bootstrap", str(b),
                  "--out", path, *common),
            outputs=(path,),
            trials=b,
            rows=n * (1 + b),
        )]
    raise ValueError(f"unknown workload {workload!r}")


def _grid_points(spec: str) -> int:
    start, stop, step = (float(x) for x in spec.split(":"))
    return int((stop - start) / step + 1e-9) + 1


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every ``.py`` file under ``root``: identifies the measured source without git."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return "sha256:" + digest.hexdigest()


def pinned(size: str, workload: str, variant: int) -> dict[str, str]:
    """Pinned digests for one workload run, keyed by file name."""
    table = json.loads(DIGESTS.read_text())
    return table[size][workload][str(variant)]


def check_outputs(cmd: Command, expected: dict[str, str]) -> list[str]:
    """Mismatches between a command's result files and their pinned digests."""
    problems = []
    for rel in cmd.outputs:
        path = ROOT / rel
        want = expected.get(Path(rel).name)
        if not path.is_file():
            problems.append(f"{rel}: missing")
        elif want is None:
            problems.append(f"{rel}: no pinned digest")
        else:
            got = sha256(path)
            if got != want:
                problems.append(f"{rel}: sha256 {got} != pinned {want}")
    return problems


def clear_outputs(cmd: Command) -> None:
    for rel in cmd.outputs:
        for path in (ROOT / rel, ROOT / (rel + ".manifest.json")):
            path.unlink(missing_ok=True)
        (ROOT / rel).parent.mkdir(parents=True, exist_ok=True)
    # simulate's manifest is named after the prefix, not after an output
    if cmd.argv[0] == "simulate":
        prefix = cmd.argv[cmd.argv.index("--out") + 1]
        (ROOT / (prefix + ".manifest.json")).unlink(missing_ok=True)


def import_package():
    """Import ``gap_gauge`` from the checkout's ``src``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gap_gauge

    if Path(gap_gauge.__file__).resolve().parent != SRC / "gap_gauge":
        raise RuntimeError(f"imported gap_gauge from {gap_gauge.__file__}, not from {SRC}")
    return gap_gauge


def make_records(size: str, variant: int) -> Path:
    """Write the estimate workload's records CSV from its seed.

    Rows are drawn with ``sample_dataset`` from the joint
    ``expand(RECORDS_MODEL, consistent_marginals(RECORDS_MODEL))``. The file
    is written anew every time, so its digest checks the measured tree's
    ``sample_dataset``, never an earlier run's file.
    """
    path = ROOT / records_path(size, variant)
    gg = import_package()
    import numpy as np

    model = gg.ReducedModel(
        slice0=gg.SliceParams(**RECORDS_MODEL["slice0"]),
        slice1=gg.SliceParams(**RECORDS_MODEL["slice1"]),
    )
    joint = gg.expand(model, gg.consistent_marginals(model))
    data = gg.sample_dataset(joint, SIZES[size]["estimate_rows"], records_seed(variant))
    code = 8 * data.l + 4 * data.v + 2 * data.vhat + data.y
    lines = b"".join(f"{c >> 3 & 1},{c >> 2 & 1},{c >> 1 & 1},{c & 1}\n".encode() for c in range(16))
    table = np.frombuffer(lines, dtype=np.uint8).reshape(16, 8)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        handle.write(b"l,v,vhat,y\n")
        handle.write(table[code.astype(np.intp)].tobytes())
    os.replace(tmp, path)
    return path


def records_child(size: str, variant: int, timeout: float) -> tuple[Path, str | None]:
    """Write the records CSV from a process of its own; returns (path, error or None).

    The benchmark's own process stays small this way: a child inherits the
    parent's resident size at fork as the floor of its peak RSS. An earlier
    run's file is removed first, so a failed generation leaves no input.
    """
    path = ROOT / records_path(size, variant)
    path.unlink(missing_ok=True)
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), size, str(variant)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return path, "timed out"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return path, f"exit {done.returncode}: {tail[0]}"
    return path, None


def child_env() -> dict[str, str]:
    """Environment for CLI children: the checkout's ``src`` and no seed override."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GAPGAUGE_SEED")}
    env["PYTHONPATH"] = str(SRC)
    return env


if __name__ == "__main__":
    # python3 perfbench/workloads.py <size> <variant>: write one records CSV
    make_records(sys.argv[1], int(sys.argv[2]))
