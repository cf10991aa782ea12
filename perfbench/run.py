"""Benchmark of the gap-gauge CLI: whole commands timed from outside, layers traced inside.

Run from the repository root::

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (closed loop, one client; commands and sizes in ``workloads.py``):

* ``simulate``: ``simulate`` on ``graphA_classifier`` (unconstrained) then on
  ``graph3_base`` (constrained). The per-trial loop dominates, and the errors
  CSV writer is the one writer with a measurable share; the empirical layer
  is idle.
* ``sweep``: the ``scripts/replicate.sh`` sweeps of ``graph3_base``
  (``--varied eps_b1``, then ``eps_b2``) on its 11-point grid: 22 short
  constrained runs whose acceptance falls from about 0.7 to 0.1 across the
  budgets. Rejection sampling dominates; no errors CSV is written.
* ``estimate``: ``estimate --bootstrap 200`` on a seeded records CSV. The
  per-replicate resampling and re-estimation dominate, then CSV parsing; the
  Monte Carlo engine is idle.

With ``--trace 0`` the workload's commands run as child processes of
``python -m gap_gauge`` with ``PYTHONPATH`` set to the checkout's ``src`` and
``--workers`` set to the cores granted to this process, repeated while
``--seconds`` allows, each repetition after a few ``--version`` runs (the
set-up time). Wall time, CPU time and peak RSS of each command come from
``os.wait4``. Every result file is checked against the digest pinned in
``digests.json``; a nonzero exit or any mismatch fails the command. Metrics
are medians over the repetitions.

With ``--trace 1`` the commands run once the same way (for the parallel
utilisation), then ``tracer.py`` runs them in-process with ``--workers 1``,
untraced and traced, and reports per-layer calls and self times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record of the
run, with machine and source details, goes to ``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

import workloads as wl

#: ``--version`` runs before each repetition of the workload's commands, and
#: the least number in one benchmark run; their median is ``setup_s``.
#: Spreading them over the run measures set-up under the same conditions as
#: the commands, not only in the run's first seconds.
SETUP_PER_ITERATION = 3
SETUP_RUNS = 15
#: Every child is killed at this many seconds after the run starts, so the
#: run ends well inside three minutes even when the program hangs.
DEADLINE_S = 165.0
SMOKE_SECONDS = 1.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "trials_per_s": "1/s",
    "rows_per_s": "1/s",
    "ok_rate": "ratio",
}


@dataclass(frozen=True)
class Measured:
    """One CLI child process, as seen from outside."""

    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int
    problems: tuple[str, ...]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure(argv, env, deadline: float, stderr_path) -> tuple[float, float, float, int]:
    """Run ``python -m gap_gauge <argv>``; returns (wall s, CPU s, peak RSS MiB, exit code).

    CPU time and peak RSS cover the process tree: ``wait4`` reports the
    child together with the pool workers it reaped.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gap_gauge", *argv],
            cwd=wl.ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # pool workers are reaped by the CLI before it exits; kill any straggler
    _kill_group(proc.pid)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def run_command(cmd: wl.Command, expected, env, deadline: float) -> Measured:
    wl.clear_outputs(cmd)
    errlog = wl.WORK / "stderr.txt"
    wall, cpu, rss, code = measure(cmd.argv, env, deadline, errlog)
    problems = []
    if code != 0:
        message = errlog.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        problems.append(f"exit {code}: {message[0]}")
    problems += wl.check_outputs(cmd, expected)
    return Measured(cmd.argv, wall, cpu, rss, code, tuple(problems))


def end_to_end(cmds, iterations, setup, attempted: int, failed: int) -> dict[str, float]:
    trials = sum(cmd.trials for cmd in cmds)
    rows = sum(cmd.rows for cmd in cmds)
    walls = [sum(m.wall_s for m in it) for it in iterations]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(sum(m.cpu_s for m in it) for it in iterations),
        "peak_rss_mb": statistics.median(max(m.rss_mib for m in it) for it in iterations),
        "trials_per_s": statistics.median(trials / w for w in walls),
        "rows_per_s": statistics.median(rows / w for w in walls),
        "ok_rate": (attempted - failed) / attempted,
    }


def run_traced(workload, size, variant, seconds, deadline) -> dict:
    """Run ``tracer.py`` as a child; returns its JSON report."""
    argv = [
        sys.executable, str(wl.BENCH_DIR / "tracer.py"), "--workload", workload,
        "--variant", str(variant), "--size", size, "--seconds", str(seconds),
    ]
    try:
        done = subprocess.run(
            argv, cwd=wl.ROOT, env=wl.child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": ["tracer: timed out"]}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return {"attempted": 1, "failed": 1, "problems": [f"tracer: exit {done.returncode}: {tail[0]}"]}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"attempted": 1, "failed": 1, "problems": ["tracer: no report on its last line"]}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result object plus a detailed record."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    variant = seed % wl.VARIANTS
    workers = len(os.sched_getaffinity(0))
    expected = wl.pinned(size, workload, variant)
    env = wl.child_env()
    wl.WORK.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []

    attempted = failed = 0
    if workload == "estimate":
        # untimed; a wrong input fails the run like a wrong output
        records, error = wl.records_child(size, variant, max(1.0, deadline - time.monotonic()))
        attempted += 1
        if error is not None:
            failed += 1
            problems.append(f"{records.name}: generation failed: {error}")
        elif (got := wl.sha256(records)) != expected["records.csv"]:
            failed += 1
            problems.append(f"{records.name}: input sha256 {got} != pinned {expected['records.csv']}")

    cmds = wl.commands(workload, size, variant, workers, "cli")
    setup: list[float] = []

    def measure_setup(runs: int) -> None:
        nonlocal attempted, failed
        for _ in range(runs):
            wall, _, _, code = measure(("--version",), env, deadline, wl.WORK / "stderr.txt")
            setup.append(wall)
            attempted += 1
            if code != 0:
                failed += 1
                problems.append(f"--version: exit {code}")

    iterations: list[list[Measured]] = []
    loop_start = time.monotonic()
    while True:
        it_start = time.monotonic()
        if not trace:
            measure_setup(SETUP_PER_ITERATION)
        iterations.append([run_command(cmd, expected, env, deadline) for cmd in cmds])
        now = time.monotonic()
        if now - loop_start + (now - it_start) > seconds or trace or now > deadline:
            break
    if not trace:
        measure_setup(SETUP_RUNS - len(setup))
    for it in iterations:
        for m in it:
            attempted += 1
            if m.problems:
                failed += 1
                problems += [f"{' '.join(m.argv)}: {p}" for p in m.problems]

    if trace:
        last = iterations[-1]
        wall = sum(m.wall_s for m in last)
        report = run_traced(workload, size, variant, max(0.0, seconds - (time.monotonic() - loop_start)), deadline)
        attempted += report["attempted"]
        failed += report["failed"]
        problems += report["problems"]
        metrics = dict(report.get("metrics", {}))
        metrics["simulation.parallel_util"] = sum(m.cpu_s for m in last) / (wall * workers)
        units = wl.metric_units()
    else:
        metrics = end_to_end(cmds, iterations, setup, attempted, failed)
        units = END_TO_END

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        # a metric the run could not measure (the tracer failed) reads 0
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "variant": variant, "cli_seed": wl.cli_seed(variant),
        "size": size, "seconds": seconds, "trace": int(trace), "workers": workers,
        "machine": machine(), "problems": problems,
        "untraced": report.get("untraced", {}) if trace else {}, "result": result,
        "setup_s": setup, "iterations": [[asdict(m) for m in it] for it in iterations],
    }
    out = wl.WORK / "results" / f"{workload}-{size}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    return record


def machine() -> dict:
    """Where and what was measured: commit, source digest, cores, CPU, versions."""
    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_digest": wl.tree_digest(wl.SRC),
        "nproc": os.cpu_count(),
        "cores_granted": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def print_record(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} variant={record['variant']} "
          f"size={record['size']} trace={record['trace']} workers={record['workers']}")
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    for name, reason in record["untraced"].items():
        print(f"# NOT TRACED {name}: {reason}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")


def _terminate(signum, frame):
    # unwinds through measure(), which kills and reaps the running command
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="gap-gauge benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size, untraced and traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    missing = [p for p in ("src/gap_gauge/__init__.py", "configs/graph3_base.json") if not (wl.ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a gap-gauge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.smoke:
        ok = True
        for workload in wl.WORKLOADS:
            for trace in (False, True):
                record = run(workload, args.seed, SMOKE_SECONDS, trace, size="smoke")
                print_record(record)
                print(json.dumps({"workload": workload, "trace": int(trace), **record["result"]}))
                ok = ok and record["result"]["correct"]
        return 0 if ok else 1

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
