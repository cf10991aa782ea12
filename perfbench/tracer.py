"""Traced in-process run of one workload: per-layer calls and self times.

Run as a child of ``run.py``::

    python3 perfbench/tracer.py --workload simulate --variant 0 --size full --seconds 30

It imports ``gap_gauge`` from the checkout's ``src`` and calls
``gap_gauge.cli.main(argv)`` for each of the workload's commands with
``--workers 1``, so every span stays in this process. After one untimed
warm-up pass, passes alternate: untraced, then traced with wrappers around
the package's public functions, repeated while the time budget allows. The
wrappers are installed from here; no program file changes. Spans (name,
start, end, parent) are kept in arrays and written to
``perfbench/work/spans-<workload>.npz`` at the end.
The last line of standard output is one JSON object with the metrics, the
output checks, the functions left untraced and the number of passes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import statistics
import sys
import time
from array import array

import numpy as np

import workloads as wl

#: Namespaces whose bindings are replaced by the wrappers.
PATCHED = ("cli", "simulation", "empirical")


class Tracer:
    """Span recorder. Spans live in flat arrays; ``stack`` holds open span ids."""

    def __init__(self, labels: list[str]):
        self.labels = labels
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        #: what could not be traced, with the reason; its metrics read 0
        self.untraced: dict[str, str] = {}

    def wrap(self, fn, label: str, after=None):
        nid = self.labels.index(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(self, args, result)
                except Exception as exc:  # a changed signature loses a counter, not the run
                    self.untraced.setdefault(f"{label} counter", f"{type(exc).__name__}: {exc}")
            return result

        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per label: number of calls and summed self time (span minus child spans)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        k = len(self.labels)
        return (
            np.bincount(names, minlength=k),
            np.bincount(names, weights=own, minlength=k),
        )

    def save(self, path) -> None:
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _after_hooks():
    """Counters taken from a traced call's arguments or result, outside its span."""

    def constrained(tracer, args, result):
        tracer.count("sample_constrained.attempts", result[1])

    def errors_csv(tracer, args, result):
        tracer.count("write_errors_csv.bytes", os.path.getsize(args[0]))

    def records(tracer, args, result):
        tracer.count("read_records_csv.rows", result.n)

    def boot(tracer, args, result):
        tracer.count("bootstrap.replicates", result.replicates)
        tracer.count("bootstrap.skipped", result.skipped)

    return {
        "simulation.sample_constrained": constrained,
        "files.write_errors_csv": errors_csv,
        "empirical.read_records_csv": records,
        "empirical.bootstrap": boot,
    }


def install(tracer: Tracer):
    """Rebind every traced function in the patched namespaces; returns an undo list.

    A function the package no longer has is left out and named in
    ``tracer.untraced``; its calls and self time read 0.
    """
    hooks = _after_hooks()
    undo = []
    for label, module, attr in wl.SPANS:
        try:
            owner = importlib.import_module(f"gap_gauge.{module}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError) as exc:
            tracer.untraced[label] = f"{type(exc).__name__}: {exc}"
            continue
        wrapper = tracer.wrap(original, label, hooks.get(label))
        if path:
            # a method: rebinding it on its class reaches every caller
            setattr(owner, name, wrapper)
            undo.append((owner, name, original))
            continue
        for ns in PATCHED:
            target = importlib.import_module(f"gap_gauge.{ns}")
            if getattr(target, name, None) is original:
                setattr(target, name, wrapper)
                undo.append((target, name, original))
    return undo


def uninstall(undo) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one span adds around a call: a wrapped no-op against a bare one."""

    def noop():
        return None

    traced = Tracer(["noop"]).wrap(noop, "noop")
    times = []
    for fn in (noop, traced) * 3:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return max(0.0, (min(times[1::2]) - min(times[0::2])) / calls)


def run_pass(cli, cmds, expected) -> tuple[float, int, list[str]]:
    """Run the commands in-process; returns (wall seconds, failed commands, problems).

    A command fails on a nonzero exit, an exception, or any result file that
    differs from its pinned digest.
    """
    wall = 0.0
    failed = 0
    problems = []
    for cmd in cmds:
        wl.clear_outputs(cmd)
        t0 = time.perf_counter()
        try:
            code = cli.main(list(cmd.argv))
        except Exception as exc:  # a crash in the program is a failed command
            code = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        found = [] if code == 0 else [f"exit {code}"]
        found += wl.check_outputs(cmd, expected)
        if found:
            failed += 1
            problems += [f"in-process {' '.join(cmd.argv)}: {p}" for p in found]
    return wall, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--size", choices=tuple(wl.SIZES), default="full")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    wl.import_package()
    cli = importlib.import_module("gap_gauge.cli")
    os.chdir(wl.ROOT)
    labels = [label for label, _, _ in wl.SPANS]
    plain = wl.commands(args.workload, args.size, args.variant, 1, "inproc-untraced")
    traced_cmds = wl.commands(args.workload, args.size, args.variant, 1, "inproc-traced")
    expected = wl.pinned(args.size, args.workload, args.variant)

    started = time.monotonic()
    # the first pass in a process is slower (allocator and cache warm-up);
    # it is not timed, so the untraced and traced passes start even
    _, failed, problems = run_pass(cli, plain, expected)
    attempted = len(plain)
    untraced_walls, traced_walls, self_runs = [], [], []
    while True:
        pair_start = time.monotonic()
        wall, bad, found = run_pass(cli, plain, expected)
        untraced_walls.append(wall)
        tracer = Tracer(labels)
        undo = install(tracer)
        try:
            wall, bad_traced, found_traced = run_pass(cli, traced_cmds, expected)
        finally:
            uninstall(undo)
        traced_walls.append(wall)
        self_runs.append(tracer.self_times())
        attempted += len(plain) + len(traced_cmds)
        failed += bad + bad_traced
        problems += found + found_traced
        now = time.monotonic()
        if now - started + (now - pair_start) > args.seconds:
            break

    calls = self_runs[-1][0]
    self_s = np.median(np.array([own for _, own in self_runs]), axis=0)
    metrics = {}
    for i, label in enumerate(labels):
        metrics[f"{label}.calls"] = int(calls[i])
        metrics[f"{label}.self_s"] = float(self_s[i])
    c = tracer.counters

    def ratio(num, den):
        return float(num / den) if den else 0.0

    attempts = c.get("sample_constrained.attempts", 0)
    metrics["simulation.sample_constrained.accept_ratio"] = ratio(calls[labels.index("simulation.sample_constrained")], attempts)
    metrics["files.write_errors_csv.bytes_per_s"] = ratio(
        c.get("write_errors_csv.bytes", 0), self_runs[-1][1][labels.index("files.write_errors_csv")])
    metrics["empirical.read_records_csv.rows_per_s"] = ratio(
        c.get("read_records_csv.rows", 0), self_runs[-1][1][labels.index("empirical.read_records_csv")])
    replicates = c.get("bootstrap.replicates", 0)
    metrics["empirical.bootstrap.useful_ratio"] = ratio(replicates - c.get("bootstrap.skipped", 0), replicates)
    traced = statistics.median(traced_walls)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    metrics["trace.traced_wall_s"] = traced
    # paired: each traced pass against the untraced pass just before it. Where
    # the passes are few and long, their noise can exceed the overhead itself;
    # the wrapper cost (spans times the cost of one span) is its steady estimate.
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, untraced_walls))
    metrics["trace.wrapper_cost_s"] = len(tracer.name) * wrapper_cost()
    # the self times of all spans sum to the traced wall by construction; the
    # share of it below cli.main is what the layers under the CLI account for
    below_cli = float(self_s.sum() - self_s[labels.index("cli.main")])
    metrics["trace.layer_share"] = ratio(below_cli, traced)

    tracer.save(wl.WORK / f"spans-{args.workload}.npz")
    print(json.dumps({
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "untraced": tracer.untraced,
        "passes": len(untraced_walls),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
