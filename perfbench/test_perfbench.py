"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest -q perfbench

The smoke test runs every workload at a tiny size, untraced and traced, and
checks that each metric ``BENCHMARK.json`` names is printed with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = wl.BENCH_DIR / "run.py"


def _bench() -> dict:
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def test_smoke_prints_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "3"],
        cwd=wl.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"workload"')]
    bench = _bench()
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w["name"], t) for w in bench["workloads"] for t in (0, 1)
    }
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
        wanted = bench["per_layer"] if r["trace"] else bench["end_to_end"]
        assert set(r["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            got = r["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)), (r["workload"], m["name"], got)
        if r["trace"]:
            assert r["metrics"]["cli.main.calls"]["value"] == len(
                wl.commands(r["workload"], "smoke", 3, 1, "t")
            )
        else:
            assert r["metrics"]["ok_rate"]["value"] == 1.0


def test_changed_output_is_named_as_a_mismatch(tmp_path):
    cmd = wl.Command(argv=("sweep",), outputs=(str(tmp_path / "vary_eps_b1.csv"),), trials=1, rows=1)
    Path(cmd.outputs[0]).write_text("grid_value\n")
    digest = wl.sha256(Path(cmd.outputs[0]))
    assert wl.check_outputs(cmd, {"vary_eps_b1.csv": digest}) == []
    Path(cmd.outputs[0]).write_text("grid_value\n0.0\n")
    problems = wl.check_outputs(cmd, {"vary_eps_b1.csv": digest})
    assert len(problems) == 1 and "vary_eps_b1.csv" in problems[0] and digest in problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_missing_function_is_left_untraced(monkeypatch):
    import tracer as tr

    monkeypatch.setattr(wl, "SPANS", wl.SPANS + (
        ("simulation.gone", "simulation", "gone"),
        ("empirical.RecordDataset.gone", "empirical", "RecordDataset.gone"),
    ))
    wl.import_package()
    from gap_gauge import cli, empirical, simulation

    before = (cli.main, simulation.sample_constrained, empirical.RecordDataset.take)
    tracer = tr.Tracer([label for label, _, _ in wl.SPANS])
    undo = tr.install(tracer)
    try:
        assert set(tracer.untraced) == {"simulation.gone", "empirical.RecordDataset.gone"}
        assert simulation.sample_constrained is not before[1]
        assert empirical.RecordDataset.take is not before[2]
    finally:
        tr.uninstall(undo)
    assert (cli.main, simulation.sample_constrained, empirical.RecordDataset.take) == before


def test_a_failed_trace_still_prints_its_result(monkeypatch, capsys):
    import run

    monkeypatch.setattr(run, "run_traced", lambda *a: {
        "attempted": 1, "failed": 1, "problems": ["tracer: exit 1: boom"],
    })
    record = run.run("sweep", 0, 1.0, True, size="smoke")
    run.print_record(record)
    assert "# FAILED tracer: exit 1: boom" in capsys.readouterr().out
    result = record["result"]
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["cli.main.calls"]["value"] == 0
    assert result["metrics"]["simulation.parallel_util"]["value"] > 0


def test_a_changed_input_is_a_failed_attempt(monkeypatch):
    import run

    pinned = wl.pinned
    monkeypatch.setattr(wl, "pinned", lambda *a: {**pinned(*a), "records.csv": "sha256:0"})
    record = run.run("estimate", 0, 1.0, False, size="smoke")
    result = record["result"]
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_rate"]["value"] == 1 - 1 / result["attempted"]
    assert any("input sha256" in p and "sha256:0" in p for p in record["problems"])
