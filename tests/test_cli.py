import builtins
import errno
import hashlib
import itertools
import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gap_gauge import FullJoint, ReducedModel, SliceParams, cli, empirical, errors, simulation
from gap_gauge.cli import GRID_MAX_POINTS, main, parse_grid
from gap_gauge.empirical import MAX_REPLICATES
from gap_gauge.errors import ValidationError
from gap_gauge.files import from_dict, load_sampler_config, write_json, write_text
from gap_gauge.simulation import MAX_BINS, MAX_TRIALS, SamplerConfig

from conftest import M1, M1_WITH_D, model_payload

CLASSIFIER = {"p0": 0.05, "r0": 0.1, "p1": 0.07, "r1": 0.09}

# The --format csv row order of each report section; pinned because the
# JSON files are key-sorted and would not show a reordering.
GAP_FIELDS = ["G", "G_hat", "delta0", "delta1", "error"]
STRUCTURE_FIELDS = ["gamma_A", "gamma_B1", "gamma_B2", "eps_B1", "eps_B2", "g_star"]
BOUND_FIELDS = [
    "bound_A", "bound_B1", "bound_B2",
    "bound_combined_stated", "bound_combined_proof", "best",
]
INDEPENDENCE_FIELDS = [
    "tol", "case1_deviation", "case2_deviation", "case3_deviation",
    "case1_holds", "case2_holds", "case3_holds",
    "bound_case2", "bound_case3", "gap_error",
]
BOOTSTRAP_TAIL = [
    "bootstrap_ci.replicates", "bootstrap_ci.skipped",
    "bootstrap_ci.level", "bootstrap_ci.seed",
]


def prefixed(prefix: str, names: list[str]) -> list[str]:
    return [f"{prefix}.{name}" for name in names]


def interval_fields(*names: str) -> list[str]:
    return [f"bootstrap_ci.intervals.{name}[{i}]" for name in names for i in (0, 1)]


def field_column(out: str) -> list[str]:
    return [line.split(",", 1)[0] for line in out.splitlines()]


NOT_UTF8 = b"\xff\xfe\x00not utf-8\n"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("GAPGAUGE_SEED", raising=False)


@pytest.fixture
def m1_model_file(tmp_path):
    path = tmp_path / "m1.json"
    write_json(path, model_payload(M1))
    return str(path)


@pytest.fixture
def no_monte_carlo(monkeypatch):
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        raise AssertionError("run_monte_carlo must not run")

    monkeypatch.setattr(cli, "run_monte_carlo", record)
    monkeypatch.setattr(simulation, "run_monte_carlo", record)
    return calls


@pytest.fixture
def constrained_config_file(tmp_path):
    path = tmp_path / "config.json"
    write_json(
        path,
        {**CLASSIFIER, "mode": "constrained", "eps_b1": 0.2, "eps_b2": 0.2},
    )
    return str(path)


@pytest.fixture
def pipe_path():
    """Puts content in a pipe and returns the pipe's /dev/fd path."""
    fds = []

    def make(content: bytes) -> str:
        read, write = os.pipe()
        fds.append(read)
        os.write(write, content)  # fits the pipe's buffer
        os.close(write)
        return f"/dev/fd/{read}"

    yield make
    for fd in fds:
        os.close(fd)


def fail_partway(monkeypatch, failing: str) -> None:
    """Makes cli's writer ``failing`` write part of its file and raise.

    ``manifest`` fails only the write of ``<out>.manifest.json``, which goes
    through the same ``write_json`` as a simulate summary.
    """
    writer = "write_json" if failing == "manifest" else failing
    original = getattr(cli, writer)

    def partial_write(path, *args):
        if failing == "manifest" and ".manifest.json" not in str(path):
            return original(path, *args)
        with open(path, "w") as handle:
            handle.write("partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, writer, partial_write)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseGrid:
    def test_simple(self):
        assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]

    def test_tenth_steps_have_clean_values(self):
        grid = parse_grid("0:1:0.1")
        assert len(grid) == 11
        assert grid[3] == 0.3  # not 0.30000000000000004
        assert grid[-1] == 1.0

    def test_single_point(self):
        assert parse_grid("0.2:0.2:0.1") == [0.2]

    def test_stop_is_in_the_grid_only_when_the_steps_reach_it(self):
        assert parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]

    def test_rejects_zero_step(self):
        with pytest.raises(ValidationError, match="step"):
            parse_grid("0:1:0")

    def test_rejects_backwards(self):
        with pytest.raises(ValidationError, match="stop"):
            parse_grid("1:0:0.1")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="\\[0, 1\\]"):
            parse_grid("0.5:1.5:0.5")

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError, match="start:stop:step"):
            parse_grid("0,1,0.1")
        with pytest.raises(ValidationError, match="numeric"):
            parse_grid("a:b:c")

    @pytest.mark.parametrize("spec", ["0:nan:0.1", "nan:1:0.1", "0:1:nan", "0:inf:0.1",
                                      "-inf:1:0.1", "0:1:inf"])
    def test_rejects_non_finite(self, spec):
        with pytest.raises(ValidationError, match="finite"):
            parse_grid(spec)

    def test_cap_is_a_step_of_1e_4(self):
        grid = parse_grid("0:1:1e-4")
        assert len(grid) == GRID_MAX_POINTS
        assert grid[-1] == 1.0

    @pytest.mark.parametrize("spec", ["0:1:9.99e-5", "0:1:1e-12", "0:1:1e-300",
                                      "0:1:5e-324", "0.25:0.75:1e-9"])
    def test_rejects_more_points_than_cap_before_enumerating(self, monkeypatch, spec):
        def enumerate_grid(*args):
            raise AssertionError("grid values were enumerated")

        monkeypatch.setattr(cli, "round", enumerate_grid, raising=False)
        with pytest.raises(ValidationError, match=f"more than {GRID_MAX_POINTS} points"):
            parse_grid(spec)

    @pytest.mark.parametrize("spec", ["-0.5:1:1e-300", "0:1.5:1e-300"])
    def test_range_checked_before_enumerating(self, monkeypatch, spec):
        monkeypatch.setattr(cli, "round", None, raising=False)
        with pytest.raises(ValidationError, match="\\[0, 1\\]"):
            parse_grid(spec)

    @pytest.mark.parametrize("spec, expected", [
        ("0:0.5:0.1666666666683", [0.0, 0.166666666668, 0.333333333337, 0.5]),
        ("0:1:0.3333333333433333", [0.0, 0.333333333343, 0.666666666687, 1.0]),
    ])
    def test_last_point_never_passes_stop(self, spec, expected):
        # the steps fall just short of dividing the range, so the point-count
        # slack adds a last point a hair past stop, which lands on stop
        assert parse_grid(spec) == expected

    def test_rejects_step_below_rounding(self):
        # 1e-14 steps collapse under the 12-digit rounding into repeated values
        with pytest.raises(ValidationError, match="finer"):
            parse_grid("0.5:0.5000000001:1e-14")

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.integers(0, 10**6).map(lambda k: k / 10**6),
        stop=st.floats(0.0, 1.0),
        step=st.floats(1e-4, 1.0),
    )
    def test_steps_not_dividing_the_range(self, start, stop, step):
        assume(stop >= start)
        steps = (stop - start) / step
        # at least 1e-6 of a step away from dividing the range
        assume(1e-6 < steps - int(steps) < 1 - 1e-6)
        grid = parse_grid(f"{start!r}:{stop!r}:{step!r}")
        assert grid[0] == start
        assert len(grid) == int(steps) + 1
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert 0.0 <= grid[0] and grid[-1] <= stop <= 1.0
        assert all(start <= value <= stop for value in grid)

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.integers(0, 10**6).map(lambda k: k / 10**6),
        stop=st.floats(0.0, 1.0),
        points=st.integers(1, 1000),
        shortfall=st.floats(0.0, 2e-9),
    )
    def test_steps_just_short_of_dividing_the_range(self, start, stop, points, shortfall):
        assume(stop > start)
        step = (stop - start) / (points - shortfall)
        assume(step >= 1e-4)  # finer steps may collide under the 12-digit rounding
        grid = parse_grid(f"{start!r}:{stop!r}:{step!r}")
        assert len(grid) in (points, points + 1)
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert all(start <= value <= stop for value in grid)


class TestAnalyze:
    def test_reduced_model_report(self, capsys, m1_model_file):
        code, out, err = run(capsys, "analyze", m1_model_file)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["gap"]["error"] == pytest.approx(0.001, abs=1e-12)
        assert report["gap"]["G"] == pytest.approx(0.201, abs=1e-12)
        assert report["bounds"]["best"] == pytest.approx(0.04, abs=1e-12)
        assert report["structure"]["eps_B1"] == pytest.approx(0.2, abs=1e-12)
        assert report["independence"] is None

    def test_best_skips_undershooting_stated_bound(self, capsys, tmp_path):
        # gamma_B1 = 0 < gamma_B2 drives the stated bound to 0 below the error
        model = ReducedModel(
            slice0=SliceParams(p=0.5, r=0.5, a=0.5, b=0.9, c=0.1),
            slice1=SliceParams(p=0.2, r=0.2, a=0.5, b=0.9, c=0.1),
        )
        path = tmp_path / "model.json"
        write_json(path, model_payload(model))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["gap"]["error"] == pytest.approx(0.24, abs=1e-12)
        assert report["bounds"]["bound_combined_stated"] == pytest.approx(0.0, abs=1e-12)
        assert report["bounds"]["best"] == report["bounds"]["bound_combined_proof"]
        assert report["bounds"]["best"] == pytest.approx(0.24, abs=1e-12)

    def test_joint_model_includes_diagnostics(self, capsys, tmp_path):
        from gap_gauge import consistent_marginals, expand

        joint = expand(M1_WITH_D, consistent_marginals(M1_WITH_D))
        path = tmp_path / "joint.json"
        write_json(path, model_payload(joint))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["independence"] is not None
        assert report["independence"]["case1_holds"] is False
        assert report["gap"]["error"] == pytest.approx(0.001, abs=1e-10)

    def test_failed_manifest_changes_no_report(
        self, capsys, monkeypatch, m1_model_file, tmp_path
    ):
        report = str(tmp_path / "report")
        code, _, _ = run(capsys, "analyze", m1_model_file, "--out", report)
        assert code == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        fail_partway(monkeypatch, "manifest")
        for out in (report, str(tmp_path / "fresh")):
            code, stdout, err = run(
                capsys, "analyze", m1_model_file, "--format", "csv", "--out", out
            )
            assert (code, stdout, err) == (2, "", "gap-gauge: disk full\n")
            assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_uniform_joint_has_no_gap(self, capsys, tmp_path):
        path = tmp_path / "uniform.json"
        write_json(path, model_payload(FullJoint(cells=np.full(16, 1 / 16))))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["gap"]["G"] == pytest.approx(0.0, abs=1e-12)
        assert report["gap"]["G_hat"] == pytest.approx(0.0, abs=1e-12)
        assert report["independence"]["case1_holds"] is True

    def test_empty_v0_vhat0_cells_skip_diagnostics(self, capsys, tmp_path):
        # only d and the diagnostics condition on (v=0, vhat=0), empty in slice 0
        cells = np.full(16, 1 / 14)
        cells[[0, 1]] = 0.0
        path = tmp_path / "joint.json"
        write_json(path, model_payload(FullJoint(cells=cells)))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["independence"] is None
        assert report["gap"]["error"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tol", ["-5", "nan", "2"])
    @pytest.mark.parametrize("kind", ["reduced", "joint", "joint_without_v0_vhat0"])
    def test_bad_tol_exits_2_for_every_model(self, capsys, tmp_path, m1_joint, kind, tol):
        # also where no diagnostics run, which are all that read --tol
        cells = np.full(16, 1 / 14)
        cells[[0, 1]] = 0.0
        model = {"reduced": M1, "joint": m1_joint, "joint_without_v0_vhat0": FullJoint(cells=cells)}
        path = tmp_path / "model.json"
        write_json(path, model_payload(model[kind]))
        code, out, err = run(capsys, "analyze", str(path), "--tol", tol)
        assert (code, out) == (2, "")
        assert err == f"gap-gauge: tol must lie in [0, 1], got {float(tol)!r}\n"

    def test_invalid_model_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        payload = model_payload(M1)
        payload["reduced"]["slice0"]["p"] = 1.2
        write_json(path, payload)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "p" in err and "1.2" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
        assert code == 2
        assert err != ""

    def test_zero_mass_joint_exits_3(self, capsys, tmp_path):
        cells = np.zeros(16)
        cells[0b0111] = 0.5  # all mass on l=0
        cells[0b0000] = 0.5
        path = tmp_path / "degenerate.json"
        write_json(path, model_payload(FullJoint(cells=cells)))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 3
        assert "zero mass" in err

    def test_csv_format(self, capsys, m1_model_file):
        code, out, _ = run(capsys, "analyze", m1_model_file, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert float(fields["gap.error"]) == pytest.approx(0.001, abs=1e-12)
        assert fields["independence"] == ""

    def test_csv_field_order_with_diagnostics(self, capsys, m1_joint, tmp_path):
        path = tmp_path / "joint.json"
        write_json(path, model_payload(m1_joint))
        code, out, _ = run(capsys, "analyze", str(path), "--format", "csv")
        assert code == 0
        assert field_column(out) == (
            ["field"] + prefixed("gap", GAP_FIELDS)
            + prefixed("structure", STRUCTURE_FIELDS) + prefixed("bounds", BOUND_FIELDS)
            + prefixed("independence", INDEPENDENCE_FIELDS)
        )

    def test_non_utf8_model_exits_2(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(NOT_UTF8)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "model.json" in err and "UTF-8" in err

    def test_out_file_and_manifest(self, capsys, m1_model_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", m1_model_file, "--out", str(out_path))
        assert code == 0
        assert out == ""  # nothing on stdout when writing to a file
        report = json.loads(out_path.read_text())
        assert report["bounds"]["best"] == pytest.approx(0.04, abs=1e-12)
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["seed"] == 42
        assert list(manifest["inputs"]) == [m1_model_file]
        assert manifest["inputs"][m1_model_file].startswith("sha256:")
        assert manifest["outputs"] == [str(out_path)]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m1.json", "report.json", "report.json.manifest.json",
        ]

    def test_stdout_run_writes_no_manifest(self, capsys, m1_model_file, tmp_path):
        code, _, _ = run(capsys, "analyze", m1_model_file)
        assert code == 0
        assert not list(tmp_path.glob("*manifest*"))


class TestSimulate:
    def test_writes_outputs_and_manifest(self, capsys, constrained_config_file, tmp_path):
        prefix = str(tmp_path / "run")
        code, _, err = run(
            capsys, "simulate", constrained_config_file,
            "--trials", "200", "--out", prefix,
        )
        assert code == 0, err
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["n_trials"] == 200
        assert summary["seed"] == 42
        assert summary["rejection_rate"] > 0.0
        errors = (tmp_path / "run.errors.csv").read_text().splitlines()
        assert errors[0] == "error"
        assert len(errors) == 201
        hist = (tmp_path / "run.hist.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["trials"] == 200
        assert manifest["config"]["sampler"]["eps_b1"] == 0.2
        assert len(manifest["outputs"]) == 3

    @pytest.mark.parametrize("payload", [
        {**CLASSIFIER, "mode": "unconstrained"},
        {**CLASSIFIER, "mode": "constrained", "eps_b1": 0.2, "eps_b2": 0.4, "max_rejections": 500},
    ], ids=["unconstrained", "constrained"])
    def test_manifest_sampler_reruns_the_study(self, capsys, tmp_path, payload):
        config_file = tmp_path / "config.json"
        write_json(config_file, payload)
        out = str(tmp_path / "run")
        code, _, err = run(capsys, "simulate", str(config_file), "--trials", "50", "--out", out)
        assert code == 0, err
        sampler = json.loads(Path(out + ".manifest.json").read_text())["config"]["sampler"]
        # every field is listed; an absent budget as null
        assert set(sampler) == {f.name for f in fields(SamplerConfig)}
        assert from_dict(SamplerConfig, sampler, "sampler") == load_sampler_config(config_file)

    def test_rerun_is_byte_identical(self, capsys, constrained_config_file, tmp_path):
        for prefix in ("one", "two"):
            code, _, _ = run(
                capsys, "simulate", constrained_config_file,
                "--trials", "150", "--out", str(tmp_path / prefix),
            )
            assert code == 0
        for suffix in (".summary.json", ".errors.csv", ".hist.csv"):
            assert (tmp_path / ("one" + suffix)).read_bytes() == (
                tmp_path / ("two" + suffix)
            ).read_bytes()

    def test_seed_flag_changes_results(self, capsys, constrained_config_file, tmp_path):
        for prefix, seed in (("a", "42"), ("b", "43")):
            run(
                capsys, "simulate", constrained_config_file,
                "--trials", "150", "--seed", seed, "--out", str(tmp_path / prefix),
            )
        assert (tmp_path / "a.errors.csv").read_text() != (
            tmp_path / "b.errors.csv"
        ).read_text()

    @pytest.mark.parametrize("failing", ["write_errors_csv", "write_histogram_csv", "manifest"])
    def test_failed_write_changes_no_result_file(
        self, capsys, monkeypatch, constrained_config_file, tmp_path, failing
    ):
        prefix = str(tmp_path / "run")
        code, _, _ = run(
            capsys, "simulate", constrained_config_file, "--trials", "150", "--out", prefix
        )
        assert code == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        fail_partway(monkeypatch, failing)
        for out in (prefix, str(tmp_path / "fresh")):
            code, _, err = run(
                capsys, "simulate", constrained_config_file,
                "--trials", "150", "--seed", "7", "--out", out,
            )
            assert (code, err) == (2, "gap-gauge: disk full\n")
            assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_directory_in_place_of_an_output_changes_no_file(
        self, capsys, request, constrained_config_file, tmp_path
    ):
        prefix = str(tmp_path / "run")
        argv = ["simulate", constrained_config_file, "--trials", "150", "--out", prefix]
        assert run(capsys, *argv)[0] == 0
        (tmp_path / "run.hist.csv").unlink()
        (tmp_path / "run.hist.csv").mkdir()
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        # the path is refused before the engine runs, not after
        calls = request.getfixturevalue("no_monte_carlo")
        code, out, err = run(capsys, *argv, "--seed", "7")
        assert (code, out) == (2, "")
        assert err == f"gap-gauge: [Errno 21] Is a directory: '{prefix}.hist.csv'\n"
        assert calls == []
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "config.json", "run.errors.csv", "run.hist.csv", "run.manifest.json", "run.summary.json",
        ]

    def test_env_seed_used_when_no_flag(
        self, capsys, monkeypatch, constrained_config_file, tmp_path
    ):
        monkeypatch.setenv("GAPGAUGE_SEED", "7")
        run(
            capsys, "simulate", constrained_config_file,
            "--trials", "100", "--out", str(tmp_path / "env"),
        )
        summary = json.loads((tmp_path / "env.summary.json").read_text())
        assert summary["seed"] == 7

    def test_seed_flag_beats_env(
        self, capsys, monkeypatch, constrained_config_file, tmp_path
    ):
        monkeypatch.setenv("GAPGAUGE_SEED", "7")
        run(
            capsys, "simulate", constrained_config_file,
            "--trials", "100", "--seed", "9", "--out", str(tmp_path / "flag"),
        )
        summary = json.loads((tmp_path / "flag.summary.json").read_text())
        assert summary["seed"] == 9

    def test_bad_env_seed_exits_2(
        self, capsys, monkeypatch, constrained_config_file, tmp_path
    ):
        monkeypatch.setenv("GAPGAUGE_SEED", "many")
        code, _, err = run(
            capsys, "simulate", constrained_config_file,
            "--trials", "100", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "GAPGAUGE_SEED" in err

    def test_largest_env_seed_accepted(
        self, capsys, monkeypatch, constrained_config_file, tmp_path
    ):
        monkeypatch.setenv("GAPGAUGE_SEED", str(2**64 - 1))
        code, _, _ = run(
            capsys, "simulate", constrained_config_file,
            "--trials", "20", "--out", str(tmp_path / "top"),
        )
        assert code == 0
        summary = json.loads((tmp_path / "top.summary.json").read_text())
        assert summary["seed"] == 2**64 - 1

    @pytest.mark.parametrize("value", [str(2**64), "-1", "true", ""])
    def test_env_seed_outside_contract_exits_2(
        self, capsys, monkeypatch, constrained_config_file, tmp_path, value
    ):
        monkeypatch.setenv("GAPGAUGE_SEED", value)
        code, out, err = run(
            capsys, "simulate", constrained_config_file,
            "--trials", "20", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err.startswith("gap-gauge: ") and "Traceback" not in err
        assert "seed" in err.lower()
        assert list(tmp_path.glob("x*")) == []

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**20])
    def test_trials_above_cap_exit_2_before_allocating(
        self, capsys, monkeypatch, constrained_config_file, tmp_path, trials
    ):
        def no_allocation(*args, **kwargs):
            raise AssertionError("an array was allocated")

        monkeypatch.setattr(np, "empty", no_allocation)
        code, _, err = run(
            capsys, "simulate", constrained_config_file,
            "--trials", str(trials), "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"gap-gauge: n_trials must be at most {MAX_TRIALS}, got {trials}\n"
        assert list(tmp_path.glob("x*")) == []

    @pytest.mark.parametrize("bins", [MAX_BINS + 1, 10**20])
    def test_bins_above_cap_exit_2_before_any_trial(
        self, capsys, monkeypatch, constrained_config_file, tmp_path, bins
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(simulation, "_block_errors", no_trial)
        code, _, err = run(
            capsys, "simulate", constrained_config_file,
            "--trials", "100", "--bins", str(bins), "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"gap-gauge: bins must be at most {MAX_BINS}, got {bins}\n"
        assert list(tmp_path.glob("x*")) == []

    def test_format_is_not_an_option(self, capsys, constrained_config_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "simulate", constrained_config_file, "--trials", "10",
                "--out", str(tmp_path / "x"), "--format", "csv",
            ])
        assert err.value.code == 2
        assert list(tmp_path.glob("x*")) == []

    def test_budget_exhaustion_exits_4(self, capsys, tmp_path):
        config = tmp_path / "tight.json"
        write_json(
            config,
            {
                **CLASSIFIER, "mode": "constrained",
                "eps_b1": 1.0, "eps_b2": 1.0, "max_rejections": 1,
            },
        )
        code, _, err = run(
            capsys, "simulate", str(config),
            "--trials", "2000", "--out", str(tmp_path / "run"),
        )
        assert code == 4
        assert "no valid sample" in err

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(NOT_UTF8)
        code, _, err = run(capsys, "simulate", str(path), "--out", str(tmp_path / "r"))
        assert code == 2
        assert "config.json" in err and "UTF-8" in err
        assert not list(tmp_path.glob("r.*"))

    def test_unconstrained_config(self, capsys, tmp_path):
        config = tmp_path / "plain.json"
        write_json(config, {**CLASSIFIER, "mode": "unconstrained"})
        code, _, err = run(
            capsys, "simulate", str(config),
            "--trials", "100", "--out", str(tmp_path / "run"),
        )
        assert code == 0, err
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["rejection_rate"] == 0.0


class TestSweep:
    def test_writes_expected_columns(self, capsys, constrained_config_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "sweep", constrained_config_file,
            "--varied", "eps_b2", "--grid", "0:0.4:0.2",
            "--trials", "40", "--out", str(out),
        )
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "grid_value,p95,bound_a,bound_combined_stated,bound_combined_proof"
        assert len(lines) == 4

    def test_stated_column_follows_formula(self, capsys, constrained_config_file, tmp_path):
        # varied eps_b2 with eps_b1 fixed at 0.2:
        # stated = 2 gamma_B2 + eps_b2 (2 gamma_A + gamma_B1) + eps_b1 gamma_B1
        out = tmp_path / "sweep.csv"
        run(
            capsys, "sweep", constrained_config_file,
            "--varied", "eps_b2", "--grid", "0:1:0.25",
            "--trials", "20", "--out", str(out),
        )
        for line in out.read_text().splitlines()[1:]:
            g, _, _, stated, _ = (float(x) for x in line.split(","))
            expected = 2 * 0.02 + g * (2 * 0.1 + 0.05) + 0.2 * 0.05
            assert stated == pytest.approx(expected, abs=1e-12)

    def test_rerun_is_byte_identical(self, capsys, constrained_config_file, tmp_path):
        for name in ("one.csv", "two.csv"):
            run(
                capsys, "sweep", constrained_config_file,
                "--varied", "eps_b1", "--grid", "0:0.2:0.1",
                "--trials", "40", "--out", str(tmp_path / name),
            )
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_zero_step_exits_2(self, capsys, constrained_config_file, tmp_path):
        code, _, err = run(
            capsys, "sweep", constrained_config_file,
            "--varied", "eps_b2", "--grid", "0:1:0",
            "--trials", "10", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize("grid", ["0:nan:0.1", "0:inf:0.1", "0:1:inf"])
    def test_non_finite_grid_exits_2(self, capsys, constrained_config_file, tmp_path, grid):
        code, _, err = run(
            capsys, "sweep", constrained_config_file,
            "--varied", "eps_b2", "--grid", grid,
            "--trials", "10", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "finite" in err

    def test_unconstrained_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "plain.json"
        write_json(config, {**CLASSIFIER, "mode": "unconstrained"})
        code, _, err = run(
            capsys, "sweep", str(config),
            "--varied", "eps_b2", "--grid", "0:0.2:0.1",
            "--trials", "10", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "constrained" in err

    @pytest.mark.parametrize("option", [["--bins", "7"], ["--format", "csv"]])
    def test_rejects_options_it_does_not_read(
        self, capsys, constrained_config_file, tmp_path, option
    ):
        with pytest.raises(SystemExit) as err:
            main([
                "sweep", constrained_config_file, "--varied", "eps_b2", "--grid", "0:0.2:0.1",
                "--trials", "10", "--out", str(tmp_path / "s.csv"), *option,
            ])
        assert err.value.code == 2
        assert not list(tmp_path.glob("s.csv*"))

    def test_exhaustion_names_the_grid_point_and_leaves_nothing(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, {
            **CLASSIFIER, "mode": "constrained", "eps_b1": 0.2, "eps_b2": 0.2,
            "max_rejections": 5,
        })
        code, out, err = run(
            capsys, "sweep", str(config), "--varied", "eps_b2", "--grid", "0:1:1",
            "--trials", "200", "--seed", "42", "--out", str(tmp_path / "sw.csv"),
        )
        assert (code, out) == (4, "")
        assert err == (
            "gap-gauge: no valid sample after 5 attempts at trial 0 of eps_b2 = 1.0\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        # simulate at that point still names the trial alone
        write_json(config, {
            **CLASSIFIER, "mode": "constrained", "eps_b1": 0.2, "eps_b2": 1.0,
            "max_rejections": 5,
        })
        code, _, err = run(
            capsys, "simulate", str(config), "--trials", "200", "--seed", "42",
            "--out", str(tmp_path / "sim"),
        )
        assert code == 4
        assert err.startswith("gap-gauge: no valid sample after 5 attempts at trial ")
        assert " of " not in err

    def test_manifest_records_grid(self, capsys, constrained_config_file, tmp_path):
        out = tmp_path / "sweep.csv"
        run(
            capsys, "sweep", constrained_config_file,
            "--varied", "eps_b2", "--grid", "0:0.2:0.1",
            "--trials", "20", "--out", str(out),
        )
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["config"]["varied"] == "eps_b2"
        assert manifest["config"]["grid"] == "0:0.2:0.1"
        assert "bins" not in manifest["config"]


class TestEstimate:
    @pytest.fixture
    def records_file(self, tmp_path, m1_joint):
        from gap_gauge import sample_dataset

        data = sample_dataset(m1_joint, 5000, seed=3)
        path = tmp_path / "records.csv"
        rows = ["l,v,vhat,y"]
        rows += [
            f"{l},{v},{vh},{y}"
            for l, v, vh, y in zip(data.l, data.v, data.vhat, data.y)
        ]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_full_pipeline(self, capsys, records_file):
        code, out, err = run(capsys, "estimate", records_file)
        assert code == 0, err
        report = json.loads(out)
        assert report["n"] == 5000
        assert report["gap"]["G_hat"] == pytest.approx(0.202, abs=0.05)
        assert report["bounds"]["best"] > 0.0
        assert report["bootstrap_ci"] is None

    def test_no_v_column_reports_g_hat_only(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("l,v,vhat,y\n0,,1,1\n0,,1,0\n1,,1,1\n1,,1,1\n1,,1,0\n0,,0,0\n")
        code, out, _ = run(capsys, "estimate", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["gap"] is None
        assert report["structure"] is None
        assert report["bounds"] is None
        assert report["g_hat"] == pytest.approx(1 / 6, abs=1e-12)

    def test_bootstrap_deterministic(self, capsys, records_file):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "estimate", records_file, "--bootstrap", "25"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        ci = report["bootstrap_ci"]
        assert ci["replicates"] == 25
        lo, hi = ci["intervals"]["G_hat"]
        assert lo <= report["gap"]["G_hat"] <= hi

    def test_condition_ystar_missing_column_exits_2(self, capsys, records_file):
        code, _, err = run(capsys, "estimate", records_file, "--condition-ystar")
        assert code == 2
        assert "ystar" in err

    def test_condition_ystar_filters(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        rows = ["l,v,vhat,y,ystar"]
        for i in range(16):
            l, v, vh, y = i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1
            rows.append(f"{l},{v},{vh},{y},1")
            rows.append(f"{l},{v},{vh},{1 - y},0")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "estimate", str(path), "--condition-ystar")
        assert code == 0
        assert json.loads(out)["n"] == 16

    def test_malformed_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("l,v,vhat,y\n0,2,1,1\n")
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 2
        assert "line 2" in err

    def test_cell_over_the_csv_field_limit_exits_2(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("l,v,vhat,y\n0,1,1,1\n" + "1" * 200_000 + ",1,1,1\n")
        code, out, err = run(capsys, "estimate", str(path), "--out", str(tmp_path / "rep.json"))
        assert (code, out) == (2, "")
        assert err == "gap-gauge: line 3: field larger than field limit (131072)\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]

    def test_non_utf8_records_exits_2(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(b"l,v,vhat,y\n0,1,1,1\n\xff,1,1,1\n")
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 2
        assert "records.csv" in err and "UTF-8" in err

    def test_csv_field_order_with_v(self, capsys, records_file):
        code, out, _ = run(
            capsys, "estimate", records_file, "--bootstrap", "5", "--format", "csv"
        )
        assert code == 0
        assert field_column(out) == (
            ["field", "n"] + [f"counts[{i}]" for i in range(16)]
            + ["counts_index", "g_hat", "smoothing"]
            + prefixed("gap", GAP_FIELDS) + prefixed("structure", STRUCTURE_FIELDS)
            + prefixed("bounds", BOUND_FIELDS)
            + interval_fields("G", "G_hat", "best_bound", "delta0", "delta1", "error")
            + BOOTSTRAP_TAIL
        )

    def test_csv_field_order_without_v(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("l,v,vhat,y\n0,,1,1\n0,,1,0\n1,,1,1\n1,,1,1\n1,,1,0\n0,,0,0\n")
        code, out, _ = run(
            capsys, "estimate", str(path), "--bootstrap", "5", "--format", "csv"
        )
        assert code == 0
        assert field_column(out) == (
            ["field", "n"] + [f"counts[{i}]" for i in range(8)]
            + ["counts_index", "g_hat", "smoothing", "gap", "structure", "bounds"]
            + interval_fields("G_hat") + BOOTSTRAP_TAIL
        )

    @pytest.mark.parametrize("v", ["", "1"])
    @pytest.mark.parametrize("smoothing", ["inf", "1e308"])
    def test_smoothing_without_a_finite_joint_exits_2(self, capsys, tmp_path, v, smoothing):
        path = tmp_path / "records.csv"
        path.write_text(f"l,v,vhat,y\n0,{v},1,1\n0,{v},0,0\n1,{v},1,1\n1,{v},0,0\n")
        code, out, err = run(capsys, "estimate", str(path), "--smoothing", smoothing)
        assert (code, out) == (2, "")
        assert err == (
            f"gap-gauge: smoothing must be a finite number >= 0, got {float(smoothing)!r}\n"
        )

    @pytest.mark.parametrize("bootstrap", ["0", "5"])
    @pytest.mark.parametrize("level", ["5", "nan", "0"])
    def test_bad_level_exits_2_with_or_without_bootstrap(
        self, capsys, records_file, bootstrap, level
    ):
        code, out, err = run(
            capsys, "estimate", records_file, "--bootstrap", bootstrap, "--level", level
        )
        assert (code, out) == (2, "")
        assert err == f"gap-gauge: level must lie in (0, 1), got {float(level)!r}\n"

    def test_header_only_exits_3(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("l,v,vhat,y\n")
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 3

    def test_zero_mass_exits_3(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("l,v,vhat,y\n0,,1,1\n0,,0,0\n1,,0,0\n")
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 3
        assert "vhat=1" in err

    def test_zero_mass_event_is_named_alike_with_and_without_v(self, capsys, tmp_path):
        # every slice-0 cell has a row; slice 1 has no vhat=1 row
        rows = [(0, v, vhat, y) for v in (0, 1) for vhat in (0, 1) for y in (0, 1)]
        rows += [(1, v, 0, y) for v in (0, 1) for y in (0, 1)]
        errs = []
        for name, show_v in (("with_v.csv", True), ("without_v.csv", False)):
            path = tmp_path / name
            path.write_text("l,v,vhat,y\n" + "".join(
                f"{l},{v if show_v else ''},{vhat},{y}\n" for l, v, vhat, y in rows
            ))
            code, out, err = run(capsys, "estimate", str(path))
            assert (code, out) == (3, "")
            errs.append(err)
        assert errs == ["gap-gauge: conditioning event has zero mass: l=1, vhat=1\n"] * 2

    def test_out_file_and_manifest(self, capsys, records_file, tmp_path):
        out_path = tmp_path / "estimate.json"
        code, _, _ = run(
            capsys, "estimate", records_file, "--out", str(out_path)
        )
        assert code == 0
        manifest = json.loads((tmp_path / "estimate.json.manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert manifest["config"]["bootstrap"] == 0
        assert manifest["config"]["workers"] == 1

    PIPE_CONTENTS = {
        "canonical": b"l,v,vhat,y\n" + b"".join(
            f"{i >> 3 & 1},{i >> 2 & 1},{i >> 1 & 1},{i & 1}\n".encode() for i in range(48)
        ),
        "no v": b"l,v,vhat,y\n0,,1,1\n0,,1,0\n1,,1,1\n1,,1,1\n1,,1,0\n0,,0,0\n",
        "CRLF": b"l,v,vhat,y,ystar\r\n" + b"".join(
            f"{i >> 3 & 1},{i >> 2 & 1},{i >> 1 & 1},{i & 1},1\r\n".encode() for i in range(32)
        ),
        "no final newline": b"l,v,vhat,y\n0,,1,1\n0,,1,0\n1,,1,1\n1,,0,0",
        "bad cell": b"l,v,vhat,y\n0,1,1,1\n0,1,2,1\n",
    }

    @pytest.mark.parametrize("case", sorted(PIPE_CONTENTS))
    def test_pipe_reads_like_a_file(self, capsys, tmp_path, pipe_path, case):
        content = self.PIPE_CONTENTS[case]
        path = tmp_path / "records.csv"
        path.write_bytes(content)
        from_file = run(capsys, "estimate", str(path), "--bootstrap", "5")
        assert run(capsys, "estimate", pipe_path(content), "--bootstrap", "5") == from_file
        assert from_file[0] == (2 if case == "bad cell" else 0)

    @pytest.mark.parametrize("case", ["canonical", "no v", "CRLF"])
    def test_manifest_digest_is_of_the_bytes_parsed(self, capsys, tmp_path, pipe_path, case):
        content = self.PIPE_CONTENTS[case]
        path = tmp_path / "records.csv"
        path.write_bytes(content)
        for data in (str(path), pipe_path(content)):
            out = tmp_path / "estimate.json"
            code, _, err = run(capsys, "estimate", data, "--out", str(out))
            assert code == 0, err
            manifest = json.loads((tmp_path / "estimate.json.manifest.json").read_text())
            assert manifest["inputs"] == {
                data: "sha256:" + hashlib.sha256(content).hexdigest()
            }

    @pytest.mark.parametrize("v_present", [True, False])
    def test_same_report_in_every_block_layout(self, capsys, tmp_path, m1_joint, v_present):
        from gap_gauge import sample_dataset

        data = sample_dataset(m1_joint, 300, seed=4)
        reports = set()
        for bom, eol, ystar in itertools.product(
            (b"", b"\xef\xbb\xbf"), (b"\n", b"\r\n"), ("absent", "present", "empty")
        ):
            lines = [b"l,v,vhat,y" + (b"" if ystar == "absent" else b",ystar")]
            for i, (l, v, vhat, y) in enumerate(zip(data.l, data.v, data.vhat, data.y)):
                cells = [str(l), str(v) if v_present else "", str(vhat), str(y)]
                if ystar != "absent":
                    cells.append(str(i % 2) if ystar == "present" else "")
                lines.append(",".join(cells).encode())
            path = tmp_path / "records.csv"
            path.write_bytes(bom + eol.join(lines) + eol)
            code, out, err = run(capsys, "estimate", str(path), "--bootstrap", "10")
            assert code == 0, err
            reports.add(out)
        assert len(reports) == 1

    def test_manifest_records_workers(self, capsys, records_file, tmp_path):
        out_path = tmp_path / "estimate.json"
        code, _, err = run(
            capsys, "estimate", records_file, "--bootstrap", "5", "--workers", "3",
            "--out", str(out_path),
        )
        assert code == 0, err
        manifest = json.loads((tmp_path / "estimate.json.manifest.json").read_text())
        assert manifest["config"]["workers"] == 3

    @pytest.mark.parametrize("replicates", [MAX_REPLICATES + 1, 10**20])
    def test_bootstrap_above_cap_exits_2_before_drawing(
        self, capsys, monkeypatch, records_file, tmp_path, replicates
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(empirical, "_resample_counts", no_draw)
        code, _, err = run(
            capsys, "estimate", records_file, "--bootstrap", str(replicates),
            "--out", str(tmp_path / "estimate.json"),
        )
        assert code == 2
        assert err == (
            f"gap-gauge: replicates must be at most {MAX_REPLICATES}, got {replicates}\n"
        )
        assert list(tmp_path.glob("estimate*")) == []

    @pytest.mark.parametrize("replicates, message", [
        (MAX_REPLICATES + 1, f"at most {MAX_REPLICATES}, got {MAX_REPLICATES + 1}"),
        (-1, "a positive integer, got -1"),
    ])
    def test_bad_bootstrap_exits_2_before_the_point_estimate(
        self, capsys, tmp_path, replicates, message
    ):
        # the point estimate of these rows raises ZeroMassCondition, exit 3
        path = tmp_path / "records.csv"
        path.write_text("l,v,vhat,y\n0,1,1,1\n1,1,1,0\n0,1,0,1\n1,0,1,1\n")
        code, out, err = run(capsys, "estimate", str(path), "--bootstrap", str(replicates))
        assert (code, out, err) == (2, "", f"gap-gauge: replicates must be {message}\n")


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_missing_directory_fails_before_sampling(
        self, capsys, no_monte_carlo, constrained_config_file, tmp_path, command
    ):
        out = str(tmp_path / "no" / "such" / "x")
        extra = ["--varied", "eps_b2", "--grid", "0:0.2:0.1"] if command == "sweep" else []
        code, _, err = run(
            capsys, command, constrained_config_file, *extra, "--trials", "50", "--out", out
        )
        first = out + ".summary.json" if command == "simulate" else out
        assert code == 2
        assert err == f"gap-gauge: [Errno 2] No such file or directory: '{first}.tmp'\n"
        assert no_monte_carlo == []

    def test_analyze_and_estimate_check_out(self, capsys, m1_model_file, tmp_path):
        records = tmp_path / "records.csv"
        # too few rows to estimate from (exit 3), so only a check made
        # before estimating can give exit 2
        records.write_text("l,v,vhat,y\n0,1,1,1\n1,1,1,0\n")
        blocker = tmp_path / "file.txt"
        blocker.write_text("")
        out = str(blocker / "report.json")
        for argv in (["analyze", m1_model_file], ["estimate", str(records)]):
            code, stdout, err = run(capsys, *argv, "--out", out)
            assert code == 2
            assert out in err and stdout == ""

    def test_directory_output_outranks_an_undefined_result(self, capsys, tmp_path):
        # the joint alone exits 3 (zero mass); the output path is refused first
        cells = np.zeros(16)
        cells[0b0111] = cells[0b0000] = 0.5
        model = tmp_path / "degenerate.json"
        write_json(model, model_payload(FullJoint(cells=cells)))
        out = tmp_path / "report.json"
        out.mkdir()
        code, stdout, err = run(capsys, "analyze", str(model), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"gap-gauge: [Errno 21] Is a directory: '{out}'\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["degenerate.json", "report.json"]
        assert not any(out.iterdir())

    def test_unwritable_directory_exits_2(
        self, capsys, monkeypatch, no_monte_carlo, constrained_config_file, tmp_path
    ):
        # permission bits do not stop a superuser, so the OS refusal is faked
        real_open = builtins.open

        def open_(file, *args, **kwargs):
            if str(file).endswith(".tmp"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_)
        out = str(tmp_path / "run")
        code, _, err = run(capsys, "simulate", constrained_config_file, "--out", out)
        assert code == 2
        assert err == f"gap-gauge: [Errno 13] Permission denied: '{out}.summary.json.tmp'\n"
        assert no_monte_carlo == []
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_temporary_that_is_a_directory_fails_before_sampling(
        self, capsys, request, constrained_config_file, tmp_path
    ):
        prefix = str(tmp_path / "run")
        argv = ["simulate", constrained_config_file, "--trials", "150", "--out", prefix]
        assert run(capsys, *argv)[0] == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        blocker = tmp_path / "run.hist.csv.tmp"
        blocker.mkdir()
        calls = request.getfixturevalue("no_monte_carlo")
        code, out, err = run(capsys, *argv, "--seed", "7")
        assert (code, out) == (2, "")
        assert err == f"gap-gauge: [Errno 21] Is a directory: '{blocker}'\n"
        assert calls == []
        assert blocker.is_dir() and not any(blocker.iterdir())
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*before, blocker.name])

    def test_temporary_that_is_a_directory_outranks_an_undefined_result(
        self, capsys, monkeypatch, tmp_path
    ):
        # the joint alone exits 3 (zero mass); the model is never read
        cells = np.zeros(16)
        cells[0b0111] = cells[0b0000] = 0.5
        model = tmp_path / "degenerate.json"
        write_json(model, model_payload(FullJoint(cells=cells)))
        loaded = []
        monkeypatch.setattr(cli, "load_model_file", lambda *args: loaded.append(args))
        monkeypatch.setattr(cli, "compute_gaps", lambda *args: pytest.fail("the command ran"))
        out = tmp_path / "rep.json"
        blocker = tmp_path / "rep.json.tmp"
        blocker.mkdir()
        code, stdout, err = run(capsys, "analyze", str(model), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"gap-gauge: [Errno 21] Is a directory: '{blocker}'\n"
        assert loaded == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["degenerate.json", "rep.json.tmp"]
        assert not any(blocker.iterdir())

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "estimate"])
    def test_empty_out_fails_before_the_input_is_read(
        self, capsys, monkeypatch, no_monte_carlo, m1_model_file, constrained_config_file,
        tmp_path, command,
    ):
        records = tmp_path / "records.csv"
        records.write_text("l,v,vhat,y\n0,1,1,1\n1,1,1,0\n")
        argv = {
            "analyze": [m1_model_file],
            "simulate": [constrained_config_file, "--trials", "50"],
            "sweep": [constrained_config_file, "--varied", "eps_b2", "--grid", "0:0.2:0.1"],
            "estimate": [str(records)],
        }[command]
        read = []
        for owner, loader in (
            (cli, "load_model_file"), (cli, "load_sampler_config"),
            (empirical, "read_records_csv"),
        ):
            monkeypatch.setattr(owner, loader, lambda *args: read.append(args))
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, command, *argv, "--out", "")
        assert (code, out) == (2, "")
        assert err == "gap-gauge: [Errno 2] No such file or directory: ''\n"
        assert read == [] and no_monte_carlo == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "estimate"])
    @pytest.mark.parametrize("exists", [True, False], ids=["directory", "missing"])
    def test_out_ending_in_a_separator_fails_before_the_input_is_read(
        self, capsys, monkeypatch, no_monte_carlo, m1_model_file, constrained_config_file,
        tmp_path, command, exists,
    ):
        # the suffixes would name hidden files in the directory, '.manifest.json' among them
        records = tmp_path / "records.csv"
        records.write_text("l,v,vhat,y\n0,1,1,1\n1,1,1,0\n")
        argv = {
            "analyze": [m1_model_file],
            "simulate": [constrained_config_file, "--trials", "50"],
            "sweep": [constrained_config_file, "--varied", "eps_b2", "--grid", "0:0.2:0.1"],
            "estimate": [str(records)],
        }[command]
        read = []
        for owner, loader in (
            (cli, "load_model_file"), (cli, "load_sampler_config"),
            (empirical, "read_records_csv"),
        ):
            monkeypatch.setattr(owner, loader, lambda *args: read.append(args))
        outdir = tmp_path / "outdir"
        if exists:
            outdir.mkdir()
        before = sorted(tmp_path.iterdir())
        out_arg = str(outdir) + os.sep
        code, out, err = run(capsys, command, *argv, "--out", out_arg)
        assert (code, out) == (2, "")
        assert err == f"gap-gauge: [Errno 21] Is a directory: {out_arg!r}\n"
        assert read == [] and no_monte_carlo == []
        assert sorted(tmp_path.iterdir()) == before
        assert not exists or not any(outdir.iterdir())


class TestManifestInputs:
    """Every command digests the bytes it parsed, so a pipe is recorded right."""

    ARGV = {
        "analyze": [],
        "simulate": ["--trials", "50"],
        "sweep": ["--varied", "eps_b2", "--grid", "0:0.2:0.1", "--trials", "50"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_pipe_digest_is_of_the_bytes_sent(
        self, capsys, tmp_path, pipe_path, m1_model_file, constrained_config_file, command
    ):
        path = m1_model_file if command == "analyze" else constrained_config_file
        content = Path(path).read_bytes()
        results = []
        for source in (path, pipe_path(content)):
            out = tmp_path / f"{command}-{len(results)}"
            code, _, err = run(capsys, command, source, *self.ARGV[command], "--out", str(out))
            assert code == 0, err
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            assert manifest["inputs"] == {
                source: "sha256:" + hashlib.sha256(content).hexdigest()
            }
            results.append({
                Path(output).name[len(out.name):]: Path(output).read_bytes()
                for output in manifest["outputs"]
            })
        assert results[0] == results[1]


class TestRenames:
    """``--out`` writes each file straight into its temporary and renames it once."""

    ARGV = {
        "analyze": [],
        "simulate": ["--trials", "50"],
        "sweep": ["--varied", "eps_b2", "--grid", "0:0.2:0.1", "--trials", "50"],
        "estimate": ["--bootstrap", "5"],
    }

    @pytest.mark.parametrize("command, renames", [
        ("analyze", 2), ("simulate", 4), ("sweep", 2), ("estimate", 2),
    ])
    def test_each_file_is_renamed_once(
        self, capsys, monkeypatch, tmp_path, m1_model_file, constrained_config_file,
        m1_joint, command, renames,
    ):
        source = m1_model_file if command == "analyze" else constrained_config_file
        if command == "estimate":
            source = str(tmp_path / "records.csv")
            data = empirical.sample_dataset(m1_joint, 2000, seed=3)
            write_text(source, "l,v,vhat,y\n" + "".join(
                f"{l},{v},{vh},{y}\n" for l, v, vh, y in zip(data.l, data.v, data.vhat, data.y)
            ))
        replaced, opened = [], []
        real_replace, real_open = os.replace, builtins.open

        def replace(src, dst):
            replaced.append((os.fspath(src), os.fspath(dst)))
            real_replace(src, dst)

        def open_(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(builtins, "open", open_)
        out = str(tmp_path / "out")
        code, _, err = run(capsys, command, source, *self.ARGV[command], "--out", out)
        assert code == 0, err
        assert len(replaced) == renames
        assert all(src == dst + ".tmp" for src, dst in replaced)
        assert {dst for _, dst in replaced} == {*json.loads(
            Path(out + ".manifest.json").read_text())["outputs"], out + ".manifest.json"}
        assert not [path for path in opened if path.endswith(".tmp.tmp")]


class TestTopLevel:
    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "gap-gauge" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "estimate"])
    def test_workers_below_one_exits_2(
        self, capsys, m1_model_file, constrained_config_file, tmp_path, command
    ):
        argv = {
            "analyze": [m1_model_file],
            "simulate": [constrained_config_file, "--trials", "10"],
            "sweep": [constrained_config_file, "--varied", "eps_b2", "--grid", "0:0.2:0.1"],
            "estimate": [str(tmp_path / "missing.csv")],
        }[command]
        out = str(tmp_path / "out")
        code, stdout, err = run(capsys, command, *argv, "--workers", "0", "--out", out)
        assert code == 2
        assert err == "gap-gauge: --workers must be at least 1, got 0\n" and stdout == ""
        assert not list(tmp_path.glob("out*"))

    #: the status of each error type, as README's "Exit codes" table gives it
    EXIT_CODES = {
        "GapGaugeError": 2, "ValidationError": 2, "InconsistentMarginals": 2, "MissingCell": 2,
        "MissingColumn": 2, "MalformedRow": 2, "MixedSchema": 2, "OSError": 2,
        "ZeroMassCondition": 3, "EmptyInput": 3, "EmptySample": 3, "AllReplicatesDegenerate": 3,
        "RejectionBudgetExhausted": 4,
    }

    def test_exit_codes_name_every_error(self):
        assert set(self.EXIT_CODES) == {*errors.__all__, "OSError"}

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_each_error_exits_with_its_code(self, capsys, monkeypatch, m1_model_file, name):
        error = getattr(errors, name, OSError)
        exc = error(*{
            "ZeroMassCondition": ("v = 0",), "MalformedRow": (3, "bad cell"),
            "MixedSchema": (3, "mixed"), "RejectionBudgetExhausted": (10, 5),
        }.get(name, ("raised",)))

        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "load_model_file", fail)
        code, out, err = run(capsys, "analyze", m1_model_file)
        assert code == self.EXIT_CODES[name] == getattr(exc, "exit_code", 2)
        assert (out, err) == ("", f"gap-gauge: {exc}\n")

    def test_out_of_range_seed_exits_2(self, capsys, m1_model_file):
        code, _, err = run(capsys, "analyze", m1_model_file, "--seed", "-1")
        assert code == 2
        assert "seed" in err
