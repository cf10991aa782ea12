from __future__ import annotations

import builtins
import csv
import errno
import hashlib
import json
import math
import os
import sys
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gap_gauge import (
    FullJoint,
    Histogram,
    ReducedModel,
    SamplerConfig,
    SimulationResult,
    SliceParams,
    ValidationError,
    bound_report,
    compute_gaps,
    read_records_csv,
    run_monte_carlo,
    structure_params,
    sweep,
)
from gap_gauge import files
from gap_gauge.cli import main
from gap_gauge.files import (
    _CHUNK,
    SWEEP_HEADER,
    atomic_paths,
    dumps_json,
    from_dict,
    load_model_file,
    load_sampler_config,
    model_from_dict,
    result_dict,
    write_errors_csv,
    write_histogram_csv,
    write_json,
    write_sweep_csv,
)

from conftest import model_payload

CLASSIFIER = {"p0": 0.05, "r0": 0.1, "p1": 0.07, "r1": 0.09}
HUGE = 10**400  # a JSON integer too large for a float
SAMPLER_CONFIGS = {
    "unconstrained": SamplerConfig(**CLASSIFIER, mode="unconstrained"),
    "constrained": SamplerConfig(
        **CLASSIFIER, mode="constrained", eps_b1=0.2, eps_b2=0.4, max_rejections=500
    ),
}


class TestDumpsJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = dumps_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_deterministic(self):
        payload = {"x": 0.1 + 0.2, "y": [1, 2, {"k": True}]}
        assert dumps_json(payload) == dumps_json(payload)

    def test_floats_round_trip(self):
        value = 0.1 + 0.2
        assert json.loads(dumps_json({"v": value}))["v"] == value


class TestModelFiles:
    def test_reduced_round_trip(self, m1, tmp_path):
        path = tmp_path / "model.json"
        write_json(path, model_payload(m1))
        loaded = load_model_file(path)
        assert isinstance(loaded, ReducedModel)
        assert loaded == m1

    def test_reduced_round_trip_with_d(self, m1_with_d, tmp_path):
        path = tmp_path / "model.json"
        write_json(path, model_payload(m1_with_d))
        assert load_model_file(path) == m1_with_d

    def test_joint_round_trip(self, m1_joint, tmp_path):
        path = tmp_path / "model.json"
        write_json(path, model_payload(m1_joint))
        loaded = load_model_file(path)
        assert isinstance(loaded, FullJoint)
        assert np.allclose(loaded.cells, m1_joint.cells, atol=0)

    def test_requires_exactly_one_variant(self, m1, m1_joint):
        both = {**model_payload(m1), **model_payload(m1_joint)}
        with pytest.raises(ValidationError, match="exactly one"):
            model_from_dict(both)
        with pytest.raises(ValidationError, match="exactly one"):
            model_from_dict({})

    def test_rejects_unknown_keys(self, m1):
        payload = model_payload(m1)
        payload["reduced"]["slice0"]["q"] = 0.5
        with pytest.raises(ValidationError, match="unknown field 'q'"):
            model_from_dict(payload)

    def test_rejects_missing_field(self, m1):
        payload = model_payload(m1)
        del payload["reduced"]["slice1"]["c"]
        with pytest.raises(ValidationError, match="missing required field 'c'"):
            model_from_dict(payload)

    def test_out_of_range_cites_field(self, m1):
        payload = model_payload(m1)
        payload["reduced"]["slice0"]["p"] = 1.2
        with pytest.raises(ValidationError) as err:
            model_from_dict(payload)
        assert "slice0" in str(err.value) and "p" in str(err.value)

    def test_rejects_boolean_number(self, m1):
        payload = model_payload(m1)
        payload["reduced"]["slice0"]["p"] = True
        with pytest.raises(ValidationError, match="must be a number"):
            model_from_dict(payload)

    def test_rejects_wrong_cell_count(self):
        with pytest.raises(ValidationError, match="16"):
            model_from_dict({"joint": {"cells": [0.25, 0.25, 0.25, 0.25]}})

    def test_rejects_cells_that_are_a_number(self):
        with pytest.raises(ValidationError) as err:
            model_from_dict({"joint": {"cells": 0.5}})
        assert str(err.value) == "joint: joint needs 16 cells, got 1"

    def test_rejects_json_nan_cell(self, tmp_path):
        # json reads the non-standard NaN token as a float, which passes the type check
        path = tmp_path / "model.json"
        path.write_text('{"joint": {"cells": [NaN' + ", 0.0625" * 15 + "]}}")
        with pytest.raises(ValidationError) as err:
            load_model_file(path)
        assert str(err.value) == f"{path}: joint: joint cells contain NaN"

    def test_load_error_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="bad.json"):
            load_model_file(path)


@pytest.mark.parametrize("loader", [load_model_file, load_sampler_config])
@pytest.mark.parametrize(
    "content, reason",
    [(b"{bad", "not valid JSON"), (b"\xff\xfe\x00not utf-8\n", "not UTF-8")],
)
def test_load_error_names_path_once(tmp_path, loader, content, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ValidationError, match=reason) as err:
        loader(path)
    assert str(err.value).count(str(path)) == 1


@pytest.mark.parametrize("loader", [load_model_file, load_sampler_config])
@pytest.mark.parametrize("content, reason", [
    (b"{bad", "not valid JSON"),
    (b"\xff\xfe\x00not utf-8\n", "not UTF-8 text"),
    (b"[]", "must be a JSON object"),
])
@pytest.mark.parametrize("form", [os.fsencode, lambda path: path], ids=["bytes", "Path"])
def test_load_error_names_the_path_as_text(tmp_path, loader, content, reason, form):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ValidationError, match=reason) as err:
        loader(form(path))
    assert str(err.value).startswith(f"{path}: ")


class TestByteOrderMark:
    """A JSON input drops one leading UTF-8 BOM; its digest is of the bytes as read."""

    @pytest.fixture(params=["model", "config"])
    def plain(self, request, m1, tmp_path):
        path = tmp_path / "plain.json"
        if request.param == "model":
            write_json(path, model_payload(m1))
            return load_model_file, path
        write_json(path, result_dict(SAMPLER_CONFIGS["constrained"]))
        return load_sampler_config, path

    @staticmethod
    def marked(path, marks):
        """A copy of ``path`` behind ``marks`` byte order marks."""
        copy = path.with_name("marked.json")
        copy.write_bytes(marks * b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    def test_loads_equal_to_its_twin_without_one(self, plain):
        loader, path = plain
        assert loader(self.marked(path, 1)) == loader(path)

    def test_digest_is_of_the_raw_bytes(self, plain):
        loader, path = plain
        marked, digest = self.marked(path, 1), hashlib.sha256()
        loader(marked, digest)
        assert digest.hexdigest() == hashlib.sha256(marked.read_bytes()).hexdigest()
        assert digest.hexdigest() != hashlib.sha256(path.read_bytes()).hexdigest()

    def test_second_one_is_refused(self, plain):
        loader, path = plain
        marked = self.marked(path, 2)
        with pytest.raises(ValidationError, match="not valid JSON") as err:
            loader(marked)
        assert str(err.value).startswith(f"{marked}: ")


class TestSamplerConfigFiles:
    def test_unconstrained_round_trip(self, tmp_path):
        config = SAMPLER_CONFIGS["unconstrained"]
        path = tmp_path / "config.json"
        write_json(path, result_dict(config))
        assert load_sampler_config(path) == config

    def test_constrained_round_trip(self, tmp_path):
        config = SAMPLER_CONFIGS["constrained"]
        path = tmp_path / "config.json"
        write_json(path, result_dict(config))
        assert load_sampler_config(path) == config

    def test_eps_required_for_constrained(self):
        with pytest.raises(ValidationError, match="eps"):
            from_dict(
                SamplerConfig,
                {"p0": 0.05, "r0": 0.1, "p1": 0.07, "r1": 0.09, "mode": "constrained"},
                "sampler config",
            )

    def test_eps_rejected_for_unconstrained(self):
        with pytest.raises(ValidationError, match="eps"):
            from_dict(
                SamplerConfig,
                {
                    "p0": 0.05, "r0": 0.1, "p1": 0.07, "r1": 0.09,
                    "mode": "unconstrained", "eps_b1": 0.2,
                },
                "sampler config",
            )

    def test_rejects_unknown_field(self):
        with pytest.raises(ValidationError, match="unknown field"):
            from_dict(
                SamplerConfig,
                {
                    "p0": 0.05, "r0": 0.1, "p1": 0.07, "r1": 0.09,
                    "mode": "unconstrained", "trials": 100,
                },
                "sampler config",
            )

    @pytest.mark.parametrize("key", ["eps_b1", "eps_b2"])
    def test_null_eps_means_absent(self, key):
        plain = {**CLASSIFIER, "mode": "unconstrained"}
        assert from_dict(SamplerConfig, {**plain, key: None}, "sampler config") == from_dict(
            SamplerConfig, plain, "sampler config"
        )

    def test_own_errors_name_the_config(self):
        with pytest.raises(ValidationError, match="^sampler config: constrained mode requires"):
            from_dict(SamplerConfig, {**CLASSIFIER, "mode": "constrained"}, "sampler config")

    def test_rejects_non_integer_budget(self):
        with pytest.raises(ValidationError, match="max_rejections"):
            from_dict(
                SamplerConfig,
                {
                    "p0": 0.05, "r0": 0.1, "p1": 0.07, "r1": 0.09,
                    "mode": "constrained", "eps_b1": 0.2, "eps_b2": 0.2,
                    "max_rejections": 10.5,
                },
                "sampler config",
            )


@dataclass(frozen=True)
class Inner:
    x: float

    def __post_init__(self):
        if self.x < 0.0:
            raise ValidationError(f"x must be non-negative, got {self.x!r}")


@dataclass(frozen=True)
class Probe:
    rate: float
    label: str
    inner: Inner
    count: int = 3
    limit: float | None = None


def probe_payload(**changes):
    return {"rate": 0.5, "label": "a", "inner": {"x": 1.0}, **changes}


class TestFromDict:
    def test_fields_are_the_schema(self):
        probe = from_dict(Probe, probe_payload(rate=1, count=4, limit=2), "probe")
        assert probe == Probe(rate=1.0, label="a", inner=Inner(x=1.0), count=4, limit=2.0)
        assert type(probe.rate) is float and type(probe.limit) is float

    def test_defaults_and_null_mean_absent(self):
        assert from_dict(Probe, probe_payload(limit=None), "probe") == from_dict(
            Probe, probe_payload(), "probe"
        ) == Probe(rate=0.5, label="a", inner=Inner(x=1.0), count=3, limit=None)

    def test_missing_fields_in_declared_order_before_unknown_keys(self):
        with pytest.raises(ValidationError, match="^probe is missing required field 'rate'$"):
            from_dict(Probe, {"zz": 1, "inner": {}, "label": "a"}, "probe")

    def test_unknown_keys_in_file_order_before_types(self):
        with pytest.raises(ValidationError, match="^probe has unknown field 'zz'$"):
            from_dict(Probe, probe_payload(rate="x", zz=1, yy=2), "probe")

    def test_types_in_declared_order(self):
        with pytest.raises(ValidationError, match="^probe.rate must be a number, got 'x'$"):
            from_dict(Probe, probe_payload(label=1, rate="x"), "probe")

    @pytest.mark.parametrize("key, value, message", [
        ("rate", True, "probe.rate must be a number, got True"),
        ("rate", None, "probe.rate must be a number, got None"),
        ("label", 1, "probe.label must be a string, got 1"),
        ("count", True, "probe.count must be a non-negative integer, got True"),
        ("count", 4.0, "probe.count must be a non-negative integer, got 4.0"),
        ("count", None, "probe.count must be a non-negative integer, got None"),
        ("limit", False, "probe.limit must be a number, got False"),
        ("rate", HUGE, "probe.rate is an integer too large for a float"),
    ], ids=["bool", "null", "int-as-str", "bool-as-int", "float-as-int", "null-as-int",
            "bool-as-optional", "overflow"])
    def test_rejects_wrong_json_types(self, key, value, message):
        with pytest.raises(ValidationError) as err:
            from_dict(Probe, probe_payload(**{key: value}), "probe")
        assert str(err.value) == message

    def test_nested_dataclass_errors_carry_the_dotted_location(self):
        for inner, message in (
            ("x", "probe.inner must be a JSON object"),
            ({}, "probe.inner is missing required field 'x'"),
            ({"x": 1.0, "q": 2}, "probe.inner has unknown field 'q'"),
            ({"x": "1"}, "probe.inner.x must be a number, got '1'"),
            ({"x": -1}, "probe.inner: x must be non-negative, got -1.0"),
        ):
            with pytest.raises(ValidationError) as err:
                from_dict(Probe, probe_payload(inner=inner), "probe")
            assert str(err.value) == message


#: A valid payload of each input dataclass.
INPUTS = {
    SamplerConfig: {**CLASSIFIER, "mode": "constrained", "eps_b1": 0.2, "eps_b2": 0.2},
    SliceParams: {"p": 0.05, "r": 0.1, "a": 0.5, "b": 0.4, "c": 0.6, "d": 0.3},
    FullJoint: {"cells": [1 / 16] * 16},
}

#: Values that the check of each kind of input field refuses; a field that is not
#: optional refuses ``None`` too.
REFUSED = {
    "Unit": ("x", True, 1.5, -0.5, math.nan, HUGE, [0.5]),
    "str": (5, False, ["constrained"]),
    "Count": ("x", True, 0, -3, 2.5),
    "np.ndarray": ("x", [True] + [0.0] * 15, [None] * 16, [0.0625] * 15 + [HUGE],
                   [[0.5], [0.5, 0.5]], {"a": 1}),
}


@pytest.mark.parametrize("cls, field", [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}") for cls in INPUTS for f in fields(cls)
])
def test_a_file_field_reads_as_its_dataclass_reads_it(cls, field):
    kind = field.type.removesuffix(" | None")
    for value in REFUSED[kind] + (() if kind != field.type else (None,)):
        payload = {**INPUTS[cls], field.name: value}
        with pytest.raises(ValidationError) as direct:
            cls(**payload)
        with pytest.raises(ValidationError) as read:
            from_dict(cls, payload, "w")
        assert str(read.value) == f"w.{direct.value}"


def overflowing_sampler_config(m1, m1_joint):
    return {**CLASSIFIER, "p0": HUGE, "mode": "unconstrained"}


def overflowing_reduced_model(m1, m1_joint):
    payload = model_payload(m1)
    payload["reduced"]["slice1"]["b"] = HUGE
    return payload


def overflowing_joint_cell(m1, m1_joint):
    payload = model_payload(m1_joint)
    payload["joint"]["cells"][3] = HUGE
    return payload


@pytest.mark.parametrize("build, field, loader, command", [
    (overflowing_sampler_config, "sampler config.p0", load_sampler_config, "simulate"),
    (overflowing_reduced_model, "reduced.slice1.b", load_model_file, "analyze"),
    (overflowing_joint_cell, "joint.cells[3]", load_model_file, "analyze"),
], ids=["config-field", "reduced-field", "joint-cell"])
class TestOverflowingNumbers:
    @pytest.fixture
    def path(self, tmp_path, m1, m1_joint, build):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(build(m1, m1_joint)))
        return path

    def test_loader_names_the_field(self, path, field, loader, command):
        with pytest.raises(ValidationError) as err:
            loader(path)
        assert str(err.value) == f"{path}: {field} is an integer too large for a float"

    def test_cli_exits_2_without_traceback(
        self, capsys, tmp_path, path, field, loader, command
    ):
        argv = [command, str(path)]
        if command == "simulate":
            argv += ["--trials", "10", "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"gap-gauge: {path}: {field} is an integer too large for a float\n"


def test_integer_past_the_digit_limit_exits_2(capsys, tmp_path):
    # json.load itself refuses integers of more than 4300 digits
    path = tmp_path / "config.json"
    path.write_text('{"p0": 1' + "0" * 5000 + "}")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_sampler_config(path)
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gap-gauge: {path}: not valid JSON") and err.count("\n") == 1



@pytest.mark.parametrize(
    "loader, argv", [(load_model_file, ["analyze"]), (load_sampler_config, ["simulate"])]
)
def test_nesting_past_the_recursion_limit_exits_2(capsys, tmp_path, loader, argv):
    # json.loads recurses once per level and gives up at the interpreter's limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValidationError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}: not valid JSON (maximum recursion depth")
    assert main([*argv, str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"gap-gauge: {err.value}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]

class TestReportDicts:
    def test_gap_report_keys(self, m1):
        payload = result_dict(compute_gaps(m1))
        assert set(payload) == {"G", "G_hat", "delta0", "delta1", "error"}
        assert payload["error"] == pytest.approx(0.001, abs=1e-12)

    def test_structure_keys(self, m1):
        payload = result_dict(structure_params(m1))
        assert set(payload) == {
            "gamma_A", "gamma_B1", "gamma_B2", "eps_B1", "eps_B2", "g_star",
        }

    def test_bound_keys(self, m1):
        payload = result_dict(bound_report(m1))
        assert set(payload) == {
            "bound_A", "bound_B1", "bound_B2",
            "bound_combined_stated", "bound_combined_proof", "best",
        }


class TestResultDict:
    def test_estimate_report_renames_bootstrap(self, m1_joint):
        from gap_gauge import estimate_with_bootstrap, sample_dataset

        report = estimate_with_bootstrap(
            sample_dataset(m1_joint, 2000, seed=3), replicates=5, seed=1
        )
        payload = result_dict(report)
        assert list(payload) == [
            "n", "counts", "counts_index", "g_hat", "smoothing",
            "gap", "structure", "bounds", "bootstrap_ci",
        ]
        assert payload["counts"] == list(report.counts)
        assert payload["bootstrap_ci"]["intervals"]["G_hat"] == list(
            report.bootstrap.intervals["G_hat"]
        )

    def test_absent_parts_stay_null(self, m1_joint):
        from gap_gauge import estimate, sample_dataset

        report = estimate(sample_dataset(m1_joint, 500, seed=3))
        assert result_dict(report)["bootstrap_ci"] is None

    def test_summary_drops_per_trial_fields(self, result):
        payload = result_dict(result)
        assert tuple(payload) == ("n_trials", "p95", "bounds", "rejection_rate", "seed")
        assert payload["bounds"] == result_dict(result.bounds)

    def test_dropped_field_is_never_read(self):
        from dataclasses import dataclass, field

        @dataclass
        class Probe:
            kept: int
            huge: object = field(metadata={"key": None})

            def __getattribute__(self, name):
                if name == "huge":
                    raise AssertionError("dropped field was read")
                return object.__getattribute__(self, name)

        assert result_dict(Probe(kept=1, huge=None)) == {"kept": 1}

    def test_sweep_header_follows_sweep_point(self):
        assert SWEEP_HEADER == (
            "grid_value", "p95", "bound_a", "bound_combined_stated", "bound_combined_proof",
        )


class TestInputPayloads:
    """``result_dict`` is the inputs' encoder too: ``from_dict`` reads its JSON back."""

    @pytest.mark.parametrize("name", [*SAMPLER_CONFIGS, "m1", "m1_with_d", "m1_joint"])
    def test_from_dict_reads_result_dict_back(self, request, name):
        value = SAMPLER_CONFIGS[name] if name in SAMPLER_CONFIGS else request.getfixturevalue(name)
        payload = result_dict(value)
        back = from_dict(type(value), json.loads(dumps_json(payload)), name)
        if isinstance(value, FullJoint):
            assert len(payload["cells"]) == 16
            assert all(type(x) is float for x in payload["cells"])
            assert back.cells.tolist() == value.cells.tolist()
        else:
            assert back == value


@pytest.fixture(scope="module")
def result():
    config = SamplerConfig(
        p0=0.05, r0=0.1, p1=0.07, r1=0.09,
        mode="constrained", eps_b1=0.2, eps_b2=0.2,
    )
    return run_monte_carlo(config, n_trials=300, seed=42)


@pytest.fixture(scope="module")
def sweep_points():
    config = SamplerConfig(
        p0=0.05, r0=0.1, p1=0.07, r1=0.09,
        mode="constrained", eps_b1=0.2, eps_b2=0.2,
    )
    return sweep(config, "eps_b2", [0.0, 0.5, 1.0], n_trials=60, seed=7)


def errors_column(path) -> list[float]:
    """The values of an errors file, parsed with ``float`` line by line."""
    header, *lines = path.read_text(encoding="ascii").splitlines()
    assert header == "error"
    return [float(line) for line in lines]


def csv_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


class TestResultFiles:
    def test_summary_round_trip(self, result, tmp_path):
        path = tmp_path / "summary.json"
        write_json(path, result_dict(result))
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        per_trial = {"errors", "histogram"}
        assert set(loaded) == {f.name for f in fields(SimulationResult)} - per_trial
        assert loaded["n_trials"] == 300
        assert loaded["p95"] == result.p95
        assert loaded["seed"] == 42
        assert loaded["bounds"]["best"] == result.bounds.best

    def test_errors_round_trip(self, result, tmp_path):
        path = tmp_path / "errors.csv"
        write_errors_csv(path, result.errors)
        assert errors_column(path) == result.errors.tolist()

    def test_histogram_round_trip(self, result, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, result.histogram)
        header, *rows = csv_rows(path)
        assert header == ["bin_lo", "bin_hi", "count"]
        edges = result.histogram.bin_edges
        assert [float(lo) for lo, _, _ in rows] == list(edges[:-1])
        assert [float(hi) for _, hi, _ in rows] == list(edges[1:])
        assert [int(count) for _, _, count in rows] == list(result.histogram.counts)

    def test_write_is_byte_identical(self, result, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        write_errors_csv(first, result.errors)
        write_errors_csv(second, result.errors)
        assert first.read_bytes() == second.read_bytes()

    def test_error_values_survive_exactly(self, tmp_path):
        # repr round-trips doubles exactly; the file must too
        values = [0.1 + 0.2, 1e-17, 0.07 - 0.05]
        path = tmp_path / "errors.csv"
        write_errors_csv(path, values)
        assert errors_column(path) == values


def repr_lines(values) -> bytes:
    """The errors file as one ``repr`` per value writes it: the writer's oracle."""
    return ("error\n" + "".join(repr(float(v)) + "\n" for v in values)).encode()


def with_neighbours(values) -> np.ndarray:
    """``values``, both of their neighbouring doubles, and the negatives of all three."""
    values = np.asarray(values, dtype=float)
    near = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


@pytest.fixture(scope="module")
def errors_path(tmp_path_factory):
    return tmp_path_factory.mktemp("errors") / "errors.csv"


class TestErrorsCsvIsRepr:
    """``write_errors_csv`` formats values with numpy; every byte must be ``repr``'s."""

    @staticmethod
    def assert_writes_repr(path, values):
        write_errors_csv(path, values)
        assert path.read_bytes() == repr_lines(values)

    def test_random_bit_patterns(self, errors_path):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        # all but one in sixteen get an exponent of [2**-14, 1), around [1e-4, 1)
        exponents = rng.integers(1023 - 14, 1023, size=bits.size, dtype=np.uint64)
        ranged = bits & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
        bits = np.where(np.arange(bits.size) % 16 == 0, bits, ranged)
        self.assert_writes_repr(errors_path, bits.view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats() | st.floats(-1.0, 1.0), min_size=1, max_size=40))
    def test_any_floats(self, errors_path, values):
        self.assert_writes_repr(errors_path, values)

    def test_dense_values_below_one(self, errors_path):
        grid = np.linspace(1e-4, 1.0, 100_001)[:-1]
        anchors = np.array([1e-4, 3e-4, 0.001, 0.0123, 0.05, 0.1, 0.3, 0.5, 0.7, 0.99])
        # runs of consecutive doubles around each anchor
        steps = np.arange(-2000, 2000).astype(np.uint64)  # wraps below zero, as the sum does
        runs = (anchors.view(np.uint64)[:, None] + steps).view(np.float64)
        self.assert_writes_repr(errors_path, np.concatenate([grid, runs.reshape(-1)]))

    def test_powers_of_ten_and_their_neighbours(self, errors_path):
        powers = [float(f"1e-{j}") for j in range(324)] + [float(f"1e{j}") for j in range(309)]
        self.assert_writes_repr(errors_path, with_neighbours(powers))

    def test_powers_of_two_and_special_values(self, errors_path):
        specials = [0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf, sys.float_info.max]
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        self.assert_writes_repr(errors_path, np.concatenate([specials, with_neighbours(powers)]))

    @pytest.mark.parametrize("kind", ["zeros", "negative zeros", "mixed"])
    def test_zeros(self, errors_path, kind):
        # 0.0 and -0.0, alone or between other values, over a whole chunk
        # and a partial one
        size = 3 * _CHUNK // 2
        values = {
            "zeros": np.zeros(size),
            "negative zeros": np.full(size, -0.0),
            "mixed": np.random.default_rng(23).choice(
                [0.0, -0.0, 0.25, -0.0123, 1e-5, 3.5, np.nan], size=size
            ) * np.random.default_rng(24).uniform(0.5, 1.0, size=size),
        }[kind]
        self.assert_writes_repr(errors_path, values)

    def test_ties(self, errors_path):
        # m / 2**(s + 1) with m odd lies halfway between the two nearest
        # decimals of s places, so rounding it to those places is a tie. All
        # such values whose s-th place is their 17th digit, then random ones.
        ties = []
        for places in range(17, 21):
            odd = np.arange(2 * 10**16 // 5**places | 1, 2 * 10**17 // 5**places, 2)
            ties.append(np.ldexp(odd.astype(float), -(places + 1)))
        rng = np.random.default_rng(21)
        places = rng.integers(1, 52, size=20_000)
        shift = rng.integers(0, np.minimum(places, 14))  # mostly above 1e-4
        odd = 2 * (rng.integers(0, 2.0**places) >> shift) + 1
        ties.append(with_neighbours(np.ldexp(odd.astype(float), -(places + 1))))
        self.assert_writes_repr(errors_path, np.concatenate(ties))

    def test_memory_does_not_grow_with_the_values(self, tmp_path):
        # the writer formats a few thousand values at a time: about 1.3 MiB
        values = np.random.default_rng(22).uniform(0.0, 0.3, size=1_000_000)
        tracemalloc.start()
        try:
            write_errors_csv(tmp_path / "errors.csv", values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"write_errors_csv: peak {peak / 2**20:.2f} MiB"


def fail_on_second_chunk(monkeypatch, tmp: str) -> list[int]:
    """Makes ``write_errors_csv`` raise on its second chunk of values.

    The header and first chunk are written by then; the returned list gets
    the size of ``tmp`` at the failure.
    """
    real, chunks, written = files._repr_lines, [], []

    def repr_lines(values):
        chunks.append(values.size)
        if len(chunks) == 2:
            written.append(os.path.getsize(tmp))
            raise OSError("disk full")
        return real(values)

    monkeypatch.setattr(files, "_repr_lines", repr_lines)
    return written


class TestAtomicWrites:
    def test_paths_are_replaced_together(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.csv"]
        with atomic_paths(*paths) as tmps:
            write_json(tmps[0], {"value": 1})
            write_errors_csv(tmps[1], [0.5])
            assert not any(path.exists() for path in paths)
        assert json.loads(paths[0].read_text()) == {"value": 1}
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "b.csv"]

    def test_failure_in_a_later_write_keeps_every_path(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.csv"]
        write_json(paths[0], {"value": 1})
        with pytest.raises(ValueError):
            with atomic_paths(*paths) as tmps:
                write_json(tmps[0], {"value": 2})
                write_errors_csv(tmps[1], [0.1, "not a number"])
        assert json.loads(paths[0].read_text()) == {"value": 1}
        assert [path.name for path in tmp_path.iterdir()] == ["a.json"]

    def test_directory_target_is_refused_before_the_block(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.csv"]
        write_json(paths[0], {"value": 1})
        paths[1].mkdir()
        with pytest.raises(IsADirectoryError) as err:
            with atomic_paths(*paths):
                raise AssertionError("the block ran")
        assert err.value.filename == str(paths[1])
        assert json.loads(paths[0].read_text()) == {"value": 1}
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "b.csv"]
        assert not any(paths[1].iterdir())

    def test_missing_directory_is_refused_before_the_block(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "absent" / "b.csv", tmp_path / "c.csv"]
        # a temporary left by someone else, never reached, so not removed
        (tmp_path / "c.csv.tmp").write_text("not made here\n")
        with pytest.raises(FileNotFoundError) as err:
            with atomic_paths(*paths):
                raise AssertionError("the block ran")
        assert str(err.value) == f"[Errno 2] No such file or directory: '{paths[1]}.tmp'"
        assert [path.name for path in tmp_path.iterdir()] == ["c.csv.tmp"]
        assert (tmp_path / "c.csv.tmp").read_text() == "not made here\n"

    def test_unwritable_directory_is_refused_before_the_block(self, monkeypatch, tmp_path):
        # permission bits do not stop a superuser, so the OS refusal is faked
        path = tmp_path / "a.json"
        real_open = builtins.open

        def open_(file, *args, **kwargs):
            if os.fspath(file) == f"{path}.tmp":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_)
        with pytest.raises(PermissionError) as err:
            with atomic_paths(path):
                raise AssertionError("the block ran")
        assert str(err.value) == f"[Errno 13] Permission denied: '{path}.tmp'"
        assert list(tmp_path.iterdir()) == []

    def test_temporary_that_is_a_directory_is_refused_and_kept(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.csv", tmp_path / "c.csv"]
        write_json(paths[0], {"value": 1})
        blocker = tmp_path / "b.csv.tmp"
        blocker.mkdir()
        (blocker / "inside.txt").write_text("kept\n")
        ran = []
        with pytest.raises(IsADirectoryError) as err:
            with atomic_paths(*paths):
                ran.append(True)
        assert ran == []
        assert str(err.value) == f"[Errno 21] Is a directory: '{blocker}'"
        assert json.loads(paths[0].read_text()) == {"value": 1}
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "b.csv.tmp"]
        assert (blocker / "inside.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("alias", ["a", "./a", "link/a"])
    def test_one_file_under_two_names_is_refused_before_the_block(
        self, monkeypatch, tmp_path, alias
    ):
        # both names would share the temporary a.tmp, so the second rename would fail
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a").write_text("old\n")
        (tmp_path / "link").symlink_to(".")
        with pytest.raises(ValidationError) as err:
            with atomic_paths("b", "a", alias):
                raise AssertionError("the block ran")
        assert str(err.value) == f"paths 'a' and {alias!r} name the same file"
        assert (tmp_path / "a").read_text() == "old\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a", "link"]

    def test_a_symlink_to_another_path_is_replaced_not_followed(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a").write_text("old\n")
        (tmp_path / "b").symlink_to("a")
        with atomic_paths("a", "b") as tmps:
            for tmp, text in zip(tmps, ["new a\n", "new b\n"]):
                (tmp_path / tmp).write_text(text)
        assert not (tmp_path / "b").is_symlink()
        assert [(tmp_path / name).read_text() for name in "ab"] == ["new a\n", "new b\n"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a", "b"]

    def test_empty_path_is_refused_as_open_refuses_it(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as expected:
            open("")
        ran = []
        for paths in ([""], [tmp_path / "a.json", ""]):
            with pytest.raises(FileNotFoundError) as err:
                with atomic_paths(*paths):
                    ran.append(True)
            assert (type(err.value), str(err.value)) == (FileNotFoundError, str(expected.value))
            assert err.value.filename == ""
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_block_that_raises_removes_only_its_temporaries(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.csv"]
        write_json(paths[0], {"value": 1})
        (tmp_path / "other.tmp").write_text("kept\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_paths(*paths) as tmps:
                # every temporary exists, empty, before the block runs
                assert [os.path.getsize(tmp) for tmp in tmps] == [0, 0]
                write_json(tmps[0], {"value": 2})
                os.remove(tmps[1])  # a temporary already gone is no cleanup error
                raise RuntimeError("interrupted")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_writer_failing_mid_write_leaves_nothing(self, monkeypatch, tmp_path):
        path = tmp_path / "errors.csv"
        written = fail_on_second_chunk(monkeypatch, f"{path}.tmp")
        with pytest.raises(OSError, match="disk full"):
            with atomic_paths(path) as (tmp,):
                write_errors_csv(tmp, np.full(_CHUNK + 1, 0.25))
        assert written[0] > len("error\n")  # the first chunk had reached the temporary
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_previous_file(self, monkeypatch, tmp_path):
        path = tmp_path / "errors.csv"
        write_errors_csv(path, [0.5])
        before = path.read_bytes()
        written = fail_on_second_chunk(monkeypatch, f"{path}.tmp")
        with pytest.raises(OSError, match="disk full"):
            with atomic_paths(path) as (tmp,):
                write_errors_csv(tmp, np.full(_CHUNK + 1, 0.25))
        assert written[0] > len("error\n")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["errors.csv"]

    def test_output_bytes_and_no_temporaries(self, result, tmp_path):
        write_errors_csv(tmp_path / "errors.csv", result.errors)
        write_histogram_csv(tmp_path / "hist.csv", result.histogram)
        write_json(tmp_path / "summary.json", {"b": 0.1, "a": [1, 2]})
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "errors.csv", "hist.csv", "summary.json",
        ]
        expected = "error\n" + "".join(f"{float(e)!r}\n" for e in result.errors)
        assert (tmp_path / "errors.csv").read_bytes() == expected.encode()
        assert (tmp_path / "summary.json").read_text() == dumps_json({"a": [1, 2], "b": 0.1})


class TestSweepFiles:
    def test_round_trip(self, sweep_points, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep_points)
        header, *rows = csv_rows(path)
        assert header == list(SWEEP_HEADER)
        assert len(rows) == 3
        for row, point in zip(rows, sweep_points):
            assert [float(value) for value in row] == [
                point.grid_value, point.p95, point.bound_a,
                point.bound_combined_stated, point.bound_combined_proof,
            ]


class TestPathArguments:
    """A path is a str, bytes or ``os.PathLike``; an int, which ``open`` would take as a file
    descriptor and close, and any other value is a ``ValidationError``."""

    WRITERS = {
        "write_text": lambda path: files.write_text(path, "x\n"),
        "write_json": lambda path: write_json(path, {"a": 1}),
        "write_errors_csv": lambda path: write_errors_csv(path, [0.1]),
        "write_histogram_csv": lambda path: write_histogram_csv(
            path, Histogram(bin_edges=(0.0, 1.0), counts=(1,))
        ),
        "write_sweep_csv": lambda path: write_sweep_csv(path, ()),
    }
    READERS = {
        "load_model_file": load_model_file,
        "load_sampler_config": load_sampler_config,
        "read_records_csv": read_records_csv,
    }

    @pytest.mark.parametrize("writer", WRITERS)
    def test_writer_leaves_a_pipe_descriptor_open_and_empty(self, writer):
        read, write = os.pipe()
        try:
            with pytest.raises(ValidationError, match=rf"^path must be a file path, got {write}$"):
                self.WRITERS[writer](write)
            os.close(write)  # raises if the writer closed it
            assert os.read(read, 1) == b""
        finally:
            os.close(read)

    @pytest.mark.parametrize("reader", READERS)
    def test_reader_leaves_a_pipe_descriptor_open_and_unread(self, reader):
        read, write = os.pipe()
        try:
            os.write(write, b"{}")
            os.close(write)
            with pytest.raises(ValidationError, match=rf"^path must be a file path, got {read}$"):
                self.READERS[reader](read)
            assert os.read(read, 3) == b"{}"
        finally:
            os.close(read)

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("path", [None, 1.5, ["out.csv"]])
    def test_writer_refuses_a_value_that_is_no_path(self, writer, path):
        with pytest.raises(ValidationError, match="^path must be a file path"):
            self.WRITERS[writer](path)

    @pytest.mark.parametrize("path", [5, None])
    def test_atomic_paths_refuses_a_value_that_is_no_path(self, tmp_path, path):
        with pytest.raises(ValidationError, match="^path must be a file path"):
            with atomic_paths(tmp_path / "a.json", path):
                pass
        assert list(tmp_path.iterdir()) == []

    def test_atomic_paths_takes_bytes_paths(self, tmp_path):
        path = tmp_path / "a.json"
        with atomic_paths(os.fsencode(path)) as (tmp,):
            assert tmp == f"{path}.tmp"
            write_json(tmp, {"a": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


class TestValueArguments:
    """Each writer refuses a value it cannot write with a ``ValidationError`` that names the
    argument, before it opens the file, so no file is left behind."""

    CASES = {
        "errors-text": (lambda path: write_errors_csv(path, [0.1, "x"]),
                        "errors[1] must be a number, got 'x'"),
        "errors-none": (lambda path: write_errors_csv(path, [None]),
                        "errors[0] must be a number, got None"),
        "errors-bool": (lambda path: write_errors_csv(path, [0.5, True]),
                        "errors[1] must be a number, got True"),
        "errors-complex": (lambda path: write_errors_csv(path, np.array([0.5j])),
                           "errors must be a sequence of real numbers"),
        "histogram": (lambda path: write_histogram_csv(path, 5), "histogram must be a Histogram"),
        "points": (lambda path: write_sweep_csv(path, 5),
                   "points must be a sequence of SweepPoint, got 5"),
        "points-item": (lambda path: write_sweep_csv(path, [1]), "points[0] must be a SweepPoint"),
        "json": (lambda path: write_json(path, object()),
                 "obj must be JSON data: Object of type object is not JSON serializable"),
        "json-key": (lambda path: write_json(path, {(1, 2): 0.5}),
                     "obj must be JSON data: keys must be str, int, float, bool or None, "
                     "not tuple"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused_naming_the_argument_before_the_file_is_opened(self, tmp_path, case):
        call, message = self.CASES[case]
        with pytest.raises(ValidationError) as err:
            call(tmp_path / "out")
        assert str(err.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_refused_value_inside_atomic_paths_keeps_every_path(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        write_errors_csv(paths[0], [0.5])
        with pytest.raises(ValidationError, match=r"^points\[0\] must be a SweepPoint$"):
            with atomic_paths(*paths) as tmps:
                write_errors_csv(tmps[0], [0.25])
                write_sweep_csv(tmps[1], [1])
        assert paths[0].read_text() == "error\n0.5\n"
        assert [path.name for path in tmp_path.iterdir()] == ["a.csv"]
