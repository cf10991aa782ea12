"""Bad input ends in a ``GapGaugeError``, never in a raw exception.

Every real-valued argument of the library goes through one check,
``model._require_real``, and every array of reals through
``model._require_real_array``: a bool, text, ``None``, a complex number, an
integer too large for a float or a ragged or wrongly sized sequence is a
``ValidationError`` that names the argument. The probes pin one case of each
kind; the property tests give every real-valued parameter of the package's
public dataclasses and functions values of every kind, and give the command
line arbitrary bytes as each of its input files.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gap_gauge import (
    BootstrapResult, BoundReport, EstimateReport, FullJoint, GapGaugeError, GapReport, Histogram,
    IndependenceDiagnostics, SamplerConfig, SimulationResult, SliceMarginals, SliceParams,
    StructureParams, SweepPoint, SweepResult, ValidationError, bootstrap,
    classifier_structure_params, consistent_marginals, estimate, estimate_with_bootstrap,
    fit_joint, independence_diagnostics, percentile, sample_dataset, sweep,
)
from gap_gauge.cli import main

from conftest import M1, M1_WITH_D, model_payload

CLASSIFIER = {"p0": 0.05, "r0": 0.1, "p1": 0.07, "r1": 0.09}
CFG = SamplerConfig(**CLASSIFIER, mode="constrained", eps_b1=0.2, eps_b2=0.2)
SLICE = {"p": 0.05, "r": 0.1, "a": 0.5, "b": 0.4, "c": 0.6}
UNIFORM = (0.25, 0.25, 0.25, 0.25)
JOINT = FullJoint(cells=np.full(16, 1 / 16))
DS = sample_dataset(JOINT, 200, seed=1)
GAPS = {"G": 0.0, "G_hat": 0.0, "delta0": 0.0, "delta1": 0.0, "error": 0.0}
BOUNDS = BoundReport(1, 1, 1, 1, 1, 1)


def probe(call, name, id):
    return pytest.param(call, name, id=id)


PROBES = [
    # each of these raised a raw ValueError, TypeError, OverflowError or IndexError
    probe(lambda: SliceParams(**{**SLICE, "p": "abc"}), "p", "SliceParams-text"),
    probe(lambda: SliceParams(**{**SLICE, "p": None}), "p", "SliceParams-None"),
    probe(lambda: SliceParams(**{**SLICE, "p": 1j}), "p", "SliceParams-complex"),
    probe(lambda: SliceParams(**{**SLICE, "p": 10**400}), "p", "SliceParams-huge"),
    probe(lambda: SamplerConfig(**{**CLASSIFIER, "p0": "x"}, mode="unconstrained"), "p0",
          "SamplerConfig-text"),
    probe(lambda: SamplerConfig(**{**CLASSIFIER, "p0": None}, mode="unconstrained"), "p0",
          "SamplerConfig-None"),
    probe(lambda: SliceMarginals(pr_l1="abc", vvhat0=UNIFORM, vvhat1=UNIFORM), "pr_l1",
          "SliceMarginals-text"),
    probe(lambda: FullJoint(cells="x"), "cells", "FullJoint-text"),
    probe(lambda: FullJoint(cells=[1j / 16] * 16), "cells", "FullJoint-complex"),
    probe(lambda: GapReport(**{**GAPS, "G": "x"}), "G", "GapReport-text"),
    probe(lambda: BoundReport("x", 1, 1, 1, 1, 1), "bound_A", "BoundReport-text"),
    probe(lambda: estimate(DS, smoothing="x"), "smoothing", "estimate-smoothing"),
    probe(lambda: bootstrap(DS, 10, level="x"), "level", "bootstrap-level"),
    probe(lambda: estimate_with_bootstrap(DS, level=None), "level",
          "estimate_with_bootstrap-level"),
    probe(lambda: percentile([1.0, 2.0], "x"), "q", "percentile-q"),
    probe(lambda: percentile("abc", 0.5), "values", "percentile-text"),
    probe(lambda: percentile([[1, 2], [3]], 0.5), "values", "percentile-ragged"),
    probe(lambda: sweep(CFG, "eps_b1", ["x"], 10, 1), "grid", "sweep-text"),
    probe(lambda: sweep(CFG, "eps_b1", [None], 10, 1), "grid", "sweep-None"),
    probe(lambda: sweep(CFG, "eps_b1", 5, 10, 1), "grid", "sweep-number"),
    probe(lambda: sweep(CFG, "eps_b1", "0.1", 10, 1), "grid", "sweep-string"),
    probe(lambda: classifier_structure_params(.1, .1, .1, .1, eps_b1="x"), "eps_b1",
          "classifier_structure_params-eps_b1"),
    probe(lambda: independence_diagnostics(JOINT, tol="x"), "tol",
          "independence_diagnostics-tol"),
    probe(lambda: consistent_marginals(M1, pr_l1=None), "pr_l1", "consistent_marginals-pr_l1"),
    probe(lambda: consistent_marginals(M1, pr_v1=(0.5,)), "pr_v1",
          "consistent_marginals-one-pr_v1"),
    probe(lambda: consistent_marginals(M1, pr_v1=None), "pr_v1",
          "consistent_marginals-None-pr_v1"),
    # and each of these was accepted
    probe(lambda: SliceParams(**{**SLICE, "p": "0.5"}), "p", "SliceParams-numeric-text"),
    probe(lambda: SliceParams(**{**SLICE, "p": True}), "p", "SliceParams-bool"),
    probe(lambda: SamplerConfig(**CLASSIFIER, mode="constrained", eps_b1="0.1", eps_b2=0.2),
          "eps_b1", "SamplerConfig-numeric-text"),
    probe(lambda: StructureParams("0.1", 0.1, 0.1, 0.1, 0.1, 0.0), "gamma_A",
          "StructureParams-numeric-text"),
    probe(lambda: SliceMarginals(pr_l1=0.5, vvhat0=("0.25",) * 4, vvhat1=UNIFORM), "vvhat0",
          "SliceMarginals-numeric-text"),
    probe(lambda: SliceMarginals(pr_l1=0.5, vvhat0=(True, False, False, False),
                                 vvhat1=UNIFORM), "vvhat0", "SliceMarginals-bools"),
    probe(lambda: Histogram(bin_edges=("a", "b"), counts=(1,)), "bin_edges", "Histogram-text"),
    probe(lambda: consistent_marginals(M1, pr_v1=(0.5, 0.5, 0.5)), "pr_v1",
          "consistent_marginals-three-pr_v1"),
    probe(lambda: percentile([None], 0.5), "values", "percentile-None"),
]


@pytest.mark.parametrize("call, name", PROBES)
def test_probe_raises_validation_error_naming_the_argument(call, name):
    with pytest.raises(ValidationError) as err:
        call()
    assert re.match(rf"{name}\b", str(err.value)), str(err.value)


def test_checked_values_are_floats_and_messages_keep_their_wording():
    params = SliceParams(p=np.float32(0.5), r=1, a=np.int64(0), b=0.25, c=1.0)
    assert [type(getattr(params, f)) for f in "prabc"] == [float] * 5
    assert Histogram(bin_edges=np.array([0.0, 1.0]), counts=(1,)).bin_edges == (0.0, 1.0)
    for call, message in (
        (lambda: SliceParams(**{**SLICE, "p": 10**400}), "p is an integer too large for a float"),
        (lambda: SliceParams(**{**SLICE, "p": math.nan}), "p must lie in [0, 1], got nan"),
        (lambda: percentile([1.0], 0.0), "q must lie in (0, 1], got 0.0"),
        (lambda: StructureParams(0, 0, 0, 0, 0, -1.5), "g_star must lie in [-1, 1], got -1.5"),
        (lambda: sweep(CFG, "eps_b1", [0.5, 2], 10, 1),
         "grid values must lie in [0, 1], got 2.0"),
        (lambda: consistent_marginals(M1, pr_v1=[0.5] * 3),
         "pr_v1 needs one probability per slice, got 3"),
        (lambda: Histogram(bin_edges=[[0.0, 1.0], [2.0, 3.0]], counts=(1,)),
         "bin_edges must be a sequence of real numbers"),
    ):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message


#: A value for a real-valued parameter: a valid one, or one of each kind a
#: caller may pass by mistake.
ANY_VALUE = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(),
    st.integers(-2, 2),
    st.sampled_from([
        None, True, False, math.nan, math.inf, -math.inf, 10**400,
        np.float32(0.5), np.int64(1), np.bool_(True), np.array(0.5), "0.5",
    ]),
    st.text(max_size=3),
    st.complex_numbers(max_magnitude=2.0),
    st.lists(st.floats(0.0, 1.0), max_size=17),
    st.lists(st.one_of(st.floats(), st.none(), st.booleans(), st.text(max_size=2),
                       st.lists(st.floats(0.0, 1.0), max_size=2)), max_size=4),
)

#: Each public callable with a real-valued parameter, and a valid value of each.
TARGETS = {
    "FullJoint": (FullJoint, {"cells": np.full(16, 1 / 16)}),
    "SliceParams": (SliceParams, {**SLICE, "d": 0.3}),
    "SliceMarginals": (SliceMarginals, {"pr_l1": 0.5, "vvhat0": UNIFORM, "vvhat1": UNIFORM}),
    "GapReport": (GapReport, GAPS),
    "consistent_marginals": (
        lambda **kw: consistent_marginals(M1_WITH_D, **kw), {"pr_l1": 0.5, "pr_v1": (0.5, 0.5)}
    ),
    "StructureParams": (StructureParams, {
        "gamma_A": 0.1, "gamma_B1": 0.0, "gamma_B2": 0.0, "eps_B1": 0.1, "eps_B2": 0.1,
        "g_star": 0.0,
    }),
    "BoundReport": (BoundReport, {
        "bound_A": 1, "bound_B1": 1, "bound_B2": 1, "bound_combined_stated": 1,
        "bound_combined_proof": 1, "best": 1,
    }),
    "classifier_structure_params": (
        classifier_structure_params, {**CLASSIFIER, "eps_b1": 0.2, "eps_b2": 0.2}
    ),
    "independence_diagnostics": (
        lambda **kw: independence_diagnostics(JOINT, **kw), {"tol": 1e-9}
    ),
    "IndependenceDiagnostics": (
        lambda **kw: IndependenceDiagnostics(
            case1_holds=True, case2_holds=True, case3_holds=True, **kw
        ),
        dict.fromkeys(("tol", "case1_deviation", "case2_deviation", "case3_deviation",
                       "bound_case2", "bound_case3", "gap_error"), 0.0),
    ),
    "SamplerConfig": (
        lambda **kw: SamplerConfig(mode="constrained", **kw),
        {**CLASSIFIER, "eps_b1": 0.2, "eps_b2": 0.2},
    ),
    "Histogram": (lambda **kw: Histogram(counts=(1, 1), **kw), {"bin_edges": (0.0, 0.5, 1.0)}),
    "SimulationResult": (
        lambda **kw: SimulationResult(
            n_trials=1, histogram=Histogram((0.0, 1.0), (1,)), bounds=BOUNDS, seed=0, **kw
        ),
        {"errors": [0.5], "p95": 0.5, "rejection_rate": 0.0},
    ),
    "SweepPoint": (SweepPoint, dict.fromkeys(
        ("grid_value", "p95", "bound_a", "bound_combined_stated", "bound_combined_proof"), 0.0
    )),
    "SweepResult": (
        lambda **kw: SweepResult(varied="eps_b1", points=(), n_trials=1, seed=0, **kw),
        {"fixed_value": 0.2, "grid": (0.0,)},
    ),
    "percentile": (percentile, {"values": [0.1, 0.2], "q": 0.5}),
    "sweep": (lambda **kw: sweep(CFG, "eps_b1", n_trials=5, seed=1, **kw), {"grid": [0.0, 0.5]}),
    "fit_joint": (lambda **kw: fit_joint(DS, **kw), {"smoothing": 0.5}),
    "estimate": (lambda **kw: estimate(DS, **kw), {"smoothing": 0.5}),
    "bootstrap": (
        lambda **kw: bootstrap(DS, 5, seed=1, **kw), {"level": 0.9, "smoothing": 0.5}
    ),
    "estimate_with_bootstrap": (
        lambda **kw: estimate_with_bootstrap(DS, replicates=5, **kw),
        {"smoothing": 0.5, "level": 0.9},
    ),
    "EstimateReport": (
        lambda **kw: EstimateReport(n=1, counts=(1,), counts_index="", **kw),
        {"g_hat": 0.0, "smoothing": 0.0},
    ),
    "BootstrapResult": (
        lambda **kw: BootstrapResult(intervals={}, replicates=1, skipped=0, seed=0, **kw),
        {"level": 0.95},
    ),
}


@pytest.mark.parametrize("target", TARGETS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_library_input_returns_or_raises_gap_gauge_error(target, data):
    call, valid = TARGETS[target]
    kwargs = {
        name: data.draw(st.just(value) | ANY_VALUE, label=name) for name, value in valid.items()
    }
    with contextlib.suppress(GapGaugeError):
        call(**kwargs)


RECORDS = b"l,v,vhat,y\n" + b"".join(
    b"%d,%d,%d,%d\n" % (i >> 3, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(16)
)
CONFIG = json.dumps({**CLASSIFIER, "mode": "constrained", "eps_b1": 0.2, "eps_b2": 0.2})

#: Each command with one input file: valid content for it, and its other arguments.
COMMANDS = {
    "estimate": (RECORDS, ["--bootstrap", "5"]),
    "analyze": (json.dumps(model_payload(M1)).encode(), []),
    "simulate": (CONFIG.encode(), ["--trials", "20"]),
    "sweep": (CONFIG.encode(), ["--varied", "eps_b1", "--grid", "0:1:0.5", "--trials", "5"]),
}


@st.composite
def file_contents(draw, valid: bytes) -> bytes:
    """Arbitrary bytes, or ``valid`` with a run of its bytes replaced by arbitrary ones."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    start = draw(st.integers(0, len(valid)))
    stop = draw(st.integers(start, min(start + 8, len(valid))))
    return valid[:start] + draw(st.binary(max_size=8)) + valid[stop:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-inputs")


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_input_file_exits_with_a_documented_status(workdir, command, data):
    valid, options = COMMANDS[command]
    content = data.draw(file_contents(valid), label="content")
    path = workdir / f"{command}.input"
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *options, "--out", str(workdir / command)])
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("gap-gauge: ") and lines[0].endswith("\n")
    else:
        assert err.getvalue() == ""
