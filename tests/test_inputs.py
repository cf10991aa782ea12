"""Bad input ends in a ``GapGaugeError``, never in a raw exception.

Every real-valued argument of the library goes through one check,
``model._require_real``, and every array of reals through
``model._require_real_array``: a bool, text, ``None``, a complex number, an
integer too large for a float or a ragged or wrongly sized sequence is a
``ValidationError`` that names the argument, or the element at fault as
``name[i]``, a bool among numbers included. A real-valued dataclass field
declares its domain in its annotation, and ``model._check_fields`` checks it
on construction: ``Unit`` is [0, 1], ``OpenUnit`` (0, 1), ``Signed``
[-1, 1], ``NonNegative`` [0, inf] and a plain ``float`` any real number.
So does an integer field, ``Count`` (1, 2, ...), ``U64`` ([0, 2**64)) or a
plain ``int`` tally (0, 1, ...), a ``str`` or ``bool`` field, a container
field, ``tuple[float, ...]``, ``tuple[int, ...]`` (tallies) or
``np.ndarray`` (reals), and a field holding a library dataclass. A
dataset's row indices must lie in [0, n), and ``sample_dataset`` draws
at most ``MAX_ROWS`` rows. A model, joint, sampler
config, dataset or other library object of the wrong class is a
``ValidationError`` that names the parameter and the class it expects, and
so is a records input that is no text, bytes, file or lines of text. The probes pin one case of each
kind; one test gives every real-valued field of every public dataclass
text, a bool and ``None``, another gives every integer, text, flag,
container or nested field wrong values; the property tests give every real-valued
parameter of the package's public dataclasses and functions values of every
kind, and give the command line arbitrary bytes as each of its input files.
Comparing two dataclass values, arrays included, never raises either.
"""

import contextlib
import copy
import dataclasses
import inspect
import io
import json
import math
import re
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gap_gauge
from gap_gauge import (
    BootstrapResult, BoundReport, EstimateReport, FullJoint, GapGaugeError, GapReport, Histogram,
    IndependenceDiagnostics, SamplerConfig, SimulationResult, SliceMarginals, SliceParams,
    StructureParams, SweepPoint, ValidationError, bootstrap, bound_report,
    bound_report_from_params, classifier_structure_params, compute_gaps,
    config_bounds, consistent_marginals, derive_trial_stream, estimate, estimate_with_bootstrap,
    expand, filter_ystar, fit_joint, independence_diagnostics, parse_records,
    percentile, read_records_csv, reduce, run_monte_carlo, sample_constrained, sample_dataset,
    sample_unconstrained, structure_params, sweep,
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
HUGE = 10**400  # an integer too large for a float


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
    probe(lambda: Histogram(bin_edges=(0.0, 1.0), counts=("x",)), "counts",
          "Histogram-text-count"),
    probe(lambda: parse_records(5), "stream", "parse_records-int"),
    probe(lambda: parse_records(None), "stream", "parse_records-None"),
    probe(lambda: parse_records(3.5), "stream", "parse_records-float"),
    probe(lambda: parse_records(object()), "stream", "parse_records-object"),
    probe(lambda: read_records_csv(None), "path", "read_records_csv-None"),
    probe(lambda: read_records_csv(5.5), "path", "read_records_csv-float"),
    probe(lambda: DS.take([1000]), "row indices", "take-past-the-end"),
    probe(lambda: sample_dataset(JOINT, 10**20, 1), "n", "sample_dataset-huge"),
    probe(lambda: sample_dataset(JOINT, 2**62, 1), "n", "sample_dataset-too-big"),
    # this one raised a MalformedRow citing line 0
    probe(lambda: parse_records([b"l,v,vhat,y"]), "stream", "parse_records-bytes-lines"),
    # this one read file descriptor 1, stdout, and closed it
    probe(lambda: read_records_csv(True), "path", "read_records_csv-bool"),
    # and each of these was accepted
    probe(lambda: DS.take([-1]), "row indices", "take-negative"),
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
    probe(lambda: Histogram(bin_edges=(0.0, 1.0), counts=(1.5,)), "counts",
          "Histogram-fractional-count"),
    # numpy reads a bool among numbers as a number
    probe(lambda: FullJoint(cells=[True] + [0.0] * 15), "cells", "FullJoint-bool-cell"),
    probe(lambda: SliceMarginals(pr_l1=0.5, vvhat0=(True, 0.0, 0.0, 0.0), vvhat1=UNIFORM),
          "vvhat0", "SliceMarginals-bool-entry"),
    probe(lambda: sweep(CFG, "eps_b1", [0.0, True], 10, 1), "grid", "sweep-bool-value"),
    probe(lambda: percentile([True, 0.5], 0.5), "values", "percentile-bool-value"),
    probe(lambda: Histogram(bin_edges=(0.0, 0.5, 1.0), counts=(True, 1)), "counts",
          "Histogram-bool-count"),
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
    counts = Histogram(bin_edges=(0.0, 0.5, 1.0), counts=(np.int64(2), 0)).counts
    assert counts == (2, 0) and [type(c) for c in counts] == [int, int]
    # numpy keeps an integer past 2**64 as an object, but it is a real number
    assert percentile([2**70, 1.0], 1.0) == 2.0**70
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
        (lambda: Histogram(bin_edges=(0.0, 1.0), counts=(True,)),
         "counts[0] must be a non-negative integer, got True"),
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

#: Each public callable with a real-valued parameter or a records input, and a valid
#: value of each.
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
    "percentile": (percentile, {"values": [0.1, 0.2], "q": 0.5}),
    "parse_records": (parse_records, {"stream": "l,v,vhat,y\n0,1,1,1\n"}),
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


def real_fields():
    """(class, field, takes None) of each real-valued field of each public dataclass."""
    found = []
    for name in gap_gauge.__all__:
        cls = getattr(gap_gauge, name)
        if dataclasses.is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            for field in dataclasses.fields(cls):
                hint = hints[field.name]
                if hint in (float, float | None):
                    found.append(pytest.param(
                        name, field.name, hint is not float, id=f"{name}.{field.name}"
                    ))
    return found


@pytest.mark.parametrize("target, field, optional", real_fields())
def test_every_real_field_refuses_text_bools_and_none(target, field, optional):
    call, valid = TARGETS[target]
    assert field in valid
    for value in ("x", True) if optional else ("x", True, None):
        with pytest.raises(ValidationError) as err:
            call(**{**valid, field: value})
        assert str(err.value).startswith(f"{field} "), str(err.value)


#: A valid instance of each public dataclass with an integer, text, flag, container or nested
#: field.
INSTANCES = {
    "FullJoint": JOINT,
    "ReducedModel": M1,
    "SliceMarginals": consistent_marginals(M1_WITH_D),
    "Histogram": Histogram(bin_edges=(0.0, 0.5, 1.0), counts=(1, 1)),
    "IndependenceDiagnostics": independence_diagnostics(JOINT),
    "SamplerConfig": CFG,
    "SimulationResult": run_monte_carlo(CFG, 5, seed=1),
    "EstimateReport": estimate_with_bootstrap(DS, replicates=5),
    "BootstrapResult": bootstrap(DS, 5),
}

#: Values each kind of checked field refuses (and ``None``, unless it is optional).
WRONG_VALUES = {
    "Count": ("x", True, 0, -3, 1.5, np.float64(2.0), [1]),
    "U64": ("x", True, -1, 2**64, 1.5, np.float64(2.0), [1]),
    "int": ("x", True, -1, 1.5, np.float64(2.0), [1]),
    "str": (5, b"x", ["x"]),
    "bool": ("x", 1, 0, np.float64(1.0)),
    "class": ("x", 1.5, object(), JOINT),
    "tuple[float, ...]": ("x", 5, [[0.0, 1.0]], ["0.5"], [None], [0.0, True], [1j], [HUGE]),
    "tuple[int, ...]": ("x", 5, [1.5], [True], [1, True], [-1], np.array([1, -1]), [None]),
    "np.ndarray": ("x", [None] * 16, [True] + [0.0] * 15, [1j] * 16, [[0.5], [0.5, 0.5]],
                   [HUGE] * 16),
    "tuple[float, float, float, float]": ("x", 5, (0.25,) * 3, (0.25,) * 5, ("0.25",) * 4,
                                          (True, 0.0, 0.0, 0.0), [[0.25] * 4], (HUGE,) * 4),
    "dict[str, tuple[float, float]]": ("x", 5, [("G", (0.0, 1.0))], {1: (0.0, 1.0)},
                                       {"G": 0.5}, {"G": (0.0,)}, {"G": (0.0, 1.0, 2.0)},
                                       {"G": ("0", 1.0)}, {"G": (True, 1.0)}, {"G": (HUGE, 1.0)}),
}

#: The int fields that are plain tallies, not counts or seeds.
TALLIES = {("BootstrapResult", "skipped")}


def declared_fields():
    """(class, field, kind, takes None) of each integer, text, flag, container or nested
    field of each public dataclass; the kind of an integer field is its annotation,
    ``Count``, ``U64`` or ``int``, of a text or flag field ``str`` or ``bool``, and of a
    container its annotation, one of the containers of ``WRONG_VALUES``. A
    ``RecordDataset`` is built from its columns, not from its fields."""
    found = []
    for name in gap_gauge.__all__:
        cls = getattr(gap_gauge, name)
        if dataclasses.is_dataclass(cls) and name != "RecordDataset":
            hints = typing.get_type_hints(cls)
            for field in dataclasses.fields(cls):
                hint, annotation = hints[field.name], field.type.removesuffix(" | None")
                args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
                if hint in (int, str, bool) or annotation in WRONG_VALUES:
                    kind = annotation
                elif dataclasses.is_dataclass(hint) or args and dataclasses.is_dataclass(args[0]):
                    kind = "class"
                else:
                    continue
                optional = annotation != field.type
                found.append(pytest.param(
                    name, field.name, kind, optional, id=f"{name}.{field.name}"
                ))
    return found


def test_every_int_field_is_a_count_a_seed_or_a_tally():
    kinds = {(p.values[0], p.values[1]): p.values[2] for p in declared_fields()}
    assert {key for key, kind in kinds.items() if kind == "int"} == TALLIES
    seeds = [kind for (_, field), kind in kinds.items() if field == "seed"]
    assert seeds == ["U64"] * 2


@pytest.mark.parametrize("target, field, kind, optional", declared_fields())
def test_every_integer_and_nested_field_refuses_wrong_values(target, field, kind, optional):
    valid = INSTANCES[target]
    dataclasses.replace(valid, **{field: getattr(valid, field)})
    for value in WRONG_VALUES[kind] + (() if optional else (None,)):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(valid, **{field: value})
        # a container names the element at fault, as ``field[i]``, ``field['key']`` or
        # ``field['key'][i]``
        assert re.match(rf"{field}(\['\w+'\])?(\[\d+\])? ", str(err.value)), str(err.value)


#: For each instance of ``INSTANCES``, one field and another valid value for it.
CHANGES = {
    "FullJoint": ("cells", np.r_[0.0, np.full(14, 1 / 16), 0.125]),
    "ReducedModel": ("slice1", M1.slice0),
    "SliceMarginals": ("pr_l1", 0.25),
    "Histogram": ("counts", (2, 0)),
    "IndependenceDiagnostics": ("gap_error", 0.5),
    "SamplerConfig": ("eps_b1", 0.3),
    "SimulationResult": ("errors", np.zeros(5)),
    "EstimateReport": ("smoothing", 1.0),
    "BootstrapResult": ("skipped", 1),
}


@pytest.mark.parametrize("target", [*INSTANCES, "RecordDataset"])
def test_values_equal_an_equal_copy_and_differ_from_a_changed_one(target):
    if target == "RecordDataset":
        value = parse_records("l,v,vhat,y\n0,1,1,0\n1,0,1,1\n")
        changed = parse_records("l,v,vhat,y\n0,1,1,0\n1,0,1,0\n")
    else:
        value = INSTANCES[target]
        field, other = CHANGES[target]
        changed = dataclasses.replace(value, **{field: other})
    same = copy.deepcopy(value)
    assert value == same and not value != same
    assert value != changed and not value == changed
    assert value != "x"


def object_parameters():
    """(function, parameter, class) of each parameter of a public function that takes a
    library dataclass or a random stream."""
    found = []
    for name in gap_gauge.__all__:
        function = getattr(gap_gauge, name)
        if inspect.isfunction(function):
            hints = typing.get_type_hints(function)
            for parameter in inspect.signature(function).parameters:
                cls = hints.get(parameter)
                if dataclasses.is_dataclass(cls) or cls is np.random.Generator:
                    found.append(pytest.param(name, parameter, cls, id=f"{name}-{parameter}"))
    return found


UNCONSTRAINED = SamplerConfig(**CLASSIFIER, mode="unconstrained")

#: Each public function called with text in place of one library object it takes.
WRONG_CLASS = {
    ("reduce", "joint"): lambda: reduce("x"),
    ("expand", "model"): lambda: expand("x", consistent_marginals(M1_WITH_D)),
    ("expand", "marginals"): lambda: expand(M1_WITH_D, "x"),
    ("consistent_marginals", "model"): lambda: consistent_marginals("x"),
    ("compute_gaps", "model"): lambda: compute_gaps("x"),
    ("structure_params", "model"): lambda: structure_params("x"),
    ("bound_report", "model"): lambda: bound_report("x"),
    ("bound_report_from_params", "params"): lambda: bound_report_from_params("x"),
    ("independence_diagnostics", "joint"): lambda: independence_diagnostics("x"),
    ("sample_unconstrained", "config"):
        lambda: sample_unconstrained("x", derive_trial_stream(1, 0)),
    ("sample_unconstrained", "stream"): lambda: sample_unconstrained(UNCONSTRAINED, "x"),
    ("sample_constrained", "config"): lambda: sample_constrained("x", derive_trial_stream(1, 0)),
    ("sample_constrained", "stream"): lambda: sample_constrained(CFG, "x"),
    ("config_bounds", "config"): lambda: config_bounds("x"),
    ("run_monte_carlo", "config"): lambda: run_monte_carlo("x", 10, 1),
    ("sweep", "base"): lambda: sweep("x", "eps_b1", [0.5], 10, 1),
    ("sample_dataset", "joint"): lambda: sample_dataset("x", 10, 1),
    ("filter_ystar", "dataset"): lambda: filter_ystar("x"),
    ("fit_joint", "dataset"): lambda: fit_joint("x"),
    ("estimate", "dataset"): lambda: estimate("x"),
    ("bootstrap", "dataset"): lambda: bootstrap("x", 10),
    ("estimate_with_bootstrap", "dataset"): lambda: estimate_with_bootstrap("x"),
}


@pytest.mark.parametrize("function, parameter, cls", object_parameters())
def test_object_of_another_class_is_refused_naming_the_class(function, parameter, cls):
    with pytest.raises(ValidationError) as err:
        WRONG_CLASS[function, parameter]()
    assert str(err.value) == f"{parameter} must be a {cls.__name__}"


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
