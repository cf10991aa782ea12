"""gap-gauge: how wrong is a gap measured through a noisy proxy?

The package quantifies the error of estimating a conditional outcome gap when
the attribute defining the compared groups is only available through an
imperfect proxy. It computes the exact error for fully specified models,
evaluates worst-case bounds from interpretable structure parameters, checks
independence conditions under which the proxy is harmless, runs seeded Monte
Carlo studies of the error distribution, and estimates everything from
record-level data with bootstrap intervals.
"""

import importlib

__version__ = "0.1.0"

#: Every public name, with the module that defines it. A name is imported
#: from its module on first use, so ``import gap_gauge`` loads no numpy.
_EXPORTS = {
    **dict.fromkeys((
        "FullJoint", "SliceParams", "ReducedModel", "SliceMarginals", "GapReport",
        "reduce", "expand", "consistent_marginals", "compute_gaps",
    ), "model"),
    **dict.fromkeys((
        "StructureParams", "BoundReport", "IndependenceDiagnostics",
        "structure_params", "classifier_structure_params", "bound_report",
        "bound_report_from_params", "independence_diagnostics",
    ), "bounds"),
    **dict.fromkeys((
        "SamplerConfig", "Histogram", "SimulationResult", "SweepPoint",
        "derive_trial_stream", "derive_point_seed", "sample_unconstrained",
        "sample_constrained", "percentile", "config_bounds", "run_monte_carlo", "sweep",
    ), "simulation"),
    **dict.fromkeys((
        "RecordDataset", "EstimateReport", "BootstrapResult", "parse_records",
        "read_records_csv", "sample_dataset", "filter_ystar", "fit_joint",
        "estimate", "bootstrap", "estimate_with_bootstrap",
    ), "empirical"),
    **dict.fromkeys((
        "GapGaugeError", "ValidationError", "ZeroMassCondition", "InconsistentMarginals",
        "MissingCell", "MissingColumn", "MalformedRow", "MixedSchema", "EmptyInput",
        "EmptySample", "RejectionBudgetExhausted", "AllReplicatesDegenerate",
    ), "errors"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
