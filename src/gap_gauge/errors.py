"""Exception types raised by gap-gauge.

Every error the library raises deliberately derives from :class:`GapGaugeError`.
Each error type's ``exit_code`` is the status the CLI exits with when it
reports one: 2 for validation and schema problems, 3 for undefined
quantities, 4 for sampler budget exhaustion.
"""

from __future__ import annotations

__all__ = [
    "GapGaugeError",
    "ValidationError",
    "ZeroMassCondition",
    "InconsistentMarginals",
    "MissingCell",
    "MissingColumn",
    "MalformedRow",
    "MixedSchema",
    "EmptyInput",
    "EmptySample",
    "RejectionBudgetExhausted",
    "AllReplicatesDegenerate",
]


class GapGaugeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ValidationError(GapGaugeError, ValueError):
    """A value, field, or file violates its declared contract.

    The message names the offending field or value so callers can report it.
    """


class ZeroMassCondition(GapGaugeError):
    """A conditional quantity is undefined because its conditioning event has
    probability (or count) zero.

    Carries the event description so the first undefined quantity can be named.
    """

    exit_code = 3

    def __init__(self, event: str):
        self.event = event
        super().__init__(f"conditioning event has zero mass: {event}")


class InconsistentMarginals(ValidationError):
    """Supplied v/v-hat marginals disagree with a model's precision/recall
    parameters beyond tolerance, or cannot express them at all."""


class MissingCell(ValidationError):
    """An operation needs a confusion cell the model does not carry
    (the fourth outcome probability is optional and may be omitted)."""


class MissingColumn(ValidationError):
    """A dataset lacks a column the requested computation needs."""


class MalformedRow(ValidationError):
    """A data file row (or its header) cannot be parsed.

    ``line`` is the 1-based physical line number in the input.
    """

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class MixedSchema(MalformedRow):
    """Optional columns must be uniformly present or uniformly empty; this
    file mixes both."""


class EmptyInput(GapGaugeError):
    """A dataset or filter result contains no rows."""

    exit_code = 3


class EmptySample(GapGaugeError):
    """A percentile was requested from an empty collection."""

    exit_code = 3


class RejectionBudgetExhausted(GapGaugeError):
    """The constrained sampler failed to produce a valid model within its
    attempt budget.

    ``trial_index`` identifies the failing trial when raised from a Monte
    Carlo run (None when raised from a direct sampler call), and ``point``
    the sweep grid point it ran at, as ``eps_b2 = 1.0`` (None outside a sweep).
    """

    exit_code = 4

    def __init__(
        self, max_rejections: int, trial_index: int | None = None, point: str | None = None
    ):
        self.max_rejections = max_rejections
        self.trial_index = trial_index
        self.point = point
        where = f" at trial {trial_index}" if trial_index is not None else ""
        where += f" of {point}" if point is not None else ""
        super().__init__(
            f"no valid sample after {max_rejections} attempts{where}"
        )


class AllReplicatesDegenerate(GapGaugeError):
    """Every bootstrap replicate failed to produce an estimate."""

    exit_code = 3
