import numpy as np
import pytest

from gap_gauge import FullJoint, ReducedModel, SliceParams, consistent_marginals, expand
from gap_gauge.files import result_dict

# Hand-checked worked example used throughout: all gap quantities and
# structure parameters below are verified by pencil arithmetic in the tests.
M1 = ReducedModel(
    slice0=SliceParams(p=0.05, r=0.1, a=0.5, b=0.4, c=0.6),
    slice1=SliceParams(p=0.07, r=0.09, a=0.7, b=0.6, c=0.8),
)

M1_WITH_D = ReducedModel(
    slice0=SliceParams(p=0.05, r=0.1, a=0.5, b=0.4, c=0.6, d=0.3),
    slice1=SliceParams(p=0.07, r=0.09, a=0.7, b=0.6, c=0.8, d=0.2),
)


@pytest.fixture
def m1() -> ReducedModel:
    return M1


@pytest.fixture
def m1_with_d() -> ReducedModel:
    return M1_WITH_D


@pytest.fixture
def m1_joint():
    return expand(M1_WITH_D, consistent_marginals(M1_WITH_D))


def model_payload(model) -> dict:
    """Model-file payload of ``model``; an unknown ``d`` is written as null."""
    return {"joint" if isinstance(model, FullJoint) else "reduced": result_dict(model)}


def random_reduced(rng: np.random.Generator, with_d: bool = False) -> ReducedModel:
    """Uniformly random model; every parameter drawn independently."""
    u = rng.random(12 if with_d else 10)
    if with_d:
        return ReducedModel(
            slice0=SliceParams(p=u[0], r=u[1], a=u[2], b=u[3], c=u[4], d=u[5]),
            slice1=SliceParams(p=u[6], r=u[7], a=u[8], b=u[9], c=u[10], d=u[11]),
        )
    return ReducedModel(
        slice0=SliceParams(p=u[0], r=u[1], a=u[2], b=u[3], c=u[4]),
        slice1=SliceParams(p=u[5], r=u[6], a=u[7], b=u[8], c=u[9]),
    )


# One-line verdicts from the acceptance tests, echoed after the run summary
# so they are visible without -s.
CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
