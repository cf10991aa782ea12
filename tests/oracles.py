"""Reference computations that take another route than the library's, so tests
can compare the two bit for bit. They check no arguments.

- Conditional rates by summing a joint's cells, one query at a time; the
  library computes every rate with the array algebra (``model._rate``). A
  variable is one of ``VARIABLES``, set to 0 or 1.
- The constrained sampler drawn uniform by uniform with ``Generator.uniform``;
  the library maps seven doubles an attempt through one array expression
  (``simulation._constrained_cells``).
"""

from gap_gauge import (
    GapReport, RejectionBudgetExhausted, ReducedModel, SliceParams, ZeroMassCondition,
    compute_gaps,
)
from gap_gauge.model import _clip_unit

#: Variable names in axis order; flat cell index is 8l + 4v + 2vhat + y.
VARIABLES = ("l", "v", "vhat", "y")


def _mass(table, assign) -> float:
    idx = tuple(assign.get(name, slice(None)) for name in VARIABLES)
    return float(table[idx].sum())


def conditional_prob(joint, target, given) -> float:
    """Pr[target | given] under ``joint``; :class:`ZeroMassCondition` if ``given`` is empty."""
    table = joint.cells.reshape(2, 2, 2, 2)
    den = _mass(table, given)
    if den == 0.0:
        event = ", ".join(f"{k}={given[k]}" for k in VARIABLES if k in given)
        raise ZeroMassCondition(event or "(unconditional)")
    return _clip_unit(_mass(table, {**target, **given}) / den)


def gaps_from_joint(joint) -> GapReport:
    """The gap report of ``joint`` from Pr[y=1 | v=1, l] and Pr[y=1 | vhat=1, l]."""
    py_v1 = [conditional_prob(joint, {"y": 1}, {"v": 1, "l": l}) for l in (0, 1)]
    py_vhat1 = [conditional_prob(joint, {"y": 1}, {"vhat": 1, "l": l}) for l in (0, 1)]
    g, g_hat = py_v1[1] - py_v1[0], py_vhat1[1] - py_vhat1[0]
    delta0, delta1 = (py_v1[l] - py_vhat1[l] for l in (0, 1))
    return GapReport(G=g, G_hat=g_hat, delta0=delta0, delta1=delta1, error=abs(g - g_hat))


def constrained_attempt(stream, eps_b1, eps_b2):
    """The cells a0, b0, c0, a1, b1, c1 of one constrained attempt, which may fall outside
    [0, 1]. It draws the shift g on [-1, 1]; a0 then b0 on the g-feasible range;
    c0's diagonal residual on [-eps_b1, eps_b1]; then the residuals of a1, b1, c1 on
    [-eps_b2, eps_b2] in one call."""
    g = stream.uniform(-1.0, 1.0)
    lo, hi = (0.0, 1.0 - g) if g >= 0.0 else (-g, 1.0)
    a0 = stream.uniform(lo, hi)
    b0 = stream.uniform(lo, hi)
    c0 = b0 + stream.uniform(-eps_b1, eps_b1)
    ea, eb, ec = stream.uniform(-eps_b2, eps_b2, size=3)
    return a0, b0, c0, a0 + g + ea, b0 + g + eb, c0 + g + ec


def constrained_trial(config, stream):
    """The error of one constrained trial and the attempts it took: the first attempt with
    every cell in [0, 1] is kept; :class:`RejectionBudgetExhausted` after
    ``config.max_rejections`` attempts."""
    for attempt in range(1, config.max_rejections + 1):
        cells = constrained_attempt(stream, config.eps_b1, config.eps_b2)
        if all(0.0 <= x <= 1.0 for x in cells):
            a0, b0, c0, a1, b1, c1 = cells
            model = ReducedModel(
                slice0=SliceParams(p=config.p0, r=config.r0, a=a0, b=b0, c=c0),
                slice1=SliceParams(p=config.p1, r=config.r1, a=a1, b=b1, c=c1),
            )
            return compute_gaps(model).error, attempt
    raise RejectionBudgetExhausted(config.max_rejections)
