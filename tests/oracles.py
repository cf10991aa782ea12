"""Reference computations that take another route than the library's, so tests
can compare the two bit for bit. They check no arguments.

- Conditional rates by summing a joint's cells, one query at a time; the
  library computes every rate with the array algebra (``model._rate``). A
  variable is one of ``VARIABLES``, set to 0 or 1.
- A joint rebuilt cell by cell from a reduced model and (v, vhat) marginals,
  with p and r divided out of each table by hand; the library writes each slice
  from one outcome vector and reads p and r with ``model._rate``.
- The constrained sampler drawn uniform by uniform with ``Generator.uniform``;
  the library maps seven doubles an attempt through one array expression
  (``simulation._constrained_cells``).
"""

import numpy as np

from gap_gauge import (
    GapReport, InconsistentMarginals, MissingCell, RejectionBudgetExhausted, ReducedModel,
    SliceParams, ZeroMassCondition, compute_gaps,
)
from gap_gauge.model import VALIDATION_TOL

#: Variable names in axis order; flat cell index is 8l + 4v + 2vhat + y.
VARIABLES = ("l", "v", "vhat", "y")


def _clip(x: float) -> float:
    """``x`` clipped to [0, 1]; -0.0 and NaN pass through."""
    return min(max(x, 0.0), 1.0)


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
    return _clip(_mass(table, {**target, **given}) / den)


def gaps_from_joint(joint) -> GapReport:
    """The gap report of ``joint`` from Pr[y=1 | v=1, l] and Pr[y=1 | vhat=1, l]."""
    py_v1 = [conditional_prob(joint, {"y": 1}, {"v": 1, "l": l}) for l in (0, 1)]
    py_vhat1 = [conditional_prob(joint, {"y": 1}, {"vhat": 1, "l": l}) for l in (0, 1)]
    g, g_hat = py_v1[1] - py_v1[0], py_vhat1[1] - py_vhat1[0]
    delta0, delta1 = (py_v1[l] - py_vhat1[l] for l in (0, 1))
    return GapReport(G=g, G_hat=g_hat, delta0=delta0, delta1=delta1, error=abs(g - g_hat))


def implied_rates(table, l):
    """(p, r) of one slice's (v, vhat) table, with flat index 2v + vhat."""
    m00, m01, m10, m11 = table
    pvhat1 = m01 + m11
    pv1 = m10 + m11
    if pvhat1 <= 0.0:
        raise InconsistentMarginals(
            f"marginals give Pr[vhat=1 | l={l}] = 0, so no precision is expressible"
        )
    if pv1 <= 0.0:
        raise InconsistentMarginals(
            f"marginals give Pr[v=1 | l={l}] = 0, so no recall is expressible"
        )
    return _clip(m01 / pvhat1), _clip(m10 / pv1)


def expand_cells(model, marginals):
    """The 16 cells of ``expand(model, marginals)``, written one (v, vhat) cell at a time,
    after the same checks and with the same messages."""
    cells = np.zeros(16)
    for l, (params, table) in enumerate(zip(model.slices(), marginals.tables())):
        if params.d is None:
            raise MissingCell(f"expand needs d on slice {l}; the model omits it")
        implied_p, implied_r = implied_rates(table, l)
        if abs(implied_p - params.p) > VALIDATION_TOL:
            raise InconsistentMarginals(
                f"slice {l}: marginals imply p = {implied_p!r}, model has {params.p!r}"
            )
        if abs(implied_r - params.r) > VALIDATION_TOL:
            raise InconsistentMarginals(
                f"slice {l}: marginals imply r = {implied_r!r}, model has {params.r!r}"
            )
        weight = marginals.pr_l1 if l == 1 else 1.0 - marginals.pr_l1
        outcome = {(0, 0): params.d, (0, 1): params.c, (1, 0): params.b, (1, 1): params.a}
        for v in (0, 1):
            for vhat in (0, 1):
                mass = weight * table[2 * v + vhat]
                q = outcome[(v, vhat)]
                base = 8 * l + 4 * v + 2 * vhat
                cells[base + 1] = mass * q
                cells[base] = mass * (1.0 - q)
    return cells


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
