"""Conditional rates by summing a joint's cells, one query at a time.

The library computes every rate with the array algebra (``model._rate``); these
oracles take the other route, so tests can compare the two bit for bit. They
check no arguments: a variable is one of ``VARIABLES``, set to 0 or 1.
"""

from gap_gauge import GapReport, ZeroMassCondition
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
