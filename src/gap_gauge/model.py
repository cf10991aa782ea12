"""Distribution models for gap measurement through a noisy proxy.

Four binary variables describe each population member:

    l     slice (conditioning) attribute
    v     true attribute of interest
    vhat  proxy for v reported by a classifier or annotator
    y     outcome

The true gap G compares outcome rates across slices among v = 1 holders,

    G = Pr[y=1 | v=1, l=1] - Pr[y=1 | v=1, l=0]

while the proxy gap G_hat makes the same comparison through vhat. This module
carries two interchangeable model representations and the exact algebra
connecting them:

* :class:`FullJoint` stores all 16 joint cell probabilities.
* :class:`ReducedModel` stores, per slice, the proxy error rates

      p_l = Pr[v=0  | vhat=1, l]      (precision complement)
      r_l = Pr[vhat=0 | v=1,   l]     (recall complement)

  and the confusion-cell outcome rates

      a_l = Pr[y=1 | v=1, vhat=1, l]
      b_l = Pr[y=1 | v=1, vhat=0, l]
      c_l = Pr[y=1 | v=0, vhat=1, l]
      d_l = Pr[y=1 | v=0, vhat=0, l]  (optional; never enters the gaps)

The reduced form is sufficient for every gap quantity:

    Pr[y=1 | v=1,    l] = (1 - r_l) a_l + r_l b_l
    Pr[y=1 | vhat=1, l] = (1 - p_l) a_l + p_l c_l
    delta_l             = (p_l - r_l) a_l + r_l b_l - p_l c_l
    |G - G_hat|         = |delta_1 - delta_0|
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    InconsistentMarginals,
    MissingCell,
    ValidationError,
    ZeroMassCondition,
)

__all__ = [
    "VARIABLES",
    "FullJoint",
    "SliceParams",
    "SliceRates",
    "ReducedModel",
    "SliceMarginals",
    "GapReport",
    "require_gap_identities",
    "conditional_prob",
    "reduce",
    "expand",
    "consistent_marginals",
    "gap_terms",
    "compute_gaps",
    "gaps_from_joint",
    "slice_rates",
]

#: Variable names in axis order; flat cell index is 8l + 4v + 2vhat + y.
VARIABLES = ("l", "v", "vhat", "y")

#: Tolerance for validation checks (probability sums, marginal consistency).
VALIDATION_TOL = 1e-9


def _require_real(value, name: str, lo=None, hi=math.inf, ends: str = "[]") -> float:
    """``value``, a real number but no bool, as a float; with ``lo``, one not NaN from ``lo``
    to ``hi``, each end closed or open as ``ends`` shows it: ``[]``, ``(]`` and so on."""
    # float first: every float is a ``numbers.Real``, but the ABC's check is slow
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past 1.8e308; its digits are not shown
        raise ValidationError(f"{name} is an integer too large for a float") from None
    if lo is not None and (
        not lo <= x <= hi or (x == lo and ends[0] == "(") or (x == hi and ends[1] == ")")
    ):
        raise ValidationError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {x!r}")
    return x


def _require_real_array(values, name: str, flat: bool = False) -> np.ndarray:
    """``values`` as a flat float array, not copied if it is one. numpy must read it as a
    sequence of ints or floats, or with ``flat`` as any nesting of them, so bools, text,
    ``None`` and ragged nestings fail."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not (flat or arr.ndim == 1):
        raise ValidationError(f"{name} must be a sequence of real numbers")
    return arr.astype(float, copy=False).reshape(-1)


def _require_count(value: int, name: str, most: int | None = None) -> int:
    """``value`` as an int from 1 to ``most``; a bool is not a count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    if most is not None and value > most:
        raise ValidationError(f"{name} must be at most {most}, got {value}")
    return int(value)


def _require_u64(value: int, name: str) -> int:
    """``value`` as an int in [0, 2**64); a seed or stream index of any other would alias."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not (0 <= value < 1 << 64):
        raise ValidationError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return value


def _clip_unit(x: float) -> float:
    # ratios of non-negative cell sums are probabilities up to float dust
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


@dataclass(frozen=True)
class FullJoint:
    """Joint distribution of (l, v, vhat, y) as 16 cell probabilities.

    ``cells`` is flat with index 8l + 4v + 2vhat + y. Cells must be
    non-negative and sum to 1 within ``VALIDATION_TOL``. The array is
    copied and frozen on construction.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        arr = _require_real_array(self.cells, "cells", flat=True).copy()
        if arr.size != 16:
            raise ValidationError(f"joint needs 16 cells, got {arr.size}")
        if np.any(np.isnan(arr)):
            raise ValidationError("joint cells contain NaN")
        neg = np.where(arr < 0.0)[0]
        if neg.size:
            i = int(neg[0])
            raise ValidationError(
                f"joint cell {i} ({_cell_name(i)}) is negative: {arr[i]!r}"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > VALIDATION_TOL:
            raise ValidationError(
                f"joint cells must sum to 1 within {VALIDATION_TOL}, got {total!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    def table(self) -> np.ndarray:
        """The cells as a (2, 2, 2, 2) array indexed [l, v, vhat, y]."""
        return self.cells.reshape(2, 2, 2, 2)


def _cell_name(i: int) -> str:
    return f"l={i >> 3 & 1},v={i >> 2 & 1},vhat={i >> 1 & 1},y={i & 1}"


def _event_name(assign: Mapping[str, int]) -> str:
    return ", ".join(f"{k}={assign[k]}" for k in VARIABLES if k in assign)


def _mass(table: np.ndarray, assign: Mapping[str, int]) -> float:
    idx = tuple(assign.get(name, slice(None)) for name in VARIABLES)
    return float(table[idx].sum())


def conditional_prob(
    joint: FullJoint, target: Mapping[str, int], given: Mapping[str, int]
) -> float:
    """Pr[target | given] under ``joint`` by exact cell summation.

    ``target`` and ``given`` map disjoint variable names from
    ``VARIABLES`` to 0/1 values. Raises :class:`ZeroMassCondition` when the
    conditioning event has probability zero.
    """
    if not target:
        raise ValidationError("target must name at least one variable")
    for name, assign in (("target", target), ("given", given)):
        for var, val in assign.items():
            if var not in VARIABLES:
                raise ValidationError(f"{name} names unknown variable {var!r}")
            if val not in (0, 1):
                raise ValidationError(
                    f"{name} value for {var!r} must be 0 or 1, got {val!r}"
                )
    overlap = set(target) & set(given)
    if overlap:
        raise ValidationError(
            f"target and given must be disjoint, both set {sorted(overlap)}"
        )
    table = joint.table()
    den = _mass(table, given)
    if den == 0.0:
        raise ZeroMassCondition(_event_name(given) or "(unconditional)")
    num = _mass(table, {**target, **given})
    return _clip_unit(num / den)


@dataclass(frozen=True, slots=True)
class SliceParams:
    """Proxy error rates and confusion-cell outcome rates for one slice.

    ``d`` is optional: it never enters a gap quantity and may be unknown.
    """

    p: float
    r: float
    a: float
    b: float
    c: float
    d: float | None = None

    def __post_init__(self) -> None:
        for field in ("p", "r", "a", "b", "c"):
            object.__setattr__(self, field, _require_real(getattr(self, field), field, 0.0, 1.0))
        if self.d is not None:
            object.__setattr__(self, "d", _require_real(self.d, "d", 0.0, 1.0))


class SliceRates(NamedTuple):
    """One slice's p, r, a, b and c, unvalidated: floats or arrays of one shape."""

    p: float | np.ndarray
    r: float | np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray


@dataclass(frozen=True, slots=True)
class ReducedModel:
    """Per-slice parameters sufficient for every gap quantity."""

    slice0: SliceParams
    slice1: SliceParams

    def __post_init__(self) -> None:
        for name in ("slice0", "slice1"):
            if not isinstance(getattr(self, name), SliceParams):
                raise ValidationError(f"{name} must be a SliceParams")

    def slices(self) -> tuple[SliceParams, SliceParams]:
        return (self.slice0, self.slice1)


def _require_vvhat_table(values, field: str) -> tuple[float, float, float, float]:
    table = tuple(_require_real_array(values, field).tolist())
    if len(table) != 4:
        raise ValidationError(f"{field} needs 4 entries, got {len(table)}")
    for i, x in enumerate(table):
        if math.isnan(x) or x < 0.0:
            raise ValidationError(f"{field}[{i}] must be >= 0, got {x!r}")
    total = sum(table)
    if abs(total - 1.0) > VALIDATION_TOL:
        raise ValidationError(
            f"{field} must sum to 1 within {VALIDATION_TOL}, got {total!r}"
        )
    return table


@dataclass(frozen=True)
class SliceMarginals:
    """Slice weight and per-slice (v, vhat) tables needed to rebuild a joint.

    ``vvhat0`` and ``vvhat1`` hold Pr[v=i, vhat=j | l] with flat index
    2v + vhat, i.e. in the order (0,0), (0,1), (1,0), (1,1).
    """

    pr_l1: float
    vvhat0: tuple[float, float, float, float]
    vvhat1: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pr_l1", _require_real(self.pr_l1, "pr_l1", 0.0, 1.0, "()"))
        object.__setattr__(self, "vvhat0", _require_vvhat_table(self.vvhat0, "vvhat0"))
        object.__setattr__(self, "vvhat1", _require_vvhat_table(self.vvhat1, "vvhat1"))

    def tables(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (self.vvhat0, self.vvhat1)


@dataclass(frozen=True, slots=True)
class GapReport:
    """True gap, proxy gap, their per-slice discrepancies, and the error."""

    G: float
    G_hat: float
    delta0: float
    delta1: float
    error: float

    def __post_init__(self) -> None:
        for field in ("G", "G_hat", "delta0", "delta1", "error"):
            value = _require_real(getattr(self, field), field)
            if math.isnan(value):
                raise ValidationError(f"{field} is NaN")
            object.__setattr__(self, field, value)
        require_gap_identities(self.G, self.G_hat, self.delta0, self.delta1, self.error)


def require_gap_identities(G, G_hat, delta0, delta1, error) -> None:
    """Raise unless error = |G - G_hat| = |delta1 - delta0| within 1e-12, for floats or arrays."""
    for gap, identity in ((G - G_hat, "|G - G_hat|"), (delta1 - delta0, "|delta1 - delta0|")):
        above = abs(error - abs(gap)) > 1e-12
        if above.any() if isinstance(above, np.ndarray) else above:
            raise ValidationError(f"error must equal {identity}")


def gap_terms(s0: SliceParams | SliceRates, s1: SliceParams | SliceRates) -> tuple:
    """G, G_hat, delta0, delta1 and error of two slices, elementwise over arrays."""
    g = (1.0 - s1.r) * s1.a + s1.r * s1.b - ((1.0 - s0.r) * s0.a + s0.r * s0.b)
    g_hat = (1.0 - s1.p) * s1.a + s1.p * s1.c - ((1.0 - s0.p) * s0.a + s0.p * s0.c)
    delta0, delta1 = ((s.p - s.r) * s.a + s.r * s.b - s.p * s.c for s in (s0, s1))
    return g, g_hat, delta0, delta1, abs(g - g_hat)


def compute_gaps(model: ReducedModel) -> GapReport:
    """True gap, proxy gap, per-slice deltas, and error for a reduced model."""
    return GapReport(*gap_terms(model.slice0, model.slice1))


def gaps_from_joint(joint: FullJoint) -> GapReport:
    """Gap report computed directly from a joint by conditional queries.

    Algebraically identical to ``compute_gaps(reduce(joint))`` but follows an
    independent computation path (exact cell summation instead of the reduced
    polynomial), which makes it useful as a cross-check.
    """
    py_v1 = [conditional_prob(joint, {"y": 1}, {"v": 1, "l": l}) for l in (0, 1)]
    py_vhat1 = [conditional_prob(joint, {"y": 1}, {"vhat": 1, "l": l}) for l in (0, 1)]
    g = py_v1[1] - py_v1[0]
    g_hat = py_vhat1[1] - py_vhat1[0]
    return GapReport(
        G=g,
        G_hat=g_hat,
        delta0=py_v1[0] - py_vhat1[0],
        delta1=py_v1[1] - py_vhat1[1],
        error=abs(g - g_hat),
    )


def reduce(joint: FullJoint) -> ReducedModel:
    """Extract per-slice proxy error rates and confusion-cell outcome rates.

    Raises :class:`ZeroMassCondition` naming the first undefined quantity when
    a required conditioning event has zero mass. The three cells behind a, b,
    and c must each have positive mass; a zero-mass cell is a hard error even
    though the gap algebra would tolerate an arbitrary value there (its
    coefficient would be zero), because the structure parameters read those
    cells directly and an imputed value would manufacture closeness that is
    not in the data. The d cell alone is optional and is omitted when its
    cell has zero mass.
    """
    *rates, ok = slice_rates(joint.cells)
    halves = joint.cells.reshape(2, 8)
    if not ok:
        l, event = next(
            (l, event) for l in (0, 1) for event, _, den in _RATES if halves[l, den].sum() == 0.0
        )
        raise ZeroMassCondition(f"l={l}, {event}")
    d, has_d = _rate(halves, [1], [0, 1])
    slices = [SliceParams(*rates[l], d=d[l] if has_d[l] else None) for l in (0, 1)]
    return ReducedModel(slice0=slices[0], slice1=slices[1])


#: p, r, a, b and c as their conditioning event and the slice's cells
#: (4v + 2vhat + y) in the numerator and in the event, in the order ``_mass``
#: sums them.
_RATES = (
    ("vhat=1", [2, 3], [2, 3, 6, 7]),
    ("v=1", [4, 5], [4, 5, 6, 7]),
    ("v=1, vhat=1", [7], [6, 7]),
    ("v=1, vhat=0", [5], [4, 5]),
    ("v=0, vhat=1", [3], [2, 3]),
)


def _rate(halves: np.ndarray, num, den) -> tuple[np.ndarray, np.ndarray]:
    """Pr[cells ``num`` | cells ``den``] of slice tables (..., 8), and where it is defined.

    Index arrays of shape (..., k) give one rate per row. ``np.take`` lays each
    group out contiguously (a fancy index may not), so numpy sums it as ``_mass``
    does, pairwise from eight cells on, and a rate is ``conditional_prob``'s bit for bit.
    """
    total = np.take(halves, den, axis=-1).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.take(halves, num, axis=-1).sum(axis=-1) / total
    return np.clip(rate, 0.0, 1.0), total != 0.0


def slice_rates(cells) -> tuple[SliceRates, SliceRates, np.ndarray]:
    """Each slice's p, r, a, b and c from joint tables of shape (..., 16).

    The mask is true on the rows where every conditioning event has nonzero
    mass; other rows' rates are undefined.
    """
    cells = np.asarray(cells, dtype=float)
    ok = np.ones(cells.shape[:-1], dtype=bool)
    slices = []
    for half in (cells[..., :8], cells[..., 8:]):
        rates = []
        for _, num, den in _RATES:
            rate, defined = _rate(half, num, den)
            ok &= defined
            rates.append(rate)
        slices.append(SliceRates(*rates))
    return slices[0], slices[1], ok


def _implied_rates(table: tuple[float, ...], l: int) -> tuple[float, float]:
    """(p, r) implied by one slice's (v, vhat) table."""
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
    return _clip_unit(m01 / pvhat1), _clip_unit(m10 / pv1)


def expand(model: ReducedModel, marginals: SliceMarginals) -> FullJoint:
    """Rebuild a full joint from a reduced model and compatible marginals.

    Requires ``d`` on both slices (:class:`MissingCell` otherwise) and checks
    that the marginals imply the model's p and r within ``VALIDATION_TOL``
    (:class:`InconsistentMarginals` otherwise). ``reduce(expand(m, s))``
    recovers ``m`` exactly up to float rounding whenever all cells end up
    with positive mass.
    """
    cells = np.zeros(16)
    for l, (params, table) in enumerate(zip(model.slices(), marginals.tables())):
        if params.d is None:
            raise MissingCell(
                f"expand needs d on slice {l}; the model omits it"
            )
        implied_p, implied_r = _implied_rates(table, l)
        if abs(implied_p - params.p) > VALIDATION_TOL:
            raise InconsistentMarginals(
                f"slice {l}: marginals imply p = {implied_p!r}, model has {params.p!r}"
            )
        if abs(implied_r - params.r) > VALIDATION_TOL:
            raise InconsistentMarginals(
                f"slice {l}: marginals imply r = {implied_r!r}, model has {params.r!r}"
            )
        weight = marginals.pr_l1 if l == 1 else 1.0 - marginals.pr_l1
        outcome = {
            (0, 0): params.d,
            (0, 1): params.c,
            (1, 0): params.b,
            (1, 1): params.a,
        }
        for v in (0, 1):
            for vhat in (0, 1):
                mass = weight * table[2 * v + vhat]
                q = outcome[(v, vhat)]
                base = 8 * l + 4 * v + 2 * vhat
                cells[base + 1] = mass * q
                cells[base] = mass * (1.0 - q)
    return FullJoint(cells=cells)


def consistent_marginals(
    model: ReducedModel,
    pr_l1: float = 0.5,
    pr_v1: tuple[float, float] = (0.5, 0.5),
) -> SliceMarginals:
    """Construct marginals consistent with a model's p and r.

    ``pr_v1`` sets Pr[v=1 | l] per slice; the (v, vhat) table then follows
    from the model's error rates. Raises :class:`InconsistentMarginals` when
    no table with these choices exists (p = 1, or the implied mass exceeds 1).
    """
    pr_v1 = _require_real_array(pr_v1, "pr_v1")
    if len(pr_v1) != 2:
        raise ValidationError(f"pr_v1 needs one probability per slice, got {len(pr_v1)}")
    tables = []
    for l, params in enumerate(model.slices()):
        t = _require_real(pr_v1[l], f"pr_v1[{l}]", 0.0, 1.0)
        if t <= 0.0:
            raise InconsistentMarginals(f"slice {l}: Pr[v=1 | l] must be positive")
        m11 = (1.0 - params.r) * t
        m10 = params.r * t
        if params.p >= 1.0:
            raise InconsistentMarginals(
                f"slice {l}: p = 1 admits no consistent finite table"
            )
        m01 = params.p * m11 / (1.0 - params.p)
        if m11 + m01 <= 0.0:
            raise InconsistentMarginals(
                f"slice {l}: Pr[vhat=1 | l] = 0 cannot express p = {params.p!r}"
            )
        m00 = 1.0 - (m11 + m10 + m01)
        if m00 < 0.0:
            raise InconsistentMarginals(
                f"slice {l}: pr_v1 = {t!r} needs total mass {m11 + m10 + m01!r} > 1"
            )
        tables.append((m00, m01, m10, m11))
    return SliceMarginals(pr_l1=pr_l1, vvhat0=tables[0], vvhat1=tables[1])
