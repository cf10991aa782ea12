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

import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistentMarginals,
    MissingCell,
    ValidationError,
    ZeroMassCondition,
)

__all__ = [
    "FullJoint",
    "SliceParams",
    "SliceRates",
    "ReducedModel",
    "SliceMarginals",
    "GapReport",
    "require_gap_identities",
    "reduce",
    "expand",
    "consistent_marginals",
    "gap_terms",
    "compute_gaps",
    "slice_rates",
]

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


#: Domains of dataclass fields. Each is ``float`` or ``int`` to Python;
#: ``_annotation`` reads the annotation string.
Unit = float  # [0, 1]
OpenUnit = float  # (0, 1)
Signed = float  # [-1, 1]
NonNegative = float  # [0, inf]
Count = int  # 1, 2, ...
U64 = int  # [0, 2**64)

#: The check of each annotation above, of ``float`` (any real number, NaN included),
#: of ``int`` (a tally: 0, 1, ...), of ``str``, of ``bool`` and of five containers.
_CHECKS = {
    "float": _require_real,
    "Unit": lambda value, name: _require_real(value, name, 0.0, 1.0),
    "OpenUnit": lambda value, name: _require_real(value, name, 0.0, 1.0, "()"),
    "Signed": lambda value, name: _require_real(value, name, -1.0, 1.0),
    "NonNegative": lambda value, name: _require_real(value, name, 0.0),
    "Count": lambda value, name: _require_count(value, name),
    "U64": lambda value, name: _require_u64(value, name),
    "int": lambda value, name: _require_count(value, name, least=0),
    "str": lambda value, name: _require_kind(value, name, str, "a string"),
    "bool": lambda value, name: bool(_require_kind(value, name, (bool, np.bool_), "a bool")),
    "tuple[float, ...]": lambda value, name: tuple(_require_real_array(value, name).tolist()),
    "tuple[int, ...]": lambda value, name: tuple(
        _require_real_array(value, name, tally=True).tolist()
    ),
    "np.ndarray": lambda value, name: _require_real_array(value, name, flat=True),
    "tuple[float, float, float, float]": lambda value, name: _require_reals(value, name, 4),
    "dict[str, tuple[float, float]]": lambda value, name: {
        _require_kind(key, f"{name} key", str, "a string"): _require_reals(
            pair, f"{name}[{key!r}]", 2
        )
        for key, pair in _require_kind(value, name, dict, "a dict").items()
    },
}


@functools.cache  # once per field, not on each construction
def _annotation(cls: type, f) -> tuple[str, bool, type | None]:
    """Field ``f`` of dataclass ``cls``: its annotation without ``| None``, whether it takes
    ``None``, and the dataclass it names, or None. Names are looked up in ``cls``'s module,
    which keeps ``from __future__ import annotations``."""
    kind = f.type.removesuffix(" | None")
    item = vars(sys.modules[cls.__module__]).get(kind)
    return kind, kind != f.type, item if isinstance(item, type) and is_dataclass(item) else None


def _check_fields(obj) -> None:
    """Check each field of dataclass ``obj`` as ``_annotation`` reads it, in order: with its
    ``_CHECKS`` entry, whose result the field keeps, or, naming a dataclass, with
    ``_require_instance``. An optional field also takes ``None``; no other field is checked."""
    for f in fields(obj):
        kind, optional, item = _annotation(type(obj), f)
        value = getattr(obj, f.name)
        if value is None and optional:
            continue
        if kind in _CHECKS:
            object.__setattr__(obj, f.name, _CHECKS[kind](value, f.name))
        elif item is not None:
            _require_instance(value, f.name, item)


def _require_real_array(
    values, name: str, flat: bool = False, tally: bool = False
) -> np.ndarray:
    """``values`` as a flat float array, not copied if it is one. numpy must read it as a
    sequence of ints or floats, or with ``flat`` as any nesting of them, so bools, text,
    ``None`` and ragged nestings fail; with ``tally``, of integers of at least 0, kept in
    the type numpy read. Each element of a sequence that is no array is checked too, and
    named ``name[i]``: numpy reads a bool among numbers as a number."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        arr = None
    kinds, what = ("iu", "integers") if tally else ("iuf", "real numbers")
    shaped = arr is not None and (flat or arr.ndim == 1)
    if shaped and arr.ndim and not isinstance(values, np.ndarray):
        check = _CHECKS["int" if tally else "float"]
        checked = [check(x, f"{name}[{i}]") for i, x in enumerate(np.array(values, object).flat)]
        if arr.dtype.kind == "O":  # such as an integer past 2**64, which the check converts
            arr = np.array(checked)
    # numpy reads an empty sequence as floats, but it holds no float
    if not shaped or not (arr.dtype.kind in kinds or tally and arr.size == 0):
        raise ValidationError(f"{name} must be a sequence of {what}")
    if tally and (arr < 0).any():
        i = int(np.argmax(arr < 0))
        raise ValidationError(f"{name}[{i}] must be a non-negative integer, got {arr[i]}")
    return (arr if tally else arr.astype(float, copy=False)).reshape(-1)


def _require_reals(values, name: str, size: int) -> tuple[float, ...]:
    """``values``, a sequence of ``size`` real numbers, as a tuple of floats."""
    reals = tuple(_require_real_array(values, name).tolist())
    if len(reals) != size:
        raise ValidationError(f"{name} needs {size} entries, got {len(reals)}")
    return reals


def _require_instance(value, name: str, cls: type) -> None:
    """Raise unless ``value`` is a ``cls``, so that a model, config or dataset of another
    class fails here and not deep inside the computation."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}")


def _require_kind(value, name: str, kind, what: str):
    """``value``, which must be an instance of ``kind``, described as ``what``."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    return value


def _require_count(value: int, name: str, most: int | None = None, least: int = 1) -> int:
    """``value`` as an int from ``least``, 1 or 0, to ``most``; a bool is not a count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        what = "positive" if least else "non-negative"
        raise ValidationError(f"{name} must be a {what} integer, got {value!r}")
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


class _ValueEq:
    """Equality of a dataclass declared with ``eq=False`` that holds arrays: two values of
    the same class are equal when each field is, an array by ``np.array_equal``. The
    dataclass default would compare arrays element by element and raise. Such a value
    is not hashable."""

    __hash__ = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            x, y = getattr(self, f.name), getattr(other, f.name)
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                if not np.array_equal(x, y):
                    return False
            elif x != y:
                return False
        return True


@dataclass(frozen=True, eq=False)
class FullJoint(_ValueEq):
    """Joint distribution of (l, v, vhat, y) as 16 cell probabilities.

    ``cells`` is flat with index 8l + 4v + 2vhat + y. Cells must be
    non-negative and sum to 1 within ``VALIDATION_TOL``. The array is
    copied and frozen on construction. Two joints are equal when their
    cells are; a joint is not hashable.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        _check_fields(self)
        arr = self.cells.copy()
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


def _cell_name(i: int) -> str:
    return f"l={i >> 3 & 1},v={i >> 2 & 1},vhat={i >> 1 & 1},y={i & 1}"


@dataclass(frozen=True, slots=True)
class SliceParams:
    """Proxy error rates and confusion-cell outcome rates for one slice.

    ``d`` is optional: it never enters a gap quantity and may be unknown.
    """

    p: Unit
    r: Unit
    a: Unit
    b: Unit
    c: Unit
    d: Unit | None = None

    __post_init__ = _check_fields


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

    __post_init__ = _check_fields

    def slices(self) -> tuple[SliceParams, SliceParams]:
        return (self.slice0, self.slice1)


@dataclass(frozen=True)
class SliceMarginals:
    """Slice weight and per-slice (v, vhat) tables needed to rebuild a joint.

    ``vvhat0`` and ``vvhat1`` hold Pr[v=i, vhat=j | l] with flat index
    2v + vhat, i.e. in the order (0,0), (0,1), (1,0), (1,1).
    """

    pr_l1: OpenUnit
    vvhat0: tuple[float, float, float, float]
    vvhat1: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        _check_fields(self)
        for field, table in (("vvhat0", self.vvhat0), ("vvhat1", self.vvhat1)):
            for i, x in enumerate(table):
                if math.isnan(x) or x < 0.0:
                    raise ValidationError(f"{field}[{i}] must be >= 0, got {x!r}")
            total = sum(table)
            if abs(total - 1.0) > VALIDATION_TOL:
                raise ValidationError(
                    f"{field} must sum to 1 within {VALIDATION_TOL}, got {total!r}"
                )

    def tables(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (self.vvhat0, self.vvhat1)


@dataclass(frozen=True, slots=True)
class GapReport:
    """True gap, proxy gap, their per-slice discrepancies, and the error."""

    G: Signed
    G_hat: Signed
    delta0: Signed
    delta1: Signed
    error: NonNegative

    def __post_init__(self) -> None:
        _check_fields(self)
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
    _require_instance(model, "model", ReducedModel)
    return GapReport(*gap_terms(model.slice0, model.slice1))


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
    _require_instance(joint, "joint", FullJoint)
    *rates, ok = slice_rates(joint.cells)
    if not ok:
        raise ZeroMassCondition(_zero_mass_event(joint.cells))
    d, has_d = _rate(joint.cells.reshape(2, 8), [1], [0, 1])
    slices = [SliceParams(*rates[l], d=d[l] if has_d[l] else None) for l in (0, 1)]
    return ReducedModel(slice0=slices[0], slice1=slices[1])


#: p, r, a, b and c as their conditioning event and the slice's cells
#: (4v + 2vhat + y) in the numerator and in the event, in the order the
#: cell-summing oracle of ``tests/oracles.py`` sums them.
_RATES = (
    ("vhat=1", [2, 3], [2, 3, 6, 7]),
    ("v=1", [4, 5], [4, 5, 6, 7]),
    ("v=1, vhat=1", [7], [6, 7]),
    ("v=1, vhat=0", [5], [4, 5]),
    ("v=0, vhat=1", [3], [2, 3]),
)


def _zero_mass_event(cells: np.ndarray) -> str:
    """The first event of ``_RATES``, slice 0 before slice 1, with zero mass in the 16 joint
    ``cells``, as ``l=<l>, <event>``; ``slice_rates`` masks a table that has one."""
    halves = cells.reshape(2, 8)
    return next(
        f"l={l}, {event}" for l in (0, 1) for event, _, den in _RATES if halves[l, den].sum() == 0.0
    )


def _rate(halves: np.ndarray, num, den) -> tuple[np.ndarray, np.ndarray]:
    """Pr[cells ``num`` | cells ``den``] of cell tables (..., n), and where it is defined.

    Index arrays of shape (..., k) give one rate per row. ``np.take`` lays each
    group out contiguously (a fancy index may not), so numpy sums it pairwise from
    eight cells on, and a rate equals the cell-summing oracle's of ``tests/oracles.py`` bit for bit.
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
    """(p, r) implied by one slice's (v, vhat) table, whose cells are 2v + vhat."""
    (p, r), (has_p, has_r) = _rate(np.array(table), [[1], [2]], [[1, 3], [2, 3]])
    if not has_p:
        raise InconsistentMarginals(
            f"marginals give Pr[vhat=1 | l={l}] = 0, so no precision is expressible"
        )
    if not has_r:
        raise InconsistentMarginals(
            f"marginals give Pr[v=1 | l={l}] = 0, so no recall is expressible"
        )
    return float(p), float(r)


def expand(model: ReducedModel, marginals: SliceMarginals) -> FullJoint:
    """Rebuild a full joint from a reduced model and compatible marginals.

    Requires ``d`` on both slices (:class:`MissingCell` otherwise) and checks
    that the marginals imply the model's p and r within ``VALIDATION_TOL``
    (:class:`InconsistentMarginals` otherwise). ``reduce(expand(m, s))``
    recovers ``m`` exactly up to float rounding whenever all cells end up
    with positive mass.
    """
    _require_instance(model, "model", ReducedModel)
    _require_instance(marginals, "marginals", SliceMarginals)
    cells = np.zeros((2, 4, 2))  # [l, 2v + vhat, y]
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
        mass = weight * np.array(table)
        q = np.array((params.d, params.c, params.b, params.a))  # Pr[y=1 | v, vhat, l]
        cells[l, :, 0] = mass * (1.0 - q)
        cells[l, :, 1] = mass * q
    return FullJoint(cells=cells.reshape(16))


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
    _require_instance(model, "model", ReducedModel)
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
