"""Estimate gaps, structure parameters, and bounds from record-level data.

Records are one row per population member with binary columns

    l, v, vhat, y        and optionally        ystar

where ``v`` (the true attribute) and ``ystar`` (a qualification indicator
used to condition the analysis) may be unavailable. A missing optional column
is represented in CSV by uniformly empty cells or, for ``ystar``, by omitting
the column. With ``v`` present the full pipeline runs: fit a joint by
(optionally smoothed) maximum likelihood, reduce it, and report gaps,
structure parameters, and bounds. Without ``v`` only the proxy gap G_hat is
estimable, directly from counts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    BoundReport,
    StructureParams,
    bound_report,
    structure_params,
)
from .errors import (
    AllReplicatesDegenerate,
    EmptyInput,
    MalformedRow,
    MissingColumn,
    MixedSchema,
    ValidationError,
    ZeroMassCondition,
)
from .model import FullJoint, GapReport, compute_gaps, reduce
from .simulation import _require_seed, derive_trial_stream, percentile

__all__ = [
    "RecordDataset",
    "EstimateReport",
    "BootstrapResult",
    "parse_records",
    "read_records_csv",
    "sample_dataset",
    "filter_ystar",
    "fit_joint",
    "estimate",
    "bootstrap",
    "estimate_with_bootstrap",
]

#: Rows a bootstrap replicate draws and counts per step: 512 KiB of indices,
#: small enough to stay in cache. Results never depend on it.
_CHUNK = 1 << 16

#: Most replicates one bootstrap may run: a million take over an hour on 5e5 rows.
MAX_REPLICATES = 10**6

_HEADER = ("l", "v", "vhat", "y")
_HEADER_YSTAR = ("l", "v", "vhat", "y", "ystar")


def _require_binary_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    arr = arr.astype(np.int8, copy=True)
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError(f"{name} must contain only 0/1 values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RecordDataset:
    """Columnar record data in file order; optional columns are None."""

    l: np.ndarray
    vhat: np.ndarray
    y: np.ndarray
    v: np.ndarray | None = None
    ystar: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", _require_binary_array(self.l, "l"))
        object.__setattr__(self, "vhat", _require_binary_array(self.vhat, "vhat"))
        object.__setattr__(self, "y", _require_binary_array(self.y, "y"))
        n = self.l.size
        for name in ("vhat", "y", "v", "ystar"):
            col = getattr(self, name)
            if col is None:
                continue
            if name in ("v", "ystar"):
                col = _require_binary_array(col, name)
                object.__setattr__(self, name, col)
            if col.size != n:
                raise ValidationError(
                    f"column {name} has {col.size} rows, expected {n}"
                )

    @property
    def n(self) -> int:
        return int(self.l.size)

    @property
    def v_present(self) -> bool:
        return self.v is not None

    @property
    def ystar_present(self) -> bool:
        return self.ystar is not None

    def take(self, indices) -> "RecordDataset":
        """Row subset (with repetition allowed), preserving columns."""
        idx = np.asarray(indices, dtype=np.int64)
        return RecordDataset(
            l=self.l[idx],
            vhat=self.vhat[idx],
            y=self.y[idx],
            v=None if self.v is None else self.v[idx],
            ystar=None if self.ystar is None else self.ystar[idx],
        )


def _parse_cell(raw: str, column: str, line: int, optional: bool) -> int | None:
    if raw == "0":
        return 0
    if raw == "1":
        return 1
    if raw == "" and optional:
        return None
    raise MalformedRow(line, f"column {column!r} must be 0 or 1, got {raw!r}")


def parse_records(stream) -> RecordDataset:
    """Parse CSV records from a text or byte stream (or a string of content).

    The header must be exactly ``l,v,vhat,y`` optionally followed by
    ``,ystar``. Every ``l``/``vhat``/``y`` cell must be 0 or 1; ``v`` and
    ``ystar`` cells may instead be empty, but uniformly so across the file
    (:class:`MixedSchema` otherwise). Raises :class:`MalformedRow` with the
    1-based line number for anything unparseable and :class:`EmptyInput`
    when no data rows follow the header.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(bytes(stream).decode("utf-8-sig"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    elif isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(stream, "read") and isinstance(getattr(stream, "mode", ""), str)
        and "b" in getattr(stream, "mode", "")
    ):
        stream = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")

    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInput("no header row") from None
    header = tuple(header)
    if header == _HEADER:
        has_ystar = False
    elif header == _HEADER_YSTAR:
        has_ystar = True
    else:
        raise MalformedRow(
            1, f"header must be {','.join(_HEADER)}[,ystar], got {','.join(header)!r}"
        )
    width = len(header)

    cols_l: list[int] = []
    cols_v: list[int | None] = []
    cols_vhat: list[int] = []
    cols_y: list[int] = []
    cols_ystar: list[int | None] = []
    v_empty: bool | None = None
    ystar_empty: bool | None = None

    for row in reader:
        line = reader.line_num
        if len(row) != width:
            raise MalformedRow(line, f"expected {width} columns, got {len(row)}")
        l = _parse_cell(row[0], "l", line, optional=False)
        v = _parse_cell(row[1], "v", line, optional=True)
        vhat = _parse_cell(row[2], "vhat", line, optional=False)
        y = _parse_cell(row[3], "y", line, optional=False)
        if v_empty is None:
            v_empty = v is None
        elif (v is None) != v_empty:
            raise MixedSchema(line, "column 'v' must be uniformly present or empty")
        cols_l.append(l)
        cols_v.append(v)
        cols_vhat.append(vhat)
        cols_y.append(y)
        if has_ystar:
            ystar = _parse_cell(row[4], "ystar", line, optional=True)
            if ystar_empty is None:
                ystar_empty = ystar is None
            elif (ystar is None) != ystar_empty:
                raise MixedSchema(
                    line, "column 'ystar' must be uniformly present or empty"
                )
            cols_ystar.append(ystar)

    if not cols_l:
        raise EmptyInput("no data rows after the header")
    return RecordDataset(
        l=cols_l,
        vhat=cols_vhat,
        y=cols_y,
        v=None if v_empty else cols_v,
        ystar=None if (not has_ystar or ystar_empty) else cols_ystar,
    )


def _parse_layout(data: bytes) -> RecordDataset | None:
    """Columns of a file in the canonical layout, or None for anything else.

    The canonical layout is an optional UTF-8 BOM, the header ``l,v,vhat,y``
    or ``l,v,vhat,y,ystar`` and at least one row, every row being
    single-character ``0``/``1`` cells separated by commas and ended by
    ``\\n``. Such a file is a fixed-width byte matrix, so it needs no
    per-row parsing; every other file goes through :func:`parse_records`.
    """
    start = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    for header in (_HEADER, _HEADER_YSTAR):
        head = (",".join(header) + "\n").encode()
        if data.startswith(head, start):
            break
    else:
        return None
    start += len(head)
    width = 2 * len(header)
    if len(data) == start or (len(data) - start) % width:
        return None
    rows = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(-1, width)
    separators = rows[:, 1::2]
    if not ((separators[:, :-1] == ord(",")).all() and (separators[:, -1] == ord("\n")).all()):
        return None
    cells = rows[:, 0::2] - np.uint8(ord("0"))  # anything but 0/1 wraps above 1
    if not (cells <= 1).all():
        return None
    return RecordDataset(
        l=cells[:, 0],
        v=cells[:, 1],
        vhat=cells[:, 2],
        y=cells[:, 3],
        ystar=cells[:, 4] if header == _HEADER_YSTAR else None,
    )


def read_records_csv(path) -> RecordDataset:
    """Parse a records CSV file from disk.

    A file in the canonical layout (see :func:`_parse_layout`) is read as a
    byte matrix; any other file is reopened and parsed by
    :func:`parse_records`, so every error it reports is the text parser's.
    """
    with open(path, "rb") as handle:
        dataset = _parse_layout(handle.read())
    if dataset is not None:
        return dataset
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        try:
            return parse_records(handle)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def sample_dataset(joint: FullJoint, n: int, seed: int) -> RecordDataset:
    """Draw ``n`` independent records from a joint (all four columns).

    Rows come from the dedicated stream ``derive_trial_stream(seed, 0)``, so
    datasets are reproducible under the package-wide seeding contract.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    stream = derive_trial_stream(seed, 0)
    idx = stream.choice(16, size=int(n), p=joint.cells)
    return RecordDataset(
        l=(idx >> 3) & 1,
        v=(idx >> 2) & 1,
        vhat=(idx >> 1) & 1,
        y=idx & 1,
    )


def filter_ystar(dataset: RecordDataset) -> RecordDataset:
    """Restrict to rows with ystar = 1.

    Raises :class:`MissingColumn` when the dataset lacks ystar and
    :class:`EmptyInput` when no rows remain.
    """
    if not dataset.ystar_present:
        raise MissingColumn("dataset has no ystar column to condition on")
    keep = np.where(dataset.ystar == 1)[0]
    if keep.size == 0:
        raise EmptyInput("no rows with ystar = 1")
    return dataset.take(keep)


def _require_smoothing(smoothing: float) -> float:
    smoothing = float(smoothing)
    if math.isnan(smoothing) or smoothing < 0.0:
        raise ValidationError(f"smoothing must be >= 0, got {smoothing!r}")
    return smoothing


def _codes(dataset: RecordDataset) -> np.ndarray:
    """Each row's cell index as uint8: 8l + 4v + 2vhat + y, or 4l + 2vhat + y without v."""
    columns = (dataset.l, dataset.v, dataset.vhat, dataset.y)
    codes = np.zeros(dataset.n, dtype=np.uint8)
    for column in columns:
        if column is not None:
            codes <<= 1
            codes |= column.view(np.uint8)
    return codes


def _cell_counts(codes: np.ndarray, v_present: bool) -> np.ndarray:
    return np.bincount(codes, minlength=16 if v_present else 8)


def _joint_from_counts(counts: np.ndarray, n: int, smoothing: float) -> FullJoint:
    return FullJoint(cells=(counts + smoothing) / (n + 16.0 * smoothing))


def fit_joint(dataset: RecordDataset, smoothing: float = 0.0) -> FullJoint:
    """Maximum-likelihood joint with optional additive smoothing.

    Cell (l, v, vhat, y) gets (count + smoothing) / (n + 16 smoothing).
    Requires the v column (:class:`MissingColumn` otherwise). With zero
    smoothing, empty conditioning events surface later as
    :class:`ZeroMassCondition`.
    """
    if not dataset.v_present:
        raise MissingColumn("fitting the full joint needs the v column")
    if dataset.n == 0:
        raise EmptyInput("cannot fit a joint to zero rows")
    smoothing = _require_smoothing(smoothing)
    return _joint_from_counts(_cell_counts(_codes(dataset), True), dataset.n, smoothing)


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile confidence intervals from row resampling."""

    intervals: dict[str, tuple[float, float]]
    replicates: int
    skipped: int
    level: float
    seed: int


@dataclass(frozen=True)
class EstimateReport:
    """Everything estimable from one dataset.

    With v available, ``gap``/``structure``/``bounds`` carry the full
    pipeline output and ``counts`` has 16 entries; without v only ``g_hat``
    is estimable and ``counts`` has 8 entries over (l, vhat, y).
    """

    n: int
    counts: tuple[int, ...]
    counts_index: str
    g_hat: float
    smoothing: float
    gap: GapReport | None = None
    structure: StructureParams | None = None
    bounds: BoundReport | None = None
    bootstrap: BootstrapResult | None = None


def _g_hat_from_counts8(counts: np.ndarray, smoothing: float) -> float:
    rates = []
    for l in (0, 1):
        ones = counts[4 * l + 2 * 1 + 1] + smoothing
        total = counts[4 * l + 2 * 1 + 0] + counts[4 * l + 2 * 1 + 1] + 2.0 * smoothing
        if total <= 0.0:
            raise ZeroMassCondition(f"vhat=1, l={l}")
        rates.append(float(ones / total))
    return rates[1] - rates[0]


def _report_from_counts(counts: np.ndarray, n: int, smoothing: float) -> EstimateReport:
    """Point estimates from a cell count table (16 cells with v, 8 without)."""
    if counts.size == 16:
        model = reduce(_joint_from_counts(counts, n, smoothing))
        gap = compute_gaps(model)
        return EstimateReport(
            n=n,
            counts=tuple(int(c) for c in counts),
            counts_index="8*l + 4*v + 2*vhat + y",
            g_hat=gap.G_hat,
            smoothing=smoothing,
            gap=gap,
            structure=structure_params(model),
            bounds=bound_report(model),
        )
    return EstimateReport(
        n=n,
        counts=tuple(int(c) for c in counts),
        counts_index="4*l + 2*vhat + y",
        g_hat=_g_hat_from_counts8(counts, smoothing),
        smoothing=smoothing,
    )


def estimate(dataset: RecordDataset, smoothing: float = 0.0) -> EstimateReport:
    """Point estimates for one dataset (no confidence intervals).

    Raises :class:`ZeroMassCondition` naming the first conditioning event
    with zero (smoothed) count.
    """
    smoothing = _require_smoothing(smoothing)
    if dataset.n == 0:
        raise EmptyInput("cannot estimate from zero rows")
    counts = _cell_counts(_codes(dataset), dataset.v_present)
    return _report_from_counts(counts, dataset.n, smoothing)


def _replicate_quantities(report: EstimateReport) -> dict[str, float]:
    if report.gap is None:
        return {"G_hat": report.g_hat}
    return {
        "G": report.gap.G,
        "G_hat": report.gap.G_hat,
        "delta0": report.gap.delta0,
        "delta1": report.gap.delta1,
        "error": report.gap.error,
        "best_bound": report.bounds.best,
    }


def _resample_counts(codes: np.ndarray, stream: np.random.Generator, width: int) -> np.ndarray:
    """Cell counts of the rows ``stream.integers(0, n, size=n)`` draws, ``_CHUNK`` rows at a time."""
    n = codes.size
    return sum(
        np.bincount(codes[stream.integers(0, n, size=min(_CHUNK, n - start))], minlength=width)
        for start in range(0, n, _CHUNK)
    )


def bootstrap(
    dataset: RecordDataset,
    replicates: int,
    level: float = 0.95,
    seed: int = 0,
    smoothing: float = 0.0,
) -> BootstrapResult:
    """Percentile bootstrap over whole rows.

    Replicate i resamples ``n`` rows with replacement using the dedicated
    stream ``derive_trial_stream(seed, i)``, then re-estimates from the
    resample's cell counts, which are all an estimate reads. The ``n``
    indices are drawn ``_CHUNK`` at a time from that one stream, and each
    chunk's codes are gathered and counted with one ``bincount``, so the
    working set stays in cache whatever ``n``. The chunks, joined, are
    exactly one ``integers(0, n, size=n)`` call: numpy fills a bounded
    array one draw after another, and the half of a 64-bit Philox output
    that a 32-bit draw leaves over is kept in the generator, not in the
    call. Replicates run one after another in the calling thread.
    Replicates whose resample makes a needed conditioning event empty are
    skipped and counted; if every replicate degenerates,
    :class:`AllReplicatesDegenerate` is raised. Interval endpoints follow
    the same nearest-rank rule as the simulation percentiles. At most
    ``MAX_REPLICATES`` replicates run, checked before the first is drawn.
    """
    if not isinstance(replicates, (int, np.integer)) or replicates < 1:
        raise ValidationError(f"replicates must be a positive integer, got {replicates!r}")
    if replicates > MAX_REPLICATES:
        raise ValidationError(f"replicates must be at most {MAX_REPLICATES}, got {replicates}")
    level = float(level)
    if math.isnan(level) or not (0.0 < level < 1.0):
        raise ValidationError(f"level must lie in (0, 1), got {level!r}")
    if dataset.n < 2:
        raise ValidationError("bootstrap needs at least 2 rows")
    smoothing = _require_smoothing(smoothing)
    seed = _require_seed(seed)

    n, replicates = dataset.n, int(replicates)
    codes = _codes(dataset)
    width = 16 if dataset.v_present else 8
    values: dict[str, list[float]] = {}
    skipped = 0
    for i in range(replicates):
        counts = _resample_counts(codes, derive_trial_stream(seed, i), width)
        try:
            report = _report_from_counts(counts, n, smoothing)
        except ZeroMassCondition:
            skipped += 1
            continue
        for key, value in _replicate_quantities(report).items():
            values.setdefault(key, []).append(value)

    if not values:
        raise AllReplicatesDegenerate(
            f"all {replicates} bootstrap replicates hit zero-mass conditions"
        )
    lo_q = (1.0 - level) / 2.0
    hi_q = (1.0 + level) / 2.0
    intervals = {
        key: (percentile(vals, lo_q), percentile(vals, hi_q))
        for key, vals in sorted(values.items())
    }
    return BootstrapResult(
        intervals=intervals,
        replicates=replicates,
        skipped=skipped,
        level=level,
        seed=seed,
    )


def estimate_with_bootstrap(
    dataset: RecordDataset,
    smoothing: float = 0.0,
    replicates: int = 0,
    level: float = 0.95,
    seed: int = 0,
) -> EstimateReport:
    """Point estimates plus, when ``replicates`` > 0, bootstrap intervals."""
    report = estimate(dataset, smoothing)
    if replicates:
        ci = bootstrap(dataset, replicates, level=level, seed=seed, smoothing=smoothing)
        report = replace(report, bootstrap=ci)
    return report
