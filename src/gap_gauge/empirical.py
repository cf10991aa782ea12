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
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    BoundReport,
    StructureParams,
    bound_report,
    bound_terms,
    closeness_terms,
    gamma_terms,
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
from .model import (
    FullJoint, GapReport, _require_count, _require_real, _require_u64, compute_gaps, gap_terms,
    reduce, require_gap_identities, slice_rates,
)
from .simulation import derive_trial_stream, percentile

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

#: Rows ``read_records_csv`` reads and checks per block; its four block-sized
#: buffers take at most 2.75 MiB (11-byte rows). Results never depend on it.
_BLOCK_ROWS = 1 << 16

#: Most replicates one bootstrap may run: a million take over an hour on 5e5 rows.
MAX_REPLICATES = 10**6

_HEADER = ("l", "v", "vhat", "y")
_HEADER_YSTAR = ("l", "v", "vhat", "y", "ystar")
_BOM = b"\xef\xbb\xbf"


def _require_binary_array(values, name: str) -> np.ndarray:
    """``values`` as a fresh int8 array of 0/1 values."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    # checked before the cast, which would wrap 256 to 0, turn NaN into 0,
    # warn that it drops the imaginary part of a complex column and fail on
    # a complex element of an object column
    if arr.dtype.kind == "c" or (
        arr.dtype.kind == "O" and not all(isinstance(v, numbers.Real) for v in arr)
    ) or not ((arr == 0) | (arr == 1)).all():
        raise ValidationError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int8)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, init=False)
class RecordDataset:
    """Record data in file order, one cell code a row.

    ``codes`` holds each row's cell index as a read-only uint8 array:
    8l + 4v + 2vhat + y, or 4l + 2vhat + y when the dataset has no v. It is
    the index of ``EstimateReport.counts``, so counting needs no other
    column. ``ystar``, which no cell index holds, is kept as a read-only int8
    column, or None. The columns ``l``, ``v``, ``vhat`` and ``y`` are
    unpacked from the codes on each access, as fresh read-only int8 arrays;
    ``v`` is None when the dataset has no v.
    """

    codes: np.ndarray
    v_present: bool
    ystar: np.ndarray | None

    def __init__(self, l, vhat, y, v=None, ystar=None) -> None:
        l, vhat, y = (
            _require_binary_array(column, name)
            for column, name in ((l, "l"), (vhat, "vhat"), (y, "y"))
        )
        n = l.size
        columns = {"vhat": vhat, "y": y, "v": v, "ystar": ystar}
        for name, col in columns.items():
            if col is None:
                continue
            if name in ("v", "ystar"):
                col = columns[name] = _require_binary_array(col, name)
            if col.size != n:
                raise ValidationError(f"column {name} has {col.size} rows, expected {n}")
        codes = np.zeros(n, dtype=np.uint8)
        for column in (l, columns["v"], vhat, y):
            if column is not None:
                codes <<= 1
                codes |= column.view(np.uint8)
        self._set(codes, v is not None, columns["ystar"])

    def _set(self, codes: np.ndarray, v_present: bool, ystar: np.ndarray | None) -> None:
        object.__setattr__(self, "codes", _read_only(codes))
        object.__setattr__(self, "v_present", v_present)
        object.__setattr__(self, "ystar", None if ystar is None else _read_only(ystar))

    @classmethod
    def _of_codes(cls, codes, v_present, ystar=None) -> "RecordDataset":
        """A dataset of codes that are already valid, kept without a copy."""
        dataset = cls.__new__(cls)
        dataset._set(codes, v_present, ystar)
        return dataset

    def _column(self, bit: int) -> np.ndarray:
        column = np.right_shift(self.codes, bit)
        column &= 1
        return _read_only(column.view(np.int8))

    @property
    def l(self) -> np.ndarray:
        return self._column(3 if self.v_present else 2)

    @property
    def v(self) -> np.ndarray | None:
        return self._column(2) if self.v_present else None

    @property
    def vhat(self) -> np.ndarray:
        return self._column(1)

    @property
    def y(self) -> np.ndarray:
        return self._column(0)

    @property
    def n(self) -> int:
        return int(self.codes.size)

    @property
    def ystar_present(self) -> bool:
        return self.ystar is not None

    def take(self, indices) -> "RecordDataset":
        """Rows at integer ``indices`` (repetition allowed), preserving columns."""
        idx = np.asarray(indices)
        # an empty list has numpy's default float dtype
        if idx.ndim != 1 or (idx.dtype.kind not in "iu" and idx.size):
            raise ValidationError(
                f"row indices must be a one-dimensional integer array, got {idx.ndim}-d {idx.dtype}"
            )
        idx = idx.astype(np.intp, copy=False)
        ystar = None if self.ystar is None else self.ystar[idx]
        return RecordDataset._of_codes(self.codes[idx], self.v_present, ystar)


def _parse_cell(raw: str, column: str, line: int, optional: bool) -> int | None:
    if raw == "0":
        return 0
    if raw == "1":
        return 1
    if raw == "" and optional:
        return None
    raise MalformedRow(line, f"column {column!r} must be 0 or 1, got {raw!r}")


def _rows(reader):
    """The rows of a ``csv.reader``; a line it cannot split is a :class:`MalformedRow`,
    and text it cannot decode a :class:`ValidationError`."""
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise MalformedRow(reader.line_num, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text ({exc})") from exc


def parse_records(stream) -> RecordDataset:
    """Parse CSV records from a text or byte stream (or a string of content).

    The header must be exactly ``l,v,vhat,y`` optionally followed by
    ``,ystar``. Every ``l``/``vhat``/``y`` cell must be 0 or 1; ``v`` and
    ``ystar`` cells may instead be empty, but uniformly so across the file
    (:class:`MixedSchema` otherwise). Raises :class:`MalformedRow` with the
    1-based line number for anything unparseable, :class:`EmptyInput`
    when no data rows follow the header, and, whatever the input form,
    :class:`ValidationError` for bytes that are not UTF-8. Bytes and binary
    streams are decoded as UTF-8 with an optional BOM, the way
    :func:`read_records_csv` reads a file, so bytes parse exactly as that
    file would; a binary stream is left open.
    """
    binary = (io.RawIOBase, io.BufferedIOBase)
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    elif not isinstance(stream, binary) and "b" in str(getattr(stream, "mode", "")):
        stream = io.BytesIO(stream.read())  # TextIOWrapper wraps only io streams
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    elif isinstance(stream, binary):
        text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
        try:
            return parse_records(text)
        finally:
            text.detach()  # collecting the wrapper would close the caller's file

    reader = csv.reader(stream)
    rows = _rows(reader)
    try:
        header = next(rows)
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

    codes = bytearray()
    ystars = bytearray()
    v_empty: bool | None = None
    ystar_empty: bool | None = None

    for row in rows:
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
        head = l if v_empty else 2 * l + v
        codes.append(4 * head + 2 * vhat + y)
        if has_ystar:
            ystar = _parse_cell(row[4], "ystar", line, optional=True)
            if ystar_empty is None:
                ystar_empty = ystar is None
            elif (ystar is None) != ystar_empty:
                raise MixedSchema(
                    line, "column 'ystar' must be uniformly present or empty"
                )
            if ystar is not None:
                ystars.append(ystar)

    if not codes:
        raise EmptyInput("no data rows after the header")
    ystar = None if (not has_ystar or ystar_empty) else np.frombuffer(ystars, np.int8)
    return RecordDataset._of_codes(np.frombuffer(codes, np.uint8), not v_empty, ystar)


def _row_layout(first: bytes, width: int) -> tuple[np.ndarray, np.ndarray, list] | None:
    """The fixed byte pattern of every row of a file whose first row is ``first``.

    ``first`` is a whole line, ending included. Returns ``(template, mask,
    offsets)``: a row matches when ``row | mask == template`` byte by byte,
    which pins every comma and the line ending and leaves only ``0``/``1`` in
    each cell, and ``offsets`` gives each column's cell byte, None for an
    optional column that is empty. None when ``first`` is not ``width``
    single ``0``/``1`` cells (``v`` and ``ystar`` may be empty) ended by
    ``\\n`` or ``\\r\\n``.
    """
    if not first.endswith(b"\n"):
        return None
    eol = b"\r\n" if first.endswith(b"\r\n") else b"\n"
    cells = first[: -len(eol)].split(b",")
    if len(cells) != width:
        return None
    template, mask, offsets = bytearray(), bytearray(), []
    for name, cell in zip(_HEADER_YSTAR, cells):
        if cell in (b"0", b"1"):
            offsets.append(len(template))
            template += b"1,"
            mask += b"\x01\x00"
        elif cell == b"" and name in ("v", "ystar"):
            offsets.append(None)
            template += b","
            mask += b"\x00"
        else:
            return None
    template[-1:] = eol
    mask[-1:] = bytes(len(eol))
    return np.frombuffer(template, np.uint8), np.frombuffer(mask, np.uint8), offsets


def _read_blocks(handle, digest) -> RecordDataset | None:
    """The dataset of a fixed-width records file, or None for any other file.

    A fixed-width file is an optional UTF-8 BOM, the header ``l,v,vhat,y``
    or ``l,v,vhat,y,ystar`` and at least one row, every row laid out like
    the first (see :func:`_row_layout`); the header and the rows may end in
    ``\\n`` or ``\\r\\n``, and the last row may lack its ending. The row
    count comes from the file size, so the codes (and ``ystar``) are
    allocated once; ``_BLOCK_ROWS`` rows at a time are then read into one
    reused buffer, checked against the layout and packed into them.
    ``handle`` must be a seekable binary stream; on None it is left just
    past the bytes given to ``digest``.
    """
    total = handle.seek(0, io.SEEK_END)
    handle.seek(0)
    head = handle.readline(len(_BOM) + len("l,v,vhat,y,ystar\r\n"))
    if digest is not None:
        digest.update(head)
    names = head.removeprefix(_BOM).removesuffix(b"\n").removesuffix(b"\r")
    if not head.endswith(b"\n") or names not in (b"l,v,vhat,y", b"l,v,vhat,y,ystar"):
        return None
    width = names.count(b",") + 1
    layout = _row_layout(handle.readline(2 * width + 1), width)
    handle.seek(len(head))
    if layout is None:
        return None
    template, mask, offsets = layout
    n, rest = divmod(total - len(head), template.size)
    # a last row may lack its line ending: it is read short, then given one
    eol = template[-2:] if template[-2] == ord("\r") else template[-1:]
    missing = template.size - rest if rest else 0
    if missing not in (0, eol.size):
        return None
    n += rest > 0
    cells = [offset for offset in offsets[:4] if offset is not None]
    ystar_offset = offsets[4] if width == 5 else None
    codes = np.empty(n, np.uint8)
    ystar = None if ystar_offset is None else np.empty(n, np.int8)
    # the buffers are reused, since touching fresh pages costs more than the checks
    block_rows = min(n, _BLOCK_ROWS)
    buffer = memoryview(bytearray(block_rows * template.size))
    masks, pattern = np.tile(mask, block_rows), np.tile(template, block_rows)
    scratch = np.empty_like(pattern)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        size = (stop - start) * template.size
        read = size - missing if stop == n else size
        got = handle.readinto(buffer[:read])
        if digest is not None:
            digest.update(buffer[:got])
        if got != read:
            return None
        buffer[read:size] = eol[: size - read]
        block = np.frombuffer(buffer, np.uint8, count=size)
        np.bitwise_or(block, masks[:size], out=scratch[:size])
        np.bitwise_xor(scratch[:size], pattern[:size], out=scratch[:size])
        if scratch[:size].any():
            return None
        rows = block.reshape(-1, template.size)
        # a cell byte is ASCII 0x30 or 0x31: shifted and or-ed, the cells'
        # low bits make the code's low bits, and the 0x30s land above them
        code = codes[start:stop]
        np.copyto(code, rows[:, cells[0]])
        for offset in cells[1:]:
            code <<= 1
            code |= rows[:, offset]
        code &= (1 << len(cells)) - 1
        if ystar is not None:
            np.bitwise_and(rows[:, ystar_offset], 1, out=ystar[start:stop].view(np.uint8))
    return RecordDataset._of_codes(codes, len(cells) == 4, ystar)


def read_records_csv(path, digest=None) -> RecordDataset:
    """Parse a records CSV file from disk, a pipe or any other readable path.

    The input is read once. A fixed-width file (see :func:`_read_blocks`)
    goes block by block straight into the dataset's codes; any other
    file, including one that stops matching in some block, is parsed from
    its first byte by :func:`parse_records`, so every error it reports is
    the text parser's; the one that cites no line, for bytes that are not
    UTF-8, also names the path. A path that cannot seek, such as a pipe, is
    read into memory first. ``digest``, a :mod:`hashlib` object, is updated
    with every byte of the input once.
    """
    with open(path, "rb") as file:
        handle = file if file.seekable() else io.BytesIO(file.read())
        dataset = _read_blocks(handle, digest)
        if dataset is not None:
            return dataset
        if digest is not None:
            for block in iter(lambda: handle.read(1 << 16), b""):
                digest.update(block)
        handle.seek(0)
        try:
            return parse_records(handle)
        except MalformedRow:
            raise
        except ValidationError as exc:  # not UTF-8: it cites no line, so it names the file
            raise ValidationError(f"{path}: {exc}") from exc.__cause__


def sample_dataset(joint: FullJoint, n: int, seed: int) -> RecordDataset:
    """Draw ``n`` independent records from a joint (all four columns).

    Rows come from the dedicated stream ``derive_trial_stream(seed, 0)``, so
    datasets are reproducible under the package-wide seeding contract.
    """
    n = _require_count(n, "n")
    stream = derive_trial_stream(seed, 0)
    # the drawn cell indices are the codes
    codes = stream.choice(16, size=n, p=joint.cells).astype(np.uint8)
    return RecordDataset._of_codes(codes, True)


def filter_ystar(dataset: RecordDataset) -> RecordDataset:
    """Restrict to rows with ystar = 1.

    Raises :class:`MissingColumn` when the dataset lacks ystar and
    :class:`EmptyInput` when no rows remain.
    """
    if not dataset.ystar_present:
        raise MissingColumn("dataset has no ystar column to condition on")
    keep = dataset.ystar.view(bool)  # ystar holds only 0 and 1
    if not keep.any():
        raise EmptyInput("no rows with ystar = 1")
    return RecordDataset._of_codes(dataset.codes[keep], dataset.v_present, dataset.ystar[keep])


def _require_smoothing(smoothing: float) -> float:
    smoothing = _require_real(smoothing, "smoothing")
    # the joint divides by n + 16 smoothing, which must stay finite too
    if not (smoothing >= 0.0 and math.isfinite(16.0 * smoothing)):
        raise ValidationError(f"smoothing must be a finite number >= 0, got {smoothing!r}")
    return smoothing


def _cell_counts(codes: np.ndarray, v_present: bool) -> np.ndarray:
    """Counts of each cell code, ``_CHUNK`` codes at a time: ``bincount`` casts its input to intp."""
    width = 16 if v_present else 8
    return sum(
        np.bincount(codes[start:start + _CHUNK], minlength=width)
        for start in range(0, codes.size, _CHUNK)
    )


def _joint_cells(counts: np.ndarray, n: int, smoothing: float) -> np.ndarray:
    return (counts + smoothing) / (n + 16.0 * smoothing)


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
    counts = _cell_counts(dataset.codes, True)
    return FullJoint(cells=_joint_cells(counts, dataset.n, smoothing))


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


def _g_hat_from_counts8(counts: np.ndarray, smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    """G_hat of (l, vhat, y) count tables (..., 8), and whether each slice's vhat=1 has mass."""
    ones = counts[..., 3::4] + smoothing
    totals = counts[..., 2::4] + counts[..., 3::4] + 2.0 * smoothing
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = ones / totals
    return rates[..., 1] - rates[..., 0], totals > 0.0


def _report_from_counts(counts: np.ndarray, n: int, smoothing: float) -> EstimateReport:
    """Point estimates from a cell count table (16 cells with v, 8 without)."""
    if counts.size == 16:
        model = reduce(FullJoint(cells=_joint_cells(counts, n, smoothing)))
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
    g_hat, nonempty = _g_hat_from_counts8(counts, smoothing)
    if not nonempty.all():
        raise ZeroMassCondition(f"l={int(nonempty.argmin())}, vhat=1")
    return EstimateReport(
        n=n,
        counts=tuple(int(c) for c in counts),
        counts_index="4*l + 2*vhat + y",
        g_hat=float(g_hat),
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
    counts = _cell_counts(dataset.codes, dataset.v_present)
    return _report_from_counts(counts, dataset.n, smoothing)


def _replicate_values(counts: np.ndarray, n: int, smoothing: float) -> tuple[dict, np.ndarray]:
    """The bootstrap's quantities of each row of an (R, 16 or 8) count table, by name.

    Also returns the rows ``estimate`` would not raise :class:`ZeroMassCondition` on.
    """
    if counts.shape[1] == 8:
        g_hat, nonempty = _g_hat_from_counts8(counts, smoothing)
        return {"G_hat": g_hat}, nonempty.all(axis=1)
    s0, s1, ok = slice_rates(_joint_cells(counts, n, smoothing))
    gaps = gap_terms(s0, s1)
    gammas = gamma_terms(s0.p, s0.r, s1.p, s1.r)
    eps_b1, eps_b2, _ = closeness_terms(s0.a, s0.b, s0.c, s1.a, s1.b, s1.c)
    best = bound_terms(*gammas, eps_b1, eps_b2)[5]
    require_gap_identities(*(x[ok] for x in gaps))
    keys = ("G", "G_hat", "delta0", "delta1", "error", "best_bound")
    return dict(zip(keys, (*gaps, best))), ok


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
    call. Replicates are drawn one after another in the calling thread,
    into one table of counts that a single pass of the array algebra
    re-estimates. Replicates whose resample makes a needed conditioning
    event empty are skipped and counted; if every replicate degenerates,
    :class:`AllReplicatesDegenerate` is raised. Interval endpoints follow
    the same nearest-rank rule as the simulation percentiles. At most
    ``MAX_REPLICATES`` replicates run, checked before the first is drawn.
    """
    replicates = _require_count(replicates, "replicates", MAX_REPLICATES)
    level = _require_real(level, "level", 0.0, 1.0, "()")
    if dataset.n < 2:
        raise ValidationError("bootstrap needs at least 2 rows")
    smoothing = _require_smoothing(smoothing)
    seed = _require_u64(seed, "seed")

    n = dataset.n
    width = 16 if dataset.v_present else 8
    counts = np.empty((replicates, width), dtype=np.int64)
    for i in range(replicates):
        counts[i] = _resample_counts(dataset.codes, derive_trial_stream(seed, i), width)
    values, ok = _replicate_values(counts, n, smoothing)
    if not ok.any():
        raise AllReplicatesDegenerate(
            f"all {replicates} bootstrap replicates hit zero-mass conditions"
        )
    lo_q = (1.0 - level) / 2.0
    hi_q = (1.0 + level) / 2.0
    intervals = {
        key: (percentile(vals[ok], lo_q), percentile(vals[ok], hi_q))
        for key, vals in sorted(values.items())
    }
    return BootstrapResult(
        intervals=intervals,
        replicates=replicates,
        skipped=replicates - int(ok.sum()),
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
    """Point estimates plus, when ``replicates`` > 0, bootstrap intervals.

    ``level`` is checked even when no bootstrap runs.
    """
    _require_real(level, "level", 0.0, 1.0, "()")
    report = estimate(dataset, smoothing)
    if replicates:
        ci = bootstrap(dataset, replicates, level=level, seed=seed, smoothing=smoothing)
        report = replace(report, bootstrap=ci)
    return report
