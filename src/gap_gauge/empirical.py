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

import codecs
import csv
import io
import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .bounds import BoundReport, StructureParams, bound_terms, closeness_terms, gamma_terms
from .errors import (
    AllReplicatesDegenerate,
    EmptyInput,
    MalformedRow,
    MissingColumn,
    MixedSchema,
    ValidationError,
    ZeroMassCondition,
)
from .files import _require_path
from .model import (
    U64, Count, FullJoint, GapReport, NonNegative, OpenUnit, _check_fields, _require_count,
    _require_instance, _require_real, _require_u64, _ValueEq, _zero_mass_event, gap_terms,
    require_gap_identities, slice_rates,
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

#: Most replicates one bootstrap may run. On 5e5 rows, 200 took 0.41 s on one thread and
#: 0.21 s on two (2 vCPUs), so a million take about 34 and 18 minutes.
MAX_REPLICATES = 10**6

#: Most rows ``sample_dataset`` draws: a row takes 9 bytes while it is drawn.
MAX_ROWS = 10**9

_HEADER = ("l", "v", "vhat", "y")
_HEADER_YSTAR = ("l", "v", "vhat", "y", "ystar")
#: The columns whose cells may be empty, uniformly across a file.
_OPTIONAL = ("v", "ystar")
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


@dataclass(frozen=True, init=False, eq=False)
class RecordDataset(_ValueEq):
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
        codes = _pack(l.view(np.uint8), (
            column.view(np.uint8) for column in (columns["v"], vhat, y) if column is not None
        ))
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
        """Rows at integer ``indices`` in [0, n) (repetition allowed), preserving columns."""
        idx = np.asarray(indices)
        # an empty list has numpy's default float dtype
        if idx.ndim != 1 or (idx.dtype.kind not in "iu" and idx.size):
            raise ValidationError(
                f"row indices must be a one-dimensional integer array, got {idx.ndim}-d {idx.dtype}"
            )
        outside = (idx < 0) | (idx >= self.n)
        if outside.any():
            raise ValidationError(f"row indices must lie in [0, {self.n}), got {idx[outside][0]}")
        idx = idx.astype(np.intp, copy=False)
        ystar = None if self.ystar is None else self.ystar[idx]
        return RecordDataset._of_codes(self.codes[idx], self.v_present, ystar)


def _pack(code, columns):
    """``code`` with each of ``columns`` packed in below it, in order: shifted left one bit,
    then or-ed with the column. An int is returned anew; a uint8 array is packed in place."""
    for column in columns:
        code <<= 1
        code |= column
    return code


def _check_row(row: list, header: tuple, present: list, line: int) -> None:
    """Raise the first fault of a row that is not laid out like the first: its width, then
    the cells of l, v, vhat and y, v's emptiness, ystar's cell and ystar's emptiness."""
    if len(row) != len(header):
        raise MalformedRow(line, f"expected {len(header)} columns, got {len(row)}")
    cells = dict(zip(header, row))
    for names, optional in zip((header[:4], header[4:]), _OPTIONAL):
        for name in names:
            if cells[name] not in ("0", "1") and (cells[name] or name not in _OPTIONAL):
                raise MalformedRow(line, f"column {name!r} must be 0 or 1, got {cells[name]!r}")
        if optional in cells and (cells[optional] != "") != (optional in present):
            raise MixedSchema(line, f"column {optional!r} must be uniformly present or empty")


def _rows(reader):
    """The rows of a ``csv.reader``; a line it cannot split is a :class:`MalformedRow`,
    and text it cannot decode a :class:`ValidationError`."""
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise MalformedRow(reader.line_num, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text ({exc})") from exc


def _text_lines(lines):
    """The items of iterator ``lines``, each of which must be a str: ``csv.reader`` would
    report another as line 0."""
    for line in lines:
        if not isinstance(line, str):
            raise ValidationError(f"stream must yield lines of text, got {type(line).__name__}")
        yield line


def _drop_bom(lines):
    """Iterator ``lines`` with one U+FEFF dropped from the start of its first line, as the
    ``utf-8-sig`` codec drops a BOM."""
    for first in lines:
        yield first.removeprefix("\ufeff") if isinstance(first, str) else first
        break
    yield from lines


def _decodes_bom(stream) -> bool:
    """Whether text ``stream`` is decoded with ``utf-8-sig``, whose codec drops a BOM."""
    try:
        return codecs.lookup(stream.encoding).name == "utf-8-sig"
    except (AttributeError, TypeError, LookupError):  # no codec named, or none Python knows
        return False


def parse_records(stream) -> RecordDataset:
    """Parse CSV records from a text or byte stream, a string or bytes of content, or an
    iterable of lines of text; anything else is a :class:`ValidationError`.

    The header must be exactly ``l,v,vhat,y`` optionally followed by
    ``,ystar``. Every ``l``/``vhat``/``y`` cell must be 0 or 1; ``v`` and
    ``ystar`` cells may instead be empty, but uniformly so across the file
    (:class:`MixedSchema` otherwise). So the first data row fixes the
    layout of every row: 0 or 1 in its non-empty and required columns,
    empty cells in the rest. A row laid out like it maps to its code with
    one lookup; any other row is checked cell by cell for its first fault.
    Raises :class:`MalformedRow` with the 1-based line number for anything
    unparseable, :class:`EmptyInput` when no data rows follow the header,
    and, whatever the input form, :class:`ValidationError` for bytes that
    are not UTF-8. Bytes and binary streams are decoded as UTF-8, the way
    :func:`read_records_csv` reads a file, so bytes parse exactly as that
    file would; a binary stream is left open. One leading BOM is dropped
    from every form: the ``utf-8-sig`` codec drops it from bytes and from a
    text stream it decodes, and the parser drops one U+FEFF from the start
    of any other text. A second is part of the header.
    """
    binary = (io.RawIOBase, io.BufferedIOBase)
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    elif not isinstance(stream, binary) and "b" in str(getattr(stream, "mode", "")):
        stream = io.BytesIO(stream.read())  # TextIOWrapper wraps only io streams
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    elif isinstance(stream, binary):
        # this codec drops a BOM, and counts a bad byte's position from after it
        text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
        try:
            return parse_records(text)
        finally:
            text.detach()  # collecting the wrapper would close the caller's file
    elif not isinstance(stream, io.TextIOBase):
        try:
            stream = _text_lines(iter(stream))
        except TypeError:
            raise ValidationError(
                f"stream must be text, bytes, a file or lines of text, got {type(stream).__name__}"
            ) from None
    if not _decodes_bom(stream):
        stream = _drop_bom(stream)

    reader = csv.reader(stream)
    rows = _rows(reader)
    header = next(rows, None)
    if header is None:
        raise EmptyInput("no header row")
    header = tuple(header)
    if header not in (_HEADER, _HEADER_YSTAR):
        raise MalformedRow(
            1, f"header must be {','.join(_HEADER)}[,ystar], got {','.join(header)!r}"
        )
    first = next(rows, None)
    if first is None:
        raise EmptyInput("no data rows after the header")
    # every row laid out like the first maps to its code, with ystar as bit 4
    present = [name for name, cell in zip(header, first) if cell or name not in _OPTIONAL]
    allowed = {}
    for bits in itertools.product((0, 1), repeat=len(present)):
        cells = dict(zip(present, bits))
        key = tuple(str(cells.get(name, "")) for name in header)
        ystar = cells.pop("ystar", 0)
        allowed[key] = ystar << 4 | _pack(0, cells.values())
    codes = bytearray()
    for row in itertools.chain([first], rows):
        code = allowed.get(tuple(row))
        if code is None:
            _check_row(row, header, present, reader.line_num)
        codes.append(code)
    codes = np.frombuffer(codes, np.uint8)
    ystar = np.right_shift(codes, 4).view(np.int8) if "ystar" in present else None
    codes &= 15
    return RecordDataset._of_codes(codes, "v" in present, ystar)


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
        elif cell == b"" and name in _OPTIONAL:
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
        _pack(code, (rows[:, offset] for offset in cells[1:]))
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
    path = _require_path(path)
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
    """Draw ``n`` independent records, at most ``MAX_ROWS``, from a joint (all four columns).

    Rows come from the dedicated stream ``derive_trial_stream(seed, 0)``, so
    datasets are reproducible under the package-wide seeding contract.
    """
    _require_instance(joint, "joint", FullJoint)
    n = _require_count(n, "n", MAX_ROWS)
    stream = derive_trial_stream(seed, 0)
    # the drawn cell indices are the codes
    codes = stream.choice(16, size=n, p=joint.cells).astype(np.uint8)
    return RecordDataset._of_codes(codes, True)


def filter_ystar(dataset: RecordDataset) -> RecordDataset:
    """Restrict to rows with ystar = 1.

    Raises :class:`MissingColumn` when the dataset lacks ystar and
    :class:`EmptyInput` when no rows remain.
    """
    _require_instance(dataset, "dataset", RecordDataset)
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


def _count_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Counts of each code in uint8 ``codes``, all below ``width`` (8 or 16).

    The codes are counted two at a time. Viewed as uint16, each pair is one
    value below 16 * 256, one code in its low byte and the other in its high
    byte, so one ``bincount`` over half as many values fills a (16, 256)
    table of pairs. A code's count is its row sum plus its column sum, in
    either byte order; an odd last code is counted on its own. ``codes``
    must be contiguous, since ``view`` refuses a strided array.
    """
    even = codes.size & ~1
    pairs = np.bincount(codes[:even].view(np.uint16), minlength=16 * 256)
    table = pairs.reshape(16, 256)[:width, :width]
    counts = table.sum(axis=0) + table.sum(axis=1)
    if codes.size & 1:
        counts[codes[-1]] += 1
    return counts


def _cell_counts(codes: np.ndarray, v_present: bool) -> np.ndarray:
    """Counts of each cell code, ``_CHUNK`` codes at a time by :func:`_count_codes`, whose
    ``bincount`` casts its input to intp."""
    width = 16 if v_present else 8
    return sum(
        _count_codes(codes[start:start + _CHUNK], width) for start in range(0, codes.size, _CHUNK)
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
    _require_instance(dataset, "dataset", RecordDataset)
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
    replicates: Count
    skipped: int
    level: OpenUnit
    seed: U64

    __post_init__ = _check_fields


@dataclass(frozen=True)
class EstimateReport:
    """Everything estimable from one dataset.

    With v available, ``gap``/``structure``/``bounds`` carry the full
    pipeline output and ``counts`` has 16 entries; without v only ``g_hat``
    is estimable and ``counts`` has 8 entries over (l, vhat, y).
    """

    n: Count
    counts: tuple[int, ...]
    counts_index: str
    g_hat: float
    smoothing: NonNegative
    gap: GapReport | None = None
    structure: StructureParams | None = None
    bounds: BoundReport | None = None
    bootstrap: BootstrapResult | None = field(default=None, metadata={"key": "bootstrap_ci"})

    __post_init__ = _check_fields


def _g_hat_from_counts8(counts: np.ndarray, smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    """G_hat of (l, vhat, y) count tables (..., 8), and whether each slice's vhat=1 has mass."""
    ones = counts[..., 3::4] + smoothing
    totals = counts[..., 2::4] + counts[..., 3::4] + 2.0 * smoothing
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = ones / totals
    return rates[..., 1] - rates[..., 0], totals > 0.0


#: The bootstrap's interval keys, in output order, by the ``_estimates`` name each reads.
_INTERVALS = {"G": "G", "G_hat": "G_hat", "best": "best_bound", "delta0": "delta0",
              "delta1": "delta1", "error": "error"}


def _estimates(counts: np.ndarray, n: int, smoothing: float) -> tuple[dict, np.ndarray]:
    """Each field of ``GapReport``, ``StructureParams`` and ``BoundReport`` of every row of an
    (R, 16) count table, by field name, or ``G_hat`` alone of an (R, 8) one; and the rows
    on which they are all defined, the ones ``estimate`` would not raise
    :class:`ZeroMassCondition` on."""
    if counts.shape[1] == 8:
        g_hat, nonempty = _g_hat_from_counts8(counts, smoothing)
        return {"G_hat": g_hat}, nonempty.all(axis=1)
    s0, s1, ok = slice_rates(_joint_cells(counts, n, smoothing))
    gaps = gap_terms(s0, s1)
    require_gap_identities(*(x[ok] for x in gaps))
    structure = (*gamma_terms(s0.p, s0.r, s1.p, s1.r),
                 *closeness_terms(s0.a, s0.b, s0.c, s1.a, s1.b, s1.c))
    names = [f.name for cls in (GapReport, StructureParams, BoundReport) for f in fields(cls)]
    return dict(zip(names, (*gaps, *structure, *bound_terms(*structure[:5])))), ok


def estimate(dataset: RecordDataset, smoothing: float = 0.0) -> EstimateReport:
    """Point estimates for one dataset (no confidence intervals).

    The estimates are the observed count table's row of :func:`_estimates`,
    the pass that also re-estimates every bootstrap replicate, read into
    ``GapReport``, ``StructureParams`` and ``BoundReport`` by field name.
    Raises :class:`ZeroMassCondition` naming the first conditioning event
    with zero (smoothed) count.
    """
    _require_instance(dataset, "dataset", RecordDataset)
    smoothing = _require_smoothing(smoothing)
    if dataset.n == 0:
        raise EmptyInput("cannot estimate from zero rows")
    counts = _cell_counts(dataset.codes, dataset.v_present)
    values, ok = _estimates(counts[np.newaxis], dataset.n, smoothing)
    if not ok[0]:
        if dataset.v_present:
            raise ZeroMassCondition(_zero_mass_event(_joint_cells(counts, dataset.n, smoothing)))
        l = int(_g_hat_from_counts8(counts, smoothing)[1].argmin())
        raise ZeroMassCondition(f"l={l}, vhat=1")
    row = {name: float(value[0]) for name, value in values.items()}
    kinds = {"gap": GapReport, "structure": StructureParams, "bounds": BoundReport}
    parts = {part: cls(**{f.name: row[f.name] for f in fields(cls)})
             for part, cls in kinds.items() if dataset.v_present}
    return EstimateReport(
        n=dataset.n,
        counts=counts,
        counts_index="8*l + 4*v + 2*vhat + y" if dataset.v_present else "4*l + 2*vhat + y",
        g_hat=row["G_hat"],
        smoothing=smoothing,
        **parts,
    )


def _resample_counts(codes: np.ndarray, stream: np.random.Generator, width: int) -> np.ndarray:
    """Cell counts of the rows ``stream.integers(0, n, size=n)`` draws, ``_CHUNK`` rows at a
    time: each chunk's codes are gathered with ``np.take`` and counted by :func:`_count_codes`."""
    n = codes.size
    return sum(
        _count_codes(np.take(codes, stream.integers(0, n, size=min(_CHUNK, n - start))), width)
        for start in range(0, n, _CHUNK)
    )


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_counts(counts: np.ndarray, codes: np.ndarray, seed: int, first: int, step: int,
                 failures: list) -> None:
    """Rows ``first``, ``first + step``, ... of ``counts``: row i the resampled cell counts of
    ``derive_trial_stream(seed, i)``. Ends before its next row once ``failures`` holds an
    item. What it raises, even ``KeyboardInterrupt``, it appends to ``failures`` and returns,
    so one failed stride ends the others early and nothing escapes a thread."""
    try:
        for i in range(first, counts.shape[0], step):
            if failures:
                return
            counts[i] = _resample_counts(codes, derive_trial_stream(seed, i), counts.shape[1])
    except BaseException as exc:
        failures.append(exc)


def bootstrap(
    dataset: RecordDataset,
    replicates: int,
    level: float = 0.95,
    seed: int = 0,
    smoothing: float = 0.0,
    workers: int = 1,
) -> BootstrapResult:
    """Percentile bootstrap over whole rows.

    Replicate i resamples ``n`` rows with replacement using the dedicated
    stream ``derive_trial_stream(seed, i)``, then re-estimates from the
    resample's cell counts, which are all an estimate reads. The ``n``
    indices are drawn ``_CHUNK`` at a time from that one stream, and each
    chunk's codes are gathered and counted two at a time with one
    ``bincount`` (:func:`_count_codes`), so the working set stays in cache
    whatever ``n``. The chunks, joined, are
    exactly one ``integers(0, n, size=n)`` call: numpy fills a bounded
    array one draw after another, and the half of a 64-bit Philox output
    that a 32-bit draw leaves over is kept in the generator, not in the
    call. Replicates are drawn into one table of counts that a single pass
    of :func:`_estimates` re-estimates; :func:`estimate`'s point estimate is
    the observed table's row of the same pass. ``workers`` sets how many threads
    draw them: k = min(workers, replicates, CPUs this process may run on).
    Stride j fills rows j, j + k, j + 2k, ...: the calling thread stride 0,
    and k - 1 plain threads beside it strides 1 to k - 1, so with k = 1 no
    thread starts and the calling thread draws every replicate in order. A
    result never depends on ``workers``, since each replicate reads only its
    own stream and everything after the table runs in replicate order. A
    failure in any stride, ``KeyboardInterrupt`` too, ends the others before
    their next replicate; the first is raised once every thread is joined.
    Replicates whose resample makes a needed conditioning
    event empty are skipped and counted; if every replicate degenerates,
    :class:`AllReplicatesDegenerate` is raised. Interval endpoints follow
    the same nearest-rank rule as the simulation percentiles. At most
    ``MAX_REPLICATES`` replicates run, checked before the first is drawn.
    """
    _require_instance(dataset, "dataset", RecordDataset)
    replicates = _require_count(replicates, "replicates", MAX_REPLICATES)
    level = _require_real(level, "level", 0.0, 1.0, "()")
    if dataset.n < 2:
        raise ValidationError("bootstrap needs at least 2 rows")
    smoothing = _require_smoothing(smoothing)
    seed = _require_u64(seed, "seed")
    workers = _require_count(workers, "workers")

    n = dataset.n
    counts = np.empty((replicates, 16 if dataset.v_present else 8), dtype=np.int64)
    threads = min(workers, replicates, _cpus())
    failures: list = []
    strides = [
        threading.Thread(target=_fill_counts,
                         args=(counts, dataset.codes, seed, j, threads, failures))
        for j in range(1, threads)
    ]
    for stride in strides:
        stride.start()
    _fill_counts(counts, dataset.codes, seed, 0, threads, failures)
    for stride in strides:
        stride.join()
    if failures:
        raise failures[0]
    values, ok = _estimates(counts, n, smoothing)
    if not ok.any():
        raise AllReplicatesDegenerate(
            f"all {replicates} bootstrap replicates hit zero-mass conditions"
        )
    lo_q = (1.0 - level) / 2.0
    hi_q = (1.0 + level) / 2.0
    intervals = {
        key: (percentile(values[name][ok], lo_q), percentile(values[name][ok], hi_q))
        for name, key in _INTERVALS.items() if name in values
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
    workers: int = 1,
) -> EstimateReport:
    """Point estimates plus, when ``replicates`` > 0, bootstrap intervals.

    ``level``, ``seed`` and ``workers`` (the bootstrap's thread count, see
    :func:`bootstrap`) are checked even when no bootstrap runs, and
    ``replicates`` before the point estimate: 0 (an int or numpy integer)
    runs no bootstrap, and any other value must be a count up to
    ``MAX_REPLICATES``.
    """
    _require_instance(dataset, "dataset", RecordDataset)
    _require_real(level, "level", 0.0, 1.0, "()")
    _require_u64(seed, "seed")
    _require_count(workers, "workers")
    runs = replicates is False or not (
        isinstance(replicates, (int, np.integer)) and replicates == 0
    )
    if runs:
        _require_count(replicates, "replicates", MAX_REPLICATES)
    report = estimate(dataset, smoothing)
    if runs:
        ci = bootstrap(
            dataset, replicates, level=level, seed=seed, smoothing=smoothing, workers=workers
        )
        report = replace(report, bootstrap=ci)
    return report
