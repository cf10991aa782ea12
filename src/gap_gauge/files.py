"""File interchange, in three jobs.

- Atomic commit: ``atomic_paths`` hands out a temporary for each output and
  renames them all into place once its block ends, so a failed run leaves no
  part of one. It is the only code here that renames a file.
- Inputs: ``from_dict`` reads model files and sampler configs, with the
  dataclass fields, checked as the dataclass checks them, as their schema:
  an error reads ``<where>.<field> ...``, or ``<where>: ...`` for a rule
  across fields.
- Outputs: ``result_dict`` encodes every result from its dataclass fields,
  each under its name or the ``key`` its metadata declares, and four
  writers put them in files: ``write_json``, ``write_errors_csv``,
  ``write_histogram_csv`` and ``write_sweep_csv``. Each checks the value it
  writes before it opens the file, and writes the path it is given, in place;
  to commit one output, write it inside ``with atomic_paths(path) as (tmp,):``.

All JSON written here is deterministic (sorted keys, fixed indentation,
shortest round-trip float repr) and all CSV uses LF line endings, so a rerun
with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import errno
import functools
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, NamedTuple

import numpy as np

from .errors import ValidationError
from .model import (
    _CHECKS, FullJoint, ReducedModel, _annotation, _require_instance, _require_kind,
    _require_real_array,
)
from .simulation import Histogram, SamplerConfig, SweepPoint

__all__ = [
    "atomic_paths",
    "dumps_json",
    "write_text",
    "write_json",
    "result_dict",
    "from_dict",
    "model_from_dict",
    "load_model_file",
    "load_sampler_config",
    "write_errors_csv",
    "write_histogram_csv",
    "write_sweep_csv",
]

def _output_fields(cls: type) -> list[tuple[str, str]]:
    """(attribute, output key) pairs of a result dataclass, in declaration order: a field's
    ``key`` metadata, if any, renames it, or with None drops it."""
    pairs = [(f.name, f.metadata.get("key", f.name)) for f in fields(cls)]
    return [(name, key) for name, key in pairs if key is not None]


def result_dict(obj: Any) -> Any:
    """JSON-ready form of a result or input: dataclasses become dicts, tuples and arrays lists.

    Dropped fields are skipped before they are read, so large arrays such as
    ``SimulationResult.errors`` are never copied.
    """
    if is_dataclass(obj):
        return {
            key: result_dict(getattr(obj, name)) for name, key in _output_fields(type(obj))
        }
    if isinstance(obj, dict):
        return {key: result_dict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [result_dict(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


SWEEP_HEADER = tuple(key for _, key in _output_fields(SweepPoint))


def _require_path(path) -> str:
    """``path``, a str, bytes or ``os.PathLike``, as a str. Not an int either: ``open`` takes
    one as a file descriptor, and closing the file would close the caller's descriptor."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(f"path must be a file path, got {path!r}")
    return os.fsdecode(path)


def dumps_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@contextmanager
def atomic_paths(*paths):
    """Temporary paths ``<path>.tmp``, all renamed onto ``paths`` once the block ends.

    Each temporary is created before the block runs, so the OS refuses a
    path it could not write before any work is done; a path that is empty
    or a directory could not be replaced, so it is refused too. Two paths
    that name one directory entry (the same name in directories whose
    ``os.path.realpath`` agree) would share one temporary, so they are
    refused with a ``ValidationError`` before any temporary is created; a
    symlink as the last part is replaced, not followed, so it names an entry
    of its own. Every output is written before any is replaced, and a block
    that raises removes the temporaries created here, so a failed write
    leaves every path as it was.
    """
    paths = [_require_path(path) for path in paths]
    named: dict[str, str] = {}
    for path in paths:
        head, tail = os.path.split(path)
        real = os.path.join(os.path.realpath(head), tail)
        if real in named:
            raise ValidationError(f"paths {named[real]!r} and {path!r} name the same file")
        named[real] = path
    tmps = []
    try:
        for path in paths:
            if not path:
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            open(f"{path}.tmp", "wb").close()
            tmps.append(f"{path}.tmp")
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with suppress(FileNotFoundError):  # already renamed into place
                os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    with open(_require_path(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_json(path, obj: Any) -> None:
    """``obj``, JSON data such as ``result_dict`` returns, as ``dumps_json`` writes it."""
    try:
        text = dumps_json(obj)
    except (TypeError, ValueError) as err:  # json names the value it cannot encode
        raise ValidationError(f"obj must be JSON data: {err}") from None
    write_text(path, text)


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    return obj


def from_dict(cls: type, obj: Any, where: str) -> Any:
    """Dataclass ``cls`` from a JSON object; the fields are the schema.

    A field without a default is required, a key that is not a field is
    rejected, and an ``X | None`` field also takes ``null``, meaning absent.
    Checks run in order: missing fields, unknown keys, then each field, a
    nested dataclass read the same way and any other with the check its
    annotation declares, named ``<where>.<field>``; then ``cls`` itself, whose
    errors, from its rules across fields, are prefixed with ``<where>: ``.
    """
    obj = _require_mapping(obj, where)
    specs = fields(cls)
    for f in specs:
        if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{where} is missing required field {f.name!r}")
    names = {f.name for f in specs}
    for key in obj:
        if key not in names:
            raise ValidationError(f"{where} has unknown field {key!r}")
    kwargs = {}
    for f in specs:
        if f.name not in obj:
            continue
        kind, optional, item = _annotation(cls, f)
        value, name = obj[f.name], f"{where}.{f.name}"
        if value is None and optional:
            continue
        if kind in _CHECKS:
            kwargs[f.name] = _CHECKS[kind](value, name)
        else:  # each field of an input is checked or a nested dataclass
            kwargs[f.name] = from_dict(item, value, name)
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def model_from_dict(obj: Any) -> FullJoint | ReducedModel:
    """Parse the model-file payload: exactly one of ``reduced``/``joint``."""
    obj = _require_mapping(obj, "model file")
    keys = set(obj)
    for key, cls in (("reduced", ReducedModel), ("joint", FullJoint)):
        if keys == {key}:
            return from_dict(cls, obj[key], key)
    raise ValidationError(
        "model file must have exactly one of the fields 'reduced' or 'joint', "
        f"got {sorted(keys)}"
    )


def _load(path, digest, parse) -> Any:
    """``parse`` of the JSON value in ``path``, read once; ``digest`` is updated with its
    bytes. One leading UTF-8 byte order mark is dropped, as RFC 8259 allows. Each error
    names the path."""
    path = _require_path(path)
    with open(path, "rb") as handle:
        data = handle.read()
    if digest is not None:
        digest.update(data)
    try:
        payload = json.loads(data.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    # also an integer past Python's digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return parse(payload)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_model_file(path, digest=None) -> FullJoint | ReducedModel:
    return _load(path, digest, model_from_dict)


def load_sampler_config(path, digest=None) -> SamplerConfig:
    return _load(path, digest, lambda payload: from_dict(SamplerConfig, payload, "sampler config"))


#: Values formatted per ``_repr_lines`` call, which bounds the writer's memory.
_CHUNK = 8192


def _split(x):
    """Veltkamp split: ``x == hi + lo``, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _row_masks():
    """Live columns of a fast-path row (see ``_repr_lines``) as 24-byte masks.

    The mask for ``zeros`` after ``0.``, ``digits`` digits and a sign is at
    ``(zeros * 17 + digits - 1) * 2 + negative``; the last, empty one is for
    values that ``repr`` writes.
    """
    col = np.arange(24)
    zeros = np.arange(4)[:, None, None, None]
    digits = np.arange(1, 18)[:, None, None]
    negative = np.arange(2)[:, None] == 1
    live = (col == 0) & negative | (col == 1) | (col == 2) | (col == 23)
    live = live | (col >= 6 - zeros) & (col < 6 + digits)
    return np.r_[live.reshape(-1, 24), np.zeros((1, 24), bool)].view("V24")[:, 0]


class _Tables(NamedTuple):
    """The formatter's constant tables."""

    #: Powers of ten 10**0 .. 10**20, exact: each is a product of exact doubles.
    pow10: np.ndarray
    #: Their Veltkamp split.
    pow10_hi: np.ndarray
    pow10_lo: np.ndarray
    #: The doubles nearest 1e-4, 1e-3, 1e-2, 1e-1, then 1: the fast path's decades.
    decades: np.ndarray
    #: ASCII of 0000 .. 9999, four bytes each.
    groups: np.ndarray
    #: See ``_row_masks``.
    row_masks: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The tables, built on first use, so that commands writing no errors file skip them."""
    pow10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])
    digit = np.frombuffer(b"0123456789", dtype=np.uint8)
    groups = np.stack(np.meshgrid(*[digit] * 4, indexing="ij"), -1).reshape(-1, 4)
    return _Tables(
        pow10, *_split(pow10), 1.0 / pow10[4::-1], groups.view(np.uint32)[:, 0], _row_masks()
    )


def _exact_digits(a):
    """``a`` in [1e-4, 1) as ``(e, digits, frac, bound)``.

    ``a * 10**(16 - e) == digits + frac`` exactly, with ``e`` the decimal
    exponent of ``a``, ``digits`` its 17 leading digits as an integer and
    ``|frac| <= 0.5``: the product is exact as a sum of two doubles (Dekker's
    two-product). ``bound``, half an ulp of ``a`` in the same units, is exact
    too, and above 0.555, so 17 digits always lie inside it. A tie at 17
    digits (``|frac| == 0.5``) rounds as ``repr`` rounds it: such values are
    ``m / 2**(17 - e)`` with ``m`` odd, and a test checks every one of them.

    ``e`` is exact: each of the doubles nearest 1e-4 .. 1e-1 lies above its
    power of ten, so no double falls between the two. Nor can rounding carry
    into an 18th digit: that needs the next power of ten inside the rounding
    interval of ``a``, which makes ``a`` the double nearest it.
    """
    tables = _tables()
    e = np.sum(a >= tables.decades[1:4, None], axis=0) - 4
    s = 16 - e
    p10 = tables.pow10[s]
    a_hi, a_lo = _split(a)
    p = a * p10  # an integer, being at least 1e16 > 2**53
    p_hi, p_lo = tables.pow10_hi[s], tables.pow10_lo[s]
    err = ((a_hi * p_hi - p) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    step = np.rint(err)
    digits = p.astype(np.int64) + step.astype(np.int64)
    return e, digits, err - step, np.spacing(a) * (0.5 * p10)


def _round_digits(digits, frac, bound, drop):
    """Round ``digits + frac`` to a multiple of ``10**drop``.

    Returns the multiple, whether it lies strictly inside ``bound`` of the
    value, and whether that is undecided: the residual lies within 1e-9
    (relative) of the bound, or of a tie between two multiples. The residual
    is exact up to its last rounding, far below that margin.
    """
    scale = 10**drop
    rem = digits % scale
    rem -= scale * ((2 * rem - scale).astype(float) + 2.0 * frac > 0.0)
    residual = np.abs(rem.astype(float) + frac)
    unsure = np.abs(residual - bound) <= 1e-9 * bound
    unsure |= np.abs(residual - 0.5 * scale) <= 1e-9 * scale
    return digits - rem, residual < bound, unsure


def _shortest(a):
    """Shortest round-trip digits of each ``a`` in [1e-4, 1).

    Returns ``(e, k, digits, undecided)``: the decimal exponent, and for the
    least ``k`` whose nearest ``k``-digit decimal lies strictly inside the
    rounding interval of ``a`` (the criterion of shortest round-trip
    formatting, as in Ryu), that decimal's digits padded to 17 with zeros.
    Lying inside is monotone in ``k``. In units of the 17th digit the interval
    is under 22.2 wide, so at most one multiple of 100 lies inside: when 15
    digits do, every shorter decimal inside is that one, and ``k`` is 15 less
    its trailing zeros.
    """
    e, exact, frac, bound = _exact_digits(a)
    d16, in16, unsure16 = _round_digits(exact, frac, bound, 1)
    d15, in15, unsure15 = _round_digits(exact, frac, bound, 2)
    digits = np.where(in15, d15, np.where(in16, d16, exact))
    k = 17 - in16.astype(np.int64) - in15
    short = np.flatnonzero(in15)
    rest = d15[short] // 100
    zeros = np.zeros(short.size, dtype=np.int64)
    for step in (8, 4, 2, 1):  # at most 14 zeros, as 10**16 <= digits
        quotient, remainder = np.divmod(rest, 10**step)
        rest = np.where(remainder == 0, quotient, rest)
        zeros += step * (remainder == 0)
    k[short] -= zeros
    return e, k, digits, unsure16 | unsure15


def _ascii_digits(digits):
    """The 20 ASCII digits of each integer below 10**17, padded with zeros."""
    hi, lo = np.divmod(digits, 10**8)
    top, mid = np.divmod(hi, 10**4)
    groups = np.stack([*np.divmod(top, 10**4), mid, *np.divmod(lo, 10**4)], axis=1)
    return _tables().groups.take(groups).view(np.uint8)


def _repr_lines(values: np.ndarray) -> bytes:
    """``"".join(repr(float(v)) + "\\n" for v in values)`` as ASCII, built with numpy.

    A value in [1e-4, 1) prints as ``[-]0.``, ``-1 - e`` zeros and its ``k``
    shortest digits. Its row holds a sign, ``0.``, its 17 digits padded to 20
    with zeros, and a newline; one boolean mask keeps the live columns of
    every row (``np.compress`` would build an index eight times its size).
    Zero takes the same row as one digit 0 after ``0.``: ``0.0`` or
    ``-0.0``. Other values outside that range, non-finite values and
    undecided ones go to ``repr``. A power of two needs no case of its own,
    although its rounding interval is lopsided: in that range it is a
    decimal of at most ten digits, and no shorter decimal comes near it.
    """
    tables = _tables()
    mags = np.abs(values)
    fast = (mags >= tables.decades[0]) & (mags < 1.0)
    # the others are replaced before any arithmetic, where a NaN could signal
    e, k, digits, undecided = _shortest(np.where(fast, mags, 0.30000000000000004))
    zero = mags == 0.0
    e[zero], k[zero], digits[zero] = -1, 1, 0
    fast = fast & ~undecided | zero
    negative = np.signbit(values)

    rows = np.empty((values.size, 24), dtype=np.uint8)
    rows[:, :3] = np.frombuffer(b"-0.", dtype=np.uint8)
    rows[:, 3:23] = _ascii_digits(digits)
    rows[:, 23] = ord("\n")
    shape = np.where(fast, ((-1 - e) * 17 + k - 1) * 2 + negative, tables.row_masks.size - 1)
    text = rows.reshape(-1)[tables.row_masks.take(shape).view(bool)].tobytes()
    slow = np.flatnonzero(~fast)
    if not slow.size:
        return text
    # a slow row keeps no column, so its line goes where the next row starts
    cuts = [0, *np.cumsum(np.where(fast, negative + 2 - e + k, 0))[slow].tolist(), len(text)]
    pieces = [b""] * (2 * slow.size + 1)
    pieces[::2] = [text[start:end] for start, end in zip(cuts, cuts[1:])]
    pieces[1::2] = [f"{value!r}\n".encode() for value in values[slow].tolist()]
    return b"".join(pieces)


def write_errors_csv(path, errors) -> None:
    """One ``repr`` of each error per line, under the header ``error``."""
    path = _require_path(path)
    values = _require_real_array(errors, "errors", flat=True)
    with open(path, "wb") as handle:
        handle.write(b"error\n")
        for start in range(0, values.size, _CHUNK):
            handle.write(_repr_lines(values[start : start + _CHUNK]))


def write_histogram_csv(path, histogram: Histogram) -> None:
    _require_instance(histogram, "histogram", Histogram)
    rows = zip(histogram.bin_edges, histogram.bin_edges[1:], histogram.counts)
    write_text(path, "bin_lo,bin_hi,count\n" + "".join(
        f"{lo!r},{hi!r},{count}\n" for lo, hi, count in rows
    ))


def write_sweep_csv(path, points: tuple[SweepPoint, ...]) -> None:
    """One row of ``SWEEP_HEADER`` fields per point, each cell the ``repr`` of its value."""
    # a list or tuple: the check would spend an iterator before the rows are written
    points = _require_kind(points, "points", (tuple, list), "a sequence of SweepPoint")
    for i, point in enumerate(points):
        _require_instance(point, f"points[{i}]", SweepPoint)
    write_text(path, ",".join(SWEEP_HEADER) + "\n" + "".join(
        ",".join(repr(v) for v in result_dict(point).values()) + "\n" for point in points
    ))
