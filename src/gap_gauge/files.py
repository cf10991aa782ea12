"""File interchange: model files, sampler configs, and result files.

All JSON written here is deterministic (sorted keys, fixed indentation,
shortest round-trip float repr) and all CSV uses LF line endings, so a rerun
with identical inputs produces byte-identical files. Every writer has a
matching reader to keep outputs verifiable.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, is_dataclass
from typing import Any, get_args, get_type_hints

import numpy as np

from .empirical import EstimateReport
from .errors import ValidationError
from .model import FullJoint, ReducedModel
from .simulation import Histogram, SamplerConfig, SimulationResult, SweepPoint, SweepResult

__all__ = [
    "atomic_open",
    "atomic_paths",
    "dumps_json",
    "write_text",
    "write_json",
    "result_dict",
    "from_dict",
    "model_from_dict",
    "load_model_file",
    "model_to_dict",
    "load_sampler_config",
    "write_errors_csv",
    "write_histogram_csv",
    "write_sweep_csv",
    "read_summary_json",
    "read_errors_csv",
    "read_histogram_csv",
    "read_sweep_csv",
]

#: Output keys that differ from the dataclass field names; ``None`` drops the
#: field. Every other field is written under its own name, in declaration order.
OUTPUT_KEYS: dict[tuple[type, str], str | None] = {
    (EstimateReport, "bootstrap"): "bootstrap_ci",
    # written to <out>.errors.csv and <out>.hist.csv, not to the summary
    (SimulationResult, "errors"): None,
    (SimulationResult, "histogram"): None,
}


def _output_fields(cls: type) -> list[tuple[str, str]]:
    """(attribute, output key) pairs of a result dataclass, in declaration order."""
    pairs = [(f.name, OUTPUT_KEYS.get((cls, f.name), f.name)) for f in fields(cls)]
    return [(name, key) for name, key in pairs if key is not None]


def result_dict(obj: Any) -> Any:
    """JSON-ready form of a result: dataclasses become dicts, tuples lists.

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
    return obj


SWEEP_HEADER = tuple(key for _, key in _output_fields(SweepPoint))
SUMMARY_KEYS = tuple(key for _, key in _output_fields(SimulationResult))


def dumps_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Temporary(str):
    """A temporary path handed out by ``atomic_paths``; its block renames it."""


@contextmanager
def atomic_open(path):
    """Text handle onto ``<path>.tmp``, renamed to ``path`` once the block ends.

    A block that raises removes the temporary file, so ``path`` either keeps
    its previous state or holds the complete output, never part of it. A
    temporary from an enclosing ``atomic_paths`` block is opened as it is,
    since that block renames it into place or removes it.
    """
    if isinstance(path, _Temporary):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        return
    with atomic_paths(path) as (tmp,), open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        yield handle


@contextmanager
def atomic_paths(*paths):
    """Temporary paths ``<path>.tmp``, all renamed onto ``paths`` once the block ends.

    Every output is written before any is replaced, and a block that raises
    removes every temporary, so a failed write leaves every path as it was.
    The writers here write a temporary in place, so each output is renamed
    once.
    """
    tmps = [_Temporary(f"{os.fspath(path)}.tmp") for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    with atomic_open(path) as handle:
        handle.write(text)


def write_json(path, obj: Any) -> None:
    write_text(path, dumps_json(obj))


def _load_json(path, digest=None) -> Any:
    """The JSON value in ``path``, read once; ``digest`` is updated with its bytes."""
    with open(path, "rb") as handle:
        data = handle.read()
    if digest is not None:
        digest.update(data)
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    return obj


def _check_keys(obj: dict, required: tuple, allowed: tuple, where: str) -> None:
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where} is missing required field {key!r}")
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{where} has unknown field {key!r}")


#: JSON types accepted for each scalar field type, and their name in errors.
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _decode(hint: Any, value: Any, where: str) -> Any:
    """One JSON value as a field of type ``hint``; ``where`` names it in errors."""
    if is_dataclass(hint):
        return from_dict(hint, value, where)
    if hint is np.ndarray:
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be a list of numbers, got {value!r}")
        items = [_decode(float, item, f"{where}[{i}]") for i, item in enumerate(value)]
        return np.array(items, dtype=float)
    accepted, kind = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValidationError(f"{where} must be {kind}, got {value!r}")
    if hint is not float:
        return value
    try:
        return float(value)
    except OverflowError:  # an integer past 1.8e308; its digits are not shown
        raise ValidationError(f"{where} is an integer too large for a float") from None


def from_dict(cls: type, obj: Any, where: str) -> Any:
    """Dataclass ``cls`` from a JSON object; the fields are the schema.

    A field without a default is required, a key that is not a field is
    rejected, and an ``X | None`` field also takes ``null``, meaning absent.
    Checks run in order: missing fields, unknown keys, value types (nested
    dataclasses at ``<where>.<field>``), then ``cls.__post_init__``, whose
    errors are prefixed with ``where``.
    """
    obj = _require_mapping(obj, where)
    specs = fields(cls)
    required = tuple(
        f.name for f in specs if f.default is MISSING and f.default_factory is MISSING
    )
    _check_keys(obj, required, tuple(f.name for f in specs), where)
    hints = get_type_hints(cls)
    kwargs = {}
    for f in specs:
        if f.name not in obj:
            continue
        hint, value = hints[f.name], obj[f.name]
        if type(None) in get_args(hint):  # X | None
            if value is None:
                continue
            (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
        kwargs[f.name] = _decode(hint, value, f"{where}.{f.name}")
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


def load_model_file(path, digest=None) -> FullJoint | ReducedModel:
    payload = _load_json(path, digest)  # its errors already name the path
    try:
        return model_from_dict(payload)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _without_none(items) -> dict:
    return {key: value for key, value in items if value is not None}


def model_to_dict(model: FullJoint | ReducedModel) -> dict:
    """Model-file payload; a slice's ``d`` is left out when it is unknown."""
    if isinstance(model, FullJoint):
        return {"joint": {"cells": model.cells.tolist()}}
    return {"reduced": asdict(model, dict_factory=_without_none)}


def load_sampler_config(path, digest=None) -> SamplerConfig:
    payload = _load_json(path, digest)  # its errors already name the path
    try:
        return from_dict(SamplerConfig, payload, "sampler config")
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def sampler_config_to_dict(config: SamplerConfig) -> dict:
    """Config payload; the eps budgets are left out in unconstrained mode."""
    return asdict(config, dict_factory=_without_none)


def write_errors_csv(path, errors) -> None:
    with atomic_open(path) as handle:
        handle.write("error\n")
        for value in np.asarray(errors, dtype=float).reshape(-1):
            handle.write(repr(float(value)) + "\n")


def write_histogram_csv(path, histogram: Histogram) -> None:
    with atomic_open(path) as handle:
        handle.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in zip(
            histogram.bin_edges, histogram.bin_edges[1:], histogram.counts
        ):
            handle.write(f"{lo!r},{hi!r},{count}\n")


def write_sweep_csv(path, result: SweepResult) -> None:
    with atomic_open(path) as handle:
        handle.write(",".join(SWEEP_HEADER) + "\n")
        for point in result.points:
            handle.write(",".join(repr(v) for v in result_dict(point).values()) + "\n")


def read_summary_json(path) -> dict:
    obj = _require_mapping(_load_json(path), "summary")
    _check_keys(obj, SUMMARY_KEYS, SUMMARY_KEYS, "summary")
    return obj


def read_errors_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["error"]:
            raise ValidationError(f"{path}: expected header 'error', got {header!r}")
        try:
            return np.array([float(row[0]) for row in reader], dtype=float)
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed error row ({exc})") from exc


def read_histogram_csv(path) -> Histogram:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(("bin_lo", "bin_hi", "count")):
            raise ValidationError(
                f"{path}: expected header 'bin_lo,bin_hi,count', got {header!r}"
            )
        edges: list[float] = []
        counts: list[int] = []
        for row in reader:
            if len(row) != 3:
                raise ValidationError(f"{path}: histogram rows need 3 columns")
            lo, hi, count = float(row[0]), float(row[1]), int(row[2])
            if not edges:
                edges.append(lo)
            elif edges[-1] != lo:
                raise ValidationError(f"{path}: histogram bins are not contiguous")
            edges.append(hi)
            counts.append(count)
    return Histogram(bin_edges=tuple(edges), counts=tuple(counts))


def read_sweep_csv(path) -> list[dict[str, float]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(SWEEP_HEADER):
            raise ValidationError(
                f"{path}: expected header {','.join(SWEEP_HEADER)!r}, got {header!r}"
            )
        rows = []
        for row in reader:
            if len(row) != len(SWEEP_HEADER):
                raise ValidationError(f"{path}: sweep rows need {len(SWEEP_HEADER)} columns")
            rows.append({key: float(value) for key, value in zip(SWEEP_HEADER, row)})
        return rows
