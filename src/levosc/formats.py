"""The file formats levosc reads and writes, each decided once: JSON
(:func:`read_json`) checked against key tables (:func:`read_keys`),
numeric CSV in (:func:`read_numeric_csv`) and CSV out
(:func:`write_csv`). The readers parse bytes; ``source`` names the file
in messages only.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError

__all__ = ["REQUIRED", "read_json", "read_keys", "read_numeric_csv",
           "write_csv"]

# The default of a key that has none: leaving it out is an error.
REQUIRED = object()

_COUNTS = {"two numbers": 2, "three numbers": 3}
_CHUNK_ROWS = 4096    # CSV rows formatted per write: ~4.5 MB at 7 columns


def _typed(kind, value):
    """``value`` as the Python value of JSON type ``kind``; ValueError if
    it has another type: a bool is no number, 2.5 no integer and "false"
    no boolean. A tuple ``kind`` lists the values allowed."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
    elif value is None:
        if kind.endswith(" or null"):
            return None
    elif kind in _COUNTS:
        if isinstance(value, list) and len(value) == _COUNTS[kind]:
            return tuple(_typed("number", v) for v in value)
    elif kind.startswith("number"):
        # float() raises OverflowError past the float range
        if type(value) in (int, float) and np.isfinite(float(value)):
            return float(value)
    elif type(value) is {"integer": int, "boolean": bool,
                         "string or null": str}[kind]:
        return value
    raise ValueError(kind)


class _Object(dict):
    """A JSON object from its key-value pairs that remembers its first
    repeated key, for :func:`read_keys` to report by its path."""

    repeated = None

    def __init__(self, pairs: list):
        super().__init__()
        for key, value in pairs:
            if key in self and self.repeated is None:
                self.repeated = key
            self[key] = value


def _number(text: str) -> float:
    """float(text), except that an underscore is a ValueError."""
    if "_" in text:
        raise ValueError(text)
    return float(text)


def read_json(data: bytes, what: str, source: str | Path):
    """The JSON value in ``data``; bad JSON or text is a
    :class:`ConfigError` naming ``what`` and ``source``. A repeated key is
    left for :func:`read_keys` to reject."""
    try:
        return json.loads(data, object_pairs_hook=_Object)
    except (ValueError, RecursionError) as exc:   # or nested too deep
        raise ConfigError(f"cannot read {what} {source}: {exc}") from exc


def read_keys(table: dict, given, where: str = "") -> dict:
    """The parsed JSON object ``given`` checked against ``table``, with
    every default filled in.

    ``table`` maps each key to (JSON type, default); a nested table is
    an object, a list of one table a list of such objects, and a default
    of ``REQUIRED`` makes the key required. A repeated key, an unknown
    one, a missing one or a value of the wrong JSON type is a
    :class:`ConfigError` naming the key by its path below ``where`` (the
    top level has none)."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where or 'the top level'} must be a JSON object")
    repeated = getattr(given, "repeated", None)
    if repeated is not None:
        name = f"{where}.{repeated}" if where else repeated
        raise ConfigError(f"duplicate key {name!r}")
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'the top level'}: "
                          f"{unknown}")
    typed = {}
    for key, spec in table.items():
        name = f"{where}.{key}" if where else key
        if isinstance(spec, dict):
            typed[key] = read_keys(spec, given.get(key, {}), name)
        elif isinstance(spec, list):
            value = given.get(key)
            if not isinstance(value, list):
                raise ConfigError(f"{name}: expected a list of objects, "
                                  f"got {value!r}")
            typed[key] = [read_keys(spec[0], item, f"{name}[{i}]")
                          for i, item in enumerate(value)]
        else:
            kind, default = spec
            value = given.get(key, default)
            if value is REQUIRED:
                raise ConfigError(f"{name} is missing")
            try:
                typed[key] = _typed(kind, value)
            except (ValueError, OverflowError):
                if not isinstance(kind, str):
                    kind = " or ".join(json.dumps(choice) for choice in kind)
                raise ConfigError(f"{name}: expected {kind}, got {value!r}") \
                    from None
    return typed


def _is_number(text: str) -> bool:
    # float() syntax, underscores included: a mistyped first data row is
    # rejected as a row, not skipped as the header
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_numeric_csv(data: bytes, source: str | Path, what: str,
                     required: int, optional: int = 0,
                     check: Callable[[list], str | None] | None = None,
                     ) -> list[tuple[float | None, ...]]:
    """The rows of a numeric CSV, each a tuple of its first ``required``
    fields as floats and its next ``optional`` ones as floats or, when
    blank or absent, None; later fields are ignored.

    Lines starting with ``#`` are skipped. The first other line is a
    header when its first field is not a number; any other line that
    does not parse, or for which ``check`` returns a reason, is a
    :class:`DataError` naming ``source:line``, as are bytes that are not
    UTF-8 text and a file without data rows. ``what`` names the file's
    content in the messages.
    """
    try:
        records = [(lineno, rec) for lineno, rec in enumerate(
                       csv.reader(io.StringIO(data.decode(), newline="")),
                       start=1)
                   if rec and not rec[0].lstrip().startswith("#")]
    except (ValueError, csv.Error) as exc:    # ValueError: not UTF-8
        raise DataError(f"cannot read {what} {source}: {exc}") from exc
    if records and not _is_number(records[0][1][0]):
        records = records[1:]     # the one header line
    rows = []
    for lineno, rec in records:
        try:
            row = [_number(rec[k]) for k in range(required)]
            row += [_number(rec[k]) if k < len(rec) and rec[k].strip()
                    else None for k in range(required, required + optional)]
        except (ValueError, IndexError):
            raise DataError(f"{source}:{lineno}: bad {what} row {rec!r}") \
                from None
        reason = check(row) if check is not None else None
        if reason is not None:
            raise DataError(f"{source}:{lineno}: {reason}")
        rows.append(tuple(row))
    if not rows:
        raise DataError(f"{what} {source} has no data rows")
    return rows


def write_csv(fh: io.TextIOBase, comments: Sequence[str | None],
              header: Sequence[str], columns: Sequence) -> None:
    """Write each comment that is not None or empty as a ``#`` line, then
    the header and one record per row of the equal-length ``columns``:
    every value by ``repr``, NaN as an empty field, _CHUNK_ROWS rows at
    a time."""
    for comment in comments:
        if comment:
            fh.write(f"# {comment}\n")
    fh.write(",".join(header) + "\n")
    columns = [np.asarray(col) for col in columns]
    rows = min(map(len, columns), default=0)
    for start in range(0, rows, _CHUNK_ROWS):
        fields = [["" if text == "nan" else text for text in
                   map(repr, col[start:start + _CHUNK_ROWS].tolist())]
                  for col in columns]
        fh.writelines(",".join(record) + "\n" for record in zip(*fields))
