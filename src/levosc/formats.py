"""The file formats levosc reads and writes, each decided once: JSON
key tables (:func:`read_keys`), numeric CSV in (:func:`read_numeric_csv`)
and CSV out (:func:`write_csv`).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

__all__ = ["REQUIRED", "read_keys", "read_numeric_csv", "write_csv"]

# The default of a key that has none: leaving it out is an error.
REQUIRED = object()

_COUNTS = {"two numbers": 2, "three numbers": 3}


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


def read_keys(table: dict, given, where: str = "") -> dict:
    """The parsed JSON object ``given`` checked against ``table``, with
    every default filled in.

    ``table`` maps each key to (JSON type, default); a nested table is
    an object, a list of one table a list of such objects, and a default
    of ``REQUIRED`` makes the key required. An unknown key, a missing
    one or a value of the wrong JSON type is a :class:`ConfigError`
    naming the key by its path below ``where`` (the top level has
    none)."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where or 'the top level'} must be a JSON object")
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
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_numeric_csv(path: str | Path, what: str, required: int,
                     optional: int = 0) -> list[tuple[float | None, ...]]:
    """The rows of a numeric CSV, each a tuple of its first ``required``
    fields as floats and its next ``optional`` ones as floats or, when
    blank or absent, None; later fields are ignored.

    Lines starting with ``#`` are skipped. The first other line is a
    header when its first field is not a number; any other line that
    does not parse is a :class:`DataError` naming ``path:line``, as are
    a file that cannot be read and one without data rows. ``what`` names
    the file's content in the messages.
    """
    try:
        with open(path, newline="") as fh:
            records = [(lineno, rec) for lineno, rec in
                       enumerate(csv.reader(fh), start=1)
                       if rec and not rec[0].lstrip().startswith("#")]
    except (OSError, ValueError, csv.Error) as exc:
        # ValueError: not UTF-8, or a NUL in the path
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if records and not _is_number(records[0][1][0]):
        records = records[1:]     # the one header line
    rows = []
    for lineno, rec in records:
        try:
            row = [float(rec[k]) for k in range(required)]
            row += [float(rec[k]) if k < len(rec) and rec[k].strip()
                    else None for k in range(required, required + optional)]
        except (ValueError, IndexError):
            raise DataError(f"{path}:{lineno}: bad {what} row {rec!r}") \
                from None
        rows.append(tuple(row))
    if not rows:
        raise DataError(f"{what} {path} has no data rows")
    return rows


def write_csv(fh: io.TextIOBase, comments: Sequence[str | None],
              header: Sequence[str], columns: Sequence) -> None:
    """Write each comment that is not None or empty as a ``#`` line, then
    the header and one record per row of the equal-length ``columns``:
    every value by ``repr``, NaN as an empty field."""
    for comment in comments:
        if comment:
            fh.write(f"# {comment}\n")
    fh.write(",".join(header) + "\n")
    fields = [["" if text == "nan" else text
               for text in map(repr, np.asarray(col).tolist())]
              for col in columns]
    fh.writelines(",".join(record) + "\n" for record in zip(*fields))
