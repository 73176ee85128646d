"""Canonical JSON wire format for frames.

A frame document is an object::

    {"n": int, "m": int, "field": "complex" | "real",
     "vectors": [[[re, im], ...n pairs...], ...m rows...]}

Serialization writes full double precision, so a dump/load round trip is
bit exact.  Validation errors name the offending field.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .core import ComplexFrame
from .errors import FramecertError

__all__ = ["frame_to_dict", "frame_from_dict", "dump_frame", "load_frame"]


def frame_to_dict(fr: ComplexFrame) -> dict[str, Any]:
    """Render a frame as a JSON-ready dict in the canonical format."""
    vectors = [[[float(c.real), float(c.imag)] for c in row] for row in fr.vectors]
    return {"n": fr.n, "m": fr.m, "field": fr.field, "vectors": vectors}


def _require_positive_int(doc: dict, key: str) -> int:
    if key not in doc:
        raise FramecertError(f"missing field '{key}'")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise FramecertError(f"field '{key}' must be an integer, got {value!r}")
    if value < 1:
        raise FramecertError(f"field '{key}' must be positive, got {value}")
    return value


def _parse_entry(pair: Any, where: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise FramecertError(f"field '{where}' must be a [re, im] pair")
    re, im = pair
    for part, val in (("re", re), ("im", im)):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise FramecertError(f"field '{where}' has a non-numeric {part} part")
        # compared exactly, so an int beyond double range fails too
        if not abs(val) <= sys.float_info.max:
            raise FramecertError(f"field '{where}' has a {part} part that is not a finite double")
    return complex(re, im)


def frame_from_dict(doc: Any) -> ComplexFrame:
    """Parse and validate a frame document.

    Raises FramecertError naming the offending field on any violation,
    including an ``n`` or ``m`` that does not match the rows.
    """
    if not isinstance(doc, dict):
        raise FramecertError("frame document root must be an object")
    n = _require_positive_int(doc, "n")
    m = _require_positive_int(doc, "m")
    field = doc.get("field")
    if field not in ("real", "complex"):
        raise FramecertError(
            f"field 'field' must be 'real' or 'complex', got {field!r}"
        )
    rows = doc.get("vectors")
    if not isinstance(rows, list):
        raise FramecertError("field 'vectors' must be a list of rows")
    if len(rows) != m:
        raise FramecertError(f"field 'vectors' has {len(rows)} rows, expected m={m}")
    entries = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise FramecertError(
                f"field 'vectors[{k}]' must be a list of n={n} pairs"
            )
        for j, pair in enumerate(row):
            entry = _parse_entry(pair, f"vectors[{k}][{j}]")
            if field == "real" and entry.imag != 0.0:
                raise FramecertError(
                    f"field 'vectors[{k}][{j}]' has a nonzero imaginary part "
                    "in a frame declared real"
                )
            entries.append(entry)
    # every row is checked before the array is allocated, so a huge n with
    # short rows is a format error rather than an allocation
    vectors = np.array(entries, dtype=np.complex128).reshape(m, n)
    return ComplexFrame(vectors, field)


def dump_frame(fr: ComplexFrame, path: str) -> None:
    """Write a frame document to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frame_to_dict(fr), fh, indent=2)
        fh.write("\n")


def load_frame(path: str) -> ComplexFrame:
    """Read and validate a frame document from a file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FramecertError(f"cannot read frame file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FramecertError(f"frame file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FramecertError(f"frame file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FramecertError("frame file nests JSON too deeply to parse") from exc
    return frame_from_dict(doc)
