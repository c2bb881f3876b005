"""Output shared by every data product: the output directory, CSV rows,
check records and JSON files.

One float format for all CSV products: 17 significant digits, so doubles
roundtrip exactly through the files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError, ShapeError


def make_out_dir(path) -> None:
    """Create the output directory; a path that cannot be one is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(path)!r}: {exc}") from exc


#: Rows formatted per write: Python floats for the whole table would cost
#: more memory than the rows they format.
_CSV_BLOCK_ROWS = 128


def write_csv(path, header: str, columns) -> None:
    """Write 1-D columns of equal length under a header line, one row per
    index; any other shapes are a ShapeError and leave no file.

    The bytes are those of np.savetxt(fmt="%.17g", delimiter=","), written
    one block of rows per format operation.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    shapes = [c.shape for c in columns]
    if len(set(shapes)) != 1 or len(shapes[0]) != 1:
        raise ShapeError(f"{path}: columns must be 1-D of equal length, got shapes {shapes}")
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for s0 in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[s0:s0 + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def check_record(name: str, value: float, reference: float, tolerance: float) -> dict:
    """A {name, value, reference, tolerance, pass} record; tolerance is
    relative to the reference, absolute when the reference is zero."""
    scale = abs(reference) if reference != 0 else 1.0
    return {
        "name": name,
        "value": float(value),
        "reference": float(reference),
        "tolerance": float(tolerance),
        "pass": bool(abs(value - reference) <= tolerance * scale),
    }


def write_json(path, obj) -> None:
    """Write obj as indented, key-sorted JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
