"""Output shared by every data product: the output directory, CSV rows,
check records and JSON files.

One float format for all CSV products: 17 significant digits, so doubles
roundtrip exactly through the files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError


def make_out_dir(path) -> None:
    """Create the output directory; a path that cannot be one is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(path)!r}: {exc}") from exc


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a header line, one row per index."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


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
