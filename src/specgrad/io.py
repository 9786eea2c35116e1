"""Serialization for harness outputs: CSV/JSON tables, logs, feature files.

Numbers are written in their shortest round-trip decimal form, switching to
scientific notation below 1e-3 or at 1e6 and above, so emitted tables diff
stably across platforms and parse back to the exact same floats. JSON output
is strict: a non-finite number is written as the string "nan", "inf" or "-inf",
as the CSV writer prints it. Every writer embeds the resolved run configuration
in a preamble or config object.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .core import _float_array
from .errors import InvalidInputError

FEATURE_MAGIC = b"GCPF"
_FEATURE_HEADER = struct.Struct("<4sIII")


def format_number(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    if x == 0.0:
        return "0"
    ax = abs(x)
    if ax < 1e-3 or ax >= 1e6:
        return np.format_float_scientific(x, unique=True, trim="-")
    return np.format_float_positional(x, unique=True, trim="-")


def format_cell(x) -> str:
    """A CSV cell: None empty, a string as is, a tuple or list comma-joined."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (tuple, list)):
        return ",".join(format_cell(v) for v in x)
    return format_number(x)


def write_csv(path, header, rows, preamble: dict | None = None) -> None:
    path = Path(path)
    lines = []
    for key, value in (preamble or {}).items():
        lines.append(f"# {key}={format_cell(value)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return format_number(obj)
    return obj


def to_json(obj) -> str:
    """``obj`` as indented JSON, numpy scalars and arrays as plain values.

    JSON has no NaN or infinity, so a non-finite float is written as the
    string the CSV writer prints for it: "nan", "inf" or "-inf".
    """
    return json.dumps(_jsonable(obj), indent=2, allow_nan=False)


def write_json(path, obj) -> None:
    Path(path).write_text(to_json(obj) + "\n")


def write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(_jsonable(rec), allow_nan=False) + "\n")


def write_feature_file(path, matrices) -> None:
    """Binary block of little-endian float64 feature matrices.

    Layout: 16-byte header (magic GCPF, u32 d, u32 N, u32 count) followed by
    ``count`` row-major d x N blocks.
    """
    matrices = [_float_array(m, "feature matrix") for m in matrices]
    if not matrices:
        raise InvalidInputError("feature file needs at least one matrix")
    if matrices[0].ndim != 2:
        raise InvalidInputError(f"feature matrix must be 2-d, got shape {matrices[0].shape}")
    d, n = matrices[0].shape
    if any(m.shape != (d, n) for m in matrices):
        raise InvalidInputError("all feature matrices must share one shape")
    with open(path, "wb") as fh:
        fh.write(_FEATURE_HEADER.pack(FEATURE_MAGIC, d, n, len(matrices)))
        for m in matrices:
            fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def read_feature_file(path) -> list:
    raw = Path(path).read_bytes()
    if len(raw) < _FEATURE_HEADER.size:
        raise InvalidInputError(f"{path}: truncated feature file")
    magic, d, n, count = _FEATURE_HEADER.unpack_from(raw)
    if magic != FEATURE_MAGIC:
        raise InvalidInputError(f"{path}: bad magic {magic!r}")
    expected = _FEATURE_HEADER.size + 8 * d * n * count
    if len(raw) != expected:
        raise InvalidInputError(
            f"{path}: expected {expected} bytes for {count} blocks of {d}x{n}, got {len(raw)}"
        )
    blocks = np.frombuffer(raw, dtype="<f8", offset=_FEATURE_HEADER.size)
    return [block.copy() for block in blocks.reshape(count, d, n)]


def read_config_file(path) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    conf: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInputError(f"config line without '=': {line!r}")
        key, _, value = line.partition("=")
        conf[key.strip()] = value.strip()
    return conf
