"""Flat binary checkpoint of named tensors with a JSON header.

Layout (little-endian):

    bytes 0..8    header length H as an unsigned 64-bit integer
    bytes 8..8+H  UTF-8 JSON header
    bytes 8+H..   raw tensor buffers, contiguous, in header order

Header schema::

    {
      "version": 1,
      "meta": { ... arbitrary JSON metadata ... },
      "tensors": {
        "<name>": {"dtype": "float64", "shape": [..], "offset": N, "nbytes": M},
        ...
      }
    }

Offsets are relative to the start of the data section, in whole float64s.
All tensors are float64, C-contiguous, and hold finite values only.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

_VERSION = 1


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write the tensors in dict order to a temporary file beside `path`, then rename
    it over `path`, so a failed save leaves the previous file whole."""
    entries: dict[str, dict] = {}
    blobs: list[bytes] = []
    offset = 0
    for name, array in tensors.items():
        buf = np.ascontiguousarray(array, dtype=np.float64).tobytes()
        entries[name] = {
            "dtype": "float64",
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": len(buf),
        }
        blobs.append(buf)
        offset += len(buf)
    header = json.dumps({"version": _VERSION, "meta": meta or {}, "tensors": entries}).encode("utf-8")
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") as handle:
            handle.write(struct.pack("<Q", len(header)))
            handle.write(header)
            for blob in blobs:
                handle.write(blob)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors and meta of a checkpoint; a malformed file raises ValueError naming it."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: not a checkpoint file (too short)")
    (header_len,) = struct.unpack("<Q", raw[:8])
    if header_len > len(raw) - 8:
        raise ValueError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if header.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
    entries, meta = header.get("tensors"), header.get("meta")
    if not isinstance(entries, dict) or not isinstance(meta, dict):
        raise ValueError(f"{path}: header needs a tensors object and a meta object")
    data_len = len(raw) - 8 - header_len
    values = np.frombuffer(raw, np.float64, data_len // 8, 8 + header_len)
    tensors: dict[str, np.ndarray] = {}
    for name, entry in entries.items():
        # integer checks only: a checkpoint loads in well under a millisecond
        try:
            dtype, shape = entry["dtype"], entry["shape"]
            start, nbytes, size = entry["offset"], entry["nbytes"], 8 * math.prod(shape)
        except (KeyError, TypeError):
            raise ValueError(
                f"{path}: tensor {name!r}: entry needs a dtype, a shape list, an offset and nbytes"
            ) from None
        if dtype != "float64":
            raise ValueError(f"{path}: tensor {name!r}: dtype {dtype!r} is not float64")
        if (type(start) is not int or type(nbytes) is not int or start % 8
                or nbytes < 0 or not 0 <= start <= data_len - nbytes):
            raise ValueError(
                f"{path}: tensor {name!r}: offset {start!r} + nbytes {nbytes!r} "
                f"leaves the {data_len}-byte data section or splits a float64"
            )
        if type(shape) is not list or nbytes != size:
            raise ValueError(
                f"{path}: tensor {name!r}: {nbytes} bytes do not hold float64 shape {shape!r}"
            )
        try:
            tensors[name] = values[start // 8 : (start + nbytes) // 8].reshape(shape).copy()
        except (TypeError, ValueError):  # a dim that is not an integer, or negative dims
            raise ValueError(
                f"{path}: tensor {name!r}: shape {shape!r} is not a list of sizes"
            ) from None
    if not np.isfinite(values).all():  # one pass over the buffer; name the tensor only on failure
        for name, array in tensors.items():
            if not np.isfinite(array).all():
                raise ValueError(f"{path}: tensor {name!r}: holds a non-finite value")
    return tensors, meta


def check_shapes(arrays, shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise a ValueError naming the tensors of `shapes` that `arrays` lacks or holds misshaped."""
    missing = [name for name in shapes if name not in arrays]
    if missing:
        raise ValueError(f"missing tensors {', '.join(missing)}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(
                f"tensor {name} has shape {list(arrays[name].shape)}, expected {list(shape)}"
            )
