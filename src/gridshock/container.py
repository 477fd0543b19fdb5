"""Self-describing binary container for datasets and fitted models.

Layout: an 8-byte magic, a little-endian uint64 header length, a UTF-8 JSON
header, then raw C-order little-endian array payloads at the offsets the
header declares. The header carries the schema string (e.g.
"gridshock-ds-v1") plus arbitrary JSON metadata. Writing is byte-deterministic
for equal inputs: the header JSON is dumped with sorted keys and no
timestamps, and array bytes are written verbatim.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import FileFormatError, checked, is_count

MAGIC = b"GSHKBIN\x00"

_ALLOWED_DTYPES = {"<f8", "<i8", "|u1"}


# The stored dtype of an array, by its dtype string, else by its dtype kind:
# uint8 and bool stay bytes, every other integer widens to int64, every real float to float64.
_CANONICAL = {"|u1": "|u1", "b": "|u1", "i": "<i8", "u": "<i8", "f": "<f8"}


def _canonical(arr: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(arr)
    dtype = _CANONICAL.get(a.dtype.str) or _CANONICAL.get(a.dtype.kind)
    if dtype is None:
        raise FileFormatError(f"unsupported array dtype for container: {a.dtype}")
    return a.astype(dtype, copy=False)


def write_container(path, schema: str, meta: dict, arrays: dict) -> None:
    """Write `arrays` (name -> ndarray) plus JSON-serializable `meta`. Each
    array is written from its own buffer, so an array already in canonical
    form is not copied."""
    canonical = {name: _canonical(arrays[name]) for name in sorted(arrays)}
    entries = []
    offset = 0
    for name, a in canonical.items():
        entries.append({"name": name, "dtype": a.dtype.str, "shape": list(a.shape), "offset": offset,
                        "nbytes": a.nbytes})
        offset += a.nbytes
    header = {"schema": schema, "meta": meta, "arrays": entries}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for a in canonical.values():
            fh.write(a.data)


class _Entries(dict):
    """A container's header objects and its arrays, keyed by name: a missing key
    is a FileFormatError naming the file, not a KeyError."""

    def __init__(self, path, items):
        super().__init__(items)
        self.path = path

    def __missing__(self, key):
        raise FileFormatError(f"{self.path}: container has no entry {key!r}")


def meta_value(meta, key: str, kind: tuple, label: str | None = None):
    """meta[key] of a container read by :func:`read_container`, checked to be
    of `kind` (see :mod:`gridshock.errors`); otherwise a FileFormatError naming
    the file and the key (`label`, for a key nested in the meta)."""
    return checked(meta[key], kind, f"{meta.path}: meta key {label or key!r}", FileFormatError)


def integer_array(arrays, name: str) -> np.ndarray:
    """arrays[name] of a container read by :func:`read_container`, if it holds
    integers; otherwise a FileFormatError naming the file and the array."""
    if arrays[name].dtype.kind not in "iu":
        raise FileFormatError(f"{arrays.path}: array {name!r} must hold integers, got dtype {arrays[name].dtype}")
    return arrays[name]


def _check_entry(path: Path, entry) -> None:
    """Raise FileFormatError unless `entry` declares an array that its bytes can hold."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise FileFormatError(f"{path}: container array entry without a name: {entry!r}")
    where = f"{path}: array {entry['name']!r}"
    dtype, shape, offset, nbytes = (entry.get(key) for key in ("dtype", "shape", "offset", "nbytes"))
    if not isinstance(dtype, str) or dtype not in _ALLOWED_DTYPES:
        raise FileFormatError(f"{where}: illegal dtype {dtype!r} in container")
    if not (isinstance(shape, list) and all(map(is_count, shape))):
        raise FileFormatError(f"{where}: shape {shape!r} is not a list of non-negative integers")
    if not (is_count(offset) and is_count(nbytes)):
        raise FileFormatError(f"{where}: offset {offset!r} and nbytes {nbytes!r} must be non-negative integers")
    if nbytes != math.prod(shape) * np.dtype(dtype).itemsize:
        raise FileFormatError(f"{where}: {nbytes} bytes do not hold shape {shape} of {dtype}")


def read_container(path, expected_schema: str):
    """Read a container, returning (meta, arrays). Validates magic, schema and
    every array entry; a missing meta key or array is a FileFormatError. Each
    array is read straight into its own buffer, so the file is never held whole."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _read_open(path, fh, expected_schema)
    except OSError as exc:
        raise FileFormatError(f"cannot read container {path}: {exc}") from exc


def _read_open(path: Path, fh, expected_schema: str):
    """:func:`read_container` on `fh`, the file at `path` opened for reading."""
    size, hstart = os.fstat(fh.fileno()).st_size, len(MAGIC) + 8
    head = fh.read(hstart)
    if len(head) < hstart or head[: len(MAGIC)] != MAGIC:
        raise FileFormatError(f"{path}: not a gridshock container (bad magic)")
    hlen = int.from_bytes(head[len(MAGIC) :], "little")
    if hstart + hlen > size:
        raise FileFormatError(f"{path}: truncated container header")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"), object_hook=lambda obj: _Entries(path, obj))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: corrupt container header: {exc}") from exc
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: corrupt container header: not a JSON object")
    schema = header.get("schema")
    if schema != expected_schema:
        raise FileFormatError(f"{path}: schema {schema!r} is not compatible with expected {expected_schema!r}")
    meta, entries = header["meta"], header.get("arrays", [])
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise FileFormatError(f"{path}: container header needs a meta object and an arrays list")
    arrays = _Entries(path, {})
    for entry in entries:
        _check_entry(path, entry)
        start, nbytes = hstart + hlen + entry["offset"], entry["nbytes"]
        arr = np.empty(entry["shape"], dtype=entry["dtype"]) if start + nbytes <= size else None
        # seek returns the new position; readinto, the bytes read, which fall short if the file shrank
        if arr is None or fh.seek(start) != start or fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise FileFormatError(f"{path}: truncated payload for array {entry['name']!r}")
        arrays[entry["name"]] = arr
    return meta, arrays
