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
from pathlib import Path

import numpy as np

from .errors import FileFormatError

MAGIC = b"GSHKBIN\x00"

_ALLOWED_DTYPES = {"<f8", "<i8", "|u1"}


def _canonical(arr: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(arr)
    if a.dtype == np.float64:
        return a.astype("<f8", copy=False)
    if a.dtype == np.int64:
        return a.astype("<i8", copy=False)
    if a.dtype == np.uint8:
        return a.astype("|u1", copy=False)
    if np.issubdtype(a.dtype, np.floating):
        return a.astype("<f8")
    if np.issubdtype(a.dtype, np.integer):
        return a.astype("<i8")
    if a.dtype == np.bool_:
        return a.astype("|u1")
    raise FileFormatError(f"unsupported array dtype for container: {a.dtype}")


def write_container(path, schema: str, meta: dict, arrays: dict) -> None:
    """Write `arrays` (name -> ndarray) plus JSON-serializable `meta`."""
    entries = []
    payloads = []
    offset = 0
    for name in sorted(arrays):
        a = _canonical(arrays[name])
        raw = a.tobytes()
        entries.append(
            {
                "name": name,
                "dtype": a.dtype.str,
                "shape": list(a.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        payloads.append(raw)
        offset += len(raw)
    header = {"schema": schema, "meta": meta, "arrays": entries}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for raw in payloads:
            fh.write(raw)


def peek_schema(path) -> str:
    """Schema tag of a container file, validating magic and header only."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC) + 8)
            if len(head) < len(MAGIC) + 8 or head[: len(MAGIC)] != MAGIC:
                raise FileFormatError(f"{path}: not a gridshock container (bad magic)")
            hlen = int.from_bytes(head[len(MAGIC) :], "little")
            hbytes = fh.read(hlen)
    except OSError as exc:
        raise FileFormatError(f"cannot read container {path}: {exc}") from exc
    if len(hbytes) < hlen:
        raise FileFormatError(f"{path}: truncated container header")
    try:
        header = json.loads(hbytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: corrupt container header: {exc}") from exc
    schema = header.get("schema")
    if not isinstance(schema, str):
        raise FileFormatError(f"{path}: container header missing schema tag")
    return schema


def read_container(path, expected_schema: str):
    """Read a container, returning (meta, arrays). Validates magic and schema."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FileFormatError(f"cannot read container {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
        raise FileFormatError(f"{path}: not a gridshock container (bad magic)")
    hlen = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    hstart = len(MAGIC) + 8
    if hstart + hlen > len(blob):
        raise FileFormatError(f"{path}: truncated container header")
    try:
        header = json.loads(blob[hstart : hstart + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: corrupt container header: {exc}") from exc
    schema = header.get("schema")
    if schema != expected_schema:
        raise FileFormatError(
            f"{path}: schema {schema!r} is not compatible with expected {expected_schema!r}"
        )
    body = memoryview(blob)[hstart + hlen :]  # slices of a view copy nothing; each array is copied once
    arrays = {}
    for entry in header.get("arrays", []):
        dtype = entry["dtype"]
        if dtype not in _ALLOWED_DTYPES:
            raise FileFormatError(f"{path}: illegal dtype {dtype!r} in container")
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(body):
            raise FileFormatError(f"{path}: truncated payload for array {entry['name']!r}")
        arr = np.frombuffer(body[start : start + nbytes], dtype=dtype).reshape(entry["shape"])
        arrays[entry["name"]] = arr.copy()
    return header["meta"], arrays
