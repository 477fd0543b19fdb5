import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from synth import rewrite_container_header
from gridshock.container import MAGIC, read_container, write_container
from gridshock.errors import FileFormatError


def _sample_arrays(rng):
    return {
        "floats": rng.normal(size=(3, 4)),
        "ints": rng.integers(-5, 5, size=(2, 6)),
        "flags": rng.integers(0, 2, size=7).astype(np.uint8),
    }


def test_roundtrip_preserves_values_and_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    arrays = _sample_arrays(rng)
    meta = {"name": "demo", "nested": {"k": [1, 2, 3]}}
    path = tmp_path / "blob.gshk"
    write_container(path, "schema-x", meta, arrays)
    meta2, arrays2 = read_container(path, "schema-x")
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for name in arrays:
        assert_array_equal(arrays2[name], arrays[name])
    assert arrays2["floats"].dtype == np.float64
    assert arrays2["ints"].dtype == np.int64
    assert arrays2["flags"].dtype == np.uint8


def test_write_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    arrays = _sample_arrays(rng)
    a, b = tmp_path / "a.gshk", tmp_path / "b.gshk"
    write_container(a, "schema-x", {"run": 1}, arrays)
    write_container(b, "schema-x", {"run": 1}, arrays)
    assert a.read_bytes() == b.read_bytes()


def test_bool_arrays_stored_as_bytes(tmp_path):
    path = tmp_path / "m.gshk"
    write_container(path, "s", {}, {"mask": np.array([True, False, True])})
    _, arrays = read_container(path, "s")
    assert arrays["mask"].dtype == np.uint8
    assert_array_equal(arrays["mask"], [1, 0, 1])


def test_schema_mismatch_rejected(tmp_path):
    path = tmp_path / "p.gshk"
    write_container(path, "schema-a", {}, {"x": np.zeros(2)})
    with pytest.raises(FileFormatError, match="schema"):
        read_container(path, "schema-b")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(FileFormatError, match="magic"):
        read_container(path, "s")


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "p.gshk"
    write_container(path, "s", {}, {"x": np.zeros(2)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(MAGIC) + 12])
    with pytest.raises(FileFormatError, match="truncated"):
        read_container(path, "s")


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "p.gshk"
    write_container(path, "s", {}, {"x": np.arange(100, dtype=np.float64)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(FileFormatError, match="truncated payload"):
        read_container(path, "s")


def test_illegal_dtype_in_header_rejected(tmp_path):
    path = tmp_path / "p.gshk"
    write_container(path, "s", {}, {"x": np.zeros(4)})
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    header = json.loads(blob[start : start + hlen])
    header["arrays"][0]["dtype"] = "<f2"
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + len(hb).to_bytes(8, "little") + hb + blob[start + hlen :])
    with pytest.raises(FileFormatError, match="dtype"):
        read_container(path, "s")


def _edit_entry(**changes):
    def edit(header):
        entry = header["arrays"][0]
        for key, value in changes.items():
            if value is None:
                del entry[key]
            else:
                entry[key] = value
        return header

    return edit


@pytest.mark.parametrize(
    "edit, match",
    [
        (_edit_entry(shape=[101, 100]), r"array 'x': 80000 bytes do not hold shape \[101, 100\]"),
        (_edit_entry(offset=None), "array 'x': offset None"),
        (_edit_entry(offset=-8), "array 'x': offset -8"),
        (_edit_entry(nbytes=79999), "array 'x': 79999 bytes"),
        (_edit_entry(nbytes="80000"), "array 'x': offset 0 and nbytes '80000'"),
        (_edit_entry(shape=None), "array 'x': shape None"),
        (_edit_entry(shape=[100, -100]), "array 'x': shape"),
        (_edit_entry(shape=[True, 10000]), "array 'x': shape"),
        (_edit_entry(shape=100.0), "array 'x': shape"),
        (_edit_entry(dtype=["<f8"]), "array 'x': illegal dtype"),
        (_edit_entry(dtype=None), "array 'x': illegal dtype"),
        (_edit_entry(name=None), "entry without a name"),
        (lambda h: {**h, "arrays": [7]}, "entry without a name"),
        (lambda h: {**h, "arrays": {"x": 1}}, "arrays list"),
        (lambda h: {**h, "meta": [1, 2]}, "meta object"),
        (lambda h: {k: v for k, v in h.items() if k != "meta"}, "no entry 'meta'"),
        (lambda h: [h], "not a JSON object"),
        (lambda h: "s", "not a JSON object"),
    ],
)
def test_corrupt_header_is_a_file_format_error(tmp_path, edit, match):
    path = tmp_path / "p.gshk"
    write_container(path, "s", {}, {"x": np.zeros((100, 100))})
    rewrite_container_header(path, edit)
    with pytest.raises(FileFormatError, match=match) as info:
        read_container(path, "s")
    assert str(path) in str(info.value)


def test_missing_array_or_meta_key_is_a_file_format_error(tmp_path):
    path = tmp_path / "p.gshk"
    write_container(path, "s", {"grid": {"slots": 3}}, {"x": np.zeros(2)})
    meta, arrays = read_container(path, "s")
    assert meta == {"grid": {"slots": 3}} and arrays.get("y") is None
    for lookup, key in ((lambda: arrays["y"], "'y'"), (lambda: meta["units"], "'units'"),
                        (lambda: meta["grid"]["start"], "'start'")):
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: container has no entry {key}")):
            lookup()


def test_float32_input_upcast(tmp_path):
    path = tmp_path / "p.gshk"
    write_container(path, "s", {}, {"x": np.arange(3, dtype=np.float32)})
    _, arrays = read_container(path, "s")
    assert arrays["x"].dtype == np.float64
    assert_array_equal(arrays["x"], [0.0, 1.0, 2.0])


def test_read_copies_each_payload_once(tmp_path):
    # the file's bytes plus one owned copy of every array, and nothing in between
    rng = np.random.default_rng(3)
    arrays = {"a": rng.normal(size=(200, 1000)), "b": rng.integers(0, 9, size=(100, 1000))}
    path = tmp_path / "big.gshk"
    write_container(path, "schema-x", {}, arrays)
    tracemalloc.start()
    try:
        _, got = read_container(path, "schema-x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * path.stat().st_size, (peak, path.stat().st_size)
    for name in arrays:
        assert_array_equal(got[name], arrays[name])
        assert got[name].flags.owndata and got[name].flags.writeable
