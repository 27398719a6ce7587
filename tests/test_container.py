"""Round-trip and format checks for the tensor container, and the CSV and
JSON reader's rejection of files it cannot decode or parse."""

import json

import numpy as np
import pytest

from headsparse.container import (
    ContainerWriter,
    load_container,
    read_csv,
    read_json,
    save_container,
    write_csv,
)
from headsparse.errors import ArgumentError, InternalError


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "keys": rng.normal(size=(17, 8)).astype(np.float32),
        "ids": np.arange(17, dtype=np.int32),
        "empty": np.zeros((0, 4), dtype=np.float32),
    }
    meta = {"seed": 3, "note": "fixture", "nested": {"p": 0.9}}
    save_container(tmp_path / "blob", tensors, meta)
    back, meta_back = load_container(tmp_path / "blob")
    assert meta_back == meta
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert arr.tobytes() == back[name].tobytes()


def test_float64_input_stored_as_f4(tmp_path):
    save_container(tmp_path / "t", {"x": np.array([1.0, 2.0])})
    back, _ = load_container(tmp_path / "t")
    assert back["x"].dtype == np.dtype("<f4")


def test_manifest_is_plain_json(tmp_path):
    save_container(tmp_path / "t", {"x": np.zeros(3, np.float32)}, {"k": 1})
    manifest = json.loads((tmp_path / "t.json").read_text())
    assert manifest["format"] == "headsparse-tensors"
    entry = manifest["tensors"][0]
    assert entry["name"] == "x"
    assert entry["dtype"] == "<f4"
    assert entry["shape"] == [3]
    assert entry["offset"] == 0


def test_offsets_are_contiguous(tmp_path):
    save_container(
        tmp_path / "t",
        {"a": np.zeros(2, np.float32), "b": np.zeros((2, 2), np.int32)},
    )
    manifest = json.loads((tmp_path / "t.json").read_text())
    a, b = manifest["tensors"]
    assert b["offset"] == a["offset"] + a["nbytes"] == 8
    assert (tmp_path / "t.bin").stat().st_size == 8 + 16


def test_missing_file_is_argument_error(tmp_path):
    with pytest.raises(ArgumentError):
        load_container(tmp_path / "absent")


def test_kind_and_tensor_names_checked(tmp_path):
    save_container(tmp_path / "t", {"a": np.zeros(2, np.float32)}, {"kind": "blob"})
    tensors, _ = load_container(tmp_path / "t", "blob", ("a",))
    assert list(tensors) == ["a"]
    with pytest.raises(ArgumentError, match="does not hold a projector"):
        load_container(tmp_path / "t", "projector")
    with pytest.raises(ArgumentError, match=r"lacks tensors \['b'\]"):
        load_container(tmp_path / "t", "blob", ("a", "b"))


def test_truncated_payload_detected(tmp_path):
    save_container(tmp_path / "t", {"x": np.zeros(8, np.float32)})
    raw = (tmp_path / "t.bin").read_bytes()
    (tmp_path / "t.bin").write_bytes(raw[:-4])
    with pytest.raises(ArgumentError):
        load_container(tmp_path / "t")


def test_writer_row_blocks_in_any_order_match_save_container(tmp_path):
    """Row blocks written from two threads, last block first, give the
    bytes save_container writes for the whole tensors."""
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(1)
    tensors = {"a": rng.normal(size=(2, 3, 10, 4)), "b": np.arange(6, dtype=np.int32)}
    save_container(tmp_path / "whole", tensors, {"k": 1})
    layout = {"a": ("<f4", (2, 3, 10, 4)), "b": ("<i4", (6,))}
    blocks = [(i, j, r) for i in range(2) for j in range(3) for r in (0, 3, 6)][::-1]
    with ContainerWriter(tmp_path / "blocks", layout) as writer:
        with ThreadPoolExecutor(2) as pool:
            for f in [pool.submit(writer.write, "a", (i, j, r),
                                  tensors["a"][i, j, r : r + (3 if r < 6 else 4)])
                      for i, j, r in blocks]:
                f.result()
        writer.write("b", (0,), tensors["b"])
        writer.commit({"k": 1})
    for suffix in (".bin", ".json"):
        assert ((tmp_path / f"blocks{suffix}").read_bytes()
                == (tmp_path / f"whole{suffix}").read_bytes())


def test_writer_reads_back_what_it_wrote(tmp_path):
    """Before the commit, `read` returns the rows a write put at the same
    index, as the tensor's dtype, and rows never written as zeros; a block
    outside the tensor is refused as a write's is."""
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3, 10, 4))
    with ContainerWriter(tmp_path / "t", {"a": ("<f4", a.shape), "b": ("<i4", (6,))}) as writer:
        writer.write("a", (1, 2, 3), a[1, 2, 3:9])
        writer.write("b", (0,), np.arange(6))
        got = writer.read("a", (1, 2, 3), 6)
        assert got.dtype == np.float32 and np.array_equal(got, a[1, 2, 3:9].astype(np.float32))
        assert np.array_equal(writer.read("a", (0, 0, 0), 10), np.zeros((10, 4), np.float32))
        assert np.array_equal(writer.read("b", (2,), 3), [2, 3, 4])
        with pytest.raises(InternalError, match="does not fit"):
            writer.read("a", (1, 2, 8), 3)


@pytest.mark.parametrize("at, shape", [((0, 0, 8), (3, 4)), ((2, 0, 0), (1, 4)),
                                       ((0, 0, 0), (1, 5)), ((0,), (3, 3, 10, 4)),
                                       ((), (2, 3, 10, 4))])
def test_writer_rejects_a_block_outside_its_tensor(tmp_path, at, shape):
    with ContainerWriter(tmp_path / "t", {"a": ("<f4", (2, 3, 10, 4))}) as writer:
        with pytest.raises(InternalError, match="does not fit"):
            writer.write("a", at, np.zeros(shape, np.float32))


def test_writer_without_commit_leaves_the_earlier_container(tmp_path):
    save_container(tmp_path / "t", {"a": np.ones(4, np.float32)}, {"k": 1})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(InternalError, match="stream failed"):
        with ContainerWriter(tmp_path / "t", {"a": ("<f4", (4,))}) as writer:
            writer.write("a", (0,), np.zeros(4))
            raise InternalError("stream failed")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_writer_open_failure_names_the_file(tmp_path):
    (tmp_path / "t.bin.tmp").mkdir()
    with pytest.raises(ArgumentError, match="t.bin.tmp"):
        ContainerWriter(tmp_path / "t", {"a": ("<f4", (4,))})


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ArgumentError):
        save_container(tmp_path / "t", {"x": np.zeros(2, dtype=np.complex64)})


MANIFEST_EDITS = {
    "shape_vs_nbytes": lambda m: m["tensors"][0].update(shape=[3, 2]),
    "no_directory": lambda m: m.pop("tensors"),
    "entry_key_missing": lambda m: m["tensors"][0].pop("offset"),
    "shape_not_list": lambda m: m["tensors"][0].update(shape="2x2"),
    "float_nbytes": lambda m: m["tensors"][0].update(nbytes=16.0),
    "name_not_string": lambda m: m["tensors"][0].update(name=["x"]),
    "meta_not_object": lambda m: m.update(meta=[1]),
}


@pytest.mark.parametrize("edit", sorted(MANIFEST_EDITS))
def test_malformed_manifest_is_argument_error(tmp_path, edit):
    save_container(tmp_path / "t", {"x": np.zeros((2, 2), np.float32)}, meta={"k": 1})
    path = tmp_path / "t.json"
    manifest = json.loads(path.read_text())
    MANIFEST_EDITS[edit](manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ArgumentError):
        load_container(tmp_path / "t")


CSV_HEADER = ["n", "x"]
BAD_CSV = {
    "bad_bytes": (b"\xff" + b"n,x\r\n1,0.5\r\n", "cannot read"),
    "oversized_field": (b'n,x\r\n1,"' + b"y" * 200_000 + b'"\r\n', "field larger"),
    "short_row": (b"n,x\r\n1,0.5\r\n2\r\n", "line 3: 1 fields, expected 2"),
    "non_numeric_field": (b"n,x\r\n1,0.5\r\nthree,0.5\r\n", "line 3: malformed row"),
}


@pytest.mark.parametrize("case", sorted(BAD_CSV))
def test_read_csv_rejects_malformed_file(tmp_path, case):
    content, message = BAD_CSV[case]
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(ArgumentError, match=message) as info:
        read_csv(path, CSV_HEADER, (int, float))
    assert str(path) in str(info.value)


def test_read_csv_converts_each_column(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, CSV_HEADER, [[1, 0.5], [2, 0.25]])
    assert read_csv(path, CSV_HEADER, (int, float)) == [[1, 0.5], [2, 0.25]]
    assert read_csv(path, CSV_HEADER) == [["1", "0.5"], ["2", "0.25"]]


@pytest.mark.parametrize("content", [b'\xff{"k": 1}', b'{"k": ', b"[" * 100_000],
                         ids=["bad_bytes", "truncated", "nested_too_deep"])
def test_read_json_rejects_malformed_file(tmp_path, content):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    with pytest.raises(ArgumentError, match="cannot read") as info:
        read_json(path)
    assert str(path) in str(info.value)


def test_manifest_with_bad_bytes_is_argument_error(tmp_path):
    save_container(tmp_path / "t", {"x": np.zeros(2, np.float32)})
    path = tmp_path / "t.json"
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(ArgumentError, match="t.json"):
        load_container(tmp_path / "t")
