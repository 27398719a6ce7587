"""Round-trip and format checks for the tensor container."""

import json

import numpy as np
import pytest

from headsparse.container import load_container, save_container
from headsparse.errors import ArgumentError


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


def test_truncated_payload_detected(tmp_path):
    save_container(tmp_path / "t", {"x": np.zeros(8, np.float32)})
    raw = (tmp_path / "t.bin").read_bytes()
    (tmp_path / "t.bin").write_bytes(raw[:-4])
    with pytest.raises(ArgumentError):
        load_container(tmp_path / "t")


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
