"""On-disk tensor container: a JSON manifest next to one flat binary file.

A container `foo` is the pair foo.json / foo.bin.  The manifest carries an
arbitrary JSON `meta` block plus a tensor directory (name, dtype, shape,
byte offset); the .bin file is the little-endian concatenation of the
tensors in directory order.  Only <f4 and <i4 payloads are allowed, which
keeps every artifact readable from any language with a hex dump and makes
round-trips bit-exact by construction.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import ArgumentError

FORMAT_NAME = "headsparse-tensors"
FORMAT_VERSION = 1

_DTYPES = {"<f4": np.dtype("<f4"), "<i4": np.dtype("<i4")}
_ENTRY_KEYS = {"name", "dtype", "shape", "offset", "nbytes"}


def _canon(arr: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(arr)
    if a.dtype.kind == "f":
        return a.astype("<f4", copy=False)
    if a.dtype.kind in "iu":
        if a.dtype.kind == "u" and a.size and a.max() > np.iinfo(np.int32).max:
            raise ArgumentError("unsigned tensor exceeds int32 range")
        return a.astype("<i4", copy=False)
    raise ArgumentError(f"unsupported tensor dtype {arr.dtype}")


def save_container(stem: str | Path, tensors: Mapping[str, np.ndarray],
                   meta: Mapping[str, Any] | None = None) -> None:
    """Write stem.json + stem.bin.  Tensor order follows the mapping order."""
    stem = Path(stem)
    entries = []
    offset = 0
    blobs = []
    for name, arr in tensors.items():
        a = _canon(np.asarray(arr))
        raw = a.tobytes()
        entries.append({
            "name": name,
            "dtype": str(a.dtype.str),
            "shape": list(a.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": dict(meta) if meta else {},
        "tensors": entries,
    }
    stem.parent.mkdir(parents=True, exist_ok=True)
    with open(stem.with_suffix(".json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=False)
        f.write("\n")
    with open(stem.with_suffix(".bin"), "wb") as f:
        for raw in blobs:
            f.write(raw)


def load_container(stem: str | Path) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Read stem.json + stem.bin back; returns (tensors, meta)."""
    stem = Path(stem)
    try:
        with open(stem.with_suffix(".json")) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ArgumentError(f"cannot read manifest {stem}.json: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise ArgumentError(f"{stem}.json is not a {FORMAT_NAME} manifest")
    meta = manifest.get("meta", {})
    if not isinstance(manifest.get("tensors"), list) or not isinstance(meta, dict):
        raise ArgumentError(f"{stem}.json lacks a tensor list or a meta object")
    try:
        blob = stem.with_suffix(".bin").read_bytes()
    except OSError as e:
        raise ArgumentError(f"cannot read payload {stem}.bin: {e}") from e
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        if (not isinstance(entry, dict) or not _ENTRY_KEYS <= entry.keys()
                or not isinstance(entry["name"], str)):
            raise ArgumentError(
                f"{stem}.json: malformed tensor entry {entry!r}")
        dt = _DTYPES.get(str(entry["dtype"]))
        if dt is None:
            raise ArgumentError(f"unsupported dtype {entry['dtype']} in manifest")
        name, shape, start, n = (entry[k] for k in ("name", "shape", "offset", "nbytes"))
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ArgumentError(f"tensor {name}: bad shape {shape!r}")
        if type(n) is not int or n != math.prod(shape) * dt.itemsize:
            raise ArgumentError(f"tensor {name}: nbytes {n} disagrees with shape {shape}")
        if type(start) is not int or start < 0 or start + n > len(blob):
            raise ArgumentError(f"tensor {name} overruns payload")
        tensors[name] = np.frombuffer(blob[start : start + n], dtype=dt).reshape(shape).copy()
    return tensors, meta
