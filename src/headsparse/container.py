"""On-disk artifacts: the tensor container, and the one reader and writer of
every CSV and JSON file the commands exchange.  Those files are UTF-8; a
failure to open, decode or parse one, or a CSV row of the wrong width or
with a field its column rejects, raises ArgumentError naming the file.

A tensor container `foo` is the pair foo.json / foo.bin.  The manifest
carries an arbitrary JSON `meta` block plus a tensor directory (name,
dtype, shape, byte offset); the .bin file is the little-endian
concatenation of the tensors in directory order.  Only <f4 and <i4
payloads are allowed, which keeps every artifact readable from any
language with a hex dump and makes round-trips bit-exact by construction.

Saving streams each tensor to the payload and renames both files into
place, manifest last.  Loading maps the payload copy-on-write, so a reader
pays only for the pages it touches and never holds a second copy.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import os
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError

FORMAT_NAME = "headsparse-tensors"
FORMAT_VERSION = 1

_DTYPES = {"<f4": np.dtype("<f4"), "<i4": np.dtype("<i4")}
_ENTRY_KEYS = {"name", "dtype", "shape", "offset", "nbytes"}


def write_csv(path: str | Path, header: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
    except OSError as e:
        raise ArgumentError(f"cannot write {path}: {e}") from e


def read_csv(path: str | Path, header: Sequence[str],
             columns: Sequence[Callable[[str], Any]] | None = None) -> list[list]:
    """The rows after a CSV file's first row, which must equal `header`;
    each row must be as wide.  `columns` holds one converter per column;
    a ValueError from one rejects the row."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first != list(header):
                raise ArgumentError(f"{path} is empty" if first is None else
                                    f"{path} header {first} != {list(header)}")
            for fields in reader:
                if len(fields) != len(header):
                    raise ArgumentError(f"{path} line {reader.line_num}: "
                                        f"{len(fields)} fields, expected {len(header)}")
                if columns is not None:
                    try:
                        fields = [conv(v) for conv, v in zip(columns, fields)]
                    except ValueError as e:
                        raise ArgumentError(
                            f"{path} line {reader.line_num}: malformed row: {e}") from e
                rows.append(fields)
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise ArgumentError(f"cannot read {path}: {e}") from e
    return rows


def write_json(path: str | Path, payload: Any, sort_keys: bool = False) -> None:
    """Write `payload` as indented JSON, making the parent directory first."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, indent=2, sort_keys=sort_keys)
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as e:
        raise ArgumentError(f"cannot write {path}: {e}") from e


def read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ArgumentError(f"cannot read {path}: {e}") from e


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
    """Write stem.json + stem.bin.  Tensor order follows the mapping order.

    Each tensor streams to the payload in turn, so no copy of the whole
    payload is held.  Both files are written under temporary names and
    renamed into place, payload first and manifest last: arrays mapped
    from an earlier container of the same stem keep reading its bytes.  An
    OSError on the way raises ArgumentError naming the file."""
    stem = Path(stem)
    bin_path, json_path = stem.with_suffix(".bin"), stem.with_suffix(".json")
    bin_tmp, json_tmp = (p.with_name(p.name + ".tmp") for p in (bin_path, json_path))
    entries = []
    offset = 0
    try:
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(bin_tmp, "wb") as f:
            for name, arr in tensors.items():
                a = _canon(np.asarray(arr))
                a.tofile(f)
                entries.append({"name": name, "dtype": a.dtype.str, "shape": list(a.shape),
                                "offset": offset, "nbytes": a.nbytes})
                offset += a.nbytes
        write_json(json_tmp, {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                              "meta": dict(meta) if meta else {}, "tensors": entries})
        os.replace(bin_tmp, bin_path)
        os.replace(json_tmp, json_path)
    except OSError as e:
        raise ArgumentError(f"cannot write {stem}: {e}") from e


def _map_payload(path: Path) -> mmap.mmap | bytearray:
    """The payload mapped copy-on-write: pages are read as they are touched,
    and writes to an array over it stay private to the process."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0:
            return bytearray()
        return mmap.mmap(f.fileno(), size, access=mmap.ACCESS_COPY)


def load_container(stem: str | Path, kind: str | None = None, names: Sequence[str] = ()
                   ) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Read stem.json + stem.bin back; returns (tensors, meta).  The tensors
    are views of the payload mapped copy-on-write (see _map_payload).  A
    given `kind` must equal meta's, and every tensor in `names` must exist."""
    stem = Path(stem)
    manifest = read_json(stem.with_suffix(".json"))
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise ArgumentError(f"{stem}.json is not a {FORMAT_NAME} manifest")
    meta = manifest.get("meta", {})
    if not isinstance(manifest.get("tensors"), list) or not isinstance(meta, dict):
        raise ArgumentError(f"{stem}.json lacks a tensor list or a meta object")
    if kind is not None and meta.get("kind") != kind:
        raise ArgumentError(f"{stem} does not hold a {kind}")
    try:
        payload = _map_payload(stem.with_suffix(".bin"))
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
        if type(start) is not int or start < 0 or start + n > len(payload):
            raise ArgumentError(f"tensor {name} overruns payload")
        tensors[name] = np.frombuffer(payload, dtype=dt, count=n // dt.itemsize,
                                      offset=start).reshape(shape)
    missing = [name for name in names if name not in tensors]
    if missing:
        raise ArgumentError(f"{stem} lacks tensors {missing}")
    return tensors, meta
