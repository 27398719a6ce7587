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

One writer, ContainerWriter, lays every container out: the tensor
directory is fixed when it opens, blocks of rows land at their offsets with
os.pwrite (from any thread, in any order) and can be read back before the
commit, and commit renames both files into place, payload first and
manifest last.  save_container writes whole
tensors through it; the workload generator streams each finished row block
through it, into a temporary container when its caller names none, so no
copy of a whole workload is held.  Loading maps the
payload copy-on-write, so a reader pays only for the pages it touches and
never holds a second copy.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import mmap
import os
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, InternalError

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


def _canon_dtype(arr: np.ndarray) -> str:
    """The payload dtype of an array: <f4 for floats, <i4 for integers."""
    if arr.dtype.kind == "f":
        return "<f4"
    if arr.dtype.kind in "iu":
        if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int32).max:
            raise ArgumentError("unsigned tensor exceeds int32 range")
        return "<i4"
    raise ArgumentError(f"unsupported tensor dtype {arr.dtype}")


@contextlib.contextmanager
def _writing(path: Path):
    """Turn an OSError in the block into an ArgumentError naming `path`."""
    try:
        yield
    except OSError as e:
        raise ArgumentError(f"cannot write {path}: {e}") from e


class ContainerWriter:
    """Writes the container `stem` whose tensors `layout` lists, in payload
    order, as name -> (dtype, shape).  Offsets follow that order with no
    gaps.  The payload is written under a temporary name at its full size;
    `write` puts blocks of rows at their offsets, `read` gets written rows
    back, and `commit` writes the
    manifest under a temporary name and renames both into place, payload
    first and manifest last, so arrays mapped from an earlier container of
    the same stem keep reading its bytes.  Leaving the `with` block without
    a commit removes the temporary files.  An OSError raises ArgumentError
    naming the file."""

    def __init__(self, stem: str | Path, layout: Mapping[str, tuple[str, Sequence[int]]]):
        self.stem = Path(stem)
        self._bin, self._json = self.stem.with_suffix(".bin"), self.stem.with_suffix(".json")
        self._bin_tmp, self._json_tmp = (p.with_name(p.name + ".tmp")
                                         for p in (self._bin, self._json))
        self._entries: dict[str, dict[str, Any]] = {}
        offset = 0
        for name, (dtype, shape) in layout.items():
            dt = _DTYPES[np.dtype(dtype).str]
            nbytes = math.prod(shape) * dt.itemsize
            self._entries[name] = {"name": name, "dtype": dt.str, "shape": list(shape),
                                   "offset": offset, "nbytes": nbytes}
            offset += nbytes
        self._fd: int | None = None
        try:
            with _writing(self._bin_tmp):
                self.stem.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self._bin_tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
                os.ftruncate(self._fd, offset)
        except ArgumentError:
            self._discard()
            raise

    def __enter__(self) -> "ContainerWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._discard()

    def _discard(self) -> None:
        """Close the payload and remove what a commit did not rename."""
        fd, self._fd = self._fd, None
        if fd is not None:
            with contextlib.suppress(OSError):
                os.close(fd)
        for path in (self._bin_tmp, self._json_tmp):
            with contextlib.suppress(OSError):
                path.unlink()

    def _transfer(self, name: str, at: tuple[int, ...], a: np.ndarray, move) -> None:
        """Move the bytes of `a`, a block of tensor `name`'s dtype placed
        as `write` places it, with move(fd, view, offset) -> bytes moved."""
        entry = self._entries[name]
        shape, k = entry["shape"], len(at)
        if not (1 <= k <= len(shape) and list(a.shape[1:]) == shape[k:]
                and all(0 <= i < n for i, n in zip(at[:-1], shape))
                and 0 <= at[-1] <= shape[k - 1] - len(a)):
            raise InternalError(f"a {a.shape} block at {at} does not fit tensor "
                                f"{name} of shape {shape}")
        flat = 0
        for i, n in zip(at, shape):
            flat = flat * n + i
        start = entry["offset"] + flat * math.prod(shape[k:]) * a.itemsize
        view = memoryview(a.reshape(-1).view(np.uint8))
        with _writing(self._bin_tmp):
            while view:
                n = move(self._fd, view, start)
                if n == 0:
                    raise InternalError(f"{self._bin_tmp} ends before tensor {name}'s rows")
                view, start = view[n:], start + n

    def write(self, name: str, at: tuple[int, ...], block: np.ndarray) -> None:
        """Write `block` into tensor `name` from index `at`, one index per
        leading axis: the block's rows run along axis len(at) - 1 from
        at[-1], each spanning the axes after it, so at = (0,) with the
        whole tensor writes all of it.  The block is cast to the tensor's
        dtype."""
        a = np.ascontiguousarray(block, self._entries[name]["dtype"])
        self._transfer(name, at, a, os.pwrite)

    def read(self, name: str, at: tuple[int, ...], n_rows: int) -> np.ndarray:
        """The n_rows rows of tensor `name` from index `at` (placed as
        `write` places a block), as written there: a new array of the
        tensor's dtype."""
        entry = self._entries[name]
        a = np.empty((n_rows, *entry["shape"][len(at):]), entry["dtype"])
        self._transfer(name, at, a, lambda fd, view, start: os.preadv(fd, [view], start))
        return a

    def commit(self, meta: Mapping[str, Any] | None = None) -> None:
        """Write the manifest and rename payload, then manifest, into place."""
        fd, self._fd = self._fd, None
        with _writing(self._bin_tmp):
            os.close(fd)
        write_json(self._json_tmp, {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                                    "meta": dict(meta) if meta else {},
                                    "tensors": list(self._entries.values())})
        for tmp, path in ((self._bin_tmp, self._bin), (self._json_tmp, self._json)):
            with _writing(path):
                os.replace(tmp, path)


def save_container(stem: str | Path, tensors: Mapping[str, np.ndarray],
                   meta: Mapping[str, Any] | None = None) -> None:
    """Write stem.json + stem.bin through ContainerWriter.  Tensor order
    follows the mapping order; each tensor is cast and written in turn, so
    no copy of the whole payload is held."""
    arrays = {name: np.atleast_1d(arr) for name, arr in tensors.items()}
    layout = {name: (_canon_dtype(a), a.shape) for name, a in arrays.items()}
    with ContainerWriter(stem, layout) as writer:
        for name, a in arrays.items():
            writer.write(name, (0,), a)
        writer.commit(meta)


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
