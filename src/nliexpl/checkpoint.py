"""Checkpoint container: a manifest plus one float32 binary blob.

A checkpoint is a directory holding `manifest.json` (UTF-8, lists every
tensor's name, shape, trainable flag, and byte offset) and `params.bin`
(all tensors concatenated row-major as little-endian float32).
Save -> load round-trips bit-exactly. Loading checks that the manifest
entries tile the blob exactly: in order, without gaps or overlaps.

Loading maps the blob as a private copy-on-write mapping rather than
reading it: pages come from the page cache when first touched, every
tensor is a writable view of the one mapping, and a write stays in the
process and never reaches the file.

A save writes both files into a temporary sibling directory and renames
it into place, so an interrupted save leaves the previous checkpoint or
none, never one save's blob beside another save's manifest.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_TAG = "nliexpl-checkpoint-v1"
_DTYPE = np.dtype("<f4")


class CheckpointError(RuntimeError):
    """Checkpoint directory is missing pieces or inconsistent."""


def save_checkpoint(path, arrays: dict[str, np.ndarray], trainable: set[str],
                    meta: dict) -> None:
    """Write `arrays` (insertion order preserved) as directory `path`,
    replacing the checkpoint (or empty directory) already there."""
    path = Path(path)
    if path.exists() and not {p.name for p in path.iterdir()} <= {
            MANIFEST_NAME, BLOB_NAME}:
        raise CheckpointError(f"{path} holds more than a checkpoint; "
                              "not replacing it")
    partial = path.with_name(f".{path.name}.partial")
    previous = path.with_name(f".{path.name}.previous")
    for stale in (partial, previous):   # left by an interrupted save
        shutil.rmtree(stale, ignore_errors=True)
    partial.mkdir(parents=True)
    entries = []
    offset = 0
    try:
        # each tensor goes to the file through a memoryview of its own
        # buffer: no bytes copy of it, and none of the whole blob
        with open(partial / BLOB_NAME, "wb") as blob:
            for name, arr in arrays.items():
                data = np.ascontiguousarray(arr, dtype=_DTYPE)
                entries.append({
                    "name": name,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "trainable": name in trainable,
                })
                blob.write(memoryview(data))
                offset += data.nbytes
        manifest = {"format": FORMAT_TAG, "dtype": "<f4", "blob_bytes": offset,
                    "tensors": entries, "meta": meta}
        (partial / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=1, sort_keys=False), encoding="utf-8")
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if path.exists():
        os.replace(path, previous)
    os.replace(partial, path)
    shutil.rmtree(previous, ignore_errors=True)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Load a checkpoint directory; returns (arrays, manifest dict).

    Every tensor is a writable view of one copy-on-write mapping of the
    blob (`_map_blob`): loading copies no tensor bytes, and writes to
    the arrays never reach `params.bin`.
    """
    path = Path(path)
    mpath = path / MANIFEST_NAME
    bpath = path / BLOB_NAME
    if not mpath.exists() or not bpath.exists():
        raise CheckpointError(f"not a checkpoint directory: {path}")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"unreadable manifest {mpath}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_TAG:
        raise CheckpointError(f"unknown checkpoint format in {mpath}")
    blob_bytes = bpath.stat().st_size
    if blob_bytes != manifest.get("blob_bytes"):
        raise CheckpointError(
            f"blob size {blob_bytes} != manifest {manifest.get('blob_bytes')}")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, list):
        raise CheckpointError(f"{mpath}: no tensor list")
    spans: dict[str, tuple[tuple[int, ...], int, int]] = {}
    end = 0
    for entry in tensors:
        shape, offset = _checked_entry(entry, end, mpath)
        if entry["name"] in spans:
            raise CheckpointError(f"{mpath}: tensor {entry['name']!r} listed twice")
        end = offset + math.prod(shape) * _DTYPE.itemsize
        if end > blob_bytes:
            raise CheckpointError(
                f"{mpath}: tensor {entry['name']!r} ends at byte {end}, "
                f"past the {blob_bytes}-byte blob")
        spans[entry["name"]] = (shape, offset, end)
    if end != blob_bytes:
        raise CheckpointError(
            f"{mpath}: tensors cover {end} of {blob_bytes} blob bytes")
    blob = _map_blob(bpath, blob_bytes)
    size = _DTYPE.itemsize
    arrays = {name: blob[offset // size:stop // size].reshape(shape)
              for name, (shape, offset, stop) in spans.items()}
    return arrays, manifest


def _map_blob(bpath: Path, nbytes: int) -> np.ndarray:
    """The first `nbytes` of `bpath` as a writable float32 array over a
    private copy-on-write mapping (`mmap.ACCESS_COPY`).

    The program's own saves write a new file and rename it into place,
    so a mapped model keeps its values; another process rewriting or
    truncating the file in place under it is not supported.
    """
    if not nbytes:
        return np.empty(0, _DTYPE)   # an empty file cannot be mapped
    # imported here, as numpy.memmap does, so that programs which never
    # load a checkpoint do not load the module
    import mmap
    with open(bpath, "rb") as fh:   # the mapping keeps its own descriptor
        try:
            mapped = mmap.mmap(fh.fileno(), nbytes, access=mmap.ACCESS_COPY)
        except ValueError:   # the file shrank since its size was checked
            raise CheckpointError(f"{bpath} changed while loading") from None
    return np.frombuffer(mapped, dtype=_DTYPE)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _checked_entry(entry: dict, expected_offset: int,
                   mpath: Path) -> tuple[tuple[int, ...], int]:
    """(shape, offset) of a manifest entry that starts where the previous
    tensor ended; anything else is a corrupt or hand-edited manifest."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointError(f"{mpath}: bad tensor entry {entry!r}")
    name = entry["name"]
    shape, offset = entry.get("shape"), entry.get("offset")
    if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
        raise CheckpointError(f"{mpath}: tensor {name!r} has bad shape {shape!r}")
    if not _is_count(offset):
        raise CheckpointError(f"{mpath}: tensor {name!r} has bad offset {offset!r}")
    if offset != expected_offset:
        raise CheckpointError(
            f"{mpath}: tensor {name!r} starts at byte {offset}, expected "
            f"{expected_offset} (tensors must be contiguous and not overlap)")
    return tuple(shape), offset
