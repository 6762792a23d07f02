"""A self-describing binary container for lattice fields.

Plays the role of the HDF5 files in the paper's workflow: one file holds
named complex arrays (gauge links, propagators, correlators) plus a JSON
header with provenance metadata.  Format:

``MAGIC (8) | header-length (8 LE) | header-crc32 (4 LE) | JSON header |
raw arrays``

Arrays are stored C-contiguous little-endian; the header records name,
dtype, shape and byte offset of each.  Integrity is protected end to
end: a CRC32 over the JSON header (format v2) plus a CRC32 per array,
both checked on load, and truncated files are reported as such.  Writes
are crash-safe and concurrent-writer-safe: the container is assembled in
a same-directory temp file, fsynced, then renamed over the destination
— a rename within one file system swaps the name to the new inode in
one step — so readers only ever observe a complete old or complete new
file, never a torn mix of two writers.

Format v1 (``REPROLQ1``, no header CRC) is still read.

:class:`ArtifactStore` is the campaign runtime's directory of such
containers, addressed by ``task_id:name`` refs: the driver verifies what
it holds (:func:`verify_artifacts`) without importing the executors that
write it.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["ArtifactStore", "FieldFile", "link_or_copy", "verify_artifacts"]

_MAGIC = b"REPROLQ2"
_MAGIC_V1 = b"REPROLQ1"


def link_or_copy(src: str | Path, dst: str | Path) -> Path:
    """Materialize ``src`` at ``dst`` without rewriting the payload.

    Hardlink when the filesystem allows it (the content-addressed cache
    case: one propagator on disk, many campaign directories referencing
    it), byte-copy otherwise, always through a same-directory temp name
    and an atomic ``os.replace`` so concurrent readers of ``dst`` — and
    concurrent materializers racing for the same cache slot — only ever
    observe a complete file.  Containers are immutable once written, so
    sharing inodes is safe.
    """
    src, dst = Path(src), Path(dst)
    dst.parent.mkdir(parents=True, exist_ok=True)
    tmp = dst.with_name(f".{dst.name}.tmp.{os.getpid()}")
    try:
        tmp.unlink(missing_ok=True)
        try:
            os.link(src, tmp)
        except OSError:  # cross-device, or a filesystem without hardlinks
            import shutil

            shutil.copyfile(src, tmp)
        os.replace(tmp, dst)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return dst


class FieldFile:
    """Write/read named arrays with metadata.

    Example
    -------
    >>> ff = FieldFile({"plaquette": 0.58})
    >>> ff.add("links", np.zeros((4, 2, 2, 2, 2, 3, 3), dtype=complex))
    >>> _ = ff.save("/tmp/cfg.lq")   # doctest: +SKIP
    """

    def __init__(self, metadata: dict[str, Any] | None = None):
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        """Register an array for writing (stored reference, not copied)."""
        if not name or "/" in name:
            raise ValueError(f"bad array name {name!r}")
        if name in self._arrays:
            raise ValueError(f"duplicate array {name!r}")
        self._arrays[name] = np.ascontiguousarray(array)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return sorted(self._arrays)

    # -- serialization ------------------------------------------------------
    def save(self, path: str | Path) -> int:
        """Write the container; returns bytes written."""
        entries = []
        offset = 0
        views: list[np.ndarray] = []
        for name in self.names():
            arr = self._arrays[name]
            # the array's own buffer as bytes: checksummed and written in
            # place, never copied (``add`` made it C-contiguous)
            raw = arr.reshape(-1).view(np.uint8)
            entries.append(
                {
                    "name": name,
                    "dtype": str(arr.dtype),
                    "shape": list(arr.shape),
                    "offset": offset,
                    "nbytes": raw.nbytes,
                    "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
                }
            )
            views.append(raw)
            offset += raw.nbytes
        header = json.dumps({"metadata": self.metadata, "arrays": entries}).encode()
        path = Path(path)
        # Atomic rename-on-write: assemble in a same-directory temp file
        # (os.replace is only atomic within one filesystem), fsync, then
        # swap it in.  Concurrent writers race benignly — last rename
        # wins with a complete file; a crash leaves the old file intact.
        tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as f:
                f.write(_MAGIC)
                f.write(len(header).to_bytes(8, "little"))
                f.write((zlib.crc32(header) & 0xFFFFFFFF).to_bytes(4, "little"))
                f.write(header)
                for raw in views:
                    f.write(raw)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path.stat().st_size

    @classmethod
    def load(cls, path: str | Path) -> "FieldFile":
        """Read a container, verifying magic, length and checksums."""
        raw = Path(path).read_bytes()
        magic = raw[:8]
        if magic not in (_MAGIC, _MAGIC_V1):
            raise ValueError(f"{path}: not a FieldFile (bad magic)")
        hlen = int.from_bytes(raw[8:16], "little")
        base = 16
        if magic == _MAGIC:
            hcrc = int.from_bytes(raw[16:20], "little")
            base = 20
        hdr_bytes = raw[base : base + hlen]
        if len(hdr_bytes) < hlen:
            raise ValueError(f"{path}: truncated FieldFile (header incomplete)")
        if magic == _MAGIC and (zlib.crc32(hdr_bytes) & 0xFFFFFFFF) != hcrc:
            raise ValueError(f"{path}: header checksum mismatch (corrupt file)")
        header = json.loads(hdr_bytes.decode())
        out = cls(header.get("metadata", {}))
        base += hlen
        payload = sum(ent["nbytes"] for ent in header["arrays"])
        if len(raw) < base + payload:
            raise ValueError(
                f"{path}: truncated FieldFile "
                f"({len(raw)} bytes < {base + payload} expected)"
            )
        for ent in header["arrays"]:
            blob = raw[base + ent["offset"] : base + ent["offset"] + ent["nbytes"]]
            if (zlib.crc32(blob) & 0xFFFFFFFF) != ent["crc32"]:
                raise ValueError(f"{path}: checksum mismatch in array {ent['name']!r}")
            arr = np.frombuffer(blob, dtype=ent["dtype"]).reshape(ent["shape"]).copy()
            out._arrays[ent["name"]] = arr
        return out


class ArtifactStore:
    """Flat artifact directory addressed by ``task_id:name`` refs."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, ref: str) -> Path:
        if ":" not in ref:
            raise ValueError(f"artifact ref {ref!r} is not 'task_id:name'")
        task_id, name = ref.split(":", 1)
        return self.root / f"{task_id}.{name}.lq"

    def save(self, task_id: str, name: str, ff: FieldFile) -> str:
        ref = f"{task_id}:{name}"
        ff.save(self.path(ref))
        return ref

    def load(self, ref: str) -> FieldFile:
        return FieldFile.load(self.path(ref))

    def exists(self, ref: str) -> bool:
        return self.path(ref).exists()


def verify_artifacts(store: ArtifactStore, artifacts: dict[str, str]) -> bool:
    """True when every artifact exists and passes its checksums."""
    for ref in artifacts.values():
        try:
            store.load(ref)
        except (ValueError, KeyError, OSError):
            return False
    return True
