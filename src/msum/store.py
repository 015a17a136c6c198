"""On-disk result store: an append-only file of per-modulus m tables.

A table is the engine's cached row for one modulus e: the m of each
generator class of (Z/eZ)*, in the order the engine walks the classes. The
engine walks the classes of a row once, when it seeds the row into its
cache; the store keeps only the class values.

Layout (all integers little-endian):
  header: magic "MSUMSTR1" (8) | version u32
  record: e u64 | count u32 | count x m u32 | crc32 u32 over the record before it

Record CRCs detect torn writes and flipped bits. save() only appends, so a
file is never rewritten in place. Several processes may share one file: a
save writes its header (if the file is empty) and all its records with one
os.write on an O_APPEND descriptor under an exclusive flock, and a load reads
under a shared flock, so no reader or writer sees another's append half done.
A file that is refused, or that cannot be read or written (a directory, say),
raises StoreError. No database dependency, reproducible and diff-able.
"""
from __future__ import annotations

import fcntl
import os
import struct
import zlib
from array import array

from .errors import StoreError

MAGIC = b"MSUMSTR1"
VERSION = 2
_HEADER = struct.Struct("<8sI")
_RECORD = struct.Struct("<QI")  # e, count; the count values and the crc32 follow
_CRC = struct.Struct("<I")


class ResultStore:
    """Append-only map e -> the m table of modulus e (class values in walk order)."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self.tables: dict[int, array] = {}
        self._pending: list[int] = []
        if os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                blob = fh.read()
        except OSError as exc:  # a directory, say, or a file it may not read
            raise StoreError(f"{self.path}: {exc.strerror}") from None
        if not blob:  # created by a save that has not written yet
            return
        if len(blob) < _HEADER.size:
            raise StoreError(f"{self.path}: truncated header")
        magic, version = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise StoreError(f"{self.path}: bad magic {magic!r}")
        if version != VERSION:
            raise StoreError(f"{self.path}: unsupported version {version}")
        off = _HEADER.size
        while off < len(blob):
            try:
                e, count = _RECORD.unpack_from(blob, off)
                end = off + _RECORD.size + 4 * count
                values = struct.unpack_from(f"<{count}I", blob, off + _RECORD.size)
                (crc,) = _CRC.unpack_from(blob, end)
            except struct.error:
                raise StoreError(f"{self.path}: partial record at offset {off}") from None
            if crc != zlib.crc32(blob[off:end]):
                raise StoreError(f"{self.path}: record checksum mismatch at offset {off}")
            self._keep(e, array("I", values))
            off = end + _CRC.size

    def _keep(self, e: int, values: array) -> bool:
        """Hold the table of e; False if an equal one is held already."""
        old = self.tables.get(e)
        if old is None:
            self.tables[e] = values
            return True
        if old != values:
            raise StoreError(f"{self.path}: conflicting m tables for e={e}")
        return False

    def add_rows(self, rows) -> None:
        """Add (e, class values, ...) rows, as cache_rows() or
        engine.cache_rows() lists them; only the class values are kept."""
        for e, values, *_ in rows:
            if self._keep(e, array("I", values)):
                self._pending.append(e)

    def save(self) -> None:
        """Append the pending tables, after a header if the file is empty.

        The header is chosen under the lock, by the file's size: a writer that
        created the file may not have written yet when another takes the lock.
        """
        records = []
        for e in self._pending:
            values = self.tables[e]
            body = _RECORD.pack(e, len(values)) + struct.pack(f"<{len(values)}I", *values)
            records.append(body + _CRC.pack(zlib.crc32(body)))
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        except OSError as exc:
            raise StoreError(f"{self.path}: {exc.strerror}") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            if os.fstat(fd).st_size == 0:
                records.insert(0, _HEADER.pack(MAGIC, VERSION))
            data = memoryview(b"".join(records))
            while data:  # one write unless the kernel takes less
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        self._pending.clear()

    def cache_rows(self) -> list[tuple[int, array]]:
        """(e, class values) rows for seeding the engine cache."""
        return list(self.tables.items())

    def __len__(self) -> int:
        return len(self.tables)
