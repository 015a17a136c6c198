"""On-disk result store: an append-only file of per-modulus m tables.

A record is one engine.cache_rows() row, the whole table of a modulus e:
the m and the order of each generator class of (Z/eZ)* in walk order, and
the class index of each unit at the engine's width; the engine adopts it as
it is. Layout (all integers little-endian):
  header: magic "MSUMSTR1" (8) | version u32
  record: e u64 | classes u32 | units u32 | width u32 | classes x m u32
          | classes x order u32 | units x index (width bytes) | crc32 u32 of the rest

Record CRCs detect torn writes and flipped bits. The loader, where a file
enters the program, also refuses a record that is not a table of its
modulus: e outside [1, DENSE_LIMIT], a unit count other than phi(e), or 0
at e = 1, a width not 1, 2 or 4, or a class count other than the largest
class index + 1. A well-formed record is trusted as it stands. save() only
appends, so a file is never rewritten in place. Several processes may share
one file: a save writes its header (if the file is empty) and all its
records with one os.write on an O_APPEND descriptor under an exclusive
flock, and a load reads under a shared flock, so no reader or writer sees
another's append half done. A file that is refused, or that cannot be read
or written (a directory, say), raises StoreError. No database dependency,
reproducible and diff-able.
"""
from __future__ import annotations

import fcntl
import os
import struct
import zlib

import numpy as np

from .engine import DENSE_LIMIT
from .errors import StoreError
from .modular import euler_phi

MAGIC = b"MSUMSTR1"
VERSION = 3
_HEADER = struct.Struct("<8sI")
_RECORD = struct.Struct("<QIII")  # e, classes, units, width; the columns and the crc32 follow
_CRC = struct.Struct("<I")


class ResultStore:
    """Append-only map e -> the (values, cls, order) m table of modulus e."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self.tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
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
                e, count, units, width = _RECORD.unpack_from(blob, off)
                col = off + _RECORD.size
                end = col + 8 * count + width * units
                (crc,) = _CRC.unpack_from(blob, end)
            except struct.error:
                raise StoreError(f"{self.path}: partial record at offset {off}") from None
            if crc != zlib.crc32(blob[off:end]):
                raise StoreError(f"{self.path}: record checksum mismatch at offset {off}")
            cls = None  # e is range-checked before phi(e) is taken
            if (1 <= e <= DENSE_LIMIT and width in (1, 2, 4)
                    and units == (euler_phi(e) if e > 1 else 0)):
                cls = np.frombuffer(blob, f"<u{width}", units, col + 8 * count)
            if cls is None or count != (int(cls.max()) + 1 if units else 0):
                raise StoreError(f"{self.path}: record at offset {off} is not an m table "
                                 f"of modulus {e}")
            self._keep(e, (np.frombuffer(blob, "<u4", count, col), cls,
                           np.frombuffer(blob, "<u4", count, col + 4 * count)))
            off = end + _CRC.size

    def _keep(self, e: int, row: tuple) -> bool:
        """Hold the table of e; False if an equal one is held already."""
        old = self.tables.get(e)
        if old is None:
            self.tables[e] = row
            return True
        if not all(map(np.array_equal, old, row)):
            raise StoreError(f"{self.path}: conflicting m tables for e={e}")
        return False

    def add_rows(self, rows) -> None:
        """Add (e, values, cls, order) rows, as cache_rows() or
        engine.cache_rows() lists them."""
        for e, values, cls, order in rows:
            cls = np.asarray(cls)
            row = (np.asarray(values, "<u4"), np.asarray(cls, f"<u{cls.itemsize}"),
                   np.asarray(order, "<u4"))
            if self._keep(e, row):
                self._pending.append(e)

    def save(self) -> None:
        """Append the pending tables, after a header if the file is empty. The
        header is chosen under the lock, by the file's size: a writer that
        created the file may not have written yet when another takes the lock."""
        records = []
        for e in self._pending:
            values, cls, order = self.tables[e]
            body = b"".join((_RECORD.pack(e, values.size, cls.size, cls.itemsize),
                             values.tobytes(), order.tobytes(), cls.tobytes()))
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

    def cache_rows(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """(e, values, cls, order) rows for seeding the engine cache."""
        return [(e, *row) for e, row in self.tables.items()]

    def __len__(self) -> int:
        return len(self.tables)
