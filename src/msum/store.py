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

The module keeps one memo slot, _last_read, for the last file a load read to
its end: its absolute path, its byte length, a blake2b digest of those bytes
and the tables held from them; opening or saving a store of another path
empties it, so the tables of a file the process has left are not kept. The
tables are a pure function of the bytes, so a later load of the same path
whose first `length` bytes hash to that digest reuses them and checks and
parses only the bytes appended since (the records saves append); any other
file, a shorter one, or a prefix that hashes otherwise is read and checked
whole. A re-open hashes the prefix in 64 KiB chunks, never holding it, and
goes on hashing the appended bytes it reads, so the new digest costs no
second pass and the appended rows view only the appended bytes. Every byte a
load adopts was either checked by that load or hashes to bytes an earlier
load checked.
"""
from __future__ import annotations

import fcntl
import hashlib
import os
import struct
import zlib
from typing import NamedTuple

import numpy as np

from .engine import DENSE_LIMIT
from .errors import StoreError
from .modular import euler_phi

MAGIC = b"MSUMSTR1"
VERSION = 3
_HEADER = struct.Struct("<8sI")
_RECORD = struct.Struct("<QIII")  # e, classes, units, width; the columns and the crc32 follow
_CRC = struct.Struct("<I")


def _hashes_to(fh, length: int, digest, want: bytes) -> bool:
    """Feed the first length bytes of fh to digest, a chunk at a time, so they
    are never held at once; whether they hash to want."""
    chunk = memoryview(bytearray(1 << 16))
    while length:
        got = fh.readinto(chunk[:min(length, len(chunk))])
        if not got:  # the file is shorter than length
            return False
        digest.update(chunk[:got])
        length -= got
    return digest.digest() == want


class _Read(NamedTuple):
    """A file read in full: the tables parsed from its first `length` bytes."""

    path: str
    length: int
    digest: bytes
    tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]


_last_read: _Read | None = None  # the one memo slot of the module docstring


class ResultStore:
    """Append-only map e -> the (values, cls, order) m table of modulus e."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self.tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._pending: list[int] = []
        self._forget_others()
        if os.path.exists(self.path):
            self._load()

    def _forget_others(self) -> None:
        """Empty the memo slot if it holds another file's tables."""
        global _last_read
        if _last_read is not None and _last_read.path != os.path.abspath(self.path):
            _last_read = None

    def _load(self) -> None:
        global _last_read
        path = os.path.abspath(self.path)
        last = _last_read  # this file's, if any: __init__ emptied the slot of another's
        digest = hashlib.blake2b()  # of the whole file
        start = 0  # the offset of the bytes read below: past those a load checked before
        try:
            with open(self.path, "rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                if last is not None and _hashes_to(fh, last.length, digest, last.digest):
                    start = last.length
                elif last is not None:
                    fh.seek(0)
                    digest = hashlib.blake2b()
                blob = fh.read()
        except OSError as exc:  # a directory, say, or a file it may not read
            raise StoreError(f"{self.path}: {exc.strerror}") from None
        digest.update(blob)
        if start:
            self.tables = dict(last.tables)
            off = 0
        elif not blob:  # created by a save that has not written yet
            return
        else:
            if len(blob) < _HEADER.size:
                raise StoreError(f"{self.path}: truncated header")
            magic, version = _HEADER.unpack_from(blob, 0)
            if magic != MAGIC:
                raise StoreError(f"{self.path}: bad magic {magic!r}")
            if version != VERSION:
                raise StoreError(f"{self.path}: unsupported version {version}")
            off = _HEADER.size
        while off < len(blob):
            off = self._record(blob, off, start)
        _last_read = _Read(path, start + len(blob), digest.digest(), dict(self.tables))

    def _record(self, blob: bytes, off: int, base: int) -> int:
        """Check and hold the record at blob[off:], where blob holds the file's
        bytes from offset base on; the offset in blob of the next record. The
        rows are views on blob."""
        try:
            e, count, units, width = _RECORD.unpack_from(blob, off)
            col = off + _RECORD.size
            end = col + 8 * count + width * units
            (crc,) = _CRC.unpack_from(blob, end)
        except struct.error:
            raise StoreError(f"{self.path}: partial record at offset {base + off}") from None
        if crc != zlib.crc32(blob[off:end]):
            raise StoreError(f"{self.path}: record checksum mismatch at offset {base + off}")
        cls = None  # e is range-checked before phi(e) is taken
        if (1 <= e <= DENSE_LIMIT and width in (1, 2, 4)
                and units == (euler_phi(e) if e > 1 else 0)):
            cls = np.frombuffer(blob, f"<u{width}", units, col + 8 * count)
        if cls is None or count != (int(cls.max()) + 1 if units else 0):
            raise StoreError(f"{self.path}: record at offset {base + off} is not an m table "
                             f"of modulus {e}")
        self._keep(e, (np.frombuffer(blob, "<u4", count, col), cls,
                       np.frombuffer(blob, "<u4", count, col + 4 * count)))
        return end + _CRC.size

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
        self._forget_others()
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
