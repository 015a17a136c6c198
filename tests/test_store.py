import os
import struct
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from msum.errors import StoreError
from msum.store import MAGIC, ResultStore

T7 = array("I", [7, 3, 2, 2])  # m of <1>, <2>, <3>, <6> mod 7, in walk order
T11 = array("I", [11, 2, 3, 2])  # m of <1>, <2>, <3>, <10> mod 11


def saved(path, rows):
    st = ResultStore(path)
    st.add_rows(rows)
    st.save()
    return path


def test_round_trip(tmp_path):
    back = ResultStore(saved(tmp_path / "s.bin", [(7, T7), (11, T11)]))
    assert back.tables == {7: T7, 11: T11}
    assert back.cache_rows() == [(7, T7), (11, T11)]
    assert len(back) == 2


def test_append_after_reload(tmp_path):
    path = saved(tmp_path / "s.bin", [(7, T7)])
    size = path.stat().st_size
    st = ResultStore(path)
    st.add_rows([(11, [11, 2, 3, 2])])
    st.save()
    assert path.read_bytes()[:size] == saved(tmp_path / "t.bin", [(7, T7)]).read_bytes()
    assert ResultStore(path).tables == {7: T7, 11: T11}


def test_duplicate_rows_are_idempotent(tmp_path):
    path = saved(tmp_path / "s.bin", [(7, T7), (7, list(T7))])
    size = path.stat().st_size
    st = ResultStore(path)
    st.add_rows([(7, T7)])
    st.save()
    assert path.stat().st_size == size
    assert len(ResultStore(path)) == 1


def test_conflicting_m_raises(tmp_path):
    st = ResultStore(tmp_path / "s.bin")
    st.add_rows([(7, T7)])
    with pytest.raises(StoreError, match="conflicting"):
        st.add_rows([(7, [7, 3, 2, 3])])
    with pytest.raises(StoreError, match="conflicting"):
        st.add_rows([(7, [7, 3, 2])])


def test_conflicting_records_on_disk_raise(tmp_path):
    path = saved(tmp_path / "s.bin", [(7, T7)])
    other = saved(tmp_path / "t.bin", [(7, [7, 3, 2, 3])])
    path.write_bytes(path.read_bytes() + other.read_bytes()[len(MAGIC) + 4:])
    with pytest.raises(StoreError, match="conflicting"):
        ResultStore(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "s.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    with pytest.raises(StoreError):
        ResultStore(path)


def test_version_1_file_is_refused(tmp_path):
    path = tmp_path / "s.bin"
    # a version 1 header: magic, version, row size, e-range
    path.write_bytes(struct.pack("<8sIIQQ", MAGIC, 1, 48, 7, 7))
    with pytest.raises(StoreError, match="unsupported version 1"):
        ResultStore(path)


def test_partial_row_detected(tmp_path):
    blob = saved(tmp_path / "s.bin", [(7, T7)]).read_bytes()
    path = tmp_path / "cut.bin"
    for cut in (1, 4, 5, 13, 31):  # into the crc, the values, the count
        path.write_bytes(blob[:-cut])
        with pytest.raises(StoreError, match="partial record"):
            ResultStore(path)


def test_corrupted_row_detected(tmp_path):
    blob = saved(tmp_path / "s.bin", [(7, T7)]).read_bytes()
    path = tmp_path / "flipped.bin"
    # record fields: e at 0, count at 8, m values at 12..27, crc at 28
    for offset in (0, 8, 12, 16, 24, 28):
        flipped = bytearray(blob)
        flipped[len(MAGIC) + 4 + offset] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(StoreError):
            ResultStore(path)


def test_empty_store_saves_a_header(tmp_path):
    path = saved(tmp_path / "s.bin", [])
    assert path.read_bytes()[:len(MAGIC)] == MAGIC
    assert len(ResultStore(path)) == 0


def test_magic_constant_shape():
    assert len(MAGIC) == 8


_WRITER = """
import sys
from array import array
from msum.store import ResultStore
path, w = sys.argv[1], int(sys.argv[2])
for i in range(100):
    e = 1000 * w + i
    st = ResultStore(path)  # a torn append on disk raises here
    st.add_rows([(e, array("I", range(e, e + 3000)))])  # a 12 KB record
    st.save()
"""


def test_concurrent_writers_keep_every_table(tmp_path):
    # records larger than a file buffer were split by buffered writes, and other
    # writers' appends landed between the pieces
    path = tmp_path / "s.bin"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(path), str(w)], env=env,
                              stderr=subprocess.PIPE, text=True) for w in (1, 2, 3)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    tables = ResultStore(path).tables
    assert sorted(tables) == [1000 * w + i for w in (1, 2, 3) for i in range(100)]
    assert all(values == array("I", range(e, e + 3000)) for e, values in tables.items())
