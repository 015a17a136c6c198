import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from msum import engine, store
from msum.errors import MsumError, StoreError
from msum.store import MAGIC, ResultStore


def row(e, values, cls, order):
    """An (e, values, cls, order) row as engine.cache_rows() lists it."""
    return (e, np.array(values, np.uint32), np.array(cls, np.uint8), np.array(order, np.uint32))


# the classes <1>, <2>, <3>, <6> mod 7 and <1>, <2>, <3>, <10> mod 11, in walk order
R7 = row(7, [7, 3, 2, 2], [0, 1, 2, 1, 2, 3], [1, 3, 6, 2])
R11 = row(11, [11, 2, 3, 2], [0, 1, 2, 2, 2, 1, 1, 1, 2, 3], [1, 10, 5, 2])


def listed(rows):
    """Rows as plain lists, for comparing tables."""
    return [(e, *(column.tolist() for column in columns)) for e, *columns in rows]


def saved(path, rows):
    st = ResultStore(path)
    st.add_rows(rows)
    st.save()
    return path


def test_rows_are_engine_rows():
    engine.clear_cache()
    engine.m_table_for_modulus(7)
    engine.m_table_for_modulus(11)
    assert listed(engine.cache_rows(0)) == listed([R7, R11])
    engine.clear_cache()


def test_round_trip(tmp_path):
    back = ResultStore(saved(tmp_path / "s.bin", [R7, R11]))
    assert listed(back.cache_rows()) == listed([R7, R11])
    assert sorted(back.tables) == [7, 11]
    assert len(back) == 2


def test_round_trip_keeps_the_engine_class_width(tmp_path):
    # 1729 = 7 * 13 * 19 has 276 generator classes, so the engine numbers
    # them in uint16; seeding the loaded row searches and walks nothing
    engine.clear_cache()
    engine.m_table_for_modulus(1729)
    rows = engine.cache_rows(0)
    back = ResultStore(saved(tmp_path / "s.bin", rows)).cache_rows()
    assert [column.dtype for column in back[0][1:]] == [np.uint32, np.uint16, np.uint32]
    assert listed(back) == listed(rows)
    expected = [column.tolist() for column in engine.m_table_for_modulus(1729)]
    engine.clear_cache()
    engine.seed_cache(back)
    assert [column.tolist() for column in engine.m_table_for_modulus(1729)] == expected
    engine.clear_cache()


def test_append_after_reload(tmp_path):
    path = saved(tmp_path / "s.bin", [R7])
    size = path.stat().st_size
    st = ResultStore(path)
    st.add_rows([(11, [11, 2, 3, 2], R11[2], [1, 10, 5, 2])])
    st.save()
    assert path.read_bytes()[:size] == saved(tmp_path / "t.bin", [R7]).read_bytes()
    assert listed(ResultStore(path).cache_rows()) == listed([R7, R11])


def test_duplicate_rows_are_idempotent(tmp_path):
    path = saved(tmp_path / "s.bin", [R7, (7, list(R7[1]), R7[2], list(R7[3]))])
    size = path.stat().st_size
    st = ResultStore(path)
    st.add_rows([R7])
    st.save()
    assert path.stat().st_size == size
    assert len(ResultStore(path)) == 1


def test_conflicting_m_raises(tmp_path):
    st = ResultStore(tmp_path / "s.bin")
    st.add_rows([R7])
    # a row that differs in any column: values, a value short, classes, orders
    for other in (row(7, [7, 3, 2, 3], R7[2], R7[3]), row(7, [7, 3, 2], R7[2], R7[3]),
                  row(7, R7[1], [0, 2, 1, 2, 1, 3], R7[3]), row(7, R7[1], R7[2], [1, 3, 6, 1])):
        with pytest.raises(StoreError, match="conflicting"):
            st.add_rows([other])


def test_conflicting_records_on_disk_raise(tmp_path):
    path = saved(tmp_path / "s.bin", [R7])
    other = saved(tmp_path / "t.bin", [row(7, [7, 3, 2, 3], R7[2], R7[3])])
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
    # and a version 2 file, whose record of e = 7 held the class values alone
    # (e u64 | count u32 | count x m u32 | crc32 u32); the file is left as it was
    body = struct.pack("<QI4I", 7, 4, 7, 3, 2, 2)
    v2 = struct.pack("<8sI", MAGIC, 2) + body + struct.pack("<I", zlib.crc32(body))
    path.write_bytes(v2)
    with pytest.raises(StoreError, match="unsupported version 2"):
        ResultStore(path)
    assert path.read_bytes() == v2


def test_partial_row_detected(tmp_path):
    blob = saved(tmp_path / "s.bin", [R7]).read_bytes()
    path = tmp_path / "cut.bin"
    # into the crc, the class indices, the orders, the values, the record header
    for cut in (1, 4, 5, 13, 31, 45):
        path.write_bytes(blob[:-cut])
        with pytest.raises(StoreError, match="partial record"):
            ResultStore(path)


def test_corrupted_row_detected(tmp_path):
    blob = saved(tmp_path / "s.bin", [R7]).read_bytes()
    path = tmp_path / "flipped.bin"
    # record fields: e at 0, classes at 8, units at 12, width at 16, m values
    # at 20..35, orders at 36..51, class indices at 52..57, crc at 58
    for offset in (0, 8, 12, 16, 20, 24, 36, 52, 58):
        flipped = bytearray(blob)
        flipped[len(MAGIC) + 4 + offset] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(StoreError):
            ResultStore(path)


def record(e, values, cls, order, width=1) -> bytes:
    """One record with a valid crc, at the given class index width."""
    body = (struct.pack("<QIII", e, len(values), len(cls), width)
            + struct.pack(f"<{len(values)}I", *values) + struct.pack(f"<{len(order)}I", *order)
            + b"".join(c.to_bytes(width, "little") for c in cls))
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("bad", [
    pytest.param(record(0, [], [], []), id="e-zero"),
    pytest.param(record(2**22 + 1, [], [], []), id="e-past-dense-limit"),
    # two primes below 2^32, which factorize, and so euler_phi, cannot split
    pytest.param(record(4294967291 * 4294967279, [], [], []), id="e-huge"),
    pytest.param(record(7, [7, 3, 2, 2], [0, 1, 2, 1, 3], [1, 3, 6, 2]), id="units-short"),
    pytest.param(record(7, [7, 3, 2, 2], [0, 1, 2, 1, 2, 3, 3], [1, 3, 6, 2]), id="units-long"),
    pytest.param(record(1, [1], [0], [1]), id="e-one-with-a-unit"),
    # a class index >= the class count, as a row short of one class value
    pytest.param(record(7, [7, 3, 2], [0, 1, 2, 1, 2, 3], [1, 3, 6]), id="class-index-past-count"),
    # a class count above the largest class index + 1, as a row with a value too many
    pytest.param(record(7, [7, 3, 2, 2, 7], [0, 1, 2, 1, 2, 3], [1, 3, 6, 2, 1]),
                 id="class-count-past-indices"),
    pytest.param(record(7, [7, 3, 2, 2], [0, 1, 2, 1, 2, 3], [1, 3, 6, 2], width=3),
                 id="width-3"),
    pytest.param(record(7, [7, 3, 2, 2], [0, 1, 2, 1, 2, 3], [1, 3, 6, 2], width=8),
                 id="width-8"),
])
def test_record_that_is_not_a_table_of_its_modulus_is_refused(tmp_path, bad):
    good = saved(tmp_path / "good.bin", [R7]).read_bytes()
    # the helper writes the layout of the store's own records
    assert good[len(MAGIC) + 4:] == record(7, [7, 3, 2, 2], [0, 1, 2, 1, 2, 3], [1, 3, 6, 2])
    path = tmp_path / "s.bin"
    path.write_bytes(good[:len(MAGIC) + 4] + bad)
    with pytest.raises(StoreError, match="not an m table"):
        ResultStore(path)


def test_empty_store_saves_a_header(tmp_path):
    path = saved(tmp_path / "s.bin", [])
    assert path.read_bytes()[:len(MAGIC)] == MAGIC
    assert len(ResultStore(path)) == 0


def test_magic_constant_shape():
    assert len(MAGIC) == 8


_WRITER = """
import sys
import numpy as np
from msum.modular import euler_phi
from msum.store import ResultStore
path, w = sys.argv[1], int(sys.argv[2])
for i in range(100):
    e = 4000 + 3 * i + w
    units = euler_phi(e)  # at least 800, so a record of over 9.6 KB
    cls = np.arange(units, dtype=np.uint32)  # each unit its own class
    st = ResultStore(path)  # a torn append on disk raises here
    st.add_rows([(e, np.arange(e, e + units, dtype=np.uint32), cls, cls + 1)])
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
    assert sorted(tables) == [4000 + 3 * i + w for i in range(100) for w in (1, 2, 3)]
    for e, (values, cls, order) in tables.items():
        assert 4 * values.size + 4 * order.size + 4 * cls.size > 8192
        assert values.tolist() == list(range(e, e + values.size))
        assert order.tolist() == list(range(1, values.size + 1)) == (cls + 1).tolist()


# --- the read cache: a reopened file is checked only past the bytes read before

HEADER = len(MAGIC) + 4


@pytest.fixture
def checked(monkeypatch):
    """The file offset of each record the store checks, from a fresh memo slot."""
    monkeypatch.setattr(store, "_last_read", None)
    offsets = []
    check = ResultStore._record

    def spy(self, blob, off, base):
        offsets.append(base + off)
        return check(self, blob, off, base)

    monkeypatch.setattr(ResultStore, "_record", spy)
    return offsets


def cold(path):
    """The rows of a read that no earlier read can serve."""
    store._last_read = None
    return ResultStore(path).cache_rows()


def test_reopen_checks_only_appended_records(tmp_path, checked):
    path = saved(tmp_path / "s.bin", [R7])
    first = ResultStore(path)
    assert checked == [HEADER]
    size = path.stat().st_size
    checked.clear()
    st = ResultStore(path)
    assert checked == [] and listed(st.cache_rows()) == listed([R7])
    assert all(a is b for a, b in zip(st.tables[7], first.tables[7]))  # the arrays of the first read
    st.add_rows([R11])
    st.save()
    again = ResultStore(path)
    assert checked == [size]  # the appended record alone
    assert listed(again.cache_rows()) == listed([R7, R11]) == listed(cold(path))


def test_record_rewritten_in_place_forces_a_whole_read(tmp_path, checked):
    # m(59, 60) = 2 (59 = -1 mod 60); the record is rewritten to say 3, at the
    # same length and with its crc recomputed
    engine.clear_cache()
    engine.m_table_for_modulus(60)
    path = saved(tmp_path / "s.bin", engine.cache_rows(0))
    engine.clear_cache()
    engine.seed_cache(ResultStore(path).cache_rows())
    assert engine.m_value(59, 60) == 2 == engine.m_table_for_modulus(60).m[-1]
    blob = bytearray(path.read_bytes())
    classes, units = struct.unpack_from("<II", blob, HEADER + 8)
    cls59 = blob[HEADER + 20 + 8 * classes + units - 1]  # 59 is the last unit; width 1
    struct.pack_into("<I", blob, HEADER + 20 + 4 * cls59, 3)
    end = len(blob) - 4
    struct.pack_into("<I", blob, end, zlib.crc32(blob[HEADER:end]))
    path.write_bytes(bytes(blob))
    checked.clear()
    rows = ResultStore(path).cache_rows()
    assert checked == [HEADER]
    assert rows[0][1][cls59] == 3
    with pytest.raises(MsumError, match="modulus 60 differs"):
        engine.seed_cache(rows)
    assert engine.m_table_for_modulus(60).m[-1] == 2  # the held table stays
    engine.clear_cache()


def test_truncated_or_replaced_file_is_read_whole(tmp_path, checked):
    path = tmp_path / "s.bin"
    both = saved(tmp_path / "both.bin", [R7, R11]).read_bytes()
    seven = saved(tmp_path / "seven.bin", [R7]).read_bytes()
    swapped = saved(tmp_path / "swapped.bin", [R11, R7]).read_bytes()
    assert len(swapped) == len(both)
    path.write_bytes(both)
    ResultStore(path)
    # truncated; then a longer file whose first bytes are not those read
    # before; then replaced at the same length
    for blob, tables in ((seven, [R7]), (swapped, [R11, R7]), (both, [R7, R11])):
        path.write_bytes(blob)
        checked.clear()
        st = ResultStore(path)
        assert len(checked) == len(tables) and checked[0] == HEADER
        assert listed(st.cache_rows()) == listed(tables)
    path.write_bytes(both[:-1])  # a torn last record fails whole reads and reopens alike
    with pytest.raises(StoreError, match="partial record"):
        ResultStore(path)


def test_records_another_store_appends_are_adopted(tmp_path, checked):
    # raw bytes for another process to append, which shares no memo slot; made
    # first, as saving a store of another path empties the slot
    engine.clear_cache()
    engine.m_table_for_modulus(13)
    tail = saved(tmp_path / "t.bin", engine.cache_rows(0)).read_bytes()[HEADER:]
    engine.clear_cache()
    path = saved(tmp_path / "s.bin", [R7])
    ResultStore(path)
    size = path.stat().st_size
    other = ResultStore(path)
    other.add_rows([R11])
    other.save()
    with open(path, "ab") as fh:
        fh.write(tail)
    checked.clear()
    st = ResultStore(path)
    assert checked == [size, path.stat().st_size - len(tail)]
    assert sorted(st.tables) == [7, 11, 13]
    assert listed(st.cache_rows()) == listed(cold(path))


def test_a_store_of_another_path_lets_the_read_tables_go(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "_last_read", None)
    a = os.path.abspath(saved(tmp_path / "a.bin", [R7]))
    ResultStore(a)
    assert store._last_read.path == a
    b = ResultStore(tmp_path / "b.bin")  # opened before it exists
    assert store._last_read is None
    # the order of a copied cut: the copy opened, the source read, the copy saved
    rows = ResultStore(a).cache_rows()
    assert store._last_read.path == a
    b.add_rows(rows + [R11])
    b.save()
    assert store._last_read is None
    ResultStore(tmp_path / "b.bin")
    assert store._last_read.path == os.path.abspath(tmp_path / "b.bin")
