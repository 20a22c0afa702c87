"""``CowBuffer`` against a plain ``bytearray`` model.

Random read/write sequences — including writes that cover whole segments,
which privatise a segment without copying its base bytes — must read back
exactly what the model holds, leave the base untouched, and keep the
``CowStats`` counters a function of which segments went private.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.pmem.cow import SEGMENT_SIZE, CowBuffer, CowStats  # noqa: E402

SIZE = 3 * SEGMENT_SIZE + 4096  # a ragged final segment


def _segments(start: int, stop: int) -> range:
    return range(start // SEGMENT_SIZE, (stop - 1) // SEGMENT_SIZE + 1)


def _seg_len(seg: int) -> int:
    return min(SEGMENT_SIZE, SIZE - seg * SEGMENT_SIZE)


# Offsets biased towards segment boundaries, so whole-segment and
# boundary-straddling accesses come up often.
offsets = st.one_of(
    st.integers(0, SIZE - 1),
    st.builds(lambda s, d: min(max(s * SEGMENT_SIZE + d, 0), SIZE - 1),
              st.integers(0, 3), st.integers(-3, 3)))
lengths = st.one_of(st.integers(1, 300), st.just(SEGMENT_SIZE),
                    st.integers(SEGMENT_SIZE - 2, 2 * SEGMENT_SIZE + 2))
ops = st.lists(st.tuples(st.sampled_from(["write", "read", "whole"]),
                         offsets, lengths, st.integers(0, 255)),
               min_size=1, max_size=25)


def _pattern(n: int, start: int) -> bytes:
    """``n`` bytes counting up from ``start`` (mod 256)."""
    cycle = bytes(range(start, 256)) + bytes(range(start))
    return (cycle * (n // 256 + 1))[:n]


def _base() -> bytearray:
    return bytearray(_pattern(SIZE, 3))


def _apply(buf: CowBuffer, model: bytearray, touched: set, ops_) -> None:
    for kind, off, length, fill in ops_:
        if kind == "whole":  # exactly one whole segment
            seg = off // SEGMENT_SIZE
            off, length = seg * SEGMENT_SIZE, _seg_len(seg)
        stop = min(off + length, SIZE)
        if kind == "read":
            assert buf.read(off, stop) == bytes(model[off:stop])
            assert buf[off:stop] == bytes(model[off:stop])
            continue
        data = _pattern(stop - off, fill)
        buf.write(off, data)
        model[off:stop] = data
        touched.update(_segments(off, stop))


def _check_stats(stats: CowStats, touched: set, forks: int = 1) -> None:
    copied = sum(_seg_len(s) for s in touched)
    assert stats.forks == forks
    assert stats.cow_copies == len(touched)
    assert stats.cow_bytes_copied == copied
    assert stats.bytes_shared == forks * SIZE - copied


@settings(max_examples=120, deadline=None)
@given(ops_=ops)
def test_reads_and_writes_match_bytearray_model(ops_):
    base = _base()
    stats = CowStats()
    buf = CowBuffer(base, stats)
    model = bytearray(base)
    touched: set = set()
    _apply(buf, model, touched, ops_)
    assert buf.tobytes() == bytes(model)
    assert base == _base()  # the parent never sees child writes
    assert sorted(buf._own) == sorted(touched)
    _check_stats(stats, touched)


@settings(max_examples=60, deadline=None)
@given(parent_ops=ops, child_ops=ops)
def test_fork_of_a_fork_matches_model(parent_ops, child_ops):
    base = _base()
    parent_stats, child_stats = CowStats(), CowStats()
    parent = CowBuffer(base, parent_stats)
    model = bytearray(base)
    parent_touched: set = set()
    _apply(parent, model, parent_touched, parent_ops)
    frozen = parent.tobytes()
    child = CowBuffer(parent, child_stats)
    child_touched: set = set()
    _apply(child, model, child_touched, child_ops)
    assert child.tobytes() == bytes(model)
    assert parent.tobytes() == frozen
    _check_stats(child_stats, child_touched)


def test_whole_segment_write_takes_the_data_not_the_base():
    base = _base()
    stats = CowStats()
    buf = CowBuffer(base, stats)
    data = bytes(SEGMENT_SIZE)
    buf.write(SEGMENT_SIZE, data)
    assert buf.read(SEGMENT_SIZE, 2 * SEGMENT_SIZE) == data
    assert buf.read(SEGMENT_SIZE - 2, SEGMENT_SIZE + 2) == \
        bytes(base[SEGMENT_SIZE - 2:SEGMENT_SIZE]) + b"\x00\x00"
    _check_stats(stats, {1})
    # A later partial write patches the now-private segment in place.
    buf.write(SEGMENT_SIZE + 5, b"ab")
    assert buf.read(SEGMENT_SIZE + 4, SEGMENT_SIZE + 8) == b"\x00ab\x00"
    _check_stats(stats, {1})
