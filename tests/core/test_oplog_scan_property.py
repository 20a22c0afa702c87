"""``OperationLog.scan`` against a per-slot reference scan.

The reference below is the plain recovery scan: load the log page by page
and decode every 64 B slot.  The real scan fetches the region in one
block-run load and skips all-zero pages; over random, sparse and torn logs
it must find the same entries and charge the same simulated time.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.oplog import (  # noqa: E402
    ENTRY_SIZE,
    OP_APPEND,
    OP_CREATE,
    OP_OVERWRITE,
    OP_RENAME_TO,
    OP_TRUNCATE,
    OP_UNLINK,
    DataEntry,
    NamespaceEntry,
    OperationLog,
    decode_entry,
    encode_data_entry,
    encode_ns_entry,
)
from repro.pmem import constants as C  # noqa: E402
from repro.pmem.device import PersistentMemory  # noqa: E402
from repro.pmem.faults import FaultInjector  # noqa: E402
from repro.pmem.timing import Category, SimClock  # noqa: E402

BASE = 3 * C.BLOCK_SIZE
SLOTS_PER_PAGE = C.BLOCK_SIZE // ENTRY_SIZE


def reference_scan(log: OperationLog):
    """Every slot of every page, one page load at a time."""
    entries = []
    for page_off in range(0, log.size, C.BLOCK_SIZE):
        raw = log.pm.load(log.base + page_off, C.BLOCK_SIZE,
                          category=Category.META_IO)
        for slot_off in range(0, C.BLOCK_SIZE, ENTRY_SIZE):
            entry = decode_entry(raw[slot_off:slot_off + ENTRY_SIZE])
            if entry is not None:
                entries.append(entry)
    entries.sort(key=lambda e: e.seq)
    return entries


u32 = st.integers(0, 2**32 - 1)
data_entries = st.builds(
    DataEntry, op=st.sampled_from([OP_APPEND, OP_OVERWRITE, OP_TRUNCATE]),
    seq=u32, target_ino=u32, staging_ino=u32, size=u32,
    target_off=st.integers(0, 2**64 - 1), staging_off=st.integers(0, 2**64 - 1))
ns_entries = st.builds(
    NamespaceEntry, op=st.sampled_from([OP_CREATE, OP_UNLINK, OP_RENAME_TO]),
    seq=u32, parent_ino=u32, child_ino=u32,
    name=st.text("abcxyz._-", max_size=20))
# One slot write: an entry, raw garbage, or a torn line (some 8-byte words
# of an entry replaced, as a partially persisted store leaves them).
slot_writes = st.tuples(
    st.integers(0, 8 * SLOTS_PER_PAGE - 1),
    st.one_of(
        st.tuples(st.just("entry"), st.one_of(data_entries, ns_entries)),
        st.tuples(st.just("garbage"),
                  st.binary(min_size=ENTRY_SIZE, max_size=ENTRY_SIZE)),
        st.tuples(st.just("torn"), st.one_of(data_entries, ns_entries),
                  st.sets(st.integers(0, 7), min_size=1, max_size=7)),
    ))


def _encode(entry) -> bytes:
    if isinstance(entry, DataEntry):
        return encode_data_entry(entry)
    return encode_ns_entry(entry)


def _build(pages: int, writes) -> OperationLog:
    pm = PersistentMemory(16 * C.BLOCK_SIZE, SimClock(),
                          faults=FaultInjector())
    log = OperationLog(pm, BASE, pages * C.BLOCK_SIZE)
    log.initialize()
    for slot, (what, payload, *rest) in writes:
        if slot >= log.capacity:
            continue
        addr = BASE + slot * ENTRY_SIZE
        if what == "garbage":
            pm.poke(addr, payload)
            continue
        pm.poke(addr, _encode(payload))
        if what == "torn":
            pm.faults.tear_line(pm, addr, words=tuple(sorted(rest[0])))
    return log


def _charges(log: OperationLog):
    acct = log.pm.clock.account
    return (acct.data_ns.hex(), acct.meta_io_ns.hex(), acct.cpu_ns.hex(),
            vars(log.pm.stats))


@settings(max_examples=150, deadline=None)
@given(pages=st.integers(1, 8), writes=st.lists(slot_writes, max_size=40))
def test_scan_matches_per_slot_reference(pages, writes):
    fast, ref = _build(pages, writes), _build(pages, writes)
    assert fast.scan() == reference_scan(ref)
    assert _charges(fast) == _charges(ref)


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(st.one_of(data_entries, ns_entries), max_size=30))
def test_scan_after_appends_returns_them_in_seq_order(entries):
    log = _build(2, [])
    for e in entries[: log.capacity]:
        log.append(e)
    found = log.scan()
    assert found == sorted(entries[: log.capacity], key=lambda e: e.seq)
    assert found == reference_scan(log)


def test_scan_on_a_forked_device_matches():
    """The same scan over a CoW child device (crash recovery's case)."""
    from repro.pmem.cow import CowStats

    log = _build(4, [(5, ("entry", DataEntry(OP_APPEND, 9, 1, 2, 3, 4, 5))),
                     (200, ("entry", NamespaceEntry(OP_CREATE, 2, 1, 7, "f")))])
    child = log.pm.fork(SimClock(), faults=FaultInjector(),
                        cow_stats=CowStats())
    fork_log = OperationLog(child, BASE, log.size)
    assert fork_log.scan() == reference_scan(log)
