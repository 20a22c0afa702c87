"""``PersistentMemory.load_blocks`` must be indistinguishable from a loop of
one-block ``load`` calls: same bytes, bit-equal simulated time, equal
device counters, and the same block raising the same error."""

import random

import pytest

from repro.kernel.machine import Machine
from repro.pmem import constants as C
from repro.pmem.faults import MediaError
from repro.pmem.timing import Category

BLOCK = C.BLOCK_SIZE
NBLOCKS = 64
PROTECTED = 8  # blocks [0, 8) carry a RAS replica at block 40


def _machine(device: str, extras: str) -> Machine:
    """A seeded machine with media damage: a repairable poisoned line, a
    silently corrupted protected block, and an unrepairable poisoned line
    at block 20."""
    m = Machine(NBLOCKS * BLOCK, seed=0)
    rng = random.Random(7)
    m.pm.poke(0, bytes(rng.randrange(256) for _ in range(24 * BLOCK)))
    if "ras" in extras:
        m.enable_ras()
        m.ras.protect(0, PROTECTED * BLOCK, replica=40 * BLOCK)
    if "model" in extras:
        m.enable_device_model(numa_remote=True)
    elif "bandwidth" in extras:
        m.enable_bandwidth()
    if device == "cow":
        m = m.fork()
    m.faults.poison(2 * BLOCK + 128, 64)
    m.pm.buf[5 * BLOCK + 7 : 5 * BLOCK + 9] = b"\xff\xfe"
    m.faults.poison(20 * BLOCK + 64, 64)
    return m


def _observe(m: Machine):
    acct = m.clock.account
    ras = m.ras.stats.as_dict() if m.ras is not None else None
    return ((acct.data_ns.hex(), acct.meta_io_ns.hex(), acct.cpu_ns.hex()),
            vars(m.pm.stats), ras, m.faults.media_faults_fired,
            bytes(m.pm.buf[0 : NBLOCKS * BLOCK]))


def _per_block(m: Machine, first: int, count: int, category: Category):
    out = []
    try:
        for blk in range(first, first + count):
            out.append(m.pm.load(blk * BLOCK, BLOCK, category=category))
    except MediaError as exc:
        return ("raised", str(exc))
    return ("ok", b"".join(out))


def _batched(m: Machine, first: int, count: int, category: Category):
    try:
        return ("ok", m.pm.load_blocks(first * BLOCK, count,
                                       category=category))
    except MediaError as exc:
        return ("raised", str(exc))


@pytest.mark.parametrize("device", ["bytearray", "cow"])
@pytest.mark.parametrize("extras", ["", "ras", "ras+model", "ras+bandwidth"])
@pytest.mark.parametrize("first,count", [(0, 8), (1, 6), (0, 24), (12, 12),
                                         (21, 3), (30, 0)])
@pytest.mark.parametrize("category", [Category.META_IO, Category.DATA])
def test_load_blocks_equals_per_block_loads(device, extras, first, count,
                                            category):
    a = _machine(device, extras)
    b = _machine(device, extras)
    assert type(a.pm.buf).__name__ == ("CowBuffer" if device == "cow"
                                       else "bytearray")
    expected = _per_block(a, first, count, category)
    got = _batched(b, first, count, category)
    assert got == expected
    assert _observe(b) == _observe(a)


def test_unrepaired_poison_raises_at_the_same_block():
    a = _machine("bytearray", "")
    b = _machine("bytearray", "")
    assert _per_block(a, 0, 24, Category.META_IO)[0] == "raised"
    with pytest.raises(MediaError, match=rf"\[{2 * BLOCK}, "):
        b.pm.load_blocks(0, 24, category=Category.META_IO)
    assert _observe(b) == _observe(a)
    assert b.pm.stats.loads == 2  # blocks 0 and 1 were charged


def test_out_of_range_run_checks_each_block():
    a = _machine("bytearray", "ras")
    b = _machine("bytearray", "ras")
    a.faults.clear()
    b.faults.clear()
    with pytest.raises(Exception) as per_block:
        for blk in range(NBLOCKS - 2, NBLOCKS + 1):
            a.pm.load(blk * BLOCK, BLOCK, category=Category.META_IO)
    with pytest.raises(type(per_block.value), match="outside device"):
        b.pm.load_blocks((NBLOCKS - 2) * BLOCK, 3, category=Category.META_IO)
    assert _observe(b) == _observe(a)
