"""A JBD2-style redo journal for metadata blocks.

ext4 (and therefore SplitFS's relink primitive) gets its atomicity from this
journal.  A transaction is a set of whole 4 KB metadata blocks with their new
contents.  Commit writes, in order: a descriptor block listing the target
device addresses, the new block images, a fence, and finally a 64-byte commit
record — the commit record going durable is the atomic commit point.  The
in-place copies are then written back lazily (no fence), because recovery can
always replay committed transactions from the journal.

Layout of the journal region (``nblocks`` blocks starting at ``start_block``)::

    block 0      journal superblock (magic, sequence, epoch)
    block 1..    transactions: [descriptor][blk0][blk1]...[commit] ...

When the region fills up the journal checkpoints: it fences outstanding
in-place writebacks, bumps the sequence epoch in the superblock, and restarts
at block 1 (old records become unreachable because their sequence is stale).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List

from ..kernel.sched import NULL_LOCK
from ..pmem import constants as C
from ..pmem.device import PersistentMemory
from ..pmem.timing import Category

_SB_MAGIC = 0x4A424453  # "JBDS"
_DESC_MAGIC = 0x4A424432  # "JBD2"
_COMMIT_MAGIC = 0x434F4D54  # "COMT"

_SB_FMT = "<IQ"  # magic, sequence epoch
_DESC_HDR_FMT = "<IQI"  # magic, seq, block count
_COMMIT_FMT = "<IQI"  # magic, seq, checksum


class JournalFullError(Exception):
    """A single transaction is larger than the whole journal region."""


@dataclass
class JournalStats:
    commits: int = 0
    blocks_logged: int = 0
    checkpoints: int = 0
    recovered_transactions: int = 0


class Transaction:
    """A running transaction: target block address -> new 4 KB image.

    Later writes to the same block replace earlier ones (jbd2 merges updates
    to a buffer within one transaction).
    """

    def __init__(self) -> None:
        self.blocks: Dict[int, bytes] = {}

    def add_block(self, device_addr: int, content: bytes) -> None:
        if device_addr % C.BLOCK_SIZE:
            raise ValueError(f"journal target {device_addr} not block aligned")
        if len(content) != C.BLOCK_SIZE:
            raise ValueError(f"journal block must be {C.BLOCK_SIZE} bytes")
        self.blocks[device_addr] = content

    def __len__(self) -> int:
        return len(self.blocks)

    def __bool__(self) -> bool:
        return bool(self.blocks)


class Journal:
    """Block redo journal over a region of the PM device."""

    def __init__(self, pm: PersistentMemory, start_block: int, nblocks: int) -> None:
        if nblocks < 4:
            raise ValueError("journal needs at least 4 blocks")
        self.pm = pm
        self.start_block = start_block
        self.nblocks = nblocks
        self.stats = JournalStats()
        self._seq = 1
        self._head = 1  # next free block index within the region
        #: A :class:`weakref.WeakMethod` to a hook invoked whenever the
        #: journal region resets (checkpoint/recovery); the owning FS uses it
        #: to release revoke-quarantined blocks.  Weak, because the FS owns
        #: the journal: a bound method here would make the pair a cycle.
        self.on_reset = None
        #: The journal commit lock (jbd2's j_state/commit serialisation): the
        #: owning FS replaces this with a machine-backed
        #: :class:`~repro.kernel.sched.SimLock` so concurrent committers
        #: serialise (and their wait shows up in ``sched.lock.*``).
        self.lock = NULL_LOCK

    # -- addresses --------------------------------------------------------------

    def _addr(self, region_block: int) -> int:
        return (self.start_block + region_block) * C.BLOCK_SIZE

    # -- format / superblock ------------------------------------------------------

    def format(self) -> None:
        """Initialize an empty journal (zero region head, write superblock)."""
        self._seq = 1
        self._head = 1
        self._write_superblock()
        # Zero the first descriptor slot so recovery of a fresh journal stops.
        self.pm.poke(self._addr(1), b"\x00" * C.BLOCK_SIZE)

    def _write_superblock(self) -> None:
        sb = struct.pack(_SB_FMT, _SB_MAGIC, self._seq)
        sb += b"\x00" * (C.BLOCK_SIZE - len(sb))
        self.pm.store(self._addr(0), sb, category=Category.META_IO)
        self.pm.sfence(category=Category.META_IO)

    # -- commit ----------------------------------------------------------------------

    def commit(self, txn: Transaction) -> None:
        """Atomically commit ``txn``; afterwards the new images are durable
        (via the journal) and lazily written back in place."""
        if not txn:
            return
        with self.lock, self.pm.clock.obs.span("jbd2.commit", cat="journal"):
            self._commit_locked(txn)

    def _commit_locked(self, txn: Transaction) -> None:
        count = len(txn)
        needed = count + 2  # descriptor + blocks + commit record block
        if needed > self.nblocks - 1:
            raise JournalFullError(f"transaction of {count} blocks exceeds journal")
        if self._head + needed > self.nblocks:
            self._checkpoint()

        self.pm.clock.charge_cpu(C.JBD2_COMMIT_CPU_NS + count * C.JBD2_BLOCK_CPU_NS)

        addrs = sorted(txn.blocks)
        # 1. descriptor block
        desc = struct.pack(_DESC_HDR_FMT, _DESC_MAGIC, self._seq, count)
        desc += b"".join(struct.pack("<Q", a) for a in addrs)
        desc += b"\x00" * (C.BLOCK_SIZE - len(desc))
        self.pm.store(self._addr(self._head), desc, category=Category.META_IO)
        # 2. block images
        for i, addr in enumerate(addrs):
            self.pm.store(
                self._addr(self._head + 1 + i), txn.blocks[addr], category=Category.META_IO
            )
        # 3. fence, then the commit record (the atomic commit point)
        self.pm.sfence(category=Category.META_IO)
        checksum = self._checksum(self._seq, addrs)
        commit = struct.pack(_COMMIT_FMT, _COMMIT_MAGIC, self._seq, checksum)
        commit += b"\x00" * (C.CACHELINE_SIZE - len(commit))
        self.pm.store(self._addr(self._head + 1 + count), commit, category=Category.META_IO)
        self.pm.sfence(category=Category.META_IO)
        # 4. lazy in-place writeback (unfenced; recovery replays if lost)
        for addr, content in txn.blocks.items():
            self.pm.store(addr, content, category=Category.META_IO)

        self._head += needed
        self._seq += 1
        self.stats.commits += 1
        self.stats.blocks_logged += count

    @staticmethod
    def _checksum(seq: int, addrs: List[int]) -> int:
        payload = struct.pack("<Q", seq) + b"".join(struct.pack("<Q", a) for a in addrs)
        return zlib.crc32(payload) & 0xFFFFFFFF

    def _checkpoint(self) -> None:
        """Make in-place writebacks durable and restart the journal region."""
        with self.lock, self.pm.clock.obs.span("jbd2.checkpoint", cat="journal"):
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        self.pm.sfence(category=Category.META_IO)
        self.stats.checkpoints += 1
        self._head = 1
        self._write_superblock()
        # Invalidate the first slot so stale descriptors are not replayed.
        self.pm.store(self._addr(1), b"\x00" * C.BLOCK_SIZE, category=Category.META_IO)
        self.pm.sfence(category=Category.META_IO)
        self._fire_reset()

    def _fire_reset(self) -> None:
        hook = self.on_reset() if self.on_reset is not None else None
        if hook is not None:
            hook()

    # -- recovery ----------------------------------------------------------------------

    def recover(self) -> int:
        """Replay committed transactions after a crash.

        Scans the region from block 1, replaying every transaction whose
        commit record is present and checksums correctly.  Returns the number
        of transactions replayed.  Leaves the journal reset and ready.
        """
        with self.lock, self.pm.clock.obs.span("jbd2.recover", cat="journal"):
            return self._recover_locked()

    def _recover_locked(self) -> int:
        sb_raw = self.pm.load(
            self._addr(0), struct.calcsize(_SB_FMT), category=Category.META_IO
        )
        magic, seq = struct.unpack(_SB_FMT, sb_raw)
        if magic != _SB_MAGIC:
            raise ValueError("journal superblock corrupt; device not formatted?")

        replayed = 0
        pos = 1
        expected_seq = seq
        while pos + 2 <= self.nblocks:
            hdr = self.pm.load(
                self._addr(pos), struct.calcsize(_DESC_HDR_FMT), category=Category.META_IO
            )
            dmagic, dseq, count = struct.unpack(_DESC_HDR_FMT, hdr)
            if dmagic != _DESC_MAGIC or dseq < expected_seq or count == 0:
                break
            if pos + 1 + count >= self.nblocks:
                break
            addr_raw = self.pm.load(
                self._addr(pos) + struct.calcsize(_DESC_HDR_FMT),
                8 * count,
                category=Category.META_IO,
            )
            addrs = list(struct.unpack(f"<{count}Q", addr_raw))
            commit_raw = self.pm.load(
                self._addr(pos + 1 + count), struct.calcsize(_COMMIT_FMT),
                category=Category.META_IO,
            )
            cmagic, cseq, csum = struct.unpack(_COMMIT_FMT, commit_raw)
            if cmagic != _COMMIT_MAGIC or cseq != dseq or csum != self._checksum(dseq, addrs):
                break  # torn transaction: stop, it and everything after is void
            for i, addr in enumerate(addrs):
                content = self.pm.load(
                    self._addr(pos + 1 + i), C.BLOCK_SIZE, category=Category.META_IO
                )
                self.pm.store(addr, content, category=Category.META_IO)
            replayed += 1
            expected_seq = dseq + 1
            pos += count + 2
        self.pm.sfence(category=Category.META_IO)

        self.stats.recovered_transactions += replayed
        self._seq = expected_seq
        self._head = 1
        self._write_superblock()
        self.pm.store(self._addr(1), b"\x00" * C.BLOCK_SIZE, category=Category.META_IO)
        self.pm.sfence(category=Category.META_IO)
        self._fire_reset()
        return replayed
