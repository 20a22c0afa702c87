"""The RAS controller: checksums, replication, repair, and scrubbing.

One :class:`RASController` hangs off a :class:`~repro.kernel.machine.Machine`
(created by ``machine.enable_ras()``) and hooks the PM device:

* **Protected regions.**  A file system registers metadata ranges (superblock,
  inode table, optionally file extents) with :meth:`protect`, which allocates
  them a same-sized *replica* range and seeds per-4KB-block CRC32 checksums.
* **Load path.**  When a load trips the fault injector's poison
  (:class:`~repro.pmem.faults.MediaError`), the device asks
  :meth:`try_repair` before surfacing EIO: if a healthy replica covers the
  poisoned bytes, the primary is rewritten from it and the poison cleared
  (the DIMM remaps the bad line on write).  Clean loads of protected ranges
  are checksum-verified by :meth:`verify_load`, catching *silent* corruption
  the injector's poison model cannot.
* **Store path.**  :meth:`on_store` mirrors every store into a protected
  range to its replica and refreshes the touched block checksums.  Replica
  bytes are written straight into the device buffer, bypassing the
  persistence domain: the mirror is modelled as durable the instant the
  primary store issues (a deliberate simplification — real NOVA-Fortis
  orders replica updates with fences; our crash states therefore never show
  a *torn* replica, only a *stale* one, which :meth:`resync` reconciles at
  mount by declaring the primary authoritative).
* **Scrubbing.**  :meth:`maybe_scrub` (called from the device's ``sfence``)
  launches :meth:`run_scrub` every ``scrub_interval_ns`` of simulated time.
  A pass sweeps all protected regions — repairing latent poison and checksum
  mismatches from replicas — then records still-poisoned *unprotected*
  ranges as remapped-but-lost extents: the media is remapped to a spare but
  the data is unrecoverable, so the poison stays armed and reads keep
  returning EIO until the range is rewritten (matching NVDIMM badblocks
  semantics).  Scrub time is measured and transferred to a background
  account, mirroring ``StagingManager._refill_in_background``.

Checksums live in DRAM (a volatile dict, as in NOVA's DRAM CRC cache) and
are invalidated by a crash; :meth:`resync` recomputes them and re-copies
primary → replica at mount time, *after* recovery has settled the primary.
Mount-time repair is therefore poison-driven only — a rolled-back unfenced
store must not be "repaired" back in from a fresher replica.

Known limitation: the superblock must be readable to *find* the replica
region at mount, so a superblock poisoned while unmounted is unrecoverable
(bootstrap circularity); the online scrubber protects it within a session.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs.metrics import counter_field, reset_counter_fields
from ..pmem import constants as C
from ..pmem.device import PMError
from ..pmem.faults import MediaError
from ..pmem.timing import Category, TimeAccount

if TYPE_CHECKING:
    from ..pmem.device import PersistentMemory


@dataclass
class RASConfig:
    """Tunables for one machine's RAS layer."""

    #: Maintain per-block CRC32 checksums and verify them on load.
    checksum: bool = True
    #: Mirror protected regions to a replica (repair source for poison).
    replicate: bool = True
    #: Verify checksums inline on every load of a protected range (the
    #: measurable "checksum overhead"; scrub still verifies when off).
    verify_on_load: bool = True
    #: Simulated nanoseconds between background scrub passes.
    scrub_interval_ns: float = C.RAS_SCRUB_INTERVAL_NS
    #: Launch scrub passes automatically from the device fence hook.
    auto_scrub: bool = True


@dataclass
class RASStats:
    """Cumulative RAS event counters (the ``ras-report`` surface)."""

    media_detected: int = counter_field()
    media_repaired: int = counter_field()
    checksum_failures: int = counter_field()
    checksum_repaired: int = counter_field()
    unrecoverable: int = counter_field()
    scrub_passes: int = counter_field()
    scrub_bytes_scanned: int = counter_field()
    scrub_errors_found: int = counter_field()
    scrub_errors_repaired: int = counter_field()
    remapped_extents: int = counter_field()
    degraded_entries: int = counter_field()
    degraded_exits: int = counter_field()
    degraded_ops: int = counter_field()
    enospc_retries: int = counter_field()
    replica_bytes_written: int = counter_field()
    crc_bytes_verified: int = counter_field()

    @property
    def detected(self) -> int:
        return self.media_detected + self.checksum_failures

    @property
    def repaired(self) -> int:
        return self.media_repaired + self.checksum_repaired

    def as_dict(self) -> Dict[str, int]:
        d = {k: getattr(self, k) for k in vars(self)}
        d["detected"] = self.detected
        d["repaired"] = self.repaired
        return d

    def reset(self) -> None:
        """Zero every counter (shared metadata-driven reset path)."""
        reset_counter_fields(self)


class _Region:
    """One protected primary range and its (optional) replica."""

    __slots__ = ("primary", "nbytes", "replica", "crcs")

    def __init__(self, primary: int, nbytes: int,
                 replica: Optional[int]) -> None:
        self.primary = primary
        self.nbytes = nbytes
        self.replica = replica
        #: Per-4KB-block CRC32 of the primary, or ``None`` when stale
        #: (after a crash, or for regions adopted but not yet resynced).
        self.crcs: Optional[List[int]] = None

    def nblocks(self) -> int:
        return (self.nbytes + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE

    def overlaps(self, addr: int, size: int) -> bool:
        return addr < self.primary + self.nbytes and addr + size > self.primary

    def touched_blocks(self, addr: int, size: int) -> range:
        lo = max(addr, self.primary)
        hi = min(addr + size, self.primary + self.nbytes)
        first = (lo - self.primary) // C.BLOCK_SIZE
        last = (hi - 1 - self.primary) // C.BLOCK_SIZE
        return range(first, last + 1)


class RASController:
    """Per-machine online fault-tolerance engine (see module docstring)."""

    def __init__(self, pm: "PersistentMemory",
                 config: Optional[RASConfig] = None) -> None:
        self._pm = weakref.ref(pm)
        self.config = config or RASConfig()
        self.stats = RASStats()
        self.regions: List[_Region] = []
        #: Remapped-but-lost extents: poisoned ranges with no replica that a
        #: scrub pass has declared unrecoverable (reads keep failing until
        #: the range is rewritten).
        self.remapped: List[Tuple[int, int]] = []
        #: Simulated time consumed by scrub passes (a spare core, not
        #: application time) — same convention as staging refills.
        self.background_account = TimeAccount()
        self._last_scrub_ns = pm.clock.now_ns
        self._in_hook = False

    @property
    def pm(self) -> "PersistentMemory":
        """The protected device.  Held weakly: the device points back here
        (``pm.ras``), and a cycle would keep a discarded forked device —
        and its private CoW segments — alive until a full GC pass."""
        return self._pm()

    # -- registration --------------------------------------------------------

    def protect(self, primary: int, nbytes: int,
                replica: Optional[int] = None) -> _Region:
        """Register a region and seed its replica + checksums from the
        current primary contents (format-time setup; uncharged)."""
        if not self.config.replicate:
            replica = None
        region = _Region(primary, nbytes, replica)
        self.regions.append(region)
        if replica is not None:
            self.pm.buf[replica:replica + nbytes] = \
                self.pm.buf[primary:primary + nbytes]
        if self.config.checksum:
            region.crcs = self._compute_crcs(region)
        return region

    def adopt(self, primary: int, nbytes: int,
              replica: Optional[int] = None) -> _Region:
        """Register a region found on-media at mount without touching it.

        Checksums stay ``None`` (stale) until :meth:`resync`; replica-based
        poison repair works immediately.
        """
        if not self.config.replicate:
            replica = None
        region = _Region(primary, nbytes, replica)
        self.regions.append(region)
        return region

    def resync(self) -> None:
        """Make the primary authoritative: re-copy primary → replica and
        recompute checksums (mount-time, after recovery has settled)."""
        for region in self.regions:
            if region.replica is not None:
                self.pm.buf[region.replica:region.replica + region.nbytes] = \
                    self.pm.buf[region.primary:region.primary + region.nbytes]
            if self.config.checksum:
                region.crcs = self._compute_crcs(region)

    def forget_all(self) -> None:
        """Drop every registration (a re-format of the device)."""
        self.regions.clear()
        self.remapped.clear()

    def fork(self, pm: "PersistentMemory") -> "RASController":
        """An independent controller over forked device ``pm``.

        Region registrations (with their checksum lists), the remapped-lost
        ledger, the event counters, and the scrub schedule are all copied so
        a forked machine's recovery behaves bit-identically to a replayed
        machine that reached the same state.  The config object is shared
        (treated as immutable once the machine is running).
        """
        import dataclasses

        child = object.__new__(RASController)
        child._pm = weakref.ref(pm)
        child.config = self.config
        child.stats = dataclasses.replace(self.stats)
        child.regions = []
        for region in self.regions:
            copy = _Region(region.primary, region.nbytes, region.replica)
            copy.crcs = list(region.crcs) if region.crcs is not None else None
            child.regions.append(copy)
        child.remapped = list(self.remapped)
        child.background_account = self.background_account.snapshot()
        child._last_scrub_ns = self._last_scrub_ns
        child._in_hook = False
        return child

    def primary_ranges(self) -> List[Tuple[int, int]]:
        return [(r.primary, r.primary + r.nbytes) for r in self.regions]

    # -- device hooks --------------------------------------------------------

    def on_store(self, addr: int, size: int, charge: bool = True) -> None:
        """Mirror a store into protected ranges to their replicas and
        refresh the touched block checksums."""
        if self._in_hook:
            return
        for region in self.regions:
            if not region.overlaps(addr, size):
                continue
            lo = max(addr, region.primary)
            hi = min(addr + size, region.primary + region.nbytes)
            if region.replica is not None:
                dst = region.replica + (lo - region.primary)
                self.pm.buf[dst:dst + (hi - lo)] = self.pm.buf[lo:hi]
                self.stats.replica_bytes_written += hi - lo
                if charge:
                    self.pm.clock.charge(
                        (hi - lo) * C.PM_WRITE_NS_PER_BYTE, Category.META_IO)
            if region.crcs is not None:
                for blk in region.touched_blocks(addr, size):
                    region.crcs[blk] = self._block_crc(region, blk)
                    if charge:
                        self.pm.clock.charge(
                            self._block_len(region, blk) * C.RAS_CRC_NS_PER_BYTE,
                            Category.CPU)

    def verify_load(self, addr: int, size: int) -> None:
        """Checksum-verify the protected blocks a clean load touches,
        repairing silent corruption from the replica when possible."""
        if not self.config.verify_on_load or self._in_hook:
            return
        for region in self.regions:
            if region.crcs is None or not region.overlaps(addr, size):
                continue
            for blk in region.touched_blocks(addr, size):
                self._verify_block(region, blk, charge=True)

    def try_repair(self, addr: int, size: int) -> bool:
        """A load of ``[addr, addr+size)`` tripped poison: repair every
        poisoned overlap from replicas.  Returns ``True`` iff the whole
        range is clean afterwards (caller re-raises EIO otherwise)."""
        faults = self.pm.faults
        if faults is None:
            return False
        ok = True
        for start, end in faults.poisoned_overlaps(addr, size):
            if not self._repair_range(start, end, charge=True):
                ok = False
        return ok

    def maybe_scrub(self) -> None:
        """Fence-path hook: launch a scrub pass if the interval elapsed."""
        if not self.config.auto_scrub or self._in_hook:
            return
        if self.pm.clock.now_ns - self._last_scrub_ns < self.config.scrub_interval_ns:
            return
        self.run_scrub()

    def on_crash(self) -> None:
        """Power failure: the DRAM checksum cache is gone, and replicas may
        be fresher than rolled-back primaries — mark everything stale so
        mount-time :meth:`resync` rebuilds from the authoritative primary."""
        for region in self.regions:
            region.crcs = None
        self._last_scrub_ns = 0.0

    # -- scrubbing -----------------------------------------------------------

    def run_scrub(self) -> Tuple[int, int]:
        """One full scrub pass; returns ``(errors_found, errors_repaired)``.

        Time is measured and transferred to :attr:`background_account`.
        """
        clock = self.pm.clock
        faults = self.pm.faults
        self._in_hook = True
        found = repaired = 0
        try:
            # The span deliberately covers only the measured scrub work; the
            # time is transferred to background_account below, so a traced
            # run shows the pass as "ras" category but the foreground totals
            # still exclude it (attribution subtracts what the account does).
            with clock.obs.span("ras.scrub_pass", cat="ras"), \
                    clock.measure() as acct:
                for region in self.regions:
                    clock.charge(region.nbytes * C.RAS_SCRUB_NS_PER_BYTE,
                                 Category.META_IO)
                    self.stats.scrub_bytes_scanned += region.nbytes
                    if faults is not None:
                        for start, end in faults.poisoned_overlaps(
                                region.primary, region.nbytes):
                            found += 1
                            if self._repair_range(start, end, charge=False):
                                repaired += 1
                    if region.crcs is not None:
                        for blk in range(region.nblocks()):
                            try:
                                f, r = self._verify_block(region, blk,
                                                          charge=False)
                            except PMError:
                                f, r = 1, 0  # unrecoverable; load will EIO
                            found += f
                            repaired += r
                # Poison outside any protected region is unrecoverable: the
                # scrubber remaps the extent to spare media but the data is
                # lost, so the range stays poisoned (EIO until rewritten).
                if faults is not None:
                    for start, end in list(faults.poisoned):
                        if any(r.overlaps(start, end - start)
                               for r in self.regions):
                            continue
                        if (start, end) in self.remapped:
                            continue
                        self.remapped.append((start, end))
                        self.stats.remapped_extents += 1
                        found += 1
            clock.account.data_ns -= acct.data_ns
            clock.account.meta_io_ns -= acct.meta_io_ns
            clock.account.cpu_ns -= acct.cpu_ns
            self.background_account.data_ns += acct.data_ns
            self.background_account.meta_io_ns += acct.meta_io_ns
            self.background_account.cpu_ns += acct.cpu_ns
        finally:
            self._in_hook = False
        self.stats.scrub_passes += 1
        self.stats.scrub_errors_found += found
        self.stats.scrub_errors_repaired += repaired
        self._last_scrub_ns = clock.now_ns
        return found, repaired

    # -- internals -----------------------------------------------------------

    def _block_len(self, region: _Region, blk: int) -> int:
        return min(C.BLOCK_SIZE, region.nbytes - blk * C.BLOCK_SIZE)

    def _block_crc(self, region: _Region, blk: int) -> int:
        off = region.primary + blk * C.BLOCK_SIZE
        return zlib.crc32(self.pm.buf[off:off + self._block_len(region, blk)])

    def _compute_crcs(self, region: _Region) -> List[int]:
        return [self._block_crc(region, blk) for blk in range(region.nblocks())]

    def _covering_region(self, start: int, end: int) -> Optional[_Region]:
        for region in self.regions:
            if (region.replica is not None
                    and start >= region.primary
                    and end <= region.primary + region.nbytes):
                return region
        return None

    def _repair_range(self, start: int, end: int, charge: bool) -> bool:
        """Repair one poisoned primary range from its replica.  The write
        back to the primary remaps the bad line, clearing the poison."""
        self.stats.media_detected += 1
        region = self._covering_region(start, end)
        faults = self.pm.faults
        if region is None or faults is None:
            self.stats.unrecoverable += 1
            return False
        rstart = region.replica + (start - region.primary)
        if faults.is_poisoned(rstart, end - start):
            self.stats.unrecoverable += 1  # both copies lost
            return False
        self.pm.buf[start:end] = self.pm.buf[rstart:rstart + (end - start)]
        faults.unpoison(start, end - start)
        self.stats.media_repaired += 1
        if charge:
            self.pm.clock.charge(C.RAS_REPAIR_CPU_NS, Category.CPU)
            self.pm.clock.charge(
                2 * (end - start) * C.PM_WRITE_NS_PER_BYTE, Category.META_IO)
        return True

    def _verify_block(self, region: _Region, blk: int,
                      charge: bool) -> Tuple[int, int]:
        """CRC-check one block; repair silent corruption from the replica.
        Returns ``(failures, repairs)`` for the scrubber's tallies."""
        nbytes = self._block_len(region, blk)
        self.stats.crc_bytes_verified += nbytes
        if charge:
            self.pm.clock.charge(nbytes * C.RAS_CRC_NS_PER_BYTE, Category.CPU)
        if self._block_crc(region, blk) == region.crcs[blk]:
            return 0, 0
        self.stats.checksum_failures += 1
        off = region.primary + blk * C.BLOCK_SIZE
        faults = self.pm.faults
        if (region.replica is None
                or (faults is not None
                    and faults.is_poisoned(region.replica + blk * C.BLOCK_SIZE,
                                           nbytes))):
            self.stats.unrecoverable += 1
            raise MediaError(
                f"checksum mismatch in protected block at {off} (no healthy replica)"
            )
        src = region.replica + blk * C.BLOCK_SIZE
        replica_bytes = self.pm.buf[src:src + nbytes]
        if zlib.crc32(replica_bytes) != region.crcs[blk]:
            self.stats.unrecoverable += 1
            raise MediaError(
                f"checksum mismatch in protected block at {off} (replica also stale)"
            )
        self.pm.buf[off:off + nbytes] = replica_bytes
        self.stats.checksum_repaired += 1
        if charge:
            self.pm.clock.charge(C.RAS_REPAIR_CPU_NS, Category.CPU)
            self.pm.clock.charge(nbytes * C.PM_WRITE_NS_PER_BYTE,
                                 Category.META_IO)
        return 1, 1
