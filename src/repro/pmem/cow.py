"""Copy-on-write device buffers for O(1) machine forking.

The crash-state explorer used to replay a whole workload from a fresh
machine for every crash state it wanted to look at — O(fences x ops).  A
:class:`CowBuffer` lets :meth:`~repro.pmem.device.PersistentMemory.fork`
hand out a child device in O(1): the child *shares* the parent's byte
buffer and lazily copies 64 KiB segments only when the child writes to
them (crash rollback, journal recovery, RAS repair).  The parent's buffer
is never touched through the child.

Discipline: a fork is taken while the parent is **paused** (the explorer
forks inside a persistence-event hook, explores the child to completion,
and only then resumes the parent).  A parent store while a child is alive
would leak into the child's unshared segments; ``CowBuffer`` therefore
snapshots nothing eagerly and the explorer guarantees the pause.  This is
the same one-sided overlay real CoW snapshots use when the origin is
frozen for the snapshot's lifetime.

``CowStats`` counts forks, lazy segment copies, and copied/shared bytes;
the explorer registers one under ``crashmc.fork`` in the metrics registry
so deep sweeps report how much state was shared instead of copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..obs.metrics import counter_field

#: Copy granularity: 64 KiB segments (1024 cache lines).  Crash rollback
#: touches clustered lines, so one segment copy typically covers a whole
#: rollback cluster while still sharing the untouched bulk of the device.
SEGMENT_SHIFT = 16
SEGMENT_SIZE = 1 << SEGMENT_SHIFT


@dataclass
class CowStats:
    """Fork/CoW counters (registered as ``crashmc.fork.*``)."""

    forks: int = counter_field()
    cow_copies: int = counter_field()
    cow_bytes_copied: int = counter_field()
    bytes_shared: int = counter_field()


class CowBuffer:
    """A byte buffer backed by a shared base with a private write overlay.

    Supports the slice get/set protocol the device and RAS layers use on
    ``bytearray`` (``buf[a:b]``, ``buf[a:b] = data``, ``len(buf)``), plus
    explicit :meth:`read`/:meth:`write` for the device hot paths.  Reads
    fall through to the base for unwritten segments; the first write to a
    segment copies its 64 KiB out of the base, after which the segment is
    private.
    """

    __slots__ = ("base", "size", "_own", "stats")

    def __init__(self, base: Union[bytearray, "CowBuffer"],
                 stats: Optional[CowStats] = None) -> None:
        self.base = base
        self.size = len(base)
        self._own: Dict[int, bytearray] = {}
        self.stats = stats
        if stats is not None:
            stats.forks += 1
            stats.bytes_shared += self.size

    def __len__(self) -> int:
        return self.size

    # -- segment plumbing ---------------------------------------------------

    def _own_segment(self, seg: int, fill=None) -> bytearray:
        """The private copy of segment ``seg``, copying it out on first use.

        ``fill`` is a buffer covering the whole segment that the caller is
        about to write: the private copy is taken from it instead of the
        base, whose bytes would all be overwritten.  The counters do not
        distinguish the two — a segment goes private either way.
        """
        own = self._own.get(seg)
        if own is None:
            start = seg << SEGMENT_SHIFT
            end = min(start + SEGMENT_SIZE, self.size)
            if fill is None:
                fill = self._base_view(start, end)
            own = self._own[seg] = bytearray(fill)
            stats = self.stats
            if stats is not None:
                stats.cow_copies += 1
                stats.cow_bytes_copied += end - start
                stats.bytes_shared -= end - start
        return own

    def _base_view(self, start: int, stop: int):
        """``base[start:stop]`` without a copy when the base is a bytearray."""
        base = self.base
        if type(base) is bytearray:
            return memoryview(base)[start:stop]
        return base.read(start, stop)  # a fork of a fork

    def _view(self, start: int, stop: int):
        """A buffer over ``[start, stop)``, which lies in one segment."""
        seg = start >> SEGMENT_SHIFT
        seg_own = self._own.get(seg)
        if seg_own is None:
            return self._base_view(start, stop)
        off = seg << SEGMENT_SHIFT
        return memoryview(seg_own)[start - off : stop - off]

    # -- bulk access --------------------------------------------------------

    def read(self, start: int, stop: int) -> bytes:
        """Bytes of ``[start, stop)``, assembled from overlay and base.

        Each byte is copied once: pieces are memoryviews into the overlay
        and the base, joined (or converted) straight into the result.
        """
        if start >= stop:
            return b""
        first = start >> SEGMENT_SHIFT
        last = (stop - 1) >> SEGMENT_SHIFT
        if first == last:
            return bytes(self._view(start, stop))
        view = self._view
        return b"".join([
            view(max(start, seg << SEGMENT_SHIFT),
                 min((seg + 1) << SEGMENT_SHIFT, stop))
            for seg in range(first, last + 1)])

    def write(self, start: int, data: bytes) -> None:
        """Write ``data`` at ``start``, lazily privatising touched segments."""
        size = len(data)
        if size == 0:
            return
        stop = start + size
        first = start >> SEGMENT_SHIFT
        if first == (stop - 1) >> SEGMENT_SHIFT and size < SEGMENT_SIZE:
            # The common small store: patch one segment in place.
            seg_own = self._own_segment(first)
            off = start - (first << SEGMENT_SHIFT)
            seg_own[off : off + size] = data
            return
        src = memoryview(data)
        for seg in range(first, ((stop - 1) >> SEGMENT_SHIFT) + 1):
            seg_start = seg << SEGMENT_SHIFT
            seg_end = min(seg_start + SEGMENT_SIZE, self.size)
            lo = max(start, seg_start)
            hi = min(seg_end, stop)
            piece = src[lo - start : hi - start]
            if lo == seg_start and hi == seg_end and seg not in self._own:
                self._own_segment(seg, fill=piece)
            else:
                self._own_segment(seg)[lo - seg_start : hi - seg_start] = piece

    def tobytes(self) -> bytes:
        """Materialise the full buffer (tests and digests only)."""
        return self.read(0, self.size)

    # -- bytearray-compatible subscripting ----------------------------------

    def __getitem__(self, key):
        if type(key) is slice:
            start, stop, step = key.indices(self.size)
            if step != 1:
                raise ValueError("CowBuffer slices must be contiguous")
            return self.read(start, stop)
        if key < 0:
            key += self.size
        return self.read(key, key + 1)[0]

    def __setitem__(self, key, value) -> None:
        if type(key) is slice:
            start, stop, step = key.indices(self.size)
            if step != 1:
                raise ValueError("CowBuffer slices must be contiguous")
            if len(value) != stop - start:
                raise ValueError(
                    f"CowBuffer slice assignment must preserve length "
                    f"({stop - start} != {len(value)})")
            self.write(start, bytes(value))
            return
        if key < 0:
            key += self.size
        self.write(key, bytes((value,)))
