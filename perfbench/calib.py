"""Calibrated host clock.

Wall time on a shared host drifts in phases that last seconds: the same
fixed Python loop can run twice as slow in one phase as in the next.  A
benchmark that reports raw wall rates therefore moves by more than any
regression bound worth having.  The calibrated clock fixes this by
running a short burst of a fixed reference loop after every few tens of
milliseconds of timed work.  Each work chunk's wall time is divided by
the reference time of the bursts around it and multiplied by one fixed
constant, so host phases cancel while rates still read in ordinary units
(seconds on a host where one burst takes ``REF_BURST_S``).

The reference loop imitates the simulator's host work: small dataclass
records, attribute access, dict lookups and ``bytearray`` slice copies
into a buffer of tens of MiB.  A tight arithmetic loop tracks the host
much worse, because it misses the memory-system part of the phases.
This module imports nothing from the program under test, so no change to
the program can speed the reference up.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

_now = time.perf_counter_ns

#: Reference-loop wall time of one burst on the host the constants were
#: tuned on (2-core x86-64 VM, Python 3.11).  Calibrated seconds are wall
#: seconds scaled so that one burst reads as exactly this long.
REF_BURST_S = 0.005

#: Timed work between two bursts.
CHUNK_S = 0.050

#: Bursts on each side of a timed phase (set-up, imports).
PHASE_BURSTS = 5

#: Bursts on each side of a chunk whose median is the chunk's reference.
#: A median over a few neighbours ignores one burst hit by a preemption,
#: yet still follows host phases that last a fraction of a second.
WINDOW = 2

_BUF_MIB = 64
_RECORDS = 1024
_ROUNDS = 12
#: One record in ``_COPY_EVERY`` also copies ``_COPY_BYTES`` into the
#: buffer, and every round moves one ``_BLOCK_BYTES`` block.  Among the
#: loops tried, this mix of interpreter work, small copies and block
#: copies tracked all three workloads' host phases best: loops made only
#: of small copies over-reacted to slow phases on the crash sweep, whose
#: host time has a large block-copy share.
_COPY_EVERY = 8
_COPY_BYTES = 1024
_BLOCK_BYTES = 256 * 1024


@dataclass
class _Extent:
    key: int
    off: int
    size: int
    hits: int = 0


class ReferenceLoop:
    """The fixed calibration workload; one :meth:`run` is one burst."""

    def __init__(self) -> None:
        self.buf = bytearray(_BUF_MIB << 20)
        self.span = len(self.buf) - _BLOCK_BYTES
        self.extents = [_Extent(i, (i * 2654435761) % self.span & ~63,
                                64 + (i * 97) % 2000)
                        for i in range(_RECORDS)]
        self.index = {e.key: e for e in self.extents}
        self.keys = [(i * 7) % _RECORDS for i in range(_RECORDS)]
        self.payload = bytes(range(256)) * (_COPY_BYTES // 256)
        self._shift = 0

    def run(self) -> float:
        """Run one burst and return its wall time in seconds."""
        buf, index, keys, payload = self.buf, self.index, self.keys, self.payload
        span = self.span
        # Rotate the target window so successive bursts touch fresh lines.
        self._shift = (self._shift + 1048573) % span
        shift = self._shift
        acc = 0
        t0 = time.perf_counter()
        for r in range(_ROUNDS):
            for k in keys:
                e = index[k]
                acc += (e.off * 31 + e.size) % 7
                e.hits += 1
                if k % _COPY_EVERY == 0:
                    off = (e.off + shift) % span
                    buf[off:off + _COPY_BYTES] = payload
            src = (shift * (r + 3)) % span
            block = bytes(buf[src:src + _BLOCK_BYTES])
            dst = (src + 7 * _BLOCK_BYTES) % span
            buf[dst:dst + _BLOCK_BYTES] = block
        return time.perf_counter() - t0


def window_reference(bursts: Sequence[float], i: int) -> float:
    """Reference time for chunk ``i``, which ran between bursts ``i`` and
    ``i + 1``: the median of the ``WINDOW`` bursts on each side."""
    lo = max(0, i + 1 - WINDOW)
    hi = min(len(bursts), i + 1 + WINDOW)
    return statistics.median(bursts[lo:hi])


def calibrated_seconds(chunks: Sequence[float],
                       bursts: Sequence[float]) -> float:
    """Sum of chunk wall times, each rescaled by its burst reference.

    ``bursts`` has one more entry than ``chunks``: burst ``i`` precedes
    chunk ``i`` and burst ``i + 1`` follows it.
    """
    if len(bursts) != len(chunks) + 1:
        raise ValueError("need exactly one burst before and after each chunk")
    return sum(w * REF_BURST_S / window_reference(bursts, i)
               for i, w in enumerate(chunks))


class CalibratedClock:
    """Accumulates timed work in chunks separated by reference bursts.

    Call :meth:`start` before the timed work, :meth:`tick` often from
    inside it (cheap unless a chunk is due), and :meth:`stop` after it.
    Within one start/stop span, chunks and bursts tile the timed work
    without gaps, in integer nanoseconds, and burst time never counts as
    work.  Work between a stop and the next start is not measured.
    """

    def __init__(self, loop: ReferenceLoop) -> None:
        self.loop = loop
        self.chunk_ns = int(CHUNK_S * 1e9)
        self.chunks_ns: List[int] = []
        self.bursts: List[float] = []
        self.burst_ns = 0
        self.running = False
        #: ``(first chunk, first burst)`` of every span.
        self._spans: List[Tuple[int, int]] = []
        self._t0 = 0

    def _burst(self, now: int) -> int:
        self.bursts.append(self.loop.run())
        t1 = _now()
        self.burst_ns += t1 - now
        self._t0 = t1
        return t1 - now

    def start(self) -> None:
        self._spans.append((len(self.chunks_ns), len(self.bursts)))
        self._burst(_now())
        self.running = True

    def tick(self) -> int:
        """Close the chunk if it is due; returns the nanoseconds the burst
        took (0 when none ran)."""
        now = _now()
        if now - self._t0 < self.chunk_ns:
            return 0
        self.chunks_ns.append(now - self._t0)
        return self._burst(now)

    def stop(self) -> None:
        now = _now()
        self.chunks_ns.append(now - self._t0)
        self._burst(now)
        self.running = False

    @property
    def body_ns(self) -> int:
        return sum(self.chunks_ns)

    @property
    def raw_seconds(self) -> float:
        return self.body_ns / 1e9

    @property
    def seconds(self) -> float:
        ends = self._spans[1:] + [(len(self.chunks_ns), len(self.bursts))]
        return sum(calibrated_seconds([c / 1e9 for c in self.chunks_ns[c0:c1]],
                                      self.bursts[b0:b1])
                   for (c0, b0), (c1, b1) in zip(self._spans, ends))

    def health(self) -> dict:
        """Burst count, burst-time quartiles (ms) and the share of wall
        time the bursts took."""
        q1, q2, q3 = statistics.quantiles(self.bursts, n=4)
        return {
            "bursts": len(self.bursts),
            "burst_ms_p25": q1 * 1e3,
            "burst_ms_median": q2 * 1e3,
            "burst_ms_p75": q3 * 1e3,
            "burst_share": self.burst_ns / (self.burst_ns + self.body_ns),
        }


class PhaseTimer:
    """Times one phase too long and too irregular to chunk, such as set-up,
    against ``PHASE_BURSTS`` bursts before it and as many after it."""

    def __init__(self, loop: ReferenceLoop) -> None:
        self.loop = loop
        self._before = [loop.run() for _ in range(PHASE_BURSTS)]
        self._t0 = _now()

    def stop(self) -> Tuple[float, float]:
        """End the phase; returns ``(calibrated_seconds, raw_seconds)``."""
        raw = (_now() - self._t0) / 1e9
        after = [self.loop.run() for _ in range(PHASE_BURSTS)]
        ref = statistics.median(self._before + after)
        return raw * REF_BURST_S / ref, raw
