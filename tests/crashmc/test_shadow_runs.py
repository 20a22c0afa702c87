"""The shadow's unfenced-write runs against per-byte allowed-value sets.

``Shadow`` records, per file, the ``(off, end, fill)`` runs written into
the durable floor since it was last raised.  The reference below is the
direct per-byte model: one set of legal values for every floor byte.  Over
random workloads for every kind the two must allow the same values, and
the oracle must report byte-identical messages for damaged crash images.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.crashmc.oracles import KIND_PROPS, check_state  # noqa: E402
from repro.crashmc.workload import (  # noqa: E402
    NUM_FILES,
    Shadow,
    generate_workload,
)

KINDS = sorted(KIND_PROPS)


class SetShadow:
    """Per-byte reference: ``allowed[i][pos]`` is every legal value."""

    def __init__(self, props):
        self.props = props
        self.content = {i: bytearray() for i in range(NUM_FILES)}
        self.floor = {i: bytearray() for i in range(NUM_FILES)}
        self.allowed = {i: [] for i in range(NUM_FILES)}

    def _write(self, i, off, size, fill):
        buf = self.content[i]
        end = off + size
        if end > len(buf):
            buf.extend(bytes(end - len(buf)))
        buf[off:end] = bytes([fill]) * size
        for pos in range(off, min(end, len(self.floor[i]))):
            self.allowed[i][pos].add(fill)

    def _raise_floor(self, i):
        self.floor[i] = bytearray(self.content[i])
        self.allowed[i] = [{b} for b in self.floor[i]]

    def apply(self, op):
        if op.kind == "fsync":
            self._raise_floor(op.file)
            return
        off = len(self.content[op.file]) if op.kind == "append" else op.offset
        self._write(op.file, off, op.size, op.fill)
        if self.props.sync_data:
            self._raise_floor(op.file)
        elif self.props.overwrites_sync and op.kind == "overwrite":
            end = min(op.offset + op.size, len(self.floor[op.file]))
            for pos in range(op.offset, end):
                self.floor[op.file][pos] = op.fill
                self.allowed[op.file][pos] = {op.fill}


def reference_byte_messages(path, data, ref, i, inflight_img):
    """The oracle's per-byte loop over the set model (non-strict kinds,
    image at least as long as the floor)."""
    out = []
    allowed = ref.allowed[i]
    for pos in range(len(ref.floor[i])):
        ok = data[pos] in allowed[pos]
        if not ok and inflight_img is not None and pos < len(inflight_img):
            ok = data[pos] == inflight_img[pos]
        if not ok:
            out.append(f"{path}: byte {pos} = {data[pos]:#04x} outside "
                       f"allowed values {sorted(allowed[pos])}")
            if len(out) >= 5:
                out.append(f"{path}: ... further byte violations elided")
                return out
    return out


class ImageFS:
    def __init__(self, images):
        self.images = images

    def exists(self, path):
        return path in self.images

    def read_file(self, path):
        return self.images[path]


def _damage(rng, shadow, i):
    """A plausible crash image: the floor or the volatile content, with a
    few bytes replaced by legal or illegal values."""
    img = bytearray(rng.choice([shadow.floor[i], shadow.content[i]]))
    if len(img) < len(shadow.floor[i]):
        img.extend(bytes(len(shadow.floor[i]) - len(img)))
    for _ in range(rng.randrange(8)):
        if img:
            img[rng.randrange(len(img))] = rng.randrange(256)
    return bytes(img)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10**6),
       nops=st.integers(1, 25))
def test_runs_allow_exactly_the_per_byte_sets(kind, seed, nops):
    props = KIND_PROPS[kind]
    shadow, ref = Shadow(props), SetShadow(props)
    rng = random.Random(seed)
    ops = generate_workload(seed, nops)
    for step, op in enumerate(ops):
        shadow.apply(op)
        ref.apply(op)
        for i in range(NUM_FILES):
            assert shadow.content[i] == ref.content[i]
            assert shadow.floor[i] == ref.floor[i]
            for pos in range(len(ref.floor[i])):
                assert shadow.allowed_values(i, pos) == ref.allowed[i][pos]
        if props.atomic_ops and props.sync_data:
            continue  # strict kinds never consult per-byte values
        inflight = ops[step + 1] if step + 1 < len(ops) else None
        images = {f"/w{i}": _damage(rng, shadow, i) for i in range(NUM_FILES)}
        got = check_state(kind, ImageFS(images), shadow, inflight)
        for i in range(NUM_FILES):
            path = f"/w{i}"
            mine = [m for m in got
                    if m.startswith(f"{path}: byte")
                    or m.startswith(f"{path}: ...")]
            file_inflight = (inflight if inflight is not None
                             and inflight.file == i else None)
            inflight_img = (shadow.content_after(file_inflight)
                            if file_inflight is not None
                            and file_inflight.kind != "fsync"
                            else bytes(shadow.content[i])
                            if file_inflight is not None else None)
            assert mine == reference_byte_messages(
                path, images[path], ref, i, inflight_img)

