"""Crash-explorer children must die by reference counting.

The explorer forks hundreds of child machines per sweep; each holds
private CoW segments of its device.  If a child were cyclic garbage, those
segments would live until a full GC pass — which gets rarer the less a
sweep allocates — so a sweep's peak memory would grow with its state
count.  With the cyclic collector disabled, dropping the last reference to
a crashed, remounted child must free it at once, for every kind.
"""

import gc
import weakref

import pytest

from repro.crashmc.explorer import DEFAULT_PM_SIZE
from repro.crashmc.oracles import KIND_PROPS
from repro.crashmc.systems import fresh, remount
from repro.crashmc.workload import Shadow, generate_workload, run_workload
from repro.pmem.cache import CrashPolicy


@pytest.mark.parametrize("ras", [False, True], ids=["plain", "ras"])
@pytest.mark.parametrize("kind", list(KIND_PROPS))
def test_remounted_child_is_freed_without_gc(kind, ras):
    machine, fs = fresh(kind, DEFAULT_PM_SIZE, ras=ras)
    outcome = run_workload(fs, Shadow(KIND_PROPS[kind]),
                           generate_workload(3, 8))
    assert not outcome.crashed
    gc.collect()
    gc.disable()
    try:
        child = machine.fork()
        child.crash(CrashPolicy())
        fs_after = remount(child, kind)
        refs = [weakref.ref(obj) for obj in (child, child.pm, fs_after)]
        del child, fs_after
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
