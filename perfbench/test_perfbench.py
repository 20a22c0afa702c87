"""Self-tests of the benchmark's own arithmetic and checks.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402


# -- self-time arithmetic -----------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t


def test_self_time_on_nested_call_tree(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layertrace, "_now", clock)
    tr = layertrace.LayerTracer()

    # outer (A, 100) -> mid (B, 30 + burst 5) -> leaf (A, 7); then A again.
    def leaf():
        clock.t += 7

    def mid():
        clock.t += 10
        leaf_w()
        clock.t += 20
        clock.t += 5           # a calibration burst inside ``mid``
        tr.burst(5)

    def outer():
        clock.t += 40
        mid_w()
        clock.t += 60

    leaf_w = tr.timed("A", leaf)
    mid_w = tr.timed("B", mid)
    outer_w = tr.timed("A", outer)
    outer_w()
    clock.t += 13              # unwrapped code between wrapped calls
    leaf_w()

    assert tr.self_ns == {"A": 100 + 7 + 7, "B": 30}
    assert tr.calls == {"A": 3, "B": 1}
    assert tr.calib_ns == 5
    body = clock.t - 5         # the body's host time leaves bursts out
    remainder, problems = tr.check(body)
    assert problems == []
    assert remainder == 13     # the unwrapped code


def test_begin_rebases_open_calls_and_check_flags_overlap(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layertrace, "_now", clock)
    tr = layertrace.LayerTracer()

    def setup_then_body():
        clock.t += 50          # set-up inside the call: not measured
        tr.begin()
        clock.t += 8

    tr.timed("serve", setup_then_body)()
    assert tr.self_ns == {"serve": 8}
    assert tr.check(8) == (0, [])
    remainder, problems = tr.check(5)
    assert remainder == -3 and problems

    # Calls between suspend() and begin(state) are not counted.
    def body():
        clock.t += 8

    state = tr.suspend()
    tr.timed("ext4", body)()
    tr.begin(state)
    tr.timed("serve", body)()
    assert tr.self_ns == {"serve": 16} and tr.calls == {"serve": 2}
    assert tr.check(16) == (0, [])


def test_routed_layer_and_patch_roundtrip():
    tr = layertrace.LayerTracer()

    class Thing:
        def __init__(self, name):
            self.name = name

        def work(self, x):
            return x + 1

        @classmethod
        def make(cls, name):
            return cls(name)

    original = Thing.__dict__["work"]
    tr.patch(Thing, "work", lambda t: "trace" if t.name == "span" else "obs")
    tr.patch(Thing, "make", "alloc")
    assert Thing.make("span").work(1) == 2
    assert Thing("x").work(2) == 3
    assert tr.calls == {"alloc": 1, "trace": 1, "obs": 1}
    tr.uninstall()
    assert Thing.__dict__["work"] is original


# -- calibrated estimator -----------------------------------------------------


def test_calibrated_rate_is_constant_when_host_speed_halves():
    ops_per_chunk, op_s, burst_s = 100, 0.0004, 0.004
    chunks, bursts = [], [burst_s]
    for i in range(200):
        factor = 1.0 if i < 100 else 2.0   # the host halves its speed
        chunks.append(ops_per_chunk * op_s * factor)
        bursts.append(burst_s * factor)
    raw_first = 100 * ops_per_chunk / sum(chunks[:100])
    raw_all = 200 * ops_per_chunk / sum(chunks)
    assert raw_all / raw_first == pytest.approx(2 / 3)

    expected = 1 / (op_s * calib.REF_BURST_S / burst_s)
    whole = 200 * ops_per_chunk / calib.calibrated_seconds(chunks, bursts)
    first = 100 * ops_per_chunk / calib.calibrated_seconds(chunks[:100],
                                                           bursts[:101])
    second = 100 * ops_per_chunk / calib.calibrated_seconds(chunks[100:],
                                                            bursts[100:])
    assert first == pytest.approx(expected, rel=1e-12)
    assert whole == pytest.approx(expected, rel=0.01)
    assert second == pytest.approx(expected, rel=0.02)


def test_window_median_ignores_one_preempted_burst():
    bursts = [1.0, 1.0, 9.0, 1.0, 1.0]
    assert calib.window_reference(bursts, 1) == 1.0
    with pytest.raises(ValueError):
        calib.calibrated_seconds([1.0, 1.0], [1.0, 1.0])


# -- digest check -------------------------------------------------------------


@pytest.fixture(scope="module")
def program():
    run.import_program()


def _varmail_outcome():
    from record_expected import NoLoop
    from workloads import Pass, VarmailWorkload

    return VarmailWorkload(seed=3, seconds=1).run(Pass(NoLoop()))


def test_digest_check_flags_a_perturbed_output(program, monkeypatch):
    out = _varmail_outcome()
    assert _varmail_outcome().digest == out.digest      # deterministic
    assert run.digest_check(out, out.digest) == (out.failed, [])
    assert run.digest_check(out, None) == (out.failed, [])

    # Perturb the device cost model by one nanosecond per store.
    from repro.pmem.device import PersistentMemory

    store = PersistentMemory.store

    def slower_store(self, *args, **kwargs):
        self.clock.charge(1.0)
        return store(self, *args, **kwargs)

    monkeypatch.setattr(PersistentMemory, "store", slower_store)
    perturbed = _varmail_outcome()
    assert perturbed.digest != out.digest
    failed, problems = run.digest_check(perturbed, out.digest)
    assert failed == perturbed.ops and problems


# -- the emitted record ---------------------------------------------------------


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, key):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "varmail",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=300,
        check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
