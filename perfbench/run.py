"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload kv-serve --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
pass untraced and then with per-layer timing wrappers, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is a JSON record with calibration health and the output
digest.  See ``perfbench/README.md`` for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up passes per untraced run; ``setup_s`` reports their median.
SETUP_REPS = 3

EXPECTED = HERE / "expected.json"


def import_program() -> None:
    """Import every program module the workloads use (timed as set-up)."""
    sys.path.insert(0, str(SRC))
    import repro.apps.filebench  # noqa: F401
    import repro.apps.leveldb  # noqa: F401
    import repro.crashmc  # noqa: F401
    import repro.factory  # noqa: F401
    import repro.obs.observer  # noqa: F401
    import repro.serve  # noqa: F401


def expected_digest(workload: str, seconds: int, seed: int):
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text())
    return table.get(workload, {}).get(f"{seconds}s/{seed}")


def digest_check(out, expected):
    """``(failed, problems)`` of a pass against its expected digest.

    A mismatch fails every operation of the pass: the simulated outputs
    are wrong somewhere, and the digest cannot say where.  Seeds without
    a recorded digest are checked by the workload invariants alone.
    """
    if expected is None or expected == out.digest:
        return out.failed, []
    return out.ops, [f"digest {out.digest} != expected {expected}"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(loop, wl, tracer=None):
    from workloads import Pass

    p = Pass(loop, tracer=tracer)
    out = wl.run(p)
    gc.collect()
    return p, out


def setup_seconds(loop, wl, reps: int) -> list:
    """Calibrated set-up time of ``reps`` set-up-only passes."""
    from workloads import Pass, SetupDone

    samples = []
    for _ in range(reps):
        p = Pass(loop, setup_only=True)
        try:
            wl.run(p)
        except SetupDone:
            pass
        else:
            raise RuntimeError("set-up-only pass ran to completion")
        samples.append(p.setup_s)
        gc.collect()
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2

    from calib import PhaseTimer, ReferenceLoop
    from layertrace import LayerTracer
    from workloads import WORKLOADS, install_layers, layer_metrics

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    loop = ReferenceLoop()
    timer = PhaseTimer(loop)
    import_program()
    import_s, _ = timer.stop()
    wl = WORKLOADS[args.workload](args.seed, args.seconds)

    problems = []
    setups = [] if args.trace else setup_seconds(loop, wl, SETUP_REPS - 1)
    p, out = run_pass(loop, wl)
    setups.append(p.setup_s)
    problems += out.problems
    expected = expected_digest(args.workload, args.seconds, args.seed)
    failed, mismatch = digest_check(out, expected)
    problems += mismatch
    ops_per_s = out.ops / p.clock.seconds
    raw_ops_per_s = out.ops / p.clock.raw_seconds
    health = p.clock.health()

    if args.trace:
        tracer = LayerTracer()
        install_layers(tracer)
        try:
            tp, tout = run_pass(loop, wl, tracer)
        finally:
            tracer.uninstall()
        problems += tout.problems
        if (tout.digest, tout.sim) != (out.digest, out.sim):
            problems.append("traced pass changed the simulated outputs")
        problems += [f"trace accounting: {m}" for m in tp.trace_problems]
        layers = layer_metrics(tp)
        layers.update(tout.layers)
        th = tp.clock.health()
        layers.update({
            "trace.overhead_frac": ops_per_s * tp.clock.seconds / tout.ops
            - 1.0,
            "host.raw_ops_per_s": raw_ops_per_s,
            "host.cal_burst_ms": health["burst_ms_median"],
            "host.cal_burst_ms_p25": health["burst_ms_p25"],
            "host.cal_burst_ms_p75": health["burst_ms_p75"],
            "host.cal_bursts": health["bursts"],
            "host.traced_cal_burst_ms": th["burst_ms_median"],
        })
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "setup_s": {"value": import_s + statistics.median(setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
            "sim_us_per_op": {"value": out.sim["sim_us_per_op"], "unit": "us"},
            "sim_p50_us": {"value": out.sim["sim_p50_us"], "unit": "us"},
            "sim_p99_us": {"value": out.sim["sim_p99_us"], "unit": "us"},
        }

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "ops": out.ops, "sim_samples": out.sim["sim_samples"],
        "digest": out.digest, "digest_expected": expected,
        "ops_per_s": ops_per_s, "raw_ops_per_s": raw_ops_per_s,
        "body_raw_s": p.clock.raw_seconds, "body_cal_s": p.clock.seconds,
        "import_s": import_s, "setup_samples_s": setups,
        "calibration": health, "problems": problems,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": out.ops,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    """A per-layer metric's unit, read off its name."""
    for suffix, unit in (("_us_per_op", "us"), ("_us_per_state", "us"),
                         ("_ns_per_op", "ns"), ("_us", "us"), ("_ms", "ms"),
                         ("_ms_p25", "ms"), ("_ms_p75", "ms"),
                         ("_per_s", "1/s"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
