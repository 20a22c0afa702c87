"""The three benchmark workloads, all on ``splitfs-strict`` with one CPU.

``kv-serve``
    The serve engine's ``kv`` app (the LevelDB model) under a Poisson open
    loop at a fixed offered rate far below the simulated knee, 50% gets and
    50% puts (YCSB-A).  The SplitFS data path, pmem, the clock, the serve
    event loop and the obs histograms do the work; ext4/jbd2 and the crash
    machinery stay idle.
``varmail``
    Filebench varmail on a fresh image: create, append+fsync, read and
    unlink send metadata through SplitFS to ext4 and jbd2, and fsync
    relinks.  Serve and obs stay idle.
``crash-sweep``
    ``crashmc.explore`` with the fork engine and intra-epoch states:
    ``Machine.fork``, per-state recovery, fsck and the oracles dominate,
    and device construction is a large part of set-up.

Each workload runs one *pass*: set-up (device construction, format,
preload or prefill) followed by a fixed number of operations drawn from
the seed.  The amount of work depends only on the seed and the requested
seconds, never on host speed, so every pass of one ``(seed, seconds)``
gives the same simulated outputs and digest.  The program is only driven
through its public entry points; the hooks below see each operation
start, which is where the calibrated clock ticks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
from typing import Callable, Dict, List, Optional

from calib import CalibratedClock, PhaseTimer, ReferenceLoop
from layertrace import LayerTracer

SYSTEM = "splitfs-strict"

#: Simulated offered load for kv-serve (req/s).  The closed-loop capacity
#: of this configuration is about 1.5M req/s, so the server is ~3% busy.
#: A memtable flush stalls the server for up to ~0.7 ms of simulated time;
#: at this rate the ~35 requests arriving meanwhile stay well inside the
#: engine's 64-request admission limit, so none is rejected and shed.
KV_OFFERED_RATE = 50_000.0
KV_RECORDS = 500
#: Request deadline: the flush stall plus the queue behind it finish well
#: within 1 ms, so a miss means the model got slower.
KV_DEADLINE_US = 1000.0

#: Operations per requested second, sized so one pass measures about that
#: many seconds on a 2-core x86-64 VM with Python 3.11.
KV_REQUESTS_PER_S = 30_000
VARMAIL_OPS_PER_S = 4_000
#: crash-sweep explores this many independent workloads per run; their
#: set-up passes between them are not timed.  Per-state host cost follows
#: each workload's random walk (file sizes, operation-log fill), so one
#: long sweep made the rate swing with the seed; several short ones
#: average it out.
CRASH_SWEEPS = 4
CRASH_NOPS_PER_S = 3
CRASH_INTRA_PER_S = 2


class SetupDone(Exception):
    """Ends a set-up-only pass at its first operation."""


class Pass:
    """Host timing of one pass: set-up until the first operation, then
    the calibrated body until the workload returns.

    Workload hooks call :meth:`op` at the start of every operation.
    ``setup_only`` passes stop there by raising :class:`SetupDone`.
    """

    def __init__(self, loop: ReferenceLoop, setup_only: bool = False,
                 tracer: Optional[LayerTracer] = None) -> None:
        self.loop = loop
        self.setup_only = setup_only
        self.tracer = tracer
        self.clock = CalibratedClock(loop)
        self.ops = 0
        self.setup_s = 0.0
        #: Called once when the body starts (after set-up is timed).
        self.on_body: List[Callable[[], None]] = []
        #: Traced passes: layer accounts at the end of set-up and of the
        #: body, the body's unwrapped remainder and accounting violations.
        self.setup_self_ns: Dict[str, int] = {}
        self.setup_calls: Dict[str, int] = {}
        self.layer_self_ns: Dict[str, int] = {}
        self.layer_calls: Dict[str, int] = {}
        self.unwrapped_ns = 0
        self.trace_problems: List[str] = []
        self._setup: Optional[PhaseTimer] = None
        self._suspended: Optional[tuple] = None

    def begin_setup(self) -> None:
        self._setup = PhaseTimer(self.loop)

    def op(self) -> None:
        if not self.ops:
            self._first_op()
        elif not self.clock.running:
            self.clock.start()
            if self.tracer is not None:
                self.tracer.begin(self._suspended)
        else:
            spent = self.clock.tick()
            if spent and self.tracer is not None:
                self.tracer.burst(spent)
        self.ops += 1

    def pause(self) -> None:
        """Stop measuring until the next operation starts."""
        self.clock.stop()
        if self.tracer is not None:
            self._suspended = self.tracer.suspend()

    def _first_op(self) -> None:
        self.setup_s, _ = self._setup.stop()
        if self.setup_only:
            raise SetupDone
        self.clock.start()
        if self.tracer is not None:
            self.setup_self_ns = dict(self.tracer.self_ns)
            self.setup_calls = dict(self.tracer.calls)
            self.tracer.begin()
        for hook in self.on_body:
            hook()

    def end(self) -> None:
        if self.clock.running:
            self.clock.stop()
        tracer = self.tracer
        if tracer is not None:
            self.layer_self_ns = dict(tracer.self_ns)
            self.layer_calls = dict(tracer.calls)
            self.unwrapped_ns, self.trace_problems = tracer.check(
                self.clock.body_ns)


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:32]


def _latency(values_ns: List[float], bucketed: bool) -> Dict[str, float]:
    """Simulated latency metrics from per-operation samples.

    ``bucketed`` takes the quantiles from the program's log-bucketed
    ``Histogram`` (the serve report's estimator), whose interpolation is
    continuous in rank.  Varmail needs it: its four flowop kinds have
    distinct latency modes and the exact median sits at the boundary of
    two of them, jumping between them from seed to seed.  Otherwise the
    quantiles are exact; crash-sweep needs that, because its recovery
    times all fall into one power-of-two bucket, where the histogram
    answers every quantile with the maximum.
    """
    if bucketed:
        from repro.obs.metrics import Histogram

        hist = Histogram("perfbench.latency_ns")
        for v in values_ns:
            hist.record(v)
        p50, p99 = hist.quantile(0.50), hist.quantile(0.99)
    else:
        p50, p99 = (statistics.quantiles(values_ns, n=100,
                                         method="inclusive")[i]
                    for i in (49, 98))
    return {"sim_us_per_op": math.fsum(values_ns) / len(values_ns) / 1e3,
            "sim_p50_us": p50 / 1e3, "sim_p99_us": p99 / 1e3,
            "sim_samples": len(values_ns)}


@dataclasses.dataclass
class Outcome:
    """What one pass produced, apart from host timing."""

    ops: int
    #: Operations whose output is wrong or that missed their deadline.
    failed: int
    #: Invariant violations (each makes the run incorrect).
    problems: List[str]
    digest: str
    #: ``sim_us_per_op``, ``sim_p50_us``, ``sim_p99_us``, ``sim_samples``.
    sim: Dict[str, float]
    #: Traced passes only: per-layer counts and simulated attribution.
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


def gated_observer(clock):
    """Bind an ``Observer`` to ``clock`` that attributes charges only while
    its ``active`` flag is set and counts every charge it sees."""
    from repro.obs.observer import Observer

    class Gated(Observer):
        active = True
        charges = 0

        def on_charge(self, ns, category):
            self.charges += 1
            if self.active:
                super().on_charge(ns, category)

    obs = Gated()
    obs.bind(clock)
    return obs


#: The Observer's span categories (``repro.obs.export.CATEGORY_ORDER``);
#: any other category is summed into ``sim.unlisted_ns_per_op``.
SIM_CATEGORIES = ("usplit", "staging", "oplog", "relink", "fallback", "vfs",
                  "trap", "fs", "alloc", "journal", "fault", "vm", "pmem",
                  "ras", "other")


def _attribution_per_op(totals: Dict[str, float], ops: int) -> Dict[str, float]:
    out = {f"sim.{cat}_ns_per_op": totals.get(cat, 0.0) / ops
           for cat in SIM_CATEGORIES}
    out["sim.unlisted_ns_per_op"] = math.fsum(
        ns for cat, ns in totals.items() if cat not in SIM_CATEGORIES) / ops
    return out


def _device_counts(delta, ops: int) -> Dict[str, float]:
    return {
        "pmem.stores_per_op": delta.stores / ops,
        "pmem.loads_per_op": delta.loads / ops,
        "pmem.bytes_stored_per_op": delta.bytes_written / ops,
        "pmem.fences_per_op": delta.fences / ops,
    }


def background_ns(fs) -> float:
    """Simulated time SplitFS moved off the foreground clock (staging-file
    refills run on a spare thread); the Observer still attributes it."""
    staging = getattr(fs, "staging", None)
    return staging.background_account.total_ns if staging is not None else 0.0


def _sim_total_problem(attributed: float, total: float) -> List[str]:
    """The Observer's categories must partition the simulated time."""
    if not math.isclose(attributed, total, rel_tol=1e-9, abs_tol=1e-6):
        return [f"sim.* categories sum to {attributed!r} ns, "
                f"simulated total is {total!r} ns"]
    return []


# -- kv-serve ------------------------------------------------------------------


class KvServe:
    name = "kv-serve"

    def __init__(self, seed: int, seconds: int) -> None:
        from repro.serve import ServeConfig

        self.cfg = ServeConfig(system=SYSTEM, app="kv", arrival="poisson",
                               offered_rate=KV_OFFERED_RATE,
                               requests=KV_REQUESTS_PER_S * seconds,
                               records=KV_RECORDS, read_fraction=0.5,
                               deadline_us=KV_DEADLINE_US,
                               cpus=1, seed=seed)

    def run(self, p: Pass) -> Outcome:
        from repro.serve import ServeEngine

        traced = p.tracer is not None
        state: Dict[str, object] = {"service_ns": 0.0}

        class Engine(ServeEngine):
            def _build(self):
                machine, workload, ctx = super()._build()
                state["machine"] = machine
                state["fs"] = ctx.fs
                clock = machine.clock
                obs = None
                if traced:
                    obs = gated_observer(clock)
                    obs.active = False
                    state["obs"] = obs

                    def start():
                        state["stats0"] = machine.pm.stats.snapshot()
                        state["bg0"] = background_ns(ctx.fs)
                        obs.charges = 0
                    p.on_body.append(start)
                execute = workload.execute

                def timed_execute(c, req):
                    p.op()
                    if obs is None:
                        return execute(c, req)
                    t0 = clock.now_ns
                    obs.active = True
                    try:
                        return execute(c, req)
                    finally:
                        obs.active = False
                        state["service_ns"] += clock.now_ns - t0

                workload.execute = timed_execute
                return machine, workload, ctx

        p.begin_setup()
        result = Engine(self.cfg).run()
        p.end()
        machine = state["machine"]
        c = result.counters
        problems = []
        if c.generated != c.completed + c.timeouts_queue + c.shed + c.failed:
            problems.append(f"serve outcomes do not add up: {c}")
        hist = machine.metrics.histogram("serve.request.latency_ns")
        digest = _digest(dataclasses.asdict(c), result.duration_ns,
                         result.wait_ns_mean, result.service_ns_mean,
                         hist.count, hist.sum, hist.min, hist.max,
                         hist.buckets)
        ops = c.generated
        out = Outcome(
            ops=ops, failed=ops - c.deadline_met, problems=problems,
            digest=digest,
            sim={"sim_us_per_op": result.service_ns_mean / 1e3,
                 "sim_p50_us": result.latency["p50"] / 1e3,
                 "sim_p99_us": result.latency["p99"] / 1e3,
                 "sim_samples": hist.count})
        if traced:
            obs = state["obs"]
            delta = machine.pm.stats.delta_since(state["stats0"])
            out.layers.update(_device_counts(delta, ops))
            out.layers.update(_attribution_per_op(obs.attribution_totals(), ops))
            out.layers["pmem.charges_per_op"] = obs.charges / ops
            out.layers["serve.sim_wait_us"] = result.wait_ns_mean / 1e3
            out.layers["serve.sim_service_us"] = result.service_ns_mean / 1e3
            bg = background_ns(state["fs"]) - state["bg0"]
            out.problems += _sim_total_problem(obs.total_attributed_ns(),
                                               state["service_ns"] + bg)
        return out


# -- varmail -------------------------------------------------------------------


class VarmailWorkload:
    name = "varmail"

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.ops = VARMAIL_OPS_PER_S * seconds

    def run(self, p: Pass) -> Outcome:
        from repro.apps.filebench import FilebenchConfig, Varmail
        from repro.factory import make_filesystem

        traced = p.tracer is not None
        p.begin_setup()
        machine, fs = make_filesystem(SYSTEM)
        # One operation per run() call lets the benchmark time each op;
        # prefill happens once, here, as part of set-up.
        mail = Varmail(fs, "/fbench", FilebenchConfig(operations=1,
                                                      seed=self.seed))
        mail.prefill()
        mail.prefill = lambda: None
        clock = machine.clock
        lat: List[float] = []
        obs = None
        for i in range(self.ops):
            p.op()
            if i == 0:
                sim0 = clock.now_ns
                bg0 = background_ns(fs)
                stats0 = machine.pm.stats.snapshot()
                if traced:
                    obs = gated_observer(clock)
            t0 = clock.now_ns
            mail.run()
            lat.append(clock.now_ns - t0)
        p.end()
        sim_total = clock.now_ns - sim0
        stats = machine.pm.stats.delta_since(stats0)
        ops = mail.result.operations
        problems = []
        if ops != self.ops:
            problems.append(f"varmail ran {ops} operations, asked {self.ops}")
        out = Outcome(
            ops=ops, failed=0, problems=problems,
            digest=_digest(dataclasses.asdict(mail.result), clock.now_ns,
                           dataclasses.asdict(machine.pm.stats)),
            sim=_latency(lat, bucketed=True))
        if traced:
            out.layers.update(_device_counts(stats, ops))
            out.layers.update(_attribution_per_op(obs.attribution_totals(), ops))
            out.layers["pmem.charges_per_op"] = obs.charges / ops
            out.problems += _sim_total_problem(
                obs.total_attributed_ns(), sim_total + background_ns(fs) - bg0)
        return out


# -- crash-sweep ---------------------------------------------------------------


class CrashSweep:
    name = "crash-sweep"

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.nops = CRASH_NOPS_PER_S * seconds
        self.intra = CRASH_INTRA_PER_S * seconds

    def run(self, p: Pass) -> Outcome:
        from repro.crashmc import explore
        from repro.pmem.device import DeviceStats

        traced = p.tracer is not None
        # The crashed child machine of the last state, with its clock and
        # device counters when the hook saw it.  Recovery and the oracle
        # checks run on the child after the hook returns, so a state's
        # simulated cost is read at the next hook (or after the sweep).
        pending: List[tuple] = []
        sims: List[float] = []
        device = DeviceStats()
        totals = {"charges": 0, "attributed": 0.0}
        attribution: Dict[str, float] = {}

        def close_previous() -> None:
            if not pending:
                return
            machine, t0, s0, obs = pending.pop()
            sims.append(machine.clock.now_ns - t0)
            if obs is not None:
                d = machine.pm.stats.delta_since(s0)
                for k, v in vars(d).items():
                    setattr(device, k, getattr(device, k) + v)
                totals["charges"] += obs.charges
                totals["attributed"] += obs.total_attributed_ns()
                for cat, ns in obs.attribution_totals().items():
                    attribution[cat] = attribution.get(cat, 0.0) + ns

        def hook(label: str, machine) -> None:
            p.op()
            close_previous()
            obs = gated_observer(machine.clock) if traced else None
            pending.append((machine, machine.clock.now_ns,
                            machine.pm.stats.snapshot(), obs))

        p.begin_setup()
        reports = []
        for j in range(CRASH_SWEEPS):
            if j:
                p.pause()
            reports.append(explore(SYSTEM, nops=self.nops,
                                   seed=self.seed * CRASH_SWEEPS + j,
                                   intra=self.intra, engine="fork",
                                   state_hook=hook))
            close_previous()
        p.end()
        ops = sum(r.states_explored for r in reports)
        violations = sum(len(r.violations) for r in reports)
        problems = []
        if violations:
            problems.append(f"{violations} oracle violation(s)")
        if ops != len(sims):
            problems.append(f"{ops} states explored, {len(sims)} seen")
        out = Outcome(
            ops=ops, failed=violations, problems=problems,
            digest=_digest([r.format() for r in reports], math.fsum(sims)),
            sim=_latency(sims, bucketed=False))
        if traced:
            out.layers.update(_device_counts(device, ops))
            out.layers["pmem.charges_per_op"] = totals["charges"] / ops
            out.layers["pmem.cow_copies_per_state"] = sum(
                r.cow.cow_copies for r in reports) / ops
            out.layers.update(_attribution_per_op(attribution, ops))
            out.problems += _sim_total_problem(totals["attributed"],
                                               math.fsum(sims))
        return out


WORKLOADS = {w.name: w for w in (KvServe, VarmailWorkload, CrashSweep)}


# -- layers --------------------------------------------------------------------

#: POSIX entry points wrapped on SplitFS (layer ``core``) and on the ext4
#: kernel file system under it (layer ``ext4``).
POSIX_CALLS = ("open", "close", "dup", "unlink", "rename", "read", "pread",
               "write", "pwrite", "fsync", "lseek", "ftruncate", "stat",
               "fstat", "mkdir", "rmdir", "listdir")
EXT4_EXTRA = ("sync", "fallocate", "ioctl_relink", "punch_hole",
              "commit_running_txn", "mount", "format")


def install_layers(tracer: LayerTracer) -> None:
    """Wrap each layer's public entry points (see the README's layer map)."""
    from repro.apps.filebench import Varmail
    from repro.core.splitfs import SplitFS
    from repro.crashmc import explorer, systems
    from repro.crashmc.workload import Shadow
    from repro.ext4.filesystem import Ext4DaxFS
    from repro.journal.jbd2 import Journal
    from repro.kernel.machine import Machine
    from repro.obs.metrics import Histogram
    from repro.pmem.cow import CowBuffer
    from repro.pmem.device import PersistentMemory
    from repro.serve.engine import ServeEngine
    from repro.serve.workload import KVServeWorkload

    for name in POSIX_CALLS:
        if name in vars(SplitFS):
            tracer.patch(SplitFS, name, "core")
    for name in POSIX_CALLS + EXT4_EXTRA:
        if name in vars(Ext4DaxFS):
            tracer.patch(Ext4DaxFS, name, "ext4")
    tracer.patch(Journal, "commit", "journal")
    for name in ("store", "load", "clwb", "sfence"):
        tracer.patch(PersistentMemory, name, "pmem")
    tracer.patch(PersistentMemory, "__init__", "pmem.device_init")
    tracer.patch(PersistentMemory, "crash", "pmem.crash")
    tracer.patch(CowBuffer, "read", "pmem.cow_read", count_only=True)
    tracer.patch(CowBuffer, "__getitem__", "pmem.cow_read", count_only=True)
    # The tracing Observer keeps per-span histograms of its own; their
    # records are tracing cost, not the program's obs layer.
    tracer.patch(Histogram, "record",
                 lambda h: "trace" if h.name.startswith("span.") else "obs")
    tracer.patch(ServeEngine, "run", "serve")
    tracer.patch(KVServeWorkload, "execute", "apps")
    tracer.patch(Varmail, "run", "apps")
    tracer.patch(Machine, "fork", "kernel.fork")
    tracer.patch(systems, "recover", "core.recover")
    tracer.patch(systems, "assert_clean", "ext4.fsck")
    tracer.patch(explorer, "check_state", "crashmc.oracle")
    for name in ("created", "apply", "content_after"):
        tracer.patch(Shadow, name, "crashmc.shadow")


def layer_metrics(p: Pass) -> Dict[str, float]:
    """Per-op host self times and call counts of one traced pass."""
    ops = p.ops
    us = {k: v / ops / 1e3 for k, v in p.layer_self_ns.items()}
    per = {k: v / ops for k, v in p.layer_calls.items()}
    init_calls = p.setup_calls.get("pmem.device_init", 0)
    return {
        "serve.self_us_per_op": us.get("serve", 0.0),
        "obs.self_us_per_op": us.get("obs", 0.0),
        "apps.self_us_per_op": us.get("apps", 0.0),
        "core.self_us_per_op": us.get("core", 0.0),
        "ext4.self_us_per_op": us.get("ext4", 0.0),
        "journal.self_us_per_op": us.get("journal", 0.0),
        "pmem.self_us_per_op": us.get("pmem", 0.0),
        "core.recover_us_per_state": us.get("core.recover", 0.0),
        "ext4.fsck_us_per_state": us.get("ext4.fsck", 0.0),
        "kernel.fork_us_per_state": us.get("kernel.fork", 0.0),
        "pmem.crash_us_per_state": us.get("pmem.crash", 0.0),
        "crashmc.oracle_us_per_state": us.get("crashmc.oracle", 0.0),
        "crashmc.shadow_us_per_state": us.get("crashmc.shadow", 0.0),
        "trace.observer_us_per_op": us.get("trace", 0.0),
        "trace.unwrapped_us_per_op": p.unwrapped_ns / ops / 1e3,
        "pmem.device_init_ms": (
            p.setup_self_ns.get("pmem.device_init", 0) / init_calls / 1e6
            if init_calls else 0.0),
        "core.calls_per_op": per.get("core", 0.0),
        "ext4.calls_per_op": per.get("ext4", 0.0),
        "journal.commits_per_op": per.get("journal", 0.0),
        "obs.records_per_op": per.get("obs", 0.0),
        "pmem.cow_reads_per_state": per.get("pmem.cow_read", 0.0),
        "kernel.forks_per_state": per.get("kernel.fork", 0.0),
        # Filled in by the workloads that exercise them:
        "serve.sim_wait_us": 0.0,
        "serve.sim_service_us": 0.0,
        "pmem.cow_copies_per_state": 0.0,
    }
