"""Record the expected output digests that ``run.py`` checks against.

Usage, from the repository root::

    python3 perfbench/record_expected.py --seconds 10 --seeds 0-31 [--workload W]

Runs each workload pass untimed (no calibration bursts) and merges the
digests into ``perfbench/expected.json`` under ``"<seconds>s/<seed>"``.
Re-record only when a change to the program is meant to change its
simulated outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import EXPECTED, import_program


class NoLoop:
    """Stands in for the reference loop: recording needs no host timing."""

    def run(self) -> float:
        return 1.0


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="a seed or an inclusive range such as 0-31")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    import_program()
    from workloads import WORKLOADS, Pass

    names = args.workload or sorted(WORKLOADS)
    digests = {}
    for name in names:
        for seed in args.seeds:
            out = WORKLOADS[name](seed, args.seconds).run(Pass(NoLoop()))
            if out.problems or out.failed:
                print(f"{name} seed {seed}: {out.failed} failed, "
                      f"{out.problems}", file=sys.stderr)
                return 1
            digests[(name, f"{args.seconds}s/{seed}")] = out.digest
            print(name, seed, out.digest, flush=True)
    # Read the table only now, so recorders of different workloads can run
    # side by side.
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for (name, key), digest in digests.items():
        table.setdefault(name, {})[key] = digest
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
