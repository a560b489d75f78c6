"""Regenerate `digests.json`: the sha256 of every unit's output on the
current code, for seed-independent units once and for seeded units at each
of the seeds 0-9.

    python3 perfbench/pin_digests.py

Run it only on code whose reports are known to be correct; the benchmark
then rejects any output that differs from these digests.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

PINNED_SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pinned = {}
    for workload in workloads.WORKLOADS:
        for seed in PINNED_SEEDS:
            _, units = run.fresh_setup(workload, seed)
            liealg = sys.modules[f"{run.PACKAGE}.liealg"]
            for unit in units:
                key = workloads.digest_key(unit, seed)
                if key in pinned:
                    continue
                output = unit.run(liealg.build_sl(unit.rank + 1))
                error = workloads.verdict_error(unit, output)
                if error is not None:
                    print(f"{key}: {error}", file=sys.stderr)
                    return 1
                pinned[key] = workloads.digest(output)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pinned)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
