"""qcurrent benchmark: end-to-end verify timings and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload structural --seed 0 --seconds 40 --trace 0

The benchmark imports `qcurrent` from `src/` beside this directory and runs
the workload's verify units (see `workloads.py`) round-robin in one process,
`jobs=1`, until `--seconds` is spent.  Every unit output is checked: its
verdict against the unit's expected one, its digest against the pinned
`digests.json` (for the seeds pinned there) and against the unit's digest in
the run's first pass.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics; the spans of
the last traced pass are written to `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
PACKAGE = "qcurrent"

# after the first pass, one more set-up is timed between units whenever this
# many seconds have passed since the last, so the samples spread over the run
SETUP_INTERVAL = 1.0
# seconds from the end of one speed probe to the start of the next
PROBE_INTERVAL = 0.5

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def fresh_setup(workload: str, seed: int):
    """Drop every loaded qcurrent module, then time the import of the CLI
    (which pulls in every layer) and the building of the unit list."""
    for name in package_modules():
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module(f"{PACKAGE}.cli")
    units = workloads.build_units(workload, seed)
    return (start, perf_counter()), units


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs passes over one workload's units and checks every output."""

    def __init__(self, workload: str, seed: int, pinned: dict):
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.first_digest: dict = {}
        self.attempted = 0
        self.failures: list = []
        span, self.units = fresh_setup(workload, seed)
        # (start, end) of each set-up
        self.setups = [span]
        self.last_setup = perf_counter()
        self.liealg = sys.modules[f"{PACKAGE}.liealg"]

    def sample_setup(self) -> None:
        """Time one more fresh import and unit list, then put back the
        modules the units run on."""
        kept = package_modules()
        span, _ = fresh_setup(self.workload, self.seed)
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        self.setups.append(span)
        self.last_setup = perf_counter()

    def run_unit(self, unit):
        """Time one unit on a fresh algebra; returns ((start, end), checks)."""
        gc.collect()
        error = output = None
        start = perf_counter()
        try:
            output = unit.run(self.liealg.build_sl(unit.rank + 1))
        except Exception as exc:  # a raising unit is a wrong outcome
            error = f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        self.attempted += 1
        if error is None:
            error = self.check(unit, output)
        if error is not None:
            self.failures.append(f"{unit.name}: {error}")
        checks = 0 if output is None else (
            1 if isinstance(output, str) else len(output.checks))
        return (start, end), checks

    def check(self, unit, output):
        error = workloads.verdict_error(unit, output)
        if error is not None:
            return error
        got = workloads.digest(output)
        key = workloads.digest_key(unit, self.seed)
        expected = self.pinned.get(key)
        if expected is not None and got != expected:
            return f"digest {got[:12]} != pinned {expected[:12]}"
        first = self.first_digest.setdefault(unit.name, got)
        if got != first:
            return f"digest {got[:12]} differs from the first pass {first[:12]}"
        return None

    def run_pass(self, tracer=None):
        """One pass over every unit; returns ([seconds per unit], checks)."""
        times, checks = [], 0
        for unit in self.units:
            if tracer is not None:
                tracer.begin_unit(unit.name)
            (start, end), n = self.run_unit(unit)
            if tracer is not None:
                tracer.end_unit()
            times.append(end - start)
            checks += n
        return times, checks


def run_plain(runner: Runner, seconds: float) -> dict:
    """Run the units round-robin, starting a unit only while its last time
    still fits in `seconds` (the first pass always runs whole), and report
    each unit's median speed-scaled time.

    The machine's speed drifts by up to 2x when other processes share it,
    over seconds and over whole runs.  So the speed probe runs every
    PROBE_INTERVAL seconds meanwhile, and each unit time, less the probes
    inside it, is divided by the mean time of the probes around and inside
    it and multiplied by `probe.REFERENCE_S`: that reads in seconds at a
    fixed host speed.  Each unit reports the median of these over the run.
    Set-up is sampled between units after the first pass, and scaled and
    reported the same way.
    """
    spans = [[] for _ in runner.units]
    checks = 0
    with probe.Sampler(PROBE_INTERVAL) as sampler:
        start = perf_counter()
        for k in itertools.count():
            i = k % len(spans)
            if spans[i]:
                last_start, last_end = spans[i][-1]
                if perf_counter() - start + last_end - last_start > seconds:
                    break
            span, n = runner.run_unit(runner.units[i])
            spans[i].append(span)
            if k < len(spans):
                checks += n
            if k == len(spans) - 1:
                # a process that has run the workload once, as `qcurrent verify` would
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # after the first pass, so that a set-up's second copy of the
            # modules does not reach into peak_rss_mb
            if k >= len(spans) and perf_counter() - runner.last_setup >= SETUP_INTERVAL:
                runner.sample_setup()
    scaled = [[sampler.scale(*span) for span in col] for col in spans]
    typical = [statistics.median(col) for col in scaled]
    slowest = max(range(len(typical)), key=typical.__getitem__)
    return {
        "passes": min(len(col) for col in spans),
        "checks": checks,
        "slowest": runner.units[slowest].name,
        "samples": [[sampler.net(*span) for span in col] for col in spans],
        "scaled": scaled,
        "probes": [end - start for start, end in sampler.spans],
        "metrics": {
            "setup_s": (statistics.median(sampler.scale(*span)
                                          for span in runner.setups), "s"),
            "wall_s": (sum(typical), "s"),
            "unit_max_s": (typical[slowest], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def layer_metrics(tracer: Tracer, checks: int) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    g = tracer.groups
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "liealg.build_s": (g["liealg.build"].time, "s"),
        "envelope.normal_order_s": (g["envelope.normal_order"].time, "s"),
        "envelope.normal_order_calls": (g["envelope.normal_order"].calls, "count"),
        "envelope.coproduct_s": (g["envelope.coproduct"].time, "s"),
        "current.bracket_s": (g["current.bracket"].time, "s"),
        "freequant.word_multiply_s": (g["freequant.word_multiply"].time, "s"),
        "freequant.word_multiply_calls": (g["freequant.word_multiply"].calls,
                                          "count"),
        "freequant.coproduct_s": (g["freequant.coproduct"].time, "s"),
        "cohom.ce_assembly_s": (g["cohom.ce_assembly"].self_time, "s"),
        "cohom.cobar_s": (g["cohom.cobar"].time, "s"),
        "cohom.dh_s": (g["cohom.dh"].time, "s"),
        "cohom.dh_calls": (g["cohom.dh"].calls, "count"),
        "cohom.dv_s": (g["cohom.dv"].time, "s"),
        "cohom.dv_calls": (g["cohom.dv"].calls, "count"),
        "cohom.solver_self_s": (g["cohom.solver"].self_time, "s"),
        "cohom.dh_calls_per_solve": (ratio(c["dh_in_solver"],
                                           g["cohom.solver"].calls), "ratio"),
        "exactnum.rank_s": (g["exactnum.rank"].time, "s"),
        "exactnum.rank_calls": (g["exactnum.rank"].calls, "count"),
        "exactnum.rank_rows": (c["rank_rows"], "count"),
        "exactnum.rank_nnz": (c["rank_nnz"], "count"),
        "exactnum.rank_yield": (ratio(c["rank_sum"], c["rank_rows"]), "ratio"),
        "exactnum.solve_s": (g["exactnum.solve"].time, "s"),
        "exactnum.solve_calls": (g["exactnum.solve"].calls, "count"),
        "exactnum.solve_rows": (c["solve_rows"], "count"),
        "exactnum.solve_cols": (c["solve_cols"], "count"),
        "exactnum.solve_nnz": (c["solve_nnz"], "count"),
        "reports.checks": (checks, "count"),
    }
    # a hit ratio is absent when its cache is no longer where it is looked for
    for metric, calls in (("envelope.pbw", g["envelope.normal_order"].calls),
                          ("freequant.fm", g["freequant.word_multiply"].calls)):
        if metric not in tracer.cache_missing:
            out[f"{metric}_hit_ratio"] = (
                ratio(calls - tracer.cache_growth[metric], calls), "ratio")
    return out


def run_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced passes; at least one of each."""
    plain_times, traced_times, per_pass = [], [], []
    tracer = Tracer()
    start = perf_counter()
    last = {}
    while True:
        traced = len(traced_times) < len(plain_times)
        t0 = perf_counter()
        if traced:
            tracer.reset()
            with tracer:
                times, checks = runner.run_pass(tracer)
            traced_times.append(times)
            per_pass.append(layer_metrics(tracer, checks))
        else:
            times, _ = runner.run_pass()
            plain_times.append(times)
        last[traced] = perf_counter() - t0
        spent = perf_counter() - start
        if traced and spent + last[False] + last[True] > seconds:
            break
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    best_plain = sum(min(col) for col in zip(*plain_times))
    best_traced = sum(min(col) for col in zip(*traced_times))
    metrics["trace.overhead_frac"] = (best_traced / best_plain - 1, "frac")
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)
    return {"passes": len(traced_times), "checks": per_pass[-1]["reports.checks"][0],
            "samples": list(zip(*plain_times)), "metrics": metrics,
            "spans": sum(1 for s in tracer.spans if s)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no qcurrent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runner = Runner(args.workload, args.seed, load_digests())
    loaded = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"qcurrent was imported from {loaded}, not from {SRC}",
              file=sys.stderr)
        return 2

    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
        result = run_traced(runner, args.seconds, trace_path)
        print(f"# {result['spans']} spans written to {trace_path}")
        for unit, col in zip(runner.units, result["samples"]):
            print(f"# unit {unit.name}: best {min(col):.4f} s, "
                  f"median {statistics.median(col):.4f} s, {len(col)} samples")
    else:
        result = run_plain(runner, args.seconds)
        probes = result["probes"]
        print(f"# slowest unit: {result['slowest']}")
        print(f"# speed probe: {len(probes)} samples, best {min(probes):.4f} s, "
              f"median {statistics.median(probes):.4f} s, "
              f"reference {probe.REFERENCE_S} s")
        for unit, col, scaled in zip(runner.units, result["samples"],
                                     result["scaled"]):
            print(f"# unit {unit.name}: median scaled {statistics.median(scaled):.4f} s; "
                  f"measured best {min(col):.4f} s, median "
                  f"{statistics.median(col):.4f} s; {len(col)} samples")

    failed = len(runner.failures)
    for line in runner.failures:
        print(f"# WRONG {line}")
    print(f"# workload {args.workload}, seed {args.seed}: {len(runner.units)} units, "
          f"{result['checks']} checks per pass, {result['passes']} full passes")
    print(f"# failed_frac = {failed}/{runner.attempted} = "
          f"{failed / runner.attempted:.4f}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
