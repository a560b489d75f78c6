"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They run a handful of cheap units, not whole workloads.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# the cheapest units of each workload, well under a second each
CHEAP = {
    "structural": {"gnw@A1", "coproduct-wd@A2", "gnw@A1!nu", "expand-readme@A1"},
    "cohomology": {"whitehead@A1:b6"},
    "bicomplex-solver": {"solver@A1:b2"},
}


def cheap_runner(workload: str, seed: int = 0) -> run.Runner:
    runner = run.Runner(workload, seed, run.load_digests())
    runner.units = [u for u in runner.units if u.name in CHEAP[workload]]
    assert len(runner.units) == len(CHEAP[workload])
    return runner


def test_traced_and_untraced_runs_give_identical_digests():
    for workload in workloads.WORKLOADS:
        runner = cheap_runner(workload)
        liealg = runner.liealg
        originals = {name: getattr(runner.liealg, name) for name in vars(liealg)}
        for unit in runner.units:
            plain = workloads.digest(unit.run(liealg.build_sl(unit.rank + 1)))
            with Tracer() as tracer:
                tracer.begin_unit(unit.name)
                traced = workloads.digest(unit.run(liealg.build_sl(unit.rank + 1)))
                tracer.end_unit()
            assert traced == plain, unit.name
            assert tracer.spans, unit.name
        # every patched name is restored on exit
        assert all(getattr(liealg, n) is f for n, f in originals.items())


def test_tracer_patches_names_bound_by_consumers():
    runner = cheap_runner("cohomology")
    cohom = sys.modules["qcurrent.cohom"]
    exactnum = sys.modules["qcurrent.exactnum"]
    original = exactnum.rank_of_rows
    with Tracer() as tracer:
        assert cohom.rank_of_rows is exactnum.rank_of_rows is not original
        runner.run_pass(tracer)
        assert tracer.groups["exactnum.rank"].calls > 0
        # normal_order recursion is counted but timed once per outer call
        outer = sum(1 for s in tracer.spans if s and s[4] == "normal_order")
        assert 0 < outer <= tracer.groups["envelope.normal_order"].calls
    assert cohom.rank_of_rows is original is exactnum.rank_of_rows


def test_self_time_excludes_child_spans():
    runner = cheap_runner("cohomology")
    with Tracer() as tracer:
        runner.run_pass(tracer)
    ce = tracer.groups["cohom.ce_assembly"]
    assert 0 < ce.self_time < ce.time


def test_wrong_expected_verdict_raises_failed_frac():
    runner = cheap_runner("structural")
    for unit in runner.units:
        unit.expect_pass = not unit.expect_pass
    runner.run_pass()
    assert runner.attempted == len(runner.units)
    assert len(runner.failures) == len(runner.units)


def test_pinned_digest_mismatch_counts_as_failed():
    runner = cheap_runner("bicomplex-solver", seed=3)
    (unit,) = runner.units
    runner.pinned = {workloads.digest_key(unit, 3): "0" * 64}
    runner.run_pass()
    assert runner.failures and "pinned" in runner.failures[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_appears_with_its_unit(workload, tmp_path):
    runner = cheap_runner(workload)
    plain = run.run_plain(runner, seconds=0)["metrics"]
    traced = run.run_traced(runner, 0, tmp_path / "trace.jsonl")["metrics"]
    assert not runner.failures
    for section, got in (("end_to_end", plain), ("per_layer", traced)):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {name: unit for name, (_, unit) in got.items()} == expected
    assert all(value > 0 for value, _ in plain.values())
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


def test_scaling_uses_the_probes_around_and_inside_an_interval():
    sampler = probe.Sampler(0.5)
    sampler.spans = [(0.0, 0.1), (1.0, 1.2), (3.0, 3.1), (4.0, 4.4)]
    # probes 0.1 before, 0.2 inside, 0.1 after; the one inside is not counted
    expected = (2.0 - 0.5 - 0.2) * probe.REFERENCE_S / ((0.1 + 0.2 + 0.1) / 3)
    assert sampler.scale(0.5, 2.0) == pytest.approx(expected)


def test_every_timed_unit_is_scaled():
    runner = cheap_runner("cohomology")
    result = run.run_plain(runner, seconds=1)
    assert [len(c) for c in result["scaled"]] == [len(c) for c in result["samples"]]
    assert len(result["probes"]) >= 2
    assert all(s > 0 for col in result["scaled"] for s in col)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "structural",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
