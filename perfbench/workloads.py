"""Workload definitions: each workload is a list of verify units.

A unit is one suite at one algebra type, run on a freshly built
`build_sl(k+1)` so the memo caches start cold, as in one `qcurrent verify`
process.  Every unit declares its expected verdict: clean units pass, fault
injections fail with a residual.

The qcurrent modules are looked up when `build_units` is called, not when
this file is imported, so a fresh import of the package (the set-up the
benchmark times) yields units bound to the fresh modules.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, List, Optional

WORKLOADS = ("structural", "cohomology", "bicomplex-solver")

STRUCTURAL_SUITES = ("gnw", "defects", "t-identities", "coproduct-wd",
                     "bialgebra", "min-presentation", "generation")

# (suite, fault) pairs injected at A1; each must make its suite fail
STRUCTURAL_FAULTS = (("gnw", "nu"), ("bialgebra", "omega"),
                     ("defects", "cocycle-scale"),
                     ("sl2-steps", "drop-step2-term"))

# the README's `expand` examples at A1; None where the README states no output
README_EXPANSIONS = (
    ("Delta(J(h)) - box(J(h))",
     "-hbar*I(f) (x) I(e) + hbar*I(e) (x) I(f)"),
    ("[[J(e),J(f)],J(h)] - hbar^2*(I(f)*J(e)-J(f)*I(e))*I(h)", None),
)


@dataclass
class Unit:
    """One verify unit.

    `rank` is k in the algebra type A<k>, so the unit runs on sl_{k+1}.
    `run(g)` returns a `Report` or, for expansion units, the rendered text.
    `seeded` marks units whose output depends on the workload seed, so their
    pinned digests are keyed by seed.
    """

    name: str
    rank: int
    expect_pass: bool
    run: Callable
    seeded: bool = False


def _args(seed: int, degree: Optional[int] = None,
          fault: Optional[str] = None) -> SimpleNamespace:
    # the attributes `qcurrent verify` parses and `cli.run_suite` reads
    return SimpleNamespace(inject_fault=fault, jobs=1, max_u_degree=None,
                           degree=degree, seed=seed)


def build_units(workload: str, seed: int) -> List[Unit]:
    """The unit list of one workload, bound to the currently imported
    qcurrent modules."""
    cli = importlib.import_module("qcurrent.cli")
    cohom = importlib.import_module("qcurrent.cohom")
    dsl = importlib.import_module("qcurrent.dsl")

    def suite(name, rank, degree=None, fault=None, seeded=False, label=None):
        args = _args(seed, degree, fault)
        return Unit(label or f"{name}@A{rank}", rank, fault is None,
                    lambda g: cli.run_suite(name, g, args), seeded)

    if workload == "structural":
        units = [suite(s, k) for k in range(1, 5) for s in STRUCTURAL_SUITES]
        units.append(suite("sl2-steps", 1))
        units += [suite(s, 1, fault=f, label=f"{s}@A1!{f}")
                  for s, f in STRUCTURAL_FAULTS]

        def expand(g):
            out = []
            for source, expected in README_EXPANSIONS:
                text = dsl.render_value(dsl.evaluate(source, g))
                if expected is not None and text != expected:
                    raise AssertionError(f"expand {source!r} gave {text!r}, "
                                         f"expected {expected!r}")
                out.append(text)
            return "\n".join(out)
        units.append(Unit("expand-readme@A1", 1, True, expand))
        return units
    if workload == "cohomology":
        return [suite("whitehead", 1, degree=6, label="whitehead@A1:b6"),
                suite("whitehead", 2, degree=2, label="whitehead@A2:b2"),
                suite("cartier", 1, degree=8, label="cartier:d8")]
    if workload == "bicomplex-solver":
        return [
            suite("bicomplex", 1, degree=3, seeded=True, label="bicomplex@A1:b3"),
            suite("solver", 1, degree=2, seeded=True, label="solver@A1:b2"),
            suite("solver", 1, degree=3, seeded=True, label="solver@A1:b3"),
            Unit("solver@A2:b2:runs2", 2, True,
                 lambda g: cohom.solver_report(g, bound=2, runs=2, seed=seed),
                 seeded=True),
            suite("solver", 1, degree=2, fault="noneq-theta", seeded=True,
                  label="solver@A1:b2!noneq-theta"),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")


def digest(output) -> str:
    """sha256 of a unit's output: the report's JSON dict without
    `elapsed_ms`, or the rendered expansion text."""
    if isinstance(output, str):
        text = output
    else:
        payload = output.to_json_dict()
        payload.pop("elapsed_ms", None)
        text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_error(unit: Unit, output) -> Optional[str]:
    """Why the output contradicts the unit's expected verdict, or None."""
    if isinstance(output, str):
        return None if unit.expect_pass else "expected a failing report"
    if not output.checks:
        return "report has no checks"
    if unit.expect_pass:
        failed = [c.id for c in output.checks if not c.passed]
        return f"checks failed: {', '.join(failed)}" if failed else None
    if output.passed:
        return "fault injection passed"
    if not all(c.residual for c in output.checks if not c.passed):
        return "a failing check carries no residual"
    return None


def digest_key(unit: Unit, seed: int) -> str:
    return f"{unit.name}#seed{seed}" if unit.seeded else unit.name
