"""Check/report containers shared by all verification suites."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional


# the least size bound each suite takes, below which it would check nothing:
# the suite refuses less with ValueError, and `qcurrent verify` refuses it
# (exit 2) before any suite runs
LEAST_BOUND = {"whitehead": 0, "cartier": 0, "bicomplex": 0, "solver": 0,
               "bialgebra": 1, "generation": 2}


class CheckError(ValueError):
    """Raised inside a check when the identity or a precondition it
    verifies does not hold.  `run_checks` reports it as a failed check;
    any other exception is an internal error and propagates."""


@dataclass
class Check:
    """Outcome of one identity check.

    `anchor` holds the identity being verified, in the surface syntax of the
    expression DSL, so reports are readable on their own.  `residual` is the
    rendered nonzero difference and is present exactly when the check fails.
    """

    id: str
    anchor: str
    passed: bool
    residual: Optional[str] = None

    def to_json_dict(self) -> dict:
        d = {"id": self.id, "anchor": self.anchor, "pass": self.passed}
        if not self.passed:
            d["residual"] = self.residual or ""
        return d


@dataclass
class Report:
    suite: str
    algebra: str
    checks: List[Check] = field(default_factory=list)
    seed: Optional[int] = None
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "algebra": self.algebra,
            "checks": [c.to_json_dict() for c in self.checks],
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }

    def render(self) -> str:
        lines = [f"suite {self.suite} [{self.algebra}]"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.id}: {c.anchor}")
            if not c.passed and c.residual:
                lines.append(f"         residual: {c.residual}")
        verdict = "OK" if self.passed else "FAILED"
        lines.append(f"  {len(self.checks)} checks, {verdict} ({self.elapsed_ms} ms)")
        return "\n".join(lines)


MAX_RESIDUAL_CHARS = 400


def residual_text(value) -> str:
    """Render a nonzero element for a failure message, truncated for sanity."""
    text = value.render() if hasattr(value, "render") else str(value)
    if len(text) > MAX_RESIDUAL_CHARS:
        text = text[:MAX_RESIDUAL_CHARS] + " ..."
    return text


def run_checks(suite: str, algebra: str,
               specs: List[tuple],
               seed: Optional[int] = None) -> Report:
    """Run (id, anchor, thunk) checks in declaration order.

    A thunk returns None on success or a residual string on failure.  A
    `CheckError` it raises becomes a failure whose residual is
    `"<type>: <message>"`; any other exception propagates, so a crash is
    never reported as a failed check.
    """

    def run_one(spec):
        check_id, anchor, thunk = spec
        try:
            residual = thunk()
        except CheckError as exc:
            return Check(check_id, anchor, False, f"{type(exc).__name__}: {exc}")
        if residual is None:
            return Check(check_id, anchor, True)
        return Check(check_id, anchor, False, residual)

    start = time.monotonic()
    checks = [run_one(s) for s in specs]
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(suite=suite, algebra=algebra, checks=checks,
                  seed=seed, elapsed_ms=elapsed)


def zero_or_residual(element) -> Optional[str]:
    """Standard check body: pass iff the element is exactly zero."""
    if not element:
        return None
    return residual_text(element)
