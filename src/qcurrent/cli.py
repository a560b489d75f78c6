"""Command-line driver: verification suites, expression expansion, and
cohomology dimension queries.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 unknown suite
or bad usage, 3 internal error (such as an unwritable --json path or an
exception inside a check other than a `reports.CheckError`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import cohom, current, envelope, freequant
from .dsl import DSLError, evaluate, render_value
from .liealg import LieAlgebraData, build_sl
from .reports import LEAST_BOUND, Report

SUITES = ("gnw", "bialgebra", "min-presentation", "generation", "defects",
          "sl2-steps", "t-identities", "coproduct-wd", "whitehead", "cartier",
          "bicomplex", "solver")

SUITE_FAULTS = {
    "gnw": ("nu",),
    "bialgebra": ("omega",),
    "defects": ("cocycle-scale",),
    "coproduct-wd": ("cocycle-scale",),
    "sl2-steps": ("drop-step2-term",),
    "solver": ("noneq-theta",),
}

def _sl_n(label: str) -> int:
    """The n of sl_n for the type label A<k>: n = k + 1."""
    if not (label.startswith("A") and label[1:].isdigit() and int(label[1:]) >= 1):
        raise UsageError(f"unsupported algebra type {label!r}; expected A<k> "
                         "with k >= 1 (A1 = sl_2, A2 = sl_3, ...)")
    return int(label[1:]) + 1


class UsageError(Exception):
    pass


# each option -> {suite that reads it: smallest accepted value, or None}
OPTION_READERS = {
    "degree": {s: LEAST_BOUND[s] for s in ("whitehead", "cartier", "bicomplex", "solver")},
    "max_u_degree": {s: LEAST_BOUND[s] for s in ("bialgebra", "generation")},
    "seed": {"bicomplex": None, "solver": None},
}


def _or_default(value: Optional[int], default: int) -> int:
    return default if value is None else value


def run_suite(name: str, g: LieAlgebraData, args) -> Report:
    fault = args.inject_fault
    if name == "gnw":
        return envelope.verify_gnw(g, fault=fault)
    if name == "bialgebra":
        degree = _or_default(args.max_u_degree, 3 if g.n == 2 else 2)
        return current.verify_bialgebra(g, degree, fault=fault)
    if name == "min-presentation":
        return current.verify_min_presentation(g)
    if name == "generation":
        degree = _or_default(args.max_u_degree, 4 if g.n == 2 else 3)
        return current.verify_generation(g, degree)
    if name == "defects":
        return freequant.verify_primitive_defects(g, fault=fault)
    if name == "sl2-steps":
        return freequant.verify_sl2_steps(g, fault=fault)
    if name == "t-identities":
        return freequant.verify_T_identities(g)
    if name == "coproduct-wd":
        return freequant.verify_coproduct_well_defined(g, fault=fault)
    degree = _or_default(args.degree, 4 if name == "cartier" else 2)
    if name == "whitehead":
        return cohom.whitehead_report(g, bound=degree)
    if name == "cartier":
        return cohom.cartier_report(degree)
    seed = _or_default(args.seed, 0)
    if name == "bicomplex":
        return cohom.bicomplex_report(g, bound=degree, seed=seed)
    if name == "solver":
        return cohom.solver_report(g, bound=degree, seed=seed, fault=fault)
    raise UsageError(f"unknown suite {name!r}")


def _verify_sizes(args) -> List[int]:
    """The n of each sl_n that `--type` names, once every verify argument
    is checked: a UsageError says why they cannot run a meaningful suite,
    before any suite runs."""
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from: "
                         f"{', '.join(SUITES)}")
    if args.inject_fault is not None:
        allowed = SUITE_FAULTS.get(args.suite, ())
        if args.inject_fault not in allowed:
            raise UsageError(f"suite {args.suite!r} supports faults: "
                             f"{', '.join(allowed) or '(none)'}")
    for option, readers in OPTION_READERS.items():
        value = getattr(args, option)
        if value is None:
            continue
        flag = f"--{option.replace('_', '-')}"
        if args.suite not in readers:
            raise UsageError(f"suite {args.suite!r} does not read {flag}; "
                             f"it is read by: {', '.join(readers)}")
        if readers[args.suite] is not None and value < readers[args.suite]:
            raise UsageError(f"{flag} must be at least {readers[args.suite]} "
                             f"for suite {args.suite!r}, got {value}")
    sizes = [_sl_n(t.strip()) for t in args.type.split(",") if t.strip()]
    if not sizes:
        raise UsageError("--type names no algebra; expected A<k>, e.g. A1 or A1,A2")
    if args.suite == "sl2-steps" and set(sizes) != {2}:
        raise UsageError("sl2-steps runs on --type A1 only")
    return sizes


def _verify(args) -> int:
    reports = []
    text_out = sys.stderr if args.json == "-" else sys.stdout
    try:
        for n in _verify_sizes(args):
            report = run_suite(args.suite, build_sl(n), args)
            reports.append(report)
            print(report.render(), file=text_out)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        payload = (reports[0].to_json_dict() if len(reports) == 1
                   else [r.to_json_dict() for r in reports])
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0 if all(r.passed for r in reports) else 1


def _expand(args) -> int:
    try:
        g = build_sl(_sl_n(args.type))
        value = evaluate(args.expression, g)
    except (DSLError, UsageError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_value(value))
    return 0


def _int_argument(rest: str, name: str, least: int) -> tuple:
    """The integer argument `(N)` that opens `rest`, checked to be at least
    `least`, and the input after it."""
    arg, close, after = rest[1:].partition(")")
    try:
        value = int(arg) if close else None
    except ValueError:
        value = None
    if value is None:
        raise UsageError(f"{name} needs an integer argument, e.g. {name}(2)")
    if value < least:
        raise UsageError(f"{name} argument must be at least {least}, got {value}")
    return value, after


def _parse_module_ctor(text: str, g: LieAlgebraData) -> cohom.GModule:
    text = text.strip()

    def parse_at(s: str) -> tuple:
        s = s.lstrip()
        for name in ("trivial", "adjoint", "dual", "tensor", "u_slice"):
            if s.startswith(name):
                rest = s[len(name):].lstrip()
                if name == "trivial":
                    if rest.startswith("("):
                        dim, rest2 = _int_argument(rest, name, 1)
                        return cohom.trivial_module(g, dim), rest2
                    return cohom.trivial_module(g), rest
                if name == "adjoint":
                    return cohom.adjoint_module(g), rest
                if name == "u_slice":
                    if not rest.startswith("("):
                        raise UsageError("u_slice needs a degree, e.g. u_slice(2)")
                    degree, rest2 = _int_argument(rest, name, 0)
                    return cohom.u_slice_module(g, degree), rest2
                if name == "dual":
                    if not rest.startswith("("):
                        raise UsageError("dual needs an argument")
                    inner, rest2 = parse_at(rest[1:])
                    rest2 = rest2.lstrip()
                    if not rest2.startswith(")"):
                        raise UsageError("expected ')' after dual argument")
                    return cohom.dual_module(inner), rest2[1:]
                if name == "tensor":
                    if not rest.startswith("("):
                        raise UsageError("tensor needs two arguments")
                    left, rest2 = parse_at(rest[1:])
                    rest2 = rest2.lstrip()
                    if not rest2.startswith(","):
                        raise UsageError("expected ',' between tensor arguments")
                    right, rest3 = parse_at(rest2[1:])
                    rest3 = rest3.lstrip()
                    if not rest3.startswith(")"):
                        raise UsageError("expected ')' after tensor arguments")
                    return cohom.tensor_module(left, right), rest3[1:]
        raise UsageError(f"unknown module constructor near {s[:20]!r}; "
                         "use trivial, adjoint, dual(M), tensor(M,M), u_slice(D)")

    module, rest = parse_at(text)
    if rest.strip():
        raise UsageError(f"trailing input in module expression: {rest!r}")
    return module


def _cohomology(args) -> int:
    try:
        if args.up_to < 0:
            raise UsageError(f"--up-to must be at least 0, got {args.up_to}")
        g = build_sl(_sl_n(args.type))
        module = _parse_module_ctor(args.module, g)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    dims = cohom.ce_cohomology_dims(module, args.up_to)
    for m, d in enumerate(dims):
        print(f"H^{m}(g, {module.label}) = {d}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcurrent",
        description="Exact verification of current-algebra quantization "
                    "identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    p_verify.add_argument("--type", default="A1",
                          help="algebra type A<k> (sl_{k+1}); comma-separated "
                               "for several, e.g. A1,A2")
    p_verify.add_argument("--degree", type=int, default=None,
                          help="PBW filtration bound (default 2) / max "
                               "symmetric degree for cartier (default 4)")
    p_verify.add_argument("--max-u-degree", type=int, default=None,
                          help="largest current degree for bialgebra/generation")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for the randomized checks of bicomplex "
                               "and solver (default 0)")
    p_verify.add_argument("--json", default=None,
                          help="write the JSON report here ('-': stdout, text to stderr)")
    p_verify.add_argument("--inject-fault", default=None,
                          help="named perturbation; the suite must then fail")
    p_verify.set_defaults(func=_verify)

    p_expand = sub.add_parser("expand", help="evaluate an expression to "
                                             "canonical form")
    # optional to argparse, which reads an expression that starts with "-",
    # such as "-G(e)", as an unknown option: see below
    p_expand.add_argument("expression", nargs="?")
    p_expand.add_argument("--type", default="A1")
    p_expand.set_defaults(func=_expand)

    p_cohom = sub.add_parser("cohomology", help="Lie-algebra cohomology "
                                                "dimensions")
    p_cohom.add_argument("--module", required=True,
                         help="constructor expression, e.g. "
                              "tensor(dual(adjoint), u_slice(2))")
    p_cohom.add_argument("--up-to", type=int, default=2)
    p_cohom.add_argument("--type", default="A1")
    p_cohom.set_defaults(func=_cohomology)

    args, unknown = parser.parse_known_args(argv)
    if args.command == "expand" and args.expression is None:
        if not unknown or unknown[0].startswith("--"):
            p_expand.error("the following arguments are required: expression")
        args.expression = unknown.pop(0)
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except Exception as exc:
        # a crash must not read as a failed check (1) or a pass (0)
        print(f"qcurrent: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
