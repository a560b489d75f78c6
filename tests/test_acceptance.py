"""Acceptance criteria, one test per criterion.

Every check is an exact identity over the rationals (zero tolerance); the
stated wall-clock budgets are asserted too.  Run with `pytest -s
tests/test_acceptance.py` to see one line per criterion.
"""

import json
import time

from qcurrent.cli import main
from qcurrent.freequant import verify_coproduct_well_defined
from qcurrent.liealg import build_sl, casimir_adjoint_eigenvalue


def _criterion(number, description, budget_s, thunk):
    start = time.monotonic()
    ok = thunk()
    elapsed = time.monotonic() - start
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[criterion {number:02d}] {status} ({elapsed:.2f}s / "
          f"budget {budget_s}s): {description}", flush=True)
    assert ok, f"criterion {number} failed"
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def test_criterion_01_gnw():
    def run():
        for label in ("A1", "A2"):
            start = time.monotonic()
            if main(["verify", "gnw", "--type", label]) != 0:
                return False
            if time.monotonic() - start >= 5:
                return False
        return True
    _criterion(1, "gnw identities hold exactly for A1 and A2 (< 5s each)",
               10, run)


def test_criterion_02_bialgebra():
    def run():
        return (main(["verify", "bialgebra", "--type", "A1",
                      "--max-u-degree", "3"]) == 0
                and main(["verify", "bialgebra", "--type", "A2",
                          "--max-u-degree", "2"]) == 0)
    _criterion(2, "cobracket antisymmetry, cocycle, co-Jacobi", 10, run)


def test_criterion_03_presentation_and_generation():
    def run():
        return (main(["verify", "min-presentation", "--type", "A1,A2"]) == 0
                and main(["verify", "generation", "--type", "A1",
                          "--max-u-degree", "4"]) == 0
                and main(["verify", "generation", "--type", "A2",
                          "--max-u-degree", "3"]) == 0)
    _criterion(3, "degree-0/1 relations hold and generate every slice", 10, run)


def test_criterion_04_defects_rank2():
    def run():
        return main(["verify", "defects", "--type", "A2"]) == 0
    _criterion(4, "Cartan-pair defects are primitive (Delta D = box D)", 60, run)


def test_criterion_05_sl2_steps(tmp_path):
    path = tmp_path / "sl2-steps.json"

    def run():
        if main(["verify", "sl2-steps", "--type", "A1", "--json",
                 str(path)]) != 0:
            return False
        payload = json.loads(path.read_text())
        ids = {c["id"] for c in payload["checks"] if c["pass"]}
        required = {"del-J-h", "del-J-e", "del-J-f", "step1", "step2",
                    "step2-c0-1", "step2-c0-2", "step2-c0-3", "step2-c0-4",
                    "step3", "step4", "kappa-replacement", "T-eigen-A",
                    "T-eigen-kappa", "T-eigen-cartan", "weight-zero-swap"}
        return required <= ids
    _criterion(5, "all rank-1 coproduct-defect steps, eigenvalue and kappa "
                  "identities", 30, run)


def test_criterion_06_t_identities():
    def run():
        return main(["verify", "t-identities", "--type", "A1,A2"]) == 0
    _criterion(6, "shifted-generator commutators, pairings, bracket symmetry",
               30, run)


def test_criterion_07_coproduct_well_defined():
    def run():
        return main(["verify", "coproduct-wd", "--type", "A1,A2"]) == 0
    _criterion(7, "Delta preserves the defining relations (A1 and A2)", 30, run)


HOPF_IDS = {"counit-law", "antipode-left", "antipode-right",
            "antipode-J-formula", "counit-kills-generators"}


def test_criterion_08_hopf_axioms():
    def run():
        for n, cg in ((2, 4), (3, 6)):
            g = build_sl(n)
            if casimir_adjoint_eigenvalue(g) != cg:
                return False
            # coproduct-wd checks the Hopf laws after the relations
            report = verify_coproduct_well_defined(g)
            ids = {c.id for c in report.checks}
            if not report.passed or not HOPF_IDS <= ids:
                return False
        return True
    _criterion(8, "counit and both antipode laws with S(J(x)) = -J(x) + "
                  "(hbar/4) c_g I(x), c_g = 4 and 6", 5, run)


def test_criterion_09_whitehead():
    def run():
        return (main(["verify", "whitehead", "--type", "A1"]) == 0
                and main(["verify", "whitehead", "--type", "A2"]) == 0)
    _criterion(9, "H^1 = H^2 = 0 for adjoint and dual-adjoint (x) U-slice; "
                  "H^0(trivial) = 1", 60, run)


def test_criterion_10_cartier():
    def run():
        return main(["verify", "cartier"]) == 0
    _criterion(10, "H^2 of the minus cobar subcomplex = 0, dim V <= 3, "
                   "degree <= 4", 60, run)


def test_criterion_11_bicomplex():
    def run():
        return main(["verify", "bicomplex", "--type", "A1", "--seed", "0"]) == 0
    _criterion(11, "dH/dV square to zero and commute on 100 seeded cochains",
               60, run)


def test_criterion_12_solver():
    def run():
        return main(["verify", "solver", "--type", "A1", "--seed", "0"]) == 0
    _criterion(12, "20 seeded solver round-trips, phi - phi_0 = lambda*id",
               120, run)


def test_criterion_13_fault_injection():
    faults = [
        (["verify", "gnw", "--type", "A1", "--inject-fault", "nu"],
         "nu builder perturbed by +h"),
        (["verify", "bialgebra", "--type", "A1", "--inject-fault", "omega"],
         "Casimir pair sign flip"),
        (["verify", "defects", "--type", "A1",
          "--inject-fault", "cocycle-scale"],
         "coproduct cocycle scale doubled"),
        (["verify", "sl2-steps", "--type", "A1",
          "--inject-fault", "drop-step2-term"],
         "step-2 reference term dropped"),
        (["verify", "solver", "--type", "A1",
          "--inject-fault", "noneq-theta"],
         "equivariant correction broken"),
    ]

    def run():
        return all(main(argv) == 1 for argv, _ in faults)
    _criterion(13, "all five documented perturbations exit 1 with residuals",
               60, run)
