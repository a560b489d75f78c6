import gc
import json
import weakref

import pytest

from qcurrent import cli
from qcurrent.cli import main
from qcurrent.liealg import build_sl


def test_verify_exit_zero(capsys):
    assert main(["verify", "gnw", "--type", "A1"]) == 0
    out = capsys.readouterr().out
    assert "suite gnw [A1]" in out
    assert "FAIL" not in out


def test_verify_keeps_no_algebra_alive(monkeypatch, capsys):
    """Each command builds its algebra, and nothing holds it afterwards."""
    built = []

    def recording_build_sl(n):
        g = build_sl(n)
        built.append(weakref.ref(g))
        return g
    monkeypatch.setattr(cli, "build_sl", recording_build_sl)
    assert main(["verify", "gnw", "--type", "A1"]) == 0
    gc.collect()
    assert len(built) == 1 and built[0]() is None


def test_verify_multi_type(capsys):
    assert main(["verify", "min-presentation", "--type", "A1,A2"]) == 0
    out = capsys.readouterr().out
    assert "[A1]" in out and "[A2]" in out


def test_unknown_suite_exit_two(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_wrong_fault_exit_two(capsys):
    assert main(["verify", "gnw", "--inject-fault", "omega"]) == 2


def test_sl2_only_suite_guard(capsys):
    assert main(["verify", "sl2-steps", "--type", "A2"]) == 2


@pytest.mark.parametrize("suite, types", [
    ("gnw", "A1,A0"), ("sl2-steps", "A1,A0"), ("sl2-steps", "A1,A2")])
def test_every_type_label_is_checked_before_any_suite_runs(suite, types,
                                                           tmp_path, capsys):
    """An unsupported label, or a label sl2-steps does not run on, exits 2
    before the first algebra's suite has run or printed anything."""
    path = tmp_path / "report.json"
    assert main(["verify", suite, "--type", types, "--json", str(path)]) == 2
    assert capsys.readouterr().out == ""
    assert not path.exists()


def test_fault_exit_one(capsys):
    assert main(["verify", "gnw", "--inject-fault", "nu"]) == 1
    out = capsys.readouterr().out
    assert "residual" in out


def test_json_report_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "min-presentation", "--type", "A1",
                 "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert set(payload) == {"suite", "algebra", "checks", "seed", "elapsed_ms"}
    assert payload["suite"] == "min-presentation"
    assert payload["algebra"] == "A1"
    for check in payload["checks"]:
        assert set(check) <= {"id", "anchor", "pass", "residual"}
        assert check["pass"] is True
        assert "residual" not in check  # present iff fail


def test_json_residual_present_iff_fail(tmp_path, capsys):
    path = tmp_path / "fault.json"
    assert main(["verify", "gnw", "--type", "A1", "--inject-fault", "nu",
                 "--json", str(path)]) == 1
    capsys.readouterr()
    payload = json.loads(path.read_text())
    for check in payload["checks"]:
        assert ("residual" in check) == (not check["pass"])


def test_json_deterministic_for_fixed_seed(tmp_path, capsys):
    """Identical seeds give identical reports, up to the wall-time field."""
    texts = []
    for k in (0, 1):
        path = tmp_path / f"r{k}.json"
        assert main(["verify", "bicomplex", "--type", "A1", "--seed", "7",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        payload["elapsed_ms"] = 0
        texts.append(json.dumps(payload, sort_keys=True))
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_expand(capsys):
    assert main(["expand", "Delta(J(h)) - box(J(h))", "--type", "A1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-hbar*I(f) (x) I(e) + hbar*I(e) (x) I(f)"


def test_expand_takes_an_expression_that_starts_with_a_minus(capsys):
    """In the usual place, or after `--`."""
    assert main(["expand", "-G(e)", "--type", "A1"]) == 0
    assert main(["expand", "--type", "A1", "--", "-G(e)"]) == 0
    assert capsys.readouterr().out == "-e*u^1\n-e*u^1\n"


@pytest.mark.parametrize("argv", [
    ["expand", "G(e)", "--bogus"], ["expand", "--bogus"], ["expand"],
    ["expand", "-G(e)", "-G(f)"], ["verify", "gnw", "--bogus"],
    ["cohomology", "--module", "adjoint", "--bogus"]])
def test_an_unknown_option_or_a_missing_expression_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_expand_parse_error(capsys):
    assert main(["expand", "[J(e), ", "--type", "A1"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_expand_unknown_type(capsys):
    assert main(["expand", "e", "--type", "B2"]) == 2


def test_cohomology_command(capsys):
    assert main(["cohomology", "--module", "tensor(dual(adjoint), u_slice(2))",
                 "--up-to", "2", "--type", "A1"]) == 0
    out = capsys.readouterr().out
    assert "H^1" in out and "= 0" in out


def test_cohomology_bad_ctor(capsys):
    assert main(["cohomology", "--module", "mystery", "--type", "A1"]) == 2


@pytest.mark.parametrize("module, up_to", [
    ("trivial(x)", "2"),
    ("trivial(", "2"),
    ("u_slice(x)", "2"),
    ("u_slice(-1)", "2"),
    ("trivial(0)", "2"),
    ("adjoint", "-1"),
])
def test_cohomology_bad_arguments_exit_two(module, up_to, capsys):
    """Malformed or meaningless module arguments and a negative --up-to are
    usage errors, rejected before any cohomology is computed."""
    assert main(["cohomology", "--module", module, "--up-to", up_to,
                 "--type", "A1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err and "internal error" not in captured.err


def test_discriminating_pair_via_cli(capsys):
    assert main(["verify", "coproduct-wd", "--type", "A1",
                 "--inject-fault", "cocycle-scale"]) == 0
    assert main(["verify", "defects", "--type", "A1",
                 "--inject-fault", "cocycle-scale"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "gnw", "--type", ""],
    ["verify", "gnw", "--type", " , "],
    ["verify", "generation", "--max-u-degree", "1"],
    ["verify", "generation", "--max-u-degree", "0"],
    ["verify", "bialgebra", "--max-u-degree", "0"],
    ["verify", "cartier", "--degree", "-1"],
    ["verify", "bicomplex", "--degree", "-1"],
    ["verify", "whitehead", "--degree", "-1"],
    ["verify", "gnw", "--degree", "3"],
    ["verify", "solver", "--max-u-degree", "3"],
])
def test_vacuous_or_invalid_bounds_exit_two(argv, capsys):
    """Runs that would check nothing, silently swap in a default, or ignore
    a bound option the suite never reads, are usage errors rejected before
    any work."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err


@pytest.mark.parametrize("suite", ["gnw", "whitehead", "cartier", "sl2-steps"])
def test_seed_is_refused_by_a_suite_that_does_not_read_it(suite, capsys):
    """Only bicomplex and solver draw random data: any other suite would
    ignore the seed, so giving one is a usage error."""
    assert main(["verify", suite, "--type", "A1", "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err and "bicomplex, solver" in captured.err


@pytest.mark.parametrize("suite", ["bicomplex", "solver"])
def test_seed_is_read_by_bicomplex_and_solver(suite, tmp_path, capsys):
    """A negative seed is accepted, and without --seed the seed is 0."""
    for argv, seed in ((["--seed", "-3"], -3), ([], 0)):
        path = tmp_path / "r.json"
        assert main(["verify", suite, "--type", "A1", "--degree", "1", *argv,
                     "--json", str(path)]) == 0
        assert json.loads(path.read_text())["seed"] == seed
    capsys.readouterr()


def test_zero_degree_is_not_replaced_by_default(capsys):
    assert main(["verify", "whitehead", "--degree", "0"]) == 0
    out = capsys.readouterr().out
    assert "U<= 0" in out and "U<= 2" not in out


def test_expand_zero_denominator_exit_two(capsys):
    assert main(["expand", "1/0", "--type", "A1"]) == 2
    err = capsys.readouterr().err
    assert "zero denominator" in err and "line 1, column 2" in err


def test_expand_evaluation_error_reports_no_position(capsys):
    """An evaluation error has no source position, so it claims none."""
    assert main(["expand", "1 + nu(e)", "--type", "A1"]) == 2
    err = capsys.readouterr().err
    assert "nu expects a Cartan element" in err and "column" not in err


def test_unwritable_json_path_exit_three(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "out.json"
    assert main(["verify", "gnw", "--type", "A1", "--json", str(path)]) == 3
    captured = capsys.readouterr()
    assert "suite gnw [A1]" in captured.out  # the checks ran first
    err = captured.err.strip()
    assert err.startswith("qcurrent: internal error: FileNotFoundError")
    assert "\n" not in err and "Traceback" not in err
    assert not path.exists()


def test_crash_inside_a_check_exit_three(monkeypatch, capsys):
    """An exception inside a check that is not a `CheckError` is an internal
    error, not a failed check."""
    from qcurrent import cohom

    def crash(alpha, n):
        raise TypeError("rank of a non-matrix")

    monkeypatch.setattr(cohom, "_block_cohomology_dim", crash)
    assert main(["verify", "cartier", "--degree", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == \
        "qcurrent: internal error: TypeError: rank of a non-matrix"


_HOPF_IDS = ["counit-law", "antipode-left", "antipode-right",
             "antipode-J-formula", "counit-kills-generators"]


@pytest.mark.parametrize("argv, suite, algebra, ids", [
    (["cartier", "--degree", "2"], "cartier", "Sym(V), dim V in {1,2,3}",
     [f"V{v}-H2-minus-degree-{d}" for v in (1, 2, 3) for d in range(3)]),
    (["coproduct-wd", "--type", "A1"], "coproduct-wd", "A1",
     ["relations-iota-iota", "relations-iota-J", "rewrite-equivariance"]
     + _HOPF_IDS),
    (["coproduct-wd", "--type", "A1", "--inject-fault", "cocycle-scale"],
     "coproduct-wd", "A1",
     ["relations-iota-iota", "relations-iota-J", "rewrite-equivariance"]),
])
def test_json_check_ids_are_pinned(argv, suite, algebra, ids, capsys):
    """The check ids, suite and label of the reports that are assembled from
    several parts: cartier's three dimensions of V, and coproduct-wd's
    relations followed by the Hopf laws, which a fault run leaves out."""
    assert main(["verify", *argv, "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert (payload["suite"], payload["algebra"]) == (suite, algebra)
    assert [c["id"] for c in payload["checks"]] == ids


@pytest.mark.parametrize("types", ("A1", "A1,A2"))
def test_json_to_stdout_parses_with_the_text_report_on_stderr(types, capsys):
    """With `--json -`, stdout is the JSON report alone (an array for
    several algebras), and the text report goes to stderr."""
    assert main(["verify", "gnw", "--type", types, "--json", "-"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    reports = payload if isinstance(payload, list) else [payload]
    assert [r["algebra"] for r in reports] == types.split(",")
    for label in types.split(","):
        assert f"suite gnw [{label}]" in captured.err
    assert "suite gnw" not in captured.out


def _sl_with_last_cartan_weight_doubled(n):
    g = build_sl(n)
    a, b, w = g.casimir_pairs[-1]
    g.casimir_pairs[-1] = (a, b, 2 * w)
    return g


def _sl_with_e1_f1_doubled(n):
    g = build_sl(n)
    e, f = g.pos_index(0), g.neg_index(0)
    g.bracket_table[e, f] = {z: 2 * c for z, c in g.bracket_table[e, f].items()}
    return g


@pytest.mark.parametrize("suite, tamper, failing, message", [
    ("coproduct-wd", _sl_with_last_cartan_weight_doubled,
     ("antipode-left", "antipode-right", "antipode-J-formula"),
     "Casimir action on the adjoint is not scalar"),
    ("sl2-steps", _sl_with_e1_f1_doubled,
     ("kappa-replacement", "T-eigen-kappa"), "kappa fails to be central"),
], ids=("casimir-not-scalar", "kappa-not-central"))
def test_a_table_that_is_not_sl2s_fails_the_checks_that_read_it(
        suite, tamper, failing, message, monkeypatch, tmp_path, capsys):
    """A fresh A1 algebra whose Casimir is not scalar on the adjoint, or
    whose kappa is not central, fails each check that reads the eigenvalue
    or kappa with a CheckError, and the CLI exits 1, not 3."""
    monkeypatch.setattr(cli, "build_sl", tamper)
    path = tmp_path / "report.json"
    assert main(["verify", suite, "--type", "A1", "--json", str(path)]) == 1
    assert "internal error" not in capsys.readouterr().err
    checks = {c["id"]: c for c in json.loads(path.read_text())["checks"]}
    for check_id in failing:
        assert checks[check_id]["residual"] == f"CheckError: {message}"
    if suite == "coproduct-wd":
        assert checks["antipode-J-formula"]["anchor"] == \
            "S(J(x)) = -J(x) + (hbar/4)*c_g*I(x)"


def test_the_antipode_anchor_names_the_eigenvalue(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "coproduct-wd", "--type", "A1", "--json", str(path)]) == 0
    checks = {c["id"]: c for c in json.loads(path.read_text())["checks"]}
    assert checks["antipode-J-formula"]["anchor"] == "S(J(x)) = -J(x) + (hbar/4)*4*I(x)"
