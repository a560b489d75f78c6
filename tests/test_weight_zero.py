"""The weight-zero reduction of Lie-algebra cohomology, checked against the
whole complex.

`ce_cohomology_dims` ranks only the weight-zero subcomplex.  That is exact
because of Cartan's homotopy formula theta_h = d iota_h + iota_h d: the Lie
derivative theta_h is lambda(h) id on the cochains of weight lambda and is
null-homotopic, so every block of nonzero weight is acyclic.  These tests
check the formula itself on every basis cochain, compare the reduced
dimensions with the dimensions of the whole complex, and break the bracket
to see `whitehead` fail.  The whole complex is built here from the
independent `ce_differential`, never from the matrix path.
"""

from itertools import combinations
from pathlib import Path

import pytest

from qcurrent import cli
from qcurrent.cohom import ce_cohomology_dims, whitehead_report
from qcurrent.exactnum import accumulate, rank_of_rows
from qcurrent.liealg import build_sl
from reference import CEChain, act, ce_differential

PINNED = Path(__file__).parent / "data" / "cohomology_up_to_2.txt"


def _pinned_output():
    """{(type, module expression): CLI output lines} of the pinned file."""
    out = {}
    for line in PINNED.read_text().splitlines():
        if line and not line.startswith("#"):
            type_label, expr, text = line.split("\t")
            out.setdefault((type_label, expr), []).append(text)
    return out


PINNED_OUTPUT = _pinned_output()


def _algebra(type_label, sl2, sl3):
    return {"A1": sl2, "A2": sl3}[type_label]


def _basis_cochains(module, m):
    for s in combinations(range(module.g.dim), m):
        for k in range(module.dim):
            yield s, k, CEChain(module, m, {s: {k: 1}})


def _all_blocks_dims(module, up_to):
    """H^0 .. H^up_to of the whole complex: the image of each basis cochain
    under `ce_differential` is one column of d_m, of every weight."""
    dims, prev_rank = [], 0
    for m in range(up_to + 1):
        columns, row_ids = [], {}
        for _, _, omega in _basis_cochains(module, m):
            image = ce_differential(omega)
            columns.append({row_ids.setdefault((t, kprime), len(row_ids)): v
                            for t, vec in image.data.items()
                            for kprime, v in vec.items()})
        rank = rank_of_rows(columns)
        dims.append(len(columns) - rank - prev_rank)
        prev_rank = rank
    return dims


@pytest.mark.parametrize("type_label, expr", sorted(PINNED_OUTPUT))
def test_weight_zero_dims_equal_all_blocks_dims(type_label, expr, sl2, sl3,
                                                capsys):
    module = cli._parse_module_ctor(expr, _algebra(type_label, sl2, sl3))
    dims = ce_cohomology_dims(module, 2)
    assert dims == _all_blocks_dims(module, 2)
    assert cli.main(["cohomology", "--module", expr, "--up-to", "2",
                     "--type", type_label]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == PINNED_OUTPUT[type_label, expr]
    assert lines == [f"H^{m}(g, {module.label}) = {d}"
                     for m, d in enumerate(dims)]


# --- Cartan's homotopy formula ---------------------------------------------------


def _value(omega, xs):
    """omega(x_1, .., x_m) for any index sequence: alternating."""
    if len(set(xs)) < len(xs):
        return {}
    inversions = sum(1 for i in range(len(xs)) for j in range(i + 1, len(xs))
                     if xs[i] > xs[j])
    sign = -1 if inversions & 1 else 1
    return {k: sign * v for k, v in omega.value(tuple(sorted(xs))).items()}


def _iota(h, omega):
    """(iota_h omega)(x_1, .., x_{m-1}) = omega(h, x_1, .., x_{m-1})."""
    g = omega.module.g
    return CEChain(omega.module, omega.m - 1,
                   {r: _value(omega, (h,) + r)
                    for r in combinations(range(g.dim), omega.m - 1)})


def _theta(h, omega):
    """(theta_h omega)(x_1, .., x_m)
    = h . omega(x_1, .., x_m) - sum_i omega(x_1, .., [h, x_i], .., x_m)."""
    module = omega.module
    g = module.g
    out = {}
    for s in combinations(range(g.dim), omega.m):
        vec = act(module, h, omega.value(s))
        for i, x in enumerate(s):
            for z, c in g.bracket_table.get((h, x), {}).items():
                for k, v in _value(omega, s[:i] + (z,) + s[i + 1:]).items():
                    accumulate(vec, k, -c * v)
        out[s] = vec
    return CEChain(module, omega.m, out)


def _scaled(a, c):
    """c * a for a cochain a."""
    return CEChain(a.module, a.m, {s: {k: c * v for k, v in vec.items()}
                                   for s, vec in a.data.items()})


def _plus(a, b):
    """a + b for two cochains of the same degree."""
    return a - _scaled(b, -1)


@pytest.mark.parametrize("type_label, bound", [("A1", 2), ("A2", 1)])
@pytest.mark.parametrize("expr", ["adjoint", "tensor(dual(adjoint), u_slice({}))"])
def test_cartan_homotopy_formula_on_basis_cochains(type_label, bound, expr,
                                                   sl2, sl3):
    """theta_h = d iota_h + iota_h d, and theta_h = lambda(h) id on the
    cochains of weight lambda, for every Cartan generator h and m <= 2."""
    g = _algebra(type_label, sl2, sl3)
    module = cli._parse_module_ctor(expr.format(bound), g)
    weights = module.weights()
    assert weights is not None
    nonzero = 0
    images = {}  # (s, k) -> d of the basis cochain s -> b_k, one degree down
    for m in range(3):
        lower, images = images, {}
        for s, k, omega in _basis_cochains(module, m):
            d_omega = images[s, k] = ce_differential(omega)
            for i in range(g.rank):
                h = g.cartan_index(i)
                theta = _theta(h, omega)
                homotopy = _iota(h, d_omega)
                if m:  # d iota_h omega, by linearity from the images below
                    for r, vec in _iota(h, omega).data.items():
                        (kk, c), = vec.items()
                        homotopy = _plus(homotopy, _scaled(lower[r, kk], c))
                assert theta == homotopy, (m, s, k, i)
                weight = weights[k][i] - sum(g.weights[x][i] for x in s)
                assert theta == CEChain(module, m, {s: {k: weight}})
                nonzero += weight != 0
    assert nonzero  # some blocks have nonzero weight


# --- a broken bracket fails whitehead ------------------------------------------


@pytest.mark.parametrize("n, pair", [(2, ("e", "f")), (3, ("e1", "f1"))])
def test_whitehead_fails_on_a_doubled_bracket(n, pair):
    """[e, f] doubled in the table of a fresh algebra ([f, e] is left as it
    is): g is no longer a Lie algebra.  omega no longer preserves the
    table, so the symmetric U-slice is refused with a SymmetryError; the
    adjoint module keeps the trivial group, and at A2 its dimensions go
    negative (d^2 != 0).  At A1 the adjoint checks still read 0, so the
    failure is asserted on the report."""
    g = build_sl(n)  # fresh: no cached normal form has been computed yet
    a, b = (g.names.index(x) for x in pair)
    g.bracket_table[a, b] = {z: 2 * c for z, c in g.bracket_table[a, b].items()}
    report = whitehead_report(g, 2)
    assert not report.passed
    failed = {check.id for check in report.checks if not check.passed}
    assert {"H1-coefficient-module", "H2-coefficient-module"} <= failed
    assert "H0-trivial" not in failed
    assert all(check.residual.startswith("SymmetryError") for check in report.checks
               if check.id.endswith("coefficient-module"))


def test_whitehead_fails_on_a_tripled_bracket():
    """Every bracket entry tripled at A2, with the algebra's Cartan weights
    left as they were: omega and pi still preserve the table, but each
    module's weights are three times g's, so the differential leaves the
    weight-zero block.  The assembly raises a WeightError, a CheckError,
    so every module check fails with it and the report is returned."""
    g = build_sl(3)
    for key, col in g.bracket_table.items():
        g.bracket_table[key] = {z: 3 * c for z, c in col.items()}
    report = whitehead_report(g, 2)
    assert not report.passed
    failed = [check for check in report.checks if not check.passed]
    assert [check.id for check in failed] == [
        "H1-adjoint", "H2-adjoint", "H1-coefficient-module",
        "H2-coefficient-module"]
    assert all(check.residual == "WeightError: an action leaves the "
               "weight-zero block" for check in failed)
