"""Integral structure tables: every table and memo cache that the suites
fill on sl_n holds int coefficients, the Casimir weights are ints except
the non-integral ones of the Cartan block, every word-algebra element is a
reduced int store, nothing anywhere is a float, and a cached normal form is
never changed by a later suite."""

import copy
from fractions import Fraction
from types import SimpleNamespace

import pytest

from math import gcd

from qcurrent import cohom
from qcurrent.cli import SUITES, run_suite
from qcurrent.current import CurrentEnvelope
from qcurrent.envelope import TensorElement, UElement
from qcurrent.exactnum import CoeffMap, HPoly
from qcurrent.freequant import FreeModel
from qcurrent.liealg import build_sl

STRUCTURAL_SUITES = ("gnw", "defects", "t-identities", "coproduct-wd",
                     "bialgebra", "min-presentation", "generation")


def _run(g, suite, degree=None):
    args = SimpleNamespace(inject_fault=None, max_u_degree=None,
                           degree=degree, seed=0)
    report = run_suite(suite, g, args)
    assert report.passed and report.checks, suite


def _caches(g) -> dict:
    """The memo caches of U(g), U(g[u]) and the free model, by name."""
    out = {"_pbw_cache": g._pbw_cache, "coproduct": g._memo.get("coproduct", {}),
           "ad": g._memo.get("ad", {})}
    if CurrentEnvelope in g._memo:
        out["current._pbw_cache"] = g._memo[CurrentEnvelope]._pbw_cache
    if FreeModel in g._memo:
        for name in ("_fm_cache", "_fm_push_cache", "_fm_delta_cache",
                     "_fm_antipode_cache", "_fm_ad_cache"):
            out[f"free_model.{name}"] = getattr(g._memo[FreeModel], name)
    return out


def _numbers(root):
    """Every number reachable from root through containers, elements and
    the package's own objects (keys included)."""
    return (x for x in _reachable(root) if isinstance(x, (int, float, Fraction)))


def _reachable(root):
    """Every object reachable from root through containers, elements and
    the package's own objects (keys included); numbers as often as met."""
    seen = set()
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, (int, float, Fraction)):
            yield x
            continue
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            stack.extend(x)
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, CoeffMap):  # HPoly too
            stack.append(x.data)
        elif type(x).__module__.startswith("qcurrent."):
            names = list(getattr(x, "__dict__", ()))
            for cls in type(x).__mro__:
                names.extend(getattr(cls, "__slots__", ()))
            stack.extend(getattr(x, name, None) for name in names)


@pytest.fixture(scope="module")
def exercised():
    """sl_2..sl_4 after every structural suite; sl_2 also after whitehead
    and the solver at bound 2."""
    algebras = []
    for k in (1, 2, 3):
        g = build_sl(k + 1)
        for suite in STRUCTURAL_SUITES:
            _run(g, suite)
        if k == 1:
            _run(g, "sl2-steps")
            _run(g, "whitehead", degree=2)
            _run(g, "solver", degree=2)
        algebras.append(g)
    return algebras


def test_structure_tables_and_caches_are_int_valued(exercised):
    for g in exercised:
        tables = {"bracket_table": g.bracket_table.values(),
                  "weights": [dict(enumerate(w)) for w in g.weights]}
        for name, cache in _caches(g).items():
            tables[name] = cache.values()
        # the coproduct and antipode images are elements: check their int store
        for name in ("free_model._fm_delta_cache", "free_model._fm_antipode_cache"):
            tables[name] = [poly for element in tables[name]
                            for poly in element.data.values()]
        # the suites reached the caches; coproduct-wd fills both adjoint
        # actions and the antipode at every type
        assert tables["_pbw_cache"] and tables["free_model._fm_cache"]
        assert tables["free_model._fm_delta_cache"]
        assert tables["free_model._fm_antipode_cache"]
        assert tables["ad"] and tables["free_model._fm_ad_cache"]
        for name, coeff_maps in tables.items():
            bad = [c for coeffs in coeff_maps for c in coeffs.values()
                   if type(c) is not int]
            assert not bad, (g, name, bad[:3])


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_casimir_weights_and_omega_table_are_int_where_integral(k):
    g = build_sl(k + 1)
    cartan = range(g.num_positive, g.num_positive + g.rank)
    for a, b, w in g.casimir_pairs:
        if a in cartan:
            assert b in cartan and type(w) is (int if w.denominator == 1 else Fraction)
        else:
            assert type(w) is int and w == 1, (a, b, w)
    assert len({(a, b) for a, b, _ in g.casimir_pairs}) == len(g.casimir_pairs)
    # the Cartan block has denominators, and [x (x) 1, Omega] clears them
    assert any(type(w) is Fraction for _, _, w in g.casimir_pairs)
    bad = [c for entries in g.omega_table.values() for _, c in entries
           if type(c) is not int]
    assert not bad, bad[:3]


def test_no_float_anywhere(exercised):
    for g in exercised:
        numbers = list(_numbers(g))
        floats = [x for x in numbers if isinstance(x, float)]
        assert not floats, (g, floats[:3])
        # the walk reached the Fraction-valued Casimir weights and, on
        # sl_2, the factored correction systems
        assert any(type(x) is Fraction and x.denominator != 1 for x in numbers)
        assert ("solver", 2) in g._memo or g.n != 2


def test_word_algebra_elements_are_reduced_int_stores(exercised):
    """Every UElement and TensorElement the suites left behind is int data
    over a reduced int den, and its HPoly values are ints where integral."""
    for g in exercised:
        elements = [x for x in _reachable(g) if isinstance(x, (UElement, TensorElement))]
        assert any(x.den > 1 for x in elements), g
        for x in elements:
            entries = [c for poly in x.data.values() for c in poly.values()]
            assert type(x.den) is int and x.den >= 1, (g, x.den)
            assert all(type(c) is int and c for c in entries), (g, x.data)
            assert gcd(x.den, *entries) == 1, (g, x.den, x.data)
            for _, value in x.terms():
                assert all(type(c) is (int if c.denominator == 1 else Fraction)
                           for c in value.data.values()), value
    half = HPoly({0: Fraction(1, 2), 1: Fraction(3, 2)})
    for value in (half + half, half * 2, half * half * 4, -half - half,
                  HPoly.rational(Fraction(4, 2))):
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in value.data.values()), value


@pytest.mark.parametrize("first", ["defects", "solver", "coproduct-wd"])
def test_later_suites_never_change_a_cached_normal_form(first):
    g = build_sl(2)
    _run(g, first)
    caches = _caches(g)
    if first == "coproduct-wd":  # it fills the free model's ad I(x) memo
        assert caches["free_model._fm_ad_cache"]
    # the elements in the free-model coproduct cache point at the model:
    # copy their coefficients, not the algebra
    memo = {id(g): g}
    fm = g._memo.get(FreeModel)
    if fm is not None:
        memo[id(fm)] = fm
    snapshot = copy.deepcopy(caches, memo)
    assert sum(map(len, snapshot.values())) > 0
    for suite in SUITES:
        if suite != first:
            _run(g, suite)
    for name, entries in snapshot.items():
        live = _caches(g)[name]
        for key, value in entries.items():
            assert live[key] == value, (name, key)


@pytest.fixture(scope="module")
def bicomplex_path():
    """The cochains that dH, dV and `solve_correction` return while
    `bicomplex` runs on sl_2 and `solver` on sl_2 and sl_3, all at bound 2,
    by function name; and the two algebras."""
    returned = {}

    def recording(name, f):
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            returned.setdefault(name, []).append(out)
            return out
        return wrapper
    patch = pytest.MonkeyPatch()
    for name in ("bicomplex_dh", "bicomplex_dv", "solve_correction"):
        patch.setattr(cohom, name, recording(name, getattr(cohom, name)))
    try:
        algebras = [build_sl(2), build_sl(3)]
        _run(algebras[0], "bicomplex", degree=2)
        for g in algebras:
            _run(g, "solver", degree=2)
    finally:
        patch.undo()
    return returned, algebras


def test_bicomplex_and_solver_cochains_are_int_over_one_denominator(
        bicomplex_path):
    returned, _ = bicomplex_path
    assert sorted(returned) == ["bicomplex_dh", "bicomplex_dv",
                                "solve_correction"]
    for name, cochains in returned.items():
        for w in cochains:
            assert type(w.den) is int and w.den >= 1, (name, w.den)
            entries = [c for tensor in w.data.values() for c in tensor.values()]
            bad = [c for c in entries if type(c) is not int]
            assert not bad, (name, bad[:3])
            # reduced: no zero entry, no empty tensor, no common factor
            assert all(entries) and all(w.data.values()), (name, w.data)
            assert gcd(w.den, *entries) == 1, (name, w.den, entries[:3])


def test_solver_factorizations_hold_only_ints(bicomplex_path):
    _, algebras = bicomplex_path
    for g in algebras:
        systems = [s for s in g._memo.values()
                   if isinstance(s, cohom.CorrectionSystem)]
        assert systems, g
        for system in systems:
            for fact in (system.stack,):
                numbers = [scale for _, scale in fact.row_scales]
                for _, _, pivot, rest, ops in fact.steps:
                    numbers.append(pivot)
                    numbers.extend(v for _, v in rest)
                    numbers.extend(x for _, p, q in ops for x in (p, q))
                assert fact.steps
                assert all(type(x) is int for x in numbers), (g, fact)
