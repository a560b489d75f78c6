import gc
import weakref
from fractions import Fraction as F
from itertools import combinations
from types import SimpleNamespace

import pytest

from qcurrent.cli import run_suite
from qcurrent.current import CurrentEnvelope, current_envelope
from qcurrent.exactnum import rank_of_rows
from qcurrent.freequant import FreeModel, free_model
from qcurrent.liealg import (build_sl, casimir_adjoint_eigenvalue, compose,
                             is_automorphism)
from reference import (element_path_casimir_eigenvalue, form, kernel_basis,
                       matrix_product_tables)


def test_build_sl2_shape(sl2):
    assert sl2.dim == 3
    assert sl2.num_positive == 1
    assert sl2.names == ["f", "h", "e"]  # negative < cartan < positive


def test_build_sl3_shape(sl3):
    assert sl3.dim == 8
    assert sl3.num_positive == 3


def test_build_sl_rejects_small_n():
    with pytest.raises(ValueError):
        build_sl(1)


def test_sl2_bracket_values(sl2):
    e, f, h = (sl2.element_by_name(n) for n in "efh")
    assert sl2.bracket(e, f) == h
    assert sl2.bracket(h, e) == 2 * e
    assert sl2.bracket(h, f) == -2 * f
    assert not sl2.bracket(e, e)


def test_sl2_form_values(sl2):
    e, f, h = (sl2.element_by_name(n) for n in "efh")
    assert form(sl2, e, f) == 1
    assert form(sl2, h, h) == 2
    assert not form(sl2, e, e)


def test_root_count_matches_type_A():
    for n in (2, 3, 4):
        g = build_sl(n)
        assert g.num_positive == n * (n - 1) // 2


def test_cartan_generators_are_brackets(sl3):
    for i in range(sl3.rank):
        t = sl3.bracket(sl3.basis_element(sl3.simple_pos_index(i)),
                        sl3.basis_element(sl3.simple_neg_index(i)))
        assert t == sl3.cartan_generator(i)


def test_simple_root_pairs_normalized(sl3):
    for i in range(sl3.rank):
        assert form(sl3, sl3.basis_element(sl3.simple_pos_index(i)),
                    sl3.basis_element(sl3.simple_neg_index(i))) == 1


def test_jacobi_all_basis_triples(sl3):
    for a, b, c in combinations(range(sl3.dim), 3):
        x, y, z = (sl3.basis_element(i) for i in (a, b, c))
        total = (sl3.bracket(sl3.bracket(x, y), z)
                 + sl3.bracket(sl3.bracket(y, z), x)
                 + sl3.bracket(sl3.bracket(z, x), y))
        assert not total


def test_form_invariance(sl3):
    for a in range(sl3.dim):
        for b in range(sl3.dim):
            for c in range(sl3.dim):
                x, y, z = (sl3.basis_element(i) for i in (a, b, c))
                assert form(sl3, sl3.bracket(x, y), z) == form(sl3, x, sl3.bracket(y, z))


def test_form_nondegenerate(sl3):
    gram = [{b: v for (a2, b), v in sl3.gram.items() if a2 == a and v}
            for a in range(sl3.dim)]
    assert rank_of_rows(gram) == sl3.dim


def test_cartan_pairing_reproduces_roots(sl3):
    # (h, t_i) = alpha_i(h) for h ranging over the Cartan generators
    for i in range(sl3.rank):
        t_i = sl3.cartan_generator(i)
        for j in range(sl3.rank):
            h = sl3.cartan_generator(j)
            assert form(sl3, h, t_i) == sl3.simple_root_value(i, h)


def test_casimir_pairs_symmetric(sl3):
    weights = {}
    for a, b, w in sl3.casimir_pairs:
        weights[a, b] = weights.get((a, b), F(0)) + w
    for (a, b), w in weights.items():
        assert weights.get((b, a)) == w


def test_casimir_adjoint_eigenvalues():
    assert casimir_adjoint_eigenvalue(build_sl(2)) == 4
    assert casimir_adjoint_eigenvalue(build_sl(3)) == 6
    assert casimir_adjoint_eigenvalue(build_sl(4)) == 8


def _typed(items):
    """An ordered item list with each value's type beside it."""
    return [(k, type(v), v) for k, v in items]


@pytest.mark.parametrize("n", range(2, 8))
def test_tables_equal_the_matrix_product_reference(n):
    """The bracket table and the Gram matrix, read off the matrix-unit
    rules, and the weights and Casimir pairs built from them equal the
    sparse matrix products of `reference.matrix_product_tables` as ordered
    item lists, value types included: downstream loops iterate them."""
    g = build_sl(n)
    bracket, gram, weights, pairs = matrix_product_tables(g)
    assert list(g.bracket_table) == list(bracket)
    for key, row in bracket.items():
        assert _typed(g.bracket_table[key].items()) == _typed(row.items()), key
    assert _typed(g.gram.items()) == _typed(gram.items())
    assert g.weights == weights
    assert _typed(((a, b), w) for a, b, w in g.casimir_pairs) == _typed(
        ((a, b), w) for a, b, w in pairs)


@pytest.mark.parametrize("n", range(2, 7))
def test_casimir_eigenvalue_equals_the_element_path(n):
    """The Casimir eigenvalue summed from the bracket table is the
    `LieElement` path's Fraction, 2n on sl_n."""
    g = build_sl(n)
    value = casimir_adjoint_eigenvalue(g)
    assert type(value) is F
    assert value == element_path_casimir_eigenvalue(g) == 2 * n


def _double_e1_f1(g):
    e, f = g.pos_index(0), g.neg_index(0)
    g.bracket_table[e, f] = {z: 2 * c for z, c in g.bracket_table[e, f].items()}


def _double_last_cartan_weight(g):
    a, b, w = g.casimir_pairs[-1]
    assert g.block[a] == g.block[b] == "cartan"
    g.casimir_pairs[-1] = (a, b, 2 * w)


def _add_e1_to_e1_f1(g):
    e, f = g.pos_index(0), g.neg_index(0)
    g.bracket_table[e, f] = {**g.bracket_table[e, f], e: 1}


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("tamper, message", [
    (_double_e1_f1, "Casimir action on the adjoint is not scalar"),
    (_double_last_cartan_weight, "Casimir action on the adjoint is not scalar"),
    (_add_e1_to_e1_f1, "Casimir does not act diagonally on the adjoint basis"),
], ids=("doubled-e1-f1", "doubled-cartan-weight", "e1-in-e1-f1"))
def test_casimir_eigenvalue_refuses_a_tampered_table(n, tamper, message):
    """A doubled [e1, f1] entry and a doubled Cartan weight make the action
    non-scalar, and an e1 term in [e1, f1] makes it non-diagonal: each
    raises the element path's ValueError, on a fresh algebra."""
    g = build_sl(n)
    tamper(g)
    with pytest.raises(ValueError) as reference_error:
        element_path_casimir_eigenvalue(g)
    with pytest.raises(ValueError) as error:
        casimir_adjoint_eigenvalue(g)
    assert str(error.value) == str(reference_error.value) == message


def test_casimir_bracket_map_injective(sl3):
    """The kernel step: [x (x) 1, Omega] = 0 forces x = 0."""
    coords = {}
    for col in range(sl3.dim):
        for (p, q, w) in sl3.casimir_pairs:
            for z, cz in sl3.bracket_table.get((col, p), {}).items():
                key = (z, q)
                coords[key, col] = coords.get((key, col), F(0)) + w * cz
    pairs = sorted({k for (k, _) in coords})
    index = {k: i for i, k in enumerate(pairs)}
    m = [{} for _ in pairs]
    for (key, col), v in coords.items():
        if v:
            m[index[key]][col] = v
    assert len(kernel_basis(m, sl3.dim)) == 0
    assert rank_of_rows(m) == sl3.dim


def test_root_value_requires_cartan(sl2):
    with pytest.raises(ValueError):
        sl2.root_value(0, sl2.element_by_name("e"))


def test_names_resolve_with_aliases(sl2):
    assert sl2.name_to_index["e"] == sl2.name_to_index["e1"]
    assert sl2.name_to_index["h"] == sl2.name_to_index["t1"]


def test_derived_state_is_freed_with_its_algebra():
    """The suites fill one algebra's memo; dropping the algebra frees the
    algebra and every layer's state kept in its memo."""
    g = build_sl(3)
    for suite, degree in (("defects", None), ("whitehead", None), ("solver", 1)):
        args = SimpleNamespace(inject_fault=None, max_u_degree=None,
                               degree=degree, seed=0)
        assert run_suite(suite, g, args).passed, suite
    assert {CurrentEnvelope, FreeModel, "ad", ("solver", 1)} <= set(g._memo)
    refs = [weakref.ref(x) for x in (g, free_model(g), current_envelope(g))]
    del g
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_klein_generators_are_commuting_automorphisms(n):
    """omega(x) = -x^T and pi(x) = PxP are commuting involutive
    automorphisms of the bracket table, and an omega with one sign flipped,
    at any basis element, fails the automorphism check."""
    g = build_sl(n)
    omega, pi = g.klein
    identity = [(i, 1) for i in range(g.dim)]
    assert is_automorphism(g, omega) and is_automorphism(g, pi)
    assert compose(omega, pi) == compose(pi, omega) not in (identity, omega, pi)
    assert compose(omega, omega) == identity == compose(pi, pi)
    for x in range(g.dim):
        flipped = list(omega)
        flipped[x] = (omega[x][0], -omega[x][1])
        assert not is_automorphism(g, flipped), g.names[x]
