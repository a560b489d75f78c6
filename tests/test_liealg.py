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
from reference import form, kernel_basis


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
