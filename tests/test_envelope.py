from fractions import Fraction as F
from itertools import combinations_with_replacement
from random import Random

import pytest

from qcurrent.envelope import (TensorElement, UElement, box_n, coproduct,
                               kappa, mono_coproduct_terms, normal_order, nu,
                               verify_gnw, w_element)
from qcurrent.exactnum import HPoly, accumulate
from qcurrent.liealg import build_sl, casimir_adjoint_eigenvalue
from reference import adjoint_action, casimir_tensor, quadratic_casimir


def letters(g):
    f, h, e = (UElement.letter(g, i) for i in (0, 1, 2))
    return f, h, e


def test_normal_order_single_swap(sl2):
    # letters sorted f < h < e; the word (e, f) straightens to fe + h
    assert normal_order(sl2, (2, 0)) == {(0, 2): F(1), (1,): F(1)}


def test_normal_order_sorted_word_fixed(sl2):
    word = (0, 0, 1, 2)
    assert normal_order(sl2, word) == {word: F(1)}


def test_normal_order_equal_letters(sl2):
    assert normal_order(sl2, (2, 2)) == {(2, 2): F(1)}


def test_multiply_unit(sl2):
    f, h, e = letters(sl2)
    one = UElement.unit(sl2)
    assert one * e == e
    assert e * one == e


def test_multiply_examples(sl2):
    f, h, e = letters(sl2)
    assert (e * f) == f * e + h
    assert (h * h).render() == "h*h"


def test_bracket_examples(sl2):
    f, h, e = letters(sl2)
    assert not e.bracket(e)
    assert e.bracket(f) == h
    assert not h.bracket(f * e)  # weight-zero element commutes with h


def test_associativity_on_random_words(sl2, sl3):
    rng = Random(31)
    for g in (sl2, sl3):
        for _ in range(30):
            words = [tuple(rng.randrange(g.dim)
                           for _ in range(rng.randint(1, 3)))
                     for _ in range(3)]
            a, b, c = (UElement.from_word(g, w) for w in words)
            assert (a * b) * c == a * (b * c)


def test_coproduct_of_letters_is_primitive(sl3):
    for i in range(sl3.dim):
        x = UElement.letter(sl3, i)
        assert coproduct(x) == box_n(x, 2)


def test_coproduct_unit(sl2):
    assert coproduct(UElement.unit(sl2)) == TensorElement.unit(sl2, 2)


def test_coproduct_fe(sl2):
    f, h, e = letters(sl2)
    d = coproduct(f * e)
    expected = (TensorElement.pure([f * e, UElement.unit(sl2)])
                + TensorElement.pure([f, e])
                + TensorElement.pure([e, f])
                + TensorElement.pure([UElement.unit(sl2), f * e]))
    assert d == expected


def test_coproduct_is_algebra_morphism(sl2):
    rng = Random(8)
    for _ in range(15):
        w1 = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
        a, b = UElement.from_word(sl2, w1), UElement.from_word(sl2, w2)
        assert coproduct(a * b) == coproduct(a) * coproduct(b)


def _coproduct_by_straightening(g, mono):
    """Delta of a PBW monomial as the product of the primitive letters,
    one letter at a time, each slot straightened by `normal_order`."""
    terms = {((), ()): 1}
    for letter in mono:
        new = {}
        for (m1, m2), c in terms.items():
            for mm, c2 in normal_order(g, m1 + (letter,)).items():
                accumulate(new, (mm, m2), c * c2)
            for mm, c2 in normal_order(g, m2 + (letter,)).items():
                accumulate(new, (m1, mm), c * c2)
        terms = new
    return terms


@pytest.mark.parametrize("n, longest", [(2, 4), (3, 4), (4, 3)])
def test_binomial_coproduct_matches_straightening(n, longest):
    """The binomial split of the letter runs is the product of primitive
    letters, on every PBW monomial up to the given length, with int
    coefficients."""
    g = build_sl(n)
    for length in range(longest + 1):
        for mono in combinations_with_replacement(range(g.dim), length):
            terms = mono_coproduct_terms(g, mono)
            assert terms == _coproduct_by_straightening(g, mono), mono
            assert all(type(c) is int for c in terms.values())


def test_coproduct_coassociative(sl2):
    rng = Random(12)
    for _ in range(10):
        mono = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(1, 3))))
        left = {}
        right = {}
        for (m1, m2), c in mono_coproduct_terms(sl2, mono).items():
            for (a, b), c2 in mono_coproduct_terms(sl2, m1).items():
                key = (a, b, m2)
                left[key] = left.get(key, F(0)) + c * c2
            for (a, b), c2 in mono_coproduct_terms(sl2, m2).items():
                key = (m1, a, b)
                right[key] = right.get(key, F(0)) + c * c2
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right


def test_bracket_of_primitives_is_primitive(sl3):
    # no unit-monomial component appears in [x, y] for x, y in g
    for a in range(sl3.dim):
        for b in range(sl3.dim):
            comm = UElement.letter(sl3, a).bracket(UElement.letter(sl3, b))
            assert () not in comm.data


def test_nu_sl2(sl2):
    f, h, e = letters(sl2)
    assert nu(sl2, sl2.element_by_name("h")) == f * e


def test_nu_linear(sl3):
    t1, t2 = sl3.cartan_generator(0), sl3.cartan_generator(1)
    assert nu(sl3, t1 + t2) == nu(sl3, t1) + nu(sl3, t2)


def test_nu_sl3_value(sl3):
    val = nu(sl3, sl3.cartan_generator(0))
    # alpha(t1) = 2, -1, 1 over the three positive roots
    expected = {(sl3.neg_index(0), sl3.pos_index(0)): HPoly.rational(1),
                (sl3.neg_index(1), sl3.pos_index(1)): HPoly.rational(F(-1, 2)),
                (sl3.neg_index(2), sl3.pos_index(2)): HPoly.rational(F(1, 2))}
    assert dict(val.terms()) == expected


def test_nu_rejects_non_cartan(sl2):
    with pytest.raises(ValueError):
        nu(sl2, sl2.element_by_name("e"))


def test_w_elements_sl2(sl2):
    f, h, e = letters(sl2)
    nu_h = nu(sl2, sl2.element_by_name("h"))
    w_plus = w_element(sl2, 0, 1, nu(sl2, sl2.cartan_generator(0)))
    # Lemma-style instances: [nu(h), e] = 2 w+ and [w+, f] = nu(h) - h^2/2
    assert nu_h.bracket(e) == w_plus.scale(2)
    assert w_plus.bracket(f) == nu_h - (h * h).scale(F(1, 2))


def test_casimir_tensor_sl2(sl2):
    f, h, e = letters(sl2)
    omega = casimir_tensor(sl2)
    expected = (TensorElement.pure([h, h]).scale(F(1, 2))
                + TensorElement.pure([e, f]) + TensorElement.pure([f, e]))
    assert omega == expected
    assert omega.swap() == omega


def test_casimir_tensor_invariant(sl3):
    omega = casimir_tensor(sl3)
    for b in range(sl3.dim):
        x = UElement.letter(sl3, b)
        assert not box_n(x, 2).bracket(omega)


def test_casimir_multiplication_identity(sl2, sl3):
    # m([Omega, x (x) 1]) = -(c_g/2) x on every basis vector
    for g in (sl2, sl3):
        cg = casimir_adjoint_eigenvalue(g)
        omega = casimir_tensor(g)
        for b in range(g.dim):
            left = TensorElement.pure([UElement.letter(g, b), UElement.unit(g)])
            val = omega.bracket(left).multiply_slots()
            assert val == UElement.letter(g, b).scale(-F(cg, 2))


def test_quadratic_casimir_sl2(sl2):
    f, h, e = letters(sl2)
    c = quadratic_casimir(sl2)
    assert c == e * f + f * e + (h * h).scale(F(1, 2))


def test_kappa_value_and_centrality(sl2):
    f, h, e = letters(sl2)
    k = kappa(sl2)
    assert k == f * e + h.scale(F(1, 2)) + (h * h).scale(F(1, 4))
    for x in (e, f, h):
        assert not k.bracket(x)


def test_kappa_requires_sl2(sl3):
    with pytest.raises(ValueError):
        kappa(sl3)


def test_box_n(sl2):
    f, h, e = letters(sl2)
    b = box_n(h, 2)
    assert b == (TensorElement.pure([h, UElement.unit(sl2)])
                 + TensorElement.pure([UElement.unit(sl2), h]))
    b3 = box_n(h, 3)
    assert len(b3.data) == 3


def test_tensor_bracket_identity(sl2):
    f, h, e = letters(sl2)
    lhs = (TensorElement.pure([h, e]) - TensorElement.pure([e, h])).bracket(
        TensorElement.pure([h, f]) - TensorElement.pure([f, h]))
    rhs = (box_n(h, 2) * casimir_tensor(sl2)).scale(2)
    assert lhs == rhs


def test_tensor_arity_mismatch(sl2):
    f, h, e = letters(sl2)
    with pytest.raises(ValueError):
        box_n(h, 2) * box_n(h, 3)


def test_adjoint_action(sl2):
    f, h, e = letters(sl2)
    one = UElement.unit(sl2)
    x = sl2.element_by_name("h")
    assert not adjoint_action(x, one)
    assert not adjoint_action(x, f * e)
    assert adjoint_action(sl2.element_by_name("e"), f) == h


def test_verify_gnw_passes(sl2, sl3):
    assert verify_gnw(sl2).passed
    assert verify_gnw(sl3).passed


def test_verify_gnw_fault_fails_pairing(sl2):
    report = verify_gnw(sl2, fault="nu")
    failing = [c for c in report.checks if not c.passed]
    assert failing and all(c.id.startswith("w-pairing") for c in failing)
    assert failing[0].residual == "h"


def test_scalar_multiplication_with_hbar(sl2):
    f, h, e = letters(sl2)
    x = e.scale(HPoly.hbar(2))
    assert x.hbar_coefficient(2) == {(2,): F(1)}
    assert (x * f).hbar_coefficient(2) == {(0, 2): F(1), (1,): F(1)}
