from fractions import Fraction as F
from random import Random

import pytest

from qcurrent.envelope import TensorElement, UElement, box_n, nu
from qcurrent.exactnum import HPoly, accumulate
from qcurrent.freequant import (HALF, classical_limit, fm_ad_word, fm_antipode,
                                fm_coproduct, fm_counit, free_model,
                                lift_gamma_eta,
                                relation_defect_cartan, relation_defect_sl2,
                                t_element, verify_T_identities,
                                verify_coproduct_well_defined,
                                verify_primitive_defects,
                                verify_sl2_steps, x1_element)
from qcurrent.liealg import build_sl, casimir_adjoint_eigenvalue
from reference import (apply_slot, element_path_antipode, element_path_relation,
                       element_path_rewrite, multiply_slots, product_antipode,
                       product_path_relation)


def gens(g):
    f, h, e = (g.name_to_index[n] for n in "fhe")
    return (free_model(g).iota_letter(f), free_model(g).iota_letter(h),
            free_model(g).iota_letter(e), free_model(g).j_letter(f),
            free_model(g).j_letter(h), free_model(g).j_letter(e))


def test_rewrite_examples(sl2):
    i_f, i_h, i_e, j_f, j_h, j_e = gens(sl2)
    assert i_e * j_f == j_f * i_e + j_h
    assert (j_e * j_f).render() == "J(e)*J(f)"  # no relation among J letters
    assert i_e * i_f == i_f * i_e + i_h


def test_fm_associativity_random(sl2, sl3):
    rng = Random(404)
    for g in (sl2, sl3):
        for _ in range(25):
            def random_element():
                out = UElement(free_model(g))
                for _ in range(2):
                    jw = tuple(rng.randrange(g.dim)
                               for _ in range(rng.randint(0, 2)))
                    iw = tuple(sorted(rng.randrange(g.dim)
                                      for _ in range(rng.randint(0, 2))))
                    out = out + UElement(free_model(g), {(jw, iw): HPoly.rational(rng.randint(1, 3))})
                return out
            a, b, c = (random_element() for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_equivariance_rewrite_all_pairs(sl3):
    for a in range(sl3.dim):
        for b in range(sl3.dim):
            lhs = free_model(sl3).iota_letter(a).bracket(free_model(sl3).j_letter(b))
            rhs = free_model(sl3).j_of(sl3.bracket(sl3.basis_element(a),
                                                  sl3.basis_element(b)))
            assert lhs == rhs


def test_coproduct_j_letter(sl2):
    i_f, i_h, i_e, j_f, j_h, j_e = gens(sl2)
    d = fm_coproduct(j_h) - box_n(j_h, 2)
    expected = (TensorElement.pure([i_e, i_f])
                - TensorElement.pure([i_f, i_e])).scale(HPoly.hbar(1))
    assert d == expected


def test_coproduct_unit(sl2):
    assert fm_coproduct(UElement.unit(free_model(sl2))) == TensorElement.unit(free_model(sl2), 2)


def test_coproduct_coassociative_on_j(sl2, sl3):
    # expand both composites by hand on Delta of every generator and of a few
    # random degree <= 2 products
    rng = Random(1234)
    for g in (sl2, sl3):
        elements = [free_model(g).j_letter(b) for b in range(g.dim)]
        elements += [free_model(g).iota_letter(b) for b in range(g.dim)]
        for _ in range(4):
            a = free_model(g).j_letter(rng.randrange(g.dim))
            b = free_model(g).iota_letter(rng.randrange(g.dim))
            elements.append(a * b if rng.random() < 0.5 else b * a)
        for el in elements:
            d = fm_coproduct(el)
            left = {}
            right = {}
            for (w1, w2), p in d.terms():
                for (a1, a2), q in fm_coproduct(
                        UElement(free_model(g), {w1: HPoly.one()})).terms():
                    key = (a1, a2, w2)
                    s = left.get(key, HPoly.zero()) + p * q
                    if s:
                        left[key] = s
                    else:
                        left.pop(key, None)
                for (a1, a2), q in fm_coproduct(
                        UElement(free_model(g), {w2: HPoly.one()})).terms():
                    key = (w1, a1, a2)
                    s = right.get(key, HPoly.zero()) + p * q
                    if s:
                        right[key] = s
                    else:
                        right.pop(key, None)
            assert left == right


def test_grading_homogeneous(sl2):
    rng = Random(9)
    for _ in range(20):
        def homogeneous(degree):
            out = UElement(free_model(sl2))
            for _ in range(2):
                j = rng.randint(0, min(2, degree))
                jw = tuple(rng.randrange(3) for _ in range(j))
                iw = tuple(sorted(rng.randrange(3)
                                  for _ in range(rng.randint(0, 2))))
                out = out + UElement(free_model(sl2), {(jw, iw): HPoly.hbar(degree - j, rng.randint(1, 2))})
            return out
        d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
        a, b = homogeneous(d1), homogeneous(d2)
        prod = a * b
        degrees = set()
        for (jw, _), p in prod.terms():
            for k in p.data:
                degrees.add(len(jw) + k)
        assert degrees <= {d1 + d2}
        cop = fm_coproduct(a)
        degrees = set()
        for (w1, w2), p in cop.terms():
            for k in p.data:
                degrees.add(len(w1[0]) + len(w2[0]) + k)
        assert degrees <= {d1}


def test_counit(sl2):
    i_f, i_h, i_e, j_f, j_h, j_e = gens(sl2)
    assert fm_counit(j_e * j_f) == HPoly.zero()
    assert fm_counit(UElement.unit(free_model(sl2))) == HPoly.one()
    assert fm_counit(i_e) == HPoly.zero()


def test_antipode_formulas(sl2):
    i_f, i_h, i_e, j_f, j_h, j_e = gens(sl2)
    assert fm_antipode(i_e) == -i_e
    # c_g = 4 for sl2 in the trace form
    assert fm_antipode(j_e) == -j_e + i_e.scale(HPoly.hbar(1, 1))
    # anti-morphism on a product
    assert fm_antipode(i_e * i_f) == fm_antipode(i_f) * fm_antipode(i_e)


def test_antipode_law_on_j(sl2):
    i_f, i_h, i_e, j_f, j_h, j_e = gens(sl2)
    d = fm_coproduct(j_h)
    val = multiply_slots(apply_slot(d, 0, fm_antipode))
    assert not val


HOPF_IDS = ["counit-law", "antipode-left", "antipode-right",
            "antipode-J-formula", "counit-kills-generators"]


def test_hopf_axioms(sl2, sl3):
    """coproduct-wd checks the Hopf laws after the relations, and only
    when no fault is injected."""
    for g in (sl2, sl3):
        report = verify_coproduct_well_defined(g)
        assert report.passed
        assert [c.id for c in report.checks][-len(HOPF_IDS):] == HOPF_IDS
    faulted = verify_coproduct_well_defined(sl2, fault="cocycle-scale")
    assert not {c.id for c in faulted.checks} & set(HOPF_IDS)


def test_defect_sl2_structure(sl2):
    d = relation_defect_sl2(sl2)
    assert d
    # the hbar^0 part is the triple J bracket
    i_f, i_h, i_e, j_f, j_h, j_e = gens(sl2)
    classical = j_e.bracket(j_f).bracket(j_h)
    zero_part = UElement(free_model(sl2), {w: HPoly.rational(p.coeff(0))
                                for w, p in d.terms()})
    assert zero_part == classical


def test_defect_sl2_weight_zero(sl2):
    i_h = free_model(sl2).iota_letter(1)
    assert not i_h.bracket(relation_defect_sl2(sl2))


def test_defect_cartan_requires_rank2(sl2):
    with pytest.raises(ValueError):
        relation_defect_cartan(sl2, 0, 0)


def test_defect_sl2_requires_sl2(sl3):
    with pytest.raises(ValueError):
        relation_defect_sl2(sl3)


def test_defect_cartan_diagonal_zero(sl3):
    assert not relation_defect_cartan(sl3, 0, 0)


def test_defect_cartan_t_form(sl3):
    d = relation_defect_cartan(sl3, 0, 1)
    t1 = t_element(sl3, sl3.cartan_generator(0))
    t2 = t_element(sl3, sl3.cartan_generator(1))
    assert d == t1.bracket(t2)


def test_primitive_defects(sl2, sl3):
    assert verify_primitive_defects(sl2).passed
    assert verify_primitive_defects(sl3).passed


def test_discriminating_pair(sl3):
    """Doubling the cocycle scale preserves the equivariance relations but
    breaks defect primitivity: the two suites separate the fault."""
    assert verify_coproduct_well_defined(sl3, fault="cocycle-scale").passed
    assert not verify_primitive_defects(sl3, fault="cocycle-scale").passed


def test_sl2_steps(sl2):
    report = verify_sl2_steps(sl2)
    assert report.passed
    ids = {c.id for c in report.checks}
    assert {"del-J-h", "del-J-e", "del-J-f", "step1", "step2", "step2-c0",
            "step3", "step4", "T-eigen-A", "T-eigen-kappa",
            "T-eigen-cartan", "weight-zero-swap"} <= ids


def test_sl2_steps_fault(sl2):
    report = verify_sl2_steps(sl2, fault="drop-step2-term")
    failed = {c.id for c in report.checks if not c.passed}
    assert failed == {"step2"}


def test_sl2_steps_requires_sl2(sl3):
    with pytest.raises(ValueError):
        verify_sl2_steps(sl3)


def test_t_identities(sl2, sl3):
    assert verify_T_identities(sl2).passed
    assert verify_T_identities(sl3).passed


def test_x1_hbar0_is_loop_generator(sl2):
    # modulo hbar, x_{1,1}^+ reduces to J(e)
    val = x1_element(sl2, 0, 1)
    zero_part = UElement(free_model(sl2), {w: HPoly.rational(p.coeff(0))
                                for w, p in val.terms()})
    assert zero_part == free_model(sl2).j_letter(2)


def test_coproduct_well_defined(sl2, sl3):
    assert verify_coproduct_well_defined(sl2).passed
    assert verify_coproduct_well_defined(sl3).passed


@pytest.mark.parametrize("n", (3, 4))
def test_relations_iota_j_fails_like_the_product_path(n):
    """A negated coefficient in one row of the [x (x) 1, Omega] table
    breaks Delta(J(x)), and `relations-iota-J` fails at the product-path
    check's first pair with its residual; `relations-iota-iota` holds."""
    g = build_sl(n)
    (zq, c), *rest = g.omega_table[g.dim - 1]
    g.omega_table[g.dim - 1] = [(zq, -c)] + rest
    checks = {c.id: c for c in verify_coproduct_well_defined(g).checks}
    assert checks["relations-iota-iota"].passed
    assert product_path_relation(g, "iota", HALF) is None
    expected = product_path_relation(g, "J", HALF)
    assert expected is not None and not expected.startswith(
        f"at ({g.names[0]}, {g.names[0]}): ")
    assert not checks["relations-iota-J"].passed
    assert checks["relations-iota-J"].residual == expected


def _plant_ad_entry(g, word):
    """A wrong coefficient of `word` itself in ad I(x) of `word`, planted in
    the memo, for x the highest root vector."""
    fm, x = free_model(g), g.dim - 1
    fm._fm_ad_cache[x, word] = {**fm_ad_word(fm, x, word), word: 5}


def _drop_ad_of_a_j_letter(g):
    """ad I(x) of J(y) planted as 0 for the first (x, y) with [x, y] != 0,
    so the slot data lack entries that the target has."""
    x, y = next(iter(g.bracket_table))
    free_model(g)._fm_ad_cache[x, ((y,), ())] = {}


def _negate_omega_entry(g):
    (zq, c), *rest = g.omega_table[g.dim - 1]
    g.omega_table[g.dim - 1] = [(zq, -c)] + rest


@pytest.mark.parametrize("tamper, failing", [
    (lambda g: _plant_ad_entry(g, ((), (1,))), ("iota", "J")),
    (lambda g: _plant_ad_entry(g, ((1,), ())), ("J",)),
    (_drop_ad_of_a_j_letter, ("J",)),
    (_negate_omega_entry, ("J",)),
], ids=("ad-on-an-I-letter", "ad-on-a-J-letter", "ad-dropped", "omega-row"))
def test_relation_checks_fail_like_the_element_path(tamper, failing):
    """On a fresh A2, a wrong or missing entry planted in the ad I(x) memo,
    or one negated entry of an [x (x) 1, Omega] row, makes `relations-iota-iota`
    and `relations-iota-J` report the first failing pair and the residual
    of the element path, which expands ad I(x) into a `TensorElement` and
    compares by `!=`; the checks it leaves alone pass on both paths."""
    g = build_sl(3)
    tamper(g)
    checks = {c.id: c for c in verify_coproduct_well_defined(g).checks}
    for tag in ("iota", "J"):
        expected = element_path_relation(g, tag, HALF)
        check = checks[f"relations-iota-{tag}"]
        assert (expected is not None) == (tag in failing)
        assert check.passed == (expected is None)
        assert check.residual == expected


def test_rewrite_equivariance_fails_like_the_element_path():
    """A wrong push of I(x) through J(y), planted on a fresh model before
    any product, breaks the rewrite; `rewrite-equivariance` fails at the
    element path's first pair with its residual."""
    g = build_sl(3)
    a, b = g.dim - 1, 1
    push = {((b,), True): 1}
    for z, c in g.bracket_table.get((a, b), {}).items():
        push[(z,), False] = c
    accumulate(push, ((a,), False), 1)
    free_model(g)._fm_push_cache[a, (b,)] = push
    expected = element_path_rewrite(g)
    assert expected is not None and expected.startswith(
        f"at ({g.names[a]}, {g.names[b]}): ")
    checks = {c.id: c for c in verify_coproduct_well_defined(g).checks}
    assert not checks["rewrite-equivariance"].passed
    assert checks["rewrite-equivariance"].residual == expected


def test_antipode_laws_fail_like_the_element_path():
    """A wrong Casimir eigenvalue in the algebra memo breaks both antipode
    laws, each failing with the element path's residual; the S(J(x))
    formula reads the same eigenvalue and holds."""
    g = build_sl(3)
    g._memo["casimir_eigenvalue"] = casimir_adjoint_eigenvalue(g) + 1
    checks = {c.id: c for c in verify_coproduct_well_defined(g).checks}
    assert checks["antipode-J-formula"].passed
    for slot, side in ((0, "left"), (1, "right")):
        expected = element_path_antipode(g, slot)
        assert expected is not None
        assert not checks[f"antipode-{side}"].passed
        assert checks[f"antipode-{side}"].residual == expected


def test_antipode_equals_the_product_form(sl3):
    """S on every word of Delta(J(x)), and of Delta(J(x)*J(y)*I(z)) for a
    few seeded triples, equals the product form, twice over, so the second
    call reads what the first left behind."""
    fm = free_model(sl3)
    rng = Random(28)
    elements = [fm.j_letter(b) for b in range(sl3.dim)] + [
        fm.j_letter(rng.randrange(sl3.dim)) * fm.j_letter(rng.randrange(sl3.dim))
        * fm.iota_letter(rng.randrange(sl3.dim)) for _ in range(4)]
    for x in elements:
        words = {w for key in fm_coproduct(x).data for w in key}
        for w in sorted(words):
            one = UElement(fm, {w: 1})
            assert fm_antipode(one) == product_antipode(one), w
            assert fm_antipode(one) == product_antipode(one), w
        assert fm_antipode(x) == product_antipode(x)


def test_classical_limit_examples(sl2):
    i_f, i_h, i_e, j_f, j_h, j_e = gens(sl2)
    lim = classical_limit(i_e)
    (mono,) = lim.data
    assert len(mono) == 1
    assert not classical_limit(i_e.scale(HPoly.hbar(1)))
    assert not classical_limit(relation_defect_sl2(sl2))


def test_classical_limit_of_cartan_defect(sl3):
    assert not classical_limit(relation_defect_cartan(sl3, 0, 1))


def test_lift_gamma_eta_reads_off_shift(sl2):
    rng = Random(3)
    shift = {}
    for v in range(sl2.dim):
        shift[v] = UElement.from_word(sl2, (rng.randrange(3),)) \
            .scale(F(rng.randint(-2, 2), 1))
    gamma, eta = lift_gamma_eta(sl2, shift)
    # gamma(x,y) = shift([x,y]) - [x, shift(y)]
    for a in range(sl2.dim):
        for b in range(sl2.dim):
            xa = UElement.from_lie(sl2, sl2.basis_element(a))
            br = sl2.bracket(sl2.basis_element(a), sl2.basis_element(b))
            expect = UElement(sl2)
            for i, c in br.data.items():
                expect = expect + shift[i].scale(c)
            expect = expect - xa.bracket(shift[b])
            assert gamma[a, b] == expect


def test_nu_abbreviation_matches_envelope(sl2):
    i_nu = free_model(sl2).iota(nu(sl2, sl2.element_by_name("h")))
    t = t_element(sl2, sl2.element_by_name("h"))
    j_h = free_model(sl2).j_letter(1)
    assert j_h - t == i_nu.scale(HPoly.hbar(1))
