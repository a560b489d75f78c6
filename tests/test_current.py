from fractions import Fraction as F
from random import Random

import pytest

from qcurrent.current import (CurrentElement, CurrentTensor, _omega_brackets,
                              adjoint_coaction_bracket, c_bracket,
                              cleared_cobracket_identity, cobracket,
                              cobracket_slot, cocycle_residuals,
                              current_envelope, spread_parts,
                              verify_bialgebra, verify_generation,
                              verify_min_presentation)
from qcurrent.envelope import UElement
from qcurrent.liealg import build_sl
from reference import coaction_bracket


def cur(g, name, deg):
    return CurrentElement.generator(g, g.name_to_index[name], deg)


def test_bracket_embeds_g(sl2):
    assert c_bracket(cur(sl2, "e", 0), cur(sl2, "f", 0)) == cur(sl2, "h", 0)


def test_bracket_cartan_degrees(sl2):
    assert not c_bracket(cur(sl2, "h", 1), cur(sl2, "h", 2))


def test_bracket_adds_degrees(sl2):
    assert c_bracket(cur(sl2, "e", 1), cur(sl2, "f", 2)) == cur(sl2, "h", 3)


def test_cobracket_degree_zero_vanishes(sl3):
    for b in range(sl3.dim):
        assert not cobracket(CurrentElement.generator(sl3, b, 0))


def test_cobracket_degree_one(sl2):
    d = cobracket(cur(sl2, "e", 1))
    # [e (x) 1, Omega] at bidegree (0, 0): h (x) e - e (x) h
    h, e = sl2.name_to_index["h"], sl2.name_to_index["e"]
    assert d.data == {((h, 0), (e, 0)): F(1), ((e, 0), (h, 0)): F(-1)}


def test_cobracket_degree_two_spreads(sl2):
    d = cobracket(cur(sl2, "e", 2))
    bidegrees = {(a, b) for ((_, a), (_, b)) in d.data}
    assert bidegrees == {(0, 1), (1, 0)}


def test_cobracket_degree_minus_one(sl3):
    for b in range(sl3.dim):
        for n in (1, 2, 3):
            d = cobracket(CurrentElement.generator(sl3, b, n))
            assert all(a + c == n - 1 for ((_, a), (_, c)) in d.data)


def test_cobracket_antisymmetric(sl3):
    for b in range(sl3.dim):
        d = cobracket(CurrentElement.generator(sl3, b, 2))
        assert d + d.swap() == CurrentTensor(sl3, 2)


def test_current_jacobi_random(sl3):
    rng = Random(77)
    for _ in range(15):
        xs = []
        for _ in range(3):
            el = CurrentElement(sl3)
            for _ in range(2):
                el = el + CurrentElement.generator(
                    sl3, rng.randrange(sl3.dim), rng.randint(0, 2)) * \
                    F(rng.randint(-3, 3), 1)
            xs.append(el)
        x, y, z = xs
        total = (c_bracket(c_bracket(x, y), z)
                 + c_bracket(c_bracket(y, z), x)
                 + c_bracket(c_bracket(z, x), y))
        assert not total


def test_closed_form_cross_check(sl3):
    for b in range(sl3.dim):
        for n in range(4):
            assert not cleared_cobracket_identity(
                CurrentElement.generator(sl3, b, n))


def test_verify_bialgebra(sl2, sl3):
    assert verify_bialgebra(sl2, 3).passed
    assert verify_bialgebra(sl3, 2).passed


def test_verify_bialgebra_rejects_bad_degree(sl2):
    with pytest.raises(ValueError):
        verify_bialgebra(sl2, 0)


def test_bialgebra_fault_breaks_cocycle(sl2):
    report = verify_bialgebra(sl2, 2, fault="omega")
    assert not report.passed
    failed = {c.id for c in report.checks if not c.passed}
    assert "cocycle" in failed


def basis_currents(g, max_degree):
    return {(b, n): CurrentElement.generator(g, b, n)
            for n in range(max_degree + 1) for b in range(g.dim)}


def three_tensor_residual(f, g, df, dg, omega):
    """delta([f, g]) - ([delta(f), D(g)] - [delta(g), D(f)]), one tensor at
    a time through the slotwise reference."""
    rhs = coaction_bracket(df, g) - coaction_bracket(dg, f)
    return cobracket(c_bracket(f, g), omega) - rhs


def shifted(actions, slot, m):
    """A slot action {key: c} with the acting slot's u-degree raised by m."""
    out = {}
    for key, c in actions.items():
        x, n = key[slot]
        out[key[:slot] + ((x, n + m),) + key[slot + 1:]] = c
    return out


@pytest.mark.parametrize("fault", (None, "omega"))
def test_coaction_kernel_matches_slotwise_reference(sl3, fault):
    """Every cobracket of a basis current at A2 with u-degree <= 2, against
    every basis element y: the two slot actions of y, shifted by m <= 2 in
    the acting slot and summed, are [t, w(u) (x) 1 + 1 (x) w(v)] for
    w = +-y u^m, computed through `c_bracket` slot by slot."""
    omega = _omega_brackets(sl3, fault)
    deltas = [cobracket(f, omega) for f in basis_currents(sl3, 2).values()]
    for t in deltas:
        for y in range(sl3.dim):
            first, second = adjoint_coaction_bracket(t, y)
            for m in range(3):
                got = CurrentTensor(sl3, 2, shifted(first, 0, m))
                got = got + CurrentTensor(sl3, 2, shifted(second, 1, m))
                for sign in (1, -1):
                    w = CurrentElement(sl3, {(y, m): sign})
                    assert got.scale(sign) == coaction_bracket(t, w)


def perturb_last_omega_row(g):
    """Negate one coefficient of the [x (x) 1, Omega] row of the last basis
    element of g, in its memo."""
    (zq, c), *rest = g.omega_table[g.dim - 1]
    g.omega_table[g.dim - 1] = [(zq, -c)] + rest


@pytest.mark.parametrize("fault", (None, "omega", "last-row"))
def test_cocycle_residuals_match_the_three_tensor_reference(fault):
    """Every basis pair at A2 up to u-degree 3, in basis order: the
    residual spread from the pair's four parts equals the three-tensor
    residual, also where the fault makes it nonzero."""
    g = build_sl(3)
    if fault == "last-row":
        perturb_last_omega_row(g)
    omega = _omega_brackets(g, None if fault == "last-row" else fault)
    gens = basis_currents(g, 3)
    deltas = {key: cobracket(f, omega) for key, f in gens.items()}
    pairs = [(ka, kb) for ka in gens for kb in gens]
    nonzero = 0
    for (ka, kb, parts), pair in zip(cocycle_residuals(g, 3, omega), pairs, strict=True):
        assert (ka, kb) == pair
        expected = three_tensor_residual(gens[ka], gens[kb], deltas[ka], deltas[kb], omega)
        assert spread_parts(g, parts) == expected
        nonzero += bool(expected)
    assert bool(nonzero) == (fault is not None)


def first_reference_failure(g, omega, max_degree):
    """The first basis pair in basis order, (a, n) outer and (b, m) inner,
    whose three-tensor residual is nonzero, as the report would state it."""
    gens = basis_currents(g, max_degree)
    deltas = {key: cobracket(f, omega) for key, f in gens.items()}
    for (a, n), fa in gens.items():
        for (b, m), fb in gens.items():
            bad = three_tensor_residual(fa, fb, deltas[a, n], deltas[b, m], omega)
            if bad:
                return (f"at ({g.names[a]}*u^{n}, {g.names[b]}*u^{m}): "
                        + bad.render())
    return None


@pytest.mark.parametrize("n", (2, 3, 4))
def test_bialgebra_omega_fault_fails_cocycle_with_the_reference_residual(n):
    """At A1-A3 the omega fault fails `cocycle`, and its residual is the
    first nonzero three-tensor residual in basis order."""
    g = build_sl(n)
    report = verify_bialgebra(g, 2, fault="omega")
    cocycle = next(c for c in report.checks if c.id == "cocycle")
    assert not cocycle.passed and cocycle.residual
    assert cocycle.residual == first_reference_failure(
        g, _omega_brackets(g, "omega"), 2)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_perturbed_omega_row_of_the_last_basis_element_fails_cocycle(n):
    """A fresh algebra whose [x (x) 1, Omega] row for the last basis element
    has one coefficient negated: the first failing pair lies past the start
    of basis order, and `cocycle` reports the reference's residual there."""
    g = build_sl(n)
    perturb_last_omega_row(g)
    report = verify_bialgebra(g, 2)
    cocycle = next(c for c in report.checks if c.id == "cocycle")
    assert not cocycle.passed
    expected = first_reference_failure(g, g.omega_table, 2)
    assert expected is not None and not expected.startswith(
        f"at ({g.names[0]}*u^0, {g.names[0]}*u^")
    assert cocycle.residual == expected


def test_cojacobi_slot_arity(sl2):
    t = cobracket_slot(cobracket(cur(sl2, "e", 2)), 0)
    assert t.arity == 3


def test_verify_min_presentation(sl2, sl3):
    r2 = verify_min_presentation(sl2)
    assert r2.passed
    assert {c.id for c in r2.checks} == {"iota-lie-map", "G-equivariance",
                                         "degree-3-relation"}
    r3 = verify_min_presentation(sl3)
    assert r3.passed
    assert "degree-2-relation" in {c.id for c in r3.checks}


def test_verify_generation(sl2, sl3):
    assert verify_generation(sl2, 4).passed
    assert verify_generation(sl3, 3).passed


def test_generation_trivial_degree(sl2):
    """Slices 0 and 1 are the generators themselves: a max_degree below 2
    would check nothing, so it is refused."""
    with pytest.raises(ValueError, match="at least 2"):
        verify_generation(sl2, 1)


def test_current_envelope_normal_form(sl2):
    ce = current_envelope(sl2)
    eu = UElement.letter(ce, ce.letter(sl2.name_to_index["e"], 1))
    fu = UElement.letter(ce, ce.letter(sl2.name_to_index["f"], 1))
    hu = UElement.letter(ce, ce.letter(sl2.name_to_index["h"], 1))
    assert not eu.bracket(fu).bracket(hu)
    hu2 = UElement.letter(ce, ce.letter(sl2.name_to_index["h"], 2))
    assert eu.bracket(fu) == hu2


def test_current_render(sl2):
    el = cur(sl2, "h", 2) - cur(sl2, "e", 0) * F(1, 2)
    assert el.render() == "-1/2*e*u^0 + h*u^2"
