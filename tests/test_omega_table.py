"""The table of [x (x) 1, Omega] that the cobracket of g[u], the J-letter
coproduct of the free model and the two slot-1 brackets of the word
algebras read: entry by entry against the Casimir pairs, the invariance of
Omega, the slot-1 brackets against the bracket with the Casimir tensor,
exactness on non-integral currents, and a perturbed table that
`verify_bialgebra` must reject."""

from fractions import Fraction as F

import pytest

from qcurrent.current import (CurrentElement, CurrentTensor, cobracket,
                              verify_bialgebra)
from qcurrent.envelope import (TensorElement, UElement,
                               lie_tensor_bracket_with_slot1)
from qcurrent.exactnum import accumulate
from qcurrent.freequant import _omega_iota, _omega_slot1_bracket, free_model
from qcurrent.liealg import LieElement, build_sl
from reference import casimir_tensor

TYPES = (1, 2, 3, 4)


def _from_pairs(g, x, left):
    """[x (x) 1, Omega] (left) or [1 (x) x, Omega] (not left), summed over
    Fractions from the Casimir pairs: {(slot 1, slot 2): coefficient}."""
    out = {}
    for p, q, w in g.casimir_pairs:
        w = F(w)
        bracketed, other = (p, q) if left else (q, p)
        for z, cz in g.bracket_table.get((x, bracketed), {}).items():
            accumulate(out, (z, other) if left else (other, z), w * cz)
    return out


@pytest.mark.parametrize("k", TYPES)
def test_table_matches_the_casimir_pairs(k):
    g = build_sl(k + 1)
    assert sorted(g.omega_table) == list(range(g.dim))
    for x, entries in g.omega_table.items():
        assert len({zq for zq, _ in entries}) == len(entries)
        assert all(c for _, c in entries)
        assert dict(entries) == _from_pairs(g, x, left=True), g.names[x]


@pytest.mark.parametrize("k", TYPES)
def test_omega_is_invariant(k):
    g = build_sl(k + 1)
    for x in range(g.dim):
        total = dict(g.omega_table[x])
        for key, c in _from_pairs(g, x, left=False).items():
            accumulate(total, key, c)
        assert not total, g.names[x]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_slot1_brackets_read_from_the_table_equal_the_casimir_bracket(k):
    g = build_sl(k + 1)
    fm = free_model(g)
    omega, omega_iota = casimir_tensor(g), _omega_iota(g)
    for x in range(g.dim):
        left = TensorElement(g, 2, {((x,), ()): 1})
        assert (lie_tensor_bracket_with_slot1(g, g.basis_element(x))
                == left.bracket(omega)), g.names[x]
        left_iota = TensorElement.pure([fm.iota_letter(x), UElement.unit(fm)])
        assert _omega_slot1_bracket(g, x) == left_iota.bracket(omega_iota), g.names[x]
    # a combination of every basis element, with non-integral coefficients
    x = LieElement(g, {i: F(i + 1, 2) for i in range(g.dim)})
    left = TensorElement(g, 2, {((i,), ()): c for i, c in x.data.items()})
    assert lie_tensor_bracket_with_slot1(g, x) == left.bracket(omega)


def _pair_loop_cobracket(f):
    """The cobracket summed over the Casimir pairs and the bracket table."""
    g = f.alg
    out = {}
    for (x, n), cx in f.data.items():
        for p, q, w in g.casimir_pairs:
            for z, cz in g.bracket_table.get((x, p), {}).items():
                for a in range(n):
                    accumulate(out, ((z, a), (q, n - 1 - a)), cx * w * cz)
    return out


def test_cobracket_is_exact_on_fractional_coefficients(sl3):
    e, t2 = sl3.name_to_index["e12"], sl3.name_to_index["t2"]
    f = CurrentElement(sl3, {(e, 2): F(1, 2), (t2, 3): F(7, 6)})
    d = cobracket(f)
    expected = _pair_loop_cobracket(f)
    assert d == CurrentTensor(sl3, 2, expected)
    assert any(type(c) is F for c in d.data.values())


def test_cobracket_of_an_integral_current_is_int_valued(sl3):
    e, t2 = sl3.name_to_index["e12"], sl3.name_to_index["t2"]
    f = CurrentElement(sl3, {(e, 2): 3, (t2, 3): -2})
    d = cobracket(f)
    assert d == CurrentTensor(sl3, 2, _pair_loop_cobracket(f))
    assert d and all(type(c) is int for c in d.data.values())


def test_table_is_built_from_the_bracket_table_at_first_use():
    g = build_sl(3)  # fresh: the table has not been read yet
    (z, c), = g.bracket_table[0, 1].items()
    g.bracket_table[0, 1] = {z: 2 * c}
    for x in range(g.dim):
        assert dict(g.omega_table[x]) == _from_pairs(g, x, left=True)
    assert not verify_bialgebra(g, 1).passed


def test_perturbed_table_fails_bialgebra_and_the_closed_form():
    g = build_sl(3)
    assert verify_bialgebra(g, 2).passed
    entries = g.omega_table[0]
    zq, c = entries[0]
    entries[0] = (zq, 2 * c)
    report = verify_bialgebra(g, 2)
    assert not report.passed
    failed = {check.id for check in report.checks if not check.passed}
    assert "closed-form" in failed
