"""The int-over-one-denominator arithmetic of `UElement` and `TensorElement`
against a reference written here: exact Fraction polynomials in hbar,
multiplied through the same word products, on seeded random elements of
U(g) and of the free model at A1 and A2, and on elements whose keys hold
the unit word in some slots; and the free model's slot action of ad I(x)
against the bracket by word products."""

import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from math import gcd
from pathlib import Path
from random import Random

import pytest

from qcurrent.envelope import TensorElement, UElement, box_n, coproduct
from qcurrent.exactnum import HPoly
from qcurrent.freequant import fm_ad_slots, fm_coproduct, free_model
from qcurrent.liealg import LieElement, build_sl
from reference import apply_slot, multiply_slots

# --- reference: {key: {hbar power: Fraction}} ------------------------------------


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def ref_add(*parts):
    """The sum of scale * vals over the (scale, vals) pairs, zeros dropped."""
    out = {}
    for scale, vals in parts:
        for key, poly in vals.items():
            acc = out.setdefault(key, {})
            for k, c in poly.items():
                acc[k] = acc.get(k, 0) + scale * c
    out = {key: {k: c for k, c in poly.items() if c} for key, poly in out.items()}
    return {key: poly for key, poly in out.items() if poly}


def ref_mul(ctx, a, b, tensor):
    """a * b word by word (slot by slot for a tensor) over Fractions."""
    out = {}
    for (k1, p1), (k2, p2) in product(a.items(), b.items()):
        slots = list(zip(k1, k2)) if tensor else [(k1, k2)]
        for combo in product(*(ctx.multiply_words(x, y).items() for x, y in slots)):
            key = tuple(w for w, _ in combo) if tensor else combo[0][0]
            c = F(1)
            for _, cw in combo:
                c *= cw
            acc = out.setdefault(key, {})
            for k, v in poly_mul(p1, p2).items():
                acc[k] = acc.get(k, 0) + c * v
    return ref_add((1, out))


def values(x):
    return {key: dict(p.data) for key, p in x.terms()}


def assert_reduced_int_store(x):
    entries = [c for poly in x.data.values() for c in poly.values()]
    assert type(x.den) is int and x.den >= 1
    assert all(type(c) is int and c for c in entries), x.data
    assert all(x.data.values()) and gcd(x.den, *entries) == 1


# --- seeded inputs: denominators 2, 3 and 4, hbar powers 0-2 ----------------------


def random_poly(rng):
    return {k: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4]))
            for k in rng.sample(range(3), rng.randint(1, 2))}


def random_values(rng, ctx, g, arity):
    def word():
        iword = tuple(sorted(rng.randrange(g.dim) for _ in range(rng.randint(0, 2))))
        if ctx is g:
            return iword
        return tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 1))), iword

    def key():
        return tuple(word() for _ in range(arity)) if arity else word()
    return {key(): random_poly(rng) for _ in range(rng.randint(1, 3))}


def build(ctx, arity, vals):
    data = {key: HPoly(poly) for key, poly in vals.items()}
    return TensorElement(ctx, arity, data) if arity else UElement(ctx, data)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("model", (False, True), ids=("U(g)", "free-model"))
@pytest.mark.parametrize("arity", (0, 2, 3), ids=("UElement", "arity-2", "arity-3"))
def test_int_arithmetic_matches_fraction_reference(n, model, arity):
    g = build_sl(n)
    ctx = free_model(g) if model else g
    rng = Random(100 * n + 10 * arity + model)
    for _ in range(5 if n == 2 else 3):
        av, bv, cv = (random_values(rng, ctx, g, k) for k in (arity, arity, 0))
        a, b = build(ctx, arity, av), build(ctx, arity, bv)
        q = random_poly(rng)
        r = F(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3, 4]))
        ab, ba = ref_mul(ctx, av, bv, arity), ref_mul(ctx, bv, av, arity)
        shifted = {key: {k + 1: c for k, c in poly.items()} for key, poly in av.items()}
        cases = [
            (a, ref_add((1, av))),
            (a * b, ab),
            (a.bracket(b), ref_add((1, ab), (-1, ba))),
            (a + b, ref_add((1, av), (1, bv))),
            (a - b, ref_add((1, av), (-1, bv))),
            (a - a, {}),
            (-a, ref_add((-1, av))),
            (a.scale(HPoly(q)), ref_add((1, {k: poly_mul(p, q) for k, p in av.items()}))),
            (a.scale(r), ref_add((r, av))),
            (build(ctx, arity, shifted).divide_hbar(), ref_add((1, av))),
        ]
        # the slot maps of `reference`, also on a one-term element with a denominator
        monomial = {next(iter(av)): {0: F(1, 2)}}
        for xv in (av, monomial) if arity else ():
            x = build(ctx, arity, xv)
            product_of_slots = {}
            for key, poly in xv.items():
                acc = {key[0]: {0: F(1)}}
                for w in key[1:]:
                    acc = ref_mul(ctx, acc, {w: {0: F(1)}}, False)
                product_of_slots = ref_add(
                    (1, product_of_slots), (1, {w: poly_mul(p, poly) for w, p in acc.items()}))
            cases.append((multiply_slots(x), product_of_slots))
            c = build(ctx, 0, cv)
            slot = rng.randrange(arity)
            applied = {}
            for key, poly in xv.items():
                image = ref_mul(ctx, {key[slot]: {0: F(1)}}, cv, False)
                applied = ref_add((1, applied), (1, {
                    key[:slot] + (w,) + key[slot + 1:]: poly_mul(p, poly)
                    for w, p in image.items()}))
            cases.append((apply_slot(x, slot, lambda u: u * c), applied))
        for got, expected in cases:
            assert_reduced_int_store(got)
            assert values(got) == expected


def unit_slot_inputs(rng, ctx, g, arity):
    """Elements whose keys hold the unit word in some slots: the unit,
    box_n(x, arity) of a random x, and for arity 2 the coproduct of I(y)
    (of y in U(g)) for a random Lie element y; for a UElement, the unit and
    x plus a multiple of it."""
    unit = UElement.unit(ctx)
    x = build(ctx, 0, random_values(rng, ctx, g, 0))
    if not arity:
        return [unit, x + unit.scale(HPoly({0: F(1, 2), 1: F(-3)}))]
    inputs = [TensorElement.unit(ctx, arity), box_n(x, arity)]
    if arity == 2:
        y = LieElement(g, {i: F(rng.choice([-2, 1, 3]), rng.choice([1, 2]))
                           for i in rng.sample(range(g.dim), 2)})
        inputs.append(fm_coproduct(ctx.iota(y)) if ctx is not g
                      else coproduct(UElement.from_lie(g, y)))
    return inputs


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("model", (False, True), ids=("U(g)", "free-model"))
@pytest.mark.parametrize("arity", (0, 2, 3), ids=("UElement", "arity-2", "arity-3"))
def test_unit_slot_products_match_fraction_reference(n, model, arity):
    """Products and brackets, both ways, of the unit-slot inputs with each
    other and with seeded random elements: the slots that pass a word
    through a unit word give what the word product gives."""
    g = build_sl(n)
    ctx = free_model(g) if model else g
    rng = Random(1000 + 100 * n + 10 * arity + model)
    inputs = unit_slot_inputs(rng, ctx, g, arity)
    others = inputs + [build(ctx, arity, random_values(rng, ctx, g, arity))
                       for _ in range(2)]
    for a in inputs:
        assert any(ctx.unit_word in (key if arity else (key,)) for key in a.data)
        for b in others:
            av, bv = values(a), values(b)
            ab, ba = ref_mul(ctx, av, bv, arity), ref_mul(ctx, bv, av, arity)
            for got, expected in ((a * b, ab), (b * a, ba),
                                  (a.bracket(b), ref_add((1, ab), (-1, ba))),
                                  (b.bracket(a), ref_add((1, ba), (-1, ab)))):
                assert_reduced_int_store(got)
                assert values(got) == expected


@pytest.mark.parametrize("n", (2, 3, 4))
def test_slot_action_of_ad_iota_matches_product_path(n):
    """For every x, ad I(x) applied slot by slot (`fm_ad_slots`) equals
    [box_n(I(x), arity), t] computed by word products in the Fraction
    reference, at arity 1, 2 and 3: on the unit, on Delta(J(y)), Delta(I(y))
    and Delta(J(y)*I(z)*J(w)), on J(y)*I(z)*J(w) itself and on
    box_n(J(y), 3), with (y, z, w) seeded for each x."""
    g = build_sl(n)
    fm = free_model(g)
    rng = Random(n)
    for x in range(g.dim):
        y, z, w = (rng.randrange(g.dim) for _ in range(3))
        word = fm.j_letter(y) * fm.iota_letter(z) * fm.j_letter(w)
        inputs = [TensorElement.unit(fm, arity) for arity in (1, 2, 3)] + [
            fm_coproduct(fm.j_letter(y)), fm_coproduct(fm.iota_letter(y)),
            fm_coproduct(word), box_n(word, 1), box_n(fm.j_letter(y), 3)]
        for t in inputs:
            box, tv = values(box_n(fm.iota_letter(x), t.arity)), values(t)
            got = fm_ad_slots(x, t)
            assert_reduced_int_store(got)
            assert values(got) == ref_add((1, ref_mul(fm, box, tv, True)),
                                          (-1, ref_mul(fm, tv, box, True)))


@pytest.mark.parametrize("model", (False, True), ids=("U(g)", "free-model"))
@pytest.mark.parametrize("arity", (0, 2, 3), ids=("UElement", "arity-2", "arity-3"))
def test_bracket_edge_cases(model, arity):
    """A scalar commutes with everything, an element with itself (here
    with den > 1), and a bracket across spaces is refused."""
    g = build_sl(3)
    ctx = free_model(g) if model else g
    rng = Random(7 + 10 * arity + model)
    a = build(ctx, arity, random_values(rng, ctx, g, arity))
    while a.den == 1:
        a = build(ctx, arity, random_values(rng, ctx, g, arity))
    for scalar in (3, F(-1, 2), HPoly({0: F(1, 3), 2: F(2)})):
        zero = a.bracket(scalar)
        assert_reduced_int_store(zero)
        assert type(zero) is type(a) and not zero and zero == a - a
    zero = a.bracket(a)
    assert_reduced_int_store(zero)
    assert not zero and zero.den == 1
    if arity:
        other = build(ctx, 5 - arity, random_values(rng, ctx, g, 5 - arity))
        with pytest.raises(ValueError):
            a.bracket(other)
    mixed = 0 if arity else 2
    with pytest.raises(TypeError):  # a UElement against a tensor is no scalar
        a.bracket(build(ctx, mixed, random_values(rng, ctx, g, mixed)))


@pytest.mark.parametrize("model", (False, True), ids=("U(g)", "free-model"))
def test_every_exact_form_of_a_value_gives_one_store(model):
    """The int 1 (the constructors' int fast path), Fraction(2, 2) and
    HPoly.one() give one store; a zero value gives a zero element, and a
    float is refused."""
    g = build_sl(2)
    ctx = free_model(g) if model else g
    unit = ctx.unit_word
    for make in (lambda v: UElement(ctx, {unit: v}),
                 lambda v: TensorElement(ctx, 2, {(unit, unit): v})):
        one = make(1)
        assert one == make(F(2, 2)) == make(HPoly.one())
        assert (one.den, list(one.data.values())) == (1, [{0: 1}])
        for zero in (0, F(0), HPoly.zero()):
            assert not make(zero) and make(zero) == one - one
        with pytest.raises(TypeError):
            make(0.5)


def test_mixing_spaces_fails_under_python_O():
    """The space checks are ValueErrors, not asserts, so `python -O` keeps
    them: adding an arity-2 and an arity-3 tensor is refused."""
    code = ("from qcurrent.envelope import TensorElement\n"
            "from qcurrent.liealg import build_sl\n"
            "g = build_sl(2)\n"
            "try:\n"
            "    TensorElement.unit(g, 2) + TensorElement.unit(g, 3)\n"
            "except ValueError:\n"
            "    print('refused')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "refused"
