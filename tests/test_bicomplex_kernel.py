"""The integer dH/dV kernel: an exhaustive proof of the bicomplex identities
on small slices, its fault-injection twin, exactness against a Fraction
reference, and the value semantics of the one-denominator `Cochain`."""

import json
from fractions import Fraction as F
from itertools import combinations
from math import comb, lcm
from pathlib import Path
from random import Random

import pytest

from qcurrent.cohom import (CobarChain, Cochain, GModule, _signed_insert,
                            adjoint_module, bicomplex_dh, bicomplex_dv,
                            ce_push, cobar_differential, random_cochain,
                            solver_report, tensor_slice_keys, u_slice_module)
from qcurrent.envelope import ad_letter, mono_coproduct_terms
from qcurrent.exactnum import ONE, accumulate
from qcurrent.liealg import build_sl
from reference import (CEChain, ce_differential, cochain_from_json,
                       cochain_to_json, random_ce_chain)

BIDEGREES = [(m, n) for m in range(3) for n in (1, 2)]
GOLDEN = Path(__file__).parent / "data" / "cochain_golden.json"


# --- the Fraction reference: the operators written out term by term ----------


def reference_dh(w: Cochain) -> Cochain:
    g, m = w.g, w.m
    data = {}
    for t in combinations(range(g.dim), m + 1):
        for v in range(g.dim):
            acc = {}
            for i in range(m + 1):
                rest = t[:i] + t[i + 1:]
                sign = (-1) ** i
                for tkey, c in w.value(rest, v).items():
                    for slot in range(len(tkey)):
                        for m2, q in ad_letter(g, t[i], tkey[slot]).items():
                            accumulate(acc, tkey[:slot] + (m2,) + tkey[slot + 1:],
                                       sign * c * q)
                for z, c in g.bracket_table.get((t[i], v), {}).items():
                    for tkey, e in w.value(rest, z).items():
                        accumulate(acc, tkey, -sign * c * e)
            for i in range(m + 1):
                for j in range(i + 1, m + 1):
                    rest = tuple(x for k, x in enumerate(t) if k not in (i, j))
                    for z, c in g.bracket_table.get((t[i], t[j]), {}).items():
                        ins = _signed_insert(z, rest)
                        if ins is None:
                            continue
                        s, sgn = ins
                        for tkey, e in w.value(s, v).items():
                            accumulate(acc, tkey, (-1) ** (i + j) * sgn * c * e)
            data[t, v] = acc
    return Cochain(g, m + 1, w.n, w.bound, data)


def keys_and_values(w: Cochain):
    """(s, v, {tensor key: exact value}) for every (s, v) of w's bidegree."""
    for s in combinations(range(w.g.dim), w.m):
        for v in range(w.g.dim):
            yield s, v, w.value(s, v)


def reference_dv(w: Cochain) -> Cochain:
    n = w.n
    data = {}
    for s, v, tensor in keys_and_values(w):
        acc = data[s, v] = {}
        for tkey, c in tensor.items():
            accumulate(acc, ((),) + tkey, c)
            accumulate(acc, tkey + ((),), c * (-1) ** (n + 1))
            for i in range(n):
                for (a, b), q in mono_coproduct_terms(w.g, tkey[i]).items():
                    accumulate(acc, tkey[:i] + (a, b) + tkey[i + 1:],
                               c * q * (-1) ** (i + 1))
    return Cochain(w.g, w.m, n + 1, w.bound, data)


def scaled(w: Cochain, q) -> Cochain:
    return Cochain(w.g, w.m, w.n, w.bound,
                   {(s, v): {tkey: q * c for tkey, c in tensor.items()}
                    for s, v, tensor in keys_and_values(w)})


def mixed_cochain(g, m, n, bound, rng) -> Cochain:
    """A random cochain whose coefficients have denominators 1, 2, 3 and 6."""
    data = {}
    for s in combinations(range(g.dim), m):
        for v in range(g.dim):
            for tkey in tensor_slice_keys(g, n, bound):
                if rng.random() < 0.2:
                    data.setdefault((s, v), {})[tkey] = \
                        F(rng.randint(-7, 7), rng.choice((1, 2, 3, 6)))
    return Cochain(g, m, n, bound, data)


# --- the exhaustive proof ------------------------------------------------------


def bicomplex_violation(g, bound):
    """The first basis cochain, at m <= 2 and 1 <= n <= 2, on which dH^2 = 0,
    dV^2 = 0 or dH dV = dV dH fails, or None.  The operators are linear,
    so passing on every basis cochain proves the identities on the slice."""
    for m, n in BIDEGREES:
        for s in combinations(range(g.dim), m):
            for v in range(g.dim):
                for tkey in tensor_slice_keys(g, n, bound):
                    w = Cochain(g, m, n, bound, {(s, v): {tkey: ONE}})
                    dh, dv = bicomplex_dh(w), bicomplex_dv(w)
                    if bicomplex_dh(dh):
                        return "dH dH", (m, n, s, v, tkey)
                    if bicomplex_dv(dv):
                        return "dV dV", (m, n, s, v, tkey)
                    if bicomplex_dv(dh) != bicomplex_dh(dv):
                        return "dH dV - dV dH", (m, n, s, v, tkey)
    return None


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_bicomplex_identities_exhaustive_sl2(bound):
    assert bicomplex_violation(build_sl(2), bound) is None


def test_exhaustive_check_catches_a_perturbed_bracket():
    g = build_sl(2)  # fresh: no cached normal form has been computed yet
    (z, c), = g.bracket_table[2, 0].items()  # [e, f] = h
    g.bracket_table[2, 0] = {z: 2 * c}
    assert bicomplex_violation(g, 1) is not None


def test_bicomplex_identities_exhaustive_sl3():
    """All 7,696 basis cochains at A2, bound 1."""
    assert bicomplex_violation(build_sl(3), 1) is None


def test_exhaustive_sl3_check_catches_a_perturbed_bracket():
    g = build_sl(3)  # fresh, as above
    assert (g.names[2], g.names[7]) == ("f12", "e12")
    g.bracket_table[2, 7] = {z: 2 * c for z, c in g.bracket_table[2, 7].items()}
    assert bicomplex_violation(g, 1) is not None


# --- exactness of the integer kernel -------------------------------------------


@pytest.mark.parametrize("q", [F(1, 2), F(1, 3), F(7, 6)])
def test_kernel_is_linear_over_mixed_denominators(sl2, q):
    rng = Random(int(q * 6))
    for m, n in BIDEGREES:
        w = mixed_cochain(sl2, m, n, 2, rng)
        assert w
        qw = scaled(w, q)
        assert bicomplex_dh(qw) == scaled(bicomplex_dh(w), q)
        assert bicomplex_dv(qw) == scaled(bicomplex_dv(w), q)
        assert bicomplex_dh(w) == reference_dh(w)
        assert bicomplex_dv(w) == reference_dv(w)


def test_kernel_matches_reference_on_sl3(sl3):
    """Bidegrees (2, 1) and (2, 2) are the first where a wedge holds two
    Cartan elements or a root vector z with [h, z] = z(h) z, whose faces
    `ce_push` folds into one diagonal pass."""
    rng = Random(8)
    for m, n in ((0, 1), (1, 1), (0, 2), (2, 1), (2, 2)):
        w = random_cochain(sl3, m, n, 2, rng, density=0.05)
        assert bicomplex_dh(w) == reference_dh(w)
        assert bicomplex_dv(w) == reference_dv(w)


@pytest.mark.parametrize("m, n", BIDEGREES)
def test_kernel_matches_reference_on_dense_sl3(sl3, m, n):
    """Dense cochains at A2 bound 2: each output entry of dH takes writes
    from several blocks, faces and slice positions through the shared
    accumulators, on the folded Cartan faces and on the merged slice rows
    of the root vectors alike."""
    w = random_cochain(sl3, m, n, 2, Random(100 + 10 * m + n), density=0.7)
    size = len(tensor_slice_keys(sl3, n, 2))
    assert sum(map(len, w.data.values())) >= 0.5 * comb(sl3.dim, m) * sl3.dim * size
    assert bicomplex_dh(w) == reference_dh(w)


def test_dh_matches_reference_with_a_cartan_element_off_the_diagonal():
    """A fresh A1 with [h, e] = 2e + f: h acts diagonally on neither
    factor, so its faces take the general path at every bidegree, slice
    rows, dual columns and the coefficient b of e in [h, e] alike."""
    g = build_sl(2)  # fresh: every cached table below derives from the patch
    assert g.names == ["f", "h", "e"]
    f, h, e = range(3)
    g.bracket_table[h, e] = {e: 2, f: 1}
    g.bracket_table[e, h] = {e: -2, f: -1}
    rng = Random(21)
    for m, n in BIDEGREES:
        w = random_cochain(g, m, n, 2, rng, density=0.6)
        assert w, (m, n)
        assert bicomplex_dh(w) == reference_dh(w), (m, n)
    for n in (1, 2):
        diagonal, *_ = g._memo["slice", n, 2]
        assert diagonal[h] is None


@pytest.mark.parametrize("which", ["adjoint", "u_slice"])
def test_ce_push_matches_the_reference_off_a_g_module(sl3, which):
    """`ce_push` against the textbook `ce_differential` at m <= 2 on a copy
    of the A2 adjoint module or of U<=2 whose first Cartan action has one
    extra off-diagonal entry: no g-module, so the first Cartan element's
    faces take the general path, with their folded bracket coefficient,
    and the second's the diagonal one."""
    base = adjoint_module(sl3) if which == "adjoint" else u_slice_module(sl3, 2)
    h0, h1 = sl3.cartan_index(0), sl3.cartan_index(1)
    actions = [{j: dict(col) for j, col in cols.items()} for cols in base.actions]
    actions[h0].setdefault(0, {})[1] = 1
    module = GModule(sl3, base.dim, actions, f"{base.label}'")
    assert module.diagonal[h0] is None and module.diagonal[h1] is not None
    rng = Random(5)
    for m in range(3):
        omega = random_ce_chain(module, m, rng, density=F(1, 5))
        assert omega, m
        assert CEChain(module, m + 1, ce_push(module, omega.data)) == ce_differential(omega)


@pytest.mark.parametrize("n", [1, 2])
def test_dh_matches_reference_on_every_sl3_basis_cochain(sl3, n):
    """The push-style dH against the pull-style reference on every basis
    cochain at m <= 1, bound 1: by linearity, on the whole slice."""
    for m in (0, 1):
        for s in combinations(range(sl3.dim), m):
            for v in range(sl3.dim):
                for tkey in tensor_slice_keys(sl3, n, 1):
                    w = Cochain(sl3, m, n, 1, {(s, v): {tkey: ONE}})
                    assert bicomplex_dh(w) == reference_dh(w), (m, s, v, tkey)


@pytest.mark.parametrize("n", [1, 2])
def test_dv_is_the_cobar_differential_of_sym_g(sl2, n):
    """The PBW coalgebra U(g) is Sym(g): at A1, dV of every basis tensor of
    T^n_{<=3} is `cobar_differential` of its image on exponent vectors,
    with V = g.  Both run `_cobar_push`, on coproducts read from two
    tables: `mono_coproduct_terms` for dV, `sym_coproduct` for the cobar
    complex."""
    def exponents(mono):
        return tuple(mono.count(x) for x in range(sl2.dim))
    nonzero = 0
    for tkey in tensor_slice_keys(sl2, n, 3):
        w = Cochain(sl2, 0, n, 3, {((), 0): {tkey: 1}})
        image = bicomplex_dv(w).value((), 0)
        y = CobarChain(sl2.dim, n, sum(map(len, tkey)),
                       {tuple(map(exponents, tkey)): 1})
        assert {tuple(map(exponents, k)): c for k, c in image.items()} \
            == cobar_differential(y).data, tkey
        nonzero += bool(image)
    assert nonzero  # the comparison is not vacuous


def test_kernel_keeps_non_integral_table_values():
    g = build_sl(2)  # fresh: every cached table below derives from the patch
    g.bracket_table[2, 0] = {1: F(1, 2)}  # [e, f] = h/2
    rng = Random(3)
    for m, n in BIDEGREES:
        w = mixed_cochain(g, m, n, 2, rng)
        assert bicomplex_dh(w) == reference_dh(w)
        assert bicomplex_dv(w) == reference_dv(w)
        # the image is put over the lcm of the denominators of its values
        image = bicomplex_dh(w)
        assert image.den == lcm(*(F(c).denominator for s, v, tensor
                                  in keys_and_values(image) for c in tensor.values()))
    (half,) = g.bracket_table[2, 0].values()
    assert type(half) is F and half == F(1, 2)
    # the adjoint action reads through the patched entry; a product of
    # halves may come out integral, but a coefficient is never a float
    assert any(type(c) is F and c.denominator != 1
               for coeffs in g._memo["ad"].values() for c in coeffs.values())
    assert all(type(c) in (int, F)
               for table in (g._memo["ad"], g._memo["coproduct"], g._pbw_cache)
               for coeffs in table.values() for c in coeffs.values())


def test_dh_refuses_a_scale_that_does_not_clear_its_tables():
    g = build_sl(2)
    g.bracket_table[2, 0] = {1: F(1, 2)}  # [e, f] = h/2
    w = Cochain(g, 0, 1, 1, {((), 0): {((2,),): 1}})
    assert bicomplex_dh(w).den == 2
    *tables, _ = g._memo["slice", 1, 1]
    g._memo["slice", 1, 1] = (*tables, 3)
    with pytest.raises(ValueError, match="does not clear"):
        bicomplex_dh(w)


def table_widths(x):
    """The index range of every GModule, action table (a list of {column:
    {row: coeff}} dicts), merged row table (a list of tuples of (x, row,
    coeff) triples, one tuple per column) and list of numbers reachable
    through tuples, lists and dict values."""
    if isinstance(x, GModule):
        yield x.dim
        x = x.actions
    if isinstance(x, dict):
        for y in x.values():
            yield from table_widths(y)
    elif isinstance(x, list) and x and all(isinstance(cols, dict) for cols in x):
        yield 1 + max((j for cols in x for j in cols), default=-1)
    elif isinstance(x, list) and x and all(isinstance(c, (int, F)) for c in x):
        yield len(x)
    elif isinstance(x, list) and x and all(
            isinstance(row, tuple) and all(isinstance(e, tuple) and len(e) == 3 for e in row)
            for row in x):
        yield len(x)
        yield 1 + max((i for row in x for _, i, _ in row), default=-1)
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from table_widths(y)


def test_solver_caches_no_product_module():
    """dH acts on dual(adjoint) (x) T^n factor by factor, so no module or
    table as wide as the product is kept on the algebra: not in the
    kernel's memo (`_slice`), whose merged slice rows and compiled wedge
    faces the walk reaches, nor anywhere else."""
    g = build_sl(3)
    assert solver_report(g, bound=2, runs=1).passed
    sizes = [len(tensor_slice_keys(g, n, 2)) for n in (1, 2)]
    widths = set(table_widths(tuple(g._memo.values())))
    assert max(widths) < g.dim * min(sizes), sorted(widths)
    assert set(sizes) <= widths  # the walk reached both slices' rows
    *_, wedges, _ = g._memo["slice", 1, 2]
    assert wedges  # compiled wedge faces were there to walk


# --- one denominator, exact values ---------------------------------------------


def golden_cochain(g) -> Cochain:
    """A fixed sl_2 cochain at bidegree (1, 2), bound 2, whose coefficients
    have denominators 1, 2, 3 and 6."""
    return Cochain(g, 1, 2, 2, {
        ((0,), 1): {((0,), (2,)): F(1, 2), ((1, 1), ()): F(-2, 3), ((), ()): 3},
        ((1,), 0): {((0, 2), ()): F(5, 6), ((), (1,)): F(-1)},
        ((2,), 2): {((2,), (0,)): F(7, 3), ((1,), (1,)): F(-1, 6),
                    ((), (0, 0)): F(4, 2)},
    })


def test_cochains_with_equal_values_are_equal_over_any_denominator(sl2):
    half = Cochain(sl2, 0, 1, 2, {((), 0): {((0,),): F(1, 2)}})
    third = Cochain(sl2, 0, 1, 2, {((), 1): {((1, 1),): F(1, 3)}})
    same = half + third - third
    assert (half.den, same.den) == (2, 2)
    assert same == half and half == same
    assert half + half == Cochain(sl2, 0, 1, 2, {((), 0): {((0,),): 1}})
    assert half != half + half and half + third != half
    assert not (third - third)


def test_cochains_of_different_spaces_neither_compare_nor_combine(sl2):
    """Equality and sums need one algebra, bidegree and bound; a float
    value is refused."""
    value = {((), 0): {((0,),): 1}}
    w = Cochain(sl2, 0, 1, 2, value)
    assert w == Cochain(sl2, 0, 1, 2, {((), 0): {((0,),): F(3, 3)}})
    for other in (Cochain(sl2, 0, 1, 3, value), Cochain(build_sl(2), 0, 1, 2, value),
                  Cochain(sl2, 1, 1, 2), Cochain(sl2, 0, 2, 2)):
        assert w != other and other != w
        for combine in (w.__add__, w.__sub__):
            with pytest.raises(ValueError, match="different spaces"):
                combine(other)
    with pytest.raises(TypeError, match="float"):
        Cochain(sl2, 0, 1, 2, {((), 0): {((0,),): 0.5}})


def test_mixed_denominator_cochain_json_roundtrip(sl2):
    w = golden_cochain(sl2)
    assert w.den == 6
    payload = json.loads(json.dumps(cochain_to_json(w), sort_keys=True))
    back = cochain_from_json(sl2, payload)
    assert back == w
    assert cochain_to_json(back) == cochain_to_json(w)


def test_cochain_render_and_json_match_the_golden_file(sl2):
    w = golden_cochain(sl2)
    golden = json.loads(GOLDEN.read_text())
    assert w.render() == golden["render"]
    assert cochain_to_json(w) == golden["json"]


@pytest.mark.parametrize("rank, bound", [(2, 3), (3, 1)])
def test_cochains_round_trip_through_their_basis_tensors(rank, bound):
    """A cochain keeps slice positions and shows basis tensors: JSON and
    the tensor swap, read off `value`, give back the same cochain at every
    bidegree m <= 2, n in {1, 2}."""
    g = build_sl(rank)
    rng = Random(rank * 10 + bound)
    for m, n in BIDEGREES:
        w = random_cochain(g, m, n, bound, rng)
        assert w, (m, n)
        assert cochain_from_json(g, cochain_to_json(w)) == w
        if n == 2:
            swapped = w.swap_tensor()
            assert swapped.swap_tensor() == w
            assert swapped == Cochain(g, m, n, bound, {
                (s, v): {(b, a): c for (a, b), c in tensor.items()}
                for s, v, tensor in keys_and_values(w)})
