from fractions import Fraction as F
from random import Random

import pytest

from qcurrent.current import CurrentElement, CurrentTensor
from qcurrent.exactnum import HPoly, factor, rank_of_rows, solve
from qcurrent.liealg import LieElement
from reference import kernel_basis, sparse_rows, transpose


def test_rank_identity():
    assert rank_of_rows([{i: 1} for i in range(3)]) == 3


def test_rank_zero():
    assert rank_of_rows([{} for _ in range(4)]) == 0


def test_stored_zeros_are_never_pivots():
    """A stored zero, int or Fraction, is dropped as the row is cleared of
    denominators, so neither rank nor factor takes it as a pivot."""
    assert rank_of_rows([{0: 0}]) == 0
    assert rank_of_rows([{0: 0, 1: 1}, {1: 1}]) == 1
    assert rank_of_rows([{0: F(0), 1: F(1, 2)}, {1: 1}]) == 1
    assert factor([{0: 0, 1: 1}, {0: 1, 1: 1}], 2).solve([1, 2]) == [1, 1]
    with pytest.raises(TypeError, match="float"):
        rank_of_rows([{0: 0.5}])


def test_rank_outer_product():
    u = [F(1), F(2), F(0), F(-1), F(3)]
    v = [F(2), F(1), F(1), F(1), F(1)]
    rows = [{j: a * b for j, b in enumerate(v) if a * b} for a in u]
    assert rank_of_rows(rows) == 1


def test_solve_identity():
    b = [F(3), F(-1, 2), F(7)]
    assert solve([{i: 1} for i in range(3)], 3, b) == b


def test_solve_inconsistent():
    assert solve([{}, {}], 2, [F(1), F(0)]) is None


def test_solve_back_substitution():
    rows = sparse_rows([[1, 1], [0, 2]])
    assert solve(rows, 2, [F(3), F(4)]) == [F(1), F(2)]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve([{i: 1} for i in range(2)], 2, [F(1)])


def test_solve_deterministic_repeats():
    rows = sparse_rows([[1, 2, 3], [2, 4, 6]])
    first = solve(rows, 3, [F(6), F(12)])
    assert first is not None
    for _ in range(3):
        assert solve(rows, 3, [F(6), F(12)]) == first


def test_factor_rejects_a_column_outside_the_range():
    """A column id outside range(ncols) is refused, not solved for."""
    for bad in (2, -1, "x"):
        with pytest.raises(ValueError, match="outside range"):
            factor([{0: 1}, {1: F(1, 2), bad: 3}], 2)


def _random_matrix(rng, nrows, ncols, density=0.4):
    return sparse_rows(
        [[F(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < density
          else 0 for j in range(ncols)] for i in range(nrows)])


def _times(rows, x):
    """The product of the matrix of `rows` and the dense vector x."""
    return [sum(v * x[j] for j, v in row.items()) for row in rows]


def test_rank_transpose_and_nullity_random():
    rng = Random(20240202)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _random_matrix(rng, nrows, ncols)
        r = rank_of_rows(m)
        assert r == rank_of_rows(transpose(m, ncols))
        assert r + len(kernel_basis(m, ncols)) == ncols


def _low_rank_matrix(rng, nrows, ncols, r):
    """A sparse rational matrix of rank at most r: rows are sparse
    combinations of r sparse rational rows, then some rows are duplicated,
    negated or scaled copies of others, in shuffled order."""
    base = [{j: F(rng.randint(-6, 6) or 1, rng.randint(1, 4))
             for j in rng.sample(range(ncols), rng.randint(1, max(1, ncols // 4)))}
            for _ in range(r)]
    rows = []
    while len(rows) < nrows:
        kind = rng.random()
        if rows and kind < 0.3:
            src = rng.choice(rows)
            f = rng.choice([F(1), F(-1), F(rng.randint(-5, 5) or 2, rng.randint(1, 3))])
            rows.append({j: f * v for j, v in src.items()})
        else:
            row = {}
            for b in rng.sample(base, rng.randint(1, min(r, 3))):
                f = F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                for j, v in b.items():
                    row[j] = row.get(j, 0) + f * v
            rows.append(row)
    rng.shuffle(rows)
    return [{j: v for j, v in row.items() if v} for row in rows]


def _rescaled_rows(rng, rows):
    """The rows each multiplied by a random integer up to 2^64 and by a
    random 1/k, so that pivots are not units and entries are large."""
    factors = [F(rng.randint(1, 2 ** 64) * rng.choice((1, -1)), rng.randint(1, 97))
               for _ in range(len(rows))]
    return [{j: factors[i] * v for j, v in row.items()}
            for i, row in enumerate(rows)]


def test_rank_matches_kernel_on_larger_rank_deficient_matrices():
    """The Markowitz elimination of `rank_of_rows` and the left-to-right
    one of `factor`, which share one update with no content gcd, against
    the independent reduced echelon form of `kernel_basis`, on matrices up
    to 40 x 50, as given and with rescaled rows.  `factor` eliminates a
    cleared copy: the caller's rows, Fractions and all, are unchanged."""
    rng = Random(4040)
    for _ in range(30):
        nrows, ncols = rng.randint(8, 40), rng.randint(8, 50)
        r = rng.randint(1, min(nrows, ncols) - 1)
        m = _low_rank_matrix(rng, nrows, ncols, r)
        for a in (m, _rescaled_rows(rng, m)):
            before = [dict(row) for row in a]
            got = rank_of_rows(a)
            assert got == ncols - len(kernel_basis(a, ncols))
            assert got == len(factor(a, ncols).steps)
            assert a == before
            assert got == rank_of_rows(transpose(a, ncols))
            assert got <= r


def test_kernel_vectors_are_in_kernel():
    rng = Random(99)
    for _ in range(10):
        m = _random_matrix(rng, 5, 6)
        for vec in kernel_basis(m, 6):
            assert not any(_times(m, [vec.get(j, 0) for j in range(6)]))


def test_solve_is_exact_when_consistent():
    rng = Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, nrows, ncols)
        x0 = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
        b = _times(m, x0)
        x = solve(m, ncols, b)
        assert x is not None
        residual = [bi - ai for bi, ai in zip(b, _times(m, x))]
        assert all(not r for r in residual)


def test_factor_replays_on_many_right_hand_sides():
    rng = Random(31)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        m = _random_matrix(rng, nrows, ncols)
        fact = factor(m, ncols)
        for _ in range(4):
            b = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(nrows)]
            assert fact.solve(b) == solve(m, ncols, b)


def _fraction_pivot_columns(rows: list, ncols: int) -> list:
    """The pivot columns of a plain Fraction Gauss-Jordan elimination of
    dense rows: column by column, a pivot wherever a row not used yet has a
    nonzero entry."""
    rows = [[F(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        used = len(pivots)
        pick = next((i for i in range(used, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[used], rows[pick] = rows[pick], rows[used]
        prow = rows[used]
        for i, row in enumerate(rows):
            if i != used and row[col]:
                f = row[col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        pivots.append(col)
    return pivots


def _rank_deficient_matrix(rng) -> list:
    """A product of an r x k and a k x c matrix with k < min(r, c), whose
    entries have denominators 1, 2, 3 and 5."""
    r, c = rng.randint(2, 8), rng.randint(2, 8)
    k = rng.randint(1, min(r, c) - 1)

    def entry():
        if rng.random() < 0.4:
            return F(0)
        return F(rng.randint(-3, 3), rng.choice((1, 2, 3, 5)))
    left = [[entry() for _ in range(k)] for _ in range(r)]
    right = [[entry() for _ in range(c)] for _ in range(k)]
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(c)]
            for i in range(r)]


def test_factor_solves_rank_deficient_systems_exactly():
    """factor(m).solve(b) solves m*x = b exactly, is None exactly when b is
    outside the column space, and pivots where a Fraction elimination
    does; the matrices exercise the row scales and the multipliers p of
    the updates p * row - q * prow."""
    rng = Random(1968)
    scaled_rows = multiplied_rows = 0
    outcomes = set()
    for _ in range(30):
        dense = _rank_deficient_matrix(rng)
        nrows, ncols = len(dense), len(dense[0])
        fact = factor(sparse_rows(dense), ncols)
        pivots = _fraction_pivot_columns(dense, ncols)
        assert [step[0] for step in fact.steps] == pivots
        scaled_rows += len(fact.row_scales)
        multiplied_rows += sum(p != 1 for step in fact.steps
                               for _, p, _ in step[4])
        for consistent in (True, False):
            if consistent:
                x0 = [F(rng.randint(-3, 3), rng.choice((1, 2, 7)))
                      for _ in range(ncols)]
                b = [sum(v * x for v, x in zip(row, x0)) for row in dense]
            else:
                b = [F(rng.randint(-3, 3), rng.choice((1, 4, 9)))
                     for _ in range(nrows)]
            in_span = ncols not in _fraction_pivot_columns(
                [row + [v] for row, v in zip(dense, b)], ncols + 1)
            x = fact.solve(b)
            assert (x is not None) == in_span
            outcomes.add(in_span)
            if x is not None:
                assert [sum(v * xj for v, xj in zip(row, x))
                        for row in dense] == b
    assert scaled_rows and multiplied_rows and outcomes == {True, False}


def test_factor_inconsistent_rhs_is_none():
    fact = factor(sparse_rows([[1, 2], [2, 4], [0, 0]]), 2)
    assert fact.solve([F(1), F(3), F(0)]) is None
    assert fact.solve([F(1), F(2), F(1)]) is None
    assert fact.solve([F(1), F(2), F(0)]) == [F(1), F(0)]


def test_solve_is_supported_on_the_first_basic_columns():
    """A*x = b, x vanishes off the pivot columns, and the pivot columns are
    the lexicographically first basis of the column space: each kernel
    vector of `kernel_basis` (built from the reduced echelon form) has its
    largest index at a free column."""
    rng = Random(2024)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _random_matrix(rng, nrows, ncols, 0.5)
        x0 = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        b = _times(m, x0)
        fact = factor(m, ncols)
        x = fact.solve(b)
        assert x is not None
        residual = [bi - ai for bi, ai in zip(b, _times(m, x))]
        assert not any(residual)
        pivots = {step[0] for step in fact.steps}
        assert all(not x[j] for j in range(ncols) if j not in pivots)
        kernel = kernel_basis(m, ncols)
        assert len(pivots) == rank_of_rows(m) == ncols - len(kernel)
        free = {max(vec) for vec in kernel}
        assert free == set(range(ncols)) - pivots


def _random_hpoly(rng):
    return HPoly({rng.randint(0, 4): F(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(rng.randint(0, 3))})


def test_hpoly_ring_axioms_random():
    rng = Random(5)
    for _ in range(40):
        a, b, c = (_random_hpoly(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_hpoly_basics():
    p = HPoly.rational(F(1, 2)) + HPoly.hbar(2, 3)
    assert p.coeff(0) == F(1, 2)
    assert p.coeff(2) == 3
    assert p.render() == "1/2 + 3*hbar^2"
    assert (p - p) == HPoly.zero()
    assert not HPoly.zero()
    assert HPoly.hbar(1) * HPoly.hbar(2) == HPoly.hbar(3)


def test_hpoly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        HPoly({-1: F(1)})


def test_integral_hpoly_results_hold_ints():
    """A sum, difference, negation or scale of Fraction coefficients that
    comes out integral is stored as an int, like every exact coefficient."""
    a = HPoly({0: F(1, 2), 1: F(3, 2)})
    b = HPoly({0: F(1, 2), 1: F(-1, 2)})
    for value, expected in ((a + b, {0: 1, 1: 1}), (a - b, {1: 2}),
                            (-(a + b), {0: -1, 1: -1}), (a * 2, {0: 1, 1: 3}),
                            (a * F(2, 3), {0: F(1, 3), 1: 1}),
                            (a + F(1, 2), {0: 1, 1: F(3, 2)}), (a - F(1, 2), {1: F(3, 2)})):
        assert value.data == expected
        assert all(type(c) is (int if c.denominator == 1 else F)
                   for c in value.data.values()), value
    assert a + b == HPoly.hbar(1) + 1 and a - b == HPoly.hbar(1, 2)


def test_elements_of_different_classes_or_arities_do_not_combine(sl2):
    """One space rule for both stores: elements combine and compare equal
    only when they are of one class and agree on its space attributes."""
    lie = LieElement(sl2, {0: 1})
    current = CurrentElement(sl2, {(0, 1): 1})
    pair = CurrentTensor(sl2, 2, {((0, 1), (2, 0)): 1})
    triple = CurrentTensor(sl2, 3, {((0, 1), (2, 0), (1, 1)): 1})
    for x, y in ((lie, current), (current, lie), (pair, triple), (triple, pair),
                 (lie, HPoly.one())):
        assert x != y
        for combine in (x.__add__, x.__sub__):
            with pytest.raises(ValueError, match="different spaces"):
                combine(y)
