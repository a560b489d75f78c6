from collections import Counter
from fractions import Fraction as F
from itertools import combinations, permutations
from math import comb
from random import Random

import pytest

from qcurrent import cohom
from qcurrent.cohom import (CobarChain, Cochain, CocycleConditionError,
                            CorrectionSystem, FiltrationError, GModule,
                            SymmetryError, WeightError, _block_cohomology_dim,
                            _ce_matrix_rows, _correction_rows, _minus_basis,
                            _sym_monomials, _tensor_basis, adjoint_module,
                            bicomplex_dh, bicomplex_dv, bicomplex_report,
                            cartier_report,
                            ce_cohomology_dims, cobar_differential,
                            dual_module, identity_shift_of,
                            random_cochain,
                            solve_correction, solver_report, tensor_module,
                            trivial_module, tensor_slice_keys, u_slice_module,
                            whitehead_report)
from qcurrent.envelope import normal_order
from qcurrent.exactnum import ONE, _int_store, accumulate, rank_of_rows
from qcurrent.liealg import build_sl
from reference import (CEChain, act, beta, ce_differential, cochain_from_json,
                       cochain_to_json, kernel_basis, minus_basis,
                       minus_cohomology_dim, pbw_coefficient_module,
                       pbw_slice_module, random_ce_chain,
                       reference_stack, sigma_involution, sigma_split,
                       solve_minus_coboundary, symmetric_slice_module,
                       symmetrize, tensor_basis,
                       transpose, validate, without_group)


# --- modules ---------------------------------------------------------------


def test_module_constructors_validate(sl2):
    validate(adjoint_module(sl2))
    validate(dual_module(adjoint_module(sl2)))
    validate(u_slice_module(sl2, 2))
    validate(tensor_module(adjoint_module(sl2), adjoint_module(sl2)))
    validate(trivial_module(sl2))


def test_sl3_adjoint_module_validates(sl3):
    validate(adjoint_module(sl3))


def test_tensor_slice_modules_validate(sl2, sl3):
    """The reference's T^n_{<=D} on symmetric monomials with the slotwise
    Leibniz action is a g-module, and so is its PBW slice with the slotwise
    adjoint action.  The U-slice module is the symmetric slice at n = 1,
    isomorphic to the PBW slice by symmetrization."""
    validate(symmetric_slice_module(sl2, 2, 2))
    validate(symmetric_slice_module(sl3, 1, 2))
    validate(pbw_slice_module(sl2, 2, 2))
    validate(pbw_slice_module(sl3, 1, 2))
    validate(u_slice_module(sl2, 2))
    assert u_slice_module(sl2, 2).actions == symmetric_slice_module(sl2, 1, 2).actions
    assert_symmetrization_intertwines(build_sl(2), 2)


def assert_symmetrization_intertwines(g, bound):
    """sym: S<=D -> U<=D, y_1...y_k -> (1/k!) times the sum of its
    orderings, is an isomorphism of g-modules on every basis monomial:
    sym(m) = m + terms of PBW length < k, so sym is invertible, and
    sym(x . m) = [x, sym(m)], the Leibniz action of the symmetric slice
    against the adjoint action on U(g) through `normal_order`."""
    module = u_slice_module(g, bound)
    keys = [mono for (mono,) in tensor_slice_keys(g, 1, bound)]
    assert module.dim == len(keys)
    images = [symmetrize(g, mono) for mono in keys]
    for j, mono in enumerate(keys):
        assert images[j].pop(mono) == 1
        assert all(len(lower) < len(mono) for lower in images[j])
        images[j][mono] = 1
    for x in range(g.dim):
        for j, image in enumerate(images):
            lhs, rhs = {}, {}
            for i, c in module.actions[x].get(j, {}).items():
                for mono, v in images[i].items():
                    accumulate(lhs, mono, c * v)
            for mono, v in image.items():
                for word, sign in (((x,) + mono, 1), (mono + (x,), -1)):
                    for m2, c in normal_order(g, word).items():
                        accumulate(rhs, m2, sign * c * v)
            assert lhs == rhs, (g.names[x], keys[j])


@pytest.mark.parametrize("n, bound", [(2, 4), (3, 3)])
def test_symmetrization_intertwines_leibniz_with_the_pbw_action(n, bound):
    assert_symmetrization_intertwines(build_sl(n), bound)


def test_module_permutations_intertwine(sl2, sl3):
    """Every constructor's signed permutations pass the check on
    construction, U<=D's at every D, and one flipped sign fails it."""
    for g in (sl2, sl3):
        module = tensor_module(dual_module(adjoint_module(g)), u_slice_module(g, 1))
        assert module.klein is not None and trivial_module(g).klein is not None
        omega, pi = module.klein
        for k in range(module.dim):
            flipped = list(omega)
            flipped[k] = (omega[k][0], -omega[k][1])
            with pytest.raises(ValueError, match="intertwine"):
                GModule(g, module.dim, module.actions, "flipped", (flipped, pi))
    assert all(u_slice_module(g, bound).klein is not None
               for g in (sl2, sl3) for bound in range(3))


def test_a_table_without_the_klein_group_refuses_the_symmetric_slice():
    """[e, f] doubled and [f, e] kept: omega no longer preserves the table,
    so the algebra has no Klein group, the modules that need none keep the
    trivial group, and the symmetric slice is refused."""
    g = build_sl(2)
    g.bracket_table[2, 0] = {1: 2}
    assert g.klein is None
    assert adjoint_module(g).klein is None and trivial_module(g).klein is None
    with pytest.raises(SymmetryError):
        u_slice_module(g, 1)


def test_module_weights_detected(sl2):
    big = tensor_module(dual_module(adjoint_module(sl2)), u_slice_module(sl2, 2))
    assert big.weights() is not None
    assert big.dim == 3 * 10


# --- Chevalley-Eilenberg ------------------------------------------------------


def test_ce_differential_degree_zero_is_action(sl2):
    mod = adjoint_module(sl2)
    v = CEChain(mod, 0, {(): {0: ONE}})  # the basis vector f
    d = ce_differential(v)
    for x in range(sl2.dim):
        assert d.value((x,)) == act(mod, x, {0: ONE})


def test_ce_differential_squares_to_zero(sl2, sl3):
    rng = Random(17)
    for g in (sl2, sl3):
        mod = tensor_module(adjoint_module(g), adjoint_module(g))
        for m in (0, 1):
            w = random_ce_chain(mod, m, rng)
            assert not ce_differential(ce_differential(w))


def test_ce_coboundary_is_closed(sl2):
    rng = Random(23)
    mod = adjoint_module(sl2)
    w = random_ce_chain(mod, 0, rng)
    assert not ce_differential(ce_differential(w))


def _ce_differential_over_all_subsets(omega):
    """The CE differential summed over every (m+1)-subset t of the basis."""
    module, m = omega.module, omega.m
    g = module.g
    out = {}
    for t in combinations(range(g.dim), m + 1):
        vec = {}
        for i in range(m + 1):
            for k, v in act(module, t[i], omega.value(t[:i] + t[i + 1:])).items():
                accumulate(vec, k, (-1) ** i * v)
            for j in range(i + 1, m + 1):
                rest = tuple(x for x in t if x not in (t[i], t[j]))
                for z, c in g.bracket_table.get((t[i], t[j]), {}).items():
                    if z in rest:
                        continue
                    s = tuple(sorted(rest + (z,)))
                    sign = (-1) ** (i + j + sum(1 for r in rest if r < z))
                    for k, v in omega.value(s).items():
                        accumulate(vec, k, sign * c * v)
        if vec:
            out[t] = vec
    return CEChain(module, m + 1, out)


@pytest.mark.parametrize("n", [2, 3])
def test_ce_differential_visits_every_nonzero_face(n):
    """Sparse and dense seeded chains, m <= 2: the support-driven
    `ce_differential` equals the sum over all subsets."""
    g = build_sl(n)
    rng = Random(31 + n)
    modules = (adjoint_module(g),
               tensor_module(dual_module(adjoint_module(g)), u_slice_module(g, 1)))
    for module in modules:
        for m in (0, 1, 2):
            subsets = list(combinations(range(g.dim), m))
            for entries in (1, 3, len(subsets)):
                data = {}
                for s in rng.sample(subsets, min(entries, len(subsets))):
                    data[s] = {rng.randrange(module.dim): F(rng.randint(1, 5), rng.randint(1, 3))
                               for _ in range(2)}
                omega = CEChain(module, m, data)
                assert ce_differential(omega) == _ce_differential_over_all_subsets(omega)


def _ce_entries_by_matrix(module, m):
    """{(cochain id, column id): entry} of the matrix path of the module
    with the trivial group, whose rows are one part.  Row i is the image of
    the i-th basis cochain of `_weight_zero_cochains`, named by its id
    sidx * module.dim + k; the column ids are the assembly's own."""
    rows, = _ce_matrix_rows(without_group(module), m)
    cochains = _weight_zero_cochains(module, m)
    assert len(rows) == len(cochains)
    out = {}
    for cid, row in zip(cochains, rows):
        assert all(row.values())
        for col, v in row.items():
            out[cid, col] = v
    return out


def _ce_entries_by_apply(module, m):
    """The entries of the whole differential, read off `ce_differential` of
    every basis cochain."""
    out = {}
    for sidx, s in enumerate(combinations(range(module.g.dim), m)):
        for k in range(module.dim):
            image = ce_differential(CEChain(module, m, {s: {k: ONE}}))
            for t, vec in image.data.items():
                for kprime, v in vec.items():
                    out[t, kprime, sidx * module.dim + k] = v
    return out


def _weight(module, s, k):
    """The Cartan weight of the cochain x_s -> b_k."""
    g = module.g
    return tuple(module.weights()[k][i] - sum(g.weights[x][i] for x in s)
                 for i in range(g.rank))


def _weight_zero_cochains(module, m):
    """The ids sidx * module.dim + k of the basis cochains s -> b_k of
    weight zero, in order; every one when the module has no weights."""
    zero = (0,) * module.g.rank
    return [sidx * module.dim + k
            for sidx, s in enumerate(combinations(range(module.g.dim), m))
            for k in range(module.dim)
            if module.weights() is None or _weight(module, s, k) == zero]


def _columns(entries):
    """The columns {row: entry} of {(row, column): entry}, as a multiset:
    it is blind to the naming of the columns."""
    out = {}
    for (row, col), v in entries.items():
        out.setdefault(col, set()).add((row, v))
    return Counter(map(frozenset, out.values()))


def _non_diagonal(module, a, b):
    """`module` in the basis with b_b replaced by b_b + b_a: conjugation by
    P = 1 + E_ab, which makes a diagonal Cartan action non-diagonal when
    b_a and b_b have different weights."""
    n = module.dim
    actions = []
    for cols in module.actions:
        mat = [[0] * n for _ in range(n)]
        for j, col in cols.items():
            for i, v in col.items():
                mat[i][j] = v
        for i in range(n):  # A P: column b += column a
            mat[i][b] += mat[i][a]
        for j in range(n):  # P^-1 (A P): row a -= row b
            mat[a][j] -= mat[b][j]
        actions.append({j: {i: mat[i][j] for i in range(n) if mat[i][j]}
                        for j in range(n) if any(mat[i][j] for i in range(n))})
    return GModule(module.g, n, actions, f"{module.label}'")


def test_ce_matrix_rows_match_the_apply_path(sl2, sl3):
    """Labelled cross-check: the assembled row of every weight-zero basis
    cochain is its image under the independent `ce_differential`, and every
    row and column has weight zero.  The column ids are private, so the
    columns are matched by their entries."""
    cases = [trivial_module(sl2), adjoint_module(sl2),
             tensor_module(dual_module(adjoint_module(sl2)),
                           u_slice_module(sl2, 1)),
             adjoint_module(sl3)]
    for module in cases:
        nonzero = 0
        for m in range(3):
            zero = (0,) * module.g.rank
            rows = set(_weight_zero_cochains(module, m))
            by_apply = {}
            for (t, kprime, cid), v in _ce_entries_by_apply(module, m).items():
                if cid in rows:
                    assert _weight(module, t, kprime) == zero
                    by_apply[cid, (t, kprime)] = v
            by_matrix = _ce_entries_by_matrix(module, m)
            assert _columns(by_matrix) == _columns(by_apply), (module.label, m)
            nonzero += len(by_matrix)
        assert nonzero  # the comparison is not vacuous


def test_ce_matrix_rows_without_weights_are_the_whole_matrix(sl2):
    """A module whose Cartan action is not diagonal keeps every row."""
    module = _non_diagonal(adjoint_module(sl2), 0, 2)  # f, h, e + f
    validate(module)
    assert module.weights() is None
    for m in range(3):
        by_matrix = _ce_entries_by_matrix(module, m)
        by_apply = {(cid, (t, kprime)): v for (t, kprime, cid), v
                    in _ce_entries_by_apply(module, m).items()}
        assert by_matrix and _columns(by_matrix) == _columns(by_apply)
        rows, = _ce_matrix_rows(module, m)
        assert len(rows) == len(list(combinations(range(sl2.dim), m))) * module.dim
    assert ce_cohomology_dims(module, 2) == [0, 0, 0]


def test_ce_matrix_rows_reject_an_action_that_breaks_the_weights(sl2):
    """A diagonal Cartan action with an e-action that keeps the weight is no
    g-module: the assembly refuses it instead of dropping its rows."""
    actions = [dict() for _ in range(sl2.dim)]
    actions[sl2.names.index("e")] = {0: {1: 1}}
    module = GModule(sl2, 2, actions, "broken")
    assert module.weights() == [(0,), (0,)]
    with pytest.raises(WeightError, match="weight-zero block"):
        _ce_matrix_rows(module, 0)


def test_zero_block_rank_against_all_blocks(sl2):
    """The blocks of nonzero weight are acyclic: in each degree their
    cochains are exactly accounted for by the ranks of the differential on
    them, which are the all-blocks ranks less the weight-zero ranks, summed
    over the character parts."""
    module = tensor_module(dual_module(adjoint_module(sl2)),
                           u_slice_module(sl2, 2))
    assert module.weights() is not None
    prev_all = prev_zero = 0
    for m in range(3):
        columns, row_ids = {}, {}
        for (t, kprime, col), v in _ce_entries_by_apply(module, m).items():
            rid = row_ids.setdefault((t, kprime), len(row_ids))
            columns.setdefault(col, {})[rid] = v
        rank_all = rank_of_rows(columns.values())
        parts = _ce_matrix_rows(module, m)
        ncols, rank_zero = sum(map(len, parts)), sum(map(rank_of_rows, parts))
        all_cols = len(list(combinations(range(sl2.dim), m))) * module.dim
        assert 0 < ncols < all_cols and 0 < rank_zero < rank_all
        assert all_cols - ncols == (rank_all - rank_zero) + (prev_all - prev_zero)
        prev_all, prev_zero = rank_all, rank_zero


@pytest.mark.parametrize("n, bound", [(2, None), (2, 2), (3, 1)])
def test_image_rows_and_their_transpose_have_one_rank(n, bound):
    """Row rank equals column rank on real blocks: the Markowitz kernel
    ranks the image rows of the assembly and their transpose, the (t, k')
    rows, through two different pivot sequences to the same rank, on every
    character part."""
    g = build_sl(n)
    module = adjoint_module(g) if bound is None else tensor_module(
        dual_module(adjoint_module(g)), u_slice_module(g, bound))
    ranks = [0, 0, 0]
    for m in range(3):
        for rows in _ce_matrix_rows(module, m):
            ncols = 1 + max((j for row in rows for j in row), default=-1)
            rank = rank_of_rows(rows)
            assert rank_of_rows(transpose(rows, ncols)) == rank
            ranks[m] += rank
    assert ranks[1] and ranks[2]  # the comparison is not vacuous


@pytest.mark.parametrize("bound", [2, 3])
def test_character_parts_rank_like_the_whole_pbw_block(bound):
    """The four character parts of dual(adjoint) (x) U<= D on the symmetric
    slice partition its weight-zero cochains, and their ranks sum to the
    rank of the whole block on the PBW slice, which has one part, in every
    degree m <= 2."""
    g = build_sl(3)
    sym = tensor_module(dual_module(adjoint_module(g)), u_slice_module(g, bound))
    pbw = pbw_coefficient_module(g, bound)
    for m in range(3):
        parts = _ce_matrix_rows(sym, m)
        whole, = _ce_matrix_rows(pbw, m)
        assert len(parts) == 4 and all(parts)
        assert sum(map(len, parts)) == len(whole)
        assert sum(map(rank_of_rows, parts)) == rank_of_rows(whole)


def test_whitehead_dims(sl2):
    assert ce_cohomology_dims(adjoint_module(sl2), 2) == [0, 0, 0]
    assert ce_cohomology_dims(trivial_module(sl2), 0) == [1]
    big = tensor_module(dual_module(adjoint_module(sl2)), u_slice_module(sl2, 2))
    assert ce_cohomology_dims(big, 2) == [1, 0, 0]


def test_whitehead_adjoint_tensor_adjoint(sl2, sl3):
    for g in (sl2, sl3):
        mod = tensor_module(adjoint_module(g), adjoint_module(g))
        assert ce_cohomology_dims(mod, 2)[1:] == [0, 0]


def test_whitehead_deeper_slice(sl2):
    big = tensor_module(dual_module(adjoint_module(sl2)), u_slice_module(sl2, 3))
    assert ce_cohomology_dims(big, 2) == [2, 0, 0]


def test_whitehead_report(sl2):
    report = whitehead_report(sl2)
    assert report.passed
    assert len(report.checks) == 5


def test_whitehead_report_sl3(sl3):
    assert whitehead_report(sl3).passed


def test_trivial_module_full_cohomology(sl2):
    # H^* (g, trivial) = exterior invariants: 1, 0, 0, 1 for sl_2
    assert ce_cohomology_dims(trivial_module(sl2), 3) == [1, 0, 0, 1]


# --- clearing ----------------------------------------------------------------


def _ranks_of_every_row(module, up_to):
    """[m][c]: the rank of part c of d_m over every row, without clearing."""
    return [[rank_of_rows(rows) for rows in _ce_matrix_rows(module, m)]
            for m in range(up_to + 1)]


def _dims_from_ranks(module, ranks):
    dims, prev = [], 0
    for m, parts in enumerate(ranks):
        dims.append(sum(map(len, _ce_matrix_rows(module, m))) - sum(parts) - prev)
        prev = sum(parts)
    return dims


def _traced_dims(module, up_to, monkeypatch):
    """`ce_cohomology_dims(module, up_to)`, the (rows ranked, rank) of each
    rank call in [m][c] order, and the verdict of each certificate."""
    calls, verdicts = [], []
    kills = cohom._kills

    def spy_rank(rows, pivots=None):
        rank = rank_of_rows(rows, pivots)
        calls.append((len(rows), rank))
        return rank

    def spy_kills(prev_rows, rows_by_id):
        verdicts.append(kills(prev_rows, rows_by_id))
        return verdicts[-1]
    monkeypatch.setattr(cohom, "rank_of_rows", spy_rank)
    monkeypatch.setattr(cohom, "_kills", spy_kills)
    dims = ce_cohomology_dims(module, up_to)
    monkeypatch.undo()
    parts = len(calls) // (up_to + 1)
    return dims, [calls[m * parts:(m + 1) * parts] for m in range(up_to + 1)], verdicts


@pytest.mark.parametrize("n, bound", [(2, None), (3, None), (2, 2), (2, 3),
                                      (2, 4), (3, 2)])
def test_clearing_keeps_every_rank(n, bound, monkeypatch):
    """On sl_n, d_m . d_{m-1} = 0 is certified on every part, and the rows
    that the previous degree's pivots leave give each part's rank over
    every row, up to degree 3.  At m = 2, where H^2 = 0, the rows ranked
    are exactly the rank, fewer than the rows: the cleared path runs."""
    g = build_sl(n)
    module = adjoint_module(g) if bound is None else tensor_module(
        dual_module(adjoint_module(g)), u_slice_module(g, bound))
    dims, calls, verdicts = _traced_dims(module, 3, monkeypatch)
    ranks = _ranks_of_every_row(module, 3)
    assert [[rank for _, rank in parts] for parts in calls] == ranks
    assert dims == _dims_from_ranks(module, ranks)
    assert len(verdicts) == 3 * len(ranks[0]) and all(verdicts)
    assert [ranked for ranked, _ in calls[2]] == ranks[2]
    assert sum(ranks[2]) < sum(map(len, _ce_matrix_rows(module, 2)))


def test_the_certificate_reads_every_column_a_row_reaches():
    """d_m kills the rows of d_{m-1} only when every orbit a row reaches
    has a row of d_m; a stored zero reaches nothing."""
    rows = {0: {2: 1}, 1: {2: 1}}
    assert cohom._kills([{0: 1, 1: -1}, {0: 1, 1: -1, 3: 0}], rows)
    assert not cohom._kills([{0: 1, 1: 1}], rows)
    assert not cohom._kills([{0: 1, 1: -1, 3: 1}], rows)


def _double_column(module, x, j):
    actions = [dict(cols) for cols in module.actions]
    actions[x][j] = {i: 2 * c for i, c in actions[x][j].items()}
    return GModule(module.g, module.dim, actions, f"{module.label}'")


def _a2_with_e1_f1_doubled():
    g = build_sl(3)
    e, f = g.pos_index(0), g.neg_index(0)
    g.bracket_table[e, f] = {z: 2 * c for z, c in g.bracket_table[e, f].items()}
    return adjoint_module(g)


@pytest.mark.parametrize("make, dims", [
    (lambda: _double_column(adjoint_module(build_sl(3)), 0, 1), [0, -1, -4, -7]),
    (_a2_with_e1_f1_doubled, [0, -1, -4, -8]),
], ids=("column-doubled", "e1-f1-doubled"))
def test_a_broken_complex_is_ranked_on_every_row(make, dims, monkeypatch):
    """Where d . d != 0 the certificate fails and every row is ranked, so
    the dims are those of the ranks over every row, negative as they are:
    an action with one column doubled, and a fresh A2 algebra with its
    [e1, f1] entry doubled, whose H^1 and H^2 read -1 and -4."""
    module = make()
    got, _, verdicts = _traced_dims(module, 3, monkeypatch)
    assert got == _dims_from_ranks(module, _ranks_of_every_row(module, 3)) == dims
    assert not all(verdicts)


# --- cobar -----------------------------------------------------------------


def test_primitives_are_cocycles():
    for v_dim in (1, 2, 3):
        for k in range(v_dim):
            mono = tuple(1 if i == k else 0 for i in range(v_dim))
            y = CobarChain(v_dim, 1, 1, {(mono,): ONE})
            assert not cobar_differential(y)


def _random_cobar(v_dim, n, degree, rng):
    data = {}
    for key in tensor_basis(v_dim, n, degree):
        if rng.random() < 0.4:
            c = F(rng.randint(-3, 3), rng.randint(1, 2))
            if c:
                data[key] = c
    return CobarChain(v_dim, n, degree, data)


def test_cobar_differential_squares_to_zero():
    rng = Random(6)
    for _ in range(10):
        y = _random_cobar(2, rng.randint(1, 2), rng.randint(0, 3), rng)
        assert not cobar_differential(cobar_differential(y))


def test_sigma_commutes_with_differential():
    rng = Random(8)
    for _ in range(10):
        y = _random_cobar(2, 2, rng.randint(0, 3), rng)
        assert cobar_differential(sigma_involution(y)) == \
            sigma_involution(cobar_differential(y))


def test_sigma_split_properties():
    rng = Random(10)
    y = _random_cobar(3, 2, 3, rng)
    plus, minus = sigma_split(y)
    assert plus + minus == y
    assert sigma_involution(plus) == plus
    assert sigma_involution(minus) == minus.scale(-1)
    assert sigma_involution(sigma_involution(y)) == y


def test_minus_part_at_n2_is_symmetric():
    y = CobarChain(2, 2, 1, {((1, 0), (0, 0)): ONE})
    _, minus = sigma_split(y)
    assert minus.data == {((1, 0), (0, 0)): F(1, 2), ((0, 0), (1, 0)): F(1, 2)}


def test_cartier_dimensions():
    for v_dim in (1, 2, 3):
        for d in range(5):
            assert minus_cohomology_dim(v_dim, 2, d) == 0


def test_integer_cobar_path_is_exact():
    """The differential keeps integral coefficients as ints; on rational
    chains it must still be linear over the rationals."""
    rng = Random(12)
    for _ in range(12):
        y = _random_cobar(rng.randint(1, 3), rng.randint(1, 2),
                          rng.randint(0, 3), rng)
        for q in (F(1, 2), F(7, 6)):
            scaled = y.scale(q)
            assert scaled.data == {k: c * q for k, c in y.data.items()}
            assert cobar_differential(scaled) == \
                cobar_differential(y).scale(q)


def _rank_by_kernel(chains):
    """Rank of the differential's images, built as sparse rows (one row
    per image) and measured with `kernel_basis`."""
    images = [cobar_differential(y) for y in chains]
    index = {}
    for img in images:
        for key in img.data:
            index.setdefault(key, len(index))
    rows = [{index[key]: c for key, c in img.data.items()} for img in images]
    return len(index) - len(kernel_basis(rows, len(index)))


def test_minus_cohomology_matches_kernel_reference():
    """`minus_cohomology_dim`, ranked block by block, against the ranks of
    the whole, unsplit complex at each degree; every mismatch is listed."""
    mismatches = []
    for v_dim in (1, 2, 3):
        for n in (1, 2, 3):
            for d in range(5):
                cur = minus_basis(v_dim, n, d)
                prev = minus_basis(v_dim, n - 1, d)
                expected = len(cur) - _rank_by_kernel(cur) - \
                    _rank_by_kernel(prev)
                got = minus_cohomology_dim(v_dim, n, d)
                if got != expected:
                    mismatches.append(((v_dim, n, d), got, expected))
    assert mismatches == []


def _multidegree(key, v_dim):
    return tuple(sum(mono[i] for mono in key) for i in range(v_dim))


def test_cobar_blocks_partition_each_degree_and_the_differential_keeps_them():
    """The multidegree blocks of one degree are disjoint and together hold
    every tensor, and the cobar differential of each tensor and of each minus
    basis chain of block alpha has only keys of multidegree alpha."""
    for v_dim in (1, 2, 3):
        for n in range(4):
            for d in range(5):
                count = 0
                for alpha in _sym_monomials(v_dim, d):
                    block = _tensor_basis(alpha, n)
                    count += len(block)
                    chains = [CobarChain(v_dim, n, d, {key: ONE})
                              for key in block] + _minus_basis(alpha, n)
                    for y in chains:
                        keys = list(y.data) + list(cobar_differential(y).data)
                        assert {_multidegree(key, v_dim) for key in keys} \
                            <= {alpha}, (alpha, n, y.data)
                    assert len(set(block)) == len(block)
                assert count == (comb(d + n * v_dim - 1, d) if n else d == 0)


def test_block_cohomology_is_the_same_on_every_rearrangement():
    """Permuting the coordinates of V preserves the dim H^n of a block, and
    the blocks of all multidegrees, each ranked directly, add up to
    `minus_cohomology_dim`."""
    for v_dim in (1, 2, 3):
        for n in (1, 2, 3):
            for d in range(5):
                dims = {alpha: _block_cohomology_dim(alpha, n)
                        for alpha in _sym_monomials(v_dim, d)}
                for alpha, dim in dims.items():
                    for perm in permutations(alpha):
                        assert dims[perm] == dim, (alpha, perm, n)
                assert sum(dims.values()) == \
                    minus_cohomology_dim(v_dim, n, d), (v_dim, n, d)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_degree_zero_block_has_no_coordinate_artifact(n):
    """Padding a multidegree with zeros leaves its block unchanged, down to
    no coordinate at all: alpha = () gives the one n-tuple of empty
    vectors, and its H^n agrees with that of (0,) and (0, 0)."""
    assert _tensor_basis((), n) == [((),) * n]
    assert len({_block_cohomology_dim(alpha, n)
                for alpha in ((), (0,), (0, 0))}) == 1
    assert len({minus_cohomology_dim(v_dim, n, 0) for v_dim in (0, 1, 2)}) == 1


def _partitions(degree, parts):
    """Partitions of `degree` into at most `parts` parts, largest first."""
    if degree == 0:
        return [()]
    if parts == 0:
        return []
    return [(first,) + rest for first in range(degree, 0, -1)
            for rest in _partitions(degree - first, parts - 1)
            if not rest or rest[0] <= first]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_zero_padding_keeps_the_block_of_a_partition(n):
    """The premise of ranking one block per partition: padding lambda with
    one or two zero coordinates leaves the size of the minus basis and
    dim H^n of its block unchanged."""
    for d in range(7):
        for lam in _partitions(d, 3):
            padded = [lam, lam + (0,), lam + (0, 0)]
            assert len({len(_minus_basis(alpha, n)) for alpha in padded}) == 1, lam
            assert len({_block_cohomology_dim(alpha, n)
                        for alpha in padded}) == 1, lam


def test_cartier_report_ranks_each_partition_once_per_report(monkeypatch):
    """At degree 8 the V1-V3 checks read 75 blocks of 41 partitions (those
    of d <= 8 with at most 3 parts): each is ranked once per report, and a
    second report ranks them all again, so no memo outlives its report."""
    calls = []
    block = cohom._block_cohomology_dim

    def counted(alpha, n):
        calls.append(alpha)
        return block(alpha, n)

    monkeypatch.setattr(cohom, "_block_cohomology_dim", counted)
    assert sum(len(_partitions(d, 3)) for d in range(9)) == 41
    assert cartier_report(8).passed
    assert len(calls) == len(set(calls)) == 41
    assert cartier_report(8).passed
    assert len(calls) == 82


def test_minus_basis_holds_int_coefficients():
    """`_minus_basis` builds its chains from the ints 1 and -sign; they are
    the chains built from the Fractions ONE and -sign * ONE."""
    for v_dim in (1, 2, 3):
        for d in range(6):
            for alpha in _sym_monomials(v_dim, d):
                for n in range(4):
                    sign = (-1) ** (n * (n + 1) // 2)
                    expected, seen = [], set()
                    for key in _tensor_basis(alpha, n):
                        rkey = tuple(reversed(key))
                        if key == rkey:
                            if sign == -1:
                                expected.append({key: ONE})
                        elif min(key, rkey) not in seen:
                            seen.add(min(key, rkey))
                            expected.append({key: ONE, rkey: -sign * ONE})
                    got = _minus_basis(alpha, n)
                    assert [y.data for y in got] == \
                        [CobarChain(v_dim, n, d, e).data for e in expected], (alpha, n)
                    assert all(type(c) is int for y in got for c in y.data.values())


def test_cartier_report():
    """One check per (dim V, degree), dim V outer, all in one report."""
    report = cartier_report(4)
    assert report.passed
    assert (report.suite, report.algebra) == ("cartier", "Sym(V), dim V in {1,2,3}")
    assert [c.id for c in report.checks] == [
        f"V{v}-H2-minus-degree-{d}" for v in (1, 2, 3) for d in range(5)]


def test_solve_minus_coboundary_roundtrip():
    rng = Random(4)
    for d in (1, 2, 3):
        chain = CobarChain(2, 1, d)
        for b in minus_basis(2, 1, d):
            if rng.random() < 0.6:
                chain = chain + b.scale(F(rng.randint(-2, 2)))
        y = cobar_differential(chain)
        x = solve_minus_coboundary(y)
        assert cobar_differential(x) == y


def test_solve_minus_coboundary_rejects_non_cocycle():
    # symmetric (so in the minus part at n = 2) but not closed
    bad = CobarChain(2, 2, 1, {((1, 0), (0, 0)): ONE, ((0, 0), (1, 0)): ONE})
    assert cobar_differential(bad)  # genuinely not a cocycle
    with pytest.raises(CocycleConditionError, match="cocycle"):
        solve_minus_coboundary(bad)


def test_solve_minus_coboundary_rejects_plus_part():
    y = CobarChain(2, 2, 1, {((1, 0), (0, 0)): ONE, ((0, 0), (1, 0)): -ONE})
    with pytest.raises(CocycleConditionError):
        solve_minus_coboundary(y)


# --- bicomplex -----------------------------------------------------------------


def test_dh_at_00_is_intertwiner_defect(sl2):
    # v = f maps to the monomial f
    w = Cochain(sl2, 0, 1, 2, {((), 0): {((0,),): ONE}})
    d = bicomplex_dh(w)
    for x in range(sl2.dim):
        for v in range(sl2.dim):
            tensor = d.value((x,), v)
            from qcurrent.envelope import ad_letter
            expected = {}
            if v == 0:
                expected = {(m,): c for m, c in ad_letter(sl2, x, (0,)).items()}
            for z, c in sl2.bracket_table.get((x, v), {}).items():
                if z == 0:
                    for key in [((0,),)]:
                        expected[key] = expected.get(key, F(0)) - c
            expected = {k: v2 for k, v2 in expected.items() if v2}
            assert tensor == expected


def test_identity_map_is_horizontal_cocycle(sl2):
    w = Cochain(sl2, 0, 1, 2, {((), v): {((v,),): ONE} for v in range(sl2.dim)})
    assert not bicomplex_dh(w)


def test_dh_kernel_iff_intertwiner(sl2):
    """Both directions at bidegree (0, 1): the kernel of dH consists exactly
    of the equivariant maps.  The unknowns are the unit cochains v -> (the
    basis tensor at slice position j), in column v * size + j."""
    size = len(tensor_slice_keys(sl2, 1, 2))
    zero = Cochain(sl2, 0, 1, 2)
    index = {}
    cols = []
    for col in range(sl2.dim * size):
        v, j = divmod(col, size)
        image = bicomplex_dh(zero._like({((), v): {j: 1}}, 1))
        cols.append({index.setdefault((s, v2, k), len(index)): F(c, image.den)
                     for (s, v2), tensor in image.data.items()
                     for k, c in tensor.items()})
    kern = kernel_basis(transpose(cols, len(index)), len(cols))
    # dim Hom_g(g_ad, U<=2) = 1 for sl2 (the inclusion, up to scale)
    assert len(kern) == 1
    values = {}
    for col, c in kern[0].items():
        v, j = divmod(col, size)
        values.setdefault(((), v), {})[j] = c
    den, data = _int_store(values)
    w = beta(zero._like(data, den))  # in PBW coordinates, where ad_letter acts
    for x in range(sl2.dim):
        for v in range(sl2.dim):
            lhs = {}
            from qcurrent.envelope import ad_letter
            for (mono,), c in w.value((), v).items():
                for m2, q in ad_letter(sl2, x, mono).items():
                    k2 = (m2,)
                    s = lhs.get(k2, F(0)) + c * q
                    if s:
                        lhs[k2] = s
                    else:
                        lhs.pop(k2, None)
            rhs = {}
            for z, c in sl2.bracket_table.get((x, v), {}).items():
                for tkey, c2 in w.value((), z).items():
                    s = rhs.get(tkey, F(0)) + c * c2
                    if s:
                        rhs[tkey] = s
                    else:
                        rhs.pop(tkey, None)
            assert lhs == rhs
    # and a visibly non-equivariant map fails dH = 0
    bad = Cochain(sl2, 0, 1, 2, {((), 0): {((1,),): ONE}})
    assert bicomplex_dh(bad)


def test_dv_at_01_is_box_minus_delta(sl2):
    rng = Random(12)
    psi = random_cochain(sl2, 0, 1, 2, rng)
    d = bicomplex_dv(psi)
    from qcurrent.envelope import mono_coproduct_terms
    for v in range(sl2.dim):
        expected = {}
        for (mono,), c in psi.value((), v).items():
            for key in (((), mono), (mono, ())):
                expected[key] = expected.get(key, F(0)) + c
            for key, q in mono_coproduct_terms(sl2, mono).items():
                expected[key] = expected.get(key, F(0)) - c * q
        expected = {k: val for k, val in expected.items() if val}
        assert d.value((), v) == expected


def test_bicomplex_identities_random(sl2):
    rng = Random(2)
    for m in range(3):
        for n in (1, 2):
            w = random_cochain(sl2, m, n, 2, rng)
            assert not bicomplex_dh(bicomplex_dh(w))
            assert not bicomplex_dv(bicomplex_dv(w))
            assert bicomplex_dv(bicomplex_dh(w)) == bicomplex_dh(bicomplex_dv(w))


def test_bicomplex_report(sl2):
    assert bicomplex_report(sl2, samples=18, seed=5).passed


def test_bicomplex_report_shares_each_samples_differentials(sl2, monkeypatch):
    """The three checks of a bidegree share dH(w) and dV(w): 3 dH and 3 dV
    calls per sample, not 4 and 4, and each check still names its own
    first failing sample.  Doubling dV on the second (1, 1) sample breaks
    only dH dV = dV dH, there."""
    rng = Random(1)
    bidegrees = [(m, n) for m in range(3) for n in range(1, 3)]
    samples = [random_cochain(sl2, *bidegrees[k % 6], 2, rng) for k in range(12)]
    target = samples[8]
    assert (target.m, target.n) == (1, 1)
    calls = Counter()
    dh, dv = bicomplex_dh, bicomplex_dv

    def counted_dh(w):
        calls["dH"] += 1
        return dh(w)

    def doubled_dv(w):
        calls["dV"] += 1
        out = dv(w)
        return out + out if w == target else out
    monkeypatch.setattr("qcurrent.cohom.bicomplex_dh", counted_dh)
    monkeypatch.setattr("qcurrent.cohom.bicomplex_dv", doubled_dv)
    report = bicomplex_report(sl2, samples=12, seed=1)
    assert calls == {"dH": 36, "dV": 36}
    assert [(c.id, c.residual) for c in report.checks if not c.passed] == [
        ("dh-dv-commute-11", "sample 1: dH dV != dV dH")]


@pytest.mark.parametrize("call, message", [
    (lambda g: whitehead_report(g, bound=-1), "bound must be at least 0"),
    (lambda g: bicomplex_report(g, bound=-1), "bound must be at least 0"),
    (lambda g: bicomplex_report(g, samples=5), "samples must be at least 6"),
    (lambda g: solver_report(g, bound=-1), "bound must be at least 0"),
    (lambda g: cartier_report(-1), "d_max must be at least 0"),
])
def test_a_report_that_would_check_nothing_is_refused(sl2, call, message):
    """A negative bound leaves an empty slice, and fewer samples than
    bidegrees leave a bidegree unsampled: the checks would pass on nothing,
    so the call is refused, as the CLI refuses such options."""
    with pytest.raises(ValueError, match=message):
        call(sl2)


def test_cochain_filtration_guard(sl2):
    with pytest.raises(Exception):
        Cochain(sl2, 0, 1, 1, {((), 0): {((0, 0, 0),): ONE}})


@pytest.mark.parametrize("tkey", [((0, 0, 0),), ((2, 0),), ((0,), ())])
def test_differentials_refuse_a_key_outside_the_slice(sl2, tkey):
    """A tensor key that is too long, not a sorted monomial, or of the wrong
    arity is refused by the constructor with a FiltrationError, so dH and
    dV never meet one: a cochain keeps only slice positions."""
    message = ("exceeds filtration 2" if sum(map(len, tkey)) > 2
               else "not in the 1-fold tensor slice of filtration 2")
    with pytest.raises(FiltrationError, match=message):
        Cochain(sl2, 0, 1, 2, {((), 0): {tkey: 1}})


def test_cochain_json_load_checks_the_filtration(sl2):
    payload = cochain_to_json(Cochain(sl2, 0, 1, 3, {((), 0): {((0, 0, 0),): ONE}}))
    payload["bound"] = 2
    with pytest.raises(FiltrationError, match="exceeds filtration 2"):
        cochain_from_json(sl2, payload)


# --- solver --------------------------------------------------------------------


def test_solver_zero_data(sl2):
    phi = solve_correction(Cochain(sl2, 1, 1, 2), Cochain(sl2, 0, 2, 2))
    assert not phi


def test_solver_roundtrip_and_uniqueness(sl2):
    rng = Random(100)
    for _ in range(4):
        phi0 = random_cochain(sl2, 0, 1, 2, rng, density=0.7)
        gamma = bicomplex_dh(phi0)
        eta = bicomplex_dv(phi0)
        phi = solve_correction(gamma, eta)
        assert bicomplex_dh(phi) == gamma
        assert bicomplex_dv(phi) == eta
        lam = identity_shift_of(phi - phi0)
        assert lam is not None


def test_solver_sl3(sl3):
    rng = Random(41)
    phi0 = random_cochain(sl3, 0, 1, 2, rng, density=0.2)
    phi = solve_correction(bicomplex_dh(phi0), bicomplex_dv(phi0))
    assert identity_shift_of(phi - phi0) is not None


def test_solver_rejects_bad_gamma(sl2):
    rng = Random(33)
    gamma = random_cochain(sl2, 1, 1, 2, rng)
    while not bicomplex_dh(gamma):
        gamma = random_cochain(sl2, 1, 1, 2, rng)
    with pytest.raises(CocycleConditionError, match="gamma"):
        solve_correction(gamma, Cochain(sl2, 0, 2, 2))


def test_solver_checks_the_filtration_bounds_first(sl2):
    """gamma and eta must share one bound, the bound of the solve: a
    mismatch is refused up front, naming both, and matched bounds still
    solve."""
    rng = Random(77)
    phi2 = random_cochain(sl2, 0, 1, 2, rng, density=0.7)
    phi3 = random_cochain(sl2, 0, 1, 3, rng, density=0.5)
    gamma, eta = bicomplex_dh(phi2), bicomplex_dv(phi2)
    with pytest.raises(ValueError, match="got 2 and 3"):
        solve_correction(gamma, bicomplex_dv(phi3))
    with pytest.raises(ValueError, match="got 3 and 2"):
        solve_correction(bicomplex_dh(phi3), eta)
    phi = solve_correction(gamma, eta)
    assert bicomplex_dh(phi) == gamma
    assert bicomplex_dv(phi) == eta


def test_solver_rejects_asymmetric_eta(sl2):
    phi0 = Cochain(sl2, 0, 1, 2)
    # f (x) h minus nothing
    eta = Cochain(sl2, 0, 2, 2, {((), 0): {((0,), (1,)): ONE, ((), ()): ONE}})
    with pytest.raises(CocycleConditionError):
        solve_correction(bicomplex_dh(phi0), eta)


def test_solver_rejects_mixed_equation_violation(sl2):
    phi0 = Cochain(sl2, 0, 1, 2, {((), 0): {((0, 2),): ONE}})
    gamma = bicomplex_dh(phi0)
    other = Cochain(sl2, 0, 1, 2, {((), 1): {((1, 1),): ONE}})
    eta = bicomplex_dv(other)
    if bicomplex_dv(gamma) - bicomplex_dh(eta):
        with pytest.raises(CocycleConditionError, match="mixed"):
            solve_correction(gamma, eta)


def test_solver_fault_detected(sl2):
    rng = Random(55)
    phi0 = random_cochain(sl2, 0, 1, 2, rng, density=0.6)
    with pytest.raises(CocycleConditionError):
        solve_correction(bicomplex_dh(phi0), bicomplex_dv(phi0),
                         fault="noneq-theta")


def test_solver_report_with_lift(sl2):
    report = solver_report(sl2, runs=2, seed=9)
    assert report.passed
    assert any(c.id == "model-lift" for c in report.checks)


def _identity_cochain(g, bound):
    """The (0, 1)-cochain x -> x."""
    return Cochain(g, 0, 1, bound,
                   {((), v): {((v,),): ONE} for v in range(g.dim)})


@pytest.mark.parametrize("n, bound, unknowns",
                         [(2, 1, 12), (2, 2, 30), (2, 3, 60), (3, 1, 72),
                          (3, 2, 360)])
def test_the_stack_certifies_uniqueness_up_to_the_identity(
        n, bound, unknowns, sl2, sl3):
    """The factored stack [dV; dH] over the N unknowns of Hom(g_ad, U<=D)
    has nullity N - rank = 1, and the identity x -> x lies in its kernel:
    so every solution of the correction equations is unique up to
    lambda * id at that bound, with no sampling."""
    g = {2: sl2, 3: sl3}[n]
    system = CorrectionSystem(g, bound)
    assert system.stack.ncols == unknowns
    assert unknowns - len(system.stack.steps) == 1
    identity = _identity_cochain(g, bound)
    assert not bicomplex_dh(identity)
    assert not bicomplex_dv(identity)


@pytest.mark.parametrize("n, bound", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_every_unit_cochain_round_trips_through_the_solver(n, bound, sl2, sl3):
    """For every unit (0, 1)-cochain e, v -> the basis tensor at one slice
    position (12, 30, 60, 72 and 360 of them), solve_correction(dH e, dV e)
    is e up to lambda * id.  The solver is linear in (gamma, eta), so every
    round trip at these bounds passes, with no sampling."""
    g = {2: sl2, 3: sl3}[n]
    zero = Cochain(g, 0, 1, bound)
    for v in range(g.dim):
        for j in range(len(tensor_slice_keys(g, 1, bound))):
            e = zero._like({((), v): {j: 1}}, 1)
            phi = solve_correction(bicomplex_dh(e), bicomplex_dv(e))
            assert identity_shift_of(phi - e) is not None, (v, j)


@pytest.mark.parametrize("n, bound", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_the_stack_rows_are_those_of_the_unit_cochains(n, bound, sl2, sl3):
    """The rows read off the dV memo and the dH kernel are those of dV and
    dH pushed through each unit cochain, keyed by (s, v, slice position)."""
    g = {2: sl2, 3: sl3}[n]
    assert _correction_rows(g, bound) == reference_stack(g, bound)


@pytest.mark.parametrize("patch", ["half", "doubled"])
def test_the_stack_rows_hold_off_the_integral_lie_tables(patch):
    """On a fresh A1 with [e, f] = h/2 and [f, e] = -h/2, where dH's scale
    is 2 and some rows hold Fractions, the rows are still those of the
    unit cochains.  With [f, e] doubled alone, which omega does not
    preserve, the slice refuses the table, and so do the rows."""
    g = build_sl(2)
    assert (g.names[0], g.names[2]) == ("f", "e")
    if patch == "doubled":  # not its mirror [e, f]: no longer a Lie bracket
        g.bracket_table[0, 2] = {z: 2 * c for z, c in g.bracket_table[0, 2].items()}
        with pytest.raises(SymmetryError):
            _correction_rows(g, 2)
        return
    g.bracket_table[2, 0] = {1: F(1, 2)}
    g.bracket_table[0, 2] = {1: F(-1, 2)}
    rows = _correction_rows(g, 2)
    assert rows == reference_stack(g, 2)
    assert g._memo["slice", 1, 2][-1] == 2
    assert any(type(c) is F for row in rows.values() for c in row.values())
    system = CorrectionSystem(g, 2)
    assert system.stack.ncols - len(system.stack.steps) == 1


def test_the_stack_is_built_without_the_cochain_differentials(monkeypatch):
    """`CorrectionSystem` reads its rows off the kernels: building it at A2
    calls neither `bicomplex_dh` nor `bicomplex_dv`."""
    def refuse(w):
        raise AssertionError("the stack pushed a unit cochain")
    monkeypatch.setattr("qcurrent.cohom.bicomplex_dh", refuse)
    monkeypatch.setattr("qcurrent.cohom.bicomplex_dv", refuse)
    system = CorrectionSystem(build_sl(3), 2)
    assert system.stack.ncols - len(system.stack.steps) == 1


def test_a_perturbed_bracket_breaks_the_uniqueness_certificate():
    """[f, e] doubled but not its mirror [e, f]: no longer a Lie bracket,
    and omega no longer preserves the table.  The Leibniz slice reads
    [x, y] alone, so the identity would stay a dH-cocycle; the slice
    refuses the table instead, so neither the certificate nor dH is
    computed on it."""
    g = build_sl(2)  # fresh: no cached state has been built yet
    assert (g.names[0], g.names[2]) == ("f", "e")
    g.bracket_table[0, 2] = {z: 2 * c for z, c in g.bracket_table[0, 2].items()}
    with pytest.raises(SymmetryError):
        CorrectionSystem(g, 2)
    with pytest.raises(SymmetryError):
        bicomplex_dh(_identity_cochain(g, 2))


def test_cochain_json_roundtrip(sl2):
    import json
    rng = Random(64)
    w = random_cochain(sl2, 1, 2, 2, rng)
    payload = json.loads(json.dumps(cochain_to_json(w), sort_keys=True))
    back = cochain_from_json(sl2, payload)
    assert back == w
    # serialization is deterministic
    assert (json.dumps(cochain_to_json(w), sort_keys=True)
            == json.dumps(cochain_to_json(back), sort_keys=True))
