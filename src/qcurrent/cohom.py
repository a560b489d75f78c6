"""Lie-algebra cohomology, the cobar complex, their bicomplex, and the
constructive solver for the correction map.

All complexes are finite-dimensional here: the enveloping algebra enters
through its filtration slice, which is closed under both the adjoint
action and the coproduct, so ranks and solves are exact with no truncation
error for data that fits in the slice.  The slice U<=D is modelled once
(`u_slice_module`), by the symmetric tensors of degree <= D with the Leibniz
action, a g-module and coalgebra isomorphic to the PBW slice (Dixmier,
Enveloping Algebras, 2.4.10), so nothing here straightens; g acts on
T^n_{<=D} slot by slot, so `_slice` lifts its tables from U<=D's.

The Chevalley-Eilenberg differential (Chevalley-Eilenberg, Trans. AMS 1948)
scatters each cochain entry to the faces of its wedge (`faces(g, s)`, kept
once per algebra for all its modules), so its cost follows the support;
its textbook reference, `ce_differential`, is in `tests/reference.py`.
`ce_push` applies it on one module, in one pass for each acting x whose
action is diagonal, with the bracket faces that keep the wedge folded in;
for `whitehead` and `cohomology` each pushed image is one row of the rank.
The bicomplex's horizontal differential dH takes values in dual(adjoint)
(x) T^n_{<=D}.  Its kernel `_dh_push` makes one pass per cochain block (s,
v), both tensor factors writing into the block's output accumulators; one
loop over the block's entries serves the slice factor of every x that is
not diagonal on both.  Cohomology is computed on the weight-zero
subcomplex alone: by Cartan's homotopy formula theta_h = d iota_h + iota_h d
(H. Cartan, Colloque de Topologie, Bruxelles 1950), every block of nonzero
Cartan weight is acyclic.  The automorphisms omega(x) = -x^T and pi(x) =
PxP of sl_n permute the basis up to sign, and so does the permutation each
module constructor induces from them; the differential commutes with the
group they generate, so the weight-zero block splits into its four
character parts (Serre, Linear Representations of Finite Groups, 2.6),
ranked one by one.  The minus cobar complex of Sym(V) splits likewise
into multidegree blocks, one per partition, counted by the size of its
S_v orbit and ranked once per `cartier` report.

Every table here is integral on sl_n: the bracket table, the Leibniz
action and the coproduct (`mono_coproduct_terms`) hold ints, and so do the
module actions, the CE rows, the Cartan weights and the binomial cobar
structure constants.  A bicomplex `Cochain` is an `exactnum.IntStore`, int
data over one reduced denominator, {(s, v): {slice position: int}}, a basis
tensor of T^n_{<=D} keyed by its position in `tensor_slice_keys`; the free
model's PBW data enter the `model-lift` check alone, through beta^{-1}
(`envelope.unsymmetrize`).  dH, dV and the solver work on the data over int
and carry the denominator; the maps are linear, so this is exact.  The
solver's unknowns are the unit (0, 1)-cochains, numbered by (adjoint index,
slice position); its rows are read off the dV memo and the dH kernel with
no cochain per unit, and it builds solutions on positions.  A table value
with a denominator stays an exact Fraction, and dH absorbs it into the
denominator of its image: integrality is never assumed.  The slice keys,
the slice tables, the dV images of the basis tensors and the solver's
factored system are built once per algebra and kept in its memo
(`LieAlgebraData.derived`), so they are freed with it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import lcm, prod
from random import Random
from typing import Dict, List, Optional, Tuple

from .envelope import UElement, mono_coproduct_terms, sym_coproduct, unsymmetrize
from .exactnum import (ZERO, CoeffMap, IntStore, _int_store, _quotient,
                       accumulate, factor, rank_of_rows)
from .liealg import LieAlgebraData, compose
from .reports import LEAST_BOUND, CheckError, Report, run_checks

Vector = Dict[int, Fraction]


class CocycleConditionError(CheckError):
    """A solver input violates one of its cocycle preconditions."""


class FiltrationError(CheckError):
    """No solution exists within the requested PBW filtration degree."""


class SymmetryError(CheckError):
    """omega or pi is not an automorphism of the bracket table, so a module
    built from the table has no Klein group: the table is not that of sl_n."""


class WeightError(CheckError):
    """A module action does not keep the Cartan weights of g: the module's
    weights disagree with the algebra's, so it is no g-module."""


# --- g-modules -----------------------------------------------------------------


class GModule:
    """Finite-dimensional g-module given by one action matrix per basis index.

    actions[x][col] = {row: coeff} describes x . b_col = sum coeff * b_row.
    `klein`, when given, holds the signed permutations of the basis, as
    [(image, sign), ...], that omega and pi of `g.klein` induce: sigma(x) .
    sigma(b) = sigma(x . b), checked on construction.  Without it the
    module has the trivial group.  `diagonal[x]` lists the entries
    rho(x)_kk when the table of x is diagonal, else None, on any table;
    the Cartan weights are read off it.
    """

    def __init__(self, g: LieAlgebraData, dim: int,
                 actions: List[Dict[int, Vector]], label: str = "module",
                 klein: Optional[tuple] = None):
        self.g, self.dim, self.actions = g, dim, actions
        self.label, self.klein = label, klein
        if klein is not None:
            self._check_intertwines()
        self.diagonal: List[Optional[list]] = [
            [cols.get(k, {}).get(k, 0) for k in range(dim)]
            if all(col.keys() <= {j} for j, col in cols.items()) else None
            for cols in actions]
        cartan = [self.diagonal[g.cartan_index(i)] for i in range(g.rank)]
        self._weights: Optional[List[tuple]] = None if None in cartan else list(zip(*cartan))
        self._orbit_tables: Dict[int, tuple] = {}  # m -> `_orbits(self, m)`

    def _check_intertwines(self) -> None:
        if self.g.klein is None:
            raise ValueError(f"{self.label}: g has no Klein group")
        for gsigma, sigma in zip(self.g.klein, self.klein):
            if sorted(i for i, _ in sigma) != list(range(self.dim)):
                raise ValueError(f"{self.label}: not a signed permutation")
            for x, cols in enumerate(self.actions):
                px, ex = gsigma[x]
                moved = {}  # sigma(x . b_j), to equal sigma(x) . sigma(b_j)
                for j, col in cols.items():
                    pj, e = sigma[j]
                    e *= ex
                    moved[pj] = {sigma[i][0]: e * sigma[i][1] * c for i, c in col.items()}
                if moved != self.actions[px]:
                    raise ValueError(f"{self.label}: the permutation does "
                                     f"not intertwine {self.g.names[x]}")

    def weights(self) -> Optional[List[tuple]]:
        return self._weights


def trivial_module(g: LieAlgebraData, dim: int = 1) -> GModule:
    identity = [(k, 1) for k in range(dim)]
    return GModule(g, dim, [dict() for _ in range(g.dim)], "trivial",
                   None if g.klein is None else (identity, identity))


def adjoint_module(g: LieAlgebraData) -> GModule:
    actions = []
    for x in range(g.dim):
        cols: Dict[int, Vector] = {}
        for j in range(g.dim):
            col = g.bracket_table.get((x, j), {})
            if col:
                cols[j] = dict(col)
        actions.append(cols)
    return GModule(g, g.dim, actions, "adjoint", g.klein)


def dual_module(m: GModule) -> GModule:
    """Contragredient action: rho*(x) = -rho(x)^T.  A signed permutation
    is orthogonal, so the dual basis keeps the permutations of m."""
    actions = []
    for x in range(m.g.dim):
        cols: Dict[int, Vector] = {}
        for j, col in m.actions[x].items():
            for i, c in col.items():
                cols.setdefault(i, {})[j] = -c
        actions.append(cols)
    return GModule(m.g, m.dim, actions, f"dual({m.label})", m.klein)


def tensor_module(a: GModule, b: GModule) -> GModule:
    """rho(x) = rho_a(x) (x) 1 + 1 (x) rho_b(x) on the tensor product basis,
    permuted by sigma_a (x) sigma_b."""
    if a.g is not b.g:
        raise ValueError("modules of different algebras do not combine")
    dim = a.dim * b.dim
    ids = list(range(dim))  # one int object per index, shared by every column
    actions = []
    for x in range(a.g.dim):
        cols: Dict[int, Vector] = {}
        ax, bx = a.actions[x], b.actions[x]
        for ja in range(a.dim):
            cola = ax.get(ja, {})
            for jb in range(b.dim):
                col: Vector = {}
                for ia, c in cola.items():
                    col[ids[ia * b.dim + jb]] = c
                for ib, c in bx.get(jb, {}).items():
                    accumulate(col, ids[ja * b.dim + ib], c)
                if col:
                    cols[ids[ja * b.dim + jb]] = col
        actions.append(cols)
    klein = None
    if a.klein is not None and b.klein is not None:
        klein = tuple([(ids[ia * b.dim + ib], ea * eb) for ia, ea in sa for ib, eb in sb]
                      for sa, sb in zip(a.klein, b.klein))
    return GModule(a.g, dim, actions, f"{a.label} (x) {b.label}", klein)


def u_slice_module(g: LieAlgebraData, bound: int) -> GModule:
    """U<= bound, the sum of S^k(g) for k <= bound, on symmetric monomials
    with the Leibniz rule x . y_1...y_k = sum_i y_1...[x, y_i]...y_k off the
    bracket table, and the signed permutations that omega and pi induce.
    Symmetrization is an isomorphism of g-modules and of coalgebras from
    S(g) onto U(g) (Dixmier, Enveloping Algebras, 2.4.10), and the rule
    reads [x, y] alone, so it stands for U(g) only over a Lie bracket: a
    table that omega and pi do not preserve raises a SymmetryError."""
    if g.klein is None:
        raise SymmetryError("omega and pi are not commuting automorphisms "
                            "of the bracket table")
    keys, index = _slice_keys(g, 1, bound)
    actions = []
    for x in range(g.dim):
        cols: Dict[int, Vector] = {}
        for j, (mono,) in enumerate(keys):
            col: Vector = {}
            for p, y in enumerate(mono):
                if p and mono[p - 1] == y:
                    continue  # counted in the multiplicity of y
                rest, times = mono[:p] + mono[p + 1:], mono.count(y)
                for z, c in g.bracket_table.get((x, y), {}).items():
                    q = bisect_left(rest, z)
                    accumulate(col, index[(rest[:q] + (z,) + rest[q:],)], times * c)
            if col:
                cols[j] = col
        actions.append(cols)
    klein = tuple([(index[(tuple(sorted(sigma[y][0] for y in mono)),)],
                    prod(sigma[y][1] for y in mono)) for (mono,) in keys]
                  for sigma in g.klein)
    return GModule(g, len(keys), actions, f"U<= {bound}", klein)


# --- Chevalley-Eilenberg complex -------------------------------------------------


def _signed_insert(z: int, rest: tuple) -> Optional[Tuple[tuple, int]]:
    """Sort (z,) + rest (rest sorted); None when z repeats an entry."""
    if z in rest:
        return None
    pos = sum(1 for r in rest if r < z)
    return rest[:pos] + (z,) + rest[pos:], (-1) ** pos


def _makers(g: LieAlgebraData) -> Dict[int, list]:
    """z -> the (a, b, c) with a < b and c the coefficient of z in [a, b]."""
    makers: Dict[int, list] = {}
    for (a, b), coeffs in g.bracket_table.items():
        for z, c in coeffs.items() if a < b else ():
            makers.setdefault(z, []).append((a, b, c))
    return makers


def faces(g: LieAlgebraData, s: tuple) -> tuple:
    """The faces that `ce_push` scatters the wedge s to, built once per
    algebra and s, for every module of g: the acting faces (x, s + {x},
    sign, b) for x not in s, and the bracket faces (t, coefficient) for t =
    (s - {z}) + {a, b} with z in [a, b], the coefficients of one t summed.
    b sums those that land on s + {x} itself, z in [x, z] (on sl_n, x
    Cartan and z a root vector), which leave the bracket list."""
    memo = g.derived("faces", dict)
    hit = memo.get(s)
    if hit is None:
        makers = g.derived("face makers", lambda: _makers(g))
        brackets: dict = {}
        for p, z in enumerate(s):
            rest = s[:p] + s[p + 1:]
            for a, b, c in makers.get(z, ()):
                if a not in rest and b not in rest:
                    t = tuple(sorted(rest + (a, b)))
                    sign = -1 if (t.index(a) + t.index(b) + p) & 1 else 1
                    accumulate(brackets, t, sign * c)
        acting = [(x, t, sign, brackets.pop(t, 0)) for x in range(g.dim) if x not in s
                  for t, sign in (_signed_insert(x, s),)]
        hit = memo[s] = (acting, list(brackets.items()))
    return hit


def ce_push(module: GModule, cochain: Dict[tuple, dict]) -> Dict[tuple, dict]:
    """The Chevalley-Eilenberg differential of the cochain {s: {k: c}}, s a
    sorted m-tuple and k a module index, as {t: {k': c}}; an entry whose
    terms cancel is left as a 0 for the caller to skip.

    Each wedge s of the input is scattered to its `faces`, so the cost
    follows the input's support; an acting face (x, t, sign, b) adds sign *
    rho(x) + b times the entry.  A diagonal x (`GModule.diagonal`) takes
    one pass with the coefficient sign * rho(x)_kk + b, zeros skipped: on
    a weight module the eigenvalue of Cartan's Lie derivative theta_x = d
    iota_x + iota_x d, 0 on weight-zero cochains.  The output entries are
    products of the input's, the actions' and the bracket table's values,
    so they are ints wherever those are."""
    actions, diagonal = module.actions, module.diagonal
    out: Dict[tuple, dict] = {}
    for s, vec in cochain.items():
        acting, brackets = faces(module.g, s)
        for x, t, sign, b in acting:
            diag = diagonal[x]
            if diag is not None:
                acc = out.setdefault(t, {})
                for k, c in vec.items():
                    a = sign * diag[k] + b
                    if a:
                        acc[k] = acc.get(k, 0) + a * c
                continue
            cols = actions[x]
            acc = out.setdefault(t, {})
            get = acc.get
            for k, c in vec.items():
                col = cols.get(k)
                if col:
                    c *= sign
                    for i, a in col.items():
                        acc[i] = get(i, 0) + a * c
            if b:
                for k, c in vec.items():
                    acc[k] = get(k, 0) + b * c
        for t, coeff in brackets:
            acc = out.setdefault(t, {})
            get = acc.get
            for k, c in vec.items():
                acc[k] = get(k, 0) + coeff * c
    return out


def _weight_zero_slots(module: GModule):
    """s -> the module indices k with weight(b_k) = weight(x_s), in order:
    the cochains s -> b_k of Cartan weight zero.  A module whose Cartan
    action is not diagonal has no weights, and every k is allowed."""
    weights = module.weights()
    if weights is None:
        every = range(module.dim)
        return lambda s: every
    by_weight: Dict[tuple, List[int]] = {}
    for k, w in enumerate(weights):
        by_weight.setdefault(w, []).append(k)
    gw = module.g.weights
    zero = (0,) * module.g.rank
    return lambda s: by_weight.get(
        tuple(map(sum, zip(*(gw[x] for x in s)))) if s else zero, ())


# the characters of [1, omega, pi, omega pi], and of the trivial group
_CHARACTERS = {4: ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)),
               1: ((1,),)}


def _klein_group(gens: Optional[tuple], dim: int) -> list:
    """[1, omega, pi, omega pi] as signed permutations of range(dim), from
    the generators (omega, pi); [1] for None."""
    group = [[(k, 1) for k in range(dim)]]
    if gens is not None:
        omega, pi = gens
        group += [omega, pi, compose(omega, pi)]
    return group


def wedge_images(g: LieAlgebraData, s: tuple) -> tuple:
    """(t, sign) with sigma(x_s) = sign * x_t, t sorted, for each sigma of
    g's Klein group in the order of `_klein_group`, memoized per algebra
    next to `faces`."""
    memo = g.derived("wedge images", dict)
    hit = memo.get(s)
    if hit is None:
        images = []
        for sigma in g.derived("klein group", lambda: _klein_group(g.klein, g.dim)):
            ids = [sigma[x][0] for x in s]
            sign = 1
            for p, x in enumerate(s):
                sign *= sigma[x][1]
                for later in ids[p + 1:]:
                    if later < ids[p]:
                        sign = -sign
            images.append((tuple(sorted(ids)), sign))
        hit = memo[s] = tuple(images)
    return hit


def _orbits(module: GModule, m: int) -> tuple:
    """(table, reps) for the weight-zero m-cochains s -> b_k, built once per
    module and m.  Each group element sigma, an involution, maps s -> b_k
    to sign * (t -> b_k'), with (t, sign) from `wedge_images` times the
    module's signed permutation of k.  An orbit is named by its least
    member r; its character parts are spanned by the projections P_chi r,
    and P_chi of a member e is w_chi(e) * P_chi r with w_chi(e) in {0, 1,
    -1}.  table[s][k] is (orbit id, the w_chi of s -> b_k), and reps lists
    (s, k, the w_chi of r) for each least member r = (s, k)."""
    hit = module._orbit_tables.get(m)
    if hit is not None:
        return hit
    group = _klein_group(module.klein, module.dim)
    chars = _CHARACTERS[len(group)]
    slots = _weight_zero_slots(module)
    ids: Dict[tuple, int] = {}
    table: Dict[tuple, dict] = {}
    reps = []
    for s in combinations(range(module.g.dim), m):
        images = wedge_images(module.g, s)[:len(group)]
        least = min(t for t, _ in images)
        # the sigma that take s to its least image: one, unless s has a stabilizer
        coset = [(sigma, sign, [chi[i] for chi in chars])
                 for i, ((t, sign), sigma) in enumerate(zip(images, group))
                 if t == least]
        tab = table[s] = {}
        if len(coset) == 1:  # so no s -> b_k has a stabilizer either
            sigma, sign, w = coset[0]
            signed = {1: tuple(w), -1: tuple(-c for c in w)}
            for k in slots(s):
                k0, e = sigma[k]
                tab[k] = (ids.setdefault((least, k0), len(ids)), signed[sign * e])
            if least == s:  # sigma is the identity
                reps += [(s, k, signed[1]) for k in slots(s)]
            continue
        # the w_chi of s -> b_k follow from the sign of each coset member
        # that takes it to the least member (least, k0), 0 for the others
        weights_of: Dict[tuple, tuple] = {}
        for k in slots(s):
            terms = [(sigma[k][0], sign * sigma[k][1]) for sigma, sign, _ in coset]
            k0 = min(terms)[0]
            key = tuple(e if kk == k0 else 0 for kk, e in terms)
            weights = weights_of.get(key)
            if weights is None:
                sums = [sum(e * w[c] for e, (_, _, w) in zip(key, coset))
                        for c in range(len(chars))]
                weights = weights_of[key] = tuple((a > 0) - (a < 0) for a in sums)
            tab[k] = (ids.setdefault((least, k0), len(ids)), weights)
            if (least, k0) == (s, k):
                reps.append((s, k, weights))
    hit = module._orbit_tables[m] = (table, reps)
    return hit


def _ce_matrix_rows(module: GModule, m: int) -> List[List[dict]]:
    """The rows of the weight-zero m-cochains, one list per character of
    the module's Klein group (Serre, Linear Representations of Finite
    Groups, 2.6): the differential commutes with the group, so it maps
    each character part into itself.  Each orbit representative r of
    `_orbits` is pushed through `ce_push` once, and each output entry at
    (t, k') is added, times w_chi(t -> b_k'), to the column of its orbit
    in the row of P_chi r, for each chi with P_chi r != 0; a sum that
    cancels is left as a 0.  With the trivial group this is one row per
    weight-zero cochain, empty rows kept.  Row rank = column rank, and the
    m-side is the short side of the large blocks, so fewer dependent rows
    are cancelled.  The differential keeps Cartan weight: an entry outside
    the weight-zero slots means no g-module, and raises a WeightError."""
    table = _orbits(module, m + 1)[0]
    reps = _orbits(module, m)[1]
    # one part per character: the group is abelian, of order 1 or 4
    parts: List[List[dict]] = [[] for _ in range(1 if module.klein is None else 4)]
    try:
        for s, k, weights in reps:
            rows = [{} for _ in weights]
            for t, vec in ce_push(module, {s: {k: 1}}).items():
                tab = table[t]
                for kprime, v in vec.items():
                    if v:
                        j, ws = tab[kprime]
                        for row, w in zip(rows, ws):
                            if w:
                                row[j] = row.get(j, 0) + w * v
            for part, row, w in zip(parts, rows, weights):
                if w:
                    part.append(row)
    except KeyError:  # only a (t, k') outside the weight-zero table raises
        raise WeightError("an action leaves the weight-zero block") from None
    return parts


def _kills(prev_rows: list, rows_by_id: dict) -> bool:
    """Whether d_m . d_{m-1} = 0 on the rows `prev_rows` of d_{m-1}, exactly:
    every orbit j that a row y reaches has a row D_j of d_m in
    `rows_by_id`, and sum_j y_j D_j = 0.  A sparse product, with no fill."""
    for y in prev_rows:
        acc: dict = {}
        get = acc.get
        for j, v in y.items():
            if v:
                row = rows_by_id.get(j)
                if row is None:
                    return False
                for col, a in row.items():
                    acc[col] = get(col, 0) + v * a
        if any(acc.values()):
            return False
    return True


def ce_cohomology_dims(module: GModule, up_to: int) -> List[int]:
    """Exact dimensions of H^0 .. H^up_to of the weight-zero subcomplex,
    which are those of the whole complex.

    Cartan's homotopy formula theta_h = d iota_h + iota_h d (H. Cartan,
    Colloque de Topologie, Bruxelles 1950; Hochschild-Serre, Ann. Math.
    1953) says that the Lie derivative theta_h, which is lambda(h) id on
    the cochains of weight lambda, is null-homotopic; so every block of
    weight lambda != 0 is acyclic.  The weight-zero block splits further
    into the character parts of the Klein group <omega, pi> (Serre,
    Linear Representations of Finite Groups, 2.6), which partition its
    cochains, and each part is ranked on its own.  With c0_m weight-zero
    m-cochains and r0 the summed rank of the differential on them, H^m =
    c0_m - r0(m) - r0(m-1).  A module without weights keeps the whole
    complex.  r0 is the rank of the image rows (row rank = column rank):
    on the large blocks they are fewer than the (t, k') rows, 2,214 against
    4,128 at A2 degree 3, and they fall into four parts of 548 to 559.
    The blocks of the symmetric degrees k share no column, so a part is
    not split further by k: the rank's pivoting already keeps them apart.

    Each part of d_m is ranked with the rows that the previous degree's
    pivots name removed (clearing: Chen-Kerber, "Persistent homology
    computation with a twist", EuroCG 2011; Bauer-Kerber-Reininghaus,
    "Clear and compress", 2014).  The rows of d_m are named by the orbit
    ids of their m-cochains, which are the columns of d_{m-1}.  If Y are
    the rows ranked for d_{m-1} on a part and P their pivot columns, the
    unit cochains off P span the part together with im d_{m-1}; so when
    d_m kills Y, the rows D_j with j not in P span im d_m and have its
    rank, and the rows of P, which reduce to zero, are never eliminated.
    That d_m . d_{m-1} = 0 is certified exactly on every part (`_kills`)
    before any row is dropped; where it fails, as on a table that is no
    Lie bracket, every row is ranked, so the dims never rest on it."""
    dims = []
    prev_rank = 0
    prev: list = []  # per part: (the rows ranked for d_{m-1}, their pivot columns)
    for m in range(up_to + 1):
        parts = _ce_matrix_rows(module, m)
        table, reps = _orbits(module, m)
        r, ranked = 0, []
        for c, rows in enumerate(parts):
            if prev:
                y, cleared = prev[c]
                by_id = dict(zip((table[s][k][0] for s, k, w in reps if w[c]), rows))
                if _kills(y, by_id):
                    rows = [row for j, row in by_id.items() if j not in cleared]
            pivots: list = []
            r += rank_of_rows(rows, pivots)
            ranked.append((rows, set(pivots)))
        dims.append(sum(map(len, parts)) - r - prev_rank)
        prev_rank, prev = r, ranked
    return dims


def whitehead_report(g: LieAlgebraData, bound: int = 2) -> Report:
    """First and second cohomology vanish for the adjoint module and for
    dual(adjoint) (x) U-slice; invariants of the trivial module are 1-dim."""
    if bound < LEAST_BOUND["whitehead"]:
        raise ValueError(f"bound must be at least {LEAST_BOUND['whitehead']}, got {bound}")
    modules = {"adjoint": lambda: adjoint_module(g),
               "big": lambda: tensor_module(dual_module(adjoint_module(g)),
                                            u_slice_module(g, bound))}

    @cache
    def dims_of(name) -> List[int]:
        return ce_cohomology_dims(modules[name](), 2)

    specs = [
        ("H0-trivial", "H^0(g, trivial) = 1",
         lambda: None if ce_cohomology_dims(trivial_module(g), 0)[0] == 1
         else "H^0(trivial) != 1"),
        ("H1-adjoint", "H^1(g, adjoint) = 0",
         lambda: None if dims_of("adjoint")[1] == 0
         else f"H^1 = {dims_of('adjoint')[1]}"),
        ("H2-adjoint", "H^2(g, adjoint) = 0",
         lambda: None if dims_of("adjoint")[2] == 0
         else f"H^2 = {dims_of('adjoint')[2]}"),
        ("H1-coefficient-module",
         f"H^1(g, dual(adjoint) (x) U<= {bound}) = 0",
         lambda: None if dims_of("big")[1] == 0 else f"H^1 = {dims_of('big')[1]}"),
        ("H2-coefficient-module",
         f"H^2(g, dual(adjoint) (x) U<= {bound}) = 0",
         lambda: None if dims_of("big")[2] == 0 else f"H^2 = {dims_of('big')[2]}"),
    ]
    return run_checks("whitehead", g.type_label(), specs)


# --- cobar complex of a symmetric coalgebra ---------------------------------------


def _sym_monomials(v_dim: int, degree: int) -> List[tuple]:
    """Exponent vectors of the given total degree, lexicographic order."""
    if v_dim == 0:
        return [()] if degree == 0 else []
    return [(k,) + rest for k in range(degree + 1)
            for rest in _sym_monomials(v_dim - 1, degree - k)]


class CobarChain(CoeffMap):
    """Element of the n-fold tensor power of Sym(V) in one symmetric degree."""

    __slots__ = ("v_dim", "n", "degree")
    _space = ("v_dim", "n", "degree")

    def __init__(self, v_dim: int, n: int, degree: int,
                 data: Optional[Dict[tuple, Fraction]] = None):
        self.v_dim, self.n, self.degree = v_dim, n, degree
        super().__init__(data)


def _cobar_push(data: dict, key: tuple, c, unit, coproduct_of) -> None:
    """Add c times the cobar differential of the basis tensor `key` to
    `data`: 1 (x) key + sum_i (-1)^{i+1} Delta_i(key) + (-1)^{n+1} key (x) 1,
    where `unit` is the monomial 1 and `coproduct_of(mono)` gives the
    ((left, right), coefficient) terms of Delta(mono).  The one kernel of
    `cobar_differential`, on exponent vectors of Sym(V), and of dV, on the
    sorted monomials of Sym(g)."""
    n = len(key)
    accumulate(data, (unit,) + key, c)
    accumulate(data, key + (unit,), c if n & 1 else -c)  # (-1)^{n+1}
    for i in range(n):
        sc = c if i & 1 else -c  # (-1)^{i+1} c
        head, tail = key[:i], key[i + 1:]
        for (l, r), q in coproduct_of(key[i]):
            accumulate(data, head + (l, r) + tail, sc * q)


@cache
def _sym_coproduct_terms(mono: tuple) -> tuple:
    """`sym_coproduct(mono)` as a tuple, memoized: at most C(d+v, v)
    entries for V of dimension v up to symmetric degree d."""
    return tuple(sym_coproduct(mono).items())


def cobar_differential(y: CobarChain) -> CobarChain:
    """1 (x) y + alternating inner coproducts + (-1)^{n+1} y (x) 1, by
    `_cobar_push` on each basis tensor of y."""
    out = CobarChain(y.v_dim, y.n + 1, y.degree)
    unit = (0,) * y.v_dim
    for key, c in y.data.items():
        _cobar_push(out.data, key, c, unit, _sym_coproduct_terms)
    return out


def _tensor_basis(alpha: tuple, n: int) -> List[tuple]:
    """n-tuples of exponent vectors that sum to the multidegree alpha: one
    composition of alpha_i into n parts per coordinate i.  With no
    coordinate (alpha = ()) that is the one n-tuple of empty vectors."""
    return [tuple(zip(*split)) or ((),) * n
            for split in product(*(_sym_monomials(n, a) for a in alpha))]


def _minus_basis(alpha: tuple, n: int) -> List[CobarChain]:
    """Basis of the minus eigenspace of the reversal in the block alpha."""
    sign = (-1) ** (n * (n + 1) // 2)
    seen = set()
    basis = []
    for key in _tensor_basis(alpha, n):
        rkey = tuple(reversed(key))
        if key == rkey:
            if sign == 1:
                continue  # sigma fixes it with +1: not in the minus part
            basis.append(CobarChain(len(alpha), n, sum(alpha), {key: 1}))
        else:
            pair = min(key, rkey)
            if pair in seen:
                continue
            seen.add(pair)
            basis.append(CobarChain(len(alpha), n, sum(alpha),
                                    {key: 1, rkey: -sign}))
    return basis


def _image_rank(chains: List[CobarChain]) -> int:
    """Rank of the cobar differential's images of `chains`."""
    index: Dict[tuple, int] = {}
    return rank_of_rows([{index.setdefault(key, len(index)): c
                          for key, c in cobar_differential(y).data.items()}
                         for y in chains])


def _block_cohomology_dim(alpha: tuple, n: int) -> int:
    """dim H^n of the minus subcomplex in the block of multidegree alpha."""
    cur = _minus_basis(alpha, n)
    prev = _minus_basis(alpha, n - 1) if n >= 1 else []
    return len(cur) - _image_rank(cur) - _image_rank(prev)


def _partition_orbits(v_dim: int, degree: int) -> Dict[tuple, int]:
    """{partition lambda: size of its S_v orbit} over the multidegrees of
    Sym(V) at one degree, lambda being the nonzero parts of alpha, sorted.

    The differential and the reversal keep the multidegree alpha, the sum of
    a tensor's exponent vectors.  Permuting the coordinates of V maps the
    block of alpha onto that of each rearrangement, and a zero coordinate
    only pads every exponent vector of the block, so the block of alpha is
    that of lambda."""
    return Counter(tuple(sorted((a for a in alpha if a), reverse=True))
                   for alpha in _sym_monomials(v_dim, degree))


def cartier_report(d_max: int) -> Report:
    """H^2 of the minus cobar subcomplex of Sym(V) vanishes for dim V in
    {1, 2, 3}, in every symmetric degree up to d_max: one check per (dim V,
    degree), dim V outer.  One block per partition, ranked once per report
    and shared by V1-V3: the memo {lambda: dim H^2 of its block} lives in
    this call alone, so the V2 and V3 checks read the blocks of fewer parts
    that V1 and V2 ranked, and a second report ranks them all again."""
    if d_max < LEAST_BOUND["cartier"]:
        raise ValueError(f"d_max must be at least {LEAST_BOUND['cartier']}, got {d_max}")
    h2: Dict[tuple, int] = {}
    specs = []
    for v_dim in (1, 2, 3):
        for d in range(d_max + 1):
            def chk(v_dim=v_dim, d=d):
                got = 0
                for lam, size in _partition_orbits(v_dim, d).items():
                    if lam not in h2:
                        h2[lam] = _block_cohomology_dim(lam, 2)
                    got += size * h2[lam]
                return None if got == 0 else f"H^2 = {got} at degree {d}"
            specs.append((f"V{v_dim}-H2-minus-degree-{d}",
                          f"H^2(T_-(Sym(V)), delta) = 0 at symmetric degree {d}",
                          chk))
    return run_checks("cartier", "Sym(V), dim V in {1,2,3}", specs)


# --- the bicomplex ---------------------------------------------------------------


class Cochain(IntStore):
    """Element of Hom(Lambda^m g (x) g_ad, U^{(x) n}) within filtration D.

    An `IntStore`: `data` maps (sorted m-tuple, adjoint index) to a sparse
    tensor {slice position: nonzero int}, the position of a basis tensor in
    `tensor_slice_keys(g, n, D)`, and the cochain is data / den.  The
    constructor is the one gate: it takes exact values on basis tensors
    (monomial, ..., monomial) and refuses one outside T^n_{<=D}, too long
    or not, with a FiltrationError.  Data already on positions, such as
    `random_cochain`'s and the solver's, enters through `_like`.  Cochains
    compare equal and combine only on one algebra, bidegree and bound.
    Monomial tuples appear only in the constructor, in `swap_tensor` and
    in `value` and `render`, which show exact values on basis tensors; a
    key such as ((0, 1),), rendered `f*h`, names a symmetric monomial.
    """

    __slots__ = ("g", "m", "n", "bound")
    _space = ("g", "m", "n", "bound")

    def __init__(self, g: LieAlgebraData, m: int, n: int, bound: int,
                 data: Optional[dict] = None):
        self.g, self.m, self.n, self.bound = g, m, n, bound
        index = _slice_keys(g, n, bound)[1]
        values: dict = {}
        for key, tensor in (data or {}).items():
            ids = values[key] = {}
            for tkey, c in tensor.items():
                if tkey in index:
                    ids[index[tkey]] = c
                elif c:
                    raise FiltrationError(
                        f"cochain value exceeds filtration {bound}"
                        if sum(map(len, tkey)) > bound else f"tensor key {tkey} is "
                        f"not in the {n}-fold tensor slice of filtration {bound}")
        super().__init__(values)

    def value(self, s: tuple, v: int) -> dict:
        """The exact values at (s, v): ints where integral, else Fractions."""
        keys = _slice_keys(self.g, self.n, self.bound)[0]
        den = self.den
        return {keys[j]: _quotient(c, den)
                for j, c in self.data.get((s, v), {}).items()}

    def swap_tensor(self) -> "Cochain":
        if self.n != 2:
            raise ValueError("swap_tensor needs n = 2")
        keys, index = _slice_keys(self.g, 2, self.bound)
        return self._like({key: {index[keys[j][::-1]]: c for j, c in tensor.items()}
                           for key, tensor in self.data.items()}, self.den)

    def render(self) -> str:
        """(s; v) -> c*[m_1 (x) ... (x) m_n] per block, each m a symmetric
        monomial such as `f*h`, or `1`."""
        parts = []
        for (s, v) in sorted(self.data):
            names = ",".join(self.g.names[i] for i in s) or "-"
            tensor = self.value(s, v)
            terms = []
            for tkey in sorted(tensor):
                mono = " (x) ".join("*".join(self.g.names[i] for i in m) or "1"
                                    for m in tkey)
                terms.append(f"{tensor[tkey]}*[{mono}]")
            parts.append(f"({names}; {self.g.names[v]}) -> " + " + ".join(terms))
        return "; ".join(parts) if parts else "0"


def _slice_keys(g: LieAlgebraData, n: int, bound: int) -> tuple:
    """(keys, index) of T^n_{<=bound}, built once per algebra:
    `tensor_slice_keys` and {key: position}.  Kept apart from `_slice`, so
    that building a cochain does not build the slice tables."""
    def build():
        keys = tensor_slice_keys(g, n, bound)
        return keys, {k: j for j, k in enumerate(keys)}
    return g.derived(("slice keys", n, bound), build)


def _slice(g: LieAlgebraData, n: int, bound: int):
    """(diagonal, rows, dual, wedges, scale) of T^n_{<=bound}, built once per
    algebra: diagonal[x] = (rho_slice(x)_kk over k, rho_dual(x)_vv over v)
    for the x diagonal on both factors, else None; rows[()][k], the (x, i,
    rho_slice(x)_ik) of the other x, one tuple per slice position k; the
    dual(adjoint) actions; the memo of `_dh_faces`; and the lcm of the
    denominators of the bracket table (1 on sl_n), which clears dH, as
    every action entry is an int multiple of a table value.  n = 1 reads
    `u_slice_module`; n >= 2 lifts it slot by slot and builds no module: the
    diagonal sums the slots', and row k joins each slot's T^1 row moved to
    T^n positions, unmerged, so one (x, i) may recur: `_dh_push` adds both."""
    def build():
        module = u_slice_module(g, bound)
        dual = dual_module(adjoint_module(g))
        diagonal = [None if None in pair else pair
                    for pair in zip(module.diagonal, dual.diagonal)]
        rows: List[list] = [[] for _ in range(module.dim)]
        for x, cols in enumerate(module.actions):
            for k, col in cols.items() if diagonal[x] is None else ():
                rows[k] += ((x, i, a) for i, a in col.items())
        scale = lcm(*{c.denominator for col in g.bracket_table.values()
                      for c in col.values()})
        return diagonal, {(): list(map(tuple, rows))}, dual.actions, {}, scale

    def lift():
        diagonal1, rows1, dual, _, scale = _slice(g, 1, bound)
        keys1, index1 = _slice_keys(g, 1, bound)
        keys, index = _slice_keys(g, n, bound)
        slots = [[index1[(mono,)] for mono in key] for key in keys]
        diagonal = [None if pair is None else
                    ([sum(pair[0][j] for j in js) for js in slots], pair[1])
                    for pair in diagonal1]
        rows = [tuple((x, index[key[:slot] + keys1[i] + key[slot + 1:]], a)
                      for slot, j in enumerate(js) for x, i, a in rows1[()][j])
                for key, js in zip(keys, slots)]
        return diagonal, {(): rows}, dual, {}, scale
    return g.derived(("slice", n, bound), build if n == 1 else lift)


def _dh_faces(g: LieAlgebraData, s: tuple, diagonal: list, rows: dict) -> tuple:
    """(folded, general, signs, brackets, rows), the wedge s's `faces` for
    dH on one slice: (t, sign, b, diagonal[x]) for each acting x diagonal
    on both factors; (x, t) for the other acting x, signs[x] their signs,
    0 for the rest; the bracket faces with those x's b as more (t, b); and
    rows[()] without the x in s, built once per such set of x and shared."""
    acting, brackets = faces(g, s)
    signs = [0] * g.dim
    for x, _, sign, _ in acting:
        signs[x] = 0 if diagonal[x] else sign
    gone = tuple(x for x in s if not diagonal[x])
    if gone not in rows:
        rows[gone] = [tuple([e for e in row if e[0] not in gone]) for row in rows[()]]
    return ([(t, sign, b, diagonal[x]) for x, t, sign, b in acting if diagonal[x]],
            [(x, t) for x, t, _, _ in acting if signs[x]], signs,
            brackets + [(t, b) for x, t, _, b in acting if signs[x] and b], rows[gone])


def _dh_push(g: LieAlgebraData, n: int, bound: int, data: dict) -> tuple:
    """(image, scale): dH of the data {(s, v): {slice position: c}} as
    int data {(t, v'): {slice position: int}} over `scale`, zeros kept:
    one pass per block (s, v) over its wedge's `_dh_faces`, all writing
    into the block's output accumulators.  An x diagonal on both factors
    adds sign * (rho_slice(x)_kk + rho_dual(x)_vv) + b per k, zeros
    skipped; a bracket face adds the block to (t, v), another x's dual
    column of v to each (t, v'); and one loop over the block's entries,
    through the wedge's rows, serves the slice factor of every other x."""
    diagonal, rows_of, dual, wedges, scale = _slice(g, n, bound)
    out: Dict[tuple, dict] = {}
    setdefault = out.setdefault
    for (s, v), vec in data.items():
        hit = wedges.get(s)
        if hit is None:
            hit = wedges[s] = _dh_faces(g, s, diagonal, rows_of)
        folded, general, signs, brackets, rows = hit
        for t, sign, b, (diag, dual_diag) in folded:
            d, acc = dual_diag[v], setdefault((t, v), {})
            get = acc.get
            for k, c in vec.items():
                a = sign * (diag[k] + d) + b
                if a:
                    acc[k] = get(k, 0) + a * c
        accs = [None] * len(signs)
        for x, t in general:
            accs[x] = setdefault((t, v), {})
            for v2, a in dual[x].get(v, {}).items():
                acc = setdefault((t, v2), {})
                get = acc.get
                a *= signs[x]
                for k, c in vec.items():
                    acc[k] = get(k, 0) + a * c
        for t, a in brackets:
            acc = setdefault((t, v), {})
            get = acc.get
            for k, c in vec.items():
                acc[k] = get(k, 0) + a * c
        if general:
            for k, c in vec.items():
                for x, i, a in rows[k]:
                    acc = accs[x]
                    acc[i] = acc.get(i, 0) + signs[x] * a * c
    if scale != 1:
        for tensor in out.values():
            for j, c in tensor.items():
                c *= scale
                if c.denominator != 1:  # raised, not asserted: holds under -O
                    raise ValueError(f"the scale {scale} does not clear "
                                     f"the dH value {c / scale}")
                tensor[j] = int(c)
    return out, scale


def bicomplex_dh(w: Cochain) -> Cochain:
    """Horizontal differential: Chevalley-Eilenberg with values in
    dual(adjoint) (x) T^n_{<=D}, over the integers, acting by
    rho_dual(x) (x) 1 + 1 (x) rho_slice(x): `_dh_push`, one pass per
    block (s, v), put over w's denominator times the scale of
    non-integral tables, and reduced."""
    data, scale = _dh_push(w.g, w.n, w.bound, w.data)
    return w._like(data, w.den * scale, m=w.m + 1)


def _dv_terms(g: LieAlgebraData, n: int, bound: int, j: int) -> tuple:
    """dV of the basis tensor at slice position j of T^n_{<=bound}, as
    (position in T^{n+1}_{<=bound}, int) pairs, built once per algebra on
    the first use of j (memo ("dV", n, bound))."""
    memo = g.derived(("dV", n, bound), dict)
    terms = memo.get(j)
    if terms is None:
        image: dict = {}
        _cobar_push(image, _slice_keys(g, n, bound)[0][j], 1, (),
                    lambda mono: mono_coproduct_terms(g, mono).items())
        index = _slice_keys(g, n + 1, bound)[1]
        terms = memo[j] = tuple((index[k], q) for k, q in image.items())
    return terms


def bicomplex_dv(w: Cochain) -> Cochain:
    """Vertical differential: the coalgebra differential on each value,
    1 (x) y + alternating inner coproducts + (-1)^{n+1} y (x) 1.  Its
    coefficients are binomials, so the image is int over w's denominator.
    The image of each basis tensor is read off `_dv_terms`."""
    terms_of = w.g.derived(("dV", w.n, w.bound), dict)
    data: dict = {}
    for key, tensor in w.data.items():
        acc = data[key] = {}
        get = acc.get
        for j, c in tensor.items():
            terms = terms_of.get(j)  # an empty image () is memoized too
            for k, q in _dv_terms(w.g, w.n, w.bound, j) if terms is None else terms:
                acc[k] = get(k, 0) + q * c
    return w._like(data, w.den, n=w.n + 1)


def tensor_slice_keys(g: LieAlgebraData, n: int, bound: int) -> List[tuple]:
    """All n-tuples of symmetric monomials (sorted tuples, such as (0, 1) for
    f*h) of total degree <= bound, each slot in (degree, lexicographic) order."""
    if n == 0:
        return [()]
    return [(mono,) + rest for length in range(bound + 1)
            for mono in combinations_with_replacement(range(g.dim), length)
            for rest in tensor_slice_keys(g, n - 1, bound - length)]


def random_cochain(g: LieAlgebraData, m: int, n: int, bound: int,
                   rng: Random, density: float = 0.25) -> Cochain:
    """Each coefficient is a/b with a in [-4, 4] and b in [1, 3], drawn as
    the int a * (6 // b) over the denominator 6."""
    size = len(_slice_keys(g, n, bound)[0])
    data: dict = {}
    for s in combinations(range(g.dim), m):
        for v in range(g.dim):
            for j in range(size):
                if rng.random() < density:
                    a, b = rng.randint(-4, 4), rng.randint(1, 3)
                    if a:
                        data.setdefault((s, v), {})[j] = a * (6 // b)
    return Cochain(g, m, n, bound)._like(data, 6)


def bicomplex_report(g: LieAlgebraData, bound: int = 2, samples: int = 100,
                     seed: int = 0) -> Report:
    """d_H^2 = d_V^2 = 0 and d_H d_V = d_V d_H on seeded random cochains at
    every bidegree (m, n) with m <= 2 and 1 <= n <= 2, the samples dealt to
    the six bidegrees in turn.  The three checks of a bidegree read their
    verdicts off one pass over its samples."""
    bidegrees = [(m, n) for m in range(3) for n in range(1, 3)]
    if bound < LEAST_BOUND["bicomplex"]:
        raise ValueError(f"bound must be at least {LEAST_BOUND['bicomplex']}, got {bound}")
    if samples < len(bidegrees):
        raise ValueError(f"samples must be at least {len(bidegrees)}, one per "
                         f"bidegree, got {samples}")
    rng = Random(seed)
    cochains = []
    for k in range(samples):
        bd = bidegrees[k % len(bidegrees)]
        cochains.append((bd, random_cochain(g, bd[0], bd[1], bound, rng)))
    identities = (("dh-squared", "dH o dH = 0", "dH(dH(w)) != 0"),
                  ("dv-squared", "dV o dV = 0", "dV(dV(w)) != 0"),
                  ("dh-dv-commute", "dH o dV = dV o dH", "dH dV != dV dH"))
    specs = []
    for (m, n) in bidegrees:
        @cache
        def failures(group=[w for bd, w in cochains if bd == (m, n)]) -> list:
            """Each identity's message at its first failing sample, or None,
            from one pass that applies dH and dV to each sample once, and
            drops dH(w) before dV(w) so that the commutator's peak is that
            of its two terms, compared by `!=` with no difference built."""
            out = [None] * len(identities)
            for idx, w in enumerate(group):
                dh = bicomplex_dh(w)
                defects = [bicomplex_dh(dh)]
                dv_dh = bicomplex_dv(dh)
                del dh
                dv = bicomplex_dv(w)
                defects += [bicomplex_dv(dv), dv_dh != bicomplex_dh(dv)]
                for k, (_, _, failure) in enumerate(identities):
                    if defects[k] and out[k] is None:
                        out[k] = f"sample {idx}: {failure}"
            return out
        for k, (name, anchor, _) in enumerate(identities):
            specs.append((f"{name}-{m}{n}", f"{anchor} at bidegree ({m},{n})",
                          lambda k=k, failures=failures: failures()[k]))
    return run_checks("bicomplex", g.type_label(), specs, seed=seed)


# --- the correction solver --------------------------------------------------------


def _correction_rows(g: LieAlgebraData, bound: int) -> dict:
    """{(s, v, slice position): {column v * size + j: exact value}}, the
    rows of `CorrectionSystem`: dV of unit (v, j) read off `_dv_terms`, dH
    off `_dh_push` on the unit block {((), v): {j: 1}}, no cochain each."""
    size = len(_slice_keys(g, 1, bound)[0])
    rows = defaultdict(dict)
    for col in range(g.dim * size):
        for k, q in _dv_terms(g, 1, bound, col % size):
            rows[(), col // size, k][col] = q
    for col in range(g.dim * size):
        image, scale = _dh_push(g, 1, bound, {((), col // size): {col % size: 1}})
        for (s, v), tensor in image.items():
            for k, c in tensor.items():
                if c:
                    rows[s, v, k][col] = _quotient(c, scale)
    return rows


class CorrectionSystem:
    """The linear system of `solve_correction` at one (algebra, bound).

    The unknowns are the coordinates of phi on the unit (0, 1)-cochains
    v -> (the basis tensor at slice position j), unknown (v, j) in column
    v * size + j, size the number of slice positions.  `index` numbers the
    (s, v, slice position) keys that dV and dH of the units reach, one
    sparse row each (`_correction_rows`), and `stack` is their factored
    stack: the total differential on the (0, 1)-cochains, whose kernel is
    the set of phi with dV(phi) = 0 and dH(phi) = 0.
    """

    __slots__ = ("bound", "size", "index", "stack")

    def __init__(self, g: LieAlgebraData, bound: int):
        self.bound = bound
        self.size = len(_slice_keys(g, 1, bound)[0])
        rows = _correction_rows(g, bound)
        self.index = {key: i for i, key in enumerate(rows)}
        self.stack = factor(list(rows.values()), g.dim * self.size)

    def _preimage(self, gamma: Cochain, eta: Cochain) -> Cochain:
        """The solution of the stack for the right-hand side (eta, gamma); a
        key of either that the system does not reach means it has no
        solution.  The stack is solved once for their int data, both put
        over the lcm of their denominators, and the solution is divided by
        that lcm."""
        error = (f"no preimage within filtration degree {self.bound}; "
                 "retry with a larger degree")
        den = lcm(gamma.den, eta.den)
        rhs = [0] * self.stack.nrows
        for w in (eta, gamma):
            f = den // w.den
            for (s, v), tensor in w.data.items():
                for j, c in tensor.items():
                    i = self.index.get((s, v, j))
                    if i is None:
                        raise FiltrationError(error)
                    rhs[i] = c * f
        coords = self.stack.solve(rhs)
        if coords is None:
            raise FiltrationError(error)
        data: dict = {}
        for col, c in enumerate(coords):
            if c:
                v, j = divmod(col, self.size)
                data.setdefault(((), v), {})[j] = c
        phi_den, data = _int_store(data)
        return Cochain(gamma.g, 0, 1, self.bound)._like(data, phi_den * den)


def solve_correction(gamma: Cochain, eta: Cochain,
                     fault: Optional[str] = None) -> Cochain:
    """Solve dH(phi) = gamma, dV(phi) = eta for phi in Hom(g_ad, U-slice).

    One linear system, the stack of the dV equations over the dH equations
    (`CorrectionSystem`), is solved once for the right-hand side (eta,
    gamma) under the deterministic pivot rule of the exact solver; the dH
    rows make the vertical solution g-equivariant.  gamma and eta must share
    the bound.  The system is built and factored once per (algebra, bound)
    and kept in the algebra's memo.  The four cocycle preconditions are
    checked first, and the returned cochain is re-substituted, not trusted.

    `fault="noneq-theta"` adds a non-equivariant primitive-valued shift to
    the solution; the re-substitution must then reject the result.
    """
    if (gamma.m, gamma.n) != (1, 1):
        raise ValueError("gamma must live at bidegree (1,1)")
    if (eta.m, eta.n) != (0, 2):
        raise ValueError("eta must live at bidegree (0,2)")
    if gamma.bound != eta.bound:
        raise ValueError(f"gamma and eta must share one bound: got "
                         f"{gamma.bound} and {eta.bound}")
    g, bound = gamma.g, gamma.bound
    if bicomplex_dh(gamma):
        raise CocycleConditionError(
            "dH(gamma) != 0: gamma fails its cocycle equation "
            "(the bracket-compatibility identity)")
    if bicomplex_dv(eta):
        raise CocycleConditionError(
            "dV(eta) != 0: eta fails its coassociativity equation")
    if bicomplex_dv(gamma) != bicomplex_dh(eta):
        raise CocycleConditionError(
            "dV(gamma) != dH(eta): the mixed compatibility equation fails")
    if eta.swap_tensor() != eta:
        raise CocycleConditionError("eta != eta^21: eta must be symmetric")

    system = g.derived(("solver", bound), lambda: CorrectionSystem(g, bound))
    phi = system._preimage(gamma, eta)

    if fault == "noneq-theta":
        phi = phi + Cochain(g, 0, 1, bound,
                            {((), 0): {((g.cartan_index(0),),): 1}})

    # an image is not kept past its comparison; a failure recomputes it
    for image, target, equation in ((bicomplex_dh, gamma, "dH(phi) = gamma"),
                                    (bicomplex_dv, eta, "dV(phi) = eta")):
        if image(phi) != target:
            raise CocycleConditionError(f"returned phi fails {equation}; residual: "
                                        + (image(phi) - target).render())
    return phi


def _unsymmetrized(w: Cochain) -> Cochain:
    """w read in PBW coordinates, mapped to the symmetric slice by beta^{-1}
    (`unsymmetrize`) in every slot, on int data: each slice position's image
    is kept per algebra as (position, int) pairs over den^n, den clearing
    beta^{-1} up to the bound."""
    def build():
        keys, index = _slice_keys(w.g, w.n, w.bound)
        images = {m: unsymmetrize(w.g, m) for (m,) in _slice_keys(w.g, 1, w.bound)[0]}
        den = lcm(*(Fraction(q).denominator for im in images.values() for q in im.values()))
        return [[(index[tuple(m for m, _ in combo)], prod(int(q * den) for _, q in combo))
                 for combo in product(*(images[mono].items() for mono in key))]
                for key in keys], den ** w.n
    terms, den = w.g.derived(("unsymmetrized", w.n, w.bound), build)
    data: dict = {}
    for key, tensor in w.data.items():
        acc = data[key] = {}
        for j, c in tensor.items():
            for k, q in terms[j]:
                acc[k] = acc.get(k, 0) + q * c
    return w._like(data, w.den * den)


def identity_shift_of(diff: Cochain) -> Optional[Fraction]:
    """The scalar lambda with diff = lambda * (v -> v), if one exists."""
    g = diff.g
    lam = diff.value((), 0).get(((0,),), ZERO)
    identity = {((), v): {((v,),): lam} for v in range(g.dim)}
    return lam if diff == Cochain(g, 0, 1, diff.bound, identity) else None


def solver_report(g: LieAlgebraData, bound: int = 2, runs: int = 20,
                  seed: int = 0, fault: Optional[str] = None) -> Report:
    """Round-trip the solver on seeded random data: gamma and eta are read
    off a random phi_0, and the solution must agree with phi_0 up to a
    rational multiple of the identity map."""
    if bound < LEAST_BOUND["solver"]:
        raise ValueError(f"bound must be at least {LEAST_BOUND['solver']}, got {bound}")
    rng = Random(seed)
    datasets = [random_cochain(g, 0, 1, bound, rng, density=0.6)
                for _ in range(runs)]
    specs = []

    def chk_zero():
        phi = solve_correction(Cochain(g, 1, 1, bound),
                               Cochain(g, 0, 2, bound), fault=fault)
        return None if not phi else "expected the zero solution: " + phi.render()
    specs.append(("zero-data", "gamma = 0, eta = 0 -> phi = 0 under the "
                  "deterministic pivot rule", chk_zero))

    for k, phi0 in enumerate(datasets):
        def chk(phi0=phi0):
            diff = solve_correction(bicomplex_dh(phi0), bicomplex_dv(phi0),
                                    fault=fault) - phi0
            if identity_shift_of(diff) is None:
                return "phi - phi_0 is not a multiple of the identity: " + diff.render()
            return None
        specs.append((f"roundtrip-{k}",
                      "solver output differs from phi_0 by lambda * id",
                      chk))

    def chk_model_lift():
        from .freequant import lift_gamma_eta
        b_cochain = random_cochain(g, 0, 1, bound, rng, density=0.6)
        shift = {v: UElement(g, {mono: c for (mono,), c in b_cochain.value((), v).items()})
                 for v in range(g.dim)}
        gamma_map, eta_map = lift_gamma_eta(g, shift)
        # beta^{-1} maps the free model's PBW data, and B read as such, to the slice
        gamma = _unsymmetrized(Cochain(g, 1, 1, bound, {
            ((a,), b): {(mono,): c for mono, c in val.hbar_coefficient(0).items()}
            for (a, b), val in gamma_map.items()}))
        eta = _unsymmetrized(Cochain(g, 0, 2, bound, {((), b): t for b, t in eta_map.items()}))
        phi = solve_correction(gamma, eta, fault=fault) + _unsymmetrized(b_cochain)
        if identity_shift_of(phi) is None:
            return ("solver did not recover the model lift up to lambda * id: "
                    + phi.render())
        return None
    specs.append(("model-lift",
                  "gamma, eta read off the lift J + hbar*I(B) are solved back "
                  "to -B up to lambda * id", chk_model_lift))
    return run_checks("solver", g.type_label(), specs, seed=seed)
