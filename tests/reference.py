"""Reference constructions that only the tests use, built on the element
API of `qcurrent`.  Each one is an independent cross-check of a fast path
in the package, not a code path of its own; the sparse-row helpers build
the test matrices in the one format of `rank_of_rows` and `factor`."""

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from random import Random
from typing import Dict, List, Optional, Tuple

from qcurrent.cohom import (CobarChain, Cochain, CocycleConditionError,
                            FiltrationError, GModule, Vector,
                            _block_cohomology_dim, _minus_basis, _partition_orbits,
                            _signed_insert, _sym_monomials, _tensor_basis,
                            adjoint_module, bicomplex_dh, bicomplex_dv,
                            cobar_differential, dual_module, tensor_module,
                            tensor_slice_keys)
from qcurrent.current import CurrentElement, CurrentTensor, c_bracket
from qcurrent.dsl import Bracket, Call, Hbar, Name, Num, Prod, Sum, Tensor
from qcurrent.envelope import TensorElement, UElement, ad_letter, box_n, normal_order
from qcurrent.exactnum import ONE, ZERO, HPoly, _exact, _quotient, accumulate, solve
from qcurrent.freequant import fm_ad_word, fm_coproduct, free_model
from qcurrent.liealg import LieElement, _invert_dense, casimir_adjoint_eigenvalue


def multiply_slots(t):
    """The total multiplication map m: a1 (x) ... (x) an -> a1*...*an."""
    return t.linear_map(lambda key: reduce(
        UElement.__mul__, (UElement(t.ctx, {w: 1}) for w in key)), UElement(t.ctx))


def apply_slot(t, slot: int, fn):
    """A UElement-valued function fn mapped over one slot of the tensor t."""
    return t.linear_map(lambda key: fn(UElement(t.ctx, {key[slot]: 1})).expand(
        lambda w: {key[:slot] + (w,) + key[slot + 1:]: 1}, t), t)


def _mat_mul(a, b):
    out = {}
    items_b = {}
    for (i, j), v in b.items():
        items_b.setdefault(i, []).append((j, v))
    for (i, k), va in a.items():
        for j, vb in items_b.get(k, ()):  # (i,k)*(k,j)
            accumulate(out, (i, j), va * vb)
    return out


def _mat_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        accumulate(out, k, -v)
    return out


def matrix_product_tables(g):
    """(bracket_table, gram, weights, casimir_pairs) of sl_n from sparse
    products of g's basis matrices, [A, B] = AB - BA and (A, B) = tr(AB),
    in the order `LieAlgebraData` builds them."""
    mats = [g._basis_matrix(b) for b in range(g.dim)]
    bracket = {}
    for a in range(g.dim):
        for b in range(g.dim):
            if a != b:
                comm = _mat_sub(_mat_mul(mats[a], mats[b]), _mat_mul(mats[b], mats[a]))
                if coeffs := g._matrix_to_coords(comm):
                    bracket[a, b] = coeffs
    gram = {}
    for a in range(g.dim):
        for b in range(a, g.dim):
            prod_ab = _mat_mul(mats[a], mats[b])
            if v := sum(prod_ab.get((i, i), 0) for i in range(g.n)):
                gram[a, b] = gram[b, a] = v
    cartan = [g.cartan_index(i) for i in range(g.rank)]
    weights = [tuple(bracket.get((h, b), {}).get(b, 0) for h in cartan)
               for b in range(g.dim)]
    pairs = []
    for k in range(g.num_positive):
        pairs += [(g.pos_index(k), g.neg_index(k), 1), (g.neg_index(k), g.pos_index(k), 1)]
    inv = _invert_dense([[gram.get((h, k), 0) for k in cartan] for h in cartan])
    pairs += [(h, k, _exact(inv[i][j])) for i, h in enumerate(cartan)
              for j, k in enumerate(cartan) if inv[i][j]]
    return bracket, gram, weights, pairs


def element_path_casimir_eigenvalue(g):
    """`casimir_adjoint_eigenvalue` by `LieElement` brackets, with no memo:
    the sum of w [i, [j, x]] over the Casimir pairs (i, j, w), for every
    basis vector x, raising the package's two messages."""
    value = None
    for b in range(g.dim):
        x = g.basis_element(b)
        acc = LieElement(g)
        for (i, j, w) in g.casimir_pairs:
            acc = acc + w * g.bracket(g.basis_element(i), g.bracket(g.basis_element(j), x))
        expected = acc.data.get(b, ZERO)
        if acc.data != ({b: expected} if expected else {}):
            raise ValueError("Casimir does not act diagonally on the adjoint basis")
        if value is None:
            value = expected
        elif value != expected:
            raise ValueError("Casimir action on the adjoint is not scalar")
    return value


def casimir_tensor(g):
    """Casimir 2-tensor from dual bases of the invariant form."""
    return TensorElement(g, 2, {((a,), (b,)): wgt for a, b, wgt in g.casimir_pairs})


def adjoint_action(x, a):
    """x . a = [x, a], the adjoint action of the Lie algebra on its envelope."""
    return UElement.from_lie(a.ctx, x).bracket(a)


def quadratic_casimir(g):
    """C = m(Omega), checked central on the generators."""
    c = multiply_slots(casimir_tensor(g))
    for b in range(g.dim):
        if c.bracket(UElement.letter(g, b)):
            raise ValueError("quadratic Casimir fails to be central")
    return c


def form(g, x, y):
    """The invariant form (x, y) of two Lie elements, from the Gram table."""
    if x.alg is not g or y.alg is not g:
        raise ValueError(f"elements of another algebra given to {g!r}")
    total = ZERO
    for a, ca in x.data.items():
        for b, cb in y.data.items():
            v = g.gram.get((a, b))
            if v:
                total += ca * cb * v
    return total


def coaction_bracket(t, w):
    """[t, w(u) (x) 1 + 1 (x) w(v)] on a 2-tensor, slot by slot through
    `c_bracket`: [x u^a (x) y u^b, ...] = [x u^a, w] (x) y u^b
    + x u^a (x) [y u^b, w]."""
    alg = t.alg
    out = CurrentTensor(alg, 2)
    for (k1, k2), c in t.data.items():
        for k, v in c_bracket(CurrentElement(alg, {k1: c}), w).data.items():
            out._accumulate((k, k2), v)
        for k, v in c_bracket(CurrentElement(alg, {k2: c}), w).data.items():
            out._accumulate((k1, k), v)
    return out


def product_path_relation(g, tag: str, scale) -> Optional[str]:
    """The `relations-iota-<tag>` check of `coproduct-wd` by tensor word
    products: [Delta(I(a)), Delta(Y(b))] - Delta(Y([a, b])) for every basis
    pair, a outer and b inner, with Y = I or J; the first failure's
    message, or None."""
    fm = free_model(g)
    letter, embed = {"iota": (fm.iota_letter, fm.iota), "J": (fm.j_letter, fm.j_of)}[tag]
    delta_iota = [fm_coproduct(fm.iota_letter(a), scale) for a in range(g.dim)]
    delta_y = [fm_coproduct(letter(b), scale) for b in range(g.dim)]
    for a in range(g.dim):
        for b in range(g.dim):
            ybr = embed(g.bracket(g.basis_element(a), g.basis_element(b)))
            bad = delta_iota[a].bracket(delta_y[b]) - fm_coproduct(ybr, scale)
            if bad:
                return f"at ({g.names[a]}, {g.names[b]}): " + bad.render()
    return None


def element_path_relation(g, tag: str, scale) -> Optional[str]:
    """The `relations-iota-<tag>` check of `coproduct-wd` on elements: first
    Delta(I(a)) = box(I(a)) for every a, then ad I(a) on each slot of
    Delta(Y(b)), expanded through `fm_ad_word` into a `TensorElement` and
    compared by `!=` with Delta(Y([a, b])), a outer and b inner; the first
    failure's message, or None."""
    fm = free_model(g)
    letter, embed = {"iota": (fm.iota_letter, fm.iota), "J": (fm.j_letter, fm.j_of)}[tag]
    for a in range(g.dim):
        ia = fm.iota_letter(a)
        if bad := fm_coproduct(ia, scale) - box_n(ia, 2):
            return f"Delta(I({g.names[a]})) is not primitive: " + bad.render()
    for a in range(g.dim):
        def terms(key, a=a):
            out = {}
            for slot, word in enumerate(key):
                for w, c in fm_ad_word(fm, a, word).items():
                    accumulate(out, key[:slot] + (w,) + key[slot + 1:], c)
            return out
        for b in range(g.dim):
            delta_y = fm_coproduct(letter(b), scale)
            lhs = delta_y.expand(terms, delta_y)
            target = fm_coproduct(embed(g.bracket(g.basis_element(a), g.basis_element(b))),
                                  scale)
            if lhs != target:
                return f"at ({g.names[a]}, {g.names[b]}): " + (lhs - target).render()
    return None


def element_path_rewrite(g) -> Optional[str]:
    """The `rewrite-equivariance` check of `coproduct-wd` by element
    brackets: [I(a), J(b)] - J([a, b]) for every basis pair, a outer and b
    inner; the first failure's message, or None."""
    fm = free_model(g)
    for a in range(g.dim):
        for b in range(g.dim):
            jbr = fm.j_of(g.bracket(g.basis_element(a), g.basis_element(b)))
            bad = fm.iota_letter(a).bracket(fm.j_letter(b)) - jbr
            if bad:
                return f"at ({g.names[a]}, {g.names[b]}): " + bad.render()
    return None


def product_antipode(a):
    """S with no memo: the anti-morphism with S(I(x)) = -I(x) and S(J(x)) =
    -J(x) + (hbar/4) c_g I(x), each word sent to the product of its
    letters' images in reverse order."""
    fm = a.ctx
    cg = casimir_adjoint_eigenvalue(fm.g)

    def image_of(word):
        jw, iw = word
        return reduce(UElement.__mul__, [-fm.iota_letter(i) for i in reversed(iw)] + [
            -fm.j_letter(j) + fm.iota_letter(j).scale(HPoly.hbar(1, Fraction(cg, 4)))
            for j in reversed(jw)], UElement.unit(fm))
    return a.linear_map(image_of, UElement(fm))


def element_path_antipode(g, slot: int) -> Optional[str]:
    """The `antipode-left` (slot 0) or `antipode-right` (slot 1) check of
    `coproduct-wd` by tensor maps: S on one slot of Delta(x) through
    `apply_slot`, then `multiply_slots`, for x = I(b) then J(b) over the
    basis; the first failure's message, or None."""
    fm = free_model(g)
    for b in range(g.dim):
        for name, x in ((f"I({g.names[b]})", fm.iota_letter(b)),
                        (f"J({g.names[b]})", fm.j_letter(b))):
            val = multiply_slots(apply_slot(fm_coproduct(x), slot, product_antipode))
            if val:
                return f"at {name}: " + val.render()
    return None


# --- sparse rows, the matrix format of `rank_of_rows` and `factor` -----------


def sparse_rows(dense) -> list:
    """The sparse rows {column: nonzero entry} of a dense matrix."""
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def transpose(rows: list, ncols: int) -> list:
    """The sparse rows of the transpose of the matrix of `rows`."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def kernel_basis(rows: list, ncols: int) -> list:
    """Basis of the right kernel, built from the reduced row echelon form.

    Independent of the elimination of `rank_of_rows` and `factor`, so
    they can cross-check each other.
    """
    pivots = {}  # col -> reduced row dict
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                f = -row[c]
                for j, v in pivots[c].items():
                    accumulate(row, j, f * v)
            else:
                lead = row[c]
                pivots[c] = {j: _quotient(v, lead) for j, v in row.items()}
                break
    for c in sorted(pivots, reverse=True):
        prow = pivots[c]
        for c2, row2 in pivots.items():
            if c2 == c:
                continue
            f = row2.get(c)
            if f:
                for j, v in prow.items():
                    accumulate(row2, j, -f * v)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: ONE}
        for c, row in pivots.items():
            v = row.get(free)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


# --- g-modules and Chevalley-Eilenberg cochains --------------------------------


def act(module: GModule, x: int, vec: Vector) -> Vector:
    """x . vec in a module, from its action matrices."""
    out: Vector = {}
    cols = module.actions[x]
    for j, c in vec.items():
        for i, a in cols.get(j, {}).items():
            accumulate(out, i, a * c)
    return out


def validate(module: GModule) -> None:
    """rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) on all basis pairs."""
    g = module.g
    basis = [{k: ONE} for k in range(module.dim)]
    for a in range(g.dim):
        for b in range(g.dim):
            table = g.bracket_table.get((a, b), {})
            for k, vec in enumerate(basis):
                lhs: Vector = {}
                for z, c in table.items():
                    for i, v in act(module, z, vec).items():
                        accumulate(lhs, i, c * v)
                rhs = act(module, a, act(module, b, vec))
                for i, v in act(module, b, act(module, a, vec)).items():
                    accumulate(rhs, i, -v)
                if lhs != rhs:
                    raise ValueError(
                        f"not a g-module: pair ({g.names[a]}, {g.names[b]}) "
                        f"fails on basis vector {k} of {module.label}")


def without_group(module: GModule) -> GModule:
    """The module with the trivial group: its CE rows are one part, one row
    per weight-zero basis cochain."""
    return GModule(module.g, module.dim, module.actions, module.label)


def pbw_slice_module(g, n: int, bound: int) -> GModule:
    """T^n_{<=bound} on PBW monomials, the n-tuples of `tensor_slice_keys`
    read as monomials of U(g), with g acting on each slot by the adjoint
    action `ad_letter`, which straightens through `normal_order`.  omega
    and pi do not permute this basis, so its group is trivial."""
    keys = tensor_slice_keys(g, n, bound)
    index = {key: j for j, key in enumerate(keys)}
    actions = []
    for x in range(g.dim):
        cols: Dict[int, Vector] = {}
        for j, key in enumerate(keys):
            col: Vector = {}
            for slot, mono in enumerate(key):
                for m2, c in ad_letter(g, x, mono).items():
                    accumulate(col, index[key[:slot] + (m2,) + key[slot + 1:]], c)
            if col:
                cols[j] = col
        actions.append(cols)
    return GModule(g, len(keys), actions, f"PBW (U<= {bound})^(x){n}")


def symmetric_slice_module(g, n: int, bound: int) -> GModule:
    """T^n_{<=bound} on the n-tuples of symmetric monomials of
    `tensor_slice_keys`, each slot acted on by the Leibniz rule
    x . y_1...y_k = sum_p y_1...[x, y_p]...y_k, written term by term with
    no multiplicities: the n-generic module that `_slice` lifts slotwise
    from `u_slice_module`.  Its group is trivial."""
    keys = tensor_slice_keys(g, n, bound)
    index = {key: j for j, key in enumerate(keys)}
    actions = []
    for x in range(g.dim):
        cols: Dict[int, Vector] = {}
        for j, key in enumerate(keys):
            col: Vector = {}
            for slot, mono in enumerate(key):
                for p, y in enumerate(mono):
                    for z, c in g.bracket_table.get((x, y), {}).items():
                        m2 = tuple(sorted(mono[:p] + (z,) + mono[p + 1:]))
                        accumulate(col, index[key[:slot] + (m2,) + key[slot + 1:]], c)
            if col:
                cols[j] = col
        actions.append(cols)
    return GModule(g, len(keys), actions, f"(U<= {bound})^(x){n}")


def pbw_coefficient_module(g, bound: int) -> GModule:
    """dual(adjoint) (x) U<= bound on the PBW slice, whose basis omega and
    pi do not permute: the whole block, against which the symmetric
    slice's character parts are checked."""
    return tensor_module(dual_module(adjoint_module(g)), pbw_slice_module(g, 1, bound))


def symmetrize(g, mono: tuple) -> dict:
    """sym(y_1...y_k) = (1/k!) sum of the orderings of y_1...y_k, in PBW
    normal form."""
    words = list(permutations(mono))
    out: dict = {}
    for word in words:
        for m2, c in normal_order(g, word).items():
            accumulate(out, m2, Fraction(c, len(words)))
    return out


def beta(w: Cochain) -> Cochain:
    """beta^{(x)n}: the cochain w, on symmetric monomials, in PBW
    coordinates, each slot's monomial replaced by its `symmetrize`."""
    images: dict = {}
    data: dict = {}
    for s, v in w.data:
        acc = data[s, v] = {}
        for tkey, c in w.value(s, v).items():
            out = {(): c}
            for mono in tkey:
                if mono not in images:
                    images[mono] = symmetrize(w.g, mono)
                out = {k + (m,): q * a for k, q in out.items() for m, a in images[mono].items()}
            for k, q in out.items():
                accumulate(acc, k, q)
    return Cochain(w.g, w.m, w.n, w.bound, data)


class CEChain:
    """Alternating m-cochain valued in a GModule, stored on sorted tuples."""

    __slots__ = ("module", "m", "data")

    def __init__(self, module: GModule, m: int,
                 data: Optional[Dict[tuple, Vector]] = None):
        self.module = module
        self.m = m
        self.data = {}
        if data:
            for s, vec in data.items():
                vec = {k: v for k, v in vec.items() if v}
                if vec:
                    self.data[s] = vec

    def value(self, s: tuple) -> Vector:
        return self.data.get(s, {})

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        return isinstance(other, CEChain) and self.m == other.m and self.data == other.data

    def __sub__(self, other: "CEChain") -> "CEChain":
        out: Dict[tuple, Vector] = {s: dict(v) for s, v in self.data.items()}
        for s, vec in other.data.items():
            cur = out.setdefault(s, {})
            for k, v in vec.items():
                accumulate(cur, k, -v)
            if not cur:
                out.pop(s)
        return CEChain(self.module, self.m, out)


def _ce_support(omega: CEChain, module: GModule) -> List[tuple]:
    """The (m+1)-sets t, in lexicographic order, on which d(omega) can be
    nonzero: s + {a} for s in the support and a not in s, and
    (s - {z}) + {a, b} for z in s and z in [a, b]."""
    g = module.g
    out = set()
    for s in omega.data:
        out.update(tuple(sorted(s + (a,))) for a in range(g.dim) if a not in s)
        for z in s:
            rest = [x for x in s if x != z]
            for (a, b), coeffs in g.bracket_table.items():
                if z in coeffs and a not in rest and b not in rest:
                    out.add(tuple(sorted(rest + [a, b])))
    return sorted(out)


def ce_differential(omega: CEChain, module: Optional[GModule] = None) -> CEChain:
    """The alternating-sum differential of Lie-algebra cohomology, the
    independent reference for `ce_push`.

    The faces of every (m+1)-set t are summed by the textbook formula; only
    the t of `_ce_support` are visited, since d(omega) vanishes elsewhere."""
    module = module or omega.module
    g = module.g
    m = omega.m
    out: Dict[tuple, Vector] = {}

    def add(s, vec, factor):
        if not vec:
            return
        cur = out.setdefault(s, {})
        for k, v in vec.items():
            accumulate(cur, k, factor * v)
        if not cur:
            out.pop(s)

    for t in _ce_support(omega, module):
        for i in range(m + 1):
            rest = t[:i] + t[i + 1:]
            vec = omega.value(rest)
            if vec:
                add(t, act(module, t[i], vec), (-1) ** i)
        for i in range(m + 1):
            for j in range(i + 1, m + 1):
                rest = tuple(x for k, x in enumerate(t) if k not in (i, j))
                sign_ij = (-1) ** (i + j)  # 0-based == 1-based (i+j)-2
                for z, c in g.bracket_table.get((t[i], t[j]), {}).items():
                    ins = _signed_insert(z, rest)
                    if ins is None:
                        continue
                    s, sgn = ins
                    add(t, omega.value(s), sign_ij * sgn * c)
    return CEChain(module, m + 1, out)


def random_ce_chain(module: GModule, m: int, rng: Random,
                    density: Fraction = Fraction(1, 3)) -> CEChain:
    g = module.g
    data: Dict[tuple, Vector] = {}
    for s in combinations(range(g.dim), m):
        vec: Vector = {}
        for k in range(module.dim):
            if rng.random() < density:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if c:
                    vec[k] = c
        if vec:
            data[s] = vec
    return CEChain(module, m, data)


# --- the reversal involution of the cobar complex ------------------------------


def tensor_basis(v_dim: int, n: int, degree: int) -> List[tuple]:
    """n-tuples of exponent vectors of total degree `degree`: the union over
    multidegrees alpha of the package's `_tensor_basis(alpha, n)`, ordered
    factor by factor by (degree, exponent vector)."""
    keys = [key for alpha in _sym_monomials(v_dim, degree)
            for key in _tensor_basis(alpha, n)]
    return sorted(keys, key=lambda key: [(sum(m), m) for m in key])


def minus_basis(v_dim: int, n: int, degree: int) -> List[CobarChain]:
    """Basis of the minus eigenspace at one degree: the union over
    multidegrees alpha of the package's `_minus_basis(alpha, n)`."""
    return [b for alpha in _sym_monomials(v_dim, degree)
            for b in _minus_basis(alpha, n)]


def minus_cohomology_dim(v_dim: int, n: int, degree: int) -> int:
    """dim H^n of the minus subcomplex of the cobar complex at one degree:
    one block per partition, counted by the size of its S_v orbit
    (`_partition_orbits`), as `cartier_report` sums them."""
    return sum(size * _block_cohomology_dim(lam, n)
               for lam, size in _partition_orbits(v_dim, degree).items())


def sigma_involution(y: CobarChain) -> CobarChain:
    """Reverse the tensor factors with the sign (-1)^{n(n+1)/2}."""
    sign = (-1) ** (y.n * (y.n + 1) // 2)
    out = CobarChain(y.v_dim, y.n, y.degree)
    for key, c in y.data.items():
        out._accumulate(tuple(reversed(key)), sign * c)
    return out


def sigma_split(y: CobarChain) -> Tuple[CobarChain, CobarChain]:
    """Eigenprojections (plus, minus) of the reversal involution."""
    s = sigma_involution(y)
    plus = (y + s).scale(Fraction(1, 2))
    minus = (y - s).scale(Fraction(1, 2))
    return plus, minus


def solve_minus_coboundary(y: CobarChain) -> CobarChain:
    """Write a minus 2-cocycle as the differential of a 1-chain.

    Rejects inputs that are not in the minus eigenspace or not cocycles;
    this is the constructive face of the vanishing of H^2.
    """
    if y.n != 2:
        raise ValueError("expected a 2-chain")
    _, minus = sigma_split(y)
    if minus != y:
        raise CocycleConditionError("input is not in the minus eigenspace")
    if cobar_differential(y):
        raise CocycleConditionError("input is not a cocycle: delta(y) != 0")
    basis = minus_basis(y.v_dim, 1, y.degree)
    col_index: Dict[tuple, int] = {}
    images = []
    for b in basis:
        images.append(cobar_differential(b))
        for key in images[-1].data:
            col_index.setdefault(key, len(col_index))
    for key in y.data:
        col_index.setdefault(key, len(col_index))
    rows = [{} for _ in col_index]
    for j, img in enumerate(images):
        for key, c in img.data.items():
            rows[col_index[key]][j] = c
    rhs = [ZERO] * len(col_index)
    for key, c in y.data.items():
        rhs[col_index[key]] = c
    x = solve(rows, len(basis), rhs)
    if x is None:
        raise FiltrationError("no preimage found; H^2 of the minus complex "
                              "should vanish, check the input degree")
    out = CobarChain(y.v_dim, 1, y.degree)
    for b, c in zip(basis, x):
        if c:
            for key, q in b.data.items():
                out._accumulate(key, c * q)
    return out


# --- the solver's stack, one unit cochain at a time --------------------------


def reference_stack(g, bound) -> dict:
    """The rows {(s, v, slice position): {column: exact value}} of the
    solver's stack, unknown (v, j) in column v * size + j: dV and then dH of
    each unit (0, 1)-cochain v -> (the basis tensor at position j), pushed
    through `bicomplex_dv` and `bicomplex_dh` as a `Cochain` and read off
    its exact values."""
    size = len(tensor_slice_keys(g, 1, bound))
    zero = Cochain(g, 0, 1, bound)
    rows = defaultdict(dict)
    for d in (bicomplex_dv, bicomplex_dh):
        for col in range(g.dim * size):
            v, j = divmod(col, size)
            image = d(zero._like({((), v): {j: 1}}, 1))
            for (s, v2), tensor in image.data.items():
                for k, c in tensor.items():
                    rows[s, v2, k][col] = _quotient(c, image.den)
    return dict(rows)


# --- the JSON form of a bicomplex cochain ---------------------------------------


def cochain_to_json(w: Cochain) -> dict:
    """JSON-compatible nested map, deterministic ordering, names not
    indices, so fixtures stay readable and stable."""
    entries = []
    for (s, v) in sorted(w.data):
        tensor = w.value(s, v)
        entries.append({
            "args": [w.g.names[i] for i in s],
            "v": w.g.names[v],
            "tensor": [{"slots": [[w.g.names[i] for i in mono]
                                  for mono in tkey],
                        "coeff": str(tensor[tkey])}
                       for tkey in sorted(tensor)],
        })
    return {"m": w.m, "n": w.n, "bound": w.bound, "entries": entries}


def cochain_from_json(g, payload: dict) -> Cochain:
    """The inverse of `cochain_to_json`, with the constructor's filtration
    check."""
    data: dict = {}
    for entry in payload["entries"]:
        s = tuple(g.name_to_index[n] for n in entry["args"])
        tensor = data.setdefault((s, g.name_to_index[entry["v"]]), {})
        for term in entry["tensor"]:
            tkey = tuple(tuple(g.name_to_index[n] for n in mono)
                         for mono in term["slots"])
            accumulate(tensor, tkey, Fraction(term["coeff"]))
    return Cochain(g, payload["m"], payload["n"], payload["bound"], data)


# --- the canonical printer of the expression language, the parser's inverse ----


def print_expr(node) -> str:
    """The text of an expression tree that `parse` reads back to the same
    tree."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Hbar):
        return "hbar" if node.power == 1 else f"hbar^{node.power}"
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(print_expr(a) for a in node.args)})"
    if isinstance(node, Bracket):
        return f"[{print_expr(node.left)}, {print_expr(node.right)}]"
    if isinstance(node, Tensor):
        parts = []
        for p in node.parts:
            text = print_expr(p)
            if isinstance(p, (Sum, Prod)):
                text = f"({text})"
            parts.append(text)
        return " (x) ".join(parts)
    if isinstance(node, Prod):
        parts = []
        for p in node.factors:
            text = print_expr(p)
            if isinstance(p, (Sum, Tensor)) or (isinstance(p, Num) and p.value < 0):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)
    if isinstance(node, Sum):
        out = ""
        for k, (sign, term) in enumerate(node.terms):
            text = print_expr(term)
            if isinstance(term, Sum):
                text = f"({text})"
            if k == 0:
                out = text if sign == 1 else f"-{text}"
            else:
                out += f" + {text}" if sign == 1 else f" - {text}"
        return out
    raise TypeError(f"not an expression node: {node!r}")
