"""Concrete simple Lie algebras of type A: root data, trace form, Casimir.

`build_sl(n)` realizes sl_n by matrix units: basis blocks are negative root
vectors, then Cartan elements t_i = E_ii - E_{i+1,i+1}, then positive root
vectors, each block ordered by root height then start index.  This total
order is the normal-ordering convention used for PBW monomials downstream.
The bracket table and the trace form come from the matrix-unit rules
[E_ij, E_kl] = d_jk E_il - d_li E_kj and tr(E_ij E_kl) = d_jk d_il, applied
to each basis element's one or two units, with no matrix product.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Any, Callable, Dict, List, Optional, Tuple

from .envelope import PBWAlgebra
from .exactnum import ONE, ZERO, CoeffMap, _exact, _quotient, accumulate
from .reports import CheckError

NEGATIVE = "negative"
CARTAN = "cartan"
POSITIVE = "positive"


class RootDatum:
    """Bookkeeping for the root system of sl_n in the simple-root basis."""

    def __init__(self, n: int):
        self.n = n
        self.rank = n - 1
        # positive roots of type A_{n-1}: alpha_i + ... + alpha_{j-1} for i < j,
        # ordered by height then start index
        self.positive_roots: List[Tuple[int, ...]] = []
        self.root_spans: List[Tuple[int, int]] = []
        for height in range(1, n):
            for i in range(1, n - height + 1):
                j = i + height
                vec = tuple(1 if i <= k < j else 0 for k in range(1, n))
                self.positive_roots.append(vec)
                self.root_spans.append((i, j))

    def root_name(self, k: int) -> str:
        i, j = self.root_spans[k]
        return "".join(str(s) for s in range(i, j))


class LieElement(CoeffMap):
    """Sparse vector in the Lie algebra: {basis index: coefficient}."""

    __slots__ = ("alg",)
    _space = ("alg",)

    def __init__(self, alg: "LieAlgebraData", data: Optional[Dict[int, Fraction]] = None):
        self.alg = alg
        super().__init__(data)

    def render(self) -> str:
        if not self.data:
            return "0"
        parts = [f"{c}*{self.alg.names[i]}" for i, c in sorted(self.data.items())]
        return " + ".join(parts)


class LieAlgebraData(PBWAlgebra):
    """sl_n with precomputed structure constants, Gram matrix and Casimir pairs.

    Its structure tables are immutable after construction.  The matrix-unit
    realization is integral, so the bracket table, the Gram matrix and the
    Cartan weights hold int coefficients.  The Casimir weights are ints
    wherever they are integral; only the Cartan block, the inverse Gram
    matrix of the t_i, has Fractions.  The table `omega_table` of
    [x (x) 1, Omega] is integral again on sl_n: the denominators cancel.
    State derived from these tables is kept in one memo, through `derived`:
    it is built on first use, from the tables the algebra holds at that
    time, and is freed with the algebra.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sl_n needs n >= 2")
        self.n = n
        self.root_datum = RootDatum(n)
        r = self.root_datum.rank
        p = len(self.root_datum.positive_roots)
        self.rank = r
        self.dim = 2 * p + r
        self.num_positive = p

        # basis layout: negatives [0, p), cartan [p, p+r), positives [p+r, dim)
        self.neg_index = lambda k: k
        self.cartan_index = lambda i: p + i
        self.pos_index = lambda k: p + r + k

        self.block: List[str] = ([NEGATIVE] * p) + ([CARTAN] * r) + ([POSITIVE] * p)
        self.root_of: List[Optional[int]] = list(range(p)) + [None] * r + list(range(p))

        self.names: List[str] = (
            [f"f{self.root_datum.root_name(k)}" for k in range(p)]
            + [f"t{i + 1}" for i in range(r)]
            + [f"e{self.root_datum.root_name(k)}" for k in range(p)]
        )
        self.name_to_index: Dict[str, int] = {nm: i for i, nm in enumerate(self.names)}
        if n == 2:
            self.name_to_index.update({"f": 0, "h": 1, "e": 2})
            self.names = ["f", "h", "e"]

        # the matrix-unit rules on each basis element's one or two units
        self._span_to_root = {sp: k for k, sp in enumerate(self.root_datum.root_spans)}
        units = [list(self._basis_matrix(b).items()) for b in range(self.dim)]
        self.bracket_table: Dict[Tuple[int, int], Dict[int, int]] = {}
        for a in range(self.dim):
            for b in range(self.dim):
                comm: Dict[Tuple[int, int], int] = {}
                for (i, j), c in units[a]:
                    for (k, l), d in units[b]:
                        if j == k:
                            accumulate(comm, (i, l), c * d)
                        if l == i:
                            accumulate(comm, (k, j), -c * d)
                if comm:
                    self.bracket_table[a, b] = self._matrix_to_coords(comm)

        self.gram: Dict[Tuple[int, int], int] = {}
        for a in range(self.dim):
            for b in range(a, self.dim):
                if v := sum(c * d for (i, j), c in units[a] for (k, l), d in units[b]
                            if j == k and l == i):
                    self.gram[a, b] = self.gram[b, a] = v

        # weight of each basis vector under ad(t_1..t_r)
        self.weights: List[Tuple[int, ...]] = [
            tuple(self.bracket_table.get((self.cartan_index(i), b), {}).get(b, 0)
                  for i in range(r)) for b in range(self.dim)]

        # Casimir tensor as pure-tensor pairs (a, b, weight): dual bases of
        # the trace form; (e_alpha, f_alpha) = 1 pairs off-diagonal, the
        # Cartan block is the inverse Gram matrix of the t_i
        self.casimir_pairs: List[Tuple[int, int, Fraction]] = []
        for k in range(p):
            self.casimir_pairs.append((self.pos_index(k), self.neg_index(k), 1))
            self.casimir_pairs.append((self.neg_index(k), self.pos_index(k), 1))
        cart_gram = [[self.gram.get((self.cartan_index(i), self.cartan_index(j)), 0)
                      for j in range(r)] for i in range(r)]
        inv = _invert_dense(cart_gram)
        for i in range(r):
            for j in range(r):
                if inv[i][j]:
                    self.casimir_pairs.append(
                        (self.cartan_index(i), self.cartan_index(j), _exact(inv[i][j])))

        # the PBWAlgebra straightening memo, and the memo of `derived`
        self._pbw_cache: Dict[tuple, dict] = {}
        self._memo: dict = {}

    def derived(self, key, build: Callable[[], Any]):
        """The value kept under `key` in this algebra's memo, from `build()`
        on first use.  A key is a plain value: a string, a tuple, or the
        class being built."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def klein(self) -> Optional[tuple]:
        """(omega, pi): omega(x) = -x^T and pi(x) = P x P, P the
        antidiagonal permutation matrix, as signed permutations of the
        basis, [(image, sign), ...].  They generate a Klein four-group of
        automorphisms.  None when the bracket table is not preserved by
        both, or they do not commute (a tampered table): the group is then
        trivial."""
        return self.derived("klein", lambda: _klein_generators(self))

    @property
    def omega_table(self) -> Dict[int, list]:
        """[x (x) 1, Omega] for every basis index x, from
        `omega_bracket_table` over the Casimir pairs."""
        return self.derived("omega_table",
                            lambda: omega_bracket_table(self, self.casimir_pairs))

    # --- matrix-unit realization -------------------------------------------------

    def _basis_matrix(self, b: int) -> Dict[Tuple[int, int], int]:
        p = self.num_positive
        if self.block[b] == NEGATIVE:
            i, j = self.root_datum.root_spans[self.root_of[b]]
            return {(j - 1, i - 1): 1}
        if self.block[b] == POSITIVE:
            i, j = self.root_datum.root_spans[self.root_of[b]]
            return {(i - 1, j - 1): 1}
        i = b - p  # cartan t_{i+1} = E_ii - E_{i+1,i+1}
        return {(i, i): 1, (i + 1, i + 1): -1}

    def _matrix_to_coords(self, m: Dict[Tuple[int, int], int]) -> Dict[int, int]:
        """Expand a traceless matrix in the chosen basis."""
        out, diagonal = {}, False
        for (a, b), v in m.items():
            if a == b:
                diagonal = True
            elif a < b:
                out[self.pos_index(self._span_to_root[a + 1, b + 1])] = v
            else:
                out[self.neg_index(self._span_to_root[b + 1, a + 1])] = v
        if diagonal:
            running = 0
            for k in range(self.n - 1):
                running += m.get((k, k), 0)
                if running:
                    out[self.cartan_index(k)] = running
        return out

    # --- public operations ----------------------------------------------------

    def basis_element(self, i: int) -> LieElement:
        return LieElement(self, {i: ONE})

    def element_by_name(self, name: str) -> LieElement:
        return self.basis_element(self.name_to_index[name])

    def cartan_generator(self, i: int) -> LieElement:
        """t_{i+1} for i in 0..rank-1."""
        return self.basis_element(self.cartan_index(i))

    def simple_pos_index(self, i: int) -> int:
        return self.pos_index(i)

    def simple_neg_index(self, i: int) -> int:
        return self.neg_index(i)

    # PBW letter-algebra protocol
    def pbw_bracket(self, a: int, b: int) -> Dict[int, int]:
        return self.bracket_table.get((a, b), {})

    def pbw_letter_name(self, i: int) -> str:
        return self.names[i]

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        if x.alg is not self or y.alg is not self:
            raise ValueError(f"elements of another algebra given to {self!r}")
        out: Dict[int, Fraction] = {}
        for a, ca in x.data.items():
            for b, cb in y.data.items():
                for z, cz in self.bracket_table.get((a, b), {}).items():
                    accumulate(out, z, ca * cb * cz)
        return x._like(out)

    def is_cartan(self, x: LieElement) -> bool:
        return all(self.block[i] == CARTAN for i in x.data)

    def root_value(self, root_k: int, h: LieElement) -> Fraction:
        """alpha(h) for the k-th positive root and h in the Cartan span."""
        e_idx = self.pos_index(root_k)
        total = ZERO
        for b, c in h.data.items():
            if self.block[b] != CARTAN:
                raise ValueError("root evaluation needs a Cartan element")
            total += c * self.weights[e_idx][b - self.num_positive]
        return total

    def simple_root_value(self, i: int, h: LieElement) -> Fraction:
        """alpha_i(h), i in 0..rank-1 (simple roots come first in the root list)."""
        return self.root_value(i, h)

    def simple_root_norm(self, i: int) -> Fraction:
        """(alpha_i, alpha_i) = alpha_i(t_i) in the trace-form normalization."""
        return self.root_value(i, self.cartan_generator(i))

    def type_label(self) -> str:
        return f"A{self.n - 1}"

    def __repr__(self):
        return f"LieAlgebraData(sl_{self.n})"


def omega_bracket_table(g: LieAlgebraData, pairs) -> Dict[int, list]:
    """[x (x) 1, Omega] = sum of w [x, p] (x) q over the Casimir pairs
    (p, q, w), for every basis index x, as {x: [((z, q), c), ...]} with
    no zero c, and c an int wherever it is integral.  The sums run over
    ints: the weights are scaled by their common denominator."""
    den = lcm(*(Fraction(w).denominator for _, _, w in pairs))
    scaled = [(p, q, int(w * den)) for p, q, w in pairs]
    table = {}
    for x in range(g.dim):
        acc: Dict[Tuple[int, int], int] = {}
        for p, q, w in scaled:
            for z, cz in g.bracket_table.get((x, p), {}).items():
                accumulate(acc, (z, q), w * cz)
        table[x] = [(zq, _quotient(c, den)) for zq, c in acc.items()]
    return table


def compose(sigma: list, tau: list) -> list:
    """The signed permutation sigma o tau."""
    return [(sigma[i][0], e * sigma[i][1]) for i, e in tau]


def is_automorphism(g: LieAlgebraData, sigma: list) -> bool:
    """Whether the signed permutation sigma of the basis is a bijection
    with sigma([a, b]) = [sigma(a), sigma(b)] on every basis pair."""
    if sorted(i for i, _ in sigma) != list(range(g.dim)):
        return False
    table = g.bracket_table
    for a, (pa, ea) in enumerate(sigma):
        for b, (pb, eb) in enumerate(sigma):
            image = {sigma[z][0]: sigma[z][1] * c
                     for z, c in table.get((a, b), {}).items()}
            if image != {z: ea * eb * c
                         for z, c in table.get((pa, pb), {}).items()}:
                return False
    return True


def _klein_generators(g: LieAlgebraData) -> Optional[tuple]:
    """`LieAlgebraData.klein`, read off the matrix-unit realization."""
    n = g.n

    def signed_permutation(move) -> list:
        # each basis matrix goes to +- one basis matrix
        return [next(iter(g._matrix_to_coords(move(g._basis_matrix(b))).items()))
                for b in range(g.dim)]

    omega = signed_permutation(lambda m: {(j, i): -v for (i, j), v in m.items()})
    pi = signed_permutation(
        lambda m: {(n - 1 - i, n - 1 - j): v for (i, j), v in m.items()})
    if (is_automorphism(g, omega) and is_automorphism(g, pi)
            and compose(omega, pi) == compose(pi, omega)):
        return omega, pi
    return None


def build_sl(n: int) -> LieAlgebraData:
    """Construct sl_n (n >= 2) with all structure tables precomputed."""
    return LieAlgebraData(n)


def casimir_adjoint_eigenvalue(g: LieAlgebraData) -> Fraction:
    """Eigenvalue of the quadratic Casimir acting in the adjoint representation.

    Sums w [i, [j, b]] over the Casimir pairs (i, j, w) from the bracket
    table, for every basis vector b, and insists the action is scalar; a
    non-scalar action signals a broken bracket table or bilinear form, and
    raises a CheckError, so the check that reads the eigenvalue fails.
    """
    def scalar() -> Fraction:
        value: Optional[Fraction] = None
        for b in range(g.dim):
            acc: Dict[int, Fraction] = {}
            for i, j, w in g.casimir_pairs:
                for z, cz in g.bracket_table.get((j, b), {}).items():
                    for y, cy in g.bracket_table.get((i, z), {}).items():
                        accumulate(acc, y, w * cz * cy)
            expected = Fraction(acc.get(b, 0))
            if acc != ({b: expected} if expected else {}):
                raise CheckError("Casimir does not act diagonally on the adjoint basis")
            if value is None:
                value = expected
            elif value != expected:
                raise CheckError("Casimir action on the adjoint is not scalar")
        return value
    return g.derived("casimir_eigenvalue", scalar)


def _invert_dense(m):
    """Exact inverse of a small dense rational matrix by Gauss-Jordan; int
    entries are taken as Fractions, so no division is ever int / int."""
    r = len(m)
    aug = [[Fraction(v) for v in row] + [ONE if i == j else ZERO for j in range(r)]
           for i, row in enumerate(m)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for i in range(r):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return [row[r:] for row in aug]
