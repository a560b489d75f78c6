"""Word algebras and their elements, tensor powers, and the enveloping
algebra U(g) with its PBW normal form and coproduct.

An element is a sparse map from normal-form words to deformation
polynomials over a *word algebra*: any object with `multiply_words(a, b)`
(the product of two normal words, as {normal word: exact coefficient}),
`render_word(word, wrap)` and a `unit_word`.  `UElement` and
`TensorElement` do all their arithmetic through that protocol, so the same
two classes serve U(g), U(g[u]) and the free quantization model.

The PBW letter algebras, `LieAlgebraData` for U(g) and `CurrentEnvelope`
for U(g[u]), derive from `PBWAlgebra`: their words are sorted monomials
(tuples of letter indices), and they multiply by straightening.
`normal_order` applies the rewrite b*b' -> b'*b + [b,b'] at the first
descent, recursively; it terminates because each step lowers (word length,
inversion count) lexicographically, and results are memoized in the
algebra's `_pbw_cache` so repeated suites share all subword work.  The
straightening starts from the int 1 and only multiplies by bracket-table
values, so with an integral bracket table every normal form and adjoint
action is int-valued; a table value with a denominator makes the affected
entries exact Fractions.  The coproduct of a PBW monomial needs no
straightening: its coefficients are binomials (`sym_coproduct`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, prod
from operator import sub
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from .exactnum import (HPoly, ONE, CoeffMap, TensorMap, accumulate, as_hpoly,
                       join_signed)
from .reports import Report, run_checks, zero_or_residual

if TYPE_CHECKING:
    from .liealg import LieAlgebraData, LieElement

Monomial = Tuple[int, ...]


def normal_order(ctx, word: Monomial) -> dict:
    """PBW normal form of an arbitrary word, as {sorted monomial: coefficient}."""
    cache = ctx._pbw_cache
    hit = cache.get(word)
    if hit is not None:
        return hit
    descent = None
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            descent = i
            break
    if descent is None:
        result = {word: 1}
    else:
        a, b = word[descent], word[descent + 1]
        swapped = word[:descent] + (b, a) + word[descent + 2:]
        result = dict(normal_order(ctx, swapped))
        for letter, coeff in ctx.pbw_bracket(a, b).items():
            shorter = word[:descent] + (letter,) + word[descent + 2:]
            for mono, c in normal_order(ctx, shorter).items():
                accumulate(result, mono, coeff * c)
    cache[word] = result
    return result


class PBWAlgebra:
    """Word-algebra protocol of a letter algebra with PBW straightening.

    A subclass supplies `pbw_bracket(a, b)` (the bracket of two letters as
    {letter: coefficient}), `pbw_letter_name(i)` and a `_pbw_cache` dict.
    """

    unit_word: Monomial = ()

    def multiply_words(self, a: Monomial, b: Monomial) -> dict:
        return normal_order(self, a + b)

    def render_word(self, mono: Monomial, wrap: bool = False) -> str:
        if not mono:
            return "1"
        body = "*".join(self.pbw_letter_name(i) for i in mono)
        return f"({body})" if wrap and len(mono) > 1 else body


class UElement(CoeffMap):
    """Normal-form element of a word algebra over HPoly scalars."""

    __slots__ = ("ctx",)
    _space = ("ctx",)
    _coerce = staticmethod(as_hpoly)

    def __init__(self, ctx, data: Optional[dict] = None):
        self.ctx = ctx
        super().__init__(data)

    @classmethod
    def unit(cls, ctx) -> "UElement":
        return cls(ctx, {ctx.unit_word: HPoly.one()})

    @classmethod
    def letter(cls, ctx, i: int) -> "UElement":
        """A single letter of a PBW letter algebra."""
        return cls(ctx, {(i,): HPoly.one()})

    @classmethod
    def from_lie(cls, g, x: LieElement) -> "UElement":
        return cls(g, {(i,): c for i, c in x.data.items()})

    @classmethod
    def from_word(cls, ctx, word: Iterable[int]) -> "UElement":
        """The normal form of an arbitrary word of a PBW letter algebra."""
        return cls(ctx, normal_order(ctx, tuple(word)))

    def __mul__(self, other):
        if not isinstance(other, UElement):
            return self.scale(other)
        assert self.ctx is other.ctx
        out: dict = {}
        multiply = self.ctx.multiply_words
        for w1, p1 in self.data.items():
            for w2, p2 in other.data.items():
                poly = p1 * p2
                for word, c in multiply(w1, w2).items():
                    accumulate(out, word, poly * c)
        return self._like(out)

    def bracket(self, other: "UElement") -> "UElement":
        return self * other - other * self

    def hbar_coefficient(self, k: int) -> Dict[tuple, Fraction]:
        out = {}
        for w, p in self.data.items():
            c = p.coeff(k)
            if c:
                out[w] = c
        return out

    def divide_hbar(self) -> "UElement":
        """Exact division by hbar; fails when a constant term survives."""
        if any(p.coeff(0) for p in self.data.values()):
            raise ValueError("element is not divisible by hbar")
        return self._like({w: p.shift(-1) for w, p in self.data.items()})

    def render(self) -> str:
        return _render_terms(sorted(self.data.items()), self.ctx.render_word)


class TensorElement(TensorMap):
    """Element of a tensor power of a word algebra, slotwise normal words."""

    __slots__ = ("ctx",)
    _space = ("ctx", "arity")
    _coerce = staticmethod(as_hpoly)

    def __init__(self, ctx, arity: int, data: Optional[dict] = None):
        self.ctx = ctx
        self.arity = arity
        super().__init__(data)

    @classmethod
    def unit(cls, ctx, arity: int) -> "TensorElement":
        return cls(ctx, arity, {(ctx.unit_word,) * arity: HPoly.one()})

    @classmethod
    def pure(cls, factors: Iterable[UElement]) -> "TensorElement":
        factors = list(factors)
        out = cls(factors[0].ctx, len(factors))
        for combo in product(*(list(f.data.items()) for f in factors)):
            key = tuple(w for w, _ in combo)
            poly = HPoly.one()
            for _, p in combo:
                poly = poly * p
            out._accumulate(key, poly)
        return out

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self.scale(other)
        assert self.ctx is other.ctx
        if self.arity != other.arity:
            raise ValueError("tensor arity mismatch")
        out: dict = {}
        multiply = self.ctx.multiply_words
        for k1, p1 in self.data.items():
            for k2, p2 in other.data.items():
                poly = p1 * p2
                keys = [()]
                coeffs = [1]
                for a, b in zip(k1, k2):
                    terms = multiply(a, b)
                    keys = [base + (w,) for base in keys for w in terms]
                    coeffs = [c * c2 for c in coeffs for c2 in terms.values()]
                for key, c in zip(keys, coeffs):
                    accumulate(out, key, poly * c)
        return self._like(out)

    def bracket(self, other: "TensorElement") -> "TensorElement":
        return self * other - other * self

    def multiply_slots(self) -> UElement:
        """Total multiplication map m: a1 (x) ... (x) an -> a1*...*an."""
        multiply = self.ctx.multiply_words
        out = UElement(self.ctx)
        for key, p in self.data.items():
            terms = {key[0]: 1}
            for w in key[1:]:
                nxt: dict = {}
                for acc_w, c in terms.items():
                    for w2, c2 in multiply(acc_w, w).items():
                        accumulate(nxt, w2, c * c2)
                terms = nxt
            for w, c in terms.items():
                out._accumulate(w, p * c)
        return out

    def apply_slot(self, slot: int, fn) -> "TensorElement":
        """Map a UElement-valued function over one tensor slot."""
        out = self._like({})
        for key, p in self.data.items():
            piece = UElement(self.ctx, {key[slot]: HPoly.one()})
            for w, q in fn(piece).data.items():
                out._accumulate(key[:slot] + (w,) + key[slot + 1:], p * q)
        return out

    def render(self) -> str:
        def key_text(key):
            return " (x) ".join(self.ctx.render_word(w, wrap=True) for w in key)
        return _render_terms(sorted(self.data.items()), key_text)


# --- rendering ---------------------------------------------------------------


def _render_terms(items, key_text) -> str:
    if not items:
        return "0"
    parts = []
    for key, poly in items:
        mono = key_text(key)
        if len(poly.coeffs) == 1:
            ((k, c),) = poly.coeffs.items()
            pieces = []
            if c == -1:
                sign = "-"
            elif c == 1:
                sign = ""
            else:
                sign = ""
                pieces.append(str(c))
            if k:
                pieces.append("hbar" if k == 1 else f"hbar^{k}")
            if mono != "1" or not pieces:
                pieces.append(mono)
            text = sign + "*".join(pieces)
            if c == -1 and not pieces:
                text = "-1"
        else:
            text = f"({poly.render()})"
            if mono != "1":
                text += f"*{mono}"
        parts.append(text)
    return join_signed(parts)


# --- operations ---------------------------------------------------------------


def box_n(a: UElement, n: int) -> TensorElement:
    """Sum of a placed in each slot against units: the n-fold cocommutative box."""
    out = TensorElement(a.ctx, n)
    unit = a.ctx.unit_word
    for word, p in a.data.items():
        for slot in range(n):
            out._accumulate(tuple(word if k == slot else unit for k in range(n)), p)
    return out


def sym_coproduct(exponents: tuple) -> Dict[tuple, int]:
    """Delta of a monomial of primitive letters, on exponent vectors:
    {(left, right): prod_i binomial(exponents_i, left_i)}, with left running
    over the exponent vectors below `exponents` in lexicographic order."""
    return {(left, tuple(map(sub, exponents, left))): prod(map(comb, exponents, left))
            for left in product(*[range(a + 1) for a in exponents])}


def mono_coproduct_terms(g: LieAlgebraData, mono: Monomial) -> dict:
    """Cached expansion of Delta on one PBW monomial of U(g), as
    {(left, right): coefficient}.  Every letter is primitive and a subword
    of a sorted monomial is sorted, so this is `sym_coproduct` on the
    monomial's runs of equal letters, with no straightening."""
    terms = g._coproduct_cache.get(mono)
    if terms is None:
        letters = tuple(dict.fromkeys(mono))

        def word(exponents):
            return sum(((x,) * e for x, e in zip(letters, exponents)), ())
        terms = g._coproduct_cache[mono] = {
            (word(left), word(right)): c for (left, right), c
            in sym_coproduct(tuple(map(mono.count, letters))).items()}
    return terms


def coproduct(a: UElement) -> TensorElement:
    """Algebra morphism with every letter primitive, on U(g); slots stay
    normal-ordered."""
    out = TensorElement(a.ctx, 2)
    for mono, poly in a.data.items():
        for key, c in mono_coproduct_terms(a.ctx, mono).items():
            out._accumulate(key, poly * c)
    return out


def adjoint_action(x: LieElement, a: UElement) -> UElement:
    """x . a = [x, a], the adjoint action of the Lie algebra on its envelope."""
    return UElement.from_lie(a.ctx, x).bracket(a)


def nu(g: LieAlgebraData, h: LieElement) -> UElement:
    """The half-sum over positive roots of alpha(h) x^-_alpha x^+_alpha.

    Already PBW-ordered: negative letters precede positive ones.
    """
    if not g.is_cartan(h):
        raise ValueError("nu is defined on the Cartan subalgebra only")
    out = UElement(g)
    half = Fraction(1, 2)
    for k in range(g.num_positive):
        val = g.root_value(k, h)
        if val:
            out._accumulate((g.neg_index(k), g.pos_index(k)),
                            HPoly.rational(half * val))
    return out


def w_element(g: LieAlgebraData, i: int, sign: int) -> UElement:
    """w_i^+- = +-(alpha_i, alpha_i)^{-1} [nu(t_i), x_i^+-]."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t_i = g.cartan_generator(i)
    x = UElement.letter(g, g.simple_pos_index(i) if sign == 1 else g.simple_neg_index(i))
    norm = g.simple_root_norm(i)
    return nu(g, t_i).bracket(x).scale(Fraction(sign, 1) / norm)


def casimir_tensor(g: LieAlgebraData) -> TensorElement:
    """Casimir 2-tensor from dual bases of the invariant form."""
    out = TensorElement(g, 2)
    for a, b, wgt in g.casimir_pairs:
        out._accumulate(((a,), (b,)), HPoly.rational(wgt))
    return out


def quadratic_casimir(g: LieAlgebraData) -> UElement:
    """C = m(Omega), checked central on the generators."""
    c = casimir_tensor(g).multiply_slots()
    for b in range(g.dim):
        if c.bracket(UElement.letter(g, b)):
            raise ValueError("quadratic Casimir fails to be central")
    return c


def kappa(g: LieAlgebraData) -> UElement:
    """Half the quadratic Casimir of sl_2 in its customary normal form."""
    if g.n != 2:
        raise ValueError("kappa is specific to sl_2")
    f, h, e = 0, 1, 2
    out = UElement(g, {
        (h, h): Fraction(1, 4),
        (h,): Fraction(1, 2),
        (f, e): ONE,
    })
    for b in range(g.dim):
        if out.bracket(UElement.letter(g, b)):
            raise ValueError("kappa fails to be central")
    return out


def lie_tensor_bracket_with_slot1(g: LieAlgebraData, x: LieElement) -> TensorElement:
    """[x (x) 1, Omega] as a tensor with single-letter slots."""
    omega = casimir_tensor(g)
    left = TensorElement(g, 2, {((i,), ()): c for i, c in x.data.items()})
    return left.bracket(omega)


def verify_gnw(g: LieAlgebraData, fault: Optional[str] = None) -> Report:
    """Check the nu / w commutator identities and the coproduct defect of
    [nu(h1), nu(h2)] against the double Casimir bracket, exactly.

    `fault="nu"` perturbs the nu builder (adding its Cartan argument) in the
    constructed elements; the pairing targets use the clean formula, so the
    w-pairing family must fail.  Perturbing both sides would self-heal: the
    shift propagates to w_i^+- and cancels.
    """
    def nu_of(h: LieElement) -> UElement:
        base = nu(g, h)
        if fault == "nu":
            base = base + UElement.from_lie(g, h)
        return base

    def w_of(i: int, sign: int) -> UElement:
        t_i = g.cartan_generator(i)
        x = UElement.letter(g, g.simple_pos_index(i) if sign == 1 else g.simple_neg_index(i))
        return nu_of(t_i).bracket(x).scale(Fraction(sign, 1) / g.simple_root_norm(i))

    specs = []
    r = g.rank
    for j in range(r):
        h = g.cartan_generator(j)
        for i in range(r):
            for sign, tag in ((1, "+"), (-1, "-")):
                def chk(h=h, i=i, sign=sign):
                    lhs = nu_of(h).bracket(UElement.letter(
                        g, g.simple_pos_index(i) if sign == 1 else g.simple_neg_index(i)))
                    rhs = w_of(i, sign).scale(sign * g.simple_root_value(i, h))
                    return zero_or_residual(lhs - rhs)
                specs.append((f"commutator-nu-t{j + 1}-x{i + 1}{tag}",
                              f"[nu(t{j + 1}), x{i + 1}^{tag}] = "
                              f"{'+' if sign == 1 else '-'}alpha_{i + 1}(t{j + 1})*w{i + 1}^{tag}",
                              chk))
    for i in range(r):
        for j in range(r):
            def chk_pair(i=i, j=j):
                t_i = g.cartan_generator(i)
                target = UElement(g)
                if i == j:
                    ti_sq = UElement.from_lie(g, t_i) * UElement.from_lie(g, t_i)
                    target = nu(g, t_i) - ti_sq.scale(Fraction(1, 2))
                lhs1 = w_of(i, 1).bracket(UElement.letter(g, g.simple_neg_index(j)))
                lhs2 = UElement.letter(g, g.simple_pos_index(i)).bracket(w_of(j, -1))
                bad = (lhs1 - target) or (lhs2 - target)
                return zero_or_residual(bad) if bad else None
            specs.append((f"w-pairing-{i + 1}{j + 1}",
                          f"[w{i + 1}^+, x{j + 1}^-] = [x{i + 1}^+, w{j + 1}^-] = "
                          f"delta_{i + 1}{j + 1}*(nu(t{i + 1}) - (1/2)*t{i + 1}^2)",
                          chk_pair))
    for i in range(r):
        for j in range(r):
            def chk_cop(i=i, j=j):
                n1, n2 = nu_of(g.cartan_generator(i)), nu_of(g.cartan_generator(j))
                comm = n1.bracket(n2)
                lhs = coproduct(comm) - box_n(comm, 2)
                b1 = lie_tensor_bracket_with_slot1(g, g.cartan_generator(i))
                b2 = lie_tensor_bracket_with_slot1(g, g.cartan_generator(j))
                rhs = b1.bracket(b2).scale(Fraction(1, 4))
                return zero_or_residual(lhs + rhs)
            specs.append((f"coproduct-nu-{i + 1}{j + 1}",
                          f"Delta([nu(t{i + 1}), nu(t{j + 1})]) - box(...) "
                          f"+ (1/4)*[[t{i + 1} (x) 1, Omega], [t{j + 1} (x) 1, Omega]] = 0",
                          chk_cop))
    return run_checks("gnw", g.type_label(), specs)
