"""Word algebras and their elements, tensor powers, and the enveloping
algebra U(g) with its PBW normal form and coproduct.

An element is a sparse map from normal-form words to deformation
polynomials over a *word algebra*: any object with `multiply_words(a, b)`
(the product of two normal words, as {normal word: int coefficient}),
`render_word(word, wrap)` and a `unit_word`.  `UElement` and
`TensorElement` do all their arithmetic through that protocol, so the same
two classes serve U(g), U(g[u]) and the free quantization model.

An element is an `exactnum.IntStore`, like `cohom.Cochain`: `data` maps
each word (word tuple, for a tensor) to {hbar power: nonzero int} over one
reduced int `den`, so `==` is dict equality; the products rely on int word
products, which every algebra of the package has.  The format is private to
this module: constructors take exact values (`HPoly`, int or Fraction) and
`terms()` gives `HPoly` values back.  One product loop serves both `*` and
`bracket`: a bracket sums self*other - other*self into one int store and
reduces it once.  A slot whose word is the unit word passes the other word
through with no word product.

The PBW letter algebras, `LieAlgebraData` for U(g) and `CurrentEnvelope`
for U(g[u]), derive from `PBWAlgebra`: their words are sorted monomials
(tuples of letter indices), and they multiply by straightening.
`normal_order` applies the rewrite b*b' -> b'*b + [b,b'] at the first
descent, recursively; it terminates because each step lowers (word length,
inversion count) lexicographically, and results are memoized in the
algebra's `_pbw_cache` so repeated suites share all subword work.  The
straightening starts from the int 1 and only multiplies by bracket-table
values, so with an integral bracket table every normal form and adjoint
action (`ad_letter`) is int-valued; a table value with a denominator makes
the affected entries exact Fractions.  The coproduct of a PBW monomial
needs no straightening: its coefficients are binomials (`sym_coproduct`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, lcm, prod
from operator import sub
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from .exactnum import (HPoly, ONE, IntStore, _int_store, _poly_product,
                       _quotient, accumulate, as_hpoly, join_signed)
from .reports import CheckError, Report, run_checks, zero_or_residual

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


def ad_letter(g: LieAlgebraData, x: int, mono: Monomial) -> dict:
    """[x, mono] in PBW normal form, U(g)'s adjoint action on one monomial;
    stays within the filtration slice."""
    cache = g.derived("ad", dict)
    key = (x, mono)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out = dict(normal_order(g, (x,) + mono))
    for m2, c in normal_order(g, mono + (x,)).items():
        accumulate(out, m2, -c)
    cache[key] = out
    return out


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


def _hbar_map(value) -> dict:
    """{hbar power: exact coefficient} of an HPoly, int or Fraction, with no
    HPoly coercion: `_cleared` refuses a value that is not exact."""
    return value.data if type(value) is HPoly else {0: value}


def _scatter(data: dict, poly: dict, terms) -> None:
    """data[key] += c * poly for each (key, c) of `terms`; zeros stay for `_like`."""
    for key, c in terms:
        acc = data.get(key)
        if acc is None:
            data[key] = {k: v * c for k, v in poly.items()}
        else:
            for k, v in poly.items():
                acc[k] = acc.get(k, 0) + v * c


def _with_single_terms(data: dict) -> list:
    """(key, poly, (power, int) or None) for each entry: the poly's one
    term when it has one."""
    return [(key, poly, next(iter(poly.items())) if len(poly) == 1 else None)
            for key, poly in data.items()]


class WordElement(IntStore):
    """The hbar-graded products of `UElement` and `TensorElement` over the
    linear structure of `IntStore`; `_space` names the attributes fixing
    the space."""

    __slots__ = ("ctx",)
    _space: tuple = ("ctx",)

    def __init__(self, ctx, data: Optional[dict] = None):
        self.ctx = ctx
        super().__init__({key: _hbar_map(v) for key, v in (data or {}).items()})

    def scale(self, q):
        """Multiply by a scalar: an HPoly, int or Fraction."""
        qden, qdata = _int_store({(): _hbar_map(q)})
        return self._like({key: _poly_product(poly, qdata.get((), {}))
                           for key, poly in self.data.items()}, self.den * qden)

    def _product(self, other, bracket: bool = False):
        """self * other, or self*other - other*self when `bracket`, as one int
        store; `_key_product(k1, k2)` expands k1 * k2 as (key, int) pairs."""
        if type(other) is not type(self):
            as_hpoly(other)  # a scalar: it scales, and it commutes
            return self._like({}, 1) if bracket else self.scale(other)
        self._check(other)
        key_product = self._key_product
        passes = [(self.data, other.data)]
        if bracket:
            passes.append((other.data, {key: {k: -c for k, c in poly.items()}
                                        for key, poly in self.data.items()}))
        out: dict = {}
        for left, right in passes:
            right = _with_single_terms(right)
            for k1, p1, one1 in _with_single_terms(left):
                for k2, p2, one2 in right:
                    terms = key_product(k1, k2)
                    if one1 is None or one2 is None:
                        _scatter(out, _poly_product(p1, p2), terms)
                        continue
                    # one hbar power on each side: no product polynomial
                    e, c = one1[0] + one2[0], one1[1] * one2[1]
                    for key, cw in terms:
                        acc = out.get(key)
                        if acc is None:
                            out[key] = {e: c * cw}
                        else:
                            acc[e] = acc.get(e, 0) + c * cw
        return self._like(out, self.den * other.den)

    def __mul__(self, other):
        return self._product(other)

    def bracket(self, other):
        """[self, other] = self*other - other*self, by the product loop of `*`
        summing both orders into one store; zero for a scalar `other`."""
        return self._product(other, bracket=True)

    def expand(self, terms_of, target):
        """The linear map to `target`'s space with key -> terms_of(key), {key: int}."""
        data: dict = {}
        for key, poly in self.data.items():
            _scatter(data, poly, terms_of(key).items())
        return target._like(data, self.den)

    def linear_map(self, image_of, target):
        """The linear map to `target`'s space with key -> the element image_of(key)."""
        images = [(poly, image_of(key)) for key, poly in self.data.items()]
        if self.den == 1 and len(images) == 1 and images[0][0] == {0: 1}:
            return images[0][1]
        common = lcm(*(image.den for _, image in images))
        data: dict = {}
        for poly, image in images:
            f = common // image.den
            for key, q in image.data.items():
                _scatter(data, _poly_product(poly, q), ((key, f),))
        return target._like(data, self.den * common)

    def terms(self):
        """The (key, exact HPoly coefficient) pairs, in store order."""
        for key, poly in self.data.items():
            yield key, HPoly({k: Fraction(c, self.den) for k, c in poly.items()})

    def hbar_coefficient(self, k: int) -> dict:
        """{key: exact coefficient of hbar^k}, an int where integral."""
        return {key: _quotient(poly[k], self.den)
                for key, poly in self.data.items() if k in poly}

    def divide_hbar(self):
        """Exact division by hbar; fails when a constant term survives."""
        if any(0 in poly for poly in self.data.values()):
            raise ValueError("element is not divisible by hbar")
        return self._like({key: {k - 1: c for k, c in poly.items()}
                           for key, poly in self.data.items()}, self.den)

    def render(self) -> str:
        parts = []
        for key, poly in sorted(self.terms()):
            mono = self._key_text(key)
            if len(poly.data) == 1:
                ((k, c),) = poly.data.items()
                pieces = [] if c in (1, -1) else [str(c)]
                if k:
                    pieces.append("hbar" if k == 1 else f"hbar^{k}")
                if mono != "1" or not pieces:
                    pieces.append(mono)
                text = ("-" if c == -1 else "") + "*".join(pieces)
            else:
                text = f"({poly.render()})"
                if mono != "1":
                    text += f"*{mono}"
            parts.append(text)
        return join_signed(parts) if parts else "0"


class UElement(WordElement):
    """Normal-form element of a word algebra over deformation polynomials."""

    __slots__ = ()

    @classmethod
    def unit(cls, ctx) -> "UElement":
        return cls(ctx, {ctx.unit_word: 1})

    @classmethod
    def letter(cls, ctx, i: int) -> "UElement":
        """A single letter of a PBW letter algebra."""
        return cls(ctx, {(i,): 1})

    @classmethod
    def from_lie(cls, g, x: LieElement) -> "UElement":
        return cls(g, {(i,): c for i, c in x.data.items()})

    @classmethod
    def from_word(cls, ctx, word: Iterable[int]) -> "UElement":
        """The normal form of an arbitrary word of a PBW letter algebra."""
        return cls(ctx, normal_order(ctx, tuple(word)))

    def _key_product(self, w1, w2):
        """w1 * w2 as (word, int) pairs; a unit word passes the other through."""
        unit = self.ctx.unit_word
        if w1 == unit:
            return ((w2, 1),)
        if w2 == unit:
            return ((w1, 1),)
        return self.ctx.multiply_words(w1, w2).items()

    def _key_text(self, word) -> str:
        return self.ctx.render_word(word)


class TensorElement(WordElement):
    """Element of a tensor power of a word algebra, slotwise normal words."""

    __slots__ = ("arity",)
    _space = ("ctx", "arity")

    def __init__(self, ctx, arity: int, data: Optional[dict] = None):
        self.arity = arity
        super().__init__(ctx, data)

    @classmethod
    def unit(cls, ctx, arity: int) -> "TensorElement":
        return cls(ctx, arity, {(ctx.unit_word,) * arity: 1})

    @classmethod
    def pure(cls, factors: Iterable[UElement]) -> "TensorElement":
        factors = list(factors)
        data = {tuple(w for w, _ in combo): reduce(_poly_product, (p for _, p in combo))
                for combo in product(*(f.data.items() for f in factors))}
        return cls(factors[0].ctx, len(factors))._like(data, prod(f.den for f in factors))

    def _key_product(self, k1, k2):
        """k1 * k2 slot by slot, as (word tuple, int) pairs.  A slot holding
        a unit word passes the other word through, and the product is kept
        as one (key, coefficient) until a slot gives several words."""
        ctx = self.ctx
        unit = ctx.unit_word
        key, coeff, terms = (), 1, None
        for w1, w2 in zip(k1, k2):
            if w1 == unit or w2 == unit:
                slot = ((w2 if w1 == unit else w1, 1),)
            else:
                slot = ctx.multiply_words(w1, w2).items()
            if terms is None:
                if len(slot) == 1:
                    (w, c2), = slot
                    key += (w,)
                    coeff *= c2
                    continue
                terms = [(key, coeff)]
            terms = [(k + (w,), c * c2) for k, c in terms for w, c2 in slot]
        return ((key, coeff),) if terms is None else terms

    def swap(self) -> "TensorElement":
        if self.arity != 2:
            raise ValueError("swap needs a 2-tensor")
        return self.expand(lambda key: {key[::-1]: 1}, self)

    def _key_text(self, key) -> str:
        return " (x) ".join(self.ctx.render_word(w, wrap=True) for w in key)


# --- operations ---------------------------------------------------------------


def box_n(a: UElement, n: int) -> TensorElement:
    """Sum of a placed in each slot against units: the n-fold cocommutative box."""
    unit = a.ctx.unit_word
    return a.expand(lambda word: Counter(tuple(word if k == slot else unit for k in range(n))
                                         for slot in range(n)), TensorElement(a.ctx, n))


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
    cache = g.derived("coproduct", dict)
    terms = cache.get(mono)
    if terms is None:
        letters = tuple(dict.fromkeys(mono))

        def word(exponents):
            return sum(((x,) * e for x, e in zip(letters, exponents)), ())
        terms = cache[mono] = {
            (word(left), word(right)): c for (left, right), c
            in sym_coproduct(tuple(map(mono.count, letters))).items()}
    return terms


def coproduct(a: UElement) -> TensorElement:
    """Algebra morphism with every letter primitive, on U(g); slots stay
    normal-ordered."""
    return a.expand(lambda mono: mono_coproduct_terms(a.ctx, mono), TensorElement(a.ctx, 2))


def nu(g: LieAlgebraData, h: LieElement) -> UElement:
    """The half-sum over positive roots of alpha(h) x^-_alpha x^+_alpha.

    Already PBW-ordered: negative letters precede positive ones.
    """
    if not g.is_cartan(h):
        raise ValueError("nu is defined on the Cartan subalgebra only")
    return UElement(g, {(g.neg_index(k), g.pos_index(k)): Fraction(g.root_value(k, h), 2)
                        for k in range(g.num_positive)})


def w_element(g: LieAlgebraData, i: int, sign: int, nu_ti: UElement) -> UElement:
    """w_i^+- = +-(alpha_i, alpha_i)^{-1} [nu(t_i), x_i^+-], where `nu_ti`
    is the nu(t_i) it brackets."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = UElement.letter(g, g.simple_pos_index(i) if sign == 1 else g.simple_neg_index(i))
    return nu_ti.bracket(x).scale(Fraction(sign, 1) / g.simple_root_norm(i))


def kappa(g: LieAlgebraData) -> UElement:
    """Half the quadratic Casimir of sl_2 in its customary normal form; a
    CheckError when it is not central, on a table that is not sl_2's."""
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
            raise CheckError("kappa fails to be central")
    return out


def lie_tensor_bracket_with_slot1(g: LieAlgebraData, x: LieElement) -> TensorElement:
    """[x (x) 1, Omega] as a tensor with single-letter slots, read from the
    algebra's table `omega_table`."""
    values: dict = {}
    for i, ci in x.data.items():
        for (z, q), c in g.omega_table[i]:
            accumulate(values, ((z,), (q,)), ci * c)
    return TensorElement(g, 2, values)


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
        return w_element(g, i, sign, nu_of(g.cartan_generator(i)))

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
