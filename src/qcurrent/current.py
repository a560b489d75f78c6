"""The graded current Lie algebra g[u], its cobracket, and the degree-0/1
presentation checks.

Current elements are sparse maps (basis index, u-degree) -> coefficient:
ints when every input is integral, exact Fractions otherwise.  The
cobracket reads the algebra's table `omega_table` of [x (x) 1, Omega], built
once per algebra from the Casimir pairs, and lowers degree by one: every output bidegree of
delta(x u^n) sums to n - 1.  delta(x u^n) is delta(x u) spread over those
bidegrees, so the cocycle check reads the residual of every pair of basis
currents (a u^n, b u^m) off per-pair slot actions: those of b on delta(a u)
and of a on delta(b u), with the acting slot's u-degree shifted by m or n
(`cocycle_residuals`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Tuple

from .envelope import PBWAlgebra
from .exactnum import (CoeffMap, _quotient, accumulate, join_signed,
                       rank_of_rows)
from .liealg import LieAlgebraData, LieElement, omega_bracket_table
from .reports import LEAST_BOUND, Report, run_checks, zero_or_residual

CurrentKey = Tuple[int, int]  # (basis index, u-degree)


class CurrentElement(CoeffMap):
    """Sparse element of g[u]: {(basis index, u-degree): coefficient}.

    The constructor stores integral coefficients as ints, and sums and
    products of ints stay ints; a product of Fractions that happens to be
    integral may stay a Fraction."""

    __slots__ = ("alg",)
    _space = ("alg",)

    def __init__(self, alg: LieAlgebraData,
                 data: Optional[Dict[CurrentKey, Fraction]] = None):
        self.alg = alg
        super().__init__(data)

    @classmethod
    def generator(cls, alg: LieAlgebraData, basis: int, degree: int) -> "CurrentElement":
        return cls(alg, {(basis, degree): 1})

    @classmethod
    def from_lie(cls, x: LieElement, degree: int) -> "CurrentElement":
        return cls(x.alg, {(i, degree): c for i, c in x.data.items()})

    def render(self) -> str:
        names = self.alg.names
        return _render_rational_terms(
            sorted(self.data.items(), key=lambda kc: (kc[0][1], kc[0][0])),
            lambda key: f"{names[key[0]]}*u^{key[1]}")


class CurrentTensor(CoeffMap):
    """Element of (g x ... x g)[u_1, ..., u_n], sparse over `arity`-tuples
    of (basis index, degree) pairs, one per tensor slot; coefficients as in
    `CurrentElement`."""

    __slots__ = ("alg", "arity")
    _space = ("alg", "arity")

    def __init__(self, alg: LieAlgebraData, arity: int = 2,
                 data: Optional[Dict[tuple, Fraction]] = None):
        self.alg = alg
        self.arity = arity
        super().__init__(data)

    def permute(self, perm: tuple) -> "CurrentTensor":
        """Tensor-factor permutation: slot k of the result is slot perm[k]."""
        out = self._like({})
        for key, c in self.data.items():
            out._accumulate(tuple(key[p] for p in perm), c)
        return out

    def swap(self) -> "CurrentTensor":
        if self.arity != 2:
            raise ValueError("swap needs a 2-tensor")
        return self.permute((1, 0))

    def render(self) -> str:
        names = self.alg.names
        return _render_rational_terms(
            sorted(self.data.items()),
            lambda key: " (x) ".join(f"{names[b]}*u^{n}" for b, n in key))


def _render_rational_terms(items, key_text) -> str:
    if not items:
        return "0"
    parts = []
    for key, c in items:
        text = key_text(key)
        parts.append(text if c == 1 else f"-{text}" if c == -1 else f"{c}*{text}")
    return join_signed(parts)


def c_bracket(f: CurrentElement, g: CurrentElement) -> CurrentElement:
    """[x u^n, y u^m] = [x, y] u^{n+m}, extended bilinearly."""
    alg = f.alg
    if g.alg is not alg:
        raise ValueError("currents of different algebras do not combine")
    out = CurrentElement(alg)
    for (a, n), ca in f.data.items():
        for (b, m), cb in g.data.items():
            for z, cz in alg.bracket_table.get((a, b), {}).items():
                out._accumulate((z, n + m), ca * cb * cz)
    return out


def _omega_pairs(alg: LieAlgebraData, fault: Optional[str]):
    if fault == "omega":
        # flip the sign of one root pair: the tensor stays symmetric but is
        # no longer invariant, so the cocycle identity must break
        pairs = list(alg.casimir_pairs)
        pairs[0] = (pairs[0][0], pairs[0][1], -pairs[0][2])
        pairs[1] = (pairs[1][0], pairs[1][1], -pairs[1][2])
        return pairs
    return alg.casimir_pairs


def _omega_brackets(alg: LieAlgebraData, fault: Optional[str]):
    """The [x (x) 1, Omega] table for the Casimir pairs of `_omega_pairs`."""
    if fault is None:
        return alg.omega_table
    return omega_bracket_table(alg, _omega_pairs(alg, fault))


def cobracket(f: CurrentElement, omega: Optional[dict] = None) -> CurrentTensor:
    """delta(x u^n) = sum over a+b = n-1 of [x (x) 1, Omega] u^a v^b:
    `cobracket_slot` on f as a one-slot tensor.

    `omega` is the [x (x) 1, Omega] table, the algebra's own by default."""
    one_slot = CurrentTensor(f.alg, 1)._like({(key,): c for key, c in f.data.items()})
    return cobracket_slot(one_slot, 0, omega)


def cobracket_slot(t: CurrentTensor, slot: int,
                   omega: Optional[dict] = None) -> CurrentTensor:
    """Apply the cobracket to one tensor slot, raising arity by one:
    x u^n in that slot becomes sum over a+b = n-1 of [x (x) 1, Omega]
    u^a v^b, read from the table `omega`, the algebra's own by default."""
    alg = t.alg
    table = alg.omega_table if omega is None else omega
    out = CurrentTensor(alg, t.arity + 1)
    data = out.data
    for key, ck in t.data.items():
        x, n = key[slot]
        if n == 0:
            continue
        head, tail = key[:slot], key[slot + 1:]
        for (z, q), c in table[x]:
            c *= ck
            for a in range(n):
                accumulate(data, head + ((z, a), (q, n - 1 - a)) + tail, c)
    return out


def adjoint_coaction_bracket(t: CurrentTensor, y: int) -> Tuple[dict, dict]:
    """The slot actions of the basis element y on a 2-tensor, at u-degree 0:
    ([t, y (x) 1], [t, 1 (x) y]) as {key: coefficient}.  The two-variable
    adjoint action [t, w(u) (x) 1 + 1 (x) w(v)] of w = y u^m is their sum
    with the acting slot's u-degree raised by m.  Cancelled entries stay as
    zeros."""
    table = t.alg.bracket_table
    first: dict = {}
    second: dict = {}
    for ((x1, a), (x2, b)), c in t.data.items():
        for z, cz in table.get((x1, y), {}).items():
            key = ((z, a), (x2, b))
            first[key] = first.get(key, 0) + c * cz
        for z, cz in table.get((x2, y), {}).items():
            key = ((x1, a), (z, b))
            second[key] = second.get(key, 0) + c * cz
    return first, second


def cleared_cobracket_identity(f: CurrentElement,
                               fault: Optional[str] = None) -> CurrentTensor:
    """(u - v)*delta(f) - [f(u) (x) 1 + 1 (x) f(v), Omega], which must vanish.

    This is the denominator-cleared form of the closed cobracket formula and
    cross-checks the summation form degree by degree.  The left side reads
    the [x (x) 1, Omega] table of the fault's Casimir pairs through
    `cobracket`; the right side is summed from the Casimir pairs and the
    bracket table directly, so it checks the table.
    """
    alg = f.alg
    table = alg.bracket_table
    pairs = _omega_pairs(alg, fault)
    # both sides times the weights' common denominator: ints for an int f
    den = lcm(*(w.denominator for _, _, w in pairs))
    out: Counter = Counter()
    for ((x1, a), (x2, b)), c in cobracket(f, _omega_brackets(alg, fault)).data.items():
        out[(x1, a + 1), (x2, b)] += c * den
        out[(x1, a), (x2, b + 1)] -= c * den
    for (x, n), cx in f.data.items():
        for (p, q, w) in pairs:
            cw = -cx * w.numerator * (den // w.denominator)
            for z, cz in table.get((x, p), {}).items():
                out[(z, n), (q, 0)] += cw * cz
            for z, cz in table.get((x, q), {}).items():
                out[(p, 0), (z, n)] += cw * cz
    return CurrentTensor(alg, 2, {key: _quotient(c, den) for key, c in out.items() if c})


def cocycle_residuals(g: LieAlgebraData, max_degree: int, omega: dict):
    """The cocycle residual delta([f, h]) - [delta(f), D(h)] + [delta(h), D(f)]
    of every pair of basis currents f = a u^n, h = b u^m up to u-degree
    `max_degree`, in basis order ((a, n) outer, (b, m) inner), as
    ((a, n), (b, m), parts).  The residual lies in total degree n + m - 1,
    and parts[i], keyed as at bidegree (0, 0), is its part at bidegree
    (i, n + m - 1 - i); `spread_parts` assembles it.

    delta(x u^n) spreads delta(x u) over the bidegrees (i, n - 1 - i), so
    the residual's part at (i, n + m - 1 - i) is delta([a, b] u), less A1
    if i >= m else plus B2, plus B1 if i >= n else less A2.  Here (A1, A2)
    are the slot actions of b on delta(a u) and (B1, B2) those of a on
    delta(b u), whose acting slot's u-degree is raised by m or n.  So each
    ordered basis pair has four parts, built once for all its degrees.
    `omega` is the [x (x) 1, Omega] table of the cobracket."""
    d1 = [cobracket(CurrentElement.generator(g, x, 1), omega) for x in range(g.dim)]
    pair_parts: dict = {}

    def parts_of(a, b):
        lhs = cobracket(c_bracket(CurrentElement.generator(g, a, 0),
                                  CurrentElement.generator(g, b, 1)), omega).data
        a1, a2 = adjoint_coaction_bracket(d1[a], b)
        b1, b2 = adjoint_coaction_bracket(d1[b], a)
        out = {}
        for past_m, by_m in ((False, (b2, 1)), (True, (a1, -1))):
            for past_n, by_n in ((False, (a2, -1)), (True, (b1, 1))):
                acc = dict(lhs)
                for part, sign in (by_m, by_n):
                    for k, c in part.items():
                        acc[k] = acc.get(k, 0) + sign * c
                out[past_m, past_n] = {k: c for k, c in acc.items() if c}
        return out

    basis = [(b, n) for n in range(max_degree + 1) for b in range(g.dim)]
    for a, n in basis:
        for b, m in basis:
            parts = pair_parts.get((a, b))
            if parts is None:
                parts = pair_parts[a, b] = parts_of(a, b)
            yield (a, n), (b, m), [parts[i >= m, i >= n] for i in range(n + m)]


def spread_parts(g: LieAlgebraData, parts: list) -> CurrentTensor:
    """The 2-tensor of total degree len(parts) - 1 whose part at bidegree
    (i, len(parts) - 1 - i) is parts[i], keyed as at bidegree (0, 0)."""
    top = len(parts) - 1
    return CurrentTensor(g, 2, {((p, i), (q, top - i)): c for i, part in enumerate(parts)
                                for ((p, _), (q, _)), c in part.items()})


def verify_bialgebra(g: LieAlgebraData, max_degree: int,
                     fault: Optional[str] = None) -> Report:
    """Antisymmetry, cocycle, and co-Jacobi identities for the cobracket on
    all basis currents up to the given u-degree.  The cocycle residuals are
    read off per-pair slot actions (`cocycle_residuals`), and the first
    nonzero one in basis order is reported."""
    if max_degree < LEAST_BOUND["bialgebra"]:
        raise ValueError(f"max_degree must be at least {LEAST_BOUND['bialgebra']}")
    basis = [(b, n) for n in range(max_degree + 1) for b in range(g.dim)]
    omega = _omega_brackets(g, fault)
    specs = []

    def basis_deltas():
        return {(b, n): cobracket(CurrentElement.generator(g, b, n), omega)
                for (b, n) in basis}

    def chk_antisym():
        for (b, n), d in basis_deltas().items():
            bad = d + d.swap()
            if bad:
                return f"at {g.names[b]}*u^{n}: " + bad.render()
        return None
    specs.append(("antisymmetry", "delta + delta^21 = 0", chk_antisym))

    def chk_cocycle():
        for (a, n), (b, m), parts in cocycle_residuals(g, max_degree, omega):
            if any(parts):
                return (f"at ({g.names[a]}*u^{n}, {g.names[b]}*u^{m}): "
                        + spread_parts(g, parts).render())
        return None
    specs.append(("cocycle",
                  "delta([f,g]) = [delta(f), D(g)] + [D(f), delta(g)] with "
                  "D(w) = w(u) (x) 1 + 1 (x) w(v)", chk_cocycle))

    def chk_cojacobi():
        cyc = (1, 2, 0)
        cyc2 = (2, 0, 1)
        for (b, n), d in basis_deltas().items():
            t = cobracket_slot(d, 0, omega)
            total = t + t.permute(cyc) + t.permute(cyc2)
            if total:
                return f"at {g.names[b]}*u^{n}: " + total.render()
        return None
    specs.append(("co-jacobi",
                  "(Id + (123) + (132)) o (delta (x) Id) o delta = 0",
                  chk_cojacobi))

    def chk_degree():
        for (b, n), d in basis_deltas().items():
            for ((_, a), (_, bb)) in d.data:
                if a + bb != n - 1:
                    return f"bidegree ({a},{bb}) from u-degree {n}"
        return None
    specs.append(("cobracket-degree", "deg(delta) = -1 exactly", chk_degree))

    def chk_closed_form():
        for (b, n) in basis:
            bad = cleared_cobracket_identity(
                CurrentElement.generator(g, b, n), fault)
            if bad:
                return f"at {g.names[b]}*u^{n}: " + bad.render()
        return None
    specs.append(("closed-form",
                  "(u - v)*delta(f) = [f(u) (x) 1 + 1 (x) f(v), Omega]",
                  chk_closed_form))

    return run_checks("bialgebra", g.type_label(), specs)


def verify_min_presentation(g: LieAlgebraData) -> Report:
    """The degree-0/1 defining relations hold under i(x) -> x u^0 and
    G(x) -> x u^1 inside g[u]."""
    specs = []

    for degree, check_id, anchor in ((0, "iota-lie-map", "i([x,y]) = [i(x), i(y)]"),
                                     (1, "G-equivariance", "G([x,y]) = [i(x), G(y)]")):
        def chk_degree(degree=degree):
            for a in range(g.dim):
                for b in range(g.dim):
                    x, y = g.basis_element(a), g.basis_element(b)
                    lhs = CurrentElement.from_lie(g.bracket(x, y), degree)
                    rhs = c_bracket(CurrentElement.from_lie(x, 0),
                                    CurrentElement.from_lie(y, degree))
                    if lhs - rhs:
                        return f"at ({g.names[a]}, {g.names[b]})"
            return None
        specs.append((check_id, anchor, chk_degree))

    if g.rank >= 2:
        def chk_cartan():
            for i in range(g.rank):
                for j in range(g.rank):
                    ti = CurrentElement.from_lie(g.cartan_generator(i), 1)
                    tj = CurrentElement.from_lie(g.cartan_generator(j), 1)
                    bad = c_bracket(ti, tj)
                    if bad:
                        return f"[t{i + 1}*u, t{j + 1}*u] = " + bad.render()
            return None
        specs.append(("degree-2-relation", "[G(t_i), G(t_j)] = 0", chk_cartan))
    else:
        def chk_sl2():
            e = CurrentElement.generator(g, g.simple_pos_index(0), 1)
            f = CurrentElement.generator(g, g.simple_neg_index(0), 1)
            h = CurrentElement.from_lie(g.cartan_generator(0), 1)
            bad = c_bracket(c_bracket(e, f), h)
            return zero_or_residual(bad)
        specs.append(("degree-3-relation", "[[G(e), G(f)], G(h)] = 0", chk_sl2))

    return run_checks("min-presentation", g.type_label(), specs)


def verify_generation(g: LieAlgebraData, max_degree: int) -> Report:
    """Iterated brackets of the degree-0 and degree-1 generators span the full
    algebra in every graded slice from 2 up to max_degree (rank check per
    slice); slices 0 and 1 are spanned by the generators themselves, so
    max_degree < 2 would check nothing."""
    if max_degree < LEAST_BOUND["generation"]:
        raise ValueError(f"max_degree must be at least {LEAST_BOUND['generation']}, "
                         f"got {max_degree}")
    specs = []
    basis = [g.basis_element(b) for b in range(g.dim)]
    slices: Dict[int, list] = {0: basis, 1: basis}

    def close_and_check(n):
        vectors = []
        for k in range(1, n):
            lower = slices.get(n - k)
            if lower is None:
                continue
            for va in slices[k]:
                for vb in lower:
                    out = g.bracket(va, vb)
                    if out:
                        vectors.append(out)
            if vectors:
                break  # [slice 1, slice n-1] already spans; keep the basis lean
        slices[n] = vectors
        got = rank_of_rows([v.data for v in vectors])
        if got != g.dim:
            return f"graded slice u^{n} has dimension {got}, expected {g.dim}"
        return None

    for n in range(2, max_degree + 1):
        specs.append((f"slice-{n}",
                      f"brackets of degree-0/1 generators span g*u^{n}",
                      lambda n=n: close_and_check(n)))
    return run_checks("generation", g.type_label(), specs)


class CurrentEnvelope(PBWAlgebra):
    """PBW letter algebra of the enveloping algebra of g[u].

    Letters encode (basis index, u-degree) as index + dim * degree, so the
    PBW order is by u-degree, then by the Lie-algebra basis order.
    """

    def __init__(self, g: LieAlgebraData):
        self.g = g
        self._pbw_cache: Dict[tuple, dict] = {}

    def letter(self, basis: int, degree: int) -> int:
        return basis + self.g.dim * degree

    def pbw_bracket(self, a: int, b: int) -> Dict[int, int]:
        dim = self.g.dim
        xa, na = a % dim, a // dim
        xb, nb = b % dim, b // dim
        return {z + dim * (na + nb): c
                for z, c in self.g.bracket_table.get((xa, xb), {}).items()}

    def pbw_letter_name(self, i: int) -> str:
        return f"{self.g.names[i % self.g.dim]}*u^{i // self.g.dim}"


def current_envelope(g: LieAlgebraData) -> CurrentEnvelope:
    """Shared U(g[u]) letter algebra for g (memoization lives on it)."""
    return g.derived(CurrentEnvelope, lambda: CurrentEnvelope(g))
