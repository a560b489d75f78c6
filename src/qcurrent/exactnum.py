"""Exact scalar arithmetic and sparse linear algebra over the rationals.

Everything downstream computes with these primitives.  A coefficient is an
exact rational, never a float.  In the structure tables, the memo caches
and the integer kernels of the cohomology layer it is an `int` when it is
integral and a `fractions.Fraction` otherwise (for sl_n, only the Casimir
weights of the Cartan block have denominators).

There are two sparse stores, and one space rule governs both: elements
compare equal and combine only when they are of one class and agree on
the attributes their class names in `_space`.  `CoeffMap` holds exact
values, ints where integral (`_exact_coeff`): the flat elements (Lie
elements, cobar chains, current elements and tensors) and the deformation
polynomials `HPoly`, the scalars of the word algebras.  It holds only the
vector-space operations: a tensor's slot permutations belong to its own
class (`current.CurrentTensor`).  The elements with a two-level key, the
word-algebra elements (`envelope.UElement`, `TensorElement`) and the
bicomplex cochains (`cohom.Cochain`), are `IntStore`s: int data over one
int denominator, always reduced, so that `==` is dict equality.  A matrix
is a list of sparse rows {column: nonzero entry}.
One loop, `_cleared`, turns exact values into ints over their common
denominator, dropping zeros: for every store, every rank and every
factorization.  Rank and factorization
share one elimination step (`_eliminate`) and differ only in their pivot
rule: each row is cleared of denominators by its own scale and eliminated
in place over the integers without division, so a rank works in ints only,
a `Factorization` records only ints, and a solve divides only in its
back-substitution.  Ints and Fractions mix freely in arithmetic, hashing
and comparison (Fraction(2) == 2); the one thing to avoid is dividing two
ints, which gives a float, so every division has a Fraction operand
(`Fraction(q, p)`, `_quotient`).  All rank/solve questions are answered by
exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Optional

ZERO = Fraction(0)
ONE = Fraction(1)


def accumulate(data: dict, key, value) -> None:
    """Add `value` at `key` of a sparse map, dropping the key when the sum
    is zero.  Every sparse structure in the package keeps its no-zeros
    invariant through this one helper."""
    old = data.get(key)
    new = value if old is None else old + value
    if new:
        data[key] = new
    else:
        data.pop(key, None)


def join_signed(parts) -> str:
    """Join rendered terms with + and -, folding a leading minus into the
    operator."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _poly_product(p1: dict, p2: dict) -> dict:
    """Product of two polynomials in hbar, {exponent: coefficient}; a
    cancelled entry stays as 0.  The one hbar product loop: `HPoly.__mul__`
    and the int stores of the word-algebra elements both call it."""
    if len(p1) == 1 and len(p2) == 1:
        (k1, c1), = p1.items()
        (k2, c2), = p2.items()
        return {k1 + k2: c1 * c2}
    out: dict = {}
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


class _Store:
    """What both sparse stores share: the space rule and the operations
    that follow from `__add__` and `render`.

    A subclass names the attributes that fix its ambient space in `_space`.
    Two elements are in one space when they are of the same class and agree
    on those attributes; only then do they compare equal or combine."""

    __slots__ = ("data",)
    _space: tuple = ()

    def _same_space(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self._space)

    def _check(self, other) -> None:
        if not self._same_space(other):
            raise ValueError("elements of different spaces do not combine")

    def __bool__(self) -> bool:
        return bool(self.data)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __repr__(self):
        return self.render()


class CoeffMap(_Store):
    """A sparse linear combination {key: nonzero exact coefficient}, an int
    where the constructor or `scale` is given an integral value: the
    vector-space operations of the flat elements, written once."""

    __slots__ = ()

    def __init__(self, data: Optional[Mapping] = None):
        self.data = {}
        if data:
            for k, c in data.items():
                c = _exact_coeff(c)
                if c:
                    self.data[k] = c

    def _like(self, data: dict):
        """A new element in the same space, taking ownership of `data`."""
        out = object.__new__(type(self))
        for name in self._space:
            setattr(out, name, getattr(self, name))
        out.data = data
        return out

    def _accumulate(self, key, c) -> None:
        accumulate(self.data, key, c)

    def __eq__(self, other) -> bool:
        return self._same_space(other) and self.data == other.data

    def __add__(self, other, sign: int = 1):
        """self + sign * other, in one pass over `other`."""
        self._check(other)
        out = dict(self.data)
        for k, c in other.data.items():
            accumulate(out, k, c if sign == 1 else -c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.data.items()})

    def scale(self, q):
        """Multiply every coefficient by a scalar the coefficients accept."""
        q = _exact_coeff(q)
        if not q:
            return self._like({})
        return self._like({k: c * q for k, c in self.data.items()})

    __mul__ = scale
    __rmul__ = scale

    def render(self) -> str:
        return repr(self.data)


class HPoly(CoeffMap):
    """Polynomial in the formal deformation parameter, {exponent: exact
    coefficient} in `data`, each coefficient an int where integral.

    The parameter has grading degree 1.  It is the scalar type of the
    word-algebra elements, which store their coefficients as ints.
    """

    __slots__ = ()

    def __init__(self, coeffs: Optional[Mapping[int, Fraction]] = None):
        if coeffs and min(coeffs) < 0:
            raise ValueError("negative exponent in deformation polynomial")
        super().__init__(coeffs)

    def _like(self, data: dict) -> "HPoly":
        return HPoly(data)  # the constructor turns an integral Fraction into an int

    @classmethod
    def rational(cls, q) -> "HPoly":
        return cls({0: q})

    @classmethod
    def hbar(cls, k: int = 1, coeff=1) -> "HPoly":
        return cls({k: coeff})

    @classmethod
    def zero(cls) -> "HPoly":
        return cls()

    @classmethod
    def one(cls) -> "HPoly":
        return cls({0: 1})

    def coeff(self, k: int) -> Fraction:
        return self.data.get(k, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = HPoly.rational(other)
        return super().__eq__(other)

    def __add__(self, other, sign: int = 1) -> "HPoly":
        return super().__add__(as_hpoly(other), sign)

    def __mul__(self, other) -> "HPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, HPoly):
            return HPoly(_poly_product(self.data, other.data))
        return NotImplemented

    def render(self) -> str:
        """Deterministic text form, e.g. ``1/2 + 3*hbar^2``."""
        if not self.data:
            return "0"
        parts = []
        for k in sorted(self.data):
            c = self.data[k]
            if k == 0:
                parts.append(str(c))
            else:
                power = "hbar" if k == 1 else f"hbar^{k}"
                if c == 1:
                    parts.append(power)
                elif c == -1:
                    parts.append(f"-{power}")
                else:
                    parts.append(f"{c}*{power}")
        return join_signed(parts)


def as_hpoly(value) -> HPoly:
    if isinstance(value, HPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return HPoly.rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to HPoly")


def _cleared(row: Mapping) -> tuple:
    """(d, ints): d is the lcm of the denominators of the row's entries, ints
    or Fractions, and ints is the row times d with its zeros dropped,
    computed as `numerator * (d // denominator)` with no Fraction
    arithmetic.  The entries of ints and d have no common factor."""
    d = 1
    try:
        for v in row.values():
            q = v.denominator
            if d % q:
                d = d * q // gcd(d, q)
    except AttributeError:
        raise TypeError(f"expected an exact rational, got {type(v).__name__}") from None
    return d, {j: v.numerator * (d // v.denominator) for j, v in row.items() if v}


def _int_store(values: Mapping) -> tuple:
    """(den, data) of the exact values {key: {inner key: value}}: each inner
    map is cleared by `_cleared` and put over den, the lcm of their scales.
    So (den, data) is reduced, with no zero entry and no empty inner map."""
    cleared = [(key, *_cleared(inner)) for key, inner in values.items()]
    den = lcm(*(d for _, d, _ in cleared))
    return den, {key: ints if d == den else {k: c * (den // d) for k, c in ints.items()}
                 for key, d, ints in cleared if ints}


class IntStore(_Store):
    """Int data over one int denominator: `data` maps an outer key to a
    sparse map {inner key: nonzero int}, and the element is data / den.

    Never changed in place, and always reduced: gcd(den, entries) = 1, with
    no zero entry and no empty inner map, so `==` is dict equality.  The
    constructor takes exact values (`_int_store`); every result is built
    by `_like`, which takes int data over a denominator and reduces it.
    """

    __slots__ = ("den",)

    def __init__(self, values: Mapping):
        self.den, self.data = _int_store(values)

    def _like(self, data: dict, den: int, **space):
        """data / den in self's space, with the attributes in `space`
        replaced, as a new element taking ownership of `data`: the only
        pass that drops zeros and empty maps, and the reduction, which
        takes one gcd per inner map and stops once it reaches 1."""
        out = {}
        g = den
        for key, inner in data.items():
            if not all(inner.values()):
                inner = {k: c for k, c in inner.items() if c}
            if inner:
                out[key] = inner
                if g != 1:
                    g = gcd(g, *inner.values())
        new = object.__new__(type(self))
        for name in self._space:
            setattr(new, name, space[name] if name in space else getattr(self, name))
        new.den = den // g
        new.data = out if g == 1 else {
            key: {k: c // g for k, c in inner.items()} for key, inner in out.items()}
        return new

    def __eq__(self, other) -> bool:
        return self._same_space(other) and (self.den, self.data) == (other.den, other.data)

    def equals_data(self, data: dict, den: int) -> bool:
        """Whether int data over `den`, unreduced and perhaps holding zeros,
        is this element: entry by entry, cross-multiplied, no new element."""
        mine, count = self.data, 0
        for key, inner in data.items():
            ref = mine.get(key, {})
            for k, c in inner.items():
                if c * self.den != ref.get(k, 0) * den:
                    return False
                count += c != 0
        return count == sum(map(len, mine.values()))

    def __add__(self, other, sign: int = 1):
        """self + sign * other, over the lcm of the two denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        f = den // self.den
        data = {key: dict(inner) if f == 1 else {k: c * f for k, c in inner.items()}
                for key, inner in self.data.items()}
        f = sign * (den // other.den)
        for key, inner in other.data.items():
            acc = data.get(key)
            if acc is None:
                data[key] = {k: c * f for k, c in inner.items()}
            else:
                get = acc.get
                for k, c in inner.items():
                    acc[k] = get(k, 0) + c * f
        return self._like(data, den)

    def __neg__(self):
        return self._like({key: {k: -c for k, c in inner.items()}
                           for key, inner in self.data.items()}, self.den)


def _column_index(rows: list) -> dict:
    """{column: set of the rows holding an entry there}."""
    col_rows: dict = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    return col_rows


def _eliminate(rows: list, col_rows: dict, prow: int, col) -> tuple:
    """One fraction-free elimination step on integer rows, in place.

    Row `prow` becomes the pivot row: it is taken out of `rows` (set to
    None) and of the column index.  Every other row holding `col` is
    updated as `row <- p' * row - q' * prow`, with p' = p / gcd(p, q) and
    q' = q / gcd(p, q) for the pivot p and the row's entry q (Bareiss, Math.
    Comp. 1968), which clears `col` with no division and no copy; `col_rows`
    follows the entries each update creates or cancels, and `col` leaves
    it.  A row's support does not depend on p', so the supports, and any
    pivot rule that reads only them, are those of an elimination that
    strips each row's content.  Returns `(p, rest, ops)`: the pivot, the
    other entries of the pivot row and the `(row, p', q')` updates.
    """
    holders = col_rows.pop(col)
    pivot_row = rows[prow]
    rows[prow] = None
    p = pivot_row.pop(col)
    rest = tuple(pivot_row.items())
    for j, _ in rest:
        col_rows[j].discard(prow)
    ops = []
    for i in holders:
        if i == prow:
            continue
        row = rows[i]
        q = row.pop(col)
        g = gcd(p, q)
        pi, qi = p // g, q // g
        ops.append((i, pi, qi))
        # row * pi - pivot_row * qi, which is zero at col
        if pi != 1:
            for j in row:
                row[j] *= pi
        for j, v in rest:
            old = row.get(j)
            new = -qi * v if old is None else old - qi * v
            if new:
                if old is None:
                    col_rows[j].add(i)
                row[j] = new
            elif old is not None:
                del row[j]
                col_rows[j].discard(i)
    return p, rest, tuple(ops)


def _integer_row_rank(rows: list) -> int:
    """Exact rank of nonempty integer rows, which it eliminates in place.

    The update is `_eliminate`'s, as in `factor`; only the pivot rule
    differs.  Pivots are chosen to limit fill (Markowitz): the column with
    the fewest entries, then the lowest column index; in it, the shortest
    row, then the lowest row index.  The next pivot column comes from a
    lazy min-heap of `(entry count, column)` pairs.  A step changes the
    entry count of the pivot row's columns only (a row gains or loses an
    entry where the pivot row has one), so the new count of each of them is
    pushed after the step; a popped pair whose column is gone, or whose
    count is no longer the column's, is stale and skipped.  Every live
    column always has a pair with its current count in the heap, so the
    first valid pair popped is the minimum of `(count, column)` over the
    live columns: the same pivot that a scan of every column picks.
    """
    col_rows = _column_index(rows)
    heap = [(len(s), j) for j, s in col_rows.items()]
    heapify(heap)
    rank = 0
    while heap:
        count, col = heappop(heap)
        holders = col_rows.get(col, ())
        if len(holders) != count:
            continue
        prow = min(holders, key=lambda r: (len(rows[r]), r))
        _, rest, _ = _eliminate(rows, col_rows, prow, col)
        rank += 1
        for j, _ in rest:
            holders = col_rows[j]
            if holders:
                heappush(heap, (len(holders), j))
            else:
                del col_rows[j]  # a set keeps its table when emptied
    return rank


def rank_of_rows(rows: Iterable[Mapping[int, Fraction]]) -> int:
    """Rank of a collection of sparse rational row vectors.  Each row is
    cleared of denominators by its own scale (`_cleared`), which keeps its
    support and drops a stored zero, so a zero is never a pivot."""
    return _integer_row_rank([r for _, r in map(_cleared, rows) if r])


def _exact(q: Fraction):
    """q as an int when it is integral: int arithmetic is several times
    cheaper than Fraction arithmetic."""
    return q.numerator if q.denominator == 1 else q


def _exact_coeff(value):
    """An exact rational coefficient, as an int when it is integral."""
    if isinstance(value, Fraction):
        return _exact(value)
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _quotient(q, p):
    """The exact quotient q / p of two ints or Fractions, an int when
    integral."""
    if type(q) is int and type(p) is int:
        return q // p if q % p == 0 else Fraction(q, p)
    return _exact(Fraction(q) / p)


class Factorization:
    """The recorded elimination of a matrix, replayed on each right-hand side.

    Every recorded number is an int.  `row_scales` lists the `(row, scale)`
    pairs, scale > 1, by which a row with denominators was multiplied to
    clear them before the elimination.  `steps` holds one entry per pivot,
    in elimination order: `(col, prow, pivot, rest, ops)`, where row `prow`
    had been reduced to `pivot` at `col` plus the entries `rest` (all right
    of `col`) when it was chosen, and `ops` lists the `(row, p, q)` triples
    of the fraction-free updates `row <- p * row - q * prow` that cleared
    `col` from the other rows holding it: for an entry `a` there,
    `p = pivot / gcd(pivot, a)` and `q = a / gcd(pivot, a)` (Bareiss, Math.
    Comp. 1968; Nakos-Turner-Williams, SIGSAM Bull. 1997).  Only the pivot
    rows and the updates are kept: the rows that reduce to zero are not.
    """

    __slots__ = ("nrows", "ncols", "row_scales", "steps", "pivot_rows")

    def __init__(self, nrows: int, ncols: int, row_scales: list, steps: list):
        self.nrows = nrows
        self.ncols = ncols
        self.row_scales = row_scales
        self.steps = steps
        self.pivot_rows = frozenset(step[1] for step in steps)

    def solve(self, b: list) -> Optional[list]:
        """The solution of a*x = b with the free variables set to zero, or
        None when the system is inconsistent.  The entries of b are exact
        rationals; those of x are ints where integral, Fractions otherwise.

        b is scaled by the lcm d of its denominators (`_cleared`) and the
        recorded row scales and updates are replayed on it over the
        integers; the only divisions are those of the back-substitution."""
        if len(b) != self.nrows:
            raise ValueError(f"dimension mismatch: matrix has {self.nrows} "
                             f"rows, vector has {len(b)}")
        d, ints = _cleared(dict(enumerate(b)))
        r = [ints.get(i, 0) for i in range(self.nrows)]
        for i, scale in self.row_scales:
            r[i] *= scale
        for _, prow, _, _, ops in self.steps:
            c = r[prow]
            for i, p, q in ops:
                r[i] = p * r[i] - q * c
        pivot_rows = self.pivot_rows
        for i, v in enumerate(r):
            if v and i not in pivot_rows:
                return None
        x = [0] * self.ncols
        for col, prow, pivot, rest, _ in reversed(self.steps):
            s = r[prow]
            for j, v in rest:
                xj = x[j]
                if xj:
                    s -= v * xj
            x[col] = _quotient(s, pivot)
        if d != 1:
            x = [_quotient(v, d) if v else 0 for v in x]
        return x


def factor(rows: list, ncols: int) -> Factorization:
    """Eliminate the matrix of the sparse rows `rows` ({column: nonzero
    entry}, columns in range(ncols)) once, for any number of right-hand
    sides.  The rows are read, never changed.

    Each row is first cleared of denominators by its own integer scale,
    into a new row, and the elimination runs over the integers with no
    division: the update is `_eliminate`'s, as in `rank_of_rows`; only the
    pivot rule differs.  Pivots are taken column by column, left to right,
    each in the lowest row not yet used whose entry there is nonzero; a
    column->rows index finds those rows without scanning the matrix.  A
    column gets a pivot exactly when it is not in the span of the columns
    left of it, so the pivot columns are the lexicographically first basis
    of the column space and, with the free variables set to zero, the
    solution is the unique one supported on them: it does not depend on
    which row holds a pivot, on the order of the rows or on their scales.
    """
    ints, row_scales = [], []
    for i, row in enumerate(rows):
        scale, row = _cleared(row)
        ints.append(row)
        if scale != 1:
            row_scales.append((i, scale))
    col_rows = _column_index(ints)
    outside = col_rows.keys() - range(ncols)
    if outside:
        raise ValueError(f"column {next(iter(outside))!r} is outside "
                         f"range({ncols})")
    steps = []
    for col in range(ncols):
        holders = col_rows.get(col)
        if holders:
            prow = min(holders)
            steps.append((col, prow) + _eliminate(ints, col_rows, prow, col))
    return Factorization(len(ints), ncols, row_scales, steps)


def solve(rows: list, ncols: int, b: list) -> Optional[list]:
    """`factor(rows, ncols).solve(b)`: one exact solution of a*x = b for
    the matrix a of `rows`, the same on every call, or None.

    The package itself calls `factor` and `Factorization.solve`.  This
    wrapper stays because the benchmark's tracer (`perfbench/tracer.py`)
    binds `exactnum.solve` by name with a bare `getattr`, so without it
    every traced benchmark run fails; it goes once the tracer times
    `factor` and `Factorization.solve` instead."""
    return factor(rows, ncols).solve(b)
