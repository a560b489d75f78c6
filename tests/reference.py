"""Reference constructions that only the tests use, built on the public
element API of `qcurrent`.  Each one is an independent cross-check of a
fast path in the package, not a code path of its own."""

from qcurrent.current import CurrentElement, CurrentTensor, c_bracket
from qcurrent.envelope import UElement, casimir_tensor


def adjoint_action(x, a):
    """x . a = [x, a], the adjoint action of the Lie algebra on its envelope."""
    return UElement.from_lie(a.ctx, x).bracket(a)


def quadratic_casimir(g):
    """C = m(Omega), checked central on the generators."""
    c = casimir_tensor(g).multiply_slots()
    for b in range(g.dim):
        if c.bracket(UElement.letter(g, b)):
            raise ValueError("quadratic Casimir fails to be central")
    return c


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
