from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

from qcurrent.dsl import (Bracket, Call, DSLError, Hbar, Name, Num, Prod, Sum,
                          Tensor, evaluate, parse, render_value)
from qcurrent.envelope import TensorElement, UElement
from qcurrent.exactnum import HPoly
from qcurrent.freequant import _omega_iota, free_model, relation_defect_sl2
from qcurrent.liealg import build_sl
from reference import print_expr

GOLDEN = Path(__file__).parent / "data" / "render_golden.txt"


def test_parse_bracket_of_generators():
    ast = parse("[J(e), J(f)]")
    assert isinstance(ast, Bracket)
    assert isinstance(ast.left, Call) and ast.left.fn == "J"


def test_parse_omega_expression(sl2):
    value = evaluate("(1/2)*h (x) h + e (x) f + f (x) e", sl2)
    assert value == _omega_iota(sl2)


def test_parse_defect_expression(sl2):
    text = "[[J(e),J(f)],J(h)] - hbar^2*(I(f)*J(e)-J(f)*I(e))*I(h)"
    assert evaluate(text, sl2) == relation_defect_sl2(sl2)


def test_eval_delta_minus_box(sl2):
    value = evaluate("Delta(J(h)) - box(J(h))", sl2)
    i_e = free_model(sl2).iota_letter(2)
    i_f = free_model(sl2).iota_letter(0)
    expected = (TensorElement.pure([i_e, i_f])
                - TensorElement.pure([i_f, i_e])).scale(HPoly.hbar(1))
    assert value == expected


def test_eval_counit(sl2):
    assert evaluate("eps(J(e))", sl2) == HPoly.zero()


def test_eval_infers_plain_envelope_domain(sl2):
    value = evaluate("e*f", sl2)
    assert isinstance(value, UElement) and value.ctx is sl2
    assert render_value(value) == "f*e + h"


def test_eval_current_domain(sl2):
    value = evaluate("[G(e), G(f)]", sl2)
    assert render_value(value) == "h*u^2"


def test_eval_t_operator(sl2):
    assert render_value(evaluate("T(I(h))", sl2)) == "2*h"


def test_tensor_operator_binds_tighter_than_product(sl2):
    # 2*h (x) h is 2*(h tensor h)
    v = evaluate("2*h (x) h", sl2)
    assert isinstance(v, TensorElement)


def test_parenthesized_slots(sl2):
    v = evaluate("(f*e) (x) h", sl2)
    assert isinstance(v, TensorElement)
    assert len(list(v.terms())) == 1


def test_error_reports_position():
    with pytest.raises(DSLError) as exc:
        parse("[J(e), J(f)")
    assert "line 1" in str(exc.value)


def test_unknown_name(sl2):
    with pytest.raises(DSLError, match="unknown basis name"):
        evaluate("J(zz)", sl2)


def test_arity_mismatch(sl2):
    with pytest.raises(DSLError):
        evaluate("nu(h, h)", sl2)


def test_domain_mixing_rejected(sl2):
    with pytest.raises(DSLError):
        evaluate("G(e)*G(f)", sl2)
    with pytest.raises(DSLError):
        evaluate("J(e) + G(e)", sl2)


def test_t_requires_rank_one(sl3):
    with pytest.raises(DSLError):
        evaluate("T(I(t1))", sl3)


def _random_ast(rng: Random, depth: int = 0):
    choices = ["num", "hbar", "name", "call"]
    if depth < 2:
        choices += ["sum", "prod", "bracket", "tensor"]
    kind = rng.choice(choices)
    if kind == "num":
        return Num(F(rng.randint(1, 9), rng.choice([1, 1, 2, 3])))
    if kind == "hbar":
        return Hbar(rng.choice([1, 1, 2, 3]))
    if kind == "name":
        return Name(rng.choice(["e", "f", "h"]))
    if kind == "call":
        return Call(rng.choice(["I", "J", "nu"]), [Name(rng.choice("efh"))])
    if kind == "bracket":
        return Bracket(_random_ast(rng, depth + 1), _random_ast(rng, depth + 1))
    if kind == "tensor":
        return Tensor([_random_ast(rng, depth + 1), _random_ast(rng, depth + 1)])
    if kind == "prod":
        return Prod([_random_ast(rng, depth + 1), _random_ast(rng, depth + 1)])
    return Sum([(rng.choice([1, -1]), _random_ast(rng, depth + 1)),
                (rng.choice([1, -1]), _random_ast(rng, depth + 1))])


def test_parse_print_roundtrip_random():
    rng = Random(2024)
    for _ in range(200):
        ast = _random_ast(rng)
        text = print_expr(ast)
        assert print_expr(parse(text)) == text


def test_golden_renderings(sl2, sl3):
    algebras = {"A2:": sl3, "A3:": build_sl(4)}
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        expr, expected = (part.strip() for part in line.split(";;"))
        g = algebras.get(expr[:3], sl2)
        if g is not sl2:
            expr = expr[3:].strip()
        assert render_value(evaluate(expr, g)) == expected, expr
