"""Expression language: parsing, precedence, evaluation, and error reporting."""

import math

import numpy as np
import pytest
from oracles import assert_bitwise_equal, numpy_formula

from sisrd.formula import (
    BinOp,
    Call,
    FormulaDomainError,
    FormulaSyntaxError,
    Neg,
    UnknownIdentifierError,
    evaluate,
    free_variables,
    parse,
)

# The piecewise recovery-rate factor used by the shipped two-dimensional
# scenario: quadratic pieces glued at 0, 0.25, and 0.5.
F_PIECEWISE = (
    "piecewise(x; 0: 0.5+0.4*x^2; 0.25: 0.5; 0.5: 0.5+0.4*(x-0.25)^2; "
    "else: 0.5+1.6*(x-0.625)^2)"
)


def ev(src, **env):
    return evaluate(parse(src), env)


def scalar(src, **env):
    out = ev(src, **env)
    return float(np.asarray(out).reshape(-1)[0])


# ---------------------------------------------------------------------------
# Parsing and precedence
# ---------------------------------------------------------------------------


def test_arithmetic_precedence():
    assert scalar("2+3*4") == 14.0
    assert scalar("2*3+4") == 10.0
    assert scalar("2-3-4") == -5.0
    assert scalar("12/3/2") == 2.0
    assert scalar("2+3*4^2") == 50.0


def test_power_right_associative():
    assert scalar("2^3^2") == 512.0
    assert scalar("(2^3)^2") == 64.0


def test_unary_minus_binds_looser_than_power():
    assert scalar("-2^2") == -4.0
    assert scalar("(-2)^2") == 4.0
    assert scalar("2*-3") == -6.0
    assert scalar("--2") == 2.0


def test_pi_and_functions():
    assert scalar("pi") == math.pi
    assert abs(scalar("sin(pi/2)") - 1.0) < 1e-15
    assert abs(scalar("cos(0)") - 1.0) < 1e-15
    assert abs(scalar("exp(1)") - math.e) < 1e-15
    assert scalar("sqrt(9)") == 3.0
    assert scalar("abs(-3)") == 3.0
    assert scalar("pos(-3)") == 0.0
    assert scalar("pos(2.5)") == 2.5
    assert scalar("min(2, -1)") == -1.0
    assert scalar("max(2, -1)") == 2.0


def test_scientific_notation_literals():
    assert scalar("1e-3") == 1e-3
    assert scalar("2.5E2") == 250.0


def test_free_variables():
    assert free_variables(parse("3 + 2*sin(pi*x)*sin(pi*y)")) == {"x", "y"}
    assert free_variables(parse("1.5")) == set()
    assert free_variables(parse(F_PIECEWISE)) == {"x"}


# ---------------------------------------------------------------------------
# Precedence against the same text as a numpy expression
# ---------------------------------------------------------------------------

PRECEDENCE = [
    "1",
    "x",
    "-x",
    "x + y",
    "x - (y - x)",
    "x - y - x",
    "x*(y + 1)",
    "x/(y*x)",
    "x/y*x",
    "2^x^2",
    "(2^x)^2",
    "-(x + y)",
    "-x^2",
    "(-x)^2",
    "3 + 2*sin(pi*x)*sin(pi*y)",
    "1.5 + sin(pi*x)*sin(pi*y)",
    "1 + 0.5*sin(pi*x)",
    "min(x, max(y, 0.5))",
]


def quoted_nodes(e):
    """Every operator and call node of ``e``: the nodes that carry their source text."""
    if isinstance(e, Neg):
        yield from quoted_nodes(e.operand)
    elif isinstance(e, (BinOp, Call)):
        yield e
        for child in (e.left, e.right) if isinstance(e, BinOp) else e.args:
            yield from quoted_nodes(child)


# A node's source slice is the text a domain error quotes, so it must read
# back as that node, and as Python's parser reads it, with that node's value.


@pytest.mark.parametrize("src", PRECEDENCE)
def test_parse_pretty_parse_identity(src):
    tree = parse(src)
    assert parse(src.replace(" ", "")) == tree
    for node in quoted_nodes(tree):
        assert parse(node.text) == node


@pytest.mark.parametrize("src", PRECEDENCE)
def test_pretty_preserves_value(src):
    rng = np.random.default_rng(7)
    env = {"x": rng.uniform(-1, 1, 64), "y": rng.uniform(-1, 1, 64)}
    tree = parse(src)
    assert_bitwise_equal(evaluate(tree, env), numpy_formula(src, env))
    for node in quoted_nodes(tree):
        assert_bitwise_equal(evaluate(node, env), numpy_formula(node.text, env))


# ---------------------------------------------------------------------------
# Piecewise semantics
# ---------------------------------------------------------------------------


def f_reference(x):
    """Hand-coded closure for the piecewise factor."""
    x = np.asarray(x, dtype=float)
    return np.select(
        [x <= 0.0, x <= 0.25, x <= 0.5],
        [0.5 + 0.4 * x**2, 0.5, 0.5 + 0.4 * (x - 0.25) ** 2],
        default=0.5 + 1.6 * (x - 0.625) ** 2,
    )


def test_piecewise_branch_values():
    assert scalar(F_PIECEWISE, x=0.0) == 0.5  # threshold hits the first branch
    assert scalar(F_PIECEWISE, x=-1.0) == pytest.approx(0.9, abs=1e-15)
    assert scalar(F_PIECEWISE, x=0.25) == 0.5
    assert scalar(F_PIECEWISE, x=0.3) == pytest.approx(0.5 + 0.4 * 0.05**2, abs=1e-16)
    assert scalar(F_PIECEWISE, x=0.625) == 0.5
    assert scalar(F_PIECEWISE, x=1.0) == pytest.approx(0.725, abs=1e-15)


def test_piecewise_vectorized_matches_closure():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 10_000)
    np.testing.assert_allclose(ev(F_PIECEWISE, x=x), f_reference(x), rtol=1e-15, atol=0)


def test_piecewise_branches_only_evaluated_where_selected():
    # sqrt(x) appears in a branch that is never selected for negative x
    src = "piecewise(x; 0: x^2; else: sqrt(x))"
    out = ev(src, x=np.array([-4.0, 4.0]))
    np.testing.assert_allclose(out, [16.0, 2.0])


# ---------------------------------------------------------------------------
# Random-point agreement with hand closures for the scenario formulas
# ---------------------------------------------------------------------------


def test_scenario_formulas_match_closures():
    rng = np.random.default_rng(42)
    x = rng.uniform(-1, 1, 1000)
    y = rng.uniform(-1, 1, 1000)
    cases = [
        ("3 + 2*sin(pi*x)*sin(pi*y)", 3 + 2 * np.sin(np.pi * x) * np.sin(np.pi * y)),
        ("1.5 + sin(pi*x)*sin(pi*y)", 1.5 + np.sin(np.pi * x) * np.sin(np.pi * y)),
        ("1 + 0.5*sin(pi*x)", 1 + 0.5 * np.sin(np.pi * x)),
        (
            F_PIECEWISE + " * " + F_PIECEWISE.replace("x", "y"),
            f_reference(x) * f_reference(y),
        ),
    ]
    for src, expected in cases:
        got = ev(src, x=x, y=y)
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_syntax_errors_report_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("1 + * 2")
    assert exc.value.offset == 4
    with pytest.raises(FormulaSyntaxError):
        parse("(1 + 2")
    with pytest.raises(FormulaSyntaxError):
        parse("")
    with pytest.raises(FormulaSyntaxError):
        parse("1 2")
    with pytest.raises(FormulaSyntaxError):
        parse("sin()")
    with pytest.raises(FormulaSyntaxError):
        parse("min(1)")
    with pytest.raises(FormulaSyntaxError):
        parse("sin(1, 2)")


def test_tokenizer_refuses_a_stray_character_and_skips_trailing_space():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("x $ 1")
    assert exc.value.offset == 2
    assert scalar("x + 1 ", x=2.0) == 3.0


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("2*z")
    with pytest.raises(UnknownIdentifierError):
        parse("sinh(1)")


def test_missing_environment_variable():
    with pytest.raises(FormulaDomainError, match="'y'"):
        evaluate(parse("x + y"), {"x": 1.0})


def test_domain_errors_are_loud():
    with pytest.raises(FormulaDomainError):
        ev("sqrt(x)", x=-1.0)
    with pytest.raises(FormulaDomainError):
        ev("1/x", x=0.0)
    with pytest.raises(FormulaDomainError):
        ev("x^0.5", x=-2.0)
    with pytest.raises(FormulaDomainError):
        ev("x^-1", x=0.0)


# each fault, with the innermost sub-expression whose value is not finite
DOMAIN_FAULTS = {
    "1 + sqrt(x - 2)": "sqrt(x - 2)",  # square root of a negative value
    "2 + 1 / (x*3)": "1 / (x*3)",  # division by zero
    "1 - (x - 2) ^ 0.5": "(x - 2) ^ 0.5",  # fractional power of a negative base
    "3 * x ^ -1": "x ^ -1",  # zero to a negative power
    "4 + exp(1000 + x)": "exp(1000 + x)",  # overflow
    "3 + 0*cos(1e308*1e10)": "1e308*1e10",
}


def test_domain_error_names_offending_expression():
    # quoted as written, spacing included
    for src, quoted in DOMAIN_FAULTS.items():
        with pytest.raises(FormulaDomainError) as exc:
            ev(src, x=np.array([1.0, 0.0]))
        assert str(exc.value) == f"{quoted!r} does not evaluate to a finite real number"


def test_literal_past_the_float_range_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError, match="'1e400' is past the float range") as exc:
        parse("2 * 1e400")
    assert exc.value.offset == 4
    assert scalar("1e308") == 1e308


def test_integer_power_of_negative_base_is_fine():
    assert scalar("x^2", x=-3.0) == 9.0
    assert scalar("x^3", x=-2.0) == -8.0


def test_piecewise_requires_variable_selector():
    with pytest.raises(FormulaSyntaxError):
        parse("piecewise(1+x; 0: 1; else: 2)")
    with pytest.raises(FormulaSyntaxError):
        parse("piecewise(x; 0: 1)")  # no else branch
