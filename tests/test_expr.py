import math
import random

import numpy as np
import pytest

from bse import expr, mesh
from bse.errors import DomainError, ParseError


def ev(text, x=0.0, y=0.0):
    return float(expr.eval_on_points(expr.parse(text), [[x, y]])[0])


def test_documented_precedence_cases():
    assert ev("2+3*4") == 14.0
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("2*3-4/2") == 4.0
    assert ev("-2*3") == -6.0


def test_variables_and_derived():
    assert ev("x^2+y^2", 1.0, 2.0) == 5.0
    assert ev("r^2", 3.0, 4.0) == pytest.approx(25.0, abs=1e-12)
    assert ev("theta", 0.0, 1.0) == pytest.approx(math.pi / 2)
    assert ev("theta", -1.0, 0.0) == pytest.approx(math.pi)  # range (-pi, pi]
    assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
    assert ev("e") == pytest.approx(math.e)


def test_functions():
    assert ev("sqrt(4)") == 2.0
    assert ev("abs(-3)") == 3.0
    assert ev("log(e)") == pytest.approx(1.0)
    assert ev("cos(0)") == 1.0
    assert ev("exp(0)") == 1.0


def test_domain_errors_signaled():
    with pytest.raises(DomainError):
        ev("sqrt(-1)")
    with pytest.raises(DomainError):
        ev("log(-2)")
    # other IEEE special cases stay silent
    assert ev("1/0") == math.inf
    assert math.isnan(ev("0/0"))


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError, match="close"):
        expr.parse("sin(pi/2")
    with pytest.raises(ParseError, match="offset 0"):
        expr.parse("@")
    with pytest.raises(ParseError, match="unknown name"):
        expr.parse("x + bogus")
    with pytest.raises(ParseError, match="unknown function"):
        expr.parse("foo(3)")
    with pytest.raises(ParseError):
        expr.parse("1 +")
    with pytest.raises(ParseError):
        expr.parse("1 2")


@pytest.mark.parametrize("deep,offset,shallow,value", [
    ("(" * 2000 + "x" + ")" * 2000, expr.MAX_NESTING, "(" * 99 + "x" + ")" * 99, 2.0),
    ("-" * 5000 + "x", expr.MAX_NESTING, "-" * 99 + "x", -2.0),
    ("x" + "^x" * 2000, 2 * expr.MAX_NESTING, "x" + "^1" * 99, 2.0),
    ("x" + "+x" * 2000, 2 * expr.MAX_NESTING - 1, "x" + "+x" * 99, 200.0),
    # to_string parenthesizes each -x: the rendered text must parse again
    ("x" + "^-x" * 2000, 3 * expr.MAX_NESTING // 2, "x" + "^-x" * 49, 0.641185744504986),
], ids=["parentheses", "unary-minus", "power-chain", "sum-chain", "power-minus-chain"])
def test_nesting_beyond_the_bound_is_a_parse_error(deep, offset, shallow, value):
    # the error names the offset where nesting passes MAX_NESTING; up to the
    # bound the parser, the evaluator and the renderer all work, and the
    # rendered text parses to the same tree
    with pytest.raises(ParseError, match=rf"nests deeper .*\(offset {offset}\)"):
        expr.parse(deep)
    tree = expr.parse(shallow)
    assert ev(shallow, 2.0) == value
    assert expr.parse(expr.to_string(tree)) == tree


def test_print_parse_print_fixed_point_on_corpus():
    corpus = ["2+3*4", "-2^2", "x^2+y^2", "sin(x)*cos(y)", "1/(x+2)",
              "-(x*y)", "2^-3", "a" and "x-y-1", "sqrt(abs(x))", "r^2+theta"]
    for text in corpus:
        printed = expr.to_string(expr.parse(text))
        assert expr.to_string(expr.parse(printed)) == printed


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.5:
            # nonnegative literal: negative values arise via Neg nodes
            return expr.Num(round(rng.uniform(0, 10), 3))
        return expr.Name(rng.choice(["x", "y", "r", "theta", "pi", "e"]))
    kind = rng.random()
    if kind < 0.15:
        return expr.Neg(_random_ast(rng, depth - 1))
    if kind < 0.3:
        return expr.Call(rng.choice(["sin", "cos", "exp", "abs"]),
                         _random_ast(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return expr.Bin(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_thousand_random_round_trips_exact(scalar_eval_on_points):
    # the array path must reproduce the per-point evaluator bit for bit; the
    # unit-disk vertices include r = 1 exactly, where a point-dependent
    # exponent such as -r hits NumPy's constant-exponent shortcuts
    disk = mesh.generate_disk(16, 2).vertices
    point_sets = (disk, 3.0 * disk)
    rng = random.Random(20240811)
    for _ in range(1000):
        tree = _random_ast(rng, rng.randint(1, 5))
        printed = expr.to_string(tree)
        reparsed = expr.parse(printed)
        assert reparsed == tree
        x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        with np.errstate(all="ignore"):
            a, b = (float(expr.eval_on_points(t, [[x, y]])[0]) for t in (tree, reparsed))
        assert a == b or (math.isnan(a) and math.isnan(b))
        for pts in point_sets:
            np.testing.assert_array_equal(expr.eval_on_points(tree, pts),
                                          scalar_eval_on_points(tree, pts), printed)


def test_eval_on_points():
    ast = expr.parse("x*y")
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(expr.eval_on_points(ast, pts), [2.0, 12.0])


def test_domain_error_at_one_point_of_many():
    pts = np.array([[1.0, 0.0], [4.0, 1.0], [-0.25, 2.0], [9.0, 3.0], [-4.0, 4.0]])
    for func in ("sqrt", "log"):
        with pytest.raises(DomainError, match=f"{func} of negative argument -0.25"):
            expr.eval_on_points(expr.parse(f"{func}(x)"), pts)
    np.testing.assert_array_equal(expr.eval_on_points(expr.parse("sqrt(y)"), pts),
                                  [0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0])
    # a NaN argument is not negative: it propagates silently
    assert math.isnan(ev("sqrt(0/0)"))


def test_constant_and_empty_point_shapes():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(expr.eval_on_points(expr.parse("-4"), pts), [-4.0] * 3)
    np.testing.assert_array_equal(expr.eval_on_points(expr.parse("pi"), pts), [math.pi] * 3)
    for text in ("-4", "x*y", "r+theta", "sqrt(x)"):
        out = expr.eval_on_points(expr.parse(text), np.empty((0, 2)))
        assert out.shape == (0,) and out.dtype == np.float64
    assert type(ev("2")) is float


def test_point_dependent_exponent_matches_constant_exponent():
    # x^y at y = 2, 0.5, -1 gives what x^2, x^0.5, x^-1 give at every point
    x = np.random.default_rng(3).uniform(0.1, 10.0, 2000)
    for value in ("2", "0.5", "-1"):
        pts = np.column_stack([x, np.full_like(x, float(value))])
        np.testing.assert_array_equal(expr.eval_on_points(expr.parse("x^y"), pts),
                                      expr.eval_on_points(expr.parse(f"x^({value})"), pts))


def test_values_do_not_depend_on_how_points_are_batched():
    # about 10.7k vertices: more than one evaluation block
    pts = mesh.generate_disk(64, 3).vertices
    for text in ("1.2+0.7*sin(2*x)-1.1*cos(3*y)+0.9*x*y", "0.8+1.3*cos(2*theta)-0.6*sin(3*theta)",
                 "1.4-0.9*r^2", "1.6", "x^(-r)"):
        tree = expr.parse(text)
        parts = [expr.eval_on_points(tree, pts[i:i + 1000]) for i in range(0, len(pts), 1000)]
        np.testing.assert_array_equal(expr.eval_on_points(tree, pts), np.concatenate(parts))
    # a negative argument in a later block still raises
    pts = np.vstack([np.ones((5000, 2)), [[-1.5, 0.0]]])
    with pytest.raises(DomainError, match="log of negative argument -1.5"):
        expr.eval_on_points(expr.parse("log(x)"), pts)
