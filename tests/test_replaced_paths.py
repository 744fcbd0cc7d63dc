"""Exact agreement with the oracles of `oracles`: the long division and the
Fraction group law with its metric from the definition.  These replaced
the earlier code paths: a p-adic value that always held a Fraction, and
the group law and metric comparing Fractions through their operators.
Every result must be equal, not close.
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import oracles
from oracles import BASES, CIRCLE, rationals, same_value
from padic_fractal.complex_map import MapParams, PlaneMap
from padic_fractal.padic import digit_run, expand, expansion, norm, split, valuation
from padic_fractal.solenoid import SolenoidPoint, add, distance, neg


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_padic_arithmetic_matches_fraction_values(data):
    p = data.draw(BASES)
    a, b = data.draw(rationals(p)), data.draw(rationals(p))
    xa, xb = (expand(q, p, data.draw(st.integers(1, 12))) for q in (a, b))
    assert same_value(xa, a, p) and same_value(xb, b, p)
    for x, q in ((xa + xb, a + b), (xa - xb, a - b), (-xa, -a)):
        assert same_value(expand(x, p, 1), q, p)
    frac, integral = split(xa, p)
    low = min(oracles.valuation(a, p), 0)
    assert frac == oracles.from_digits(p, low, oracles.digits(a, p, low, 0))
    assert type(frac) is Fraction and same_value(integral, a - frac, p)
    assert norm(xa - xb, p) == oracles.norm(a - b, p)


@given(data=st.data(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=200, deadline=None)
def test_group_law_and_metric_match_fraction_operators(data, alpha):
    p = data.draw(BASES)
    pts = []
    for _ in range(2):
        xi, q = data.draw(CIRCLE), data.draw(rationals(p, unit_ball=True))
        x = expand(q, p, data.draw(st.integers(1, 12)))
        pts.append((SolenoidPoint(xi, x), (xi, q)))
    (f, rf), (g, rg) = pts
    for got, want in ((add(f, g), oracles.group_add(rf, rg)), (neg(f), oracles.group_neg(rf)),
                      (add(f, neg(g)), oracles.group_add(rf, oracles.group_neg(rg)))):
        assert got.xi == want[0] and type(got.xi) is Fraction and same_value(got.x, want[1], p)
    assert distance(f, g, p, alpha) == oracles.group_distance(rf, rg, p, alpha)
    assert distance(g, f, p, alpha) == oracles.group_distance(rg, rf, p, alpha)


@given(p=BASES, q=st.fractions(max_denominator=10**4), window=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_value_is_an_int_exactly_when_integral(p, q, window):
    value = expand(q, p, window)
    if q.denominator == 1:
        assert type(value) is int and value == q.numerator
    else:
        assert type(value) is Fraction and (value.numerator, value.denominator) == (
            q.numerator, q.denominator)


@given(p=BASES, n=st.integers(-10**6, 10**6), window=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_int_and_fraction_values_read_alike(p, n, window):
    # every function reads an integer held as an int or as a Fraction alike
    x, y = expand(n, p, window), Fraction(n)
    assert type(x) is int and x == y and hash(x) == hash(y)
    assert x == expand(Fraction(n * 3, 3), p, window) and type(expand(y, p, window)) is int
    assert valuation(x, p) == valuation(y, p) and expansion(x, p) == expansion(y, p)
    assert digit_run(x, p, -3, 30) == digit_run(y, p, -3, 30)
    assert split(x, p) == split(y, p) and norm(x, p) == norm(y, p)
    pm = PlaneMap(MapParams(p=p, m=math.inf, s=0.3 + 0.2j))
    assert oracles.same_bits(pm.value(x), pm.value(y))
