import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
from padic_fractal.padic import digit_run, expand, expansion, from_int, norm, split, valuation


BASES = [2, 3, 5, 6, 10]

rationals = st.builds(
    Fraction,
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=500),
)


def reconstruct(q, p: int, lo: int, upto: int) -> Fraction:
    """The digits of q at indices lo .. upto-1, summed."""
    return sum(
        (Fraction(d) * Fraction(p) ** n for n, d in enumerate(digit_run(q, p, lo, upto), lo)),
        Fraction(0),
    )


class TestExpand:
    def test_one_third_base_two(self):
        x = Fraction(1, 3)
        assert valuation(x, 2) == 0
        assert digit_run(x, 2, 0, 7) == [1, 1, 0, 1, 0, 1, 0]
        assert expansion(x, 2) == ((1, 1, 0), 1, (1, 0))
        # multiply back: congruent to 1/3 mod 2^7
        partial = reconstruct(x, 2, 0, 7)
        assert (Fraction(1, 3) - partial).numerator % 2**7 == 0

    def test_minus_one_all_ones(self):
        assert valuation(-1, 2) == 0 and digit_run(-1, 2, 0, 5) == [1, 1, 1, 1, 1]
        assert expansion(-1, 2) == ((1,), 0, (1,))

    def test_half_base_two(self):
        x = Fraction(1, 2)
        assert valuation(x, 2) == -1 and digit_run(x, 2, -1, 3) == [1, 0, 0, 0]
        assert expansion(x, 2) == ((1,), 1, ())

    def test_composite_base_half(self):
        # denominator shares a factor with the base but not the base itself
        x = Fraction(1, 2)
        v = valuation(x, 6)
        partial = reconstruct(x, 6, v, v + 5)
        assert (Fraction(1, 2) - partial).numerator % 6 ** (v + 5) == 0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            expand(1, 2, 0)
        with pytest.raises(ValueError):
            expand(1, 1, 3)

    def test_zero_is_canonical(self):
        z = expand(Fraction(0), 5, 3)
        assert z == 0 and type(z) is int
        assert expansion(z, 5) == ((), 0, ()) and valuation(z, 5) == math.inf
        assert digit_run(z, 5, -2, 3) == [0] * 5

    @given(q=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_congruence(self, q, p):
        if q == 0:
            return
        w = 9
        v = valuation(q, p)
        for k in range(w):
            partial = reconstruct(q, p, v, v + k + 1)
            diff = q - partial
            if diff:
                # remaining mass sits at digit index v+k+1 or higher
                scaled = diff / Fraction(p) ** (v + k + 1)
                assert scaled.denominator % p != 0

    @given(q=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=80, deadline=None)
    def test_periodic_descriptor_matches_reexpansion(self, q, p):
        # the listed digits and the period describe 24 digits of the long division
        if q == 0:
            return
        v = valuation(q, p)
        digits, _, _ = expansion(q, p)
        assert digit_run(q, p, v, v + 24) == oracles.digits(q, p, v, v + 24)
        assert digit_run(q, p, v, v + len(digits)) == list(digits)


class TestNormValuation:
    def test_norm_examples(self):
        assert norm(Fraction(1, 2), 2) == 2.0
        assert norm(0, 2) == 0.0
        assert norm(12, 2) == 0.25

    def test_zero_valuation_marker(self):
        assert valuation(0, 3) == math.inf
        assert valuation(9, 3) == 2

    def test_norm_alpha_scaling(self):
        assert norm(4, 2, 0.5) == pytest.approx(2.0 ** (-0.5 * 2))

    @given(
        a=rationals, b=rationals, p=st.sampled_from(BASES), alpha=st.sampled_from([0.5, 1.0, 2.0])
    )
    @settings(max_examples=150, deadline=None)
    def test_ultrametric(self, a, b, p, alpha):
        na, nb = norm(a, p, alpha), norm(b, p, alpha)
        nd = norm(a - b, p, alpha)
        assert nd <= max(na, nb) + 1e-15
        if not math.isclose(na, nb, rel_tol=1e-12) and a != 0 and b != 0:
            assert math.isclose(nd, max(na, nb), rel_tol=1e-12)


class TestSplit:
    def test_examples(self):
        f, i = split(Fraction(1, 2), 2)
        assert f == Fraction(1, 2) and i == 0
        f, i = split(3, 2)
        assert f == 0 and i == 3
        f, i = split(Fraction(5, 2), 2)
        assert f == Fraction(1, 2) and i == 2 and type(i) is int

    @given(q=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=100, deadline=None)
    def test_split_recombines(self, q, p):
        f, i = split(q, p)
        assert 0 <= f < 1
        assert f + i == q
        if f:
            assert (f * Fraction(p) ** (-valuation(q, p))).denominator == 1


class TestArithmetic:
    def test_add_examples(self):
        # sums read the digits of their value, an integral Fraction included
        assert expansion(Fraction(1, 3) + Fraction(2, 3), 2) == ((1,), 1, ())
        assert valuation(1 + 1, 2) == 1 and digit_run(1 + 1, 2, 1, 2) == [1]

    def test_negation_window(self):
        y = -15  # -5 = 1 + 1*3 + 2*3^2 + 2*3^3 + ... in Z_3
        assert (valuation(y, 3), expansion(y, 3)) == (1, ((1, 1, 2), 2, (2,)))
        assert digit_run(y, 3, 0, 7) == [0, 1, 1, 2, 2, 2, 2]

    @given(a=rationals, b=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=100, deadline=None)
    def test_exact_add_matches_rationals(self, a, b, p):
        assert oracles.reads_long_division(a + b, a + b, p)
        assert oracles.reads_long_division(a - b, a - b, p)

    @given(q=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=60, deadline=None)
    def test_split_add_consistency(self, q, p):
        f, i = split(q, p)
        assert f + i == q


class TestEquality:
    def test_semantic_equality_across_windows(self):
        # a window has no effect: the value is the rational, an int exactly
        # when integral
        assert expand(Fraction(1, 3), 2, 5) == expand(Fraction(1, 3), 2, 15)
        assert from_int(6, 2) == expand(6, 2, 9) and type(expand(6, 2, 9)) is int
        assert hash(from_int(6, 2)) == hash(expand(6, 2, 9))
        assert type(expand(Fraction(12, 2), 2, 1)) is int
        half = expand(Fraction(2, 4), 2, 1)
        assert type(half) is Fraction and (half.numerator, half.denominator) == (1, 2)

    def test_window_and_value_cannot_both_be_given(self):
        # the digits come only from the rational, whatever window it was
        # requested with
        for window in (1, 3, 12):
            five = expand(5, 2, window)
            assert expansion(five, 2) == ((1, 0, 1), 3, ()) and digit_run(five, 2, 2, 3) == [1]
        assert expansion(from_int(125, 2, 20), 2)[0] == (1, 0, 1, 1, 1, 1, 1)


class TestRationalCore:
    """Values are their rationals; their digits must agree with the long
    division, results of arithmetic included."""

    @given(
        a=rationals,
        b=rationals,
        p=st.sampled_from(BASES),
        wa=st.integers(min_value=1, max_value=24),
        wb=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_long_division(self, a, b, p, wa, wb):
        xa, xb = expand(a, p, wa), expand(b, p, wb)
        for x, q in ((xa, a), (xb, b), (xa + xb, a + b), (xa + -xb, a - b), (-xa, -a)):
            assert oracles.reads_long_division(x, q, p)
        assert oracles.canonical(xa) and oracles.canonical(xb)
        frac, integral = split(xa, p)
        lo = min(oracles.valuation(a, p), 0)
        assert frac == oracles.from_digits(p, lo, oracles.digits(a, p, lo, 0))
        assert oracles.same_value(integral, a - frac, p)

    @given(
        n=st.integers(min_value=-10**6, max_value=10**6),
        p=st.sampled_from(BASES),
        window=st.one_of(st.none(), st.integers(min_value=1, max_value=24)),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_int_matches_long_division(self, n, p, window):
        assert oracles.same_value(from_int(n, p, window), n, p)


@lru_cache(maxsize=None)
def any_values(p: int):
    """Terminating, periodic, negative-valuation and zero values, and
    terminating values of any digits."""
    fractions = st.builds(
        lambda n, d, k: Fraction(n, d) * Fraction(p) ** k,
        st.integers(-300, 300), st.integers(1, 60), st.integers(-4, 4),
    )
    return st.one_of(fractions, oracles.terminating(p, -4, 4))


class TestDigitRun:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_index_digits(self, data):
        p = data.draw(st.sampled_from(BASES))
        x = data.draw(any_values(p))
        lo = data.draw(st.integers(-8, 12))
        hi = data.draw(st.integers(lo - 2, lo + 30))
        assert digit_run(x, p, lo, hi) == oracles.digits(x, p, lo, hi)

    def test_below_the_valuation_and_through_the_period(self):
        x = Fraction(4, 3)  # 1/3 = 1 + 2 + 2^3 + 2^5 + ... in Z_2
        assert valuation(x, 2) == 2
        assert digit_run(x, 2, -1, 9) == [0, 0, 0, 1, 1, 0, 1, 0, 1, 0]
        assert digit_run(0, 3, -2, 3) == [0] * 5
        assert digit_run(Fraction(1, 4), 2, -3, 2) == [0, 1, 0, 0, 0]


@lru_cache(maxsize=None)
def mixed_operands(p: int):
    """Values with negative valuations, zero, and terminating values whose
    digits sit apart, end below p^0, or are high digits, so that sums and
    rotations carry far or vanish; built by `expand`, an int exactly when
    integral."""
    fractions = st.builds(
        lambda n, d, k, w: expand(Fraction(n, d) * Fraction(p) ** k, p, w),
        st.integers(-200, 200), st.sampled_from([1, 1, 2, 3, 7, 12, 25]),
        st.integers(-4, 3), st.integers(1, 8),
    )
    windows = oracles.high_digits(p, -7, 6).map(lambda q: expand(q, p, 1))
    return st.one_of(fractions, windows, st.just(0))


class TestOneRationalPath:
    """Sums, differences and splits read the digits of their value, and the
    rotation of `oracles` turns each digit by one."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_digitwise_truncated_paths(self, data):
        p = data.draw(oracles.BASES)
        a = data.draw(mixed_operands(p))
        b = data.draw(st.one_of(mixed_operands(p), st.just(a), st.just(-a), st.just(-a + -a)))
        assert oracles.reads_long_division(a + b, Fraction(a) + Fraction(b), p)
        assert oracles.reads_long_division(-a, -Fraction(a), p)
        # split: the digits below p^0 summed, and the rest
        lo = min(oracles.valuation(a, p), 0)
        frac, integral = split(a, p)
        assert frac == oracles.from_digits(p, lo, oracles.digits(a, p, lo, 0))
        assert type(frac) is Fraction and oracles.same_value(integral, a - frac, p)
        # the rotation: one added to every digit mod p, with no carries
        if oracles.in_ball(a, p):
            v, _, preperiod, period = oracles.long_division(a, p)
            top = v + preperiod + 2 * len(period) + 3
            r = oracles.rotate_digits(a, p)
            assert oracles.digits(r, p, 0, top) == [(d + 1) % p for d in oracles.digits(a, p, 0, top)]
            assert oracles.same_value(r, r, p)
        else:
            with pytest.raises(ValueError, match="unit ball"):
                oracles.rotate_digits(a, p)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_difference_matches_sum_with_negation(self, data):
        p = data.draw(oracles.BASES)
        a = data.draw(mixed_operands(p))
        b = data.draw(st.one_of(mixed_operands(p), st.just(a), st.just(-a)))
        assert oracles.reads_long_division(a - b, a + -b, p)

    def test_examples(self):
        # 11 + 13 = 24 = 2^3 * 3
        assert (valuation(24, 2), expansion(24, 2)) == (3, ((1, 1), 2, ()))
        assert digit_run(24, 2, 0, 6) == [0, 0, 0, 1, 1, 0]
        # digits apart: 3 + 32 = 35
        assert (valuation(35, 2), expansion(35, 2)[1:]) == (0, (6, ()))
        assert digit_run(35, 2, 0, 7) == [1, 1, 0, 0, 0, 1, 0]
        # 7/9 - 1/9 = 2/3 = 2 * 3^-1
        d = Fraction(7, 9) - Fraction(1, 9)
        assert (valuation(d, 3), expansion(d, 3)) == (-1, ((2,), 1, ()))
        assert digit_run(d, 3, -2, 2) == [0, 2, 0, 0]
        f, i = split(Fraction(94, 25), 5)
        assert (f, valuation(i, 5), expansion(i, 5), i) == (Fraction(19, 25), 0, ((3,), 1, ()), 3)
        assert digit_run(i, 5, 0, 3) == [3, 0, 0]

    def test_equality_and_hash_read_the_known_digits(self):
        # equality reads the value, not the window it was requested with
        assert expand(1, 2, 2) == from_int(1, 2)
        assert hash(expand(1, 2, 2)) == hash(from_int(1, 2))
        assert expand(2, 2, 2) != from_int(1, 2)
        x = expand(Fraction(5, 9), 3, 3)
        assert x == -(-x) and hash(x) == hash(-(-x))


class TestDerivedDigits:
    """Sums, differences, negations and splits list the digits of the long
    division of their value, as every value does."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_derived_values_list_canonical_digits(self, data):
        p = data.draw(oracles.BASES)
        x = data.draw(mixed_operands(p))
        y = data.draw(st.one_of(mixed_operands(p), st.just(x), st.just(-x)))
        frac, integral = split(x, p)
        for z, q in ((x + y, Fraction(x) + y), (x - y, Fraction(x) - y), (-x, -Fraction(x)),
                     (integral, x - frac)):
            assert expansion(z, p) == expansion(expand(q, p, 1), p) == oracles.long_division(q, p)[1:]
            v, _, preperiod, period = oracles.long_division(q, p)
            top = v + preperiod + 2 * len(period) + 3
            assert digit_run(z, p, v - 2, top) == oracles.digits(q, p, v - 2, top)


class TestFromIntWindow:
    @pytest.mark.parametrize("window", [0, -1])
    def test_non_positive_window_refused(self, window):
        with pytest.raises(ValueError, match="window must be >= 1"):
            from_int(5, 2, window)

    def test_none_selects_one_digit(self):
        assert from_int(5, 2, None) == from_int(5, 2, 1) == expand(5, 2, 1) == 5
        assert expansion(from_int(4, 2), 2)[0] == (1,) and expansion(from_int(0, 3), 3)[0] == ()


@lru_cache(maxsize=None)
def base_p_values(p: int):
    """Zero, integers held as int or as Fraction, periodic tails, negative
    valuations, any denominator, and terminating values of any digits or of
    high digits, whose sums carry far."""
    return st.one_of(
        oracles.rationals(p),
        oracles.terminating(p, -5, 5, max_size=10),
        oracles.high_digits(p, -7, 6),
        st.builds(lambda n, d, k: Fraction(n, d) * Fraction(p) ** k, st.integers(-10**4, 10**4),
                  st.one_of(st.sampled_from([1, 7, 11, 13, 49, 2 * p, p * p]), st.integers(1, 500)),
                  st.integers(-4, 4)),
    )


@given(data=st.data(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=300, deadline=None)
def test_base_p_functions_match_long_division(data, alpha):
    # valuation, expansion, digit_run, split and norm against the long
    # division and Fraction arithmetic, composite bases included; an integer
    # held as a Fraction reads as the int does
    p = data.draw(st.sampled_from(BASES))
    x = data.draw(base_p_values(p))
    q = Fraction(x)
    v, digits, preperiod, period = oracles.long_division(q, p)
    assert valuation(x, p) == oracles.valuation(q, p)
    assert expansion(x, p) == (digits, preperiod, period)
    # below the valuation, through the listed digits and twice through the
    # period; then any window, empty and reversed ones included
    lo, hi = v - 3, v + preperiod + 2 * len(period) + 3
    assert digit_run(x, p, lo, hi) == oracles.digits(q, p, lo, hi)
    lo = data.draw(st.integers(-8, 12))
    hi = data.draw(st.integers(lo - 2, lo + 30))
    assert digit_run(x, p, lo, hi) == oracles.digits(q, p, lo, hi)
    assert oracles.from_digits(p, v, digits[:preperiod]) + (
        oracles.from_digits(p, v + preperiod, period) / (1 - Fraction(p) ** len(period))
        if period else 0) == q
    frac, integral = split(x, p)
    low = min(v, 0)
    assert type(frac) is Fraction and 0 <= frac < 1
    assert frac == oracles.from_digits(p, low, oracles.digits(q, p, low, 0))
    assert integral == q - frac and oracles.in_ball(integral, p)
    # the integral part the split builds is an int exactly when integral
    assert oracles.canonical(integral) or not oracles.canonical(x)
    assert norm(x, p, alpha) == oracles.norm(q, p, alpha)
