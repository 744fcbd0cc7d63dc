import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from padic_fractal.padic import PAdic, PrecisionError, expand, from_int, residues


BASES = [2, 3, 5, 6, 10]

rationals = st.builds(
    Fraction,
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=500),
)


def reconstruct(x: PAdic, upto: int) -> Fraction:
    return sum(
        (Fraction(x.digit(n)) * Fraction(x.p) ** n for n in range(x.v, upto)),
        Fraction(0),
    )


class TestExpand:
    def test_one_third_base_two(self):
        x = expand(Fraction(1, 3), 2, 7)
        assert x.v == 0
        assert x.digits[:7] == (1, 1, 0, 1, 0, 1, 0)
        assert x.period == (1, 0) and x.preperiod == 1
        # multiply back: congruent to 1/3 mod 2^7
        partial = reconstruct(x, 7)
        assert (Fraction(1, 3) - partial).numerator % 2**7 == 0

    def test_minus_one_all_ones(self):
        x = expand(-1, 2, 5)
        assert x.v == 0 and x.digits[:5] == (1, 1, 1, 1, 1)
        assert x.period == (1,)

    def test_half_base_two(self):
        x = expand(Fraction(1, 2), 2, 4)
        assert x.v == -1 and x.digits == (1, 0, 0, 0)

    def test_composite_base_half(self):
        # denominator shares a factor with the base but not the base itself
        x = expand(Fraction(1, 2), 6, 5)
        assert x.value == Fraction(1, 2)
        partial = reconstruct(x, x.v + 5)
        assert (Fraction(1, 2) - partial).numerator % 6 ** (x.v + 5) == 0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            expand(1, 2, 0)
        with pytest.raises(ValueError):
            expand(1, 1, 3)

    def test_zero_is_canonical(self):
        z = expand(0, 5, 3)
        assert z.is_zero() and z.digits == () and z.v == 0

    @given(q=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_congruence(self, q, p):
        if q == 0:
            return
        w = 9
        x = expand(q, p, w)
        for k in range(w):
            partial = reconstruct(x, x.v + k + 1)
            diff = q - partial
            if diff:
                # remaining mass sits at digit index v+k+1 or higher
                scaled = diff / Fraction(p) ** (x.v + k + 1)
                assert scaled.denominator % p != 0

    @given(q=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=80, deadline=None)
    def test_periodic_descriptor_matches_reexpansion(self, q, p):
        if q == 0:
            return
        x = expand(q, p, 6)
        wide = expand(q, p, 24)
        for n in range(x.v, x.v + 24):
            assert x.digit(n) == wide.digit(n)


class TestNormValuation:
    def test_norm_examples(self):
        assert expand(Fraction(1, 2), 2, 4).norm() == 2.0
        assert expand(0, 2, 4).norm() == 0.0
        assert expand(12, 2, 4).norm() == 0.25

    def test_zero_valuation_marker(self):
        assert expand(0, 3, 1).valuation() == math.inf
        assert from_int(9, 3).valuation() == 2

    def test_norm_alpha_scaling(self):
        x = from_int(4, 2)
        assert x.norm(0.5) == pytest.approx(2.0 ** (-0.5 * 2))

    @given(
        a=rationals, b=rationals, p=st.sampled_from(BASES), alpha=st.sampled_from([0.5, 1.0, 2.0])
    )
    @settings(max_examples=150, deadline=None)
    def test_ultrametric(self, a, b, p, alpha):
        xa, xb = expand(a, p, 8), expand(b, p, 8)
        na, nb = xa.norm(alpha), xb.norm(alpha)
        nd = (xa - xb).norm(alpha)
        assert nd <= max(na, nb) + 1e-15
        if not math.isclose(na, nb, rel_tol=1e-12) and a != 0 and b != 0:
            assert math.isclose(nd, max(na, nb), rel_tol=1e-12)


class TestSplit:
    def test_examples(self):
        f, i = expand(Fraction(1, 2), 2, 4).split()
        assert f == Fraction(1, 2) and i.is_zero()
        f, i = expand(3, 2, 4).split()
        assert f == 0 and i.value == 3
        f, i = expand(Fraction(5, 2), 2, 6).split()
        assert f == Fraction(1, 2) and i.value == 2

    @given(q=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=100, deadline=None)
    def test_split_recombines(self, q, p):
        x = expand(q, p, 10)
        f, i = x.split()
        assert 0 <= f < 1
        assert f + i.value == q
        if f:
            assert (f * Fraction(p) ** (-x.v)).denominator == 1


class TestArithmetic:
    def test_add_examples(self):
        p2 = lambda n: from_int(n, 2)
        assert (p2(1) + expand(-1, 2, 5)).is_zero()
        assert (expand(Fraction(1, 3), 2, 8) + expand(Fraction(2, 3), 2, 8)).value == 1
        two = p2(1) + p2(1)
        assert two.v == 1 and two.digits[0] == 1

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            from_int(1, 2) + from_int(1, 3)
        with pytest.raises(TypeError):
            from_int(1, 2) + 1  # type: ignore[operator]

    def test_truncated_addition_digitwise(self):
        a = PAdic(2, 0, (1, 1, 0, 1))  # 11 + unknown tail
        b = PAdic(2, 0, (1, 0, 1, 1))  # 13 + unknown tail
        c = a + b
        assert c.value is None
        assert c.v == 3 and c.digits == (1,)  # 24 = 2^3 * 3, window-limited

    def test_truncated_vanishing_sum(self):
        a = PAdic(2, 0, (1, 1))
        b = PAdic(2, 0, (1, 1))
        with pytest.raises(PrecisionError):
            _ = a + (-b)

    def test_negation_window(self):
        x = PAdic(3, 1, (2, 1, 0))
        y = -x
        assert y.v == 1 and y.digits == (1, 1, 2)

    @given(a=rationals, b=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=100, deadline=None)
    def test_exact_add_matches_rationals(self, a, b, p):
        xa, xb = expand(a, p, 8), expand(b, p, 8)
        assert (xa + xb).value == a + b
        assert (xa - xb).value == a - b

    @given(q=rationals, p=st.sampled_from(BASES))
    @settings(max_examples=60, deadline=None)
    def test_split_add_consistency(self, q, p):
        x = expand(q, p, 10)
        f, i = x.split()
        back = expand(f, p, 10) + i
        assert back.value == q

    def test_shift(self):
        x = from_int(3, 2)
        assert x.shift(2).value == 12 and x.shift(2).v == 2
        assert x.shift(-1).value == Fraction(3, 2)


class TestResidues:
    def test_small_enumerations(self):
        assert [r.residue(2) for r in residues(2, 2)] == [0, 1, 2, 3]
        assert [r.residue(1) for r in residues(3, 1)] == [0, 1, 2]

    def test_cardinality_at_depth_twenty(self):
        assert sum(1 for _ in residues(2, 20)) == 1_048_576

    @pytest.mark.parametrize("p,depth,k", [(2, 6, 2), (3, 5, 1), (6, 3, 2)])
    def test_enumeration_measure(self, p, depth, k):
        # the fraction of residues in any ball l + p^k Z_p is exactly p^-k
        for l in range(min(p**k, 9)):
            count = sum(1 for r in range(p**depth) if r % p**k == l % p**k)
            assert Fraction(count, p**depth) == Fraction(1, p**k)

    def test_precision_error_beyond_truncated_window(self):
        x = PAdic(2, 0, (1, 0, 1))
        assert x.digit(2) == 1
        with pytest.raises(PrecisionError):
            x.digit(3)


class TestEquality:
    def test_semantic_equality_across_windows(self):
        assert expand(Fraction(1, 3), 2, 5) == expand(Fraction(1, 3), 2, 15)
        assert from_int(6, 2) == expand(6, 2, 9)
        assert hash(from_int(6, 2)) == hash(expand(6, 2, 9))

    def test_immutability(self):
        x = from_int(5, 2)
        with pytest.raises(Exception):
            x.v = 3  # type: ignore[misc]

    def test_window_and_value_cannot_both_be_given(self):
        # an exact value's digits come only from its rational: a stored
        # window cannot be paired with a value that disagrees with it
        with pytest.raises(TypeError):
            PAdic(2, 0, (1,), Fraction(5))  # type: ignore[call-arg]
        five = expand(5, 2, 3)
        assert five.digits == (1, 0, 1) and five.digit(2) == 1
        assert from_int(125, 2).digits == (1, 0, 1, 1, 1, 1, 1)


def long_division_expand(q: Fraction, p: int, window: int):
    """Reference: the long-division expansion exact values used to store,
    as (v, digits, preperiod, period)."""
    if q == 0:
        return 0, (), 0, ()
    num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    g = math.gcd(den, p)
    while g > 1:
        num *= p // g
        den //= g
        v -= 1
        while num % p == 0:
            num //= p
            v += 1
        g = math.gcd(den, p)
    binv = pow(den, -1, p)
    seen: dict[int, int] = {}
    stream: list[int] = []
    while num not in seen:
        seen[num] = len(stream)
        d = (num * binv) % p
        stream.append(d)
        num = (num - d * den) // p
    pre, block = stream[: seen[num]], stream[seen[num]:]
    terminates = not any(block)
    win = []
    for i in range(max(window, len(pre))):
        if i < len(pre):
            win.append(pre[i])
        elif terminates:
            win.append(0)
        else:
            win.append(block[(i - len(pre)) % len(block)])
    if terminates:
        return v, tuple(win), 0, ()
    return v, tuple(win), len(pre), tuple(block)


def long_division_digit(expansion, n: int) -> int:
    v, digits, preperiod, period = expansion
    i = n - v
    if n < v or not digits:
        return 0
    if i < len(digits):
        return digits[i]
    return period[(i - preperiod) % len(period)] if period else 0


def assert_long_division(x: PAdic, q: Fraction, window: int) -> None:
    expansion = long_division_expand(q, x.p, window)
    v, digits, preperiod, period = expansion
    assert x.value == q
    assert (x.v, x.digits, x.preperiod, x.period) == expansion
    assert x.window_top == v + len(digits)
    for n in range(v - 2, v + len(digits) + 2 * len(period) + 3):
        assert x.digit(n) == long_division_digit(expansion, n)


class TestRationalCore:
    """Exact values are their rationals; their digits must agree with the
    long-division expansion they used to store, results included."""

    @given(
        a=rationals,
        b=rationals,
        p=st.sampled_from(BASES),
        wa=st.integers(min_value=1, max_value=24),
        wb=st.integers(min_value=1, max_value=24),
        k=st.integers(min_value=-6, max_value=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_long_division(self, a, b, p, wa, wb, k):
        xa, xb = expand(a, p, wa), expand(b, p, wb)
        assert_long_division(xa, a, wa)
        assert_long_division(xb, b, wb)
        # a sum's window spans both operands' requested windows
        va, vb = xa.v, xb.v
        for other, q, w in ((xb, b, wb), (-xb, -b, wb)):
            if a == 0:
                width = w
            elif q == 0:
                width = wa
            else:
                width = max(max(va + wa, vb + w) - min(va, vb), 1)
            assert_long_division(xa + other, a + q, width)
        assert_long_division(xa - xb, a - b, width)  # xa - xb is xa + (-xb)
        assert_long_division(-xa, -a, wa)
        assert_long_division(xa.shift(k), a * Fraction(p) ** k, wa)
        frac, integral = xa.split()
        expansion = long_division_expand(a, p, wa)
        digits = [long_division_digit(expansion, n) for n in range(va, 0)]
        assert frac == sum((d * Fraction(p) ** (va + i) for i, d in enumerate(digits)), Fraction(0))
        assert_long_division(integral, a - frac, max(va + wa, 1) if va < 0 else wa)

    @given(
        n=st.integers(min_value=-10**6, max_value=10**6),
        p=st.sampled_from(BASES),
        window=st.one_of(st.none(), st.integers(min_value=1, max_value=24)),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_int_matches_long_division(self, n, p, window):
        assert_long_division(from_int(n, p, window), Fraction(n), window or 1)
