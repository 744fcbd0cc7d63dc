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


def old_digit(x: PAdic, n: int) -> int:
    """Reference: the per-index digit reader that digit_run replaced."""
    if x.value == 0 or n < x.v:
        return 0
    i = n - x.v
    digits, preperiod, period = x._expansion
    if i < len(digits):
        return digits[i]
    if period:
        return period[(i - preperiod) % len(period)]
    if x.value is not None:
        return 0
    raise PrecisionError(
        f"digit at p^{n} lies beyond the truncated window [{x.v}, {x.window_top})"
    )


def digit_outcome(call):
    try:
        return call(), None
    except PrecisionError as exc:
        return None, str(exc)


def any_values(p: int):
    # terminating, periodic, negative-valuation, zero and truncated values
    exact = st.builds(
        lambda n, d, k, w: expand(Fraction(n, d) * Fraction(p) ** k, p, w),
        st.integers(-300, 300), st.integers(1, 60), st.integers(-4, 4), st.integers(1, 12),
    )
    truncated = st.builds(
        lambda v, lead, rest: PAdic(p, v, (lead, *rest)),
        st.integers(-4, 4), st.integers(1, p - 1), st.lists(st.integers(0, p - 1), max_size=8),
    )
    return st.one_of(exact, truncated)


class TestDigitRun:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_index_digits(self, data):
        p = data.draw(st.sampled_from(BASES))
        x = data.draw(any_values(p))
        lo = data.draw(st.integers(-8, 12))
        hi = data.draw(st.integers(lo - 2, lo + 30))
        want = digit_outcome(lambda: [old_digit(x, n) for n in range(lo, hi)])
        assert digit_outcome(lambda: x.digit_run(lo, hi)) == want
        assert digit_outcome(lambda: x.digit(lo)) == digit_outcome(lambda: old_digit(x, lo))
        assert x.is_zero() == (x.value == 0)

    def test_below_the_valuation_and_through_the_period(self):
        x = expand(Fraction(4, 3), 2, 2)  # 1/3 = 1 + 2 + 2^3 + 2^5 + ... in Z_2
        assert x.v == 2
        assert x.digit_run(-1, 9) == [0, 0, 0, 1, 1, 0, 1, 0, 1, 0]
        assert expand(0, 3, 4).digit_run(-2, 3) == [0] * 5
        assert expand(Fraction(1, 4), 2, 3).digit_run(-3, 2) == [0, 1, 0, 0, 0]

    def test_truncated_window_raises_at_its_first_missing_digit(self):
        x = PAdic(3, 1, (2, 0, 1))
        assert x.digit_run(0, 4) == [0, 2, 0, 1]
        with pytest.raises(PrecisionError, match=r"digit at p\^4 lies beyond .* \[1, 4\)"):
            x.digit_run(0, 5)
        with pytest.raises(PrecisionError, match=r"digit at p\^6 lies beyond"):
            x.digit_run(6, 7)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_residue_matches_per_index_sum(self, data):
        p = data.draw(st.sampled_from(BASES))
        x = data.draw(any_values(p).filter(lambda y: y.is_zero() or y.v >= 0))
        depth = data.draw(st.integers(0, 12))
        want = digit_outcome(lambda: sum(old_digit(x, n) * p**n for n in range(depth)))
        assert digit_outcome(lambda: x.residue(depth)) == want


# -- the digit-wise truncated paths that one rational path replaced -------


def old_eq(a: PAdic, b: PAdic) -> bool:
    if a.p != b.p:
        return False
    if a.value is not None or b.value is not None:
        return a.value == b.value
    return a.v == b.v and a.digits == b.digits


def leading(p: int, v: int, digits: list[int], why: str) -> PAdic:
    lead = next((i for i, d in enumerate(digits) if d), None)
    if lead is None:
        raise PrecisionError(why)
    return PAdic(p, v + lead, tuple(digits[lead:]))


def old_add(a: PAdic, b: PAdic) -> PAdic:
    """Reference: exact sums as rationals, truncated ones by a carry loop.
    Its "share no digit window" raise is unreachable (a truncated window's
    top lies above its valuation) and is kept as it was."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    lo = min(a.v, b.v)
    if a.value is not None and b.value is not None:
        hi = max(a.v + a._width, b.v + b._width)
        return expand(a.value + b.value, a.p, max(hi - lo, 1))
    hi = min(x.window_top for x in (a, b) if x.value is None)
    if hi <= lo:
        raise PrecisionError("operands share no digit window")
    out, carry = [], 0
    for da, db in zip(a.digit_run(lo, hi), b.digit_run(lo, hi)):
        carry, d = divmod(da + db + carry, a.p)
        out.append(d)
    return leading(a.p, lo, out, "sum vanishes across the shared window; valuation undetermined")


def old_neg(x: PAdic) -> PAdic:
    if x.is_zero():
        return x
    if x.value is not None:
        return expand(-x.value, x.p, x._width)
    return PAdic(x.p, x.v, (x.p - x.digits[0],) + tuple(x.p - 1 - d for d in x.digits[1:]))


def old_shift(x: PAdic, k: int) -> PAdic:
    if x.is_zero() or k == 0:
        return x
    if x.value is None:
        return PAdic(x.p, x.v + k, x.digits)
    return expand(x.value * Fraction(x.p) ** k, x.p, x._width)


def old_split(x: PAdic) -> tuple[Fraction, PAdic]:
    if x.is_zero() or x.v >= 0:
        return Fraction(0), x
    if x.value is not None:
        unit, mod = x.value * x.p ** -x.v, x.p ** -x.v
        frac = Fraction(unit.numerator * pow(unit.denominator, -1, mod) % mod, mod)
        return frac, expand(x.value - frac, x.p, max(x.v + x._width, 1))
    frac = sum((Fraction(d, x.p ** -n) for n, d in enumerate(x.digit_run(x.v, 0), x.v)), Fraction(0))
    return frac, leading(x.p, 0, list(x.digits[-x.v:]), "integral part vanishes across the window")


def old_rotate(x: PAdic) -> PAdic:
    p = x.p
    if x.value is None:
        rles = [(d + 1) % p for d in x.digit_run(0, x.window_top)]
        return leading(p, 0, rles, "rotation vanishes across a truncated window")
    start = x.v + x.preperiod if x.period else x.window_top
    block = x.period or (0,)
    head = sum((d + 1) % p * p**n for n, d in enumerate(x.digit_run(0, start)))
    tail = sum((d + 1) % p * p**i for i, d in enumerate(block))
    return expand(head + Fraction(tail * p**start, 1 - p ** len(block)), p, start + len(block))


def fields(x: PAdic) -> tuple:
    return (x.p, x.v, x.digits, x.window_top, x.exactness, x.value, x.period)


def same_result(new, old) -> None:
    """Equal fields, equal values under the replaced ==, equal hashes, or
    identical PrecisionError messages."""
    try:
        want = old()
    except PrecisionError as exc:
        with pytest.raises(PrecisionError) as got:
            new()
        assert str(got.value) == str(exc)
        return
    got = new()
    if isinstance(want, tuple):  # split: (fraction, integral part)
        assert got[0] == want[0]
        got, want = got[1], want[1]
    assert fields(got) == fields(want)
    assert got == want and old_eq(got, want) and hash(got) == hash(want)


def mixed_operands(p: int):
    # exact values with negative valuations and zero; truncated windows
    # that sit apart, end below p^0, or are made of high digits so that
    # sums and rotations vanish
    exact = st.builds(
        lambda n, d, k, w: expand(Fraction(n, d) * Fraction(p) ** k, p, w),
        st.integers(-200, 200), st.sampled_from([1, 1, 2, 3, 7, 12, 25]),
        st.integers(-4, 3), st.integers(1, 8),
    )
    truncated = st.builds(
        lambda v, lead, rest: PAdic(p, v, (lead, *rest)),
        st.integers(-7, 6), st.integers(1, p - 1),
        st.lists(st.sampled_from([0, 1, p - 1]), max_size=6),
    )
    return st.one_of(exact, truncated, st.just(expand(0, p, 3)))


class TestOneRationalPath:
    """Exact and truncated values share one rational path for +, -,
    negation, shift, split and rotate_digits; it must give what the
    digit-wise truncated code gave, errors included."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_digitwise_truncated_paths(self, data):
        from padic_fractal.complex_map import rotate_digits

        p = data.draw(st.sampled_from([2, 3, 5, 6]))
        a = data.draw(mixed_operands(p))
        b = data.draw(st.one_of(
            mixed_operands(p), st.just(a), st.just(old_neg(a)), st.just(old_neg(a).shift(1)),
        ))
        k = data.draw(st.integers(-5, 5))
        same_result(lambda: a + b, lambda: old_add(a, b))
        same_result(lambda: -a, lambda: old_neg(a))
        same_result(lambda: a.shift(k), lambda: old_shift(a, k))
        same_result(lambda: a.split(), lambda: old_split(a))
        if a.is_zero() or a.v >= 0:
            same_result(lambda: rotate_digits(a), lambda: old_rotate(a))
        assert (a == b) == old_eq(a, b)
        if a == b:
            assert hash(a) == hash(b)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_difference_matches_sum_with_negation(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 6]))
        a = data.draw(mixed_operands(p))
        b = data.draw(st.one_of(mixed_operands(p), st.just(a), st.just(old_neg(a))))
        same_result(lambda: a - b, lambda: old_add(a, old_neg(b)))

    def test_examples(self):
        # 11 + 13 = 24 = 2^3 * 3: only the digit at 2^3 lies below the top 4
        w = PAdic(2, 0, (1, 1, 0, 1)) + PAdic(2, 0, (1, 0, 1, 1))
        assert (w.v, w.digits, w.window_top, w.value) == (3, (1,), 4, None)
        # a truncated minus an exact value keeps the truncated window's top
        d = PAdic(3, -2, (1, 2, 0, 1)) - expand(Fraction(1, 9), 3, 2)
        assert (d.v, d.digits, d.window_top) == (-1, (2, 0, 1), 2)
        # windows apart: the higher one is zero below its valuation
        s = PAdic(2, 0, (1, 1)) + PAdic(2, 5, (1,))
        assert (s.v, s.digits, s.window_top) == (0, (1, 1), 2)
        with pytest.raises(PrecisionError, match="integral part vanishes"):
            PAdic(5, -2, (3, 4)).split()
        with pytest.raises(PrecisionError, match=r"digit at p\^-2 lies beyond"):
            PAdic(5, -3, (3,)).split()

    def test_equality_and_hash_read_the_known_digits(self):
        # the same window value known to different tops differs
        assert PAdic(2, 0, (1, 0)) != PAdic(2, 0, (1,))
        assert PAdic(2, 0, (1, 0)) != from_int(1, 2)
        assert PAdic(3, 1, (2, 1)) == -(-PAdic(3, 1, (2, 1)))
        assert hash(PAdic(3, 1, (2, 1))) == hash(-(-PAdic(3, 1, (2, 1))))


class TestFromIntWindow:
    @pytest.mark.parametrize("window", [0, -1])
    def test_non_positive_window_refused(self, window):
        with pytest.raises(ValueError, match="window must be >= 1"):
            from_int(5, 2, window)

    def test_none_selects_one_digit(self):
        assert from_int(5, 2, None) == from_int(5, 2, 1) == expand(5, 2, 1)
        assert from_int(4, 2).digits == (1,) and from_int(0, 3).digits == ()
