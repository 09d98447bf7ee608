import cmath
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import planted_modularity_datum, pointed_datum, random_matrix
import relmod.scalars as scalars_mod
from relmod.datum import _is_unit, dumps_datum, loads_datum
from relmod.scalars import (
    MAX_POWER_BITS,
    MAX_POWER_TERMS,
    CycScalar,
    InexactDivision,
    ScalarParseError,
    _degree,
    _laurent_div,
    _power_term_bound,
    _vk_mul,
    _vk_neg,
    cyclotomic_coeffs,
    parse_scalar,
    products_equal,
    quantum_integer,
)
from relmod.sl21 import emit_datum


def evaluate(x, variables=None):
    """x as a complex number at zeta_m = exp(2 pi i/m) and the given variable
    values."""
    z = cmath.exp(2j * cmath.pi / x.conductor)
    total = 0j
    for (zp, vk), c in x.coeffs.items():
        term = complex(c) * z ** zp
        for name, e in vk:
            term *= variables[name] ** e
        total += term
    return total


def scalars(conductor=5, names=("u", "x")):
    """Hypothesis strategy for small CycScalars."""
    if names:
        var_lists = st.lists(st.tuples(st.sampled_from(names), st.integers(-2, 2)),
                             max_size=2)
    else:
        var_lists = st.just([])
    term = st.tuples(
        st.integers(min_value=0, max_value=conductor - 1),
        var_lists,
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    def build(terms):
        out = CycScalar.zero(conductor)
        for zp, vars_, c in terms:
            mono = CycScalar.zeta(conductor, zp) * CycScalar.rational(c, conductor)
            for name, e in vars_:
                mono = mono * CycScalar.variable(name, conductor, e)
            out = out + mono
        return out
    return st.lists(term, max_size=4).map(build)


VARIABLES = ("u", "x", "y", "w")


def monomial_keys(names):
    """Hypothesis strategy for canonical variable keys over names."""
    if not names:
        return st.just(())
    return st.dictionaries(st.sampled_from(names), st.integers(-3, 3).filter(bool),
                           max_size=3).map(lambda d: tuple(sorted(d.items())))


@st.composite
def units(draw, conductor, names):
    """A*X^e: A a nonzero field element (one term or several), X^e a monomial."""
    deg = len(cyclotomic_coeffs(conductor)) - 1
    vk = draw(monomial_keys(names))
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    if draw(st.booleans()):
        coeffs = {(draw(st.integers(0, deg - 1)), vk): draw(nonzero)}
    else:
        coeffs = {(zp, vk): c for zp, c in draw(st.dictionaries(
            st.integers(0, deg - 1), nonzero, min_size=2, max_size=deg)).items()}
    return CycScalar(conductor, coeffs)


@st.composite
def dividend_and_unit(draw):
    """A dividend and a unit, each with or without formal variables: a unit
    of several terms and no variable is divided by its field inverse."""
    conductor = draw(st.sampled_from([3, 5, 7]))
    names = st.sampled_from([(), VARIABLES])
    return draw(scalars(conductor, draw(names))), draw(units(conductor, draw(names)))


class TestCyclotomic:
    def test_known_polynomials(self):
        assert cyclotomic_coeffs(1) == (-1, 1)
        assert cyclotomic_coeffs(2) == (1, 1)
        assert cyclotomic_coeffs(3) == (1, 1, 1)
        assert cyclotomic_coeffs(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)

    def test_zeta_power_sum_vanishes(self):
        # 1 + z + ... + z^(p-1) = 0 for prime p
        for p in (3, 5, 7):
            total = CycScalar.zero(p)
            for k in range(p):
                total = total + CycScalar.zeta(p, k)
            assert total.is_zero


class TestQuantumInteger:
    def test_one_is_one(self):
        assert quantum_integer(1, 5) == CycScalar.one(5)

    def test_ell_vanishes(self):
        assert quantum_integer(5, 5).is_zero

    def test_two_at_three(self):
        # oracle: [2] at q = zeta_3 is q + q^-1 = 2 cos(2 pi / 3) = -1
        numeric = 2 * cmath.cos(2 * cmath.pi / 3).real
        val = quantum_integer(2, 3)
        assert abs(evaluate(val) - numeric) < 1e-12
        assert val == CycScalar.rational(-1, 3)

    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            quantum_integer(2, 4)
        with pytest.raises(ValueError):
            quantum_integer(2, 1)

    def test_negation(self):
        for n in range(-6, 7):
            assert quantum_integer(-n, 7) == -quantum_integer(n, 7)

    @given(n=st.integers(-8, 8), m=st.integers(-8, 8), ell=st.sampled_from([3, 5, 7]))
    def test_determinant_identity(self, n, m, ell):
        # [n][m+1] - [n+1][m] = [n-m]
        lhs = quantum_integer(n, ell) * quantum_integer(m + 1, ell) \
            - quantum_integer(n + 1, ell) * quantum_integer(m, ell)
        assert lhs == quantum_integer(n - m, ell)


class TestRingAxioms:
    @given(a=scalars(), b=scalars())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(a=scalars())
    def test_additive_cancellation(self, a):
        assert (a + (-a)).is_zero

    @given(a=scalars(), b=scalars(), c=scalars())
    @settings(max_examples=40)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=scalars(), b=scalars())
    @settings(max_examples=40)
    def test_evaluation_is_a_homomorphism(self, a, b):
        vals = {"u": cmath.exp(0.7j), "x": cmath.exp(-1.3j)}
        assert abs(evaluate(a * b, vals) - evaluate(a, vals) * evaluate(b, vals)) < 1e-7
        assert abs(evaluate(a + b, vals) - (evaluate(a, vals) + evaluate(b, vals))) < 1e-7

    @given(a=scalars())
    def test_string_round_trip(self, a):
        assert parse_scalar(str(a), 5) == a


class TestDivision:
    def test_exact_division(self):
        u = CycScalar.variable("u", 5)
        z = CycScalar.zeta(5)
        prod = (CycScalar.one(5) + u) * (z - u ** 2)
        assert prod.exact_div(CycScalar.one(5) + u) == z - u ** 2

    def test_inexact_division_raises(self):
        u = CycScalar.variable("u", 5)
        with pytest.raises(InexactDivision):
            (CycScalar.one(5) + u * u).exact_div(CycScalar.one(5) + u)

    def test_units(self):
        u = CycScalar.variable("u", 5)
        assert (u ** 3).inverse() == u ** -3
        unit = CycScalar.zeta(5, 2) * CycScalar.rational(Fraction(3, 2), 5)
        assert unit.try_inverse() == CycScalar.zeta(5, -2) * CycScalar.rational(Fraction(2, 3), 5)
        assert (CycScalar.one(5) + u).try_inverse() is None
        assert CycScalar.zero(5).try_inverse() is None

    def test_field_inverse_of_cyclotomic(self):
        # every nonzero purely cyclotomic scalar is invertible
        a = CycScalar.one(7) + CycScalar.zeta(7, 3) - CycScalar.rational(Fraction(1, 2), 7)
        inv = a.inverse()
        assert (a * inv).is_one

    @given(a=scalars(conductor=5, names=()), b=scalars(conductor=5, names=()))
    @settings(max_examples=30)
    def test_field_division_round_trip(self, a, b):
        if b.is_zero:
            return
        assert (a * b).exact_div(b) == a

    @given(a=st.sampled_from([1, 2, 4, 8, 9, 12, 15])
           .flatmap(lambda m: scalars(conductor=m, names=()))
           .filter(lambda a: not a.is_zero))
    @settings(max_examples=100, deadline=None)
    def test_field_inverse_over_several_conductors(self, a):
        m = a.conductor
        items = tuple(sorted((zp, c) for (zp, _), c in a.coeffs.items()))
        assert (a * scalars_mod._field_inverse(m, items)).is_one
        assert (a * a.inverse()).is_one


class TestUnitDivision:
    """One-term divisors are divided directly and variable-free ones by their
    field inverse; the Laurent long division, which serves every other
    divisor, stays the reference."""

    @given(pair=dividend_and_unit())
    @settings(max_examples=200)
    def test_quotient_by_a_unit(self, pair):
        a, b = pair
        q = a.exact_div(b)
        assert q * b == a
        if not a.is_zero:
            expected = _laurent_div(a, b)
            assert q == expected
            assert str(q) == str(expected)

    def test_field_divisor_skips_the_long_division(self, monkeypatch):
        m = 5
        b = CycScalar(m, {(0, ()): 1, (1, ()): 2})
        a = parse_scalar("u^-1 + 3*z5^2*x", m)
        monkeypatch.setattr(scalars_mod, "_laurent_div", None)
        assert a.exact_div(b) * b == a
        assert CycScalar.one(m).exact_div(b) == b.inverse()

    @given(b=st.sampled_from([3, 5, 7]).flatmap(lambda m: units(m, VARIABLES))
           .filter(lambda b: len(b.coeffs) == 1),
           n=st.integers(-6, 6))
    def test_monomial_powers(self, b, n):
        one = CycScalar.one(b.conductor)
        factor = b if n >= 0 else _laurent_div(one, b)
        expected = one
        for _ in range(abs(n)):
            expected = expected * factor
        assert b ** n == expected

    @given(b=scalars().filter(lambda b: len(b.coeffs) > 1), n=st.integers(0, 6))
    def test_powers_of_several_terms(self, b, n):
        expected = CycScalar.one(b.conductor)
        for _ in range(n):
            expected = expected * b
        assert b ** n == expected

    @given(c=st.sampled_from([3, 5, 7]).flatmap(lambda m: units(m, ()))
           .filter(lambda c: len(c.coeffs) > 1),
           n=st.integers(1, 4))
    def test_negative_powers_of_field_elements(self, c, n):
        inverse = _laurent_div(CycScalar.one(c.conductor), c)
        expected = CycScalar.one(c.conductor)
        for _ in range(n):
            expected = expected * inverse
        assert c ** -n == expected

    @pytest.mark.parametrize("conductor", [3, 5, 7])
    def test_powers_of_one_plus_u(self, conductor):
        one_plus_u = CycScalar.one(conductor) + CycScalar.variable("u", conductor)
        expected = CycScalar.one(conductor)
        for n in range(7):
            assert one_plus_u ** n == expected
            expected = expected * one_plus_u
        with pytest.raises(InexactDivision):
            one_plus_u ** -1

    @pytest.mark.parametrize("conductor", [3, 5, 7])
    def test_non_units_still_fail(self, conductor):
        one = CycScalar.one(conductor)
        u = CycScalar.variable("u", conductor)
        x = CycScalar.variable("x", conductor)
        assert (one + u).try_inverse() is None
        with pytest.raises(InexactDivision, match=r"x is not divisible by 1 \+ u"):
            x.exact_div(one + u)

    @given(t=st.sampled_from([3, 5, 7]).flatmap(lambda m: st.one_of(
        scalars(m, ("u", "x")), scalars(m, ()), units(m, VARIABLES), units(m, ()))))
    @settings(max_examples=200, deadline=None)
    def test_unit_rule_agrees_with_the_inverse(self, t):
        # validation's twists-invertible rule decides without inverting
        assert _is_unit(t) == (t.try_inverse() is not None)

    def test_unit_rule_cases(self):
        u = CycScalar.variable("u", 5)
        one = CycScalar.one(5)
        assert _is_unit((one + CycScalar.zeta(5, 1)) * u)
        assert _is_unit(CycScalar.rational(Fraction(-3, 2), 5) * u ** -2)
        assert not _is_unit(one + u)
        assert not _is_unit(u + u ** -1)
        assert not _is_unit(CycScalar.zero(5))


class TestFieldInverseCount:
    """One-term divisors never reach the field inverse; other divisors reach it
    once per distinct leading coefficient, because the inverse is cached."""

    @pytest.fixture
    def inverses(self):
        """The number of field inverses computed since the cache was cleared."""
        cache = scalars_mod._field_inverse
        cache.cache_clear()
        yield lambda: cache.cache_info().misses
        cache.cache_clear()

    def test_loading_emitted_data_inverts_no_field_element(self, inverses):
        doc = dumps_datum(emit_datum(5))
        assert inverses() == 0
        loads_datum(doc)
        assert inverses() == 0

    def test_one_field_inverse_per_distinct_pivot(self, inverses, monkeypatch):
        rng = random.Random(5)
        a = random_matrix(rng, 6, 4, 5) @ random_matrix(rng, 4, 6, 5)
        divisors = []
        original = CycScalar.exact_div

        def recording(self, other):
            if not self.is_zero:  # zero divided by anything needs no inverse
                divisors.append(other)
            return original(self, other)

        monkeypatch.setattr(CycScalar, "exact_div", recording)
        assert len(a._bareiss()[1]) < 6   # fewer than 6 pivots: det(a) = 0
        field_divisors = {d for d in divisors if len(d.coeffs) > 1}
        assert len(field_divisors) >= 2
        assert inverses() == len(field_divisors)
        assert len(divisors) > 3 * len(field_divisors)


CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 12)


@st.composite
def scalar_pairs(draw):
    """Two scalars over one of CONDUCTORS, in up to two variables."""
    m = draw(st.sampled_from(CONDUCTORS))
    return draw(scalars(m, ("u", "x"))), draw(scalars(m, ("u", "x")))


@st.composite
def one_term_factors(draw):
    """(conductor, factor literals), each a signed numeral, root of unity or
    variable with an optional exponent of either sign."""
    m = draw(st.sampled_from(CONDUCTORS))
    bases = st.one_of(st.integers(0, 6).map(str),
                      st.tuples(st.integers(0, 6), st.integers(1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
                      st.just(f"z{m}"), st.sampled_from(["u", "x", "s0_1", "d1_2"]))

    def factor(parts):
        sign, base, exponent = parts
        if exponent is not None and "/" in base:
            base = f"({base})"
        return sign + base + ("" if exponent is None else f"^{exponent}")

    factors = st.tuples(st.sampled_from(["", "-"]), bases,
                        st.one_of(st.none(), st.integers(-3, 3))).map(factor)
    return m, draw(st.lists(factors, min_size=1, max_size=6))


def coefficient_types_ok(x):
    return all(type(c) in (int, Fraction) and c != 0 for c in x.coeffs.values())


class TestRepresentation:
    """A coefficient is an int or a Fraction, never a float or zero, and the
    path that built a value does not show in ==, hash or str."""

    @given(pair=scalar_pairs(), n=st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_no_float_or_zero_coefficient(self, pair, n):
        a, b = pair
        results = [a + b, a - b, a * b, parse_scalar(str(a), a.conductor)]
        for op in (lambda: a.exact_div(b), lambda: b.inverse(), lambda: b ** n,
                   lambda: b ** -n):
            try:
                results.append(op())
            except (InexactDivision, ZeroDivisionError):
                pass
        for x in results:
            assert coefficient_types_ok(x), x.coeffs

    @given(pair=scalar_pairs())
    @settings(max_examples=100, deadline=None)
    def test_string_round_trip_over_several_conductors(self, pair):
        for x in pair:
            assert parse_scalar(str(x), x.conductor) == x

    @given(case=one_term_factors())
    @settings(max_examples=200, deadline=None)
    def test_product_of_one_term_factors(self, case):
        m, factors = case
        try:
            parsed = [parse_scalar(f, m) for f in factors]
        except ScalarParseError:  # 0 to a negative power
            with pytest.raises(ScalarParseError):
                parse_scalar("*".join(factors), m)
            return
        expected = parsed[0]
        for f in parsed[1:]:
            expected = expected * f
        got = parse_scalar("*".join(factors), m)
        assert got == expected and str(got) == str(expected)
        assert coefficient_types_ok(got)

    def test_integral_numeral_product_has_an_int_coefficient(self):
        for text, value in (("3/2*2/3", 1), ("3/2^0", 1), ("(3/2)^0", 1), ("1/2*4", 2),
                            ("-2*1/2*u", -CycScalar.variable("u", 5)), ("3/2*2/3*z5", None),
                            ("1/2+1/2", 1), ("(1/2+u)+(1/2-u)", 1)):
            x = parse_scalar(text, 5)
            assert coefficient_types_ok(x), text
            assert all(type(c) is int for c in x.coeffs.values()), (text, x.coeffs)
            if value is not None:
                assert x == value
        half = CycScalar.rational(Fraction(1, 2), 5)
        assert (half + half).coeffs == {(0, ()): 1}
        assert type((half + half).coeffs[(0, ())]) is int
        assert parse_scalar("3/2*1/3", 5).coeffs == {(0, ()): Fraction(1, 2)}
        # a one-term product (_times_term) and a product of sums (_canon)
        for x in (parse_scalar("1/2*u", 5) * 2,
                  parse_scalar("1/2 + 3/2*u", 5) * parse_scalar("2 - 2*x", 5)):
            assert all(type(c) is int for c in x.coeffs.values()), x.coeffs
        assert str(parse_scalar("1/2*u", 5) * 2) == "u"

    @given(pair=scalar_pairs(), r=st.fractions(min_value=-5, max_value=5, max_denominator=6)
           .filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_int_and_fraction_paths_agree(self, pair, r):
        x = pair[0]
        m = x.conductor
        as_fractions = CycScalar(m, {k: Fraction(c) for k, c in x.coeffs.items()})
        round_trip = x * CycScalar.rational(r, m) * CycScalar.rational(1 / r, m)
        for y in (as_fractions, round_trip):
            assert y == x and hash(y) == hash(x) and str(y) == str(x)
        one = CycScalar.rational(Fraction(2, 3), m) * CycScalar.rational(Fraction(3, 2), m)
        assert one == CycScalar.one(m) == 1 and hash(one) == hash(CycScalar.one(m))
        assert str(one) == "1"


@st.composite
def scalars_and_zeros(draw):
    """(x, z): x a field element or one with formal variables, z a zero of
    x's conductor built one of three ways, shared or not."""
    m = draw(st.sampled_from(CONDUCTORS))
    x = draw(scalars(m, draw(st.sampled_from([(), ("u", "x")]))))
    y = draw(scalars(m, ("u",)))
    z = draw(st.sampled_from([CycScalar.zero(m), CycScalar(m, {}), y - y]))
    return x, z


class TestZeroShortCircuit:
    """A zero operand of + - * returns the other operand, its negation or the
    zero at once, after coercion: the results equal the canonical ones in ==
    and str(), ints and Fractions still coerce, and a zero of another
    conductor still raises."""

    @given(pair=scalars_and_zeros())
    @settings(max_examples=150, deadline=None)
    def test_results_are_canonical(self, pair):
        x, z = pair
        m = x.conductor
        # the canonical constructor sums the terms afresh
        same = CycScalar(m, dict(x.coeffs))
        neg = CycScalar(m, {k: -c for k, c in x.coeffs.items()})
        zero = CycScalar(m, {})
        for got, want in ((x + z, same), (z + x, same), (x - z, same), (z - x, neg),
                          (x * z, zero), (z * x, zero)):
            assert got == want and str(got) == str(want)
            assert hash(got) == hash(want) and coefficient_types_ok(got)
            assert got.conductor == m

    @given(x=st.sampled_from([3, 5, 12]).flatmap(lambda m: scalars(m, ("u",))),
           r=st.sampled_from([0, 2, -1, Fraction(0), Fraction(3, 4)]))
    @settings(max_examples=80, deadline=None)
    def test_ints_and_fractions_still_coerce(self, x, r):
        m = x.conductor
        c = CycScalar.rational(r, m)
        for got, want in ((x + r, x + c), (r + x, c + x), (x - r, x - c), (r - x, c - x),
                          (x * r, x * c), (r * x, c * x)):
            assert got == want and str(got) == str(want) and coefficient_types_ok(got)
        zero = CycScalar.zero(m)
        assert zero + r == c == r + zero and str(zero * r) == "0"

    @given(x=scalars(5, ("u",)))
    @settings(max_examples=40, deadline=None)
    def test_zero_of_another_conductor_raises(self, x):
        other = CycScalar.zero(7)
        for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other, lambda: other * x,
                   lambda: CycScalar.zero(5) * other):
            with pytest.raises(ValueError, match="conductor mismatch"):
                op()
        assert x != other  # == compares conductors first, even between zeros


class TestUnitMultiplier:
    """A product by the unit 1 returns the other operand itself."""

    @given(pair=scalars_and_zeros())
    @settings(max_examples=100, deadline=None)
    def test_product_by_one_is_the_operand(self, pair):
        x, _ = pair
        m = x.conductor
        one = CycScalar.one(m)
        assert x * 1 is x and 1 * x is x
        assert x * Fraction(1) is x and x * one is x and x * CycScalar.zeta(m, m) is x
        assert one * x == x and str(one * x) == str(x)
        if len(x.coeffs) > 1:
            assert one * x is x


class TestPowerTermBound:
    """A power of a sum is expanded only under MAX_POWER_TERMS bounded terms."""

    @given(b=st.sampled_from([1, 3, 4, 5]).flatmap(lambda m: scalars(m, ("u", "x", "y")))
           .filter(lambda b: len(b.coeffs) > 1),
           n=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_bound_is_an_upper_bound(self, b, n):
        t = len({vk for _, vk in b.coeffs})
        deg = len(cyclotomic_coeffs(b.conductor)) - 1
        assert len((b ** n).coeffs) <= _power_term_bound(deg, n, t)

    def test_huge_exponent_is_rejected_before_expanding(self):
        for text in ["(1+u)^" + "9" * 4000, "(1+u+x+y)^60", "(1+u)^-99999999999"]:
            t0 = time.perf_counter()
            with pytest.raises(ScalarParseError, match=f"more than {MAX_POWER_TERMS} terms"):
                parse_scalar(text, 5)
            assert time.perf_counter() - t0 < 0.1, text

    def test_powers_under_the_limit_are_expanded(self):
        assert len(parse_scalar("(1+u)^50", 5).coeffs) == 51
        assert parse_scalar("(1+z5)^-3", 5) == (CycScalar.one(5) + CycScalar.zeta(5)) ** -3
        assert parse_scalar("(u*x)^-400", 5) == CycScalar.variable("u", 5, -400) \
            * CycScalar.variable("x", 5, -400)


class TestPowerBitBound:
    """A one-term power is computed only when both parts of its coefficient
    stay within MAX_POWER_BITS, so that str() can print them."""

    def test_huge_power_is_rejected_before_computing_it(self):
        for text in ["3^100000000", "(2/3)^-2000000*u", "-(2*z5*u)^100000000"]:
            t0 = time.perf_counter()
            with pytest.raises(ScalarParseError, match="more than 4300 digits"):
                parse_scalar(text, 5)
            assert time.perf_counter() - t0 < 0.1, text

    def test_powers_within_the_bound_parse(self):
        assert parse_scalar("2^64", 5) == CycScalar.rational(2 ** 64, 5)
        assert parse_scalar("(2/3)^-50", 5) == CycScalar.rational(Fraction(3, 2) ** 50, 5)
        # 14284 bits: the largest power of two let through prints in 4300 digits
        assert MAX_POWER_BITS == 14_284
        assert str(parse_scalar("2^14284", 5)) == str(2 ** 14284)
        with pytest.raises(ScalarParseError):
            parse_scalar("2^14285", 5)
        # a unit coefficient never grows, and a first power keeps its numeral
        assert parse_scalar("u^100000*(-1)^99999", 5) == -CycScalar.variable("u", 5, 100000)
        big = "9" * 4300
        assert str(parse_scalar(f"({big})^-1", 5)) == f"1/{big}"
        # sums and products stop at the same limit
        assert str(parse_scalar("2^14283+2^14283", 5)) == str(2 ** 14284)
        assert str(parse_scalar("2^7142*2^7142", 5)) == str(2 ** 14284)

    def test_long_product_stops_at_the_first_unprintable_partial_product(self):
        # unchecked, the second would take about a second to build
        for text in ["*".join(["2^14284"] * 3000), "*".join(["(2^14284+u)"] * 100)]:
            t0 = time.perf_counter()
            with pytest.raises(ScalarParseError, match="more than 4300 digits"):
                parse_scalar(text, 5)
            assert time.perf_counter() - t0 < 0.1, text[:20]

    def test_power_of_a_sum_is_bounded_before_computing_it(self):
        # the term bound lets these through; their coefficients would not print
        for text in ["(2^100+u)^2000", "(1+z5)^99999", "(1+z5)^-99999"]:
            t0 = time.perf_counter()
            with pytest.raises(ScalarParseError, match="more than 4300 digits"):
                parse_scalar(text, 5)
            assert time.perf_counter() - t0 < 0.1, text
        # (1+z5)^n has coefficients of about 0.7 n bits; the bound is n + 3
        big = parse_scalar("(1+z5)^14000", 5)
        assert parse_scalar(str(big), 5) == big
        assert parse_scalar("(1+z5)^-2", 5) == (CycScalar.one(5) + CycScalar.zeta(5)) ** -2


class TestParsing:
    def test_grammar_examples(self):
        assert parse_scalar("3/4", 5) == CycScalar.rational(Fraction(3, 4), 5)
        assert parse_scalar("z5^2", 5) == CycScalar.zeta(5, 2)
        assert parse_scalar("u^-2", 5) == CycScalar.variable("u", 5, -2)
        assert parse_scalar("-(1 + y)*x", 5) == \
            -(CycScalar.one(5) + CycScalar.variable("y", 5)) * CycScalar.variable("x", 5)

    def test_conductor_mismatch(self):
        with pytest.raises(ScalarParseError):
            parse_scalar("z3", 5)

    def test_bad_input(self):
        with pytest.raises(ScalarParseError):
            parse_scalar("1 +", 5)
        with pytest.raises(ScalarParseError):
            parse_scalar("(1", 5)

    @pytest.mark.parametrize("text", ["1/0", "0^-1", "(1+u)^-1",
                                      "(" * 2000 + "1" + ")" * 2000,
                                      "9" * 5000, "u^" + "9" * 5000, "z" + "9" * 5000,
                                      "3^100000000", "(2/3)^-2000000*u", "3^10000",
                                      "2^14284*2^14284", "2^14284+2^14284",
                                      "(2^14284+u)*(2^14284+x)", "(2^14284+u)^2",
                                      "(2^14284+z5)^-1"],
                             ids=["division-by-zero", "zero-inverse", "non-unit-inverse",
                                  "nested-too-deep", "numeral-too-long",
                                  "exponent-too-long", "root-order-too-long",
                                  "numeral-power-too-large", "fraction-power-too-large",
                                  "numeral-power-unprintable", "product-unprintable",
                                  "sum-unprintable", "product-of-sums-unprintable",
                                  "power-of-a-sum-unprintable", "inverse-unprintable"])
    def test_literal_that_cannot_be_evaluated_is_a_parse_error(self, text):
        with pytest.raises(ScalarParseError):
            parse_scalar(text, 5)

    def test_conductor_mixing_rejected(self):
        with pytest.raises(ValueError):
            CycScalar.one(3) + CycScalar.one(5)


# Literal trees: ("num", text, value), ("zeta",), ("var", name), ("pow", base,
# n), ("neg", child), ("prod", children) and ("sum", [(sign, child), ..]).
def literal_trees(conductor):
    leaves = st.one_of(
        st.integers(0, 9).map(lambda n: ("num", str(n), Fraction(n))),
        st.tuples(st.integers(0, 9), st.integers(1, 4)).map(
            lambda t: ("num", f"{t[0]}/{t[1]}", Fraction(*t))),
        st.just(("zeta",)),
        st.sampled_from(["u", "x", "s0_1", "d1_2", "z"]).map(lambda n: ("var", n)))

    def extend(children):
        return st.one_of(
            st.tuples(st.just("pow"), children, st.integers(-2, 3)),
            st.tuples(st.just("neg"), children),
            st.tuples(st.just("prod"), st.lists(children, min_size=2, max_size=3)),
            st.tuples(st.just("sum"), st.lists(
                st.tuples(st.sampled_from("+-"), children), min_size=2, max_size=3)))
    return st.recursive(leaves, extend, max_leaves=6)


def tree_value(tree, m):
    kind = tree[0]
    if kind == "num":
        return CycScalar.rational(tree[2], m)
    if kind == "zeta":
        return CycScalar.zeta(m)
    if kind == "var":
        return CycScalar.variable(tree[1], m)
    if kind == "pow":
        return tree_value(tree[1], m) ** tree[2]
    if kind == "neg":
        return -tree_value(tree[1], m)
    if kind == "prod":
        out = CycScalar.one(m)
        for child in tree[1]:
            out = out * tree_value(child, m)
        return out
    out = CycScalar.zero(m)
    for sign, child in tree[1]:
        out = out + tree_value(child, m) if sign == "+" else out - tree_value(child, m)
    return out


WHITESPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n"])


@st.composite
def rendered_literals(draw):
    """(conductor, literal, tree): a literal tree rendered in the grammar,
    with random whitespace around every token."""
    m = draw(st.sampled_from(CONDUCTORS))
    tree = draw(literal_trees(m))

    def ws():
        return draw(WHITESPACE)

    def atom(t):
        if t[0] == "num":
            return ws() + t[1]
        if t[0] == "zeta":
            return ws() + f"z{m}"
        if t[0] == "var":
            return ws() + t[1]
        return ws() + "(" + expr(t) + ws() + ")"

    def factor(t):
        if t[0] == "neg":
            return ws() + "-" + factor(t[1])
        if t[0] == "pow":
            n = t[2]
            return atom(t[1]) + ws() + "^" + ws() + ("-" + ws() if n < 0 else "") + str(abs(n))
        return atom(t)

    def term(t):
        if t[0] == "prod":
            return (ws() + "*").join(factor(c) for c in t[1])
        return factor(t)

    def expr(t):
        if t[0] != "sum":
            return term(t)
        (sign, first), *rest = t[1]
        # a leading '-' reads as the unary minus of the first factor, which
        # negates the whole term all the same
        out = (ws() + "-" if sign == "-" else "") + term(first)
        return out + "".join(ws() + sign + term(c) for sign, c in rest)

    return m, expr(tree) + ws(), tree


# Each malformed literal with its exact message, at conductor 5.
MALFORMED_LITERALS = [
    ("*", "unexpected '*' at offset 0 in '*'"),
    (")", "unexpected ')' at offset 0 in ')'"),
    ("+", "unexpected '+' at offset 0 in '+'"),
    ("^", "unexpected '^' at offset 0 in '^'"),
    ("u*)", "unexpected ')' at offset 2 in 'u*)'"),
    ("2*+", "unexpected '+' at offset 2 in '2*+'"),
    ("1 - * 2", "unexpected '*' at offset 4 in '1 - * 2'"),
    ("-^0", "unexpected '^' at offset 1 in '-^0'"),
    ("", "unexpected end of input in ''"),
    ("  ", "unexpected end of input in '  '"),
    ("1 +", "unexpected end of input in '1 +'"),
    ("--", "unexpected end of input in '--'"),
    ("(1", "unbalanced parentheses in '(1'"),
    ("(1 2)", "unbalanced parentheses in '(1 2)'"),
    ("2 3", "trailing input '3' in '2 3'"),
    ("1)", "trailing input ')' in '1)'"),
    ("2u", "trailing input 'u' in '2u'"),
    ("u^2^3", "trailing input '^' in 'u^2^3'"),
    ("u^x", "bad exponent in 'u^x'"),
    ("u^3/4", "bad exponent in 'u^3/4'"),
    ("u^--2", "bad exponent in 'u^--2'"),
    ("(1+u)^", "bad exponent in '(1+u)^'"),
    ("1 $", "bad character at offset 1 in '1 $'"),
    ("u % 2", "bad character at offset 1 in 'u % 2'"),
    ("1/0 $", "bad character at offset 3 in '1/0 $'"),
    ("* 2/", "bad character at offset 3 in '* 2/'"),
    ("z3", "root of unity z3 does not match conductor 5"),
    ("z05^2*z07", "root of unity z7 does not match conductor 5"),
    ("1/0", "cannot evaluate '1/0': Fraction(1, 0)"),
    ("0^-1", "cannot evaluate '0^-1': Fraction(1, 0)"),
    ("(1+u)^-1", "cannot evaluate '(1+u)^-1': 1 is not divisible by 1 + u"),
    ("(" * 2000 + "1" + ")" * 2000, "literal nested too deeply"),
    ("9" * 5000, "numeral of 5000 characters is too long"),
    ("1/" + "9" * 5000, "numeral of 5002 characters is too long"),
    ("u^" + "9" * 5000, "numeral of 5000 characters is too long"),
    ("3^100000000", "3 to the power 100000000 may have more than 4300 digits"),
    ("(2*u)^-100000000", "2 to the power -100000000 may have more than 4300 digits"),
    ("(1+u+x+y)^60", "a sum of 4 monomials to the power 60 may have more than 10000 terms"),
    ("(2^100+u)^2000", "a sum to the power 2000 may have a coefficient of more than 4300 digits"),
    ("2^14284*2^14284", "a coefficient has more than 4300 digits"),
    ("2^14284+2^14284", "a coefficient has more than 4300 digits"),
]


def literals_of(datum) -> list[str]:
    """Every scalar literal of a datum's document."""
    doc = dumps_datum(datum)
    out = [row["value"] for row in doc["translation"]["psi"]]
    qdim = doc["translation"]["quantum_dimension"]
    out += qdim.get("generator_values", []) + [row["value"] for row in qdim.get("table", [])]
    for table in ("dims", "twists"):
        out += [x for vals in doc[table].values() for x in vals]
    out += [x for b in doc["sprime"] for row in b["entries"] for x in row]
    return out


class TestScanner:
    """The one-pass scanner: values, whitespace, round trips and messages."""

    @given(case=rendered_literals())
    @settings(max_examples=300, deadline=None)
    def test_parses_to_the_value_arithmetic_builds(self, case):
        m, text, tree = case
        try:
            expected = tree_value(tree, m)
        except (ZeroDivisionError, InexactDivision):
            with pytest.raises(ScalarParseError, match="cannot evaluate"):
                parse_scalar(text, m)
            return
        got = parse_scalar(text, m)
        assert got == expected and str(got) == str(expected), text
        assert coefficient_types_ok(got)

    def test_every_literal_of_the_paper_data_round_trips(self):
        data = [emit_datum(ell) for ell in (3, 5, 7)]
        data += [pointed_datum(n, random.Random(n)) for n in (3, 5, 7)]
        data += [planted_modularity_datum(random.Random(size), size)[0]
                 for size in (1, 2, 3, 4)]
        count = 0
        for datum in data:
            for text in literals_of(datum):
                assert str(parse_scalar(text, datum.conductor)) == text
                count += 1
        assert count > 2500

    @pytest.mark.parametrize("text,message", MALFORMED_LITERALS,
                             ids=[t[:12] or "empty" for t, _ in MALFORMED_LITERALS])
    def test_malformed_literal_message(self, text, message):
        with pytest.raises(ScalarParseError) as exc:
            parse_scalar(text, 5)
        assert str(exc.value) == message

    def test_whitespace_may_follow_the_last_token(self):
        for text in ["1 ", " 1\t", "u^-2 ", "(1 + z5)^2\n", "-u * x  "]:
            assert parse_scalar(text, 5) == parse_scalar(text.strip(), 5)

    def test_powers_and_minuses_bind_as_before(self):
        u = CycScalar.variable("u", 5)
        assert parse_scalar("-2^2", 5) == -4
        assert parse_scalar("--u", 5) == u
        assert parse_scalar("- -(1+u)", 5) == 1 + u
        assert parse_scalar("---(1+u)^2", 5) == -(1 + u) ** 2
        assert parse_scalar("1--u", 5) == 1 + u
        assert parse_scalar("3/4^2", 5) == CycScalar.rational(Fraction(9, 16), 5)
        assert parse_scalar("-(1+u)^2*u ^ - 1", 5) == -(1 + u) ** 2 * u ** -1
        assert parse_scalar("z05^7", 5) == CycScalar.zeta(5, 2)
        assert parse_scalar("u^0*0^0", 5) == 1


# Pieces of literals at and around the one-term reader's edges: numerals and
# exponents of 18 and 19 digits, zero numerals, names that are or look like
# z{m}, repeated and cancelling names, and edits (whitespace, operators,
# fractions, parentheses) that send a text to the scanner or make it malformed.
ONE_TERM_NUMERALS = ["0", "00", "1", "7", "012", "9" * 18, "1" + "0" * 17, "9" * 19,
                     "1" + "0" * 18]
ONE_TERM_NAMES = ["u", "x", "s0_1", "d1_2", "z", "zz3", "z5", "z05", "z7", "z5a", "_t"]
ONE_TERM_EXPONENTS = [None, 0, 1, -1, 2, -3, 10 ** 17, -(10 ** 18 - 1), 10 ** 18, -(10 ** 18)]
ONE_TERM_EDITS = ["", " ", "\t", "*", "^", "-", "--", "/", "/3", "(", ")", "+", "0", "2/3",
                  "z5", "^2"]


@st.composite
def near_one_term_literals(draw):
    """(conductor, text): a one-term literal, edited at one place half of the time."""
    m = draw(st.sampled_from((1, 3, 5, 7, 12)))
    parts = [draw(st.sampled_from(ONE_TERM_NUMERALS))] if draw(st.booleans()) else []
    names = st.sampled_from(ONE_TERM_NAMES)
    for _ in range(draw(st.integers(0 if parts else 1, 4))):
        # a name drawn again repeats it, a power of -1 after 1 cancels it
        name, e = draw(names), draw(st.sampled_from(ONE_TERM_EXPONENTS))
        parts.append(name if e is None else f"{name}^{e}")
    text = draw(st.sampled_from(["", "-"])) + "*".join(parts)
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.sampled_from(ONE_TERM_EDITS)) \
            + text[pos + draw(st.integers(0, 1)):]
    return m, text


def typed_coeffs(x):
    return {k: (c, type(c)) for k, c in x.coeffs.items()}


class TestOneTermReader:
    """parse_scalar reads a printed literal through _read_canonical; the value
    is the scanner's in ==, str() and coefficient type, and a text that the
    reader does not take gets the scanner's value or message."""

    @given(case=near_one_term_literals())
    @settings(max_examples=600, deadline=None)
    def test_agrees_with_the_scanner(self, case):
        m, text = case
        got = scalars_mod._read_canonical(text, m)
        if got is not None:
            expected, pos = scalars_mod._scan_expr(text, 0, m)
            assert pos == len(text)
            assert got == expected and str(got) == str(expected), text
            assert typed_coeffs(got) == typed_coeffs(expected)
        try:
            expected = scalars_mod._parse_expr(text, m)
        except ScalarParseError as exc:
            with pytest.raises(ScalarParseError) as got_exc:
                parse_scalar(text, m)
            assert str(got_exc.value) == str(exc)
            return
        got = parse_scalar(text, m)
        assert got == expected and str(got) == str(expected), text
        assert typed_coeffs(got) == typed_coeffs(expected)

    def test_takes_the_literals_it_is_for_and_no_others(self):
        printed = ["-d0_1^-1*s1_3*u^-2", "d0_1^-1*s1_3", "u^-4", "1", "-1",
                   "9" * 18 + "*u", "u^" + "9" * 18, "z", "z5a*zz", "z5", "1/2*u",
                   "-3/2*z5^3", "1 - z5", "-1/2 + u^2 + 1/2*z5 - 3*z5^2*u"]
        scanner = ["9" * 19, "u^" + "9" * 19, "z05*u", "u*z5", "u*2", "2^3",
                   "--u", "u ", " u", "(u)", "u+x", "u*", "u^", "-", "0", "00*u", "u*u^-1",
                   "u^0", "1/0", "z5^4", "z7", "x*u", "u - 1", "1 + 1", "1  + u", "1 +u"]
        for text in printed:
            assert scalars_mod._read_canonical(text, 5) is not None, text
        for text in scanner:
            assert scalars_mod._read_canonical(text, 5) is None, text

    def test_every_emitted_sl21_literal_is_one_term(self):
        for ell in (3, 5, 7):
            d = emit_datum(ell)
            for text in literals_of(d):
                assert scalars_mod._read_canonical(text, ell) is not None, text
                expected, _ = scalars_mod._scan_expr(text, 0, ell)
                assert typed_coeffs(parse_scalar(text, ell)) == typed_coeffs(expected)


READER_CONDUCTORS = (1, 2, 3, 4, 5, 8, 9, 12, 15, 21)


@st.composite
def printed_scalars(draw):
    """(conductor, scalar): a random scalar, with or without formal variables,
    whose numerals str() prints in at most 18 digits."""
    m = draw(st.sampled_from(READER_CONDUCTORS))
    names = draw(st.sampled_from([(), ("u", "x"), ("s0_1", "u", "z")]))
    coeff = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                      st.fractions(-100, 100, max_denominator=10 ** 6)).filter(bool)
    vk = monomial_keys(names)
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2 * m), vk), coeff, max_size=5))
    return m, CycScalar(m, terms)


# Edits of a printed literal.  Most take it out of the printed form; each
# must give the scanner's value or message, and a text the reader still takes
# must be a printed literal itself (such as "1 + u" from "u").
def _spaced(text):
    return text.replace(" + ", "  + ", 1) if " + " in text else " " + text


def _unsorted_names(text):
    head, sep, rest = text.partition("*")
    return rest + "*" + head if sep and head[0] > "9" and not head.startswith("z") else None


def _repeated_name(text):
    name = text.lstrip("-").split("*")[-1].split("^")[0]
    return None if name[0] <= "9" or name.startswith("z") else text + "*" + name


PRINTED_EDITS = [
    _spaced,
    lambda t: t.replace("*", " * ", 1) if "*" in t else None,
    lambda t: t + "\n",
    _unsorted_names,
    _repeated_name,
    lambda t: t + " + " + t.lstrip("-"),     # a repeated key
    lambda t: "1 + " + t if not t.startswith("-") else None,  # a key before the first
    lambda t: t + " + z{m}^{deg}",            # a zeta power of deg Phi_m
    lambda t: t + " + z{m}^{m}",
    lambda t: "1" + "0" * 18 + "*" + t.lstrip("-") if t.lstrip("-")[0] > "9" else None,
    lambda t: t + " + 0",
    lambda t: "0",
    lambda t: t + " + z7",                    # no root of unity at these conductors
]


class TestCanonicalReader:
    """_read_canonical reads what str() prints, agrees with _parse_expr on
    every text it takes, and leaves every edited text to the scanner."""

    @given(case=printed_scalars())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, case):
        m, v = case
        text = str(v)
        # the reader takes every printed literal whose numerals have at most
        # 18 digits; terms that meet on one key can sum to a longer fraction,
        # which it leaves to the scanner, as it leaves "0"
        short = all(len(str(abs(c.numerator))) <= 18 and len(str(c.denominator)) <= 18
                    for c in v.coeffs.values())
        assert (scalars_mod._read_canonical(text, m) is None) == (v.is_zero or not short)
        got = parse_scalar(text, m)
        assert got == v and str(got) == text
        assert typed_coeffs(got) == typed_coeffs(v)

    @given(case=printed_scalars(), edit=st.sampled_from(PRINTED_EDITS))
    @settings(max_examples=600, deadline=None)
    def test_edited_text_reaches_the_scanner(self, case, edit):
        m, v = case
        text = edit(str(v))
        if text is None:
            return
        text = text.replace("{m}", str(m)).replace("{deg}", str(len(cyclotomic_coeffs(m)) - 1))
        fast = scalars_mod._read_canonical(text, m)
        try:
            expected = scalars_mod._parse_expr(text, m)
        except ScalarParseError as exc:
            assert fast is None, text
            with pytest.raises(ScalarParseError) as got_exc:
                parse_scalar(text, m)
            assert str(got_exc.value) == str(exc)
            return
        got = parse_scalar(text, m)
        assert got == expected and str(got) == str(expected), text
        assert typed_coeffs(got) == typed_coeffs(expected)
        if fast is not None:
            # only a text that is still in the printed form may stay
            assert str(fast) == text, text
            assert typed_coeffs(fast) == typed_coeffs(expected)

    @given(case=rendered_literals())
    @settings(max_examples=300, deadline=None)
    def test_every_text_it_takes_has_the_scanners_value(self, case):
        m, text, _ = case
        for t in (text, text.strip(), " ".join(text.split())):
            fast = scalars_mod._read_canonical(t, m)
            if fast is not None:
                expected = scalars_mod._parse_expr(t, m)
                assert fast == expected and str(fast) == str(expected), t
                assert typed_coeffs(fast) == typed_coeffs(expected)

    def test_edits_that_leave_the_printed_form(self):
        for text, m in [("1  + u", 5), (" u", 5), ("u*u", 5), ("x*u", 5), ("u + u", 5),
                        ("u + 1", 5), ("z5^4", 5), ("z5^5", 5), ("1" + "0" * 18, 5),
                        ("1/" + "1" + "0" * 18, 5), ("0", 5), ("z7", 5), ("u^0", 5),
                        ("z3^2", 3), ("z1", 1), ("z2", 2), ("z4^2", 4)]:
            assert scalars_mod._read_canonical(text, m) is None, (text, m)


@st.composite
def one_term_pairs(draw):
    """(conductor, [(zeta power, exponent map, coefficient)] * 2)."""
    m = draw(st.sampled_from(CONDUCTORS + (9, 15)))
    exps = st.dictionaries(st.sampled_from(["u", "x", "s0_1"]), st.integers(-2, 2), max_size=3)
    coeff = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4)).filter(bool)
    term = st.tuples(st.integers(0, 2 * m), exps, coeff)
    return m, draw(term), draw(term)


class TestOneTermProduct:
    @given(case=one_term_pairs())
    @settings(max_examples=300, deadline=None)
    def test_product_is_the_canonical_one_key(self, case):
        m, (z1, e1, c1), (z2, e2, c2) = case
        a = CycScalar(m, {(z1, tuple(e1.items())): c1})
        b = CycScalar(m, {(z2, tuple(e2.items())): c2})
        merged = {n: e1.get(n, 0) + e2.get(n, 0) for n in {*e1, *e2}}
        expected = CycScalar(m, {(z1 + z2, tuple(merged.items())): Fraction(c1) * c2})
        for got in (a * b, b * a):
            assert got == expected and hash(got) == hash(expected)
            assert str(got) == str(expected)
            assert typed_coeffs(got) == typed_coeffs(expected)


PRODUCT_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15)


@lru_cache(maxsize=None)
def _zeta_quadruples(m, half):
    """The zeta powers (za, zb, zc, zd), each below deg Phi_m, with
    za + zb - zc - zd = m/2 (mod m) when half is set, else 0 (mod m)."""
    deg, target = _degree(m), m // 2 if half else 0
    return tuple(q for q in itertools.product(range(deg), repeat=4)
                 if (q[0] + q[1] - q[2] - q[3] - target) % m == 0)


@st.composite
def product_quadruples(draw):
    """(m, a, b, c, d, equal): four scalars over Q(zeta_m), and whether a*b
    == c*d holds by construction (None when that is not known).

    "equal" and "half" draw one-term a, b, c and solve for a one-term d:
    its zeta power from a quadruple above, so the powers' sums reach deg
    Phi_m and wrap mod m, and "half" makes the products equal only through
    zeta^(m/2) = -1 (d's coefficient negated).  Variable keys come from
    three names with exponents +-1, +-2, so merged keys cancel, as in
    d0_1^-1 * d0_1.  One part of d may then be spoiled.  "free" draws four
    one-term scalars, "sums" four scalars of up to four terms or zero, and
    "common" such scalars with b == d."""
    m = draw(st.sampled_from(PRODUCT_CONDUCTORS))
    kind = draw(st.sampled_from(["equal", "half", "free", "sums", "common"]))
    if kind == "sums":
        return (m, *(draw(scalars(m, ("u", "d0_1"))) for _ in range(4)), None)
    if kind == "common":
        a, b = draw(scalars(m, ("u", "d0_1"))), draw(scalars(m, ("u", "d0_1")))
        c = a if draw(st.booleans()) else draw(scalars(m, ("u", "d0_1")))
        return m, a, b, c, b, c is a or None
    deg = _degree(m)
    coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)

    def var_key():
        names = draw(st.lists(st.sampled_from(["d0_1", "s1_3", "u"]), unique=True, max_size=2))
        return tuple(sorted((n, draw(st.sampled_from([-2, -1, 1, 2]))) for n in names))

    if kind == "free":
        return (m, *(CycScalar(m, {(draw(st.integers(0, deg - 1)), var_key()): draw(coeff)})
                     for _ in range(4)), None)
    half = kind == "half" and m % 2 == 0 and bool(_zeta_quadruples(m, True))
    za, zb, zc, zd = draw(st.sampled_from(_zeta_quadruples(m, half)))
    ca, cb, cc = draw(coeff), draw(coeff), draw(coeff)
    cd = ca * cb / cc * (-1 if half else 1)
    va, vb, vc = var_key(), var_key(), var_key()
    vd = _vk_mul(_vk_mul(va, vb), _vk_neg(vc))
    spoil = draw(st.sampled_from([None, "coefficient", "sign", "zeta", "variable"]))
    if spoil == "coefficient":
        cd *= 2
    elif spoil == "sign":
        cd = -cd
    elif spoil == "zeta":
        zd = (zd + 1) % deg
    elif spoil == "variable":
        vd = _vk_mul(vd, (("u", 1),))
    a, b, c, d = (CycScalar(m, {(z, v): x}) for z, v, x in
                  ((za, va, ca), (zb, vb, cb), (zc, vc, cc), (zd, vd, cd)))
    return m, a, b, c, d, spoil is None or None


class TestProductsEqual:
    """products_equal(a, b, c, d) decides a*b == c*d; on one-term operands
    it compares keys and builds no product."""

    @given(case=product_quadruples())
    @settings(max_examples=600, deadline=None)
    def test_agrees_with_the_products(self, case):
        m, a, b, c, d, equal = case
        got = products_equal(a, b, c, d)
        assert got == (a * b == c * d)
        assert products_equal(c, d, a, b) == got
        if equal:
            assert got

    @pytest.mark.parametrize("m, a, b, c, d, equal", [
        (4, "z4", "z4", "-1", "1", True),                 # zeta^2 = -1
        (4, "z4", "z4", "1", "1", False),
        (12, "z12^3", "z12^3", "-1", "1", True),          # zeta^6 = -1
        (8, "2*z8^3", "z8^3", "-2*z8^2", "1", True),      # zeta^6 = -zeta^2
        (6, "z6", "z6", "-1", "z6", False),               # zeta^2 != -zeta
        (5, "-d0_1^-1*u", "d0_1", "u", "-1", True),       # the variable cancels
        (5, "d0_1^-1*u", "d0_1", "u^-1", "1", False),
        (7, "1/2*z7^5", "4*z7^4", "2", "z7^2", True),     # zeta^9 = zeta^2
        (2, "3/4", "-4/3", "-1", "1", True),
        (1, "u", "u^-1", "1", "1", True),
    ])
    def test_one_term_examples_build_no_product(self, monkeypatch, m, a, b, c, d, equal):
        a, b, c, d = (parse_scalar(t, m) for t in (a, b, c, d))
        assert (a * b == c * d) is equal
        calls = []
        mul = CycScalar.__mul__
        monkeypatch.setattr(CycScalar, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
        assert products_equal(a, b, c, d) is equal and calls == []

    def test_a_common_nonzero_factor_cancels_with_no_product(self, monkeypatch):
        a, b, c = (parse_scalar(t, 5) for t in ("1 + z5*u", "2 - u^-1", "1 + z5"))
        calls = []
        mul = CycScalar.__mul__
        monkeypatch.setattr(CycScalar, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
        assert products_equal(a, b, a, b) and not products_equal(a, b, c, b)
        assert calls == []

    def test_other_operands_are_multiplied(self):
        m = 5
        one, zero = CycScalar.one(m), CycScalar.zero(m)
        s = parse_scalar("1 + z5", m)
        assert products_equal(s, one, one, s)
        assert not products_equal(s, s, s, one)
        assert products_equal(zero, s, zero, one) and not products_equal(zero, s, one, one)
        with pytest.raises(ValueError, match="conductor mismatch"):
            products_equal(one, one, one, CycScalar.one(7))


def canon_product(a, b):
    """The reference product: every pair of terms multiplied as Fractions or
    ints and summed into canonical form by _canon."""
    m = a.conductor
    return scalars_mod._canon(m, (
        ((z1 + z2, scalars_mod._vk_mul(v1, v2)), c1 * c2)
        for (z1, v1), c1 in a.coeffs.items()
        for (z2, v2), c2 in b.coeffs.items()))


PRODUCT_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 25, 27)


@st.composite
def field_element_pairs(draw):
    """(a, b): variable-free scalars of one conductor, int or Fraction
    coefficients, with the number of terms of each drawn from 1 up."""
    m = draw(st.sampled_from(PRODUCT_CONDUCTORS))
    coeff = st.one_of(st.integers(-6, 6), st.integers(-10 ** 20, 10 ** 20),
                      st.fractions(-5, 5, max_denominator=12)).filter(bool)

    def element():
        terms = draw(st.dictionaries(st.integers(0, 2 * m), coeff, min_size=1, max_size=6))
        return CycScalar(m, {(zp, ()): c for zp, c in terms.items()})
    return element(), element()


def no_fraction_is_integral(x):
    return all(type(c) is int or c.denominator != 1 for c in x.coeffs.values())


class TestFieldProduct:
    """A variable-free product with a term count over one on either side goes
    through integer numerators; its coefficients are the term-by-term
    product's, and an integral one is an int."""

    @given(pair=field_element_pairs())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_term_by_term_product(self, pair):
        a, b = pair
        expected = canon_product(a, b)
        for got in (a * b, b * a):
            assert got.coeffs == expected
            assert typed_coeffs(got) == {k: (c, type(c)) for k, c in expected.items()}
            assert no_fraction_is_integral(got)

    def test_shapes_cancellation_and_small_conductors(self):
        z = CycScalar.zeta
        cases = []
        for m in PRODUCT_CONDUCTORS:
            one = CycScalar.one(m)
            half = CycScalar.rational(Fraction(1, 2), m)
            a = one + z(m) + half * z(m, 2)
            # (1 - x)(1 + x) = 1 - x^2: the middle terms cancel
            cases += [(a, z(m, 3)), (a, -half), (a, a), (one - z(m), one + z(m)),
                      (one + z(m, 2), one - z(m, 2)),
                      (half * z(m, m - 1) + 3, z(m) * Fraction(2, 3) - 1)]
            if m > 2:
                cases.append((a, a.inverse()))
        # (1 + zeta_3) zeta_3 = -1 and the inverse give one-term results
        cases.append((CycScalar(3, {(0, ()): 1, (1, ()): 1}), z(3)))
        for a, b in cases:
            expected = canon_product(a, b)
            got = a * b
            assert got.coeffs == expected, (a, b)
            assert typed_coeffs(got) == {k: (c, type(c)) for k, c in expected.items()}
            assert no_fraction_is_integral(got), got.coeffs
        assert CycScalar(3, {(0, ()): 1, (1, ()): 1}) * z(3) == -1
        for m in (5, 9, 16):
            a = CycScalar(m, {(0, ()): Fraction(1, 3), (1, ()): 2, (2, ()): -1})
            product = a * a.inverse()
            assert product.coeffs == {(0, ()): 1} and type(product.coeffs[(0, ())]) is int

    def test_products_with_variables_keep_the_term_by_term_path(self, monkeypatch):
        calls = []
        original = scalars_mod._canon
        monkeypatch.setattr(scalars_mod, "_canon",
                            lambda m, terms: calls.append(1) or original(m, terms))
        u = CycScalar.variable("u", 5)
        a = parse_scalar("1/2 + z5", 5)
        for x, y in ((a, a * u), (a * u, a), (a, u * Fraction(1, 3)), (a + u, a)):
            calls.clear()
            assert (x * y).coeffs == canon_product(x, y)
            assert len(calls) == 2  # the product and the reference
        # a sum times a one-term factor with a zeta power stays term by term,
        # with int or Fraction coefficients on either side
        q = quantum_integer(5, 7)
        for x, y in ((q, CycScalar.zeta(7, 4)), (CycScalar.zeta(7, 2) * Fraction(1, 2), q),
                     (a, CycScalar.zeta(5, 3)), (CycScalar.zeta(5, 2) * 4, a)):
            calls.clear()
            assert (x * y).coeffs == canon_product(x, y)
            assert len(calls) == 2
        # a rational factor scales in place, and two sums take the field product
        for x, y in ((q, CycScalar.rational(Fraction(1, 2), 7)), (q, CycScalar.rational(-3, 7)),
                     (a, a)):
            calls.clear()
            assert (x * y).coeffs == canon_product(x, y)
            assert len(calls) == 1

    def test_digits_at_every_packing_width(self, monkeypatch):
        # product digits just below, at and just above 2^7, 2^15, 2^31 and
        # 2^63 and far above 64 bits, with the L1 bound that sets the width
        # on either side of each: 8, 16, 32 and 64-bit words, then whole bytes
        widths = []
        original = scalars_mod._kronecker_width
        monkeypatch.setattr(scalars_mod, "_kronecker_width",
                            lambda bound: widths.append(original(bound)) or widths[-1])
        for bits in (7, 15, 31, 63, 64, 71, 100, 200):
            for x in (2 ** bits - 2, 2 ** bits - 1, 2 ** bits, 2 ** bits + 1):
                for m in (3, 5, 7, 16):
                    z = CycScalar.zeta(m)
                    r = 1 << (bits // 2)
                    k = (x - 1) // 2
                    cases = [
                        # digits k, -(k + 1), 1 over 3, with the L1 bound
                        # 2(k + 1), which is x or x + 1
                        (k - z, (1 - z) * Fraction(1, 3)),
                        # digits -x, 2x, -x: (x - x z) (-1 + z)
                        (CycScalar(m, {(0, ()): x}) * (1 - z), z - 1),
                        # digits r^2, 0, -r^2 with both sides multi-term
                        ((1 + z) * r, (1 - z) * r),
                        (-(1 + z) * Fraction(r, 3), (z ** 2 + 1) * Fraction(x, 7)),
                    ]
                    for a, b in cases:
                        expected = canon_product(a, b)
                        for got in (a * b, b * a):
                            assert got.coeffs == expected, (m, x, str(a), str(b))
                            assert no_fraction_is_integral(got)
        assert {8, 16, 32, 64} <= set(widths)
        wide = {w for w in widths if w > 64}
        assert wide and all(w % 8 == 0 for w in wide) and wide - {128, 256}

    @pytest.mark.parametrize("ell", [241, 511])
    def test_middle_quantum_integers_at_large_ell(self, ell):
        a, b = quantum_integer(ell // 2, ell), quantum_integer(ell // 2 + 1, ell)
        expected = canon_product(a, b)
        assert (a * b).coeffs == expected
        assert (b * a).coeffs == expected
        # [n][n+1] = [2n] + [2n-2] + .. + [2]
        total = CycScalar.zero(ell)
        for j in range(ell // 2):
            total = total + quantum_integer(2 * (ell // 2) - 2 * j, ell)
        assert a * b == total

    def test_one_term_fraction_factor_in_either_order(self, monkeypatch):
        # the one-term factor's zeta power below deg Phi_m, at or above it,
        # zero and negative; on int and on Fraction sums
        calls = []
        original = scalars_mod._field_product
        monkeypatch.setattr(scalars_mod, "_field_product",
                            lambda a, b: calls.append(1) or original(a, b))
        for m in PRODUCT_CONDUCTORS:
            sums = [CycScalar(m, {(0, ()): 1, (1, ()): -2, (2, ()): 3}),
                    CycScalar(m, {(0, ()): Fraction(1, 2), (3, ()): Fraction(-5, 6)}),
                    parse_scalar(f"1 + z{m}^{m - 1}*3/4", m)]
            for x in sums:
                if len(x.coeffs) < 2:
                    continue
                for zp in (0, 1, m - 2, m - 1, m, -1, -m - 3):
                    for c in (Fraction(1, 3), Fraction(-7, 2), Fraction(5, 1) / 2):
                        y = CycScalar.zeta(m, zp) * c
                        expected = canon_product(x, y)
                        for got in (x * y, y * x):
                            assert got.coeffs == expected, (m, str(x), str(y))
                            assert typed_coeffs(got) == {k: (v, type(v))
                                                         for k, v in expected.items()}
                            assert no_fraction_is_integral(got)
        # a nonzero zeta power on a one-term Fraction side takes the field product
        assert calls

    def test_exact_div_by_one_term_fraction(self):
        for m in PRODUCT_CONDUCTORS:
            x = CycScalar(m, {(0, ()): 4, (1, ()): Fraction(-3, 2), (2, ()): 9}) \
                + CycScalar.zeta(m, m - 1) * 6
            if len(x.coeffs) < 2:
                continue
            for zp in (0, 1, m - 1, 2 * m + 1):
                for c in (Fraction(3, 4), Fraction(-2, 9), Fraction(1, 6)):
                    y = CycScalar.zeta(m, zp) * c
                    inv = CycScalar.zeta(m, -zp) * (1 / c)
                    got = x.exact_div(y)
                    assert got.coeffs == canon_product(x, inv), (m, zp, c)
                    assert no_fraction_is_integral(got)
                    assert got * y == x


# ---------------------------------------------------------------------------
# homomorphism oracle
# ---------------------------------------------------------------------------

ORACLE_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15)
# the residue each variable goes to, modulo every prime below
ORACLE_RESIDUES = {"d1_2": 3, "s0_1": 5, "u": 7, "x": 11}


def _totient(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _images_of_zeta(m, count=2):
    """(p, r) for the first count primes p = 1 (mod m) above 10^6, r an
    element of order exactly m modulo p, hence a root of Phi_m mod p."""
    out = []
    p = (10 ** 6 // m + 1) * m + 1
    while len(out) < count:
        if all(p % q for q in range(2, isqrt(p) + 1)):
            for g in range(2, p):
                r = pow(g, (p - 1) // m, p)
                if all(pow(r, m // q, p) != 1 for q in range(2, m + 1)
                       if m % q == 0 and all(q % s for s in range(2, q))):
                    out.append((p, r))
                    break
        p += m
    return out


ORACLE_PRIMES = {m: _images_of_zeta(m) for m in ORACLE_CONDUCTORS}


def image(x, p, r):
    """x modulo p with zeta_m at r and each variable at its residue: each
    term's coefficient, zeta power and variable powers taken mod p and
    summed, with no canonical form involved."""
    total = 0
    for (zp, vk), c in x.coeffs.items():
        t = c.numerator * pow(c.denominator, -1, p) * pow(r, zp, p) % p
        for name, e in vk:
            t = t * pow(ORACLE_RESIDUES[name], e, p) % p
        total += t
    return total % p


def assert_canonical_shape(x):
    """Zeta powers in 0..phi(m)-1, names strictly ascending with nonzero int
    powers, and nonzero coefficients that are ints when integral."""
    deg = _totient(x.conductor)
    for (zp, vk), c in x.coeffs.items():
        assert type(zp) is int and 0 <= zp < deg, x.coeffs
        names = [name for name, _ in vk]
        assert names == sorted(set(names)), x.coeffs
        assert all(type(e) is int and e for _, e in vk), x.coeffs
        assert c and (type(c) is int or type(c) is Fraction and c.denominator != 1), x.coeffs


@st.composite
def oracle_operands(draw):
    """(m, a, b): one-term scalars half of the time, each side, else sums of
    up to four terms; zeta powers mostly below phi(m), so that one-term
    products meet deg Phi_m and m, and variables from ORACLE_RESIDUES."""
    m = draw(st.sampled_from(ORACLE_CONDUCTORS))
    deg = _totient(m)
    names = st.sampled_from(sorted(ORACLE_RESIDUES))
    coeff = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6)).filter(bool)
    power = st.one_of(st.integers(0, deg - 1), st.integers(-m, 2 * m))
    term = st.tuples(power, st.dictionaries(names, st.integers(-3, 3), max_size=3), coeff)

    def operand():
        size = 1 if draw(st.booleans()) else draw(st.integers(1, 4))
        terms = draw(st.lists(term, min_size=size, max_size=size))
        return CycScalar(m, {(zp, tuple(vk.items())): c for zp, vk, c in terms})
    return m, operand(), operand()


class TestHomomorphismOracle:
    """Reducing mod p, with zeta_m sent to a root of Phi_m mod p and each
    variable to a fixed residue, is a ring homomorphism.  So products, sums,
    quotients and parsed printed literals map to the product, sum, quotient
    and value of the images, for two primes; this shares no code with _canon
    or the F_p image of the matrices."""

    def test_zeta_images_have_order_m(self):
        for m, pairs in ORACLE_PRIMES.items():
            assert len({p for p, _ in pairs}) == 2
            for p, r in pairs:
                assert (p - 1) % m == 0 and pow(r, m, p) == 1
                assert all(pow(r, k, p) != 1 for k in range(1, m))

    @given(case=oracle_operands())
    @settings(max_examples=300, deadline=None)
    def test_operations_map_to_the_images(self, case):
        m, a, b = case
        prod, total, diff = a * b, a + b, a - b
        quotients = [(prod, b, a)] if b else []
        if b:
            try:
                quotients.append((a, b, a.exact_div(b)))
            except InexactDivision:
                pass
        for x in (prod, b * a, total, diff) + tuple(q for *_, q in quotients):
            assert_canonical_shape(x)
        for p, r in ORACLE_PRIMES[m]:
            ia, ib = image(a, p, r), image(b, p, r)
            assert image(prod, p, r) == image(b * a, p, r) == ia * ib % p
            assert image(total, p, r) == (ia + ib) % p
            assert image(diff, p, r) == (ia - ib) % p
            for dividend, divisor, q in quotients:
                assert image(q, p, r) * image(divisor, p, r) % p == image(dividend, p, r)
            factors = {}
            for x in (a, b, prod, total):
                assert image(parse_scalar(str(x), m, factors=factors), p, r) == image(x, p, r)
