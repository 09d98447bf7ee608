import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_matrix
import relmod.scalars as scalars_mod
from relmod.datum import dumps_datum, loads_datum
from relmod.scalars import (
    CycScalar,
    InexactDivision,
    ScalarParseError,
    _laurent_div,
    cyclotomic_coeffs,
    parse_scalar,
    quantum_integer,
)
from relmod.sl21 import emit_datum


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
    conductor = draw(st.sampled_from([3, 5, 7]))
    names = draw(st.sampled_from([(), VARIABLES]))
    return draw(scalars(conductor, names)), draw(units(conductor, names))


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
        assert abs(val.evaluate() - numeric) < 1e-12
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
        assert abs((a * b).evaluate(vals) - a.evaluate(vals) * b.evaluate(vals)) < 1e-7
        assert abs((a + b).evaluate(vals) - (a.evaluate(vals) + b.evaluate(vals))) < 1e-7

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
        assert (CycScalar.zeta(5, 2) * CycScalar.rational(Fraction(3, 2), 5)).is_unit
        assert not (CycScalar.one(5) + u).is_unit
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
        inv = scalars_mod._zinv(m, {zp: c for (zp, _), c in a.coeffs.items()})
        assert (a * CycScalar(m, {(zp, ()): c for zp, c in inv.items()})).is_one
        assert (a * a.inverse()).is_one


class TestUnitDivision:
    """One-term divisors are divided directly; the Laurent long division, which
    serves every other divisor, stays the reference."""

    @given(pair=dividend_and_unit())
    @settings(max_examples=150)
    def test_quotient_by_a_unit(self, pair):
        a, b = pair
        q = a.exact_div(b)
        assert q * b == a
        if not a.is_zero:
            expected = _laurent_div(a, b)
            assert q == expected
            assert str(q) == str(expected)

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


class TestFieldInverseCount:
    """One-term divisors never reach the field inverse; other divisors reach it
    once per distinct leading coefficient, because the inverse is cached."""

    @pytest.fixture
    def zinv_calls(self, monkeypatch):
        calls = []
        original = scalars_mod._zinv

        def counting(m, a):
            calls.append(m)
            return original(m, a)

        scalars_mod._cached_zinv.cache_clear()
        monkeypatch.setattr(scalars_mod, "_zinv", counting)
        yield calls
        scalars_mod._cached_zinv.cache_clear()

    def test_loading_emitted_data_inverts_no_field_element(self, zinv_calls):
        doc = dumps_datum(emit_datum(5))
        assert zinv_calls == []
        loads_datum(doc)
        assert zinv_calls == []

    def test_one_field_inverse_per_distinct_pivot(self, zinv_calls, monkeypatch):
        rng = random.Random(5)
        a = random_matrix(rng, 6, 4, 5) @ random_matrix(rng, 4, 6, 5)
        divisors = []
        original = CycScalar.exact_div

        def recording(self, other):
            if not self.is_zero:  # zero divided by anything needs no inverse
                divisors.append(other)
            return original(self, other)

        monkeypatch.setattr(CycScalar, "exact_div", recording)
        assert a.det().is_zero
        field_divisors = {d for d in divisors if len(d.coeffs) > 1}
        assert len(field_divisors) >= 2
        assert len(zinv_calls) == len(field_divisors)
        assert len(divisors) > 3 * len(field_divisors)


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

    def test_conductor_mixing_rejected(self):
        with pytest.raises(ValueError):
            CycScalar.one(3) + CycScalar.one(5)
