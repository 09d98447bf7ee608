"""Exact scalars: cyclotomic numbers extended by formal invertible variables.

A scalar lives in Q(zeta_m)[v, v^-1 : v in V] where zeta_m = exp(2*pi*i/m) and
V is an open-ended set of formal variable names (the standard ones are ``u``,
``x``, ``y``, ``w``; ad-hoc unknowns such as ``s0_1`` are allowed too).  The
representation is canonical: powers of zeta_m are reduced modulo the m-th
cyclotomic polynomial and zero coefficients are dropped, so ``==`` decides
mathematical equality.  One routine, ``_canon``, produces that form.

A one-term divisor c*zeta^k*X^e is a unit of the ring and is inverted as
(1/c)*zeta^-k*X^-e, with no field arithmetic.  A divisor with several terms
and no formal variable is a nonzero element of the field Q(zeta_m), hence a
unit too: the dividend is multiplied by its field inverse, computed by the
norm formula a^-1 = prod_{k != 1} sigma_k(a) / N(a), the product of a's other
Galois conjugates (zeta -> zeta^k) over its rational norm.  ``_field_inverse``
forms those conjugates and products as scalars and keeps the last inverses in
a cache of fixed size, keyed on the (zeta power, coefficient) items; a scalar
is immutable, so every caller shares the cached one (loading a datum,
re-validating it and the Delta sums invert the same few twists).  Every other
divisor goes through multivariate Laurent long division, which holds each
monomial's coefficient as a variable-free scalar, inverts the leading one by
one of the two routes above and raises InexactDivision when the quotient is
not in the ring.  Every route gives the same canonical quotient.  Powers of a
one-term scalar scale its exponents, for either sign.

A coefficient is a Python ``int`` while it is integral.  A ``Fraction`` is
made only where a division happens: the inverse 1/c of a one-term divisor,
the division by the norm in the field inverse, a one-term power with a
negative exponent, and numerals such as ``3/2``.  Each of those sites goes
through ``Fraction`` (an ``int`` there would turn into a float), and a quotient
that comes out integral is stored as an ``int`` again; so is an integral sum
in ``+`` and in ``parse_scalar``, and an integral product in ``_canon`` and in
the one-term product, so ``1/2*u`` times 2 holds the ``int`` 1.  ``2`` and
``Fraction(2)`` have the same ``==``, ``hash`` and ``str``, so the two are
interchangeable everywhere; the ``int`` only saves the gcds of ``Fraction``
arithmetic on the +-1 coefficients that make up the sl(2|1) data.

A zero operand of ``+``, ``-`` or ``*`` returns the other operand, its
negation or the zero as soon as the operands are coerced to one conductor.
The sparse sl(2|1) matrices are mostly zeros, so this is where most of their
scalar operations end.

A product of two one-term scalars is built as its single key in one step
(``_times_term``): the zeta power mod m, and the variable key that
``_vk_mul`` merges from the two sorted keys, adding the exponents of a shared
name and dropping a zero sum.  It is reduced modulo Phi_m only when that zeta
power is not below deg Phi_m; ``_canon`` serves every product with more
terms.  Emitting the sl(2|1) datum and scaling its S' columns by the
dimensions are such products.  A product by the unit 1 returns the other
operand itself: every modified dimension of pointed data is 1, so scaling S'
by them and the ``* d(V_i)`` of the Delta sums build nothing.  ``str()`` of a
one-term scalar prints its term without sorting.

Literals are read by ``parse_scalar``.  A one-term literal -- an optional
'-', an integer numeral of at most 18 digits and name factors other than
``z{m}`` with integer powers of at most 18 digits, such as
``-d0_1^-1*s1_3`` -- is checked by one compiled full match and built as its
one key, with its exponents summed per name.  Every literal of an emitted
sl(2|1) datum is one.  Every other literal goes through the scanner in one
pass.  One compiled regex match reads a whole numeral or name factor: its
unary minuses, the numeral, ``z{m}`` or variable name, its optional power and
the operator after it; a parenthesised factor reads its sum recursively.  A
product of one-term factors such as ``z5*u^-2*1/2`` is collected into one
coefficient, zeta power and exponent map, and only its factors with several
terms are multiplied out.  A sum adds its terms into one dict.  Before it
expands a power of a sum, the reader bounds the result's term count and
rejects the literal when that bound is over ``MAX_POWER_TERMS``; before it
raises a one-term factor to a power, or a sum to a positive power, it bounds
the coefficients' bit length against ``MAX_POWER_BITS``.  Every product, sum and power a literal builds is checked
to have no numerator or denominator of 4300 or more digits (a sum checks the
coefficients each term touches), so every coefficient of a parsed literal can
be printed.  These checks and the limit on converting long numerals stay on
the scanner: a one-term literal's numerals are far inside them.

A matrix product over Q(zeta_m), and a column of a dense variable-free matrix
scaled by a factor of several terms, may go through ``_packed_product``, which
holds each entry as an integer vector over 1, zeta, .., zeta^(deg-1) with one
common denominator per row or column, packs that vector into one int at a
base 2^w wide enough for every coefficient of a dot product (Kronecker
substitution), sums each dot product as plain int products and reduces it
modulo Phi_m once.  It returns the canonical form that ``_canon`` would.

All operations are pure; instances are immutable once constructed.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class InexactDivision(ArithmeticError):
    """Raised when an exact ring division does not come out even."""


class ScalarParseError(ValueError):
    """Raised on malformed scalar literals."""


# ---------------------------------------------------------------------------
# cyclotomic polynomial machinery
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_div_exact_int(num: list[int], den: list[int]) -> list[int]:
    # den is monic; the division must be exact (used for X^m - 1 over
    # products of cyclotomic polynomials).
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact integer polynomial division")
    return _poly_trim(q)


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError(f"conductor must be >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_div_exact_int(num, list(cyclotomic_coeffs(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _zeta_reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row e-deg expresses zeta_m^e (deg <= e < m) over the basis 1..zeta^(deg-1)."""
    phi = cyclotomic_coeffs(m)
    deg = len(phi) - 1
    rows = []
    # zeta^deg = -(phi_0 + phi_1 zeta + ...), phi is monic
    rows.append(tuple(-c for c in phi[:-1]))
    for _ in range(deg + 1, m):
        prev = rows[-1]
        nxt = [0] * deg
        for i in range(deg - 1):
            nxt[i + 1] += prev[i]
        top = prev[deg - 1]
        if top:
            base = rows[0]
            for i in range(deg):
                nxt[i] += top * base[i]
        rows.append(tuple(nxt))
    return tuple(rows)


@lru_cache(maxsize=None)
def _degree(m: int) -> int:
    return len(cyclotomic_coeffs(m)) - 1


# ---------------------------------------------------------------------------
# canonical form and field arithmetic
# ---------------------------------------------------------------------------

# A term's key: (zeta power, variable key); a variable key is the sorted
# tuple of (name, nonzero exponent) pairs.
VarKey = tuple[tuple[str, int], ...]
Key = tuple[int, VarKey]
# A coefficient: an int while it is integral, else a Fraction.
Coeff = int | Fraction


def _quo(a: Coeff, b: Coeff) -> Coeff:
    """a / b through Fraction, never a float; an int when it is integral."""
    if b == 1:
        return a
    if b == -1:
        return -a
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _canon(m: int, terms) -> dict[Key, Coeff]:
    """Sum terms ((zeta power, variable key), coefficient) into canonical form.

    Zeta powers are reduced modulo Phi_m and zero coefficients dropped.  The
    variable keys must already be canonical (sorted, no zero exponent).
    """
    deg = _degree(m)
    rows = _zeta_reduction_rows(m)
    out: dict[Key, Coeff] = {}
    for (zp, vk), c in terms:
        zp %= m
        if zp < deg:
            k = (zp, vk)
            out[k] = out[k] + c if k in out else c
        else:
            for i, r in enumerate(rows[zp - deg]):
                if r:
                    k = (i, vk)
                    out[k] = out[k] + c * r if k in out else c * r
    return {k: v.numerator if type(v) is Fraction and v.denominator == 1 else v
            for k, v in out.items() if v}


@lru_cache(maxsize=128)
def _field_inverse(m: int, items: tuple[tuple[int, Coeff], ...]) -> "CycScalar":
    """Inverse in Q(zeta_m) of the nonzero element with the sorted (zeta power,
    coefficient) items, by the norm: a^-1 = prod_{k != 1} sigma_k(a) / N(a).

    sigma_k sends zeta_m to zeta_m^k for k prime to m, and the product of all
    the conjugates, a itself included, is the rational norm N(a).  A scalar is
    immutable, so every caller shares the cached one."""
    cofactor = CycScalar.one(m)
    for k in range(2, m):
        if gcd(k, m) == 1:
            cofactor = cofactor * CycScalar(m, {(zp * k, ()): c for zp, c in items})
    norm = CycScalar(m, {(zp, ()): c for zp, c in items}, _canonical=True) * cofactor
    if list(norm.coeffs) != [(0, ())]:
        raise ArithmeticError("cyclotomic norm not rational; conductor data corrupt")
    n = norm.coeffs[(0, ())]
    return CycScalar(m, {k: _quo(c, n) for k, c in cofactor.coeffs.items()}, _canonical=True)


def _common_denominator(entries) -> int:
    """The lcm of the denominators of every coefficient of the entries."""
    return lcm(*(c.denominator for e in entries for c in e.coeffs.values()))


def _numerators(e: "CycScalar", d: int) -> dict[int, int]:
    """{zeta power: coefficient} of the variable-free d*e, for a d that
    clears every denominator of e."""
    return {zp: c.numerator * (d // c.denominator) for (zp, _), c in e.coeffs.items()}


def _packed_product(m: int, a: list["CycScalar"], b: list["CycScalar"],
                    rows: int, inner: int, cols: int) -> list["CycScalar"]:
    """Entries of the product of the variable-free rows x inner matrix a and
    inner x cols matrix b (row-major lists), by packed integer dot products.

    Row i of a is scaled to integers by one common denominator da[i], column j
    of b by db[j].  An integer vector (v_0, .., v_(deg-1)) over 1, zeta, ..,
    zeta^(deg-1) is packed into the one int sum v_t 2^(w t) (Kronecker
    substitution).  Every coefficient of a sum of inner products of such
    polynomials is below inner*deg*max|a|*max|b| in size, so w is that bound's
    bit length plus a sign bit, and a packed dot product unpacks into its
    2 deg - 1 signed coefficients.  Those are folded mod m, reduced modulo
    Phi_m and divided by da[i]*db[j] once per output entry.
    """
    deg = _degree(m)
    da = [_common_denominator(a[i * inner:(i + 1) * inner]) for i in range(rows)]
    db = [_common_denominator(b[j::cols]) for j in range(cols)]
    ia = [_numerators(a[i * inner + k], da[i]) for i in range(rows) for k in range(inner)]
    ib = [_numerators(b[k * cols + j], db[j]) for k in range(inner) for j in range(cols)]
    top_a = max((abs(v) for e in ia for v in e.values()), default=0)
    top_b = max((abs(v) for e in ib for v in e.values()), default=0)
    w = (inner * deg * top_a * top_b).bit_length() + 1
    pa = [sum(v << (w * zp) for zp, v in e.items()) for e in ia]
    pb = [sum(v << (w * zp) for zp, v in e.items()) for e in ib]

    ndig = 2 * deg - 1
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    # adding half to every digit makes each one a plain w-bit field
    offset = sum(half << (w * t) for t in range(ndig))
    red = _zeta_reduction_rows(m)
    zero = CycScalar.zero(m)
    out = []
    for i in range(rows):
        acc = [0] * cols
        for k, x in enumerate(pa[i * inner:(i + 1) * inner]):
            if not x:
                continue
            for j, y in enumerate(pb[k * cols:(k + 1) * cols]):
                if y:
                    acc[j] += x * y
        for j, s in enumerate(acc):
            if not s:
                out.append(zero)
                continue
            s += offset
            poly = [0] * m
            for t in range(ndig):
                poly[t % m] += ((s >> (w * t)) & mask) - half
            for e in range(deg, m):
                c = poly[e]
                if c:
                    for t, r in enumerate(red[e - deg]):
                        poly[t] += c * r
            d = da[i] * db[j]
            out.append(CycScalar(m, {(t, ()): _quo(poly[t], d) for t in range(deg) if poly[t]},
                                 _canonical=True))
    return out


# ---------------------------------------------------------------------------
# the scalar type
# ---------------------------------------------------------------------------

def _vk_mul(a: VarKey, b: VarKey) -> VarKey:
    """The variable key of X^a * X^b: the two sorted keys merged by name,
    with the exponents of a shared name added and a zero sum dropped."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x[0] < y[0]:
            out.append(x)
            i += 1
        elif y[0] < x[0]:
            out.append(y)
            j += 1
        else:
            e = x[1] + y[1]
            if e:
                out.append((x[0], e))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def _vk_neg(vk: VarKey) -> VarKey:
    return tuple((name, -e) for name, e in vk)


class CycScalar:
    """Element of Q(zeta_m) extended by formal Laurent variables."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: dict[Key, Coeff], *, _canonical: bool = False):
        self.conductor = conductor
        if _canonical:
            self.coeffs = coeffs
            return
        self.coeffs = _canon(conductor, (
            ((zp, tuple(sorted((n, e) for n, e in vk if e))),
             c if type(c) is int or type(c) is Fraction else Fraction(c))
            for (zp, vk), c in coeffs.items()))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(conductor: int) -> "CycScalar":
        return CycScalar(conductor, {}, _canonical=True)

    @staticmethod
    def one(conductor: int) -> "CycScalar":
        return CycScalar.rational(1, conductor)

    @staticmethod
    def rational(q, conductor: int) -> "CycScalar":
        if type(q) is not int:
            q = Fraction(q)
            if q.denominator == 1:
                q = q.numerator
        if not q:
            return CycScalar.zero(conductor)
        return CycScalar(conductor, {(0, ()): q}, _canonical=True)

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "CycScalar":
        return _term(conductor, power, (), 1)

    @staticmethod
    def variable(name: str, conductor: int, exponent: int = 1) -> "CycScalar":
        if exponent == 0:
            return CycScalar.one(conductor)
        return CycScalar(conductor, {(0, ((name, exponent),)): 1}, _canonical=True)

    # -- predicates / conversions -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == {(0, ()): 1}

    def variables(self) -> set[str]:
        out: set[str] = set()
        for _, vk in self.coeffs:
            out.update(name for name, _ in vk)
        return out

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "CycScalar":
        if isinstance(other, CycScalar):
            if other.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar.rational(other, self.conductor)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            nc = out.get(k, 0) + c
            if nc:
                if type(nc) is Fraction and nc.denominator == 1:
                    nc = nc.numerator
                out[k] = nc
            elif k in out:
                del out[k]
        return CycScalar(self.conductor, out, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.conductor, {k: -c for k, c in self.coeffs.items()}, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:
            return self
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not CycScalar or other.conductor != self.conductor:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.coeffs:
            return other
        if not self.coeffs:
            return self
        if len(other.coeffs) == 1:
            ((zp, vk), c), = other.coeffs.items()
            return self._times_term(zp, vk, c)
        if len(self.coeffs) == 1:
            ((zp, vk), c), = self.coeffs.items()
            return other._times_term(zp, vk, c)
        m = self.conductor
        return CycScalar(m, _canon(m, (
            ((z1 + z2, _vk_mul(v1, v2)), c1 * c2)
            for (z1, v1), c1 in self.coeffs.items()
            for (z2, v2), c2 in other.coeffs.items())), _canonical=True)

    __rmul__ = __mul__

    def _times_term(self, zp: int, vk: VarKey, c: Coeff) -> "CycScalar":
        """self * c*zeta^zp*X^vk for nonzero c, where zp need not be reduced;
        self itself when that multiplier is 1.  A one-term self gives the one
        key (zeta power, merged variable key) directly."""
        m = self.conductor
        if c == 1 and not vk and not zp % m:
            return self
        if len(self.coeffs) == 1:
            ((z1, v1), c1), = self.coeffs.items()
            c1 *= c
            if type(c1) is Fraction and c1.denominator == 1:
                c1 = c1.numerator
            zp = (z1 + zp) % m
            if not zp or zp < _degree(m):
                return CycScalar(m, {(zp, _vk_mul(v1, vk)): c1}, _canonical=True)
            return CycScalar(m, _canon(m, (((zp, _vk_mul(v1, vk)), c1),)), _canonical=True)
        return CycScalar(m, _canon(m, (
            ((z1 + zp, _vk_mul(v1, vk)), c1 * c)
            for (z1, v1), c1 in self.coeffs.items())), _canonical=True)

    def __pow__(self, n: int):
        if n == 0:
            return CycScalar.one(self.conductor)
        if len(self.coeffs) == 1:
            ((zp, vk), c), = self.coeffs.items()
            return _term(self.conductor, zp * n, tuple((name, e * n) for name, e in vk),
                         c ** n if n > 0 else _quo(1, c ** -n))
        if n < 0:
            return self.inverse() ** (-n)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        if type(other) is CycScalar:
            return self.conductor == other.conductor and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            other = CycScalar.rational(other, self.conductor)
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, frozenset(self.coeffs.items())))

    def __bool__(self):
        return not self.is_zero

    # -- division -----------------------------------------------------------

    def exact_div(self, other: "CycScalar") -> "CycScalar":
        """Divide exactly in the Laurent ring; raise InexactDivision otherwise."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("exact division by zero")
        if self.is_zero:
            return CycScalar.zero(self.conductor)
        terms = other.coeffs
        if len(terms) == 1:
            ((zp, vk), c), = terms.items()
            return self._times_term(-zp, _vk_neg(vk), _quo(1, c))
        if not any(vk for _, vk in terms):
            return self * _field_inverse(self.conductor,
                                         tuple(sorted((zp, c) for (zp, _), c in terms.items())))
        return _laurent_div(self, other)

    def inverse(self) -> "CycScalar":
        return CycScalar.one(self.conductor).exact_div(self)

    def try_inverse(self):
        try:
            return self.inverse()
        except (InexactDivision, ZeroDivisionError):
            return None

    # -- evaluation and printing --------------------------------------------

    def evaluate(self, variables: dict[str, complex] | None = None) -> complex:
        """Numerically evaluate at zeta_m = exp(2*pi*i/m) and the given variable values."""
        variables = variables or {}
        z = cmath.exp(2j * cmath.pi / self.conductor)
        total = 0j
        for (zp, vk), c in self.coeffs.items():
            term = complex(c) * z ** zp
            for name, e in vk:
                if name not in variables:
                    raise KeyError(f"no value supplied for variable {name!r}")
                term *= variables[name] ** e
            total += term
        return total

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        # one term needs no sort
        for (zp, vk), c in coeffs.items() if len(coeffs) == 1 else sorted(coeffs.items()):
            factors = []
            if abs(c) != 1 or (zp == 0 and not vk):
                factors.append(str(abs(c)))
            if zp:
                factors.append(f"z{self.conductor}" + (f"^{zp}" if zp != 1 else ""))
            for name, e in vk:
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"CycScalar({self.conductor}, {self})"


def _term(m: int, zp: int, vk: VarKey, c: Coeff) -> CycScalar:
    """The one-term scalar c*zeta^zp*X^vk, for nonzero c and a canonical vk;
    reduced modulo Phi_m only when zp mod m is not below deg Phi_m."""
    zp %= m
    if zp < _degree(m):
        return CycScalar(m, {(zp, vk): c}, _canonical=True)
    return CycScalar(m, _canon(m, (((zp, vk), c),)), _canonical=True)


def _laurent_div(a: CycScalar, b: CycScalar) -> CycScalar:
    """Multivariate Laurent long division of a by b, both nonzero; raises
    InexactDivision unless b divides a.  Correct for every divisor; exact_div
    sends it every divisor with more than one term and a formal variable.
    Each monomial's coefficient is a variable-free scalar."""
    m = a.conductor
    names = sorted(a.variables() | b.variables())

    def collect(s: CycScalar) -> tuple[dict[tuple[int, ...], CycScalar], tuple[int, ...]]:
        """{exponents - valuation: coefficient} and the valuation."""
        out: dict[tuple[int, ...], dict[Key, Coeff]] = {}
        for (zp, vk), c in s.coeffs.items():
            d = dict(vk)
            out.setdefault(tuple(d.get(n, 0) for n in names), {})[(zp, ())] = c
        val = tuple(min(k[i] for k in out) for i in range(len(names)))
        return {tuple(e - v for e, v in zip(k, val)): CycScalar(m, c, _canonical=True)
                for k, c in out.items()}, val

    f, valf = collect(a)
    g, valg = collect(b)
    gl = max(g)
    glc_inv = g[gl].inverse()
    zero = CycScalar.zero(m)
    quot: dict[tuple[int, ...], CycScalar] = {}
    while f:
        fl = max(f)
        t = tuple(e - d for e, d in zip(fl, gl))
        if any(e < 0 for e in t):
            raise InexactDivision(f"{a} is not divisible by {b}")
        cq = quot[t] = f[fl] * glc_inv
        # f -= (cq * X^t) * g
        for gk, gc in g.items():
            k = tuple(e + d for e, d in zip(gk, t))
            cell = f.get(k, zero) - cq * gc
            if cell:
                f[k] = cell
            else:
                f.pop(k, None)
    shift = [e - d for e, d in zip(valf, valg)]
    out: dict[Key, Coeff] = {}
    for k, cq in quot.items():
        vk = tuple((n, e + s) for n, e, s in zip(names, k, shift) if e + s)
        out.update(((zp, vk), c) for (zp, _), c in cq.coeffs.items())
    return CycScalar(m, out, _canonical=True)


# ---------------------------------------------------------------------------
# quantum integers
# ---------------------------------------------------------------------------

def quantum_integer(n: int, ell: int) -> CycScalar:
    """[n] = (q^n - q^-n)/(q - q^-1) at q = zeta_ell, for odd ell >= 3.

    Uses the telescoped form q^(n-1) + q^(n-3) + ... + q^(1-n), so no division
    is involved.  Its exponents are distinct; the constructor reduces them.
    """
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"ell must be odd and >= 3, got {ell}")
    sign = 1 if n > 0 else -1
    return CycScalar(ell, {(abs(n) - 1 - 2 * i, ()): sign for i in range(abs(n))})


# ---------------------------------------------------------------------------
# parsing of the scalar literal grammar
# ---------------------------------------------------------------------------

# A power of a sum is expanded only when deg Phi_m * C(n+t-1, t-1), a bound on
# the term count of the t-monomial base to the n-th, is at most this.
MAX_POWER_TERMS = 10_000

# A one-term power c^n with |n| > 1 is computed only when |n| * ceil(log2 x) is
# at most this, for x the larger of |numerator| and denominator of c.  Then
# both parts of c^n are at most 2^MAX_POWER_BITS < 10^4300, so str() can print
# them: 4300 digits is Python's default limit on converting an int to a string.
# A positive power of a sum is bounded the same way by _sum_power_bits.
MAX_POWER_BITS = 14_284

# The least int that str() cannot print under that limit.
_UNPRINTABLE = 10 ** 4300

def _power_term_bound(deg: int, n: int, t: int) -> int:
    """deg * C(n+t-1, t-1), or the first partial product over MAX_POWER_TERMS."""
    bound = deg
    for i in range(1, t):
        bound = bound * (n + i) // i  # deg * C(n+i, i), exact at every step
        if bound > MAX_POWER_TERMS:
            break
    return bound


def _check_power(c: Coeff, n: int) -> None:
    """ScalarParseError when |n| > 1 and |n| * ceil(log2 x) is over
    MAX_POWER_BITS, for x the larger of |numerator| and denominator of c:
    that product bounds the bit length of either part of c^n."""
    if abs(n) > 1 and abs(n) * (max(abs(c.numerator), c.denominator) - 1).bit_length() \
            > MAX_POWER_BITS:
        raise ScalarParseError(f"{abs(c)} to the power {n} may have more than 4300 digits")


def _sum_power_bits(v: CycScalar, n: int) -> int:
    """A bound on the bit length of either part of every coefficient of v^n,
    n > 0.  Over v's common denominator d, v = w/d with integer coefficients
    of absolute sum s.  Each coefficient of w^n before reduction modulo Phi_m
    is at most s^n, and the reduction adds at most m - deg multiples of it,
    each by a reduction-row entry of size at most r.  The denominator divides
    d^n."""
    m = v.conductor
    d = _common_denominator([v])
    s = sum(abs(c.numerator) * (d // c.denominator) for c in v.coeffs.values())
    r = max((abs(x) for row in _zeta_reduction_rows(m) for x in row), default=0)
    return max(n * (s - 1).bit_length() + (1 + r * m).bit_length(), n * (d - 1).bit_length())


def _printable(c: Coeff) -> Coeff:
    """c, or ScalarParseError when str() cannot print its numerator or
    denominator."""
    if abs(c.numerator) >= _UNPRINTABLE or c.denominator >= _UNPRINTABLE:
        raise ScalarParseError("a coefficient has more than 4300 digits")
    return c


def _printable_scalar(v: CycScalar) -> CycScalar:
    for c in v.coeffs.values():
        _printable(c)
    return v


# The literal grammar:
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := '-'* (numeral | name | '(' expr ')') ('^' '-'? digits)?
#
# with optional whitespace around every token.  A numeral is digits or
# digits/digits; a name is a variable, or z{m} for the root of unity.

# An optional power: '^', an optional '-' and digits.  Group 1 is set whenever
# the '^' is there, so that a '^' without a valid exponent is an error; digits
# followed by '/digit' are a fraction, which is no exponent.  The last group
# is the operator after the factor: '*' goes on with the term, '+' and '-'
# with the sum.
_POWER_AND_OPERATOR = r"(\s*\^(?:\s*(-?)\s*(\d+)(?!\d|/\d))?)?\s*([*+\-])?"

# A factor that is read in one match: its unary minuses, then an opening
# parenthesis, or a numeral or name with its power and the operator after it.
_FACTOR_RE = re.compile(r"\s*((?:-\s*)*)(?:(\()|(?:(\d+)(?:/(\d+))?|([A-Za-z_][A-Za-z_0-9]*))"
                        + _POWER_AND_OPERATOR + ")")
# The closing parenthesis of a parenthesised factor, its power and the
# operator after it.
_CLOSE_RE = re.compile(r"\s*\)" + _POWER_AND_OPERATOR)
_MINUSES_RE = re.compile(r"(?:\s*-)*")
_END_RE = re.compile(r"\s*\Z")
# One token (a numeral, a name or an operator) after optional whitespace:
# error messages name the token where reading stopped, and a text that cannot
# be split into tokens has a bad character.
_TOKEN_RE = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|[\^*+\-()])")


def _number(digits: str, length: int) -> int:
    """int(digits); a numeral too long for int() to convert is malformed."""
    try:
        return int(digits)
    except ValueError:
        raise ScalarParseError(f"numeral of {length} characters is too long") from None


def _exponent(text: str, esign: str | None, edigits: str | None) -> int:
    """The exponent of a power whose '^' has been read."""
    if edigits is None:
        raise ScalarParseError(f"bad exponent in {text!r}")
    n = _number(edigits, len(edigits))
    return -n if esign else n


def _power(v: CycScalar, n: int) -> CycScalar:
    """v^n for a parenthesised factor v, once its size is bounded."""
    coeffs = list(v.coeffs.values())
    if len(coeffs) == 1:
        _check_power(coeffs[0], n)
    elif len(coeffs) > 1 and abs(n) > 1:
        t = len({vk for _, vk in v.coeffs})
        if _power_term_bound(_degree(v.conductor), abs(n), t) > MAX_POWER_TERMS:
            raise ScalarParseError(f"a sum of {t} monomials to the power {n} may "
                                   f"have more than {MAX_POWER_TERMS} terms")
        if n < 0:
            v, n = v.inverse(), -n
        if _sum_power_bits(v, n) > MAX_POWER_BITS:
            raise ScalarParseError(f"a sum to the power {n} may have a coefficient "
                                   f"of more than 4300 digits")
    return _printable_scalar(v ** n)


def _no_factor(text: str, pos: int):
    """Raise the error for a text with no factor at pos.  Where no token
    follows and more than whitespace is left, parse_scalar reports the bad
    character instead."""
    mo = _TOKEN_RE.match(text, _MINUSES_RE.match(text, pos).end())
    if mo is None:
        raise ScalarParseError(f"unexpected end of input in {text!r}")
    raise ScalarParseError(f"unexpected {mo[1]!r} at offset {mo.start(1)} in {text!r}")


def _scan_term(text: str, pos: int, m: int) -> tuple[CycScalar, int, str | None]:
    """The product of factors at pos, the position after it and the '+' or '-'
    that follows it (None when nothing does).

    The one-term factors are collected into one coefficient, zeta power and
    exponent map; only the parenthesised factors are multiplied out as
    scalars.  Each partial product is checked to be printable, so none grows
    past twice that size."""
    c, zp, exps, rest = 1, 0, {}, None
    while True:
        mo = _FACTOR_RE.match(text, pos)
        if mo is None:
            _no_factor(text, pos)
        minuses, paren, num, den, name, caret, esign, edigits, op = mo.groups()
        if paren is None:
            pos = mo.end()
            if name is None:
                size = len(num) if den is None else mo.end(4) - mo.start(3)
                f = _number(num, size)
                if den is not None:
                    f = _quo(f, _number(den, size))
                if caret is not None:
                    n = _exponent(text, esign, edigits)
                    _check_power(f, n)
                    f = f ** n if n >= 0 else _quo(1, f ** -n)
                c = c * f
                # a product of numerals such as 3/2*2/3 may be integral again
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                c = _printable(c)
            elif name[0] == "z" and name[1:].isdigit():
                order = _number(name[1:], len(name) - 1)
                if order != m:
                    raise ScalarParseError(f"root of unity z{order} does not match conductor {m}")
                zp += 1 if caret is None else _exponent(text, esign, edigits)
            else:
                exps[name] = exps.get(name, 0) + (
                    1 if caret is None else _exponent(text, esign, edigits))
            if minuses and minuses.count("-") & 1:
                c = -c
        else:
            v, pos = _scan_expr(text, mo.end(), m)
            mo = _CLOSE_RE.match(text, pos)
            if mo is None:
                raise ScalarParseError(f"unbalanced parentheses in {text!r}")
            pos = mo.end()
            caret, esign, edigits, op = mo.groups()
            if caret is not None:
                v = _power(v, _exponent(text, esign, edigits))
            if minuses and minuses.count("-") & 1:
                v = -v
            rest = v if rest is None else _printable_scalar(rest * v)
        if op != "*":
            break
    if not c:
        return CycScalar.zero(m), pos, op
    vk = tuple(sorted(exps.items()))
    if 0 in exps.values():
        vk = tuple(p for p in vk if p[1])
    if rest is None and zp % m < _degree(m):
        # c is the one coefficient, and it is printable
        return _term(m, zp, vk, c), pos, op
    return _printable_scalar(_term(m, zp, vk, c) if rest is None
                             else rest._times_term(zp, vk, c)), pos, op


def _scan_expr(text: str, pos: int, m: int) -> tuple[CycScalar, int]:
    """The sum at pos and the position after it.  The terms are summed into
    one dict, and only the coefficients a term touches are checked to be
    printable: the others were checked with an earlier term."""
    v, pos, op = _scan_term(text, pos, m)
    if op is None:
        return v, pos
    out = dict(v.coeffs)
    while op is not None:
        minus = op == "-"
        t, pos, op = _scan_term(text, pos, m)
        for k, c in t.coeffs.items():
            nc = out.get(k, 0) - c if minus else out.get(k, 0) + c
            if nc:
                if type(nc) is Fraction and nc.denominator == 1:
                    nc = nc.numerator
                out[k] = _printable(nc)
            elif k in out:
                del out[k]
    return CycScalar(m, out, _canonical=True), pos


def _bad_character(text: str) -> int | None:
    """The offset where text stops splitting into tokens, unless only
    whitespace is left there."""
    pos, match = 0, _TOKEN_RE.match
    while mo := match(text, pos):
        pos = mo.end()
    return None if _END_RE.match(text, pos) else pos


# A one-term literal that parse_scalar reads without the scanner: an optional
# '-', then an integer numeral of at most 18 digits or a name factor, then
# more name factors after '*'.  A name factor is a variable name other than
# z{m}, with an optional integer power of at most 18 digits.  Such numerals
# and powers are far inside every limit of the general path.
_NAME_FACTOR = r"(?!z[0-9]+(?![A-Za-z_0-9]))[A-Za-z_][A-Za-z_0-9]*(?:\^-?[0-9]{1,18})?"
_MONOMIAL_RE = re.compile(rf"-?(?:[0-9]{{1,18}}|{_NAME_FACTOR})(?:\*{_NAME_FACTOR})*")


def _monomial(text: str, m: int) -> CycScalar:
    """The value of a literal that _MONOMIAL_RE matches, built as its one key."""
    c = 1
    if text[0] == "-":
        c, text = -1, text[1:]
    exps: dict[str, int] = {}
    for f in text.split("*"):
        if f[0] <= "9":
            # a numeral; only the first factor can be one
            c *= int(f)
            continue
        name, caret, e = f.partition("^")
        exps[name] = exps.get(name, 0) + (int(e) if caret else 1)
    if not c:
        return CycScalar.zero(m)
    vk = tuple(sorted(p for p in exps.items() if p[1]))
    return CycScalar(m, {(0, vk): c}, _canonical=True)


def parse_scalar(text: str, conductor: int) -> CycScalar:
    """Parse the scalar grammar: rationals, z{m}^k, variables, * + - ( ).

    A one-term literal such as ``-d0_1^-1*s1_3`` or ``3*u`` -- an optional
    '-', an integer numeral of at most 18 digits and name factors other than
    z{m} with integer powers of at most 18 digits, with no whitespace -- is
    read by one compiled full match and built as its one key.  Every other
    literal goes to the general reader _parse_expr, and both give the same
    value.

    The general reader reads a whole numeral or name factor with its unary
    minuses, its power and the operator after it in one regex match; a
    parenthesised factor reads its sum recursively.  An operator where a
    factor should start is an error that names it and its offset, and
    whitespace may follow the last token.  Of several errors the first bad
    character, one that no token starts with, is reported; the others in
    reading order.

    A literal that divides by zero, inverts a non-unit, nests too deeply,
    holds a numeral too long to convert, raises a sum to a power that may
    have more than MAX_POWER_TERMS terms, raises a one-term factor or a sum to
    a power whose coefficients may be over MAX_POWER_BITS bits, or builds a
    coefficient that str() cannot print is malformed too: each raises
    ScalarParseError."""
    if _MONOMIAL_RE.fullmatch(text):
        return _monomial(text, conductor)
    return _parse_expr(text, conductor)


def _parse_expr(text: str, conductor: int) -> CycScalar:
    """parse_scalar by the scanner alone: every literal, with every check."""
    try:
        v, pos = _scan_expr(text, 0, conductor)
        if _END_RE.match(text, pos) is None:
            tok = _TOKEN_RE.match(text, pos)
            raise ScalarParseError(f"trailing input {tok[1] if tok else text[pos:]!r} in {text!r}")
        return v
    except (ScalarParseError, ZeroDivisionError, InexactDivision, RecursionError) as exc:
        error = exc
    bad = _bad_character(text)
    if bad is not None:
        raise ScalarParseError(f"bad character at offset {bad} in {text!r}")
    if isinstance(error, ScalarParseError):
        raise error
    if isinstance(error, RecursionError):
        raise ScalarParseError("literal nested too deeply")
    raise ScalarParseError(f"cannot evaluate {text!r}: {error}")
