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
is immutable, so every caller shares the cached one (the Delta sums at
each degree invert the same few twists).  Every other
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

``CycScalar(m, coeffs)`` puts any terms into canonical form.  Every routine
here that already holds a canonical dict builds its scalar with ``_make``,
which sets the two slots and runs no ``__init__``.

A product of two one-term scalars, from ``__mul__``, from the division by a
one-term divisor or from the scanner, is built by ``_term_product`` as its
single key: the zeta power mod m and the variable key that ``_vk_mul``
merges from the two sorted keys, adding the exponents of a shared name and
dropping a zero sum.  It is reduced modulo Phi_m only when that zeta
power is not below deg Phi_m.  Emitting the sl(2|1) datum and scaling its S'
columns by the dimensions are such products.  A product by the unit 1, on
either side, returns the other operand itself: every modified dimension of
pointed data is 1, so scaling S' by them and the ``* d(V_i)`` of the Delta
sums build nothing.  ``str()`` of a one-term scalar prints its term without
sorting.

``products_equal`` decides a*b == c*d.  When b == d is nonzero it compares a
with c, as on pointed data, whose modified dimensions are all 1.  When all
four operands are one-term, as every S' entry and dimension of the emitted
sl(2|1) data is, it compares the two products' keys, merged as
``_term_product`` merges them, and their coefficients, and builds no scalar
(see its docstring for the rule); any other operands are multiplied and
compared.  The symmetry of S_g in datum validation and the bilinearity of
psi are decided by it.

A product of two variable-free scalars that both have more than one term
is one Kronecker product (``_field_product``): each operand is put over its
common denominator, its integer vector over 1, zeta, .. is packed into one
int (``_pack``, below) at the width that the product of the two vectors' L1
norms sets, the two ints are multiplied once, and ``_from_packed`` reads the
digits back, folds them mod m, reduces them modulo Phi_m and divides each
output coefficient once, so no term makes a ``Fraction``.  Field inverses,
the planted data's units and the quantum-integer products of ``build_Ak``
are such products.  A sum times a one-term factor with a zeta power, such
as a quantum integer times +-zeta^k, goes term by term through ``_canon``,
whose few products are cheaper than packing, with int or ``Fraction``
coefficients alike.  ``_canon`` serves every product with a formal variable.

Literals are read by ``parse_scalar``.  A literal in the form ``str()``
prints is built as its coefficient dict with no arithmetic
(``_read_canonical``).  That form is terms joined by ' + ' or ' - ', the
first with an optional '-'; a term is an integer or fractional numeral with
parts of at most 18 digits, then ``z{m}^k`` with 0 < k < deg Phi_m, then
names in strictly ascending order with nonzero powers; and the terms' keys
are strictly ascending.  Every literal of an emitted sl(2|1) datum, and every
literal of pointed and planted data whose numerals fit but the zero "0", is
one; "0" goes to the scanner.  The reader
splits a literal on ' ' and '*' and looks each factor text up in a table of
factor texts: a text not seen before is checked by one small full match
(``_PRINTED_FACTOR``) and stored with its kind and value, a numeral's
coefficient, a zeta power or a variable's (name, exponent) pair, so each
distinct factor is matched and converted once and equal pairs are one tuple
(hash-consing).  A caller that reads a whole document passes one table to
every ``parse_scalar`` call of it (``loads_datum``); a bare call starts its
own, and the module keeps none, so no table outlives its document.  A zeta
factor's value depends on the conductor, so a table records the conductor it
was first used over and refuses any other.  What
remains per literal is the order checks: the factor kinds in order, the
names and the terms' keys strictly ascending.  Every other literal goes
through the scanner in one pass.

In the scanner, one compiled regex match reads a whole numeral or name
factor: its unary minuses, the numeral, ``z{m}`` or variable name, its
optional power and the operator after it; a parenthesised factor reads its
sum recursively.  A product of one-term factors such as ``z5*u^-2*1/2`` is
collected into one coefficient, zeta power and exponent map, and only its
factors with several terms are multiplied out.  A sum adds its terms into
one dict.  Before it expands a power of a sum, the reader bounds the
result's term count and rejects the literal when that bound is over
``MAX_POWER_TERMS``; before it raises a one-term factor to a power, or a sum
to a positive power, it bounds the coefficients' bit length against
``MAX_POWER_BITS``.  Every product, sum and power a literal builds is
checked to have no numerator or denominator of 4300 or more digits (a sum
checks the coefficients each term touches), so every coefficient of a
parsed literal can be printed.  These checks and the limit on converting
long numerals stay on the scanner: a printed literal's numerals are far
inside them.

Kronecker substitution has one scheme here, used by ``_field_product``,
``_packed_product`` and the sl(2|1) relation check (sl21/reps.py).  An
integer vector (v_0, v_1, ..) over 1, zeta, .. is packed into the one int
sum v_t 2^(w t) (``_pack``) at a digit width w that ``_kronecker_width``
takes from a bound on every coefficient the packed ints will hold: the
bound's bit length plus a sign bit, rounded up to 8, 16, 32 or 64 bits or to
whole bytes.  Sums and products of packed ints are then those of the
polynomials.  One unpack tail reads them back:
``_unpack`` adds 2^(w-1) to every digit, which makes each signed coefficient
a plain w-bit field, writes the int out as bytes once and reads each digit
back as a machine word (w up to 64 bits) or a byte slice; the digits go to
``_from_numerators``, which folds them mod m, reduces them modulo Phi_m and
divides each coefficient once.  ``_from_packed`` does both for one packed
polynomial, whose bit length gives its number of digits.

The product of two scaled S blocks over Q(zeta_m) goes through
``_packed_product``, which takes each operand in its integer form
(``_integer_form``): each entry as an integer vector over
1, zeta, .., zeta^(deg-1), over one denominator for the whole block.  It
sums each dot product as plain int products of packed ints and unpacks each
row of the product once, and it returns the canonical form that ``_canon``
would.
``_times_numerators`` scales one column of such vectors by one more vector,
a modified dimension's, by one packed product per column, and folds each
entry back to deg coefficients (``_fold``); so a scaled S block reaches the
product kernel with no CycScalar made (matrices.py).

All operations are pure; instances are immutable once constructed.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter


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
def _zeta_reduction_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e-deg expresses zeta_m^e (deg <= e < m) over the basis 1..zeta^(deg-1),
    as its (power, nonzero coefficient) pairs."""
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
    return tuple(tuple((t, x) for t, x in enumerate(row) if x) for row in rows)


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
_var_key = itemgetter(1)
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
            for i, r in rows[zp - deg]:
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
    norm = _make(m, {(zp, ()): c for zp, c in items}) * cofactor
    if list(norm.coeffs) != [(0, ())]:
        raise ArithmeticError("cyclotomic norm not rational; conductor data corrupt")
    n = norm.coeffs[(0, ())]
    return _make(m, {k: _quo(c, n) for k, c in cofactor.coeffs.items()})


def _common_denominator(entries) -> int:
    """The lcm of the denominators of every coefficient of the entries."""
    return lcm(*[c.denominator for e in entries for c in e.coeffs.values()])


def _numerators(e: "CycScalar", d: int) -> list[tuple[int, int]]:
    """The (zeta power, coefficient) pairs of the variable-free d*e, for a d
    that clears every denominator of e."""
    if d == 1:
        return [(zp, c.numerator) for (zp, _), c in e.coeffs.items()]
    # one as_integer_ratio() call costs less than Fraction's two properties
    return [(zp, n * (d // q)) for (zp, _), c in e.coeffs.items()
            for n, q in (c.as_integer_ratio(),)]


@lru_cache(maxsize=None)
def _power_rows(m: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e - deg expresses zeta_m^e (deg <= e < n) over the basis
    1..zeta^(deg-1), as its (power, nonzero coefficient) pairs: zeta^e is
    zeta^(e mod m), a basis power or a row of _zeta_reduction_rows."""
    deg, rows = _degree(m), _zeta_reduction_rows(m)
    return tuple(((e % m, 1),) if e % m < deg else rows[e % m - deg] for e in range(deg, n))


def _fold(m: int, digits: list[int]) -> list[int]:
    """The integer vector over 1, zeta, .., zeta^(deg-1) of sum_t digits[t]*zeta^t,
    for integer digits at the powers t = 0, 1, ..: each digit at a power of
    deg or more is moved onto the basis by its row of _power_rows.  The list
    digits is used up."""
    deg = _degree(m)
    for e, row in enumerate(_power_rows(m, len(digits)), deg):
        c = digits[e]
        if c:
            for t, x in row:
                digits[t] += c * x
    return digits[:deg]


def _from_numerators(m: int, digits: list[int], d: int) -> "CycScalar":
    """The canonical form of sum_t digits[t]*zeta^t / d, for integer digits
    at the powers t = 0, 1, ..: _fold reduces them, and each output
    coefficient is divided by d once.  The list digits is used up."""
    digits = _fold(m, digits)
    if d == 1:
        return _make(m, {(t, ()): c for t, c in enumerate(digits) if c})
    return _make(m, {(t, ()): _quo(c, d) for t, c in enumerate(digits) if c})


def _integer_form(entries) -> tuple[list[list[tuple[int, int]]], int]:
    """(numerators, d) of variable-free entries: d, the lcm of every
    coefficient's denominator, and each entry's (zeta power, integer) pairs
    over it (_numerators).  Entries that are one object share one list: a
    loaded block holds each distinct literal once (datum.loads_datum), so
    its form costs a list per distinct value.  The lists are never changed
    in place."""
    d = _common_denominator(entries)
    shared: dict[int, list[tuple[int, int]]] = {}
    out = []
    for e in entries:
        nums = shared.get(id(e))
        if nums is None:
            nums = shared[id(e)] = _numerators(e, d)
        out.append(nums)
    return out, d


def _times_numerators(m: int, column: list[list[tuple[int, int]]],
                      factor: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Each numerator vector of column times the numerator vector factor,
    reduced modulo Phi_m: the integer level of scaling a matrix column by
    one scalar.

    A zero factor gives zero vectors.  Any other factor is one Kronecker
    product per column: the column is packed into one int (_pack_digits),
    entry i at 2^(W i) for W = (2 deg - 1) w, and multiplied by the packed
    factor once; every coefficient of an entry's product is at most the two
    vectors' L1 norms multiplied, which sets w.  The product is unpacked
    once (_unpack), and each entry's 2 deg - 1 digits are folded onto the
    basis (_fold)."""
    if not factor:
        return [[] for _ in column]
    deg = _degree(m)
    span = 2 * deg - 1
    top = max([sum([abs(v) for _, v in e]) for e in column], default=0)
    w = _kronecker_width(top * sum([abs(v) for _, v in factor]))
    digits = [0] * (span * len(column))
    for i, e in enumerate(column):
        for t, v in e:
            digits[span * i + t] = v
    digits = _unpack(_pack_digits(digits, w) * _pack(factor, w), w, len(digits))
    return [[(t, c) for t, c in enumerate(_fold(m, digits[i * span:(i + 1) * span])) if c]
            for i in range(len(column))]


def _field_product(a: "CycScalar", b: "CycScalar") -> "CycScalar":
    """a * b for variable-free a and b of one conductor, by Kronecker
    substitution: each operand over its common denominator, its integer
    numerators packed into one int (_pack), the two ints multiplied once and
    the product read back by _from_packed.  A coefficient of the product
    polynomial is at most the product of the two numerator vectors' L1 norms,
    which sets the digit width."""
    da, db = _common_denominator((a,)), _common_denominator((b,))
    na, nb = _numerators(a, da), _numerators(b, db)
    w = _kronecker_width(sum([abs(v) for _, v in na]) * sum([abs(v) for _, v in nb]))
    return _from_packed(a.conductor, _pack(na, w) * _pack(nb, w), w, da * db)


def _kronecker_width(bound: int) -> int:
    """The digit width w, in bits, at which integer polynomials whose every
    coefficient is at most bound in absolute value are packed: bound's bit
    length plus a sign bit, rounded up to 8, 16, 32 or 64 bits, and above 64
    to whole bytes, so that _unpack reads each digit back as one machine word
    or one byte slice."""
    bits = bound.bit_length() + 1
    return max(8, 1 << (bits - 1).bit_length()) if bits <= 64 else (bits + 7) // 8 * 8


def _pack(numerators, w: int) -> int:
    """The int sum v*2^(w t) of the (power t, integer v) pairs."""
    return sum([v << (w * t) for t, v in numerators])


@lru_cache(maxsize=256)
def _bias(w: int, count: int) -> int:
    """The int with count w-bit digits, each 2^(w-1)."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * count, "little")


# The array type code of each item size in bytes, 1, 2, 4 and 8 among them.
_WORD_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _unpack(x: int, w: int, count: int) -> list[int]:
    """The digits c_0, .., c_(count-1) of x = sum c_t 2^(w t), for
    |c_t| < 2^(w-1) and c_t = 0 from count on.

    Adding _bias makes each signed digit c_t the plain w-bit field
    c_t + 2^(w-1), so x is written out as bytes once and each digit is read
    back as one machine word when w is 8, 16, 32 or 64, else as one byte
    slice."""
    wb, half = w // 8, 1 << (w - 1)
    digits = (x + _bias(w, count)).to_bytes(count * wb, "little")
    if wb in _WORD_CODES:
        words = array(_WORD_CODES[wb], digits)
        if sys.byteorder == "big":
            words.byteswap()
        return [c - half for c in words]
    return [int.from_bytes(digits[i:i + wb], "little") - half for i in range(0, len(digits), wb)]


def _pack_digits(digits: list[int], w: int) -> int:
    """The int sum c_t 2^(w t) of the digits c_0, c_1, .., each below
    2^(w-1) in size: _unpack's inverse.  Each digit plus 2^(w-1) is one plain
    w-bit field, so the fields are written out as bytes at once, as machine
    words when w is 8, 16, 32 or 64, read back as one int, and _bias is taken
    away; the cost is linear in the digits, where a sum of shifted ints
    copies the growing sum at every term."""
    wb, half = w // 8, 1 << (w - 1)
    if wb in _WORD_CODES:
        words = array(_WORD_CODES[wb], [c + half for c in digits])
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
    else:
        raw = b"".join([(c + half).to_bytes(wb, "little") for c in digits])
    return int.from_bytes(raw, "little") - _bias(w, len(digits))


def _from_packed(m: int, x: int, w: int, d: int) -> "CycScalar":
    """The canonical form of P(zeta)/d for the integer polynomial P with
    x = P(2^w), each coefficient below 2^(w-1) in absolute value.

    If P's top coefficient is at zeta^t, then 2^(w t - 1) < |x| < 2^(w t + w - 1),
    so |x| has bit length // w = t and P has that many digits plus one."""
    return _from_numerators(m, _unpack(x, w, abs(x).bit_length() // w + 1), d)


def _packed_product(m: int, a: tuple[list, int], b: tuple[list, int],
                    rows: int, inner: int, cols: int) -> list["CycScalar"]:
    """Entries of the product of the rows x inner matrix a and the inner x
    cols matrix b, by packed integer dot products.  Each operand is given in
    its integer form (numerators, d) (_integer_form): its row-major numerator
    vectors over 1, zeta, .., zeta^(deg-1), all over the one denominator d.

    An integer vector (v_0, .., v_(deg-1)) is packed into the one int
    sum v_t 2^(w t) (Kronecker substitution, _pack).  Every coefficient of a
    sum of inner products of such polynomials is below
    inner*deg*max|a|*max|b| in size, so w is _kronecker_width of that bound,
    and a packed dot product unpacks into its 2 deg - 1 signed coefficients.
    Row k of b is packed once more, entry j at 2^(W j) for W = (2 deg - 1) w,
    so row i of the product is one packed int, the sum over k of a[i, k]
    times row k of b: its cols blocks of 2 deg - 1 digits are the entries'
    dot products.  The row is unpacked once (_unpack), a block of zero
    digits is a zero entry, and _from_numerators folds each other block mod
    m, reduces it modulo Phi_m and divides it by the two denominators'
    product.
    """
    (ia, da), (ib, db) = a, b
    d = da * db
    deg = _degree(m)
    top_a = max([abs(v) for e in ia for _, v in e], default=0)
    top_b = max([abs(v) for e in ib for _, v in e], default=0)
    w = _kronecker_width(inner * deg * top_a * top_b)
    span = 2 * deg - 1
    pa = [_pack(e, w) for e in ia]
    pb = [_pack([(t + span * j, v) for j, e in enumerate(ib[k * cols:(k + 1) * cols])
                 for t, v in e], w)
          for k in range(inner)]

    zero = CycScalar.zero(m)
    out = []
    for i in range(rows):
        s = sum([x * y for x, y in zip(pa[i * inner:(i + 1) * inner], pb) if x])
        if not s:
            out.extend([zero] * cols)
            continue
        digits = _unpack(s, w, span * cols)
        for j in range(cols):
            block = digits[j * span:(j + 1) * span]
            out.append(_from_numerators(m, block, d) if any(block) else zero)
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


_new = object.__new__


def _make(m: int, coeffs: dict[Key, Coeff]) -> "CycScalar":
    """The scalar over Q(zeta_m) that keeps the canonical dict coeffs as it
    is: no copy, no check and no __init__."""
    s = _new(CycScalar)
    s.conductor = m
    s.coeffs = coeffs
    return s


class CycScalar:
    """Element of Q(zeta_m) extended by formal Laurent variables."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: dict[Key, Coeff]):
        """The canonical form of the terms coeffs: any zeta powers, variable
        keys in any order with zero exponents, and int, Fraction or other
        rational coefficients."""
        self.conductor = conductor
        self.coeffs = _canon(conductor, (
            ((zp, tuple(sorted((n, e) for n, e in vk if e))),
             c if type(c) is int or type(c) is Fraction else Fraction(c))
            for (zp, vk), c in coeffs.items()))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(conductor: int) -> "CycScalar":
        return _make(conductor, {})

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
        return _make(conductor, {(0, ()): q})

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "CycScalar":
        return _term(conductor, power, (), 1)

    @staticmethod
    def variable(name: str, conductor: int, exponent: int = 1) -> "CycScalar":
        if exponent == 0:
            return CycScalar.one(conductor)
        return _make(conductor, {(0, ((name, exponent),)): 1})

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
        return _make(self.conductor, out)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, {k: -c for k, c in self.coeffs.items()})

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
        b = other.coeffs
        if not b:
            return other
        a = self.coeffs
        if not a:
            return self
        if len(b) == 1:
            ((z2, v2), c2), = b.items()
            if len(a) != 1:
                return self._times_term(z2, v2, c2)
            if not v2 and not z2 and c2 == 1:
                return self
            ((z1, v1), c1), = a.items()
            if not v1 and not z1 and c1 == 1:
                return other
            return _term_product(self.conductor, z1, v1, c1, z2, v2, c2)
        if len(a) == 1:
            ((zp, vk), c), = a.items()
            return other._times_term(zp, vk, c)
        if not any(map(_var_key, a)) and not any(map(_var_key, b)):
            return _field_product(self, other)
        m = self.conductor
        return _make(m, _canon(m, (
            ((z1 + z2, _vk_mul(v1, v2)), c1 * c2)
            for (z1, v1), c1 in a.items()
            for (z2, v2), c2 in b.items())))

    __rmul__ = __mul__

    def _times_term(self, zp: int, vk: VarKey, c: Coeff) -> "CycScalar":
        """self * c*zeta^zp*X^vk for nonzero c, where zp need not be reduced;
        self itself when that multiplier is 1 or self is zero.

        A one-term self gives the one key of _term_product, and a rational
        multiplier scales each coefficient in place.  Any other multiplier goes term by term through _canon, whose
        few products are cheaper than packing (_field_product)."""
        m = self.conductor
        coeffs = self.coeffs
        if not coeffs or c == 1 and not vk and not zp % m:
            return self
        if len(coeffs) == 1:
            ((z1, v1), c1), = coeffs.items()
            return _term_product(m, z1, v1, c1, zp, vk, c)
        if not vk and not zp % m:
            out = {}
            for k, x in coeffs.items():
                x *= c
                out[k] = x.numerator if type(x) is Fraction and x.denominator == 1 else x
            return _make(m, out)
        return _make(m, _canon(m, (
            ((z1 + zp, _vk_mul(v1, vk)), c1 * c)
            for (z1, v1), c1 in coeffs.items())))

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
        return _make(m, {(zp, vk): c})
    return _make(m, _canon(m, (((zp, vk), c),)))


def _term_product(m: int, z1: int, v1: VarKey, c1: Coeff,
                  z2: int, v2: VarKey, c2: Coeff) -> CycScalar:
    """c1*zeta^z1*X^v1 * c2*zeta^z2*X^v2 for nonzero c1 and c2, canonical v1
    and v2 and any zeta powers: the one key ((z1 + z2) mod m, the variable
    key _vk_mul merges), reduced as _term reduces it, with an int
    coefficient when the product is integral."""
    c = c1 * c2
    if type(c) is Fraction and c.denominator == 1:
        c = c.numerator
    return _term(m, z1 + z2, _vk_mul(v1, v2), c)


def products_equal(a: CycScalar, b: CycScalar, c: CycScalar, d: CycScalar) -> bool:
    """a * b == c * d.

    Over one conductor m, nothing is multiplied in two cases.  When b == d
    is nonzero, it is a == c: the ring has no zero divisors, so the common
    factor cancels (every modified dimension of pointed data is 1).  When
    all four are one-term, their keys decide it and no scalar is built:
    c1*zeta^k1*X^v1 == c2*zeta^k2*X^v2, for nonzero c1 and c2, iff v1 == v2
    and either c1 == c2 and k1 = k2 (mod m), or m is even, c1 == -c2 and
    k1 = k2 + m/2 (mod m), because zeta^(m/2) = -1 and no other power of
    zeta is rational.  Each side's coefficient is the product of its two,
    its zeta power the plain sum of its two and its variable key the one
    _vk_mul merges.  Any other four are multiplied and compared."""
    ta, tb, tc, td = a.coeffs, b.coeffs, c.coeffs, d.coeffs
    m = a.conductor
    if b.conductor == c.conductor == d.conductor == m:
        if tb and tb == td:
            return ta == tc
        if len(ta) == len(tb) == len(tc) == len(td) == 1:
            ((za, va), ca), = ta.items()
            ((zb, vb), cb), = tb.items()
            ((zc, vc), cc), = tc.items()
            ((zd, vd), cd), = td.items()
            if _vk_mul(va, vb) != _vk_mul(vc, vd):
                return False
            k = (za + zb - zc - zd) % m
            if not k:
                return ca * cb == cc * cd
            return 2 * k == m and ca * cb == -(cc * cd)
    return a * b == c * d


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
        return {tuple(e - v for e, v in zip(k, val)): _make(m, c)
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
    return _make(m, out)


# ---------------------------------------------------------------------------
# quantum integers
# ---------------------------------------------------------------------------

def quantum_integer(n: int, ell: int) -> CycScalar:
    """[n] = (q^n - q^-n)/(q - q^-1) at q = zeta_ell, for odd ell >= 3.

    Uses the telescoped form q^(n-1) + q^(n-3) + ... + q^(1-n), so no division
    is involved.  Its exponents are folded mod ell into one integer vector,
    which _from_numerators reduces modulo Phi_ell.
    """
    if ell < 3 or ell % 2 == 0:
        raise ValueError(f"ell must be odd and >= 3, got {ell}")
    sign = 1 if n > 0 else -1
    digits = [0] * ell
    for i in range(abs(n)):
        digits[(abs(n) - 1 - 2 * i) % ell] += sign
    return _from_numerators(ell, digits, 1)


# ---------------------------------------------------------------------------
# parsing of the scalar literal grammar
# ---------------------------------------------------------------------------

# A power of a sum is expanded only when deg Phi_m * C(n+t-1, t-1), a bound on
# the term count of the t-monomial base to the n-th, is at most this.
MAX_POWER_TERMS = 10_000

# The largest conductor m a datum file may declare, and the largest --ell the
# sl21 subcommands take (an emitted datum has conductor ell).  Reducing mod
# Phi_m keeps (m - phi(m)) * phi(m) ints and a field inverse takes phi(m) - 1
# products, so an unbounded m lets a few bytes of input run for minutes; the
# relations and rank-bound reports grow with ell the same way.  Every datum the
# tests and the benchmark build has m <= 21; constructors in code are not bound.
MAX_CONDUCTOR = 512

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
    r = max((abs(x) for row in _zeta_reduction_rows(m) for _, x in row), default=0)
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
    return _make(m, out), pos


def _bad_character(text: str) -> int | None:
    """The offset where text stops splitting into tokens, unless only
    whitespace is left there."""
    pos, match = 0, _TOKEN_RE.match
    while mo := match(text, pos):
        pos = mo.end()
    return None if _END_RE.match(text, pos) else pos


# A literal in the form str() prints, which parse_scalar reads without the
# scanner: terms joined by ' + ' or ' - ', the first with an optional '-'.  A
# term is factors joined by '*': a numeral, then z{m} with a power, then
# variables with powers, each part optional but not all.  A numeral is an
# integer or a fraction, each part nonzero, without leading zeros and of at
# most 18 digits; a power is nonzero, of at most 18 digits, and positive on
# z{m}; a variable is a name other than z followed by digits.  Such numerals
# and powers are far inside every limit of the general path.
#
# One factor: a numeral (groups 1 and 2) or a name with an optional power
# (groups 3 and 4).
_PRINTED_FACTOR = re.compile(r"([1-9][0-9]{0,17})(?:/([1-9][0-9]{0,17}))?"
                             r"|([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?[1-9][0-9]{0,17}))?")

# The kinds of factor, in the order a term holds them; the first is a text
# that is not a factor of a printed literal over the conductor.
_NOT_PRINTED, _NUMERAL, _ZETA, _VARIABLE = range(4)


def _printed_factor(f: str, m: int) -> tuple[int, object]:
    """(kind, value) of the factor text f in a literal over Q(zeta_m): a
    numeral's coefficient, a power k of z{m} with 0 < k < deg Phi_m, or a
    variable's (name, exponent) pair."""
    mo = _PRINTED_FACTOR.fullmatch(f)
    if mo is None:
        return _NOT_PRINTED, None
    num, den, name, e = mo.groups()
    if name is None:
        return _NUMERAL, int(num) if den is None else _quo(int(num), int(den))
    k = 1 if e is None else int(e)
    if name[0] == "z" and name[1:].isdigit():
        if name != f"z{m}" or not 0 < k < _degree(m):
            return _NOT_PRINTED, None
        return _ZETA, k
    return _VARIABLE, (name, k)


def _read_canonical(text: str, m: int,
                    factors: dict | None = None) -> CycScalar | None:
    """The value of a printed literal over Q(zeta_m), built as its
    coefficient dict with no arithmetic; None when text is not one.

    text is split on ' ' and '*'.  factors maps each factor text already
    seen, by this call or an earlier one over the same conductor, to its
    _printed_factor, so each distinct factor is matched once, and every
    variable factor of one text is the one (name, exponent) tuple in every
    key that holds it; None starts an empty table.  A zeta factor's entry
    holds for one conductor only, so a table records the conductor of its
    first call under the key None, and a call over another conductor raises
    ValueError.  The literal is read when
    each operator is '+' or '-', each factor is printed, the factors of a
    term come in the kinds' order with one numeral and one zeta power at
    most and strictly ascending names, and the terms' keys are strictly
    ascending.  Within those limits every key is canonical and no two terms
    share one, so the value is the scanner's."""
    if factors is None:
        factors = {}
    elif factors.setdefault(None, m) != m:
        raise ValueError(f"a factor table of conductor {factors[None]} "
                         f"used over conductor {m}")
    sign = 1
    if text[:1] == "-":
        sign, text = -1, text[1:]
    # the terms are at the even places, each operator before its term
    parts = text.split(" ")
    if not len(parts) & 1:
        return None
    out: dict[Key, Coeff] = {}
    last = None
    for i in range(0, len(parts), 2):
        if i:
            op = parts[i - 1]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                return None
        c, zp, vk, seen = sign, 0, [], _NOT_PRINTED
        for f in parts[i].split("*"):
            kind_value = factors.get(f)
            if kind_value is None:
                kind_value = factors[f] = _printed_factor(f, m)
            kind, value = kind_value
            if kind == _VARIABLE:
                if vk and value[0] <= vk[-1][0]:
                    return None
                vk.append(value)
            elif kind <= seen:
                return None
            elif kind == _NUMERAL:
                c = value if sign == 1 else -value
            else:
                zp = value
            seen = kind
        key = (zp, tuple(vk))
        if last is not None and not last < key:
            return None
        out[key] = c
        last = key
    return _make(m, out)


def parse_scalar(text: str, conductor: int, *,
                 factors: dict | None = None) -> CycScalar:
    """Parse the scalar grammar: rationals, z{m}^k, variables, * + - ( ).

    A literal in the form str() prints, such as ``-d0_1^-1*s1_3`` or
    ``1/2 - 3*z5^2*u`` -- numerals of at most 18 digits, zeta powers below
    deg Phi_m, strictly ascending names with nonzero powers in each term and
    strictly ascending terms, joined by ' + ' and ' - ' -- is read factor by
    factor and built as its coefficient dict (_read_canonical).  factors is
    the table of factor texts that reader keeps; a caller that reads many
    literals over one conductor, such as loads_datum for one document, passes
    one table to every call, so that each distinct factor is matched once
    and equal (name, exponent) pairs are one object.  A table serves one
    conductor: passing it with another raises ValueError.  Without it each
    call starts an empty table.  Every other literal goes to the general reader
    _parse_expr, and both give the same value.

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
    v = _read_canonical(text, conductor, factors)
    return _parse_expr(text, conductor) if v is None else v


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
