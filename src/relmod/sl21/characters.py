"""Character ring for the sl(2|1) weight modules: exact Laurent calculus in x, y.

Conventions.  A weight with (H1, H2) eigenvalues (a, b) contributes the
monomial x^a y^(a+2b); the supercharacter weights each basis vector by
(-1)^parity.  The generic highest-weight parameter enters only through the
formal monomial w = y^(2*alpha), an integer power per character.  With
T_k(x) = (x^(k+1) - x^(-k-1))/(x - x^(-1)) the closed forms are

    chi^+-(A_k)            = y^k T_k +- y^(k+1) T_(k-1)
    chi^+-(V(lambda^k_(alpha+s))) = X0^+- w y^(2s+k) T_k,
                                    X0^+- = (1 +- y/x)(1 +- xy)
    chi^+-(standard module)       = y (x + 1/x) +- y^2   (= chi^+-(A_1))

Typical-label bookkeeping: shifts are folded mod ell, the quotient going into
an epsilon power (the 1-dimensional module with H2 acting by ell contributes
y^(2*ell)).  Heights k >= ell label the negligible indecomposables whose
character is the reflected sum chi_typ(k, s) + chi_typ(2*ell-2-k, s+k-ell+1);
greedy peeling emits those as one negligible label, which is exactly what
makes the decomposition land on the fusion rule after discarding negligibles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scalars import _kronecker_width, _pack_digits, _relayout, _unpack


class ParameterError(ValueError):
    """ell, a height k or a convention outside the range a construction is
    defined on.  The one error the constructors raise for their arguments."""


def require_odd_ell(ell: int) -> None:
    if ell < 3 or ell % 2 == 0:
        raise ParameterError(f"ell must be odd and >= 3, got {ell}")


class DecompositionError(ValueError):
    """Peeling did not terminate at zero; .residual holds what was left."""

    def __init__(self, message: str, residual: "CharacterExpr | None" = None):
        super().__init__(message)
        self.residual = residual


class XYLaurent:
    """Laurent polynomial in x, y with integer coefficients, packed in one int:
    x^a y^b's coefficient is the signed digit (b - y0) s + a - x0 of
    _x = sum c_t 2^(w t), for rows of n columns (x0 .. x0 + n - 1) at stride
    s >= n and w = _width(_l1), _l1 a bound on the sum of |coefficients|."""

    __slots__ = ("_x", "_x0", "_y0", "_n", "_s", "_l1", "_w", "_terms")

    def __new__(cls, terms: dict[tuple[int, int], int] | None = None):
        terms = {k: v for k, v in (terms or {}).items() if v}
        xs, ys = [a for a, _ in terms] or [0], [b for _, b in terms] or [0]
        x0, y0, n, l1 = min(xs), min(ys), max(xs) - min(xs) + 1, sum(map(abs, terms.values()))
        s, w, digits = _stride(n), _width(l1), [0] * ((max(ys) - min(ys) + 1) * _stride(n))
        for (a, b), v in terms.items():
            digits[(b - y0) * s + a - x0] = v
        return _packed(_pack_digits(digits, w), x0, y0, n, s, l1, w, terms)

    @staticmethod
    def monomial(ex: int, ey: int, c: int = 1) -> "XYLaurent":
        return XYLaurent({(ex, ey): c})

    @staticmethod
    def zero() -> "XYLaurent":
        return XYLaurent()

    @staticmethod
    def one() -> "XYLaurent":
        return XYLaurent({(0, 0): 1})

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        if self._terms is None:
            x, w, s = self._x, self._w, self._s
            self._terms = {(self._x0 + t % s, self._y0 + t // s): c for t, c
                           in enumerate(_unpack(x, w, abs(x).bit_length() // w + 1)) if c}
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._x

    def __eq__(self, other):
        return isinstance(other, XYLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _on(self, x0: int, y0: int, s: int, w: int) -> int:
        """This int in a box with corner (x0, y0), stride s and width w >= _w
        that holds this box: a shift, after _relayout if s or w is new."""
        x = self._x
        if (self._s, self._w) != (s, w) and x:
            x = _relayout(x, self._w, self._s, self._n, w, s)
        return x << w * ((self._y0 - y0) * s + self._x0 - x0)

    def _sized(self, other: "XYLaurent", n: int, l1: int) -> tuple[int, int]:
        """Stride and width for n columns and bound l1: the larger stride if it fits."""
        s = max(self._s, other._s)
        return (s if s >= n else _stride(n)), _width(l1)

    def __add__(self, other: "XYLaurent") -> "XYLaurent":
        if not other._x or not self._x:
            return self if other.is_zero else other
        x0, y0 = min(self._x0, other._x0), min(self._y0, other._y0)
        n, l1 = max(self._x0 + self._n, other._x0 + other._n) - x0, self._l1 + other._l1
        s, w = self._sized(other, n, l1)
        return _packed(self._on(x0, y0, s, w) + other._on(x0, y0, s, w), x0, y0, n, s, l1, w)

    def __neg__(self) -> "XYLaurent":
        return _packed(-self._x, self._x0, self._y0, self._n, self._s, self._l1, self._w)

    def __sub__(self, other: "XYLaurent") -> "XYLaurent":
        return self + (-other)

    def __mul__(self, other: "XYLaurent") -> "XYLaurent":
        """Both at one stride of at least n_a + n_b - 1 columns, the product's,
        and multiplied as ints once."""
        if not self._x or not other._x:
            return XYLaurent()
        n, l1 = self._n + other._n - 1, self._l1 * other._l1
        s, w = self._sized(other, n, l1)
        return _packed(self._on(self._x0, self._y0, s, w) * other._on(other._x0, other._y0, s, w),
                       self._x0 + other._x0, self._y0 + other._y0, n, s, l1, w)

    def shift(self, dx: int, dy: int) -> "XYLaurent":
        return _packed(self._x, self._x0 + dx, self._y0 + dy, self._n, self._s, self._l1, self._w)

    def __str__(self):
        bits = []
        for (ex, ey), c in sorted(self.terms.items(), key=lambda kv: kv[0][::-1]):
            mono = "*".join(f"{v}^{e}" if e != 1 else v for v, e in (("x", ex), ("y", ey)) if e)
            coeff = str(abs(c)) if abs(c) != 1 or not mono else ""
            bits.append(("+ " if c > 0 else "- ") + "*".join(b for b in (coeff, mono) if b))
        out = " ".join(bits) or "+ 0"
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    __repr__ = __str__


def _packed(x, x0, y0, n, s, l1, w, terms=None) -> XYLaurent:
    p = object.__new__(XYLaurent)
    p._x, p._x0, p._y0, p._n, p._s, p._l1, p._w, p._terms = x, x0, y0, n, s, l1, w, terms
    return p


def _stride(n: int) -> int:
    """A new box's stride: the power of two >= 2n, and >= 32, so that a product
    with a narrower factor, and A (x) V(k, i)'s peeling box, keep it."""
    return max(32, 1 << (2 * n - 1).bit_length())


def _width(bound: int) -> int:
    """_kronecker_width, at least 16: small characters share one width."""
    return 16 if bound < 1 << 15 else _kronecker_width(bound)


def _series(k: int, w: int) -> int:
    """T_k, x^-k at digit 0: the digits 1, 0, 1, .., 1 (0 for k < 0) as bytes."""
    one = (1).to_bytes(w // 8, "little")
    return int.from_bytes((one + bytes(w // 8)) * k + one, "little") if k >= 0 else 0


def sl2_character(k: int) -> XYLaurent:
    """T_k(x) = x^k + x^(k-2) + ... + x^-k (zero for k < 0)."""
    w = _width(k + 1)
    return _packed(_series(k, w), -k, 0, 2 * k + 1, _stride(2 * k + 1), k + 1, w) \
        if k >= 0 else XYLaurent()


@dataclass(frozen=True)
class CharacterExpr:
    """Character / supercharacter pair with a global w = y^(2 alpha) power;
    ``minus`` already includes all parity signs."""
    plus: XYLaurent
    minus: XYLaurent
    alpha_power: int = 0

    def __mul__(self, other: "CharacterExpr") -> "CharacterExpr":
        return CharacterExpr(self.plus * other.plus, self.minus * other.minus,
                             self.alpha_power + other.alpha_power)

    def __add__(self, other: "CharacterExpr") -> "CharacterExpr":
        if self.alpha_power != other.alpha_power:
            raise ValueError("cannot add characters of different w-power")
        return CharacterExpr(self.plus + other.plus, self.minus + other.minus,
                             self.alpha_power)

    @property
    def is_zero(self) -> bool:
        return self.plus.is_zero and self.minus.is_zero

    def __str__(self):
        w = f" * w^{self.alpha_power}" if self.alpha_power else ""
        return f"plus: ({self.plus}){w}; minus: ({self.minus}){w}"


@dataclass(frozen=True)
class WeightLabel:
    """A typical-module label lambda^k_(alpha+shift) with decorations.

    k is the height (0..ell-1 for honest typicals; ell..2ell-3 marks the
    negligible reflected composites produced by decomposition), shift the
    integer part of the highest weight mod ell, parity 1 for an explicit odd
    twist, eps the power of the 1-dim module with H2 acting by ell.
    """
    k: int
    shift: int
    parity: int = 0
    eps: int = 0
    negligible: bool = False


def make_label(k: int, shift: int, parity: int, ell: int) -> WeightLabel:
    """Canonical label with the shift folded mod ell into an epsilon power."""
    return WeightLabel(k, shift % ell, parity % 2, shift // ell, k >= ell - 1)


def _times_x0(t: int, s: int, w: int, sign: int) -> tuple[int, int]:
    """t times X0^+- = 1 +- y/x +- xy + y^2 at stride s and width w: t shifted
    by 0 and 2s digits, +- t by s -+ 1; the minus part times sign."""
    ends, mid = t + (t << w * 2 * s), (t << w * (s - 1)) + (t << w * (s + 1))
    return ends + mid, sign * (ends - mid)


def typical_character(k: int, shift: int, ell: int, parity: int = 0,
                      eps: int = 0) -> CharacterExpr:
    """chi^+-(V(lambda^k_(alpha+shift))) with decorations; requires 0 <= k.

    Equal to (1 +- y/x)(1 +- xy) * sl2_character(k).shift(0, ydeg)."""
    if k < 0:
        raise ValueError("height must be non-negative")
    n, s, w = 2 * k + 3, _stride(2 * k + 3), _width(4 * k + 4)
    plus, minus = _times_x0(_series(k, w), s, w, -1 if parity % 2 else 1)
    box = (-k - 1, 2 * shift + k + 2 * ell * eps, n, s, 4 * k + 4, w)
    return CharacterExpr(_packed(plus << w, *box), _packed(minus << w, *box), 1)


def character_of_label(label: WeightLabel, ell: int) -> CharacterExpr:
    """Character of a label; heights >= ell mean the reflected negligible sum."""
    k, i = label.k, label.shift + ell * label.eps
    if not 0 <= k <= 2 * (ell - 1):
        raise ParameterError(f"height {k} out of range 0..2*ell-2")
    chi = typical_character(k, i, ell, label.parity)
    return chi + typical_character(2 * ell - 2 - k, i + k - ell + 1, ell, label.parity) \
        if k >= ell else chi


def closed_form_Ak(k: int, ell: int) -> CharacterExpr:
    """chi^+-(A_k) = (y^k T_k) +- (y^(k+1) T_(k-1)), with x^-k y^k at digit 0."""
    if k < 0:
        return CharacterExpr(XYLaurent(), XYLaurent())
    n, s, w = 2 * k + 1, _stride(2 * k + 1), _width(2 * k + 1)
    even, odd, box = _series(k, w), _series(k - 1, w) << w * (s + 1), (-k, k, n, s, n, w)
    return CharacterExpr(_packed(even + odd, *box), _packed(even - odd, *box))


def standard_module_character() -> CharacterExpr:
    """chi^+-(v) = y(x + 1/x) +- y^2 for the standard (2|1)-dimensional module.

    The standard module is A_1, whose weights are (H1, H2) = (1,0), (-1,1),
    (0,1); the odd basis vector therefore contributes y^2, not y.  (With an
    odd contribution of y the tensor-with-v decomposition identity would fail
    on integer shifts, so this is the only self-consistent normalization.)
    """
    return closed_form_Ak(1, 3)


def character_of_rep(rep) -> CharacterExpr:
    """Character of an explicit weight module from its H-spectrum and parities."""
    plus, minus = {}, {}
    for (a, b), par in zip(rep.h_eigs, rep.parities):
        plus[a, a + 2 * b] = plus.get((a, a + 2 * b), 0) + 1
        minus[a, a + 2 * b] = minus.get((a, a + 2 * b), 0) + (-1 if par else 1)
    return CharacterExpr(XYLaurent(plus), XYLaurent(minus), alpha_power=0)


def fuse_A(label: WeightLabel, ell: int) -> WeightLabel:
    """Tensoring with A = A_(ell-1): (k, i) -> (ell-2-k, i+k+1) with a parity flip.

    The mod-ell carry of the shift goes into the epsilon power; applying the
    map twice returns (k, i) with parity restored and epsilon raised by one,
    the translation by the H2-by-ell one-dimensional module.
    """
    require_odd_ell(ell)
    if not 0 <= label.k <= ell - 2:
        raise ParameterError(f"height {label.k} out of range 0..ell-2 (negligible input?)")
    shift = label.shift + label.k + 1
    return WeightLabel(ell - 2 - label.k, shift % ell, (label.parity + 1) % 2,
                       label.eps + shift // ell, False)


def decompose_typical(chi: CharacterExpr, ell: int) -> list[WeightLabel]:
    """Greedy peeling of a character into labels of height 0..2ell-2.

    Repeatedly reads the lexicographically highest surviving monomial of the
    plus part (by y-degree then x-degree), infers the label, and subtracts its
    character; heights >= ell are peeled as their reflected negligible
    composites.  Raises DecompositionError with the residual if the input is
    not a non-negative combination of such characters, including when a top
    monomial has height above 2ell-2.

    Packed in one box that holds every label under a top, the top is the plus
    int's top digit, and a label is one subtraction from each int."""
    top, plus, minus = 2 * (ell - 1), chi.plus, chi.minus
    half = 1 << (plus._w - 1)
    budget = (plus._x + half - 1) % (2 * half - 1) - half + 1   # x = sum c_t mod 2^w - 1
    if budget < 0:
        raise DecompositionError("total dimension is negative", chi)
    x0, y0 = min(plus._x0, minus._x0, -top - 1), min(plus._y0 - 2, minus._y0)
    n = max(plus._x0 + plus._n, minus._x0 + minus._n, top + 2) - x0
    bound = max(plus._l1, minus._l1) + 4 * (budget + 1)
    s, w = plus._sized(minus, n, bound)
    p, m, g, half = plus._on(x0, y0, s, w), minus._on(x0, y0, s, w), _series(top, w), 1 << w - 1

    def fail(message: str):   # rebuilt from its terms: bound is no bound on the L1 norm
        return DecompositionError(message, CharacterExpr(*(
            XYLaurent(_packed(r, x0, y0, n, s, bound, w).terms) for r in (p, m)), chi.alpha_power))

    labels: list[WeightLabel] = []
    while p:
        if len(labels) > budget:
            raise fail("peeling did not terminate")
        t = abs(p).bit_length() // w
        ey, ex = y0 + t // s, x0 + t % s
        c, s2 = (p >> w * t - 1) + 1 >> 1, ey - ex - 2
        if not 0 <= ex <= top or c < 0 or s2 % 2:
            raise fail(f"monomial x^{ex} y^{ey} (coefficient {c}) is not the top of a "
                       "typical character")
        parity = 0 if (((m >> w * t - 1) + 1 >> 1) + half & 2 * half - 1) - half > -c else 1
        labels.append(make_label(ex, s2 // 2, parity, ell))
        tk = g & (1 << w * (2 * ex + 1)) - 1   # T_ex, and its partner's for a negligible
        if ex >= ell:
            tk += (g & (1 << w * (2 * (top - ex) + 1)) - 1) << w * (2 * ex - top)
        dp, dm = _times_x0(tk, s, w, 1 - 2 * parity)
        p, m = p - (dp << w * (t - 2 * (s + ex))), m - (dm << w * (t - 2 * (s + ex)))
    if m:
        raise fail("supercharacter residue is nonzero")
    labels.sort(key=lambda l: (l.k, l.shift, l.parity, l.eps))
    return labels
