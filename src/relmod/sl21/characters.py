"""Character ring for the sl(2|1) weight modules: exact Laurent calculus in x, y.

Conventions.  A weight with (H1, H2) eigenvalues (a, b) contributes the
monomial x^a y^(a+2b); the supercharacter weights each basis vector by
(-1)^parity.  The generic highest-weight parameter only ever enters through
the formal monomial w = y^(2*alpha), tracked as an integer power per
character.  With T_k(x) = (x^(k+1) - x^(-k-1))/(x - x^(-1)) the closed forms
are

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


# ---------------------------------------------------------------------------
# integer Laurent polynomials in x, y
# ---------------------------------------------------------------------------

class XYLaurent:
    """Laurent polynomial in x, y with integer coefficients, dict-backed."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

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
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, XYLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "XYLaurent") -> "XYLaurent":
        out = dict(self.terms)
        for k, v in other.terms.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
        return XYLaurent(out)

    def __neg__(self) -> "XYLaurent":
        return XYLaurent({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "XYLaurent") -> "XYLaurent":
        return self + (-other)

    def __mul__(self, other: "XYLaurent") -> "XYLaurent":
        out: dict[tuple[int, int], int] = {}
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                k = (x1 + x2, y1 + y2)
                out[k] = out.get(k, 0) + c1 * c2
        return XYLaurent(out)

    def shift(self, dx: int, dy: int) -> "XYLaurent":
        return XYLaurent({(x + dx, y + dy): v for (x, y), v in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (ex, ey), c in sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            mono = "*".join(
                ([f"x^{ex}" if ex != 1 else "x"] if ex else [])
                + ([f"y^{ey}" if ey != 1 else "y"] if ey else []))
            coeff = str(abs(c)) if abs(c) != 1 or not mono else ""
            body = "*".join(b for b in (coeff, mono) if b) or "1"
            bits.append(("+ " if c > 0 else "- ") + body)
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    __repr__ = __str__


def sl2_character(k: int) -> XYLaurent:
    """T_k(x) = x^k + x^(k-2) + ... + x^-k (zero for k < 0)."""
    if k < 0:
        return XYLaurent.zero()
    return XYLaurent({(k - 2 * i, 0): 1 for i in range(k + 1)})


# ---------------------------------------------------------------------------
# character expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterExpr:
    """Character / supercharacter pair with a global w = y^(2 alpha) power.

    ``minus`` already includes all parity signs.
    """
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


# ---------------------------------------------------------------------------
# labels and their characters
# ---------------------------------------------------------------------------

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
    return WeightLabel(k=k, shift=shift % ell, parity=parity % 2,
                       eps=shift // ell, negligible=k >= ell - 1)


def _typical_terms(heights: tuple[int, ...], ydeg: int, sign: int):
    """The terms of X0^+- y^ydeg T_k, for each k in heights in turn.

    For ex = k, k-2, ..., -k, yields (key, m) once for each of the four
    products of x^ex y^ydeg with X0^+- = 1 +- y/x +- xy + y^2.  The plus
    coefficient is 1 and the minus coefficient m, times sign (-1 for an odd
    label).  A key can come more than once, e.g. from ex and ex + 2.
    """
    for k in heights:
        for ex in range(k, -k - 1, -2):
            yield (ex, ydeg), sign
            yield (ex - 1, ydeg + 1), -sign
            yield (ex + 1, ydeg + 1), -sign
            yield (ex, ydeg + 2), sign


def _label_terms(label: WeightLabel, ell: int):
    """The terms of character_of_label(label, ell), from _typical_terms.  A
    height k >= ell adds its partner (2ell-2-k, shift+k-ell+1), whose y-degree
    is the same."""
    k = label.k
    return _typical_terms((k, 2 * (ell - 1) - k) if k >= ell else (k,),
                          2 * label.shift + k + 2 * ell * label.eps,
                          -1 if label.parity % 2 else 1)


def _character(terms) -> CharacterExpr:
    """The character whose terms are those yielded, summed by key."""
    plus: dict[tuple[int, int], int] = {}
    minus: dict[tuple[int, int], int] = {}
    for key, m in terms:
        plus[key] = plus.get(key, 0) + 1
        minus[key] = minus.get(key, 0) + m
    return CharacterExpr(XYLaurent(plus), XYLaurent(minus), alpha_power=1)


def typical_character(k: int, shift: int, ell: int, parity: int = 0,
                      eps: int = 0) -> CharacterExpr:
    """chi^+-(V(lambda^k_(alpha+shift))) with decorations; requires 0 <= k.

    Equal to (1 +- y/x)(1 +- xy) * sl2_character(k).shift(0, ydeg), expanded
    term by term by _typical_terms."""
    if k < 0:
        raise ValueError("height must be non-negative")
    return _character(_typical_terms((k,), 2 * shift + k + 2 * ell * eps,
                                     -1 if parity % 2 else 1))


def character_of_label(label: WeightLabel, ell: int) -> CharacterExpr:
    """Character of a label; heights >= ell mean the reflected negligible sum."""
    if not 0 <= label.k <= 2 * (ell - 1):
        raise ParameterError(f"height {label.k} out of range 0..2*ell-2")
    return _character(_label_terms(label, ell))


def closed_form_Ak(k: int, ell: int) -> CharacterExpr:
    """chi^+-(A_k) = (y^k T_k) +- (y^(k+1) T_(k-1))."""
    even = sl2_character(k).shift(0, k)
    odd = sl2_character(k - 1).shift(0, k + 1)
    return CharacterExpr(even + odd, even - odd, alpha_power=0)


def standard_module_character() -> CharacterExpr:
    """chi^+-(v) = y(x + 1/x) +- y^2 for the standard (2|1)-dimensional module.

    The standard module is A_1, whose weights are (H1, H2) = (1,0), (-1,1),
    (0,1); the odd basis vector therefore contributes y^2, not y.  (With an
    odd contribution of y the tensor-with-v decomposition identity would fail
    on integer shifts, so this is the only self-consistent normalization.)
    """
    even = XYLaurent({(1, 1): 1, (-1, 1): 1})
    odd = XYLaurent({(0, 2): 1})
    return CharacterExpr(even + odd, even - odd, alpha_power=0)


def character_of_rep(rep) -> CharacterExpr:
    """Character of an explicit weight module from its H-spectrum and parities."""
    plus = XYLaurent.zero()
    minus = XYLaurent.zero()
    for (a, b), par in zip(rep.h_eigs, rep.parities):
        mono = XYLaurent.monomial(a, a + 2 * b)
        plus = plus + mono
        minus = (minus - mono) if par else (minus + mono)
    return CharacterExpr(plus, minus, alpha_power=0)


# ---------------------------------------------------------------------------
# fusion with A and greedy decomposition
# ---------------------------------------------------------------------------

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
    return WeightLabel(k=ell - 2 - label.k, shift=shift % ell,
                       parity=(label.parity + 1) % 2,
                       eps=label.eps + shift // ell, negligible=False)


def decompose_typical(chi: CharacterExpr, ell: int) -> list[WeightLabel]:
    """Greedy peeling of a character into labels of height 0..2ell-2.

    Repeatedly reads the lexicographically highest surviving monomial of the
    plus part (by y-degree then x-degree), infers the label, and subtracts its
    terms in place from one working copy of chi; heights >= ell are peeled as
    their reflected negligible composites.  Raises DecompositionError with the
    residual if the input is not a non-negative combination of such
    characters, including when a top monomial has height above 2ell-2.
    """
    plus, minus = dict(chi.plus.terms), dict(chi.minus.terms)

    def fail(message: str):
        return DecompositionError(message, CharacterExpr(
            XYLaurent(plus), XYLaurent(minus), chi.alpha_power))

    budget = sum(plus.values())
    if budget < 0:
        raise fail("total dimension is negative")
    labels: list[WeightLabel] = []
    steps = 0
    while plus:
        steps += 1
        if steps > budget + 1:
            raise fail("peeling did not terminate")
        ey, ex = max((y, x) for x, y in plus)
        c = plus[ex, ey]
        h = ex
        s2 = ey - h - 2
        if not 0 <= h <= 2 * (ell - 1) or c < 0 or s2 % 2:
            raise fail(f"monomial x^{ex} y^{ey} (coefficient {c}) is not the top of a "
                       "typical character")
        mc = minus.get((ex, ey), 0)
        parity = 0 if mc > -c else 1
        lab = make_label(h, s2 // 2, parity, ell)
        for key, m in _label_terms(lab, ell):
            left = plus.get(key, 0) - 1
            if left:
                plus[key] = left
            else:
                del plus[key]
            left = minus.get(key, 0) - m
            if left:
                minus[key] = left
            else:
                del minus[key]
        labels.append(lab)
    if minus:
        raise fail("supercharacter residue is nonzero")
    labels.sort(key=lambda l: (l.k, l.shift, l.parity, l.eps))
    return labels
