"""The dict-backed character ring, kept as the reference for the packed one.

relmod.sl21.characters packs each Laurent polynomial in x, y into one int and
peels labels by int subtraction.  This module is the plain implementation it
replaced: a polynomial is a dict from (x-power, y-power) to its coefficient,
a product is the double loop over both dicts, and decompose_typical peels a
label by subtracting its terms from two working dicts.  The tests run both
on the same inputs and compare the results; nothing in src/ imports this.
"""

from __future__ import annotations

from relmod.sl21.characters import (CharacterExpr, DecompositionError, WeightLabel,
                                    make_label)


class XYLaurent:
    """Laurent polynomial in x, y with integer coefficients, dict-backed."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

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
        return XYLaurent()
    return XYLaurent({(k - 2 * i, 0): 1 for i in range(k + 1)})


def _typical_terms(heights: tuple[int, ...], ydeg: int, sign: int):
    """The terms of X0^+- y^ydeg T_k, for each k in heights in turn: for each
    x-power of T_k, four keys with plus coefficient 1 and minus coefficient m
    times sign.  A key can come more than once."""
    for k in heights:
        for ex in range(k, -k - 1, -2):
            yield (ex, ydeg), sign
            yield (ex - 1, ydeg + 1), -sign
            yield (ex + 1, ydeg + 1), -sign
            yield (ex, ydeg + 2), sign


def _label_terms(label: WeightLabel, ell: int):
    """The terms of a label's character; a height k >= ell adds its partner
    (2ell-2-k, shift+k-ell+1), whose y-degree is the same."""
    k = label.k
    return _typical_terms((k, 2 * (ell - 1) - k) if k >= ell else (k,),
                          2 * label.shift + k + 2 * ell * label.eps,
                          -1 if label.parity % 2 else 1)


def _character(terms) -> CharacterExpr:
    plus: dict[tuple[int, int], int] = {}
    minus: dict[tuple[int, int], int] = {}
    for key, m in terms:
        plus[key] = plus.get(key, 0) + 1
        minus[key] = minus.get(key, 0) + m
    return CharacterExpr(XYLaurent(plus), XYLaurent(minus), alpha_power=1)


def typical_character(k: int, shift: int, ell: int, parity: int = 0,
                      eps: int = 0) -> CharacterExpr:
    return _character(_typical_terms((k,), 2 * shift + k + 2 * ell * eps,
                                     -1 if parity % 2 else 1))


def closed_form_Ak(k: int, ell: int) -> CharacterExpr:
    even = sl2_character(k).shift(0, k)
    odd = sl2_character(k - 1).shift(0, k + 1)
    return CharacterExpr(even + odd, even - odd, alpha_power=0)


def standard_module_character() -> CharacterExpr:
    even = XYLaurent({(1, 1): 1, (-1, 1): 1})
    odd = XYLaurent({(0, 2): 1})
    return CharacterExpr(even + odd, even - odd, alpha_power=0)


def decompose_typical(chi: CharacterExpr, ell: int) -> list[WeightLabel]:
    """Greedy peeling, by dicts: reads the highest (y, x) plus monomial,
    infers the label and subtracts its terms from working copies of both
    parts; DecompositionError with the residual when the peel fails."""
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
