"""Rank-bound analysis and symbolic datum emission for quantum sl(2|1).

The S'-rows of the generic block are pairwise proportional: tensoring with
A = A_(ell-1) multiplies every S' value by u^-2 (u = q^(ell*alpha)) and moves
the label by the fusion involution (k, i) -> (ell-2-k, i+k+1 mod ell), so

    row(k, i) = -u^2 * row(ell-2-k, i+k+1 mod ell).

The involution is fixed-point-free for odd ell (k = ell-2-k has no integer
solution), giving ell(ell-1)/2 proportionality classes and the same bound on
the rank of the ell(ell-1)-sized S-matrix: degenerate, hence the category
cannot be relative modular (modularity forces a non-degenerate S-matrix).

emit_datum materializes this as a loadable ModularDatum: the modified
S-matrix is built from symmetric unknowns on orbit representatives and
extended by the proportionality constraints; dims and twists are fresh
invertible unknowns (their values are not determined here); psi defaults to
the table forced by S'(A, W) = u^-2 together with multiplicativity of the
double-braiding partial trace, namely psi(n*abar + s, (z, kk)) = u^(-4*n*kk).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..datum import (
    Degree,
    GradingSpec,
    ModularDatum,
    SBlock,
    SmallSubset,
    TranslationSpec,
)
from ..matrices import ExactMatrix
from ..scalars import CycScalar
from .characters import WeightLabel, fuse_A, require_odd_ell


@dataclass(frozen=True)
class RankBoundReport:
    ell: int
    classes: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    bound: int
    matrix_size: int
    fixed_point_free: bool
    proportionality_factor: str
    verdict: str

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "classes": [[list(a), list(b)] for a, b in self.classes],
            "bound": self.bound,
            "matrix_size": self.matrix_size,
            "fixed_point_free": self.fixed_point_free,
            "proportionality_factor": self.proportionality_factor,
            "verdict": self.verdict,
        }


def rank_bound_analysis(ell: int) -> RankBoundReport:
    """Orbits of the fusion involution on labels, and the resulting rank bound."""
    require_odd_ell(ell)
    labels = [(k, i) for k in range(ell - 1) for i in range(ell)]
    fixed_point_free = True
    seen: set[tuple[int, int]] = set()
    classes: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for lab in labels:
        if lab in seen:
            continue
        fused = fuse_A(WeightLabel(k=lab[0], shift=lab[1]), ell)
        partner = (fused.k, fused.shift)
        if partner == lab:
            fixed_point_free = False
        seen.add(lab)
        seen.add(partner)
        classes.append((lab, partner))
    bound = len(classes)
    verdict = ("S-matrix degenerate for every generic degree: rank <= "
               f"{bound} < {len(labels)}; not relative modular "
               "(relative modularity forces a non-degenerate S-matrix)")
    return RankBoundReport(
        ell=ell, classes=tuple(classes), bound=bound, matrix_size=len(labels),
        fixed_point_free=fixed_point_free, proportionality_factor="-u^2",
        verdict=verdict)


# ---------------------------------------------------------------------------
# symbolic datum emission
# ---------------------------------------------------------------------------

def _label_name(k: int, i: int) -> str:
    return f"{k}_{i}"


def emit_datum(ell: int) -> ModularDatum:
    """Symbolic ModularDatum for the generic degree abar at odd ell.

    Index set: (k, i) with 0 <= k <= ell-2, 0 <= i <= ell-1.  The modified
    S-matrix carries symmetric unknowns s{p}_{q} on orbit representatives and
    the factor -u^(-2) on the partner row/column of each orbit; S' entries
    divide the column dimension back out.  Everything not pinned down stays a
    named unknown, so checks that only need the constrained structure run.

    So the S' entry at row r and column c is
    row_coeff(r) * row_coeff(c) * s{lo}_{hi} * d{c}^-1, where row_coeff is 1
    on a representative and -u^-2 on a partner, and lo <= hi are the indices
    of the two labels' representatives.  Its text is written straight from
    that formula, with no scalar built:

        ["-"] + "d{c}^-1*s{lo}_{hi}" + ["*u^-2" | "*u^-4"]

    with the minus sign when exactly one of r and c is a partner, "*u^-2" in
    that case and "*u^-4" when both are.  That is the text str() prints for
    the product: one term with coefficient +-1, which str() writes as a bare
    sign, and its variables in ascending name order, which they already are,
    since every dimension's name starts with d, every unknown's with s, and
    "d" < "s" < "u".  The block is text-backed (ExactMatrix.from_texts): the
    datum writer writes the texts as they are, and the entries are parsed
    only when something reads them.
    """
    report = rank_bound_analysis(ell)
    labels = [(k, i) for k in range(ell - 1) for i in range(ell)]

    rep_of: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in report.classes:
        rep = min(a, b)
        rep_of[a] = rep
        rep_of[b] = rep
    reps = sorted({r for r in rep_of.values()})
    rep_index = {r: n for n, r in enumerate(reps)}

    one = CycScalar.one(ell)
    dims = [CycScalar.variable(f"d{_label_name(*lab)}", ell) for lab in labels]
    twists = [CycScalar.variable(f"t{_label_name(*lab)}", ell) for lab in labels]

    # per column, the text before and after s{lo}_{hi}: one pair for a
    # representative row, one for a partner row
    rep_row: list[tuple[str, str]] = []
    partner_row: list[tuple[str, str]] = []
    for c in labels:
        head = f"d{_label_name(*c)}^-1*"
        if rep_of[c] == c:
            rep_row.append((head, ""))
            partner_row.append(("-" + head, "*u^-2"))
        else:
            rep_row.append(("-" + head, "*u^-2"))
            partner_row.append((head, "*u^-4"))
    col_reps = [rep_index[rep_of[c]] for c in labels]
    # the unknowns' names along a row, by column, kept per representative
    # index: a representative's row and its partner's share them, and each
    # name is formatted once per pair of representatives
    s_names: dict[int, list[str]] = {}
    n = len(labels)
    texts: list[str] = []
    for r in labels:
        pr = rep_index[rep_of[r]]
        names = s_names.get(pr)
        if names is None:
            row_names = [f"s{min(pr, pc)}_{max(pr, pc)}" for pc in range(len(reps))]
            names = s_names[pr] = [row_names[pc] for pc in col_reps]
        cols = rep_row if rep_of[r] == r else partner_row
        texts += [head + s + tail for (head, tail), s in zip(cols, names)]
    sprime = ExactMatrix.from_texts(n, n, ell, texts)

    abar = Degree(alpha=1)
    grading = GradingSpec(
        cyclic_factors=(), has_generic_torus=True,
        small=SmallSubset("list", (Degree(),)))

    # psi on Z = Z/2 x Z, forced by S'(A, W) = u^-2 and multiplicativity;
    # user-overridable input data, surfaced as such by the checks.
    def psi_val(alpha_mult: int, z: tuple[int, int]) -> CycScalar:
        return CycScalar.variable("u", ell, -4 * alpha_mult * z[1]) \
            if alpha_mult * z[1] else CycScalar.one(ell)

    psi_entries = []
    for deg in (abar, Degree(alpha=2), Degree(alpha=1, shift=Fraction(1, 2))):
        for z in ((1, 0), (0, 1), (0, 2), (1, 1)):
            psi_entries.append((deg, z, psi_val(deg.alpha, z)))
    translation = TranslationSpec(
        cyclic_factors=(2, 0),
        qdim_generators=(CycScalar.rational(-1, ell), one),
        qdim_table=(((0, 0), one), ((1, 0), CycScalar.rational(-1, ell))),
        psi=tuple(psi_entries),
        no_self_extension=True)

    names = tuple(_label_name(*lab) for lab in labels)
    return ModularDatum(
        conductor=ell,
        grading=grading,
        translation=translation,
        degrees=(abar,),
        index_sets={abar: names},
        dims={abar: tuple(dims)},
        twists={abar: tuple(twists)},
        sprime=(SBlock(abar, abar, sprime, names, names),),
        orbit_count=None,
        extra={
            "x-sl21": {
                "ell": ell,
                "a_row_value": "u^-2",
                "proportionality_factor": report.proportionality_factor,
                "row_pairs": [[list(a), list(b)] for a, b in report.classes],
                "psi_provenance": "derived from the A-row value and "
                                  "double-braiding multiplicativity; input-dependent",
            }
        })
