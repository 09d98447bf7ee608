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


def _involution(k: int, i: int, ell: int) -> tuple[int, int]:
    lab = fuse_A(WeightLabel(k=k, shift=i), ell)
    return lab.k, lab.shift


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
        partner = _involution(*lab, ell)
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
    factor = -CycScalar.variable("u", ell, -2)   # partner row = -u^-2 * rep row

    def row_coeff(lab: tuple[int, int]) -> CycScalar:
        return one if rep_of[lab] == lab else factor

    dims = [CycScalar.variable(f"d{_label_name(*lab)}", ell) for lab in labels]
    twists = [CycScalar.variable(f"t{_label_name(*lab)}", ell) for lab in labels]

    # S' entry (r, c) = row_coeff(r) * row_coeff(c) * s{lo}_{hi} / d(c): the
    # column factor row_coeff(c) / d(c) is built once, and once more times
    # the partner factor for the partner rows, so an entry is one product.
    n = len(labels)
    rep_cols = [row_coeff(c) * d.inverse() for c, d in zip(labels, dims)]
    partner_cols = [factor * f for f in rep_cols]
    col_reps = [rep_index[rep_of[c]] for c in labels]
    sym: dict[tuple[int, int], CycScalar] = {}
    entries: list[CycScalar] = []
    for r in labels:
        cols = rep_cols if rep_of[r] == r else partner_cols
        pr = rep_index[rep_of[r]]
        for pc, f in zip(col_reps, cols):
            key = (min(pr, pc), max(pr, pc))
            s = sym.get(key)
            if s is None:
                s = sym[key] = CycScalar.variable(f"s{key[0]}_{key[1]}", ell)
            entries.append(s * f)
    sprime = ExactMatrix(n, n, ell, entries)

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
