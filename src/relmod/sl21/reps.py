"""Explicit weight-module matrices for unrolled quantum sl(2|1) at q = zeta_ell.

The central object is the (2k+1)-dimensional module A_k with basis v^j_i,
0 <= j <= 1, 0 <= i <= k-j, parity j.  Generator actions:

    H1 v^j_i = (k-j-2i) v^j_i        H2 v^j_i = (i+j) v^j_i
    F1 v^j_i = v^j_{i+1}             E2 v^1_i = v^0_{i+1}
    E1 v^j_i = [i][k-j+1-i] v^j_{i-1}
    F2 v^0_i = [i+1] v^1_{i-1}   (convention "paper")
    F2 v^0_i = [i]   v^1_{i-1}   (convention "corrected")

Out-of-range basis labels denote the zero vector.  The F2 coefficient is
ambiguous in its source; both conventions are implemented and check_relations
adjudicates (the corrected one satisfies every relation, see the [E2,F2]
super-commutator against the H2 spectrum).

Cartan data: a = [[2,-1],[-1,0]], d = (1,1) (the matrix is already symmetric,
so the symmetrizers are trivial); root 1 is even and root 2 odd.  A module
holds its generators indexed by simple root from 0: rep.E[0] is E1 and
rep.F[1] is F2.  rep.H(i) and rep.K(i, power) = q^(power d_i H_i) are
diagonals read off h_eigs, with the same index.  tensor_rep states the
coproduct and relation_set the A3 and A7 clauses once over the roots.
check_relations evaluates only the 16 clauses that involve E_i or F_i;
relation_set says why the others hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..matrices import ExactMatrix
from ..scalars import CycScalar, quantum_integer
from ..verdicts import FAILS, HOLDS, Verdict, Witness
from .characters import ParameterError, require_odd_ell

CARTAN = ((2, -1), (-1, 0))
ROOT_PARITY = (0, 1)   # the parity of E_i and F_i, per simple root
CONVENTIONS = ("paper", "corrected")


@dataclass(frozen=True)
class WeightModuleRep:
    ell: int
    labels: tuple          # opaque basis labels
    parities: tuple[int, ...]
    h_eigs: tuple[tuple[int, int], ...]   # (H1, H2) eigenvalue per basis vector
    E: tuple[ExactMatrix, ...]            # E[i] is E_(i+1), one per simple root
    F: tuple[ExactMatrix, ...]
    convention: str | None = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _diag(self, i: int, power: int | None) -> ExactMatrix:
        """diag(H_(i+1)) when power is None, else diag(q^(power H_(i+1))), read
        off h_eigs."""
        ell = self.ell
        eigs = [h[i] for h in self.h_eigs]
        return ExactMatrix.diagonal(
            [CycScalar.rational(e, ell) if power is None else CycScalar.zeta(ell, power * e)
             for e in eigs], ell)

    def H(self, i: int) -> ExactMatrix:
        """H_(i+1), the Cartan generator of simple root i."""
        return self._diag(i, None)

    def K(self, i: int, power: int = 1) -> ExactMatrix:
        """K_(i+1)^power = q^(power H_(i+1))."""
        return self._diag(i, power)


def build_Ak(k: int, ell: int, convention: str = "corrected") -> WeightModuleRep:
    """The deformation A_k of the super-symmetric power, as explicit matrices."""
    require_odd_ell(ell)
    if not 1 <= k <= ell - 1:
        raise ParameterError(f"k must satisfy 1 <= k <= ell-1, got k={k}")
    if convention not in CONVENTIONS:
        raise ParameterError(f"unknown convention {convention!r}")
    labels = [(0, i) for i in range(k + 1)] + [(1, i) for i in range(k)]
    index = {lab: n for n, lab in enumerate(labels)}
    dim = len(labels)
    parities = tuple(j for j, _ in labels)
    h_eigs = tuple((k - j - 2 * i, i + j) for j, i in labels)

    zero = CycScalar.zero(ell)
    E, F = ([[[zero] * dim for _ in range(dim)] for _ in CARTAN] for _ in "EF")
    for j, i in labels:
        src = index[(j, i)]
        if (j, i + 1) in index:
            F[0][index[(j, i + 1)]][src] = CycScalar.one(ell)
        if j == 1 and (0, i + 1) in index:
            E[1][index[(0, i + 1)]][src] = CycScalar.one(ell)
        if i >= 1:
            E[0][index[(j, i - 1)]][src] = quantum_integer(i, ell) * quantum_integer(k - j + 1 - i, ell)
        if j == 0 and (1, i - 1) in index:
            coeff = quantum_integer(i + 1 if convention == "paper" else i, ell)
            F[1][index[(1, i - 1)]][src] = coeff

    return WeightModuleRep(
        ell=ell, labels=tuple(labels), parities=parities, h_eigs=h_eigs,
        E=tuple(ExactMatrix.from_rows(m, ell) for m in E),
        F=tuple(ExactMatrix.from_rows(m, ell) for m in F), convention=convention)


def trivial_rep(ell: int) -> WeightModuleRep:
    """The 1-dimensional trivial module."""
    zeros = (ExactMatrix.zeros(1, 1, ell),) * len(CARTAN)
    return WeightModuleRep(ell=ell, labels=("1",), parities=(0,), h_eigs=((0, 0),),
                           E=zeros, F=zeros, convention=None)


# ---------------------------------------------------------------------------
# tensor product via the coproduct
# ---------------------------------------------------------------------------

def _super_kron(x: ExactMatrix, y: ExactMatrix, par_a: tuple[int, ...],
                y_parity: int, ell: int) -> ExactMatrix:
    """Matrix of x (x) y on the tensor basis with Koszul signs.

    (x (x) y)(v_p (x) w_q) = (-1)^(|y| |v_p|) x v_p (x) y w_q, so the sign is
    decided by the parity of the first-factor column vector.
    """
    ra, ca = x.rows, x.cols
    rb, cb = y.rows, y.cols
    zero = CycScalar.zero(ell)
    out = [zero] * (ra * rb * ca * cb)
    cols = ca * cb
    for p2 in range(ra):
        for p in range(ca):
            a = x[p2, p]
            if a.is_zero:
                continue
            sign = -1 if (y_parity and par_a[p] % 2) else 1
            av = a if sign == 1 else -a
            for q2 in range(rb):
                for q in range(cb):
                    b = y[q2, q]
                    if b.is_zero:
                        continue
                    out[(p2 * rb + q2) * cols + (p * cb + q)] = av * b
    return ExactMatrix(ra * rb, ca * cb, ell, out)


def tensor_rep(a: WeightModuleRep, b: WeightModuleRep) -> WeightModuleRep:
    """Tensor product module via Delta(E_i) = E_i(x)1 + K_i^-1(x)E_i and
    Delta(F_i) = F_i(x)K_i + 1(x)F_i, for each simple root i."""
    if a.ell != b.ell:
        raise ValueError(f"ell mismatch: {a.ell} vs {b.ell}")
    ell = a.ell
    labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    parities = tuple((pa + pb) % 2 for pa in a.parities for pb in b.parities)
    h_eigs = tuple((ha[0] + hb[0], ha[1] + hb[1]) for ha in a.h_eigs for hb in b.h_eigs)

    id_a, id_b = ExactMatrix.identity(a.dim, ell), ExactMatrix.identity(b.dim, ell)

    def kron(x, y, y_parity):
        return _super_kron(x, y, a.parities, y_parity, ell)

    E = tuple(kron(a.E[i], id_b, 0) + kron(a.K(i, -1), b.E[i], p)
              for i, p in enumerate(ROOT_PARITY))
    F = tuple(kron(a.F[i], b.K(i), 0) + kron(id_a, b.F[i], p)
              for i, p in enumerate(ROOT_PARITY))
    return WeightModuleRep(ell=ell, labels=labels, parities=parities, h_eigs=h_eigs,
                           E=E, F=F, convention=a.convention or b.convention)


# ---------------------------------------------------------------------------
# the defining-relation checker
# ---------------------------------------------------------------------------

def _bracket(x, y, anti=False):
    """The super-commutator: xy + yx when anti, else xy - yx."""
    return x @ y + y @ x if anti else x @ y - y @ x


def relation_set(rep: WeightModuleRep) -> list[tuple[str, ExactMatrix, ExactMatrix]]:
    """The defining relations that involve E_i or F_i, as pairs of matrices that must agree.

    These are A3, E2^2 = F2^2 = 0, A5 and the A7 clauses [H_i,X_j] = +-a_ij X_j.
    H_i is diagonal, so the left side of A7 is read off the weight spectrum:
    entry (r, c) of [H_i, X] is (h_i(r) - h_i(c)) X[r, c], the same matrix as
    H(i) @ X - X @ H(i) for every X, without the two products.
    The others cannot fail here.  A1, [H1,H2] = 0, [H_i,K_j] = 0 and
    K_i = q^(d_i H_i) compare diagonals read off the same h_eigs.  A2 follows
    from A7: X[r,c] != 0 forces h_i(r) - h_i(c) = +-a_ij, so conjugating by
    q^(H_i) scales that entry by q^(+-a_ij); A7 also rejects weight gaps that
    differ by a multiple of ell.  A4 and A6 are vacuous for sl(2|1).
    """
    ell = rep.ell
    zero = ExactMatrix.zeros(rep.dim, rep.dim, ell)
    q = CycScalar.zeta(ell)
    qq = q + q ** -1
    E, F = rep.E, rep.F
    roots = range(len(CARTAN))

    rels: list[tuple[str, ExactMatrix, ExactMatrix]] = []
    # A3: [E_i,F_j] = delta_ij (K_i-K_i^-1)/(q-q^-1), the right side evaluated
    # on the H_i spectrum; the bracket anticommutes when both roots are odd
    for i in roots:
        for j in roots:
            says, rhs = "0", zero
            if i == j:
                says = f"(K{i + 1}-K{i + 1}^-1)/(q-q^-1)"
                rhs = ExactMatrix.diagonal([quantum_integer(h[i], ell) for h in rep.h_eigs], ell)
            rels.append((f"A3 ({i + 1},{j + 1}): [E{i + 1},F{j + 1}] = {says}",
                         _bracket(E[i], F[j], ROOT_PARITY[i] and ROOT_PARITY[j]), rhs))
    rels.append(("E2^2 = 0", E[1] @ E[1], zero))
    rels.append(("F2^2 = 0", F[1] @ F[1], zero))
    for name, (x1, x2) in (("E", E), ("F", F)):
        lhs = x1 @ x1 @ x2 - (x1 @ x2 @ x1).scale(qq) + x2 @ x1 @ x1
        rels.append((f"A5: {name}1^2 {name}2 - (q+q^-1) {name}1{name}2{name}1 "
                     f"+ {name}2 {name}1^2 = 0", lhs, zero))
    for i in roots:
        weights = [h[i] for h in rep.h_eigs]
        for j in roots:
            aij = CARTAN[i][j]
            rels.append((f"A7: [H{i + 1},E{j + 1}] = a{i + 1}{j + 1} E{j + 1}",
                         _weight_bracket(weights, E[j]), E[j].scale(CycScalar.rational(aij, ell))))
            rels.append((f"A7: [H{i + 1},F{j + 1}] = -a{i + 1}{j + 1} F{j + 1}",
                         _weight_bracket(weights, F[j]), F[j].scale(CycScalar.rational(-aij, ell))))
    return rels


def _weight_bracket(weights: list[int], x: ExactMatrix) -> ExactMatrix:
    """[H, X] for H = diag(weights): entry (r, c) is (weights[r] - weights[c]) X[r, c].

    Equal entry by entry to H @ X - X @ H for every X, weight-homogeneous or not."""
    n, zero = x.cols, CycScalar.zero(x.conductor)
    out = []
    for r, w in enumerate(weights):
        for c, e in enumerate(x.entries[r * n:(r + 1) * n]):
            d = w - weights[c]
            out.append(e * d if d and e.coeffs else zero)
    return ExactMatrix(x.rows, n, x.conductor, out)


UNEVALUATED = (
    "not evaluated: A1, A7 [H1,H2] = 0, A7 [Hi,Kj] = 0 and Ki = q^(di Hi) hold by "
    "construction (Hi and Ki^+-1 are diagonals read off one weight list); "
    "A2 Ki X Ki^-1 = q^(+-aij) X follows from A7; A4 and A6 are vacuous for sl(2|1)")


def check_relations(rep: WeightModuleRep) -> Verdict:
    """Evaluate relation_set(rep) as exact matrix identities on rep.

    The first note, UNEVALUATED, names the clauses that hold without a check."""
    v = Verdict("sl21-relations", HOLDS,
                params={"ell": str(rep.ell), "dim": str(rep.dim),
                        "convention": str(rep.convention)},
                notes=[UNEVALUATED])
    rels = relation_set(rep)
    for name, lhs, rhs in rels:
        # one pass decides a holding relation; a failing one is scanned column
        # by column so that its witness is the first mismatch in that order
        bad = None if lhs.entries == rhs.entries else next(
            (row, col) for col in range(rep.dim) for row in range(rep.dim)
            if lhs[row, col] != rhs[row, col])
        if bad is None:
            v.notes.append(f"{name}: holds")
        else:
            v.status = FAILS
            row, col = bad
            disc = lhs[row, col] - rhs[row, col]
            v.witnesses.append(Witness(
                name, (str(rep.labels[col]), row, col), str(disc)))
            v.notes.append(f"{name}: fails on basis vector {rep.labels[col]}")
    if v.status == HOLDS:
        v.witnesses.append(Witness("all relations hold as exact matrix identities",
                                   (), str(len(rels))))
    return v


@lru_cache(maxsize=None)
def select_convention(ell: int) -> str:
    """Pick the convention under which every defining relation holds.

    Decided at build time by running check_relations on a small discriminating
    module (k = 2 exposes the F2 coefficient question)."""
    k = min(2, ell - 1)
    return next((c for c in ("corrected", "paper")
                 if check_relations(build_Ak(k, ell, c)).ok), "corrected")
