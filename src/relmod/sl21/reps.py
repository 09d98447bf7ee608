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
so the symmetrizers are trivial).  H_i and K_i^(+-1) = q^(+-d_i H_i) are
diagonals read off h_eigs.  check_relations evaluates only the 16 clauses
that involve E_i or F_i; relation_set says why the others hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..matrices import ExactMatrix
from ..scalars import CycScalar, quantum_integer
from ..verdicts import FAILS, HOLDS, Verdict, Witness
from .characters import ParameterError, require_odd_ell

CARTAN = ((2, -1), (-1, 0))
CONVENTIONS = ("paper", "corrected")


@dataclass(frozen=True)
class WeightModuleRep:
    ell: int
    labels: tuple          # opaque basis labels
    parities: tuple[int, ...]
    h_eigs: tuple[tuple[int, int], ...]   # (H1, H2) eigenvalue per basis vector
    E1: ExactMatrix
    F1: ExactMatrix
    E2: ExactMatrix
    F2: ExactMatrix
    convention: str | None = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _diag(self, i: int, power: int | None) -> ExactMatrix:
        """diag(H_i) when power is None, else diag(q^(power H_i)), read off h_eigs."""
        ell = self.ell
        eigs = [h[i - 1] for h in self.h_eigs]
        return ExactMatrix.diagonal(
            [CycScalar.rational(e, ell) if power is None else CycScalar.zeta(ell, power * e)
             for e in eigs], ell)

    H1 = property(lambda self: self._diag(1, None))
    H2 = property(lambda self: self._diag(2, None))
    K1 = property(lambda self: self._diag(1, 1))
    K2 = property(lambda self: self._diag(2, 1))
    K1inv = property(lambda self: self._diag(1, -1))
    K2inv = property(lambda self: self._diag(2, -1))


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
    E1 = [[zero] * dim for _ in range(dim)]
    F1 = [[zero] * dim for _ in range(dim)]
    E2 = [[zero] * dim for _ in range(dim)]
    F2 = [[zero] * dim for _ in range(dim)]
    for j, i in labels:
        src = index[(j, i)]
        if (j, i + 1) in index:
            F1[index[(j, i + 1)]][src] = CycScalar.one(ell)
        if j == 1 and (0, i + 1) in index:
            E2[index[(0, i + 1)]][src] = CycScalar.one(ell)
        if i >= 1:
            E1[index[(j, i - 1)]][src] = quantum_integer(i, ell) * quantum_integer(k - j + 1 - i, ell)
        if j == 0 and (1, i - 1) in index:
            coeff = quantum_integer(i + 1 if convention == "paper" else i, ell)
            F2[index[(1, i - 1)]][src] = coeff

    return WeightModuleRep(
        ell=ell, labels=tuple(labels), parities=parities, h_eigs=h_eigs,
        E1=ExactMatrix.from_rows(E1, ell), F1=ExactMatrix.from_rows(F1, ell),
        E2=ExactMatrix.from_rows(E2, ell), F2=ExactMatrix.from_rows(F2, ell),
        convention=convention)


def trivial_rep(ell: int) -> WeightModuleRep:
    """The 1-dimensional trivial module."""
    zero = ExactMatrix.zeros(1, 1, ell)
    return WeightModuleRep(ell=ell, labels=("1",), parities=(0,), h_eigs=((0, 0),),
                           E1=zero, F1=zero, E2=zero, F2=zero, convention=None)


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
    """Tensor product module via Delta(E) = E(x)1 + K^-1(x)E, Delta(F) = F(x)K + 1(x)F."""
    if a.ell != b.ell:
        raise ValueError(f"ell mismatch: {a.ell} vs {b.ell}")
    ell = a.ell
    labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    parities = tuple((pa + pb) % 2 for pa in a.parities for pb in b.parities)
    h_eigs = tuple((ha[0] + hb[0], ha[1] + hb[1]) for ha in a.h_eigs for hb in b.h_eigs)

    def cop_e(ea, eb, kinv_a, parity):
        return _super_kron(ea, ExactMatrix.identity(b.dim, ell), a.parities, 0, ell) + \
            _super_kron(kinv_a, eb, a.parities, parity, ell)

    def cop_f(fa, fb, k_b, parity):
        return _super_kron(fa, k_b, a.parities, 0, ell) + \
            _super_kron(ExactMatrix.identity(a.dim, ell), fb, a.parities, parity, ell)

    E1 = cop_e(a.E1, b.E1, a.K1inv, 0)
    E2 = cop_e(a.E2, b.E2, a.K2inv, 1)
    F1 = cop_f(a.F1, b.F1, b.K1, 0)
    F2 = cop_f(a.F2, b.F2, b.K2, 1)
    return WeightModuleRep(ell=ell, labels=labels, parities=parities, h_eigs=h_eigs,
                           E1=E1, F1=F1, E2=E2, F2=F2, convention=a.convention or b.convention)


# ---------------------------------------------------------------------------
# the defining-relation checker
# ---------------------------------------------------------------------------

def _commutator(x, y):
    return x @ y - y @ x


def _anticommutator(x, y):
    return x @ y + y @ x


def relation_set(rep: WeightModuleRep) -> list[tuple[str, ExactMatrix, ExactMatrix]]:
    """The defining relations that involve E_i or F_i, as pairs of matrices that must agree.

    These are A3, E2^2 = F2^2 = 0, A5 and the A7 clauses [H_i,X_j] = +-a_ij X_j.
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
    E = {1: rep.E1, 2: rep.E2}
    F = {1: rep.F1, 2: rep.F2}
    H = {1: rep.H1, 2: rep.H2}

    def qint_diag(component: int) -> ExactMatrix:
        # (K_i - K_i^-1)/(q - q^-1) evaluated on the H_i spectrum
        vals = [quantum_integer(h[component - 1], ell) for h in rep.h_eigs]
        return ExactMatrix.diagonal(vals, ell)

    rels: list[tuple[str, ExactMatrix, ExactMatrix]] = []
    rels.append(("A3 (1,1): [E1,F1] = (K1-K1^-1)/(q-q^-1)",
                 _commutator(rep.E1, rep.F1), qint_diag(1)))
    rels.append(("A3 (1,2): [E1,F2] = 0", _commutator(rep.E1, rep.F2), zero))
    rels.append(("A3 (2,1): [E2,F1] = 0", _commutator(rep.E2, rep.F1), zero))
    rels.append(("A3 (2,2): [E2,F2] = (K2-K2^-1)/(q-q^-1)",
                 _anticommutator(rep.E2, rep.F2), qint_diag(2)))
    rels.append(("E2^2 = 0", rep.E2 @ rep.E2, zero))
    rels.append(("F2^2 = 0", rep.F2 @ rep.F2, zero))
    for name, x1, x2 in (("E", rep.E1, rep.E2), ("F", rep.F1, rep.F2)):
        lhs = x1 @ x1 @ x2 - (x1 @ x2 @ x1).scale(qq) + x2 @ x1 @ x1
        rels.append((f"A5: {name}1^2 {name}2 - (q+q^-1) {name}1{name}2{name}1 "
                     f"+ {name}2 {name}1^2 = 0", lhs, zero))
    for i in (1, 2):
        for j in (1, 2):
            aij = CARTAN[i - 1][j - 1]
            rels.append((f"A7: [H{i},E{j}] = a{i}{j} E{j}",
                         _commutator(H[i], E[j]), E[j].scale(CycScalar.rational(aij, ell))))
            rels.append((f"A7: [H{i},F{j}] = -a{i}{j} F{j}",
                         _commutator(H[i], F[j]), F[j].scale(CycScalar.rational(-aij, ell))))
    return rels


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
