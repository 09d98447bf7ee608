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

A module keeps its generators as dense ExactMatrix values, but each E_i and
F_i has only O(dim) nonzero entries: at most one per column of A_k, and a
few per column of a tensor product.  So the relation check and the
coproduct run on the nonzero entries alone.  Each generator is read once
into a map from (row, col) to its nonzero scalars.  Products, sums and
scalings of these maps visit no zero and drop any entry that cancels, so
two sides of a relation agree exactly when their maps are equal.
relation_set shows the same maps as dense matrices, and tensor_rep writes
its coproduct terms into dense generators.
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
# nonzero-entry maps
# ---------------------------------------------------------------------------

# A map from (row, col) to a nonzero scalar; every other entry is zero.
Entries = dict[tuple[int, int], CycScalar]


def _nonzero(x: ExactMatrix) -> Entries:
    """The nonzero entries of x by (row, col)."""
    n = x.cols
    return {divmod(p, n): e for p, e in enumerate(x.entries) if e.coeffs}


def _dense(x: Entries, n: int, ell: int) -> ExactMatrix:
    """The n x n matrix with the entries of x and zero elsewhere."""
    entries = [CycScalar.zero(ell)] * (n * n)
    for (r, c), e in x.items():
        entries[r * n + c] = e
    return ExactMatrix(n, n, ell, entries)


def _product(x: Entries, y: Entries) -> Entries:
    """x @ y: each nonzero x[r, k] meets the nonzero entries of row k of y."""
    y_rows: dict[int, list[tuple[int, CycScalar]]] = {}
    for (k, c), b in y.items():
        y_rows.setdefault(k, []).append((c, b))
    out: Entries = {}
    for (r, k), a in x.items():
        for c, b in y_rows.get(k, ()):
            ab = a * b
            out[r, c] = out[r, c] + ab if (r, c) in out else ab
    return {key: e for key, e in out.items() if e.coeffs}


def _combine(x: Entries, y: Entries, sign: int = 1) -> Entries:
    """x + y, or x - y when sign is -1; an entry that cancels is dropped."""
    out = dict(x)
    for key, b in y.items():
        if key not in out:
            out[key] = b if sign > 0 else -b
            continue
        s = out[key] + b if sign > 0 else out[key] - b
        if s.coeffs:
            out[key] = s
        else:
            del out[key]
    return out


def _scale(x: Entries, c: CycScalar) -> Entries:
    """c x; the empty map when c is zero.  A product of nonzero scalars is
    nonzero (the Laurent ring over Q(zeta_m) has no zero divisors)."""
    return {key: c * e for key, e in x.items()} if c.coeffs else {}


# ---------------------------------------------------------------------------
# tensor product via the coproduct
# ---------------------------------------------------------------------------

def _coproduct(x: ExactMatrix, b_diag: list[CycScalar], a_diag: list[CycScalar],
               y: ExactMatrix, signs: list[int], ell: int) -> ExactMatrix:
    """x (x) diag(b_diag) + diag(a_diag) (x) y on the tensor basis v_p (x) w_q.

    Each term is built from the nonzero entries of x or y alone.  The second
    term carries the Koszul sign (-1)^(|y| |v_p|), signs[p], decided by the
    parity of the first-factor column vector; the first term's diagonal is
    even and carries none."""
    nb = len(b_diag)
    dim = len(a_diag) * nb
    out = [CycScalar.zero(ell)] * (dim * dim)
    for (p2, p), e in _nonzero(x).items():
        for q, d in enumerate(b_diag):
            out[(p2 * nb + q) * dim + p * nb + q] = e * d
    for (q2, q), e in _nonzero(y).items():
        for p, d in enumerate(a_diag):
            at = (p * nb + q2) * dim + p * nb + q
            out[at] = out[at] + (d * e if signs[p] > 0 else -(d * e))
    return ExactMatrix(dim, dim, ell, out)


def tensor_rep(a: WeightModuleRep, b: WeightModuleRep) -> WeightModuleRep:
    """Tensor product module via Delta(E_i) = E_i(x)1 + K_i^-1(x)E_i and
    Delta(F_i) = F_i(x)K_i + 1(x)F_i, for each simple root i.

    K_i^+-1 is read off h_eigs, and each coproduct term is built from the
    nonzero entries of its generator (see _coproduct).  The factors must
    share ell, and a convention if both have one; the trivial module has
    none and combines with either."""
    if a.ell != b.ell:
        raise ValueError(f"ell mismatch: {a.ell} vs {b.ell}")
    if a.convention and b.convention and a.convention != b.convention:
        raise ValueError(f"convention mismatch: {a.convention} vs {b.convention}")
    ell = a.ell
    labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    parities = tuple((pa + pb) % 2 for pa in a.parities for pb in b.parities)
    h_eigs = tuple((ha[0] + hb[0], ha[1] + hb[1]) for ha in a.h_eigs for hb in b.h_eigs)

    one = CycScalar.one(ell)
    ones_a, ones_b = [one] * a.dim, [one] * b.dim
    E, F = [], []
    for i, root_parity in enumerate(ROOT_PARITY):
        signs = [-1 if root_parity and pa % 2 else 1 for pa in a.parities]
        k_inv_a = [CycScalar.zeta(ell, -h[i]) for h in a.h_eigs]
        k_b = [CycScalar.zeta(ell, h[i]) for h in b.h_eigs]
        E.append(_coproduct(a.E[i], ones_b, k_inv_a, b.E[i], signs, ell))
        F.append(_coproduct(a.F[i], k_b, ones_a, b.F[i], signs, ell))
    return WeightModuleRep(ell=ell, labels=labels, parities=parities, h_eigs=h_eigs,
                           E=tuple(E), F=tuple(F), convention=a.convention or b.convention)


# ---------------------------------------------------------------------------
# the defining-relation checker
# ---------------------------------------------------------------------------

def _relations(rep: WeightModuleRep) -> list[tuple[str, Entries, Entries]]:
    """relation_set(rep) with each side as its map of nonzero entries."""
    ell = rep.ell
    q = CycScalar.zeta(ell)
    qq = q + q ** -1
    E = [_nonzero(x) for x in rep.E]
    F = [_nonzero(x) for x in rep.F]
    roots = range(len(CARTAN))

    # A3: [E_i,F_j] = delta_ij (K_i-K_i^-1)/(q-q^-1), the right side evaluated
    # on the H_i spectrum, [h] once per weight h; the bracket anticommutes
    # when both roots are odd
    qint = {w: quantum_integer(w, ell) for h in rep.h_eigs for w in h}
    rels: list[tuple[str, Entries, Entries]] = []
    for i in roots:
        for j in roots:
            says, rhs = "0", {}
            if i == j:
                says = f"(K{i + 1}-K{i + 1}^-1)/(q-q^-1)"
                rhs = {(p, p): qint[h[i]] for p, h in enumerate(rep.h_eigs) if qint[h[i]].coeffs}
            sign = 1 if ROOT_PARITY[i] and ROOT_PARITY[j] else -1
            rels.append((f"A3 ({i + 1},{j + 1}): [E{i + 1},F{j + 1}] = {says}",
                         _combine(_product(E[i], F[j]), _product(F[j], E[i]), sign), rhs))
    rels.append(("E2^2 = 0", _product(E[1], E[1]), {}))
    rels.append(("F2^2 = 0", _product(F[1], F[1]), {}))
    for name, (x1, x2) in (("E", E), ("F", F)):
        x11 = _product(x1, x1)
        lhs = _combine(_combine(_product(x11, x2), _product(x2, x11)),
                       _scale(_product(_product(x1, x2), x1), qq), -1)
        rels.append((f"A5: {name}1^2 {name}2 - (q+q^-1) {name}1{name}2{name}1 "
                     f"+ {name}2 {name}1^2 = 0", lhs, {}))
    for i in roots:
        weights = [h[i] for h in rep.h_eigs]
        for j in roots:
            aij = CARTAN[i][j]
            rels.append((f"A7: [H{i + 1},E{j + 1}] = a{i + 1}{j + 1} E{j + 1}",
                         _weight_bracket(weights, E[j]), _scale(E[j], CycScalar.rational(aij, ell))))
            rels.append((f"A7: [H{i + 1},F{j + 1}] = -a{i + 1}{j + 1} F{j + 1}",
                         _weight_bracket(weights, F[j]), _scale(F[j], CycScalar.rational(-aij, ell))))
    return rels


def relation_set(rep: WeightModuleRep) -> list[tuple[str, ExactMatrix, ExactMatrix]]:
    """The defining relations that involve E_i or F_i, as pairs of matrices that must agree.

    These are A3, E2^2 = F2^2 = 0, A5 and the A7 clauses [H_i,X_j] = +-a_ij X_j.
    Each side is computed on the generators' nonzero entries (see the module
    docstring) and shown here as a dense matrix; check_relations compares the
    same sides without the dense view.  A5 computes X1^2 once.  H_i is
    diagonal, so the left side of A7 is read off the weight spectrum: entry
    (r, c) of [H_i, X] is (h_i(r) - h_i(c)) X[r, c], the same matrix as
    H(i) @ X - X @ H(i) for every X, without the two products.
    The others cannot fail here.  A1, [H1,H2] = 0, [H_i,K_j] = 0 and
    K_i = q^(d_i H_i) compare diagonals read off the same h_eigs.  A2 follows
    from A7: X[r,c] != 0 forces h_i(r) - h_i(c) = +-a_ij, so conjugating by
    q^(H_i) scales that entry by q^(+-a_ij); A7 also rejects weight gaps that
    differ by a multiple of ell.  A4 and A6 are vacuous for sl(2|1).
    """
    return [(name, _dense(lhs, rep.dim, rep.ell), _dense(rhs, rep.dim, rep.ell))
            for name, lhs, rhs in _relations(rep)]


def _weight_bracket(weights: list[int], x: Entries) -> Entries:
    """[H, X] for H = diag(weights): entry (r, c) is (weights[r] - weights[c]) X[r, c]."""
    return {(r, c): e * (weights[r] - weights[c])
            for (r, c), e in x.items() if weights[r] != weights[c]}


UNEVALUATED = (
    "not evaluated: A1, A7 [H1,H2] = 0, A7 [Hi,Kj] = 0 and Ki = q^(di Hi) hold by "
    "construction (Hi and Ki^+-1 are diagonals read off one weight list); "
    "A2 Ki X Ki^-1 = q^(+-aij) X follows from A7; A4 and A6 are vacuous for sl(2|1)")


def _first_mismatch(lhs: Entries, rhs: Entries) -> tuple[int, int]:
    """The (row, col) with the smallest (col, row) at which two unequal maps differ."""
    col, row = min((c, r) for (r, c) in lhs.keys() | rhs.keys()
                   if (r, c) not in lhs or (r, c) not in rhs or lhs[r, c] != rhs[r, c])
    return row, col


def check_relations(rep: WeightModuleRep) -> Verdict:
    """Evaluate relation_set(rep) as exact matrix identities on rep.

    Each relation compares the nonzero-entry maps of its two sides.  A failing
    one is witnessed by its first mismatch in column-major order, with the
    value lhs - rhs there.  The first note, UNEVALUATED, names the clauses
    that hold without a check."""
    v = Verdict("sl21-relations", HOLDS,
                params={"ell": str(rep.ell), "dim": str(rep.dim),
                        "convention": str(rep.convention)},
                notes=[UNEVALUATED])
    rels = _relations(rep)
    zero = CycScalar.zero(rep.ell)
    for name, lhs, rhs in rels:
        if lhs == rhs:
            v.notes.append(f"{name}: holds")
            continue
        v.status = FAILS
        row, col = _first_mismatch(lhs, rhs)
        disc = lhs.get((row, col), zero) - rhs.get((row, col), zero)
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
