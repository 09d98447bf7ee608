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
rep.F[1] is F2.  H_i and K_i = q^(d_i H_i) are diagonal, so a module keeps
only their eigenvalues, h_eigs.  tensor_rep states the coproduct and
_relations the A3 and A7 clauses once over the roots.  check_relations
evaluates only the 16 clauses that involve E_i or F_i, and says why the
others hold.

Each E_i and F_i has only O(dim) nonzero entries: at most one per column
of A_k, and a few per column of a tensor product.  So a module keeps each
as a map from (row, col) to its nonzero values (Entries), and the relation
check and the coproduct run on the nonzero entries alone.  Products, sums
and scalings of these maps visit no zero and drop any entry that cancels.

check_relations evaluates the relations on packed integers.  Each
generator's entries are put over one common denominator, and each entry's
integer vector over 1, zeta, .., zeta^(deg-1) is packed into one Python int
at a width of w bits (Kronecker substitution, the scheme of
scalars._packed_product).  Every relation is homogeneous in the generators
(A3 in E_i F_j, A5 in X1^2 X2, A7 linear, X2^2), so both sides of one carry
one product of the denominators, and the products, sums and scalings of
the maps are plain int multiply-adds with no reduction.  w is taken from a
stated bound on the coefficients of lhs - rhs (_packed_relations).  At the
end each nonzero entry of lhs - rhs is unpacked once, folded mod ell,
reduced modulo Phi_ell and divided by its denominator (scalars._from_packed).
A relation holds when every entry reduces to zero; a failing one is
witnessed by the first that does not, in column-major order, with that
canonical value.  A module whose entries carry a formal variable runs the
same _relations on its CycScalar entries, where lhs - rhs is canonical as
it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..scalars import (CycScalar, _common_denominator, _from_packed, _kronecker_width,
                       _numerators, _pack, quantum_integer)
from ..verdicts import FAILS, HOLDS, Verdict, Witness
from .characters import ParameterError, require_odd_ell

CARTAN = ((2, -1), (-1, 0))
ROOT_PARITY = (0, 1)   # the parity of E_i and F_i, per simple root
CONVENTIONS = ("paper", "corrected")


# A map from (row, col) to a nonzero value; every other entry is zero.  A
# value is a CycScalar, or an int that packs an integer polynomial in zeta
# (see _packed_relations): the maps take +, - and * from their values.
Entries = dict[tuple[int, int], CycScalar | int]


@dataclass(frozen=True)
class WeightModuleRep:
    ell: int
    labels: tuple          # opaque basis labels
    parities: tuple[int, ...]
    h_eigs: tuple[tuple[int, int], ...]   # (H1, H2) eigenvalue per basis vector
    E: tuple[Entries, ...]                # E[i] is E_(i+1), one per simple root
    F: tuple[Entries, ...]
    convention: str | None = None

    @property
    def dim(self) -> int:
        return len(self.labels)


def build_Ak(k: int, ell: int, convention: str = "corrected") -> WeightModuleRep:
    """The deformation A_k of the super-symmetric power, its generators as
    nonzero-entry maps."""
    require_odd_ell(ell)
    if not 1 <= k <= ell - 1:
        raise ParameterError(f"k must satisfy 1 <= k <= ell-1, got k={k}")
    if convention not in CONVENTIONS:
        raise ParameterError(f"unknown convention {convention!r}")
    labels = [(0, i) for i in range(k + 1)] + [(1, i) for i in range(k)]
    index = {lab: n for n, lab in enumerate(labels)}
    parities = tuple(j for j, _ in labels)
    h_eigs = tuple((k - j - 2 * i, i + j) for j, i in labels)

    one = CycScalar.one(ell)
    qint = [quantum_integer(n, ell) for n in range(k + 2)]  # [0] .. [k+1]
    E, F = ([{} for _ in CARTAN] for _ in "EF")
    for j, i in labels:
        src = index[(j, i)]
        if (j, i + 1) in index:
            F[0][index[(j, i + 1)], src] = one
        if j == 1 and (0, i + 1) in index:
            E[1][index[(0, i + 1)], src] = one
        if i >= 1:
            E[0][index[(j, i - 1)], src] = qint[i] * qint[k - j + 1 - i]
        # [i] and [k-j+1-i] above lie in [1] .. [ell-1] and never vanish; the
        # paper's [i+1] is [ell] = 0 at i = k = ell - 1, and is skipped
        f2 = qint[i + 1 if convention == "paper" else i]
        if j == 0 and (1, i - 1) in index and f2:
            F[1][index[(1, i - 1)], src] = f2

    return WeightModuleRep(ell=ell, labels=tuple(labels), parities=parities, h_eigs=h_eigs,
                           E=tuple(E), F=tuple(F), convention=convention)


def trivial_rep(ell: int) -> WeightModuleRep:
    """The 1-dimensional trivial module."""
    empty = ({},) * len(CARTAN)
    return WeightModuleRep(ell=ell, labels=("1",), parities=(0,), h_eigs=((0, 0),),
                           E=empty, F=empty, convention=None)


# ---------------------------------------------------------------------------
# nonzero-entry maps
# ---------------------------------------------------------------------------

def _product(x: Entries, y: Entries) -> Entries:
    """x @ y: each nonzero x[r, k] meets the nonzero entries of row k of y."""
    y_rows: dict[int, list[tuple[int, CycScalar | int]]] = {}
    for (k, c), b in y.items():
        y_rows.setdefault(k, []).append((c, b))
    out: Entries = {}
    for (r, k), a in x.items():
        for c, b in y_rows.get(k, ()):
            ab = a * b
            out[r, c] = out[r, c] + ab if (r, c) in out else ab
    return {key: e for key, e in out.items() if e}


def _combine(x: Entries, y: Entries, sign: int = 1) -> Entries:
    """x + y, or x - y when sign is -1; an entry that cancels is dropped."""
    out = dict(x)
    for key, b in y.items():
        if key not in out:
            out[key] = b if sign > 0 else -b
            continue
        s = out[key] + b if sign > 0 else out[key] - b
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _scale(x: Entries, c: CycScalar | int) -> Entries:
    """c x; the empty map when c is zero.  A product of nonzero values is
    nonzero (neither the Laurent ring over Q(zeta_m) nor the ints have zero
    divisors)."""
    return {key: c * e for key, e in x.items()} if c else {}


def _weight_bracket(weights: list[int], x: Entries) -> Entries:
    """[H, X] for H = diag(weights): entry (r, c) is (weights[r] - weights[c]) X[r, c]."""
    return {(r, c): e * (weights[r] - weights[c])
            for (r, c), e in x.items() if weights[r] != weights[c]}


# ---------------------------------------------------------------------------
# tensor product via the coproduct
# ---------------------------------------------------------------------------

def _coproduct(x: Entries, b_diag: list[CycScalar], a_diag: list[CycScalar],
               y: Entries, signs: list[int]) -> Entries:
    """x (x) diag(b_diag) + diag(a_diag) (x) y on the tensor basis v_p (x) w_q.

    Every product in either term is nonzero, since the diagonals hold units.
    The second term carries the Koszul sign
    (-1)^(|y| |v_p|), signs[p], decided by the parity of the first-factor
    column vector; the first term's diagonal is even and carries none.  An
    entry where the two terms cancel is dropped."""
    nb = len(b_diag)
    first = {(p2 * nb + q, p * nb + q): e * d
             for (p2, p), e in x.items() for q, d in enumerate(b_diag)}
    second = {(p * nb + q2, p * nb + q): d * e if signs[p] > 0 else -(d * e)
              for (q2, q), e in y.items() for p, d in enumerate(a_diag)}
    return _combine(first, second)


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
        E.append(_coproduct(a.E[i], ones_b, k_inv_a, b.E[i], signs))
        F.append(_coproduct(a.F[i], k_b, ones_a, b.F[i], signs))
    return WeightModuleRep(ell=ell, labels=labels, parities=parities, h_eigs=h_eigs,
                           E=tuple(E), F=tuple(F), convention=a.convention or b.convention)


# ---------------------------------------------------------------------------
# the defining-relation checker
# ---------------------------------------------------------------------------

def _relations(rep: WeightModuleRep, gens: list[Entries], dens: tuple[int, ...],
               qq: CycScalar | int, qint: dict) -> list[tuple[str, Entries, Entries, int]]:
    """The defining relations that involve E_i or F_i, as (name, lhs, rhs, d):
    the two sides that must agree, each as its map of nonzero entries, and
    the denominator both carry.

    These are A3, E2^2 = F2^2 = 0, A5 and the A7 clauses [H_i,X_j] = +-a_ij X_j.
    A5 computes X1^2 once.  H_i is diagonal, so the left side of A7 is read
    off the weight spectrum: entry (r, c) of [H_i, X] is
    (h_i(r) - h_i(c)) X[r, c], the same matrix as H_i X - X H_i for every X,
    without the two products.

    gens holds the maps of E1, E2, F1, F2, each entry times the generator's
    denominator in dens; qq is q + q^-1 and qint[h] is [h], in the maps'
    values.  Each relation is homogeneous in the generators, so both of its
    sides carry one product of those denominators; the right side of A3,
    which holds no generator, is scaled by it."""
    E, F = gens[:2], gens[2:]
    dE, dF = dens[:2], dens[2:]
    roots = range(len(CARTAN))

    # A3: [E_i,F_j] = delta_ij (K_i-K_i^-1)/(q-q^-1), the right side evaluated
    # on the H_i spectrum, [h] once per weight h; the bracket anticommutes
    # when both roots are odd
    rels: list[tuple[str, Entries, Entries, int]] = []
    for i in roots:
        for j in roots:
            d = dE[i] * dF[j]
            says, rhs = "0", {}
            if i == j:
                says = f"(K{i + 1}-K{i + 1}^-1)/(q-q^-1)"
                rhs = {(p, p): qint[h[i]] * d for p, h in enumerate(rep.h_eigs) if qint[h[i]]}
            sign = 1 if ROOT_PARITY[i] and ROOT_PARITY[j] else -1
            rels.append((f"A3 ({i + 1},{j + 1}): [E{i + 1},F{j + 1}] = {says}",
                         _combine(_product(E[i], F[j]), _product(F[j], E[i]), sign), rhs, d))
    rels.append(("E2^2 = 0", _product(E[1], E[1]), {}, dE[1] * dE[1]))
    rels.append(("F2^2 = 0", _product(F[1], F[1]), {}, dF[1] * dF[1]))
    for name, (x1, x2), (d1, d2) in (("E", E, dE), ("F", F, dF)):
        x11 = _product(x1, x1)
        lhs = _combine(_combine(_product(x11, x2), _product(x2, x11)),
                       _scale(_product(_product(x1, x2), x1), qq), -1)
        rels.append((f"A5: {name}1^2 {name}2 - (q+q^-1) {name}1{name}2{name}1 "
                     f"+ {name}2 {name}1^2 = 0", lhs, {}, d1 * d1 * d2))
    for i in roots:
        weights = [h[i] for h in rep.h_eigs]
        for j in roots:
            aij = CARTAN[i][j]
            rels.append((f"A7: [H{i + 1},E{j + 1}] = a{i + 1}{j + 1} E{j + 1}",
                         _weight_bracket(weights, E[j]), _scale(E[j], aij), dE[j]))
            rels.append((f"A7: [H{i + 1},F{j + 1}] = -a{i + 1}{j + 1} F{j + 1}",
                         _weight_bracket(weights, F[j]), _scale(F[j], -aij), dF[j]))
    return rels


def _scalar_relations(rep: WeightModuleRep):
    """_relations on the generators' CycScalar entries, every denominator 1."""
    ell = rep.ell
    q = CycScalar.zeta(ell)
    qint = {w: quantum_integer(w, ell) for w in set().union(*rep.h_eigs)}
    return _relations(rep, list(rep.E + rep.F), (1, 1, 1, 1), q + q ** -1, qint)


def _packed_relations(rep: WeightModuleRep):
    """_relations on packed integer numerators, and the packing width w.

    Each generator's entries are put over its common denominator, and each
    entry's integer vector over 1, zeta, .., zeta^(deg-1) is packed into one
    int at width w (Kronecker substitution, _pack); so are q + q^-1 and the
    [h].  A product, sum or scaling of maps is then plain int arithmetic,
    and an entry of a side packs the integer polynomial in zeta, of degree
    at most 4 (deg - 1) (the A5 term (q + q^-1) X1 X2 X1 multiplies four
    vectors), that the same operations make of the numerators, unreduced.
    The difference of the two sides unpacks into its coefficients when each
    is below 2^(w-1) in size.  With n = dim, L the largest L1 norm of a
    generator's numerator vector, D the largest denominator, H and Q the
    largest L1 norm of a [h] and of q + q^-1, and G the largest spread of
    one weight, no such coefficient is over
      2 n L^2 + D^2 H     in A3 and X2^2 (two sums of n products of two
                          entries, and D_E D_F [h]);
      (2 + Q) n^2 L^3     in A5 (sums of n^2 products of three, one of them
                          times q + q^-1);
      (G + 2) L           in A7 ((h(r) - h(c)) X[r, c] and a_ij X[r, c],
                          |a_ij| <= 2),
    so w is _kronecker_width of the largest of the three."""
    ell, n = rep.ell, rep.dim
    gens = rep.E + rep.F
    dens = tuple(_common_denominator(g.values()) for g in gens)
    nums = [{key: _numerators(e, d) for key, e in g.items()} for g, d in zip(gens, dens)]
    q = CycScalar.zeta(ell)
    qq = _numerators(q + q ** -1, 1)
    qint = {w: _numerators(quantum_integer(w, ell), 1) for w in set().union(*rep.h_eigs)}

    def l1(v):
        return sum(abs(c) for _, c in v)
    top = max((l1(e) for g in nums for e in g.values()), default=0)
    spread = max(max(ws) - min(ws) for ws in zip(*rep.h_eigs))
    bound = max(2 * n * top ** 2 + max(dens) ** 2 * max(map(l1, qint.values())),
                (2 + l1(qq)) * n ** 2 * top ** 3, (spread + 2) * top)
    w = _kronecker_width(bound)
    packed = [{key: _pack(e, w) for key, e in g.items()} for g in nums]
    return _relations(rep, packed, dens, _pack(qq, w),
                      {h: _pack(v, w) for h, v in qint.items()}), w


UNEVALUATED = (
    "not evaluated: A1, A7 [H1,H2] = 0, A7 [Hi,Kj] = 0 and Ki = q^(di Hi) hold by "
    "construction (Hi and Ki^+-1 are diagonals read off one weight list); "
    "A2 Ki X Ki^-1 = q^(+-aij) X follows from A7; A4 and A6 are vacuous for sl(2|1)")


def _first_mismatch(diff: Entries, ell: int, w: int | None, d: int):
    """The (row, col) with the smallest (col, row) at which diff is nonzero,
    and its value there; None when there is none.  An entry of diff is its
    value when w is None, else a packed int whose value is _from_packed of
    it at width w over the denominator d."""
    for col, row in sorted((c, r) for r, c in diff):
        x = diff[row, col]
        if w is not None:
            x = _from_packed(ell, x, w, d)
        if x:
            return row, col, x
    return None


def check_relations(rep: WeightModuleRep) -> Verdict:
    """Evaluate the 16 relations of _relations as exact matrix identities on rep.

    The other defining relations cannot fail here.  A1, [H1,H2] = 0, [H_i,K_j] = 0 and
    K_i = q^(d_i H_i) compare diagonals read off the same h_eigs.  A2 follows
    from A7: X[r,c] != 0 forces h_i(r) - h_i(c) = +-a_ij, so conjugating by
    q^(H_i) scales that entry by q^(+-a_ij); A7 also rejects weight gaps that
    differ by a multiple of ell.  A4 and A6 are vacuous for sl(2|1).  The
    first note, UNEVALUATED, names these clauses.

    A module whose entries hold no formal variable is checked on packed
    integer numerators (_packed_relations): each entry of lhs - rhs is
    unpacked, folded mod ell, reduced modulo Phi_ell and divided by the
    relation's denominator once, by _from_packed.  A module with a formal
    variable is checked on its CycScalar entries, where lhs - rhs is
    canonical already.  A relation holds when no entry of lhs - rhs is
    nonzero; a failing one is witnessed by its first nonzero entry in
    column-major order, with its value."""
    v = Verdict("sl21-relations", HOLDS,
                params={"ell": str(rep.ell), "dim": str(rep.dim),
                        "convention": str(rep.convention)},
                notes=[UNEVALUATED])
    if any(vk for g in rep.E + rep.F for e in g.values() for _, vk in e.coeffs):
        rels, w = _scalar_relations(rep), None
    else:
        rels, w = _packed_relations(rep)
    for name, lhs, rhs, d in rels:
        bad = _first_mismatch(_combine(lhs, rhs, -1), rep.ell, w, d)
        if bad is None:
            v.notes.append(f"{name}: holds")
            continue
        row, col, disc = bad
        v.end(FAILS, Witness(name, (str(rep.labels[col]), row, col), str(disc)),
              f"{name}: fails on basis vector {rep.labels[col]}")
    if v.ok:
        v.end(HOLDS, Witness("all relations hold as exact matrix identities",
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
