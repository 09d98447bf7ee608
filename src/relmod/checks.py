"""Decision procedures over a ModularDatum.

Each check returns a Verdict with machine-readable witnesses:

* check_nondegeneracy   -- both S-matrices at a generic degree have full rank;
                           a rank deficit refutes non-degeneracy outright.
* check_rank_constancy  -- all recorded mixed blocks share one rank, under the
                           hypothesis that no recorded block has a zero entry.
* check_dmug            -- sufficient condition for a Z-trivial Mueger center:
                           S_g is an N x N invertible matrix and both S_g and
                           S_{-g,g} have a row with no zero entry.
* check_relative_modularity -- S_{g,h} S_{h,-g} is a nonzero multiple of the
                           identity, its columns taken in the order of the
                           dual involution when one is recorded; the
                           multiplier is the modularity parameter and is
                           cross-checked against Delta_plus * Delta_minus
                           when both are computable.
                           An identity that holds proves that both factors
                           have full rank, and records it in the rank memo
                           the other checks read (see _rank_and_kernel).
* check_premodular_inputs -- batch data-level validation of the grading,
                           translation and S-block invariants; on a loaded
                           datum it reads the load's validation (see
                           datum._validation).
* check_all             -- every check above, modularity decided first.

Each derived quantity -- a scaled S-matrix, a rank, a Delta triple, the
validation -- is computed once per datum and kept with it (datum._memo): a
datum cannot change, and dataclasses.replace gives a fresh one.

Scalar quantities:

* delta_minus(datum, g, j) = t_j^-1 sum_i S'_{ij} t_i^-1 d(V_i)
* delta_plus(datum, g, j)  = t_j   sum_i S'_{i*,j} t_i d(V_i)   over S'_{-g,g}

The plus variant is the stated mirror convention (twists instead of inverse
twists, rows pulled through the dual involution); the zeta = Delta+ * Delta-
cross-check inside check_relative_modularity is the arbiter for it.
"""

from __future__ import annotations

from .datum import Degree, ModularDatum, _memo, _validation, modified_S
from .scalars import CycScalar
from .verdicts import DATA_ABSENT, FAILS, HOLDS, HYPOTHESIS_NOT_MET, Verdict, Witness


def _msg(exc: BaseException) -> str:
    return exc.args[0] if exc.args else str(exc)


def _require_block(datum: ModularDatum, g: Degree, h: Degree):
    b = datum.block(g, h)
    if b is None:
        raise KeyError(f"no S' block for degrees ({g}, {h})")
    return b


def _twist_inverses(datum: ModularDatum, g: Degree) -> list[CycScalar]:
    """The twists' inverses at degree g; KeyError when g has no twists.
    Validation only tests that each twist is a unit (datum._is_unit), so the
    inverses are computed here, where a Delta needs them: a one-term twist
    inverts by negating its key, and a field twist's inverse is served by the
    scalars' cache (scalars._field_inverse)."""
    out = []
    for t in datum.twists[g]:
        inv = t.try_inverse()
        if inv is None:
            raise ValueError(f"twist {t} at degree {g} is not invertible")
        out.append(inv)
    return out


# ---------------------------------------------------------------------------
# Kirby-color closures
# ---------------------------------------------------------------------------

def _kirby_sum(datum: ModularDatum, block, rows, twists, dims, j: int) -> CycScalar:
    """t_j sum_i S'_{rows[i], j} t_i d(V_i) over block: the loop of both Deltas."""
    acc = CycScalar.zero(datum.conductor)
    for i, r in enumerate(rows):
        acc = acc + block.matrix[r, j] * twists[i] * dims[i]
    return twists[j] * acc


def delta_minus(datum: ModularDatum, g: Degree, j: int) -> CycScalar:
    """The minus-framed closure scalar t_j^-1 sum_i S'_{ij} t_i^-1 d(V_i)."""
    block = _require_block(datum, g, g)
    tinv = _twist_inverses(datum, g)
    return _kirby_sum(datum, block, range(block.matrix.rows), tinv, datum.dims[g], j)


def delta_plus(datum: ModularDatum, g: Degree, j: int) -> CycScalar:
    """Mirror scalar over the (-g, g) block through the dual involution."""
    block = _require_block(datum, datum.negate(g), g)
    if g not in datum.dual_involution:
        raise KeyError(f"no dual involution recorded for degree {g}")
    inv, twists, dims = datum.dual_involution[g], datum.twists[g], datum.dims[g]
    return _kirby_sum(datum, block, [inv[i] for i in range(len(dims))], twists, dims, j)


def _try_deltas(datum: ModularDatum, g: Degree):
    """(Delta_plus, Delta_minus, Delta_plus * Delta_minus) at j = 0, each
    Delta None where its data are absent and the product None unless both
    are present; computed once per datum and degree (see _memo), so
    check_nondegeneracy and check_relative_modularity read one product."""
    def compute():
        dm = dp = None
        try:
            dm = delta_minus(datum, g, 0)
        except KeyError:
            pass
        try:
            dp = delta_plus(datum, g, 0)
        except KeyError:
            pass
        return dp, dm, None if dp is None or dm is None else dp * dm

    return _memo(datum, ("Delta", g), compute)


def _rank_and_kernel(datum: ModularDatum, row: Degree, col: Degree,
                     full_rank: int | None = None):
    """The rank and kernel vectors of S_{row,col}, found once per datum and
    pair of degrees (see _memo): check_nondegeneracy and check_dmug both
    rank S_g.  A holding identity of check_relative_modularity passes the
    full rank it proves for both its factors as full_rank, recorded here
    with no kernel vector, so a block it covers is not eliminated."""
    compute = (modified_S(datum, row, col)._rank_and_kernel if full_rank is None
               else lambda: (full_rank, []))
    return _memo(datum, ("rank", row, col), compute)


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------

def check_nondegeneracy(datum: ModularDatum, g: Degree) -> Verdict:
    v = Verdict("nondegeneracy", HOLDS, params={"g": str(g)})
    if not datum.grading.is_generic(g):
        return v.end(HYPOTHESIS_NOT_MET, Witness("generic degree required", (str(g),)))
    neg = datum.negate(g)
    passes = (("S_g", g, (str(g),), None),
              ("S_-g,g", neg, (str(neg), str(g)),
               f"S_g has full rank but the ({neg}, {g}) block is absent"))
    for name, row, where, absent in passes:
        try:
            if absent is not None and datum.block(row, g) is None:
                raise KeyError(absent)
            s = modified_S(datum, row, g)
            rank, kernel = _rank_and_kernel(datum, row, g)
        except KeyError as exc:
            return v.end(DATA_ABSENT, _msg(exc))
        v.derived_scalars[f"rank({name})"] = str(rank)
        if s.rows != s.cols:
            return v.end(FAILS, Witness(f"{name} not square", (s.rows, s.cols)))
        if kernel:
            return v.end(FAILS, Witness(f"kernel vector of {name}", where,
                                        "(" + ", ".join(str(x) for x in kernel[0]) + ")"))
    dp, dm, prod = _try_deltas(datum, g)
    if dm is not None:
        v.derived_scalars["Delta_minus"] = str(dm)
    if dp is not None:
        v.derived_scalars["Delta_plus"] = str(dp)
    if prod is not None:
        v.derived_scalars["Delta_plus*Delta_minus"] = str(prod)
        if prod.is_zero:
            return v.end(FAILS, Witness("internal-consistency: Delta_+Delta_- vanished "
                                        "although both S-matrices are non-degenerate"))
    return v.end(HOLDS, Witness("both S-matrices have full rank", (str(g),),
                                v.derived_scalars["rank(S_g)"]))


# ---------------------------------------------------------------------------
# rank constancy of mixed blocks
# ---------------------------------------------------------------------------

ZERO_ENTRY_HYPOTHESIS = "all recorded mixed S-matrix blocks have no zero entry"


def _block_rank(datum: ModularDatum, b) -> int:
    """The rank of b's S' matrix.  S_{g,h} = S' diag(d_h) has the same rank
    when every d_h is nonzero, so it is read through _rank_and_kernel, the
    memo check_nondegeneracy and check_dmug rank S_g through.  S' is ranked
    directly when a dim of its column degree is zero or missing, or when
    modified_S would not scale b: it finds another block of those degrees
    first, or neither degree is listed."""
    g, h = b.row_degree, b.col_degree
    dims = datum.dims.get(h)
    if dims is not None and len(dims) == b.matrix.cols and all(dims) and \
            (g in datum.degrees or h in datum.degrees) and datum.block(g, h) is b:
        return _rank_and_kernel(datum, g, h)[0]
    return b.matrix.rank()


def check_rank_constancy(datum: ModularDatum) -> Verdict:
    """All recorded S' blocks share one rank, under the hypothesis that no
    block has a zero entry.  Each block's rank is that of S_{g,h} read
    through the rank memo when every dim of its column degree is nonzero
    (see _block_rank), so check all ranks each block once."""
    v = Verdict("rank-constancy", HOLDS)
    if len(datum.sprime) < 2:
        return v.end(DATA_ABSENT, "need at least two recorded blocks to compare ranks")
    for bi, b in enumerate(datum.sprime):
        for at, e in enumerate(b.matrix.entries):
            if not e.coeffs:
                i, j = divmod(at, b.matrix.cols)
                return v.end(HYPOTHESIS_NOT_MET, Witness(
                    ZERO_ENTRY_HYPOTHESIS,
                    (bi, str(b.row_degree), str(b.col_degree), i, j), "0"))
    ranks = [(bi, _block_rank(datum, b)) for bi, b in enumerate(datum.sprime)]
    for bi, r in ranks:
        v.derived_scalars[f"rank(block {bi})"] = str(r)
    distinct = {r for _, r in ranks}
    if len(distinct) > 1:
        return v.end(FAILS, Witness("blocks of different rank",
                                    tuple(bi for bi, _ in ranks), str(sorted(distinct))))
    return v.end(HOLDS, Witness("all blocks share one rank", (), str(ranks[0][1])))


# ---------------------------------------------------------------------------
# Mueger-center sufficiency
# ---------------------------------------------------------------------------

def check_dmug(datum: ModularDatum, g: Degree) -> Verdict:
    v = Verdict("dmug", HOLDS, params={"g": str(g)})
    v.notes.append("sufficient condition for Z-trivial Mueger center; "
                   "the Mueger center itself is never computed")
    if datum.orbit_count is None:
        return v.end(DATA_ABSENT, "orbit_count N is not recorded in the datum")
    if datum.translation.no_self_extension is False:
        return v.end(HYPOTHESIS_NOT_MET, Witness(
            "the translation objects must have no self extension (user-asserted flag is false)"))
    if datum.translation.no_self_extension is None:
        v.notes.append("hypothesis 'no self extension' not recorded; assumed as user-asserted")
    n = datum.orbit_count
    size = len(datum.index_sets.get(g, ()))
    if size != n:
        return v.end(FAILS, Witness("condition (1) shape: |I_g| != N", (size, n)))
    try:
        sg = modified_S(datum, g)
        s_mixed = modified_S(datum, datum.negate(g), g)
    except KeyError as exc:
        return v.end(DATA_ABSENT, _msg(exc))
    r = _rank_and_kernel(datum, g, g)[0]
    if r < n:
        return v.end(FAILS, Witness("condition (1): S_g is singular", (str(g),), str(r)))
    rows = []
    for name, mat in (("S_g", sg), ("S_-g,g", s_mixed)):
        row = next((i for i in range(mat.rows)
                    if all(not mat[i, j].is_zero for j in range(mat.cols))), None)
        if row is None:
            return v.end(FAILS, Witness(f"condition (2): every row of {name} has a zero entry"))
        rows.append(Witness(f"everywhere-nonzero row of {name}", (row,)))
    return v.end(HOLDS, *rows)


# ---------------------------------------------------------------------------
# relative modularity
# ---------------------------------------------------------------------------

def check_relative_modularity(datum: ModularDatum, g: Degree, h: Degree) -> Verdict:
    v = Verdict("relative-modularity", HOLDS, params={"g": str(g), "h": str(h)})
    neg = datum.negate(g)
    try:
        s_gh = modified_S(datum, g, h)
        s_hneg = modified_S(datum, h, neg)
    except KeyError as exc:
        return v.end(DATA_ABSENT, _msg(exc))
    p = s_gh @ s_hneg
    if p.rows != p.cols:
        return v.end(FAILS, Witness("product S_{g,h} S_{h,-g} is not square",
                                    (p.rows, p.cols)))
    # row i of P meets column dual[i], the dual of label i of g in I_-g; P
    # is compared with zeta times the permutation matrix of dual, which the
    # witnesses name Id (and its entries diagonal) when dual is the identity
    dual = tuple(datum.dual_involution.get(g, range(p.rows)))
    perm, on = (("Id", "diagonal") if dual == tuple(range(p.rows))
                else (f"Perm{dual}", "dual-involution"))
    zeta = p[0, dual[0]]
    v.derived_scalars["zeta_Omega"] = str(zeta)
    if zeta.is_zero:
        return v.end(FAILS, Witness(f"zeta candidate P[0][{dual[0]}] is zero",
                                    (0, dual[0]), "0"))
    zero = CycScalar.zero(datum.conductor)
    for i in range(p.rows):
        for j in range(p.cols):
            if j == dual[i] and p[i, j] != zeta:
                return v.end(FAILS, Witness(f"unequal {on} entries of P",
                                            ((0, dual[0]), (i, j)), f"{zeta} vs {p[i, j]}"))
            if j != dual[i] and p[i, j] != zero:
                return v.end(FAILS, Witness(f"off-{on} entry of P is nonzero",
                                            ((i, j),), str(p[i, j])))
    # P = zeta * (the permutation matrix of dual) with zeta != 0 has rank n,
    # so S_{g,h} (n x k) and S_{h,-g} (k x n) have rank n = min(n, k) over
    # the fraction field: full rank, with no kernel vector.  Each is recorded
    # in the rank memo, so the checks check_all runs after this one eliminate
    # neither.
    for row, col in ((g, h), (h, neg)):
        _rank_and_kernel(datum, row, col, full_rank=p.rows)
    held = Witness(f"P = zeta * {perm}", (), str(zeta))
    prod = _try_deltas(datum, g)[2]
    if prod is None:
        return v.end(HOLDS, "Delta cross-check skipped: diagonal blocks or dual involution absent",
                     held)
    v.derived_scalars["Delta_plus*Delta_minus"] = str(prod)
    if prod != zeta:
        return v.end(FAILS, Witness("Delta_+ convention mismatch: zeta_Omega != Delta_+Delta_-",
                                    (), f"{zeta} vs {prod}"))
    return v.end(HOLDS, "cross-check zeta_Omega = Delta_+Delta_- passed", held)


def check_all(datum: ModularDatum) -> list[Verdict]:
    """Every check at every generic degree and pair of them, reported in the
    order premodular, rank-constancy, nondeg and dmug per degree, modularity
    per pair, then cross-check breaches.  Modularity is decided first, so
    the checks after it eliminate only the blocks that no holding identity
    covers (see the rank memo in check_relative_modularity)."""
    generic = [g for g in datum.degrees if datum.grading.is_generic(g)]
    modularity = [(g, h, check_relative_modularity(datum, g, h))
                  for g in generic for h in generic
                  if datum.block(g, h) is not None
                  and datum.block(h, datum.negate(g)) is not None]
    results = [check_premodular_inputs(datum), check_rank_constancy(datum)]
    nondeg = {}
    for g in generic:
        nondeg[g] = check_nondegeneracy(datum, g)
        results += [nondeg[g], check_dmug(datum, g)]
    breaches = []
    for g, h, mod_v in modularity:
        results.append(mod_v)
        # relative modularity at (g, .) forces non-degeneracy at g
        if mod_v.status == HOLDS and nondeg[g].status == FAILS:
            breach = Verdict("cross-check", HOLDS, params={"g": str(g), "h": str(h)})
            breaches.append(breach.end(FAILS, "internal consistency: relative modularity "
                                       "holds but non-degeneracy fails at the same degree"))
    return results + breaches


# ---------------------------------------------------------------------------
# pre-modular input validation
# ---------------------------------------------------------------------------

def check_premodular_inputs(datum: ModularDatum) -> Verdict:
    v = Verdict("premodular-inputs", HOLDS)
    violations = _validation(datum)
    psi_degrees = {str(d) for d, _, _ in datum.translation.psi}
    if datum.translation.psi:
        v.notes.append("psi is user-supplied data; psi-dependent conclusions are "
                       f"input-dependent (degrees covered: {sorted(psi_degrees)})")
    if violations:
        return v.end(FAILS, *(Witness(viol.invariant, viol.indices, viol.message)
                              for viol in violations))
    return v.end(HOLDS, Witness("all structural invariants hold"))
