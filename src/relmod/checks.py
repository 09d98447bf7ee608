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
                           identity; the multiplier is the modularity
                           parameter and is cross-checked against
                           Delta_plus * Delta_minus when both are computable.
* check_premodular_inputs -- batch data-level validation of the grading,
                           translation and S-block invariants; on a loaded
                           datum it reads the load's validation (see
                           datum._validation).

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

def delta_minus(datum: ModularDatum, g: Degree, j: int) -> CycScalar:
    """The minus-framed closure scalar t_j^-1 sum_i S'_{ij} t_i^-1 d(V_i)."""
    block = _require_block(datum, g, g)
    tinv = _twist_inverses(datum, g)
    dims = datum.dims[g]
    acc = CycScalar.zero(datum.conductor)
    for i in range(block.matrix.rows):
        acc = acc + block.matrix[i, j] * tinv[i] * dims[i]
    return tinv[j] * acc


def delta_plus(datum: ModularDatum, g: Degree, j: int) -> CycScalar:
    """Mirror scalar over the (-g, g) block through the dual involution."""
    neg = datum.negate(g)
    block = _require_block(datum, neg, g)
    if g not in datum.dual_involution:
        raise KeyError(f"no dual involution recorded for degree {g}")
    inv = datum.dual_involution[g]
    twists = datum.twists[g]
    dims = datum.dims[g]
    acc = CycScalar.zero(datum.conductor)
    for i in range(len(dims)):
        acc = acc + block.matrix[inv[i], j] * twists[i] * dims[i]
    return twists[j] * acc


def _try_deltas(datum: ModularDatum, g: Degree):
    """(Delta_plus, Delta_minus) at j = 0, each None where its data are
    absent; computed once per datum and degree while the blocks, twists,
    dims and dual involution they read stay the same objects (see _memo)."""
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
        return dp, dm

    blocks = (datum.block(g, g), datum.block(datum.negate(g), g))
    inputs = tuple(None if b is None else b.matrix for b in blocks) + (
        datum.twists.get(g), datum.dims.get(g), datum.dual_involution.get(g))
    return _memo(datum, ("Delta", g), inputs, compute)


def _rank_and_kernel(datum: ModularDatum, row: Degree, col: Degree):
    """The rank and kernel vectors of S_{row,col}, found once per datum and
    pair of degrees while that scaled block is the same object (see _memo):
    check_nondegeneracy and check_dmug both rank S_g."""
    s = modified_S(datum, row, col)
    return _memo(datum, ("rank", row, col), (s,), s._rank_and_kernel)


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------

def check_nondegeneracy(datum: ModularDatum, g: Degree) -> Verdict:
    v = Verdict("nondegeneracy", HOLDS, params={"g": str(g)})
    if not datum.grading.is_generic(g):
        v.status = HYPOTHESIS_NOT_MET
        v.witnesses.append(Witness("generic degree required", (str(g),)))
        return v
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
            v.status = DATA_ABSENT
            v.notes.append(_msg(exc))
            return v
        v.derived_scalars[f"rank({name})"] = str(rank)
        if s.rows != s.cols:
            witness = Witness(f"{name} not square", (s.rows, s.cols))
        elif kernel:
            witness = Witness(f"kernel vector of {name}", where,
                              "(" + ", ".join(str(x) for x in kernel[0]) + ")")
        else:
            continue
        v.status = FAILS
        v.witnesses.append(witness)
        return v
    dp, dm = _try_deltas(datum, g)
    if dm is not None:
        v.derived_scalars["Delta_minus"] = str(dm)
    if dp is not None:
        v.derived_scalars["Delta_plus"] = str(dp)
    if dp is not None and dm is not None:
        prod = dp * dm
        v.derived_scalars["Delta_plus*Delta_minus"] = str(prod)
        if prod.is_zero:
            v.status = FAILS
            v.witnesses.append(Witness("internal-consistency: Delta_+Delta_- vanished "
                                       "although both S-matrices are non-degenerate"))
            return v
    v.witnesses.append(Witness("both S-matrices have full rank", (str(g),),
                               v.derived_scalars["rank(S_g)"]))
    return v


# ---------------------------------------------------------------------------
# rank constancy of mixed blocks
# ---------------------------------------------------------------------------

ZERO_ENTRY_HYPOTHESIS = "all recorded mixed S-matrix blocks have no zero entry"


def check_rank_constancy(datum: ModularDatum) -> Verdict:
    v = Verdict("rank-constancy", HOLDS)
    if len(datum.sprime) < 2:
        v.status = DATA_ABSENT
        v.notes.append("need at least two recorded blocks to compare ranks")
        return v
    for bi, b in enumerate(datum.sprime):
        for i in range(b.matrix.rows):
            for j in range(b.matrix.cols):
                if b.matrix[i, j].is_zero:
                    v.status = HYPOTHESIS_NOT_MET
                    v.witnesses.append(Witness(
                        ZERO_ENTRY_HYPOTHESIS,
                        (bi, str(b.row_degree), str(b.col_degree), i, j), "0"))
                    return v
    ranks = [(bi, b.matrix.rank()) for bi, b in enumerate(datum.sprime)]
    for bi, r in ranks:
        v.derived_scalars[f"rank(block {bi})"] = str(r)
    distinct = {r for _, r in ranks}
    if len(distinct) > 1:
        v.status = FAILS
        v.witnesses.append(Witness("blocks of different rank",
                                   tuple(bi for bi, _ in ranks),
                                   str(sorted(distinct))))
    else:
        v.witnesses.append(Witness("all blocks share one rank", (), str(ranks[0][1])))
    return v


# ---------------------------------------------------------------------------
# Mueger-center sufficiency
# ---------------------------------------------------------------------------

def check_dmug(datum: ModularDatum, g: Degree) -> Verdict:
    v = Verdict("dmug", HOLDS, params={"g": str(g)})
    v.notes.append("sufficient condition for Z-trivial Mueger center; "
                   "the Mueger center itself is never computed")
    if datum.orbit_count is None:
        v.status = DATA_ABSENT
        v.notes.append("orbit_count N is not recorded in the datum")
        return v
    if datum.translation.no_self_extension is False:
        v.status = HYPOTHESIS_NOT_MET
        v.witnesses.append(Witness(
            "the translation objects must have no self extension (user-asserted flag is false)"))
        return v
    if datum.translation.no_self_extension is None:
        v.notes.append("hypothesis 'no self extension' not recorded; assumed as user-asserted")
    n = datum.orbit_count
    size = len(datum.index_sets.get(g, ()))
    if size != n:
        v.status = FAILS
        v.witnesses.append(Witness("condition (1) shape: |I_g| != N", (size, n)))
        return v
    try:
        sg = modified_S(datum, g)
        s_mixed = modified_S(datum, datum.negate(g), g)
    except KeyError as exc:
        v.status = DATA_ABSENT
        v.notes.append(_msg(exc))
        return v
    r = _rank_and_kernel(datum, g, g)[0]
    if r < n:
        v.status = FAILS
        v.witnesses.append(Witness("condition (1): S_g is singular", (str(g),), str(r)))
        return v
    for name, mat in (("S_g", sg), ("S_-g,g", s_mixed)):
        row = next((i for i in range(mat.rows)
                    if all(not mat[i, j].is_zero for j in range(mat.cols))), None)
        if row is None:
            v.status = FAILS
            v.witnesses.append(Witness(f"condition (2): every row of {name} has a zero entry"))
            return v
        v.witnesses.append(Witness(f"everywhere-nonzero row of {name}", (row,)))
    return v


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
        v.status = DATA_ABSENT
        v.notes.append(_msg(exc))
        return v
    p = s_gh @ s_hneg
    if p.rows != p.cols:
        v.status = FAILS
        v.witnesses.append(Witness("product S_{g,h} S_{h,-g} is not square", (p.rows, p.cols)))
        return v
    zeta = p[0, 0]
    v.derived_scalars["zeta_Omega"] = str(zeta)
    if zeta.is_zero:
        v.status = FAILS
        v.witnesses.append(Witness("zeta candidate P[0][0] is zero", (0, 0), "0"))
        return v
    for i in range(p.rows):
        for j in range(p.cols):
            expected = zeta if i == j else CycScalar.zero(datum.conductor)
            if p[i, j] != expected:
                v.status = FAILS
                if i == j:
                    v.witnesses.append(Witness(
                        "unequal diagonal entries of P", ((0, 0), (i, j)),
                        f"{zeta} vs {p[i, j]}"))
                else:
                    v.witnesses.append(Witness(
                        "off-diagonal entry of P is nonzero", ((i, j),), str(p[i, j])))
                return v
    dp, dm = _try_deltas(datum, g)
    if dp is not None and dm is not None:
        prod = dp * dm
        v.derived_scalars["Delta_plus*Delta_minus"] = str(prod)
        if prod != zeta:
            v.status = FAILS
            v.witnesses.append(Witness(
                "Delta_+ convention mismatch: zeta_Omega != Delta_+Delta_-",
                (), f"{zeta} vs {prod}"))
            return v
        v.notes.append("cross-check zeta_Omega = Delta_+Delta_- passed")
    else:
        v.notes.append("Delta cross-check skipped: diagonal blocks or dual involution absent")
    v.witnesses.append(Witness("P = zeta * Id", (), str(zeta)))
    return v


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
        v.status = FAILS
        for viol in violations:
            v.witnesses.append(Witness(viol.invariant, viol.indices, viol.message))
    else:
        v.witnesses.append(Witness("all structural invariants hold"))
    return v
