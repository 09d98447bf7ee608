from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_golden, diagonal_matrix, zero_matrix
from relmod.matrices import ExactMatrix
from relmod.scalars import CycScalar, quantum_integer
from relmod.sl21 import (
    build_Ak,
    check_relations,
    select_convention,
    tensor_rep,
    trivial_rep,
)
from relmod.datum import json_text
from relmod.sl21.reps import CONVENTIONS, UNEVALUATED, _scalar_relations
from relmod.verdicts import FAILS, HOLDS, Verdict, Witness

# The clauses that involve E_i or F_i; the rest hold on any WeightModuleRep.
EVALUATED_CLAUSES = [
    "A3 (1,1): [E1,F1] = (K1-K1^-1)/(q-q^-1)",
    "A3 (1,2): [E1,F2] = 0",
    "A3 (2,1): [E2,F1] = 0",
    "A3 (2,2): [E2,F2] = (K2-K2^-1)/(q-q^-1)",
    "E2^2 = 0",
    "F2^2 = 0",
    "A5: E1^2 E2 - (q+q^-1) E1E2E1 + E2 E1^2 = 0",
    "A5: F1^2 F2 - (q+q^-1) F1F2F1 + F2 F1^2 = 0",
    "A7: [H1,E1] = a11 E1",
    "A7: [H1,F1] = -a11 F1",
    "A7: [H1,E2] = a12 E2",
    "A7: [H1,F2] = -a12 F2",
    "A7: [H2,E1] = a21 E1",
    "A7: [H2,F1] = -a21 F1",
    "A7: [H2,E2] = a22 E2",
    "A7: [H2,F2] = -a22 F2",
]

BOTH_CONVENTION_CLAUSES = ("A1", "A2", "A4", "A5: E", "A6", "A7",
                           "E2^2", "F2^2", "A3 (1,1)", "weight condition")
# Under the "paper" F2 coefficient the (2,2) clause of A3 always breaks, and
# for k >= 2 the coefficient/range mismatch additionally leaks into A3 (1,2)
# and the F-side cubic Serre relation at boundary basis vectors.
PAPER_ONLY_FAILURES = ("A3 (2,2)", "A3 (1,2)", "A5: F")


# ---------------------------------------------------------------------------
# the dense view: a module keeps each E_i and F_i as a map from (row, col) to
# its nonzero values; these tests read the maps as ExactMatrix values
# ---------------------------------------------------------------------------

def dense(entries, n, ell):
    """The n x n matrix with the entries of a nonzero-entry map and zero elsewhere."""
    out = [CycScalar.zero(ell)] * (n * n)
    for (r, c), e in entries.items():
        out[r * n + c] = e
    return ExactMatrix(n, n, ell, out)


def sparse(m):
    """The nonzero entries of the matrix m by (row, col)."""
    return {divmod(p, m.cols): e for p, e in enumerate(m.entries) if e.coeffs}


def H(rep, i):
    """H_(i+1) = diag of its eigenvalues in rep.h_eigs."""
    return diagonal_matrix([CycScalar.rational(h[i], rep.ell) for h in rep.h_eigs], rep.ell)


def K(rep, i, power=1):
    """K_(i+1)^power = q^(power H_(i+1)), a diagonal read off rep.h_eigs."""
    return diagonal_matrix([CycScalar.zeta(rep.ell, power * h[i]) for h in rep.h_eigs],
                                rep.ell)


def scaled(m, c):
    """c m."""
    return m.scale_columns([c] * m.cols)


def add(x, y):
    """The entrywise sum x + y."""
    assert (x.rows, x.cols) == (y.rows, y.cols)
    return ExactMatrix(x.rows, x.cols, x.conductor, [a + b for a, b in zip(x.entries, y.entries)])


def sub(x, y):
    """The entrywise difference x - y."""
    assert (x.rows, x.cols) == (y.rows, y.cols)
    return ExactMatrix(x.rows, x.cols, x.conductor, [a - b for a, b in zip(x.entries, y.entries)])


def relation_set(rep):
    """The 16 evaluated relations as (name, lhs, rhs), each side computed on
    the generators' nonzero entries by check_relations' CycScalar path and
    shown as a dense matrix."""
    n, ell = rep.dim, rep.ell
    return [(name, dense(lhs, n, ell), dense(rhs, n, ell))
            for name, lhs, rhs, _ in _scalar_relations(rep)]


class TestBuildAk:
    def test_dimension_and_spectra(self):
        rep = build_Ak(1, 3, "paper")
        assert rep.dim == 3
        assert [h[0] for h in rep.h_eigs] == [1, -1, 0]
        assert [h[1] for h in rep.h_eigs] == [0, 1, 1]

    def test_e1_on_v01(self):
        rep = build_Ak(1, 3, "paper")
        col = [dense(rep.E[0], rep.dim, 3)[i, 1] for i in range(3)]
        assert col[0] == CycScalar.one(3)
        assert all(c.is_zero for c in col[1:])

    def test_f1_is_shift(self):
        for conv in ("paper", "corrected"):
            rep = build_Ak(2, 5, conv)
            f1 = dense(rep.F[0], rep.dim, 5)
            idx = {lab: i for i, lab in enumerate(rep.labels)}
            for (j, i), src in idx.items():
                for (j2, i2), dst in idx.items():
                    expect = (j2 == j and i2 == i + 1)
                    assert f1[dst, src] == (CycScalar.one(5) if expect else CycScalar.zero(5))

    def test_k_range(self):
        with pytest.raises(ValueError):
            build_Ak(0, 5)
        with pytest.raises(ValueError):
            build_Ak(5, 5)

    def test_even_ell_rejected(self):
        with pytest.raises(ValueError):
            build_Ak(1, 4)

    def test_k_is_q_to_h(self):
        # the right side of A3 (i,i), (K_i - K_i^-1)/(q - q^-1), is evaluated
        # on the H_i spectrum: at basis vector p it is
        # (zeta^h - zeta^-h)/(zeta - zeta^-1) for h = h_eigs[p][i]
        rep = build_Ak(2, 5, "corrected")
        rhs = {name[:8]: side for name, _, side in relation_set(rep)}
        q = CycScalar.zeta(5)
        denominator = (q - q ** -1).inverse()
        for p, hs in enumerate(rep.h_eigs):
            for i, h in enumerate(hs):
                k = CycScalar.zeta(5, h)
                assert rhs[f"A3 ({i + 1},{i + 1})"][p, p] == (k - k.inverse()) * denominator


class TestRelations:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_corrected_passes_everything(self, ell):
        for k in range(1, ell):
            assert check_relations(build_Ak(k, ell, "corrected")).status == HOLDS

    def test_paper_fails_a3_22_with_stated_discrepancy(self):
        for ell, k in ((3, 2), (5, 2), (5, 4), (7, 3)):
            v = check_relations(build_Ak(k, ell, "paper"))
            assert v.status == FAILS
            w = next(w for w in v.witnesses if w.name.startswith("A3 (2,2)"))
            # witness column is a v^0_i basis vector; discrepancy is [i+1] - [i]
            label = eval(w.indices[0])
            assert label[0] == 0
            i = label[1]
            expected = quantum_integer(i + 1, ell) - quantum_integer(i, ell)
            from relmod.scalars import parse_scalar
            assert parse_scalar(w.value, ell) == expected

    def test_k1_both_conventions_differ_only_in_a3_22(self):
        # at k = 1 the F2 coefficient question touches only the (2,2) clause
        for ell in (3, 5, 7):
            for conv in ("paper", "corrected"):
                v = check_relations(build_Ak(1, ell, conv))
                failed = set() if v.status == HOLDS else \
                    {w.name.split(":")[0].strip() for w in v.witnesses}
                assert failed <= {"A3 (2,2)"}
                if conv == "corrected":
                    assert v.status == HOLDS

    def test_named_clauses_pass_under_both_conventions(self):
        for ell in (3, 5):
            for k in range(1, ell):
                for conv in ("paper", "corrected"):
                    v = check_relations(build_Ak(k, ell, conv))
                    if v.status == HOLDS:
                        continue
                    assert conv == "paper"
                    for w in v.witnesses:
                        assert not any(w.name.startswith(c) for c in BOTH_CONVENTION_CLAUSES), \
                            (ell, k, conv, w.name)
                        assert any(w.name.startswith(c) for c in PAPER_ONLY_FAILURES), \
                            (ell, k, conv, w.name)

    def test_zeroed_e2_breaks_a3_22_off_kernel(self):
        import dataclasses
        rep = build_Ak(2, 5, "corrected")
        zeroed = dataclasses.replace(rep, E=(rep.E[0], {}))
        v = check_relations(zeroed)
        assert v.status == FAILS
        w = next(w for w in v.witnesses if w.name.startswith("A3 (2,2)"))
        # the witnessed basis vector must have a nonzero H2 quantum bracket
        label = eval(w.indices[0])
        h2 = label[0] + label[1]
        assert not quantum_integer(h2, 5).is_zero

    def test_off_weight_entry_breaks_a7(self):
        # E1[0,0] = 1 maps a weight vector to itself, so [H_i,E1] = a_i1 E1
        # fails for i = 1 and 2 (a_11 = 2, a_21 = -1) on the first basis vector
        import dataclasses
        rep = build_Ak(2, 5, "corrected")
        e1 = dict(rep.E[0])
        e1[0, 0] = CycScalar.one(5)
        bad = dataclasses.replace(rep, E=(e1, rep.E[1]))
        v = check_relations(bad)
        assert v.status == FAILS
        a7 = [(w.name, w.indices, w.value) for w in v.witnesses if w.name.startswith("A7")]
        assert a7 == [("A7: [H1,E1] = a11 E1", ("(0, 0)", 0, 0), "-2"),
                      ("A7: [H2,E1] = a21 E1", ("(0, 0)", 0, 0), "1")]

    def test_witness_is_the_first_mismatch_in_column_major_order(self):
        # two off-weight entries of E1 break [H1,E1] = 2 E1 at (3,1) and (0,4):
        # column-major order meets (3,1) first, row-major order (0,4)
        import dataclasses
        rep = build_Ak(3, 7, "corrected")
        e1 = dict(rep.E[0])
        for row, col in ((3, 1), (0, 4)):
            e1[row, col] = CycScalar.one(7)
        bad = dataclasses.replace(rep, E=(e1, rep.E[1]))
        v = check_relations(bad)
        assert v.status == FAILS
        w = next(w for w in v.witnesses if w.name == "A7: [H1,E1] = a11 E1")
        assert w.indices == (str(rep.labels[1]), 3, 1) and w.value == "-6"
        # every witness is its relation's first mismatch, column by column, on
        # the dense reference sides
        rels = {name: (lhs, rhs) for name, lhs, rhs in _reference_relations(bad)}
        for w in v.witnesses:
            lhs, rhs = rels[w.name]
            first = next((r, c) for c in range(bad.dim) for r in range(bad.dim)
                         if lhs[r, c] != rhs[r, c])
            assert w.indices[1:] == first
            assert w.value == str(lhs[first] - rhs[first])

    def test_one_note_names_the_unevaluated_clauses(self):
        v = check_relations(build_Ak(2, 5, "corrected"))
        assert v.status == HOLDS
        assert v.notes[1:] == [f"{name}: holds" for name in EVALUATED_CLAUSES]
        for clause in ("A1", "A2", "A4", "A6", "[H1,H2] = 0", "[Hi,Kj] = 0", "Ki = q^(di Hi)"):
            assert clause in v.notes[0]
        assert [(w.name, w.value) for w in v.witnesses] == [
            ("all relations hold as exact matrix identities", "16")]

    def test_selected_convention_is_corrected(self):
        for ell in (3, 5, 7):
            assert select_convention(ell) == "corrected"


class TestTensor:
    def test_trivial_module_leaves_matrices_intact(self):
        rep = build_Ak(2, 5, "corrected")
        t = tensor_rep(rep, trivial_rep(5))
        assert t.h_eigs == rep.h_eigs
        for i in (0, 1):
            for got, want in ((H(t, i), H(rep, i)), (t.E[i], rep.E[i]), (t.F[i], rep.F[i]),
                              (K(t, i), K(rep, i))):
                assert got == want, i

    def test_h_is_additive(self):
        a = build_Ak(1, 5, "corrected")
        b = build_Ak(2, 5, "corrected")
        t = tensor_rep(a, b)
        expect = [(ha[0] + hb[0]) for ha in a.h_eigs for hb in b.h_eigs]
        assert [H(t, 0)[i, i] for i in range(t.dim)] == [CycScalar.rational(h, 5) for h in expect]

    def test_tensor_satisfies_relations(self):
        t = tensor_rep(build_Ak(1, 5, "corrected"), build_Ak(1, 5, "corrected"))
        assert check_relations(t).status == HOLDS

    def test_triple_tensor_satisfies_relations(self):
        a = build_Ak(1, 3, "corrected")
        t = tensor_rep(tensor_rep(a, a), a)
        assert check_relations(t).status == HOLDS

    def test_ell_mismatch(self):
        with pytest.raises(ValueError):
            tensor_rep(build_Ak(1, 3), build_Ak(1, 5))

    def test_convention_mismatch(self):
        # a product of the two conventions would be reported under one of
        # them; the trivial module has none and combines with either
        with pytest.raises(ValueError, match="convention mismatch"):
            tensor_rep(build_Ak(2, 5, "corrected"), build_Ak(2, 5, "paper"))
        with pytest.raises(ValueError, match="convention mismatch"):
            tensor_rep(build_Ak(1, 5, "paper"), build_Ak(2, 5, "corrected"))
        for conv in CONVENTIONS:
            a = build_Ak(2, 5, conv)
            assert tensor_rep(a, trivial_rep(5)).convention == conv
            assert tensor_rep(trivial_rep(5), a).convention == conv
            assert tensor_rep(a, a).convention == conv

    def test_delta_k_is_kron(self):
        # Delta(K_i) = K_i (x) K_i: the product's weights are the factors' sums
        a = build_Ak(1, 5, "corrected")
        b = build_Ak(2, 5, "corrected")
        t = tensor_rep(a, b)
        for i in (0, 1):
            assert K(t, i) == _reference_kron(K(a, i), K(b, i), a.parities, 0, 5)
        for p, (h1, h2) in enumerate(t.h_eigs):
            assert K(t, 0)[p, p] == CycScalar.zeta(5, h1)
            assert K(t, 1)[p, p] == CycScalar.zeta(5, h2)


# The products whose generators tensor_ef.txt pins: tensor_rep(A_k1, A_k2)
# at ell = 3, 5, 7, for k1 in (1, 2) and every k2.
TENSOR_PRODUCTS = [(ell, k1, k2) for ell in (3, 5, 7) for k1 in (1, 2) for k2 in range(1, ell)]


def test_tensor_generators_are_pinned():
    # each of E1, E2, F1, F2 as a line "ell=. k1=. k2=. name rowsxcols", then
    # one line "row col value" for each nonzero entry in row-major order
    lines = []
    for ell, k1, k2 in TENSOR_PRODUCTS:
        t = tensor_rep(build_Ak(k1, ell), build_Ak(k2, ell))
        for name, x in zip(("E1", "E2", "F1", "F2"), t.E + t.F, strict=True):
            m = dense(x, t.dim, ell)
            lines.append(f"ell={ell} k1={k1} k2={k2} {name} {m.rows}x{m.cols}")
            lines.extend(f"{i} {j} {m[i, j]}" for i in range(m.rows) for j in range(m.cols)
                         if not m[i, j].is_zero)
    assert_golden("tensor_ef.txt", "".join(line + "\n" for line in lines))


@given(k=st.integers(1, 4), ell=st.sampled_from([5, 7]))
@settings(max_examples=10, deadline=None)
def test_relation_set_is_complete_square_matrices(k, ell):
    rep = build_Ak(k, ell, "corrected")
    rels = relation_set(rep)
    assert [name for name, _, _ in rels] == EVALUATED_CLAUSES
    for name, lhs, rhs in rels:
        assert lhs.rows == lhs.cols == rep.dim
        assert rhs.rows == rhs.cols == rep.dim


def _random_sparse(rng, dim, ell, density=0.3):
    """The map of a dim x dim matrix with about density * dim^2 nonzero entries, each a
    rational multiple of a zeta power or a two-term sum; the support ignores
    weights, so most entries are not weight-homogeneous."""
    def entry():
        c = CycScalar.rational(rng.choice([1, -1, 2, -3]) * rng.choice([1, 1, 2, 5]), ell)
        if rng.random() < 0.5:
            c = c * CycScalar.zeta(ell, rng.randrange(ell))
        if rng.random() < 0.3:
            c = c + CycScalar.rational(rng.randint(-2, 2), ell)
        return c
    zero = CycScalar.zero(ell)
    return sparse(ExactMatrix(dim, dim, ell, [entry() if rng.random() < density else zero
                                              for _ in range(dim * dim)]))


@pytest.mark.parametrize("seed", range(6))
def test_a7_bracket_equals_the_matrix_commutator(seed):
    # relation_set reads [H_i, X] off the weight spectrum; on any X, weight-
    # homogeneous or not, it must equal H(i) @ X - X @ H(i) entry by entry
    import dataclasses
    import random
    rng = random.Random(seed)
    ell = (3, 5, 7)[seed % 3]
    a = build_Ak(rng.randint(1, ell - 1), ell)
    rep = a if seed < 3 else tensor_rep(a, build_Ak(1, ell))
    bad = dataclasses.replace(
        rep, E=tuple(_random_sparse(rng, rep.dim, ell) for _ in rep.E),
        F=tuple(_random_sparse(rng, rep.dim, ell) for _ in rep.F))
    rels = {name: lhs for name, lhs, _ in relation_set(bad)}
    E, F = ([dense(x, bad.dim, ell) for x in xs] for xs in (bad.E, bad.F))
    for i in (0, 1):
        h = H(bad, i)
        for j in (0, 1):
            for name, x in ((f"A7: [H{i + 1},E{j + 1}] = a{i + 1}{j + 1} E{j + 1}", E[j]),
                            (f"A7: [H{i + 1},F{j + 1}] = -a{i + 1}{j + 1} F{j + 1}", F[j])):
                want = sub(h @ x, x @ h)
                assert rels[name] == want, name
                assert [str(e) for e in rels[name].entries] == [str(e) for e in want.entries]


# ---------------------------------------------------------------------------
# dense reference: the relation sides, the verdict and the coproduct computed
# with whole-matrix ExactMatrix products, independently of reps.py's
# nonzero-entry maps
# ---------------------------------------------------------------------------

REFERENCE_CARTAN = ((2, -1), (-1, 0))


def _reference_relations(rep):
    """The 16 evaluated clauses of EVALUATED_CLAUSES as dense (name, lhs, rhs):
    x @ y -+ y @ x for A3, the A5 chain and H_i @ X - X @ H_i for A7."""
    ell, n = rep.ell, rep.dim
    zero = zero_matrix(n, n, ell)
    q = CycScalar.zeta(ell)
    qq = q + q ** -1
    E, F = ([dense(x, n, ell) for x in xs] for xs in (rep.E, rep.F))
    sides = []
    for i in (0, 1):
        for j in (0, 1):
            xy, yx = E[i] @ F[j], F[j] @ E[i]
            # E2 and F2 are odd, so their bracket anticommutes
            lhs = add(xy, yx) if i == j == 1 else sub(xy, yx)
            rhs = diagonal_matrix([quantum_integer(h[i], ell) for h in rep.h_eigs],
                                       ell) if i == j else zero
            sides.append((lhs, rhs))
    sides.append((E[1] @ E[1], zero))
    sides.append((F[1] @ F[1], zero))
    for x1, x2 in (E, F):
        sides.append((add(sub(x1 @ x1 @ x2, scaled(x1 @ x2 @ x1, qq)), x2 @ x1 @ x1), zero))
    for i in (0, 1):
        h = H(rep, i)
        for j in (0, 1):
            a = REFERENCE_CARTAN[i][j]
            sides.append((sub(h @ E[j], E[j] @ h), scaled(E[j], CycScalar.rational(a, ell))))
            sides.append((sub(h @ F[j], F[j] @ h), scaled(F[j], CycScalar.rational(-a, ell))))
    return [(name, lhs, rhs) for name, (lhs, rhs) in zip(EVALUATED_CLAUSES, sides)]


def _reference_verdict(rep):
    """The sl21-relations verdict from the dense sides, each failing relation
    witnessed by its first mismatch scanned column by column."""
    v = Verdict("sl21-relations", HOLDS,
                params={"ell": str(rep.ell), "dim": str(rep.dim),
                        "convention": str(rep.convention)},
                notes=[UNEVALUATED])
    rels = _reference_relations(rep)
    for name, lhs, rhs in rels:
        bad = next(((r, c) for c in range(rep.dim) for r in range(rep.dim)
                    if lhs[r, c] != rhs[r, c]), None)
        if bad is None:
            v.notes.append(f"{name}: holds")
            continue
        v.status = FAILS
        r, c = bad
        v.witnesses.append(Witness(name, (str(rep.labels[c]), r, c), str(lhs[bad] - rhs[bad])))
        v.notes.append(f"{name}: fails on basis vector {rep.labels[c]}")
    if v.status == HOLDS:
        v.witnesses.append(Witness("all relations hold as exact matrix identities",
                                   (), str(len(rels))))
    return v


def _reference_kron(x, y, first_parities, y_parity, ell):
    """x (x) y on the tensor basis, with the Koszul sign (-1)^(|y| |v_p|) of
    the first-factor column vector v_p."""
    rb, cb = y.rows, y.cols
    cols = x.cols * cb
    out = [CycScalar.zero(ell)] * (x.rows * rb * cols)
    for p2 in range(x.rows):
        for p in range(x.cols):
            sign = -1 if y_parity and first_parities[p] else 1
            for q2 in range(rb):
                for q in range(cb):
                    out[(p2 * rb + q2) * cols + p * cb + q] = x[p2, p] * y[q2, q] * sign
    return ExactMatrix(x.rows * rb, cols, ell, out)


def _reference_tensor_generators(a, b):
    """E_i (x) 1 + K_i^-1 (x) E_i and F_i (x) K_i + 1 (x) F_i, densely, in the
    order E1, E2, F1, F2; E2 and F2 are odd."""
    ell = a.ell
    id_a, id_b = ExactMatrix.identity(a.dim, ell), ExactMatrix.identity(b.dim, ell)
    aE, aF, bE, bF = ([dense(x, m.dim, ell) for x in xs]
                      for m, xs in ((a, a.E), (a, a.F), (b, b.E), (b, b.F)))

    def kron(x, y, y_parity):
        return _reference_kron(x, y, a.parities, y_parity, ell)
    E = [add(kron(aE[i], id_b, 0), kron(K(a, i, -1), bE[i], i)) for i in (0, 1)]
    F = [add(kron(aF[i], K(b, i), 0), kron(id_a, bF[i], i)) for i in (0, 1)]
    return E + F


def _reference_Ak(k, ell, convention):
    """E1, E2, F1, F2 of A_k as dense matrices, entry by entry from the
    generator actions in the reps module docstring."""
    labels = [(0, i) for i in range(k + 1)] + [(1, i) for i in range(k)]
    one, zero = CycScalar.one(ell), CycScalar.zero(ell)

    def qi(n):
        return quantum_integer(n, ell)

    def action(gen, dst, src):
        (j2, i2), (j, i) = dst, src
        if gen == "E1" and (j2, i2) == (j, i - 1):
            return qi(i) * qi(k - j + 1 - i)
        if gen == "E2" and j == 1 and (j2, i2) == (0, i + 1):
            return one
        if gen == "F1" and (j2, i2) == (j, i + 1):
            return one
        if gen == "F2" and j == 0 and (j2, i2) == (1, i - 1):
            return qi(i + 1 if convention == "paper" else i)
        return zero
    return [ExactMatrix.from_rows([[action(gen, dst, src) for src in labels] for dst in labels],
                                  ell)
            for gen in ("E1", "E2", "F1", "F2")]


def _map_cases():
    """(module, its E1, E2, F1, F2 as dense reference matrices)."""
    import dataclasses
    for ell in (3, 5, 7):
        for conv in CONVENTIONS:
            for k in range(1, ell):
                yield f"A{k}-ell{ell}-{conv}", (build_Ak(k, ell, conv), _reference_Ak(k, ell, conv))
    for name, a, b in (("A6xA1-ell7-paper", build_Ak(6, 7, "paper"), build_Ak(1, 7, "paper")),
                       ("A2xA3-ell5", build_Ak(2, 5), build_Ak(3, 5)),
                       ("1xA4-ell5-paper", trivial_rep(5), build_Ak(4, 5, "paper"))):
        yield name, (tensor_rep(a, b), _reference_tensor_generators(a, b))
    # E1 (x) 1 + K1^-1 (x) E1 on two one-dimensional modules of weight 0 whose
    # E1 are 1 and -1: the two coproduct terms cancel
    one = CycScalar.one(5)
    a, b = (dataclasses.replace(trivial_rep(5), E=({(0, 0): c}, {})) for c in (one, -one))
    yield "cancelling", (tensor_rep(a, b), _reference_tensor_generators(a, b))


MAP_CASES = dict(_map_cases())


@pytest.mark.parametrize("name", MAP_CASES)
def test_generator_maps_hold_exactly_the_nonzero_entries(name):
    # the relation check's products and scalings assume that a map holds no
    # zero value; every nonzero sits where the dense reference has it
    rep, reference = MAP_CASES[name]
    for x, want in zip(rep.E + rep.F, reference, strict=True):
        assert not any(e.is_zero for e in x.values())
        assert x == sparse(want)
        assert dense(x, rep.dim, rep.ell) == want


def _oracle_cases():
    for ell in (3, 5, 7):
        for k in range(1, ell):
            for conv in ("paper", "corrected"):
                yield f"A{k}-ell{ell}-{conv}", build_Ak(k, ell, conv)
    for ell, k1, k2 in ((3, 1, 2), (5, 1, 3), (5, 2, 2), (7, 2, 1)):
        yield f"A{k1}xA{k2}-ell{ell}", tensor_rep(build_Ak(k1, ell), build_Ak(k2, ell))
    for conv in ("paper", "corrected"):
        a = build_Ak(2, 5, conv)
        yield f"A2xA2-ell5-{conv}", tensor_rep(a, a)
    a = build_Ak(1, 3)
    yield "A1xA1xA1-ell3", tensor_rep(tensor_rep(a, a), a)


ORACLE_CASES = dict(_oracle_cases())


def _assert_matches_reference(rep):
    want = _reference_relations(rep)
    got = relation_set(rep)
    assert [name for name, _, _ in got] == [name for name, _, _ in want]
    for (name, lhs, rhs), (_, want_lhs, want_rhs) in zip(got, want):
        for side, want_side in ((lhs, want_lhs), (rhs, want_rhs)):
            assert side == want_side, name
            assert [str(e) for e in side.entries] == [str(e) for e in want_side.entries], name
    assert check_relations(rep).to_json() == _reference_verdict(rep).to_json()


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_relations_match_the_dense_reference(name):
    _assert_matches_reference(ORACLE_CASES[name])


@pytest.mark.parametrize("seed", range(8))
def test_perturbed_relations_match_the_dense_reference(seed):
    # off-weight entries make relations fail, so the witnesses and their
    # values are compared with the reference's column-major scan
    import dataclasses
    import random
    rng = random.Random(seed)
    ell = (3, 5, 7)[seed % 3]
    a = build_Ak(rng.randint(1, ell - 1), ell, rng.choice(CONVENTIONS))
    rep = a if seed % 2 else tensor_rep(a, build_Ak(1, ell, a.convention))
    density = (0.05, 0.3)[seed % 4 // 2]
    # each generator is replaced by a random one or kept, and at least one is replaced
    swap = [rng.random() < 0.5 for _ in range(4)]
    swap[seed % 4] = True
    gens = [_random_sparse(rng, rep.dim, ell, density) if s else x
            for s, x in zip(swap, rep.E + rep.F)]
    bad = dataclasses.replace(rep, E=tuple(gens[:2]), F=tuple(gens[2:]))
    _assert_matches_reference(bad)
    assert check_relations(bad).status == FAILS


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_tensor_generators_match_the_dense_koszul_kron(ell):
    for k1, k2 in ((1, ell - 1), (2, 1), (ell - 1, 2)):
        for c1, c2 in (("corrected", "corrected"), ("paper", "paper")):
            a, b = build_Ak(k1, ell, c1), build_Ak(k2, ell, c2)
            t = tensor_rep(a, b)
            for got, want in zip(t.E + t.F, _reference_tensor_generators(a, b)):
                got = dense(got, t.dim, ell)
                assert got == want
                assert [str(e) for e in got.entries] == [str(e) for e in want.entries]
    a = build_Ak(2, ell)
    ab = tensor_rep(a, build_Ak(1, ell))
    t = tensor_rep(ab, a)
    for got, want in zip(t.E + t.F, _reference_tensor_generators(ab, a)):
        assert dense(got, t.dim, ell) == want


def test_relation_reports_are_pinned():
    # json_text(check_relations(rep).to_json()) and a newline, for every A_k
    # at ell = 3, 5, 7, 9 under the "paper" then the "corrected" convention,
    # then for each of TENSOR_PRODUCTS
    reps = [build_Ak(k, ell, conv) for ell in (3, 5, 7, 9) for k in range(1, ell)
            for conv in ("paper", "corrected")]
    reps += [tensor_rep(build_Ak(k1, ell), build_Ak(k2, ell)) for ell, k1, k2 in TENSOR_PRODUCTS]
    assert_golden("relations.txt",
                  "".join(json_text(check_relations(rep).to_json()) + "\n" for rep in reps))


# ---------------------------------------------------------------------------
# the packed relation check: denominators, large entries and formal variables,
# each against the dense reference verdict
# ---------------------------------------------------------------------------

def _scaled_generators(rep, factors):
    """rep with E1, E2, F1, F2 multiplied by the scalars in factors."""
    import dataclasses
    gens = [{key: c * e for key, e in x.items()} for x, c in zip(rep.E + rep.F, factors)]
    return dataclasses.replace(rep, E=tuple(gens[:2]), F=tuple(gens[2:]))


def _assert_verdict_matches_reference(rep, status):
    v = check_relations(rep)
    assert v.to_json() == _reference_verdict(rep).to_json()
    assert v.status == status


def _rationals(ell, *qs):
    return [CycScalar.rational(Fraction(q), ell) for q in qs]


@pytest.mark.parametrize("ell,k", [(5, 3), (7, 4), (9, 4)])
def test_generators_with_denominators(ell, k):
    # E_i c and F_i / c keep every relation, whatever denominators c carries;
    # a factor of zeta^k on one side only breaks A3 (i,i)
    half_zeta = CycScalar.rational(Fraction(1, 2), ell) * CycScalar.zeta(ell, 2)
    for base in (build_Ak(k, ell), tensor_rep(build_Ak(2, ell), build_Ak(1, ell))):
        three_fifths, two, five_thirds, half = _rationals(ell, "3/5", 2, "5/3", "1/2")
        _assert_verdict_matches_reference(
            _scaled_generators(base, (half_zeta, three_fifths, half_zeta.inverse(), five_thirds)),
            HOLDS)
        _assert_verdict_matches_reference(
            _scaled_generators(base, (half_zeta, three_fifths, two, five_thirds)), FAILS)
        _assert_verdict_matches_reference(
            _scaled_generators(base, (half, three_fifths, two, half)), FAILS)


@pytest.mark.parametrize("seed", range(4))
def test_perturbed_generators_with_denominators(seed):
    # random entries of 1/2 zeta^k and 3/5, off the weight spaces
    import dataclasses
    import random
    rng = random.Random(100 + seed)
    ell = (5, 7, 9, 15)[seed]
    rep = build_Ak(rng.randint(2, ell - 1), ell)
    zero = CycScalar.zero(ell)

    def entry():
        if rng.random() < 0.5:
            return CycScalar.rational(Fraction(1, 2), ell) * CycScalar.zeta(ell, rng.randrange(ell))
        return CycScalar.rational(Fraction(3, 5), ell)
    gens = [sparse(ExactMatrix(rep.dim, rep.dim, ell, [entry() if rng.random() < 0.2 else zero
                                                      for _ in range(rep.dim ** 2)]))
            if i == seed else x for i, x in enumerate(rep.E + rep.F)]
    bad = dataclasses.replace(rep, E=tuple(gens[:2]), F=tuple(gens[2:]))
    _assert_verdict_matches_reference(bad, FAILS)


@pytest.mark.parametrize("ell", [5, 7, 21])
def test_entries_near_the_packing_width(ell):
    # numerators of 10^12 and more set the packing width; E1 10^12 with
    # F1 10^-12 holds, and E1 (10^12 + 1) or a zeta-power perturbation fails
    big = 10 ** 12
    base = build_Ak(min(4, ell - 1), ell)
    one, = _rationals(ell, 1)
    for e1, f1, status in ((big, Fraction(1, big), HOLDS),
                           (big + 1, Fraction(1, big), FAILS),
                           (-3 * big, Fraction(-1, 3 * big), HOLDS)):
        e1, f1 = _rationals(ell, e1, f1)
        _assert_verdict_matches_reference(_scaled_generators(base, (e1, one, f1, one)), status)
    # every entry of E2 a multiple of 10^12 and a zeta power: the relations
    # with E2 fail, each at its first entry
    e2 = CycScalar.rational(7 * big, ell) * CycScalar.zeta(ell, 3) + CycScalar.rational(big, ell)
    _assert_verdict_matches_reference(_scaled_generators(base, (one, e2, one, one)), FAILS)


def test_unpacking_at_the_digit_bound():
    # every coefficient +-top, at or just past 2^(w-1) - 1, the largest a
    # width takes; digits of up to 64 bits are read as machine words, wider
    # ones as bytes
    from relmod.scalars import _from_packed, _kronecker_width, _pack
    ell = 7
    for top, width in ((1, 8), (2 ** 7 - 1, 8), (2 ** 7, 16), (2 ** 15 - 1, 16), (2 ** 15, 32),
                       (10 ** 12, 64), (2 ** 63 - 1, 64), (2 ** 63, 72), (2 ** 71 - 1, 72),
                       (2 ** 71, 80)):
        w = _kronecker_width(top)
        assert w == width and top < 2 ** (w - 1)
        for signs in ((1, -1, 1, 1, -1, -1, 1, -1, 1, -1, -1), (-1,) * 11, (1,) * 11):
            coeffs = [(t, s * top) for t, s in enumerate(signs)]
            want = CycScalar(ell, {(t, ()): Fraction(c, 3) for t, c in coeffs})
            assert _from_packed(ell, _pack(coeffs, w), w, 3) == want


def test_formal_variable_controls():
    # E1 u and F1 u^-1 keep every relation: [E1 u, F1 u^-1] = [E1, F1] and
    # A5 scales by u^2; E1 u with F1 u breaks A3 (1,1) by a factor of u^2
    ell = 7
    u = CycScalar.variable("u", ell)
    one, = _rationals(ell, 1)
    for base in (build_Ak(3, ell), tensor_rep(build_Ak(1, ell), build_Ak(2, ell))):
        good = _scaled_generators(base, (u, one, u ** -1, one))
        _assert_verdict_matches_reference(good, HOLDS)
        bad = _scaled_generators(base, (u, one, u, one))
        _assert_verdict_matches_reference(bad, FAILS)
        assert [w.name.split(":")[0] for w in check_relations(bad).witnesses] == ["A3 (1,1)"]


def test_relations_report_at_ell_61_is_pinned(capsys):
    from relmod.cli import main
    assert main(["sl21", "relations", "--ell", "61", "--k", "60", "--format", "json"]) == 0
    assert_golden("relations_ell61.json", capsys.readouterr().out)
