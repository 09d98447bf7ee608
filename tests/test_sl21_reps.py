import pytest
from hypothesis import given, settings, strategies as st

from relmod.matrices import ExactMatrix
from relmod.scalars import CycScalar, quantum_integer
from relmod.sl21 import (
    build_Ak,
    check_relations,
    select_convention,
    tensor_rep,
    trivial_rep,
)
from relmod.sl21.reps import relation_set
from relmod.verdicts import FAILS, HOLDS

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


class TestBuildAk:
    def test_dimension_and_spectra(self):
        rep = build_Ak(1, 3, "paper")
        assert rep.dim == 3
        assert [h[0] for h in rep.h_eigs] == [1, -1, 0]
        assert [h[1] for h in rep.h_eigs] == [0, 1, 1]

    def test_e1_on_v01(self):
        rep = build_Ak(1, 3, "paper")
        col = [rep.E1[i, 1] for i in range(3)]
        assert col[0] == CycScalar.one(3)
        assert all(c.is_zero for c in col[1:])

    def test_f1_is_shift(self):
        for conv in ("paper", "corrected"):
            rep = build_Ak(2, 5, conv)
            idx = {lab: i for i, lab in enumerate(rep.labels)}
            for (j, i), src in idx.items():
                for (j2, i2), dst in idx.items():
                    expect = (j2 == j and i2 == i + 1)
                    assert rep.F1[dst, src] == (CycScalar.one(5) if expect
                                                else CycScalar.zero(5))

    def test_k_range(self):
        with pytest.raises(ValueError):
            build_Ak(0, 5)
        with pytest.raises(ValueError):
            build_Ak(5, 5)

    def test_even_ell_rejected(self):
        with pytest.raises(ValueError):
            build_Ak(1, 4)

    def test_k_is_q_to_h(self):
        rep = build_Ak(2, 5, "corrected")
        for i, (a, b) in enumerate(rep.h_eigs):
            assert rep.K1[i, i] == CycScalar.zeta(5, a)
            assert rep.K2[i, i] == CycScalar.zeta(5, b)


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
        zeroed = dataclasses.replace(rep, E2=ExactMatrix.zeros(rep.dim, rep.dim, 5))
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
        entries = list(rep.E1.entries)
        entries[0] = CycScalar.one(5)
        bad = dataclasses.replace(rep, E1=ExactMatrix(rep.dim, rep.dim, 5, entries))
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
        entries = list(rep.E1.entries)
        for row, col in ((3, 1), (0, 4)):
            entries[row * rep.dim + col] = CycScalar.one(7)
        bad = dataclasses.replace(rep, E1=ExactMatrix(rep.dim, rep.dim, 7, entries))
        v = check_relations(bad)
        assert v.status == FAILS
        w = next(w for w in v.witnesses if w.name == "A7: [H1,E1] = a11 E1")
        assert w.indices == (str(rep.labels[1]), 3, 1) and w.value == "-6"
        # every witness is its relation's first mismatch, column by column
        rels = {name: (lhs, rhs) for name, lhs, rhs in relation_set(bad)}
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
        for name in ("H1", "H2", "E1", "F1", "E2", "F2", "K1", "K2"):
            assert getattr(t, name).entries == getattr(rep, name).entries, name

    def test_h_is_additive(self):
        a = build_Ak(1, 5, "corrected")
        b = build_Ak(2, 5, "corrected")
        t = tensor_rep(a, b)
        expect = [(ha[0] + hb[0]) for ha in a.h_eigs for hb in b.h_eigs]
        assert [t.H1[i, i] for i in range(t.dim)] == [CycScalar.rational(h, 5) for h in expect]

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

    def test_delta_k_is_kron(self):
        a = build_Ak(1, 5, "corrected")
        b = build_Ak(2, 5, "corrected")
        t = tensor_rep(a, b)
        for i, (h1, h2) in enumerate(t.h_eigs):
            assert t.K1[i, i] == CycScalar.zeta(5, h1)
            assert t.K2[i, i] == CycScalar.zeta(5, h2)


@given(k=st.integers(1, 4), ell=st.sampled_from([5, 7]))
@settings(max_examples=10, deadline=None)
def test_relation_set_is_complete_square_matrices(k, ell):
    rep = build_Ak(k, ell, "corrected")
    rels = relation_set(rep)
    assert [name for name, _, _ in rels] == EVALUATED_CLAUSES
    for name, lhs, rhs in rels:
        assert lhs.rows == lhs.cols == rep.dim
        assert rhs.rows == rhs.cols == rep.dim
