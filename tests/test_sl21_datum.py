import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from relmod.checks import check_nondegeneracy, check_premodular_inputs
from relmod.cli import main
from relmod.datum import Degree, dumps_datum, loads_datum, modified_S
from relmod.scalars import CycScalar
from relmod.sl21 import emit_datum, rank_bound_analysis
from relmod.verdicts import FAILS, HOLDS


class TestRankBound:
    @pytest.mark.parametrize("ell,bound", [(3, 3), (5, 10), (7, 21)])
    def test_class_counts(self, ell, bound):
        rep = rank_bound_analysis(ell)
        assert rep.bound == bound
        assert rep.matrix_size == ell * (ell - 1)
        assert rep.fixed_point_free
        assert rep.proportionality_factor == "-u^2"
        assert "not relative modular" in rep.verdict

    def test_classes_partition_the_labels(self):
        rep = rank_bound_analysis(7)
        seen = [lab for pair in rep.classes for lab in pair]
        assert sorted(seen) == sorted((k, i) for k in range(6) for i in range(7))

    @given(ell=st.integers(1, 10).map(lambda n: 2 * n + 1))
    @settings(max_examples=10, deadline=None)
    def test_involution_fixed_point_free_for_odd_ell(self, ell):
        rep = rank_bound_analysis(ell)
        assert rep.fixed_point_free
        assert rep.bound == ell * (ell - 1) // 2

    def test_even_ell_rejected(self):
        with pytest.raises(ValueError):
            rank_bound_analysis(4)


# SHA-256 of the file `relmod sl21 emit --ell 5` writes.  A change to the
# scalar arithmetic must leave the emitted bytes as they are.
EMIT_ELL5_SHA256 = "96eef8b7edf691d74c00c4418b1e68e02ade4f580dce03dc1b350f8d7c965ba7"


class TestEmittedDatum:
    def test_emitted_ell5_bytes_are_pinned(self, capsys, tmp_path):
        path = tmp_path / "sl21-ell5.json"
        assert main(["sl21", "emit", "--ell", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == EMIT_ELL5_SHA256

    def test_loads_and_validates(self):
        d = emit_datum(3)
        rt = loads_datum(dumps_datum(d))
        assert rt == d
        assert check_premodular_inputs(rt).status == HOLDS

    def test_nondegeneracy_fails_at_ell_3(self):
        v = check_nondegeneracy(emit_datum(3), Degree(alpha=1))
        assert v.status == FAILS

    def test_sigma_quantum_dimensions(self):
        d = emit_datum(3)
        t = d.translation
        minus_one = CycScalar.rational(-1, 3)
        one = CycScalar.one(3)
        assert dict(t.qdim_table) == {(0, 0): one, (1, 0): minus_one}
        assert t.quantum_dimension_from_generators((1, 0), 3) == minus_one
        assert t.quantum_dimension_from_generators((3, 0), 3) == minus_one
        assert t.quantum_dimension_from_generators((0, 5), 3) == one
        assert t.quantum_dimension_from_generators((0, 0), 3) == one

    def test_small_subset_is_zero_bar(self):
        d = emit_datum(5)
        assert d.grading.small.elements == (Degree(),)
        assert not d.grading.is_generic(Degree())
        assert d.grading.is_generic(Degree(alpha=1))

    def test_psi_is_bilinear_and_u_powered(self):
        d = emit_datum(3)
        abar = Degree(alpha=1)
        u = CycScalar.variable("u", 3)
        psi = {(deg, z): val for deg, z, val in d.translation.psi}
        assert psi[abar, (0, 1)] == u ** -4
        assert psi[abar, (0, 2)] == u ** -8
        assert psi[abar, (1, 0)] == CycScalar.one(3)
        assert psi[Degree(alpha=2), (0, 1)] == u ** -8

    def test_modified_S_is_symmetric_with_rank_bound(self):
        d = emit_datum(3)
        s = modified_S(d, Degree(alpha=1))
        assert s.is_symmetric()
        assert s.rank() == 3

    def test_row_proportionality_constraints(self):
        d = emit_datum(3)
        s = modified_S(d, Degree(alpha=1))
        factor = -CycScalar.variable("u", 3, -2)
        labels = [(k, i) for k in range(2) for i in range(3)]
        pos = {lab: n for n, lab in enumerate(labels)}
        for (a, b) in (p for p in d.extra["x-sl21"]["row_pairs"]):
            ra, rb = pos[tuple(a)], pos[tuple(b)]
            for c in range(6):
                assert s[rb, c] == factor * s[ra, c] or s[ra, c] == factor * s[rb, c]
