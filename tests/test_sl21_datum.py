import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_golden
from relmod.checks import check_nondegeneracy, check_premodular_inputs
import relmod.cli
import relmod.matrices
import relmod.scalars
from relmod.cli import MAX_EMIT_ELL, main
from relmod.datum import Degree, dumps_datum, loads_datum, modified_S
from relmod.scalars import CycScalar, parse_scalar
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


class TestEmittedDatum:
    # A change to the scalar arithmetic must leave the bytes that
    # `relmod sl21 emit --ell 5` writes as they are.
    def test_emitted_ell5_bytes_are_pinned(self, capsys, tmp_path):
        path = tmp_path / "sl21-ell5.json"
        assert main(["sl21", "emit", "--ell", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        assert_golden("sl21_ell5.json", path.read_bytes().decode())

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
        g = Degree(alpha=1)
        assert d.block(g, g).matrix.asymmetric_pair(d.dims[g]) is None
        assert modified_S(d, g).rank() == 3

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


def oracle_sprime(ell: int) -> list[CycScalar]:
    """The emitted S' block, row by row, built by scalar arithmetic: the entry
    at (r, c) is row_coeff(r) * row_coeff(c) * s{lo}_{hi} / d(c), with
    row_coeff 1 on an orbit representative and -u^-2 on its partner, and
    lo <= hi the indices of the representatives of r and c in sorted order."""
    labels = [(k, i) for k in range(ell - 1) for i in range(ell)]
    rep_of = {}
    for a, b in rank_bound_analysis(ell).classes:
        rep_of[a] = rep_of[b] = min(a, b)
    rep_index = {r: n for n, r in enumerate(sorted(set(rep_of.values())))}
    factor = -CycScalar.variable("u", ell, -2)
    one = CycScalar.one(ell)
    coeff = {lab: one if rep_of[lab] == lab else factor for lab in labels}
    inv_dims = {lab: CycScalar.variable(f"d{lab[0]}_{lab[1]}", ell).inverse() for lab in labels}
    entries = []
    for r in labels:
        for c in labels:
            lo, hi = sorted((rep_index[rep_of[r]], rep_index[rep_of[c]]))
            s = CycScalar.variable(f"s{lo}_{hi}", ell)
            entries.append(coeff[r] * coeff[c] * s * inv_dims[c])
    return entries


class TestEmittedTexts:
    """emit_datum writes each S' entry's text from the orbit formula, with no
    scalar arithmetic; the texts must be the ones str() prints of the values
    that formula gives."""

    @pytest.mark.parametrize("ell", [3, 5, 7, 9, 11, 13, 15])
    def test_entries_equal_the_product_built_oracle(self, ell):
        m = emit_datum(ell).sprime[0].matrix
        assert m.entries == tuple(oracle_sprime(ell))

    @pytest.mark.parametrize("ell", [3, 5, 7, 9, 11, 13, 15])
    def test_texts_are_canonical(self, ell):
        m = emit_datum(ell).sprime[0].matrix
        assert len(m.texts) == (ell * (ell - 1)) ** 2
        factors = {}
        for t in set(m.texts):
            assert str(parse_scalar(t, ell, factors=factors)) == t

    def test_emit_builds_and_parses_no_entry(self, monkeypatch, capsys, tmp_path):
        """sl21 emit at ell = 7 (n = 42 labels) reads no literal and makes
        fewer than n products: its cost does not grow with the n^2 entries."""
        counts = {"read": 0, "mul": 0}
        read = relmod.scalars._read_canonical
        mul = CycScalar.__mul__

        def counting_read(*args, **kwargs):
            counts["read"] += 1
            return read(*args, **kwargs)

        def counting_mul(a, b):
            counts["mul"] += 1
            return mul(a, b)
        for module in (relmod.scalars, relmod.matrices):
            monkeypatch.setattr(module, "_read_canonical", counting_read)
        monkeypatch.setattr(CycScalar, "__mul__", counting_mul)
        path = tmp_path / "sl21-ell7.json"
        assert main(["sl21", "emit", "--ell", "7", "--out", str(path)]) == 0
        capsys.readouterr()
        assert counts["read"] == 0
        assert counts["mul"] < 7 * 6
        # the counters see the work: reading the block back parses each entry
        d = loads_datum(json.loads(path.read_text()))
        assert counts["read"] >= 42 * 42 and d == emit_datum(7)

    def test_emit_over_the_bound_is_refused_before_it_starts(self, monkeypatch, capsys):
        def refuse(ell):
            raise AssertionError(f"emit_datum({ell}) called")
        monkeypatch.setattr(relmod.cli, "emit_datum", refuse)
        assert MAX_EMIT_ELL == 39
        assert main(["sl21", "emit", "--ell", "41"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --ell 41: sl21 emit takes at most ell = 39; "
                       "ell = 41 has 1640 labels and 2689600 S' entries\n")

    def test_emit_at_the_bound_is_taken(self, monkeypatch, capsys):
        calls = []

        def record(ell):
            calls.append(ell)
            return emit_datum(3)
        monkeypatch.setattr(relmod.cli, "emit_datum", record)
        assert main(["sl21", "emit", "--ell", "39"]) == 0
        capsys.readouterr()
        assert calls == [39]
