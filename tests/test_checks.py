import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import (
    perturb_block,
    planted_modularity_datum,
    pointed_datum,
    pointed_zeta,
)
from relmod.checks import (
    ZERO_ENTRY_HYPOTHESIS,
    check_dmug,
    check_nondegeneracy,
    check_premodular_inputs,
    check_rank_constancy,
    check_relative_modularity,
    delta_minus,
    delta_plus,
)
from relmod.datum import (
    Degree,
    GradingSpec,
    ModularDatum,
    SBlock,
    SmallSubset,
    TranslationSpec,
)
from relmod.matrices import ExactMatrix
from relmod.scalars import CycScalar
from relmod.sl21 import emit_datum
from relmod.verdicts import DATA_ABSENT, FAILS, HOLDS, HYPOTHESIS_NOT_MET

G = Degree(alpha=1)
NG = Degree(alpha=-1)


def tiny_datum(sprime_rows, twists=None, dims=None, conductor=5, mixed_rows=None,
               orbit_count=None):
    """Hand-rolled datum with blocks (g,g) and optionally (-g,g)/(g,-g)."""
    n = len(sprime_rows)
    one = CycScalar.one(conductor)
    labels = tuple(str(i) for i in range(n))
    twists = tuple(twists or [one] * n)
    dims = tuple(dims or [one] * n)
    rows = [[CycScalar.rational(e, conductor) if isinstance(e, (int, Fraction)) else e
             for e in row] for row in sprime_rows]
    blocks = [SBlock(G, G, ExactMatrix.from_rows(rows, conductor), labels, labels)]
    if mixed_rows is not None:
        mrows = [[CycScalar.rational(e, conductor) if isinstance(e, (int, Fraction)) else e
                  for e in row] for row in mixed_rows]
        blocks.append(SBlock(NG, G, ExactMatrix.from_rows(mrows, conductor),
                             labels, labels))
        blocks.append(SBlock(G, NG, ExactMatrix.from_rows(mrows, conductor),
                             labels, labels))
    grading = GradingSpec(small=SmallSubset("list", (Degree(),)))
    translation = TranslationSpec(qdim_table=(((), one),), no_self_extension=True)
    return ModularDatum(
        conductor=conductor, grading=grading, translation=translation,
        degrees=(G, NG),
        index_sets={G: labels, NG: labels},
        dims={G: dims, NG: dims},
        twists={G: twists, NG: twists},
        sprime=tuple(blocks),
        orbit_count=orbit_count,
        dual_involution={G: tuple(range(n)), NG: tuple(range(n))})


class TestDeltas:
    def test_minus_identity_block(self):
        d = tiny_datum([[1, 0], [0, 1]])
        assert delta_minus(d, G, 0) == CycScalar.one(5)
        assert delta_minus(d, G, 1) == CycScalar.one(5)

    def test_minus_single_surviving_term(self):
        t0 = CycScalar.variable("t0", 5)
        t1 = CycScalar.variable("t1", 5)
        d = tiny_datum([[1, 0], [0, 1]], twists=[t0, t1])
        assert delta_minus(d, G, 0) == t0 ** -2

    def test_minus_against_brute_force(self):
        rng = random.Random(5)
        datum = pointed_datum(5, rng)
        block = datum.block(G, G).matrix
        for j in range(5):
            acc = CycScalar.zero(5)
            for i in range(5):
                acc = acc + block[i, j] * datum.twists[G][i].inverse() * datum.dims[G][i]
            acc = datum.twists[G][j].inverse() * acc
            assert delta_minus(datum, G, j) == acc

    def test_minus_against_brute_force_random_datum(self):
        # arbitrary (not necessarily consistent) 3x3 data: the scalar is just
        # the stated sum, so an independent summation must agree
        from conftest import random_cyclotomic, random_unit
        rng = random.Random(77)
        for _ in range(10):
            rows = [[random_cyclotomic(rng, 5, 4) for _ in range(3)] for _ in range(3)]
            twists = [random_unit(rng, 5) for _ in range(3)]
            dims = [random_cyclotomic(rng, 5, 4) + CycScalar.one(5) for _ in range(3)]
            d = tiny_datum(rows, twists=twists, dims=dims)
            for j in range(3):
                acc = CycScalar.zero(5)
                for i in range(3):
                    acc = acc + rows[i][j] * twists[i].inverse() * dims[i]
                assert delta_minus(d, G, j) == twists[j].inverse() * acc

    def test_plus_identity_block(self):
        d = tiny_datum([[1, 0], [0, 1]], mixed_rows=[[1, 0], [0, 1]])
        assert delta_plus(d, G, 0) == CycScalar.one(5)

    def test_plus_mirror_single_term(self):
        t0 = CycScalar.variable("t0", 5)
        t1 = CycScalar.variable("t1", 5)
        d = tiny_datum([[1, 0], [0, 1]], twists=[t0, t1],
                       mixed_rows=[[1, 0], [0, 1]])
        assert delta_plus(d, G, 0) == t0 ** 2

    def test_independence_across_j_and_degree(self):
        for seed in range(8):
            datum = pointed_datum(5, random.Random(seed))
            values = {str(delta_minus(datum, g, j))
                      for g in (G, NG) for j in range(5)}
            assert len(values) == 1
            plus_values = {str(delta_plus(datum, g, j)) for g in (G, NG) for j in range(5)}
            assert len(plus_values) == 1


class TestNondegeneracy:
    def test_identity_blocks_hold(self):
        d = tiny_datum([[1, 0], [0, 1]], mixed_rows=[[1, 0], [0, 1]])
        v = check_nondegeneracy(d, G)
        assert v.status == HOLDS
        assert v.derived_scalars["Delta_plus*Delta_minus"] == "1"

    def test_singular_block_fails_with_kernel(self):
        d = tiny_datum([[1, 1], [1, 1]], mixed_rows=[[1, 0], [0, 1]])
        v = check_nondegeneracy(d, G)
        assert v.status == FAILS
        assert any("kernel" in w.name for w in v.witnesses)

    def test_sl21_datum_fails(self):
        v = check_nondegeneracy(emit_datum(3), G)
        assert v.status == FAILS
        assert v.derived_scalars["rank(S_g)"] == "3"

    def test_pointed_holds_with_nonzero_deltas(self):
        datum = pointed_datum(5, random.Random(1))
        v = check_nondegeneracy(datum, G)
        assert v.status == HOLDS
        assert not delta_minus(datum, G, 0).is_zero
        assert not delta_plus(datum, G, 0).is_zero

    def test_missing_mixed_block_is_data_absent(self):
        d = tiny_datum([[1, 0], [0, 1]])
        v = check_nondegeneracy(d, G)
        assert v.status == DATA_ABSENT


class TestEliminationCount:
    """Full rank is settled modulo a prime; a rank deficit costs one exact
    elimination per non-pivot column, on the few columns its F_p kernel vector
    lives on, and never one of the whole matrix."""

    @pytest.fixture
    def bareiss_calls(self, monkeypatch):
        calls = []
        original = ExactMatrix._bareiss

        def counting(m):
            calls.append((m.rows, m.cols))
            return original(m)

        monkeypatch.setattr(ExactMatrix, "_bareiss", counting)
        return calls

    def test_full_rank_needs_no_exact_elimination(self, bareiss_calls):
        datum = pointed_datum(5, random.Random(3))
        assert check_nondegeneracy(datum, G).status == HOLDS
        assert check_dmug(datum, G).status == HOLDS
        assert bareiss_calls == []

    def test_rank_deficit_is_eliminated_once(self, bareiss_calls):
        v = check_nondegeneracy(emit_datum(3), G)
        assert v.status == FAILS
        assert (6, 6) not in bareiss_calls
        assert bareiss_calls == [(6, 2)] * 3
        bareiss_calls.clear()
        d = tiny_datum([[1, 1], [1, 1]], mixed_rows=[[1, 0], [0, 1]], orbit_count=2)
        v = check_dmug(d, G)
        assert v.status == FAILS and v.witnesses[0].value == "1"
        assert bareiss_calls == [(2, 2)]


class TestRankConstancy:
    def test_two_identity_blocks_hold(self):
        # identity contains zeros, so use all-nonzero full-rank blocks instead
        d = tiny_datum([[2, 1], [1, 2]], mixed_rows=[[1, 2], [2, 1]])
        v = check_rank_constancy(d)
        assert v.status == HOLDS

    def test_zero_entry_triggers_hypothesis(self):
        d = tiny_datum([[1, 0], [0, 1]], mixed_rows=[[1, 1], [1, 1]])
        v = check_rank_constancy(d)
        assert v.status == HYPOTHESIS_NOT_MET
        assert v.witnesses[0].name == ZERO_ENTRY_HYPOTHESIS
        assert v.witnesses[0].indices[-2:] == (0, 1)

    def test_distinct_ranks_fail(self):
        # rank 3 and rank 2 blocks, all entries nonzero
        full = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
        deficient = [[1, 1, 1], [1, 2, 1], [2, 3, 2]]  # row3 = row1 + row2
        n = 3
        one = CycScalar.one(5)
        labels = tuple(str(i) for i in range(n))
        mk = lambda rows: ExactMatrix.from_rows(
            [[CycScalar.rational(e, 5) for e in r] for r in rows], 5)
        grading = GradingSpec(small=SmallSubset("list", (Degree(),)))
        translation = TranslationSpec(qdim_table=(((), one),))
        datum = ModularDatum(
            conductor=5, grading=grading, translation=translation,
            degrees=(G,), index_sets={G: labels},
            dims={G: (one,) * n}, twists={G: (one,) * n},
            sprime=(SBlock(G, Degree(alpha=2), mk(full), labels, labels),
                    SBlock(G, Degree(alpha=3), mk(deficient), labels, labels)))
        assert mk(full).rank() == 3 and mk(deficient).rank() == 2
        v = check_rank_constancy(datum)
        assert v.status == FAILS

    def test_single_block_is_data_absent(self):
        d = tiny_datum([[1, 0], [0, 1]])
        assert check_rank_constancy(d).status == DATA_ABSENT


class TestDmug:
    def test_one_by_one_holds(self):
        d = tiny_datum([[1]], mixed_rows=[[1]], orbit_count=1)
        assert check_dmug(d, G).status == HOLDS

    def test_zero_in_every_row_fails_condition_two(self):
        d = tiny_datum([[1, 0], [0, 1]], mixed_rows=[[1, 1], [1, 1]],
                       orbit_count=2)
        v = check_dmug(d, G)
        assert v.status == FAILS
        assert any("condition (2)" in w.name for w in v.witnesses)

    def test_shape_clause(self):
        d = tiny_datum([[2, 1, 1], [1, 2, 1], [1, 1, 2]],
                       mixed_rows=[[2, 1, 1], [1, 2, 1], [1, 1, 2]],
                       orbit_count=2)
        v = check_dmug(d, G)
        assert v.status == FAILS
        assert any("condition (1) shape" in w.name for w in v.witnesses)

    def test_pointed_holds(self):
        assert check_dmug(pointed_datum(3, random.Random(2)), G).status == HOLDS

    def test_orbit_count_absent(self):
        d = tiny_datum([[1]], mixed_rows=[[1]])
        assert check_dmug(d, G).status == DATA_ABSENT

    def test_self_extension_flag_false_unmet(self):
        d = tiny_datum([[1]], mixed_rows=[[1]], orbit_count=1)
        bad = dataclasses.replace(d, translation=dataclasses.replace(
            d.translation, no_self_extension=False))
        v = check_dmug(bad, G)
        assert v.status == HYPOTHESIS_NOT_MET
        assert "no self extension" in v.witnesses[0].name


class TestRelativeModularity:
    def test_identity_blocks_hold_with_unit_zeta(self):
        d = tiny_datum([[1, 0], [0, 1]], mixed_rows=[[1, 0], [0, 1]])
        v = check_relative_modularity(d, G, G)
        assert v.status == HOLDS
        assert v.derived_scalars["zeta_Omega"] == "1"

    def test_unequal_diagonal_fails_with_both_indices(self):
        d = tiny_datum([[1, 0], [0, 2]], mixed_rows=[[1, 0], [0, 1]])
        v = check_relative_modularity(d, G, G)
        assert v.status == FAILS
        w = next(w for w in v.witnesses if "diagonal" in w.name)
        assert w.indices == ((0, 0), (1, 1))

    def test_singular_S_g_fails(self):
        d = tiny_datum([[1, 1], [1, 1]], mixed_rows=[[1, 2], [2, 1]])
        assert check_relative_modularity(d, G, G).status == FAILS

    def test_planted_zeta_recovered(self):
        rng = random.Random(9)
        datum, zeta = planted_modularity_datum(rng, 4)
        v = check_relative_modularity(datum, G, Degree(alpha=1, shift=Fraction(1)))
        assert v.status == HOLDS
        assert v.derived_scalars["zeta_Omega"] == str(zeta)

    def test_pointed_cross_check(self):
        datum = pointed_datum(5, random.Random(4))
        v = check_relative_modularity(datum, G, G)
        assert v.status == HOLDS
        assert any("cross-check" in n for n in v.notes)
        assert v.derived_scalars["zeta_Omega"] == str(pointed_zeta(datum))

    def test_missing_block_data_absent(self):
        d = tiny_datum([[1]])
        assert check_relative_modularity(d, G, G).status == DATA_ABSENT


class TestPremodularInputs:
    def test_sl21_datum_holds(self):
        assert check_premodular_inputs(emit_datum(3)).status == HOLDS

    def test_quantum_dimension_two_rejected(self):
        datum = pointed_datum(3, random.Random(0))
        bad = dataclasses.replace(
            datum, translation=dataclasses.replace(
                datum.translation,
                qdim_table=(((), CycScalar.rational(2, 3)),)))
        v = check_premodular_inputs(bad)
        assert v.status == FAILS
        assert any(w.name == "free-realisation-quantum-dimension" for w in v.witnesses)

    def test_non_symmetric_X_rejected(self):
        datum = pointed_datum(3, random.Random(0))
        bad = dataclasses.replace(
            datum, grading=GradingSpec(
                small=SmallSubset("list", (Degree(alpha=0, shift=Fraction(1, 3)),))))
        v = check_premodular_inputs(bad)
        assert v.status == FAILS
        assert any(w.name == "small-subset-symmetric" for w in v.witnesses)


class TestPerturbations:
    def test_perturbed_instance_fails_with_valid_witness(self):
        rng = random.Random(21)
        datum, zeta = planted_modularity_datum(rng, 3)
        bad = perturb_block(datum, 1, 1, 2, CycScalar.one(5))
        h = Degree(alpha=1, shift=Fraction(1))
        v = check_relative_modularity(bad, G, h)
        assert v.status == FAILS
        assert v.witnesses
