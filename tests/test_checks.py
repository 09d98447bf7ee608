import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    assert_golden,
    group_element,
    perturb_block,
    perturbed_emitted_datum,
    planted_modularity_datum,
    pointed_datum,
    pointed_zeta,
    premetric_datum,
    premetric_product_datum,
    relabelling,
    su2_datum,
)
from relmod import cli
from relmod.checks import (
    ZERO_ENTRY_HYPOTHESIS,
    check_all,
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
    dumps_datum,
    json_text,
    modified_S,
    parse_degree,
    save_datum,
    scaled_block,
)
import relmod.matrices as matrices_mod
from relmod.matrices import ExactMatrix, ScaledBlock, _Certified, _modulus, _variable_residue
from relmod.scalars import CycScalar, parse_scalar
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

    def test_vanished_delta_product_fails(self):
        # S' = [[1, 1], [1, -1]] is non-degenerate in both blocks, but with
        # twists (1, -1) the Gauss sums over column 0 cancel:
        # Delta_- = Delta_+ = 1 - 1 = 0
        one = CycScalar.one(5)
        rows = [[1, 1], [1, -1]]
        d = tiny_datum(rows, twists=[one, -one], mixed_rows=rows)
        v = check_nondegeneracy(d, G)
        assert v.status == FAILS
        assert v.derived_scalars == {"rank(S_g)": "2", "rank(S_-g,g)": "2", "Delta_minus": "0",
                                     "Delta_plus": "0", "Delta_plus*Delta_minus": "0"}
        (w,) = v.witnesses
        assert w.name == ("internal-consistency: Delta_+Delta_- vanished although both "
                          "S-matrices are non-degenerate")
        # with twists (1, 1) the same blocks hold
        assert check_nondegeneracy(tiny_datum(rows, mixed_rows=rows), G).status == HOLDS

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

    def test_singular_mixed_block_fails_with_kernel(self):
        d = tiny_datum([[1, 0], [0, 1]], mixed_rows=[[1, 1], [1, 1]])
        v = check_nondegeneracy(d, G)
        assert v.status == FAILS
        assert v.derived_scalars == {"rank(S_g)": "2", "rank(S_-g,g)": "1"}
        (w,) = v.witnesses
        assert w.name == "kernel vector of S_-g,g"
        assert w.value == "(1, -1)"

    def test_missing_mixed_block_is_data_absent(self):
        d = tiny_datum([[1, 0], [0, 1]])
        v = check_nondegeneracy(d, G)
        assert v.status == DATA_ABSENT

    @pytest.mark.parametrize("mixed_rows", [[[1, 0], [0, 1], [1, 1]],   # tall, 3 x 2
                                            [[1, 0, 1], [0, 1, 1]]])    # wide, 2 x 3
    def test_non_square_mixed_block_fails(self, mixed_rows):
        cols = len(mixed_rows[0])
        identity = [[int(i == j) for j in range(cols)] for i in range(cols)]
        d = tiny_datum(identity, mixed_rows=mixed_rows)
        v = check_nondegeneracy(d, G)
        assert v.status == FAILS
        assert v.derived_scalars == {"rank(S_g)": str(cols), "rank(S_-g,g)": "2"}
        (w,) = v.witnesses
        assert w.name == "S_-g,g not square"
        assert w.indices == (len(mixed_rows), cols)

    def test_kernel_vector_at_the_next_prime(self):
        # S' = v v^T with v = (1, t, 1), where t is nonzero but vanishes mod p:
        # the F_p certificate does not close at p, so it is made at the next prime
        x = CycScalar.variable("x", 5)
        p, _ = _modulus(5)
        t = x - CycScalar.rational(_variable_residue("x", p), 5)
        vec = [CycScalar.one(5), t, CycScalar.one(5)]
        d = tiny_datum([[a * b for b in vec] for a in vec],
                       mixed_rows=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        s_g = modified_S(d, G)
        assert s_g._rank_certificate(*_modulus(5)) is None
        assert s_g._rank_certificate(*_modulus(5, 1))[0] == 1
        v = check_nondegeneracy(d, G)
        assert v.status == FAILS
        assert v.derived_scalars == {"rank(S_g)": "1"}
        (w,) = v.witnesses
        assert w.name == "kernel vector of S_g" and w.indices == (str(G),)
        kernel = [parse_scalar(e, 5) for e in w.value.strip("()").split(", ")]
        assert any(not e.is_zero for e in kernel)
        product = s_g @ ExactMatrix(3, 1, 5, kernel)
        assert all(e.is_zero for e in product.entries)


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

    def test_check_all_ranks_each_pointed_block_once(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "pointed5.json")
        save_datum(pointed_datum(5, random.Random(5)), path)
        calls = []
        original = _Certified._rank_certificate
        monkeypatch.setattr(_Certified, "_rank_certificate",
                            lambda self, p, root: calls.append(self) or original(self, p, root))
        assert cli.main(["check", "all", "--datum", path, "--format", "json"]) == 0
        # each S' block's rank is read once, off a holding modularity identity
        # that covers it, and nondeg, dmug and rank-constancy share it
        assert len(calls) == 0
        assert '"status": "holds"' in capsys.readouterr().out

    def test_zero_dim_keeps_the_rank_of_s_prime(self):
        d = tiny_datum([[2, 1], [1, 2]], mixed_rows=[[1, 2], [2, 1]],
                       dims=[CycScalar.one(5), CycScalar.zero(5)])
        assert modified_S(d, G).rank() == 1
        v = check_rank_constancy(d)
        assert v.status == HOLDS
        assert v.derived_scalars == {f"rank(block {i})": "2" for i in range(3)}
        # with nonzero dims the rank comes from S_{g,h}, with the same value
        d = tiny_datum([[2, 1], [1, 2]], mixed_rows=[[1, 2], [2, 1]],
                       dims=[CycScalar.one(5), CycScalar.rational(2, 5)])
        assert check_rank_constancy(d).derived_scalars == v.derived_scalars


class TestIdentityRanks:
    """A holding identity S_{g,h} S_{h,-g} = zeta * Id gives both factors full
    rank, so check all ranks a block by F_p only when no such identity covers
    it, and the F_p certificate agrees with every rank the identity gave."""

    @pytest.fixture
    def certified(self, monkeypatch):
        # every matrix's certificate, an ExactMatrix's or a view's of S_{g,h}
        # (datum.scaled_block)
        calls = []
        original = _Certified._rank_certificate
        monkeypatch.setattr(_Certified, "_rank_certificate",
                            lambda self, p, root: calls.append(self) or original(self, p, root))
        return calls, original

    @pytest.mark.parametrize("family, size", [("pointed", n) for n in (3, 5, 7)]
                             + [("planted", s) for s in range(1, 7)])
    def test_check_all_eliminates_no_covered_block(self, certified, family, size):
        calls, original = certified
        if family == "pointed":
            d = pointed_datum(size, random.Random(size))
        else:
            d = planted_modularity_datum(random.Random(size), size)[0]
        calls.clear()    # building the data ranks matrices of its own
        verdicts = check_all(d)
        assert [v.status for v in verdicts if v.check == "relative-modularity"] == \
            [HOLDS] * (4 if family == "pointed" else 1)
        assert calls == []
        for b in d.sprime:
            s = modified_S(d, b.row_degree, b.col_degree)
            assert original(s, *_modulus(d.conductor)) == (size, [])

    @pytest.mark.parametrize("family, block", [("pointed", 2), ("planted", 0),
                                               ("planted", 1)])
    def test_uncovered_blocks_are_ranked_once_by_f_p(self, certified, family, block):
        calls, _ = certified
        if family == "pointed":
            d = pointed_datum(5, random.Random(5))
        else:
            # planted data of size 3 with this seed have no zero entry, so
            # rank-constancy ranks both blocks
            d = planted_modularity_datum(random.Random(3), 3)[0]
        d = perturb_block(d, block, 0, 0, CycScalar.one(d.conductor))
        calls.clear()
        covered = set()
        for v in check_all(d):
            if v.check != "relative-modularity":
                continue
            g, h = (parse_degree(v.params[k]) for k in ("g", "h"))
            p = modified_S(d, g, h) @ modified_S(d, h, d.negate(g))
            zeta = p[0, 0]
            if not zeta.is_zero and p == ExactMatrix.identity(p.rows, d.conductor) \
                    .scale_columns([zeta] * p.rows):
                covered |= {(g, h), (h, d.negate(g))}
        uncovered = [scaled_block(d, b.row_degree, b.col_degree) for b in d.sprime
                     if (b.row_degree, b.col_degree) not in covered]
        # pointed: the perturbed (-a, a) block is a factor of the two products
        # that fail, and the other three blocks of two that hold; planted: the
        # one product fails
        assert len(uncovered) == (1 if family == "pointed" else 2)
        assert len(calls) == len(uncovered)
        assert all(any(c is s for c in calls) for s in uncovered)


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

    def test_non_square_product_fails(self):
        d = tiny_datum([[1, 0], [0, 1]], mixed_rows=[[1, 0], [0, 1]])
        one = CycScalar.one(5)
        column = ExactMatrix.from_rows([[one], [one]], 5)
        d = dataclasses.replace(d, dims={**d.dims, NG: (one,)}, sprime=tuple(
            dataclasses.replace(b, matrix=column, col_labels=("0",))
            if (b.row_degree, b.col_degree) == (G, NG) else b for b in d.sprime))
        v = check_relative_modularity(d, G, G)
        assert v.status == FAILS
        assert [(w.name, w.indices) for w in v.witnesses] == [
            ("product S_{g,h} S_{h,-g} is not square", (2, 1))]

    def test_zero_zeta_candidate_fails(self):
        d = tiny_datum([[0, 1], [1, 0]], mixed_rows=[[1, 0], [0, 1]])
        v = check_relative_modularity(d, G, G)
        assert v.status == FAILS
        assert v.derived_scalars["zeta_Omega"] == "0"
        assert [(w.name, w.indices, w.value) for w in v.witnesses] == [
            ("zeta candidate P[0][0] is zero", (0, 0), "0")]

    def test_delta_product_different_from_zeta_fails(self):
        # P = Id from the (g,g) and (g,-g) blocks, but the (-g,g) block that
        # Delta_plus reads is 2 Id, so Delta_+Delta_- = 2
        d = tiny_datum([[1, 0], [0, 1]], mixed_rows=[[1, 0], [0, 1]])
        two = ExactMatrix.from_rows([[CycScalar.rational(2, 5), CycScalar.zero(5)],
                                     [CycScalar.zero(5), CycScalar.rational(2, 5)]], 5)
        d = dataclasses.replace(d, sprime=tuple(
            dataclasses.replace(b, matrix=two)
            if (b.row_degree, b.col_degree) == (NG, G) else b for b in d.sprime))
        v = check_relative_modularity(d, G, G)
        assert v.status == FAILS
        assert v.derived_scalars["Delta_plus*Delta_minus"] == "2"
        assert [(w.name, w.value) for w in v.witnesses] == [
            ("Delta_+ convention mismatch: zeta_Omega != Delta_+Delta_-", "1 vs 2")]


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


# (n, k) with a radical R = {i : n | 2ki} of order gcd(k, n) > 1
PREMETRIC = [(9, 3), (15, 3), (15, 5), (21, 3), (21, 7), (45, 3), (45, 9)]


class TestPremetricRadical:
    """The pre-metric group Z/n with the form zeta_n^(k i^2) (premetric_datum)
    is degenerate exactly on its radical R (Drinfeld, Gelaki, Nikshych and
    Ostrik, "On braided fusion categories I", Selecta Math. 16, 2010): every
    S-matrix has rank n / gcd(k, n), its kernel is spanned by e_i - e_j for
    labels whose elements differ by R, and check all must fail for that
    reason alone."""

    def test_k_1_gives_the_pointed_datum(self):
        # pointed_documents.txt: the saved documents of pointed_datum(n,
        # Random(seed)) for n in (3, 5, 7, 9, 15, 21) and seed in (0, n), one
        # after the other, the pointed family every other test and golden
        # file builds on
        docs = []
        for n in (3, 5, 7, 9, 15, 21):
            for seed in (0, n):
                d = premetric_datum(n, 1, random.Random(seed))
                assert d == pointed_datum(n, random.Random(seed))
                docs.append(json_text(dumps_datum(d)))
        assert_golden("pointed_documents.txt", "".join(docs))

    @pytest.mark.parametrize("n, k", PREMETRIC)
    def test_check_all_fails_on_the_radical(self, n, k):
        d = premetric_datum(n, k, random.Random(n))
        perm = relabelling(n, random.Random(n))
        radical = {i for i in range(n) if 2 * k * i % n == 0}
        rank = str(n // math.gcd(k, n))
        assert len(radical) == math.gcd(k, n) > 1
        verdicts = check_all(d)
        assert [(v.check, v.params.get("g"), v.status) for v in verdicts] == [
            ("premodular-inputs", None, HOLDS), ("rank-constancy", None, HOLDS),
            ("nondegeneracy", "a", FAILS), ("dmug", "a", FAILS),
            ("nondegeneracy", "-a", FAILS), ("dmug", "-a", FAILS),
        ] + [("relative-modularity", g, FAILS) for g in ("a", "a", "-a", "-a")]
        _, constancy, *per_degree = verdicts[:6]
        assert set(constancy.derived_scalars.values()) == {rank}
        for v in per_degree:
            g = parse_degree(v.params["g"])
            (w,) = v.witnesses
            if v.check == "dmug":
                assert (w.name, w.value) == ("condition (1): S_g is singular", rank)
                continue
            assert v.derived_scalars["rank(S_g)"] == rank
            assert w.name == "kernel vector of S_g"
            vector = [parse_scalar(x, n) for x in w.value[1:-1].split(", ")]
            support = [i for i, x in enumerate(vector) if not x.is_zero]
            assert sorted(str(vector[i]) for i in support) == ["-1", "1"]
            m = modified_S(d, g)
            zero = CycScalar.zero(n)
            for i in range(n):
                row = zero
                for j in support:
                    row = row + m[i, j] * vector[j]
                assert row.is_zero, (i, w.value)
            i, j = support
            assert (perm[i] - perm[j]) % n in radical


class TestPremetricProducts:
    """premetric_product_datum on Z/n1 x Z/n2 over the conductor lcm(n1, n2),
    labels as pairs: check all gives the verdicts of the product's radical,
    the product of the factors' radicals, in under 5 s (as criterion 12)."""

    def _check_all(self, factors):
        d = premetric_product_datum(factors, random.Random(7))
        t0 = time.perf_counter()
        verdicts = check_all(d)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"{factors} took {elapsed:.3f}s"
        ranks = {value for v in verdicts for key, value in v.derived_scalars.items()
                 if key.startswith("rank(")}
        return d, verdicts, ranks

    def test_a_non_cyclic_group_is_modular(self):
        # Z/3 x Z/3 has no element of order 9; the form is non-degenerate
        d, verdicts, ranks = self._check_all(((3, 1), (3, 1)))
        assert d.conductor == 3 and d.index_sets[G][:4] == ("0,0", "0,1", "0,2", "1,0")
        assert [v.status for v in verdicts] == [HOLDS] * 10
        assert ranks == {"9"}

    def test_a_form_degenerate_on_one_factor(self):
        # the radical is {0} x {0, 3, 6}: Z/5 with k = 1 has none, Z/9 with
        # k = 3 has {x : 9 | 6x}
        factors = ((5, 1), (9, 3))
        d, verdicts, ranks = self._check_all(factors)
        assert d.conductor == 45
        assert [(v.check, v.params.get("g"), v.status) for v in verdicts] == [
            ("premodular-inputs", None, HOLDS), ("rank-constancy", None, HOLDS),
            ("nondegeneracy", "a", FAILS), ("dmug", "a", FAILS),
            ("nondegeneracy", "-a", FAILS), ("dmug", "-a", FAILS),
        ] + [("relative-modularity", g, FAILS) for g in ("a", "a", "-a", "-a")]
        assert ranks == {"15"}
        perm = relabelling(45, random.Random(7))
        radical = {(0, 0), (0, 3), (0, 6)}
        for v in verdicts[2:6:2]:
            (w,) = v.witnesses
            assert w.name == "kernel vector of S_g"
            i, j = [at for at, x in enumerate(w.value[1:-1].split(", ")) if x != "0"]
            x, y = group_element(factors, perm[i]), group_element(factors, perm[j])
            assert ((x[0] - y[0]) % 5, (x[1] - y[1]) % 9) in radical


def _single_checks(d):
    """The verdicts of check_all(d) without its cross-check breaches, each
    made by a single check on a copy of d whose memo starts empty."""
    generic = [g for g in d.degrees if d.grading.is_generic(g)]
    fresh = lambda: dataclasses.replace(d)
    out = [check_premodular_inputs(fresh()), check_rank_constancy(fresh())]
    for g in generic:
        out += [check_nondegeneracy(fresh(), g), check_dmug(fresh(), g)]
    return out + [check_relative_modularity(fresh(), g, h) for g in generic for h in generic
                  if d.block(g, h) is not None and d.block(h, d.negate(g)) is not None]


class TestCheckAllRoutes:
    """check all reads the ranks that a holding modularity identity proves,
    where a single check nondeg, dmug or rank-constancy runs the F_p
    certificate: the two routes give the same reports, ranks and witnesses
    included."""

    @pytest.mark.parametrize("name", ["pointed-3", "pointed-5", "pointed-7", "planted-1",
                                      "planted-2", "planted-3", "planted-4",
                                      "premetric-15-3", "premetric-21-7", "sl21-ell3"])
    def test_check_all_equals_the_single_checks(self, name):
        family, *size = name.split("-")
        if family == "pointed":
            d = pointed_datum(int(size[0]), random.Random(int(size[0])))
        elif family == "planted":
            d = planted_modularity_datum(random.Random(int(size[0])), int(size[0]))[0]
        elif family == "premetric":
            d = premetric_datum(int(size[0]), int(size[1]), random.Random(int(size[0])))
        else:
            d = emit_datum(3)
        assert [v.to_json() for v in check_all(d)] == \
            [v.to_json() for v in _single_checks(d)]

    def test_modularity_without_nondegeneracy_is_a_cross_check_breach(self):
        # the planted identity at (a, a+1) holds; an all-ones S'_a makes
        # nondegeneracy fail at a, which relative modularity there forbids
        d = planted_modularity_datum(random.Random(2), 2)[0]
        one = CycScalar.one(5)
        ones = ExactMatrix.from_rows([[one, one], [one, one]], 5)
        labels = d.index_sets[G]
        d = dataclasses.replace(d, sprime=d.sprime + (SBlock(G, G, ones, labels, labels),
                                                      SBlock(NG, G, ones, labels, labels)))
        verdicts = check_all(d)
        assert [(v.check, v.status) for v in verdicts if v.params.get("g") == "a"] == [
            ("nondegeneracy", FAILS), ("dmug", FAILS),
            ("relative-modularity", HOLDS), ("cross-check", FAILS)]
        breach = verdicts[-1]
        assert breach.to_json() == {
            "check": "cross-check", "params": {"g": "a", "h": "a+1"}, "status": FAILS,
            "witnesses": [], "derived_scalars": {},
            "notes": ["internal consistency: relative modularity holds "
                      "but non-degeneracy fails at the same degree"]}


def _statuses(verdicts):
    return [(v.check, v.params.get("g"), v.params.get("h"), v.status) for v in verdicts]


def _ranks(verdicts):
    return [(v.check, key, value) for v in verdicts for key, value in v.derived_scalars.items()
            if key.startswith("rank(")]


def _kernel_vectors(datum, verdicts):
    """(M, v) for each kernel witness of verdicts: M = S_{row,col} of datum
    and v the witness vector, parsed."""
    out = []
    for v in verdicts:
        for w in v.witnesses:
            if w.name.startswith("kernel vector of "):
                row, col = parse_degree(w.indices[0]), parse_degree(w.indices[-1])
                vector = [parse_scalar(x, datum.conductor) for x in w.value[1:-1].split(", ")]
                out.append((modified_S(datum, row, col), vector))
    return out


def _assert_kernel(m, vector):
    """M v = 0 exactly, row by row."""
    zero = CycScalar.zero(m.conductor)
    for i in range(m.rows):
        row = zero
        for j, x in enumerate(vector):
            if not x.is_zero:
                row = row + m[i, j] * x
        assert row.is_zero, i


class TestVerlinde:
    """su2_datum gives the verdicts of the theory in its docstring: the full
    Verlinde data of SU(2)_k are modular with zeta = D^2, and the even half
    fails exactly on its Mueger centre {0, k}."""

    @staticmethod
    def _d2(k, conductor):
        # D^2 = sum [j+1]_q^2 over j = 0 ... k, each [n]_q = (q^n - q^-n) / (q - q^-1)
        # by one field division, not the telescoped sum su2_datum builds
        q = CycScalar.zeta(conductor, 2)
        unit = (q - q ** -1).inverse()
        dims = [(q ** (j + 1) - q ** -(j + 1)) * unit for j in range(k + 1)]
        return dims, sum((d * d for d in dims), CycScalar.zero(conductor))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_the_full_datum_is_modular_with_zeta_d_squared(self, k):
        d = su2_datum(k)
        dims, d2 = self._d2(k, d.conductor)
        assert d.conductor == 4 * (k + 2) and list(d.dims[G]) == dims
        verdicts = check_all(d)
        # S_ij = 0 where (k+2) | (i+1)(j+1), which some i, j <= k meet exactly
        # when k + 2 is composite; rank-constancy assumes no zero entry
        composite = any((k + 2) % a == 0 for a in range(2, k + 2))
        constancy = HYPOTHESIS_NOT_MET if composite else HOLDS
        assert [(c, g, status) for c, g, _, status in _statuses(verdicts)] == [
            ("premodular-inputs", None, HOLDS), ("rank-constancy", None, constancy),
            ("nondegeneracy", "a", HOLDS), ("dmug", "a", HOLDS),
            ("nondegeneracy", "-a", HOLDS), ("dmug", "-a", HOLDS),
        ] + [("relative-modularity", g, HOLDS) for g in ("a", "a", "-a", "-a")]
        ranks = [value for _, _, value in _ranks(verdicts)]
        assert len(ranks) == (4 if composite else 8) and set(ranks) == {str(k + 1)}
        scalars = [parse_scalar(value, d.conductor) for v in verdicts
                   for key, value in v.derived_scalars.items()
                   if key in ("zeta_Omega", "Delta_plus*Delta_minus")]
        assert len(scalars) == 10 and set(scalars) == {d2}

    @pytest.mark.parametrize("k", range(2, 13, 2))
    def test_the_even_half_fails_on_its_mueger_centre(self, k):
        d = su2_datum(k, even=True)
        labels = [int(j) for j in d.index_sets[G]]
        assert labels == list(range(0, k + 1, 2))
        rank = str(k // 4 + 1 if k % 4 == 0 else (k + 2) // 4)
        verdicts = check_all(d)
        assert [(c, g, status) for c, g, _, status in _statuses(verdicts)] == [
            ("premodular-inputs", None, HOLDS), ("rank-constancy", None, HOLDS),
            ("nondegeneracy", "a", FAILS), ("dmug", "a", FAILS),
            ("nondegeneracy", "-a", FAILS), ("dmug", "-a", FAILS),
        ] + [("relative-modularity", g, FAILS) for g in ("a", "a", "-a", "-a")]
        ranks = [value for _, _, value in _ranks(verdicts)]
        assert len(ranks) == 6 and set(ranks) == {rank}
        for v in verdicts[3:6:2]:
            assert [(w.name, w.value) for w in v.witnesses] == [
                ("condition (1): S_g is singular", rank)]
        kernels = _kernel_vectors(d, verdicts)
        assert len(kernels) == 2
        for m, vector in kernels:
            support = [labels[i] for i, x in enumerate(vector) if not x.is_zero]
            assert len(support) == 2 and sum(support) == k, support
            _assert_kernel(m, vector)


def relabel(datum, g, perm):
    """datum with the labels of degree g reordered: label p of the result is
    label perm[p] of datum, in the names, dims, twists, dual involutions and
    every S' block's rows and columns at g."""
    inv = [0] * len(perm)
    for p, old in enumerate(perm):
        inv[old] = p
    take = lambda xs: tuple(xs[old] for old in perm)

    def block(b):
        m = b.matrix
        rows = perm if b.row_degree == g else range(m.rows)
        cols = perm if b.col_degree == g else range(m.cols)
        return SBlock(b.row_degree, b.col_degree,
                      ExactMatrix.from_rows([[m[i, j] for j in cols] for i in rows],
                                            m.conductor),
                      take(b.row_labels) if b.row_degree == g and b.row_labels else b.row_labels,
                      take(b.col_labels) if b.col_degree == g and b.col_labels else b.col_labels)

    # dual_involution[h][i] is the position in I_-h of the dual of label i of h
    duals = {}
    for h, dual in datum.dual_involution.items():
        dual = take(dual) if h == g else dual
        duals[h] = tuple(inv[x] for x in dual) if datum.negate(h) == g else dual
    return dataclasses.replace(
        datum, index_sets={**datum.index_sets, g: take(datum.index_sets[g])},
        dims={**datum.dims, g: take(datum.dims[g])},
        twists={**datum.twists, g: take(datum.twists[g])},
        sprime=tuple(block(b) for b in datum.sprime), dual_involution=duals)


class TestRelabel:
    """Reordering the labels of a degree changes no status and no rank, and
    every kernel witness is a kernel vector of the relabelled S-matrix.  The
    modularity identity reads I_-g through the dual involution, so a degree
    can be relabelled without its negative."""

    def test_one_degree_without_its_negative(self):
        d = pointed_datum(3, random.Random(3))
        g = d.degrees[0]
        e = relabel(d, g, [1, 2, 0])
        assert e.dual_involution[g] != d.dual_involution[g]
        before, after = check_all(d), check_all(e)
        modularity = [v.status for v in after if v.check == "relative-modularity"]
        assert modularity == [HOLDS] * 4
        assert _statuses(after) == _statuses(before)
        assert _ranks(after) == _ranks(before)
        assert [v.derived_scalars for v in after] == [v.derived_scalars for v in before]
        # the witnesses name the permutation the identity was read through
        held = lambda vs, h: {v.witnesses[-1].name for v in vs
                              if v.check == "relative-modularity" and v.params["g"] == str(h)}
        assert held(before, g) == {"P = zeta * Id"}
        assert held(after, g) == {f"P = zeta * Perm{e.dual_involution[g]}"}
        one = CycScalar.one(e.conductor)
        broken = check_relative_modularity(perturb_block(e, 0, 0, 0, one), g, g)
        assert broken.status == FAILS
        assert "dual-involution" in broken.witnesses[-1].name

    @pytest.mark.parametrize("name", ["pointed-3", "pointed-5", "planted-1", "planted-2",
                                      "planted-3", "premetric-15-3", "sl21-ell3", "su2-4",
                                      "su2-4-even"])
    def test_relabelling_keeps_every_status_and_rank(self, name):
        family, *size = name.split("-")
        if family == "pointed":
            d = pointed_datum(int(size[0]), random.Random(int(size[0])))
        elif family == "planted":
            d = planted_modularity_datum(random.Random(int(size[0])), int(size[0]))[0]
        elif family == "premetric":
            d = premetric_datum(int(size[0]), int(size[1]))
        elif family == "sl21":
            d = emit_datum(3)
        else:
            d = su2_datum(int(size[0]), even=size[1:] == ["even"])
        before = check_all(d)
        rng = random.Random(name)
        done = set()
        for g in d.degrees:
            if g in done:
                continue
            pair = [g] + [h for h in (d.negate(g),) if h != g and h in d.index_sets]
            done.update(pair)
            perm = list(range(len(d.index_sets[g])))
            while perm == sorted(perm) and len(perm) > 1:
                rng.shuffle(perm)
            e = d
            for h in pair:
                e = relabel(e, h, perm)
            after = check_all(e)
            assert _statuses(after) == _statuses(before), (str(g), perm)
            assert _ranks(after) == _ranks(before), (str(g), perm)
            kernels = _kernel_vectors(e, after)
            assert len(kernels) == len(_kernel_vectors(d, before))
            for m, vector in kernels:
                _assert_kernel(m, vector)


class TestNoWholeScaledMatrix:
    """No check builds a whole exact S_{g,h}: modularity multiplies the
    views' integer forms, a rank is certified from the view's F_p image and
    the exact columns its sub-solves read, and dmug tests zeros on S' and
    the dims (see datum.scaled_block)."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        scale, matrix = ExactMatrix.scale_columns, ScaledBlock.matrix
        monkeypatch.setattr(ExactMatrix, "scale_columns",
                            lambda self, diag: calls.append("scale_columns") or scale(self, diag))
        monkeypatch.setattr(ScaledBlock, "matrix",
                            lambda self: calls.append("matrix") or matrix(self))
        return calls

    @pytest.mark.parametrize("family", ["pointed", "planted", "premetric", "su2", "su2-even"])
    def test_check_all(self, built, family):
        d = {"pointed": lambda: pointed_datum(5, random.Random(5)),
             "planted": lambda: planted_modularity_datum(random.Random(4), 4)[0],
             "premetric": lambda: premetric_datum(15, 3, random.Random(15)),
             "su2": lambda: su2_datum(6),
             "su2-even": lambda: su2_datum(8, even=True)}[family]()
        built.clear()    # the planted builder scales columns of its own
        verdicts = check_all(d)
        assert {v.status for v in verdicts} & {HOLDS, FAILS}
        assert built == []

    def test_check_nondeg_on_emitted_ell_5(self, built, tmp_path, capsys):
        path = str(tmp_path / "sl21-ell5.json")
        assert cli.main(["sl21", "emit", "--ell", "5", "--out", path]) == 0
        capsys.readouterr()
        assert cli.main(["check", "nondeg", "--g", "a", "--datum", path, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert report["derived_scalars"]["rank(S_g)"] == "10"
        assert built == []
        built.clear()
        assert check_nondegeneracy(perturbed_emitted_datum(5), G).status == FAILS
        assert built == []


def gauge(datum, g, c):
    """datum with every dim of degree g multiplied by the unit c, and every
    S' column of degree g (each block whose column degree is g) by c^-1.
    S_{h,g} = S'_{h,g} diag(d_g) does not change, nor do Delta_+, Delta_-
    or the symmetry of S_g, so no report may change."""
    cinv = c.inverse()

    def block(b):
        if b.col_degree != g:
            return b
        m = b.matrix
        return SBlock(b.row_degree, g, ExactMatrix(m.rows, m.cols, m.conductor,
                                                   [e * cinv for e in m.entries]),
                      b.row_labels, b.col_labels)
    return dataclasses.replace(datum, dims={**datum.dims, g: tuple(x * c for x in datum.dims[g])},
                               sprime=tuple(block(b) for b in datum.sprime))


def _report(verdicts) -> str:
    return json_text([v.to_json() for v in verdicts]) + "".join(v.render_text() for v in verdicts)


class TestDimGauge:
    """The dim gauge d_g -> c d_g, S'_{., g} -> S'_{., g} c^-1 leaves every
    S-matrix as it is, so check all reports byte for byte the same: with a
    field unit of one term or several, and with a formal variable, which
    takes the product of whole matrices and the residues mod p."""

    @pytest.mark.parametrize("family", ["pointed", "planted", "su2", "su2-even"])
    def test_reports_are_byte_identical(self, family):
        d = {"pointed": lambda: pointed_datum(5, random.Random(5)),
             "planted": lambda: planted_modularity_datum(random.Random(3), 3)[0],
             "su2": lambda: su2_datum(4),
             "su2-even": lambda: su2_datum(6, even=True)}[family]()
        m = d.conductor
        units = [CycScalar.zeta(m, 1) * 2, CycScalar.one(m) + CycScalar.zeta(m, m - 1),
                 CycScalar.rational(Fraction(-3, 2), m) * CycScalar.variable("x", m)]
        want = _report(check_all(d))
        for g in d.degrees:
            for c in units:
                assert _report(check_all(gauge(d, g, c))) == want, (str(g), str(c))


def map_scalars(datum, f):
    """datum with the map f applied to every scalar: the dims, twists and S'
    entries and the quantum dimensions and psi values of the translation."""
    t = datum.translation
    translation = dataclasses.replace(
        t, qdim_generators=None if t.qdim_generators is None else tuple(map(f, t.qdim_generators)),
        qdim_table=tuple((z, f(v)) for z, v in t.qdim_table),
        psi=tuple((g, z, f(v)) for g, z, v in t.psi))

    def block(b):
        m = b.matrix
        return SBlock(b.row_degree, b.col_degree,
                      ExactMatrix(m.rows, m.cols, m.conductor, [f(e) for e in m.entries]),
                      b.row_labels, b.col_labels)
    return dataclasses.replace(
        datum, translation=translation,
        dims={g: tuple(map(f, v)) for g, v in datum.dims.items()},
        twists={g: tuple(map(f, v)) for g, v in datum.twists.items()},
        sprime=tuple(map(block, datum.sprime)))


def galois(k):
    """sigma_k: zeta -> zeta^k, for k prime to the conductor, fixing every
    formal variable; a ring automorphism of Q(zeta_m)[X^+-1]."""
    return lambda v: CycScalar(v.conductor, {(zp * k, vk): c for (zp, vk), c in v.coeffs.items()})


CONJUGATED = {
    "pointed-3": lambda: pointed_datum(3, random.Random(3)),
    "pointed-5": lambda: pointed_datum(5, random.Random(5)),
    "planted-3": lambda: planted_modularity_datum(random.Random(3), 3)[0],
    "premetric-15-3": lambda: premetric_datum(15, 3),
    "su2-12": lambda: su2_datum(12),
    "su2-12-even": lambda: su2_datum(12, even=True),
}


class TestGaloisConjugation:
    """sigma_k applied to every scalar of a datum is a field automorphism, so
    it keeps every zero, equality and rank: check all keeps every status and
    rank, and each zeta_Omega becomes sigma_k of its old value."""

    @pytest.mark.parametrize("name, k", [
        ("pointed-3", 2), ("pointed-5", 2), ("pointed-5", 4), ("planted-3", 2),
        ("planted-3", 4), ("premetric-15-3", 2), ("premetric-15-3", 14), ("su2-12", 3),
        ("su2-12", 55), ("su2-12-even", 3), ("su2-12-even", 55)])
    def test_statuses_ranks_and_zeta(self, name, k):
        d = CONJUGATED[name]()
        m, sigma = d.conductor, galois(k)
        assert math.gcd(k, m) == 1 and k % m != 1
        before, after = check_all(d), check_all(map_scalars(d, sigma))
        assert _statuses(after) == _statuses(before)
        assert _ranks(after) == _ranks(before)
        zetas = [(parse_scalar(b.derived_scalars["zeta_Omega"], m),
                  parse_scalar(a.derived_scalars.get("zeta_Omega", "0"), m))
                 for b, a in zip(before, after) if "zeta_Omega" in b.derived_scalars]
        assert zetas
        assert [sigma(z) for z, _ in zetas] == [z for _, z in zetas]


def variable_names(datum):
    """The sorted names of the formal variables in datum's scalars."""
    out = set()
    map_scalars(datum, lambda v: out.update(n for _, vk in v.coeffs for n, _ in vk) or v)
    return sorted(out)


def renaming(names):
    """The map that renames each formal variable n of a scalar to names[n]."""
    return lambda v: CycScalar(v.conductor, {(zp, tuple((names[n], e) for n, e in vk)): c
                                             for (zp, vk), c in v.coeffs.items()})


class TestRenameVariables:
    """Renaming the formal variables by a bijection that reverses their sort
    order keeps every status and rank, and each kernel witness is a kernel
    vector of the renamed S-matrix.  The residues mod p are hashed from the
    names, so they move: the perturbed datum's certificate closes at the
    second prime (see perturbed_emitted_datum) before renaming and at the
    first after, which takes the next-prime route one way."""

    @pytest.mark.parametrize("name, primes_before, primes_after", [
        ("sl21-ell3", [0], [0]), ("sl21-ell5", [0], [0]),
        ("sl21-ell5-perturbed", [0, 1], [0])])
    def test_statuses_and_ranks(self, monkeypatch, name, primes_before, primes_after):
        d = {"sl21-ell3": lambda: emit_datum(3), "sl21-ell5": lambda: emit_datum(5),
             "sl21-ell5-perturbed": lambda: perturbed_emitted_datum(5)}[name]()
        names = variable_names(d)
        # fixed-width names, numbered down, sort in the reverse order
        new = {n: f"v{len(names) - i:03d}" for i, n in enumerate(names)}
        assert len(names) > 1 and sorted(new.values(), reverse=True) == list(new.values())
        e = map_scalars(d, renaming(new))
        used = []
        modulus = matrices_mod._modulus
        monkeypatch.setattr(matrices_mod, "_modulus",
                            lambda m, k=0: used.append(k) or modulus(m, k))
        before = check_all(d)
        assert sorted(set(used)) == primes_before
        used.clear()
        after = check_all(e)
        assert sorted(set(used)) == primes_after
        assert _statuses(after) == _statuses(before)
        assert _ranks(after) == _ranks(before)
        kernels = _kernel_vectors(e, after)
        assert len(kernels) == len(_kernel_vectors(d, before))
        for m, vector in kernels:
            _assert_kernel(m, vector)
