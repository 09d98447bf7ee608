import pytest
from hypothesis import given, settings, strategies as st

from relmod.sl21 import (
    CharacterExpr,
    DecompositionError,
    ParameterError,
    WeightLabel,
    build_Ak,
    character_of_label,
    character_of_rep,
    closed_form_Ak,
    decompose_typical,
    fuse_A,
    standard_module_character,
    tensor_rep,
    trivial_rep,
    typical_character,
)
from relmod.sl21.characters import XYLaurent, sl2_character


def x0_factor(sign: int) -> XYLaurent:
    """(1 +- y/x)(1 +- xy) = 1 +- y(x + 1/x) + y^2."""
    return XYLaurent({(0, 0): 1, (1, 1): sign, (-1, 1): sign, (0, 2): 1})


def dimension(c: CharacterExpr) -> int:
    """The dimension of a module with character c: its plus part at x = y = 1."""
    return sum(c.plus.terms.values())


def labels_tuple(labs):
    return sorted((l.k, l.shift, l.parity, l.eps) for l in labs)


def char_sum(labs, ell):
    total = None
    for l in labs:
        c = character_of_label(l, ell)
        total = c if total is None else total + c
    return total


class TestClosedForms:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_rep_character_matches_closed_form(self, ell):
        for k in range(1, ell):
            got = character_of_rep(build_Ak(k, ell, "corrected"))
            want = closed_form_Ak(k, ell)
            assert got.plus == want.plus and got.minus == want.minus

    def test_standard_module_is_A1(self):
        got = character_of_rep(build_Ak(1, 5, "corrected"))
        want = standard_module_character()
        assert got.plus == want.plus and got.minus == want.minus
        assert dimension(want) == 3

    def test_trivial_module_character_is_one(self):
        c = character_of_rep(trivial_rep(5))
        assert c.plus == XYLaurent.one() and c.minus == XYLaurent.one()

    def test_typical_k0_telescopes(self):
        t = typical_character(0, 0, 5)
        assert t.plus == x0_factor(1) and t.minus == x0_factor(-1)
        assert t.alpha_power == 1

    @pytest.mark.parametrize("ell,k", [(5, 0), (5, 3), (7, 6)])
    def test_typical_dimension(self, ell, k):
        assert dimension(typical_character(k, 0, ell)) == 4 * (k + 1)

    def test_parity_flip_negates_minus_only(self):
        t = typical_character(2, 0, 5)
        odd = typical_character(2, 0, 5, parity=1)
        assert odd.plus == t.plus and odd.minus == -t.minus

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_typical_character_is_the_defining_product(self, ell):
        # the oracle is X0^+- * y^ydeg T_k, multiplied out as XYLaurent products
        for k in range(2 * ell - 1):
            for shift in (-ell - 1, -1, 0, 1, ell - 1, 2 * ell + 3):
                for parity in (0, 1, 3):
                    for eps in (-1, 0, 2):
                        t = sl2_character(k).shift(0, 2 * shift + k + 2 * ell * eps)
                        minus = x0_factor(-1) * t
                        got = typical_character(k, shift, ell, parity, eps)
                        assert got.plus == x0_factor(1) * t
                        assert got.minus == (-minus if parity % 2 else minus)
                        assert got.alpha_power == 1

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_label_character_is_the_reflected_sum(self, ell):
        from relmod.sl21.characters import make_label
        for k in range(2 * ell - 1):
            for s in (0, 1, ell - 1, ell + 2):
                for parity in (0, 1):
                    lab = make_label(k, s, parity, ell)
                    want = typical_character(k, s, ell, parity)
                    if k >= ell:
                        want = want + typical_character(2 * ell - 2 - k, s + k - ell + 1,
                                                        ell, parity)
                    got = character_of_label(lab, ell)
                    assert got.plus == want.plus and got.minus == want.minus

    @pytest.mark.parametrize("k", [-1, 9])
    def test_label_height_out_of_range_is_rejected(self, k):
        with pytest.raises(ParameterError, match="out of range 0..2\\*ell-2"):
            character_of_label(WeightLabel(k=k, shift=0), 5)

    def test_support_pattern_shared(self):
        for k in range(0, 4):
            t = typical_character(k, 1, 5)
            assert set(t.plus.terms) == set(t.minus.terms)
            a = closed_form_Ak(k + 1, 7)
            assert set(a.plus.terms) == set(a.minus.terms)


class TestDecomposition:
    @pytest.mark.parametrize("ell", [5, 7])
    def test_tensor_with_standard_module(self, ell):
        # V(k, 0) (x) v = V(k+1, 0) + V(k-1, 1) + odd V(k, 1)
        for k in range(1, ell - 2):
            prod = typical_character(k, 0, ell) * standard_module_character()
            got = labels_tuple(decompose_typical(prod, ell))
            assert got == sorted([(k + 1, 0, 0, 0), (k - 1, 1, 0, 0), (k, 1, 1, 0)])

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_A_against_bottom_typical(self, ell):
        prod = closed_form_Ak(ell - 1, ell) * typical_character(0, 0, ell)
        labs = decompose_typical(prod, ell)
        flagged = sorted((l.k, l.shift, l.parity, l.negligible) for l in labs)
        assert flagged == sorted([(ell - 1, 0, 0, True), (ell - 2, 1, 1, False)])

    def test_single_typical_single_peel(self):
        labs = decompose_typical(typical_character(2, 1, 5), 5)
        assert labels_tuple(labs) == [(2, 1, 0, 0)]

    def test_failure_reports_residual(self):
        bad = CharacterExpr(XYLaurent({(0, 1): 1}), XYLaurent({(0, 1): 1}), 1)
        with pytest.raises(DecompositionError) as ei:
            decompose_typical(bad, 5)
        assert ei.value.residual is not None

    @pytest.mark.parametrize("ell", [3, 5])
    def test_top_above_every_label_height_is_a_decomposition_error(self, ell):
        # heights run to 2ell-2; a top of height 2ell-1 matches no label
        chi = typical_character(2 * ell - 1, 0, ell)
        with pytest.raises(DecompositionError, match="is not the top of a typical") as ei:
            decompose_typical(chi, ell)
        assert ei.value.residual == chi
        labs = decompose_typical(typical_character(2 * ell - 2, 0, ell)
                                 + typical_character(0, ell - 1, ell), ell)
        assert [(l.k, l.shift, l.negligible) for l in labs] == [(2 * ell - 2, 0, True)]

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_fusion_with_A_matches_involution(self, ell):
        A = closed_form_Ak(ell - 1, ell)
        for k in range(ell - 1):
            for i in range(ell):
                chi = A * typical_character(k, i, ell)
                labs = decompose_typical(chi, ell)
                nonneg = [l for l in labs if not l.negligible]
                assert len(nonneg) == 1
                want = fuse_A(WeightLabel(k=k, shift=i), ell)
                got = nonneg[0]
                assert (got.k, got.shift, got.parity, got.eps) == \
                    (want.k, want.shift, want.parity, want.eps)

    @pytest.mark.parametrize("ell", [3, 5])
    def test_exact_partition(self, ell):
        # sum of the labels' characters reconstructs the decomposed character
        A = closed_form_Ak(ell - 1, ell)
        for k in range(ell - 1):
            for i in range(ell):
                chi = A * typical_character(k, i, ell)
                labs = decompose_typical(chi, ell)
                total = char_sum(labs, ell)
                assert total.plus == chi.plus and total.minus == chi.minus

    def test_association_consistency(self):
        # both association orders yield identical label multisets for every
        # permutation of a (typical, standard, A) triple
        import itertools
        ell = 5
        v = standard_module_character()
        A = closed_form_Ak(ell - 1, ell)
        t = typical_character(1, 0, ell)
        for combo in itertools.permutations([t, v, A]):
            left = (combo[0] * combo[1]) * combo[2]
            right = combo[0] * (combo[1] * combo[2])
            assert decompose_typical(left, ell) == decompose_typical(right, ell)
        # staged route: decompose a partial product, multiply each label
        # character through, decompose again
        staged = []
        for lab in decompose_typical(t * v, ell):
            staged.extend(decompose_typical(character_of_label(lab, ell) * A, ell))
        assert sorted(labels_tuple(staged)) == labels_tuple(decompose_typical((t * v) * A, ell))

    def test_two_typical_product_decomposes_exactly(self):
        # generic-parameter powers ride along globally (w^2 here)
        ell = 5
        prod = typical_character(1, 0, ell) * typical_character(2, 1, ell)
        assert prod.alpha_power == 2
        labs = decompose_typical(prod, ell)
        assert sum(4 * (min(l.k, 2 * (ell - 1) - l.k) + 1) if l.k < ell
                   else 8 * ell for l in labs) >= dimension(prod) > 0
        total = char_sum(labs, ell)
        assert total.plus == prod.plus and total.minus == prod.minus


class TestFuseA:
    def test_ell3_example(self):
        lab = fuse_A(WeightLabel(k=0, shift=0), 3)
        assert (lab.k, lab.shift, lab.parity) == (1, 1, 1)

    def test_ell5_example(self):
        lab = fuse_A(WeightLabel(k=3, shift=2), 5)
        assert (lab.k, lab.shift, lab.parity, lab.eps) == (0, 1, 1, 1)

    def test_double_application_is_epsilon_shift(self):
        for ell in (3, 5, 7):
            for k in range(ell - 1):
                for i in range(ell):
                    lab = fuse_A(fuse_A(WeightLabel(k=k, shift=i), ell), ell)
                    assert (lab.k, lab.shift, lab.parity, lab.eps) == (k, i, 0, 1)

    def test_negligible_input_rejected(self):
        with pytest.raises(ValueError):
            fuse_A(WeightLabel(k=4, shift=0), 5)

    @pytest.mark.parametrize("ell", [1, 4])
    def test_ell_out_of_range_rejected(self, ell):
        with pytest.raises(ParameterError, match="ell must be odd"):
            fuse_A(WeightLabel(k=0, shift=0), ell)


class TestCharacterAlgebra:
    def test_tensor_of_reps_multiplies_characters(self):
        a = build_Ak(1, 5, "corrected")
        b = build_Ak(2, 5, "corrected")
        t = character_of_rep(tensor_rep(a, b))
        prod = character_of_rep(a) * character_of_rep(b)
        assert t.plus == prod.plus and t.minus == prod.minus

    @given(k=st.integers(0, 4), s=st.integers(0, 12))
    @settings(max_examples=30)
    def test_label_fold_preserves_character(self, k, s):
        # honest typical heights only; k >= ell means the negligible composite
        ell = 5
        from relmod.sl21.characters import make_label
        lab = make_label(k, s, 0, ell)
        direct = typical_character(k, s, ell)
        folded = character_of_label(lab, ell)
        assert direct.plus == folded.plus and direct.minus == folded.minus

    def test_sl2_character_recursion(self):
        x = XYLaurent({(1, 0): 1, (-1, 0): 1})
        for k in range(2, 8):
            assert sl2_character(k) == x * sl2_character(k - 1) - sl2_character(k - 2)
