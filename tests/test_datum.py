import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MALFORMED_DEGREES, perturb_block, pointed_datum
import relmod.checks as checks_mod
from relmod.checks import check_premodular_inputs
from relmod.cli import _run_all
from relmod.datum import (
    DatumInvariantError,
    DatumSchemaError,
    Degree,
    GradingSpec,
    SmallSubset,
    TranslationSpec,
    degree_from_json,
    degree_to_json,
    dumps_datum,
    json_text,
    load_datum,
    grading_from_json,
    grading_to_json,
    loads_datum,
    modified_S,
    parse_degree,
    save_datum,
    validate_datum,
    _memo,
)
from relmod.matrices import ExactMatrix
from relmod.scalars import CycScalar
from relmod.sl21 import emit_datum
from relmod.verdicts import FAILS, HOLDS


def minimal_doc():
    return {
        "schema": "relmod-datum/1",
        "conductor": 5,
        "grading": {"cyclic_factors": [], "has_generic_torus": True,
                    "small_symmetric": {"kind": "list", "elements": [{}]}},
        "translation": {"cyclic_factors": [], "quantum_dimension": {"table": [
            {"element": [], "value": "1"}]}, "psi": []},
        "degrees": [{"alpha": 1}],
        "index_sets": {"0": ["0"]},
        "dims": {"0": ["1"]},
        "twists": {"0": ["1"]},
        "sprime": [{"row_degree": {"alpha": 1}, "col_degree": {"alpha": 1},
                    "entries": [["1"]]}],
    }


@st.composite
def graded_degrees(draw):
    """(cyclic factors, a degree whose finite part is reduced modulo them); an
    infinite cyclic factor (order 0) takes negative components too."""
    factors = tuple(draw(st.lists(st.sampled_from([0, 2, 3, 5]), max_size=3)))
    finite = tuple(draw(st.integers(-50, 50) if o == 0 else st.integers(0, o - 1))
                   for o in factors)
    shift = draw(st.fractions(min_value=-10, max_value=10, max_denominator=12))
    return factors, Degree(finite, draw(st.integers(-5, 5)), shift)


class TestDegrees:
    @given(graded=graded_degrees())
    @settings(max_examples=200, deadline=None)
    def test_parse_print_round_trip(self, graded):
        for text in ("0", "a", "-a", "2a", "a+1/2", "-a+2/3", "1/2", "a-1",
                     "1,0|a", "0,1|-a+1/2", "1|0"):
            d = parse_degree(text)
            assert parse_degree(str(d)) == d
        assert parse_degree("0,1|-a+1/2") == Degree((0, 1), -1, Fraction(1, 2))
        factors, d = graded
        assert parse_degree(str(d)) == d
        assert degree_from_json(degree_to_json(d), "d", factors) == d

    def test_integral_shift_is_an_int(self):
        grading = GradingSpec()
        integral = [Degree(), Degree(alpha=1), parse_degree("3"), parse_degree("a-2"),
                    parse_degree("4/2"), degree_from_json({"shift": 2}, "d", ()),
                    degree_from_json({"shift": "-6/3", "alpha": 1}, "d", ()),
                    grading.add(parse_degree("1/2"), parse_degree("a+1/2")),
                    grading.add(parse_degree("a+1"), parse_degree("2")),
                    grading.negate(parse_degree("-a+3"))]
        for d in integral:
            assert type(d.shift) is int, d
            as_fraction = dataclasses.replace(d, shift=Fraction(d.shift))
            assert d == as_fraction and hash(d) == hash(as_fraction)
            assert str(d) == str(as_fraction)
            assert degree_to_json(d) == degree_to_json(as_fraction)
        for d in (parse_degree("a+1/2"), degree_from_json({"shift": "3/4"}, "d", ()),
                  grading.negate(parse_degree("1/3"))):
            assert type(d.shift) is Fraction, d

    @pytest.mark.parametrize("text, degree", [
        ("0", Degree()), ("a", Degree((), 1)), ("-a", Degree((), -1)), ("+a", Degree((), 1)),
        ("2a", Degree((), 2)), ("a+1/2", Degree((), 1, Fraction(1, 2))),
        ("-a-2/3", Degree((), -1, Fraction(-2, 3))), ("1/2", Degree((), 0, Fraction(1, 2))),
        ("-3", Degree((), 0, Fraction(-3))), ("1,0|a", Degree((1, 0), 1)),
        ("1,-4|0", Degree((1, -4))), ("a + 1", Degree((), 1, Fraction(1))),
        (" 1 , 0 | -2a - 3/4 ", Degree((1, 0), -2, Fraction(-3, 4))),
    ])
    def test_accepted_text(self, text, degree):
        assert parse_degree(text) == degree

    @pytest.mark.parametrize("text", MALFORMED_DEGREES + ("1/0",))
    def test_malformed_text_is_rejected(self, text):
        with pytest.raises(ValueError, match="expected"):
            parse_degree(text)

    def test_json_round_trip_with_a_finite_part(self):
        for text in ("1,0|a", "0,2|-a+1/2", "1,1|0", "0,0|2a-1/3"):
            d = parse_degree(text)
            assert degree_from_json(degree_to_json(d), "d", (2, 3)) == d
        grading = GradingSpec(cyclic_factors=(2, 3), small=SmallSubset("torsion"))
        assert grading_from_json(grading_to_json(grading), "grading") == grading
        listed = GradingSpec(cyclic_factors=(2, 0), small=SmallSubset(
            "list", (parse_degree("0,0|0"), parse_degree("1,-4|0"))))
        assert grading_from_json(grading_to_json(listed), "grading") == listed

    def test_finite_part_must_fit_the_cyclic_factors(self):
        for finite, message in (([1, 0, 0], "expected 2 components"),
                                ([1], "expected 2 components"),
                                ([2, 0], "reduced modulo [2, 3], got [2, 0]"),
                                ([0, -1], "reduced modulo [2, 3], got [0, -1]")):
            with pytest.raises(DatumSchemaError) as ei:
                degree_from_json({"finite": finite, "alpha": 1}, "d", (2, 3))
            assert ei.value.path == "d.finite" and message in str(ei.value)
        # an infinite cyclic factor (order 0) takes any integer
        assert degree_from_json({"finite": [-7]}, "d", (0,)) == Degree((-7,))

    def test_add_and_negate_modulo_the_cyclic_factors(self):
        grading = GradingSpec(cyclic_factors=(2, 3))
        g = Degree((1, 2), 1, Fraction(1, 2))
        h = Degree((1, 2), -1)
        assert grading.add(g, h) == Degree((0, 1), 0, Fraction(1, 2))
        assert grading.negate(g) == Degree((1, 1), -1, Fraction(-1, 2))
        assert grading.negate(grading.negate(g)) == g
        assert grading.add(g, grading.negate(g)) == Degree((0, 0))
        assert grading.negate(Degree((0, 0), 1)) == Degree((0, 0), -1)

    def test_a_degree_with_the_wrong_component_count_is_rejected(self):
        grading = GradingSpec(cyclic_factors=(2,))
        with pytest.raises(ValueError, match="expected 1 components"):
            grading.negate(Degree((1, 1), 1))
        with pytest.raises(ValueError):
            grading.add(Degree((1,), 1), Degree((1, 1), 1))

    def test_torsion_rule_makes_degrees_without_alpha_small(self):
        grading = GradingSpec(cyclic_factors=(2, 3), small=SmallSubset("torsion"))
        assert not grading.is_generic(Degree((1, 2)))
        assert not grading.is_generic(Degree((0, 0)))
        assert grading.is_generic(Degree((1, 2), 1))
        assert grading.is_generic(Degree((0, 0), -2, Fraction(1, 3)))
        assert grading_from_json({"cyclic_factors": [2, 3]}, "grading") == grading

    def test_negation_via_grading(self):
        datum = pointed_datum(3)
        g = Degree(alpha=1, shift=Fraction(1, 2))
        assert datum.negate(g) == Degree(alpha=-1, shift=Fraction(-1, 2))


class TestLoader:
    def test_minimal_datum_loads(self):
        d = loads_datum(minimal_doc())
        assert d.conductor == 5
        assert len(d.index_sets[Degree(alpha=1)]) == 1

    def test_bad_schema_id(self):
        doc = minimal_doc()
        doc["schema"] = "nope/9"
        with pytest.raises(DatumSchemaError) as ei:
            loads_datum(doc)
        assert ei.value.path == "schema"

    def test_field_level_path_in_errors(self):
        doc = minimal_doc()
        doc["sprime"][0]["entries"] = [["1 +"]]
        with pytest.raises(DatumSchemaError) as ei:
            loads_datum(doc)
        assert ei.value.path == "sprime[0].entries[0][0]"

    def test_translation_elements_need_not_be_reduced(self):
        doc = minimal_doc()
        doc["translation"] = {"cyclic_factors": [2, 0], "quantum_dimension": {
            "generator_values": ["-1", "1"],
            "table": [{"element": [3, -5], "value": "-1"}]}}
        t = loads_datum(doc).translation
        assert t.qdim_table[0][0] == (3, -5)
        assert t.quantum_dimension_from_generators((3, -5), 5) == CycScalar.rational(-1, 5)
        assert TranslationSpec(cyclic_factors=(2, 0)).zadd((1, 4), (1, -6)) == (0, -2)

    def test_psi_bilinearity_violation_names_triple(self):
        doc = minimal_doc()
        doc["translation"]["cyclic_factors"] = [0]
        doc["translation"]["quantum_dimension"] = {"generator_values": ["1"]}
        doc["translation"]["psi"] = [
            {"degree": {"alpha": 1}, "element": [1], "value": "z5"},
            {"degree": {"alpha": 1}, "element": [2], "value": "z5^3"},
        ]
        with pytest.raises(DatumInvariantError) as ei:
            loads_datum(doc)
        v = next(v for v in ei.value.violations if v.invariant == "psi-bilinear")
        assert v.indices == ("a", (1,), (1,))

    @pytest.mark.parametrize("first, second", [([1, 0], [1, 0]), ([3, 0], [1, 0])],
                             ids=["same-element", "same-after-reduction"])
    def test_psi_with_two_values_for_one_element_is_rejected(self, first, second):
        doc = dumps_datum(emit_datum(3))
        doc["translation"]["psi"] = [
            {"degree": {"alpha": 1}, "element": first, "value": "u"},
            {"degree": {"alpha": 1}, "element": second, "value": "u^2"}]
        with pytest.raises(DatumInvariantError) as ei:
            loads_datum(doc)
        v, = ei.value.violations
        assert (v.invariant, v.indices) == ("psi-single-valued", ("a", tuple(second)))
        assert v.message == "psi(a,(1, 0)) given as both u and u^2"

    def test_quantum_dimension_with_two_values_for_one_element_is_rejected(self):
        doc = dumps_datum(emit_datum(3))
        table = [{"element": [0, 1], "value": "1"}, {"element": [0, 1], "value": "-1"}]
        doc["translation"]["quantum_dimension"] = {"table": table}
        with pytest.raises(DatumInvariantError) as ei:
            loads_datum(doc)
        v, = ei.value.violations
        assert (v.invariant, v.indices) == ("free-realisation-quantum-dimension", ((0, 1),))
        assert v.message == "quantum dimension of sigma(0, 1) given as both 1 and -1"
        table[1]["value"] = "1"
        loads_datum(doc)

    def test_quantum_dimension_must_be_pm_one(self):
        doc = minimal_doc()
        doc["translation"]["quantum_dimension"]["table"].append(
            {"element": [], "value": "2"})
        with pytest.raises(DatumInvariantError) as ei:
            loads_datum(doc)
        assert any(v.invariant == "free-realisation-quantum-dimension"
                   for v in ei.value.violations)

    def test_asymmetric_modified_S_rejected(self):
        doc = minimal_doc()
        doc["index_sets"]["0"] = ["0", "1"]
        doc["dims"]["0"] = ["1", "1"]
        doc["twists"]["0"] = ["1", "1"]
        doc["sprime"][0]["entries"] = [["1", "2"], ["3", "1"]]
        with pytest.raises(DatumInvariantError) as ei:
            loads_datum(doc)
        assert any(v.invariant == "modified-S-symmetric" for v in ei.value.violations)

    def test_sl21_datum_loads_with_six_labels(self):
        d = emit_datum(3)
        rt = loads_datum(dumps_datum(d))
        assert len(rt.index_sets[Degree(alpha=1)]) == 6

    def test_round_trip_equality(self, tmp_path):
        for datum in (pointed_datum(3, random.Random(7)), emit_datum(3)):
            p = tmp_path / "d.json"
            save_datum(datum, str(p))
            rt = load_datum(str(p))
            assert rt == datum
            # and a second pass is byte-identical
            q = tmp_path / "d2.json"
            save_datum(rt, str(q))
            assert p.read_bytes() == q.read_bytes()


def _two_labels(doc, **edits):
    doc["index_sets"]["0"] = ["0", "1"]
    doc["dims"]["0"] = ["1", "1"]
    doc["twists"]["0"] = ["1", "1"]
    doc["sprime"][0]["entries"] = [["1", "0"], ["0", "1"]]
    for key, value in edits.items():
        doc[key]["0"] = value
    return doc


def _one_row_block(doc):
    _two_labels(doc)["sprime"][0]["entries"] = [["1", "0"]]


def _one_column_block(doc):
    _two_labels(doc)["sprime"][0]["entries"] = [["1"], ["0"]]


class TestInvariantsOnLoad:
    @pytest.mark.parametrize("edit, invariant, message", [
        (lambda doc: doc["degrees"].append({"alpha": 2}), "index-set-present",
         "listed degree has no index set"),
        (lambda doc: doc.update(dims={}), "dims-present", "listed degree has no dims"),
        (lambda doc: doc.update(twists={}), "twists-present", "listed degree has no twists"),
        (lambda doc: _two_labels(doc, dims=["1"]), "dims-aligned",
         "dims length 1 != index set size 2"),
        (lambda doc: doc["dims"].update({"0": ["0"]}), "dims-nonzero",
         "modified dimension must be nonzero"),
        (lambda doc: doc["twists"].update({"0": ["1+u"]}), "twists-invertible",
         "twist 1 + u is not invertible"),
        (_one_row_block, "block-shape",
         "block row count does not match the row degree's index set"),
        (_one_column_block, "block-shape",
         "block column count does not match the column degree's index set"),
        (lambda doc: doc.update(dual_involution={"0": [1]}), "dual-involution",
         "dual involution must be a permutation of the index set"),
        (lambda doc: doc["translation"]["psi"].append(
            {"degree": {"alpha": 1}, "element": [], "value": "0"}), "psi-nonzero",
         "psi values must be nonzero"),
    ], ids=["index-set-present", "dims-present", "twists-present", "dims-aligned",
            "dims-nonzero", "twists-invertible", "block-shape-rows", "block-shape-columns",
            "dual-involution", "psi-nonzero"])
    def test_violation_is_reported_by_the_file_loader(self, tmp_path, edit, invariant,
                                                      message):
        doc = minimal_doc()
        edit(doc)
        p = tmp_path / "d.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DatumInvariantError) as ei:
            load_datum(str(p))
        assert any(v.invariant == invariant and message in v.message
                   for v in ei.value.violations)


class TestModifiedS:
    def test_identity_with_unit_dims(self):
        d = loads_datum(minimal_doc())
        g = Degree(alpha=1)
        assert modified_S(d, g) == ExactMatrix.identity(1, 5)

    def test_diagonal_scaling(self):
        doc = minimal_doc()
        doc["index_sets"]["0"] = ["0", "1"]
        doc["dims"]["0"] = ["2", "3"]
        doc["twists"]["0"] = ["1", "1"]
        doc["sprime"][0]["entries"] = [["1", "0"], ["0", "1"]]
        d = loads_datum(doc)
        g = Degree(alpha=1)
        s = modified_S(d, g)
        assert s == ExactMatrix.diagonal(
            [CycScalar.rational(2, 5), CycScalar.rational(3, 5)], 5)

    def test_rank_unchanged_by_dim_scaling(self):
        datum = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        assert modified_S(datum, g).rank() == datum.block(g, g).matrix.rank()

    def test_sl21_symbolic_rank_bound(self):
        d = emit_datum(3)
        g = Degree(alpha=1)
        s = modified_S(d, g)
        assert (s.rows, s.cols) == (6, 6)
        assert s.rank() == 3
        assert s.is_symmetric()


class TestModifiedSMemo:
    """modified_S scales a block once per datum and (g, h), and never serves
    a matrix scaled from another block or other dims."""

    def test_repeated_call_and_validation_share_one_matrix(self):
        d = loads_datum(dumps_datum(emit_datum(3)))
        g = Degree(alpha=1)
        s = modified_S(d, g)
        assert modified_S(d, g, g) is s
        assert validate_datum(d) == []
        assert modified_S(d, g) is s
        assert check_premodular_inputs(d).status == HOLDS
        assert modified_S(d, g) is s

    def test_replaced_dims_give_a_freshly_scaled_matrix(self):
        d = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        s = modified_S(d, g)
        dims = tuple(x * 2 for x in d.dims[g])
        replaced = dataclasses.replace(d, dims={**d.dims, g: dims})
        fresh = modified_S(replaced, g)
        assert fresh is not s
        assert fresh == d.block(g, g).matrix.scale_columns(list(dims)) != s
        assert modified_S(d, g) is s

    def test_dims_changed_in_place_are_not_served_stale(self):
        d = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        s = modified_S(d, g)
        d.dims[g] = tuple(x * 3 for x in d.dims[g])
        assert modified_S(d, g) == d.block(g, g).matrix.scale_columns(list(d.dims[g])) != s

    def test_asymmetric_block_after_a_symmetric_one_is_reported(self):
        d = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        modified_S(d, g)
        bad = perturb_block(d, 0, 0, 1, CycScalar.one(d.conductor))
        verdict = check_premodular_inputs(bad)
        assert verdict.status == FAILS
        assert any(w.name == "modified-S-symmetric" for w in verdict.witnesses)
        assert modified_S(bad, g) != modified_S(d, g)

    def test_memo_is_not_part_of_the_datum(self):
        d = emit_datum(3)
        before = repr(d)
        modified_S(d, Degree(alpha=1))
        assert repr(d) == before
        assert d == dataclasses.replace(d) == emit_datum(3)
        assert "_memo" in d.__dict__
        assert "_memo" not in {f.name for f in dataclasses.fields(d)}
        assert "_memo" not in dataclasses.replace(d).__dict__


def _edit_twists(d, g):
    d.twists[g] = tuple(t * CycScalar.zeta(d.conductor) for t in d.twists[g])


def _edit_dims(d, g):
    d.dims[g] = tuple(x * 2 for x in d.dims[g])


def _edit_block(d, g):
    object.__setattr__(d, "sprime", perturb_block(d, 0, 1, 0, CycScalar.one(d.conductor)).sprime)


def _edit_dual(d, g):
    # an equal permutation in a new tuple: the pair is computed afresh
    d.dual_involution[g] = tuple(list(d.dual_involution[g]))


class TestLiteralSharing:
    """loads_datum parses each distinct literal text once per call."""

    def test_each_distinct_text_is_parsed_once_per_call(self, monkeypatch):
        import relmod.datum as datum_mod
        texts = []
        original = datum_mod.parse_scalar

        def recording(text, conductor):
            texts.append(text)
            return original(text, conductor)

        monkeypatch.setattr(datum_mod, "parse_scalar", recording)
        d = pointed_datum(5, random.Random(3))
        doc = dumps_datum(d)
        every = [x for b in doc["sprime"] for row in b["entries"] for x in row] + \
            [x for table in ("dims", "twists") for vals in doc[table].values() for x in vals]
        assert loads_datum(doc) == d
        assert sorted(texts) == sorted(set(every)) and len(texts) < len(every) / 4
        # no cache across calls
        assert loads_datum(doc) == d and len(texts) == 2 * len(set(texts))


class TestDeltaMemo:
    """check all computes (Delta_+, Delta_-) once per degree and ranks each
    S_g once, and never serves a pair computed from other twists, dims,
    blocks or dual involution."""

    @pytest.fixture
    def delta_calls(self, monkeypatch):
        calls = []
        original = checks_mod.delta_minus

        def counting(datum, g, j):
            calls.append(g)
            return original(datum, g, j)

        monkeypatch.setattr(checks_mod, "delta_minus", counting)
        return calls

    def test_check_all_computes_each_degree_once(self, delta_calls, monkeypatch):
        ranked = []
        original = ExactMatrix._rank_and_kernel

        def recording(self):
            ranked.append(self)
            return original(self)

        monkeypatch.setattr(ExactMatrix, "_rank_and_kernel", recording)
        d = pointed_datum(5, random.Random(3))
        verdicts = _run_all(d)
        assert all(v.status == HOLDS for v in verdicts)
        assert sorted(map(str, delta_calls)) == ["-a", "a"]
        for g in d.degrees:
            assert sum(m is modified_S(d, g) for m in ranked) == 1
            pair = checks_mod._try_deltas(d, g)
            assert checks_mod._try_deltas(d, g) is pair
            assert pair == (checks_mod.delta_plus(d, g, 0), checks_mod.delta_minus(d, g, 0))
        assert len(delta_calls) == 2 + len(d.degrees)

    @pytest.mark.parametrize("edit", [_edit_twists, _edit_dims, _edit_block, _edit_dual],
                             ids=["twists", "dims", "block", "dual-involution"])
    def test_inputs_replaced_in_place_give_fresh_values(self, delta_calls, edit):
        d = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        before = checks_mod._try_deltas(d, g)
        edit(d, g)
        after = checks_mod._try_deltas(d, g)
        assert len(delta_calls) == 2
        assert after == (checks_mod.delta_plus(d, g, 0), checks_mod.delta_minus(d, g, 0))
        assert after is not before
        assert checks_mod._try_deltas(d, g) is after

    def test_absent_dual_involution_is_not_served_stale(self, delta_calls):
        d = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        assert None not in checks_mod._try_deltas(d, g)
        del d.dual_involution[g]
        dp, dm = checks_mod._try_deltas(d, g)
        assert dp is None and dm == checks_mod.delta_minus(d, g, 0)



class TestMemoInputs:
    def test_longer_inputs_with_the_same_prefix_are_computed_afresh(self):
        d = emit_datum(3)
        x, y = object(), object()
        assert _memo(d, "k", (x,), lambda: 1) == 1
        assert _memo(d, "k", (x, y), lambda: 2) == 2
        assert _memo(d, "k", (x,), lambda: 3) == 3
        assert _memo(d, "k", (x,), lambda: 4) == 3


class TestValidationOncePerLoad:
    """check_premodular_inputs reads the validation that loads_datum made,
    and validates again once a field it reads is replaced."""

    def _counting(self, monkeypatch):
        import relmod.datum as datum_mod
        calls = []
        original = datum_mod.validate_datum

        def counting(datum):
            calls.append(datum)
            return original(datum)
        monkeypatch.setattr(datum_mod, "validate_datum", counting)
        return calls

    def test_premodular_reuses_the_load_and_revalidates_after_an_edit(self, monkeypatch, tmp_path):
        path = str(tmp_path / "p.json")
        save_datum(pointed_datum(5, random.Random(3)), path)
        calls = self._counting(monkeypatch)
        d = load_datum(path)
        assert len(calls) == 1
        assert check_premodular_inputs(d).status == HOLDS
        assert check_premodular_inputs(d).status == HOLDS
        assert len(calls) == 1
        g = Degree(alpha=1)
        d.dims[g] = tuple(list(d.dims[g]))   # equal values in a new tuple
        assert check_premodular_inputs(d).status == HOLDS
        assert len(calls) == 2
        d.dims[g] = (CycScalar.zero(d.conductor),) + d.dims[g][1:]
        verdict = check_premodular_inputs(d)
        assert len(calls) == 3
        assert verdict.status == FAILS
        assert any(w.name == "dims-nonzero" for w in verdict.witnesses)

    def test_cli_check_premodular_validates_once(self, monkeypatch, tmp_path, capsys):
        from relmod.cli import main
        path = str(tmp_path / "e3.json")
        save_datum(emit_datum(3), path)
        calls = self._counting(monkeypatch)
        for what in ("premodular", "all"):
            assert main(["check", what, "--datum", path, "--format", "json"]) in (0, 1)
            assert '"premodular-inputs"' in capsys.readouterr().out
        assert len(calls) == 2

    def test_each_table_and_frozen_field_is_an_input(self, monkeypatch):
        d = loads_datum(dumps_datum(pointed_datum(5, random.Random(3))))
        g = Degree(alpha=1)
        calls = self._counting(monkeypatch)
        check_premodular_inputs(d)
        assert calls == []
        edits = [lambda: d.twists.__setitem__(g, tuple(list(d.twists[g]))),
                 lambda: d.index_sets.__setitem__(g, tuple(list(d.index_sets[g]))),
                 lambda: _edit_dual(d, g),
                 lambda: d.dims.pop(g),
                 lambda: object.__setattr__(d, "sprime", tuple(list(d.sprime)))]
        for n, edit in enumerate(edits, 1):
            edit()
            check_premodular_inputs(d)
            assert len(calls) == n
        # the twists tuple moved under the same key object into the emptied
        # dims table: the same keys and values in the same order, in another table
        (key,) = [k for k in d.twists if k == g]
        d.dims[key] = d.twists.pop(key)
        verdict = check_premodular_inputs(d)
        assert len(calls) == len(edits) + 1
        assert "twists-present" in [w.name for w in verdict.witnesses]


# JSON values: every kind json.dumps writes, nested, with strings that need
# escaping (control characters, quotes, backslashes, non-ASCII, a lone
# surrogate) and ints past 64 bits.
JSON_STRINGS = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\\u", "\x00\x1f\x7f", "\n\r\t\b\f", "\u00e9", "\u2028", "\ud800",
     "\U0001f600", ""]))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10 ** 40, 10 ** 40),
              st.floats(), JSON_STRINGS),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(JSON_STRINGS, children, max_size=4)),
    max_leaves=20)


class TestJsonText:
    @given(obj=JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_is_json_dumps_with_indent_and_sorted_keys(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_empty_containers_and_non_string_keys(self):
        for obj in ({}, [], (), {"a": {}, "b": [], "c": [[], {}, ()]},
                    {1: "x", 10: "y", 2: None}, {None: 1}, {True: 0, False: 1},
                    {1.5: [1.5, float("nan"), float("inf")]}):
            assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
        for obj in ({(1,): 2}, {"a": object()}, {"a": 1, 2: 3}):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                json_text(obj)

    def test_datum_files_are_the_json_dumps_text(self, tmp_path):
        d = emit_datum(5)
        path = tmp_path / "e5.json"
        save_datum(d, str(path))
        assert path.read_text() == json.dumps(dumps_datum(d), indent=2, sort_keys=True) + "\n"
