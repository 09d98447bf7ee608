import copy
import dataclasses
import enum
import json
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (MALFORMED_DEGREES, diagonal_matrix, is_unread, perturb_block,
                      pointed_datum, zero_matrix)
import relmod.checks as checks_mod
import relmod.scalars as scalars_mod
from relmod.checks import check_all, check_premodular_inputs
from relmod.cli import main
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
)
from relmod.matrices import ExactMatrix
from relmod.scalars import MAX_CONDUCTOR, CycScalar, parse_scalar
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

    @pytest.mark.parametrize("d", [Degree(), Degree((1, 0), -2), Degree(alpha=1, shift=3),
                                   Degree(alpha=1, shift=Fraction(3)),
                                   Degree((2,), 1, Fraction(1, 2))])
    def test_the_kept_hash_is_the_tuple_hash(self, d):
        import copy
        import pickle
        t = (d.finite, d.alpha, d.shift)
        assert hash(d) == hash(t) and d != t
        assert [f.name for f in dataclasses.fields(Degree)] == ["finite", "alpha", "shift"]
        assert repr(d) == f"Degree(finite={d.finite!r}, alpha={d.alpha!r}, shift={d.shift!r})"
        for other in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d)),
                      dataclasses.replace(d)):
            assert other == d and hash(other) == hash(d) and repr(other) == repr(d)
        moved = dataclasses.replace(d, alpha=d.alpha + 1)
        assert hash(moved) == hash((d.finite, d.alpha + 1, d.shift)) and moved != d


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


def _repeated_degree(doc):
    """Degree a listed a second time, with its own index set and twist."""
    doc["degrees"].append({"alpha": 1})
    doc.update(index_sets={"0": ["0"], "1": ["1"]}, dims={"0": ["1"], "1": ["1"]},
               twists={"0": ["1"], "1": ["-1"]})


def _second_block(doc):
    """An all-zero S' block for (a, a) after the first."""
    doc["sprime"].append({"row_degree": {"alpha": 1}, "col_degree": {"alpha": 1},
                          "entries": [["0"]]})


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
        (_repeated_degree, "degrees-distinct", "degree listed more than once"),
        (_second_block, "block-distinct", "a second S' block for the same pair of degrees"),
        (lambda doc: doc["translation"]["psi"].append(
            {"degree": {"alpha": 1}, "element": [], "value": "0"}), "psi-nonzero",
         "psi values must be nonzero"),
    ], ids=["index-set-present", "dims-present", "twists-present", "dims-aligned",
            "dims-nonzero", "twists-invertible", "block-shape-rows", "block-shape-columns",
            "dual-involution", "psi-nonzero", "degrees-distinct", "block-distinct"])
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


    def test_field_twists_at_a_large_conductor_are_not_inverted(self, tmp_path, capsys):
        # a three-term twist at conductor 512 takes about a quarter of a
        # second to invert; the unit rule decides it from its keys
        import time
        from relmod import cli
        n = 60
        doc = minimal_doc()
        doc["conductor"] = 512
        doc["index_sets"] = {"0": [str(i) for i in range(n)]}
        doc["dims"] = {"0": ["1"] * n}
        doc["twists"] = {"0": [f"1 + z512^{k} - 2*z512^{k + 1}" for k in range(1, n + 1)]}
        doc["sprime"][0]["entries"] = [["1" if i == j else "0" for j in range(n)]
                                       for i in range(n)]
        p = tmp_path / "d.json"
        p.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert cli.main(["check", "premodular", "--datum", str(p)]) == 0
        elapsed = time.perf_counter() - t0
        assert "holds" in capsys.readouterr().out
        assert elapsed < 2.0, f"check premodular took {elapsed:.2f}s"

    def test_repeated_degree_and_second_block_fail_premodular_on_a_built_datum(self):
        d = emit_datum(3)
        a = Degree(alpha=1)
        block = d.block(a, a)
        zero = zero_matrix(block.matrix.rows, block.matrix.cols, 3)
        for bad, witness in (
                (dataclasses.replace(d, degrees=d.degrees + (a,)),
                 ("degrees-distinct", ("a",))),
                (dataclasses.replace(d, sprime=d.sprime + (
                    dataclasses.replace(block, matrix=zero),)),
                 ("block-distinct", (len(d.sprime), "a", "a")))):
            v = check_premodular_inputs(bad)
            assert v.status == FAILS
            assert [(w.name, w.indices) for w in v.witnesses] == [witness]


def _psi_violations_pairwise(t: TranslationSpec, grading: GradingSpec) -> list:
    """psi's violations by the plain definition: every ordered pair of
    elements and of degrees summed and multiplied on its own."""
    out = []
    by_degree: dict = {}
    for deg, z, val in t.psi:
        if val.is_zero:
            out.append(("psi-nonzero", (str(deg), z), "psi values must be nonzero"))
        table = by_degree.setdefault(deg, {})
        rz = t.zadd(z, t.zero_elem())
        if table.setdefault(rz, val) != val:
            out.append(("psi-single-valued", (str(deg), z),
                        f"psi({deg},{rz}) given as both {table[rz]} and {val}"))
    for deg, table in by_degree.items():
        for z1 in sorted(table):
            for z2 in sorted(table):
                z12 = t.zadd(z1, z2)
                if z12 in table and table[z12] != table[z1] * table[z2]:
                    out.append(("psi-bilinear", (str(deg), z1, z2),
                                f"psi({deg},{z1}+{z2}) != psi({deg},{z1})*psi({deg},{z2})"))
    degs = sorted(by_degree, key=str)
    for g1 in degs:
        for g2 in degs:
            g12 = grading.add(g1, g2)
            for z, v in by_degree.get(g12, {}).items():
                if z in by_degree[g1] and z in by_degree[g2] and \
                        v != by_degree[g1][z] * by_degree[g2][z]:
                    out.append(("psi-bilinear", (str(g1), str(g2), z),
                                f"psi({g12},{z}) != psi({g1},{z})*psi({g2},{z})"))
    return out


class TestPsiValidation:
    """TranslationSpec.validate forms each sum once and each product once for
    both orders, and reports what the plain definition reports, in its order."""

    @pytest.mark.parametrize("seed", range(100))
    def test_violations_are_the_pairwise_ones(self, seed):
        rng = random.Random(seed)
        factors = rng.choice([(3,), (2, 0), (2, 3)])
        degrees = [parse_degree(t) for t in ("a", "2a", "3a", "-a", "a+1/2", "2a+1", "0")]
        values = [parse_scalar(t, 5) for t in ("1", "-1", "u", "u^2", "u^-1", "z5", "2", "0")]
        psi = []
        for deg in rng.sample(degrees, rng.randint(1, 5)):
            for _ in range(rng.randint(1, 6)):
                z = tuple(rng.randint(-3, 4) for _ in factors)
                psi.append((deg, z, rng.choice(values)))
        rng.shuffle(psi)
        t = TranslationSpec(cyclic_factors=factors, psi=tuple(psi))
        got = [(v.invariant, v.indices, v.message) for v in t.validate(5, GradingSpec())]
        assert got == _psi_violations_pairwise(t, GradingSpec())

    def test_sl21_psi_holds(self):
        for ell in (3, 5, 7):
            d = emit_datum(ell)
            assert d.translation.validate(d.conductor, d.grading) == []


class TestConductorBound:
    def test_the_bound_itself_loads(self):
        doc = minimal_doc()
        doc["conductor"] = MAX_CONDUCTOR
        assert loads_datum(doc).conductor == MAX_CONDUCTOR

    def test_one_over_the_bound_is_a_schema_error(self):
        doc = minimal_doc()
        doc["conductor"] = MAX_CONDUCTOR + 1
        with pytest.raises(DatumSchemaError) as ei:
            loads_datum(doc)
        assert ei.value.path == "conductor"
        assert str(MAX_CONDUCTOR) in str(ei.value)


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
        assert s == diagonal_matrix(
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
        assert d.block(g, g).matrix.asymmetric_pair(d.dims[g]) is None


class TestModifiedSMemo:
    """modified_S scales a block once per datum and (g, h), and never serves
    a matrix scaled from another block or other dims."""

    def test_repeated_call_returns_one_matrix_that_validation_leaves_alone(self):
        """A repeated modified_S call returns the matrix of the first, and
        neither validating the datum again nor check premodular replaces
        it: the symmetry check builds no S_g of its own."""
        d = loads_datum(dumps_datum(emit_datum(3)))
        g = Degree(alpha=1)
        s = modified_S(d, g)
        assert modified_S(d, g, g) is s
        assert validate_datum(d) == []
        assert modified_S(d, g) is s
        assert check_premodular_inputs(d).status == HOLDS
        assert modified_S(d, g) is s

    def test_loading_and_check_premodular_build_no_scaled_matrix(self, monkeypatch, tmp_path,
                                                                 capsys):
        """Loading the emitted ell = 5 file and checking its premodular
        inputs, in the library and through the command, make no scalar
        product: every S' entry and dim is one-term, so the symmetry of S_g
        and the bilinearity of psi are decided on keys.  S_g is built only
        when modified_S is asked for it."""
        path = str(tmp_path / "sl21-ell5.json")
        assert main(["sl21", "emit", "--ell", "5", "--out", path]) == 0
        calls = []
        mul = CycScalar.__mul__
        monkeypatch.setattr(CycScalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        d = load_datum(path)
        assert check_premodular_inputs(d).status == HOLDS
        assert main(["check", "premodular", "--datum", path]) == 0
        capsys.readouterr()
        assert calls == []
        assert [key for key in d.__dict__["_memo"] if key[:1] == ("S",)] == []
        # the counter sees the work: S_g is 20 x 20, scaled by 20 dims
        g = Degree(alpha=1)
        s = modified_S(d, g)
        assert len(calls) == 400 and d.__dict__["_memo"][("S", g, g)] is s

    @pytest.mark.parametrize("make, edits, pair", [
        (lambda: emit_datum(5), [((7, 3), "d0_1^-1")], (3, 7)),
        (lambda: emit_datum(5), [((2, 11), "z5^2 + u")], (2, 11)),
        (lambda: emit_datum(5), [((19, 18), "-1")], (18, 19)),
        (lambda: emit_datum(5), [((7, 3), "u"), ((1, 15), "2")], (1, 15)),
        (lambda: emit_datum(5), [((9, 2), "u"), ((4, 2), "2")], (2, 4)),
        (lambda: pointed_datum(7, random.Random(7)), [((5, 1), "1")], (1, 5)),
        (lambda: pointed_datum(7, random.Random(7)), [((3, 6), "z7^3")], (3, 6)),
        (lambda: pointed_datum(15, random.Random(15)), [((12, 4), "-z15")], (4, 12)),
    ], ids=["emit-variable", "emit-sum", "emit-last-row", "emit-two-rows", "emit-one-column",
            "pointed-one", "pointed-zeta", "pointed-15"])
    def test_asymmetric_block_names_its_first_pair(self, make, edits, pair):
        """The reported (i, j) is the first pair in row-major order where
        S_g differs from its transpose: on emitted data every pair is decided
        on keys but the edited ones, on pointed data many go through the
        product.  A load names the same pair."""
        d = make()
        g = Degree(alpha=1)
        for at, delta in edits:
            d = perturb_block(d, 0, *at, parse_scalar(delta, d.conductor))
        s = d.block(g, g).matrix.scale_columns(list(d.dims[g]))
        assert pair == next((i, j) for i in range(s.rows) for j in range(s.cols)
                            if s[i, j] != s[j, i])
        expected = [("modified-S-symmetric", ("a", *pair))]
        assert [(v.invariant, v.indices) for v in validate_datum(d)] == expected
        with pytest.raises(DatumInvariantError) as ei:
            loads_datum(dumps_datum(d))
        assert [(v.invariant, v.indices) for v in ei.value.violations] == expected

    def test_a_changed_dim_names_the_first_pair_of_its_column(self):
        d = emit_datum(5)
        g = Degree(alpha=1)
        dims = list(d.dims[g])
        dims[6] = dims[6] * parse_scalar("-u", 5)
        bad = dataclasses.replace(d, dims={**d.dims, g: tuple(dims)})
        assert [(v.invariant, v.indices) for v in validate_datum(bad)] == \
            [("modified-S-symmetric", ("a", 0, 6))]
        assert d.block(g, g).matrix.asymmetric_pair(dims) == (0, 6)

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
        dims = tuple(x * 3 for x in d.dims[g])
        with pytest.raises(TypeError, match="dataclasses.replace"):
            d.dims[g] = dims
        assert modified_S(d, g) is s
        changed = dataclasses.replace(d, dims={**d.dims, g: dims})
        assert modified_S(changed, g) == d.block(g, g).matrix.scale_columns(list(dims)) != s

    def test_block_entries_changed_in_place_are_not_served_stale(self):
        # row 0 of the (a, a) block copied over row 1 leaves rank 4 < 5
        d = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        assert checks_mod.check_nondegeneracy(d, g).status == HOLDS
        block = d.block(g, g)
        m = block.matrix
        edited = list(m.entries)
        edited[m.cols:2 * m.cols] = m.entries[:m.cols]
        with pytest.raises(TypeError):
            m.entries[m.cols:2 * m.cols] = m.entries[:m.cols]
        assert checks_mod.check_nondegeneracy(d, g).status == HOLDS
        changed = dataclasses.replace(block, matrix=ExactMatrix(m.rows, m.cols, m.conductor, edited))
        d2 = dataclasses.replace(d, sprime=tuple(changed if b is block else b for b in d.sprime))
        assert checks_mod.check_nondegeneracy(d2, g).status == FAILS

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


# Each edit is (field, the field's new value) for d at degree g.

def _edit_twists(d, g):
    return "twists", {**d.twists, g: tuple(t * CycScalar.zeta(d.conductor) for t in d.twists[g])}


def _edit_dims(d, g):
    return "dims", {**d.dims, g: tuple(x * 2 for x in d.dims[g])}


def _edit_block(d, g):
    return "sprime", perturb_block(d, 0, 1, 0, CycScalar.one(d.conductor)).sprime


def _edit_dual(d, g):
    # an equal permutation in a new tuple
    return "dual_involution", {**d.dual_involution, g: tuple(list(d.dual_involution[g]))}


def _edited(d, g, edit):
    """d with edit made through dataclasses.replace, once the same edit made
    in place has raised TypeError: a table's entry for g, or the first block."""
    name, value = edit(d, g)
    with pytest.raises(TypeError):
        if name == "sprime":
            operator.setitem(d.sprime, 0, value[0])
        else:
            getattr(d, name)[g] = value[g]
    return dataclasses.replace(d, **{name: value})


class TestLiteralSharing:
    """loads_datum parses each distinct literal text once per call, and the
    (name, exponent) pairs of one document's values are shared, but no table
    outlives the call."""

    def test_each_distinct_text_is_parsed_once_per_call(self, monkeypatch):
        import relmod.datum as datum_mod
        texts = []
        original = datum_mod.parse_scalar

        def recording(text, conductor, **kwargs):
            texts.append(text)
            return original(text, conductor, **kwargs)

        monkeypatch.setattr(datum_mod, "parse_scalar", recording)
        d = pointed_datum(5, random.Random(3))
        doc = dumps_datum(d)
        every = [x for b in doc["sprime"] for row in b["entries"] for x in row] + \
            [x for table in ("dims", "twists") for vals in doc[table].values() for x in vals]
        assert loads_datum(doc) == d
        assert sorted(texts) == sorted(set(every)) and len(texts) < len(every) / 4
        # no cache across calls
        assert loads_datum(doc) == d and len(texts) == 2 * len(set(texts))

    @staticmethod
    def pairs(d):
        """Every (name, exponent) pair object in the values of d's dims,
        twists and S' blocks."""
        values = [x for b in d.sprime for x in b.matrix.entries] + \
            [x for table in (d.dims, d.twists) for vals in table.values() for x in vals]
        return [p for x in values for _, vk in x.coeffs for p in vk]

    def test_equal_pairs_are_one_object_within_a_document(self):
        d = loads_datum(dumps_datum(emit_datum(5)))
        by_value = {}
        for p in self.pairs(d):
            by_value.setdefault(p, set()).add(id(p))
        assert len(by_value) > 10
        assert all(len(ids) == 1 for ids in by_value.values())

    def test_no_table_outlives_a_document(self):
        doc = dumps_datum(emit_datum(5))
        first, second = loads_datum(doc), loads_datum(doc)
        assert first == second
        ids = {id(p) for p in self.pairs(first)}
        assert ids and ids.isdisjoint(id(p) for p in self.pairs(second))
        # nor a bare parse_scalar call
        a, b = (scalars_mod.parse_scalar("s0_1^-2*u", 5) for _ in range(2))
        assert a == b and all(p is not q for p, q in zip(*(next(iter(x.coeffs))[1]
                                                          for x in (a, b))))

    def test_a_table_serves_one_conductor(self):
        # z5^3 is a zeta power at m = 5 and, at m = 7, a literal for the
        # scanner, which rejects the foreign root; a shared table would read
        # it as z7^3
        table = {}
        assert scalars_mod.parse_scalar("z5^3*u", 5, factors=table) == \
            CycScalar.zeta(5, 3) * CycScalar.variable("u", 5)
        with pytest.raises(ValueError, match="conductor 5 used over conductor 7"):
            scalars_mod.parse_scalar("z5^3*u", 7, factors=table)
        with pytest.raises(ValueError, match="conductor 5 used over conductor 7"):
            scalars_mod.parse_scalar("u", 7, factors=table)
        with pytest.raises(scalars_mod.ScalarParseError, match="z5 does not match"):
            scalars_mod.parse_scalar("z5^3*u", 7)
        # the table still serves its own conductor
        assert scalars_mod.parse_scalar("2*z5^3", 5, factors=table) == \
            2 * CycScalar.zeta(5, 3)

    def test_the_scalar_module_keeps_no_table(self):
        def sizes():
            out = {}
            for name, value in vars(scalars_mod).items():
                if name.startswith("__"):
                    continue
                if isinstance(value, (dict, set, list)):
                    out[name] = len(value)
                elif hasattr(value, "cache_info"):
                    out[name] = value.cache_info().currsize
            return out
        scalars_mod.parse_scalar("-2*z7^3*u", 7)  # fills the conductor's caches
        before = sizes()
        table = {}
        for i in range(40):
            text = f"-{i + 2}*z7^{i % 5 + 1}*s{i}_1^{i + 1}*u^-{i + 1}"
            assert scalars_mod.parse_scalar(text, 7, factors=table) == \
                scalars_mod.parse_scalar(text, 7)
        assert len(table) >= 120 and sizes() == before


class TestDeltaMemo:
    """check all computes (Delta_+, Delta_-, Delta_+ * Delta_-) once per
    degree and eliminates no S_g that a holding identity covers, and never
    serves a triple computed from other twists, dims, blocks or dual
    involution."""

    @pytest.fixture
    def delta_calls(self, monkeypatch):
        calls = []
        original = checks_mod.delta_minus

        def counting(datum, g, j):
            calls.append(g)
            return original(datum, g, j)

        monkeypatch.setattr(checks_mod, "delta_minus", counting)
        return calls

    @staticmethod
    def expected(d, g):
        dp, dm = checks_mod.delta_plus(d, g, 0), checks_mod.delta_minus(d, g, 0)
        return dp, dm, dp * dm

    def test_check_all_computes_each_degree_once(self, delta_calls, monkeypatch):
        ranked = []
        original = ExactMatrix._rank_and_kernel

        def recording(self):
            ranked.append(self)
            return original(self)

        monkeypatch.setattr(ExactMatrix, "_rank_and_kernel", recording)
        d = pointed_datum(5, random.Random(3))
        verdicts = check_all(d)
        assert all(v.status == HOLDS for v in verdicts)
        assert sorted(map(str, delta_calls)) == ["-a", "a"]
        # every S_g's rank is read off a holding modularity identity
        assert ranked == []
        for g in d.degrees:
            triple = checks_mod._try_deltas(d, g)
            assert checks_mod._try_deltas(d, g) is triple
            assert triple == self.expected(d, g)
        assert len(delta_calls) == 2 + len(d.degrees)

    @pytest.mark.parametrize("edit", [_edit_twists, _edit_dims, _edit_block, _edit_dual],
                             ids=["twists", "dims", "block", "dual-involution"])
    def test_inputs_replaced_in_place_give_fresh_values(self, delta_calls, edit):
        # an input cannot be replaced in place; a replaced datum computes afresh
        d = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        before = checks_mod._try_deltas(d, g)
        changed = _edited(d, g, edit)
        assert checks_mod._try_deltas(d, g) is before
        after = checks_mod._try_deltas(changed, g)
        assert len(delta_calls) == 2
        assert after == self.expected(changed, g)
        assert after is not before
        assert checks_mod._try_deltas(changed, g) is after

    def test_absent_dual_involution_is_not_served_stale(self, delta_calls):
        d = pointed_datum(5, random.Random(3))
        g = Degree(alpha=1)
        assert None not in checks_mod._try_deltas(d, g)
        with pytest.raises(TypeError):
            del d.dual_involution[g]
        assert g in d.dual_involution
        d = dataclasses.replace(d, dual_involution={
            k: v for k, v in d.dual_involution.items() if k != g})
        dp, dm, prod = checks_mod._try_deltas(d, g)
        assert dp is None and prod is None and dm == checks_mod.delta_minus(d, g, 0)

    def test_check_all_multiplies_each_delta_pair_once(self, monkeypatch):
        # check_nondegeneracy and check_relative_modularity read one product
        products = []
        original = CycScalar.__mul__

        def recording(self, other):
            products.append((self, other))
            return original(self, other)

        monkeypatch.setattr(CycScalar, "__mul__", recording)
        d = pointed_datum(5, random.Random(3))
        assert all(v.status == HOLDS for v in check_all(d))
        for g in d.degrees:
            dp, dm, prod = checks_mod._try_deltas(d, g)
            assert sum(a is dp and b is dm for a, b in products) == 1
            assert prod == dp * dm

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_check_all_inverts_each_field_twist_once(self, seed):
        # validation and the Delta_- sum invert the same twists; a field
        # twist's inverse is computed once and then served by the cache
        d = pointed_datum(5, random.Random(seed))
        field_twists = {t for ts in d.twists.values() for t in ts if len(t.coeffs) > 1}
        assert field_twists
        cache = scalars_mod._field_inverse
        cache.cache_clear()
        try:
            assert all(v.status == HOLDS for v in check_all(loads_datum(dumps_datum(d))))
            assert cache.cache_info().misses == len(field_twists)
            for t in field_twists:
                cache(5, tuple(sorted((zp, c) for (zp, _), c in t.coeffs.items())))
            assert cache.cache_info().misses == len(field_twists)
        finally:
            cache.cache_clear()


class TestBlockIndex:
    def test_the_first_block_for_a_pair_wins(self):
        d = emit_datum(3)
        a = Degree(alpha=1)
        block = d.block(a, a)
        assert block is d.sprime[[(b.row_degree, b.col_degree) for b in d.sprime].index((a, a))]
        zero = dataclasses.replace(block, matrix=zero_matrix(
            block.matrix.rows, block.matrix.cols, 3))
        assert dataclasses.replace(d, sprime=d.sprime + (zero,)).block(a, a) is block
        assert dataclasses.replace(d, sprime=(zero,) + d.sprime).block(a, a) is zero
        assert d.block(a, Degree(alpha=2)) is None

    def test_a_replaced_sprime_is_indexed_afresh(self):
        d = pointed_datum(3, random.Random(1))
        g = Degree(alpha=1)
        block = d.block(g, g)
        assert block is not None
        with pytest.raises(TypeError):
            del d.sprime[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.sprime = ()
        changed = dataclasses.replace(d, sprime=tuple(b for b in d.sprime if b.row_degree != g))
        assert changed.block(g, g) is None
        assert d.block(g, g) is block


TABLES = ("index_sets", "dims", "twists", "dual_involution")


def _datum_kinds():
    """A loaded, an emitted and a code-built datum."""
    return {"loaded": loads_datum(dumps_datum(pointed_datum(5, random.Random(3)))),
            "emitted": emit_datum(3), "code-built": pointed_datum(3, random.Random(1))}


class TestReadOnlyTables:
    """A datum's four degree-keyed tables refuse every change, and are still
    dicts to everything that reads them."""

    @pytest.mark.parametrize("kind", ["loaded", "emitted", "code-built"])
    def test_every_mutator_raises(self, kind):
        d = _datum_kinds()[kind]
        g = d.degrees[0]
        for name in TABLES:
            table = getattr(d, name)
            before = dict(table)
            value = table.get(g, ())
            for edit in (lambda: table.__setitem__(g, value),
                         lambda: table.__delitem__(g),
                         lambda: table.pop(g),
                         lambda: table.pop(g, None),
                         lambda: table.popitem(),
                         lambda: table.setdefault(g, value),
                         lambda: table.update({g: value}),
                         lambda: table.update(),
                         lambda: table.clear(),
                         lambda: operator.ior(table, {g: value})):
                with pytest.raises(TypeError, match="dataclasses.replace"):
                    edit()
            assert getattr(d, name) is table and table == before
        assert type(d.extra) is dict   # extra stays as given

    def test_copies_and_writers_see_a_plain_dict(self):
        for d in _datum_kinds().values():
            g = d.degrees[0]
            modified_S(d, g)   # a memo entry rides along with the copies
            text = json_text(dumps_datum(d))
            plain = {name: dict(getattr(d, name)) for name in TABLES}
            for name, table in plain.items():
                assert getattr(d, name) == table and repr(getattr(d, name)) == repr(table)
            for other in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d)),
                          dataclasses.replace(d), dataclasses.replace(d, **plain)):
                assert other == d and repr(other) == repr(d)
                assert json_text(dumps_datum(other)) == text
                assert other.block(g, g) == d.block(g, g)
                assert modified_S(other, g) == modified_S(d, g)
                for name in TABLES:
                    with pytest.raises(TypeError):
                        getattr(other, name)[g] = ()
            assert copy.deepcopy(d.dims) == d.dims == pickle.loads(pickle.dumps(d.dims))


class TestUnreadBlock:
    """An emitted datum's S' block is kept as texts until something reads its
    entries.  Copies, the writer, repr, dataclasses.replace, == and
    perturb_block give the same results whether or not it has been read, and
    only a read of the entries parses it."""

    @pytest.mark.parametrize("read_first", [False, True])
    def test_before_and_after_the_first_read(self, read_first):
        d = emit_datum(3)
        eager = loads_datum(dumps_datum(emit_datum(3)))   # parsed from its file
        g = d.degrees[0]
        assert is_unread(d.sprime[0].matrix) and not is_unread(eager.sprime[0].matrix)
        if read_first:
            assert d.sprime[0].matrix.entries == eager.sprime[0].matrix.entries
        written = dumps_datum(eager)
        assert json_text(dumps_datum(d)) == json_text(written) and repr(d) == repr(eager)
        copies = (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d)),
                  dataclasses.replace(d), dataclasses.replace(d, extra={}))
        for other in (d,) + copies:
            assert is_unread(other.sprime[0].matrix) is not read_first
            assert json_text(dumps_datum(other)["sprime"]) == json_text(written["sprime"])
            assert repr(other.sprime) == repr(eager.sprime)
            assert is_unread(other.sprime[0].matrix) is not read_first
        for other in copies:
            assert other.sprime == d.sprime == eager.sprime
            assert not is_unread(other.sprime[0].matrix)
            assert modified_S(other, g) == modified_S(eager, g)
        delta = CycScalar.variable("u", 3)
        for base in (emit_datum(3), d):
            bumped = perturb_block(base, 0, 0, 1, delta)
            m, e = bumped.sprime[0].matrix, eager.sprime[0].matrix
            assert m[0, 1] == e[0, 1] + delta
            assert all(m[i, j] == e[i, j] for i in range(6) for j in range(6) if (i, j) != (0, 1))
            assert bumped != base and base.sprime == eager.sprime


class TestValidationOncePerLoad:
    """check_premodular_inputs reads the validation that loads_datum made;
    a datum cannot be edited in place, and one made by dataclasses.replace
    validates afresh."""

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
        with pytest.raises(TypeError):
            d.dims[g] = (CycScalar.zero(d.conductor),) + d.dims[g][1:]
        assert check_premodular_inputs(d).status == HOLDS
        assert len(calls) == 1
        # equal values in a new tuple
        d = dataclasses.replace(d, dims={**d.dims, g: tuple(list(d.dims[g]))})
        assert check_premodular_inputs(d).status == HOLDS
        assert len(calls) == 2
        d = dataclasses.replace(d, dims={**d.dims, g: (CycScalar.zero(d.conductor),) + d.dims[g][1:]})
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
        for edit in (lambda: d.twists.__setitem__(g, tuple(list(d.twists[g]))),
                     lambda: d.index_sets.__setitem__(g, tuple(list(d.index_sets[g]))),
                     lambda: d.dual_involution.__setitem__(g, d.dual_involution[g]),
                     lambda: d.dims.pop(g),
                     lambda: operator.setitem(d.sprime, 0, d.sprime[0])):
            with pytest.raises(TypeError):
                edit()
        check_premodular_inputs(d)
        assert calls == []

        def without(table, key):
            return {k: v for k, v in table.items() if k != key}

        changes = [{"twists": {**d.twists, g: tuple(list(d.twists[g]))}},
                   {"index_sets": {**d.index_sets, g: tuple(list(d.index_sets[g]))}},
                   {"dual_involution": {**d.dual_involution,
                                        g: tuple(list(d.dual_involution[g]))}},
                   {"dims": without(d.dims, g)},
                   {"sprime": tuple(list(d.sprime))}]
        for n, change in enumerate(changes, 1):
            check_premodular_inputs(dataclasses.replace(d, **change))
            assert len(calls) == n
        # the twists tuple moved under the same key object into the dims
        # table, in place of the dims
        (key,) = [k for k in d.twists if k == g]
        moved = dataclasses.replace(d, dims={**without(d.dims, key), key: d.twists[key]},
                                    twists=without(d.twists, key))
        verdict = check_premodular_inputs(moved)
        assert len(calls) == len(changes) + 1
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

    def test_scalar_leaves(self):
        """ints, True, False and None are written without json.dumps, in
        every place a leaf can sit; the text stays json.dumps's."""
        class Level(enum.IntEnum):
            HIGH = 3

        big = 2 ** 64 + 1
        ints = [0, 1, -1, 2 ** 63, -(2 ** 63) - 1, big, -big, 10 ** 100, -(10 ** 100), Level.HIGH]
        leaves = [*ints, True, False, None]
        for obj in (*leaves, leaves, tuple(leaves), [True], [False], [None], [big],
                    {"a": big, "b": -7, "c": True, "d": False, "e": None, "f": Level.HIGH},
                    [True, "x", None, [False, {"n": -big}], {}, []],
                    {"mixed": [1, "1", True, None, -0, {"z": [False, 10 ** 30]}]},
                    {1: True, 2: None, 3: -big}):
            assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True), obj

    def test_floats_are_written_by_json_dumps(self):
        for obj in (-0.0, 0.0, 1e300, -1e-300, float("inf"), float("-inf"), float("nan"),
                    [0.5, -0.0, 1e300, float("nan")], {"f": float("-inf"), "g": [1, 1.0, True]}):
            assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True), obj

    def test_datum_files_are_the_json_dumps_text(self, tmp_path):
        d = emit_datum(5)
        path = tmp_path / "e5.json"
        save_datum(d, str(path))
        assert path.read_text() == json.dumps(dumps_datum(d), indent=2, sort_keys=True) + "\n"
