import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import conftest
import relmod
from relmod.cli import main
from relmod.closure import dumps_closure, toy_closure_datum
from relmod.datum import SBlock, dumps_datum, save_datum
from relmod.matrices import ExactMatrix
from relmod.sl21 import emit_datum

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRankBound:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "sl21", "rank-bound", "--ell", "3")
        assert code == 0
        assert "3 proportionality classes" in out
        assert "not relative modular" in out

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "sl21", "rank-bound", "--ell", "5", "--format", "json")
        code2, out2, _ = run(capsys, "sl21", "rank-bound", "--ell", "5", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["bound"] == 10
        assert doc["fixed_point_free"] is True


class TestSl21Commands:
    def test_relations_corrected_passes(self, capsys):
        code, out, _ = run(capsys, "sl21", "relations", "--ell", "5", "--k", "2")
        assert code == 0
        assert "holds" in out

    def test_relations_paper_fails(self, capsys):
        code, out, _ = run(capsys, "sl21", "relations", "--ell", "5", "--k", "2",
                           "--convention", "paper")
        assert code == 1
        assert "A3 (2,2)" in out

    def test_fuse(self, capsys):
        code, out, _ = run(capsys, "sl21", "fuse", "--ell", "5", "--k", "3", "--i", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["output"] == {"k": 0, "i": 1, "parity": 1, "eps_power": 1}

    def test_emit_then_check(self, capsys, tmp_path):
        path = str(tmp_path / "d.json")
        code, _, _ = run(capsys, "sl21", "emit", "--ell", "3", "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "check", "premodular", "--datum", path)
        assert code == 0
        code, out, _ = run(capsys, "check", "nondeg", "--g", "a", "--datum", path)
        assert code == 1
        assert "fails" in out


def identity_datum_doc():
    """Degree-0 datum with an empty small subset, so 0 itself is generic."""
    return {
        "schema": "relmod-datum/1",
        "conductor": 5,
        "grading": {"cyclic_factors": [], "has_generic_torus": True,
                    "small_symmetric": {"kind": "list", "elements": []}},
        "translation": {"cyclic_factors": [], "quantum_dimension": {"table": [
            {"element": [], "value": "1"}]}, "psi": []},
        "degrees": [{}],
        "index_sets": {"0": ["0"]},
        "dims": {"0": ["1"]},
        "twists": {"0": ["1"]},
        "sprime": [{"row_degree": {}, "col_degree": {}, "entries": [["1"]]}],
        "dual_involution": {"0": [0]},
    }


class TestCheckCommand:
    def test_nondeg_at_degree_zero_on_identity_datum(self, capsys, tmp_path):
        p = tmp_path / "id.json"
        p.write_text(json.dumps(identity_datum_doc()))
        code, out, _ = run(capsys, "check", "nondeg", "--g", "0", "--datum", str(p))
        assert code == 0
        assert "holds" in out

    def test_check_all_cross_implication_consistent(self, capsys, tmp_path):
        import conftest, random
        from relmod.datum import save_datum
        datum = conftest.pointed_datum(3, random.Random(6))
        p = tmp_path / "pointed.json"
        save_datum(datum, str(p))
        code, out, _ = run(capsys, "check", "all", "--datum", str(p), "--format", "json")
        doc = json.loads(out)
        by_check = {}
        for rep in doc["reports"]:
            by_check.setdefault(rep["check"], []).append(rep["status"])
        assert set(by_check["relative-modularity"]) == {"holds"}
        assert set(by_check["nondegeneracy"]) == {"holds"}
        assert "cross-check" not in by_check
        assert code == 0

    def test_nondeg_at_non_generic_degree_is_hypothesis_not_met(self, capsys, tmp_path):
        p = tmp_path / "pointed.json"
        save_datum(conftest.pointed_datum(3), str(p))
        code, out, _ = run(capsys, "check", "nondeg", "--g", "0", "--datum", str(p),
                           "--format", "json")
        assert code == 1
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "hypothesis-not-met"
        assert report["witnesses"][0]["name"] == "generic degree required"

    def test_rank_constancy_command(self, capsys, tmp_path):
        p = tmp_path / "pointed.json"
        save_datum(conftest.pointed_datum(3), str(p))
        code, out, _ = run(capsys, "check", "rank-constancy", "--datum", str(p),
                           "--format", "json")
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["check"] == "rank-constancy"
        assert report["status"] == "holds"

    @pytest.mark.parametrize("argv, message", [
        (["check", "nondeg", "--g", "foo"], "foo"),
        (["sl21", "emit", "--ell", "4"], "ell must be odd"),
    ])
    def test_bad_value_is_usage_error(self, capsys, tmp_path, argv, message):
        p = tmp_path / "pointed.json"
        save_datum(conftest.pointed_datum(3), str(p))
        extra = ["--datum", str(p)] if argv[0] == "check" else ["--out", str(tmp_path / "x.json")]
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_missing_datum_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "nondeg", "--g", "a")
        assert code == 2
        assert "datum" in err

    def test_malformed_datum_reports_field_path(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "relmod-datum/1", "conductor": 5,
                                 "grading": {}, "translation": {},
                                 "degrees": [{"alpha": 1}],
                                 "index_sets": {"0": ["0"]},
                                 "dims": {"0": ["1 +"]},
                                 "twists": {"0": ["1"]},
                                 "sprime": []}))
        code, _, err = run(capsys, "check", "premodular", "--datum", str(p))
        assert code == 2
        assert "dims.0[0]" in err

    @pytest.mark.parametrize("field, value, path", [
        ("grading", [], "grading: expected a grading object"),
        ("grading", {"small_symmetric": []}, "grading.small_symmetric"),
        ("sprime", [{"row_degree": {}, "col_degree": {}, "entries": [["1", "0"], ["1"]]}],
         "sprime[0].entries[1]"),
        ("translation", [], "translation: expected an object"),
        ("translation", {"quantum_dimension": []},
         "translation.quantum_dimension: expected an object"),
        ("index_sets", [], "index_sets: expected an object"),
        ("index_sets", {"0": "0"}, "index_sets.0: expected a list"),
        ("dims", [], "dims: expected an object"),
        ("dims", {"3": ["1"]}, "dims.3: key must index into 'degrees'"),
        ("twists", [], "twists: expected an object"),
        ("degrees", {}, "degrees: expected a list"),
        ("dual_involution", [], "dual_involution: expected an object"),
        ("dual_involution", {"0": ["0"]}, "dual_involution.0: expected a list of integers"),
        ("degrees", [{"shift": []}], "degrees[0].shift: bad rational"),
        ("sprime", [{"row_degree": {}, "col_degree": {}, "entries": [["1"]], "row_labels": 5}],
         "sprime[0].row_labels: expected a list"),
        ("grading", {"has_generic_torus": "false"},
         "grading.has_generic_torus: expected a boolean"),
        ("translation", {"cyclic_factors": [], "no_self_extension": "false"},
         "translation.no_self_extension: expected a boolean"),
        ("conductor", True, "conductor: expected a positive integer"),
        ("orbit_count", True, "orbit_count: expected a non-negative integer"),
        ("degrees", [{"alpha": True}], "degrees[0].alpha: expected an integer"),
        ("grading", {"cyclic_factors": [True]},
         "grading.cyclic_factors: expected a list of integers"),
        ("degrees", [{"finite": [1]}],
         "degrees[0].finite: expected 0 components, one per cyclic factor [], got 1"),
        ("grading", {"cyclic_factors": [2], "small_symmetric": {
            "kind": "list", "elements": [{"finite": [-1]}]}},
         "grading.small_symmetric.elements[0].finite: expected components reduced "
         "modulo [2], got [-1]"),
        ("translation", {"cyclic_factors": [2, 0], "quantum_dimension": {
            "table": [{"element": [1, 0, 7], "value": "1"}]}},
         "translation.quantum_dimension.table[0].element: expected 2 components"),
        ("translation", {"psi": [{"degree": {}, "element": [1], "value": "1"}]},
         "translation.psi[0].element: expected 0 components"),
        ("degrees", [{"shift": 0.1}], "degrees[0].shift: bad rational"),
        ("degrees", [{"shift": True}], "degrees[0].shift: bad rational"),
        ("degrees", [{"shift": "0.5"}], "degrees[0].shift: bad rational"),
        ("degrees", [{"shift": "1e-3"}], "degrees[0].shift: bad rational"),
        ("degrees", [{"shift": "1/0"}], "degrees[0].shift: bad rational"),
        ("sprime", [{"row_degree": {}, "col_degree": {}, "entries": [["1", "2 *"], ["2 *", "1"]]}],
         "sprime[0].entries[0][1]: "),
    ], ids=["grading-list", "small-subset-list", "ragged-rows", "translation-list",
            "quantum-dimension-list", "index-sets-list", "index-set-string", "dims-list",
            "dims-key-out-of-range", "twists-list", "degrees-object", "dual-involution-list",
            "dual-involution-strings", "shift-list", "row-labels-int",
            "generic-torus-string", "no-self-extension-string", "conductor-bool",
            "orbit-count-bool", "alpha-bool", "cyclic-factors-bool",
            "finite-part-without-cyclic-factor", "small-element-unreduced",
            "qdim-element-extra-component", "psi-element-without-cyclic-factor",
            "shift-float", "shift-bool", "shift-decimal-string", "shift-exponent-string",
            "shift-zero-denominator", "repeated-malformed-literal"])
    def test_malformed_field_is_usage_error_with_path(self, capsys, tmp_path, field, value,
                                                       path):
        doc = identity_datum_doc()
        doc[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "premodular", "--datum", str(p))
        assert code == 2
        assert path in err

    def test_check_all_json_deterministic(self, capsys, tmp_path):
        path = str(tmp_path / "d.json")
        run(capsys, "sl21", "emit", "--ell", "3", "--out", path)
        code1, out1, _ = run(capsys, "check", "all", "--datum", path,
                             "--format", "json", "--allow-unmet")
        code2, out2, _ = run(capsys, "check", "all", "--datum", path,
                             "--format", "json", "--allow-unmet")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["exit_code"] == code1 == 1  # nondegeneracy fails on this datum

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("argv, missing", [
        (["nondeg"], "--g"),
        (["dmug"], "--g"),
        (["modularity", "--h", "a"], "--g"),
        (["modularity", "--g", "a"], "--h"),
    ])
    def test_missing_degree_is_usage_error(self, capsys, tmp_path, argv, missing):
        path = str(tmp_path / "d.json")
        run(capsys, "sl21", "emit", "--ell", "3", "--out", path)
        code, _, err = run(capsys, "check", *argv, "--datum", path)
        assert code == 2
        assert f"requires {missing}" in err

    @pytest.mark.parametrize("argv", [
        ["nondeg", "--g", "-a"],
        ["dmug", "--g", "-a"],
        ["modularity", "--g", "-a", "--h", "-a"],
        ["modularity", "--g", "a", "--h", "-a"],
    ])
    def test_negative_degree_as_separate_argument(self, capsys, tmp_path, argv):
        path = str(tmp_path / "p.json")
        save_datum(conftest.pointed_datum(3), path)
        attached = [argv[0]] + [f"{flag}={value}"
                                for flag, value in zip(argv[1::2], argv[2::2])]
        tail = ["--datum", path, "--format", "json"]
        code, out, _ = run(capsys, "check", *argv, *tail)
        code_attached, out_attached, _ = run(capsys, "check", *attached, *tail)
        assert code == code_attached == 0
        doc, doc_attached = json.loads(out), json.loads(out_attached)
        assert doc["reports"] == doc_attached["reports"]
        assert doc["invocation"] == ["check", *argv, *tail]

    def test_sl21_ell3_nondeg_report_is_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "sl21", "emit", "--ell", "3", "--out", "sl21-ell3.json")
        code, out, _ = run(capsys, "check", "nondeg", "--g", "a",
                           "--datum", "sl21-ell3.json", "--format", "json")
        assert code == 1
        assert out == (DATA / "sl21_ell3_nondeg.json").read_text()

    def test_sl21_ell3_witness_is_proportional_to_the_bareiss_one(self, capsys, tmp_path,
                                                                  monkeypatch):
        # sl21_ell3_kernel_bareiss.txt is the witness that eliminating the
        # whole 6x6 S_g gave; the reported one must span the same line.
        from relmod.scalars import parse_scalar
        monkeypatch.chdir(tmp_path)
        run(capsys, "sl21", "emit", "--ell", "3", "--out", "sl21-ell3.json")
        _, out, _ = run(capsys, "check", "nondeg", "--g", "a",
                        "--datum", "sl21-ell3.json", "--format", "json")
        (witness,) = json.loads(out)["reports"][0]["witnesses"]

        def vector(text):
            return [parse_scalar(t, 3) for t in text.strip().strip("()").split(", ")]

        new = vector(witness["value"])
        old = vector((DATA / "sl21_ell3_kernel_bareiss.txt").read_text())
        assert new == vector("(0, 0, u^-2, 1, 0, 0)")
        assert len(old) == len(new) == 6
        assert all(new[i] * old[j] == new[j] * old[i] for i in range(6) for j in range(6))

    def test_nondeg_on_full_rank_symbolic_block(self, capsys, tmp_path):
        # A principal block on four orbit representatives of the ell = 5 datum
        # holds distinct symmetric unknowns, so it has full rank; its inverse
        # is not a Laurent polynomial, and none is needed for the verdict.
        datum = emit_datum(5)
        (g,) = datum.degrees
        names = datum.index_sets[g]
        reps = sorted(names.index("{}_{}".format(*min(map(tuple, pair))))
                      for pair in datum.extra["x-sl21"]["row_pairs"])[:4]
        s = datum.sprime[0].matrix
        labels = tuple(names[i] for i in reps)
        block = ExactMatrix.from_rows([[s[i, j] for j in reps] for i in reps], datum.conductor)
        path = str(tmp_path / "lead4.json")
        save_datum(dataclasses.replace(
            datum, index_sets={g: labels},
            dims={g: tuple(datum.dims[g][i] for i in reps)},
            twists={g: tuple(datum.twists[g][i] for i in reps)},
            sprime=(SBlock(g, g, block, labels, labels),), extra={}), path)
        code, out, _ = run(capsys, "check", "nondeg", "--g", "a", "--datum", path,
                           "--format", "json")
        assert code == 1
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "data-absent"
        assert report["derived_scalars"] == {"rank(S_g)": "4"}

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        path = str(tmp_path / "d.json")
        run(capsys, "sl21", "emit", "--ell", "3", "--out", path)
        for fmt in ("json", "text"):
            first = run(capsys, "check", "all", "--datum", path, "--format", fmt)
            second = run(capsys, "check", "all", "--datum", path, "--format", fmt)
            assert first == second


class TestClosureCommands:
    def test_check_cor1_builtin_toy(self, capsys):
        code, out, _ = run(capsys, "closure", "check", "--cor", "1")
        assert code == 0
        assert "closure-cor1" in out

    def test_certify(self, capsys):
        code, out, _ = run(capsys, "closure", "certify", "--expr", "a*b*a",
                           "--depth", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True

    def test_certify_failure_exit_1(self, capsys, tmp_path):
        import relmod.closure as closure_mod
        toy = closure_mod.toy_closure_datum()
        import dataclasses
        crippled = dataclasses.replace(toy, product_rules=())
        p = tmp_path / "c.json"
        closure_mod.save_closure(crippled, str(p))
        code, out, _ = run(capsys, "closure", "certify", "--expr", "a*b",
                           "--closure", str(p))
        assert code == 1
        assert "stuck" in out

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc["atoms"][0].pop("name"), "atoms[0].name: missing required field"),
        (lambda doc: doc.update(grading=[]), "grading: expected a grading object"),
        (lambda doc: doc["grading"]["small_symmetric"].pop("kind"),
         "grading.small_symmetric.kind"),
        (lambda doc: doc["v_rules"][0].pop("atom"), "v_rules[0].atom: missing required field"),
        (lambda doc: doc["product_rules"][0].pop("left"),
         "product_rules[0].left: missing required field"),
        (lambda doc: doc["product_rules"][0].pop("right"),
         "product_rules[0].right: missing required field"),
        (lambda doc: doc["product_rules"][0]["rhs"][0].pop("atom"),
         "product_rules[0].rhs[0].atom: missing required field"),
        (lambda doc: doc["v_rules"][0].update(rhs=[{"v_power": 1}]),
         "v_rules[0].rhs[0].atom: missing required field"),
        (lambda doc: doc["product_rules"][0]["rhs"][0].update(v_power=[]),
         "product_rules[0].rhs[0].v_power: expected an integer"),
        (lambda doc: doc.update(product_rules={}), "product_rules: expected a list"),
        (lambda doc: doc.update(distinguished=[]), "$.distinguished: expected a string"),
        (lambda doc: doc["atoms"][0].update(dual=[]), "atoms[0].dual: expected a string"),
        (lambda doc: doc["atoms"][0].update(strong_decomposition="false"),
         "atoms[0].strong_decomposition: expected a boolean"),
        (lambda doc: doc["v_rules"][0].update(sd_asserted="false"),
         "v_rules[0].sd_asserted: expected a boolean"),
        (lambda doc: doc["grading"].update(has_generic_torus=1),
         "grading.has_generic_torus: expected a boolean"),
        (lambda doc: doc["product_rules"][0]["rhs"][0].update(v_power=True),
         "product_rules[0].rhs[0].v_power: expected an integer"),
        (lambda doc: doc.update(bound=True), "$.bound: expected an integer"),
        (lambda doc: doc["grading"].update(cyclic_factors=[2]),
         "grading.small_symmetric.elements[0].finite: expected 1 components"),
        (lambda doc: _z2_toy_closure(doc, []),
         "atoms[0].degree.finite: expected 1 components"),
        (lambda doc: _z2_toy_closure(doc, [3]),
         "atoms[0].degree.finite: expected components reduced modulo [2], got [3]"),
    ], ids=["nameless-atom", "grading-list", "small-subset-without-kind", "v-rule-without-atom",
            "product-rule-without-left", "product-rule-without-right", "rhs-term-without-atom",
            "v-rule-rhs-term-without-atom", "v-power-list", "product-rules-object",
            "distinguished-list", "dual-list", "strong-decomposition-string",
            "sd-asserted-string", "generic-torus-int", "v-power-bool", "bound-bool",
            "small-element-short-of-a-cyclic-factor", "atom-degree-short-of-a-cyclic-factor",
            "atom-degree-unreduced"])
    def test_malformed_closure_is_usage_error_with_path(self, capsys, tmp_path, edit, path):
        import relmod.closure as closure_mod
        doc = closure_mod.dumps_closure(closure_mod.toy_closure_datum())
        edit(doc)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "closure", "certify", "--expr", "a*b", "--closure", str(p))
        assert code == 2
        assert path in err

    def test_certify_without_expr_is_usage_error(self, capsys):
        code, _, err = run(capsys, "closure", "certify")
        assert code == 2
        assert "closure certify requires --expr" in err

    def test_closure_document_list_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[]")
        code, _, err = run(capsys, "closure", "certify", "--expr", "a*b", "--closure", str(p))
        assert code == 2
        assert "$: document must be a JSON object" in err

    def test_emit_toy_round_trip(self, capsys, tmp_path):
        p = str(tmp_path / "toy.json")
        code, _, _ = run(capsys, "closure", "emit-toy", "--out", p)
        assert code == 0
        code, out, _ = run(capsys, "closure", "check", "--cor", "2", "--closure", p)
        assert code == 0

    def test_z2_graded_toy_closure_loads(self, capsys, tmp_path):
        import relmod.closure as closure_mod
        doc = _z2_toy_closure(closure_mod.dumps_closure(closure_mod.toy_closure_datum()), [0])
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "closure", "check", "--cor", "2", "--closure", str(p))
        assert (code, "holds" in out) == (0, True)

    def test_negligible_flag_of_older_files_is_ignored(self, capsys, tmp_path):
        # the toy closure as emit-toy wrote it while atoms carried the flag
        import relmod.closure as closure_mod
        doc = closure_mod.dumps_closure(closure_mod.toy_closure_datum())
        for atom in doc["atoms"]:
            atom["negligible"] = False
        p = tmp_path / "old.json"
        p.write_text(json.dumps(doc))
        assert closure_mod.load_closure(str(p)) == closure_mod.toy_closure_datum()

        def reports(*argv):
            code, out, err = run(capsys, *argv, "--format", "json")
            doc = json.loads(out)
            doc.pop("invocation")
            return code, doc, err

        for cor in ("1", "2"):
            assert reports("closure", "check", "--cor", cor, "--closure", str(p)) == \
                reports("closure", "check", "--cor", cor)
        for expr in closure_mod.toy_expressions():
            old = reports("closure", "certify", "--expr", expr, "--closure", str(p))
            assert old[0] == 0 and old == reports("closure", "certify", "--expr", expr)


def _z2_toy_closure(doc, finite_a):
    """The toy closure document over Z/2 x the generic torus: finite part [0]
    on every degree except atom a's, which is finite_a."""
    doc["grading"]["cyclic_factors"] = [2]
    for d in doc["grading"]["small_symmetric"]["elements"] + [a["degree"] for a in doc["atoms"]]:
        d["finite"] = [0]
    doc["atoms"][0]["degree"]["finite"] = finite_a
    return doc


# SHA-256 over (argv, exit code, stdout) of every invocation in
# `_pinned_invocations`, one JSON line each.  A change to the scalar or matrix
# kernels must leave these reports as they are.
PINNED_REPORTS_SHA256 = "4cc689ba0402e908b720c845f63dcef5de9f442e4f08d91c634a0587cbf8e39e"


class TestClosedStdout:
    def test_closed_stdout_keeps_the_verdict_code(self, capsys, tmp_path):
        path = str(tmp_path / "d.json")
        save_datum(emit_datum(3), path)
        argv = ["check", "all", "--datum", path, "--format", "json"]
        expected = main(argv)
        capsys.readouterr()
        assert expected == 1
        src = str(Path(relmod.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)  # a reader that has gone away, as after `| head`
        try:
            proc = subprocess.run([sys.executable, "-m", "relmod", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == expected
        assert proc.stderr == b""


def _pinned_invocations(tmp_path):
    import random
    import conftest
    from relmod.closure import toy_expressions
    data = {f"pointed-{n}.json": conftest.pointed_datum(n) for n in (3, 5)}
    for size in (1, 2, 3, 4):
        data[f"planted-{size}.json"] = conftest.planted_modularity_datum(
            random.Random(size), size)[0]
    data["sl21-ell3.json"] = emit_datum(3)
    for name, datum in data.items():
        save_datum(datum, str(tmp_path / name))
    for name in data:
        for fmt in ("json", "text"):
            yield ["check", "all", "--datum", name, "--format", fmt]
    for expr in toy_expressions():
        yield ["closure", "certify", "--expr", expr, "--format", "json"]


class TestPinnedReports:
    def test_check_all_and_certify_reports_are_pinned(self, capsys, tmp_path, monkeypatch):
        import hashlib
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for argv in _pinned_invocations(tmp_path):
            code, out, _ = run(capsys, *argv)
            digest.update((json.dumps([argv, code, out]) + "\n").encode())
        assert digest.hexdigest() == PINNED_REPORTS_SHA256


# SHA-256 over (argv, exit code, stdout) of every invocation in
# `_pinned_commands`, one JSON line each, followed by the bytes of any file an
# `--out` invocation wrote.  It pins the reports of the sl21 and closure
# subcommands that `PINNED_REPORTS_SHA256` does not reach.
PINNED_COMMANDS_SHA256 = "27725a5b13ddc1cb4cd97d4c2c2e39f8dffa715ab772557810200bcbef586669"


def _pinned_commands():
    for fmt in ("json", "text"):
        tail = ["--format", fmt]
        yield ["sl21", "emit", "--ell", "3", *tail]
        yield ["sl21", "emit", "--ell", "3", "--out", f"emit-{fmt}.json", *tail]
        yield ["sl21", "relations", "--ell", "5", "--k", "2", *tail]
        yield ["sl21", "relations", "--ell", "5", "--k", "2", "--convention", "paper", *tail]
        yield ["sl21", "relations", "--ell", "3", "--k", "1", "--convention", "corrected", *tail]
        yield ["sl21", "fuse", "--ell", "5", "--k", "3", "--i", "2", *tail]
        yield ["sl21", "fuse", "--ell", "7", "--k", "0", "--i", "-3", *tail]
        yield ["sl21", "rank-bound", "--ell", "5", *tail]
        yield ["closure", "check", "--cor", "1", *tail]
        yield ["closure", "check", "--cor", "2", *tail]
        yield ["closure", "emit-toy", *tail]
        yield ["closure", "emit-toy", "--out", f"toy-{fmt}.json", *tail]
        yield ["closure", "check", "--cor", "2", "--closure", f"toy-{fmt}.json", *tail]
        yield ["closure", "certify", "--expr", "a*b*a", "--depth", "0", *tail]
        yield ["closure", "certify", "--expr", "a*c", *tail]


class TestPinnedCommands:
    def test_sl21_and_closure_reports_are_pinned(self, capsys, tmp_path, monkeypatch):
        import hashlib
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for argv in _pinned_commands():
            code, out, _ = run(capsys, *argv)
            digest.update((json.dumps([argv, code, out]) + "\n").encode())
            if "--out" in argv:
                digest.update((tmp_path / argv[argv.index("--out") + 1]).read_bytes())
        assert digest.hexdigest() == PINNED_COMMANDS_SHA256


def _two_label_doc(**edits):
    """identity_datum_doc on two labels with a 2x2 identity block, then edits."""
    doc = identity_datum_doc()
    doc.update(index_sets={"0": ["0", "1"]}, dims={"0": ["1", "1"]},
               twists={"0": ["1", "1"]}, dual_involution={"0": [0, 1]})
    doc["sprime"][0]["entries"] = [["1", "0"], ["0", "1"]]
    doc.update(edits)
    return doc


def _generator_doc(value):
    """An infinite cyclic translation factor with generator quantum dimension
    `value`, and a table entry at the generator's inverse."""
    doc = identity_datum_doc()
    doc["translation"] = {"cyclic_factors": [0], "quantum_dimension": {
        "generator_values": [value], "table": [{"element": [-1], "value": "1"}]}}
    return doc


def _z2_pointed_doc(minus_a):
    """conftest's pointed n = 3 datum over Z/2 x the generic torus: finite
    part [1] on degree a, minus_a on -a and [0] on the small element."""
    doc = dumps_datum(conftest.pointed_datum(3))
    doc["grading"]["cyclic_factors"] = [2]
    doc["grading"]["small_symmetric"]["elements"] = [{"finite": [0]}]
    degrees = doc["degrees"] + [b[key] for b in doc["sprime"]
                                for key in ("row_degree", "col_degree")]
    for d in degrees:
        d["finite"] = [1] if d["alpha"] == 1 else minus_a
    return doc


def _dims_doc(literal):
    doc = identity_datum_doc()
    doc["dims"] = {"0": [literal]}
    return doc


def _emitted_twist_doc(literal):
    """The emitted ell = 3 datum with its second twist replaced by literal."""
    doc = dumps_datum(emit_datum(3))
    doc["twists"]["0"][1] = literal
    return doc


def _emitted_psi_doc(*values):
    """The emitted ell = 3 datum whose psi holds the values at degree a and
    element [1, 0], in order."""
    doc = dumps_datum(emit_datum(3))
    doc["translation"]["psi"] = [{"degree": {"alpha": 1}, "element": [1, 0], "value": v}
                                 for v in values]
    return doc


def _unmarked_closure_doc():
    """The toy closure document without its distinguished atom, while its
    rules still hold powers of v."""
    doc = dumps_closure(toy_closure_datum())
    del doc["distinguished"]
    return doc


# Each probe is (argv, file contents by name, expected stderr fragment).  A
# name in argv that is a key of the contents is replaced by the path of a file
# holding them (bytes as they are, anything else as JSON); "DIR" is a
# directory and "MISSING/" a directory that does not exist.
_BAD_INPUT_PROBES = {
    "datum-is-a-directory": (["check", "premodular", "--datum", "DIR"], {}, "DIR"),
    "closure-is-a-directory": (["closure", "check", "--closure", "DIR"], {}, "DIR"),
    "sl21-emit-unwritable-out": (["sl21", "emit", "--ell", "3", "--out", "MISSING/d.json"],
                                 {}, "cannot write"),
    "emit-toy-unwritable-out": (["closure", "emit-toy", "--out", "MISSING/c.json"],
                                {}, "cannot write"),
    "fuse-at-even-ell": (["sl21", "fuse", "--ell", "4", "--k", "0", "--i", "0"], {},
                         "--ell 4 --k 0 --i 0: ell must be odd"),
    "degree-division-by-zero": (["check", "nondeg", "--g", "1/0", "--datum", "ok.json"],
                                {"ok.json": identity_datum_doc()}, "--g"),
    **{f"degree-malformed-{text!r}": (["check", "nondeg", "--g", text, "--datum", "ok.json"],
                                      {"ok.json": identity_datum_doc()},
                                      f"--g: bad degree {text!r}: expected")
       for text in conftest.MALFORMED_DEGREES},
    "degree-finite-part-without-cyclic-factor": (
        ["check", "nondeg", "--g", "1|a", "--datum", "ok.json"],
        {"ok.json": identity_datum_doc()},
        "--g: bad degree '1|a': expected 0 components, one per cyclic factor [], got 1"),
    "degree-finite-part-unreduced": (
        ["check", "dmug", "--g", "3|a", "--datum", "z2.json"], {"z2.json": _z2_pointed_doc([1])},
        "--g: bad degree '3|a': expected components reduced modulo [2], got [3]"),
    "second-degree-finite-part-unreduced": (
        ["check", "modularity", "--g", "1|a", "--h", "-1|-a", "--datum", "z2.json"],
        {"z2.json": _z2_pointed_doc([1])}, "--h: bad degree '-1|-a'"),
    "datum-finite-part-unreduced": (
        ["check", "nondeg", "--g", "1|a", "--datum", "z2.json"],
        {"z2.json": _z2_pointed_doc([-1])},
        "degrees[1].finite: expected components reduced modulo [2], got [-1]"),
    "literal-division-by-zero": (["check", "premodular", "--datum", "d.json"],
                                 {"d.json": _dims_doc("1/0")}, "dims.0[0]"),
    "literal-zero-inverse": (["check", "premodular", "--datum", "d.json"],
                             {"d.json": _dims_doc("0^-1")}, "dims.0[0]"),
    "literal-non-unit-inverse": (["check", "premodular", "--datum", "d.json"],
                                 {"d.json": _dims_doc("(1+u)^-1")}, "dims.0[0]"),
    "json-nested-too-deep": (["check", "premodular", "--datum", "d.json"],
                             {"d.json": b"[" * 100_000 + b"]" * 100_000},
                             "$: JSON nested too deeply"),
    "literal-nested-too-deep": (["check", "premodular", "--datum", "d.json"],
                                {"d.json": _dims_doc("(" * 2000 + "1" + ")" * 2000)},
                                "dims.0[0]"),
    "expr-nested-too-deep": (["closure", "certify", "--expr", "(" * 3000 + "a" + ")" * 3000],
                             {}, "--expr"),
    "block-missing-a-row": (["check", "premodular", "--datum", "d.json"],
                            {"d.json": _two_label_doc(sprime=[{
                                "row_degree": {}, "col_degree": {},
                                "entries": [["1", "0"]]}])},
                            "[block-shape]"),
    "block-missing-a-column": (["check", "premodular", "--datum", "d.json"],
                               {"d.json": _two_label_doc(sprime=[{
                                   "row_degree": {}, "col_degree": {},
                                   "entries": [["1"], ["0"]]}])},
                               "[block-shape]"),
    "dims-one-label-short": (["check", "premodular", "--datum", "d.json"],
                             {"d.json": _two_label_doc(dims={"0": ["1"]})}, "[dims-aligned]"),
    "generator-zero": (["check", "premodular", "--datum", "d.json"],
                       {"d.json": _generator_doc("0")}, "('generator', 0)"),
    "generator-non-unit": (["check", "premodular", "--datum", "d.json"],
                           {"d.json": _generator_doc("1+u")}, "('generator', 0)"),
    "non-utf8-file": (["check", "premodular", "--datum", "d.json"],
                      {"d.json": b"\xff\xfe{}"}, "$: not valid JSON"),
    "literal-numeral-too-long": (["check", "premodular", "--datum", "d.json"],
                                 {"d.json": _dims_doc("1" * 5000)}, "dims.0[0]"),
    "literal-power-too-large": (["check", "premodular", "--datum", "d.json"],
                                {"d.json": _dims_doc("3^100000000")}, "dims.0[0]"),
    "literal-power-unprintable": (["check", "all", "--datum", "d.json"],
                                  {"d.json": _dims_doc("3^10000")}, "dims.0[0]"),
    "literal-product-unprintable": (["check", "all", "--datum", "d.json"],
                                    {"d.json": _dims_doc("2^14284*2^14284")}, "dims.0[0]"),
    "literal-sum-unprintable": (["check", "all", "--datum", "d.json"],
                                {"d.json": _dims_doc("2^14284+2^14284")}, "dims.0[0]"),
    "literal-operator-as-factor": (["check", "premodular", "--datum", "d.json"],
                                   {"d.json": _emitted_twist_doc("*")},
                                   "twists.0[1]: unexpected '*' at offset 0 in '*'"),
    "literal-operator-after-star": (["check", "premodular", "--datum", "d.json"],
                                    {"d.json": _emitted_twist_doc("u*)")},
                                    "twists.0[1]: unexpected ')' at offset 2 in 'u*)'"),
    "json-integer-too-long": (["closure", "check", "--closure", "c.json"],
                              {"c.json": b'{"bound": ' + b"1" * 5000 + b"}"},
                              "$: not valid JSON"),
    "psi-two-values-for-one-element": (["check", "premodular", "--datum", "d.json"],
                                       {"d.json": _emitted_psi_doc("u", "u^2")},
                                       "[psi-single-valued]"),
    "closure-v-power-without-distinguished-atom": (
        ["closure", "certify", "--expr", "a*b*a", "--closure", "c.json"],
        {"c.json": _unmarked_closure_doc()}, "no distinguished atom v is declared"),
    "negative-closure-bound": (["closure", "check", "--closure", "c.json"],
                               {"c.json": dict(dumps_closure(toy_closure_datum()), bound=-1)},
                               "$.bound"),
}


def _probe_argv(tmp_path, argv, files):
    (tmp_path / "DIR").mkdir()
    out = []
    for tok in argv:
        if tok in files:
            body = files[tok]
            p = tmp_path / tok
            p.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
            tok = str(p)
        elif tok == "DIR" or tok.startswith("MISSING/"):
            tok = str(tmp_path / tok)
        out.append(tok)
    return out


class TestBadInputIsUsageError:
    @pytest.mark.parametrize("name", sorted(_BAD_INPUT_PROBES))
    def test_probe_exits_2_with_a_path(self, capsys, tmp_path, name):
        argv, files, fragment = _BAD_INPUT_PROBES[name]
        code, out, err = run(capsys, *_probe_argv(tmp_path, argv, files))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "internal error" not in err
        assert fragment in err
        if fragment in ("DIR", "cannot write"):
            assert str(tmp_path) in err and "not found" not in err

    def test_reduced_z2_datum_holds(self, capsys, tmp_path):
        argv = _probe_argv(tmp_path, ["check", "nondeg", "--g", "1|a", "--datum", "z2.json"],
                           {"z2.json": _z2_pointed_doc([1])})
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "holds" and report["params"] == {"g": "1|a"}

    def test_power_of_a_sum_over_the_term_limit_is_rejected_quickly(self, capsys, tmp_path):
        # expanding it would take minutes; the term bound rejects it first
        argv = _probe_argv(tmp_path, ["check", "premodular", "--datum", "d.json"],
                           {"d.json": _dims_doc("(1+u+x+y)^60")})
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - t0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "dims.0[0]" in err and "terms" in err
        assert elapsed < 0.1, f"rejected after {elapsed:.3f}s"

    def test_other_value_error_in_sl21_code_is_internal(self, capsys, monkeypatch):
        def broken(ell):
            raise ValueError("shape mismatch")
        monkeypatch.setattr(relmod.cli, "emit_datum", broken)
        code, out, err = run(capsys, "sl21", "emit", "--ell", "5")
        assert (code, out) == (3, "")
        assert err == "internal error: ValueError: shape mismatch\n"

    def test_derivation_deeper_than_the_stack_is_depth_exhausted(self, capsys):
        word = "*".join(["a"] * 400)
        code, out, err = run(capsys, "closure", "certify", "--expr", word,
                             "--depth", "1000", "--format", "json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["certified"] is False and doc["exit_code"] == 1
        assert doc["failure"]["kind"] == "depth-exhausted"


# A value of each JSON type, to swap in for a value of another type.
_JSON_VALUES = {type(None): None, bool: True, int: -1, float: 0.5, str: "u", list: [], dict: {}}

# The valid documents the fuzzer mutates, each with the commands it is run on.
_FUZZ_CHECKS = (["check", "all", "--datum"], ["check", "premodular", "--datum"])
_FUZZ_CLOSURE = (["closure", "check", "--closure"],
                 ["closure", "certify", "--expr", "a*b*a", "--closure"])
_FUZZ_DOCUMENTS = {
    "sl21-ell3": (lambda: dumps_datum(emit_datum(3)), _FUZZ_CHECKS),
    "pointed-3": (lambda: dumps_datum(conftest.pointed_datum(3)), _FUZZ_CHECKS),
    "toy-closure": (lambda: dumps_closure(toy_closure_datum()), _FUZZ_CLOSURE),
}


def _mutate(draw, node):
    """node with one change at a drawn place: a key or list item deleted, a
    value swapped for one of another JSON type, wrapped in a list or
    unwrapped from one."""
    keys = []
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    if keys and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(keys))
        if draw(st.integers(0, 4)):
            node[key] = _mutate(draw, node[key])
        else:
            del node[key]
        return node
    how = draw(st.sampled_from(["retype", "wrap", "unwrap"]))
    if how == "wrap":
        return [node]
    if how == "unwrap" and isinstance(node, list) and node:
        return node[0]
    return draw(st.sampled_from([v for t, v in _JSON_VALUES.items() if type(node) is not t]))


class TestDocumentFuzzer:
    """Mutated documents give a verdict or a usage error, never exit 3."""

    @pytest.mark.parametrize("name", sorted(_FUZZ_DOCUMENTS))
    def test_mutated_document_is_a_verdict_or_a_usage_error(self, name, tmp_path_factory):
        build, commands = _FUZZ_DOCUMENTS[name]
        text = json.dumps(build())
        path = str(tmp_path_factory.mktemp("fuzz") / f"{name}.json")

        @given(data=st.data())
        @settings(max_examples=120, deadline=None)
        def check(data):
            doc = json.loads(text)
            for _ in range(data.draw(st.integers(1, 3))):
                doc = _mutate(data.draw, doc)
            Path(path).write_text(json.dumps(doc))
            for argv in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, path])
                assert code in (0, 1, 2), (argv, doc, err.getvalue())
                if code == 2:
                    assert err.getvalue().startswith("error: "), (argv, doc, err.getvalue())
                    assert "internal error" not in err.getvalue()

        check()
