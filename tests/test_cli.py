import dataclasses
import json
from pathlib import Path

import pytest

from relmod.cli import main
from relmod.datum import SBlock, save_datum
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

    def test_sl21_ell3_nondeg_report_is_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "sl21", "emit", "--ell", "3", "--out", "sl21-ell3.json")
        code, out, _ = run(capsys, "check", "nondeg", "--g", "a",
                           "--datum", "sl21-ell3.json", "--format", "json")
        assert code == 1
        assert out == (DATA / "sl21_ell3_nondeg.json").read_text()

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

    def test_thread_cap_does_not_change_output(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "d.json")
        run(capsys, "sl21", "emit", "--ell", "3", "--out", path)
        _, seq_out, _ = run(capsys, "check", "all", "--datum", path,
                            "--format", "json", "--allow-unmet")
        monkeypatch.setenv("RELMOD_THREADS", "4")
        _, par_out, _ = run(capsys, "check", "all", "--datum", path,
                            "--format", "json", "--allow-unmet")
        assert seq_out == par_out


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

    def test_emit_toy_round_trip(self, capsys, tmp_path):
        p = str(tmp_path / "toy.json")
        code, _, _ = run(capsys, "closure", "emit-toy", "--out", p)
        assert code == 0
        code, out, _ = run(capsys, "closure", "check", "--cor", "2", "--closure", p)
        assert code == 0
