"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All comparisons are
exact (tolerance 0); runtime limits are asserted where stated.
"""

import dataclasses
import json
import random
import time
from fractions import Fraction

from conftest import (
    field_gauss_rank,
    perturb_block,
    planted_modularity_datum,
    pointed_datum,
    pointed_zeta,
    random_matrix,
)
from relmod.checks import (
    check_premodular_inputs,
    check_relative_modularity,
    delta_minus,
)
from relmod.cli import main
from relmod.datum import Degree, GradingSpec, SmallSubset, load_datum, modified_S, save_datum
from relmod.matrices import ExactMatrix
from relmod.scalars import CycScalar, parse_scalar
from relmod.sl21 import (
    WeightLabel,
    build_Ak,
    character_of_label,
    character_of_rep,
    check_relations,
    closed_form_Ak,
    decompose_typical,
    fuse_A,
    select_convention,
    standard_module_character,
    tensor_rep,
    typical_character,
)
from relmod.closure import (
    Certificate,
    certify,
    check_cor1,
    replay_certificate,
    toy_closure_datum,
    toy_expressions,
)
from relmod.verdicts import FAILS, HOLDS

G = Degree(alpha=1)


def _report(n, name):
    print(f"\n[acceptance] criterion {n} ({name}): PASS")


def test_criterion_1_rank_bound_reproduction(capsys):
    expected = {3: 3, 5: 10, 7: 21}
    for ell, bound in expected.items():
        t0 = time.perf_counter()
        code = main(["sl21", "rank-bound", "--ell", str(ell), "--format", "json"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == bound, (ell, doc["bound"])
        assert len(doc["classes"]) == bound
        assert doc["fixed_point_free"] is True
        assert "not relative modular" in doc["verdict"]
        assert elapsed < 1.0, f"ell={ell} took {elapsed:.3f}s"
    with capsys.disabled():
        _report(1, "rank-bound 3/10/21, fixed-point-free, not relative modular")


def test_criterion_8_nondegeneracy_fails_at_the_rank_bound(capsys, tmp_path, monkeypatch):
    """The checks engine itself finds S_g degenerate at ell = 5 and 7, with the
    rank of criterion 1 and a kernel witness, without eliminating all of S_g."""
    monkeypatch.chdir(tmp_path)
    calls = []
    original = ExactMatrix._bareiss

    def counting(m, *args, **kwargs):
        calls.append((m.rows, m.cols))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(ExactMatrix, "_bareiss", counting)
    for ell in (5, 7):
        assert main(["sl21", "rank-bound", "--ell", str(ell), "--format", "json"]) == 0
        bound = json.loads(capsys.readouterr().out)["bound"]
        path = f"sl21-ell{ell}.json"
        assert main(["sl21", "emit", "--ell", str(ell), "--out", path]) == 0
        capsys.readouterr()
        calls.clear()
        t0 = time.perf_counter()
        code = main(["check", "nondeg", "--g", "a", "--datum", path, "--format", "json"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 1
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "fails"
        assert report["derived_scalars"]["rank(S_g)"] == str(bound)
        (witness,) = [w for w in report["witnesses"] if w["name"] == "kernel vector of S_g"]
        # S_g v = 0 by products of parsed scalars, no elimination involved
        s = modified_S(load_datum(path), G)
        v = [parse_scalar(t, s.conductor) for t in witness["value"].strip("()").split(", ")]
        assert len(v) == s.cols and any(not x.is_zero for x in v)
        for i in range(s.rows):
            acc = CycScalar.zero(s.conductor)
            for j in range(s.cols):
                acc = acc + s[i, j] * v[j]
            assert acc.is_zero, (ell, i)
        assert calls and all(cols < s.cols for _, cols in calls), calls
        assert elapsed < 10.0, f"ell={ell} took {elapsed:.3f}s"
    assert main(["check", "all", "--datum", "sl21-ell5.json", "--format", "json"]) == 1
    statuses = {r["check"]: r["status"] for r in json.loads(capsys.readouterr().out)["reports"]}
    assert statuses["nondegeneracy"] == "fails"
    with capsys.disabled():
        _report(8, "check nondeg fails at ell = 5, 7 with rank 10/21 and a checked kernel vector")


def test_criterion_8b_nondegeneracy_at_ell_9_and_11(capsys, tmp_path, monkeypatch):
    """Criterion 8 at the next two odd ell: rank ell(ell-1)/2 = 36 and 55, a
    kernel witness checked by an exact product S_g v = 0, within the same
    10 s bound per run."""
    monkeypatch.chdir(tmp_path)
    for ell, rank in ((9, 36), (11, 55)):
        assert rank == ell * (ell - 1) // 2
        path = f"sl21-ell{ell}.json"
        assert main(["sl21", "emit", "--ell", str(ell), "--out", path]) == 0
        capsys.readouterr()
        t0 = time.perf_counter()
        code = main(["check", "nondeg", "--g", "a", "--datum", path, "--format", "json"])
        elapsed = time.perf_counter() - t0
        assert code == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["status"] == "fails"
        assert report["derived_scalars"]["rank(S_g)"] == str(rank)
        (witness,) = [w for w in report["witnesses"] if w["name"] == "kernel vector of S_g"]
        s = modified_S(load_datum(path), G)
        v = [parse_scalar(t, s.conductor) for t in witness["value"].strip("()").split(", ")]
        assert len(v) == s.cols and any(not x.is_zero for x in v)
        for i in range(s.rows):
            acc = CycScalar.zero(s.conductor)
            for j in range(s.cols):
                acc = acc + s[i, j] * v[j]
            assert acc.is_zero, (ell, i)
        assert elapsed < 10.0, f"ell={ell} took {elapsed:.3f}s"
    with capsys.disabled():
        _report("8b", "check nondeg fails at ell = 9, 11 with rank 36/55 and a checked kernel vector")


def test_criterion_10_check_all_on_large_pointed_data(capsys, tmp_path):
    """check all on the pointed data at n = 15 and 21: all ten verdicts hold,
    every relative-modularity verdict finds the planted zeta, and each run
    takes under 1 s in process."""
    for n in (15, 21):
        datum = pointed_datum(n)
        path = str(tmp_path / f"pointed-{n}.json")
        save_datum(datum, path)
        t0 = time.perf_counter()
        code = main(["check", "all", "--datum", path, "--format", "json"])
        elapsed = time.perf_counter() - t0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert code == 0
        assert len(reports) == 10 and all(r["status"] == "holds" for r in reports), reports
        zetas = [r["derived_scalars"]["zeta_Omega"] for r in reports
                 if r["check"] == "relative-modularity"]
        assert len(zetas) == 4
        assert all(parse_scalar(z, n) == pointed_zeta(datum) for z in zetas), zetas
        assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"
    with capsys.disabled():
        _report(10, "check all holds on pointed n = 15, 21 with the planted zeta, < 1 s each")


def test_criterion_11_relations_on_a_tensor_product_at_ell_15(capsys):
    """check_relations on A5 (x) A6 at ell = 15 (dimension 11 * 13 = 143, the
    selected convention) holds, in under 2 s in process."""
    conv = select_convention(15)
    rep = tensor_rep(build_Ak(5, 15, conv), build_Ak(6, 15, conv))
    assert rep.dim == 143
    t0 = time.perf_counter()
    verdict = check_relations(rep)
    elapsed = time.perf_counter() - t0
    assert verdict.status == HOLDS, [w.name for w in verdict.witnesses]
    assert elapsed < 2.0, f"relations on A5 (x) A6 took {elapsed:.3f}s"
    with capsys.disabled():
        _report(11, f"relations hold on A5 (x) A6 at ell = 15 (dim 143) in {elapsed:.2f}s")


def test_criterion_2_defining_relation_suite():
    t0 = time.perf_counter()
    for ell in (3, 5, 7):
        conv = select_convention(ell)
        for k in range(1, ell):
            rep = build_Ak(k, ell, conv)
            assert rep.dim == 2 * k + 1
            labels = [(0, i) for i in range(k + 1)] + [(1, i) for i in range(k)]
            assert list(rep.labels) == labels
            assert [h[0] for h in rep.h_eigs] == [k - j - 2 * i for j, i in labels]
            assert [h[1] for h in rep.h_eigs] == [i + j for j, i in labels]
            verdict = check_relations(rep)
            assert verdict.status == HOLDS, (ell, k, [w.name for w in verdict.witnesses])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"relation suite took {elapsed:.2f}s"
    _report(2, f"relations (A1)-(A7), E2^2=F2^2=0, dims, H-spectra in {elapsed:.2f}s")


def test_criterion_3_character_identities():
    for ell in (3, 5, 7):
        conv = select_convention(ell)
        # closed forms, symbolically exact
        for k in range(1, ell):
            got = character_of_rep(build_Ak(k, ell, conv))
            want = closed_form_Ak(k, ell)
            assert got.plus == want.plus and got.minus == want.minus
        # tensor with the standard module
        v = standard_module_character()
        for k in range(1, ell - 2):
            labs = decompose_typical(typical_character(k, 0, ell) * v, ell)
            got = sorted((l.k, l.shift, l.parity, l.eps) for l in labs)
            assert got == sorted([(k + 1, 0, 0, 0), (k - 1, 1, 0, 0), (k, 1, 1, 0)])
        # A against the bottom typical, negligible flag included
        labs = decompose_typical(
            closed_form_Ak(ell - 1, ell) * typical_character(0, 0, ell), ell)
        flagged = sorted((l.k, l.shift, l.parity, l.negligible) for l in labs)
        assert flagged == sorted([(ell - 1, 0, 0, True), (ell - 2, 1, 1, False)])
        # fuse_A agrees with character decomposition on every label
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
                total = None
                for l in labs:
                    c = character_of_label(l, ell)
                    total = c if total is None else total + c
                assert total.plus == chi.plus and total.minus == chi.minus
    _report(3, "characters: closed forms, v-tensor rule, A-fusion on all (k,i)")


def test_criterion_4_checks_engine_oracle_equivalence():
    rng = random.Random(20260808)
    h = Degree(alpha=1, shift=Fraction(1))

    instances = []
    for idx in range(60):
        datum, zeta = planted_modularity_datum(rng, 1 + idx % 5)
        instances.append(("planted", datum, zeta, h))
    for idx in range(40):
        datum = pointed_datum(3 if idx % 2 else 5, rng)
        instances.append(("pointed", datum, pointed_zeta(datum), G))
    assert len(instances) == 100

    for kind, datum, zeta, hdeg in instances:
        v = check_relative_modularity(datum, G, hdeg)
        assert v.status == HOLDS, (kind, v.witnesses)
        assert v.derived_scalars["zeta_Omega"] == str(zeta)

    # 100 single-entry perturbations, each must fail with a verifiable witness
    perturbed = 0
    i = 0
    while perturbed < 100:
        kind, datum, zeta, hdeg = instances[i % len(instances)]
        i += 1
        n = len(datum.index_sets[G])
        if n < 2:
            continue
        block_index = 1 if kind == "planted" else 3
        r, c = rng.randrange(n), rng.randrange(n)
        bad = perturb_block(datum, block_index, r, c,
                            CycScalar.one(datum.conductor))
        sgh = modified_S(bad, G, hdeg)
        shng = modified_S(bad, hdeg, bad.negate(G))
        p = sgh @ shng
        zeta_c = p[0, 0]
        if all(p[a, b] == (zeta_c if a == b else CycScalar.zero(datum.conductor))
               for a in range(n) for b in range(n)) and not zeta_c.is_zero:
            continue  # perturbation accidentally preserved the identity shape
        v = check_relative_modularity(bad, G, hdeg)
        assert v.status == FAILS, (kind, r, c)
        w = v.witnesses[0]
        if w.name.startswith("off-diagonal"):
            ((a, b),) = w.indices
            assert not p[a, b].is_zero and a != b
        elif w.name.startswith("unequal diagonal"):
            (_, _), (a, b) = w.indices
            assert p[a, b] != zeta_c
        else:
            assert w.name.startswith("zeta candidate")
        perturbed += 1

    # minus-closure independence across j and across degrees on every
    # consistent instance
    for kind, datum, _, _ in instances:
        if kind != "pointed":
            continue
        n = len(datum.index_sets[G])
        vals = {str(delta_minus(datum, g, j))
                for g in (G, Degree(alpha=-1)) for j in range(n)}
        assert len(vals) == 1
    _report(4, "100 planted zeta instances, 100 refuting witnesses, "
               "Delta_minus independence")


def test_criterion_5_linear_algebra_oracle():
    rng = random.Random(5050)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, 5, height=10)
        assert m.rank() == field_gauss_rank(m)
    _report(5, "fraction-free rank == pivoted exact-division elimination, "
               "100 matrices <= 6x6 over Q(zeta_5)")


def test_criterion_6_closure_engine():
    t0 = time.perf_counter()
    toy = toy_closure_datum()
    assert check_cor1(toy).status == HOLDS
    exprs = toy_expressions()
    assert len(exprs) == 56
    for e in exprs:
        cert = certify(toy, e, depth=8)
        assert isinstance(cert, Certificate), (e, cert)
        assert replay_certificate(cert, toy)
    for rule in toy.product_rules:
        stripped = dataclasses.replace(toy, product_rules=tuple(
            r for r in toy.product_rules if r is not rule))
        v = check_cor1(stripped)
        assert v.status == FAILS
        assert v.witnesses[0].indices == (rule.left, rule.right)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"closure suite took {elapsed:.2f}s"
    _report(6, f"56 certificates + replay + rule-deletion refutations in {elapsed:.2f}s")


def test_criterion_7_negative_controls():
    datum = pointed_datum(3, random.Random(0))
    qdim_two = dataclasses.replace(
        datum, translation=dataclasses.replace(
            datum.translation, qdim_table=(((), CycScalar.rational(2, 3)),)))
    v = check_premodular_inputs(qdim_two)
    assert v.status == FAILS
    assert any(w.name == "free-realisation-quantum-dimension" for w in v.witnesses)

    asym = dataclasses.replace(
        datum, grading=GradingSpec(
            small=SmallSubset("list", (Degree(alpha=0, shift=Fraction(1, 3)),))))
    v = check_premodular_inputs(asym)
    assert v.status == FAILS
    assert any(w.name == "small-subset-symmetric" for w in v.witnesses)
    _report(7, "quantum-dimension and symmetry clauses rejected by name")
