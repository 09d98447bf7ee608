"""The three workloads: their inputs, job lists and per-job output checks.

Each plan function runs during set-up: it writes the workload's input files into
the run's work directory and returns a Plan.  A plan is a number of rounds
of jobs, run in order by one client, plus jobs that run once per run after
the rounds.  See README.md in this directory for why each workload exists
and which layer metrics are predicted to move which end-to-end metric.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import relmod.cli as cli
import relmod.closure as closure
import relmod.datum as datum_mod
import relmod.scalars as scalars
import relmod.sl21 as sl21

import inputs
from jobs import Job, Outcome, cli_call, library_call, require

@dataclass
class Plan:
    rounds: list[list[Job]]
    once: list[Job]
    deadline_s: float


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _doc(out: Outcome) -> dict:
    return json.loads(out.stdout)


def _reports(out: Outcome, expected_code: int) -> list[dict]:
    require(out.code == expected_code, f"exit code {out.code}, expected {expected_code}")
    doc = _doc(out)
    require(doc["exit_code"] == expected_code, f"report exit_code {doc['exit_code']}")
    return doc["reports"]


def _single(out: Outcome, expected_code: int, check: str) -> dict:
    reports = _reports(out, expected_code)
    require(len(reports) == 1 and reports[0]["check"] == check,
            f"expected one {check} report, got {[r['check'] for r in reports]}")
    return reports[0]


def _status(report: dict, status: str) -> None:
    require(report["status"] == status,
            f"{report['check']} {report['params']}: status {report['status']}, expected {status}")


def _parse_vector(text: str, conductor: int) -> list[scalars.CycScalar]:
    require(text.startswith("(") and text.endswith(")"), "kernel witness is not a vector")
    return [scalars.parse_scalar(x, conductor) for x in text[1:-1].split(", ")]


def _check_kernel(rows: list[list[scalars.CycScalar]], vec: list[scalars.CycScalar]) -> None:
    """S v = 0 by exact products, with v nonzero."""
    require(len(vec) == len(rows[0]), "kernel vector has the wrong length")
    require(any(not x.is_zero for x in vec), "kernel vector is zero")
    for i, row in enumerate(rows):
        acc = scalars.CycScalar.zero(vec[0].conductor)
        for a, x in zip(row, vec):
            acc = acc + a * x
        require(acc.is_zero, f"row {i} of S_g times the kernel vector is {acc}")


def _warm_up() -> None:
    """Fill the scalar lru_cache tables and the convention cache."""
    for m in (3, 5, 7):
        scalars.cyclotomic_coeffs(m)
        scalars._zeta_reduction_rows(m)
        sl21.select_convention(m)


def _two_uses(rounds: int) -> int:
    """Pool size so that every pooled input runs twice (the determinism check)."""
    return max(1, rounds // 2)


# ---------------------------------------------------------------------------
# pointed-field
# ---------------------------------------------------------------------------

# Planted data of size 4 and 5 cost one of two amounts, by whether a block has a
# zero entry.  Three n = 3 jobs, whose cost varies little, put the middle of each
# round's latencies among them, so job_p50 does not follow how many planted data
# of a seed fall on either side.
POINTED_ROUND = (("pointed-n3", 3), ("pointed-n5", 2)) + \
    tuple((f"planted-{s}", 1) for s in range(1, 7))


def _pointed_check(n: int, zeta: scalars.CycScalar):
    def check(out: Outcome) -> None:
        reports = _reports(out, 0)
        names = sorted(r["check"] for r in reports)
        require(names == sorted(["premodular-inputs", "rank-constancy"]
                                + ["nondegeneracy", "dmug"] * 2 + ["relative-modularity"] * 4),
                f"unexpected report set {names}")
        for r in reports:
            _status(r, "holds")
            if r["check"] == "relative-modularity":
                require(r["derived_scalars"]["zeta_Omega"] == str(zeta),
                        f"zeta_Omega {r['derived_scalars']['zeta_Omega']} != planted {zeta}")
            if r["check"] == "nondegeneracy":
                require(r["derived_scalars"]["rank(S_g)"] == str(n), "rank(S_g) != n")
    return check


def _planted_check(d, zeta: scalars.CycScalar, size: int):
    has_zero = any(e.is_zero for b in d.sprime for e in b.matrix.entries)

    def check(out: Outcome) -> None:
        reports = _reports(out, 1)
        by = {}
        for r in reports:
            by.setdefault(r["check"], []).append(r)
        require(sorted((k, len(v)) for k, v in by.items()) ==
                [("dmug", 3), ("nondegeneracy", 3), ("premodular-inputs", 1),
                 ("rank-constancy", 1), ("relative-modularity", 1)],
                f"unexpected report set {sorted(by)}")
        _status(by["premodular-inputs"][0], "holds")
        rc = by["rank-constancy"][0]
        if has_zero:
            _status(rc, "hypothesis-not-met")
        else:
            _status(rc, "holds")
            require(set(rc["derived_scalars"].values()) == {str(size)},
                    f"block ranks {rc['derived_scalars']} != {size}")
        for r in by["nondegeneracy"] + by["dmug"]:
            _status(r, "data-absent")
        mod = by["relative-modularity"][0]
        _status(mod, "holds")
        require(mod["params"] == {"g": "a", "h": "a+1"}, f"modularity pair {mod['params']}")
        require(mod["derived_scalars"]["zeta_Omega"] == str(zeta),
                f"zeta_Omega {mod['derived_scalars']['zeta_Omega']} != planted {zeta}")
    return check


def build_pointed_field(rng: random.Random, workdir: str, rounds: int) -> Plan:
    pool = _two_uses(rounds)
    made: dict[str, list[Job]] = {}

    def add(group: str, idx: int, d, check) -> Job:
        path = os.path.join(workdir, f"{group}-{idx}.json")
        datum_mod.save_datum(d, path)
        return Job(f"{group}#{idx}", group,
                   cli_call(cli, ["check", "all", "--format", "json", "--datum", path]), check)

    for group, per_round in POINTED_ROUND:
        made[group] = []
        for idx in range(pool * per_round):
            if group.startswith("pointed"):
                n = int(group[len("pointed-n"):])
                d, zeta = inputs.pointed_datum(n, rng)
                made[group].append(add(group, idx, d, _pointed_check(n, zeta)))
            else:
                size = int(group[len("planted-"):])
                d, zeta = inputs.planted_datum(rng, size)
                made[group].append(add(group, idx, d, _planted_check(d, zeta, size)))
    d7, zeta7 = inputs.pointed_datum(7, rng)
    once = [add("pointed-n7", 0, d7, _pointed_check(7, zeta7))]
    plan_rounds = []
    for r in range(rounds):
        jobs = []
        for group, per_round in POINTED_ROUND:
            for k in range(per_round):
                jobs.append(made[group][(r % pool) * per_round + k])
        random.Random(rng.random()).shuffle(jobs)
        plan_rounds.append(jobs)
    _warm_up()
    return Plan(plan_rounds, once, deadline_s=30.0)


# ---------------------------------------------------------------------------
# sl21-symbolic
# ---------------------------------------------------------------------------

LEAD_SIZES = (4, 5, 6)
RANK_BOUND = {3: 3, 5: 10, 7: 21}
LEAD_KNOWN = ("cofactor inverse of a full-rank symbolic S_g raises InexactDivision "
              "(exit 3); expected: data-absent verdict with rank k")
DEADLINE_KNOWN = ("Bareiss over the multivariate Laurent ring does not finish "
                  "within the deadline; expected: fails with rank {bound} and a kernel vector")


class _RoundTrip:
    """Checks that an emitted file loads and saves back byte for byte, once per content."""

    def __init__(self):
        self.first: dict[int, bytes] = {}

    def __call__(self, ell: int, path: str) -> None:
        with open(path, "rb") as fh:
            raw = fh.read()
        if ell in self.first:
            require(raw == self.first[ell], f"emitted ell={ell} file changed between runs")
            return
        again_path = path + ".again"
        datum_mod.save_datum(datum_mod.load_datum(path), again_path)
        with open(again_path, "rb") as fh:
            again = fh.read()
        os.remove(again_path)
        require(again == raw, f"ell={ell} datum does not round-trip through load and save")
        self.first[ell] = raw


def build_sl21_symbolic(rng: random.Random, workdir: str, rounds: int) -> Plan:
    paths = {ell: os.path.join(workdir, f"sl21-ell{ell}.json") for ell in (3, 5, 7)}
    roundtrip = _RoundTrip()

    def emit_job(ell: int) -> Job:
        path = paths[ell]

        def check(out: Outcome) -> None:
            require(out.code == 0, f"exit code {out.code}")
            doc = _doc(out)
            require(doc["ell"] == ell and doc["index_set_size"] == ell * (ell - 1)
                    and doc["out"] == path, f"emit report {doc}")
            roundtrip(ell, path)
        return Job(f"emit-{ell}", f"emit-{ell}",
                   cli_call(cli, ["sl21", "emit", "--ell", str(ell), "--out", path,
                                  "--format", "json"]), check)

    def premodular_job(ell: int) -> Job:
        def check(out: Outcome) -> None:
            _status(_single(out, 0, "premodular-inputs"), "holds")
        return Job(f"premodular-{ell}", f"premodular-{ell}",
                   cli_call(cli, ["check", "premodular", "--datum", paths[ell],
                                  "--format", "json"]), check)

    def nondeg_argv(path: str) -> list[str]:
        return ["check", "nondeg", "--g", "a", "--datum", path, "--format", "json"]

    e3 = sl21.emit_datum(3)
    s3 = datum_mod.modified_S(e3, e3.degrees[0]).to_rows()

    def nondeg3_check(out: Outcome) -> None:
        r = _single(out, 1, "nondegeneracy")
        _status(r, "fails")
        require(r["derived_scalars"]["rank(S_g)"] == "3", "rank(S_g) != 3 at ell=3")
        (w,) = [w for w in r["witnesses"] if w["name"] == "kernel vector of S_g"]
        _check_kernel(s3, _parse_vector(w["value"], 3))

    e5 = sl21.emit_datum(5)
    reps = inputs.orbit_representatives(e5)
    lead_jobs = []
    for k in LEAD_SIZES:
        positions = sorted(rng.sample(reps, k))
        path = os.path.join(workdir, f"sl21-ell5-lead{k}.json")
        datum_mod.save_datum(inputs.principal_block_datum(e5, positions), path)

        def lead_check(out: Outcome, k=k) -> None:
            r = _single(out, 1, "nondegeneracy")
            _status(r, "data-absent")
            require(r["derived_scalars"].get("rank(S_g)") == str(k), f"rank(S_g) != {k}")
        lead_jobs.append(Job(
            f"nondeg-ell5-lead{k}", f"nondeg-lead{k}", cli_call(cli, nondeg_argv(path)),
            lead_check, known=LEAD_KNOWN,
            known_signature=lambda out: out.code == 3 and "InexactDivision" in out.stderr))

    def full_nondeg(ell: int) -> Job:
        def check(out: Outcome) -> None:
            r = _single(out, 1, "nondegeneracy")
            _status(r, "fails")
            require(r["derived_scalars"]["rank(S_g)"] == str(RANK_BOUND[ell]),
                    f"rank(S_g) != {RANK_BOUND[ell]}")
            require(any(w["name"] == "kernel vector of S_g" for w in r["witnesses"]),
                    "no kernel witness")
        return Job(f"nondeg-ell{ell}", f"nondeg-ell{ell}", cli_call(cli, nondeg_argv(paths[ell])),
                   check, known=DEADLINE_KNOWN.format(bound=RANK_BOUND[ell]),
                   known_signature=lambda out: out.timed_out)

    one_round = [emit_job(3), premodular_job(3), emit_job(5), premodular_job(5),
                 emit_job(7), premodular_job(7),
                 Job("nondeg-ell3", "nondeg-ell3", cli_call(cli, nondeg_argv(paths[3])),
                     nondeg3_check)] + lead_jobs
    _warm_up()
    return Plan([list(one_round) for _ in range(rounds)],
                [full_nondeg(5), full_nondeg(7)], deadline_s=3.0)


# ---------------------------------------------------------------------------
# sl21-modules
# ---------------------------------------------------------------------------

def _certificate(doc: dict) -> closure.Certificate:
    return closure.Certificate(doc["kind"], doc["expr"], doc["justification"], doc["rule"],
                               [_certificate(c) for c in doc["children"]])


def build_sl21_modules(rng: random.Random, workdir: str, rounds: int) -> Plan:
    jobs: list[Job] = []
    for ell in (3, 5, 7):
        for k in range(1, ell):
            def check(out: Outcome, k=k) -> None:
                r = _single(out, 0, "sl21-relations")
                _status(r, "holds")
                require(r["params"]["dim"] == str(2 * k + 1), "module dimension")
                require(r["params"]["convention"] == "corrected", "convention")
            jobs.append(Job(f"relations-{ell}-{k}", f"relations-{ell}",
                            cli_call(cli, ["sl21", "relations", "--ell", str(ell), "--k", str(k),
                                           "--format", "json"]), check))

    def paper_check(out: Outcome) -> None:
        r = _single(out, 1, "sl21-relations")
        _status(r, "fails")
        require(any(w["name"].startswith("A3 (2,2)") for w in r["witnesses"]),
                "paper convention did not break (A3)(2,2)")
    jobs.append(Job("relations-paper", "relations-paper",
                    cli_call(cli, ["sl21", "relations", "--ell", "5", "--k", "3",
                                   "--convention", "paper", "--format", "json"]), paper_check))

    for ell in (3, 5, 7):
        pairs = [(1, 1), rng.choice([(1, 2), (2, 1)])]
        for k1, k2 in pairs:
            def tensor(ell=ell, k1=k1, k2=k2):
                conv = sl21.select_convention(ell)
                rep = sl21.tensor_rep(sl21.build_Ak(k1, ell, conv), sl21.build_Ak(k2, ell, conv))
                return rep.dim, sl21.check_relations(rep).to_json()

            def check(out: Outcome, k1=k1, k2=k2) -> None:
                dim, verdict = out.result
                require(dim == (2 * k1 + 1) * (2 * k2 + 1), "tensor dimension")
                _status(verdict, "holds")
            jobs.append(Job(f"tensor-{ell}-{k1}x{k2}", f"tensor-{ell}",
                            library_call(tensor), check))

    for ell in (3, 5, 7):
        for k in range(ell - 1):
            for i in range(ell):
                fuse = cli_call(cli, ["sl21", "fuse", "--ell", str(ell), "--k", str(k),
                                      "--i", str(i), "--format", "json"])

                def call(fuse=fuse, ell=ell, k=k, i=i) -> Outcome:
                    out = fuse()
                    chi = sl21.closed_form_Ak(ell - 1, ell) * sl21.typical_character(k, i, ell)
                    out.result = [(l.k, l.shift, l.parity, l.eps, l.negligible)
                                  for l in sl21.decompose_typical(chi, ell)]
                    return out

                def check(out: Outcome) -> None:
                    require(out.code == 0, f"exit code {out.code}")
                    o = _doc(out)["output"]
                    nonneg = [l[:4] for l in out.result if not l[4]]
                    require(nonneg == [(o["k"], o["i"], o["parity"], o["eps_power"])],
                            f"fuse_A gives {o}, decompose_typical gives {nonneg}")
                jobs.append(Job(f"fuse-{ell}-{k}-{i}", f"fuse-{ell}", call, check))

    for ell in (3, 5, 7):
        def check(out: Outcome, ell=ell) -> None:
            require(out.code == 0, f"exit code {out.code}")
            doc = _doc(out)
            bound = RANK_BOUND[ell]
            require(doc["bound"] == bound and len(doc["classes"]) == bound,
                    f"rank bound {doc['bound']} != {bound}")
            require(doc["fixed_point_free"] is True, "involution has a fixed point")
            labels = sorted(tuple(x) for pair in doc["classes"] for x in pair)
            require(labels == [(k, i) for k in range(ell - 1) for i in range(ell)],
                    "classes do not partition the labels")
        jobs.append(Job(f"rank-bound-{ell}", "rank-bound",
                        cli_call(cli, ["sl21", "rank-bound", "--ell", str(ell),
                                       "--format", "json"]), check))

    toy = closure.toy_closure_datum()
    for expr in closure.toy_expressions():
        certify = cli_call(cli, ["closure", "certify", "--expr", expr, "--format", "json"])

        def call(certify=certify) -> Outcome:
            out = certify()
            doc = _doc(out)
            out.result = doc["certified"] and closure.replay_certificate(
                _certificate(doc["certificate"]), toy)
            return out

        def check(out: Outcome, expr=expr) -> None:
            require(out.code == 0, f"exit code {out.code}")
            require(out.result is True, "certificate did not replay")
            require(_doc(out)["certificate"]["expr"] == expr, "certificate target")
        jobs.append(Job(f"certify-{expr}", "certify", call, check))

    plan_rounds = []
    for _ in range(rounds):
        order = list(jobs)
        rng.shuffle(order)
        plan_rounds.append(order)
    _warm_up()
    return Plan(plan_rounds, [], deadline_s=5.0)


PLANS = {
    "pointed-field": build_pointed_field,
    "sl21-symbolic": build_sl21_symbolic,
    "sl21-modules": build_sl21_modules,
}
