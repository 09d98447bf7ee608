"""relmod benchmark: closed-loop verifier workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pointed-field --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs every workload, each in its own process, and prints
one table.  The last line of stdout is always one JSON object.  With
``--trace 0`` it carries the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run (see layers.py) and the tracing overhead.

A run measures a fixed number of rounds, sized so that a run at the speed of
the reference machine (see README.md) lasts about ``--seconds``.  The count
does not follow the program's speed, so sample counts and tail percentiles
stay comparable between commits.  End-to-end times are scaled to the
reference machine's speed by a calibration probe (calibrate.py); the raw
values are printed in the comment lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import calibrate
from jobs import FAILED, KNOWN, OK, WRONG, Runner, judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("pointed-field", "sl21-symbolic", "sl21-modules")

# Seconds per round and for the once-per-run jobs, measured at the parent
# commit of this benchmark on a 2-core x86-64 VM with Python 3.11.
ROUND_S = {"pointed-field": 0.9, "sl21-symbolic": 1.75, "sl21-modules": 0.8}
ONCE_S = {"pointed-field": 3.0, "sl21-symbolic": 6.0, "sl21-modules": 0.0}
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}
# reported when more than half the jobs failed, so the median is unbounded
UNBOUNDED_MS = 1e9


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _environment() -> str:
    return (f"nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
            f"commit={_commit()}")


def rounds_for(workload: str, seconds: float) -> int:
    return max(2, round(max(0.0, seconds - ONCE_S[workload]) / ROUND_S[workload]))


def setup(workload: str, seed: int, workdir: str, rounds: int):
    """Import the program, generate the workload's inputs and warm up.

    Returns the plan and the set-up time, raw and scaled to reference speed
    by the calibration samples right before and right after it."""
    before = calibrate.speed_sample()
    t0 = time.perf_counter()
    import workloads  # imports relmod
    rng = random.Random(f"relmod-bench/{workload}/{seed}")
    plan = workloads.PLANS[workload](rng, workdir, rounds)
    raw = time.perf_counter() - t0
    return plan, raw, raw * calibrate.slot_factors([before, calibrate.speed_sample()])[0]


def _setup_probe(args, workdir: str) -> tuple[float, float]:
    """Set-up time (raw, scaled) of a fresh process doing the same set-up into ``workdir``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe", workdir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["raw_s"], doc["setup_s"]


def _tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    if not n:
        return UNBOUNDED_MS / 1000, 0, 0
    for p in range(99, 49, -1):
        k = math.ceil(p * n / 100)
        if n - k >= 10:
            return xs[k - 1], p, n
    return xs[math.ceil(n / 2) - 1], 50, n


class Row(NamedTuple):
    name: str
    group: str
    seconds: float
    status: str
    why: str
    round: int        # -1 - i for the i-th once-per-run job
    slot: int         # index of the calibration sample taken before the job; -1 if none


class Recorder:
    """Outcomes of one run, with the determinism check across repeats of a job.

    Only the verdict and the latency of each job are kept, so the recorder's
    own memory does not grow with the job's output.  ``probes[s]`` is the
    calibration sample that opens slot s and ``probes[s + 1]`` the one that
    closes it; a slot holds the jobs run between the two (see calibrate.py).
    """

    def __init__(self):
        self.rows: list[Row] = []
        self.digests: dict[str, str] = {}
        self.probes: list[float] = []
        self.peak_rss_mb = 0.0

    def add(self, job, outcome, round_index: int) -> None:
        status, why = judge(job, outcome)
        if status == OK:
            digest = outcome.digest()
            if self.digests.setdefault(job.name, digest) != digest:
                status, why = WRONG, "output differs from an earlier run of the same job"
        self.rows.append(Row(job.name, job.group, outcome.elapsed, status, why, round_index,
                             len(self.probes) - 1))


def measure(plan, recorder: Recorder) -> None:
    """Run the plan untraced.  A calibration sample opens the run, and another
    follows each job once the jobs since the last sample have taken
    calibrate.SLOT_S, and each once-per-run job."""
    with Runner(plan.deadline_s) as runner:
        recorder.probes.append(calibrate.speed_sample())
        since = 0.0
        for r, jobs in enumerate(plan.rounds):
            for job in jobs:
                outcome = runner.run(job)
                recorder.add(job, outcome, r)
                since += outcome.elapsed
                if since >= calibrate.SLOT_S:
                    recorder.probes.append(calibrate.speed_sample())
                    since = 0.0
        if since:
            recorder.probes.append(calibrate.speed_sample())
        # Once-per-run jobs are left out of the memory peak: at seed they run to the
        # deadline, and how much they allocate by then follows the machine's speed.
        recorder.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for i, job in enumerate(plan.once):
            recorder.add(job, runner.run(job), -1 - i)
            recorder.probes.append(calibrate.speed_sample())


def measure_traced(plan, recorder: Recorder, tracer, paired_rounds: int) -> list[tuple[float, float]]:
    """Run the first ``paired_rounds`` rounds with each job untraced and traced,
    alternating which goes first, then the once-per-run jobs traced.
    Returns the (untraced, traced) latency pairs."""
    pairs = []
    with Runner(plan.deadline_s) as runner:
        def traced(job):
            tracer.install()
            try:
                outcome = runner.run(job)
            finally:
                tracer.uninstall()
            tracer.add_report_bytes(len(outcome.stdout.encode()))
            return outcome

        for r, jobs in enumerate(plan.rounds[:paired_rounds]):
            for job in jobs:
                if len(pairs) % 2:
                    with_trace = traced(job)
                    plain = runner.run(job)
                else:
                    plain = runner.run(job)
                    with_trace = traced(job)
                recorder.add(job, plain, r)
                recorder.add(job, with_trace, r)
                if not (plain.timed_out or with_trace.timed_out):
                    pairs.append((plain.elapsed, with_trace.elapsed))
        for i, job in enumerate(plan.once):
            recorder.add(job, traced(job), -1 - i)
    return pairs


def _timings(rows: list[Row], scales: list[float] | None = None) -> tuple[float, float, float, int, int, int]:
    """jobs_per_s, job_p50 (s), job_tail (s), tail percentile, its sample count, rounds.

    Like jobs_per_s, job_p50 is a median over rounds: of each round's median
    latency, failed jobs as infinite.  A median pooled over every job falls
    where one job group ends and the next begins, so it reads the fastest
    sample of one group and follows single rounds.  ``scales[s]`` multiplies
    the latencies of the jobs in calibration slot s."""
    rounds = len({row.round for row in rows if row.round >= 0})

    def t(row: Row) -> float:
        return row.seconds if scales is None else row.seconds * scales[row.slot]

    ok = [t(row) for row in rows if row.status == OK]
    rates, medians = [], []
    for r in range(rounds):
        in_round = [row for row in rows if row.round == r]
        rates.append(sum(row.status == OK for row in in_round) / sum(t(row) for row in in_round))
        medians.append(statistics.median(t(row) if row.status == OK else math.inf
                                         for row in in_round))
    tail, p, n = _tail(ok)
    return statistics.median(rates), statistics.median(medians), tail, p, n, rounds


def _ms(seconds: float) -> float:
    return seconds * 1000 if math.isfinite(seconds) else UNBOUNDED_MS


def end_to_end(recorder: Recorder, setup_samples: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    scales = calibrate.slot_factors(recorder.probes)
    rate, p50, tail, p, n, rounds = _timings(recorder.rows, scales)
    raw_rate, raw_p50, raw_tail, _, _, _ = _timings(recorder.rows)
    ok_frac = sum(row.status == OK for row in recorder.rows) / len(recorder.rows)
    values = {
        "jobs_per_s": rate,
        "job_p50_ms": _ms(p50),
        "job_tail_ms": _ms(tail),
        "ok_frac": ok_frac,
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "peak_rss_mb": recorder.peak_rss_mb,
    }
    notes = [f"times are scaled to reference speed by calibrate.py: factors "
             f"{min(scales):.4f} to {max(scales):.4f} from {len(recorder.probes)} probes "
             f"(median {statistics.median(recorder.probes) * 1000:.3f} ms)",
             f"jobs_per_s: median over {rounds} rounds of correct jobs / round time; "
             f"raw {raw_rate:.6g}",
             f"job_p50_ms: median over {rounds} rounds of the round's median latency, failed "
             f"jobs as infinite; raw {_ms(raw_p50):.6g}",
             f"job_tail_ms: p{p} over {n} correct jobs; raw {_ms(raw_tail):.6g}",
             f"failed_frac = 1 - ok_frac = {1 - ok_frac:.4f}",
             "setup_s: median of " + ", ".join(f"{scaled:.4f}" for _, scaled in setup_samples)
             + "; raw " + ", ".join(f"{raw:.4f}" for raw, _ in setup_samples)]
    return values, notes


def run_workload(args) -> int:
    os.environ.pop("RELMOD_THREADS", None)
    rounds = rounds_for(args.workload, args.seconds)
    if args.setup_probe:
        _, raw, scaled = setup(args.workload, args.seed, args.setup_probe, rounds)
        print(json.dumps({"setup_s": scaled, "raw_s": raw}))
        return 0
    workroot = HERE / "work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        plan, raw, scaled = setup(args.workload, args.seed, workdir, rounds)
        print(f"# relmod benchmark workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print(f"# env {_environment()}")
        print(f"# plan {len(plan.rounds)} rounds x {len(plan.rounds[0])} jobs + "
              f"{len(plan.once)} once-per-run; per-job deadline {plan.deadline_s} s; "
              "closed loop, one client")
        recorder = Recorder()
        if args.trace:
            from layers import Tracer
            tracer = Tracer()
            pairs = measure_traced(plan, recorder, tracer, max(1, len(plan.rounds) // 2))
            metrics = tracer.metrics()
            plain = sum(a for a, _ in pairs)
            metrics["trace.overhead_frac"] = sum(b for _, b in pairs) / plain - 1 if plain else 0.0
            units = {name: _layer_unit(name) for name in metrics}
            notes = [f"per-layer totals over {len(pairs)} traced jobs paired with untraced "
                     f"runs, plus {len(plan.once)} once-per-run jobs traced; raw times"]
        else:
            samples = [(raw, scaled)] + [_setup_probe(args, tempfile.mkdtemp(dir=workdir))
                                         for _ in range(SETUP_SAMPLES - 1)]
            measure(plan, recorder)
            metrics, notes = end_to_end(recorder, samples)
            units = END_TO_END_UNITS
        return _report(recorder, metrics, units, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    if "bytes" in name:
        return "bytes"
    if name.endswith("max_terms"):
        return "terms"
    return "count"


def _report(recorder: Recorder, metrics: dict, units: dict, notes: list[str]) -> int:
    rows = recorder.rows
    known: dict[str, tuple[int, str]] = {}
    groups: dict[str, list[float]] = {}
    for name, group, t, status, why, *_ in rows:
        groups.setdefault(group, []).append(t)
        if status == KNOWN:
            known[name] = (known.get(name, (0, why))[0] + 1, why)
    for name, (count, why) in sorted(known.items()):
        print(f"# known failure {name} x{count}: {why}")
    bad = [(name, status, why) for name, _, _, status, why, *_ in rows if status in (FAILED, WRONG)]
    for name, status, why in bad[:20]:
        print(f"# {status.upper()} {name}: {why}")
    for group, times in groups.items():
        print(f"# group {group}: {len(times)} runs, median {statistics.median(times) * 1000:.2f} ms, "
              f"total {sum(times):.3f} s")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not any(status == WRONG for _, status, _ in bad),
        "attempted": len(rows),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    table = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            return _fail(f"{workload} exited {proc.returncode}: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if line.startswith("#")))
        table[workload] = json.loads(lines[-1])
    names = list(table[WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  " + "  ".join(f"{w:>16}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = [table[w]["metrics"][name]["value"] for w in WORKLOADS]
        unit = table[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<{width}}  " + "  ".join(f"{c:>16.6g}" for c in cells) + f"  {unit}")
    print(json.dumps({
        "correct": all(t["correct"] for t in table.values()),
        "attempted": sum(t["attempted"] for t in table.values()),
        "failed": sum(t["failed"] for t in table.values()),
        "workloads": table,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "relmod" / "__init__.py").is_file():
        return _fail(f"no relmod sources under {SRC}; run from a full checkout")
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
