"""Run the scale instances of tools/instances.json and check every answer.

    python tools/scale.py [--out PATH]

Each row of the table is one `python -m relmod ...` command and the claim it
supports.  The rows run in order, each in a fresh process, in one temporary
work directory outside the checkout, so a later row reads the files an
earlier one wrote; PYTHONPATH points at the checkout's src.  A row holds:

    name, claim    what the row is called and what its answer shows
    argv           the arguments after `python -m relmod`
    limit_s        the wall-time limit in seconds, or null for none; a row
                   still running at its limit is killed
    exit           the expected exit code
    statuses       optional: the [check, status] pair of every report in
                   the JSON report on stdout, in order
    ranks          optional: every derived_scalars entry whose key starts
                   with "rank(", as [key, value] pairs in report order
    sha256         optional: SHA-256 pins by file name in the work
                   directory; the name "report" is the row's stdout
    datum          optional: {"builder", "args", "path"}: before the timed
                   command, the builder of that name in tests/conftest.py is
                   called on args and its datum saved to path, untimed, so
                   each generator has one definition

The runner prints one line per row: the verdict (ok or FAIL), the row's
name and claim, a witness in brief, the wall time and the peak RSS.  Both
are the child's own: its wall time from start to exit, and ru_maxrss of the
rusage os.wait4 returns for it (kilobytes on Linux).  It exits 1, naming each
row, on any mismatch of exit code, status, rank, pin or limit.  With --out it
also writes the results as JSON, with the commit, the Python version, the
machine and the core count.  The runner itself uses the standard library
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tools" / "instances.json"


def load_rows() -> list[dict]:
    with open(TABLE, encoding="utf-8") as f:
        return json.load(f)["rows"]


# Saves the datum of a conftest builder: argv is the builder's name, its
# arguments as JSON and the path to write.
_SAVE = ("import json, sys, conftest; from relmod.datum import save_datum; "
         "save_datum(getattr(conftest, sys.argv[1])(*json.loads(sys.argv[2])), sys.argv[3])")


def _write_datum(spec: dict, workdir: Path) -> None:
    """Save the datum of spec's builder in tests/conftest.py to workdir /
    spec["path"].  It runs in a child of its own: a child's ru_maxrss starts
    at the high-water mark of the process it was forked from, so a datum
    built here would raise the peak RSS of every row after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    subprocess.run([sys.executable, "-c", _SAVE, spec["builder"], json.dumps(spec["args"]),
                    spec["path"]], cwd=workdir, env=env, check=True)


def _sha256(path: Path) -> str | None:
    """The file's SHA-256, read in chunks: the runner's own high-water mark
    is where every later child's peak RSS starts (see _write_datum)."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def _brief(text: str, width: int = 60) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[:width - 3] + "..."


def _witness(doc) -> str:
    """The first witness of the first report that does not hold (or of the
    last report), or the verdict line of a report without reports."""
    if not isinstance(doc, dict):
        return ""
    reports = doc.get("reports")
    if not reports:
        return _brief(str(doc.get("verdict", "")))
    r = next((r for r in reports if r["status"] != "holds"), reports[-1])
    w = r["witnesses"][0] if r["witnesses"] else None
    said = (w["name"] + (f" = {w['value']}" if w.get("value") is not None else "") if w
            else (r["notes"] or [""])[0])
    return _brief(f"{r['check']} {r['status']}: {said}")


def run_row(row: dict, workdir: Path) -> dict:
    """Run row's command in workdir and check its answer.  The result holds
    the row's name, claim, exit code, wall time, peak RSS, witness and the
    list of mismatches, each naming the row."""
    name, limit = row["name"], row["limit_s"]
    if "datum" in row:
        _write_datum(row["datum"], workdir)
    report = workdir / f"{name}.out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    killed = []

    with open(report, "wb") as out, open(workdir / f"{name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "relmod", *row["argv"]],
                                cwd=workdir, env=env, stdout=out, stderr=err)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(limit, kill) if limit is not None else None
        if timer:
            timer.start()
        # wait4 reaps the child and returns its own rusage; RUSAGE_CHILDREN
        # would be the largest peak over every child reaped so far
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if timer:
            timer.cancel()
        # the child is reaped: Popen must not wait for it again
        proc.returncode = code = os.waitstatus_to_exitcode(status)

    mismatches = []
    if killed or (limit is not None and wall > limit):
        mismatches.append(f"over its {limit} s limit ({wall:.2f} s)")
    if code != row["exit"]:
        mismatches.append(f"exit {code}, expected {row['exit']}")
    doc = None
    text = report.read_text(encoding="utf-8", errors="replace")
    if "statuses" in row or "ranks" in row:
        try:
            doc = json.loads(text)
        except ValueError:
            mismatches.append("stdout is not a JSON report")
    if doc is not None:
        reports = doc.get("reports", []) if isinstance(doc, dict) else []
        statuses = [[r["check"], r["status"]] for r in reports]
        ranks = [[k, v] for r in reports for k, v in r["derived_scalars"].items()
                 if k.startswith("rank(")]
        for field, got in (("statuses", statuses), ("ranks", ranks)):
            if field in row and got != row[field]:
                mismatches.append(f"{field} {got}, expected {row[field]}")
    for path, want in row.get("sha256", {}).items():
        got = _sha256(report if path == "report" else workdir / path)
        if got != want:
            mismatches.append(f"sha256 of {path} is {got}, pinned {want}")
    return {"name": name, "claim": row["claim"], "exit": code,
            "wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "witness": _witness(doc) if doc is not None else _brief(text.split("\n")[0]),
            "mismatches": [f"{name}: {m}" for m in mismatches]}


def _line(result: dict) -> str:
    verdict = "FAIL" if result["mismatches"] else "ok"
    return (f"{verdict:4} {result['name']}: {result['claim']} | {result['witness']} | "
            f"{result['wall_s']:.2f} s, {result['peak_rss_mb']:.0f} MB")


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                              "--abbrev=40"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run every row of tools/instances.json once and check its answer.")
    parser.add_argument("--out", metavar="PATH", help="also write the results as JSON to PATH")
    args = parser.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory(prefix="relmod-scale-") as tmp:
        for row in load_rows():
            result = run_row(row, Path(tmp))
            results.append(result)
            print(_line(result), flush=True)
            if result["mismatches"]:
                # the child's stderr, such as the traceback of an exit 3
                err = (Path(tmp) / f"{row['name']}.err").read_text(errors="replace")
                sys.stderr.write("".join(err.splitlines(keepends=True)[-20:]))
    if args.out:
        doc = {"commit": _commit(), "python": platform.python_version(),
               "machine": platform.machine(), "cores": os.cpu_count(), "rows": results}
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    mismatches = [m for r in results for m in r["mismatches"]]
    for m in mismatches:
        print(m, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
