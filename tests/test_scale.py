"""The scale runner, tools/scale.py, and its instance table, without running
the table: each row is well formed, and the runner's row function passes a
small row as written and fails it, naming it, on any changed expectation."""

import importlib.util
import re
from pathlib import Path

import pytest

import conftest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("scale", ROOT / "tools" / "scale.py")
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)

# SHA-256 of the report of `sl21 rank-bound --ell 3 --format json`: a digest,
# since what is tested is the runner's own `sha256` row field.
RANK_BOUND_3_SHA256 = "781aadc49d1f7c5f44aa43fcac906ee4aeafdf63caee417b6f95c1a87903d03d"

ROW = {"name": "rank-bound-3", "claim": "the S-matrix at ell = 3 has rank at most 3",
       "argv": ["sl21", "rank-bound", "--ell", "3", "--format", "json"],
       "limit_s": 60, "exit": 0, "statuses": [], "sha256": {"report": RANK_BOUND_3_SHA256}}


def test_every_row_is_well_formed():
    rows = scale.load_rows()
    names = [row["name"] for row in rows]
    assert len(set(names)) == len(names)
    for row in rows:
        assert isinstance(row["claim"], str) and row["claim"], row["name"]
        assert row["argv"] and all(isinstance(a, str) for a in row["argv"]), row["name"]
        assert type(row["exit"]) is int, row["name"]
        limit = row["limit_s"]
        assert limit is None or (type(limit) in (int, float) and limit > 0), row["name"]
        assert all(re.fullmatch("[0-9a-f]{64}", pin) for pin in row.get("sha256", {}).values())
        if "datum" in row:
            assert callable(getattr(conftest, row["datum"]["builder"])), row["name"]


def test_the_row_passes_as_written(tmp_path):
    result = scale.run_row(ROW, tmp_path)
    assert result["mismatches"] == [] and result["exit"] == 0
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0


@pytest.mark.parametrize("field, value, said", [
    ("exit", 1, "exit 0, expected 1"),
    ("statuses", [["sl21-rank-bound", "holds"]], "statuses"),
    ("sha256", {"report": "0" * 64}, "sha256 of report"),
    ("limit_s", 0.001, "limit"),
])
def test_a_changed_expectation_fails_naming_the_row(tmp_path, field, value, said):
    result = scale.run_row(dict(ROW, **{field: value}), tmp_path)
    assert result["mismatches"], field
    assert all(m.startswith("rank-bound-3: ") for m in result["mismatches"])
    assert any(said in m for m in result["mismatches"]), result["mismatches"]
