"""Verdict.end, the one way a check changes a verdict's status, and the rule
it keeps: every verdict carries the reason for its status."""

import dataclasses
import random

import pytest

from conftest import planted_modularity_datum, pointed_datum, premetric_datum
from relmod.checks import check_all
from relmod.closure import check_cor1, check_cor2, toy_closure_datum
from relmod.sl21 import build_Ak, check_relations, emit_datum
from relmod.verdicts import DATA_ABSENT, FAILS, HOLDS, HYPOTHESIS_NOT_MET, Verdict, Witness


def has_reason(v: Verdict) -> bool:
    """HOLDS needs a witness; FAILS and HYPOTHESIS_NOT_MET a witness or a
    note; DATA_ABSENT a note, since absent data have no witness."""
    if v.status == HOLDS:
        return bool(v.witnesses)
    if v.status in (FAILS, HYPOTHESIS_NOT_MET):
        return bool(v.witnesses or v.notes)
    return v.status == DATA_ABSENT and bool(v.notes)


class TestEnd:
    def test_reasons_are_kept_in_the_order_given(self):
        v = Verdict("c", HOLDS, notes=["before"])
        w1, w2 = Witness("first", (1,)), Witness("second", (), "2")
        assert v.end(FAILS, "one", w1, "two", w2) is v
        assert v.status == FAILS
        assert v.witnesses == [w1, w2]
        assert v.notes == ["before", "one", "two"]

    def test_a_second_end_appends_after_the_first(self):
        v = Verdict("c", HOLDS)
        v.end(FAILS, Witness("a"), "a fails")
        v.end(FAILS, Witness("b"), "b fails")
        assert [w.name for w in v.witnesses] == ["a", "b"]
        assert v.notes == ["a fails", "b fails"]

    @pytest.mark.parametrize("status", [HOLDS, FAILS, HYPOTHESIS_NOT_MET, DATA_ABSENT])
    def test_no_reason_is_refused_and_changes_nothing(self, status):
        v = Verdict("c", HOLDS)
        with pytest.raises(ValueError, match="needs a reason"):
            v.end(status)
        assert (v.status, v.witnesses, v.notes) == (HOLDS, [], [])


def _checked_data():
    for n in (3, 5, 7):
        yield f"pointed-{n}", pointed_datum(n, random.Random(n))
    for size in (1, 2, 3, 4):
        yield f"planted-{size}", planted_modularity_datum(random.Random(size), size)[0]
    yield "premetric-15-3", premetric_datum(15, 3, random.Random(15))
    for ell in (3, 5):
        yield f"sl21-ell{ell}", emit_datum(ell)


class TestEveryVerdictHasAReason:
    def test_check_all(self):
        seen = set()
        for name, d in _checked_data():
            for v in check_all(d):
                assert has_reason(v), (name, v.to_json())
                seen.add(v.status)
        assert seen == {HOLDS, FAILS, HYPOTHESIS_NOT_MET, DATA_ABSENT}

    def test_closure_corollaries(self):
        toy = toy_closure_datum()
        dropped = dataclasses.replace(toy, product_rules=tuple(
            r for r in toy.product_rules if (r.left, r.right) != ("a", "b")))
        verdicts = [check(d) for d in (toy, dropped) for check in (check_cor1, check_cor2)]
        assert [v.status for v in verdicts] == [HOLDS, HOLDS, FAILS, HOLDS]
        for v in verdicts:
            assert has_reason(v), v.to_json()

    def test_relations_under_both_conventions(self):
        seen = set()
        for conv in ("corrected", "paper"):
            for k in range(1, 5):
                v = check_relations(build_Ak(k, 5, conv))
                assert has_reason(v), v.to_json()
                seen.add(v.status)
        assert seen == {HOLDS, FAILS}
