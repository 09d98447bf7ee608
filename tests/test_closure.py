import dataclasses
from fractions import Fraction

import pytest

from relmod.closure import (
    Atom,
    Certificate,
    CertifyFailure,
    ClosureDatum,
    ExprParseError,
    ProductRule,
    Retract,
    Sum,
    Tensor,
    Term,
    VRule,
    certify,
    check_cor1,
    check_cor2,
    dumps_closure,
    expr_to_str,
    loads_closure,
    parse_expr,
    replay_certificate,
    toy_closure_datum,
    toy_expressions,
)
from relmod.datum import DatumSchemaError, Degree, GradingSpec, SmallSubset
from relmod.verdicts import DATA_ABSENT, FAILS, HOLDS


def drop_rule(datum, left, right):
    return dataclasses.replace(datum, product_rules=tuple(
        r for r in datum.product_rules if (r.left, r.right) != (left, right)))


class TestParsing:
    def test_round_trip(self):
        for text in ("a", "a*b", "a*b*v", "retract(a*b)", "(a+b)*v",
                     "retract(a) + b*v"):
            e = parse_expr(text)
            assert parse_expr(expr_to_str(e)) == e

    def test_bad_inputs(self):
        for text in ("a *", "retract a", "(a", "a + + b", "a$b"):
            with pytest.raises(ExprParseError):
                parse_expr(text)

    def test_nesting_past_the_recursion_limit_is_a_parse_error(self):
        with pytest.raises(ExprParseError, match="nested too deeply"):
            parse_expr("(" * 3000 + "a" + ")" * 3000)


class TestCor1:
    def test_toy_holds(self):
        assert check_cor1(toy_closure_datum()).status == HOLDS

    def test_toy_datum_is_built_once(self):
        assert toy_closure_datum() is toy_closure_datum()

    def test_single_atom_self_rule(self):
        datum = ClosureDatum(
            atoms=(dataclasses.replace(toy_closure_datum().atoms[0], name="a",
                                       dual="a", degree=None),
                   dataclasses.replace(toy_closure_datum().atoms[2], name="v",
                                       dual="v", degree=None)),
            distinguished="v", bound=2,
            v_rules=(VRule("a", None, True), VRule("v", None, True)),
            product_rules=(ProductRule("a", "a", (Term("a", 0),)),))
        assert check_cor1(datum).status == HOLDS

    def test_missing_rule_fails_naming_pair(self):
        v = check_cor1(drop_rule(toy_closure_datum(), "a", "b"))
        assert v.status == FAILS
        assert v.witnesses[0].indices == ("a", "b")
        assert "missing product rule" in v.witnesses[0].name

    def test_unflagged_atom_fails(self):
        toy = toy_closure_datum()
        bad = dataclasses.replace(toy, atoms=tuple(
            dataclasses.replace(a, strong_decomposition=a.name != "b")
            for a in toy.atoms))
        v = check_cor1(bad)
        assert v.status == FAILS
        assert ("b",) in [w.indices for w in v.witnesses]

    def test_no_distinguished_atom(self):
        toy = toy_closure_datum()
        v = check_cor1(dataclasses.replace(toy, distinguished=None))
        assert v.status == DATA_ABSENT

    def test_missing_v_coverage_fails(self):
        toy = toy_closure_datum()
        v = check_cor1(dataclasses.replace(
            toy, v_rules=tuple(r for r in toy.v_rules if r.atom != "a")))
        assert v.status == FAILS
        assert ("a",) in [w.indices for w in v.witnesses]

    @staticmethod
    def explicit_coverage(drop_n=None, bound=None):
        """The toy datum with a's family rule replaced by explicit rules at
        n = 0 .. bound, except drop_n."""
        toy = toy_closure_datum()
        bound = toy.bound if bound is None else bound
        rules = tuple(VRule("a", n, True) for n in range(bound + 1) if n != drop_n)
        return dataclasses.replace(toy, bound=bound, v_rules=rules + tuple(
            r for r in toy.v_rules if r.atom != "a"))

    def test_explicit_coverage_up_to_bound_holds(self):
        datum = self.explicit_coverage()
        assert not any(r.atom == "a" and r.n is None for r in datum.v_rules)
        assert check_cor1(datum).status == HOLDS

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_explicit_coverage_with_one_power_dropped_fails(self, n):
        v = check_cor1(self.explicit_coverage(drop_n=n))
        assert v.status == FAILS
        assert [w.indices for w in v.witnesses] == [("a",)]
        assert "missing v-power coverage" in v.witnesses[0].name

    def test_negative_bound_without_family_rule_fails(self):
        for check, indices in ((check_cor1, ("a",)), (check_cor2, ("a", 0))):
            v = check(self.explicit_coverage(bound=-1))
            assert v.status == FAILS
            assert [w.indices for w in v.witnesses] == [indices]

    def test_unflagged_distinguished_atom_fails(self):
        toy = toy_closure_datum()
        bad = dataclasses.replace(toy, atoms=tuple(
            dataclasses.replace(a, strong_decomposition=a.name != "v")
            for a in toy.atoms))
        v = check_cor1(bad)
        assert v.status == FAILS
        assert [(w.name, w.indices) for w in v.witnesses] == [
            ("distinguished atom lacks the strong-decomposition flag", ("v",))]

    def test_rule_output_that_is_not_an_s_atom_fails(self):
        toy = toy_closure_datum()
        bad = dataclasses.replace(toy, product_rules=tuple(
            ProductRule("a", "a", (Term("v", 1),)) if (r.left, r.right) == ("a", "a") else r
            for r in toy.product_rules))
        v = check_cor1(bad)
        assert v.status == FAILS
        assert [(w.name, w.indices) for w in v.witnesses] == [
            ("condition (2): rule output not a flagged S-atom", ("a", "a", "v"))]


class TestCor2:
    def test_toy_holds(self):
        assert check_cor2(toy_closure_datum()).status == HOLDS

    def test_non_generic_pair_exempt(self):
        # a (x) b lands in degree 0 which lies in X, so no rule is needed
        v = check_cor2(drop_rule(toy_closure_datum(), "a", "b"))
        assert v.status == HOLDS

    def test_generic_pair_requires_rule(self):
        toy = drop_rule(toy_closure_datum(), "a", "b")
        shifted = dataclasses.replace(toy, atoms=tuple(
            dataclasses.replace(a, dual=None,
                                degree=Degree(alpha=1, shift=Fraction(1))
                                if a.name == "b" else a.degree)
            for a in toy.atoms))
        v = check_cor2(shifted)
        assert v.status == FAILS
        assert v.witnesses[0].indices == ("a", "b")

    def test_monotone_in_small_subset(self):
        # enlarging X (shrinking the generic locus) never flips holds to fails
        toy = drop_rule(toy_closure_datum(), "a", "b")
        assert check_cor2(toy).status == HOLDS
        bigger_x = dataclasses.replace(toy, grading=GradingSpec(
            small=SmallSubset("list", (Degree(), Degree(alpha=2),
                                       Degree(alpha=-2)))))
        assert check_cor2(bigger_x).status == HOLDS

    def test_no_grading_data_absent(self):
        v = check_cor2(dataclasses.replace(toy_closure_datum(), grading=None))
        assert v.status == DATA_ABSENT

    def test_no_distinguished_atom(self):
        v = check_cor2(dataclasses.replace(toy_closure_datum(), distinguished=None))
        assert v.status == DATA_ABSENT
        assert v.notes == ["no distinguished atom v declared"]

    def test_unflagged_generic_atom_fails(self):
        toy = toy_closure_datum()
        bad = dataclasses.replace(toy, atoms=tuple(
            dataclasses.replace(a, strong_decomposition=a.name != "a")
            for a in toy.atoms))
        v = check_cor2(bad)
        assert v.status == FAILS
        assert [(w.name, w.indices) for w in v.witnesses] == [
            ("condition (1): generic atom lacks the strong-decomposition flag", ("a",))]

    def test_unflagged_non_generic_atom_is_exempt(self):
        # v sits in degree 0, which lies in X
        toy = toy_closure_datum()
        bad = dataclasses.replace(toy, atoms=tuple(
            dataclasses.replace(a, strong_decomposition=a.name != "v")
            for a in toy.atoms))
        assert check_cor2(bad).status == HOLDS

    def test_missing_coverage_at_generic_degree_fails(self):
        toy = toy_closure_datum()
        v = check_cor2(dataclasses.replace(
            toy, v_rules=tuple(r for r in toy.v_rules if r.atom != "b")))
        assert v.status == FAILS
        assert [(w.name, w.indices) for w in v.witnesses] == [
            ("condition (2): missing v-power coverage at generic degree", ("b", 0))]


class TestCertify:
    def test_single_flagged_atom(self):
        c = certify(toy_closure_datum(), "a", depth=0)
        assert isinstance(c, Certificate) and c.kind == "atom"
        assert not c.children

    @pytest.mark.parametrize("name", ["a", "v"])
    def test_tensor_needs_two_factors(self, name):
        # a one-factor product is its factor, and no shorter Tensor can be built
        toy = toy_closure_datum()
        assert parse_expr(f"({name})") == Atom(name)
        for factors in ((), (Atom(name),)):
            with pytest.raises(ValueError, match="two or more factors"):
                Tensor(factors)
        c = certify(toy, f"({name})", depth=0)
        assert isinstance(c, Certificate) and c == certify(toy, name, depth=0)

    def test_sum_with_rule_application(self):
        c = certify(toy_closure_datum(), "(a*b)+a", depth=4)
        assert isinstance(c, Certificate) and c.kind == "direct-sum"
        kinds = [ch.kind for ch in c.children]
        assert kinds == ["tensor-rewrite", "atom"]

    def test_triple_product_uses_two_rewrites(self):
        c = certify(toy_closure_datum(), "a*a*a", depth=3)
        assert isinstance(c, Certificate)
        assert c.count_rewrites() == 2

    def test_all_toy_expressions_certify_and_replay(self):
        toy = toy_closure_datum()
        exprs = toy_expressions()
        assert len(exprs) == 56
        for e in exprs:
            c = certify(toy, e, depth=8)
            assert isinstance(c, Certificate), (e, c)
            assert replay_certificate(c, toy)

    def test_stuck_failure_names_pair(self):
        f = certify(drop_rule(toy_closure_datum(), "a", "b"), "a*b", depth=4)
        assert isinstance(f, CertifyFailure) and f.kind == "stuck"
        assert "(a, b)" in f.message

    def test_stuck_without_v_power_coverage(self):
        toy = toy_closure_datum()
        datum = dataclasses.replace(
            toy, v_rules=tuple(r for r in toy.v_rules if r.atom != "a"))
        f = certify(datum, "a*v*v", depth=4)
        assert isinstance(f, CertifyFailure) and f.kind == "stuck"
        assert f.message == "no v-power coverage for a (x) v^2 (bound 3)"

    def test_depth_exhaustion_distinct(self):
        f = certify(toy_closure_datum(), "a*a*a", depth=1)
        assert isinstance(f, CertifyFailure) and f.kind == "depth-exhausted"

    def test_derivation_deeper_than_the_stack_is_depth_exhausted(self):
        word = "*".join(["a"] * 400)
        f = certify(toy_closure_datum(), word, depth=1000)
        assert isinstance(f, CertifyFailure) and f.kind == "depth-exhausted"
        assert f.expr == expr_to_str(parse_expr(word))
        assert f.message == "derivation deeper than the recursion limit"

    def test_replay_rejects_tampered_certificate(self):
        toy = toy_closure_datum()
        c = certify(toy, "a*a", depth=4)
        assert isinstance(c, Certificate)
        stripped = drop_rule(toy, "a", "a")
        with pytest.raises(ValueError):
            replay_certificate(c, stripped)

    def test_replay_rejects_unflagged_leaf(self):
        toy = toy_closure_datum()
        c = certify(toy, "a", depth=0)
        bad = dataclasses.replace(toy, atoms=tuple(
            dataclasses.replace(a, strong_decomposition=a.name != "a")
            for a in toy.atoms))
        with pytest.raises(ValueError):
            replay_certificate(c, bad)

    def test_v_rule_without_sd_flag_rewrites_its_rhs(self):
        doc = dumps_closure(toy_closure_datum())
        doc["v_rules"][0] = {"atom": "a", "n": 1, "sd_asserted": False,
                             "rhs": [{"atom": "b", "v_power": 1}, {"atom": "a"}]}
        datum = loads_closure(doc)
        assert isinstance(certify(datum, "a*v", depth=0), CertifyFailure)
        c = certify(datum, "a*v", depth=1)
        assert isinstance(c, Certificate) and c.kind == "tensor-rewrite"
        assert c.rule == "a(x)v^1"
        (rewritten,) = c.children
        assert rewritten.expr == "retract(b*v) + retract(a)"
        assert [ch.children[0].kind for ch in rewritten.children] == ["v-power", "atom"]
        assert replay_certificate(c, datum)

    def test_retract_and_v_powers(self):
        c = certify(toy_closure_datum(), "retract(b*v*v)", depth=4)
        assert isinstance(c, Certificate) and c.kind == "retract"
        assert c.children[0].kind == "v-power"


class TestWhichFailure:
    """certify reports the first failing subgoal in depth-first order, and
    within a rule step checks in a fixed order: a v-power looks up coverage,
    then the sd_asserted flag, then depth; a product checks depth, then looks
    up its rule, then the distinguished atom."""

    def test_first_failing_summand_is_reported(self):
        datum = drop_rule(toy_closure_datum(), "a", "b")
        assert certify(datum, "a*b + a*c", depth=4) == CertifyFailure(
            "stuck", "a*b", "no decomposition rule for the pair (a, b)")
        assert certify(datum, "a*c + a*b", depth=4) == CertifyFailure(
            "stuck", "a*c", "undeclared atom 'c'")

    def test_product_without_rule_at_depth_0_is_depth_exhausted(self):
        datum = drop_rule(toy_closure_datum(), "a", "b")
        assert certify(datum, "a*b", depth=0) == CertifyFailure(
            "depth-exhausted", "a*b", "rewrite depth exhausted")

    def test_v_power_without_coverage_at_depth_0_is_stuck(self):
        toy = toy_closure_datum()
        datum = dataclasses.replace(
            toy, v_rules=tuple(r for r in toy.v_rules if r.atom != "a"))
        assert certify(datum, "a*v", depth=0) == CertifyFailure(
            "stuck", "a*v", "no v-power coverage for a (x) v^1 (bound 3)")

    def test_v_rule_without_sd_flag_at_depth_0_is_depth_exhausted(self):
        assert certify(v_rule_without_sd_flag(), "a*v", depth=0) == CertifyFailure(
            "depth-exhausted", "a*v", "rewrite depth exhausted")


def v_rule_without_sd_flag():
    """The toy datum with a's v-coverage replaced by one explicit rule at n = 1
    whose strong decomposition is not asserted, so a*v must be rewritten."""
    doc = dumps_closure(toy_closure_datum())
    doc["v_rules"][0] = {"atom": "a", "n": 1, "sd_asserted": False,
                         "rhs": [{"atom": "b", "v_power": 1}, {"atom": "a"}]}
    return loads_closure(doc)


class TestReplay:
    """Replay re-derives the whole certificate with certify, so it accepts
    exactly the certificates that certify produces."""

    @pytest.mark.parametrize("expr, kind", [
        ("(a+b)*v", "distribute"),
        ("retract(a)*b", "retract-absorb"),
        ("(a+b)*(a+b)", "distribute"),
        ("a*(b+retract(a*a))", "distribute"),
    ])
    def test_distribute_and_retract_absorb_replay(self, expr, kind):
        toy = toy_closure_datum()
        c = certify(toy, expr, depth=8)
        assert isinstance(c, Certificate) and c.kind == kind
        assert replay_certificate(c, toy)

    def test_forged_v_power_leaf_rejected(self):
        datum = v_rule_without_sd_flag()
        forged = Certificate("v-power", "a*v",
                             "strong decomposition of a (x) v^n asserted at n = 1")
        with pytest.raises(ValueError):
            replay_certificate(forged, datum)

    def test_atom_leaf_with_invented_child_rejected(self):
        toy = toy_closure_datum()
        forged = certify(toy, "a", depth=0)
        forged.children.append(certify(toy, "b", depth=0))
        with pytest.raises(ValueError):
            replay_certificate(forged, toy)

    def test_rewritten_justification_rejected(self):
        toy = toy_closure_datum()
        forged = certify(toy, "a*a", depth=4)
        forged.justification = "asserted without a rule"
        with pytest.raises(ValueError):
            replay_certificate(forged, toy)


class TestSerialization:
    def test_round_trip(self):
        toy = toy_closure_datum()
        assert loads_closure(dumps_closure(toy)) == toy

    def test_dual_degree_negation_checked(self):
        toy = toy_closure_datum()
        bad_atoms = tuple(
            dataclasses.replace(a, degree=Degree(alpha=1) if a.name == "b" else a.degree)
            for a in toy.atoms)
        bad = dataclasses.replace(toy, atoms=bad_atoms)
        assert any("degree negation" in p for p in bad.validate())

    def test_undeclared_rhs_atom_rejected(self):
        toy = toy_closure_datum()
        bad = dataclasses.replace(toy, product_rules=toy.product_rules + (
            ProductRule("a", "a", (Term("ghost", 0),)),))
        assert any("ghost" in p for p in bad.validate())

    def test_negative_bound_is_rejected_on_load(self):
        doc = dict(dumps_closure(toy_closure_datum()), bound=-1)
        with pytest.raises(DatumSchemaError) as ei:
            loads_closure(doc)
        assert ei.value.path == "$.bound"


class TestCertifyWithoutDistinguishedAtom:
    """A datum built in code without a distinguished atom: a rewrite by a
    rule whose right side holds a power of v is stuck with the loader's
    message; other derivations are not affected."""

    def test_rule_with_a_power_of_v_is_stuck(self):
        datum = dataclasses.replace(toy_closure_datum(), distinguished=None)
        for expr, stuck in (("a*b*a", "a*b*a"), ("a*a", "a*a"), ("b*b*a", "b*b*a")):
            result = certify(datum, expr, 8)
            assert isinstance(result, CertifyFailure)
            assert (result.kind, result.expr) == ("stuck", stuck)
            assert result.message in datum.validate()

    def test_derivation_without_such_a_rule_is_certified(self):
        datum = dataclasses.replace(toy_closure_datum(), distinguished=None)
        assert isinstance(certify(datum, "a+b", 8), Certificate)
