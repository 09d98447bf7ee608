"""Strong-decomposition closure engine over finite presentations.

Strong decomposition (an object splits as semisimple-non-negligible plus
negligible) is treated purely as a flag asserted on atoms and propagated by
three closure principles: direct sums and retracts of strongly decomposable
objects are strongly decomposable, and tensor products rewrite through a
declared decomposition table into direct sums of retract-of(atom (x) v^n)
terms.  The engine never inspects morphisms; it checks that the required
rules exist (check_cor1 / check_cor2) and replays them into certificates
(certify).  A derivation stops at its first failing subgoal, which raises
one private exception that only certify catches.

A datum declares a finite atom set S plus one distinguished atom v, rules for
each product of S-atoms, and v-power coverage for every atom (explicit rules
up to a bound, or a closed-form family asserting all exponents at once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .datum import (
    DatumSchemaError,
    Degree,
    GradingSpec,
    SmallSubset,
    _document,
    _expect,
    _field,
    _need,
    _read_json,
    _write_json,
    degree_from_json,
    degree_to_json,
    grading_from_json,
    grading_to_json,
)
from .verdicts import DATA_ABSENT, FAILS, HOLDS, Verdict, Witness

CLOSURE_SCHEMA_ID = "relmod-closure/1"

# ClosureDatum.validate's problem, and certify's failure where it would
# rewrite by such a product rule.  A v-rule is reached only through a
# distinguished atom.
NO_DISTINGUISHED_V = ("a rule's right side holds a power of v, but no "
                      "distinguished atom v is declared")


# ---------------------------------------------------------------------------
# datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomSpec:
    name: str
    strong_decomposition: bool = False
    dual: str | None = None
    degree: Degree | None = None


@dataclass(frozen=True)
class Term:
    """One summand retract-of(atom (x) v^n) on a rule's right-hand side."""
    atom: str
    v_power: int = 0


@dataclass(frozen=True)
class VRule:
    """Coverage of atom (x) v^n: a family (all n) or one explicit exponent."""
    atom: str
    n: int | None = None          # None means the closed-form family
    sd_asserted: bool = True
    rhs: tuple[Term, ...] = ()


@dataclass(frozen=True)
class ProductRule:
    left: str
    right: str
    rhs: tuple[Term, ...] = ()


@dataclass(frozen=True)
class ClosureDatum:
    atoms: tuple[AtomSpec, ...]
    distinguished: str | None = None
    grading: GradingSpec | None = None
    bound: int = 0
    v_rules: tuple[VRule, ...] = ()
    product_rules: tuple[ProductRule, ...] = ()

    def atom(self, name: str) -> AtomSpec | None:
        for a in self.atoms:
            if a.name == name:
                return a
        return None

    def s_atoms(self) -> list[AtomSpec]:
        return [a for a in self.atoms if a.name != self.distinguished]

    def product_rule(self, a: str, b: str) -> ProductRule | None:
        for r in self.product_rules:
            if (r.left, r.right) == (a, b):
                return r
        for r in self.product_rules:
            if (r.left, r.right) == (b, a):
                return r
        return None

    def v_coverage(self, atom: str, n: int) -> VRule | None:
        for r in self.v_rules:
            if r.atom == atom and r.n is None:
                return r
        for r in self.v_rules:
            if r.atom == atom and r.n == n and n <= self.bound:
                return r
        return None

    def exponents(self) -> range:
        """The v-powers n that coverage is required for: 0 .. bound, and n = 0
        even under a negative bound, which a datum built in code can carry
        (the loader rejects one)."""
        return range(max(self.bound, 0) + 1)

    def degree_of(self, name: str) -> Degree | None:
        a = self.atom(name)
        return a.degree if a else None

    def validate(self) -> list[str]:
        problems = []
        names = {a.name for a in self.atoms}
        if len(names) != len(self.atoms):
            problems.append("duplicate atom names")
        if self.distinguished is not None and self.distinguished not in names:
            problems.append(f"distinguished atom {self.distinguished!r} not declared")
        for a in self.atoms:
            if a.dual is None:
                problems.append(f"atom {a.name!r} declares no dual (self-dual "
                                "atoms must say so explicitly)")
            elif a.dual not in names:
                problems.append(f"dual of {a.name!r} ({a.dual!r}) not declared")
            elif self.grading is not None and a.degree is not None:
                ddeg = self.degree_of(a.dual)
                if ddeg is not None and ddeg != self.grading.negate(a.degree):
                    problems.append(
                        f"degree of dual {a.dual!r} is {ddeg}, expected "
                        f"{self.grading.negate(a.degree)} (degree negation)")
        for r in self.product_rules:
            for nm in (r.left, r.right):
                if nm not in names:
                    problems.append(f"product rule references undeclared atom {nm!r}")
            for t in r.rhs:
                if t.atom not in names:
                    problems.append(f"rule ({r.left},{r.right}) right side references "
                                    f"undeclared atom {t.atom!r}")
        for r in self.v_rules:
            if r.atom not in names:
                problems.append(f"v-rule references undeclared atom {r.atom!r}")
            for t in r.rhs:
                if t.atom not in names:
                    problems.append(f"v-rule for {r.atom!r} references undeclared "
                                    f"atom {t.atom!r}")
        if self.distinguished is None and any(
                t.v_power for r in self.product_rules + self.v_rules for t in r.rhs):
            problems.append(NO_DISTINGUISHED_V)
        return problems


# ---------------------------------------------------------------------------
# expression grammar: atoms, *, +, retract()
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Tensor:
    """A tensor product of two or more factors; one factor is that factor
    itself, so parse_expr and the rewrites never build a shorter product."""
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError(f"a tensor product needs two or more factors, "
                             f"got {len(self.factors)}")


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Retract:
    inner: object


Expr = object


class ExprParseError(ValueError):
    pass


def parse_expr(text: str) -> Expr:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "*+()":
            tokens.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ExprParseError(f"bad character {ch!r} at offset {i}")
    parser = _ExprParser(tokens)
    try:
        out = parser.sum()
    except RecursionError:
        raise ExprParseError("expression nested too deeply") from None
    if parser.peek() is not None:
        raise ExprParseError(f"trailing token {parser.peek()!r}")
    return out


class _ExprParser:
    """Recursive descent over the tokens of one expression.  Its methods, not
    nested functions that call one another, so that a parse leaves no
    reference cycle for the garbage collector."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def sum(self):
        terms = [self.prod()]
        while self.peek() == "+":
            self.take()
            terms.append(self.prod())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def prod(self):
        factors = [self.atom()]
        while self.peek() == "*":
            self.take()
            factors.append(self.atom())
        return factors[0] if len(factors) == 1 else Tensor(tuple(factors))

    def atom(self):
        t = self.take()
        if t is None:
            raise ExprParseError("unexpected end of expression")
        if t == "(":
            inner = self.sum()
            if self.take() != ")":
                raise ExprParseError("unbalanced parentheses")
            return inner
        if t == "retract":
            if self.take() != "(":
                raise ExprParseError("retract must be followed by (")
            inner = self.sum()
            if self.take() != ")":
                raise ExprParseError("unbalanced parentheses in retract()")
            return Retract(inner)
        if t in ("*", "+", ")"):
            raise ExprParseError(f"unexpected token {t!r}")
        return Atom(t)


def expr_to_str(e: Expr) -> str:
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Retract):
        return f"retract({expr_to_str(e.inner)})"
    if isinstance(e, Tensor):
        return "*".join(
            f"({expr_to_str(f)})" if isinstance(f, Sum) else expr_to_str(f)
            for f in e.factors)
    if isinstance(e, Sum):
        return " + ".join(expr_to_str(t) for t in e.terms)
    raise TypeError(f"not an expression: {e!r}")


def _flatten_tensor(e: Tensor) -> list:
    out = []
    for f in e.factors:
        if isinstance(f, Tensor):
            out.extend(_flatten_tensor(f))
        else:
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# corollary condition checks
# ---------------------------------------------------------------------------

def check_cor1(datum: ClosureDatum) -> Verdict:
    """All-objects closure: every required rule exists with flagged inputs.

    Conditions: (1) each S-atom has v-power coverage (its tensor powers with
    the distinguished atom are strongly decomposable); (2) every product of
    two S-atoms rewrites into retracts of flagged S-atoms tensor v-powers.
    """
    v = Verdict("closure-cor1", HOLDS)
    if datum.distinguished is None:
        return v.end(DATA_ABSENT, "no distinguished atom v declared")
    dist = datum.atom(datum.distinguished)
    if not dist.strong_decomposition:
        return v.end(FAILS, Witness("distinguished atom lacks the strong-decomposition flag",
                                    (dist.name,)))
    for a in sorted(datum.atoms, key=lambda x: x.name):
        if not a.strong_decomposition:
            return v.end(FAILS, Witness("atom lacks the strong-decomposition flag", (a.name,)))
    s_names = sorted(a.name for a in datum.s_atoms())
    for name in s_names + [datum.distinguished]:
        if any(datum.v_coverage(name, n) is None for n in datum.exponents()):
            return v.end(FAILS, Witness(
                "condition (1): missing v-power coverage", (name,),
                f"need a family rule or explicit rules up to bound {datum.bound}"))
    for i, a in enumerate(s_names):
        for b in s_names[i:]:
            rule = datum.product_rule(a, b)
            if rule is None:
                return v.end(FAILS, Witness("condition (2): missing product rule", (a, b)))
            for t in rule.rhs:
                spec = datum.atom(t.atom)
                if spec is None or not spec.strong_decomposition or t.atom == datum.distinguished:
                    return v.end(FAILS, Witness(
                        "condition (2): rule output not a flagged S-atom", (a, b, t.atom)))
    return v.end(HOLDS, Witness("all required rules present with flagged inputs",
                                tuple(s_names)))


def _generic(datum: ClosureDatum, deg: Degree | None) -> bool:
    # absent degree data counts as generic (the conservative direction: the
    # condition is then required rather than exempted)
    if datum.grading is None or deg is None:
        return True
    return datum.grading.is_generic(deg)


def check_cor2(datum: ClosureDatum) -> Verdict:
    """Graded variant: conditions are required only at generic composite degrees."""
    v = Verdict("closure-cor2", HOLDS)
    if datum.grading is None:
        return v.end(DATA_ABSENT, "no grading present; use check_cor1 instead")
    if datum.distinguished is None:
        return v.end(DATA_ABSENT, "no distinguished atom v declared")
    g = datum.grading
    for a in sorted(datum.atoms, key=lambda x: x.name):
        if _generic(datum, a.degree) and not a.strong_decomposition:
            return v.end(FAILS, Witness(
                "condition (1): generic atom lacks the strong-decomposition flag", (a.name,)))
    vdeg = datum.degree_of(datum.distinguished)
    s_names = sorted(a.name for a in datum.s_atoms())
    for name in s_names:
        adeg = datum.degree_of(name)
        for n in datum.exponents():
            if adeg is None or vdeg is None:
                composite = None
            else:
                composite = adeg
                for _ in range(n):
                    composite = g.add(composite, vdeg)
            if _generic(datum, composite) and datum.v_coverage(name, n) is None:
                return v.end(FAILS, Witness(
                    "condition (2): missing v-power coverage at generic degree", (name, n)))
    for i, a in enumerate(s_names):
        for b in s_names[i:]:
            da, db = datum.degree_of(a), datum.degree_of(b)
            composite = g.add(da, db) if da is not None and db is not None else None
            if not _generic(datum, composite):
                continue
            rule = datum.product_rule(a, b)
            if rule is None:
                return v.end(FAILS, Witness(
                    "condition (3): missing product rule at generic degree", (a, b)))
    return v.end(HOLDS, Witness("all generically-required rules present", tuple(s_names)))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    kind: str
    expr: str
    justification: str
    rule: str | None = None
    children: list = field(default_factory=list)

    def count_rewrites(self) -> int:
        return (1 if self.kind == "tensor-rewrite" else 0) + \
            sum(c.count_rewrites() for c in self.children)

    def to_json(self) -> dict:
        return {"kind": self.kind, "expr": self.expr, "justification": self.justification,
                "rule": self.rule, "children": [c.to_json() for c in self.children]}


@dataclass
class CertifyFailure:
    kind: str                      # "stuck" | "depth-exhausted"
    expr: str
    message: str


class _Failed(Exception):
    """The failure that ends a derivation; certify returns its .failure."""

    def __init__(self, kind: str, expr: str, message: str):
        super().__init__(message)
        self.failure = CertifyFailure(kind, expr, message)


RETRACT_LEMMA = "direct sums and retracts of strongly decomposable objects are strongly decomposable"


def _rewrite(datum: ClosureDatum, rhs: tuple[Term, ...],
             rest: tuple[str, ...] | list[str] = (), vpow: int = 0) -> Expr:
    """A rule's right-hand side in place of the product it covers: the direct
    sum of retracts of t.atom (x) v^t.v_power (x) rest (x) v^vpow."""
    summands = []
    for t in rhs:
        factors = [Atom(t.atom)]
        factors += [Atom(datum.distinguished)] * t.v_power
        factors += [Atom(x) for x in rest]
        factors += [Atom(datum.distinguished)] * vpow
        inner = factors[0] if len(factors) == 1 else Tensor(tuple(factors))
        summands.append(Retract(inner))
    return summands[0] if len(summands) == 1 else Sum(tuple(summands))


def certify(datum: ClosureDatum, expr: Expr | str, depth: int):
    """Build a replayable strong-decomposition certificate, or report failure.

    Rewrites are bounded by ``depth``; exhaustion is reported distinctly from
    a genuinely missing rule.  A derivation deeper than the interpreter's
    stack exhausts it too: it is a depth-exhausted failure on the whole
    expression.
    """
    if isinstance(expr, str):
        expr = parse_expr(expr)
    try:
        return _derive(datum, expr, depth)
    except _Failed as exc:
        return exc.failure
    except RecursionError:
        return CertifyFailure("depth-exhausted", expr_to_str(expr),
                              "derivation deeper than the recursion limit")


def _derive(datum: ClosureDatum, expr: Expr, depth: int) -> Certificate:
    """expr's certificate, derived depth first; the first failing subgoal raises _Failed."""
    text = expr_to_str(expr)

    if isinstance(expr, Sum):
        return Certificate("direct-sum", text, RETRACT_LEMMA,
                           children=[_derive(datum, t, depth) for t in expr.terms])

    if isinstance(expr, Retract):
        return Certificate("retract", text, RETRACT_LEMMA,
                           children=[_derive(datum, expr.inner, depth)])

    if isinstance(expr, Atom):
        spec = datum.atom(expr.name)
        if spec is None:
            raise _Failed("stuck", text, f"undeclared atom {expr.name!r}")
        if not spec.strong_decomposition:
            raise _Failed("stuck", text,
                          f"atom {expr.name!r} carries no strong-decomposition flag")
        return Certificate("atom", text, "strong decomposition asserted on the atom")

    flat = _flatten_tensor(expr)
    for i, f in enumerate(flat):
        if isinstance(f, Sum):
            expanded = Sum(tuple(
                Tensor(tuple(flat[:i] + [t] + flat[i + 1:])) for t in f.terms))
            return Certificate("distribute", text,
                               "tensor products distribute over direct sums",
                               children=[_derive(datum, expanded, depth)])
    if any(isinstance(f, Retract) for f in flat):
        inner = Tensor(tuple(f.inner if isinstance(f, Retract) else f for f in flat))
        return Certificate("retract-absorb", text,
                           "a product with a retract factor is a retract of the "
                           "product of the ambient objects",
                           children=[_derive(datum, Retract(inner), depth)])

    names = [f.name for f in flat]
    bad = next((n for n in names if datum.atom(n) is None), None)
    if bad is not None:
        raise _Failed("stuck", text, f"undeclared atom {bad!r}")
    vname = datum.distinguished
    word = [n for n in names if n != vname]
    vpow = len(names) - len(word)

    def tensor_rewrite(replacement: Expr, justification: str, rule: str) -> Certificate:
        return Certificate("tensor-rewrite", text, justification, rule=rule,
                           children=[_derive(datum, replacement, depth - 1)])

    if len(word) <= 1:
        base = word[0] if word else vname
        n = vpow if word else vpow - 1
        rule = datum.v_coverage(base, n)
        if rule is None:
            raise _Failed("stuck", text,
                          f"no v-power coverage for {base} (x) v^{n} (bound {datum.bound})")
        if rule.sd_asserted:
            return Certificate(
                "v-power", text,
                f"strong decomposition of {base} (x) v^n asserted "
                + ("for all n (family rule)" if rule.n is None else f"at n = {rule.n}"))
        if depth <= 0:
            raise _Failed("depth-exhausted", text, "rewrite depth exhausted")
        return tensor_rewrite(_rewrite(datum, rule.rhs), "v-power rule application",
                       f"{base}(x)v^{n}")

    if depth <= 0:
        raise _Failed("depth-exhausted", text, "rewrite depth exhausted")
    rule = datum.product_rule(word[0], word[1])
    if rule is None:
        raise _Failed("stuck", text,
                      f"no decomposition rule for the pair ({word[0]}, {word[1]})")
    if datum.distinguished is None and any(t.v_power for t in rule.rhs):
        raise _Failed("stuck", text, NO_DISTINGUISHED_V)
    return tensor_rewrite(_rewrite(datum, rule.rhs, word[2:], vpow),
                   "product rule application followed by braided regrouping "
                   "of v-powers", f"({rule.left},{rule.right})")


def replay_certificate(cert: Certificate, datum: ClosureDatum) -> bool:
    """Replay re-runs ``certify`` on the certificate's target, with as many
    rewrites as the certificate uses, and returns True only if the result
    equals the certificate node for node (kind, expr, justification, rule,
    children); otherwise it raises ValueError.  ``certify`` is thus the one
    definition of the closure rules."""
    regenerated = certify(datum, cert.expr, depth=cert.count_rewrites())
    if isinstance(regenerated, CertifyFailure):
        raise ValueError(f"replay got stuck on {cert.expr!r}: {regenerated.message}")
    if regenerated != cert:
        raise ValueError(f"replay of {cert.expr!r} produced a different derivation")
    return True


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _name(obj: dict, key: str, path: str) -> str:
    """obj[key], a required JSON string, checked at path.key."""
    return _expect(_need(obj, key, path), str, f"{path}.{key}")


def _rules(doc: dict, key: str):
    """(rule object, path, its right-hand side) for each rule listed under key."""
    for i, r in enumerate(_expect(doc.get(key, []), list, key)):
        path = f"{key}[{i}]"
        r = _expect(r, dict, path)
        rhs = []
        for j, t in enumerate(_expect(r.get("rhs", []), list, f"{path}.rhs")):
            tpath = f"{path}.rhs[{j}]"
            t = _expect(t, dict, tpath)
            rhs.append(Term(_name(t, "atom", tpath), _field(t, "v_power", 0, int, tpath)))
        yield r, path, tuple(rhs)


def loads_closure(doc: dict) -> ClosureDatum:
    _document(doc, CLOSURE_SCHEMA_ID)
    grading = None
    if doc.get("grading") is not None:
        grading = grading_from_json(doc["grading"], "grading")
    cyclic = grading.cyclic_factors if grading is not None else ()
    atoms = []
    for i, a in enumerate(_expect(doc.get("atoms", []), list, "atoms")):
        if not isinstance(a, dict):
            raise DatumSchemaError(f"atoms[{i}]", "expected an atom object")
        deg = a.get("degree")
        atoms.append(AtomSpec(
            name=_name(a, "name", f"atoms[{i}]"),
            strong_decomposition=_field(a, "strong_decomposition", False, bool, f"atoms[{i}]"),
            dual=_field(a, "dual", None, str, f"atoms[{i}]"),
            degree=degree_from_json(deg, f"atoms[{i}].degree", cyclic)
            if deg is not None else None))
    v_rules = tuple(
        VRule(atom=_name(r, "atom", path), n=_field(r, "n", None, int, path),
              sd_asserted=_field(r, "sd_asserted", True, bool, path), rhs=rhs)
        for r, path, rhs in _rules(doc, "v_rules"))
    product_rules = tuple(
        ProductRule(left=_name(r, "left", path), right=_name(r, "right", path),
                    rhs=rhs)
        for r, path, rhs in _rules(doc, "product_rules"))
    bound = _field(doc, "bound", 0, int, "$")
    if bound < 0:
        raise DatumSchemaError("$.bound", "expected a non-negative integer")
    datum = ClosureDatum(
        atoms=tuple(atoms), distinguished=_field(doc, "distinguished", None, str, "$"),
        grading=grading, bound=bound, v_rules=v_rules, product_rules=product_rules)
    problems = datum.validate()
    if problems:
        raise DatumSchemaError("$", "; ".join(problems))
    return datum


def dumps_closure(datum: ClosureDatum) -> dict:
    doc: dict = {
        "schema": CLOSURE_SCHEMA_ID,
        "atoms": [
            {"name": a.name, "strong_decomposition": a.strong_decomposition,
             **({"dual": a.dual} if a.dual is not None else {}),
             **({"degree": degree_to_json(a.degree)} if a.degree is not None else {})}
            for a in datum.atoms],
        "bound": datum.bound,
        "v_rules": [
            {"atom": r.atom, **({"n": r.n} if r.n is not None else {}),
             "sd_asserted": r.sd_asserted,
             **({"rhs": [{"atom": t.atom, "v_power": t.v_power} for t in r.rhs]}
                if r.rhs else {})}
            for r in datum.v_rules],
        "product_rules": [
            {"left": r.left, "right": r.right,
             "rhs": [{"atom": t.atom, "v_power": t.v_power} for t in r.rhs]}
            for r in datum.product_rules],
    }
    if datum.distinguished is not None:
        doc["distinguished"] = datum.distinguished
    if datum.grading is not None:
        doc["grading"] = grading_to_json(datum.grading)
    return doc


def load_closure(path: str) -> ClosureDatum:
    return loads_closure(_read_json(path))


def save_closure(datum: ClosureDatum, path: str) -> None:
    _write_json(dumps_closure(datum), path)


# ---------------------------------------------------------------------------
# the shipped toy datum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def toy_closure_datum() -> ClosureDatum:
    """Two S-atoms plus a distinguished generator whose powers absorb products.

    Models the pattern of a perturbative module category generated by a small
    set of highest-weight objects and the standard module: every product of
    generators is a direct sum of retracts of generator (x) v^n, and v-power
    coverage is a closed-form family.  Built once per process: the datum is
    frozen, so every caller can share it.
    """
    abar = Degree(alpha=1)
    grading = GradingSpec(cyclic_factors=(), has_generic_torus=True,
                          small=SmallSubset("list", (Degree(),)))
    return ClosureDatum(
        atoms=(
            AtomSpec("a", strong_decomposition=True, dual="b", degree=abar),
            AtomSpec("b", strong_decomposition=True, dual="a", degree=Degree(alpha=-1)),
            AtomSpec("v", strong_decomposition=True, dual="v", degree=Degree()),
        ),
        distinguished="v",
        grading=grading,
        bound=3,
        v_rules=(
            VRule(atom="a", n=None, sd_asserted=True),
            VRule(atom="b", n=None, sd_asserted=True),
            VRule(atom="v", n=None, sd_asserted=True),
        ),
        product_rules=(
            ProductRule("a", "a", (Term("b", 1),)),
            ProductRule("a", "b", (Term("a", 0), Term("b", 2))),
            ProductRule("b", "b", (Term("a", 1),)),
        ))


def toy_expressions() -> list[str]:
    """The acceptance family: tensor words over the two S-atoms of length <= 3
    combined with a power of the distinguished atom up to the rule bound (56
    expressions: 14 words x 4 v-powers)."""
    words: list[list[str]] = []
    for n in (1, 2, 3):
        stack = [[x] for x in ("a", "b")]
        for _ in range(n - 1):
            stack = [w + [x] for w in stack for x in ("a", "b")]
        words.extend(stack)
    out = []
    for w in words:
        for vp in range(4):
            out.append("*".join(w + ["v"] * vp))
    return out
