"""Data model and JSON loader for a relative pre-modular category's numbers.

A ModularDatum records everything checkable about such a category at the
numerical level: the grading group with its small symmetric subset, the
translation group with quantum dimensions and the compatibility pairing psi,
and per generic degree the index set, modified dimensions, twists and S'
blocks.

Degrees of the grading group are triples (finite part, alpha, shift): the
finite part has one component per cyclic factor of the grading, reduced
(0 <= c < o for a factor of order o > 0), and the optional "generic torus"
factor contributes alpha * abar + shift where abar is a formal generic
parameter and shift is an exact rational: an ``int`` while it is integral,
else a ``Fraction``, the rule the scalar coefficients follow.  The two forms
of an integer have the same ``==``, ``hash`` and ``str``; an int compares and
hashes without Fraction's Python-level methods, which the degree lookups and
memo keys of every check call.  Two degrees are equal iff all components
match.

Every JSON document is written by ``json_text``, which gives exactly the text
of ``json.dumps(obj, indent=2, sort_keys=True)`` without that call's
pure-Python encoder.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .matrices import ExactMatrix
from .scalars import CycScalar, ScalarParseError, parse_scalar


class DatumSchemaError(ValueError):
    """Malformed datum document; .path points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DatumInvariantError(ValueError):
    """A structural invariant of the datum fails; names it and the indices."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class Violation:
    invariant: str
    indices: tuple
    message: str

    def __str__(self):
        where = f" at {self.indices}" if self.indices else ""
        return f"[{self.invariant}]{where}: {self.message}"


# ---------------------------------------------------------------------------
# degrees and the grading group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Degree:
    finite: tuple[int, ...] = ()
    alpha: int = 0
    shift: int | Fraction = 0

    def __str__(self):
        parts = []
        if self.finite:
            parts.append(",".join(str(c) for c in self.finite) + "|")
        body = ""
        if self.alpha == 1:
            body = "a"
        elif self.alpha == -1:
            body = "-a"
        elif self.alpha:
            body = f"{self.alpha}a"
        if self.shift:
            if body:
                body += "+" + str(self.shift) if self.shift > 0 else str(self.shift)
            else:
                body = str(self.shift)
        if not body:
            body = "0"
        return "".join(parts) + body


_DEGREE_KEYS = {"finite", "alpha", "shift"}

# A shift as degree_to_json and Degree.__str__ write it: an integer or n/d, d > 0.
_RATIONAL = r"\d+(?:/0*[1-9]\d*)?"
_SHIFT_RE = re.compile(rf"[+-]?{_RATIONAL}", re.ASCII)
_DEGREE_RE = re.compile(
    rf"\s*(?:(?P<finite>[+-]?\d+(?:\s*,\s*[+-]?\d+)*)\s*\|\s*)?"
    rf"(?:(?P<alpha>[+-]?\d*)a(?:\s*(?P<sign>[+-])\s*(?P<tail>{_RATIONAL}))?"
    rf"|(?P<shift>[+-]?{_RATIONAL}))\s*", re.ASCII)


def _shift(q: Fraction) -> int | Fraction:
    """q as a degree stores it: an int while it is integral."""
    return q.numerator if q.denominator == 1 else q


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise DatumSchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string",
               bool: "a boolean"}


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(value, kind: type, path: str):
    """value, if it has the JSON type kind (dict, list, int, str or bool)."""
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise DatumSchemaError(path, f"expected {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def _field(obj: dict, key: str, default, kind: type, path: str):
    """obj[key], which must be a kind or default; default when absent."""
    value = obj.get(key, default)
    return value if value is default else _expect(value, kind, f"{path}.{key}")


def _int_list(value, path: str) -> tuple[int, ...]:
    if not (isinstance(value, list) and all(_is_int(c) for c in value)):
        raise DatumSchemaError(path, "expected a list of integers")
    return tuple(value)


def degree_to_json(d: Degree) -> dict:
    out: dict = {}
    if d.finite:
        out["finite"] = list(d.finite)
    if d.alpha:
        out["alpha"] = d.alpha
    if d.shift:
        out["shift"] = str(d.shift)
    return out


def _reduce_cyclic(comps: tuple[int, ...], factors: tuple[int, ...]) -> tuple[int, ...]:
    """comps modulo the cyclic factors, c mod o for each order o > 0 (order 0
    is infinite cyclic); ValueError unless there is one component per factor."""
    if len(comps) != len(factors):
        raise ValueError(f"expected {len(factors)} components, one per cyclic factor "
                         f"{list(factors)}, got {len(comps)}")
    return tuple(c % o if o else c for c, o in zip(comps, factors))


def check_cyclic(comps: tuple[int, ...], factors: tuple[int, ...],
                 reduced: bool = True) -> tuple[int, ...]:
    """comps, if there is one component per cyclic factor and, when reduced is
    set, each is reduced (0 <= c < o for an order o > 0); ValueError otherwise.
    The finite part of a degree is reduced; a translation element need not be."""
    if _reduce_cyclic(comps, factors) != comps and reduced:
        raise ValueError(f"expected components reduced modulo {list(factors)}, "
                         f"got {list(comps)}")
    return comps


def _components(value, factors: tuple[int, ...], path: str, reduced: bool) -> tuple[int, ...]:
    """A list of integers that check_cyclic accepts."""
    comps = _int_list(value, path)
    try:
        return check_cyclic(comps, factors, reduced)
    except ValueError as exc:
        raise DatumSchemaError(path, str(exc)) from None


def degree_from_json(obj, path: str, factors: tuple[int, ...]) -> Degree:
    """A degree whose finite part is reduced modulo the grading's cyclic factors."""
    if not isinstance(obj, dict) or not set(obj) <= _DEGREE_KEYS:
        raise DatumSchemaError(path, f"expected a degree object with keys {sorted(_DEGREE_KEYS)}")
    finite = _components(obj.get("finite", []), factors, path + ".finite", True)
    alpha = obj.get("alpha", 0)
    if not _is_int(alpha):
        raise DatumSchemaError(path + ".alpha", "expected an integer")
    shift = obj.get("shift", 0)
    try:
        if not (_is_int(shift) or isinstance(shift, str) and _SHIFT_RE.fullmatch(shift)):
            raise ValueError(f"expected an integer or a string n or n/d, got {shift!r}")
        shift = _shift(Fraction(shift))
    except ValueError as exc:
        raise DatumSchemaError(path + ".shift", f"bad rational: {exc}") from None
    return Degree(finite, alpha, shift)


def parse_degree(text: str) -> Degree:
    """Parse a degree as Degree.__str__ prints it: '0', 'a', '-a', '2a+1/2',
    '1/2', '1,0|a'.  Whitespace may surround tokens; ValueError otherwise."""
    m = _DEGREE_RE.fullmatch(text)
    if m is None:
        raise ValueError("expected [c,...,c|] and then [n]a with an optional signed "
                         "shift, or a shift alone; a shift is an integer or n/d")
    finite = tuple(int(c) for c in m["finite"].split(",")) if m["finite"] else ()
    if m["shift"] is not None:
        return Degree(finite, 0, _shift(Fraction(m["shift"])))
    coeff = m["alpha"]
    alpha = int(coeff) if coeff.strip("+-") else int(coeff + "1")
    return Degree(finite, alpha, _shift(Fraction(m["sign"] + m["tail"])) if m["tail"] else 0)


@dataclass(frozen=True)
class SmallSubset:
    """The small symmetric subset X, as an explicit list or the torsion rule."""
    kind: str = "list"           # "list" | "torsion"
    elements: tuple[Degree, ...] = ()

    def contains(self, d: Degree) -> bool:
        if self.kind == "torsion":
            return d.alpha == 0
        return d in self.elements


@dataclass(frozen=True)
class GradingSpec:
    cyclic_factors: tuple[int, ...] = ()   # order 0 = infinite cyclic
    has_generic_torus: bool = True
    small: SmallSubset = field(default_factory=SmallSubset)

    def add(self, d1: Degree, d2: Degree) -> Degree:
        fin = _reduce_cyclic(tuple(a + b for a, b in zip(d1.finite, d2.finite, strict=True)),
                             self.cyclic_factors)
        shift = d1.shift + d2.shift
        if type(shift) is Fraction:
            shift = _shift(shift)
        return Degree(fin, d1.alpha + d2.alpha, shift)

    def negate(self, d: Degree) -> Degree:
        fin = _reduce_cyclic(tuple(-c for c in d.finite), self.cyclic_factors)
        return Degree(fin, -d.alpha, -d.shift)

    def is_generic(self, d: Degree) -> bool:
        return not self.small.contains(d)

    def validate(self) -> list[Violation]:
        out = []
        if self.small.kind == "list":
            for d in self.small.elements:
                if self.negate(d) not in self.small.elements:
                    out.append(Violation(
                        "small-subset-symmetric", (str(d),),
                        f"X must satisfy X = -X but -({d}) is missing"))
        return out


def grading_to_json(grading: GradingSpec) -> dict:
    return {
        "cyclic_factors": list(grading.cyclic_factors),
        "has_generic_torus": grading.has_generic_torus,
        "small_symmetric": {
            "kind": grading.small.kind,
            "elements": [degree_to_json(d) for d in grading.small.elements],
        },
    }


def grading_from_json(obj, path: str) -> GradingSpec:
    """The grading object shared by the datum and closure formats."""
    if not isinstance(obj, dict):
        raise DatumSchemaError(path, "expected a grading object")
    small = obj.get("small_symmetric", {"kind": "torsion"})
    if not isinstance(small, dict):
        raise DatumSchemaError(path + ".small_symmetric", "expected an object")
    kind = small.get("kind")
    if kind not in ("list", "torsion"):
        raise DatumSchemaError(path + ".small_symmetric.kind", "expected 'list' or 'torsion'")
    elements = small.get("elements", [])
    if not isinstance(elements, list):
        raise DatumSchemaError(path + ".small_symmetric.elements", "expected a list of degrees")
    factors = _int_list(obj.get("cyclic_factors", []), path + ".cyclic_factors")
    return GradingSpec(
        cyclic_factors=factors,
        has_generic_torus=_field(obj, "has_generic_torus", True, bool, path),
        small=SmallSubset(kind, tuple(
            degree_from_json(e, f"{path}.small_symmetric.elements[{i}]", factors)
            for i, e in enumerate(elements))))


# ---------------------------------------------------------------------------
# translation group
# ---------------------------------------------------------------------------

ZElem = tuple[int, ...]


@dataclass(frozen=True)
class TranslationSpec:
    cyclic_factors: tuple[int, ...] = ()
    qdim_generators: tuple[CycScalar, ...] | None = None
    qdim_table: tuple[tuple[ZElem, CycScalar], ...] = ()
    psi: tuple[tuple[Degree, ZElem, CycScalar], ...] = ()
    no_self_extension: bool | None = None

    def zadd(self, z1: ZElem, z2: ZElem) -> ZElem:
        return _reduce_cyclic(tuple(a + b for a, b in zip(z1, z2, strict=True)),
                              self.cyclic_factors)

    def zero_elem(self) -> ZElem:
        return (0,) * len(self.cyclic_factors)

    def validate(self, conductor: int, grading: GradingSpec) -> list[Violation]:
        out = []
        one = CycScalar.one(conductor)
        seen: dict[ZElem, CycScalar] = {}
        for z, val in self.qdim_table:
            rz = _reduce_cyclic(z, self.cyclic_factors)
            if seen.setdefault(rz, val) != val:
                out.append(Violation(
                    "free-realisation-quantum-dimension", (z,),
                    f"quantum dimension of sigma{rz} given as both {seen[rz]} and {val}"))
            if val != one and val != CycScalar.rational(-1, conductor):
                out.append(Violation(
                    "free-realisation-quantum-dimension", (z,),
                    f"quantum dimension of sigma{z} must be +1 or -1, got {val}"))
        zero = self.zero_elem()
        if zero in seen and seen[zero] != one:
            out.append(Violation(
                "free-realisation-quantum-dimension", (zero,),
                "quantum dimension of sigma(0) must be 1"))
        if self.qdim_generators is not None:
            bad_generators = [(i, val) for i, val in enumerate(self.qdim_generators)
                              if val != one and val != CycScalar.rational(-1, conductor)]
            for i, val in bad_generators:
                out.append(Violation(
                    "free-realisation-quantum-dimension", ("generator", i),
                    f"generator quantum dimension must be +1 or -1, got {val}"))
            # a generator off +-1 may have no inverse, so products are compared
            # only when every generator is +-1
            for z, val in self.qdim_table if not bad_generators else ():
                hom = self.quantum_dimension_from_generators(z, conductor)
                if hom is not None and hom != val:
                    out.append(Violation(
                        "free-realisation-quantum-dimension", (z,),
                        f"table value {val} conflicts with generator product {hom}"))
        # psi bilinearity on every derivable triple
        by_degree: dict[Degree, dict[ZElem, CycScalar]] = {}
        for deg, z, val in self.psi:
            if val.is_zero:
                out.append(Violation("psi-nonzero", (str(deg), z), "psi values must be nonzero"))
            table = by_degree.setdefault(deg, {})
            rz = _reduce_cyclic(z, self.cyclic_factors)
            if table.setdefault(rz, val) != val:
                out.append(Violation("psi-single-valued", (str(deg), z),
                                     f"psi({deg},{rz}) given as both {table[rz]} and {val}"))
        for deg, table in by_degree.items():
            elems = sorted(table)
            for z1 in elems:
                for z2 in elems:
                    z12 = self.zadd(z1, z2)
                    if z12 in table and table[z12] != table[z1] * table[z2]:
                        out.append(Violation(
                            "psi-bilinear", (str(deg), z1, z2),
                            f"psi({deg},{z1}+{z2}) != psi({deg},{z1})*psi({deg},{z2})"))
        degs = sorted(by_degree, key=str)
        for g1 in degs:
            for g2 in degs:
                g12 = grading.add(g1, g2)
                if g12 not in by_degree:
                    continue
                for z in by_degree[g12]:
                    if z in by_degree[g1] and z in by_degree[g2]:
                        if by_degree[g12][z] != by_degree[g1][z] * by_degree[g2][z]:
                            out.append(Violation(
                                "psi-bilinear", (str(g1), str(g2), z),
                                f"psi({g12},{z}) != psi({g1},{z})*psi({g2},{z})"))
        return out

    def quantum_dimension_from_generators(self, z: ZElem, conductor: int) -> CycScalar | None:
        if self.qdim_generators is None:
            return None
        out = CycScalar.one(conductor)
        for gen_val, c in zip(self.qdim_generators, _reduce_cyclic(z, self.cyclic_factors)):
            out = out * gen_val ** c
        return out


# ---------------------------------------------------------------------------
# the datum proper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SBlock:
    row_degree: Degree
    col_degree: Degree
    matrix: ExactMatrix
    row_labels: tuple[str, ...] = ()
    col_labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class ModularDatum:
    conductor: int
    grading: GradingSpec
    translation: TranslationSpec
    degrees: tuple[Degree, ...]
    index_sets: dict[Degree, tuple[str, ...]]
    dims: dict[Degree, tuple[CycScalar, ...]]
    twists: dict[Degree, tuple[CycScalar, ...]]
    sprime: tuple[SBlock, ...]
    orbit_count: int | None = None
    dual_involution: dict[Degree, tuple[int, ...]] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def block(self, g: Degree, h: Degree) -> SBlock | None:
        for b in self.sprime:
            if b.row_degree == g and b.col_degree == h:
                return b
        return None

    def negate(self, g: Degree) -> Degree:
        return self.grading.negate(g)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_datum(datum: ModularDatum) -> list[Violation]:
    out: list[Violation] = []
    out.extend(datum.grading.validate())
    out.extend(datum.translation.validate(datum.conductor, datum.grading))
    for g in datum.degrees:
        labels = datum.index_sets.get(g)
        if labels is None:
            out.append(Violation("index-set-present", (str(g),),
                                 "listed degree has no index set"))
            continue
        for name, table in (("dims", datum.dims), ("twists", datum.twists)):
            vals = table.get(g)
            if vals is None:
                out.append(Violation(f"{name}-present", (str(g),),
                                     f"listed degree has no {name}"))
                continue
            if len(vals) != len(labels):
                out.append(Violation(f"{name}-aligned", (str(g),),
                                     f"{name} length {len(vals)} != index set size {len(labels)}"))
        for i, d in enumerate(datum.dims.get(g, ())):
            if d.is_zero:
                out.append(Violation("dims-nonzero", (str(g), labels[i] if i < len(labels) else i),
                                     "modified dimension must be nonzero"))
        for i, t in enumerate(datum.twists.get(g, ())):
            if t.try_inverse() is None:
                out.append(Violation("twists-invertible", (str(g), labels[i] if i < len(labels) else i),
                                     f"twist {t} is not invertible in the scalar ring"))
    for bi, b in enumerate(datum.sprime):
        if b.row_degree in datum.index_sets and b.matrix.rows != len(datum.index_sets[b.row_degree]):
            out.append(Violation("block-shape", (bi, str(b.row_degree)),
                                 "block row count does not match the row degree's index set"))
        if b.col_degree in datum.index_sets and b.matrix.cols != len(datum.index_sets[b.col_degree]):
            out.append(Violation("block-shape", (bi, str(b.col_degree)),
                                 "block column count does not match the column degree's index set"))
        # symmetry is checked only on a square diagonal block that its dims fit
        if b.row_degree == b.col_degree and \
                b.matrix.rows == b.matrix.cols == len(datum.dims.get(b.col_degree, ())):
            s = _scaled_block(datum, b)
            if not s.is_symmetric():
                bad = next((i, j) for i in range(s.rows) for j in range(s.cols)
                           if s[i, j] != s[j, i])
                out.append(Violation("modified-S-symmetric", (str(b.row_degree),) + bad,
                                     "the modified S-matrix S_g must be symmetric"))
    for g, inv in datum.dual_involution.items():
        if g in datum.index_sets and sorted(inv) != list(range(len(datum.index_sets[g]))):
            out.append(Violation("dual-involution", (str(g),),
                                 "dual involution must be a permutation of the index set"))
    return out


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

SCHEMA_ID = "relmod-datum/1"


def _scalar(text, conductor: int, path: str, literals: dict[str, CycScalar]) -> CycScalar:
    """The value of the literal text.  literals maps each text already read
    from the same document to its value, so that a text repeated there is
    parsed once; a text that fails to parse is not kept, so each repetition
    of it fails at its own path."""
    if not isinstance(text, str):
        raise DatumSchemaError(path, f"expected a scalar string, got {type(text).__name__}")
    value = literals.get(text)
    if value is None:
        try:
            value = literals[text] = parse_scalar(text, conductor)
        except ScalarParseError as exc:
            raise DatumSchemaError(path, str(exc)) from None
    return value


def _by_degree(obj, degrees: tuple[Degree, ...], path: str):
    """(degree, list, path) for each entry of an object keyed by an index
    into 'degrees' whose values are lists."""
    for key, val in _expect(obj, dict, path).items():
        try:
            g = degrees[int(key)]
        except (ValueError, IndexError):
            raise DatumSchemaError(f"{path}.{key}", "key must index into 'degrees'") from None
        yield g, _expect(val, list, f"{path}.{key}"), f"{path}.{key}"


def loads_datum(doc: dict) -> ModularDatum:
    if not isinstance(doc, dict):
        raise DatumSchemaError("$", "document must be a JSON object")
    if doc.get("schema") != SCHEMA_ID:
        raise DatumSchemaError("schema", f"expected {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    conductor = _need(doc, "conductor", "$")
    if not _is_int(conductor) or conductor < 1:
        raise DatumSchemaError("conductor", "expected a positive integer")

    grading = grading_from_json(_need(doc, "grading", "$"), "grading")
    cyclic = grading.cyclic_factors
    # each distinct literal text is parsed once per document (see _scalar)
    literals: dict[str, CycScalar] = {}

    def scalar(text, path: str) -> CycScalar:
        return _scalar(text, conductor, path, literals)

    tobj = _expect(_need(doc, "translation", "$"), dict, "translation")
    factors = _int_list(tobj.get("cyclic_factors", []), "translation.cyclic_factors")
    qpath = "translation.quantum_dimension"
    qobj = _expect(tobj.get("quantum_dimension", {}), dict, qpath)
    gens = qobj.get("generator_values")
    if gens is not None:
        if len(_expect(gens, list, f"{qpath}.generator_values")) != len(factors):
            raise DatumSchemaError(f"{qpath}.generator_values",
                                   "one value per cyclic factor required")
        gens = tuple(scalar(v, f"{qpath}.generator_values[{i}]")
                     for i, v in enumerate(gens))
    table = []
    for i, row in enumerate(_expect(qobj.get("table", []), list, f"{qpath}.table")):
        rpath = f"{qpath}.table[{i}]"
        row = _expect(row, dict, rpath)
        elem = _components(_need(row, "element", rpath), factors, f"{rpath}.element", False)
        table.append((elem, scalar(_need(row, "value", rpath), f"{rpath}.value")))
    psi = []
    for i, row in enumerate(_expect(tobj.get("psi", []), list, "translation.psi")):
        rpath = f"translation.psi[{i}]"
        row = _expect(row, dict, rpath)
        deg = degree_from_json(_need(row, "degree", rpath), f"{rpath}.degree", cyclic)
        elem = _components(_need(row, "element", rpath), factors, f"{rpath}.element", False)
        psi.append((deg, elem, scalar(_need(row, "value", rpath), f"{rpath}.value")))
    translation = TranslationSpec(
        cyclic_factors=factors, qdim_generators=gens, qdim_table=tuple(table),
        psi=tuple(psi),
        no_self_extension=_field(tobj, "no_self_extension", None, bool, "translation"))

    degrees = tuple(degree_from_json(d, f"degrees[{i}]", cyclic) for i, d in
                    enumerate(_expect(_need(doc, "degrees", "$"), list, "degrees")))

    index_sets = {g: tuple(str(x) for x in labels) for g, labels, _ in
                  _by_degree(_need(doc, "index_sets", "$"), degrees, "index_sets")}
    dims: dict[Degree, tuple[CycScalar, ...]] = {}
    twists: dict[Degree, tuple[CycScalar, ...]] = {}
    for name, store in (("dims", dims), ("twists", twists)):
        for g, vals, vpath in _by_degree(doc.get(name, {}), degrees, name):
            store[g] = tuple(scalar(v, f"{vpath}[{i}]") for i, v in enumerate(vals))

    blocks = []
    for i, bobj in enumerate(_expect(doc.get("sprime", []), list, "sprime")):
        bobj = _expect(bobj, dict, f"sprime[{i}]")
        rd, cd = (degree_from_json(_need(bobj, key, f"sprime[{i}]"), f"sprime[{i}].{key}", cyclic)
                  for key in ("row_degree", "col_degree"))
        ent = _need(bobj, "entries", f"sprime[{i}]")
        if not ent or not isinstance(ent, list):
            raise DatumSchemaError(f"sprime[{i}].entries", "expected a non-empty row list")
        for r, row in enumerate(ent):
            if not isinstance(row, list) or not row:
                raise DatumSchemaError(f"sprime[{i}].entries[{r}]", "expected a non-empty row")
            if len(row) != len(ent[0]):
                raise DatumSchemaError(f"sprime[{i}].entries[{r}]",
                                       f"ragged rows: {len(row)} entries, row 0 has {len(ent[0])}")
        rows = [[scalar(v, f"sprime[{i}].entries[{r}][{c}]")
                 for c, v in enumerate(row)] for r, row in enumerate(ent)]
        labels = [tuple(_expect(bobj.get(key, []), list, f"sprime[{i}].{key}"))
                  for key in ("row_labels", "col_labels")]
        blocks.append(SBlock(rd, cd, ExactMatrix.from_rows(rows, conductor), *labels))

    dual = {g: _int_list(perm, ppath) for g, perm, ppath in
            _by_degree(doc.get("dual_involution", {}), degrees, "dual_involution")}

    orbit_count = doc.get("orbit_count")
    if orbit_count is not None and (not _is_int(orbit_count) or orbit_count < 0):
        raise DatumSchemaError("orbit_count", "expected a non-negative integer")

    datum = ModularDatum(
        conductor=conductor, grading=grading, translation=translation,
        degrees=degrees, index_sets=index_sets, dims=dims, twists=twists,
        sprime=tuple(blocks), orbit_count=orbit_count, dual_involution=dual,
        extra=doc.get("extra", {}))
    violations = _validation(datum)
    if violations:
        raise DatumInvariantError(violations)
    return datum


def _read_json(path: str):
    """The JSON document in a file; text that is not UTF-8 or not valid JSON
    (a ValueError, as is an integer too long to convert), or JSON nested too
    deeply to decode, is a schema error at "$"."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DatumSchemaError("$", f"not valid JSON: {exc}") from None
        except RecursionError:
            raise DatumSchemaError("$", "JSON nested too deeply") from None


_ENCODE_STR = json.encoder.encode_basestring_ascii


def json_text(obj) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True).

    That call encodes with the pure-Python encoder, since the C one knows no
    indent; this one writes the same text from one list of parts, and strings
    go through the C string encoder that json.dumps uses."""
    out: list[str] = []
    _json_parts(obj, "\n", out)
    return "".join(out)


def _json_parts(obj, nl: str, out: list[str]) -> None:
    """Append obj's JSON text to out; nl is a newline and obj's indent."""
    if isinstance(obj, str):
        out.append(_ENCODE_STR(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = json.dumps(key)
            out.append(f"{sep}{_ENCODE_STR(key)}: ")
            _json_parts(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(value) is str for value in obj):
            # a row of literals, the bulk of a datum file: one join
            out.append("[" + inner + ("," + inner).join(map(_ENCODE_STR, obj)) + nl + "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _json_parts(value, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        # None, a bool or a number, written as json.dumps writes it alone
        out.append(json.dumps(obj))


def _write_json(doc: dict, path: str) -> None:
    text = json_text(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_datum(path: str) -> ModularDatum:
    return loads_datum(_read_json(path))


def dumps_datum(datum: ModularDatum) -> dict:
    deg_index = {g: i for i, g in enumerate(datum.degrees)}
    doc: dict = {
        "schema": SCHEMA_ID,
        "conductor": datum.conductor,
        "grading": grading_to_json(datum.grading),
        "translation": {
            "cyclic_factors": list(datum.translation.cyclic_factors),
            "quantum_dimension": {},
            "psi": [{"degree": degree_to_json(d), "element": list(z), "value": str(v)}
                    for d, z, v in datum.translation.psi],
        },
        "degrees": [degree_to_json(d) for d in datum.degrees],
        "index_sets": {str(deg_index[g]): list(v) for g, v in datum.index_sets.items()},
        "dims": {str(deg_index[g]): [str(x) for x in v] for g, v in datum.dims.items()},
        "twists": {str(deg_index[g]): [str(x) for x in v] for g, v in datum.twists.items()},
        "sprime": [
            {
                "row_degree": degree_to_json(b.row_degree),
                "col_degree": degree_to_json(b.col_degree),
                "entries": [[str(e) for e in b.matrix.row(i)] for i in range(b.matrix.rows)],
                **({"row_labels": list(b.row_labels)} if b.row_labels else {}),
                **({"col_labels": list(b.col_labels)} if b.col_labels else {}),
            }
            for b in datum.sprime
        ],
    }
    if datum.translation.qdim_generators is not None:
        doc["translation"]["quantum_dimension"]["generator_values"] = [
            str(v) for v in datum.translation.qdim_generators]
    if datum.translation.qdim_table:
        doc["translation"]["quantum_dimension"]["table"] = [
            {"element": list(z), "value": str(v)} for z, v in datum.translation.qdim_table]
    if datum.translation.no_self_extension is not None:
        doc["translation"]["no_self_extension"] = datum.translation.no_self_extension
    if datum.orbit_count is not None:
        doc["orbit_count"] = datum.orbit_count
    if datum.dual_involution:
        doc["dual_involution"] = {str(deg_index[g]): list(p)
                                  for g, p in datum.dual_involution.items()}
    if datum.extra:
        doc["extra"] = datum.extra
    return doc


def save_datum(datum: ModularDatum, path: str) -> None:
    _write_json(dumps_datum(datum), path)


# ---------------------------------------------------------------------------
# derived data
# ---------------------------------------------------------------------------

def _memo(datum: ModularDatum, key, inputs: tuple, compute):
    """compute(), made once per datum and key while its inputs stay the same.

    The value is kept in the datum's __dict__, outside its fields, so ==,
    repr and dataclasses.replace do not see it, and a replaced datum starts
    empty.  It is served only while each of inputs -- the matrices, tuples
    and permutations it was computed from, or None for an absent one -- is
    the same object as when it was made, and there are as many of them.  So
    a field replaced in place, such as d.dims[g] = ..., gives a fresh value,
    while a mutable object changed inside (an entry list edited in place) is
    not noticed.  An exception is not kept."""
    memo = datum.__dict__.setdefault("_memo", {})
    hit = memo.get(key)
    if hit is not None and len(hit[0]) == len(inputs) and \
            all(a is b for a, b in zip(hit[0], inputs)):
        return hit[1]
    value = compute()
    memo[key] = (inputs, value)
    return value


def _validation(datum: ModularDatum) -> list[Violation]:
    """validate_datum(datum), computed once per datum while every field it
    reads is the same object (see _memo).  The inputs are the frozen fields
    and then each of the four degree-keyed tables followed by its keys and
    values, so an entry added, removed or replaced gives a fresh value.
    loads_datum validates through it, so check_premodular_inputs on a loaded
    datum reads the load's result.  Callers must not change it."""
    inputs = [datum.conductor, datum.grading, datum.translation, datum.degrees, datum.sprime]
    for table in (datum.index_sets, datum.dims, datum.twists, datum.dual_involution):
        inputs.append(table)
        for item in table.items():
            inputs.extend(item)
    return _memo(datum, "validation", tuple(inputs), lambda: validate_datum(datum))


def _scaled_block(datum: ModularDatum, b: SBlock) -> ExactMatrix:
    """b's matrix right-scaled by diag(d(V_j)) of its column degree, computed
    once per datum and pair of degrees while the matrix and the dims tuple
    stay the same objects (see _memo)."""
    dims = datum.dims[b.col_degree]
    return _memo(datum, ("S", b.row_degree, b.col_degree), (b.matrix, dims),
                 lambda: b.matrix.scale_columns(list(dims)))


def modified_S(datum: ModularDatum, g: Degree, h: Degree | None = None) -> ExactMatrix:
    """The modified S-matrix S_{g,h}: the S' block right-scaled by diag(d(V_j)).

    It is scaled once per datum and (g, h), and validate_datum's symmetry
    check scales through the same memo, so a repeated call, or a check after
    loading, returns the same object (see _memo).  Callers must not change it
    in place."""
    if h is None:
        h = g
    if g not in datum.degrees and h not in datum.degrees:
        raise KeyError(f"unknown degree {g}")
    b = datum.block(g, h)
    if b is None:
        raise KeyError(f"no S' block for degrees ({g}, {h})")
    if h not in datum.dims:
        raise KeyError(f"no modified dimensions recorded for column degree {h}")
    return _scaled_block(datum, b)

