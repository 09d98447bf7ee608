"""Command-line interface: datum checks, sl(2|1) generation, closure certification.

Exit codes: 0 all requested checks hold (or are unmet-but-allowed), 1 at least
one check fails or cannot run, 2 usage or schema errors, 3 internal errors.
Reports are deterministic: the same invocation on the same inputs produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from . import checks as checks_mod
from . import closure as closure_mod
from .datum import (
    DatumInvariantError,
    DatumSchemaError,
    ModularDatum,
    check_cyclic,
    dumps_datum,
    json_text,
    load_datum,
    parse_degree,
    save_datum,
)
from .sl21 import (
    build_Ak,
    check_relations,
    emit_datum,
    fuse_A,
    ParameterError,
    rank_bound_analysis,
    select_convention,
    WeightLabel,
)
from .verdicts import DATA_ABSENT, FAILS, HOLDS, HYPOTHESIS_NOT_MET, Verdict

USAGE_ERROR, CHECK_FAILURE, INTERNAL_ERROR = 2, 1, 3


class _CliError(Exception):
    """A usage error: bad arguments or a bad input file (exit 2)."""


def _emit(args, doc: dict, lines: list[str], code: int = 0) -> int:
    """Write the report, the JSON doc with `invocation` and `exit_code` added or
    the text lines, and return its exit code."""
    doc = {"invocation": args._argv, **doc, "exit_code": code}
    lines = [json_text(doc)] if args.format == "json" else lines
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): the verdict still
        # stands, and output left in the buffer goes nowhere at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _file(what: str, path: str, op, *doc):
    """op(*doc, path): read a --datum or --closure file (no doc) or write an
    --out file.  A file that cannot be read or written, or a malformed
    document, is a usage error that names the file."""
    try:
        return op(*doc, path)
    except (DatumSchemaError, DatumInvariantError) as exc:
        raise _CliError(f"invalid {what}: {exc}") from None
    except OSError as exc:
        if doc:
            raise _CliError(f"cannot write {what} file {path}: {exc.strerror or exc}") from None
        if isinstance(exc, FileNotFoundError):
            raise _CliError(f"{what} file not found: {path}") from None
        raise _CliError(f"cannot read {what} file {path}: {exc.strerror or exc}") from None


def _verdict_exit(verdicts: list[Verdict], allow_unmet: bool) -> int:
    code = 0
    for v in verdicts:
        if v.status == FAILS:
            return CHECK_FAILURE
        if v.status in (HYPOTHESIS_NOT_MET, DATA_ABSENT) and not allow_unmet:
            code = CHECK_FAILURE
    return code


def _load(args) -> ModularDatum:
    if not args.datum:
        raise _CliError("--datum is required for this command")
    return _file("datum", args.datum, load_datum)


def _report(args, verdicts: list[Verdict]) -> int:
    code = _verdict_exit(verdicts, args.allow_unmet)
    return _emit(args, {"reports": [v.to_json() for v in verdicts]},
                 [v.render_text() for v in verdicts] + [f"exit code: {code}"], code)


# ---------------------------------------------------------------------------
# check subcommands
# ---------------------------------------------------------------------------

def _degree_arg(args, flag: str, datum: ModularDatum):
    """The degree given to --flag, whose finite part must fit datum's grading."""
    text = getattr(args, flag)
    if text is None:
        raise _CliError(f"check {args.what} requires --{flag}")
    try:
        g = parse_degree(text)
        check_cyclic(g.finite, datum.grading.cyclic_factors)
        return g
    except ValueError as exc:
        raise _CliError(f"--{flag}: bad degree {text!r}: {exc}") from None


def _cmd_check(args) -> int:
    datum = _load(args)
    which = args.what
    verdicts: list[Verdict] = []
    if which == "nondeg":
        verdicts.append(checks_mod.check_nondegeneracy(datum, _degree_arg(args, "g", datum)))
    elif which == "dmug":
        verdicts.append(checks_mod.check_dmug(datum, _degree_arg(args, "g", datum)))
    elif which == "modularity":
        verdicts.append(checks_mod.check_relative_modularity(
            datum, _degree_arg(args, "g", datum), _degree_arg(args, "h", datum)))
    elif which == "rank-constancy":
        verdicts.append(checks_mod.check_rank_constancy(datum))
    elif which == "premodular":
        verdicts.append(checks_mod.check_premodular_inputs(datum))
    else:
        verdicts.extend(_run_all(datum))
    return _report(args, verdicts)


def _run_all(datum: ModularDatum) -> list[Verdict]:
    generic = [g for g in datum.degrees if datum.grading.is_generic(g)]
    results = [checks_mod.check_premodular_inputs(datum),
               checks_mod.check_rank_constancy(datum)]
    nondeg = {}
    for g in generic:
        nondeg[g] = checks_mod.check_nondegeneracy(datum, g)
        results += [nondeg[g], checks_mod.check_dmug(datum, g)]
    breaches = []
    for g in generic:
        for h in generic:
            if datum.block(g, h) is None or datum.block(h, datum.negate(g)) is None:
                continue
            mod_v = checks_mod.check_relative_modularity(datum, g, h)
            results.append(mod_v)
            # relative modularity at (g, .) forces non-degeneracy at g
            if mod_v.status == HOLDS and nondeg[g].status == FAILS:
                breach = Verdict("cross-check", FAILS, params={"g": str(g), "h": str(h)})
                breach.notes.append("internal consistency: relative modularity holds "
                                    "but non-degeneracy fails at the same degree")
                breaches.append(breach)
    return results + breaches


# ---------------------------------------------------------------------------
# sl21 subcommands
# ---------------------------------------------------------------------------

def _sl21_arg(args, fn, *values):
    """fn(*values): an sl21 constructor, which validates --ell, --k and --i.
    The ParameterError it raises on a value out of range is a usage error
    that names the values given."""
    try:
        return fn(*values)
    except ParameterError as exc:
        given = " ".join(f"--{flag} {getattr(args, flag)}" for flag in ("ell", "k", "i")
                         if getattr(args, flag) is not None)
        raise _CliError(f"{given}: {exc}") from None


def _cmd_sl21(args) -> int:
    which = args.what
    if which == "emit":
        datum = _sl21_arg(args, emit_datum, args.ell)
        if args.out:
            _file("datum", args.out, save_datum, datum)
        doc = {"ell": args.ell, "index_set_size": len(next(iter(datum.index_sets.values()))),
               "out": args.out}
        if not args.out and args.format == "json":
            doc["datum"] = dumps_datum(datum)
        return _emit(args, doc, [f"emitted sl(2|1) datum for ell={args.ell} "
                                 f"({doc['index_set_size']} simple labels)"
                                 + (f" -> {args.out}" if args.out else "")])
    if which == "relations":
        if args.k is None:
            raise _CliError("sl21 relations requires --k")
        conv = args.convention or _sl21_arg(args, select_convention, args.ell)
        verdict = check_relations(_sl21_arg(args, build_Ak, args.k, args.ell, conv))
        verdict.notes.insert(0, f"active convention: {conv}"
                             + ("" if args.convention else " (selected at build time)"))
        return _report(args, [verdict])
    if which == "fuse":
        if args.k is None or args.i is None:
            raise _CliError("sl21 fuse requires --k and --i")
        lab = _sl21_arg(args, fuse_A, WeightLabel(k=args.k, shift=args.i), args.ell)
        doc = {"ell": args.ell, "input": {"k": args.k, "i": args.i},
               "output": {"k": lab.k, "i": lab.shift, "parity": lab.parity,
                          "eps_power": lab.eps}}
        return _emit(args, doc, [
            f"A (x) V(k={args.k}, i={args.i})  ->  "
            f"k={lab.k}, i={lab.shift}, parity={'odd' if lab.parity else 'even'}, "
            f"eps^{lab.eps}"])
    rep = _sl21_arg(args, rank_bound_analysis, args.ell)
    return _emit(args, rep.to_json(), [
        f"ell = {rep.ell}: S-matrix size {rep.matrix_size}, "
        f"{rep.bound} proportionality classes "
        f"(involution fixed-point-free: {rep.fixed_point_free})",
        f"row pairing factor: {rep.proportionality_factor}",
        f"verdict: {rep.verdict}"])


# ---------------------------------------------------------------------------
# closure subcommands
# ---------------------------------------------------------------------------

def _closure_datum(args) -> closure_mod.ClosureDatum:
    if args.closure:
        return _file("closure datum", args.closure, closure_mod.load_closure)
    return closure_mod.toy_closure_datum()


def _cmd_closure(args) -> int:
    which = args.what
    if which == "check":
        fn = closure_mod.check_cor1 if args.cor == 1 else closure_mod.check_cor2
        return _report(args, [fn(_closure_datum(args))])
    if which == "certify":
        if args.expr is None:
            raise _CliError("closure certify requires --expr")
        datum = _closure_datum(args)
        try:
            result = closure_mod.certify(datum, args.expr, args.depth)
        except closure_mod.ExprParseError as exc:
            raise _CliError(f"--expr: bad expression: {exc}") from None
        if isinstance(result, closure_mod.CertifyFailure):
            return _emit(args, {"certified": False,
                                "failure": {"kind": result.kind, "expr": result.expr,
                                            "message": result.message}},
                         [f"certification failed ({result.kind}): {result.message}",
                          f"stuck expression: {result.expr}"], CHECK_FAILURE)
        return _emit(args, {"certified": True, "certificate": result.to_json()},
                     [f"certified: {result.expr}",
                      f"rewrites used: {result.count_rewrites()}"])
    datum = closure_mod.toy_closure_datum()
    if args.out:
        _file("closure datum", args.out, closure_mod.save_closure, datum)
        return _emit(args, {"out": args.out}, [f"wrote toy closure datum -> {args.out}"])
    doc = closure_mod.dumps_closure(datum)
    return _emit(args, {"datum": doc}, [json_text(doc)])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    never changes it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--datum", help="path to a relmod-datum/1 JSON file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--allow-unmet", action="store_true",
                        help="unmet hypotheses / absent data do not fail the run")

    p = argparse.ArgumentParser(prog="relmod", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[common], help="run checks on a datum")
    pc.add_argument("what", choices=("nondeg", "dmug", "modularity",
                                     "rank-constancy", "premodular", "all"))
    pc.add_argument("--g", help="degree, e.g. 'a', '-a', '0', 'a+1'")
    pc.add_argument("--h", help="second degree for modularity")
    pc.set_defaults(fn=_cmd_check)

    ps = sub.add_parser("sl21", parents=[common], help="quantum sl(2|1) tools")
    ps.add_argument("what", choices=("emit", "relations", "fuse", "rank-bound"))
    ps.add_argument("--ell", type=int, required=True, help="odd root-of-unity order")
    ps.add_argument("--k", type=int, help="module height")
    ps.add_argument("--i", type=int, help="weight shift")
    ps.add_argument("--convention", choices=("paper", "corrected"))
    ps.add_argument("--out", help="output path for emitted datum")
    ps.set_defaults(fn=_cmd_sl21)

    pl = sub.add_parser("closure", parents=[common], help="strong-decomposition engine")
    pl.add_argument("what", choices=("check", "certify", "emit-toy"))
    pl.add_argument("--cor", type=int, choices=(1, 2), default=1)
    pl.add_argument("--closure", help="path to a relmod-closure/1 JSON file "
                                      "(default: built-in toy datum)")
    pl.add_argument("--expr", help="expression over atoms with *, +, retract()")
    pl.add_argument("--depth", type=int, default=8)
    pl.add_argument("--out", help="output path")
    pl.set_defaults(fn=_cmd_closure)
    return p


def _attach_degrees(argv: list[str]) -> list[str]:
    """Spell `--g -a` as `--g=-a`: argparse takes a value that starts with '-'
    for an option unless it is attached to its flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--g", "--h") and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_degrees(argv))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    args._argv = argv
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # pragma: no cover - internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
