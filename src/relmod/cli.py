"""Command-line interface: datum checks, sl(2|1) generation, closure certification.

Exit codes: 0 all requested checks hold (or are unmet-but-allowed), 1 at least
one check fails or cannot run, 2 usage or schema errors, 3 internal errors.
Reports are deterministic: the same invocation on the same inputs produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks as checks_mod
from . import closure as closure_mod
from .datum import (
    DatumInvariantError,
    DatumSchemaError,
    ModularDatum,
    dumps_datum,
    load_datum,
    parse_degree,
    save_datum,
)
from .sl21 import (
    build_Ak,
    check_relations,
    emit_datum,
    fuse_A,
    rank_bound_analysis,
    select_convention,
    WeightLabel,
)
from .verdicts import DATA_ABSENT, FAILS, HOLDS, HYPOTHESIS_NOT_MET, Verdict

USAGE_ERROR, CHECK_FAILURE, INTERNAL_ERROR = 2, 1, 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _emit(doc: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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
    try:
        return load_datum(args.datum)
    except FileNotFoundError:
        raise _CliError(f"datum file not found: {args.datum}") from None
    except (DatumSchemaError, DatumInvariantError) as exc:
        raise _CliError(f"invalid datum: {exc}") from None


def _report(args, verdicts: list[Verdict], extra: dict | None = None) -> int:
    code = _verdict_exit(verdicts, args.allow_unmet)
    doc = {
        "invocation": args._argv,
        "reports": [v.to_json() for v in verdicts],
        "exit_code": code,
    }
    if extra:
        doc.update(extra)
    lines = [v.render_text() for v in verdicts]
    lines.append(f"exit code: {code}")
    _emit(doc, args.format, lines)
    return code


# ---------------------------------------------------------------------------
# check subcommands
# ---------------------------------------------------------------------------

def _degree_arg(args, flag: str):
    text = getattr(args, flag)
    if text is None:
        raise _CliError(f"check {args.what} requires --{flag}")
    return parse_degree(text)


def _cmd_check(args) -> int:
    datum = _load(args)
    which = args.what
    verdicts: list[Verdict] = []
    if which == "nondeg":
        verdicts.append(checks_mod.check_nondegeneracy(datum, _degree_arg(args, "g")))
    elif which == "dmug":
        verdicts.append(checks_mod.check_dmug(datum, _degree_arg(args, "g")))
    elif which == "modularity":
        verdicts.append(checks_mod.check_relative_modularity(
            datum, _degree_arg(args, "g"), _degree_arg(args, "h")))
    elif which == "rank-constancy":
        verdicts.append(checks_mod.check_rank_constancy(datum))
    elif which == "premodular":
        verdicts.append(checks_mod.check_premodular_inputs(datum))
    elif which == "all":
        verdicts.extend(_run_all(datum))
    else:
        raise _CliError(f"unknown check {which!r}")
    return _report(args, verdicts)


def _run_all(datum: ModularDatum) -> list[Verdict]:
    generic = [g for g in datum.degrees if datum.grading.is_generic(g)]
    jobs = [("premodular", lambda: checks_mod.check_premodular_inputs(datum)),
            ("rank-constancy", lambda: checks_mod.check_rank_constancy(datum))]
    for g in generic:
        jobs.append((f"nondeg {g}", lambda g=g: checks_mod.check_nondegeneracy(datum, g)))
        jobs.append((f"dmug {g}", lambda g=g: checks_mod.check_dmug(datum, g)))
    pairs = []
    for g in generic:
        for h in generic:
            if datum.block(g, h) is not None and \
                    datum.block(h, datum.negate(g)) is not None:
                pairs.append((g, h))
                jobs.append((f"modularity {g},{h}",
                             lambda g=g, h=h: checks_mod.check_relative_modularity(datum, g, h)))
    results = [run() for _, run in jobs]
    # cross-implication: relative modularity at (g, .) forces non-degeneracy at g
    by_name = {name: v for (name, _), v in zip(jobs, results)}
    for g, h in pairs:
        mod_v = by_name.get(f"modularity {g},{h}")
        nd_v = by_name.get(f"nondeg {g}")
        if mod_v and nd_v and mod_v.status == HOLDS and nd_v.status == FAILS:
            breach = Verdict("cross-check", FAILS,
                             params={"g": str(g), "h": str(h)})
            breach.notes.append("internal consistency: relative modularity holds "
                                "but non-degeneracy fails at the same degree")
            results.append(breach)
    return results


# ---------------------------------------------------------------------------
# sl21 subcommands
# ---------------------------------------------------------------------------

def _cmd_sl21(args) -> int:
    which = args.what
    if which == "emit":
        datum = emit_datum(args.ell)
        if args.out:
            save_datum(datum, args.out)
        doc = {"invocation": args._argv, "ell": args.ell,
               "index_set_size": len(next(iter(datum.index_sets.values()))),
               "out": args.out, "exit_code": 0}
        if not args.out and args.format == "json":
            doc["datum"] = dumps_datum(datum)
        _emit(doc, args.format,
              [f"emitted sl(2|1) datum for ell={args.ell} "
               f"({doc['index_set_size']} simple labels)"
               + (f" -> {args.out}" if args.out else "")])
        return 0
    if which == "relations":
        if args.k is None:
            raise _CliError("sl21 relations requires --k")
        conv = args.convention or select_convention(args.ell)
        rep = build_Ak(args.k, args.ell, conv)
        verdict = check_relations(rep)
        verdict.notes.insert(0, f"active convention: {conv}"
                             + ("" if args.convention else " (selected at build time)"))
        return _report(args, [verdict])
    if which == "fuse":
        if args.k is None or args.i is None:
            raise _CliError("sl21 fuse requires --k and --i")
        lab = fuse_A(WeightLabel(k=args.k, shift=args.i), args.ell)
        doc = {"invocation": args._argv, "ell": args.ell,
               "input": {"k": args.k, "i": args.i},
               "output": {"k": lab.k, "i": lab.shift, "parity": lab.parity,
                          "eps_power": lab.eps},
               "exit_code": 0}
        _emit(doc, args.format,
              [f"A (x) V(k={args.k}, i={args.i})  ->  "
               f"k={lab.k}, i={lab.shift}, parity={'odd' if lab.parity else 'even'}, "
               f"eps^{lab.eps}"])
        return 0
    if which == "rank-bound":
        rep = rank_bound_analysis(args.ell)
        doc = {"invocation": args._argv, "exit_code": 0, **rep.to_json()}
        lines = [f"ell = {rep.ell}: S-matrix size {rep.matrix_size}, "
                 f"{rep.bound} proportionality classes "
                 f"(involution fixed-point-free: {rep.fixed_point_free})",
                 f"row pairing factor: {rep.proportionality_factor}",
                 f"verdict: {rep.verdict}"]
        _emit(doc, args.format, lines)
        return 0
    raise _CliError(f"unknown sl21 subcommand {which!r}")


# ---------------------------------------------------------------------------
# closure subcommands
# ---------------------------------------------------------------------------

def _closure_datum(args) -> closure_mod.ClosureDatum:
    if args.closure:
        try:
            return closure_mod.load_closure(args.closure)
        except FileNotFoundError:
            raise _CliError(f"closure file not found: {args.closure}") from None
        except DatumSchemaError as exc:
            raise _CliError(f"invalid closure datum: {exc}") from None
    return closure_mod.toy_closure_datum()


def _cmd_closure(args) -> int:
    which = args.what
    if which == "check":
        datum = _closure_datum(args)
        fn = closure_mod.check_cor1 if args.cor == 1 else closure_mod.check_cor2
        return _report(args, [fn(datum)])
    if which == "certify":
        datum = _closure_datum(args)
        try:
            result = closure_mod.certify(datum, args.expr, args.depth)
        except closure_mod.ExprParseError as exc:
            raise _CliError(f"bad expression: {exc}") from None
        if isinstance(result, closure_mod.CertifyFailure):
            doc = {"invocation": args._argv, "certified": False,
                   "failure": {"kind": result.kind, "expr": result.expr,
                               "message": result.message},
                   "exit_code": CHECK_FAILURE}
            _emit(doc, args.format,
                  [f"certification failed ({result.kind}): {result.message}",
                   f"stuck expression: {result.expr}"])
            return CHECK_FAILURE
        doc = {"invocation": args._argv, "certified": True,
               "certificate": result.to_json(), "exit_code": 0}
        _emit(doc, args.format,
              [f"certified: {result.expr}",
               f"rewrites used: {result.count_rewrites()}"])
        return 0
    if which == "emit-toy":
        datum = closure_mod.toy_closure_datum()
        if args.out:
            closure_mod.save_closure(datum, args.out)
            _emit({"invocation": args._argv, "out": args.out, "exit_code": 0},
                  args.format, [f"wrote toy closure datum -> {args.out}"])
        else:
            _emit({"invocation": args._argv, "datum": closure_mod.dumps_closure(datum),
                   "exit_code": 0},
                  args.format,
                  [json.dumps(closure_mod.dumps_closure(datum), indent=2, sort_keys=True)])
        return 0
    raise _CliError(f"unknown closure subcommand {which!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    args._argv = argv
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # pragma: no cover - internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
