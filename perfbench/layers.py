"""Per-layer tracing from outside the program, by wrapping public functions.

The layers are the modules relmod.scalars, matrices, datum, checks, sl21,
closure and cli.  A Tracer swaps wrappers in for their public functions in
every relmod module namespace that holds them (and on the classes for
methods), and swaps the originals back on uninstall.  The program's files
are not changed.

Most wrappers record a span: the call's duration, aggregated per function
over outermost calls, and the layer's self time, which is span time minus
the time of the spans nested directly inside it.  Spans are aggregated when
they close instead of being kept, so memory stays flat.

CycScalar mul and add run millions of times, so they only count calls and
the largest term count they produce; their time lands in the self time of
the enclosing span (usually matrices or sl21).  The work of a ``check all``
job runs on one pool thread while the calling thread waits, so a single
span stack stays consistent.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "matrices", "datum", "checks", "sl21", "closure", "cli")

# Per-layer metric names.  "<x>_s" reports the span key "<layer>.<x>" (total
# time of outermost calls) and "<x>_calls" its call count; "self_s" is the
# layer's self time; the rest are counters kept by the wrappers.
METRICS = {
    "scalars": ["mul_calls", "add_calls", "exact_div_calls", "exact_div_s",
                "exact_div_inexact", "parse_calls", "parse_s", "max_terms"],
    "matrices": ["rank_calls", "rank_s", "det_calls", "det_s", "invert_calls", "invert_s",
                 "matmul_calls", "matmul_s", "elim_unique_ratio"],
    "datum": ["loads_calls", "loads_s", "dumps_s", "validate_s", "modified_S_s",
              "bytes_in", "bytes_out"],
    "checks": ["nondegeneracy_s", "rank_constancy_s", "dmug_s", "relative_modularity_s",
               "premodular_inputs_s"],
    "sl21": ["build_s", "relations_s", "tensor_s", "decompose_s", "emit_s"],
    "closure": ["certify_calls", "certify_s", "replay_s", "replay_certify_calls", "rewrites"],
    "cli": ["main_calls", "report_bytes"],
}
METRIC_NAMES = [f"{layer}.{m}" for layer, ms in METRICS.items() for m in ms] + \
    [f"{layer}.self_s" for layer in LAYERS]

# (module, owner class or None, attribute, span key "<layer>.<name>")
_SPANS = [
    ("relmod.scalars", "CycScalar", "exact_div", "scalars.exact_div"),
    ("relmod.scalars", None, "parse_scalar", "scalars.parse"),
    ("relmod.matrices", "ExactMatrix", "rank", "matrices.rank"),
    ("relmod.matrices", "ExactMatrix", "det", "matrices.det"),
    ("relmod.matrices", "ExactMatrix", "invert", "matrices.invert"),
    ("relmod.matrices", "ExactMatrix", "__matmul__", "matrices.matmul"),
    ("relmod.datum", None, "loads_datum", "datum.loads"),
    ("relmod.datum", None, "dumps_datum", "datum.dumps"),
    ("relmod.datum", None, "validate_datum", "datum.validate"),
    ("relmod.datum", None, "modified_S", "datum.modified_S"),
    ("relmod.datum", None, "load_datum", "datum.load_file"),
    ("relmod.datum", None, "save_datum", "datum.save_file"),
    ("relmod.checks", None, "check_nondegeneracy", "checks.nondegeneracy"),
    ("relmod.checks", None, "check_rank_constancy", "checks.rank_constancy"),
    ("relmod.checks", None, "check_dmug", "checks.dmug"),
    ("relmod.checks", None, "check_relative_modularity", "checks.relative_modularity"),
    ("relmod.checks", None, "check_premodular_inputs", "checks.premodular_inputs"),
    ("relmod.sl21.reps", None, "build_Ak", "sl21.build"),
    ("relmod.sl21.reps", None, "check_relations", "sl21.relations"),
    ("relmod.sl21.reps", None, "tensor_rep", "sl21.tensor"),
    ("relmod.sl21.reps", None, "select_convention", "sl21.select_convention"),
    ("relmod.sl21.characters", None, "decompose_typical", "sl21.decompose"),
    ("relmod.sl21.characters", None, "fuse_A", "sl21.fuse"),
    ("relmod.sl21.datum_gen", None, "emit_datum", "sl21.emit"),
    ("relmod.sl21.datum_gen", None, "rank_bound_analysis", "sl21.rank_bound"),
    ("relmod.closure", None, "replay_certificate", "closure.replay"),
    ("relmod.closure", None, "toy_closure_datum", "closure.toy_datum"),
    ("relmod.cli", None, "main", "cli.main"),
]


def _relmod_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "relmod" or name.startswith("relmod."))]


class Tracer:
    def __init__(self):
        self.stack: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.span: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_terms = 0
        self.elim_calls = 0
        self.elim_seen: set[int] = set()
        self.in_replay = 0
        self._patches = self._plan()

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, key, before=None, after=None):
        stack, calls, span, depth, self_time = \
            self.stack, self.calls, self.span, self.depth, self.self_time
        perf = time.perf_counter
        layer = key.split(".")[0]

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            depth[key] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_time[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                depth[key] -= 1
                calls[key] += 1
                if not depth[key]:
                    span[key] += dt
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, fn, counter):
        counts = self.counts

        def wrapper(a, b):
            result = fn(a, b)
            counts[counter] += 1
            terms = getattr(result, "coeffs", None)
            if terms is not None and len(terms) > self.max_terms:
                self.max_terms = len(terms)
            return result
        return wrapper

    def _plan(self):
        """Every (owner, attribute, original, wrapper) to swap on install."""
        import relmod.closure as closure
        import relmod.scalars as scalars

        swaps: dict[int, tuple[object, object]] = {}   # id(original) -> (original, wrapper)
        cyc = scalars.CycScalar
        swaps[id(cyc.__mul__)] = (cyc.__mul__, self._counted(cyc.__mul__, "scalars.mul_calls"))
        swaps[id(cyc.__add__)] = (cyc.__add__, self._counted(cyc.__add__, "scalars.add_calls"))

        def exact_div(fn):
            def wrapper(a, b):
                try:
                    result = fn(a, b)
                except scalars.InexactDivision:
                    self.counts["scalars.exact_div_inexact"] += 1
                    raise
                if len(result.coeffs) > self.max_terms:
                    self.max_terms = len(result.coeffs)
                return result
            return wrapper

        def eliminated(args):
            m = args[0]
            self.elim_calls += 1
            self.elim_seen.add(hash((m.rows, m.cols, m.conductor, tuple(m.entries))))

        def bytes_in(args):
            self.counts["datum.bytes_in"] += os.path.getsize(args[0])

        def bytes_out(args, _):
            self.counts["datum.bytes_out"] += os.path.getsize(args[1])

        def replay(fn):
            def wrapper(*args, **kwargs):
                self.in_replay += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.in_replay -= 1
            return wrapper

        extra = {
            "scalars.exact_div": dict(inner=exact_div),
            "matrices.rank": dict(before=eliminated),
            "matrices.det": dict(before=eliminated),
            "matrices.invert": dict(before=eliminated),
            "datum.load_file": dict(before=bytes_in),
            "datum.save_file": dict(after=bytes_out),
            "closure.replay": dict(inner=replay),
        }
        for module, owner, attr, key in _SPANS:
            holder = sys.modules[module]
            if owner is not None:
                holder = getattr(holder, owner)
            orig = getattr(holder, attr)
            opts = extra.get(key, {})
            fn = opts["inner"](orig) if "inner" in opts else orig
            swaps[id(orig)] = (orig, self._spanned(fn, key, opts.get("before"),
                                                   opts.get("after")))

        # certify recurses through the module global, so every level is a span;
        # calls made while replaying a certificate are counted apart.
        orig_certify = closure.certify
        top = self._spanned(orig_certify, "closure.certify", after=self._count_rewrites)
        under_replay = self._spanned(orig_certify, "closure.replay_certify")

        def certify(*args, **kwargs):
            return (under_replay if self.in_replay else top)(*args, **kwargs)
        swaps[id(orig_certify)] = (orig_certify, certify)

        patches = []
        for holder in _relmod_modules() + [scalars.CycScalar,
                                           sys.modules["relmod.matrices"].ExactMatrix]:
            for name, value in list(vars(holder).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((holder, name, value, hit[1]))
        return patches

    def _count_rewrites(self, args, result):
        if not self.depth["closure.certify"] and hasattr(result, "count_rewrites"):
            self.counts["closure.rewrites"] += result.count_rewrites()

    # -- install / read out -------------------------------------------------

    def install(self) -> None:
        for holder, name, _, wrapper in self._patches:
            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, orig, _ in reversed(self._patches):
            setattr(holder, name, orig)
        self.stack.clear()

    def add_report_bytes(self, n: int) -> None:
        self.counts["cli.report_bytes"] += n

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in METRIC_NAMES:
            layer, metric = name.split(".")
            if metric == "self_s":
                out[name] = self.self_time[layer]
            elif metric == "max_terms":
                out[name] = self.max_terms
            elif metric == "elim_unique_ratio":
                out[name] = len(self.elim_seen) / self.elim_calls if self.elim_calls else 0.0
            elif metric.endswith("_s"):
                out[name] = self.span[f"{layer}.{metric[:-2]}"]
            elif metric.endswith("_calls") and f"{layer}.{metric[:-6]}" in self.calls:
                out[name] = self.calls[f"{layer}.{metric[:-6]}"]
            else:
                out[name] = self.counts[name]
        return out
