"""Outside-in tracing: spans around calls into sigcalc's public functions.

The tracer replaces each named function in every sigcalc module that
holds it (``from .arith import bsgs_dlog`` binds a second name), so no
file of the library changes.  Spans stay in memory until the run ends.
Hot per-attempt functions are not spans: their calls are aggregated as
count, total and self time under the innermost open span.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter

# Spans: one record per call.
SPANNED = (
    "sigcalc.arith.bsgs_dlog",
    "sigcalc.quadfield.class_number",
    "sigcalc.indexcalc.index_calculus_dlog",
    "sigcalc.indexcalc.build_theta_table",
    "sigcalc.indexcalc.collect_relations",
    "sigcalc.indexcalc.solve_linear_mod_ell",
    "sigcalc.charsig.lift_unit",
    "sigcalc.charsig.signature_index_calculus",
    "sigcalc.charsig.signature_from_dl",
    "sigcalc.charsig.dl_from_signature",
    "sigcalc.ecurve.ec_group_order",
    "sigcalc.ecurve.local_class",
    "sigcalc.ecsig.lift_ec_instance",
    "sigcalc.ecsig.signature_from_ecdl",
    "sigcalc.ecsig.ecdl_from_signature",
    "sigcalc.ecsig.coker_dim",
    "sigcalc.ecsig.scan_torsion_places",
)
# Hot per-attempt calls: aggregated under their parent span.
HOT = (
    "sigcalc.seeds.rng_for",
    "sigcalc.arith.smooth_cofactor",
    "sigcalc.arith.factor_smooth",
    "sigcalc.quadfield.place_valuations",
    "sigcalc.quadfield.embed",
    "sigcalc.ecurve.ec_add",
)


def _short(qualname: str) -> str:
    return qualname.split(".", 1)[1]  # "sigcalc.arith.f" -> "arith.f"


def _info(name: str, args, result) -> dict:
    """Counts a span carries besides its times."""
    if name == "indexcalc.collect_relations":
        return {"relations": len(result)}
    if name == "indexcalc.solve_linear_mod_ell":
        info = {"rows": len(args[0])}
        if result is not None:
            info.update(rank=result.rank, nullity=result.nullity, cols=len(result.columns))
        return info
    if name == "ecurve.ec_group_order":
        curve = args[0]
        return {"key": (curve.a, curve.b, curve.base[1])}
    return {}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child", "info", "error")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.parent, self.op = name, start, parent, op
        self.end = None
        self.child = 0.0  # time covered by child spans and outermost hot calls
        self.info: dict = {}
        self.error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child


class Tracer:
    """Records spans while installed; restores every function on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.op = None
        self._stack: list[int] = []
        self._hot_stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _parent_name(self) -> str:
        return self.spans[self._stack[-1]].name if self._stack else "-"

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, clock(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                self._stack.pop()
                span.info = _info(name, args, result)
                if parent is not None:
                    self.spans[parent].child += span.seconds
        return traced

    def _hot_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            start = clock()
            self._hot_stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                nested = self._hot_stack.pop()
                entry = self.hot.setdefault((self._parent_name(), name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += seconds
                entry[2] += seconds - nested
                if self._hot_stack:
                    self._hot_stack[-1] += seconds
                elif self._stack:
                    self.spans[self._stack[-1]].child += seconds
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "sigcalc" or key.startswith("sigcalc.")]
        for qualnames, make in ((SPANNED, self._span_wrapper), (HOT, self._hot_wrapper)):
            for qualname in qualnames:
                modname, attr = qualname.rsplit(".", 1)
                original = getattr(sys.modules[modname], attr)
                wrapper = make(_short(qualname), original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """All spans as JSON lines; parent is the parent's line number."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op, "error": span.error,
                    "info": span.info}) + "\n")

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name (and per hot name): calls, total and self seconds."""
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.seconds
            row["self_s"] += span.self_seconds
        for (_, name), (calls, total, own) in self.hot.items():
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += own
        return dict(sorted(table.items()))

    def hot_total(self, name: str, parent: str | None = None) -> tuple[int, float]:
        calls, total = 0, 0.0
        for (p, n), (c, t, _) in self.hot.items():
            if n == name and (parent is None or p == parent):
                calls += c
                total += t
        return calls, total

    def spans_named(self, name: str, parent: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (
            parent is None or (s.parent is not None and self.spans[s.parent].name == parent))]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-module metrics, derived from one traced phase."""
    def total(spans):
        return sum(s.seconds for s in spans)

    m: dict[str, float] = {}
    calls, secs = tr.hot_total("seeds.rng_for")
    m["seeds.rng_for_calls"], m["seeds.rng_for_s"] = calls, secs
    m["arith.smooth_screen_calls"], m["arith.smooth_screen_s"] = tr.hot_total("arith.smooth_cofactor")
    m["arith.factor_smooth_calls"], m["arith.factor_smooth_s"] = tr.hot_total("arith.factor_smooth")
    bsgs = tr.spans_named("arith.bsgs_dlog")
    m["arith.bsgs_calls"], m["arith.bsgs_s"] = len(bsgs), total(bsgs)

    theta = tr.spans_named("indexcalc.build_theta_table")
    collects = tr.spans_named("indexcalc.collect_relations", "indexcalc.build_theta_table")
    solves = tr.spans_named("indexcalc.solve_linear_mod_ell", "indexcalc.build_theta_table")
    done = [s for s in solves if s.error is None]
    collected = sum(s.info.get("relations", 0) for s in collects)
    last_solve_rows = {s.parent: s.info["rows"] for s in solves}  # later solves win
    last_rows = sum(last_solve_rows.values())
    attempts, _ = tr.hot_total("seeds.rng_for", "indexcalc.collect_relations")
    smooth, _ = tr.hot_total("arith.factor_smooth", "indexcalc.collect_relations")
    dlogs = tr.spans_named("indexcalc.index_calculus_dlog")
    m["indexcalc.theta_table_s"] = total(theta)
    m["indexcalc.collect_calls"], m["indexcalc.collect_s"] = len(collects), total(collects)
    m["indexcalc.relations_collected"] = collected
    m["indexcalc.relation_useful_ratio"] = _ratio(last_rows, collected)
    m["indexcalc.smooth_yield"] = _ratio(smooth, attempts)
    m["indexcalc.descent_s"] = total(dlogs) - total(
        tr.spans_named("indexcalc.build_theta_table", "indexcalc.index_calculus_dlog"))
    m["indexcalc.solve_calls"], m["indexcalc.solve_s"] = len(solves), total(solves)
    for key in ("rank", "nullity", "cols"):
        m[f"indexcalc.solve_{key}"] = _ratio(sum(s.info[key] for s in done), len(done))

    lifts = tr.spans_named("charsig.lift_unit")
    searches = tr.spans_named("charsig.signature_index_calculus")
    sig_attempts, _ = tr.hot_total("seeds.rng_for", "charsig.signature_index_calculus")
    sig_smooth, _ = tr.hot_total("arith.factor_smooth", "charsig.signature_index_calculus")
    sig_solves = tr.spans_named("indexcalc.solve_linear_mod_ell",
                                "charsig.signature_index_calculus")
    m["charsig.lift_calls"], m["charsig.lift_s"] = len(lifts), total(lifts)
    m["charsig.lift_failed"] = sum(1 for s in lifts if s.error is not None)
    m["charsig.index_calculus_s"] = total(searches)
    m["charsig.attempts"] = sig_attempts
    m["charsig.smooth_yield"] = _ratio(sig_smooth, sig_attempts)
    m["charsig.solve_calls"], m["charsig.solve_s"] = len(sig_solves), total(sig_solves)
    m["charsig.dl_oracle_s"] = total(tr.spans_named("arith.bsgs_dlog", "charsig.signature_from_dl"))

    classes = tr.spans_named("quadfield.class_number")
    m["quadfield.class_number_calls"], m["quadfield.class_number_s"] = len(classes), total(classes)
    m["quadfield.place_valuations_calls"], m["quadfield.place_valuations_s"] = \
        tr.hot_total("quadfield.place_valuations")
    m["quadfield.embed_calls"], m["quadfield.embed_s"] = tr.hot_total("quadfield.embed")

    counts = tr.spans_named("ecurve.ec_group_order")
    locals_ = tr.spans_named("ecurve.local_class")
    m["ecurve.point_count_calls"], m["ecurve.point_count_s"] = len(counts), total(counts)
    m["ecurve.point_count_repeat_ratio"] = _ratio(
        len(counts), len({s.info["key"] for s in counts}))
    m["ecurve.local_class_calls"], m["ecurve.local_class_s"] = len(locals_), total(locals_)
    m["ecurve.ec_add_calls"] = tr.hot_total("ecurve.ec_add")[0]

    m["ecsig.lift_s"] = total(tr.spans_named("ecsig.lift_ec_instance"))
    m["ecsig.roundtrip_s"] = total(tr.spans_named("ecsig.signature_from_ecdl")) + total(
        tr.spans_named("ecsig.ecdl_from_signature"))
    m["ecsig.ecdl_oracle_s"] = total(tr.spans_named("arith.bsgs_dlog", "ecsig.signature_from_ecdl"))
    m["ecsig.coker_s"] = total(tr.spans_named("ecsig.coker_dim"))
    m["ecsig.scan_s"] = total(tr.spans_named("ecsig.scan_torsion_places"))
    return m
