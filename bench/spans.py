"""In-memory span tracing of matlen's public functions, installed from outside.

The tracer wraps every public function defined in the traced modules, plus
`SpanBasis.insert`, and rebinds each module attribute that refers to the
original. That covers the names other modules imported with `from .linalg
import mat_mul`, so `matlen.length.mat_mul` is traced as well as
`matlen.linalg.mat_mul`. Nothing inside the package changes, and
`uninstall` puts every original back.

A span is (name, start, end, parent, instance): `parent` is the index of the
enclosing span or -1, and `instance` is whatever the caller set on
`Tracer.instance` before the call. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

TRACED_MODULES = ("linalg", "length", "spectral", "certificates", "instances", "reports", "cli")
INT64_BYTES = 8


def _insert_hook(tracer, args, result):
    # Work implied by the basis shape before the call: the reduction reads the
    # d x N basis once (d*N MACs); an accepted vector adds the rank-1 update
    # over the same rows (d*N MACs, read and write) and the np.insert copy
    # (d rows read, d+1 rows written).
    basis = args[0]
    n_amb = basis.ambient_dim
    d = basis.dim() - (1 if result else 0)
    macs = d * n_amb
    moved = d * n_amb
    if result:
        tracer.counts["insert.accepted"] += 1
        macs += d * n_amb
        moved += 2 * d * n_amb + d * n_amb + (d + 1) * n_amb
    tracer.counts["insert.macs"] += macs
    tracer.counts["insert.bytes"] += moved * INT64_BYTES


def _rank_reduction_hook(tracer, args, result):
    a, _spec, r_max = args[:3]
    tracer.rank_reduction_keys.add((a.field.p, a.n, a.entries.tobytes(), r_max))
    if result is not None:
        tracer.counts["frr.hits"] += 1


def _compute_length_hook(tracer, args, result):
    tracer.counts["length.levels"] += len(result.dims) - 1


def _build_hook(tracer, args, result):
    tracer.counts["instances.retries"] += result.retries


def _canonical_json_hook(tracer, args, result):
    tracer.counts["canonical_json.bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "linalg.SpanBasis.insert": _insert_hook,
    "certificates.find_rank_reduction": _rank_reduction_hook,
    "length.compute_length": _compute_length_hook,
    "instances.build_instance_with_meta": _build_hook,
    "reports.canonical_json": _canonical_json_hook,
}


class Tracer:
    """Records nested spans and boundary counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.instance = None
        self.counts: Counter = Counter()
        self.rank_reduction_keys: set = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {short: sys.modules[f"matlen.{short}"] for short in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        span_basis = modules["linalg"].SpanBasis
        self._set(span_basis, "insert", self._wrap("linalg.SpanBasis.insert", span_basis.insert))
        for name, mod in list(sys.modules.items()):
            if name != "matlen" and not name.startswith("matlen."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tinstance\n")
            for name, start, end, parent, instance in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{instance}\n")


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, and self seconds.

    Self time is a span's duration minus the time its direct children cover;
    spans are strictly nested because the traced calls run on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child_time[i]
    return totals


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, instances: int, traced_s: float, untraced_s: float) -> dict:
    """Named per-layer metrics (value, unit) from one traced pass."""
    spans, counts = tracer.spans, tracer.counts
    totals = span_totals(spans)
    names = [s[0] for s in spans]
    under_length = Counter(
        name for name, _, _, parent, _ in spans
        if parent >= 0 and names[parent] == "length.compute_length"
    )

    def t(name, field):
        return totals.get(name, {}).get(field, 0)

    cl_calls = t("length.compute_length", "calls")
    candidates = under_length["linalg.mat_mul"]
    # compute_length inserts the identity once, then every candidate that
    # survives the `seen` dedupe.
    dedupe_skips = candidates - (under_length["linalg.SpanBasis.insert"] - cl_calls)
    frr_calls = t("certificates.find_rank_reduction", "calls")
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("linalg.SpanBasis.insert.calls", t("linalg.SpanBasis.insert", "calls"), "count")
    put("linalg.SpanBasis.insert.self_s", t("linalg.SpanBasis.insert", "self_s"), "s")
    put("linalg.SpanBasis.insert.accept_ratio",
        _ratio(counts["insert.accepted"], t("linalg.SpanBasis.insert", "calls")), "ratio")
    put("linalg.SpanBasis.insert.macs_computed", counts["insert.macs"], "count")
    put("linalg.SpanBasis.insert.bytes_computed", counts["insert.bytes"], "B")
    for fn in ("mat_mul", "rank", "mat_inverse"):
        put(f"linalg.{fn}.calls", t(f"linalg.{fn}", "calls"), "count")
        put(f"linalg.{fn}.self_s", t(f"linalg.{fn}", "self_s"), "s")
    put("length.compute_length.calls", cl_calls, "count")
    put("length.compute_length.s", t("length.compute_length", "s"), "s")
    put("length.compute_length.self_s", t("length.compute_length", "self_s"), "s")
    put("length.compute_length.calls_per_instance", _ratio(cl_calls, instances), "calls/instance")
    put("length.candidates", candidates, "count")
    put("length.dedupe_skips", dedupe_skips, "count")
    put("length.levels", counts["length.levels"], "count")
    for fn in ("minimal_polynomial", "split_roots", "jordan_profile"):
        put(f"spectral.{fn}.calls", t(f"spectral.{fn}", "calls"), "count")
        put(f"spectral.{fn}.s", t(f"spectral.{fn}", "s"), "s")
    put("certificates.find_rank_reduction.calls", frr_calls, "count")
    put("certificates.find_rank_reduction.s", t("certificates.find_rank_reduction", "s"), "s")
    put("certificates.find_rank_reduction.self_s",
        t("certificates.find_rank_reduction", "self_s"), "s")
    put("certificates.find_rank_reduction.hit_ratio", _ratio(counts["frr.hits"], frr_calls), "ratio")
    put("certificates.find_rank_reduction.repeat_ratio",
        _ratio(frr_calls, len(tracer.rank_reduction_keys)), "ratio")
    for fn in ("analyze_generators", "bound_ledger", "best_certificates"):
        put(f"certificates.{fn}.s", t(f"certificates.{fn}", "s"), "s")
    put("instances.build_instance_with_meta.calls", t("instances.build_instance_with_meta", "calls"), "count")
    put("instances.build_instance_with_meta.s", t("instances.build_instance_with_meta", "s"), "s")
    put("instances.retries", counts["instances.retries"], "count")
    put("reports.evaluate_instance.calls", t("reports.evaluate_instance", "calls"), "count")
    put("reports.evaluate_instance.s", t("reports.evaluate_instance", "s"), "s")
    put("reports.canonical_json.calls", t("reports.canonical_json", "calls"), "count")
    put("reports.canonical_json.s", t("reports.canonical_json", "s"), "s")
    put("reports.canonical_json.bytes", counts["canonical_json.bytes"], "B")
    put("cli.main.s", t("cli.main", "s"), "s")
    put("cli.main.self_s", t("cli.main", "self_s"), "s")
    put("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio")
    return out


# Counts that must repeat exactly between two traced runs on one seed.
EXACT_COUNTS = (
    "linalg.SpanBasis.insert.calls",
    "linalg.SpanBasis.insert.macs_computed",
    "linalg.SpanBasis.insert.bytes_computed",
    "linalg.mat_mul.calls",
    "linalg.rank.calls",
    "linalg.mat_inverse.calls",
    "length.compute_length.calls",
    "length.candidates",
    "length.dedupe_skips",
    "length.levels",
    "spectral.minimal_polynomial.calls",
    "spectral.split_roots.calls",
    "spectral.jordan_profile.calls",
    "certificates.find_rank_reduction.calls",
    "certificates.find_rank_reduction.repeat_ratio",
    "instances.build_instance_with_meta.calls",
    "instances.retries",
    "reports.evaluate_instance.calls",
    "reports.canonical_json.calls",
    "reports.canonical_json.bytes",
)
