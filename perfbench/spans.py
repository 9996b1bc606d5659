"""Spans around calls into designforge's public API, recorded from outside.

The tracer replaces each listed function with a wrapper in every designforge
module namespace that holds it, so calls that one module makes into another
(``from .core import verify_pps`` and the like) are traced too.  Each call
becomes a span: name, start, end, parent span and request id.  Spans are kept
in compact in-memory arrays and written out when the run ends.  Per-name call
counts, errors and self time (span time minus the time covered by child
spans) are aggregated as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# The layer boundaries: module -> public functions wrapped.  A dotted entry
# names a class attribute ("PairSet.init" is PairSet.__post_init__); the four
# verify_whist entries are one function, named by the single check it is
# asked to run.
LAYERS: dict[str, tuple[str, ...]] = {
    "modarith": ("crt_lift", "mod_sqrt", "mult_order", "generates_mod_pm_one"),
    "core": ("PairSet.init", "verify_pps", "infer_params", "scale_set",
             "exhaustive_search", "admissible_params"),
    "construct": ("silver_aps", "aps_with_params", "silver_pps_p2", "fill", "inflate",
                  "compose_ps_aps", "ps_product", "cyclotomic_pps", "union_pps_pq"),
    "kramer_mesner": ("MultiplierGroup.generate", "orbits", "build_system",
                      "solve_binary", "develop", "km_search"),
    "designs": ("initial_round", "develop_rounds", "verify_whist.basic",
                "verify_whist.zcps", "verify_whist.directed", "verify_whist.ordered",
                "cdm_from_round", "verify_cdm"),
    "ooc": ("ooc_from_pairs", "ooc_45v_from_ps", "maximal_ooc_pq", "maximal_ooc_p2",
            "verify_ooc", "is_maximal"),
}

WHIST_CHECKS = ("basic", "zcps", "directed", "ordered")
OOC_CONSTRUCTIONS = ("ooc_from_pairs", "ooc_45v_from_ps", "maximal_ooc_pq", "maximal_ooc_p2")

# Counters read off results where the work happens: (metric, unit, traced
# functions whose results it counts, what one result adds).  A ratio is the
# count divided by the calls of those functions.
RESULT_METRICS = (
    ("core.exhaustive_search.found_ratio", "ratio", ("core.exhaustive_search",),
     lambda found: found is not None),
    ("kramer_mesner.build_system.columns", "count", ("kramer_mesner.build_system",),
     lambda system: system.m),
    ("kramer_mesner.solve_binary.found_ratio", "ratio", ("kramer_mesner.solve_binary",),
     lambda solution: solution is not None),
    ("ooc.codewords", "count", tuple(f"ooc.{fn}" for fn in OOC_CONSTRUCTIONS), len),
)
RUN_METRICS = (
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.errors", "count")]
    return out + [(name, unit) for name, unit, _, _ in RESULT_METRICS] + list(RUN_METRICS)


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.names = span_names()
        self._id = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.counters = {name: 0 for name, _, _, _ in RESULT_METRICS}
        self.request = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn, name_id: int, observe=None, resolve=None):
        stack = self._stack
        clock = time.perf_counter
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        calls, self_s, errors = self.calls, self.self_s, self.errors
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = name_id if resolve is None else resolve(args, kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(tracer.request)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                span = end - start
                starts[index] = start
                ends[index] = end
                calls[nid] += 1
                self_s[nid] += span - frame[1]
                if failed:
                    errors[nid] += 1
                if stack:
                    stack[-1][1] += span
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observer(self, qualified: str):
        counters = self.counters
        for name, _, fns, count in RESULT_METRICS:
            if qualified in fns:
                def observe(result, name=name, count=count):
                    counters[name] += count(result)
                return observe
        return None

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a designforge module holds it."""
        for module_name in LAYERS:
            importlib.import_module(f"designforge.{module_name}")
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "designforge" or name.startswith("designforge."))]
        for module_name, fns in LAYERS.items():
            module = sys.modules[f"designforge.{module_name}"]
            for fn_name in fns:
                qualified = f"{module_name}.{fn_name}"
                if fn_name == "PairSet.init":
                    cls = module.PairSet
                    self._patch(cls, "__post_init__",
                                self._wrap(cls.__post_init__, self._id[qualified]))
                elif fn_name == "MultiplierGroup.generate":
                    cls = module.MultiplierGroup
                    raw = cls.__dict__["generate"]
                    self._patch(cls, "generate", classmethod(
                        self._wrap(raw.__func__, self._id[qualified])), original=raw)
                elif fn_name.startswith("verify_whist."):
                    continue  # wrapped once below, named per check
                else:
                    original = getattr(module, fn_name)
                    wrapped = self._wrap(original, self._id[qualified],
                                         observe=self._observer(qualified))
                    self._patch_everywhere(package, original, wrapped)
        self._install_verify_whist(package)

    def _install_verify_whist(self, package) -> None:
        original = sys.modules["designforge.designs"].verify_whist
        ids = {check: self._id[f"designs.verify_whist.{check}"] for check in WHIST_CHECKS}

        def resolve(args, kwargs):
            checks = kwargs["checks"] if "checks" in kwargs else args[1]
            if len(checks) != 1 or checks[0] not in ids:
                raise ValueError("traced verify_whist takes exactly one known check")
            return ids[checks[0]]

        self._patch_everywhere(package, original,
                               self._wrap(original, -1, resolve=resolve))

    def _patch(self, owner, attr: str, value, original=None) -> None:
        if original is None:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, original, wrapped) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def attributed_s(self) -> float:
        """Total span time: self times sum to the time under root spans."""
        return sum(self.self_s)

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_s[i], "s")
            out[f"{name}.errors"] = (self.errors[i], "count")

        for name, unit, fns, _ in RESULT_METRICS:
            value = self.counters[name]
            if unit == "ratio":
                calls = sum(self.calls[self._id[fn]] for fn in fns)
                value = value / calls if calls else 0.0
            out[name] = (value, unit)
        out["trace.overhead_s"] = (traced_s - untraced_s, "s")
        out["trace.unattributed_s"] = (traced_s - self.attributed_s(), "s")
        out["trace.spans"] = (len(self.span_start), "count")
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write spans as <path>.json (layout, names) and <path>.bin (arrays)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (("start", self.span_start), ("end", self.span_end),
                   ("name", self.span_name), ("parent", self.span_parent),
                   ("request", self.span_request))
        with open(path.with_suffix(".bin"), "wb") as f:
            for _, column in columns:
                column.tofile(f)
        header = dict(meta, spans=len(self.span_start), names=self.names,
                      byteorder=sys.byteorder,
                      columns=[[label, column.typecode, column.itemsize]
                               for label, column in columns])
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
