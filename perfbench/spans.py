"""Spans around calls into the layers of tpwalk, recorded from outside.

The package is not edited. For the traced phase, each target function is
replaced by a timing wrapper in every ``tpwalk`` module that holds it, so a
call is caught whether it comes from the benchmark or from another layer
(``construct`` calling ``polytope.is_nondegenerate`` once per marking round,
say). Spans stay in memory as (name, start, end, parent, unit) and are
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _walk_steps(out):
    return {"steps": out.length}


def _report_steps(out):
    walk, marks = out
    return {"steps": walk.length, "free_marks": marks.free_marks,
            "step4_hits": marks.step4_hits}


# (layer, function, counters taken from the return value, metric counters)
TARGETS = (
    ("core", "Assignment", None, ()),
    ("polytope", "enumerate_vertices", lambda out: {"vertices": len(out)}, ("vertices",)),
    ("polytope", "critical_edges", None, ()),
    ("polytope", "is_nondegenerate", None, ()),
    ("oracle", "graph_distance_table", None, ()),
    ("oracle", "graph_distance", None, ()),
    ("oracle", "cdfm_distance", lambda out: {"found": out is not None}, ("found",)),
    ("oracle", "cd_minimum", None, ()),
    ("oracle", "cd_at_most", None, ()),
    ("circuits", "enumerate_circuits", None, ()),
    ("circuits", "sign_compatible_decomposition",
     lambda out: {"terms": len(out.terms)}, ("terms",)),
    ("construct", "cdfm_walk_2xn", _walk_steps, ("steps",)),
    ("construct", "edge_walk_2xn_report", _report_steps, ("steps", "free_marks")),
    ("construct", "monotone_walk_2xn_report", _report_steps, ("steps",)),
    ("construct", "edge_walk_3xn_report", _report_steps, ("steps", "step4_hits")),
    ("walks", "validate_walk", lambda out: {"invalid": not out.valid}, ("invalid",)),
    ("instances", "random_instance", None, ()),
    ("instances", "perturb_certified", None, ()),
    ("cli", "main", None, ()),
)

LAYERS = ("core", "polytope", "circuits", "walks", "construct", "oracle",
          "instances", "cli")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for layer, fn, _, counters in TARGETS:
        out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.s", "s")]
        out += [(f"{layer}.{fn}.{c}", "count") for c in counters]
    out += [(f"layer.{layer}.self_frac", "frac") for layer in LAYERS]
    out += [("construct.tight_frac", "frac"), ("trace.overhead_frac", "frac")]
    return out


class Tracer:
    """Timing wrappers for the layer functions, and the spans they record."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.unit = "setup"
        self._patches = []
        self._wrappers = {}

    def mark(self, unit: str) -> None:
        """Tag the spans that follow with a pair or instance id."""
        self.unit = unit

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self.stack, self.counts

        def timed(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.unit)
            if counter is not None:
                for key, val in counter(out).items():
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + val
            return out

        return timed

    def install(self, package) -> None:
        """Swap every target for its wrapper in each tpwalk module."""
        modules = [m for k, m in sys.modules.items()
                   if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for layer, fn_name, counter, _ in TARGETS:
            name = f"{layer}.{fn_name}"
            orig = getattr(sys.modules[f"{package.__name__}.{layer}"], fn_name)
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, orig, counter)
            wrapper = self._wrappers[name]
            # Assignment is a class the package checks with isinstance, so
            # only the constructor the benchmark calls is timed.
            holders = [package] if fn_name == "Assignment" else modules
            for mod in holders:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def per_layer(self, batches: int, timed_s: float) -> dict[str, float]:
        """Per-batch calls, seconds and counters for each target, and the
        share of traced timed wall time spent in each layer's own code."""
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        child: dict[int, float] = {}
        for name, start, end, parent, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_s = {layer: 0.0 for layer in LAYERS}
        for sid, (name, start, end, _, unit) in enumerate(self.spans):
            if not unit.endswith("setup"):
                self_s[name.split(".")[0]] += end - start - child.get(sid, 0.0)
        out = {}
        for layer, fn, _, counters in TARGETS:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0) / batches
            out[f"{name}.s"] = inclusive.get(name, 0.0) / batches
            for c in counters:
                out[f"{name}.{c}"] = self.counts.get(f"{name}.{c}", 0) / batches
        for layer in LAYERS:
            out[f"layer.{layer}.self_frac"] = self_s[layer] / timed_s
        return out

    def top_level_shares(self, timed_s: float) -> dict[str, float]:
        """Share of traced timed wall time inside calls the benchmark made
        itself, by the function it called."""
        shares: dict[str, float] = {}
        for name, start, end, parent, unit in self.spans:
            if parent < 0 and not unit.endswith("setup"):
                shares[name] = shares.get(name, 0.0) + (end - start) / timed_s
        return shares

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - origin, 7),
                    "end": round(end - origin, 7), "parent": parent, "unit": unit,
                }) + "\n")
