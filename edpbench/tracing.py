"""Per-layer tracing by wrapping the program's public functions.

`Tracer.install` replaces each traced function with a wrapper in every
`edpsolve` module that holds a reference to it (modules import each other's
functions by name), and the traced methods on their classes; `uninstall`
puts the originals back.  No source file changes.

A wrapper records a span (name, start, end, parent span).  Spans are kept in
memory in flat arrays and written out by `write_spans`.  The graph
primitives (`incident`, `add_edge`, ...) run millions of times per run, so
they only add to their call count and self time and store no span.  A
layer's self time is its spans' durations minus the time of the traced
calls made inside them.  Size counters are read from return values; the
time spent reading them is charged to no span.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from edpsolve import cli, decomposition, generators, graphs, kernel, oracle, simple, treecut_dp
from edpsolve.graphs import EDPInstance, MultiGraph

# layer -> (owner, attribute name) of each traced function, in report order
LAYERS: dict[str, tuple[tuple[Any, str], ...]] = {
    "graphs": (
        (graphs, "parse_instance"),
        (graphs, "terminal_normalize"),
        (graphs, "feedback_edge_set"),
        (graphs, "induced_instance"),
        (EDPInstance, "copy"),
        (MultiGraph, "incident"),
        (EDPInstance, "pairs_at"),
        (MultiGraph, "add_edge"),
        (MultiGraph, "fresh_vertex"),
    ),
    "kernel": tuple((kernel, rule.__name__) for rule in (kernel.kernelize, *kernel._RULES)),
    "simple": ((simple, "infer_hub"), (simple, "preprocess_simple"), (simple, "solve_simple_edp")),
    "decomposition": (
        (decomposition, "parse_decomposition"),
        (decomposition, "verify_decomposition"),
        (decomposition, "verify_nice"),
        (decomposition, "node_views"),
        (decomposition, "torso_size"),
    ),
    "treecut_dp": (
        (treecut_dp, "leaf_valid_records"),
        (treecut_dp, "dynamic_step"),
        (treecut_dp, "build_record_instance"),
        (treecut_dp, "_simplify_in"),
        (treecut_dp, "_replace_thin_in"),
        (treecut_dp, "reduce_degree_two_edges"),
    ),
    "oracle": ((oracle, "brute_force_edp"), (oracle, "brute_force_vdp"), (oracle, "tree_edp_feasible")),
    "generators": ((generators, "gen_random_instance"), (generators, "gen_mss_layout"), (generators, "edp_to_vdp")),
    "cli": ((cli, "main"),),
}
PRIMITIVES = {"incident", "pairs_at", "add_edge", "fresh_vertex"}
# layers whose self time per verdict is fitted against the rung size
GROWTH_LAYERS = ("kernel", "simple", "treecut_dp")


def span_name(layer: str, owner: Any, attr: str) -> str:
    if owner is EDPInstance and attr == "copy":
        return f"{layer}.EDPInstance.copy"
    return f"{layer}.{attr}"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in order."""
    return list(Tracer().metrics(overhead=0.0))


COUNTS = {"simple.peak_table", "treecut_dp.records_enumerated", "treecut_dp.records_valid", "treecut_dp.residue_solves"}


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith("self_s"):
        return "s"
    if name.endswith("calls") or name in COUNTS:
        return "count"
    if name.endswith("growth_exp"):
        return "exponent"
    return "ratio"


@dataclass
class _Frame:
    span: int  # index into the span arrays, -1 for a primitive
    child_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.stack: list[_Frame] = []
        self.patches: list[tuple[Any, str, Any]] = []
        self.verdicts: list[tuple[int, dict[str, float]]] = []  # (rung, layer self time)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, primitive: bool, hook: Callable | None) -> Callable:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        stack, calls, self_s, active = self.stack, self.calls, self.self_s, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1].span if stack else -1
            frame = _Frame(-1)
            if not primitive:
                frame.span = len(self.span_start)
                self.span_name.append(name_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(parent)
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except oracle.CapExceeded:
                self.counters["oracle.cap_exceeded.calls"] += 1
                raise
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                calls[name] += 1
                self_s[name] += end - start - frame.child_s
                if stack:
                    stack[-1].child_s += end - start
                if not primitive:
                    self.span_start[frame.span] = start
                    self.span_end[frame.span] = end
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                if stack:
                    stack[-1].child_s += clock() - hook_start
            return result

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original: Callable, replacement: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if name.startswith("edpsolve") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, replacement)

    def install(self) -> None:
        hooks = {
            "kernelize": self._on_kernelize,
            "solve_simple_edp": self._on_simple,
            "leaf_valid_records": self._on_table,
            "dynamic_step": self._on_table,
            "parse_decomposition": self._on_decomposition,
        }
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                hook = self._on_rule if layer == "kernel" and attr != "kernelize" else hooks.get(attr)
                wrapper = self._wrap(span_name(layer, owner, attr), original, attr in PRIMITIVES, hook)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    self._patch_everywhere(original, wrapper)
        self._patch(kernel, "_RULES", tuple(getattr(kernel, rule.__name__) for rule in kernel._RULES))
        # counters only: no span, their time stays with the caller
        for attr, hook in (("enumerate_records", self._on_enumerate), ("solve_treecut", self._on_treecut)):
            self._patch_everywhere(getattr(treecut_dp, attr), self._counted(getattr(treecut_dp, attr), hook))

    @staticmethod
    def _counted(original: Callable, hook: Callable) -> Callable:
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(args, result)
            return result

        return counted

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, value = self.patches.pop()
            setattr(owner, attr, value)

    # -- counters from return values -------------------------------------

    def _on_rule(self, args, out) -> None:
        state = args[0]
        self.counters["kernel.rule_calls"] += 1
        if out.answer != state.answer or out.fes_edges != state.fes_edges or out.inst != state.inst:
            self.counters["kernel.rule_hits"] += 1

    def _on_kernelize(self, args, res) -> None:
        self.counters["kernel.results"] += 1
        if res.answer is not None:
            self.counters["kernel.settled"] += 1
        for rep in res.components:
            if rep.fes_size > 0:
                ratio = rep.vertices / rep.size_bound
                self.counters["kernel.size_vs_bound"] = max(self.counters["kernel.size_vs_bound"], ratio)

    def _on_simple(self, args, res) -> None:
        si = args[0]
        if self.active["treecut_dp.dynamic_step"]:
            self.counters["treecut_dp.residue_solves"] += 1
        bound = (len(si.inst.pairs) + 1) ** math.comb(si.k, 2)
        self.counters["simple.peak_table"] = max(self.counters["simple.peak_table"], res.max_set_size)
        ratio = res.max_set_size / bound
        self.counters["simple.peak_table_vs_bound"] = max(self.counters["simple.peak_table_vs_bound"], ratio)

    def _on_table(self, args, table) -> None:
        self.counters["treecut_dp.records_valid"] += len(table)

    def _on_enumerate(self, args, records) -> None:
        self.counters["treecut_dp.records_enumerated"] += len(records)

    def _on_treecut(self, args, res) -> None:
        bound = treecut_dp.record_count_bound(res.width)
        peak = max((len(t) for t in res.tables.values()), default=0)
        self.counters["treecut_dp.records_vs_bound"] = max(self.counters["treecut_dp.records_vs_bound"], peak / bound)

    def _on_decomposition(self, args, dec) -> None:
        self.counters["decomposition.nodes"] += len(dec.nodes())

    # -- per-verdict layer times -----------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def record_verdict(self, rung: int, before: dict[str, float]) -> None:
        after = self.layer_self_s()
        self.verdicts.append((rung, {layer: after[layer] - before.get(layer, 0.0) for layer in GROWTH_LAYERS}))

    def growth_exp(self, layer: str) -> float:
        """Least-squares slope of log(median per-verdict self time) against
        log(rung size), over rungs where the layer ran; 0 with fewer than two
        such rungs."""
        by_rung: dict[int, list[float]] = defaultdict(list)
        for rung, times in self.verdicts:
            by_rung[rung].append(times[layer])
        points = []
        for rung, values in sorted(by_rung.items()):
            values.sort()
            mid = values[len(values) // 2]
            if mid > 0:
                points.append((math.log(rung), math.log(mid)))
        if len(points) < 2:
            return 0.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)

    # -- results -------------------------------------------------------

    def metrics(self, overhead: float) -> dict[str, float]:
        c = self.counters
        out: dict[str, float] = {}
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                base = span_name(layer, owner, attr)
                out[f"{base}.self_s"] = self.self_s[base]
                out[f"{base}.calls"] = self.calls[base]
        out["kernel.rule_hit_ratio"] = c["kernel.rule_hits"] / c["kernel.rule_calls"] if c["kernel.rule_calls"] else 0.0
        out["kernel.size_vs_bound"] = c["kernel.size_vs_bound"]
        out["kernel.settled_frac"] = c["kernel.settled"] / c["kernel.results"] if c["kernel.results"] else 0.0
        out["kernel.growth_exp"] = self.growth_exp("kernel")
        out["simple.peak_table"] = c["simple.peak_table"]
        out["simple.peak_table_vs_bound"] = c["simple.peak_table_vs_bound"]
        out["simple.growth_exp"] = self.growth_exp("simple")
        nodes = c["decomposition.nodes"]
        out["decomposition.torso_size.per_node"] = self.calls["decomposition.torso_size"] / nodes if nodes else 0.0
        enumerated = c["treecut_dp.records_enumerated"]
        out["treecut_dp.records_enumerated"] = enumerated
        out["treecut_dp.records_valid"] = c["treecut_dp.records_valid"]
        out["treecut_dp.valid_ratio"] = c["treecut_dp.records_valid"] / enumerated if enumerated else 0.0
        out["treecut_dp.residue_solves"] = c["treecut_dp.residue_solves"]
        out["treecut_dp.records_vs_bound"] = c["treecut_dp.records_vs_bound"]
        out["treecut_dp.growth_exp"] = self.growth_exp("treecut_dp")
        out["oracle.cap_exceeded.calls"] = c["oracle.cap_exceeded.calls"]
        out["trace.overhead"] = overhead
        return out

    def write_spans(self, path) -> None:
        """Gzipped CSV, one line per span: index, name, start, end, parent
        span index (-1 for none)."""
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]}\n"
                )
