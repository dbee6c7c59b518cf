"""XP dynamic program for EDP instances split into a hub and a fringe of
degree-<=2 satellites.

The instance's vertex set is partitioned into a hub A and a set B of
independent vertices of degree at most two.  Every solution path has all of
its inner vertices in the hub, so a solution is summarized by a vector
counting, per unordered hub pair, how many parallel hub edges it consumes.
The solver enumerates the achievable vectors per terminal component and
intersects the combined demand with the available multiplicities.

Aside from the final answer the solver keeps one provenance chain per
surviving vector, which is enough to reconstruct a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import EDPInstance, StructureError
from .oracle import RoutedPath

HubPair = tuple[int, int]  # (u, v) with u < v
# one capacity unit between two hub vertices: a real parallel edge, or a
# suppressed pairless satellite usable as a pass-through
Unit = tuple


def _key(u: int, v: int) -> HubPair:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SolutionVector:
    """Per-hub-pair edge usage counts; absent key means zero."""

    entries: tuple[tuple[HubPair, int], ...] = ()

    @staticmethod
    def zero() -> "SolutionVector":
        return SolutionVector()

    @staticmethod
    def of(counts: Mapping[HubPair, int]) -> "SolutionVector":
        return SolutionVector(tuple(sorted((k, c) for k, c in counts.items() if c > 0)))

    def __add__(self, other: "SolutionVector") -> "SolutionVector":
        counts = dict(self.entries)
        for k, c in other.entries:
            counts[k] = counts.get(k, 0) + c
        return SolutionVector.of(counts)

    def within(self, limits: Mapping[HubPair, int]) -> bool:
        return all(c <= limits.get(k, 0) for k, c in self.entries)


# provenance of one routed pair: (pair id, hub vertex sequence, leading
# satellite edge id or None, trailing satellite edge id or None)
RouteRec = tuple[int, tuple[int, ...], int | None, int | None]


@dataclass(frozen=True)
class SimpleInstance:
    """Preprocessed hub/satellite instance.

    `inst` holds the hub, the satellites that occur in pairs, and only the
    hub-satellite edges; hub-hub capacity lives in `multiplicity`, with
    `units` remembering which original edge (or suppressed pass-through
    satellite) realizes each unit.
    """

    original: EDPInstance
    inst: EDPInstance
    hub: tuple[int, ...]
    satellites: tuple[int, ...]
    multiplicity: Mapping[HubPair, int]
    units: Mapping[HubPair, tuple[Unit, ...]]

    @property
    def k(self) -> int:
        return len(self.hub)

    def hub_degree(self, a: int) -> int:
        m = sum(c for k, c in self.multiplicity.items() if a in k)
        return m + self.inst.graph.degree(a)


@dataclass
class SimpleResult:
    feasible: bool
    vector: SolutionVector | None = None
    routes: dict[int, RoutedPath] | None = None
    records: tuple[RouteRec, ...] = ()
    max_set_size: int = 0

    def __bool__(self) -> bool:
        return self.feasible


def preprocess_simple(inst: EDPInstance, hub: Iterable[int]) -> SimpleInstance:
    """Validate the hub/satellite split, where every non-hub vertex is a
    satellite, and remove pairless satellites.

    A pairless degree-2 satellite with two distinct hub neighbors turns into
    one extra unit of hub-hub multiplicity; with at most one distinct
    neighbor it can never lie on a simple path and is dropped outright.
    """
    hub_set = frozenset(hub)
    g = inst.graph
    sat_set = g.vertices - hub_set
    if not hub_set <= g.vertices:
        raise StructureError("hub and satellites must partition the vertex set")
    for v in sorted(sat_set):
        if g.degree(v) > 2:
            raise StructureError(f"satellite {v} has degree {g.degree(v)} > 2")
        for w in g.neighbors(v):
            if w in sat_set:
                raise StructureError(f"satellite edge {{{v},{w}}}; satellites must be independent")

    counts: dict[HubPair, int] = {}
    units: dict[HubPair, list[Unit]] = {}

    def add_unit(u: int, v: int, unit: Unit) -> None:
        key = _key(u, v)
        counts[key] = counts.get(key, 0) + 1
        units.setdefault(key, []).append(unit)

    reduced = EDPInstance()
    for v in sorted(hub_set):
        reduced.graph.add_vertex(v)
    keep_sats = []
    for v in sorted(sat_set):
        if inst.pairs_at(v):
            keep_sats.append(v)
            reduced.graph.add_vertex(v)
    for eid in g.sorted_edges():
        u, v = g.endpoints(eid)
        if u in hub_set and v in hub_set:
            add_unit(u, v, ("edge", eid))
        elif reduced.graph.has_vertex(u) and reduced.graph.has_vertex(v):
            reduced.graph.add_edge(u, v, eid)
    for v in sorted(sat_set):
        if inst.pairs_at(v) or g.degree(v) != 2:
            continue
        e1, e2 = g.incident(v)
        x, y = g.other_end(e1, v), g.other_end(e2, v)
        if x != y:
            add_unit(x, y, ("via", v, e1, e2))
    for pid in inst.sorted_pairs():
        a, b = sorted(inst.pair(pid))
        reduced.add_pair(a, b, pid)
    return SimpleInstance(
        original=inst,
        inst=reduced,
        hub=tuple(sorted(hub_set)),
        satellites=tuple(keep_sats),
        multiplicity=dict(counts),
        units={k: tuple(v) for k, v in units.items()},
    )


# -- hub path enumeration --------------------------------------------------


def _skeleton(si: SimpleInstance) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {a: [] for a in si.hub}
    for (u, v), c in sorted(si.multiplicity.items()):
        if c > 0:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _hub_paths(si: SimpleInstance, u: int, v: int, _cache: dict | None = None) -> dict[SolutionVector, tuple[int, ...]]:
    """All simple u-v paths in the hub skeleton as vector -> vertex sequence.

    u == v yields the empty path: routes that enter and leave the hub at the
    same vertex use no hub-hub edge at all.
    """
    if _cache is not None and (u, v) in _cache:
        return _cache[(u, v)]
    if u == v:
        out = {SolutionVector.zero(): (u,)}
    else:
        adj = _skeleton(si)
        out = {}
        stack = [(u, (u,))]
        # iterative DFS over simple paths
        while stack:
            x, path = stack.pop()
            if x == v:
                counts: dict[HubPair, int] = {}
                for a, b in zip(path, path[1:]):
                    counts[_key(a, b)] = 1
                vec = SolutionVector.of(counts)
                if vec not in out:
                    out[vec] = path
                continue
            for y in sorted(adj[x], reverse=True):
                if y not in path:
                    stack.append((y, path + (y,)))
        out = dict(sorted(out.items(), key=lambda kv: kv[0].entries))
    if _cache is not None:
        _cache[(u, v)] = out
    return out


def enumerate_hub_paths(si: SimpleInstance, u: int, v: int) -> frozenset[SolutionVector]:
    """One 0/1 vector per simple u-v path in the hub skeleton."""
    if u == v:
        raise ValueError("endpoints must be distinct")
    if u not in si.hub or v not in si.hub:
        raise ValueError("endpoints must be hub vertices")
    return frozenset(_hub_paths(si, u, v))


# -- the solver -------------------------------------------------------------

Table = dict  # SolutionVector -> tuple[RouteRec, ...]


class _DP:
    def __init__(self, si: SimpleInstance, prune: bool):
        self.si = si
        self.limits = dict(si.multiplicity) if prune else None
        self.cache: dict = {}
        self.num_pairs = len(si.inst.pairs)
        self.size_bound = (self.num_pairs + 1) ** math.comb(si.k, 2)
        self.max_seen = 0

    def check(self, table: Table) -> Table:
        self.max_seen = max(self.max_seen, len(table))
        if len(table) > self.size_bound:
            raise RuntimeError("vector set exceeds its size bound")
        return table

    def paths(self, u: int, v: int) -> dict[SolutionVector, tuple[int, ...]]:
        return _hub_paths(self.si, u, v, self.cache)

    def merge(self, table: Table, options: Table) -> Table:
        out: Table = {}
        for vec, prov in sorted(table.items(), key=lambda kv: kv[0].entries):
            for vec2, prov2 in sorted(options.items(), key=lambda kv: kv[0].entries):
                s = vec + vec2
                if self.limits is not None and not s.within(self.limits):
                    continue
                if s not in out:
                    out[s] = prov + prov2
        return self.check(out)

    def route_options(self, pid: int, u: int, v: int, lead: int | None, tail: int | None) -> Table:
        return self.check(
            {vec: ((pid, path, lead, tail),) for vec, path in self.paths(u, v).items()}
        )


def solve_simple_edp(si: SimpleInstance, prune: bool = True) -> SimpleResult:
    """Decide the hub/satellite instance; YES comes with a witness.

    `prune` toggles eager multiplicity pruning inside vector combination;
    disabling it only affects intermediate set sizes, never the answer.
    """
    inst = si.inst
    g = inst.graph
    hub_set = set(si.hub)

    # a vertex in more pairs than it has edge slots can never route them all
    for v in g.sorted_vertices():
        deg = si.hub_degree(v) if v in hub_set else g.degree(v)
        if len(inst.pairs_at(v)) > deg:
            return SimpleResult(False)
    for v in si.satellites:
        if not inst.pairs_at(v):
            raise StructureError(f"satellite {v} without a pair; run preprocess_simple first")

    dp = _DP(si, prune)
    other_edge = {
        (v, e): next(iter(set(g.incident(v)) - {e}), None)
        for v in si.satellites
        for e in g.incident(v)
    }

    def hub_end(eid: int) -> int:
        u, v = g.endpoints(eid)
        return u if u in hub_set else v

    # split pairs: hub-hub handled first, the rest by satellite component
    hub_pairs = []
    sat_adj: dict[int, list[tuple[int, int]]] = {v: [] for v in si.satellites}
    hub_attach: dict[int, list[tuple[int, int]]] = {v: [] for v in si.satellites}
    for pid in inst.sorted_pairs():
        a, b = sorted(inst.pair(pid))
        in_hub = [x in hub_set for x in (a, b)]
        if all(in_hub):
            hub_pairs.append((pid, a, b))
        elif not any(in_hub):
            sat_adj[a].append((pid, b))
            sat_adj[b].append((pid, a))
        else:
            sat, hubv = (b, a) if in_hub[0] else (a, b)
            hub_attach[sat].append((pid, hubv))

    acc: Table = {SolutionVector.zero(): ()}

    for pid, a, b in hub_pairs:  # pairs inside the hub, one at a time
        acc = dp.merge(acc, dp.route_options(pid, a, b, None, None))
        if not acc:
            return SimpleResult(False, max_set_size=dp.max_seen)

    for comp_verts, comp_pids in _terminal_components(si, sat_adj):
        if all(len(sat_adj[v]) == 2 for v in comp_verts) and comp_pids:
            table = _cycle_table(si, dp, comp_verts, sat_adj, other_edge, hub_end)
        else:
            table = _path_table(si, dp, comp_verts, sat_adj, hub_attach, other_edge, hub_end)
        if not table:
            return SimpleResult(False, max_set_size=dp.max_seen)
        acc = dp.merge(acc, table)
        if not acc:
            return SimpleResult(False, max_set_size=dp.max_seen)

    if not prune:
        acc = {vec: prov for vec, prov in acc.items() if vec.within(si.multiplicity)}
    if not acc:
        return SimpleResult(False, max_set_size=dp.max_seen)
    vec = min(acc, key=lambda v: v.entries)
    records = acc[vec]
    return SimpleResult(True, vec, _expand_witness(si, records), records, dp.max_seen)


def _terminal_components(si, sat_adj):
    """Connected pieces of the pair graph restricted to satellites, vertex
    set plus pair ids, deterministic order."""
    seen = set()
    comps = []
    for start in si.satellites:
        if start in seen:
            continue
        verts = {start}
        pids = set()
        stack = [start]
        while stack:
            x = stack.pop()
            for pid, y in sat_adj[x]:
                pids.add(pid)
                if y not in verts:
                    verts.add(y)
                    stack.append(y)
        seen |= verts
        comps.append((verts, pids))
    return comps


def _walk_path(comp_verts, sat_adj):
    """Order a path component's vertices and the pair ids between them."""
    if len(comp_verts) == 1:
        return [next(iter(comp_verts))], []
    ends = sorted(v for v in comp_verts if len(sat_adj[v]) == 1)
    start = ends[0]
    verts = [start]
    pids = []
    prev_pid = None
    while True:
        options = [(pid, w) for pid, w in sat_adj[verts[-1]] if pid != prev_pid]
        if not options:
            break
        pid, w = min(options)
        pids.append(pid)
        verts.append(w)
        prev_pid = pid
    return verts, pids


def _walk_cycle(comp_verts, sat_adj):
    start = min(comp_verts)
    first_pid, second = min(sat_adj[start])
    verts = [start, second]
    pids = [first_pid]
    while True:
        options = [(pid, w) for pid, w in sat_adj[verts[-1]] if pid != pids[-1]]
        pid, w = min(options)
        if w == start and len(verts) == len(comp_verts):
            pids.append(pid)
            return verts, pids
        pids.append(pid)
        verts.append(w)


def _chain_states(si, dp, verts, pids, other_edge, hub_end) -> dict[tuple[int, int], Table]:
    """Route pids[i] between verts[i] and verts[i + 1] along the chain.

    state: (edge used at verts[0], edge used at the last vertex) -> table;
    each inner vertex takes one pair on each of its two edges.
    """
    g = si.inst.graph
    states: dict[tuple[int, int], Table] = {}
    for e1 in g.incident(verts[0]):
        for e2 in g.incident(verts[1]):
            tab = dp.route_options(pids[0], hub_end(e1), hub_end(e2), e1, e2)
            if tab:
                states[(e1, e2)] = tab
    for i in range(1, len(verts) - 1):
        nxt: dict[tuple[int, int], Table] = {}
        for (e1, ecur), table in sorted(states.items()):
            eoth = other_edge[(verts[i], ecur)]
            if eoth is None:
                continue
            for enext in g.incident(verts[i + 1]):
                opts = dp.route_options(pids[i], hub_end(eoth), hub_end(enext), eoth, enext)
                merged = dp.merge(table, opts)
                if merged:
                    _union(nxt.setdefault((e1, enext), {}), merged, dp)
        states = nxt
    return states


def _cycle_table(si, dp, comp_verts, sat_adj, other_edge, hub_end):
    g = si.inst.graph
    for v in comp_verts:
        if g.degree(v) != 2:
            raise StructureError(f"cycle satellite {v} must have degree exactly 2")
    verts, pids = _walk_cycle(comp_verts, sat_adj)
    # the last pair closes the cycle through the first vertex's other edge
    out: Table = {}
    for (e1, ecur), table in sorted(_chain_states(si, dp, verts, pids, other_edge, hub_end).items()):
        eoth_n = other_edge[(verts[-1], ecur)]
        eoth_1 = other_edge[(verts[0], e1)]
        if eoth_n is None or eoth_1 is None:
            continue
        opts = dp.route_options(pids[-1], hub_end(eoth_n), hub_end(eoth_1), eoth_n, eoth_1)
        _union(out, dp.merge(table, opts), dp)
    return dp.check(out)


def _path_table(si, dp, comp_verts, sat_adj, hub_attach, other_edge, hub_end):
    verts, pids = _walk_path(comp_verts, sat_adj)
    if len(verts) == 1:
        return _lone_satellite_table(si, dp, verts[0], hub_attach, hub_end)
    # pairs attaching a path endpoint to the hub use the endpoint's other edge
    out: Table = {}
    for (e1, ecur), table in sorted(_chain_states(si, dp, verts, pids, other_edge, hub_end).items()):
        for endpoint, chain_edge in ((verts[0], e1), (verts[-1], ecur)):
            for pid, a in sorted(hub_attach[endpoint]):
                eoth = other_edge[(endpoint, chain_edge)]
                if eoth is None:
                    table = {}
                    break
                table = dp.merge(table, dp.route_options(pid, hub_end(eoth), a, eoth, None))
            if not table:
                break
        if table:
            _union(out, table, dp)
    return dp.check(out)


def _lone_satellite_table(si, dp, v, hub_attach, hub_end):
    g = si.inst.graph
    attach = sorted(hub_attach[v])
    out: Table = {}
    if len(attach) == 1:
        pid, a = attach[0]
        for e in g.incident(v):
            _union(out, dp.route_options(pid, hub_end(e), a, e, None), dp)
    else:
        (p1, a1), (p2, a2) = attach
        inc = g.incident(v)
        if len(inc) != 2:
            raise StructureError(f"satellite {v} in two pairs must have degree exactly 2")
        for eA, eB in (inc, inc[::-1]):
            tab = dp.merge(
                dp.route_options(p1, hub_end(eA), a1, eA, None),
                dp.route_options(p2, hub_end(eB), a2, eB, None),
            )
            _union(out, tab, dp)
    return dp.check(out)


def _union(table: Table, extra: Table, dp: _DP) -> None:
    """Add the vectors of `extra` that `table` lacks, in place."""
    for vec, prov in extra.items():
        table.setdefault(vec, prov)
    dp.check(table)


# -- witness expansion ------------------------------------------------------


def _expand_witness(si: SimpleInstance, records: tuple[RouteRec, ...]) -> dict[int, RoutedPath]:
    g = si.original.graph
    cursor: dict[HubPair, int] = {}
    routes: dict[int, RoutedPath] = {}
    for pid, apath, lead, tail in records:
        verts: list[int] = []
        eids: list[int] = []
        if lead is not None:
            verts.append(g.other_end(lead, apath[0]))
            eids.append(lead)
        verts.append(apath[0])
        for x, y in zip(apath, apath[1:]):
            key = _key(x, y)
            unit = si.units[key][cursor.get(key, 0)]
            cursor[key] = cursor.get(key, 0) + 1
            if unit[0] == "edge":
                eids.append(unit[1])
            else:  # pass through a suppressed satellite
                _, b, ex, ey = unit
                if x not in g.endpoints(ex):
                    ex, ey = ey, ex
                verts.append(b)
                eids.extend((ex, ey))
            verts.append(y)
        if tail is not None:
            verts.append(g.other_end(tail, apath[-1]))
            eids.append(tail)
        routes[pid] = RoutedPath(tuple(verts), tuple(eids))
    return routes


def infer_hub(inst: EDPInstance) -> frozenset[int]:
    """Heuristic hub: vertices of degree >= 3 plus endpoints of parallel
    edges.  The caller may override with an explicit hub list."""
    hub = {v for v in inst.graph.vertices if inst.graph.degree(v) >= 3}
    seen: set[tuple[int, int]] = set()
    for eid in inst.graph.sorted_edges():
        ends = inst.graph.endpoints(eid)
        if ends in seen:
            hub.update(ends)
        seen.add(ends)
    return frozenset(hub)
