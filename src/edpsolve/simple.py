"""XP dynamic program for EDP instances split into a hub and a fringe of
degree-<=2 satellites.

The instance's vertex set is partitioned into a hub A and a set B of
independent vertices of degree at most two.  Every solution path has all of
its inner vertices in the hub, so a solution is summarized by a vector
counting, per unordered hub pair, how many parallel hub edges it consumes.

The pairs form a pair graph: its nodes are the satellites plus one fresh node
for each hub end of a pair, its edges the pairs.  A satellite has at most two
edges and so lies in at most two pairs, and a hub end lies in exactly one, so
every component is a path or a cycle; hub ends are leaves and sit only at path
ends, and a cycle holds satellites only.  One chain walk per component lists
the vectors its pairs can use, each pair taking one satellite edge at each
satellite end, and the solver combines the components' tables within the
available multiplicities.

The solver reads vertex, edge and pair ids only through their order, so two
instances related by an order-preserving relabelling take the same steps;
the treecut DP's residue memo relies on this.

Aside from the final answer the solver keeps one provenance chain per
surviving vector, which is enough to reconstruct a witness.  A chain is
linked: each step adds one cell, (earlier provenance, record) inside a chain
walk and (accumulator provenance, chain provenance) across components, so
it costs O(1), and only the chosen vector's chain is flattened into its
records.  A chain walk is stepped in place, so within a chain a vector
keeps the provenance of its first insertion; across components it keeps
that of the first pair in vector order.

The DP is XP in the hub size, so each solve runs under an effort budget,
`HUB_DP_BUDGET` units, and raises `CapExceeded` naming it when the budget
runs out.  A unit is one vector sum tried or one hub-path extension: each
chain-table step and each merge is charged `len(table) * len(options)` up
front, before its sums, and `_DP.paths` one unit per vertex it appends to
a path or reaches as the far end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import EDPInstance, MultiGraph, StructureError
from .oracle import CapExceeded, RoutedPath

HUB_DP_BUDGET = 2_000_000

HubPair = tuple[int, int]  # (u, v) with u < v
# one capacity unit between two hub vertices: a real parallel edge, or a
# suppressed pairless satellite usable as a pass-through
Unit = tuple


def _key(u: int, v: int) -> HubPair:
    return (u, v) if u < v else (v, u)


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
    # per hub pair, ascending, the hub-hub edges the routes use; absent means zero
    vector: tuple[tuple[HubPair, int], ...] | None = None
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
    The reduced vertex set, edges and pairs are collected as plain maps and
    validated once, by the instance constructors.
    """
    hub_set = frozenset(hub)
    g = inst.graph
    vertices = g.vertices
    if not hub_set <= vertices:
        raise StructureError("hub and satellites must partition the vertex set")
    edges = g.edges
    terminals = inst.terminals()
    keep_sats: list[int] = []
    via: list[tuple[HubPair, Unit]] = []
    for v in sorted(vertices - hub_set):
        inc = g.incident(v)
        if len(inc) > 2:
            raise StructureError(f"satellite {v} has degree {len(inc)} > 2")
        ends = [x for e in inc for x in edges[e] if x != v]
        if not hub_set.issuperset(ends):
            w = next(w for w in g.neighbors(v) if w not in hub_set)
            raise StructureError(f"satellite edge {{{v},{w}}}; satellites must be independent")
        if v in terminals:
            keep_sats.append(v)
        elif len(ends) == 2 and ends[0] != ends[1]:
            via.append((_key(*ends), ("via", v, *inc)))

    units: dict[HubPair, list[Unit]] = {}
    kept = hub_set.union(keep_sats)
    reduced_edges = {}
    for eid in sorted(edges):
        u, v = ends = edges[eid]
        if u in hub_set and v in hub_set:
            units.setdefault(ends, []).append(("edge", eid))
        elif u in kept and v in kept:
            reduced_edges[eid] = ends
    # each hub pair lists its real edges first, then its pass-through satellites
    for key, unit in via:
        units.setdefault(key, []).append(unit)
    hub_sorted = tuple(sorted(hub_set))
    reduced = EDPInstance(MultiGraph(hub_sorted + tuple(keep_sats), reduced_edges), inst.pairs)
    return SimpleInstance(
        original=inst,
        inst=reduced,
        hub=hub_sorted,
        satellites=tuple(keep_sats),
        multiplicity={k: len(us) for k, us in units.items()},
        units={k: tuple(us) for k, us in units.items()},
    )


# -- the solver -------------------------------------------------------------

Table = dict  # packed vector -> provenance chain (see _flatten)


class _DP:
    """The vector tables of one solve.

    A vector is packed into one integer with a bit field per hub pair of the
    skeleton, the smallest pair in the top field, so that adding vectors is
    adding integers.  A table vector routes each pair at most once over each
    hub pair, so its counts are at most the number of pairs; a field holds
    twice that and any multiplicity, and has a guard bit on top.  In
    `ceiling - s`, where `ceiling` holds the multiplicities with every guard
    bit set, a field keeps its guard bit exactly when its count in `s` is
    within its multiplicity.
    """

    def __init__(self, si: SimpleInstance):
        self.effort = 0
        self.cache: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
        self.num_pairs = len(si.inst.pairs)
        self.size_bound = (self.num_pairs + 1) ** math.comb(si.k, 2)
        self.max_seen = 0
        dims = sorted(k for k, c in si.multiplicity.items() if c > 0)
        self.bits = max([2 * self.num_pairs, *si.multiplicity.values()]).bit_length()
        self.shift = {k: (len(dims) - 1 - i) * (self.bits + 1) for i, k in enumerate(dims)}
        self.units = sum(1 << sh for sh in self.shift.values())
        self.guards = self.units << self.bits
        self.ceiling = self.guards + sum(si.multiplicity[k] << sh for k, sh in self.shift.items())
        # the hub skeleton: neighbour and the bit of the pair's field, neighbours ascending
        self.adj: dict[int, list[tuple[int, int]]] = {a: [] for a in si.hub}
        for (a, b), sh in self.shift.items():
            self.adj[a].append((b, 1 << sh))
            self.adj[b].append((a, 1 << sh))
        for ns in self.adj.values():
            ns.sort()

    def charge(self, units: int) -> None:
        """Spend `units` of the solve's effort budget."""
        self.effort += units
        if self.effort > HUB_DP_BUDGET:
            raise CapExceeded(f"hub DP budget of {HUB_DP_BUDGET} vector sums and path extensions exhausted")

    def check(self, table: Table) -> Table:
        self.max_seen = max(self.max_seen, len(table))
        if len(table) > self.size_bound:
            raise RuntimeError("vector set exceeds its size bound")
        return table

    def vector(self, s: int) -> tuple[tuple[HubPair, int], ...]:
        mask = (1 << self.bits) - 1
        return tuple((k, c) for k, sh in self.shift.items() if (c := s >> sh & mask))

    def order(self, s: int) -> int:
        """A key that sorts packed vectors as their entries sort.

        Entries compare pair by pair, so a missing hub pair sorts after
        every count unless no pair follows it.  The key sets the guard bit,
        which outranks every count, of each empty field above the lowest
        filled one.
        """
        filled = (s + self.guards - self.units) & self.guards
        return s | (self.guards ^ filled) & -((filled & -filled) << 1)

    def paths(self, u: int, v: int) -> dict[int, tuple[int, ...]]:
        """Vector -> vertex sequence of the first simple u-v path in the hub
        skeleton with that vector, depth first with neighbours ascending.
        u == v yields the empty path: routes that enter and leave the hub at
        the same vertex use no hub-hub edge."""
        if (u, v) in self.cache:
            return self.cache[u, v]
        out: dict[int, tuple[int, ...]] = {}
        if u == v:
            out[0] = (u,)
        else:
            path, vecs, on_path = [u], [0], {u}
            stack = [iter(self.adj[u])]
            while stack:
                for y, bit in stack[-1]:
                    if y in on_path:
                        continue
                    self.charge(1)
                    if y == v:
                        out.setdefault(vecs[-1] + bit, (*path, v))
                        continue
                    path.append(y)
                    vecs.append(vecs[-1] + bit)
                    on_path.add(y)
                    stack.append(iter(self.adj[y]))
                    break
                else:
                    stack.pop()
                    vecs.pop()
                    on_path.discard(path.pop())
        self.cache[u, v] = out
        return out

    def merge(self, table: Table, options: Table) -> Table:
        """Every sum of a `table` vector and an `options` vector within the
        ceiling, with the provenance of the first pair, in vector order,
        that gives it.  The provenance is one cell (table provenance,
        options provenance), so a sum costs O(1) however long the chains."""
        self.charge(len(table) * len(options))
        rows = sorted(table.items(), key=lambda kv: self.order(kv[0]))
        cols = sorted(options.items(), key=lambda kv: self.order(kv[0]))
        ceiling, guards = self.ceiling, self.guards
        out: Table = {}
        for a, prov in rows:
            room = ceiling - a
            for b, prov2 in cols:
                if (room - b) & guards == guards:
                    s = a + b
                    if s not in out:
                        out[s] = (prov, prov2)
        return self.check(out)


def solve_simple_edp(si: SimpleInstance) -> SimpleResult:
    """Decide the hub/satellite instance; YES comes with a witness.

    The pairs are the edges of a pair graph whose nodes are the satellites
    plus one fresh node per hub end of a pair.  A satellite lies in at most
    two pairs (no more than its degree) and a hub end in exactly one, so
    every component is a path or a cycle, and hub ends are path ends.  One
    walk orders each component and `_chain_table` turns it into the vectors
    its pairs can use; the tables are merged component by component, and
    the chosen vector's provenance is flattened into its records.  The
    solver reads vertex, edge and pair ids only through their order.
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
        if g.degree(v) > 2:
            raise StructureError(f"satellite {v} has degree {g.degree(v)} > 2")

    dp = _DP(si)
    # pair graph nodes: (0, satellite) and (1, pair id, hub vertex); a
    # choice is the edge a pair takes at the node and its hub end
    adj: dict[tuple, list[tuple[int, tuple]]] = {}
    choices: dict[tuple, list[tuple[int | None, int]]] = {
        (0, v): [(e, g.other_end(e, v)) for e in g.incident(v)] for v in si.satellites
    }
    for pid in inst.sorted_pairs():
        a, b = ends = [(1, pid, x) if x in hub_set else (0, x) for x in sorted(inst.pair(pid))]
        for node in ends:
            if node[0]:  # a hub end takes no edge and sits at its hub vertex
                choices[node] = [(None, node[2])]
        adj.setdefault(a, []).append((pid, b))
        adj.setdefault(b, []).append((pid, a))

    acc: Table = {0: ()}
    for nodes, pids in _walks(adj):
        acc = dp.merge(acc, _chain_table(dp, [choices[x] for x in nodes], pids))
        if not acc:
            return SimpleResult(False, max_set_size=dp.max_seen)

    vec = min(acc, key=dp.order)
    records = _flatten(acc[vec])
    return SimpleResult(True, dp.vector(vec), _expand_witness(si, records), records, dp.max_seen)


def _walks(adj):
    """Order each component of the pair graph: a path from its smallest end,
    a cycle from its smallest node, always along the smallest pair not just
    taken.  Yields the nodes and the pair ids between them; a cycle's last
    pair leads back to its first node."""
    seen = set()
    order = sorted(adj)
    for start in [x for x in order if len(adj[x]) == 1] + order:
        if start in seen:
            continue
        nodes, pids = [start], []
        while True:
            options = [(pid, w) for pid, w in adj[nodes[-1]] if not pids or pid != pids[-1]]
            if not options:
                break
            pid, w = min(options)
            pids.append(pid)
            if w == start:
                break
            nodes.append(w)
        seen.update(nodes)
        yield nodes, pids


def _chain_table(dp: _DP, choices: list[list[tuple[int | None, int]]], pids: list[int]) -> Table:
    """The vectors of routing pids[i] between nodes i and i + 1 of a walk,
    given each node's choices; with as many pairs as nodes, the last pair
    closes the cycle through the first node's other choice.

    The walk is stepped in place.  A state is (the first node's choice on a
    cycle, None on a path; the choice left for the next pair at the current
    node) and holds a table; a node with two choices gives one to each of
    its pairs.  Each pair adds every sum of a state's vector and a hub path
    vector that fits the ceiling straight into the next state's table, and
    after the last pair every state meets in one table.  A vector keeps the
    provenance of its first insertion, not of the first in vector order: a
    linked cell (earlier provenance, record).
    """

    def other(cs, c):
        return next((d for d in cs if d != c), None)

    cycle = len(pids) == len(choices)
    ceiling, guards = dp.ceiling, dp.guards
    states = {(c if cycle else None, c): {0: ()} for c in choices[0]}
    for i, pid in enumerate(pids):
        last = i + 1 == len(pids)
        cs = choices[(i + 1) % len(choices)]
        nxt: dict[tuple | None, Table] = {}
        for (first, (e, a)), table in states.items():
            for c in [other(cs, first)] if cycle and last else cs:
                options = dp.paths(a, c[1]).items()
                if not options:
                    continue
                out = nxt.setdefault(None if last else (first, other(cs, c)), {})
                dp.charge(len(table) * len(options))
                for vec, prov in table.items():
                    room = ceiling - vec
                    for ovec, path in options:
                        if (room - ovec) & guards == guards and vec + ovec not in out:
                            out[vec + ovec] = (prov, (pid, path, e, c[0]))
        for table in nxt.values():
            dp.check(table)
        states = nxt
    return states.get(None, {})


def _flatten(prov) -> tuple[RouteRec, ...]:
    """The records of a provenance chain in order.  A chain is (), a record
    (four fields) or a cell (earlier chain, later chain) of two."""
    out: list[RouteRec] = []
    stack = [prov]
    while stack:
        x = stack.pop()
        if len(x) == 2:
            stack += (x[1], x[0])
        elif x:
            out.append(x)
    return tuple(out)


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
