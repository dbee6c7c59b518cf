"""Shared test helpers: witness-to-record correspondence, small random
instance builders and disjoint unions used across suites, the unpruned backtracking search
that the oracle's pruned core is checked against, the rescanning spanning-tree
decomposition builder that the one-pass builder is checked against, the
rescanning torso suppression that the worklist one is checked against, the
merge-based chain walk that the hub solver's in-place one is checked against,
the `EDPInstance`-based dynamic step that the residue-based one is checked
against, the element-wise instance builds (one validated `add_*` call per
element) that the one-pass constructors, `preprocess_simple` and
`edp_to_vdp` are checked against, the nested-`find` feedback edge set that
the inlined one is checked against, and the kernel's leaf worklist, the
oracle's neighbour-set closure and the kernel's anchor-avoiding piece walk
that `prune_leaves` and `MultiGraph.components` are checked against."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from heapq import heappop, heappush

from edpsolve.decomposition import TreecutDecomposition, node_views, verify_nice
from edpsolve.generators import VdpReduction, gen_random_instance
from edpsolve.graphs import EDPInstance, MultiGraph, StructureError, induced_instance
from edpsolve.oracle import RoutedPath, SolveResult, _ordered_pairs
from edpsolve.simple import SimpleInstance, _key, preprocess_simple, solve_simple_edp
from edpsolve.treecut_dp import (
    FOREIGN,
    INTERNAL,
    LEAVING,
    UNUSED,
    Record,
    RecordTable,
    enumerate_records,
    reduce_degree_two_edges,
)


def correspondence(
    inst: EDPInstance,
    dec: TreecutDecomposition,
    node: int,
    routes: dict[int, RoutedPath],
) -> Record:
    """The unique record a concrete solution induces at a node: crossing
    edges are read off each path in order and paired up per the path's
    relation to the subtree."""
    views = node_views(inst, dec)[node]
    sub = views.subtree
    cut = set(views.cut)
    classes: dict[int, str] = {}
    internal: list[tuple[int, int]] = []
    foreign: list[tuple[int, int]] = []
    leaving: list[tuple[int, int]] = []
    for pid in sorted(routes):
        route = routes[pid]
        crossings = [e for e in route.edges if e in cut]
        if not crossings:
            continue
        first, last = route.vertices[0], route.vertices[-1]
        if first in sub and last in sub:
            assert len(crossings) % 2 == 0
            for i in range(0, len(crossings), 2):
                internal.append(tuple(sorted(crossings[i : i + 2])))
            for e in crossings:
                classes[e] = INTERNAL
        elif first not in sub and last not in sub:
            assert len(crossings) % 2 == 0
            for i in range(0, len(crossings), 2):
                foreign.append(tuple(sorted(crossings[i : i + 2])))
            for e in crossings:
                classes[e] = FOREIGN
        else:
            if first not in sub:
                crossings.reverse()
            assert len(crossings) % 2 == 1
            leaving.append((pid, crossings[0]))
            classes[crossings[0]] = LEAVING
            for i in range(1, len(crossings), 2):
                foreign.append(tuple(sorted(crossings[i : i + 2])))
                classes[crossings[i]] = FOREIGN
                classes[crossings[i + 1]] = FOREIGN
    delta = tuple((e, classes.get(e, UNUSED)) for e in views.cut)
    return Record(delta, tuple(sorted(internal)), tuple(sorted(foreign)), tuple(sorted(leaving)))


def elementwise_instance(vertices, edges, pairs) -> EDPInstance:
    """The instance built one element at a time: `add_vertex` in the given
    order, then `add_edge` and `add_pair` by ascending id."""
    g = MultiGraph()
    for v in vertices:
        g.add_vertex(v)
    for eid in sorted(edges):
        u, v = edges[eid]
        g.add_edge(u, v, eid)
    inst = EDPInstance(g)
    for pid in sorted(pairs):
        a, b = sorted(pairs[pid])
        inst.add_pair(a, b, pid)
    return inst


def instance_state(inst: EDPInstance) -> tuple:
    """Every private field of an instance and its graph, lists in order."""
    g = inst.graph
    return (
        g._edges,
        g._incidence,
        g._max_vertex,
        g._max_edge,
        inst._pairs,
        inst._pairs_of,
        inst._max_pair,
    )


def reference_preprocess_simple(inst: EDPInstance, hub) -> SimpleInstance:
    """`preprocess_simple` building its reduced instance through validated
    `add_vertex`/`add_edge`/`add_pair` calls."""
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
    counts: dict = {}
    units: dict = {}

    def add_unit(u, v, unit):
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


def reference_feedback_edge_set(g: MultiGraph) -> frozenset[int]:
    """`feedback_edge_set` as a spanning forest built in edge-id order with
    a nested union-find `find`; the reference the inlined loop must equal."""
    parent: dict[int, int] = {v: v for v in g.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    extra = set()
    for eid in g.sorted_edges():
        u, v = g.endpoints(eid)
        ru, rv = find(u), find(v)
        if ru == rv:
            extra.add(eid)
        else:
            parent[ru] = rv
    return frozenset(extra)


def elementwise_edp_to_vdp(inst: EDPInstance) -> VdpReduction:
    """`edp_to_vdp` building its output one `add_vertex`, `add_edge` and
    `add_pair` call at a time."""
    g = inst.graph
    d = max((g.degree(v) for v in g.vertices), default=0)
    for v in g.sorted_vertices():
        if len(inst.pairs_at(v)) > d:
            return VdpReduction(EDPInstance(), "NO", {}, {})
    out = MultiGraph()
    copies: dict[int, tuple[int, ...]] = {}
    nxt = 1
    for v in g.sorted_vertices():
        mine = []
        for _ in range(max(d, 1)):
            out.add_vertex(nxt)
            mine.append(nxt)
            nxt += 1
        copies[v] = tuple(mine)
    edge_vertex: dict[int, int] = {}
    for eid in g.sorted_edges():
        out.add_vertex(nxt)
        edge_vertex[eid] = nxt
        nxt += 1
        u, v = g.endpoints(eid)
        for c in copies[u]:
            out.add_edge(c, edge_vertex[eid])
        for c in copies[v]:
            out.add_edge(c, edge_vertex[eid])
    reduced = EDPInstance(out)
    cursor = {v: 0 for v in g.vertices}
    for pid in inst.sorted_pairs():
        x, y = sorted(inst.pair(pid))
        cx = copies[x][cursor[x]]
        cursor[x] += 1
        cy = copies[y][cursor[y]]
        cursor[y] += 1
        reduced.add_pair(cx, cy, pid)
    return VdpReduction(reduced, None, copies, edge_vertex)


def reference_leaf_worklist(g: MultiGraph, keep, once: bool = False) -> bool:
    """The kernel's own leaf loop: pop vertices in ascending order and drop
    each one outside `keep` with at most one distinct neighbour, pushing
    that neighbour back; the test copies the incidence list."""
    heap = g.sorted_vertices()
    fired = False
    while heap:
        v = heappop(heap)
        if v in keep or not g.has_vertex(v):
            continue
        sole = None
        for eid in g.incident(v):
            w = g.other_end(eid, v)
            if sole is None:
                sole = w
            elif w != sole:
                break
        else:
            g.remove_vertex(v)
            if once:
                return True
            fired = True
            if sole is not None:
                heappush(heap, sole)
    return fired


def reference_leaf_closure(g: MultiGraph, keep, once: bool = False) -> bool:
    """The oracle's neighbour-set closure: every vertex outside `keep` with
    at most one distinct neighbour, repeatedly, found on neighbour sets and
    then removed from `g`; with `once`, only the smallest that qualifies at
    the start."""
    nbrs = {v: {g.other_end(e, v) for e in g.incident(v)} for v in g.vertices}
    todo = [v for v, ns in nbrs.items() if len(ns) <= 1 and v not in keep]
    if once:
        todo = sorted(todo)[:1]
    dropped: set[int] = set()
    while todo:
        v = todo.pop()
        if v in dropped:
            continue
        dropped.add(v)
        for w in nbrs[v]:
            nbrs[w].discard(v)
            if len(nbrs[w]) <= 1 and w not in keep and not once:
                todo.append(w)
    for v in sorted(dropped):
        g.remove_vertex(v)
    return bool(dropped)


def reference_pieces(g: MultiGraph, anchors) -> list[tuple[frozenset[int], list[int]]]:
    """The kernel's own piece walk: the components of G minus `anchors`, by
    smallest vertex, each with the edges that leave it, found by a walk that
    starts with the anchors seen."""
    seen = set(anchors)
    out = []
    for start in g.sorted_vertices():
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        boundary = []
        stack = [start]
        while stack:
            x = stack.pop()
            for eid in g.incident(x):
                y = g.other_end(eid, x)
                if y in anchors:
                    boundary.append(eid)
                elif y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        out.append((frozenset(comp), boundary))
    return out


def random_small_instance(seed: int, max_n: int = 8, max_extra: int = 3, max_pairs: int = 4) -> EDPInstance:
    """Connected random multigraph instance, sized for the brute force."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    g = MultiGraph(range(1, n + 1))
    for v in range(2, n + 1):
        g.add_edge(rng.randrange(1, v), v)
    for _ in range(rng.randint(0, max_extra)):
        u, v = rng.sample(range(1, n + 1), 2)
        g.add_edge(u, v)
    inst = EDPInstance(g)
    seen = set()
    for _ in range(rng.randint(0, max_pairs)):
        a, b = rng.sample(range(1, n + 1), 2)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            inst.add_pair(a, b)
    return inst


def disjoint_union(parts: list[EDPInstance], seed: int) -> EDPInstance:
    """The disjoint union of `parts` on vertices 1..n (each part shifted past
    the previous ones), with edge and pair ids shuffled across the parts."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    pairs: list[tuple[int, int]] = []
    shift = 0
    for part in parts:
        edges += [(u + shift, v + shift) for u, v in part.graph.edges.values()]
        pairs += [(a + shift, b + shift) for a, b in map(sorted, part.pairs.values())]
        shift += max(part.graph.vertices, default=0)
    rng.shuffle(edges)
    rng.shuffle(pairs)
    out = EDPInstance(MultiGraph(range(1, shift + 1)))
    for u, v in edges:
        out.graph.add_edge(u, v)
    for a, b in pairs:
        out.add_pair(a, b)
    return out


def tree_plus_union(seed: int) -> EDPInstance:
    """A disjoint union of two or three small tree-plus instances with
    interleaved edge and pair ids."""
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(2, 3)):
        part_seed, n, extra, q = rng.randrange(2**31), rng.randint(4, 12), rng.randint(1, 3), rng.randint(1, 2)
        parts.append(gen_random_instance(part_seed, n, extra, q, "tree-plus")[0])
    return disjoint_union(parts, seed)


def random_simple_split(seed: int, max_hub: int = 4, max_sat: int = 6, max_pairs: int = 6, max_mult: int = 3):
    """Random hub/satellite instance within the pinned acceptance bounds:
    hub <= 4, satellites <= 6, pairs <= 6, hub-edge multiplicities <= 3."""
    rng = random.Random(seed)
    k = rng.randint(1, max_hub)
    hub = list(range(1, k + 1))
    sats = list(range(k + 1, k + 1 + rng.randint(0, max_sat)))
    g = MultiGraph(hub + sats)
    for i in range(len(hub)):
        for j in range(i + 1, len(hub)):
            if rng.random() < 0.6:
                for _ in range(rng.randint(1, max_mult)):
                    g.add_edge(hub[i], hub[j])
    for v in sats:
        for _ in range(rng.randint(0, 2)):
            g.add_edge(v, rng.choice(hub))
    inst = EDPInstance(g)
    seen = set()
    for _ in range(rng.randint(0, max_pairs)):
        if len(hub) + len(sats) < 2:
            break
        a, b = rng.sample(hub + sats, 2)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            inst.add_pair(a, b)
    return inst, hub


def reference_merge(dp, table, options):
    """`_DP.merge` with flat provenance: every sum of a `table` vector and
    an `options` vector within the ceiling, with the concatenated provenance
    of the first pair, in vector order, that gives it."""
    rows = sorted(table.items(), key=lambda kv: dp.order(kv[0]))
    cols = sorted(options.items(), key=lambda kv: dp.order(kv[0]))
    out = {}
    for a, prov in rows:
        for b, prov2 in cols:
            if (dp.ceiling - a - b) & dp.guards == dp.guards:
                out.setdefault(a + b, prov + prov2)
    return out


def reference_route_options(dp, pid, u, v, lead, tail):
    return {vec: ((pid, path, lead, tail),) for vec, path in dp.paths(u, v).items()}


def reference_chain_table(dp, choices, pids):
    """The chain walk that `simple._chain_table` steps in place, written with
    merges: every state, on paths too, is keyed by (choice at the first node,
    choice left at the current node), each pair is merged in as the table of
    its route options, and the last states are unioned."""

    def other(cs, c):
        return next((d for d in cs if d != c), None)

    states = {(c, c): {0: ()} for c in choices[0]}
    for i, pid in enumerate(pids):
        nxt = {}
        cs = choices[(i + 1) % len(choices)]
        for (first, (e, a)), table in states.items():
            for c in [other(cs, first)] if i + 1 == len(choices) else cs:
                merged = reference_merge(dp, table, reference_route_options(dp, pid, a, c[1], e, c[0]))
                if merged:
                    into = nxt.setdefault((first, other(cs, c)), {})
                    for vec, prov in merged.items():
                        into.setdefault(vec, prov)
        states = nxt
    out = {}
    for table in states.values():
        for vec, prov in table.items():
            out.setdefault(vec, prov)
    return out


def reference_graph() -> EDPInstance:
    """7 vertices, 9 edges, feedback edge set number 3; the pinned width-3
    regression graph."""
    g = MultiGraph(range(1, 8))
    for u, v in [(1, 2), (1, 4), (2, 4), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4), (4, 7)]:
        g.add_edge(u, v)
    return EDPInstance(g)


def reference_decomposition() -> TreecutDecomposition:
    """The pinned decomposition for reference_graph: bags {4},{1},{2,3},{5},
    {6},{7} with {4} on top, plus a spliced empty root."""
    return TreecutDecomposition(
        parent={1: None, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1},
        bags={1: {4}, 2: {1}, 3: {2, 3}, 4: {5}, 5: {6}, 6: {7}},
    ).ensure_empty_root()


def naive_search(inst: EDPInstance, vertex_disjoint: bool) -> SolveResult:
    """Route the pairs in order, backtracking over simple paths.  A placed
    route blocks its edges, or its vertices when `vertex_disjoint`; the
    other blocked set stays empty.  No prune and no budget: the reference
    for the oracle's answers and first witnesses."""
    g = inst.graph
    order = _ordered_pairs(inst)
    used: set[int] = set()
    taken: set[int] = set()
    routes: dict[int, RoutedPath] = {}
    blocked = taken if vertex_disjoint else used

    def paths_from(v: int, target: int, visited: set[int], verts: list[int], eids: list[int]):
        if v == target:
            yield RoutedPath(tuple(verts), tuple(eids))
            return
        for eid in g.incident(v):
            if eid in used:
                continue
            w = g.other_end(eid, v)
            # also rejects an edge already on the path: it joins two visited vertices
            if w in visited or w in taken:
                continue
            visited.add(w)
            verts.append(w)
            eids.append(eid)
            yield from paths_from(w, target, visited, verts, eids)
            visited.remove(w)
            verts.pop()
            eids.pop()

    def place(i: int) -> bool:
        if i == len(order):
            return True
        pid = order[i]
        a, b = sorted(inst.pair(pid))
        if a in taken or b in taken:
            return False
        for route in paths_from(a, b, {a}, [a], []):
            items = route.vertices if vertex_disjoint else route.edges
            blocked.update(items)
            routes[pid] = route
            if place(i + 1):
                return True
            blocked.difference_update(items)
            del routes[pid]
        return False

    if place(0):
        return SolveResult(True, dict(routes))
    return SolveResult(False)


def rescanning_spanning_tree_decomposition(inst: EDPInstance) -> TreecutDecomposition:
    """The spanning-forest decomposition made nice by re-running
    `verify_nice` after every merge and merging its first offender into the
    offender's parent: the reference for `spanning_tree_decomposition`."""
    g = inst.graph
    parent_v: dict[int, int | None] = {}
    for comp in g.connected_components():
        rootv = min(comp)
        parent_v[rootv] = None
        stack = [rootv]
        seen = {rootv}
        while stack:
            x = stack.pop()
            for y in sorted(g.neighbors(x)):
                if y not in seen:
                    seen.add(y)
                    parent_v[y] = x
                    stack.append(y)
    node_of = {v: i for i, v in enumerate(sorted(parent_v), start=2)}
    parent: dict[int, int | None] = {1: None}
    bags: dict[int, frozenset[int]] = {1: frozenset()}
    for v, nv in node_of.items():
        pv = parent_v[v]
        parent[nv] = 1 if pv is None else node_of[pv]
        bags[nv] = frozenset({v})
    dec = TreecutDecomposition(parent, bags)
    while True:
        report = verify_nice(inst, dec)
        if report.nice:
            return dec
        t = report.offending[0]
        p = dec.parent(t)
        new_parent = {x: dec.parent(x) for x in dec.nodes() if x != t}
        new_bags = {x: dec.bag(x) for x in dec.nodes() if x != t}
        new_bags[p] = dec.bag(p) | dec.bag(t)
        for c in dec.children(t):
            new_parent[c] = p
        dec = TreecutDecomposition(new_parent, new_bags)


def rescanning_torso_size(inst: EDPInstance, dec: TreecutDecomposition, views, node: int) -> int:
    """`torso_size` suppressing the smallest degree-<=2 part outside the bag
    and rescanning all parts after every suppression: the reference for the
    worklist suppression."""
    g = inst.graph
    bag = dec.bag(node)
    children = sorted(dec.children(node))
    first = 2 if dec.parent(node) is not None else 1
    part = {v: v for v in bag}
    for i, c in enumerate(children, start=first):
        for eid in views[c].cut:
            u, v = g.endpoints(eid)
            part[u if u in views[c].subtree else v] = -i
    edges = {e for v in bag for e in g.incident(v)}.union(views[node].cut, *(views[c].cut for c in children))
    adj: dict[int, dict[int, int]] = {v: {} for v in bag}
    for eid in sorted(edges):
        mu, mv = (part.get(x, -1) for x in g.endpoints(eid))  # -1: the parent side
        if mu == mv:
            continue
        adj.setdefault(mu, {})[mv] = adj.setdefault(mu, {}).get(mv, 0) + 1
        adj.setdefault(mv, {})[mu] = adj.setdefault(mv, {}).get(mu, 0) + 1
    vertices = set(adj)

    def degree(x: int) -> int:
        return sum(adj[x].values())

    changed = True
    while changed:
        changed = False
        for x in sorted(vertices):
            if x in bag or degree(x) > 2:
                continue
            nbrs = [y for y, c in adj[x].items() for _ in range(c)]
            for y in set(nbrs):
                del adj[y][x]
            if len(nbrs) == 2 and nbrs[0] != nbrs[1]:
                a, b = nbrs
                adj[a][b] = adj[a].get(b, 0) + 1
                adj[b][a] = adj[b].get(a, 0) + 1
            del adj[x]
            vertices.remove(x)
            changed = True
            break
    return len(vertices)


# -- the instance-based dynamic step -------------------------------------------
#
# Every residue is an `EDPInstance`, re-induced through `_restrict` once per
# builder call: the reference for the residue maps of `treecut_dp`, which
# must give the same tables, residue counts and memo keys.


def _restrict(cur: EDPInstance, keep):
    """The instance induced on `keep`, ids preserved, and `stub(*attach)`,
    which adds a fresh vertex joined to the kept vertex `y` by edge `eid` for
    each `(eid, y)`; stub ids count up from one past `cur`'s largest vertex."""
    out = induced_instance(cur, keep)
    next_vertex = cur.graph.max_vertex + 1

    def stub(*attach):
        nonlocal next_vertex
        s = next_vertex
        next_vertex += 1
        out.graph.add_vertex(s)
        for eid, y in attach:
            out.graph.add_edge(s, y, eid)
        return s

    return out, stub


def reference_build_record_instance(inst: EDPInstance, view, rec: Record) -> EDPInstance:
    sub = view.subtree
    out, stub = _restrict(inst, sub)
    next_pid = inst.max_pair + 1

    def inside_end(eid):
        u, v = inst.graph.endpoints(eid)
        return u if u in sub else v

    for e1, e2 in sorted(rec.internal_pairs):
        a, c = inside_end(e1), inside_end(e2)
        if a != c:
            stub((e1, a), (e2, c))
    for pid, eid in sorted(rec.leaving):
        if pid not in view.straddling:
            raise StructureError(f"pair {pid} is not a straddling pair of node {view.node}")
        out.add_pair(view.straddling[pid][0], stub((eid, inside_end(eid))), pid)
    for e1, e2 in sorted(rec.foreign_pairs):
        b = stub((e1, inside_end(e1)))
        d = stub((e2, inside_end(e2)))
        out.add_pair(b, d, next_pid)
        next_pid += 1
    return out


def reference_simplify_in(cur: EDPInstance, view, rec: Record) -> EDPInstance | None:
    g = cur.graph
    sub = view.subtree
    used = rec.used_edges()
    if not set(used) <= set(view.cut):
        raise StructureError("record references edges outside the node's cut")
    outside_end = {}
    for e in used:
        if not g.has_edge(e):
            return None
        u, v = g.endpoints(e)
        if (u in sub) == (v in sub):
            return None
        outside_end[e] = v if u in sub else u
    if set(view.straddling) != {pid for pid, _ in rec.leaving}:
        return None
    out, stub = _restrict(cur, g.vertices - sub)
    next_pid = cur.max_pair + 1
    for pid, eid in sorted(rec.leaving):
        s = stub((eid, outside_end[eid]))
        out.add_pair(s, next(iter(cur.pair(pid) - sub)), pid)
    for e1, e2 in sorted(rec.internal_pairs):
        s1 = stub((e1, outside_end[e1]))
        s2 = stub((e2, outside_end[e2]))
        out.add_pair(s1, s2, next_pid)
        next_pid += 1
    for e1, e2 in sorted(rec.foreign_pairs):
        stub((e1, outside_end[e1]), (e2, outside_end[e2]))
    return out


def reference_replace_thin_in(cur: EDPInstance, view, table: RecordTable) -> EDPInstance | None:
    g = cur.graph
    sub = view.subtree
    for e in view.cut:
        if not g.has_edge(e):
            raise StructureError(f"cut edge {e} vanished before thin replacement")
    if not table.records:
        return None
    if view.straddling and len(table.records) > 1:
        out, stub = _restrict(cur, g.vertices - sub)
        s = stub(*((e, (set(g.endpoints(e)) - sub).pop()) for e in view.cut))
        for pid in view.straddling:
            out.add_pair(s, next(iter(cur.pair(pid) - sub)), pid)
        return out
    rec = min(table.records, key=lambda r: (bool(r.internal_pairs), not r.foreign_pairs))
    return reference_simplify_in(cur, view, rec)


def reference_residue_key(cur: EDPInstance, bag) -> tuple[int, ...]:
    g = cur.graph
    rank = {v: i for i, v in enumerate(g.sorted_vertices())}
    pids = cur.sorted_pairs()
    key = [len(rank), g.num_edges(), len(pids)]
    for e in g.sorted_edges():
        u, v = g.endpoints(e)
        key += (rank[u], rank[v])
    for p in pids:
        a, b = sorted(cur.pair(p))
        key += (rank[a], rank[b])
    key += [i for v, i in rank.items() if v in bag]
    return tuple(key)


def reference_step(inst: EDPInstance, dec: TreecutDecomposition, views, node: int, tables, memo) -> RecordTable:
    """`treecut_dp.dynamic_step` with every residue an `EDPInstance`."""
    children = sorted(dec.children(node))
    absorbable = [c for c in children if views[c].absorbable]
    record_children = [c for c in children if not views[c].absorbable]
    bag = dec.bag(node)
    if any(not tables[c].records for c in children):
        return RecordTable(node, ())
    g = inst.graph
    kids = [views[c] for c in children]
    edges = {e for v in bag for e in g.incident(v)}.union(views[node].cut, *(k.cut for k in kids))
    pids = {p for v in bag for p in inst.pairs_at(v)}.union(views[node].straddling, *(k.straddling for k in kids))
    vertices = set(bag).union(*(g.endpoints(e) for e in edges), *(inst.pair(p) for p in pids))
    local = EDPInstance(MultiGraph(vertices, {e: g.endpoints(e) for e in edges}), {p: inst.pair(p) for p in pids})
    lviews = {k.node: replace(k, subtree=k.subtree & vertices) for k in (views[node], *kids)}
    valid, residues = [], 0
    for rec in enumerate_records(views[node]):
        base = reference_build_record_instance(local, lviews[node], rec)
        for combo in itertools.product(*(tables[c].records for c in record_children)):
            cur = base
            for c, crec in zip(record_children, combo):
                cur = reference_simplify_in(cur, lviews[c], crec)
                if cur is None:
                    break
            for b in absorbable:
                if cur is None:
                    break
                cur = reference_replace_thin_in(cur, lviews[b], tables[b])
            if cur is None:
                continue
            residues += 1
            key = reference_residue_key(cur, bag)
            if key not in memo:
                red, rejected = reduce_degree_two_edges(cur)
                memo[key] = not rejected and solve_simple_edp(preprocess_simple(red, bag & red.graph.vertices)).feasible
            if memo[key]:
                valid.append(rec)
                break
    return RecordTable(node, tuple(valid), residues)
