"""Small-scale ground-truth solvers.

Backtracking searches for edge- and vertex-disjoint paths, the linear-time
forest check, and the subset-sum oracle.  They certify the clever solvers
on small instances and settle the kernels that no polynomial method takes.

The backtracking core routes the pairs in a fixed order over simple paths
and prunes only branches that cannot succeed, so every answer and the first
witness found are those of the plain search without prunes:

- Before the search, `graphs.prune_leaves` drops the non-terminal vertices
  with at most one distinct neighbour, repeatedly.  No terminal-to-terminal
  path passes a dropped vertex, so the paths of every pair, and their
  order, are unchanged.
- Before a pair is routed, the pending pairs must pass three tests in the
  free graph, the graph minus the edges (EDP) or the vertices (VDP) that
  placed routes block.  Each pair has both endpoints free and both in one
  component.  The cut test: no bridge separates the ends of two pairs
  (EDP), since a bridge carries at most one of edge-disjoint paths; no
  vertex is needed by two pairs (VDP), a pair needing its ends and every
  vertex that separates them, since a vertex lies on at most one of
  vertex-disjoint paths.  Blocking only grows deeper in the search, so a
  branch that fails a test fails however it continues.
- At the root of an edge-disjoint search with three or more pairs, the
  cut condition on larger cuts (`_violated_cut`): the minimum cuts of
  Gusfield's max flows between the pair ends, each leaf end replaced by
  its sole neighbour.  Edge-disjoint paths cross a cut on distinct edges,
  so a cut separating more pairs than it has edges refutes the instance
  before the first step, and no YES instance has one.  With two pairs
  such a cut is a bridge, which the tests above already catch.

One search step extends a partial path by one edge.  Under caps (the
default), a search gives up after its step budget, `SEARCH_STEP_BUDGET`
unless the caller gives a smaller one, by raising `CapExceeded`; with
`caps=None` it runs to the end.  No search has a size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .graphs import EDPInstance, MultiGraph, StructureError, prune_leaves

SEARCH_STEP_BUDGET = 1_000_000


class CapExceeded(RuntimeError):
    """An effort budget ran out: the search's step budget, the hub DP's or
    the treecut DP's (or `brute_force_mss`'s item cap)."""


@dataclass(frozen=True)
class OracleCaps:
    """Searching under caps bounds the search by its step budget; `None` in
    their place runs it to the end.  No field: no search has a size cap."""


@dataclass(frozen=True)
class RoutedPath:
    """One witness path: vertex sequence and the edge ids it uses, in order."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]


@dataclass(frozen=True)
class SolveResult:
    feasible: bool
    routes: dict[int, RoutedPath] | None = None  # pair id -> path, when feasible
    steps: int = 0  # backtracking search steps spent, for the searches that count them
    cut: tuple[int, ...] | None = None  # edge ids of a cut that refuted the instance, when one did

    def __bool__(self) -> bool:
        return self.feasible


def _ordered_pairs(inst: EDPInstance) -> list[int]:
    # deterministic runs: pairs by (min member, max member), then id
    return sorted(inst.sorted_pairs(), key=lambda pid: (min(inst.pair(pid)), max(inst.pair(pid)), pid))


def brute_force_edp(
    inst: EDPInstance, caps: OracleCaps | None = OracleCaps(), budget: int | None = None
) -> SolveResult:
    """Decide EDP by backtracking over simple paths on unused edges.  Under
    caps the search takes at most `budget` steps, `SEARCH_STEP_BUDGET` when
    it is None."""
    if caps is None:
        return _search(inst, vertex_disjoint=False, budget=None)
    return _search(inst, vertex_disjoint=False, budget=SEARCH_STEP_BUDGET if budget is None else budget)


def brute_force_vdp(inst: EDPInstance, caps: OracleCaps | None = OracleCaps()) -> SolveResult:
    """Decide VDP: paths pairwise vertex-disjoint, endpoints included."""
    return _search(inst, vertex_disjoint=True, budget=None if caps is None else SEARCH_STEP_BUDGET)


def _search(inst: EDPInstance, vertex_disjoint: bool, budget: int | None) -> SolveResult:
    """Route the pairs in order, backtracking over simple paths in the
    depth-first order of the incidence lists.  A placed route blocks its
    edges, or its vertices when `vertex_disjoint`; the other blocked set
    stays empty.

    The leaf prune (`prune_leaves`, on a copy of the graph) removes only
    vertices that no simple path between terminals uses, so each pair's
    paths come in the same order.  The search then runs on dense vertex ids
    0..n-1, so the placement test keeps its DFS times in lists.  The
    placement test (`routable`) fails a placement only when some pending
    pair cannot be routed whatever the later routes are, so it cuts only
    branches that yield no witness; the first witness found is the plain
    search's first.  Once the root passes `routable`, an edge-disjoint
    search with three or more pairs tests the cut condition
    (`_violated_cut`); a violated cut answers NO with 0 steps and names the
    cut, and no YES instance violates it, so the rest are searched as
    before.  A search with a `budget` raises CapExceeded on the step after
    the `budget`-th; None means no budget."""
    order = _ordered_pairs(inst)
    g = inst.graph.copy()
    prune_leaves(g, inst.terminals())
    names = g.sorted_vertices()
    index = {v: i for i, v in enumerate(names)}
    adj = [[(e, index[g.other_end(e, v)]) for e in g.incident(v)] for v in names]
    ends = [tuple(index[v] for v in sorted(inst.pair(pid))) for pid in order]
    limit = float("inf") if budget is None else budget
    used: set[int] = set()
    taken: set[int] = set()
    routes: dict[int, tuple[list[int], list[int]]] = {}
    blocked = taken if vertex_disjoint else used
    steps = 0

    def routable(i: int) -> bool:
        """The pending pairs `ends[i:]` pass the tests on the free graph
        (the graph minus the blocked edges and vertices): both ends free,
        both ends in one component, and the cut test.  With one pending
        pair nothing else can fire, so a walk from one end that stops at
        the other decides it.

        Otherwise one iterative low-link DFS runs over the components that
        hold pending ends.  Each vertex starts with the XOR of `1 << j`
        over the ends of pending pair j on it; XORed up the DFS tree, a
        subtree's value has bit j set exactly when one end of pair j lies
        inside it, and a root's value is 0 exactly when no pair leaves its
        component.

        Edge-disjoint: a tree edge into a subtree is a bridge when no back
        edge leaves the subtree (low > tin of the parent), and every pair
        with one end inside must cross it; a bridge carries at most one
        path, so two such pairs fail.  Vertex-disjoint: a pair needs its
        ends and every vertex that separates them; a vertex p separates the
        pairs with one end in a child subtree that no back edge leaves
        above p (low >= tin[p]), pooled over all such children of p; a
        vertex lies on at most one path, so two pairs needing one vertex
        fail, and so do two pairs sharing an end.  Blocking only grows
        deeper in the search, so each failure holds for every completion
        of the placement."""
        pending = ends[i:]
        if len(pending) == 1:
            a, b = pending[0]
            if a in taken or b in taken:
                return False
            seen = {a}
            stack = [a]
            while stack:
                for eid, y in adj[stack.pop()]:
                    if y not in seen and eid not in used and y not in taken:
                        if y == b:
                            return True
                        seen.add(y)
                        stack.append(y)
            return False
        sub = [0] * len(names)
        for j, (a, b) in enumerate(pending):
            if a in taken or b in taken or (vertex_disjoint and (sub[a] or sub[b])):
                return False
            sub[a] ^= 1 << j
            sub[b] ^= 1 << j
        need = sub[:]
        tin = [0] * len(names)
        low = [0] * len(names)
        clock = 0
        for root, _ in pending:
            if tin[root]:
                continue
            clock += 1
            tin[root] = low[root] = clock
            stack = [(root, None, iter(adj[root]))]
            while stack:
                x, into, it = stack[-1]
                for eid, y in it:
                    if eid in used or y in taken:
                        continue
                    if tin[y]:
                        # the edge in from the parent is the only one that must not count
                        if tin[y] < low[x] and eid != into:
                            low[x] = tin[y]
                    else:
                        clock += 1
                        tin[y] = low[y] = clock
                        stack.append((y, eid, iter(adj[y])))
                        break
                else:
                    stack.pop()
                    if not stack:
                        break
                    p = stack[-1][0]
                    s = sub[x]
                    sub[p] ^= s
                    if low[x] < low[p]:
                        low[p] = low[x]
                    if vertex_disjoint:
                        if low[x] >= tin[p]:
                            need[p] |= s
                            if need[p] & (need[p] - 1):
                                return False
                    elif low[x] > tin[p] and s & (s - 1):
                        return False
            if sub[root]:
                return False
        return True

    def paths(a: int, b: int) -> Iterator[tuple[list[int], list[int]]]:
        """Simple a-b paths around the blocked edges and vertices, in the
        depth-first order of the incidence lists, as (vertices, edges)."""
        nonlocal steps
        verts = [a]
        eids: list[int] = []
        visited = {a}
        frontier = [iter(adj[a])]
        while frontier:
            for eid, w in frontier[-1]:
                # also rejects an edge already on the path: it joins two visited vertices
                if eid in used or w in visited or w in taken:
                    continue
                steps += 1
                if steps > limit:
                    raise CapExceeded(f"search budget of {budget} steps exhausted")
                if w == b:
                    yield [*verts, b], [*eids, eid]
                    continue
                visited.add(w)
                verts.append(w)
                eids.append(eid)
                frontier.append(iter(adj[w]))
                break
            else:
                frontier.pop()
                visited.discard(verts.pop())
                if eids:
                    eids.pop()

    def place() -> bool:
        """Route the pairs in order; they pass `routable`.  The i-th entry
        of the stack is the generator of the i-th pair's routes, so the
        pair count meets no recursion limit.  A pair's route is freed
        before its generator resumes."""
        if not order:
            return True
        stack = [paths(*ends[0])]
        while stack:
            i = len(stack) - 1
            for route in stack[-1]:
                items = route[0] if vertex_disjoint else route[1]
                blocked.update(items)
                if routable(i + 1):
                    routes[order[i]] = route
                    if len(stack) == len(order):
                        return True
                    stack.append(paths(*ends[i + 1]))
                    break
                blocked.difference_update(items)
            else:
                stack.pop()
                if stack:
                    route = routes.pop(order[i - 1])
                    blocked.difference_update(route[0] if vertex_disjoint else route[1])
        return False

    if not routable(0):
        return SolveResult(False)
    cut = None if vertex_disjoint or len(ends) < 3 else _violated_cut(adj, ends)
    if cut is not None:
        return SolveResult(False, cut=cut)
    if place():
        named = {pid: RoutedPath(tuple(names[v] for v in vs), tuple(es)) for pid, (vs, es) in routes.items()}
        return SolveResult(True, named, steps)
    return SolveResult(False, steps=steps)


def _violated_cut(adj: list[list[tuple[int, int]]], ends: list[tuple[int, int]]) -> tuple[int, ...] | None:
    """The edge ids of a cut that separates more of the pairs `ends` than
    it has edges, or None when no cut tried does.

    The cuts tried are the minimum cuts of Gusfield's n-1 max flows over
    the flow vertices: the pair ends, each end of degree one replaced by
    its sole neighbour.  A flow from a leaf has value 1 and its cuts are
    bridges, which `routable` has tested; in the cuts of the other flows a
    leaf lies on its neighbour's side.  Each flow is unit-capacity, by BFS
    augmenting paths over the edge ids, and stops once its value reaches
    the number of pairs: no cut that large separates more pairs than it
    has edges.  Both extreme minimum cuts of a flow are tested, the
    vertices the residual graph reaches from s and the complement of those
    that reach t.  Edge-disjoint paths cross a cut on distinct edges, so a
    violated cut refutes the instance."""
    sites = sorted({adj[v][0][1] if len(adj[v]) == 1 else v for pair in ends for v in pair})
    tree = [0] * len(sites)  # Gusfield's tree: the index of each site's parent
    for i in range(1, len(sites)):
        s, t = sites[i], sites[tree[i]]
        heading: dict[int, int] = {}  # edge id -> the vertex its unit of flow enters
        value = 0
        while value < len(ends):
            prev: dict[int, tuple[int, int] | None] = {s: None}
            queue = [s]
            for x in queue:
                for eid, y in adj[x]:
                    if y not in prev and heading.get(eid) != y:
                        prev[y] = (x, eid)
                        queue.append(y)
                if t in prev:
                    break
            if t not in prev:
                break
            value += 1
            y = t
            while y != s:
                x, eid = prev[y]
                if heading.get(eid) == x:
                    del heading[eid]
                else:
                    heading[eid] = y
                y = x
        if value == len(ends):
            continue
        sink = {t}
        queue = [t]
        for y in queue:
            for eid, x in adj[y]:
                if x not in sink and heading.get(eid) != y:
                    sink.add(x)
                    queue.append(x)
        # a pair crosses the cut around either set exactly when one of its ends lies in it
        for side in (prev, sink):
            if sum((a in side) != (b in side) for a, b in ends) > value:
                return tuple(sorted(eid for x in side for eid, y in adj[x] if y not in side))
        for j in range(i + 1, len(sites)):
            if tree[j] == tree[i] and sites[j] in prev:
                tree[j] = i
    return None


def _forest_route(g: MultiGraph, a: int, b: int) -> RoutedPath | None:
    """Unique a-b path in a forest, or None when a,b sit in different trees."""
    prev: dict[int, tuple[int, int]] = {}
    stack = [a]
    seen = {a}
    while stack:
        x = stack.pop()
        if x == b:
            break
        for eid in g.incident(x):
            y = g.other_end(eid, x)
            if y not in seen:
                seen.add(y)
                prev[y] = (x, eid)
                stack.append(y)
    if b not in seen:
        return None
    verts = [b]
    eids = []
    while verts[-1] != a:
        x, eid = prev[verts[-1]]
        verts.append(x)
        eids.append(eid)
    return RoutedPath(tuple(reversed(verts)), tuple(reversed(eids)))


def tree_edp_feasible(g: MultiGraph, pairs: dict[int, frozenset[int]]) -> bool:
    """EDP on a forest: route every pair along its unique tree path and check
    no edge carries two paths.  Raises on cyclic input."""
    return tree_edp_routes(g, pairs) is not None


def tree_edp_routes(g: MultiGraph, pairs: dict[int, frozenset[int]]) -> dict[int, RoutedPath] | None:
    if not g.is_forest():
        raise StructureError("graph has a cycle; forest required")
    load: set[int] = set()
    routes: dict[int, RoutedPath] = {}
    for pid in sorted(pairs):
        a, b = sorted(pairs[pid])
        route = _forest_route(g, a, b)
        if route is None:
            return None
        if load & set(route.edges):
            return None
        load.update(route.edges)
        routes[pid] = route
    return routes


def brute_force_mss(k: int, items: Sequence[Sequence[int]], target: Sequence[int], min_count: int) -> bool:
    """Is there a subset of >= min_count item vectors with componentwise sum
    <= target?

    Entries are non-negative, so shrinking a feasible subset keeps it
    feasible; checking subsets of size exactly min_count suffices.
    """
    if len(items) > 20:
        raise CapExceeded(f"{len(items)} items exceeds cap 20")
    if len(target) != k or any(len(s) != k for s in items):
        raise ValueError("vector dimension mismatch")
    if any(x < 0 for s in items for x in s) or any(x < 0 for x in target):
        raise ValueError("entries must be non-negative")
    if min_count <= 0:
        return True
    if min_count > len(items):
        return False
    for chosen in combinations(items, min_count):
        if all(sum(s[i] for s in chosen) <= target[i] for i in range(k)):
            return True
    return False


def check_witness(inst: EDPInstance, routes: dict[int, RoutedPath], vertex_disjoint: bool = False) -> None:
    """Validate a witness: every pair routed, consecutive edges real, no edge
    (or vertex, for VDP) reused.  Raises ValueError on any violation."""
    if set(routes) != set(inst.pairs):
        raise ValueError("witness does not cover the pair set exactly")
    seen_edges: set[int] = set()
    seen_vertices: set[int] = set()
    for pid in inst.sorted_pairs():
        route = routes[pid]
        if frozenset((route.vertices[0], route.vertices[-1])) != inst.pair(pid):
            raise ValueError(f"pair {pid} endpoints mismatch")
        if len(route.edges) != len(route.vertices) - 1:
            raise ValueError(f"pair {pid} malformed route")
        if len(set(route.vertices)) != len(route.vertices):
            raise ValueError(f"pair {pid} revisits a vertex")
        for i, eid in enumerate(route.edges):
            if not inst.graph.has_edge(eid):
                raise ValueError(f"pair {pid} uses unknown edge {eid}")
            want = frozenset(route.vertices[i : i + 2])
            if frozenset(inst.graph.endpoints(eid)) != want:
                raise ValueError(f"pair {pid} edge {eid} does not match its step")
            if eid in seen_edges:
                raise ValueError(f"edge {eid} used by two paths")
            seen_edges.add(eid)
        if vertex_disjoint:
            if seen_vertices & set(route.vertices):
                raise ValueError(f"pair {pid} shares a vertex with another path")
            seen_vertices.update(route.vertices)
