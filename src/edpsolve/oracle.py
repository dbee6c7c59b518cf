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
- Before a pair is routed, every pending pair must have both endpoints
  free and be connected in the graph minus the edges (EDP) or the vertices
  (VDP) that placed routes block.  Blocking only grows deeper in the
  search, so a branch that fails this test fails however it continues.

One search step extends a partial path by one edge.  With caps, a search
gives up after `SEARCH_STEP_BUDGET` steps by raising `CapExceeded`; without
caps it runs to the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .graphs import EDPInstance, MultiGraph, StructureError, prune_leaves

SEARCH_STEP_BUDGET = 1_000_000


class CapExceeded(RuntimeError):
    """Instance exceeds the configured brute-force size cap or step budget."""


@dataclass(frozen=True)
class OracleCaps:
    """Size limits for the brute-force searches; None disables a limit.
    Searching under any caps also bounds the search by `SEARCH_STEP_BUDGET`."""

    max_edges: int | None = 20
    max_vertices: int | None = 12


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

    def __bool__(self) -> bool:
        return self.feasible


def _ordered_pairs(inst: EDPInstance) -> list[int]:
    # deterministic runs: pairs by (min member, max member), then id
    return sorted(inst.sorted_pairs(), key=lambda pid: (min(inst.pair(pid)), max(inst.pair(pid)), pid))


def brute_force_edp(inst: EDPInstance, caps: OracleCaps | None = OracleCaps()) -> SolveResult:
    """Decide EDP by backtracking over simple paths on unused edges."""
    if caps is not None and caps.max_edges is not None and inst.graph.num_edges() > caps.max_edges:
        raise CapExceeded(f"{inst.graph.num_edges()} edges exceeds cap {caps.max_edges}")
    return _search(inst, vertex_disjoint=False, budgeted=caps is not None)


def brute_force_vdp(inst: EDPInstance, caps: OracleCaps | None = OracleCaps()) -> SolveResult:
    """Decide VDP: paths pairwise vertex-disjoint, endpoints included."""
    if caps is not None and caps.max_vertices is not None and inst.graph.num_vertices() > caps.max_vertices:
        raise CapExceeded(f"{inst.graph.num_vertices()} vertices exceeds cap {caps.max_vertices}")
    return _search(inst, vertex_disjoint=True, budgeted=caps is not None)


def _search(inst: EDPInstance, vertex_disjoint: bool, budgeted: bool) -> SolveResult:
    """Route the pairs in order, backtracking over simple paths in the
    depth-first order of the incidence lists.  A placed route blocks its
    edges, or its vertices when `vertex_disjoint`; the other blocked set
    stays empty.

    The leaf prune (`prune_leaves`, on a copy of the graph) removes only
    vertices that no simple path between terminals uses, so each pair's
    paths come in the same order.  The placement prune (`routable`) fails a
    placement only when some pending pair cannot be routed whatever the
    later routes are, so it cuts only branches that yield no witness; the
    first witness found is the plain search's first.  A `budgeted` search raises CapExceeded on
    the step after the `SEARCH_STEP_BUDGET`-th."""
    order = _ordered_pairs(inst)
    ends = [tuple(sorted(inst.pair(pid))) for pid in order]
    g = inst.graph.copy()
    prune_leaves(g, inst.terminals())
    adj = {v: [(e, g.other_end(e, v)) for e in g.incident(v)] for v in g.vertices}
    limit = SEARCH_STEP_BUDGET if budgeted else float("inf")
    used: set[int] = set()
    taken: set[int] = set()
    routes: dict[int, RoutedPath] = {}
    blocked = taken if vertex_disjoint else used
    steps = 0

    def routable(i: int) -> bool:
        """Every pending pair has free endpoints and is connected around
        the blocked edges and vertices; one flood fill per component."""
        comp: dict[int, int] = {}
        for a, b in ends[i:]:
            if a in taken or b in taken:
                return False
            if a not in comp:
                comp[a] = a
                stack = [a]
                while stack:
                    x = stack.pop()
                    for eid, y in adj[x]:
                        if y not in comp and eid not in used and y not in taken:
                            comp[y] = a
                            stack.append(y)
            if comp.get(b) != comp[a]:
                return False
        return True

    def paths(a: int, b: int) -> Iterator[RoutedPath]:
        """Simple a-b paths around the blocked edges and vertices, in the
        depth-first order of the incidence lists."""
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
                    raise CapExceeded(f"search budget of {SEARCH_STEP_BUDGET} steps exhausted")
                if w == b:
                    yield RoutedPath((*verts, b), (*eids, eid))
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

    def place(i: int) -> bool:
        if i == len(order):
            return True
        if not routable(i):
            return False
        pid = order[i]
        for route in paths(*ends[i]):
            items = route.vertices if vertex_disjoint else route.edges
            blocked.update(items)
            routes[pid] = route
            if place(i + 1):
                return True
            blocked.difference_update(items)
            del routes[pid]
        return False

    if place(0):
        return SolveResult(True, dict(routes), steps)
    return SolveResult(False, steps=steps)


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
