"""Frontier DP: decide EDP along a vertex order.

The vertices are placed one at a time in the given order.  After each
placement the frontier is the set of edges with exactly one end placed, and
a state gives each frontier edge one label:

- unused;
- an anchor: the edge carries pair p out of the placed prefix, from the end
  of p that lies in the prefix;
- a partner: the edge is joined to another frontier edge by a segment that
  runs inside the prefix.

Placing a vertex v matches its ends with each other or with v's outgoing
edges (those to vertices not yet placed).  The ends are the labelled edges
that arrive at v and one terminal end per pair with an end at v; each must
be matched.  Two anchors of one pair complete it; anchors of two pairs do
not match; the two ends of one joined segment would close a loop and do not
match either; every other match relabels what the segments reach.  An
outgoing edge left over stays unused or is joined to another one.  The
instance is YES iff the empty state survives the last vertex.

Labels suffice: how a segment runs inside the prefix never constrains what
happens outside it, since the placed edges are spent and the edges still to
come are all outside.  Only which frontier edges a solution uses, and which
of them its segments tie to each other or to which pair, constrain the
rest, and that is the state.  A solution's paths give one run of the DP,
as each passage of a path through v matches two of v's ends and edges.  An
accepting run gives edge-disjoint trails, one per pair (a segment that
closes on itself is refused when it closes), and a trail shortcuts to a
path on a subset of its edges.  So the answer is exact.

On a path-shaped decomposition the cut after each vertex is a node's
adhesion, so the state count is bounded in the width and not in n.  A
vertex of high degree can still expand into many states, each as long as
its frontier, so each solve runs under a budget of `FRONTIER_BUDGET` labels
generated: every partial or complete state the expansion builds is charged
its size, the step's frontier edges plus its outgoing edges.  The charge
is made inside the expansion, which runs on an explicit stack, so time,
memory and stack depth stay bounded even within one vertex, and the solve
raises `CapExceeded` naming the budget when it runs out.

Each layer's states are kept.  `FrontierResult.routes` walks back from the
empty final state, re-expands the predecessors of each layer until one
yields the current state, and stitches the matches it logged into routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .graphs import EDPInstance, StructureError
from .oracle import CapExceeded, RoutedPath

FRONTIER_BUDGET = 2_000_000

# A label is None (unused), an edge rank (>= 0: the partner of a joined
# segment) or the anchor -1 - r of the pair of rank r.  Ends and ports at a
# vertex are edge ranks and, for the pairs with an end there, their anchors.
Label = int | None


class _Step(NamedTuple):
    """The placement of one vertex, on frontiers of edge ranks."""

    vertex: int
    before: tuple[int, ...]  # the frontier before the placement
    arriving: tuple[int, ...]  # positions in `before` of the edges ending at the vertex
    outgoing: tuple[int, ...]  # edges to vertices placed later
    terminals: tuple[int, ...]  # anchors of the pairs with an end at the vertex
    after: tuple[int, ...]  # `before` less the arriving edges, then the outgoing ones


def _steps(inst: EDPInstance, order: Sequence[int]) -> tuple[list[_Step], list[int]]:
    """The steps of `order` and the edge ids by rank."""
    g = inst.graph
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(order) or len(pos) != g.num_vertices() or not all(map(g.has_vertex, pos)):
        raise StructureError("order must enumerate the vertex set exactly")
    eids = g.sorted_edges()
    rank = {e: r for r, e in enumerate(eids)}
    anchor = {p: -1 - r for r, p in enumerate(inst.sorted_pairs())}
    far = [max(pos[a], pos[b]) for a, b in map(g.endpoints, eids)]
    steps, frontier = [], ()
    for i, v in enumerate(order):
        arrive, out = set(), []
        for e in map(rank.__getitem__, g.incident(v)):
            if far[e] == i:
                arrive.add(e)
            else:
                out.append(e)
        after = tuple(e for e in frontier if e not in arrive) + tuple(out)
        arriving = tuple(j for j, e in enumerate(frontier) if e in arrive)
        steps.append(_Step(v, frontier, arriving, tuple(out), tuple(anchor[p] for p in inst.pairs_at(v)), after))
        frontier = after
    return steps, eids


def _expand(step: _Step, state: tuple[Label, ...], out: dict, left: float, log: bool = False) -> float:
    """Add the states `step` yields from `state` to `out` and return the
    labels the solve may still generate, `left` less the size of every
    partial or complete state built.  With `log`, each new state maps to
    its matches, a linked list of port pairs; without, to None.

    The expansion runs on an explicit stack, so a vertex of any degree is
    stopped by the budget and never by the depth of a recursion.  A partial
    state is its labels, the ends still to match, the outgoing edges still
    free, and the matches made."""
    before = step.before
    lab = {before[i]: x for i, x in enumerate(state) if x is not None}
    ends = tuple(before[i] for i in step.arriving if state[i] is not None) + step.terminals
    size = max(1, len(before) + len(step.outgoing))
    left -= size
    stack = [(lab, ends, step.outgoing, None)]
    while stack:
        if left < 0:
            raise CapExceeded(f"frontier budget (FRONTIER_BUDGET) of {FRONTIER_BUDGET} labels exhausted")
        lab, ends, free, made = stack.pop()
        top = len(stack)
        if ends:  # match the first end with a later end or a free outgoing edge
            x, rest = ends[0], ends[1:]
            ox = lab[x] if x >= 0 else x  # what x's segment reaches: an anchor or a frontier edge
            for j, y in enumerate(rest):
                oy = lab[y] if y >= 0 else y
                if ox < 0:
                    if oy < 0:
                        if ox != oy:
                            continue  # two pairs
                        nlab = lab  # both ends of one pair: it is routed
                    else:
                        nlab = {**lab, oy: ox}
                elif oy < 0:
                    nlab = {**lab, ox: oy}
                elif ox == y:
                    continue  # both ends of one segment: a loop
                else:
                    nlab = {**lab, ox: oy, oy: ox}
                stack.append((nlab, rest[:j] + rest[j + 1 :], free, ((x, y), made) if log else None))
            for k, o in enumerate(free):
                nlab = {**lab, o: ox} if ox < 0 else {**lab, ox: o, o: ox}
                stack.append((nlab, rest, free[:k] + free[k + 1 :], ((x, o), made) if log else None))
        elif free:  # leave the first free outgoing edge unused or join it to a later one
            o, rest = free[0], free[1:]
            stack.append((lab, (), rest, made))
            for j, o2 in enumerate(rest):
                stack.append(({**lab, o: o2, o2: o}, (), rest[:j] + rest[j + 1 :], ((o, o2), made) if log else None))
        else:
            out.setdefault(tuple(map(lab.get, step.after)), made)
        left -= (len(stack) - top) * size
    return left


@dataclass(frozen=True)
class FrontierResult:
    """The answer, the largest frontier of the order (its cut), the largest
    layer of states and the labels generated, as the budget counts them."""

    feasible: bool
    cut: int
    peak: int
    generated: int
    inst: EDPInstance = field(repr=False, compare=False)
    steps: list[_Step] = field(repr=False, compare=False)
    eids: list[int] = field(repr=False, compare=False)
    layers: list[dict[tuple[Label, ...], None]] = field(repr=False, compare=False)

    def routes(self) -> dict[int, RoutedPath] | None:
        """One path per pair on a YES answer, None on a NO."""
        if not self.feasible:
            return None
        matches: dict[int, dict[int, int]] = {}  # vertex -> port -> the port it is matched to
        target: tuple[Label, ...] = ()
        for step, layer in zip(reversed(self.steps), reversed(self.layers[:-1])):
            for state in layer:
                out: dict = {}
                _expand(step, state, out, float("inf"), log=True)
                if target in out:
                    break
            else:
                raise RuntimeError(f"no state before vertex {step.vertex} yields its successor")
            at = matches[step.vertex] = {}
            made = out[target]
            while made is not None:
                (a, b), made = made
                at[a], at[b] = b, a
            target = state
        return {p: self._route(p, matches) for p in self.inst.sorted_pairs()}

    def _route(self, pid: int, matches: dict[int, dict[int, int]]) -> RoutedPath:
        """Follow the trail of `pid` from its smaller end, cutting out every
        closed detour, so the route is a path."""
        g, anchor = self.inst.graph, -1 - self.inst.sorted_pairs().index(pid)
        v = min(self.inst.pair(pid))
        vertices, edges, seen = [v], [], {v: 0}
        port = anchor
        while (port := matches[v][port]) >= 0:
            eid = self.eids[port]
            a, b = g.endpoints(eid)
            v = b if a == v else a
            if v in seen:
                for w in vertices[seen[v] + 1 :]:
                    del seen[w]
                del vertices[seen[v] + 1 :], edges[seen[v] :]
            else:
                seen[v] = len(vertices)
                vertices.append(v)
                edges.append(eid)
        return RoutedPath(tuple(vertices), tuple(edges))


def solve_frontier(inst: EDPInstance, order: Sequence[int]) -> FrontierResult:
    """Decide `inst` by placing its vertices in `order`, which lists each
    vertex once.  Raises StructureError on another order and CapExceeded
    when `FRONTIER_BUDGET` labels have been generated."""
    steps, eids = _steps(inst, order)
    left: float = FRONTIER_BUDGET
    layers: list[dict[tuple[Label, ...], None]] = [{(): None}]
    for step in steps:
        out: dict[tuple[Label, ...], None] = {}
        for state in layers[-1]:
            left = _expand(step, state, out, left)
        layers.append(out)
        if not out:
            break
    return FrontierResult(
        feasible=len(layers) == len(steps) + 1 and () in layers[-1],
        cut=max((len(step.after) for step in steps), default=0),
        peak=max(map(len, layers)),
        generated=int(FRONTIER_BUDGET - left),
        inst=inst,
        steps=steps,
        eids=eids,
        layers=layers,
    )
