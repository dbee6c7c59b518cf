"""Treecut decompositions: model, text format, and one check of validity,
width and niceness.

A decomposition is a rooted tree whose nodes carry a near-partition of the
graph's vertices into bags (empty bags allowed).  The root bag is kept empty;
`ensure_empty_root` splices a fresh empty-bag root above any decomposition
that violates this, which leaves the width unchanged.

Every per-node fact comes from `node_views`, one bottom-up pass over all
nodes.  `verify_decomposition` derives that map once and reports validity,
width and niceness from it, and the treecut DP reads the map off the
report, so a treecut solve builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Mapping

from .graphs import EDPInstance, ParseError, StructureError, TextLines


class DecompositionError(ValueError):
    """Decomposition fails a structural requirement; `node` is the offending
    node, or None when the fault belongs to no single node."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class TreecutDecomposition:
    """Rooted tree with a bag of vertices per node."""

    __slots__ = ("_parent", "_bags", "_children", "root")

    def __init__(self, parent: Mapping[int, int | None], bags: Mapping[int, Iterable[int]]):
        if set(parent) != set(bags):
            raise DecompositionError("parent map and bags must cover the same nodes")
        roots = [t for t, p in parent.items() if p is None]
        if len(roots) != 1:
            raise DecompositionError(f"need exactly one root, found {len(roots)}", roots[1] if roots else None)
        self.root = roots[0]
        self._parent = dict(parent)
        self._bags = {t: frozenset(bags[t]) for t in bags}
        self._children: dict[int, list[int]] = {t: [] for t in parent}
        for t in sorted(parent):
            p = parent[t]
            if p is not None:
                if p not in self._children:
                    raise DecompositionError(f"node {t} has unknown parent {p}", t)
                self._children[p].append(t)
        # reject cycles / disconnected forests
        reach = set()
        stack = [self.root]
        while stack:
            t = stack.pop()
            reach.add(t)
            stack.extend(self._children[t])
        if reach != set(parent):
            stray = next(t for t in parent if t not in reach)
            raise DecompositionError("parent links do not form a tree", stray)

    def parent(self, t: int) -> int | None:
        return self._parent[t]

    def bag(self, t: int) -> frozenset[int]:
        return self._bags[t]

    def children(self, t: int) -> tuple[int, ...]:
        return tuple(self._children[t])

    def nodes(self) -> list[int]:
        return sorted(self._parent)

    def postorder(self) -> list[int]:
        out: list[int] = []
        stack = [self.root]
        while stack:
            t = stack.pop()
            out.append(t)
            stack.extend(self._children[t])
        out.reverse()
        return out

    def ensure_empty_root(self) -> "TreecutDecomposition":
        if not self._bags[self.root]:
            return self
        # a positive id: 0 marks the root's missing parent in the text format
        fresh = max(max(self._parent) + 1, 1)
        parent = dict(self._parent)
        parent[self.root] = fresh
        parent[fresh] = None
        bags = {t: self._bags[t] for t in self._bags}
        bags[fresh] = frozenset()
        return TreecutDecomposition(parent, bags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreecutDecomposition):
            return NotImplemented
        return self._parent == other._parent and self._bags == other._bags


@dataclass(frozen=True)
class NodeViews:
    """Derived per-node data: subtree vertex set, cut edges in id order,
    adhesion, the cut edges' outside endpoints (the subtree's neighborhood),
    thinness, straddling pairs (pair id -> (inside member, outside member)
    for each pair with exactly one member in the subtree, in pair-id order)
    and absorbability (thin and seeing only the parent's bag, so the dynamic
    step replaces the subtree from its record table instead of branching
    over it)."""

    node: int
    subtree: frozenset[int]
    cut: tuple[int, ...]
    adhesion: int
    outside: frozenset[int]
    thin: bool
    straddling: Mapping[int, tuple[int, int]]
    absorbable: bool


def node_views(inst: EDPInstance, dec: TreecutDecomposition) -> dict[int, NodeViews]:
    """Every node's views, from one postorder pass over a decomposition whose
    bags are a near-partition of the vertices.  A subtree is its bag plus its
    children's subtrees; a cut edge's inside end is in the bag or in a child's
    subtree, so the cut is found among the edges at the bag and the children's
    cut edges, and a straddling pair among the pairs at the bag and the
    children's straddling pairs."""
    g = inst.graph
    views: dict[int, NodeViews] = {}
    for t in dec.postorder():
        bag = dec.bag(t)
        kids = [views[c] for c in dec.children(t)]
        sub = bag.union(*(k.subtree for k in kids))
        edges = {e for v in bag for e in g.incident(v)}.union(*(k.cut for k in kids))
        cut = tuple(e for e in sorted(edges) if len(sub.intersection(g.endpoints(e))) == 1)
        outside = frozenset(x for e in cut for x in g.endpoints(e) if x not in sub)
        pids = sorted({p for v in bag for p in inst.pairs_at(v)}.union(*(k.straddling for k in kids)))
        straddling = {p: (min(inst.pair(p) & sub), min(inst.pair(p) - sub)) for p in pids if len(inst.pair(p) & sub) == 1}
        parent = dec.parent(t)
        thin = parent is not None and len(cut) <= 2
        views[t] = NodeViews(
            node=t,
            subtree=sub,
            cut=cut,
            adhesion=len(cut),
            outside=outside,
            thin=thin,
            straddling=straddling,
            absorbable=thin and outside <= dec.bag(parent),
        )
    return views


def torso_size(inst: EDPInstance, dec: TreecutDecomposition, views: Mapping[int, NodeViews], node: int) -> int:
    """Vertex count of the node's torso after consolidating every other
    subtree and exhaustively suppressing degree-<=2 vertices outside the bag.

    Suppressing a vertex whose two edges lead to the same neighbor would
    create a self-loop; the loop is dropped.  Disconnected inputs are handled
    by the same consolidation (blobs without edges just disappear).  Every
    torso edge is at the bag or crosses a child's cut (a cut edge of the node
    does one or the other), so only those edges are read.
    """
    g = inst.graph
    bag = dec.bag(node)
    # one blob per connected component of the decomposition tree minus
    # `node`: the parent side first (-1), then the children in id order
    children = dec.children(node)
    first = 2 if dec.parent(node) is not None else 1
    part = {v: v for v in bag}
    for i, c in enumerate(children, start=first):
        for eid in views[c].cut:
            u, v = g.endpoints(eid)
            part[v if u in views[c].outside else u] = -i
    edges = {e for v in bag for e in g.incident(v)}.union(*(views[c].cut for c in children))
    # consolidated multigraph as adjacency with edge multiplicity
    adj: dict[int, dict[int, int]] = {v: {} for v in bag}
    for eid in edges:
        mu, mv = (part.get(x, -1) for x in g.endpoints(eid))  # -1: the parent side
        if mu != mv:
            for a, b in ((mu, mv), (mv, mu)):
                nbrs = adj.setdefault(a, {})
                nbrs[b] = nbrs.get(b, 0) + 1
    # Degrees never grow, so a part turns suppressible only when a neighbour
    # is suppressed, which pushes it back: each pop of the worklist takes the
    # smallest suppressible part, as an ascending rescan would.
    heap = [x for x in adj if x not in bag]
    heapify(heap)
    while heap:
        x = heappop(heap)
        if x not in adj or sum(adj[x].values()) > 2:
            continue
        nbrs = adj.pop(x)
        for y in nbrs:
            del adj[y][x]
            if y not in bag:
                heappush(heap, y)
        if len(nbrs) == 2:  # two distinct neighbours, one edge each
            a, b = nbrs
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1
    return len(adj)


def partition_errors(inst: EDPInstance, dec: TreecutDecomposition) -> tuple[str, ...]:
    """What keeps the bags from being a near-partition of the vertices with
    an empty root bag; empty when they are."""
    vertices = inst.graph.vertices
    errors = []
    seen: set[int] = set()
    for t in dec.nodes():
        bag = dec.bag(t)
        if stray := bag - vertices:
            errors.append(f"node {t}: bag contains non-vertices {sorted(stray)}")
        if overlap := bag & seen:
            errors.append(f"node {t}: bag reuses vertices {sorted(overlap)}")
        seen |= bag
    if missing := vertices - seen:
        errors.append(f"vertices {sorted(missing)} appear in no bag")
    if dec.bag(dec.root):
        errors.append(f"root bag must be empty, has {sorted(dec.bag(dec.root))}")
    return tuple(errors)


@dataclass(frozen=True)
class DecompositionReport:
    """What `verify_decomposition` finds.  An invalid decomposition has
    only its `errors`; a valid one has per-node (torso size, adhesion), the
    width, the offending thin nodes and the `node_views` map they were read
    from."""

    valid: bool
    errors: tuple[str, ...]
    per_node: Mapping[int, tuple[int, int]]  # node -> (torso size, adhesion)
    width: int
    offending: tuple[int, ...]  # thin nodes whose subtree touches a sibling subtree
    views: Mapping[int, NodeViews]

    @property
    def nice(self) -> bool:
        return self.valid and not self.offending


def _offends(views: Mapping[int, NodeViews], t: int, parent: Callable, bag: Callable) -> bool:
    """Whether `t` is thin and its subtree's neighborhood reaches a sibling
    subtree: the parent's subtree minus its bag and `t`'s own subtree, which
    `outside` already avoids.  `parent` and `bag` look the tree up by node."""
    p = parent(t)
    return views[t].thin and bool((views[t].outside - bag(p)) & views[p].subtree)


def verify_decomposition(inst: EDPInstance, dec: TreecutDecomposition) -> DecompositionReport:
    """Validate the near-partition and the empty root bag (`partition_errors`);
    on a valid decomposition, derive the `node_views` map once and report
    from it per-node (torso size, adhesion), the width and the thin nodes
    whose subtree's neighborhood reaches a sibling subtree, which keep the
    decomposition from being nice.  Which children the dynamic program
    branches over is `NodeViews.absorbable`."""
    errors = partition_errors(inst, dec)
    if errors:
        return DecompositionReport(False, errors, {}, -1, (), {})
    views = node_views(inst, dec)
    per_node = {t: (torso_size(inst, dec, views, t), views[t].adhesion) for t in dec.nodes()}
    width = max((max(tor, adh) for tor, adh in per_node.values()), default=0)
    offending = tuple(t for t in dec.nodes() if _offends(views, t, dec.parent, dec.bag))
    return DecompositionReport(True, (), per_node, width, offending, views)


def verify_nice(inst: EDPInstance, dec: TreecutDecomposition) -> DecompositionReport:
    """`verify_decomposition`, read for its `nice` and `offending`."""
    return verify_decomposition(inst, dec)


# -- text format -----------------------------------------------------------
#
#   d tcw <num_nodes>
#   n <node_id> <parent_id> [<vertex> ...]     (parent_id 0 marks the root)


def parse_decomposition(text: str | bytes) -> TreecutDecomposition:
    lines = TextLines(text)
    declared = None
    parent: dict[int, int | None] = {}
    bags: dict[int, frozenset[int]] = {}
    node_line: dict[int, int] = {}
    for lineno, fields in lines:
        if fields[0] == "d":
            (declared,) = lines.header(lineno, fields, "tcw", 1)
        elif fields[0] == "n":
            if declared is None:
                raise ParseError("node before header", lineno)
            try:
                node, par, *verts = map(lines.to_int, fields[1:])
            except ValueError:
                raise ParseError(f"malformed node line {lines.echo(lineno)}", lineno) from None
            if node in parent:
                raise ParseError(f"duplicate node {node}", lineno)
            if len(set(verts)) != len(verts):
                raise ParseError(f"node {node} lists a vertex twice", lineno)
            parent[node] = None if par == 0 else par
            bags[node] = frozenset(verts)
            node_line[node] = lineno
        else:
            raise ParseError(f"unknown line {lines.echo(lineno)}", lineno)
    if declared is None:
        raise ParseError("missing header")
    if len(parent) != declared:
        raise ParseError(f"declared {declared} nodes, found {len(parent)}", lines.header_line)
    try:
        dec = TreecutDecomposition(parent, bags)
    except DecompositionError as exc:
        raise ParseError(str(exc), node_line.get(exc.node, lines.header_line)) from exc
    return dec.ensure_empty_root()


def serialize_decomposition(dec: TreecutDecomposition) -> str:
    """The text form; parent 0 marks the root, so node 0 may not be a parent."""
    lines = [f"d tcw {len(dec.nodes())}"]
    for t in dec.nodes():
        par = dec.parent(t)
        if par == 0:
            raise DecompositionError(f"node 0 has child {t}, but parent 0 means no parent in the text format", 0)
        verts = " ".join(str(v) for v in sorted(dec.bag(t)))
        lines.append(f"n {t} {par if par is not None else 0}" + (f" {verts}" if verts else ""))
    return "\n".join(lines) + "\n"


# -- constructors (all emit nice decompositions) ----------------------------


def single_node_decomposition(inst: EDPInstance) -> TreecutDecomposition:
    """Empty root over one bag holding every vertex."""
    return TreecutDecomposition({1: None, 2: 1}, {1: frozenset(), 2: inst.graph.vertices})


def star_decomposition(inst: EDPInstance, hub: Iterable[int]) -> TreecutDecomposition:
    """Empty root, hub bag below it, one singleton leaf per remaining vertex.

    Nice by construction when the non-hub vertices have all their neighbors
    in the hub (the shape solve_simple_edp consumes).
    """
    hub_set = frozenset(hub)
    parent: dict[int, int | None] = {1: None, 2: 1}
    bags: dict[int, frozenset[int]] = {1: frozenset(), 2: hub_set}
    nxt = 3
    for v in sorted(inst.graph.vertices - hub_set):
        parent[nxt] = 2
        bags[nxt] = frozenset({v})
        nxt += 1
    return TreecutDecomposition(parent, bags)


def chain_decomposition(inst: EDPInstance, order: Iterable[int] | None = None) -> TreecutDecomposition:
    """Empty root over a path of singleton bags; trivially nice (no node has
    siblings).  Width is bounded by the heaviest cut of the given order."""
    seq = list(order) if order is not None else inst.graph.sorted_vertices()
    if set(seq) != set(inst.graph.vertices):
        raise StructureError("order must enumerate the vertex set exactly")
    parent: dict[int, int | None] = {1: None}
    bags: dict[int, frozenset[int]] = {1: frozenset()}
    prev = 1
    for i, v in enumerate(seq, start=2):
        parent[i] = prev
        bags[i] = frozenset({v})
        prev = i
    return TreecutDecomposition(parent, bags)


def spanning_tree_decomposition(inst: EDPInstance) -> TreecutDecomposition:
    """Tree-shaped decomposition following a spanning forest, with offending
    thin subtrees merged upward until the result is nice.

    Suits graphs that are trees plus a few extra edges; the width stays
    within a constant factor of that edge count.
    """
    g = inst.graph
    # a DFS forest; each root is its component's smallest vertex
    parent_v: dict[int, int | None] = {}
    for rootv in g.sorted_vertices():
        if rootv in parent_v:
            continue
        parent_v[rootv] = None
        stack = [rootv]
        while stack:
            x = stack.pop()
            for y in sorted(g.neighbors(x)):
                if y not in parent_v:
                    parent_v[y] = x
                    stack.append(y)
    node_of = {v: i for i, v in enumerate(sorted(parent_v), start=2)}
    parent: dict[int, int | None] = {1: None}
    bags: dict[int, set[int]] = {1: set()}
    for v, nv in node_of.items():
        pv = parent_v[v]
        parent[nv] = 1 if pv is None else node_of[pv]
        bags[nv] = {v}
    dec = TreecutDecomposition(parent, bags)
    # Merging an offender t into its parent p changes no other node's views,
    # only the offending test of p's children: p's own can only stop
    # offending, as its bag grew, and t's are pushed to be tested anew.  So
    # the smallest offender is merged first, as a rescan would.
    views = node_views(inst, dec)
    children = {t: set(dec.children(t)) for t in parent}
    heap = sorted(parent)
    while heap:
        t = heappop(heap)
        if t not in parent or not _offends(views, t, parent.__getitem__, bags.__getitem__):
            continue
        p = parent.pop(t)
        bags[p] |= bags.pop(t)
        children[p].remove(t)
        for c in children.pop(t):
            parent[c] = p
            children[p].add(c)
            heappush(heap, c)
    return TreecutDecomposition(parent, bags)
