"""Treecut decompositions: model, text format, width verification and the
niceness check.

A decomposition is a rooted tree whose nodes carry a near-partition of the
graph's vertices into bags (empty bags allowed).  The root bag is kept empty;
`ensure_empty_root` splices a fresh empty-bag root above any decomposition
that violates this, which leaves the width unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import EDPInstance, ParseError, StructureError, parse_ints


class DecompositionError(ValueError):
    """Decomposition fails a structural requirement."""


class TreecutDecomposition:
    """Rooted tree with a bag of vertices per node."""

    __slots__ = ("_parent", "_bags", "_children", "root")

    def __init__(self, parent: Mapping[int, int | None], bags: Mapping[int, Iterable[int]]):
        if set(parent) != set(bags):
            raise DecompositionError("parent map and bags must cover the same nodes")
        roots = [t for t, p in parent.items() if p is None]
        if len(roots) != 1:
            raise DecompositionError(f"need exactly one root, found {len(roots)}")
        self.root = roots[0]
        self._parent = dict(parent)
        self._bags = {t: frozenset(bags[t]) for t in bags}
        self._children: dict[int, list[int]] = {t: [] for t in parent}
        for t in sorted(parent):
            p = parent[t]
            if p is not None:
                if p not in self._children:
                    raise DecompositionError(f"node {t} has unknown parent {p}")
                self._children[p].append(t)
        # reject cycles / disconnected forests
        reach = set()
        stack = [self.root]
        while stack:
            t = stack.pop()
            reach.add(t)
            stack.extend(self._children[t])
        if reach != set(parent):
            raise DecompositionError("parent links do not form a tree")

    def parent(self, t: int) -> int | None:
        return self._parent[t]

    def bag(self, t: int) -> frozenset[int]:
        return self._bags[t]

    def children(self, t: int) -> tuple[int, ...]:
        return tuple(self._children[t])

    def nodes(self) -> list[int]:
        return sorted(self._parent)

    def siblings(self, t: int) -> tuple[int, ...]:
        p = self._parent[t]
        if p is None:
            return ()
        return tuple(c for c in self._children[p] if c != t)

    def postorder(self) -> list[int]:
        out: list[int] = []
        stack = [self.root]
        while stack:
            t = stack.pop()
            out.append(t)
            stack.extend(self._children[t])
        out.reverse()
        return out

    def subtree_vertices(self, t: int) -> frozenset[int]:
        acc: set[int] = set()
        stack = [t]
        while stack:
            x = stack.pop()
            acc |= self._bags[x]
            stack.extend(self._children[x])
        return frozenset(acc)

    def ensure_empty_root(self) -> "TreecutDecomposition":
        if not self._bags[self.root]:
            return self
        fresh = max(self._parent) + 1
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
    """Derived per-node data: subtree vertex set, cut edges, adhesion, the
    outside endpoints of the cut edges (the subtree's neighborhood) and
    thinness."""

    node: int
    subtree: frozenset[int]
    cut: tuple[int, ...]
    adhesion: int
    outside: frozenset[int]
    thin: bool


def node_views(inst: EDPInstance, dec: TreecutDecomposition, node: int) -> NodeViews:
    g = inst.graph
    sub = dec.subtree_vertices(node)
    cut = []
    outside = set()
    for eid in g.sorted_edges():
        u, v = g.endpoints(eid)
        if (u in sub) != (v in sub):
            cut.append(eid)
            outside.add(v if u in sub else u)
    return NodeViews(
        node=node,
        subtree=sub,
        cut=tuple(cut),
        adhesion=len(cut),
        outside=frozenset(outside),
        thin=node != dec.root and len(cut) <= 2,
    )


def is_absorbable(views: NodeViews, bag: frozenset[int]) -> bool:
    """A child whose subtree is thin and sees only its parent's bag; the
    dynamic step replaces it from its record table instead of branching."""
    return views.adhesion <= 2 and views.outside <= bag


def torso_size(inst: EDPInstance, dec: TreecutDecomposition, node: int) -> int:
    """Vertex count of the node's torso after consolidating every other
    subtree and exhaustively suppressing degree-<=2 vertices outside the bag.

    Suppressing a vertex whose two edges lead to the same neighbor would
    create a self-loop; the loop is dropped.  Disconnected inputs are handled
    by the same consolidation (blobs without edges just disappear).
    """
    g = inst.graph
    bag = dec.bag(node)
    # one blob per connected component of the decomposition tree minus
    # `node`: the parent side first (-1), then the children in sorted order
    parts: list[frozenset[int]] = []
    if dec.parent(node) is not None:
        parts.append(dec.subtree_vertices(dec.root) - dec.subtree_vertices(node))
    parts.extend(dec.subtree_vertices(c) for c in sorted(dec.children(node)))
    vmap: dict[int, int] = {v: v for v in bag}
    for i, part in enumerate(parts, start=1):
        for v in part:
            vmap[v] = -i
    # consolidated multigraph as adjacency with edge multiplicity
    adj: dict[int, dict[int, int]] = {}
    for eid in g.sorted_edges():
        u, v = g.endpoints(eid)
        if u not in vmap or v not in vmap:
            continue
        mu, mv = vmap[u], vmap[v]
        if mu == mv:
            continue
        adj.setdefault(mu, {})[mv] = adj.setdefault(mu, {}).get(mv, 0) + 1
        adj.setdefault(mv, {})[mu] = adj.setdefault(mv, {}).get(mu, 0) + 1
    vertices = set(bag) | {b for b in set(vmap.values()) if b < 0}
    for x in vertices:
        adj.setdefault(x, {})

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


@dataclass(frozen=True)
class WidthReport:
    valid: bool
    errors: tuple[str, ...]
    per_node: Mapping[int, tuple[int, int]]  # node -> (torso size, adhesion)
    width: int


def verify_decomposition(inst: EDPInstance, dec: TreecutDecomposition) -> WidthReport:
    """Validate the near-partition and the empty root bag, then report
    per-node (torso size, adhesion) and the overall width."""
    errors = []
    seen: set[int] = set()
    for t in dec.nodes():
        bag = dec.bag(t)
        stray = bag - inst.graph.vertices
        if stray:
            errors.append(f"node {t}: bag contains non-vertices {sorted(stray)}")
        overlap = bag & seen
        if overlap:
            errors.append(f"node {t}: bag reuses vertices {sorted(overlap)}")
        seen |= bag
    missing = inst.graph.vertices - seen
    if missing:
        errors.append(f"vertices {sorted(missing)} appear in no bag")
    if dec.bag(dec.root):
        errors.append(f"root bag must be empty, has {sorted(dec.bag(dec.root))}")
    if errors:
        return WidthReport(False, tuple(errors), {}, -1)
    per_node = {t: (torso_size(inst, dec, t), node_views(inst, dec, t).adhesion) for t in dec.nodes()}
    width = max((max(tor, adh) for tor, adh in per_node.values()), default=0)
    return WidthReport(True, (), per_node, width)


@dataclass(frozen=True)
class NicenessReport:
    nice: bool
    offending: tuple[int, ...]  # thin nodes whose subtree touches a sibling subtree
    bold_like_children: Mapping[int, tuple[int, ...]]  # node -> children needing records
    absorbable_children: Mapping[int, tuple[int, ...]]  # node -> thin children inside the bag


def verify_nice(inst: EDPInstance, dec: TreecutDecomposition) -> NicenessReport:
    """Check that every thin node's subtree neighborhood avoids all sibling
    subtrees, and classify each node's children for the dynamic program."""
    views = {t: node_views(inst, dec, t) for t in dec.nodes()}
    offending = []
    for t in dec.nodes():
        if not views[t].thin:
            continue
        sibling_union = frozenset().union(*(views[s].subtree for s in dec.siblings(t)))
        if views[t].outside & sibling_union:
            offending.append(t)
    absorbable: dict[int, tuple[int, ...]] = {}
    bold_like: dict[int, tuple[int, ...]] = {}
    for t in dec.nodes():
        children = sorted(dec.children(t))
        absorbable[t] = tuple(c for c in children if is_absorbable(views[c], dec.bag(t)))
        bold_like[t] = tuple(c for c in children if c not in absorbable[t])
    nice = not offending
    if nice:
        width = verify_decomposition(inst, dec).width
        for t in dec.nodes():
            if len(bold_like[t]) > 2 * width + 1:
                raise RuntimeError(f"node {t} keeps too many record children")
    return NicenessReport(nice, tuple(sorted(offending)), bold_like, absorbable)


# -- text format -----------------------------------------------------------
#
#   d tcw <num_nodes>
#   n <node_id> <parent_id> [<vertex> ...]     (parent_id 0 marks the root)


def parse_decomposition(text: str | bytes) -> TreecutDecomposition:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    declared = None
    parent: dict[int, int | None] = {}
    bags: dict[int, frozenset[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "d":
            if declared is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 3 or fields[1] != "tcw":
                raise ParseError(f"malformed header {line!r}", lineno)
            (declared,) = parse_ints(fields[2:], f"header {line!r}", lineno)
        elif fields[0] == "n":
            if declared is None:
                raise ParseError("node before header", lineno)
            if len(fields) < 3:
                raise ParseError(f"malformed node line {line!r}", lineno)
            node, par, *verts = parse_ints(fields[1:], f"node line {line!r}", lineno)
            if node in parent:
                raise ParseError(f"duplicate node {node}", lineno)
            if len(set(verts)) != len(verts):
                raise ParseError(f"node {node} lists a vertex twice", lineno)
            parent[node] = None if par == 0 else par
            bags[node] = frozenset(verts)
        else:
            raise ParseError(f"unknown line {line!r}", lineno)
    if declared is None:
        raise ParseError("missing header")
    if len(parent) != declared:
        raise ParseError(f"declared {declared} nodes, found {len(parent)}")
    try:
        dec = TreecutDecomposition(parent, bags)
    except DecompositionError as exc:
        raise ParseError(str(exc)) from exc
    return dec.ensure_empty_root()


def serialize_decomposition(dec: TreecutDecomposition) -> str:
    lines = [f"d tcw {len(dec.nodes())}"]
    for t in dec.nodes():
        par = dec.parent(t)
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
    bags: dict[int, set[int]] = {1: set()}
    for v, nv in node_of.items():
        pv = parent_v[v]
        parent[nv] = 1 if pv is None else node_of[pv]
        bags[nv] = {v}
    dec = TreecutDecomposition(parent, {t: frozenset(b) for t, b in bags.items()})
    while True:
        report = verify_nice(inst, dec)
        if report.nice:
            return dec
        t = report.offending[0]  # merge the offender's bag into its parent
        p = dec.parent(t)
        new_parent = {x: dec.parent(x) for x in dec.nodes() if x != t}
        new_bags = {x: dec.bag(x) for x in dec.nodes() if x != t}
        new_bags[p] = dec.bag(p) | dec.bag(t)
        for c in dec.children(t):
            new_parent[c] = p
        dec = TreecutDecomposition(new_parent, new_bags)
