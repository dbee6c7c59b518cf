"""Dynamic programming over treecut decompositions.

The DP state for a node is a record: a classification of the node's cut
edges into internal / leaving / foreign / unused, a perfect matching on the
internal edges, one on the foreign edges, and a bijection between the
subtree's unmatched terminals and the leaving edges.  A record is valid when
the subtree, extended with stub terminals describing the record, is solvable
on its own.  Every node is decided by the same step: branch over the
children's valid records (none at a leaf), replace each child subtree by a
small degree-<=2 representative, and feed the residue to the hub/satellite
solver.  Per-node data (subtree, cut, straddling pairs, which children are
absorbable) is read from the `node_views` map, computed once per solve.

A thin child (at most two cut edges) whose outside lies in the bag is not
branched over: its record table picks one gadget.  A straddling pair takes
a cut edge of its own, and two edges leave no room for a matching next to
it, so with straddling pairs every record only routes them out, and one
stub on every cut edge carries them all when several records do.  Else the
single record asking least of the outside is laid like a record child's:
foreign (a pass-through the outside may use or not), then unused, then
internal (the outside must route one extra pair).  A valid foreign record
implies a valid unused one, so each choice offers the outside every route
the next one does.

Residues are plain id maps (`Residue`): a vertex set, edge id -> endpoints
and pair id -> members.  The step starts from the node's local residue
(`_local_instance`), built once per node: the bag, every edge at the bag,
the children's cut edges, and the pairs at the bag or straddling a child
(the node's own cut edges and straddling pairs are among them), with each
subtree cut down to those vertices.  This is exact: the rest of a child's
subtree is never read before that child's simplification deletes it, so
every residue equals the whole-subtree one up to the ids of its stubs, and
those keep their relative order.  A node then costs time in its bag and
its cuts, not in the size of its subtree.

Residues have a handful of vertices, so they repeat within a solve.  Each
solve keeps one memo of residue verdicts, keyed by the residue relabeled by
rank (`_residue_key`), and only a residue missing from it becomes an
`EDPInstance` and goes through the degree-two rule and the hub solver.
Equal keys mean that a bijection keeping the order of vertex, edge and pair
ids carries one residue onto the other and the hub onto the hub; those steps
read ids only through their order, so they take the same steps on both.  The
memo lives for one solve only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple

from .decomposition import (
    DecompositionError,
    NodeViews,
    TreecutDecomposition,
    niceness_report,
    node_views,
    partition_errors,
    width_report,
)
from .graphs import EDPInstance, MultiGraph, StructureError
from .simple import preprocess_simple, solve_simple_edp

INTERNAL = "internal"
LEAVING = "leaving"
FOREIGN = "foreign"
UNUSED = "unused"


@dataclass(frozen=True)
class Record:
    """One interaction pattern between a solution and a node's cut edges."""

    classes: tuple[tuple[int, str], ...]  # (edge id, class), sorted by edge id
    internal_pairs: tuple[tuple[int, int], ...]
    foreign_pairs: tuple[tuple[int, int], ...]
    leaving: tuple[tuple[int, int], ...]  # (pair id, edge id), sorted by pair id

    def used_edges(self) -> tuple[int, ...]:
        return tuple(e for e, c in self.classes if c != UNUSED)


EMPTY_RECORD = Record((), (), (), ())


@dataclass(frozen=True)
class RecordTable:
    node: int
    records: tuple[Record, ...]
    residues: int = 0  # residues the node tested

    def __len__(self) -> int:
        return len(self.records)


def record_count_bound(width: int) -> int:
    return 4**width * math.factorial(width)


def _perfect_matchings(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        partner = items[i]
        rest = items[1:i] + items[i + 1 :]
        for rest_match in _perfect_matchings(rest):
            yield ((first, partner),) + rest_match


@functools.cache
def _record_templates(adhesion: int, straddlers: int) -> tuple[tuple, ...]:
    """The records of a node with `adhesion` cut edges and `straddlers`
    straddling pairs in `enumerate_records` order, each as (classes,
    internal matching, foreign matching, leaving edge per pair) with cut
    edges given by their position in the cut."""
    out = []
    for assignment in itertools.product((INTERNAL, LEAVING, FOREIGN, UNUSED), repeat=adhesion):
        internal = tuple(i for i, c in enumerate(assignment) if c == INTERNAL)
        foreign = tuple(i for i, c in enumerate(assignment) if c == FOREIGN)
        leaving = tuple(i for i, c in enumerate(assignment) if c == LEAVING)
        if len(internal) % 2 or len(foreign) % 2 or len(leaving) != straddlers:
            continue
        for imatch in _perfect_matchings(internal):
            for fmatch in _perfect_matchings(foreign):
                for perm in itertools.permutations(leaving):
                    out.append((assignment, imatch, fmatch, perm))
    return tuple(out)


def enumerate_records(view: NodeViews) -> list[Record]:
    """All structurally well-formed records for the node, in a fixed order:
    one leaving edge per straddling pair.  The order is that of the class
    assignments in `itertools.product` order, then the internal matchings,
    the foreign matchings and the leaving-edge permutations."""
    cut, u_pids = view.cut, tuple(view.straddling)
    return [
        Record(
            tuple(zip(cut, classes)),
            tuple((cut[a], cut[b]) for a, b in imatch),
            tuple((cut[a], cut[b]) for a, b in fmatch),
            tuple(zip(u_pids, (cut[i] for i in perm))),
        )
        for classes, imatch, fmatch, perm in _record_templates(len(cut), len(u_pids))
    ]


class Residue(NamedTuple):
    """An instance as plain data, the form the dynamic step builds: a vertex
    set, edge id -> endpoints and pair id -> members, each stored sorted.
    Only a residue missing from the memo becomes an `EDPInstance`."""

    vertices: AbstractSet[int]
    edges: dict[int, tuple[int, int]]
    pairs: dict[int, tuple[int, int]]

    @classmethod
    def of(cls, inst: EDPInstance) -> "Residue":
        return cls(set(inst.graph.vertices), inst.graph.edges, {p: _sorted(ab) for p, ab in inst.pairs.items()})

    def to_instance(self) -> EDPInstance:
        pairs = {p: frozenset(ab) for p, ab in self.pairs.items()}
        return EDPInstance(MultiGraph(self.vertices, self.edges), pairs)


def _sorted(ends: Iterable[int]) -> tuple[int, int]:
    a, b = ends
    return (a, b) if a < b else (b, a)


def _outside(ends: tuple[int, int], sub: AbstractSet[int]) -> int:
    """The member of an edge's or a pair's two ends that is not in `sub`."""
    a, b = ends
    return b if a in sub else a


def _induced(cur: Residue, keep: AbstractSet[int]) -> tuple[Residue, Callable[..., int], Callable[..., None]]:
    """The residue induced on `keep`: every other vertex, its edges and every
    pair touching it are gone; ids are preserved.

    Also returns `stub(*attach)`, which adds a fresh vertex joined to the
    kept vertex `y` by edge `eid` for each `(eid, y)` in `attach`, and
    `pair(a, b, pid=None)`.  Stub ids count up from one past `cur`'s largest
    vertex, fresh pair ids from one past its largest pair id.  Both raise the
    `StructureError`s of `MultiGraph.add_edge` and `EDPInstance.add_pair`.
    """
    vertices = set(keep)
    edges = {e: uv for e, uv in cur.edges.items() if uv[0] in keep and uv[1] in keep}
    pairs = {p: ab for p, ab in cur.pairs.items() if ab[0] in keep and ab[1] in keep}
    fresh_vertex = itertools.count(max(cur.vertices, default=0) + 1)
    fresh_pair = itertools.count(max(cur.pairs, default=0) + 1)

    def stub(*attach: tuple[int, int]) -> int:
        s = next(fresh_vertex)
        vertices.add(s)
        for eid, y in attach:
            if y not in vertices:
                raise StructureError(f"edge {{{s},{y}}} references unknown vertex")
            if eid in edges:
                raise StructureError(f"duplicate edge id {eid}")
            edges[eid] = (y, s)  # s is larger than every vertex before it
        return s

    def pair(a: int, b: int, pid: int | None = None) -> None:
        if a == b:
            raise StructureError(f"self-pair {{{a},{a}}}")
        if a not in vertices or b not in vertices:
            raise StructureError(f"pair {{{a},{b}}} references unknown vertex")
        if pid is None:
            pid = next(fresh_pair)
        elif pid in pairs:
            raise StructureError(f"duplicate pair id {pid}")
        pairs[pid] = _sorted((a, b))

    return Residue(vertices, edges, pairs), stub, pair


def build_record_instance(inst: EDPInstance | Residue, view: NodeViews, rec: Record) -> EDPInstance | Residue:
    """The subtree instance extended with the record's stub structure; the
    record is valid exactly when this instance is solvable.  The dynamic
    step passes and gets residues; an `EDPInstance` in gives one out.

    Cut edges keep their ids: each used cut edge reappears attached to a
    fresh stub vertex in place of its outside endpoint.  An internal pair
    whose two inside endpoints coincide is dropped entirely (no simple path
    can leave and re-enter through the same vertex).
    """
    if isinstance(inst, EDPInstance):
        return build_record_instance(Residue.of(inst), view, rec).to_instance()
    sub = view.subtree
    out, stub, pair = _induced(inst, sub & inst.vertices)

    def inside_end(eid: int) -> int:
        u, v = inst.edges[eid]
        return u if u in sub else v

    for e1, e2 in sorted(rec.internal_pairs):
        a, c = inside_end(e1), inside_end(e2)
        if a != c:
            stub((e1, a), (e2, c))
    for pid, eid in sorted(rec.leaving):
        if pid not in view.straddling:
            raise StructureError(f"pair {pid} is not a straddling pair of node {view.node}")
        pair(view.straddling[pid][0], stub((eid, inside_end(eid))), pid)
    for e1, e2 in sorted(rec.foreign_pairs):
        pair(stub((e1, inside_end(e1))), stub((e2, inside_end(e2))))
    return out


def leaf_valid_records(
    inst: EDPInstance, dec: TreecutDecomposition, views: Mapping[int, NodeViews], leaf: int
) -> RecordTable:
    """The valid records of a leaf, decided by `dynamic_step` like every
    other node.  At a leaf each non-bag vertex of a record instance is a stub
    of degree <= 2 touching only bag vertices, so the bag is a valid hub."""
    if dec.children(leaf):
        raise StructureError(f"node {leaf} is not a leaf")
    return dynamic_step(inst, dec, views, leaf, {})


# -- simplification ----------------------------------------------------------


def _simplify_in(cur: Residue, view: NodeViews, rec: Record) -> Residue | None:
    """Replace the view's subtree by the record's degree-<=2 fringe inside
    `cur`, reading each straddling pair's outside member (maybe a stub) there.

    Returns None when the record references a cut edge a sibling's
    simplification already consumed differently; such a branch cannot carry
    a solution and is skipped.
    """
    sub = view.subtree
    used = rec.used_edges()
    if not set(used) <= set(view.cut):
        raise StructureError("record references edges outside the node's cut")
    outside_end: dict[int, int] = {}
    for e in used:
        ends = cur.edges.get(e)
        if ends is None or (ends[0] in sub) == (ends[1] in sub):
            return None
        outside_end[e] = _outside(ends, sub)
    if set(view.straddling) != {pid for pid, _ in rec.leaving}:
        return None

    out, stub, pair = _induced(cur, cur.vertices - sub)
    for pid, eid in sorted(rec.leaving):
        pair(stub((eid, outside_end[eid])), _outside(cur.pairs[pid], sub), pid)
    for e1, e2 in sorted(rec.internal_pairs):
        pair(stub((e1, outside_end[e1])), stub((e2, outside_end[e2])))
    for e1, e2 in sorted(rec.foreign_pairs):
        stub((e1, outside_end[e1]), (e2, outside_end[e2]))
    return out


def simplify(inst: EDPInstance, view: NodeViews, rec: Record) -> EDPInstance:
    """Public form of simplification on the original instance."""
    out = _simplify_in(Residue.of(inst), view, rec)
    if out is None:
        raise StructureError("record does not fit the node's cut")
    return out.to_instance()


# -- reduction rules used by the dynamic step --------------------------------


def reduce_degree_two_edges(inst: EDPInstance | Residue, once: bool = False) -> tuple[EDPInstance, bool]:
    """Eliminate edges joining two degree-<=2 vertices; returns the reduced
    instance and whether it was recognized as a NO-instance.  The rule works
    on a copy of an `EDPInstance`; a residue (a memo miss of the dynamic
    step) is built into a fresh instance once and reduced in place, so the
    argument is never mutated.

    Cases, in order: an edge with a non-terminal endpoint is contracted into
    the other endpoint; an edge whose endpoints form a pair routes that pair
    directly (pair and edge are removed); an edge between two one-pair
    terminals is deleted; anything else rejects.
    """
    out = inst.to_instance() if isinstance(inst, Residue) else inst.copy()
    g = out.graph
    # Degrees never grow, so an edge turns thin (both ends of degree <= 2)
    # only when a degree at its ends drops.  The heap holds every edge not
    # yet popped and found thick, and a firing pushes back the edges at the
    # vertices whose degree dropped, so each firing takes the smallest thin
    # edge, as an ascending rescan would.
    heap = g.sorted_edges()
    rejected = False
    while heap:
        target = heappop(heap)
        if not g.has_edge(target):
            continue
        u, v = g.endpoints(target)
        if g.degree(u) > 2 or g.degree(v) > 2:
            continue
        pairs_u, pairs_v = out.pairs_at(u), out.pairs_at(v)
        direct = [pid for pid in pairs_u if out.pair(pid) == frozenset((u, v))]
        if not pairs_u or not pairs_v:
            drop, keep = (u, v) if not pairs_u else (v, u)
            for e in g.incident(drop):
                w = g.other_end(e, drop)
                g.remove_edge(e)
                if w != keep:
                    g.add_edge(keep, w, e)
            g.remove_vertex(drop)
            touched: tuple[int, ...] = (keep,)
        elif direct:
            out.remove_pair(direct[0])
            g.remove_edge(target)
            touched = (u, v)
        elif len(pairs_u) == 1 and len(pairs_v) == 1:
            g.remove_edge(target)
            touched = (u, v)
        else:
            rejected = True
            break
        if once:
            break
        for x in touched:
            for e in g.incident(x):
                heappush(heap, e)
    return out, rejected


def _replace_thin_in(cur: Residue, view: NodeViews, table: RecordTable) -> Residue | None:
    """Swap the view's thin subtree for the degree-<=2 stubs its record
    table asks for; None means no record fits, i.e. a NO verdict.

    With straddling pairs every record only routes them out (see the module
    docstring).  When several records do, one stub on every cut edge
    carries all the straddling pairs and leaves the exit to the outside.
    Otherwise one record is laid by `_simplify_in`, in the order foreign,
    unused, internal: each offers the outside every route the next one
    does.
    """
    sub = view.subtree
    for e in view.cut:
        if e not in cur.edges:
            raise StructureError(f"cut edge {e} vanished before thin replacement")
    if not table.records:
        return None
    if view.straddling and len(table.records) > 1:
        out, stub, pair = _induced(cur, cur.vertices - sub)
        s = stub(*((e, _outside(cur.edges[e], sub)) for e in view.cut))
        for pid in view.straddling:
            pair(s, _outside(cur.pairs[pid], sub), pid)
        return out
    rec = min(table.records, key=lambda r: (bool(r.internal_pairs), not r.foreign_pairs))
    return _simplify_in(cur, view, rec)


def replace_thin_subtree(inst: EDPInstance, view: NodeViews, table: RecordTable) -> EDPInstance | None:
    """Public form of the thin-node replacement; None signals a NO-instance."""
    if view.adhesion > 2:
        raise StructureError(f"node {view.node} is not thin (adhesion {view.adhesion})")
    out = _replace_thin_in(Residue.of(inst), view, table)
    return None if out is None else out.to_instance()


# -- the dynamic step and full solve -----------------------------------------


def _local_instance(
    inst: EDPInstance, dec: TreecutDecomposition, views: Mapping[int, NodeViews], node: int
) -> tuple[Residue, dict[int, NodeViews]]:
    """What the node's record tests read of `inst`, as a residue: the bag,
    every edge at the bag, the children's cut edges, and every pair at the
    bag or straddling a child; ids are preserved.  The node's own cut edges
    and straddling pairs are among these (see `node_views`).  Returns it
    with the views of the node and its children, their subtrees cut down to
    its vertices."""
    g = inst.graph
    bag = dec.bag(node)
    kids = [views[c] for c in dec.children(node)]
    edges = {e for v in bag for e in g.incident(v)}.union(*(k.cut for k in kids))
    pids = {p for v in bag for p in inst.pairs_at(v)}.union(*(k.straddling for k in kids))
    vertices = set(bag).union(*(g.endpoints(e) for e in edges), *(inst.pair(p) for p in pids))
    local = Residue(vertices, {e: g.endpoints(e) for e in edges}, {p: _sorted(inst.pair(p)) for p in pids})
    local_views = {k.node: replace(k, subtree=k.subtree & vertices) for k in (views[node], *kids)}
    return local, local_views


def _residue_key(cur: Residue, bag: frozenset[int]) -> tuple[int, ...]:
    """The residue with every id replaced by its rank, as one flat tuple:
    the vertex, edge and pair counts, each edge's endpoints (edges in id
    order), each pair's members (pairs in id order), then the bag vertices
    present."""
    rank = {v: i for i, v in enumerate(sorted(cur.vertices))}
    edges, pairs = cur.edges, cur.pairs
    key = [len(rank), len(edges), len(pairs)]
    for e in sorted(edges):
        u, v = edges[e]
        key += (rank[u], rank[v])
    for p in sorted(pairs):
        a, b = pairs[p]
        key += (rank[a], rank[b])
    key += [i for v, i in rank.items() if v in bag]
    return tuple(key)


def _routes(cur: Residue, bag: frozenset[int], memo: dict[tuple[int, ...], bool]) -> bool:
    """Whether the residue routes with the bag vertices left after the
    degree-two rule as the hub; a residue whose key is in `memo` is not
    decided again.  Only a miss turns the residue into an `EDPInstance`,
    once, inside the degree-two rule.

    Equal keys mean that a bijection keeping the order of vertex, edge and
    pair ids carries one residue onto the other and the bag onto the bag.
    The degree-two rule, `preprocess_simple` and the hub solver read ids only
    through their order (fresh ids count up from the largest), so they take
    the same steps on both residues and reach the same verdict.
    """
    key = _residue_key(cur, bag)
    verdict = memo.get(key)
    if verdict is None:
        red, rejected = reduce_degree_two_edges(cur)
        verdict = not rejected and solve_simple_edp(preprocess_simple(red, bag & red.graph.vertices)).feasible
        memo[key] = verdict
    return verdict


def dynamic_step(
    inst: EDPInstance,
    dec: TreecutDecomposition,
    views: Mapping[int, NodeViews],
    node: int,
    tables: Mapping[int, RecordTable],
    memo: dict[tuple[int, ...], bool] | None = None,
) -> RecordTable:
    """Compute the node's valid records from its children's tables.

    For each candidate record, branch over one record per child needing full
    record-sets, simplify those subtrees, replace the absorbable thin
    children, clean up degree-two chains, and ask the hub/satellite solver
    whether the residue routes.  A leaf has no children to branch over, and
    a child with no valid record makes the node's table empty before any
    record is enumerated.  Every residue is built as id maps from the node's
    local residue; only a memo miss builds an `EDPInstance` (see `_routes`).

    `memo` maps residue keys to verdicts (see `_routes`); `solve_treecut`
    passes one dict for the whole solve, so a residue met at an earlier node
    is not decided again.  Without it the step uses a fresh dict.
    """
    if memo is None:
        memo = {}
    children = dec.children(node)
    if any(not tables[c].records for c in children):
        return RecordTable(node, ())
    bag = dec.bag(node)
    local, lviews = _local_instance(inst, dec, views, node)
    record_children = [c for c in children if not views[c].absorbable]
    kids = [lviews[c] for c in record_children]
    thin = [(_replace_thin_in, lviews[c], tables[c]) for c in children if views[c].absorbable]
    valid, residues = [], 0
    for rec in enumerate_records(views[node]):
        base = build_record_instance(local, lviews[node], rec)
        for combo in itertools.product(*(tables[c].records for c in record_children)):
            # the record children's simplifications, then the thin
            # replacements, up to the first that leaves no residue
            steps = [(_simplify_in, kid, crec) for kid, crec in zip(kids, combo)] + thin
            cur: Residue | None = base
            for lay, view, arg in steps:
                cur = lay(cur, view, arg)
                if cur is None:
                    break
            else:
                residues += 1
                if _routes(cur, bag, memo):
                    valid.append(rec)
                    break
    return RecordTable(node, tuple(valid), residues)


@dataclass(frozen=True)
class TreecutResult:
    feasible: bool
    tables: Mapping[int, RecordTable]
    width: int
    residues: int = 0  # residues tested over all nodes
    residue_solves: int = 0  # distinct residues, each decided once

    def __bool__(self) -> bool:
        return self.feasible


def solve_treecut(inst: EDPInstance, dec: TreecutDecomposition) -> TreecutResult:
    """Leaf-to-root record computation; YES iff the root keeps the empty
    record.  The decomposition must be valid and nice (this artifact checks
    decompositions, it does not repair them)."""
    dec = dec.ensure_empty_root()
    errors = partition_errors(inst, dec)
    if errors:
        raise DecompositionError("invalid decomposition: " + "; ".join(errors))
    views = node_views(inst, dec)
    wrep = width_report(inst, dec, views)
    nrep = niceness_report(dec, views)
    if not nrep.nice:
        raise DecompositionError(
            f"decomposition is not nice (offending thin nodes {list(nrep.offending)}); "
            "run verify_nice for details"
        )
    for t in dec.nodes():
        if sum(not views[c].absorbable for c in dec.children(t)) > 2 * wrep.width + 1:
            raise RuntimeError(f"node {t} keeps too many record children")
    bound = record_count_bound(wrep.width)
    tables: dict[int, RecordTable] = {}
    memo: dict[tuple[int, ...], bool] = {}
    for t in dec.postorder():
        tables[t] = dynamic_step(inst, dec, views, t, tables, memo)
        if len(tables[t]) > bound:
            raise RuntimeError(f"node {t} exceeds the record-count bound")
    root_table = tables[dec.root]
    if any(rec != EMPTY_RECORD for rec in root_table.records):
        raise RuntimeError("the root keeps a non-empty record")
    residues = sum(table.residues for table in tables.values())
    return TreecutResult(bool(root_table.records), tables, wrep.width, residues, len(memo))
