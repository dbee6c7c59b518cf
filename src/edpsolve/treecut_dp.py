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
absorbable) is read from the `node_views` map that `verify_decomposition`
derives once per solve.

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

Residues are plain id maps (`Residue`).  The step starts from the node's
local residue (`_local_instance`), built once per node: the bag, every edge
at the bag, the children's cut edges, and the pairs at the bag or straddling
a child, with each child's subtree cut down to those vertices.  So every
residue is in frontier form for the subtree it lays: only a child's cut
edges and straddling pairs touch its subtree, and only the node's own reach
its outside.  Stubs keep this, as each reuses a cut edge id and a re-laid
pair keeps its id, so a build drops those by id and scans neither map
(`_lay`).  A fresh vertex is one past the largest vertex of the residue
handed in, a fresh pair one past its `max_pair`, so every residue equals the
whole-subtree one up to the ids of its stubs, in the same order.  A node
costs time in its bag and cuts, not in its subtree.

Residues have a handful of vertices, so they repeat within a solve.  Each
solve keeps one memo of residue verdicts, keyed by the residue relabeled by
rank (`_residue_key`); only a residue missing from it becomes an
`EDPInstance` and goes through the degree-two rule and the hub solver.

Each solve runs under a budget of `RESIDUE_BUDGET` residues tested, memo
hits included, and raises `CapExceeded` naming it when the budget runs
out.  A node whose 4^adhesion class assignments alone exceed the budget is
refused before its records are enumerated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import AbstractSet, Callable, Mapping, NamedTuple

from .decomposition import DecompositionError, NodeViews, TreecutDecomposition, verify_decomposition
from .graphs import EDPInstance, MultiGraph, StructureError
from .oracle import CapExceeded
from .simple import _key, preprocess_simple, solve_simple_edp

RESIDUE_BUDGET = 50_000

INTERNAL = "internal"
LEAVING = "leaving"
FOREIGN = "foreign"
UNUSED = "unused"


@dataclass(frozen=True)
class Record:
    """One interaction pattern between a solution and a node's cut edges.
    Each tuple is sorted (builders lay stubs in that order)."""

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
    """An instance as plain data: a vertex set, edge id -> endpoints and
    pair id -> members, each stored sorted.  Fresh pair ids count up from
    one past `max_pair`; `of` leaves it unset, as a whole instance is not
    in frontier form.  Only a memo miss becomes an `EDPInstance`."""

    vertices: AbstractSet[int]
    edges: dict[int, tuple[int, int]]
    pairs: dict[int, tuple[int, int]]
    max_pair: int | None = None

    @classmethod
    def of(cls, inst: EDPInstance) -> "Residue":
        return cls(inst.graph.vertices, inst.graph.edges, {p: _key(*ab) for p, ab in inst.pairs.items()})

    def to_instance(self) -> EDPInstance:
        pairs = {p: frozenset(ab) for p, ab in self.pairs.items()}
        return EDPInstance(MultiGraph(self.vertices, self.edges), pairs)


def _outside(ends: tuple[int, int], sub: AbstractSet[int]) -> int:
    """The member of an edge's or a pair's two ends that is not in `sub`."""
    a, b = ends
    return b if a in sub else a


def _frontier(inst: EDPInstance, view: NodeViews, inside: bool) -> Residue:
    """`inst` in frontier form for `_lay`, in one scan: the edges and pairs
    with an end in the view's subtree (`inside`) or outside it.  Vertices
    and `max_pair` stay the whole instance's, so fresh ids do too."""
    sub, drop = view.subtree, 0 if inside else 2
    edges = {e: uv for e, uv in inst.graph.edges.items() if len(sub.intersection(uv)) != drop}
    pairs = {p: _key(*ab) for p, ab in inst.pairs.items() if len(sub & ab) != drop}
    return Residue(inst.graph.vertices, edges, pairs, inst.max_pair)


def _lay(cur: Residue, view: NodeViews, inside: bool, new_pairs: int) -> tuple[Residue, Callable, Callable]:
    """`cur` without the view's cut edges and straddling pairs, dropped by
    id, keeping the vertices in the subtree (`inside`) or outside it; in
    frontier form no other edge or pair leaves those, so no map is scanned.

    Also returns `stub(*attach)`, which adds a fresh vertex joined to the
    kept vertex `y` by edge `eid` for each `(eid, y)`, and `pair(a, b,
    pid=None)`; both raise a `StructureError` on a duplicate id.  Stub ids
    count up from one past `cur`'s largest vertex, the `new_pairs` fresh
    pair ids from one past `cur.max_pair`.
    """
    vertices = set(cur.vertices)
    if inside:
        vertices &= view.subtree
    else:
        vertices -= view.subtree
    edges, pairs = cur.edges.copy(), cur.pairs.copy()
    for e in view.cut:
        edges.pop(e, None)
    for p in view.straddling:
        pairs.pop(p, None)
    top, top_pair = max(cur.vertices, default=0), cur.max_pair

    def stub(*attach):
        nonlocal top
        top += 1
        vertices.add(top)
        for eid, y in attach:
            if eid in edges:
                raise StructureError(f"duplicate edge id {eid}")
            edges[eid] = (y, top)  # the stub is the largest vertex
        return top

    def pair(a, b, pid=None):
        nonlocal top_pair
        if pid is None:
            top_pair = pid = top_pair + 1
        elif pid in pairs:
            raise StructureError(f"duplicate pair id {pid}")
        pairs[pid] = _key(a, b)

    return Residue(vertices, edges, pairs, cur.max_pair + new_pairs), stub, pair


def build_record_instance(inst: EDPInstance | Residue, view: NodeViews, rec: Record) -> EDPInstance | Residue:
    """The subtree instance extended with the record's stub structure; the
    record is valid exactly when this instance is solvable.  A residue in
    gives a residue out, an `EDPInstance` an `EDPInstance`.

    Cut edges keep their ids: each used cut edge reappears attached to a
    fresh stub vertex in place of its outside endpoint.  An internal pair
    whose two inside endpoints coincide is dropped entirely (no simple path
    can leave and re-enter through the same vertex).
    """
    if isinstance(inst, EDPInstance):
        _check_fit(view, rec)
        return build_record_instance(_frontier(inst, view, True), view, rec).to_instance()
    sub = view.subtree
    out, stub, pair = _lay(inst, view, True, len(rec.foreign_pairs))

    def inside_end(eid):
        u, v = inst.edges[eid]
        return u if u in sub else v

    for e1, e2 in rec.internal_pairs:
        a, c = inside_end(e1), inside_end(e2)
        if a != c:
            stub((e1, a), (e2, c))
    for pid, eid in rec.leaving:
        pair(view.straddling[pid][0], stub((eid, inside_end(eid))), pid)
    for e1, e2 in rec.foreign_pairs:
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


def _check_fit(view: NodeViews, *records: Record) -> None:
    """Raise unless each record uses cut edges only and leaves exactly the
    straddling pairs, as `_simplify_in` assumes."""
    cut = set(view.cut)
    for rec in records:
        if not cut.issuperset(rec.used_edges()):
            raise StructureError("record references edges outside the node's cut")
        if {pid for pid, _ in rec.leaving} != view.straddling.keys():
            raise StructureError(f"record does not leave the straddling pairs of node {view.node}")


def _simplify_in(cur: Residue, view: NodeViews, rec: Record) -> Residue | None:
    """Replace the view's subtree by the fitting record's degree-<=2 fringe
    inside `cur`, reading each straddling pair's outside member (maybe a
    stub) there.  None means a sibling's simplification already consumed a
    cut edge the record uses differently: no solution, the branch is
    skipped."""
    sub, ends_of = view.subtree, cur.edges
    outside_end = {}
    for e, c in rec.classes:
        if c != UNUSED:
            ends = ends_of.get(e)
            if ends is None or (ends[0] in sub) == (ends[1] in sub):
                return None
            outside_end[e] = _outside(ends, sub)
    out, stub, pair = _lay(cur, view, False, len(rec.internal_pairs))
    for pid, eid in rec.leaving:
        pair(stub((eid, outside_end[eid])), _outside(cur.pairs[pid], sub), pid)
    for e1, e2 in rec.internal_pairs:
        pair(stub((e1, outside_end[e1])), stub((e2, outside_end[e2])))
    for e1, e2 in rec.foreign_pairs:
        stub((e1, outside_end[e1]), (e2, outside_end[e2]))
    return out


def simplify(inst: EDPInstance, view: NodeViews, rec: Record) -> EDPInstance:
    """Public form of simplification on the original instance (a record
    fitting the view fits its cut there)."""
    _check_fit(view, rec)
    return _simplify_in(_frontier(inst, view, False), view, rec).to_instance()


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
    """Swap the view's thin subtree for the gadget its record table picks
    (see the module docstring): the merged exit stub, or one record laid by
    `_simplify_in`.  None means no record fits, i.e. a NO verdict."""
    sub = view.subtree
    for e in view.cut:
        if e not in cur.edges:
            raise StructureError(f"cut edge {e} vanished before thin replacement")
    if not table.records:
        return None
    if view.straddling and len(table.records) > 1:
        out, stub, pair = _lay(cur, view, False, 0)
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
    _check_fit(view, *table.records)
    out = _replace_thin_in(_frontier(inst, view, False), view, table)
    return None if out is None else out.to_instance()


# -- the dynamic step and full solve -----------------------------------------


def _local_instance(
    inst: EDPInstance, dec: TreecutDecomposition, views: Mapping[int, NodeViews], node: int
) -> tuple[Residue, dict[int, NodeViews]]:
    """The node's local residue (see the module docstring), ids preserved;
    the node's own cut edges and straddling pairs are in it (see
    `node_views`).  Also the children's views with their subtrees cut down
    to its vertices, so that no stub id falls in one."""
    g = inst.graph
    bag = dec.bag(node)
    kids = [views[c] for c in dec.children(node)]
    edges = {e for v in bag for e in g.incident(v)}.union(*(k.cut for k in kids))
    pids = {p for v in bag for p in inst.pairs_at(v)}.union(*(k.straddling for k in kids))
    vertices = set(bag).union(*(g.endpoints(e) for e in edges), *(inst.pair(p) for p in pids))
    pairs = {p: _key(*inst.pair(p)) for p in pids}
    local = Residue(vertices, {e: g.endpoints(e) for e in edges}, pairs, max(pids, default=0))
    return local, {k.node: replace(k, subtree=k.subtree & vertices) for k in kids}


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
    degree-two rule as the hub; only a key missing from `memo` is decided,
    and only then is the residue built into an `EDPInstance`.

    Equal keys mean that a bijection keeping the order of vertex, edge and
    pair ids carries one residue onto the other and the bag onto the bag.
    The degree-two rule, `preprocess_simple` and the hub solver read ids
    only through their order, so they reach the same verdict on both.
    """
    key = _residue_key(cur, bag)
    verdict = memo.get(key)
    if verdict is None:
        red, rejected = reduce_degree_two_edges(cur)
        verdict = not rejected and solve_simple_edp(preprocess_simple(red, filter(red.graph.has_vertex, bag))).feasible
        memo[key] = verdict
    return verdict


def dynamic_step(
    inst: EDPInstance,
    dec: TreecutDecomposition,
    views: Mapping[int, NodeViews],
    node: int,
    tables: Mapping[int, RecordTable],
    memo: dict[tuple[int, ...], bool] | None = None,
    spent: int = 0,
) -> RecordTable:
    """Compute the node's valid records from its children's tables.

    For each candidate record, branch over one record per child needing full
    record-sets, simplify those subtrees, replace the absorbable thin
    children, clean up degree-two chains, and ask the hub/satellite solver
    whether the residue routes.  A leaf has no children to branch over, and
    a child with no valid record makes the node's table empty before any
    record is enumerated.

    `memo` maps residue keys to verdicts (see `_routes`); `solve_treecut`
    passes one dict for the whole solve, else the step uses a fresh one.
    `spent` is the residues the solve tested before this node.  The step
    raises `CapExceeded` when they and its own exceed `RESIDUE_BUDGET`, and
    before any record is enumerated when the node's 4^adhesion class
    assignments alone do (a child without records still gives the empty
    table first).
    """
    if memo is None:
        memo = {}
    children = dec.children(node)
    if any(not tables[c].records for c in children):
        return RecordTable(node, ())
    if 4 ** len(views[node].cut) > RESIDUE_BUDGET:
        raise _exhausted()
    for c in children:
        _check_fit(views[c], *tables[c].records)
    bag = dec.bag(node)
    local, lviews = _local_instance(inst, dec, views, node)
    kids = [lviews[c] for c in children if not views[c].absorbable]
    thin = [(lviews[c], tables[c]) for c in children if views[c].absorbable]
    valid, residues = [], 0
    for rec in enumerate_records(views[node]):
        base = build_record_instance(local, views[node], rec)
        for combo in itertools.product(*(tables[k.node].records for k in kids)):
            # the record children's simplifications, then the thin
            # replacements, up to the first None
            cur = base
            for kid, crec in zip(kids, combo):
                cur = _simplify_in(cur, kid, crec)
                if cur is None:
                    break
            else:
                for view, table in thin:
                    cur = _replace_thin_in(cur, view, table)
                    if cur is None:
                        break
                else:
                    residues += 1
                    if spent + residues > RESIDUE_BUDGET:
                        raise _exhausted()
                    if _routes(cur, bag, memo):
                        valid.append(rec)
                        break
    return RecordTable(node, tuple(valid), residues)


def _exhausted() -> CapExceeded:
    return CapExceeded(f"treecut budget of {RESIDUE_BUDGET} residues exhausted")


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
    report = verify_decomposition(inst, dec)
    if not report.valid:
        raise DecompositionError("invalid decomposition: " + "; ".join(report.errors))
    if report.offending:
        raise DecompositionError(
            f"decomposition is not nice (offending thin nodes {list(report.offending)}); "
            "run verify_nice for details"
        )
    views, width = report.views, report.width
    for t in dec.nodes():
        if sum(not views[c].absorbable for c in dec.children(t)) > 2 * width + 1:
            raise RuntimeError(f"node {t} keeps too many record children")
    bound = record_count_bound(width)
    tables: dict[int, RecordTable] = {}
    memo: dict[tuple[int, ...], bool] = {}
    spent = 0
    for t in dec.postorder():
        tables[t] = dynamic_step(inst, dec, views, t, tables, memo, spent)
        spent += tables[t].residues
        if len(tables[t]) > bound:
            raise RuntimeError(f"node {t} exceeds the record-count bound")
    root_table = tables[dec.root]
    if any(rec != EMPTY_RECORD for rec in root_table.records):
        raise RuntimeError("the root keeps a non-empty record")
    return TreecutResult(bool(root_table.records), tables, width, spent, len(memo))
