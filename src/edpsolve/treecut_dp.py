"""Dynamic programming over treecut decompositions.

The DP state for a node is a record: a classification of the node's cut
edges into internal / leaving / foreign / unused, a perfect matching on the
internal edges, one on the foreign edges, and a bijection between the
subtree's unmatched terminals and the leaving edges.  A record is valid when
the subtree, extended with stub terminals describing the record, is solvable
on its own.  Leaves are decided by brute force; interior nodes branch over
their children's valid records, replace each child subtree by a small
degree-<=2 representative, and feed the residue to the hub/satellite solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .decomposition import (
    DecompositionError,
    TreecutDecomposition,
    is_absorbable,
    node_views,
    verify_decomposition,
    verify_nice,
)
from .graphs import EDPInstance, StructureError, induced_instance
from .oracle import brute_force_edp
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

    def edges_of(self, cls: str) -> tuple[int, ...]:
        return tuple(e for e, c in self.classes if c == cls)

    def used_edges(self) -> tuple[int, ...]:
        return tuple(e for e, c in self.classes if c != UNUSED)

    def is_empty(self) -> bool:
        return not self.classes


EMPTY_RECORD = Record((), (), (), ())


@dataclass(frozen=True)
class RecordTable:
    node: int
    records: tuple[Record, ...]

    def __contains__(self, rec: Record) -> bool:
        return rec in self.records

    def __len__(self) -> int:
        return len(self.records)


def record_count_bound(width: int) -> int:
    return 4**width * math.factorial(width)


def unmatched_terminals(inst: EDPInstance, dec: TreecutDecomposition, node: int) -> tuple[tuple[int, int], ...]:
    """One (pair id, terminal) entry per pair straddling the node's subtree."""
    straddle = _straddling(inst, dec.subtree_vertices(node))
    return tuple((pid, inside) for pid, (inside, _) in straddle.items())


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


def _records_for(cut: tuple[int, ...], u_pids: tuple[int, ...]) -> list[Record]:
    out: list[Record] = []
    for assignment in itertools.product((INTERNAL, LEAVING, FOREIGN, UNUSED), repeat=len(cut)):
        internal = tuple(e for e, c in zip(cut, assignment) if c == INTERNAL)
        foreign = tuple(e for e, c in zip(cut, assignment) if c == FOREIGN)
        leaving = tuple(e for e, c in zip(cut, assignment) if c == LEAVING)
        if len(internal) % 2 or len(foreign) % 2 or len(leaving) != len(u_pids):
            continue
        classes = tuple(zip(cut, assignment))
        for imatch in _perfect_matchings(internal):
            for fmatch in _perfect_matchings(foreign):
                for perm in itertools.permutations(leaving):
                    out.append(Record(classes, imatch, fmatch, tuple(zip(u_pids, perm))))
    return out


def enumerate_records(inst: EDPInstance, dec: TreecutDecomposition, node: int) -> list[Record]:
    """All structurally well-formed records for the node, in a fixed order."""
    views = node_views(inst, dec, node)
    u_pids = tuple(pid for pid, _ in unmatched_terminals(inst, dec, node))
    return _records_for(views.cut, u_pids)


def build_record_instance(inst: EDPInstance, dec: TreecutDecomposition, node: int, rec: Record) -> EDPInstance:
    """The subtree instance extended with the record's stub structure; the
    record is valid exactly when this instance is solvable.

    Cut edges keep their ids: each used cut edge reappears attached to a
    fresh stub vertex in place of its outside endpoint.  An internal pair
    whose two inside endpoints coincide is dropped entirely (no simple path
    can leave and re-enter through the same vertex).
    """
    sub = dec.subtree_vertices(node)
    out, stub = _restrict(inst, sub)
    straddle = _straddling(inst, sub)
    next_pid = max(list(inst.pairs) + [0]) + 1

    def inside_end(eid: int) -> int:
        u, v = inst.graph.endpoints(eid)
        return u if u in sub else v

    for e1, e2 in sorted(rec.internal_pairs):
        a, c = inside_end(e1), inside_end(e2)
        if a != c:
            stub((e1, a), (e2, c))
    for pid, eid in sorted(rec.leaving):
        if pid not in straddle:
            raise StructureError(f"pair {pid} is not a straddling pair of node {node}")
        out.add_pair(straddle[pid][0], stub((eid, inside_end(eid))), pid)
    for e1, e2 in sorted(rec.foreign_pairs):
        b = stub((e1, inside_end(e1)))
        d = stub((e2, inside_end(e2)))
        out.add_pair(b, d, next_pid)
        next_pid += 1
    return out


def leaf_valid_records(inst: EDPInstance, dec: TreecutDecomposition, leaf: int) -> RecordTable:
    """Decide every candidate record of a leaf by brute force on its small
    stub-extended instance."""
    if dec.children(leaf):
        raise StructureError(f"node {leaf} is not a leaf")
    valid = tuple(
        rec
        for rec in enumerate_records(inst, dec, leaf)
        if brute_force_edp(build_record_instance(inst, dec, leaf, rec), caps=None).feasible
    )
    return RecordTable(leaf, valid)


# -- simplification ----------------------------------------------------------


def _straddling(cur: EDPInstance, sub: frozenset[int]) -> dict[int, tuple[int, int]]:
    """Pair id -> (inside member, outside member), for each pair with exactly
    one member in `sub`, in pair-id order."""
    out: dict[int, tuple[int, int]] = {}
    for pid in cur.sorted_pairs():
        inside = cur.pair(pid) & sub
        if len(inside) == 1:
            out[pid] = (next(iter(inside)), next(iter(cur.pair(pid) - sub)))
    return out


def _restrict(cur: EDPInstance, keep: Iterable[int]) -> tuple[EDPInstance, Callable[..., int]]:
    """The instance induced on `keep`: every other vertex, its edges and every
    pair touching it are gone; ids are preserved.

    Also returns `stub(*attach)`, which adds a fresh vertex joined to the
    kept vertex `y` by edge `eid` for each `(eid, y)` in `attach`.  Stub ids
    count up from one past `cur`'s largest vertex.
    """
    out = induced_instance(cur, keep)
    next_vertex = max(cur.graph.vertices | {0}) + 1

    def stub(*attach: tuple[int, int]) -> int:
        nonlocal next_vertex
        s = next_vertex
        next_vertex += 1
        out.graph.add_vertex(s)
        for eid, y in attach:
            out.graph.add_edge(s, y, eid)
        return s

    return out, stub


def _simplify_in(cur: EDPInstance, sub: frozenset[int], cut_ids: Iterable[int], rec: Record) -> EDPInstance | None:
    """Replace the subtree by the record's degree-<=2 fringe inside `cur`.

    Returns None when the record references a cut edge a sibling's
    simplification already consumed differently; such a branch cannot carry
    a solution and is skipped.
    """
    g = cur.graph
    cut_set = set(cut_ids)
    used = rec.used_edges()
    if not set(used) <= cut_set:
        raise StructureError("record references edges outside the node's cut")
    outside_end: dict[int, int] = {}
    for e in used:
        if not g.has_edge(e):
            return None
        u, v = g.endpoints(e)
        if (u in sub) == (v in sub):
            return None
        outside_end[e] = v if u in sub else u
    straddle = _straddling(cur, sub)
    if set(straddle) != {pid for pid, _ in rec.leaving}:
        return None

    out, stub = _restrict(cur, g.vertices - sub)
    next_pid = max(list(cur.pairs) + [0]) + 1
    for pid, eid in sorted(rec.leaving):
        s = stub((eid, outside_end[eid]))
        out.add_pair(s, straddle[pid][1], pid)
    for e1, e2 in sorted(rec.internal_pairs):
        s1 = stub((e1, outside_end[e1]))
        s2 = stub((e2, outside_end[e2]))
        out.add_pair(s1, s2, next_pid)
        next_pid += 1
    for e1, e2 in sorted(rec.foreign_pairs):
        stub((e1, outside_end[e1]), (e2, outside_end[e2]))
    return out


def simplify(inst: EDPInstance, dec: TreecutDecomposition, node: int, rec: Record) -> EDPInstance:
    """Public form of simplification on the original instance."""
    views = node_views(inst, dec, node)
    out = _simplify_in(inst, views.subtree, views.cut, rec)
    if out is None:
        raise StructureError("record does not fit the node's cut")
    return out


# -- reduction rules used by the dynamic step --------------------------------


def reduce_degree_two_edges(inst: EDPInstance, once: bool = False) -> tuple[EDPInstance, bool]:
    """Eliminate edges joining two degree-<=2 vertices; returns the reduced
    instance and whether it was recognized as a NO-instance.

    Cases, in order: an edge with a non-terminal endpoint is contracted into
    the other endpoint; an edge whose endpoints form a pair routes that pair
    directly (pair and edge are removed); an edge between two one-pair
    terminals is deleted; anything else rejects.
    """
    out = inst.copy()
    rejected = False
    while True:
        g = out.graph
        target = None
        for eid in g.sorted_edges():
            u, v = g.endpoints(eid)
            if g.degree(u) <= 2 and g.degree(v) <= 2:
                target = eid
                break
        if target is None:
            break
        u, v = g.endpoints(target)
        pairs_u, pairs_v = out.pairs_at(u), out.pairs_at(v)
        direct = [pid for pid in out.sorted_pairs() if out.pair(pid) == frozenset((u, v))]
        if not pairs_u or not pairs_v:
            drop, keep = (u, v) if not pairs_u else (v, u)
            for e in list(g.incident(drop)):
                w = g.other_end(e, drop)
                g.remove_edge(e)
                if w != keep:
                    g.add_edge(keep, w, e)
            g.remove_vertex(drop)
        elif direct:
            out.remove_pair(direct[0])
            g.remove_edge(target)
        elif len(pairs_u) == 1 and len(pairs_v) == 1:
            g.remove_edge(target)
        else:
            rejected = True
            break
        if once:
            break
    return out, rejected


def _replace_thin_in(
    cur: EDPInstance,
    sub: frozenset[int],
    cut_ids: tuple[int, ...],
    table: RecordTable,
) -> EDPInstance | None:
    """Swap a thin subtree for at most two degree-<=2 stub vertices chosen by
    its record table; None means no record fits, i.e. a NO verdict."""
    g = cur.graph
    for e in cut_ids:
        if not g.has_edge(e):
            raise StructureError(f"cut edge {e} vanished before thin replacement")
    straddle = _straddling(cur, sub)
    u_pids = tuple(straddle)
    keep = g.vertices - sub
    recs = set(table.records)

    def delta(*classes: str) -> tuple[tuple[int, str], ...]:
        return tuple(zip(cut_ids, classes))

    outside = {e: (set(g.endpoints(e)) - sub).pop() for e in cut_ids}

    if len(cut_ids) == 0:
        if not u_pids and EMPTY_RECORD in recs:
            return _restrict(cur, keep)[0]
        return None

    if len(cut_ids) == 1:
        (e,) = cut_ids
        if len(u_pids) == 1:
            pid = u_pids[0]
            if Record(delta(LEAVING), (), (), ((pid, e),)) in recs:
                out, stub = _restrict(cur, keep)
                out.add_pair(stub((e, outside[e])), straddle[pid][1], pid)
                return out
            return None
        if not u_pids:
            if Record(delta(UNUSED), (), (), ()) in recs:
                return _restrict(cur, keep)[0]
            return None
        return None

    if len(cut_ids) == 2:
        e1, e2 = cut_ids
        if not u_pids:
            if Record(delta(FOREIGN, FOREIGN), (), ((e1, e2),), ()) in recs:
                out, stub = _restrict(cur, keep)
                stub((e1, outside[e1]), (e2, outside[e2]))
                return out
            if Record(delta(UNUSED, UNUSED), (), (), ()) in recs:
                return _restrict(cur, keep)[0]
            if Record(delta(INTERNAL, INTERNAL), ((e1, e2),), (), ()) in recs:
                out, stub = _restrict(cur, keep)
                next_pid = max(list(cur.pairs) + [0]) + 1
                out.add_pair(stub((e1, outside[e1])), stub((e2, outside[e2])), next_pid)
                return out
            return None
        if len(u_pids) == 1:
            pid = u_pids[0]
            r1 = Record(delta(LEAVING, UNUSED), (), (), ((pid, e1),))
            r2 = Record(delta(UNUSED, LEAVING), (), (), ((pid, e2),))
            attach = []
            if r1 in recs:
                attach.append((e1, outside[e1]))
            if r2 in recs:
                attach.append((e2, outside[e2]))
            if not attach:
                return None
            out, stub = _restrict(cur, keep)
            out.add_pair(stub(*attach), straddle[pid][1], pid)
            return out
        if len(u_pids) == 2:
            p1, p2 = u_pids
            ra = Record(delta(LEAVING, LEAVING), (), (), ((p1, e1), (p2, e2)))
            rb = Record(delta(LEAVING, LEAVING), (), (), ((p1, e2), (p2, e1)))
            if ra in recs and rb in recs:
                out, stub = _restrict(cur, keep)
                s = stub((e1, outside[e1]), (e2, outside[e2]))
                out.add_pair(s, straddle[p1][1], p1)
                out.add_pair(s, straddle[p2][1], p2)
                return out
            if ra in recs or rb in recs:
                # ra sends p1 through e1, rb sends it through e2
                f1, f2 = (e1, e2) if ra in recs else (e2, e1)
                out, stub = _restrict(cur, keep)
                out.add_pair(stub((f1, outside[f1])), straddle[p1][1], p1)
                out.add_pair(stub((f2, outside[f2])), straddle[p2][1], p2)
                return out
            return None
        return None
    return None


def replace_thin_subtree(
    inst: EDPInstance, dec: TreecutDecomposition, node: int, table: RecordTable
) -> EDPInstance | None:
    """Public form of the thin-node replacement; None signals a NO-instance."""
    views = node_views(inst, dec, node)
    if views.adhesion > 2:
        raise StructureError(f"node {node} is not thin (adhesion {views.adhesion})")
    return _replace_thin_in(inst, views.subtree, views.cut, table)


# -- the dynamic step and full solve -----------------------------------------


def dynamic_step(
    inst: EDPInstance,
    dec: TreecutDecomposition,
    node: int,
    tables: Mapping[int, RecordTable],
) -> RecordTable:
    """Compute the node's valid records from its children's tables.

    For each candidate record, branch over one record per child needing full
    record-sets, simplify those subtrees, replace the absorbable thin
    children, clean up degree-two chains, and ask the hub/satellite solver
    whether the residue routes.
    """
    children = dec.children(node)
    if not children:
        raise StructureError(f"node {node} is a leaf; use leaf_valid_records")
    child_views = {c: node_views(inst, dec, c) for c in children}
    bag = dec.bag(node)
    absorbable = [c for c in sorted(children) if is_absorbable(child_views[c], bag)]
    record_children = [c for c in sorted(children) if c not in absorbable]

    candidates = enumerate_records(inst, dec, node)
    if any(not tables[c].records for c in record_children):
        return RecordTable(node, ())
    valid = []
    for rec in candidates:
        base = build_record_instance(inst, dec, node, rec)
        found = False
        for combo in itertools.product(*(tables[c].records for c in record_children)):
            cur: EDPInstance | None = base
            for c, crec in zip(record_children, combo):
                cur = _simplify_in(cur, child_views[c].subtree, child_views[c].cut, crec)
                if cur is None:
                    break
            if cur is None:
                continue
            for b in absorbable:
                cur = _replace_thin_in(cur, child_views[b].subtree, child_views[b].cut, tables[b])
                if cur is None:
                    break
            if cur is None:
                continue
            cur, rejected = reduce_degree_two_edges(cur)
            if rejected:
                continue
            hub = bag & cur.graph.vertices
            si = preprocess_simple(cur, hub)
            if solve_simple_edp(si).feasible:
                found = True
                break
        if found:
            valid.append(rec)
    return RecordTable(node, tuple(valid))


@dataclass(frozen=True)
class TreecutResult:
    feasible: bool
    tables: Mapping[int, RecordTable]
    width: int

    def __bool__(self) -> bool:
        return self.feasible


def solve_treecut(inst: EDPInstance, dec: TreecutDecomposition) -> TreecutResult:
    """Leaf-to-root record computation; YES iff the root keeps the empty
    record.  The decomposition must be valid and nice (this artifact checks
    decompositions, it does not repair them)."""
    dec = dec.ensure_empty_root()
    wrep = verify_decomposition(inst, dec)
    if not wrep.valid:
        raise DecompositionError("invalid decomposition: " + "; ".join(wrep.errors))
    nrep = verify_nice(inst, dec)
    if not nrep.nice:
        raise DecompositionError(
            f"decomposition is not nice (offending thin nodes {list(nrep.offending)}); "
            "run verify_nice for details"
        )
    bound = record_count_bound(wrep.width)
    tables: dict[int, RecordTable] = {}
    for t in dec.postorder():
        if dec.children(t):
            tables[t] = dynamic_step(inst, dec, t, tables)
        else:
            tables[t] = leaf_valid_records(inst, dec, t)
        if len(tables[t]) > bound:
            raise RuntimeError(f"node {t} exceeds the record-count bound")
    root_table = tables[dec.root]
    if any(rec != EMPTY_RECORD for rec in root_table.records):
        raise RuntimeError("the root keeps a non-empty record")
    return TreecutResult(bool(root_table.records), tables, wrep.width)
