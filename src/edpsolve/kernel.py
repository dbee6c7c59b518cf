"""Kernelization for EDP parameterized by the feedback edge set size.

The input is terminal-normalized and reduced as one instance, so every new
edge and pair id comes from one id space.  A pair whose ends lie in
different connected components answers NO, and a component holding no edge
of the minimum feedback edge set is a forest, answered by the forest solver.
The other components are shrunk together by four reduction rules until none
fires: bare leaves are dropped, degree-two vertices without a bypass edge
are suppressed (the feedback edge set is maintained through the
suppression), pendant subtrees hanging by a single edge are resolved with
the forest solver, and matched leaf twins sharing a neighbor are removed.
Each rule runs to its own fixpoint in one call on one working copy, or
stops after its first firing when asked to fire once.

The leaf rule is `graphs.prune_leaves`, the worklist the oracle prunes
with too.  The degree-two rule draws candidates from a worklist of the same
kind: a min-heap seeded with every vertex, to which a firing returns only
the vertices it may have made qualify.  A rejected vertex stays rejected
until then, so it fires in the same order, with the same new edge ids, as
an ascending rescan after every firing would.  The pendant rule walks the
pieces of G minus the feedback-edge endpoints (`MultiGraph.components`)
once, in order of their smallest vertex: a firing leaves the other pieces
and their verdicts as they were.  The matched-leaf rule rescans the pairs
by id after each firing.

No rule disconnects a component, and the maintained feedback edge set stays
a minimum one, so at the fixpoint each input component is read back as its
vertices that are left: none (YES), no feedback edge (a forest, answered by
the forest solver), or an open part of the kernel.  Reading back by input
vertex set stays sound even if either invariant failed.  A component is
rejected when some vertex carries more pendant terminals than it has edges
toward non-leaves; that local capacity argument is the sound core of the
leaf-counting rejection, which in its blanket form misfires on cycles
carrying pendant terminal pairs (see ComponentReport.forest_leaves for the
counted value).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from heapq import heappop, heappush

from .graphs import EDPInstance, MultiGraph, feedback_edge_set, induced_instance, prune_leaves, terminal_normalize
from .oracle import tree_edp_feasible


@dataclass(frozen=True)
class KernelState:
    """The instance mid-reduction: the graph and pairs, the maintained
    feedback edge set, and an answer once a rule settles the instance."""

    inst: EDPInstance
    fes_edges: frozenset[int]
    answer: str | None = None  # "YES" | "NO" | None while open


def _exhaust(state: KernelState, step: Callable[[EDPInstance, set[int], bool], bool | str], once: bool) -> KernelState:
    """Run `step` once on a working copy of the instance and its feedback
    edge set.  The step fires in place until nothing matches, or stops after
    its first firing when `once`, and returns whether it fired, or "NO" when
    it settled the instance.  The input state itself comes back when
    nothing fired."""
    inst = state.inst.copy()
    fes = set(state.fes_edges)
    outcome = step(inst, fes, once)
    if outcome == "NO":
        return replace(state, inst=inst, fes_edges=frozenset(fes), answer="NO")
    if not outcome:
        return state
    return replace(state, inst=inst, fes_edges=frozenset(fes))


def prune_leaf_vertices(state: KernelState, once: bool = False) -> KernelState:
    """Drop non-terminal vertices with at most one distinct neighbor,
    exhaustively; no path can use them."""
    return _exhaust(state, _prune_leaf_step, once)


def _prune_leaf_step(inst: EDPInstance, fes: set[int], once: bool) -> bool:
    """`prune_leaves` on the graph, keeping the terminals; the edges of the
    vertices that went leave the feedback edge set."""
    g = inst.graph
    if not prune_leaves(g, inst.terminals(), once):
        return False
    fes.difference_update([e for e in fes if not g.has_edge(e)])
    return True


def suppress_degree_two(state: KernelState, once: bool = False) -> KernelState:
    """Replace a non-terminal degree-2 vertex with two distinct neighbors by
    a direct edge, provided no bypass edge exists; a suppressed feedback edge
    hands its membership to the replacement edge."""
    return _exhaust(state, _suppress_degree_two_step, once)


def _suppress_degree_two_step(inst: EDPInstance, fes: set[int], once: bool) -> bool:
    """A worklist as in `prune_leaves`; a firing changes the tests of the
    new edge's endpoints.  It also gives every common neighbour of those
    endpoints a bypass, but that only turns a passing test into a failing
    one."""
    g = inst.graph
    terminals = inst.terminals()
    heap = g.sorted_vertices()
    fired = False
    while heap:
        v = heappop(heap)
        if v in terminals or not g.has_vertex(v) or g.degree(v) != 2:
            continue
        e1, e2 = g.incident(v)
        a, b = g.other_end(e1, v), g.other_end(e2, v)
        if a == b or g.edges_between(a, b):
            continue
        was_fes = e1 in fes or e2 in fes
        fes.discard(e1)
        fes.discard(e2)
        g.remove_vertex(v)
        new_edge = g.add_edge(a, b)
        if was_fes:
            fes.add(new_edge)
        if once:
            return True
        fired = True
        heappush(heap, a)
        heappush(heap, b)
    return fired


def prune_pendant_subtrees(state: KernelState, once: bool = False) -> KernelState:
    """Resolve components of G minus the feedback-edge endpoints that hang by
    a single edge.

    Such a piece is a tree: if its own pairs route, drop it; if exactly one
    terminal needs the outside and the tree routes with that terminal walked
    to the exit, reattach the terminal directly; otherwise the whole instance
    is a NO-instance.
    """
    return _exhaust(state, _prune_pendant_step, once)


def _prune_pendant_step(inst: EDPInstance, fes: set[int], once: bool) -> bool | str:
    """Test the pieces in order.  A firing removes one piece, and may
    reattach its terminal as a bare leaf that it would skip; every other
    piece, its edges and its pairs stay as they were, so one pass over the
    pieces found at the start fires as a rescan after every firing would."""
    g = inst.graph
    anchors = set()
    for eid in fes:
        anchors.update(g.endpoints(eid))
    fired = False
    for comp, boundary in g.components(anchors):
        if len(boundary) != 1:
            continue
        ends = g.endpoints(boundary[0])
        local = next(iter(set(ends) & comp))
        outside = next(iter(set(ends) - comp))
        inner_pairs = {}
        unmatched = []
        for pid in inst.sorted_pairs():
            members = inst.pair(pid)
            got = members & comp
            if len(got) == 2:
                inner_pairs[pid] = members
            elif len(got) == 1:
                unmatched.append((pid, next(iter(got))))
        sub = g.induced(comp)
        if len(unmatched) > 1:
            return "NO"
        if not unmatched:
            if not tree_edp_feasible(sub, inner_pairs):
                return "NO"
        else:
            pid, s = unmatched[0]
            trial = dict(inner_pairs)
            if s != local:
                trial[inst.max_pair + 1] = frozenset((s, local))
            if not tree_edp_feasible(sub, trial):
                return "NO"
            if comp == {s}:
                continue  # already a bare reattached terminal; nothing to shrink
        for dead in inner_pairs:
            inst.remove_pair(dead)
        for v in sorted(comp):
            g.remove_vertex(v)
        if unmatched:
            partner = next(iter(inst.pair(pid) - {s}))
            inst.remove_pair(pid)
            g.add_vertex(s)
            g.add_edge(outside, s)
            inst.add_pair(s, partner, pid)
        if once:
            return True
        fired = True
    return fired


def remove_matched_leaf_pairs(state: KernelState, once: bool = False) -> KernelState:
    """Delete a terminal pair of two leaves hanging off the same vertex when
    neither leaf is a terminal of another pair; the two pendant edges route
    it and help nothing else."""
    return _exhaust(state, _remove_matched_leaf_step, once)


def _remove_matched_leaf_step(inst: EDPInstance, fes: set[int], once: bool) -> bool:
    """Remove the smallest matched pair, then look again from the smallest
    pair id: a removal can leave a terminal with one edge and make an
    earlier pair match."""
    g = inst.graph
    fired = False
    while (pid := _matched_leaf_pair(inst)) is not None:
        a, b = inst.pair(pid)
        fes.difference_update(g.incident(a) + g.incident(b))
        inst.remove_pair(pid)
        g.remove_vertex(a)
        g.remove_vertex(b)
        if once:
            return True
        fired = True
    return fired


def _matched_leaf_pair(inst: EDPInstance) -> int | None:
    g = inst.graph
    for pid in inst.sorted_pairs():
        a, b = inst.pair(pid)
        if g.degree(a) != 1 or g.degree(b) != 1:
            continue
        if g.neighbors(a) != g.neighbors(b):
            continue
        if inst.pairs_at(a) != (pid,) or inst.pairs_at(b) != (pid,):
            continue
        return pid
    return None


_RULES = (prune_leaf_vertices, suppress_degree_two, prune_pendant_subtrees, remove_matched_leaf_pairs)


def overloaded_vertex(inst: EDPInstance) -> int | None:
    """A vertex with more pendant terminal leaves than edges to non-leaves,
    if any; every such leaf's path must leave through a distinct non-leaf
    edge, so the instance is a NO-instance.  Assumes matched leaf twins were
    already removed."""
    g = inst.graph
    for y in g.sorted_vertices():
        if inst.pairs_at(y):
            continue  # a terminal's own path may end at y
        pendant = 0
        exits = 0
        for eid in g.incident(y):
            w = g.other_end(eid, y)
            if g.degree(w) == 1 and inst.pairs_at(w):
                pendant += 1
            elif g.degree(w) > 1:
                exits += 1
        if pendant > exits:
            return y
    return None


@dataclass(frozen=True)
class ComponentReport:
    vertices: int
    fes_size: int
    forest_leaves: int
    resolved: str | None  # "YES"/"NO" when the component got answered

    @property
    def size_bound(self) -> int:
        return max(11 * self.fes_size - 2, 0)

    @property
    def leaf_bound(self) -> int:
        return 4 * self.fes_size


@dataclass(frozen=True)
class KernelResult:
    instance: EDPInstance  # union of unresolved components
    fes_edges: frozenset[int]
    answer: str | None  # "YES"/"NO" when the whole input got settled, else None
    components: tuple[ComponentReport, ...]

    @property
    def size_bound(self) -> int:
        return max(11 * len(self.fes_edges) - 2, 0)


def kernelize(inst: EDPInstance) -> KernelResult:
    """Terminal-normalize, then reduce the whole instance to its kernel, as
    the module docstring describes; one `connected_components` pass serves
    the pair check, the forest test and the read-back.  Reports list the
    forest components, then the others, each in input order, up to the
    first NO; the rules see the others together, so a NO from them is one
    report on all of them."""
    normalized = terminal_normalize(inst)
    g = normalized.graph
    comps = g.connected_components()
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    if any(len({comp_of[v] for v in members}) > 1 for members in normalized.pairs.values()):
        return _settled("NO", [])
    fes = feedback_edge_set(g)  # minimum, so a component is a forest exactly when it holds none of it
    cyclic = {comp_of[g.endpoints(e)[0]] for e in fes}
    reports: list[ComponentReport] = []
    for i, comp in enumerate(comps):
        if i in cyclic:
            continue
        answer = _forest_answer(normalized, comp)
        reports.append(ComponentReport(len(comp), 0, 0, answer))
        if answer == "NO":
            return _settled("NO", reports)
        for v in comp:
            for pid in normalized.pairs_at(v):
                normalized.remove_pair(pid)
            g.remove_vertex(v)
    if not cyclic:
        return _settled("YES", reports)

    state = _fixpoint(KernelState(normalized, fes))
    left = state.inst
    if state.answer == "NO":
        reports.append(_report(left.graph, left.graph.vertices, state.fes_edges, "NO"))
        return _settled("NO", reports)
    vertices_left = left.graph.vertices
    bad = overloaded_vertex(left)
    kept: set[int] = set()
    for i in sorted(cyclic):
        piece = comps[i] & vertices_left
        piece_fes = state.fes_edges.intersection(e for v in piece for e in left.graph.incident(v))
        if not piece:
            resolved = "YES"
        elif not piece_fes:
            resolved = _forest_answer(left, piece)
        elif bad in piece:
            resolved = "NO"
        else:
            resolved = None
            kept |= piece
        reports.append(_report(left.graph, piece, piece_fes, resolved))
        if resolved == "NO":
            return _settled("NO", reports)
    if not kept:
        return _settled("YES", reports)
    kernel = induced_instance(left, kept)
    fes_kept = frozenset(e for e in state.fes_edges if kernel.graph.has_edge(e))
    return KernelResult(kernel, fes_kept, None, tuple(reports))


def _fixpoint(state: KernelState) -> KernelState:
    while True:
        before = state
        for rule in _RULES:
            state = rule(state)
            if state.answer is not None:
                return state
        if state is before:  # a rule returns its input when it does not fire
            return state


def _settled(answer: str, reports: list[ComponentReport]) -> KernelResult:
    return KernelResult(EDPInstance(), frozenset(), answer, tuple(reports))


def _forest_answer(inst: EDPInstance, part: frozenset[int]) -> str:
    """The forest solver's answer on `part`, a forest holding its pairs."""
    pairs = {pid: inst.pair(pid) for v in part for pid in inst.pairs_at(v)}
    return "YES" if tree_edp_feasible(inst.graph.induced(part), pairs) else "NO"


def _report(g: MultiGraph, part: frozenset[int], fes: frozenset[int], resolved: str | None) -> ComponentReport:
    """The report on the vertices `part` of `g`, whose feedback edges are
    `fes`; a leaf of the forest part G - X has one edge outside X."""
    leaves = sum(1 for v in part if g.degree(v) - len(fes.intersection(g.incident(v))) == 1)
    return ComponentReport(len(part), len(fes), leaves, resolved)
