"""Instance construction: the subset-sum hardness gadget, the reduction from
edge-disjoint to vertex-disjoint paths, and seeded random instance families
for the test suites.  Everything is deterministic in its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .decomposition import TreecutDecomposition, chain_decomposition, star_decomposition
from .graphs import EDPInstance, MultiGraph, StructureError
from .simple import SimpleInstance, preprocess_simple


@dataclass(frozen=True)
class MssLayout:
    """Bookkeeping for a generated subset-sum instance: the hub split and the
    per-item gadget vertices (entry vertex first)."""

    instance: EDPInstance
    hub: tuple[int, ...]
    gadget_vertices: tuple[tuple[int, ...], ...]


def gen_mss_instance(
    k: int,
    items: Sequence[Sequence[int]],
    target: Sequence[int],
    min_count: int,
    expand_multiedges: bool = False,
) -> SimpleInstance:
    return gen_mss_layout(k, items, target, min_count, expand_multiedges).simple()


def gen_mss_layout(
    k: int,
    items: Sequence[Sequence[int]],
    target: Sequence[int],
    min_count: int,
    expand_multiedges: bool = False,
) -> "_MssBuild":
    """Build the gadget instance encoding the subset-sum question.

    Hub: a, b, d, d_1..d_k with |S|-min_count parallel a-b edges and
    target[i] parallel d-d_i edges.  Every item vector gets a chain gadget
    whose pairs can be routed in exactly two ways: one uses a single a-b edge
    (item skipped), the other uses item[i] edges between d and d_i for every
    i (item picked).  Items summing to zero get a two-vertex gadget with the
    same skip/pick dichotomy, where picking is free.
    """
    if any(len(s) != k for s in items) or len(target) != k:
        raise ValueError("vector dimension mismatch")
    if any(x < 0 or x % 2 for s in items for x in s) or any(x < 0 or x % 2 for x in target):
        raise ValueError("entries must be even and non-negative")
    if min_count > len(items):
        raise ValueError("min_count exceeds the number of items")

    a, b, d = 1, 2, 3
    d_i = tuple(range(4, 4 + k))
    hub = (a, b, d) + d_i
    g = MultiGraph(hub)
    inst = EDPInstance(g)
    for _ in range(len(items) - min_count):
        g.add_edge(a, b)
    for i in range(k):
        for _ in range(target[i]):
            g.add_edge(d, d_i[i])

    gadgets = []
    for s in items:
        total = sum(s)
        if total == 0:
            entry = g.fresh_vertex()
            mate = g.fresh_vertex()
            g.add_edge(entry, a)
            g.add_edge(entry, d)
            g.add_edge(mate, b)
            g.add_edge(mate, d)
            inst.add_pair(entry, mate)
            gadgets.append((entry, mate))
            continue
        entry = g.fresh_vertex()
        g.add_edge(entry, a)
        g.add_edge(entry, d)
        block_of = []  # 1-based chain position -> which coordinate it charges
        for j in range(k):
            block_of.extend([j] * s[j])
        vs, us = [], []
        for i in range(1, total + 1):
            v = g.fresh_vertex()
            u = g.fresh_vertex()
            vs.append(v)
            us.append(u)
            for x in (v, u):
                g.add_edge(x, b)
                if i % 2 == 0:
                    g.add_edge(x, d)
                else:
                    g.add_edge(x, d_i[block_of[i - 1]])
        inst.add_pair(entry, vs[0])
        for i in range(total):
            inst.add_pair(vs[i], us[i])
        for i in range(total - 1):
            inst.add_pair(us[i], vs[i + 1])
        gadgets.append((entry, *vs, *us))

    if expand_multiedges:
        inst = expand_parallel_edges(inst)
    return _MssBuild(MssLayout(inst, hub, tuple(gadgets)))


@dataclass(frozen=True)
class _MssBuild:
    layout: MssLayout

    def simple(self) -> SimpleInstance:
        return preprocess_simple(self.layout.instance, self.layout.hub)


def expand_parallel_edges(inst: EDPInstance) -> EDPInstance:
    """Subdivide every parallel copy beyond the first, yielding a simple
    graph with the same answer (each copy becomes a degree-2 pass-through)."""
    out = inst.copy()
    seen: set[tuple[int, int]] = set()
    for eid in inst.graph.sorted_edges():
        ends = inst.graph.endpoints(eid)
        if ends not in seen:
            seen.add(ends)
            continue
        u, v = ends
        out.graph.remove_edge(eid)
        w = out.graph.fresh_vertex()
        out.graph.add_edge(u, w)
        out.graph.add_edge(w, v)
    return out


@dataclass(frozen=True)
class VdpReduction:
    """Output of the edge- to vertex-disjoint reduction.

    `answer_override` is "NO" when some vertex occurs in more pairs than its
    degree, which already settles the input instance.
    """

    instance: EDPInstance
    answer_override: str | None
    vertex_copies: dict[int, tuple[int, ...]]
    edge_vertex: dict[int, int]


def edp_to_vdp(inst: EDPInstance) -> VdpReduction:
    """Subdivide every edge and replicate every vertex up to the maximum
    degree; a pair maps to fresh copies of its members.  The output is a
    YES-instance under vertex-disjoint semantics iff the input is one under
    edge-disjoint semantics."""
    g = inst.graph
    vertices = g.sorted_vertices()
    d = max(map(g.degree, vertices), default=0)
    if any(len(inst.pairs_at(v)) > d for v in vertices):
        return VdpReduction(EDPInstance(), "NO", {}, {})
    width = max(d, 1)
    # vertex ids 1.. in order: each vertex's copies by ascending vertex,
    # then one vertex per edge by ascending edge id; edge ids 1.. likewise
    copies = {v: tuple(range(i * width + 1, (i + 1) * width + 1)) for i, v in enumerate(vertices)}
    base = len(vertices) * width
    edge_vertex = {eid: base + i for i, eid in enumerate(g.sorted_edges(), start=1)}
    edges: dict[int, tuple[int, int]] = {}
    for eid, x in edge_vertex.items():
        u, v = g.endpoints(eid)
        for c in copies[u] + copies[v]:
            edges[len(edges) + 1] = (c, x)
    cursor = dict.fromkeys(vertices, 0)
    pairs = {}
    for pid in inst.sorted_pairs():
        x, y = sorted(inst.pair(pid))
        pairs[pid] = frozenset((copies[x][cursor[x]], copies[y][cursor[y]]))
        cursor[x] += 1
        cursor[y] += 1
    reduced = EDPInstance(MultiGraph(range(1, base + len(edge_vertex) + 1), edges), pairs)
    return VdpReduction(reduced, None, copies, edge_vertex)


# -- random families ---------------------------------------------------------


def gen_random_instance(
    seed: int,
    n: int,
    extra_edges: int = 0,
    num_pairs: int = 0,
    profile: str = "tree-plus",
    cut_budget: int = 3,
) -> tuple[EDPInstance, TreecutDecomposition | None]:
    """Seeded random instances.

    Profiles: "tree-plus" (spanning tree plus `extra_edges` chords, so the
    feedback edge set has exactly that size), "simple" (hub of size <= 4 plus
    degree-<=2 satellites, returned with its star decomposition), and
    "bounded-tcw" (chain of singleton bags with every cut carrying at most
    `cut_budget` edges, returned with its nice chain decomposition of width
    at most `cut_budget`).
    """
    if n < 0 or extra_edges < 0 or num_pairs < 0:
        raise StructureError("parameters must be non-negative")
    rng = random.Random(seed)
    if profile == "tree-plus":
        if n == 0 and (extra_edges or num_pairs):
            raise StructureError("cannot place edges or pairs on an empty graph")
        if n == 1 and extra_edges:
            raise StructureError("cannot place chords on a single vertex")
        g = MultiGraph(range(1, n + 1))
        for v in range(2, n + 1):
            g.add_edge(rng.randrange(1, v), v)
        for _ in range(extra_edges):
            u, v = rng.sample(range(1, n + 1), 2)
            g.add_edge(u, v)
        inst = EDPInstance(g)
        _add_random_pairs(rng, inst, num_pairs)
        return inst, None
    if profile == "simple":
        hub_size = max(2, min(4, n - 1 if n > 2 else 2, rng.randint(2, 4)))
        if n < hub_size:
            raise StructureError(f"need at least {hub_size} vertices")
        hub = list(range(1, hub_size + 1))
        sats = list(range(hub_size + 1, n + 1))
        g = MultiGraph(range(1, n + 1))
        for i in range(len(hub)):
            for j in range(i + 1, len(hub)):
                if rng.random() < 0.6:
                    for _ in range(rng.randint(1, 3)):
                        g.add_edge(hub[i], hub[j])
        for v in sats:
            for _ in range(rng.randint(1, 2)):
                g.add_edge(v, rng.choice(hub))
        inst = EDPInstance(g)
        _add_random_pairs(rng, inst, num_pairs)
        return inst, star_decomposition(inst, hub)
    if profile == "bounded-tcw":
        if n == 0 and num_pairs:
            raise StructureError("cannot place pairs on an empty graph")
        order = list(range(1, n + 1))
        rng.shuffle(order)
        g = MultiGraph(range(1, n + 1))
        pos = {v: i for i, v in enumerate(order)}
        if cut_budget < 1:
            raise StructureError("the spine needs a cut budget of at least 1")
        budget = [cut_budget] * max(n - 1, 0)  # per consecutive cut
        for i in range(1, n):  # spine keeps the graph connected
            g.add_edge(order[i - 1], order[i])
            budget[i - 1] -= 1
        for _ in range(extra_edges):
            for _attempt in range(20):
                u, v = rng.sample(range(1, n + 1), 2) if n >= 2 else (None, None)
                if u is None:
                    break
                lo, hi = sorted((pos[u], pos[v]))
                if all(budget[c] > 0 for c in range(lo, hi)):
                    g.add_edge(u, v)
                    for c in range(lo, hi):
                        budget[c] -= 1
                    break
        inst = EDPInstance(g)
        _add_random_pairs(rng, inst, num_pairs)
        return inst, chain_decomposition(inst, order)
    raise StructureError(f"unknown profile {profile!r}")


def _add_random_pairs(rng: random.Random, inst: EDPInstance, num_pairs: int) -> None:
    verts = inst.graph.sorted_vertices()
    limit = len(verts) * (len(verts) - 1) // 2
    seen: set[frozenset[int]] = set()
    while len(seen) < min(num_pairs, limit):
        a, b = rng.sample(verts, 2)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            inst.add_pair(a, b)
