import random
from dataclasses import fields

import pytest

from edpsolve import oracle
from edpsolve.generators import edp_to_vdp, gen_random_instance
from edpsolve.graphs import EDPInstance, MultiGraph, StructureError, parse_instance
from edpsolve.oracle import (
    CapExceeded,
    OracleCaps,
    brute_force_edp,
    brute_force_mss,
    brute_force_vdp,
    check_witness,
    tree_edp_feasible,
    tree_edp_routes,
)

from .support import naive_search, random_small_instance


def path3():
    return parse_instance("p edp 3 2 2\ne 1 2\ne 2 3\nt 1 3\nt 1 2\n")


def test_edp_triangle_two_pairs_yes():
    inst = parse_instance("p edp 3 3 2\ne 1 2\ne 2 3\ne 1 3\nt 1 2\nt 2 3\n")
    res = brute_force_edp(inst)
    assert res.feasible
    check_witness(inst, res.routes)


def test_edp_path_collision_no():
    assert not brute_force_edp(path3()).feasible


def test_edp_k4_three_pairs_yes():
    g = MultiGraph(range(1, 5))
    for u in range(1, 5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    inst.add_pair(3, 4)
    inst.add_pair(1, 3)
    res = brute_force_edp(inst)
    assert res.feasible
    check_witness(inst, res.routes)


def test_edp_cap():
    # no size cap: the caps only put the search under its step budget, so
    # five pairs over five parallel edges are answered under the default
    g = MultiGraph([1, 2])
    for _ in range(5):
        g.add_edge(1, 2)
    inst = EDPInstance(g)
    for _ in range(5):
        inst.add_pair(1, 2)
    assert not fields(OracleCaps)
    assert brute_force_edp(inst).feasible
    assert brute_force_edp(inst, caps=None).feasible


def test_pruned_search_matches_naive_reference():
    # same answers and the same first witness, route for route; 600 EDP
    # searches and 237 vertex-disjoint searches on the reductions
    vdp_checked = 0
    for seed in range(600):
        inst = random_small_instance(seed, max_n=9, max_extra=4, max_pairs=4)
        want = naive_search(inst, vertex_disjoint=False)
        got = brute_force_edp(inst, caps=None)
        assert (got.feasible, got.routes) == (want.feasible, want.routes), f"seed {seed}"
        red = edp_to_vdp(inst)
        if red.answer_override is None and red.instance.graph.num_vertices() <= 22:
            vdp_checked += 1
            want = naive_search(red.instance, vertex_disjoint=True)
            got = brute_force_vdp(red.instance, caps=None)
            assert (got.feasible, got.routes) == (want.feasible, want.routes), f"vdp seed {seed}"
    assert vdp_checked == 237


def k4(*pairs):
    g = MultiGraph(range(1, 5))
    for u in range(1, 5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)
    inst = EDPInstance(g)
    for a, b in pairs:
        inst.add_pair(a, b)
    return inst


def test_search_budget_is_the_reason(monkeypatch):
    # the vertex-disjoint leg has pairs without a shared end: two pairs
    # sharing one fail the placement test before the first step
    legs = ((brute_force_edp, k4((1, 2), (3, 4), (1, 3), (2, 4))), (brute_force_vdp, k4((1, 3), (2, 4))))
    for search, inst in legs:
        steps = search(inst, caps=None).steps
        assert steps > 1
        monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", steps - 1)
        with pytest.raises(CapExceeded, match=f"budget of {steps - 1} steps"):
            search(inst)
        assert search(inst, caps=None).steps == steps  # uncapped: no budget
        monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", steps)
        assert search(inst).steps == steps


def two_triangles(shared: bool, pairs):
    """Triangles 1-2-3 and 3-4-5 sharing vertex 3 when `shared`, else
    triangles 1-2-3 and 4-5-6 joined by the bridge 3-4."""
    g = MultiGraph(range(1, 6 if shared else 7))
    for u, v in [(1, 2), (2, 3), (1, 3), (3, 4), *([(4, 5), (3, 5)] if shared else [(4, 5), (5, 6), (4, 6)])]:
        g.add_edge(u, v)
    inst = EDPInstance(g)
    for a, b in pairs:
        inst.add_pair(a, b)
    return inst


@pytest.mark.parametrize(
    "inst,vertex_disjoint",
    [
        (two_triangles(False, [(1, 5), (2, 6)]), False),  # two pairs over one bridge
        (two_triangles(True, [(1, 4), (2, 5)]), True),  # two pairs through one cut vertex
        (two_triangles(True, [(1, 2), (2, 4)]), True),  # two pairs sharing an end
    ],
    ids=["edp-bridge", "vdp-cut-vertex", "vdp-shared-end"],
)
def test_cut_test_decides_before_the_first_step(inst, vertex_disjoint):
    search = brute_force_vdp if vertex_disjoint else brute_force_edp
    res = search(inst, caps=None)
    assert (res.feasible, res.steps) == (False, 0)
    assert not naive_search(inst, vertex_disjoint).feasible


@pytest.mark.parametrize("seed", [239, 194])
def test_cut_test_decides_hard_vdp_reductions_at_once(seed):
    # the NO reductions on which the connectivity test alone spent
    # 768,731 and 272,423 steps
    red = edp_to_vdp(random_small_instance(seed, max_n=9, max_extra=4, max_pairs=4))
    res = brute_force_vdp(red.instance, caps=None)
    assert (res.feasible, res.steps) == (False, 0)


def test_cut_test_search_matches_naive_reference_on_tree_plus():
    # tree-plus instances, where bridges and cut vertices abound: the
    # edge-disjoint search on each, and the vertex-disjoint search on its
    # graph with the pairs that share no end with an earlier pair
    decided_at_once = 0
    for seed in range(300):
        inst, _ = gen_random_instance(seed, 8 + seed % 5, 5 + seed % 6, 4 + seed % 3, "tree-plus")
        vinst = EDPInstance(inst.graph)
        for pid in inst.sorted_pairs():
            a, b = sorted(inst.pair(pid))
            if not (vinst.pairs_at(a) or vinst.pairs_at(b)):
                vinst.add_pair(a, b, pid)
        for search, case, vertex_disjoint in ((brute_force_edp, inst, False), (brute_force_vdp, vinst, True)):
            want = naive_search(case, vertex_disjoint)
            got = search(case, caps=None)
            assert (got.feasible, got.routes) == (want.feasible, want.routes), f"seed {seed} vdp {vertex_disjoint}"
            decided_at_once += not got.feasible and got.steps == 0
    assert decided_at_once >= 170


def two_k4s(joins, pairs):
    """K4s on 1-4 and 5-8 joined by the edges `joins`, each 1-4 to 5-8."""
    g = MultiGraph(range(1, 9))
    for block in ((1, 2, 3, 4), (5, 6, 7, 8)):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                g.add_edge(u, v)
    joining = tuple(g.add_edge(u, v) for u, v in joins)
    inst = EDPInstance(g)
    for a, b in pairs:
        inst.add_pair(a, b)
    return inst, joining


def spy_on_cuts(monkeypatch) -> list:
    """Record the result of every `_violated_cut` call the oracle makes."""
    seen = []
    check = oracle._violated_cut

    def spy(adj, ends):
        seen.append(check(adj, ends))
        return seen[-1]

    monkeypatch.setattr(oracle, "_violated_cut", spy)
    return seen


def separated(inst, cut) -> int:
    """How many pairs of `inst` the edges `cut` disconnect, by flood fill."""
    out = 0
    for pid in inst.sorted_pairs():
        a, b = sorted(inst.pair(pid))
        seen = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            for eid in inst.graph.incident(x):
                y = inst.graph.other_end(eid, x)
                if eid not in cut and y not in seen:
                    seen.add(y)
                    stack.append(y)
        out += b not in seen
    return out


CROSSING = [(3, 7), (4, 8), (1, 6)]


def test_root_cut_refutes_two_k4s_joined_by_two_edges():
    # no bridge, so every pair passes the placement test; the 2-edge cut
    # between the K4s carries all three pairs
    inst, joining = two_k4s([(1, 5), (2, 6)], CROSSING)
    res = brute_force_edp(inst, caps=None)
    assert (res.feasible, res.steps, res.cut) == (False, 0, joining)
    assert not naive_search(inst, vertex_disjoint=False).feasible


def test_root_cut_keeps_answer_and_witness_with_a_third_join():
    inst, _ = two_k4s([(1, 5), (2, 6), (3, 7)], CROSSING)
    want = naive_search(inst, vertex_disjoint=False)
    got = brute_force_edp(inst, caps=None)
    assert (got.feasible, got.routes, got.cut) == (want.feasible, want.routes, None)


def test_root_cut_skipped_with_two_pairs_and_vertex_disjoint(monkeypatch):
    calls = spy_on_cuts(monkeypatch)
    two_pairs, _ = two_k4s([(1, 5), (2, 6)], CROSSING[:2])
    assert brute_force_edp(two_pairs, caps=None).feasible
    three_pairs, _ = two_k4s([(1, 5), (2, 6)], CROSSING)
    assert brute_force_vdp(three_pairs, caps=None).steps > 0
    assert calls == []
    brute_force_edp(three_pairs, caps=None)  # the spy does see the check
    assert len(calls) == 1


def test_root_cut_matches_naive_reference_where_it_fires(monkeypatch):
    # answers and first witnesses equal the plain search's, on a corpus
    # where the check refutes often; every refuting cut is violated
    calls = spy_on_cuts(monkeypatch)
    for seed in range(2000):
        inst = random_small_instance(10000 + seed, max_n=10, max_extra=6, max_pairs=6)
        want = naive_search(inst, vertex_disjoint=False)
        got = brute_force_edp(inst, caps=None)
        assert (got.feasible, got.routes) == (want.feasible, want.routes), f"seed {seed}"
        if got.cut is not None:
            assert got.steps == 0 and separated(inst, got.cut) > len(got.cut), f"seed {seed}"
    assert sum(cut is not None for cut in calls) >= 130  # 131 today; 126 without Gusfield's tree


def test_edp_relabeling_invariance():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = MultiGraph(range(1, n + 1))
        for v in range(2, n + 1):
            g.add_edge(rng.randrange(1, v), v)
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(1, n + 1), 2)
            g.add_edge(u, v)
        inst = EDPInstance(g)
        seen = set()
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(range(1, n + 1), 2)
            if frozenset((a, b)) not in seen:
                seen.add(frozenset((a, b)))
                inst.add_pair(a, b)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabel = {v: perm[v - 1] for v in range(1, n + 1)}
        g2 = MultiGraph(range(1, n + 1))
        for eid in g.sorted_edges():
            u, v = g.endpoints(eid)
            g2.add_edge(relabel[u], relabel[v])
        inst2 = EDPInstance(g2)
        for pid in inst.sorted_pairs():
            a, b = inst.pair(pid)
            inst2.add_pair(relabel[a], relabel[b])
        assert brute_force_edp(inst).feasible == brute_force_edp(inst2).feasible


def test_edp_removing_pair_is_monotone():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(3, 6)
        g = MultiGraph(range(1, n + 1))
        for v in range(2, n + 1):
            g.add_edge(rng.randrange(1, v), v)
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(1, n + 1), 2)
            g.add_edge(u, v)
        inst = EDPInstance(g)
        seen = set()
        for _ in range(3):
            a, b = rng.sample(range(1, n + 1), 2)
            if frozenset((a, b)) not in seen:
                seen.add(frozenset((a, b)))
                inst.add_pair(a, b)
        if not inst.pairs:
            continue
        if brute_force_edp(inst).feasible:
            smaller = inst.copy()
            smaller.remove_pair(inst.sorted_pairs()[0])
            assert brute_force_edp(smaller).feasible


def star_k13():
    g = MultiGraph(range(1, 5))  # 1 = center
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    g.add_edge(1, 4)
    return g


def test_vdp_star_center_reuse_no():
    inst = EDPInstance(star_k13())
    inst.add_pair(2, 3)
    inst.add_pair(4, 1)
    assert brute_force_edp(inst).feasible  # edge-disjoint is fine
    assert not brute_force_vdp(inst).feasible  # center reused


def test_vdp_two_disjoint_edges_yes():
    g = MultiGraph(range(1, 5))
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    inst.add_pair(3, 4)
    res = brute_force_vdp(inst)
    assert res.feasible
    check_witness(inst, res.routes, vertex_disjoint=True)


def test_tree_edp_star_yes():
    g = star_k13()
    assert tree_edp_feasible(g, {1: frozenset({2, 3}), 2: frozenset({4, 1})})


def test_tree_edp_path_no():
    g = MultiGraph([1, 2, 3])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    assert not tree_edp_feasible(g, {1: frozenset({1, 3}), 2: frozenset({1, 2})})


def test_tree_edp_cross_component_no():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    assert not tree_edp_feasible(g, {1: frozenset({1, 3})})


def test_tree_edp_rejects_cycles():
    g = MultiGraph([1, 2])
    g.add_edge(1, 2)
    g.add_edge(1, 2)
    with pytest.raises(StructureError):
        tree_edp_feasible(g, {})


def test_tree_edp_agrees_with_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = MultiGraph(range(1, n + 1))
        for v in range(2, n + 1):
            if rng.random() < 0.85:  # sometimes a forest with several trees
                g.add_edge(rng.randrange(1, v), v)
        inst = EDPInstance(g)
        seen = set()
        for _ in range(rng.randint(0, 4)):
            a, b = rng.sample(range(1, n + 1), 2)
            if frozenset((a, b)) not in seen:
                seen.add(frozenset((a, b)))
                inst.add_pair(a, b)
        assert tree_edp_feasible(g, dict(inst.pairs)) == brute_force_edp(inst).feasible


def test_tree_edp_routes_are_valid():
    g = star_k13()
    pairs = {1: frozenset({2, 3}), 2: frozenset({4, 1})}
    routes = tree_edp_routes(g, pairs)
    inst = EDPInstance(g)
    for pid, members in pairs.items():
        inst.add_pair(*sorted(members), pid)
    check_witness(inst, routes)


def test_mss_basics():
    assert brute_force_mss(1, [(2,), (2,)], (4,), 2)
    assert not brute_force_mss(1, [(2,), (4,)], (4,), 2)
    assert brute_force_mss(1, [], (0,), 0)
    assert brute_force_mss(2, [(1, 1)], (0, 0), 0)
    assert not brute_force_mss(1, [(2,)], (4,), 2)


def test_mss_validation():
    with pytest.raises(ValueError):
        brute_force_mss(2, [(1,)], (0, 0), 1)
    with pytest.raises(ValueError):
        brute_force_mss(1, [(-1,)], (0,), 1)
    with pytest.raises(CapExceeded):
        brute_force_mss(1, [(0,)] * 21, (0,), 1)
