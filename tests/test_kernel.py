import hashlib
import random
import sys

from edpsolve.generators import edp_to_vdp, gen_random_instance
from edpsolve.graphs import EDPInstance, MultiGraph, feedback_edge_set, prune_leaves, terminal_normalize
from edpsolve.kernel import (
    _RULES,
    KernelState,
    kernelize,
    overloaded_vertex,
    prune_leaf_vertices,
    prune_pendant_subtrees,
    remove_matched_leaf_pairs,
    suppress_degree_two,
)
from edpsolve.oracle import brute_force_edp

from .support import (
    instance_state,
    random_small_instance,
    reference_feedback_edge_set,
    reference_leaf_closure,
    reference_leaf_worklist,
    reference_pieces,
    tree_plus_union,
)


def state_of(inst):
    return KernelState(inst, feedback_edge_set(inst.graph))


def test_prune_leaves_cascades_along_pendant_path():
    g = MultiGraph([1, 2, 3, 4, 5])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)  # cycle
    g.add_edge(3, 4)
    g.add_edge(4, 5)  # pendant non-terminal path
    out = prune_leaf_vertices(state_of(EDPInstance(g)))
    assert out.inst.graph.vertices == frozenset({1, 2, 3})


def test_prune_leaves_counts_parallel_edges_as_one_neighbour():
    # 4 hangs off the triangle by three parallel edges: one distinct
    # neighbour, so it goes, and its two feedback edges leave the set
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    parallel = {g.add_edge(1, 4) for _ in range(3)}
    state = state_of(EDPInstance(g))
    assert len(state.fes_edges & parallel) == 2
    out = prune_leaf_vertices(state)
    assert out.inst.graph.vertices == frozenset({1, 2, 3})
    assert not out.fes_edges & parallel and len(out.fes_edges) == 1


def test_prune_leaves_keeps_terminals_and_drops_isolated():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    inst = EDPInstance(g)
    inst.add_pair(3, 1)
    out = prune_leaf_vertices(state_of(inst))
    assert out.inst.graph.vertices == frozenset({1, 2, 3})  # 4 was isolated
    assert 3 in out.inst.graph.vertices


def test_suppress_degree_two_plain():
    g = MultiGraph([1, 2, 3])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    inst = EDPInstance(g)
    inst.add_pair(1, 3)  # keeps 1 and 3 as terminals? no: they have degree 1
    # normalize first so terminals are leaves and 2 is the only inner vertex
    norm = terminal_normalize(inst)
    out = suppress_degree_two(state_of(norm))
    assert not any(
        out.inst.graph.degree(v) == 2 and not out.inst.pairs_at(v) and len(out.inst.graph.neighbors(v)) == 2
        for v in out.inst.graph.vertices
    )


def test_suppress_degree_two_hands_fes_membership_over():
    # 4-cycle; every vertex is degree two without a bypass, so suppression
    # runs until the bypass guard stops it, dragging the fes edge along
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2, 1)
    g.add_edge(2, 3, 2)
    g.add_edge(3, 4, 3)
    g.add_edge(1, 4, 4)
    state = KernelState(EDPInstance(g), frozenset({4}))
    out = suppress_degree_two(state)
    assert out.inst.graph.num_vertices() == 3  # triangle; bypasses block the rest
    assert len(out.fes_edges) == 1
    remainder = MultiGraph(
        out.inst.graph.vertices,
        {e: out.inst.graph.endpoints(e) for e in out.inst.graph.edges if e not in out.fes_edges},
    )
    assert remainder.is_forest()
    assert not remainder.num_edges() == out.inst.graph.num_edges()  # fes nonempty


def test_suppress_degree_two_respects_bypass_edge():
    g = MultiGraph([1, 2, 3])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    state = state_of(EDPInstance(g))
    assert suppress_degree_two(state) is state


def test_pendant_subtree_case_drop():
    # cycle 1-2-3 with a routable pendant tree on 1
    g = MultiGraph([1, 2, 3, 4, 5, 6])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    g.add_edge(1, 4)
    g.add_edge(4, 5)
    g.add_edge(4, 6)
    inst = EDPInstance(g)
    inst.add_pair(5, 6)
    out = prune_pendant_subtrees(state_of(inst))
    assert out.answer is None
    assert out.inst.graph.vertices == frozenset({1, 2, 3})
    assert out.inst.pairs == {}


def test_pendant_subtree_case_reattach():
    # pendant tree holds one terminal whose partner lives on the cycle side
    g = MultiGraph([1, 2, 3, 4, 5, 6])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    g.add_edge(1, 4)
    g.add_edge(4, 5)
    g.add_edge(2, 6)
    inst = EDPInstance(g)
    inst.add_pair(5, 6)
    out = prune_pendant_subtrees(state_of(inst))
    assert out.answer is None
    assert 5 in out.inst.graph.vertices and 4 not in out.inst.graph.vertices
    assert out.inst.graph.neighbors(5) == frozenset({1})
    assert out.inst.pairs == {1: frozenset({5, 6})}


def test_pendant_subtree_case_no():
    # two unmatched terminals inside a single-edge subtree
    g = MultiGraph([1, 2, 3, 4, 5, 6, 7])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    g.add_edge(1, 4)
    g.add_edge(4, 5)
    g.add_edge(4, 6)
    inst = EDPInstance(g)
    inst.add_pair(5, 2)
    inst.add_pair(6, 3)
    out = prune_pendant_subtrees(state_of(inst))
    assert out.answer == "NO"
    assert not brute_force_edp(inst, caps=None).feasible


def test_matched_leaf_pairs_removed():
    g = MultiGraph([1, 2, 3, 4, 5])
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    g.add_edge(1, 4)
    g.add_edge(1, 5)
    inst = EDPInstance(g)
    inst.add_pair(2, 3)
    inst.add_pair(4, 5)
    out = remove_matched_leaf_pairs(state_of(inst))
    assert out.inst.pairs == {}
    assert out.inst.graph.vertices == frozenset({1})


def test_matched_leaf_pairs_needs_shared_neighbor():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 3)
    g.add_edge(2, 4)
    g.add_edge(1, 2)
    inst = EDPInstance(g)
    inst.add_pair(3, 4)
    state = state_of(inst)
    assert remove_matched_leaf_pairs(state) is state


def test_matched_leaf_pairs_on_raw_instances():
    """Input that is not terminal-normalized: a leaf may carry other pairs
    too (seed 16 has pairs {6,7}, {3,6} and {2,6}), and then the pair must
    stay."""
    fired = 0
    for seed in range(300):
        inst = random_small_instance(seed, max_n=9, max_extra=4, max_pairs=4)
        state = state_of(inst)
        out = remove_matched_leaf_pairs(state)
        if out is state:
            continue
        fired += 1
        want = brute_force_edp(inst, caps=None).feasible
        assert out.answer is None and brute_force_edp(out.inst, caps=None).feasible == want, seed
    assert fired > 0


def test_overloaded_vertex_detection():
    # two pendant terminals on vertex 1 with a single exit edge
    g = MultiGraph([1, 2, 3, 4, 5])
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    g.add_edge(1, 4)
    g.add_edge(4, 5)
    inst = EDPInstance(g)
    inst.add_pair(2, 5)
    inst.add_pair(3, 5)
    assert overloaded_vertex(inst) == 1
    assert not brute_force_edp(inst, caps=None).feasible


def test_overloaded_vertex_spares_balanced_hubs():
    # triangle with two pendant terminal pairs per corner routes fine
    g = MultiGraph(range(1, 10))
    for u, v in [(1, 2), (2, 3), (1, 3)]:
        g.add_edge(u, v)
    leaves = {4: 1, 8: 1, 6: 2, 9: 2, 5: 3, 7: 3}
    for leaf, anchor in leaves.items():
        g.add_edge(leaf, anchor)
    inst = EDPInstance(g)
    inst.add_pair(4, 5)
    inst.add_pair(6, 7)
    inst.add_pair(8, 9)
    assert overloaded_vertex(inst) is None
    assert brute_force_edp(inst, caps=None).feasible


def test_kernelize_forest_is_settled_outright():
    g = MultiGraph([1, 2, 3])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    inst = EDPInstance(g)
    inst.add_pair(1, 3)
    res = kernelize(inst)
    assert res.answer == "YES"
    assert res.instance.graph.num_vertices() == 0
    inst.add_pair(1, 2)
    assert kernelize(inst).answer == "NO"


def test_kernelize_cross_component_pair_is_no():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    inst = EDPInstance(g)
    inst.add_pair(1, 3)
    assert kernelize(inst).answer == "NO"


def test_kernelize_preserves_answer_on_random_instances():
    for seed in range(300):
        rng = random.Random(seed)
        inst = random_small_instance(seed, max_n=rng.randint(2, 9), max_extra=3, max_pairs=4)
        want = brute_force_edp(inst, caps=None).feasible
        res = kernelize(inst)
        got = res.answer == "YES" if res.answer else brute_force_edp(res.instance, caps=None).feasible
        assert got == want, f"seed {seed}"


def test_kernelize_fixpoint_structure():
    for seed in range(120):
        inst = random_small_instance(seed, max_n=8, max_extra=3, max_pairs=4)
        res = kernelize(inst)
        if res.answer is not None:
            continue
        k = res.instance
        g = k.graph
        for v in g.sorted_vertices():
            if not k.pairs_at(v):
                assert len(g.neighbors(v)) > 1, "bare leaf survived"
                if g.degree(v) == 2 and len(g.neighbors(v)) == 2:
                    a, b = sorted(g.neighbors(v))
                    assert g.edges_between(a, b), "suppressible vertex survived"
        assert overloaded_vertex(k) is None
        state = KernelState(k, res.fes_edges)
        for rule in (prune_leaf_vertices, suppress_degree_two, prune_pendant_subtrees, remove_matched_leaf_pairs):
            assert rule(state, once=True) is state, "kernel is not at the rule fixpoint"


def test_kernelize_deterministic():
    from edpsolve.graphs import serialize_instance

    for seed in range(40):
        inst = random_small_instance(seed)
        a = kernelize(inst)
        b = kernelize(inst.copy())
        assert a.answer == b.answer
        assert serialize_instance(a.instance) == serialize_instance(b.instance)


def test_kernelize_multi_component_unions():
    """Components are reduced as one instance: fresh ids never collide, the
    answer matches the oracle, the kernel keeps its own feedback edges, and
    there is one report per input component up to the first NO."""
    answers = set()
    for seed in range(320):
        inst = tree_plus_union(seed)
        comps = len(inst.graph.connected_components())
        res = kernelize(inst)
        want = brute_force_edp(inst, caps=None).feasible
        got = res.answer == "YES" if res.answer else brute_force_edp(res.instance, caps=None).feasible
        assert got == want, f"seed {seed}"
        assert res.fes_edges <= res.instance.graph.edges.keys(), f"seed {seed}"
        resolved = [rep.resolved for rep in res.components]
        if res.answer == "NO":
            assert len(resolved) <= comps and resolved.count("NO") <= 1, f"seed {seed}"
            assert not resolved or resolved[-1] == "NO", f"seed {seed}"
        else:
            assert len(resolved) == comps and "NO" not in resolved, f"seed {seed}"
        answers.add(res.answer)
    assert answers == {"YES", "NO", None}


def with_twin_leaf_pair(seed):
    """Random instance plus one matched leaf pair on a random vertex, the
    shape remove_matched_leaf_pairs consumes."""
    inst = terminal_normalize(random_small_instance(seed, max_n=6, max_extra=2, max_pairs=2))
    rng = random.Random(seed ^ 0x5EED)
    anchor = rng.choice(inst.graph.sorted_vertices())
    a = inst.graph.fresh_vertex()
    inst.graph.add_edge(anchor, a)
    b = inst.graph.fresh_vertex()
    inst.graph.add_edge(anchor, b)
    inst.add_pair(a, b)
    return inst


def test_rules_preserve_oracle_individually():
    rules = {
        "leaves": prune_leaf_vertices,
        "degree_two": suppress_degree_two,
        "pendant": prune_pendant_subtrees,
        "matched": remove_matched_leaf_pairs,
    }
    fired = {name: 0 for name in rules}
    for seed in range(200):
        base = terminal_normalize(random_small_instance(seed, max_n=7, max_extra=3, max_pairs=3))
        for name, rule in rules.items():
            target = base if name != "matched" else with_twin_leaf_pair(seed)
            state = state_of(target)
            inst_before, fes_before = state.inst.copy(), state.fes_edges
            out = rule(state, once=True)
            assert state.inst == inst_before and state.fes_edges == fes_before, f"{name} seed {seed}"
            if out is state:
                continue
            fired[name] += 1
            want = brute_force_edp(target, caps=None).feasible
            if out.answer == "NO":
                assert not want, f"{name} seed {seed}"
            else:
                assert brute_force_edp(out.inst, caps=None).feasible == want, f"{name} seed {seed}"
    assert all(n >= 25 for n in fired.values()), fired


# sha256 over kernelize's answer, feedback edge set, component reports and
# kernel instance (every vertex, edge and pair id, pairs in stored order),
# and over each rule's output with `once` on and off, on the corpus of
# `_kernel_digest_cases`; any change to a kernel or to a rule's firing order
# or new ids changes it
KERNEL_DIGEST = "73e33de5defef5e701b91dfeebc2e964f8184485fa9b33508d3f4c1225c8204c"


def _kernel_digest_cases():
    cases = []
    for seed in range(40):
        inst, _ = gen_random_instance(seed, 20 + (seed * 47) % 381, 2 + seed % 7, 1 + seed % 3, "tree-plus")
        cases += [inst, terminal_normalize(inst)]
    cases += [terminal_normalize(random_small_instance(seed)) for seed in range(60)]
    return cases


def _instance_key(inst):
    g = inst.graph
    return (g.sorted_vertices(), sorted(g.edges.items()), list(inst.pairs.items()))


def test_kernel_outputs_match_pinned_digest():
    h = hashlib.sha256()
    for inst in _kernel_digest_cases():
        res = kernelize(inst)
        h.update(repr((res.answer, sorted(res.fes_edges), res.components, _instance_key(res.instance))).encode())
        state = state_of(inst)
        for rule in _RULES:
            for once in (True, False):
                out = rule(state, once=once)
                key = (out is state, out.answer, sorted(out.fes_edges), _instance_key(out.inst))
                h.update(repr((rule.__name__, once, key)).encode())
    assert h.hexdigest() == KERNEL_DIGEST


def _python_calls(fn, *args):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_kernelize_python_calls_grow_about_linearly():
    """Four times the vertices at a fixed feedback edge set cost at most six
    times the Python calls; a rescan of every vertex per firing costs ~14x."""
    for seed in (1, 2, 3):
        small, big = (_python_calls(kernelize, gen_random_instance(seed, n, 6, 2, "tree-plus")[0]) for n in (200, 800))
        assert big <= 6 * small, (seed, small, big)


def star_with_cycle(d):
    """Hub 1 with d bare leaves, plus the 4-cycle 1-2-3-4 carrying the pair
    {2, 4}: every leaf removal sends the hub back to the leaf test."""
    g = MultiGraph(range(1, d + 5))
    for u, v in [(1, 2), (2, 3), (3, 4), (1, 4)]:
        g.add_edge(u, v)
    for leaf in range(5, d + 5):
        g.add_edge(1, leaf)
    inst = EDPInstance(g)
    inst.add_pair(2, 4)
    return inst


def test_kernelize_python_calls_grow_about_linearly_at_a_hub():
    """The leaf test stops at a vertex's second distinct neighbour, so the
    hub's d re-tests cost O(1) Python calls each; building its whole
    neighbour set per test costs ~14x for four times the leaves."""
    small, big = (_python_calls(kernelize, star_with_cycle(d)) for d in (200, 800))
    assert big <= 6 * small, (small, big)
    res = kernelize(star_with_cycle(200))
    assert res.answer is None and res.fes_edges == frozenset({207})
    assert _instance_key(res.instance) == (
        [2, 3, 4, 205, 206],
        [(2, (2, 3)), (3, (3, 4)), (205, (2, 205)), (206, (4, 206)), (207, (2, 4))],
        [(1, frozenset({205, 206}))],
    )


def _random_multigraph(rng):
    """Up to 10 vertices with ids in 1..30 and up to 16 edges with ids in
    1..60 between them, drawn from few endpoint pairs so that parallel
    edges are common."""
    vertices = rng.sample(range(1, 31), rng.randint(1, 10))
    spots = [tuple(rng.sample(vertices, 2)) for _ in range(rng.randint(1, 5))] if len(vertices) > 1 else []
    eids = rng.sample(range(1, 61), rng.randint(0, 16)) if spots else []
    return MultiGraph(vertices, {eid: rng.choice(spots) for eid in eids})


def test_feedback_edge_set_matches_reference():
    graphs = [inst.graph for inst in _kernel_digest_cases()]
    rng = random.Random(20)
    graphs += [_random_multigraph(rng) for _ in range(1000)]
    assert sum(g.num_edges() > len({g.endpoints(e) for e in g.edges}) for g in graphs) > 500
    for i, g in enumerate(graphs):
        assert feedback_edge_set(g) == reference_feedback_edge_set(g), i


def _tree_plus_digest_cases():
    """The terminal-normalized tree-plus instances of `_kernel_digest_cases`."""
    return _kernel_digest_cases()[1:80:2]


def theta(d):
    """Vertices 1 and 2 joined by d paths of length 2, with the pair {1, 2}."""
    g = MultiGraph(range(1, d + 3))
    for mid in range(3, d + 3):
        g.add_edge(1, mid)
        g.add_edge(mid, 2)
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    return inst


def test_prune_leaves_matches_both_replaced_loops():
    cases = []
    for seed in range(600):
        inst = random_small_instance(seed, 9, 4, 4)
        cases += [inst, edp_to_vdp(inst).instance]
    cases += _tree_plus_digest_cases() + [star_with_cycle(200), theta(100)]
    fired = 0
    for i, inst in enumerate(cases):
        for once in (False, True):
            got = inst.copy()
            flag = prune_leaves(got.graph, got.terminals(), once)
            fired += flag
            for reference in (reference_leaf_worklist, reference_leaf_closure):
                want = inst.copy()
                assert reference(want.graph, want.terminals(), once) == flag, (i, once, reference.__name__)
                assert instance_state(got) == instance_state(want), (i, once, reference.__name__)
    assert fired > 500, fired


def test_components_match_replaced_piece_walk():
    for i, inst in enumerate(_tree_plus_digest_cases()):
        g = inst.graph
        anchors = {x for e in feedback_edge_set(g) for x in g.endpoints(e)}
        assert anchors, i
        assert g.components(anchors) == reference_pieces(g, anchors), i
        assert g.connected_components() == [comp for comp, _ in reference_pieces(g, set())], i
