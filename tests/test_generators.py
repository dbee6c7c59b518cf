import itertools

import pytest

from edpsolve.decomposition import verify_decomposition, verify_nice
from edpsolve.generators import (
    edp_to_vdp,
    expand_parallel_edges,
    gen_mss_instance,
    gen_mss_layout,
    gen_random_instance,
)
from edpsolve.graphs import EDPInstance, MultiGraph, StructureError, feedback_edge_set, serialize_instance
from edpsolve.oracle import brute_force_edp, brute_force_mss, brute_force_vdp
from edpsolve.simple import solve_simple_edp

from .support import elementwise_edp_to_vdp, instance_state, random_small_instance


def test_mss_gadget_shape_for_two_by_two():
    layout = gen_mss_layout(2, [(2, 2)], (2, 2), 1).layout
    assert len(layout.hub) == 5  # k + 3
    (gadget,) = layout.gadget_vertices
    assert len(gadget) == 9  # entry plus 2 * sum(s)


def test_mss_single_item_yes():
    si = gen_mss_instance(1, [(2,)], (2,), 1)
    assert brute_force_mss(1, [(2,)], (2,), 1)
    assert solve_simple_edp(si).feasible


def test_mss_two_items_over_budget_no():
    si = gen_mss_instance(1, [(2,), (2,)], (2,), 2)
    assert not brute_force_mss(1, [(2,), (2,)], (2,), 2)
    assert not solve_simple_edp(si).feasible


def test_mss_rejects_odd_entries():
    with pytest.raises(ValueError):
        gen_mss_instance(1, [(1,)], (2,), 1)
    with pytest.raises(ValueError):
        gen_mss_instance(1, [(2,)], (3,), 1)
    with pytest.raises(ValueError):
        gen_mss_instance(1, [(2,)], (2,), 2)


def test_mss_zero_vector_items_count_toward_quota():
    # zero items are free picks; they must help reach the quota
    items = [(0,), (4,)]
    assert brute_force_mss(1, items, (2,), 1)
    assert solve_simple_edp(gen_mss_instance(1, items, (2,), 1)).feasible
    assert not brute_force_mss(1, items, (2,), 2)
    assert not solve_simple_edp(gen_mss_instance(1, items, (2,), 2)).feasible


def test_mss_matches_oracle_on_quick_grid():
    vecs = [(0,), (2,), (4,)]
    for size in range(0, 4):
        for items in itertools.combinations_with_replacement(vecs, size):
            for target in vecs:
                for quota in range(0, size + 1):
                    want = brute_force_mss(1, list(items), target, quota)
                    got = solve_simple_edp(gen_mss_instance(1, list(items), target, quota)).feasible
                    assert want == got, (items, target, quota)


def test_mss_witness_uses_skip_or_pick_per_gadget():
    # classify each gadget's routing in an oracle witness: the entry pair
    # either rides the a-b edge (skip) or enters the budget side (pick)
    layout = gen_mss_layout(1, [(2,), (2,)], (2,), 1).layout
    inst = layout.instance
    res = brute_force_edp(inst, caps=None)
    assert res.feasible
    a, b, d = layout.hub[0], layout.hub[1], layout.hub[2]
    picks = 0
    for gadget in layout.gadget_vertices:
        entry = gadget[0]
        pid = inst.pairs_at(entry)[0]
        path = res.routes[pid].vertices
        assert path[0] == entry or path[-1] == entry
        inner = set(path[1:-1])
        assert inner <= set(layout.hub)
        if a in inner:
            assert b in inner  # skip configuration rides a then b
        else:
            picks += 1
            assert d in inner  # pick configuration enters the budget side
    assert picks >= 1  # quota forces at least one pick


def test_mss_expand_multiedges_yields_simple_graph():
    si = gen_mss_instance(1, [(2,), (2,)], (4,), 1, expand_multiedges=True)
    seen = set()
    for eid in si.original.graph.sorted_edges():
        ends = si.original.graph.endpoints(eid)
        assert ends not in seen
        seen.add(ends)
    assert solve_simple_edp(si).feasible == solve_simple_edp(gen_mss_instance(1, [(2,), (2,)], (4,), 1)).feasible


def test_expand_parallel_edges_preserves_answer():
    for seed in range(40):
        inst = random_small_instance(seed, max_n=6, max_extra=3, max_pairs=3)
        expanded = expand_parallel_edges(inst)
        seen = set()
        for eid in expanded.graph.sorted_edges():
            ends = expanded.graph.endpoints(eid)
            assert ends not in seen
            seen.add(ends)
        assert brute_force_edp(inst, caps=None).feasible == brute_force_edp(expanded, caps=None).feasible


def test_vdp_reduction_k2():
    g = MultiGraph([1, 2])
    g.add_edge(1, 2)
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    red = edp_to_vdp(inst)
    assert red.answer_override is None
    assert red.instance.graph.num_vertices() == 3  # one copy each plus the subdivision
    assert len(red.instance.pairs) == 1


def test_vdp_reduction_triangle_no_pairs():
    g = MultiGraph([1, 2, 3])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    red = edp_to_vdp(EDPInstance(g))
    assert red.instance.graph.num_vertices() == 3 * 2 + 3
    assert red.instance.pairs == {}


def test_vdp_reduction_size_is_linear():
    for seed in range(30):
        inst = random_small_instance(seed, max_n=7, max_extra=3, max_pairs=2)
        red = edp_to_vdp(inst)
        if red.answer_override:
            continue
        d = max(inst.graph.degree(v) for v in inst.graph.vertices)
        assert red.instance.graph.num_vertices() == max(d, 1) * inst.graph.num_vertices() + inst.graph.num_edges()


def test_vdp_reduction_overcommitted_vertex_reports_no():
    g = MultiGraph([1, 2, 3])
    g.add_edge(1, 2)
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    inst.add_pair(1, 3)
    red = edp_to_vdp(inst)
    assert red.answer_override == "NO"
    assert not brute_force_edp(inst, caps=None).feasible


def test_vdp_reduction_cross_oracle():
    for seed in range(120):
        inst = random_small_instance(seed, max_n=7, max_extra=2, max_pairs=3)
        want = brute_force_edp(inst, caps=None).feasible
        red = edp_to_vdp(inst)
        if red.answer_override is not None:
            assert not want
            continue
        assert brute_force_vdp(red.instance, caps=None).feasible == want, f"seed {seed}"


def test_random_instances_deterministic_in_seed():
    for profile in ("tree-plus", "simple", "bounded-tcw"):
        a, _ = gen_random_instance(11, 8, 2, 3, profile=profile)
        b, _ = gen_random_instance(11, 8, 2, 3, profile=profile)
        assert serialize_instance(a) == serialize_instance(b)
        c, _ = gen_random_instance(12, 8, 2, 3, profile=profile)
        assert serialize_instance(a) != serialize_instance(c)


def test_tree_plus_controls_feedback_edge_set():
    for extra in range(4):
        inst, dec = gen_random_instance(5, 9, extra, 0, profile="tree-plus")
        assert dec is None
        assert len(feedback_edge_set(inst.graph)) == extra


def test_simple_profile_width_bounded_by_hub():
    for seed in range(30):
        inst, dec = gen_random_instance(seed, 4 + seed % 5, 0, 2, profile="simple")
        hub = dec.bag(sorted(dec.nodes())[1])
        report = verify_decomposition(inst, dec)
        assert report.valid and report.width <= max(len(hub), 2)


def test_bounded_tcw_profile_invariants():
    for seed in range(40):
        inst, dec = gen_random_instance(seed, 2 + seed % 9, seed % 5, seed % 4, profile="bounded-tcw")
        report = verify_decomposition(inst, dec)
        assert report.valid and report.width <= 3
        assert verify_nice(inst, dec).nice
        assert len(inst.graph.connected_components()) == 1



def test_bounded_tcw_cut_budget_sets_the_width():
    # every cut carries at most `cut_budget` edges, and with enough extra
    # edges the chain reaches that width
    for budget in (1, 2, 4, 5):
        for seed in range(10):
            inst, dec = gen_random_instance(seed, 16, 8, 2, profile="bounded-tcw", cut_budget=budget)
            report = verify_decomposition(inst, dec)
            assert report.valid and report.width == budget, (budget, seed)
            assert verify_nice(inst, dec).nice
    with pytest.raises(StructureError, match="cut budget"):
        gen_random_instance(0, 5, 1, 0, profile="bounded-tcw", cut_budget=0)

def test_generator_parameter_validation():
    with pytest.raises(Exception):
        gen_random_instance(0, -1, 0, 0)
    with pytest.raises(Exception):
        gen_random_instance(0, 1, 2, 0, profile="tree-plus")
    with pytest.raises(Exception):
        gen_random_instance(0, 3, 0, 0, profile="no-such-profile")


def test_vdp_reduction_matches_elementwise_build():
    answered = 0
    for seed in range(600):
        inst = random_small_instance(seed, 9, 4, 4)
        got, want = edp_to_vdp(inst), elementwise_edp_to_vdp(inst)
        assert instance_state(got.instance) == instance_state(want.instance), seed
        assert (got.answer_override, got.vertex_copies, got.edge_vertex) == (
            want.answer_override,
            want.vertex_copies,
            want.edge_vertex,
        ), seed
        answered += got.answer_override is not None
    assert 0 < answered < 600, answered
