import random

import pytest

from edpsolve.decomposition import (
    DecompositionError,
    TreecutDecomposition,
    chain_decomposition,
    node_views,
    spanning_tree_decomposition,
    verify_decomposition,
)
from edpsolve.generators import gen_random_instance
from edpsolve.graphs import EDPInstance, MultiGraph
from edpsolve.oracle import brute_force_edp
from edpsolve.simple import preprocess_simple, solve_simple_edp
from edpsolve.treecut_dp import (
    EMPTY_RECORD,
    FOREIGN,
    INTERNAL,
    LEAVING,
    UNUSED,
    build_record_instance,
    dynamic_step,
    enumerate_records,
    leaf_valid_records,
    record_count_bound,
    reduce_degree_two_edges,
    replace_thin_subtree,
    simplify,
    solve_treecut,
    unmatched_terminals,
)

from .support import correspondence, random_small_instance, reference_decomposition, reference_graph


def two_bag_setup(cut_edges):
    """Graph split into bags {1,2} and {3,4} with `cut_edges` edges across."""
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    for _ in range(cut_edges):
        g.add_edge(2, 3)
    inst = EDPInstance(g)
    dec = TreecutDecomposition(
        {1: None, 2: 1, 3: 2}, {1: set(), 2: {3, 4}, 3: {1, 2}}
    )
    return inst, dec


def test_unmatched_terminals_classification():
    inst, dec = two_bag_setup(1)
    inst.add_pair(1, 2)  # fully inside node 3's subtree
    inst.add_pair(3, 4)  # fully outside
    inst.add_pair(1, 4)  # straddles
    assert unmatched_terminals(inst, dec, 3) == ((3, 1),)
    assert unmatched_terminals(inst, dec, 2) == ()  # node 2's subtree holds every vertex
    assert unmatched_terminals(inst, dec, dec.root) == ()


def test_enumerate_records_single_edge():
    inst, dec = two_bag_setup(1)
    recs = enumerate_records(inst, dec, 3)
    assert len(recs) == 1
    assert recs[0].classes[0][1] == UNUSED


def test_enumerate_records_single_edge_with_straddler():
    inst, dec = two_bag_setup(1)
    inst.add_pair(1, 4)
    recs = enumerate_records(inst, dec, 3)
    assert len(recs) == 1
    assert recs[0].leaving and recs[0].classes[0][1] == LEAVING


def test_enumerate_records_two_edges_exhaustive_recount():
    inst, dec = two_bag_setup(2)
    recs = enumerate_records(inst, dec, 3)
    # exhaustion: both unused, both internal matched, both foreign matched;
    # no mixed class admits a perfect matching
    kinds = sorted(tuple(c for _, c in r.classes) for r in recs)
    assert kinds == [(FOREIGN, FOREIGN), (INTERNAL, INTERNAL), (UNUSED, UNUSED)]
    assert len(recs) == 3


def test_enumerate_records_empty_cut():
    inst, dec = two_bag_setup(0)
    assert enumerate_records(inst, dec, 3) == [EMPTY_RECORD]


def test_enumerate_records_unmatchable_terminals_gives_nothing():
    inst, dec = two_bag_setup(1)
    inst.add_pair(1, 4)
    inst.add_pair(2, 3)
    assert enumerate_records(inst, dec, 3) == []


def test_record_count_bound_across_nodes():
    for seed in range(60):
        inst, dec = gen_random_instance(seed, 3 + seed % 7, seed % 4, seed % 4, profile="bounded-tcw")
        width = verify_decomposition(inst, dec).width
        for t in dec.nodes():
            assert len(enumerate_records(inst, dec, t)) <= record_count_bound(width)


def test_build_record_instance_empty_record_at_root():
    inst, dec = two_bag_setup(1)
    inst.add_pair(1, 4)
    built = build_record_instance(inst, dec, dec.root, EMPTY_RECORD)
    assert built == inst


def test_build_record_instance_foreign_adds_two_leaves_and_pair():
    inst, dec = two_bag_setup(2)
    (rec,) = [r for r in enumerate_records(inst, dec, 3) if r.foreign_pairs]
    built = build_record_instance(inst, dec, 3, rec)
    sub = dec.subtree_vertices(3)
    fresh = built.graph.vertices - sub
    assert len(fresh) == 2
    assert len(built.pairs) == 1
    (members,) = built.pairs.values()
    assert members == fresh
    for v in fresh:
        assert built.graph.degree(v) == 1


def test_build_record_instance_internal_same_endpoint_ignored():
    # both cut edges end on vertex 2 inside, so the connector is dropped
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    g.add_edge(2, 3)
    g.add_edge(2, 3)
    inst = EDPInstance(g)
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: {3, 4}, 3: {1, 2}})
    (rec,) = [r for r in enumerate_records(inst, dec, 3) if r.internal_pairs]
    built = build_record_instance(inst, dec, 3, rec)
    assert built.graph.vertices == frozenset({1, 2})
    assert built.graph.edges == {1: (1, 2)}


def test_leaf_valid_records_pass_through_vertex():
    # leaf bag {3} between two cut edges: pass-through and all-unused valid
    g = MultiGraph([1, 2, 3])
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    g.add_edge(1, 2)
    inst = EDPInstance(g)
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: {1, 2}, 3: {3}})
    table = leaf_valid_records(inst, dec, 3)
    kinds = sorted(tuple(c for _, c in r.classes) for r in table.records)
    assert (UNUSED, UNUSED) in kinds
    assert (FOREIGN, FOREIGN) in kinds
    # internal with both inside endpoints on vertex 3 degenerates to the
    # unused case (the connector is ignored), so it is vacuously valid too
    assert (INTERNAL, INTERNAL) in kinds


def test_leaf_valid_records_straddling_terminal():
    g = MultiGraph([1, 2])
    g.add_edge(1, 2)
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: {2}, 3: {1}})
    table = leaf_valid_records(inst, dec, 3)
    assert len(table.records) == 1
    assert table.records[0].leaving == ((1, 1),)


def test_leaf_valid_records_empty_bag():
    inst = EDPInstance(MultiGraph([1]))
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: {1}, 3: set()})
    table = leaf_valid_records(inst, dec, 3)
    assert table.records == (EMPTY_RECORD,)


def test_simplify_empty_record_is_subtree_removal():
    inst, dec = two_bag_setup(1)
    inst.add_pair(3, 4)
    out = simplify(inst, dec, 3, enumerate_records(inst, dec, 3)[0])
    assert out.graph.vertices == frozenset({3, 4})
    assert out.pairs == {1: frozenset({3, 4})}


def test_simplify_foreign_creates_pass_through():
    inst, dec = two_bag_setup(2)
    (rec,) = [r for r in enumerate_records(inst, dec, 3) if r.foreign_pairs]
    out = simplify(inst, dec, 3, rec)
    fresh = out.graph.vertices - {3, 4}
    assert len(fresh) == 1
    (w,) = fresh
    assert out.graph.degree(w) == 2
    assert out.graph.neighbors(w) == frozenset({3})  # both cut edges end on 3


def test_simplify_leaving_restores_pair_on_stub():
    inst, dec = two_bag_setup(1)
    inst.add_pair(1, 4)
    (rec,) = enumerate_records(inst, dec, 3)
    out = simplify(inst, dec, 3, rec)
    (stub,) = out.graph.vertices - {3, 4}
    assert out.pairs == {1: frozenset({stub, 4})}
    assert out.graph.neighbors(stub) == frozenset({3})


def _oracle_record_checks(seed):
    """Instrument the oracle: for every node, a solution's correspondence
    record is valid and its simplification stays solvable."""
    inst = random_small_instance(seed, max_n=6, max_extra=2, max_pairs=3)
    res = brute_force_edp(inst, caps=None)
    if not res.feasible:
        return 0
    dec = chain_decomposition(inst)
    checked = 0
    for node in dec.nodes():
        if node == dec.root:
            continue
        rec = correspondence(inst, dec, node, res.routes)
        # deterministic: recomputation and route-order shuffling agree
        assert rec == correspondence(inst, dec, node, dict(reversed(list(res.routes.items()))))
        assert rec in enumerate_records(inst, dec, node)
        built = build_record_instance(inst, dec, node, rec)
        assert brute_force_edp(built, caps=None).feasible, "correspondence record must be valid"
        simplified = simplify(inst, dec, node, rec)
        assert brute_force_edp(simplified, caps=None).feasible, "simplification must stay solvable"
        checked += 1
    return checked


def test_correspondence_records_are_valid_and_simplify_soundly():
    checked = sum(_oracle_record_checks(seed) for seed in range(60))
    assert checked > 100


def test_simplify_corner_cases_against_oracle():
    # internal pair entering and leaving through the same inside vertex, and
    # foreign pair with both outside endpoints equal: generated corner
    # instances keep oracle equivalence through build/simplify composition
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(2, 3)
    g.add_edge(2, 3)
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    inst = EDPInstance(g)
    inst.add_pair(1, 4)
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: {3, 4}, 3: {1, 2}})
    for rec in enumerate_records(inst, dec, 3):
        built_ok = brute_force_edp(build_record_instance(inst, dec, 3, rec), caps=None).feasible
        if built_ok:
            out = simplify(inst, dec, 3, rec)
            assert brute_force_edp(out, caps=None).feasible == brute_force_edp(inst, caps=None).feasible


# -- degree-two edge reduction ------------------------------------------------


def chain_instance():
    g = MultiGraph([1, 2, 3, 4, 5])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 4)
    g.add_edge(4, 5)
    return EDPInstance(g)


def test_degree_two_chain_collapses():
    inst = chain_instance()
    out, rejected = reduce_degree_two_edges(inst)
    assert not rejected
    assert out.graph.num_edges() == 0 or out.graph.num_vertices() <= 1


def test_degree_two_chain_between_paired_terminals():
    # three non-terminal degree-2 vertices collapse to one edge, which then
    # routes the pair of its endpoints directly
    inst = chain_instance()
    inst.add_pair(1, 5)
    mid, rejected = reduce_degree_two_edges(inst, once=True)
    assert not rejected and mid.graph.num_vertices() == 4  # one contraction
    out, rejected = reduce_degree_two_edges(inst)
    assert not rejected
    assert out.pairs == {} and out.graph.num_edges() == 0
    assert brute_force_edp(inst).feasible


def test_degree_two_direct_pair_routes_along_edge():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 4)
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    out, rejected = reduce_degree_two_edges(inst, once=True)
    assert not rejected
    assert len(out.pairs) == 0
    assert out.graph.edges_between(1, 2) == ()


def test_degree_two_reject_case():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 4)
    inst = EDPInstance(g)
    inst.add_pair(1, 3)
    inst.add_pair(2, 3)
    inst.add_pair(2, 4)
    # 1 has one pair, 2 has two pairs, {1,2} not in P
    out, rejected = reduce_degree_two_edges(inst)
    assert rejected
    assert not brute_force_edp(inst, caps=None).feasible


def test_degree_two_contraction_counterexample_stays_safe():
    # direct-edge routing must not merge the endpoints: their leftover pairs
    # may be satisfiable only in the unmerged graph
    g = MultiGraph([1, 2, 3, 4, 5, 6])
    g.add_edge(1, 2)  # the degree-two edge, pair {1,2}
    g.add_edge(1, 5)
    g.add_edge(2, 6)
    g.add_edge(3, 6)
    g.add_edge(4, 5)
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    inst.add_pair(1, 3)
    inst.add_pair(2, 4)
    want = brute_force_edp(inst, caps=None).feasible
    out, rejected = reduce_degree_two_edges(inst)
    got = False if rejected else brute_force_edp(out, caps=None).feasible
    assert want == got == False  # noqa: E712


def test_degree_two_preserves_oracle_on_random_instances():
    fired = 0
    for seed in range(250):
        inst = random_small_instance(seed, max_n=7, max_extra=2, max_pairs=3)
        out, rejected = reduce_degree_two_edges(inst, once=True)
        if out == inst and not rejected:
            continue
        fired += 1
        want = brute_force_edp(inst, caps=None).feasible
        got = False if rejected else brute_force_edp(out, caps=None).feasible
        assert want == got, f"seed {seed}"
    assert fired >= 100


# -- thin-subtree replacement -------------------------------------------------


def thin_setup(cut_edges, straddling):
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)  # inside the thin subtree {1,2}
    g.add_edge(3, 4)
    for _ in range(cut_edges):
        g.add_edge(2, 3)
    inst = EDPInstance(g)
    for _ in range(straddling):
        inst.add_pair(1, 4)
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: {3, 4}, 3: {1, 2}})
    return inst, dec


def test_thin_replacement_single_edge_leaving():
    inst, dec = thin_setup(1, 1)
    table = leaf_valid_records(inst, dec, 3)
    out = replace_thin_subtree(inst, dec, 3, table)
    (stub,) = out.graph.vertices - {3, 4}
    assert out.pairs == {1: frozenset({stub, 4})}
    assert out.graph.neighbors(stub) == frozenset({3})


def test_thin_replacement_unused_only_deletes():
    inst, dec = thin_setup(2, 0)
    table = leaf_valid_records(inst, dec, 3)
    out = replace_thin_subtree(inst, dec, 3, table)
    # pass-through is valid here, so the replacement offers it
    fresh = out.graph.vertices - {3, 4}
    assert len(fresh) <= 1
    inst2, dec2 = thin_setup(0, 0)
    out2 = replace_thin_subtree(inst2, dec2, 3, leaf_valid_records(inst2, dec2, 3))
    assert out2.graph.vertices == frozenset({3, 4})


def test_thin_replacement_flexible_exit_for_one_straddler():
    inst, dec = thin_setup(2, 1)
    table = leaf_valid_records(inst, dec, 3)
    out = replace_thin_subtree(inst, dec, 3, table)
    (stub,) = [v for v in out.graph.vertices - {3, 4}]
    # both symmetric leaving records are valid, so the stub rides either edge
    assert out.graph.degree(stub) == 2
    assert out.pairs == {1: frozenset({stub, 4})}


def test_thin_replacement_rejects_overloaded_cut():
    inst, dec = thin_setup(1, 2)
    table = leaf_valid_records(inst, dec, 3)
    assert table.records == ()
    assert replace_thin_subtree(inst, dec, 3, table) is None


def test_thin_replacement_two_straddlers_merged_stub():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(1, 2)  # vertex 1 can start two paths
    g.add_edge(3, 4)
    g.add_edge(2, 3)
    g.add_edge(2, 3)
    inst = EDPInstance(g)
    inst.add_pair(1, 4)
    inst.add_pair(1, 4)
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: {3, 4}, 3: {1, 2}})
    table = leaf_valid_records(inst, dec, 3)
    assert len(table.records) == 2  # both exit assignments work
    out = replace_thin_subtree(inst, dec, 3, table)
    (stub,) = [v for v in out.graph.vertices - {3, 4}]
    assert out.graph.degree(stub) == 2
    assert sorted(out.pairs.values(), key=sorted) == [frozenset({stub, 4}), frozenset({stub, 4})]


def test_thin_replacement_preserves_oracle():
    fired = 0
    for seed in range(160):
        inst, dec = gen_random_instance(seed, 3 + seed % 6, seed % 3, seed % 4, profile="bounded-tcw")
        for node in dec.postorder():
            if node == dec.root or dec.children(node):
                continue
            views = node_views(inst, dec, node)
            if views.adhesion > 2 or not views.subtree:
                continue
            table = leaf_valid_records(inst, dec, node)
            out = replace_thin_subtree(inst, dec, node, table)
            want = brute_force_edp(inst, caps=None).feasible
            got = False if out is None else brute_force_edp(out, caps=None).feasible
            assert want == got, f"seed {seed} node {node}"
            fired += 1
            break
    assert fired >= 100


# -- the dynamic step and the full solver -------------------------------------


def test_dynamic_step_empty_child_table_gives_empty():
    inst, dec = two_bag_setup(1)
    inst.add_pair(1, 4)
    inst.add_pair(2, 3)
    # bold-ish child: force it into the record-set branch by a low bag
    tables = {3: leaf_valid_records(inst, dec, 3)}
    assert tables[3].records == ()  # two straddlers, one cut edge
    out = dynamic_step(inst, dec, 2, tables)
    assert out.records == ()


def test_dynamic_step_agrees_with_simple_solver_on_star():
    for seed in range(60):
        inst, dec = gen_random_instance(seed, 4 + seed % 5, 0, seed % 5, profile="simple")
        hub = sorted(dec.bag(sorted(dec.nodes())[1]))
        a = solve_treecut(inst, dec).feasible
        b = solve_simple_edp(preprocess_simple(inst, hub)).feasible
        assert a == b, f"seed {seed}"


def test_solve_treecut_reference_graph_yes():
    inst = reference_graph()
    inst.add_pair(5, 7)
    res = solve_treecut(inst, chain_decomposition(inst))
    assert res.feasible
    assert brute_force_edp(inst).feasible


def test_solve_treecut_empty_pairs_yes():
    inst = reference_graph()
    assert solve_treecut(inst, chain_decomposition(inst)).feasible


def test_solve_treecut_requires_nice():
    inst = reference_graph()
    with pytest.raises(DecompositionError, match="nice"):
        solve_treecut(inst, reference_decomposition())


def test_solve_treecut_rejects_invalid():
    inst = reference_graph()
    dec = TreecutDecomposition({1: None, 2: 1}, {1: set(), 2: {1, 2}})
    with pytest.raises(DecompositionError, match="invalid"):
        solve_treecut(inst, dec)


def test_solve_treecut_cut_capacity_no():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 4)
    inst = EDPInstance(g)
    inst.add_pair(1, 4)
    inst.add_pair(1, 3)
    assert not solve_treecut(inst, chain_decomposition(inst)).feasible


def test_solve_treecut_matches_oracle_random():
    for seed in range(120):
        inst, dec = gen_random_instance(seed, 3 + seed % 8, (seed * 7) % 4, (seed * 3) % 5, profile="bounded-tcw")
        assert solve_treecut(inst, dec).feasible == brute_force_edp(inst, caps=None).feasible, f"seed {seed}"


def test_solve_treecut_spanning_tree_decompositions():
    for seed in range(80):
        inst, _ = gen_random_instance(seed, 3 + seed % 7, seed % 3, (seed * 3) % 5, profile="tree-plus")
        dec = spanning_tree_decomposition(inst)
        assert solve_treecut(inst, dec).feasible == brute_force_edp(inst, caps=None).feasible, f"seed {seed}"


def test_solve_treecut_multi_child_record_branching():
    # two bold blobs hanging off a shared bag by 3 edges each
    g = MultiGraph(range(1, 9))
    for u, v in [(1, 2), (2, 3), (1, 3)]:
        g.add_edge(u, v)
    for u, v in [(6, 7), (7, 8), (6, 8)]:
        g.add_edge(u, v)
    for v in (1, 2, 3):
        g.add_edge(v, 4)
    for v in (6, 7, 8):
        g.add_edge(v, 5)
    g.add_edge(4, 5)
    inst = EDPInstance(g)
    inst.add_pair(1, 6)
    dec = TreecutDecomposition(
        {1: None, 2: 1, 3: 2, 4: 2},
        {1: set(), 2: {4, 5}, 3: {1, 2, 3}, 4: {6, 7, 8}},
    )
    assert verify_decomposition(inst, dec).valid
    res = solve_treecut(inst, dec)
    assert res.feasible == brute_force_edp(inst, caps=None).feasible == True  # noqa: E712
    inst.add_pair(2, 7)
    inst.add_pair(3, 8)
    res2 = solve_treecut(inst, dec)
    assert res2.feasible == brute_force_edp(inst, caps=None).feasible


def test_root_table_is_empty_record_only():
    for seed in range(30):
        inst, dec = gen_random_instance(seed, 3 + seed % 6, seed % 3, seed % 4, profile="bounded-tcw")
        res = solve_treecut(inst, dec)
        root_table = res.tables[dec.ensure_empty_root().root]
        assert all(r == EMPTY_RECORD for r in root_table.records)
