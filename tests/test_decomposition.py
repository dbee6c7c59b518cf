import pytest

from edpsolve.decomposition import (
    DecompositionError,
    TreecutDecomposition,
    chain_decomposition,
    node_views,
    parse_decomposition,
    serialize_decomposition,
    single_node_decomposition,
    spanning_tree_decomposition,
    star_decomposition,
    torso_size,
    verify_decomposition,
    verify_nice,
)
from edpsolve.generators import gen_random_instance
from edpsolve.graphs import EDPInstance, MultiGraph, ParseError

from .support import reference_decomposition, reference_graph


def test_reference_values_match_annotations():
    inst = reference_graph()
    dec = reference_decomposition()
    rep = verify_decomposition(inst, dec)
    assert rep.valid
    assert rep.width == 3
    want = {1: (2, 0), 2: (3, 3), 3: (3, 3), 4: (1, 2), 5: (1, 2), 6: (1, 1)}
    for node, pair in want.items():
        assert rep.per_node[node] == pair, f"node {node}"


def test_reference_decomposition_is_not_nice():
    # the two thin singleton bags {5} and {6} are adjacent siblings
    rep = verify_nice(reference_graph(), reference_decomposition())
    assert not rep.nice
    assert set(rep.offending) == {4, 5}


def test_node_views_root():
    inst = reference_graph()
    dec = reference_decomposition()
    views = node_views(inst, dec, dec.root)
    assert views.subtree == inst.graph.vertices
    assert views.cut == () and views.adhesion == 0
    assert not views.thin


def test_node_views_leaf_with_empty_bag():
    inst = reference_graph()
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: inst.graph.vertices, 3: set()})
    views = node_views(inst, dec, 3)
    assert views.subtree == frozenset()
    assert views.adhesion == 0 and torso_size(inst, dec, 3) == 0


def test_torso_single_bag_is_whole_graph():
    g = MultiGraph(range(1, 5))
    for u in range(1, 5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)
    inst = EDPInstance(g)
    dec = single_node_decomposition(inst)
    bag_node = next(t for t in dec.nodes() if dec.bag(t))
    assert torso_size(inst, dec, bag_node) == 4
    assert verify_decomposition(inst, dec).width == 4


def test_verify_rejects_bad_near_partition():
    inst = reference_graph()
    dec = TreecutDecomposition({1: None, 2: 1}, {1: set(), 2: {1, 2}})
    rep = verify_decomposition(inst, dec)
    assert not rep.valid
    assert any("no bag" in e for e in rep.errors)
    dec2 = TreecutDecomposition(
        {1: None, 2: 1, 3: 1}, {1: set(), 2: inst.graph.vertices, 3: {1}}
    )
    assert any("reuses" in e for e in verify_decomposition(inst, dec2).errors)


def test_verify_rejects_nonempty_root():
    inst = EDPInstance(MultiGraph([1]))
    dec = TreecutDecomposition({1: None}, {1: {1}})
    rep = verify_decomposition(inst, dec)
    assert not rep.valid and any("root" in e for e in rep.errors)
    assert verify_decomposition(inst, dec.ensure_empty_root()).valid


def test_parse_normalizes_root_and_round_trips():
    text = "d tcw 2\nn 1 0 1 2\nn 2 1 3\n"
    inst = EDPInstance(MultiGraph([1, 2, 3]))
    dec = parse_decomposition(text)
    assert dec.bag(dec.root) == frozenset()
    assert verify_decomposition(inst, dec).valid
    assert parse_decomposition(serialize_decomposition(dec)) == dec


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_decomposition("n 1 0\n")
    with pytest.raises(ParseError):
        parse_decomposition("d tcw 2\nn 1 0\n")
    with pytest.raises(ParseError):
        parse_decomposition("d tcw 2\nn 1 0\nn 2 9\n")
    for text in ("d tcw x\n", "d tcw 2\nn 1 0\nn 2 1 1 x\n", "d tcw 2\nn 1 0\nn 2 1 1 1 2 3\n"):
        with pytest.raises(ParseError, match="line [13]: "):
            parse_decomposition(text)
    with pytest.raises(DecompositionError):
        TreecutDecomposition({1: None, 2: None}, {1: set(), 2: set()})
    with pytest.raises(DecompositionError):
        TreecutDecomposition({1: 2, 2: 1}, {1: set(), 2: set()})


def test_star_decomposition_is_nice_and_width_bounded():
    for seed in range(40):
        inst, dec = gen_random_instance(seed, 4 + seed % 6, 0, seed % 4, profile="simple")
        rep = verify_decomposition(inst, dec)
        hub_bag = dec.bag(sorted(dec.nodes())[1])
        assert rep.valid
        assert rep.width <= max(len(hub_bag), 2)
        assert verify_nice(inst, dec).nice


def test_chain_decomposition_is_nice_and_bounded_on_generated_graphs():
    for seed in range(40):
        inst, dec = gen_random_instance(seed, 3 + seed % 8, seed % 5, 0, profile="bounded-tcw")
        rep = verify_decomposition(inst, dec)
        assert rep.valid and rep.width <= 3
        assert verify_nice(inst, dec).nice


def test_chain_decomposition_rejects_wrong_order():
    inst = reference_graph()
    with pytest.raises(Exception):
        chain_decomposition(inst, [1, 2, 3])


def test_spanning_tree_decomposition_always_nice():
    for seed in range(40):
        inst, _ = gen_random_instance(seed, 3 + seed % 7, seed % 3, 0, profile="tree-plus")
        dec = spanning_tree_decomposition(inst).ensure_empty_root()
        assert verify_decomposition(inst, dec).valid
        assert verify_nice(inst, dec).nice


def test_node_views_outside_is_subtree_neighborhood():
    for seed in range(20):
        inst, _ = gen_random_instance(seed, 4 + seed % 9, seed % 4, 0, profile="tree-plus")
        dec = spanning_tree_decomposition(inst).ensure_empty_root()
        g = inst.graph
        for t in dec.nodes():
            sub = dec.subtree_vertices(t)
            want = frozenset().union(*(g.neighbors(v) for v in sub)) - sub
            assert node_views(inst, dec, t).outside == want, f"seed {seed} node {t}"


def test_nice_classification_splits_children():
    inst = reference_graph()
    dec = chain_decomposition(inst)
    rep = verify_nice(inst, dec)
    assert rep.nice
    for node, kids in rep.bold_like_children.items():
        assert set(kids) | set(rep.absorbable_children[node]) == set(dec.children(node))


def test_star_decomposition_shape():
    inst = EDPInstance(MultiGraph([1, 2, 3, 4]))
    dec = star_decomposition(inst, [1, 2])
    assert dec.bag(dec.root) == frozenset()
    kids = dec.children(dec.root)
    assert len(kids) == 1
    center = kids[0]
    assert dec.bag(center) == frozenset({1, 2})
    assert sorted(dec.bag(c) for c in dec.children(center)) == [frozenset({3}), frozenset({4})]
