import pytest

from edpsolve.decomposition import (
    DecompositionError,
    NodeViews,
    TreecutDecomposition,
    chain_decomposition,
    node_views,
    parse_decomposition,
    partition_errors,
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

from .support import (
    reference_decomposition,
    reference_graph,
    rescanning_spanning_tree_decomposition,
    rescanning_torso_size,
)


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
    views = node_views(inst, dec)[dec.root]
    assert views.subtree == inst.graph.vertices
    assert views.cut == () and views.adhesion == 0
    assert not views.thin


def test_node_views_leaf_with_empty_bag():
    inst = reference_graph()
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), 2: inst.graph.vertices, 3: set()})
    views = node_views(inst, dec)
    assert views[3].subtree == frozenset()
    assert views[3].adhesion == 0 and torso_size(inst, dec, views, 3) == 0


def test_torso_single_bag_is_whole_graph():
    g = MultiGraph(range(1, 5))
    for u in range(1, 5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)
    inst = EDPInstance(g)
    dec = single_node_decomposition(inst)
    bag_node = next(t for t in dec.nodes() if dec.bag(t))
    assert torso_size(inst, dec, node_views(inst, dec), bag_node) == 4
    assert verify_decomposition(inst, dec).width == 4


def _torso_cascade():
    """Bag {1} under an empty root, with children {2} and {3}: vertex 2
    reaches vertex 3 by two parallel edges only, and 3 also reaches the bag.
    The part of 3 (-3) is popped first and found too heavy (degree 3); the
    part of 2 (-2) is suppressed next and takes both parallel edges with it,
    so the part of 3 must be pushed back to be suppressed too."""
    inst = EDPInstance(MultiGraph(range(1, 4), {1: (2, 3), 2: (2, 3), 3: (3, 1)}))
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2, 4: 2}, {1: set(), 2: {1}, 3: {2}, 4: {3}})
    return inst, dec


def test_torso_size_matches_rescanning_suppression():
    # the worklist suppression against a rescan after every suppression, on
    # spanning-tree and chain decompositions of the tree-plus and bounded-tcw
    # digest corpora of the treecut DP, and on the hand-built cascade
    insts = [gen_random_instance(seed, 6 + seed % 15, seed % 5, seed % 4, profile="bounded-tcw")[0] for seed in range(60)]
    insts += [gen_random_instance(seed, 6 + seed % 7, seed % 3, seed % 4, profile="tree-plus")[0] for seed in range(20)]
    cases = [(inst, build(inst)) for inst in insts for build in (spanning_tree_decomposition, chain_decomposition)]
    cascade, cascade_dec = _torso_cascade()
    cases.append((cascade, cascade_dec))
    for i, (inst, dec) in enumerate(cases):
        dec = dec.ensure_empty_root()
        views = node_views(inst, dec)
        for t in dec.nodes():
            assert torso_size(inst, dec, views, t) == rescanning_torso_size(inst, dec, views, t), f"case {i} node {t}"
    assert torso_size(cascade, cascade_dec, node_views(cascade, cascade_dec), 2) == 1


@pytest.mark.parametrize("n", [400, 1600])
def test_partition_errors_reads_the_vertex_set_once(monkeypatch, n):
    # the vertex set is a fresh copy per read, so a read per node is
    # quadratic on a chain
    inst, dec = gen_random_instance(1, n, n // 8, 2, profile="bounded-tcw")
    dec = dec.ensure_empty_root()
    reads = []
    real = MultiGraph.vertices.fget

    def counting(g):
        reads.append(g)
        return real(g)

    monkeypatch.setattr(MultiGraph, "vertices", property(counting))
    assert partition_errors(inst, dec) == ()
    assert len(reads) == 1


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


@pytest.mark.parametrize(
    "bags, error",
    [
        ({2: {1, 2, 3, 4, 5, 6, 7}, 3: {1}}, "node 3: bag reuses vertices [1]"),
        ({2: {1, 2, 3, 4, 5, 6}, 3: set()}, "vertices [7] appear in no bag"),
        ({2: {1, 2, 3, 4, 5, 6, 7}, 3: {99}}, "node 3: bag contains non-vertices [99]"),
    ],
    ids=["overlap", "missing", "stray"],
)
def test_invalid_bags_are_neither_valid_nor_nice(bags, error):
    # the niceness check reads the views, which need a near-partition, so
    # both checks stop at the partition errors
    inst = reference_graph()
    dec = TreecutDecomposition({1: None, 2: 1, 3: 2}, {1: set(), **bags})
    for check in (verify_decomposition, verify_nice):
        rep = check(inst, dec)
        assert not rep.valid and not rep.nice
        assert rep.errors == (error,)
        assert rep.per_node == {} and rep.views == {} and rep.offending == ()


def test_verify_rejects_nonempty_root():
    inst = EDPInstance(MultiGraph([1]))
    dec = TreecutDecomposition({1: None}, {1: {1}})
    rep = verify_decomposition(inst, dec)
    assert not rep.valid and any("root" in e for e in rep.errors)
    assert verify_decomposition(inst, dec.ensure_empty_root()).valid


def test_parse_normalizes_root_and_round_trips():
    # the second input has only negative node ids, so the spliced root needs
    # an id other than max + 1 = 0, the text format's "no parent"
    for text in ("d tcw 2\nn 1 0 1 2\nn 2 1 3\n", "d tcw 2\nn -1 0 1 2\nn -2 -1 3\n"):
        inst = EDPInstance(MultiGraph([1, 2, 3]))
        dec = parse_decomposition(text)
        assert dec.bag(dec.root) == frozenset()
        assert verify_decomposition(inst, dec).valid
        assert parse_decomposition(serialize_decomposition(dec)) == dec
    inst, _ = gen_random_instance(1, 12, 3, 2, profile="tree-plus")
    for dec in (
        single_node_decomposition(inst),
        star_decomposition(inst, [1, 2]),
        chain_decomposition(inst),
        spanning_tree_decomposition(inst),
    ):
        assert parse_decomposition(serialize_decomposition(dec)) == dec
    # the children of node 0 would read back as roots
    with pytest.raises(DecompositionError, match="node 0 has child 1"):
        serialize_decomposition(TreecutDecomposition({0: None, 1: 0, 2: 1}, {0: [], 1: [1], 2: [2]}))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_decomposition("n 1 0\n")
    with pytest.raises(ParseError):
        parse_decomposition("d tcw 2\nn 1 0\n")
    with pytest.raises(ParseError):
        parse_decomposition("d tcw 2\nn 1 0\nn 2 9\n")
    for text, line in (
        ("d tcw x\n", 1),
        ("d tcw 2\nn 1 0\nn 2 1 1 x\n", 3),
        ("d tcw 2\nn 1 0\nn 2 1 1 1 2 3\n", 3),
        ("d tcw 2\nn 1 0\n", 1),  # node count differs from the header's
        ("d tcw 3\nn 1 0\nn 2 9\nn 3 1\n", 3),  # unknown parent: the node's line
        ("d tcw 3\nn 0 0\nn 1 0 1\nn 2 0\n", 3),  # second root
        ("# no root\nd tcw 2\nn 1 2\nn 2 1\n", 2),  # the header
        ("d tcw 4\nn 1 0\nn 4 1\nn 3 2\nn 2 3\n", 4),  # first unreachable line
    ):
        with pytest.raises(ParseError, match=f"line {line}: "):
            parse_decomposition(text)
    with pytest.raises(DecompositionError):
        TreecutDecomposition({1: None, 2: None}, {1: set(), 2: set()})
    with pytest.raises(DecompositionError):
        TreecutDecomposition({1: 2, 2: 1}, {1: set(), 2: set()})


DEC_PARSE_ERRORS = [
    ("d tcw 1\nd tcw 1\nn 1 0\n", 2, "line 2: duplicate header"),
    ("d tcw\n", 1, "line 1: malformed header 'd tcw'"),
    ("d tcw 1 2\n", 1, "line 1: malformed header 'd tcw 1 2'"),
    ("d tree 1\n", 1, "line 1: malformed header 'd tree 1'"),
    ("d\ttcw  x # c\n", 1, "line 1: malformed header 'd\\ttcw  x'"),
    ("d tcw -1\n", 1, "line 1: malformed header 'd tcw -1'"),
    ("d tcw 1_0\n", 1, "line 1: malformed header 'd tcw 1_0'"),
    ("n 1 0\nd tcw 1\n", 1, "line 1: node before header"),
    ("d tcw 1\nn 1\n", 2, "line 2: malformed node line 'n 1'"),
    ("d tcw 1\nn\n", 2, "line 2: malformed node line 'n'"),
    ("d tcw 1\nn 1 x\n", 2, "line 2: malformed node line 'n 1 x'"),
    ("d tcw 1\n  n 1 0\t1 a  # bad\n", 2, "line 2: malformed node line 'n 1 0\\t1 a'"),
    ("d tcw 1\nn 1 0 1_0\n", 2, "line 2: malformed node line 'n 1 0 1_0'"),
    ("d tcw 1\nn 1 +0\n", 2, "line 2: malformed node line 'n 1 +0'"),
    ("d tcw 1\nn \u0661 0\n", 2, "line 2: malformed node line 'n \u0661 0'"),
    ("d tcw 2\nn 1 0\nn 1 0\n", 3, "line 3: duplicate node 1"),
    ("d tcw 2\nn 1 0\nn 2 1 1 1 2 3\n", 3, "line 3: node 2 lists a vertex twice"),
    ("d tcw 1\nx 1\n", 2, "line 2: unknown line 'x 1'"),
    ("d tcw 1\n  D tcw 1\n", 2, "line 2: unknown line 'D tcw 1'"),
    ("", None, "missing header"),
    ("# c\n\n", None, "missing header"),
    ("d tcw 2\nn 1 0\n", 1, "line 1: declared 2 nodes, found 1"),
    ("# c\n\nd tcw 0\nn 1 0\n", 3, "line 3: declared 0 nodes, found 1"),
    ("d tcw 3\nn 1 0\nn 2 9\nn 3 1\n", 3, "line 3: node 2 has unknown parent 9"),
    ("d tcw 3\nn 0 0\nn 1 0 1\nn 2 0\n", 3, "line 3: need exactly one root, found 3"),
    ("# no root\nd tcw 2\nn 1 2\nn 2 1\n", 2, "line 2: need exactly one root, found 0"),
    ("d tcw 4\nn 1 0\nn 4 1\nn 3 2\nn 2 3\n", 4, "line 4: parent links do not form a tree"),
    (b"d tcw 1\nn 1 x\n", 2, "line 2: malformed node line 'n 1 x'"),
    ("d tcw 1\r\nn 1 x\r\n", 2, "line 2: malformed node line 'n 1 x'"),
    (b"d tcw 1\r\nn 1 x\r\n", 2, "line 2: malformed node line 'n 1 x'"),
    ("d tcw 1\rn 1 x\r", 2, "line 2: malformed node line 'n 1 x'"),
    ("d tcw 1\n\x0c n 1 x\n", 3, "line 3: malformed node line 'n 1 x'"),
    ("d tcw 1\n\x0bn 1 x\n", 3, "line 3: malformed node line 'n 1 x'"),
    (b"d tcw 1\nn 1 0 # \xe9\n", 2, "line 2: invalid UTF-8 byte 0xe9"),
    (b"d tcw 1\r\n\r\xff\r\n", 3, "line 3: invalid UTF-8 byte 0xff"),
    (b"\xc3", 1, "line 1: invalid UTF-8 byte 0xc3"),
]


@pytest.mark.parametrize("text,line,message", DEC_PARSE_ERRORS)
def test_decomposition_parse_error_messages_are_pinned(text, line, message):
    with pytest.raises(ParseError) as info:
        parse_decomposition(text)
    assert (info.value.line, str(info.value)) == (line, message)


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


def test_spanning_tree_decomposition_matches_rescanning_builder():
    # the one-pass merge order against a rescan of the niceness report after
    # every merge, on tree-plus inputs and on two larger bounded-tcw graphs
    # whose spanning trees need many merges
    cases = [gen_random_instance(seed, 5 + seed % 56, seed % 6, 0, profile="tree-plus")[0] for seed in range(120)]
    cases += [gen_random_instance(seed, 120, 15, 0, profile="bounded-tcw")[0] for seed in (1, 2)]
    merged = 0
    for i, inst in enumerate(cases):
        dec = spanning_tree_decomposition(inst)
        assert dec == rescanning_spanning_tree_decomposition(inst), f"case {i}"
        merged += len(dec.nodes()) < inst.graph.num_vertices() + 1
    assert merged >= 20


def _views_by_definition(inst, dec, t):
    """One node's views from the definitions: the subtree is the union of
    the bags below `t`, the cut holds the edges with one endpoint inside, the
    outside is the subtree's neighborhood and a pair straddles when one
    member is inside."""
    g = inst.graph
    sub, stack = set(), [t]
    while stack:
        x = stack.pop()
        sub |= dec.bag(x)
        stack.extend(dec.children(x))
    cut = tuple(e for e in g.sorted_edges() if len(sub & set(g.endpoints(e))) == 1)
    outside = frozenset().union(*(g.neighbors(v) for v in sub)) - sub
    straddling = {}
    for pid in inst.sorted_pairs():
        inside = inst.pair(pid) & sub
        if len(inside) == 1:
            straddling[pid] = (min(inside), min(inst.pair(pid) - inside))
    parent = dec.parent(t)
    thin = parent is not None and len(cut) <= 2
    absorbable = thin and outside <= dec.bag(parent)
    return NodeViews(t, frozenset(sub), cut, len(cut), outside, thin, straddling, absorbable)


def test_node_views_match_per_node_definitions():
    cases = []
    for seed in range(20):
        inst, _ = gen_random_instance(seed, 4 + seed % 9, seed % 4, seed % 5, profile="tree-plus")
        cases.append((inst, spanning_tree_decomposition(inst).ensure_empty_root()))
        cases.append(gen_random_instance(seed, 3 + seed % 12, seed % 5, seed % 6, profile="bounded-tcw"))
    ref = reference_graph()
    for a, b in [(1, 5), (2, 6), (3, 7), (4, 6)]:
        ref.add_pair(a, b)
    cases.append((ref, reference_decomposition()))
    for i, (inst, dec) in enumerate(cases):
        views = node_views(inst, dec)
        assert sorted(views) == dec.nodes(), f"case {i}"
        for t in dec.nodes():
            assert views[t] == _views_by_definition(inst, dec, t), f"case {i} node {t}"
            assert list(views[t].straddling) == sorted(views[t].straddling), f"case {i} node {t}"


def test_nice_classification_splits_children():
    # the report holds the verdict and the offenders only, and the views split each
    # node's children: under bag {4, 5}, {6} and {7} are thin and see only
    # the bag, while {3} also sees vertex 2
    inst = reference_graph()
    dec = spanning_tree_decomposition(inst)
    rep = verify_nice(inst, dec)
    assert rep.nice and rep.offending == ()
    views = node_views(inst, dec)
    (node,) = [t for t in dec.nodes() if dec.bag(t) == {4, 5}]
    split = {dec.bag(c): views[c].absorbable for c in dec.children(node)}
    assert split == {frozenset({3}): False, frozenset({6}): True, frozenset({7}): True}


def test_star_decomposition_shape():
    inst = EDPInstance(MultiGraph([1, 2, 3, 4]))
    dec = star_decomposition(inst, [1, 2])
    assert dec.bag(dec.root) == frozenset()
    kids = dec.children(dec.root)
    assert len(kids) == 1
    center = kids[0]
    assert dec.bag(center) == frozenset({1, 2})
    assert sorted(dec.bag(c) for c in dec.children(center)) == [frozenset({3}), frozenset({4})]
