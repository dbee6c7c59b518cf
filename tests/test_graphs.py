import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edpsolve.decomposition import parse_decomposition
from edpsolve.generators import gen_mss_layout, gen_random_instance
from edpsolve.graphs import (
    EDPInstance,
    MultiGraph,
    ParseError,
    StructureError,
    feedback_edge_set,
    induced_instance,
    parse_instance,
    relabel_compact,
    restrict_pairs,
    serialize_instance,
    terminal_normalize,
)
from edpsolve.oracle import brute_force_edp
from edpsolve.treecut_dp import Residue

from .support import elementwise_instance, instance_state, random_small_instance


TRIANGLE_TEXT = """\
p edp 3 3 1
e 1 2
e 2 3
e 1 3
t 1 3
"""


def triangle():
    return parse_instance(TRIANGLE_TEXT)


def test_parse_triangle():
    inst = triangle()
    assert inst.graph.vertices == frozenset({1, 2, 3})
    assert inst.graph.edges == {1: (1, 2), 2: (2, 3), 3: (1, 3)}
    assert inst.pairs == {1: frozenset({1, 3})}


def test_parse_parallel_edges_roundtrip():
    text = "p edp 2 2 0\ne 1 2\ne 1 2\n"
    inst = parse_instance(text)
    assert inst.graph.num_edges() == 2
    assert inst.graph.edges_between(1, 2) == (1, 2)
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 2.*self-pair"):
        parse_instance("p edp 2 0 1\nt 1 1\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_instance("p edp 2 1 0\ne 2 2\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_instance("p edp 2 1 0\ne 1 5\n")
    with pytest.raises(ParseError, match="duplicated pair"):
        parse_instance("p edp 3 0 2\nt 1 2\nt 2 1\n")
    with pytest.raises(ParseError, match="header"):
        parse_instance("e 1 2\n")
    with pytest.raises(ParseError):
        parse_instance("p edp 2 3 0\ne 1 2\n")
    for text in ("p edp 2 1 0\ne a b\n", "p edp 2 0 1\nt 1 x\n", "p edp 2 x 0\n"):
        with pytest.raises(ParseError, match="line [12]: malformed"):
            parse_instance(text)


# every ParseError branch of parse_instance, with the exact message and line
# number: the echoed line is the raw line cut at '#' and stripped, so tabs
# and repeated spaces inside it stay as written
PARSE_ERRORS = [
    ("p edp 2 0 0\np edp 2 0 0\n", 2, "line 2: duplicate header"),
    ("  p edp 2 0 0 # a\n  # b\np edp 1 0 0\n", 3, "line 3: duplicate header"),
    ("p edp 2 0\n", 1, "line 1: malformed header 'p edp 2 0'"),
    ("p vdp 2 0 0\n", 1, "line 1: malformed header 'p vdp 2 0 0'"),
    ("p edp 2 x 0\n", 1, "line 1: malformed header 'p edp 2 x 0'"),
    ("p\tedp  2 1.5 0 # note\n", 1, "line 1: malformed header 'p\\tedp  2 1.5 0'"),
    ("p edp -1 0 0\n", 1, "line 1: malformed header 'p edp -1 0 0'"),
    ("p edp 2 0 -3\n", 1, "line 1: malformed header 'p edp 2 0 -3'"),
    ("p edp 1_0 0 0\n", 1, "line 1: malformed header 'p edp 1_0 0 0'"),
    ("p edp +2 0 0\n", 1, "line 1: malformed header 'p edp +2 0 0'"),
    ("e 1 2\np edp 2 1 0\n", 1, "line 1: edge before header"),
    ("e\n", 1, "line 1: edge before header"),
    ("# c\n\nt 1 2\n", 3, "line 3: pair before header"),
    ("p edp 2 1 0\ne 1\n", 2, "line 2: malformed edge line 'e 1'"),
    ("p edp 2 1 0\ne 1 2 3\n", 2, "line 2: malformed edge line 'e 1 2 3'"),
    ("p edp 2 1 0 \ne 1 2 3#\n", 2, "line 2: malformed edge line 'e 1 2 3'"),
    ("p edp 2 1 0\ne a b\n", 2, "line 2: malformed edge line 'e a b'"),
    ("p edp 2 1 0\ne\t1  x\t# trailing\n", 2, "line 2: malformed edge line 'e\\t1  x'"),
    ("p edp 2 1 0\n  e 1   2.0   \n", 2, "line 2: malformed edge line 'e 1   2.0'"),
    ("p edp 2 1 0\ne\xa01\xa0x\n", 2, "line 2: malformed edge line 'e\\xa01\\xa0x'"),
    ("p edp 2 1 0\ne \u0661 \uff12\n", 2, "line 2: malformed edge line 'e \u0661 \uff12'"),
    ("p edp 2 1 0\ne 1_0 2\n", 2, "line 2: malformed edge line 'e 1_0 2'"),
    ("p edp 2 1 0\ne +1 2\n", 2, "line 2: malformed edge line 'e +1 2'"),
    ("p edp 2 0 1\nt \u0661 2 # \u00e9\n", 2, "line 2: malformed pair line 't \u0661 2'"),
    ("p edp 2 1 0\ne 1 2 # ok\ne 1 2 x # bad\n", 3, "line 3: malformed edge line 'e 1 2 x'"),
    (b"p edp 2 1 0\ne 1 x\n", 2, "line 2: malformed edge line 'e 1 x'"),
    ("p edp 2 0 1\nt 1\n", 2, "line 2: malformed pair line 't 1'"),
    ("p edp 2 0 1\nt 1 x\n", 2, "line 2: malformed pair line 't 1 x'"),
    ("p edp 2 0 1\nt\t1\t\tb  # comment\n", 2, "line 2: malformed pair line 't\\t1\\t\\tb'"),
    ("p edp 3 0 1\nt 1 2 3\n", 2, "line 2: malformed pair line 't 1 2 3'"),
    ("p edp 2 1 0\ne 1 5\n", 2, "line 2: vertex id out of range in 'e 1 5'"),
    ("p edp 2 1 0\ne 0 1\n", 2, "line 2: vertex id out of range in 'e 0 1'"),
    ("p edp 2 1 0\ne  -1\t2 #c\n", 2, "line 2: vertex id out of range in 'e  -1\\t2'"),
    ("p edp 2 1 0\r\ne 1 9\r\n", 2, "line 2: vertex id out of range in 'e 1 9'"),
    ("p edp 2 0 1\nt 3 1\n", 2, "line 2: vertex id out of range in 't 3 1'"),
    ("p edp 2 1 0\ne 2 2\n", 2, "line 2: self-loop edge {2,2}"),
    ("p edp 2 2 0\ne 1 2#x\ne 2 2#\n", 3, "line 3: self-loop edge {2,2}"),
    ("p edp 2 0 1\n\nt 1 1\n", 3, "line 3: self-pair {1,1}"),
    ("p edp 3 0 2\nt 1 2\nt 2 1\n", 3, "line 3: duplicated pair {1,2}"),
    ("p edp 3 0 3\nt 3 2 # a\nt 1 2\nt 2  3\n", 4, "line 4: duplicated pair {2,3}"),
    ("p edp 2 1 0\ne 1 2\ne 2 1\n", 3, "line 3: more edge lines than declared"),
    ("p edp 3 0 1\nt 1 2\nt 1 3\n", 3, "line 3: more pair lines than declared"),
    ("p edp 2 3 0\ne 1 2\n", None, "declared 3 edges, found 1"),
    ("p edp 3 1 1\ne 1 2\n", None, "declared 1 pairs, found 0"),
    ("p edp 3 0 2\nt 1 2\n", None, "declared 2 pairs, found 1"),
    ("p edp 2 0 0\nx 1 2\n", 2, "line 2: unknown line 'x 1 2'"),
    ("p edp 2 0 0\n  E 1 2  # upper\n", 2, "line 2: unknown line 'E 1 2'"),
    ("p edp 2 0 0\n\x0c x\x0b\n", 3, "line 3: unknown line 'x'"),
    ("", None, "missing header"),
    ("# only a comment\n\n", None, "missing header"),
]


@pytest.mark.parametrize("text,line,message", PARSE_ERRORS)
def test_parse_error_messages_are_pinned(text, line, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert (info.value.line, str(info.value)) == (line, message)


def test_parse_checks_lines_before_building_the_graph():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="line 2: unknown line 'x'"):
            parse_instance("p edp 1000000 0 0\nx\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # building 10**6 vertices first peaks near 180 MB


def test_serialize_triangle_shape():
    out = serialize_instance(triangle())
    lines = out.strip().splitlines()
    assert lines[0] == "p edp 3 3 1"
    assert sorted(lines[1:4]) == ["e 1 2", "e 1 3", "e 2 3"]
    assert lines[4] == "t 1 3"


def test_serialize_empty():
    assert serialize_instance(EDPInstance()) == "p edp 0 0 0\n"


def test_parse_tolerates_comments_and_blank_lines():
    text = "# corpus sample\n\np edp 2 1 1   # header\n  e 1 2\n\n# trailing note\nt 1 2\n"
    inst = parse_instance(text)
    assert inst.graph.edges == {1: (1, 2)}
    assert inst.pairs == {1: frozenset({1, 2})}


MUTATION_BYTES = b"\xff\xc3\xe9\x85\r\n\x0b\x0c\t #0123456789-xpedtn"


def _mutants(base: bytes, count: int, seed: int):
    """`count` seeded mutants of `base`, each one to three byte insertions,
    replacements or deletions."""
    rng = random.Random(seed)
    for _ in range(count):
        data = bytearray(base)
        for _ in range(rng.randint(1, 3)):
            op, at = rng.randrange(3), rng.randrange(len(data) + 1)
            if op == 0:
                data.insert(at, rng.choice(MUTATION_BYTES))
            elif at < len(data):
                if op == 1:
                    data[at] = rng.choice(MUTATION_BYTES)
                else:
                    del data[at]
        yield bytes(data)


def test_byte_mutants_raise_only_parse_errors_on_a_line_of_the_text():
    instance = b"# sample\np edp 4 4 2\ne 1 2\ne 2 3 # c\ne 3 4\ne 1 4\nt 1 3\nt 2 4\n"
    decomposition = b"d tcw 3 # chain\nn 1 0\nn 2 1 1 2\nn 3 2 3 4\n"
    decode_errors = 0
    for parse, base, seed in ((parse_instance, instance, 1), (parse_decomposition, decomposition, 2)):
        for data in _mutants(base, 2000, seed):
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                decode_errors += 1
            for text, lines in (
                (data, len(data.decode("utf-8", "replace").splitlines())),
                (data.decode("latin-1"), len(data.decode("latin-1").splitlines())),
            ):
                try:
                    parse(text)
                except ParseError as exc:
                    assert exc.line is None or 1 <= exc.line <= lines, (text, exc)
    assert decode_errors > 100  # the set reaches the decoding path


def _random_instance(rng, n, extra, num_pairs):
    g = MultiGraph(range(1, n + 1))
    for v in range(2, n + 1):
        g.add_edge(rng.randrange(1, v), v)
    for _ in range(extra):
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        while v == u:
            v = rng.randrange(1, n + 1)
        g.add_edge(u, v)
    inst = EDPInstance(g)
    contents = set()
    num_pairs = min(num_pairs, n * (n - 1) // 2)
    while len(contents) < num_pairs:
        a = rng.randrange(1, n + 1)
        b = rng.randrange(1, n + 1)
        if a != b and frozenset((a, b)) not in contents:
            contents.add(frozenset((a, b)))
            inst.add_pair(a, b)
    return inst


def test_roundtrip_random_50_vertices():
    rng = random.Random(7)
    inst = _random_instance(rng, 50, 20, 12)
    back = parse_instance(serialize_instance(inst))
    assert back.graph.vertices == inst.graph.vertices
    assert sorted(back.graph.edges.values()) == sorted(inst.graph.edges.values())
    assert sorted(back.pairs.values(), key=sorted) == sorted(inst.pairs.values(), key=sorted)


@given(st.integers(2, 12), st.integers(0, 6), st.integers(0, 987654))
@settings(max_examples=60, deadline=None)
def test_feedback_edge_set_properties(n, extra, seed):
    rng = random.Random(seed)
    inst = _random_instance(rng, n, extra, 0)
    g = inst.graph
    fes = feedback_edge_set(g)
    assert len(fes) == g.num_edges() - g.num_vertices() + len(g.connected_components())
    remainder = MultiGraph(g.vertices, {e: g.endpoints(e) for e in g.edges if e not in fes})
    assert remainder.is_forest()
    assert remainder.vertices == g.vertices


def test_feedback_edge_set_tree_is_empty():
    g = MultiGraph(range(1, 5))
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(2, 4)
    assert feedback_edge_set(g) == frozenset()


def test_feedback_edge_set_reference_graph():
    # 7 vertices a..g, 9 edges: connected, so |X| = 9 - 7 + 1
    g = MultiGraph(range(1, 8))
    for u, v in [(1, 2), (1, 4), (2, 4), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4), (4, 7)]:
        g.add_edge(u, v)
    assert len(feedback_edge_set(g)) == 3


def test_feedback_edge_set_two_triangles_sharing_vertex():
    g = MultiGraph(range(1, 6))
    for u, v in [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)]:
        g.add_edge(u, v)
    assert len(feedback_edge_set(g)) == 2


def test_feedback_edge_set_takes_parallel_copies():
    g = MultiGraph([1, 2])
    e1 = g.add_edge(1, 2)
    e2 = g.add_edge(1, 2)
    assert feedback_edge_set(g) == frozenset({e2})
    assert e1 not in feedback_edge_set(g)


def test_terminal_normalize_k2():
    inst = parse_instance("p edp 2 1 1\ne 1 2\nt 1 2\n")
    out = terminal_normalize(inst)
    assert out.graph.vertices == frozenset({1, 2, 3, 4})
    assert out.pairs == {1: frozenset({3, 4})}
    assert out.graph.degree(3) == 1 and out.graph.degree(4) == 1
    assert out.graph.neighbors(3) == frozenset({1})
    assert out.graph.neighbors(4) == frozenset({2})


def test_terminal_normalize_two_pairs_on_one_vertex():
    inst = parse_instance("p edp 3 3 2\ne 1 2\ne 2 3\ne 1 3\nt 1 2\nt 1 3\n")
    out = terminal_normalize(inst)
    # vertex 1 occurs in both pairs, so it gains two leaves
    fresh = out.graph.vertices - inst.graph.vertices
    assert len(fresh) == 4
    assert sum(1 for v in fresh if out.graph.neighbors(v) == frozenset({1})) == 2
    for pid, members in out.pairs.items():
        assert members <= fresh
        for v in members:
            assert out.graph.degree(v) == 1
        a, b = members
        assert b not in out.graph.neighbors(a)
        assert len(out.pairs_at(v)) == 1


def test_terminal_normalize_applies_even_when_normalized():
    inst = parse_instance("p edp 2 1 1\ne 1 2\nt 1 2\n")
    once = terminal_normalize(inst)
    twice = terminal_normalize(once)
    assert twice.graph.num_vertices() == once.graph.num_vertices() + 2


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_terminal_normalize_preserves_answer(seed):
    rng = random.Random(seed)
    inst = _random_instance(rng, rng.randint(2, 6), rng.randint(0, 3), rng.randint(0, 3))
    assert brute_force_edp(inst).feasible == brute_force_edp(terminal_normalize(inst), caps=None).feasible


def test_restrict_pairs():
    g = MultiGraph([1, 2, 3])
    inst = EDPInstance(g)
    inst.add_pair(1, 2)
    inst.add_pair(2, 3)
    assert restrict_pairs(inst, {1, 2, 3}) == inst.pairs
    assert restrict_pairs(inst, set()) == {}
    assert restrict_pairs(inst, {1, 2}) == {1: frozenset({1, 2})}
    with pytest.raises(StructureError):
        restrict_pairs(inst, {1, 9})


def test_relabel_compact():
    g = MultiGraph([2, 5, 9])
    g.add_edge(2, 9, 4)
    inst = EDPInstance(g)
    inst.add_pair(5, 9, 3)
    out, mapping = relabel_compact(inst)
    assert mapping == {2: 1, 5: 2, 9: 3}
    assert out.graph.vertices == frozenset({1, 2, 3})
    assert out.graph.edges == {1: (1, 3)}
    assert out.pairs == {1: frozenset({2, 3})}


def test_multigraph_guards():
    g = MultiGraph([1, 2])
    with pytest.raises(StructureError):
        g.add_edge(1, 1)
    with pytest.raises(StructureError):
        g.add_edge(1, 7)
    eid = g.add_edge(1, 2)
    with pytest.raises(StructureError):
        g.add_edge(1, 2, eid)
    inst = EDPInstance(g)
    with pytest.raises(StructureError):
        inst.add_pair(1, 1)


def test_is_forest_sees_parallel_cycle():
    g = MultiGraph([1, 2])
    g.add_edge(1, 2)
    assert g.is_forest()
    g.add_edge(1, 2)
    assert not g.is_forest()


def _apply_random_step(rng, inst, vertices, edges, pairs):
    """One random mutation of `inst`, mirrored in the plain model
    (`vertices`, `edges`: id -> endpoints, `pairs`: id -> members); fresh
    ids are checked against "largest current id plus one" as they are
    handed out.  Returns the instance to continue with."""
    g = inst.graph
    op = rng.randrange(10)
    if op == 0:
        v = g.fresh_vertex()
        assert v == max(vertices, default=0) + 1
        vertices.add(v)
    elif op == 1:
        v = rng.randint(1, 30)
        g.add_vertex(v)
        vertices.add(v)
    elif op == 2 and vertices:
        v = max(vertices) if rng.random() < 0.5 else rng.choice(sorted(vertices))
        g.remove_vertex(v)
        vertices.discard(v)
        for eid in [e for e, ends in edges.items() if v in ends]:
            del edges[eid]
        for pid in [p for p, members in pairs.items() if v in members]:
            inst.remove_pair(pid)
            del pairs[pid]
    elif op in (3, 4) and len(vertices) >= 2:
        u, v = rng.sample(sorted(vertices), 2)
        if op == 3:
            eid = g.add_edge(u, v)
            assert eid == max(edges, default=0) + 1
        else:
            eid = rng.choice([x for x in range(1, 41) if x not in edges])
            g.add_edge(u, v, eid)
        edges[eid] = (min(u, v), max(u, v))
    elif op == 5 and edges:
        eid = max(edges) if rng.random() < 0.5 else rng.choice(sorted(edges))
        g.remove_edge(eid)
        del edges[eid]
    elif op in (6, 7) and len(vertices) >= 2:
        a, b = rng.sample(sorted(vertices), 2)
        if op == 6:
            pid = inst.add_pair(a, b)
            assert pid == max(pairs, default=0) + 1
        else:
            pid = rng.choice([x for x in range(1, 21) if x not in pairs])
            inst.add_pair(a, b, pid)
        pairs[pid] = frozenset((a, b))
    elif op == 8 and pairs:
        pid = max(pairs) if rng.random() < 0.5 else rng.choice(sorted(pairs))
        inst.remove_pair(pid)
        del pairs[pid]
    elif op == 9:
        twin = inst.copy()  # the twin's mutations must not reach `inst`
        twin.graph.fresh_vertex()
        if pairs:
            twin.remove_pair(max(pairs))
        if rng.random() < 0.5:
            inst = inst.copy()
    return inst


@pytest.mark.parametrize("seed", range(12))
def test_primitives_match_their_definitions_under_random_mutation(seed):
    rng = random.Random(seed)
    inst = EDPInstance()
    vertices: set[int] = set()
    edges: dict[int, tuple[int, int]] = {}
    pairs: dict[int, frozenset[int]] = {}
    for _ in range(300):
        inst = _apply_random_step(rng, inst, vertices, edges, pairs)
        g = inst.graph
        assert g.vertices == vertices and g.edges == edges and inst.pairs == pairs
        assert inst.terminals() == frozenset().union(*pairs.values())
        for v in sorted(vertices):
            assert g.incident(v) == tuple(sorted(e for e, ends in edges.items() if v in ends))
            assert inst.pairs_at(v) == tuple(pid for pid in sorted(pairs) if v in pairs[pid])
        probe = inst.copy()
        assert probe.graph.fresh_vertex() == max(vertices, default=0) + 1
        if len(vertices) >= 2:
            a, b = sorted(vertices)[:2]
            assert probe.graph.add_edge(a, b) == max(edges, default=0) + 1
            assert probe.add_pair(a, b) == max(pairs, default=0) + 1


def test_fresh_edge_id_after_removing_the_largest():
    g = MultiGraph([1, 2])
    for _ in range(10):
        g.add_edge(1, 2)
    g.remove_edge(10)
    assert g.add_edge(1, 2) == 10
    g.remove_edge(10)
    g.remove_edge(9)
    g.remove_edge(3)
    assert g.add_edge(1, 2) == 9


def _builder_corpus():
    """Instances from every generator the solvers meet: random small
    multigraphs, tree-plus and bounded-tcw output, and subset-sum gadgets."""
    out = [random_small_instance(seed, max_n=12, max_extra=5, max_pairs=6) for seed in range(40)]
    for seed in range(10):
        out.append(gen_random_instance(seed, 10 + 7 * seed, 1 + seed % 5, 1 + seed % 4, "tree-plus")[0])
        out.append(gen_random_instance(seed, 12 + 8 * seed, 2 + seed % 3, 2, "bounded-tcw")[0])
    for seed in range(6):
        rng = random.Random(seed)
        m = 3 + seed
        items = [tuple(rng.choice((0, 2, 4)) for _ in range(3)) for _ in range(m)]
        out.append(gen_mss_layout(3, items, (2, 4, 2), m // 2).layout.instance)
    return out


BUILDER_CORPUS = _builder_corpus()


@pytest.mark.parametrize("index", range(len(BUILDER_CORPUS)))
def test_constructors_build_what_add_calls_build(index):
    inst = BUILDER_CORPUS[index]
    vertices = sorted(inst.graph.vertices)
    random.Random(index).shuffle(vertices)
    edges, pairs = inst.graph.edges, inst.pairs
    built = EDPInstance(MultiGraph(vertices, edges), pairs)
    assert instance_state(built) == instance_state(elementwise_instance(vertices, edges, pairs))
    assert instance_state(built) == instance_state(inst)


@pytest.mark.parametrize("index", range(len(BUILDER_CORPUS)))
def test_whole_instance_builders_match_add_calls(index):
    inst = BUILDER_CORPUS[index]
    g, pairs = inst.graph, inst.pairs
    rng = random.Random(index)
    keep = set(rng.sample(sorted(g.vertices), (g.num_vertices() + 1) // 2))
    sub_edges = {e: uv for e, uv in g.edges.items() if set(uv) <= keep}
    sub_pairs = {p: ab for p, ab in pairs.items() if ab <= keep}
    assert instance_state(EDPInstance(g.induced(keep))) == instance_state(elementwise_instance(sorted(keep), sub_edges, {}))
    sub = elementwise_instance(sorted(keep), sub_edges, sub_pairs)
    assert instance_state(induced_instance(inst, keep)) == instance_state(sub)
    assert instance_state(Residue.of(inst).to_instance()) == instance_state(inst)

    compact, mapping = relabel_compact(inst)
    edges = {i: tuple(mapping[x] for x in g.endpoints(e)) for i, e in enumerate(g.sorted_edges(), start=1)}
    cpairs = {i: frozenset(mapping[x] for x in pairs[p]) for i, p in enumerate(sorted(pairs), start=1)}
    assert instance_state(compact) == instance_state(elementwise_instance(range(1, len(mapping) + 1), edges, cpairs))
    parsed = parse_instance(serialize_instance(compact))
    assert instance_state(parsed) == instance_state(compact)


INVALID_BUILDS = [
    ([1, 0, -2], {}, {}, "vertex ids must be positive, got 0"),
    ([3, -1], {1: (3, 3)}, {}, "vertex ids must be positive, got -1"),
    ([1, 2], {4: (1, 2), 2: (2, 2)}, {}, "self-loop on vertex 2"),
    ([1, 2], {3: (1, 1), 1: (2, 9)}, {}, "edge {2,9} references unknown vertex"),
    ([2, 1], {1: (7, 1)}, {1: frozenset({1, 2})}, "edge {7,1} references unknown vertex"),
    ([1, 2, 3], {1: (1, 2)}, {2: (3, 3)}, "self-pair {3,3}"),
    ([1, 2, 3], {}, {5: frozenset({3, 9}), 2: frozenset({2, 8})}, "pair {2,8} references unknown vertex"),
    ([1, 2], {}, {1: (2, 1), 2: (4, 1)}, "pair {1,4} references unknown vertex"),
]


@pytest.mark.parametrize("vertices,edges,pairs,message", INVALID_BUILDS)
def test_constructors_raise_what_add_calls_raise(vertices, edges, pairs, message):
    with pytest.raises(StructureError) as elementwise:
        elementwise_instance(vertices, edges, pairs)
    with pytest.raises(StructureError) as one_pass:
        EDPInstance(MultiGraph(vertices, edges), pairs)
    assert str(one_pass.value) == str(elementwise.value) == message
