import collections
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edpsolve import simple
from edpsolve.generators import gen_mss_instance, gen_mss_layout, gen_random_instance
from edpsolve.graphs import EDPInstance, MultiGraph, StructureError
from edpsolve.kernel import kernelize
from edpsolve.oracle import CapExceeded, brute_force_edp, check_witness
from edpsolve.simple import _DP, SimpleInstance, infer_hub, preprocess_simple, solve_simple_edp


def hub_only(*mult_edges):
    """Instance whose graph is just a hub with the given (u, v) edges."""
    verts = sorted({v for e in mult_edges for v in e}) or [1]
    g = MultiGraph(verts)
    for u, v in mult_edges:
        g.add_edge(u, v)
    return EDPInstance(g)


def si_of(inst, hub):
    return preprocess_simple(inst, hub)


def vec_of(counts):
    """The solver's vector form of per-hub-pair counts: (hub pair, count)
    entries with a nonzero count, hub pairs ascending."""
    return tuple(sorted((k, c) for k, c in counts.items() if c > 0))


def pack(dp, vec):
    return sum(c << dp.shift[k] for k, c in vec)


def hub_paths(si, u, v):
    """The vectors of the simple u-v paths in the hub skeleton."""
    dp = _DP(si)
    return {dp.vector(s) for s in dp.paths(u, v)}


def test_preprocess_suppresses_pairless_degree_two_satellite():
    g = MultiGraph([1, 2, 3])
    g.add_edge(3, 1)
    g.add_edge(3, 2)
    si = si_of(EDPInstance(g), [1, 2])
    assert si.satellites == ()
    assert si.multiplicity == {(1, 2): 1}
    unit = si.units[(1, 2)][0]
    assert unit[0] == "via" and unit[1] == 3


def test_preprocess_drops_low_degree_pairless_satellites():
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(3, 1)  # degree-1 pairless
    si = si_of(EDPInstance(g), [1, 2])  # 4 is isolated pairless
    assert si.satellites == ()
    assert si.multiplicity == {}
    assert si.inst.graph.vertices == frozenset({1, 2})


def test_preprocess_keeps_paired_satellites():
    g = MultiGraph([1, 2, 3])
    g.add_edge(3, 1)
    inst = EDPInstance(g)
    inst.add_pair(3, 2)
    si = si_of(inst, [1, 2])
    assert si.satellites == (3,)
    assert si.inst.pairs == {1: frozenset({2, 3})}


def test_preprocess_drops_parallel_same_neighbor_pairless_satellite():
    g = MultiGraph([1, 2, 3])
    g.add_edge(3, 1)
    g.add_edge(3, 1)
    si = si_of(EDPInstance(g), [1, 2])
    # a pass-through returning to the same hub vertex can never help a path
    assert si.multiplicity == {}
    assert si.satellites == ()


def test_preprocess_structure_errors():
    g = MultiGraph([1, 2, 3])
    g.add_edge(2, 3)
    with pytest.raises(StructureError, match="independent"):
        si_of(EDPInstance(g), [1])
    g2 = MultiGraph([1, 2, 3, 4])
    for u in (1, 2, 3):
        g2.add_edge(4, u)
    with pytest.raises(StructureError, match="degree"):
        si_of(EDPInstance(g2), [1, 2, 3])
    with pytest.raises(StructureError, match="partition"):
        si_of(EDPInstance(MultiGraph([1, 2])), [1, 2, 3])


def test_hub_paths_triangle():
    si = si_of(hub_only((1, 2), (2, 3), (1, 3)), [1, 2, 3])
    assert hub_paths(si, 1, 2) == {vec_of({(1, 2): 1}), vec_of({(1, 3): 1, (2, 3): 1})}


def test_hub_paths_disconnected_pair_is_empty():
    g = MultiGraph([1, 2, 3])
    g.add_edge(1, 2)
    si = si_of(EDPInstance(g), [1, 2, 3])
    assert hub_paths(si, 1, 3) == set()


def test_hub_paths_k4_count():
    edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    si = si_of(hub_only(*edges), [1, 2, 3, 4])
    # simple 1-2 paths in K4: direct, two one-stop, two two-stop
    assert len(hub_paths(si, 1, 2)) == 5


def combine(xs, ys):
    """`_DP.merge` on two vector sets, over a triangle hub with two parallel
    1-2 edges, one 1-3 and one 2-3 edge, and three pairs (size bound 4**3)."""
    inst = hub_only((1, 2), (1, 2), (1, 3), (2, 3))
    for a, b in ((1, 2), (1, 3), (2, 3)):
        inst.add_pair(a, b)
    dp = _DP(si_of(inst, [1, 2, 3]))
    out = dp.merge({pack(dp, x): () for x in xs}, {pack(dp, y): () for y in ys})
    return {dp.vector(s) for s in out}


def test_combine_identity_and_sum():
    x = {vec_of({(1, 2): 1})}
    assert combine(x, {vec_of({})}) == x
    assert combine(x, x) == {vec_of({(1, 2): 2})}


def test_combine_prunes_against_limits():
    assert combine({vec_of({(1, 3): 1})}, {vec_of({(1, 3): 1})}) == set()
    assert combine({vec_of({(1, 2): 2})}, {vec_of({(1, 2): 1})}) == set()


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_combine_commutes(seed):
    rng = random.Random(seed)
    pool = [(1, 2), (1, 3), (2, 3)]

    def rand_set():
        out = set()
        for _ in range(rng.randint(1, 3)):
            out.add(vec_of({k: rng.randint(0, 2) for k in rng.sample(pool, rng.randint(0, 3))}))
        return out

    xs, ys = rand_set(), rand_set()
    assert combine(xs, ys) == combine(ys, xs)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_packed_vectors_sort_and_merge_as_their_entries(seed):
    """Packed vectors round-trip, sort as their entries sort, and `merge`
    keeps every sum within the multiplicities with the provenance of the
    first pair in entry order, as written out here over count dicts; the
    provenance cell, flattened, is the concatenation of the pair's."""
    rng = random.Random(seed)
    keys = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    mult = {k: rng.randint(1, 3) for k in rng.sample(keys, rng.randint(1, len(keys)))}
    g = MultiGraph([1, 2, 3, 4])
    for (u, v), c in mult.items():
        for _ in range(c):
            g.add_edge(u, v)
    inst = EDPInstance(g)
    num_pairs = 4
    for a, b in keys[:num_pairs]:
        inst.add_pair(a, b)
    dp = _DP(si_of(inst, [1, 2, 3, 4]))

    def rand_table(tag):
        vecs = {
            vec_of({k: rng.randint(1, num_pairs) for k in rng.sample(sorted(mult), rng.randint(0, len(mult)))})
            for _ in range(rng.randint(1, 8))
        }
        return {vec: ((tag, i),) for i, vec in enumerate(sorted(vecs, key=lambda v: rng.random()))}

    xs, ys = rand_table("x"), rand_table("y")
    vecs = list(xs) + list(ys)
    assert [dp.vector(pack(dp, v)) for v in vecs] == vecs
    assert sorted(vecs, key=lambda v: dp.order(pack(dp, v))) == sorted(vecs)
    want = {}
    for x, px in sorted(xs.items()):
        for y, py in sorted(ys.items()):
            counts = dict(x)
            for k, c in y:
                counts[k] = counts.get(k, 0) + c
            if any(c > mult[k] for k, c in counts.items()):
                continue
            want.setdefault(vec_of(counts), px + py)
    got = dp.merge({pack(dp, x): p for x, p in xs.items()}, {pack(dp, y): p for y, p in ys.items()})
    # merge keeps provenance as one cell (table side, options side)
    assert {dp.vector(s): px + py for s, (px, py) in got.items()} == want


def test_dp_budget_counts_path_extensions(monkeypatch):
    # the nine vertices that the 1-2 walk over K4 appends or reaches as its
    # far end: 2; 3, 2, 4, 2; 4, 2, 3, 2
    edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    si = si_of(hub_only(*edges), [1, 2, 3, 4])
    monkeypatch.setattr(simple, "HUB_DP_BUDGET", 9)
    assert len(_DP(si).paths(1, 2)) == 5
    monkeypatch.setattr(simple, "HUB_DP_BUDGET", 8)
    with pytest.raises(CapExceeded, match="hub DP budget of 8 vector sums and path extensions exhausted"):
        _DP(si).paths(1, 2)


def test_dp_budget_charges_each_merge_up_front(monkeypatch):
    # a merge of 2 by 3 vectors costs 6 units, whatever fits the ceiling
    xs = [vec_of({}), vec_of({(1, 2): 1})]
    ys = [vec_of({}), vec_of({(1, 3): 1}), vec_of({(1, 2): 2, (2, 3): 1})]
    monkeypatch.setattr(simple, "HUB_DP_BUDGET", 6)
    assert len(combine(xs, ys)) == 5
    monkeypatch.setattr(simple, "HUB_DP_BUDGET", 5)
    with pytest.raises(CapExceeded, match="hub DP budget of 5 "):
        combine(xs, ys)


def test_dp_budget_bounds_a_whole_solve(monkeypatch):
    # the least budget that lets a solve finish is the effort it spends, the
    # same on every run
    inst, dec = gen_random_instance(3, 7, 0, 3, profile="simple")
    si = si_of(inst, sorted(dec.bag(sorted(dec.nodes())[1])))
    dps, init = [], _DP.__init__
    monkeypatch.setattr(_DP, "__init__", lambda self, si: dps.append(self) or init(self, si))
    want = solve_simple_edp(si).feasible
    effort = dps[0].effort
    assert effort > 0
    monkeypatch.setattr(simple, "HUB_DP_BUDGET", effort)
    assert solve_simple_edp(si).feasible == want
    monkeypatch.setattr(simple, "HUB_DP_BUDGET", effort - 1)
    with pytest.raises(CapExceeded):
        solve_simple_edp(si)


def test_solve_two_route_satellite_pair():
    # hub {1,2}, satellites 3,4 each adjacent to both hub vertices
    g = MultiGraph([1, 2, 3, 4])
    g.add_edge(3, 1)
    g.add_edge(3, 2)
    g.add_edge(4, 1)
    g.add_edge(4, 2)
    inst = EDPInstance(g)
    inst.add_pair(3, 4)
    res = solve_simple_edp(si_of(inst, [1, 2]))
    assert res.feasible and brute_force_edp(inst).feasible
    check_witness(inst, res.routes)


def test_solve_rejects_overcommitted_satellite():
    g = MultiGraph([1, 2, 3])
    g.add_edge(3, 1)
    inst = EDPInstance(g)
    inst.add_pair(3, 1)
    inst.add_pair(3, 2)
    assert not solve_simple_edp(si_of(inst, [1, 2])).feasible


def test_solve_rejects_satellite_of_degree_three():
    # preprocess_simple refuses this split, so build the instance by hand:
    # satellite 4 ends a path of pairs and has three hub edges
    g = MultiGraph([1, 2, 3, 4, 5])
    for a in (1, 2, 3):
        g.add_edge(4, a)
    g.add_edge(5, 1)
    inst = EDPInstance(g)
    inst.add_pair(4, 5)
    si = SimpleInstance(inst, inst, (1, 2, 3), (4, 5), {}, {})
    with pytest.raises(StructureError, match="degree 3 > 2"):
        solve_simple_edp(si)


def test_solve_parallel_satellite_edges_route_two_pairs():
    # satellite with two parallel edges to one hub vertex serves two pairs
    g = MultiGraph([1, 2, 3])
    g.add_edge(3, 1)
    g.add_edge(3, 1)
    g.add_edge(1, 2)
    inst = EDPInstance(g)
    inst.add_pair(3, 1)
    inst.add_pair(3, 2)
    res = solve_simple_edp(si_of(inst, [1, 2]))
    assert res.feasible == brute_force_edp(inst).feasible == True  # noqa: E712
    check_witness(inst, res.routes)


def test_solve_empty_hub():
    inst = EDPInstance(MultiGraph([1, 2]))
    inst.add_pair(1, 2)
    assert not solve_simple_edp(si_of(inst, [])).feasible
    assert solve_simple_edp(si_of(EDPInstance(MultiGraph()), [])).feasible


def satellite_cycle(attach, hub_edges):
    """Hub {1, 2} joined by `hub_edges` parallel edges; satellite 3 + i has
    one edge to each hub vertex in `attach[i]`; consecutive satellites, and
    the last and the first, form the pairs, so two satellites carry two
    parallel pairs."""
    sats = [3 + i for i in range(len(attach))]
    g = MultiGraph([1, 2, *sats])
    for _ in range(hub_edges):
        g.add_edge(1, 2)
    for s, ends in zip(sats, attach):
        for a in ends:
            g.add_edge(s, a)
    inst = EDPInstance(g)
    for i, s in enumerate(sats):
        inst.add_pair(s, sats[(i + 1) % len(sats)])
    return inst


@pytest.mark.parametrize(
    "attach,hub_edges,feasible",
    [
        ([(1, 2), (1, 2)], 0, True),
        ([(1, 1), (2, 2)], 1, False),
        ([(1, 1), (2, 2)], 2, True),
        ([(1, 1), (1, 1), (1, 1)], 0, True),
        ([(1, 1), (2, 2), (1, 1)], 0, False),
        ([(1, 1), (2, 2), (1, 1)], 1, False),
        ([(1, 1), (2, 2), (1, 1)], 2, True),
        ([(1, 2), (1, 2), (1, 2), (1, 2)], 0, True),
        ([(1, 1), (2, 2), (1, 1), (2, 2)], 3, False),
        ([(1, 1), (2, 2), (1, 1), (2, 2)], 4, True),
    ],
)
def test_solve_satellite_pair_cycles(monkeypatch, attach, hub_edges, feasible):
    closing = []  # per chain walk: whether its last pair closes a cycle
    real = simple._chain_table

    def spying(dp, choices, pids):
        closing.append(len(pids) == len(choices))
        return real(dp, choices, pids)

    monkeypatch.setattr(simple, "_chain_table", spying)
    inst = satellite_cycle(attach, hub_edges)
    res = solve_simple_edp(si_of(inst, [1, 2]))
    assert closing == [True]
    assert res.feasible == brute_force_edp(inst, caps=None).feasible == feasible
    if res.feasible:
        check_witness(inst, res.routes)


from .support import reference_chain_table  # noqa: E402
from .support import random_simple_split as random_simple_instance  # noqa: E402
from .support import instance_state, reference_preprocess_simple  # noqa: E402


def test_matches_oracle_on_random_instances():
    for seed in range(250):
        inst, hub = random_simple_instance(seed)
        res = solve_simple_edp(si_of(inst, hub))
        assert res.feasible == brute_force_edp(inst, caps=None).feasible, f"seed {seed}"
        if res.feasible:
            check_witness(inst, res.routes)


def test_witness_inner_vertices_stay_in_hub():
    for seed in range(150):
        inst, hub = random_simple_instance(seed)
        res = solve_simple_edp(si_of(inst, hub))
        if not res.feasible:
            continue
        for _pid, hub_path, _lead, _tail in res.records:
            assert set(hub_path) <= set(hub)


def test_vector_sets_stay_within_bound():
    # the solver asserts (|P|+1)^C(k,2) internally; run it over the corpus
    for seed in range(150):
        inst, hub = random_simple_instance(seed)
        solve_simple_edp(si_of(inst, hub))


SIMPLE_DIGEST = "30a3e6eaa41d5466eb7714dfee32bb7c9c38ffcb5a7e4e373e51ea8a224d0f66"


def _simple_digest_cases():
    """`random_simple_split` seeds 0-599, which hold hub-hub pairs,
    satellites with two hub pairs and hub-ended chains, plus the tree-plus
    kernels with an inferred hub of at most 8 vertices that split into a hub
    and satellites."""
    cases = [random_simple_instance(seed) for seed in range(600)]
    for seed in range(800):
        inst, _ = gen_random_instance(seed, 20 + (seed * 37) % 61, 2 + seed % 5, 2 + seed % 4, "tree-plus")
        kernel = kernelize(inst)
        if kernel.answer is not None:
            continue
        hub = infer_hub(kernel.instance)
        try:
            si = preprocess_simple(kernel.instance, hub)
        except StructureError:
            continue
        if si.k <= 8:
            cases.append((kernel.instance, hub))
    return cases


def test_simple_outputs_match_pinned_digest():
    """Answers and chosen vectors are pinned; routes and table sizes are
    left out, as provenance may shift."""
    h = hashlib.sha256()
    for inst, hub in _simple_digest_cases():
        res = solve_simple_edp(si_of(inst, hub))
        h.update(repr((res.feasible, res.vector if res.feasible else None)).encode())
        if res.feasible:
            check_witness(inst, res.routes)
    assert h.hexdigest() == SIMPLE_DIGEST


def _mss_grid_cases():
    """The criterion-4 gadget grid cut to k <= 2 and |S| <= 3."""
    cases = []
    for k in (0, 1, 2):
        vecs = list(itertools.product((0, 2, 4), repeat=k))
        for size in range(0, 4):
            for items in itertools.combinations_with_replacement(vecs, size):
                for target in itertools.product((0, 2, 4), repeat=k):
                    for quota in range(0, size + 1):
                        cases.append(gen_mss_instance(k, list(items), target, quota))
    return cases


def _random_satellite_cycles():
    """Satellite cycles of 2-6 satellites over the hub {1, 2}, the only cycles
    the cases here reach: the gadgets' chains are paths, and no cycle of the
    random splits is walked."""
    cases = []
    for seed in range(40):
        rng = random.Random(seed)
        attach = [rng.choice([(1, 1), (1, 2), (2, 2)]) for _ in range(rng.randint(2, 6))]
        cases.append(si_of(satellite_cycle(attach, rng.randint(0, 4)), [1, 2]))
    return cases


def _mss_hub_cases():
    """20 subset-sum gadgets shaped like the benchmark's mss-hub instances:
    k=4, |S| = 6-14 items with entries from (0, 2, 4, 6, 8), quota |S|//2
    and each target entry about 0.8 of the quota's mean sum."""
    cases = []
    for seed in range(20):
        rng = random.Random(seed)
        m = 6 + seed % 9
        items = [tuple(rng.choice((0, 2, 4, 6, 8)) for _ in range(4)) for _ in range(m)]
        quota = m // 2
        target = tuple(2 * round(sum(it[i] for it in items) * quota * 0.8 / (2 * m)) for i in range(4))
        cases.append(gen_mss_layout(4, items, target, quota).simple())
    return cases


def test_chain_tables_match_merge_reference(monkeypatch):
    """Every chain table the solver builds has the vector set of the
    merge-based reference walk, and the cases reach
    cycles and satellite-ended paths as well as hub-ended paths."""
    shapes = collections.Counter()
    real = simple._chain_table

    def checking(dp, choices, pids):
        got = real(dp, choices, pids)
        assert set(got) == set(reference_chain_table(dp, choices, pids))
        if len(pids) == len(choices):
            shapes["cycle"] += 1
        elif choices[0][0][0] is None and choices[-1][0][0] is None:
            shapes["hub-ended path"] += 1
        else:
            shapes["satellite-ended path"] += 1
        return got

    monkeypatch.setattr(simple, "_chain_table", checking)
    sis = [si_of(inst, hub) for inst, hub in _simple_digest_cases()] + _mss_grid_cases() + _mss_hub_cases()
    sis += _random_satellite_cycles()
    for si in sis:
        solve_simple_edp(si)
    assert min(shapes["cycle"], shapes["hub-ended path"], shapes["satellite-ended path"]) > 0, shapes


def test_yes_records_list_each_pair_once_in_walk_order(monkeypatch):
    """A YES result's records hold every pair once, component by component
    in `_walks` order and pair by pair along each walk, and its routes pass
    `check_witness`."""
    walked = []
    real = simple._walks

    def recording(adj):
        for nodes, pids in real(adj):
            walked.extend(pids)
            yield nodes, pids

    monkeypatch.setattr(simple, "_walks", recording)
    yes = 0
    for si in [si_of(inst, hub) for inst, hub in _simple_digest_cases()] + _mss_hub_cases():
        walked.clear()
        res = solve_simple_edp(si)
        if not res.feasible:
            continue
        yes += 1
        pids = [pid for pid, _path, _lead, _tail in res.records]
        assert sorted(pids) == si.original.sorted_pairs()
        assert pids == walked
        check_witness(si.original, res.routes)
    assert yes > 0


def _preprocess_cases():
    """Hub/satellite splits, tree-plus kernels with an inferred hub, the
    mss-hub-shaped gadgets, and raw tree-plus graphs with an inferred hub,
    or with the hub {1, 2}, most of which break the split."""
    cases = [random_simple_instance(seed) for seed in range(200)]
    for seed in range(60):
        inst, _ = gen_random_instance(seed, 20 + (seed * 37) % 61, 2 + seed % 5, 2 + seed % 4, "tree-plus")
        kernel = kernelize(inst)
        if kernel.answer is None:
            cases.append((kernel.instance, infer_hub(kernel.instance)))
        cases.append((inst, infer_hub(inst)))
        cases.append((inst, [1, 2]))
    for seed in range(20):
        rng = random.Random(seed)
        m = 6 + seed % 9
        items = [tuple(rng.choice((0, 2, 4, 6, 8)) for _ in range(4)) for _ in range(m)]
        layout = gen_mss_layout(4, items, (8, 8, 8, 8), m // 2).layout
        cases.append((layout.instance, layout.hub))
    cases.append((EDPInstance(MultiGraph([1, 2])), [1, 2, 3]))
    return cases


def test_preprocess_matches_elementwise_build():
    """The one-pass reduced instance equals the element-wise one in every
    private field, and the other fields and every StructureError match."""
    outcomes = collections.Counter()
    for inst, hub in _preprocess_cases():
        try:
            ref = reference_preprocess_simple(inst, hub)
        except StructureError as err:
            with pytest.raises(StructureError) as info:
                preprocess_simple(inst, hub)
            assert str(info.value) == str(err)
            outcomes[str(err).split()[-1]] += 1
            continue
        si = preprocess_simple(inst, hub)
        assert instance_state(si.inst) == instance_state(ref.inst)
        assert (si.hub, si.satellites) == (ref.hub, ref.satellites)
        assert list(si.multiplicity.items()) == list(ref.multiplicity.items())
        assert list(si.units.items()) == list(ref.units.items())
        outcomes["built"] += 1
    assert outcomes["built"] >= 240, outcomes
    assert {"independent", "2", "set"} <= set(outcomes)


def test_infer_hub_picks_high_degree_and_parallel_endpoints():
    g = MultiGraph([1, 2, 3, 4, 5])
    g.add_edge(1, 2)
    g.add_edge(1, 2)
    g.add_edge(3, 1)
    g.add_edge(3, 4)
    g.add_edge(3, 5)
    inst = EDPInstance(g)
    assert infer_hub(inst) == frozenset({1, 2, 3})
