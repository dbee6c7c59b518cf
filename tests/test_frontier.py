import random
import time
import tracemalloc

import pytest

from edpsolve import cli, frontier
from edpsolve.decomposition import serialize_decomposition
from edpsolve.frontier import solve_frontier
from edpsolve.generators import gen_random_instance
from edpsolve.graphs import EDPInstance, MultiGraph, StructureError
from edpsolve.oracle import CapExceeded, brute_force_edp, check_witness
from edpsolve.treecut_dp import solve_treecut

from .test_treecut_dp import _digest_cases


def _agrees_with_the_search(inst, order) -> None:
    res = solve_frontier(inst, order)
    assert res.feasible == brute_force_edp(inst, caps=None).feasible
    if res.feasible:
        check_witness(inst, res.routes())
    else:
        assert res.routes() is None


def test_frontier_matches_the_search_on_small_instances():
    # tree-plus graphs placed in shuffled orders, and bounded-tcw chains
    # placed along their bags: 2,400 instances, every YES witness checked
    for seed in range(1200):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        extra = rng.randint(0, 4) if n > 1 else 0
        inst, _ = gen_random_instance(seed, n, extra, rng.randint(0, 4), profile="tree-plus")
        order = inst.graph.sorted_vertices()
        rng.shuffle(order)
        _agrees_with_the_search(inst, order)
    for seed in range(1200):
        rng = random.Random(seed)
        inst, dec = gen_random_instance(seed, rng.randint(2, 12), rng.randint(0, 5), rng.randint(0, 4), profile="bounded-tcw")
        _agrees_with_the_search(inst, cli._path_order(dec))


def test_frontier_handles_parallel_edges_shared_terminals_and_empty_input():
    g = MultiGraph(range(1, 5), {1: (1, 2), 2: (1, 2), 3: (2, 3), 4: (2, 3), 5: (3, 4)})
    both = EDPInstance(g, {1: frozenset((1, 3)), 2: frozenset((1, 3))})
    _agrees_with_the_search(both, [3, 1, 4, 2])
    three = EDPInstance(g, {1: frozenset((1, 3)), 2: frozenset((1, 3)), 3: frozenset((2, 3))})
    assert not solve_frontier(three, [1, 2, 3, 4]).feasible
    assert solve_frontier(EDPInstance(), []).feasible


def test_frontier_refuses_an_order_that_is_not_the_vertex_set():
    inst, _ = gen_random_instance(1, 5, 1, 1, profile="tree-plus")
    for order in ([1, 2, 3, 4], [1, 2, 3, 4, 5, 5], [1, 2, 3, 4, 6]):
        with pytest.raises(StructureError, match="order must enumerate the vertex set"):
            solve_frontier(inst, order)


def test_frontier_matches_the_record_dp_on_every_chain_of_its_corpora():
    chains = [(inst, dec) for inst, dec in _digest_cases() if cli._path_order(dec) is not None]
    for seed in range(200):  # criterion 2
        chains.append(gen_random_instance(seed, 3 + seed % 8, (seed * 7) % 4, (seed * 3) % 5, profile="bounded-tcw"))
    assert len(chains) > 260
    for inst, dec in chains:
        order = cli._path_order(dec)
        assert solve_frontier(inst, order).feasible == solve_treecut(inst, dec).feasible


def test_frontier_reports_the_cut_of_the_order():
    inst, dec = gen_random_instance(1, 100, 12, 2, profile="bounded-tcw")
    res = solve_frontier(inst, cli._path_order(dec))
    assert res.cut <= 3 and 0 < res.peak <= 12 and 0 < res.generated < frontier.FRONTIER_BUDGET


@pytest.mark.parametrize("cut_budget", [5, 6])
def test_frontier_decides_wide_chains(cut_budget):
    # the record DP runs out of its residue budget on these at width 5
    for seed in (1, 2, 3):
        inst, dec = gen_random_instance(seed, 200, 50, 2, profile="bounded-tcw", cut_budget=cut_budget)
        res = solve_frontier(inst, cli._path_order(dec))
        assert res.cut <= cut_budget
        if res.feasible:
            check_witness(inst, res.routes())


def test_frontier_budget_stops_a_hub_placed_early():
    # a hub of about 300 edges placed first expands into every way of
    # joining its edges in pairs
    inst, dec = gen_random_instance(2, 400, 0, 3, profile="simple")
    hub = sorted(dec.bag(2))
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="FRONTIER_BUDGET"):
        solve_frontier(inst, hub + sorted(inst.graph.vertices - set(hub)))
    assert time.perf_counter() - start < 1.0


def _decide_peak(tmp_path, n: int) -> int:
    inst, dec = gen_random_instance(1, n, n // 8, 2, profile="bounded-tcw")
    path = tmp_path / f"chain{n}.dec"
    path.write_text(serialize_decomposition(dec))
    tracemalloc.start()
    try:
        cli._decide(inst, "treecut", path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_treecut_memory_on_a_chain_grows_linearly(tmp_path):
    # linear growth makes the ratio 4; the record DP's subtree sets made it
    # about 13
    small, large = _decide_peak(tmp_path, 400), _decide_peak(tmp_path, 1600)
    assert large <= 6 * small, (small, large)
