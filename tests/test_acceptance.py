"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them).

All tolerances are zero-mismatch; the two wall-clock budgets are asserted.
Criterion 3b is a strict expected failure: the structural bounds it pins are
unsound for the rule set they accompany (see the worked counterexample in
test_criterion_3b's docstring), while the answer-preservation half, 3a,
holds everywhere.
"""

import itertools
import random
import time

import pytest

from edpsolve.decomposition import verify_decomposition
from edpsolve.generators import edp_to_vdp, gen_mss_instance, gen_random_instance
from edpsolve.graphs import terminal_normalize
from edpsolve.kernel import (
    KernelState,
    kernelize,
    prune_leaf_vertices,
    prune_pendant_subtrees,
    remove_matched_leaf_pairs,
    suppress_degree_two,
)
from edpsolve.graphs import feedback_edge_set
from edpsolve.oracle import brute_force_edp, brute_force_mss, brute_force_vdp
from edpsolve.simple import preprocess_simple, solve_simple_edp
from edpsolve.treecut_dp import (
    enumerate_records,
    leaf_valid_records,
    record_count_bound,
    reduce_degree_two_edges,
    replace_thin_subtree,
    solve_treecut,
)
from edpsolve.decomposition import node_views

from .support import random_simple_split, random_small_instance, reference_decomposition, reference_graph


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' (' + detail + ')' if detail else ''}")


def test_criterion_1_simple_solver_oracle_equivalence():
    """>=500 seeded hub/satellite instances, zero mismatches, < 5 minutes."""
    start = time.time()
    mismatches = []
    for seed in range(500):
        inst, hub = random_simple_split(seed)
        mine = solve_simple_edp(preprocess_simple(inst, hub)).feasible
        want = brute_force_edp(inst, caps=None).feasible
        if mine != want:
            mismatches.append(seed)
    elapsed = time.time() - start
    ok = not mismatches and elapsed < 300
    report("1 simple-solver equivalence (500 instances)", ok, f"{elapsed:.1f}s")
    assert not mismatches, f"mismatching seeds: {mismatches[:5]}"
    assert elapsed < 300


def test_criterion_2_treecut_solver_oracle_equivalence():
    """>=200 seeded width-<=3 decomposition pairs, zero mismatches, < 10 min."""
    start = time.time()
    mismatches = []
    widths = []
    for seed in range(200):
        n = 3 + seed % 8
        inst, dec = gen_random_instance(seed, n, (seed * 7) % 4, (seed * 3) % 5, profile="bounded-tcw")
        rep = verify_decomposition(inst, dec)
        assert rep.valid and rep.width <= 3
        widths.append(rep.width)
        mine = solve_treecut(inst, dec).feasible
        want = brute_force_edp(inst, caps=None).feasible
        if mine != want:
            mismatches.append(seed)
    elapsed = time.time() - start
    ok = not mismatches and elapsed < 600
    report("2 treecut-solver equivalence (200 instances)", ok, f"{elapsed:.1f}s, widths<=3")
    assert not mismatches, f"mismatching seeds: {mismatches[:5]}"
    assert elapsed < 600


def _kernel_corpus():
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        extra = rng.randint(0, min(3, n * (n - 1) // 2)) if n > 1 else 0
        inst, _ = gen_random_instance(seed, n, extra, rng.randint(0, 4), profile="tree-plus")
        yield seed, inst


def test_criterion_3a_kernel_preserves_answers():
    """Kernel answer (oracle on the kernel, honoring overrides) equals the
    oracle on the input across 500 seeded instances."""
    mismatches = []
    for seed, inst in _kernel_corpus():
        want = brute_force_edp(inst, caps=None).feasible
        res = kernelize(inst)
        got = res.answer == "YES" if res.answer else brute_force_edp(res.instance, caps=None).feasible
        if got != want:
            mismatches.append(seed)
    report("3a kernel answer preservation (500 instances)", not mismatches)
    assert not mismatches, f"mismatching seeds: {mismatches[:5]}"


@pytest.mark.xfail(
    strict=True,
    reason="the pinned structural bounds are unsound for the stated rule set: "
    "a cycle with pendant terminal pairs is a fully reduced YES-instance whose "
    "forest part keeps more than 4|X| leaves (and can exceed 11|X|-2 vertices); "
    "rejecting on the leaf count would break answer preservation (criterion 3a). "
    "See the decisions ledger.",
)
def test_criterion_3b_kernel_size_and_leaf_bounds():
    """Produced kernel components within 11|X|-2 vertices and 4|X| forest
    leaves.  Counterexample: triangle {1,2,3} with pendant pairs {4,5},
    {6,7},{8,9} hung on its corners is reduced, YES, |X| = 1, and its forest
    part has 6 > 4 leaves."""
    size_viol, leaf_viol = [], []
    for seed, inst in _kernel_corpus():
        res = kernelize(inst)
        for comp in res.components:
            if comp.resolved is not None:
                continue
            if comp.vertices > comp.size_bound:
                size_viol.append(seed)
            if comp.forest_leaves > comp.leaf_bound:
                leaf_viol.append(seed)
    ok = not size_viol and not leaf_viol
    report(
        "3b kernel structural bounds",
        ok,
        f"size violations {len(size_viol)}, leaf violations {len(leaf_viol)}; unsound in the source material",
    )
    assert not size_viol, f"size-bound violations at seeds {size_viol[:5]}"
    assert not leaf_viol, f"leaf-bound violations at seeds {leaf_viol[:5]}"


def test_criterion_4_mss_reduction_fidelity():
    """Exhaustive grid k <= 2, |S| <= 4, even entries <= 4, all quotas:
    gadget answer equals the subset-sum oracle; zero mismatches, < 5 min."""
    start = time.time()
    mismatches = 0
    tested = 0
    for k in (0, 1, 2):
        vecs = list(itertools.product((0, 2, 4), repeat=k))
        for size in range(0, 5):
            for items in itertools.combinations_with_replacement(vecs, size):
                for target in itertools.product((0, 2, 4), repeat=k):
                    for quota in range(0, size + 1):
                        want = brute_force_mss(k, list(items), target, quota)
                        got = solve_simple_edp(gen_mss_instance(k, list(items), target, quota)).feasible
                        tested += 1
                        if want != got:
                            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 300
    report("4 subset-sum gadget fidelity", ok, f"{tested} grid points, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 300


def test_criterion_5_vdp_reduction_fidelity():
    """>=300 seeded instances <= 7 vertices: edge-disjoint answer on the
    input equals vertex-disjoint answer on the reduction output."""
    mismatches = []
    for seed in range(300):
        inst = random_small_instance(seed, max_n=7, max_extra=2, max_pairs=3)
        want = brute_force_edp(inst, caps=None).feasible
        red = edp_to_vdp(inst)
        if red.answer_override is not None:
            got = red.answer_override == "YES"
        else:
            got = brute_force_vdp(red.instance, caps=None).feasible
        if got != want:
            mismatches.append(seed)
    report("5 edge-to-vertex-disjoint reduction fidelity (300 instances)", not mismatches)
    assert not mismatches, f"mismatching seeds: {mismatches[:5]}"


def test_criterion_6_pinned_width3_regression():
    """The transcribed 7-vertex graph and decomposition report width exactly
    3 with per-node (torso, adhesion) values matching the annotations."""
    inst = reference_graph()
    dec = reference_decomposition()
    rep = verify_decomposition(inst, dec)
    want = {1: (2, 0), 2: (3, 3), 3: (3, 3), 4: (1, 2), 5: (1, 2), 6: (1, 1)}
    ok = rep.valid and rep.width == 3 and all(rep.per_node[t] == v for t, v in want.items())
    report("6 pinned width-3 regression", ok, f"width {rep.width}")
    assert rep.valid
    assert rep.width == 3
    for node, value in want.items():
        assert rep.per_node[node] == value, f"node {node}: {rep.per_node[node]} != {value}"


def test_criterion_7_record_count_bound():
    """enumerate_records stays within 4^k * k! on every node of every test
    decomposition of width k (the suites of criteria 2 and 6)."""
    violations = []
    for seed in range(200):
        n = 3 + seed % 8
        inst, dec = gen_random_instance(seed, n, (seed * 7) % 4, (seed * 3) % 5, profile="bounded-tcw")
        width = verify_decomposition(inst, dec).width
        bound = record_count_bound(width)
        for t, view in node_views(inst, dec).items():
            if len(enumerate_records(view)) > bound:
                violations.append((seed, t))
    inst = reference_graph()
    dec = reference_decomposition()
    bound = record_count_bound(verify_decomposition(inst, dec).width)
    for t, view in node_views(inst, dec).items():
        if len(enumerate_records(view)) > bound:
            violations.append(("pinned", t))
    report("7 record-count bound", not violations)
    assert not violations, violations[:5]


def _fires_rule_1():
    fired = 0
    for seed in range(1500):
        inst = random_small_instance(seed, max_n=7, max_extra=2, max_pairs=3)
        out, rejected = reduce_degree_two_edges(inst, once=True)
        if out == inst and not rejected:
            continue
        fired += 1
        want = brute_force_edp(inst, caps=None).feasible
        got = False if rejected else brute_force_edp(out, caps=None).feasible
        if want != got:
            return fired, seed
        if fired >= 100:
            break
    return fired, None


def _fires_rule_2():
    fired = 0
    for seed in range(1500):
        inst, dec = gen_random_instance(seed, 3 + seed % 6, seed % 3, seed % 4, profile="bounded-tcw")
        views = node_views(inst, dec)
        for node in dec.postorder():
            if node == dec.root or dec.children(node):
                continue
            if views[node].adhesion > 2 or not views[node].subtree:
                continue
            table = leaf_valid_records(inst, dec, views, node)
            out = replace_thin_subtree(inst, views[node], table)
            want = brute_force_edp(inst, caps=None).feasible
            got = False if out is None else brute_force_edp(out, caps=None).feasible
            if want != got:
                return fired, seed
            fired += 1
            break
        if fired >= 100:
            break
    return fired, None


def _fires_kernel_rule(rule, needs_twins=False):
    from .support import random_small_instance as rsi

    fired = 0
    for seed in range(2500):
        inst = terminal_normalize(rsi(seed, max_n=7, max_extra=3, max_pairs=3))
        if needs_twins:
            rng = random.Random(seed ^ 0x7A17)
            anchor = rng.choice(inst.graph.sorted_vertices())
            a = inst.graph.fresh_vertex()
            inst.graph.add_edge(anchor, a)
            b = inst.graph.fresh_vertex()
            inst.graph.add_edge(anchor, b)
            inst.add_pair(a, b)
        state = KernelState(inst, feedback_edge_set(inst.graph))
        out = rule(state, once=True)
        if out is state:
            continue
        fired += 1
        want = brute_force_edp(inst, caps=None).feasible
        if out.answer == "NO":
            if want:
                return fired, seed
        elif brute_force_edp(out.inst, caps=None).feasible != want:
            return fired, seed
        if fired >= 100:
            break
    return fired, None


def test_criterion_8_reduction_rule_micro_safeness():
    """Each of the six reduction rules, applied once on >=100 seeded
    instances where it fires, preserves the oracle answer."""
    results = {
        "degree-two-edges": _fires_rule_1(),
        "thin-replacement": _fires_rule_2(),
        "bare-leaves": _fires_kernel_rule(prune_leaf_vertices),
        "suppress-degree-two": _fires_kernel_rule(suppress_degree_two),
        "pendant-subtrees": _fires_kernel_rule(prune_pendant_subtrees),
        "matched-leaf-twins": _fires_kernel_rule(remove_matched_leaf_pairs, needs_twins=True),
    }
    bad = {name: seed for name, (fired, seed) in results.items() if seed is not None}
    thin = {name: fired for name, (fired, seed) in results.items() if fired < 100}
    ok = not bad and not thin
    report("8 reduction-rule micro-safeness (6 rules x 100 firings)", ok)
    assert not bad, f"answer not preserved: {bad}"
    assert not thin, f"not enough firing samples: {thin}"
