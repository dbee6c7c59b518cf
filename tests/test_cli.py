import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from edpsolve import oracle
from edpsolve.cli import main
from edpsolve.decomposition import serialize_decomposition
from edpsolve.generators import gen_random_instance
from edpsolve.graphs import StructureError, parse_instance, serialize_instance
from edpsolve.kernel import kernelize
from edpsolve.oracle import RoutedPath, brute_force_edp, check_witness
from edpsolve.simple import infer_hub, preprocess_simple

from .support import tree_plus_union


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def triangle(tmp_path):
    path = tmp_path / "tri.edp"
    path.write_text("p edp 3 3 1\ne 1 2\ne 2 3\ne 1 3\nt 1 3\n")
    return str(path)


@pytest.fixture()
def collision(tmp_path):
    path = tmp_path / "path.edp"
    path.write_text("p edp 3 2 2\ne 1 2\ne 2 3\nt 1 3\nt 1 2\n")
    return str(path)


def replay_witness(inst, lines):
    """Map printed vertex lines back onto the pair set and validate them."""
    pids = inst.sorted_pairs()
    assert len(lines) == len(pids)
    routes = {}
    used = set()  # shared: parallel edges must not be double-allocated
    for pid, line in zip(pids, lines):
        verts = tuple(int(x) for x in line.split())
        eids = []
        for u, v in zip(verts, verts[1:]):
            options = [e for e in inst.graph.edges_between(u, v) if e not in used]
            assert options, f"no edge between {u} and {v}"
            eids.append(options[0])
            used.add(options[0])
        routes[pid] = RoutedPath(verts, tuple(eids))
    check_witness(inst, routes)


def test_solve_oracle_yes(triangle):
    code, out, _ = run_cli("solve", triangle, "--method", "oracle", "--quiet")
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_solve_collision_no(collision):
    for method in ("oracle", "auto"):
        code, out, _ = run_cli("solve", collision, "--method", method, "--quiet")
        assert code == 0
        assert out.splitlines()[0] == "NO"


def test_solve_witness_replays(triangle):
    code, out, _ = run_cli("solve", triangle, "--method", "oracle", "--witness", "--quiet")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    replay_witness(parse_instance(Path(triangle).read_text()), lines[1:])


def test_solve_methods_agree_and_witnesses_replay(tmp_path):
    for seed in range(25):
        inst, dec = gen_random_instance(seed, 4 + seed % 6, seed % 4, seed % 4, profile="bounded-tcw")
        ipath = tmp_path / f"i{seed}.edp"
        ipath.write_text(serialize_instance(inst))
        dpath = tmp_path / f"i{seed}.dec"
        dpath.write_text(serialize_decomposition(dec))
        answers = set()
        for args in (
            ("--method", "oracle"),
            ("--method", "auto"),
            ("--method", "treecut", "--decomposition", str(dpath)),
        ):
            code, out, _ = run_cli("solve", str(ipath), "--quiet", *args)
            assert code == 0
            answers.add(out.splitlines()[0])
        assert len(answers) == 1, f"seed {seed}: {answers}"
        if answers == {"YES"}:
            code, out, _ = run_cli("solve", str(ipath), "--quiet", "--witness", "--method", "auto")
            assert code == 0
            replay_witness(inst, out.splitlines()[1:])


def test_solve_simple_method_with_hub(tmp_path):
    inst, dec = gen_random_instance(3, 7, 0, 3, profile="simple")
    ipath = tmp_path / "s.edp"
    ipath.write_text(serialize_instance(inst))
    hub = ",".join(str(v) for v in sorted(dec.bag(sorted(dec.nodes())[1])))
    code, out, _ = run_cli("solve", str(ipath), "--method", "simple", "--hub", hub, "--quiet")
    assert code == 0
    want = "YES" if brute_force_edp(inst, caps=None).feasible else "NO"
    assert out.splitlines()[0] == want


def test_solve_simple_witness_replays(tmp_path):
    for seed in range(40):
        inst, dec = gen_random_instance(seed, 6 + seed % 4, 0, 1 + seed % 4, profile="simple")
        if not brute_force_edp(inst, caps=None).feasible:
            continue
        ipath = tmp_path / f"w{seed}.edp"
        ipath.write_text(serialize_instance(inst))
        hub = ",".join(str(v) for v in sorted(dec.bag(sorted(dec.nodes())[1])))
        code, out, _ = run_cli("solve", str(ipath), "--method", "simple", "--hub", hub, "--witness", "--quiet")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        replay_witness(inst, lines[1:])


def test_solve_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.edp"
    bad.write_text("p edp 2 0 1\nt 1 1\n")
    code, _, err = run_cli("solve", str(bad))
    assert code == 2
    assert "self-pair" in err
    for text, line in (
        ("p edp 2 1 0\ne a b\n", "line 2"),
        ("p edp 1_0 0 0\n", "line 1"),
        ("p edp 2 1 0\ne \u0661 \uff12\n", "line 2"),
    ):
        bad.write_text(text, encoding="utf-8")
        code, _, err = run_cli("solve", str(bad))
        assert code == 2 and line in err

    tri = tmp_path / "tri.edp"
    tri.write_text("p edp 3 3 1\ne 1 2\ne 2 3\ne 1 3\nt 1 3\n")
    dec = tmp_path / "tri.dec"
    for text, line in (("d tcw x\n", "line 1"), ("d tcw 2\nn 1 0\nn 2 1 1 x\n", "line 3")):
        dec.write_text(text)
        code, _, err = run_cli("solve", str(tri), "--method", "treecut", "--decomposition", str(dec))
        assert code == 2 and line in err
    for hub in ("1,x", "1,\u0662", "1_0", "+1"):
        code, _, err = run_cli("solve", str(tri), "--method", "simple", "--hub", hub)
        assert code == 2 and "--hub" in err


def test_solve_treecut_needs_decomposition(triangle):
    code, _, err = run_cli("solve", triangle, "--method", "treecut")
    assert code == 3
    assert "decomposition" in err


def test_solve_cap_exceeded_exit_3(tmp_path, monkeypatch):
    # the cap flags are accepted and ignored: 14 edges over a cap of 4 get
    # the answer they get without the flags
    inst, _ = gen_random_instance(0, 12, 3, 2, profile="tree-plus")
    path = tmp_path / "big.edp"
    path.write_text(serialize_instance(inst))
    for method in ("oracle", "auto", "simple"):
        want = run_cli("solve", str(path), "--method", method)[:2]
        for flag in ("--cap-edges", "--cap-vertices"):
            assert run_cli("solve", str(path), "--method", method, flag, "4")[:2] == want
    assert run_cli("solve", str(path), "--method", "oracle")[:2] == (0, "NO\n")
    # the step budget is what makes the oracle give up
    inst, _ = gen_random_instance(2, 12, 3, 2, profile="tree-plus")
    path.write_text(serialize_instance(inst))
    steps = brute_force_edp(inst, caps=None).steps
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", steps - 1)
    code, out, err = run_cli("solve", str(path), "--method", "oracle")
    assert code == 3 and out == ""
    assert f"search budget of {steps - 1} steps exhausted" in err


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_has_no_default_size_cap(tmp_path, seed):
    # 57 edges, over the old default cap of 20: the step budget alone
    # bounds the search, which decides these at once
    inst, _ = gen_random_instance(seed, 50, 8, 3, profile="tree-plus")
    path = tmp_path / "treeplus.edp"
    path.write_text(serialize_instance(inst))
    code, out, _ = run_cli("solve", str(path), "--method", "oracle", "--quiet")
    assert code == 0 and out in ("YES\n", "NO\n")
    assert run_cli("solve", str(path), "--method", "auto", "--quiet")[:2] == (0, out)


def test_search_routes_more_pairs_than_the_recursion_limit(tmp_path):
    # 1,500 pairs, each the two ends of its own edge: the search keeps the
    # routed pairs on a stack of its own, not on the call stack
    q = 1500
    lines = [f"p edp {2 * q} {q} {q}"]
    lines += [f"e {2 * i - 1} {2 * i}" for i in range(1, q + 1)]
    lines += [f"t {2 * i - 1} {2 * i}" for i in range(1, q + 1)]
    path = tmp_path / "matching.edp"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli("solve", str(path), "--method", "auto", "--witness", "--quiet")
    assert code == 0
    routes = out.splitlines()
    assert routes[0] == "YES" and len(routes) == q + 1
    replay_witness(parse_instance(path.read_text()), routes[1:])
    code, out, _ = run_cli("solve", str(path), "--method", "oracle", "--cap-edges", "100000", "--quiet")
    assert code == 0 and out == "YES\n"


@pytest.fixture()
def auto_yes_over_cap(tmp_path):
    """A tree-plus instance of 305 edges that auto answers YES through its
    hub-shaped kernel, with no routes for the whole input."""
    inst, _ = gen_random_instance(0, 300, 6, 2, profile="tree-plus")
    path = tmp_path / "big.edp"
    path.write_text(serialize_instance(inst))
    return str(path), inst


def test_solve_witness_over_caps_prints_no_answer(auto_yes_over_cap, monkeypatch):
    # the witness search on the whole input runs out of its step budget;
    # exit 3 must leave stdout empty
    path, _ = auto_yes_over_cap
    code, out, err = run_cli("solve", path, "--method", "auto", "--quiet")
    assert code == 0 and out.splitlines() == ["YES"]
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", 5)
    code, out, err = run_cli("solve", path, "--method", "auto", "--witness", "--quiet")
    assert code == 3 and "witness" in err and "search budget of 5 steps exhausted" in err
    assert out == ""


def test_solve_witness_search_ignores_edge_cap(auto_yes_over_cap):
    # the witness search has the step budget alone, so an input far over
    # the default 20-edge cap still gets its paths
    path, inst = auto_yes_over_cap
    assert inst.graph.num_edges() > 20
    code, out, _ = run_cli("solve", path, "--method", "auto", "--witness", "--quiet")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    replay_witness(inst, lines[1:])


def test_solve_simple_off_hub_shape_exit_2(tmp_path):
    inst, _ = gen_random_instance(0, 12, 3, 2, profile="tree-plus")
    path = tmp_path / "tree.edp"
    path.write_text(serialize_instance(inst))
    code, out, err = run_cli("solve", str(path), "--method", "simple")
    assert code == 2 and out == ""
    assert "does not fit the hub/satellite shape" in err


@pytest.fixture()
def over_cap_kernel(tmp_path):
    """The first tree-plus instance (n=400, 8 chords, 2 pairs) whose kernel
    is open, has more than the default 20-edge cap and is not hub-shaped,
    so auto settles it by the kernel search; and that kernel."""
    for seed in range(50):
        inst, _ = gen_random_instance(seed, 400, 8, 2, profile="tree-plus")
        res = kernelize(inst)
        if res.answer is not None or res.instance.graph.num_edges() <= 20:
            continue
        try:
            preprocess_simple(res.instance, infer_hub(res.instance))
        except StructureError:
            path = tmp_path / "treeplus.edp"
            path.write_text(serialize_instance(inst))
            return str(path), res.instance
    pytest.fail("no tree-plus kernel over the old edge cap")


def test_auto_decides_kernel_over_old_edge_cap(over_cap_kernel):
    path, kernel = over_cap_kernel
    want = brute_force_edp(kernel, caps=None)
    code, out, err = run_cli("solve", path, "--method", "auto")
    assert code == 0
    assert out.splitlines()[0] == ("YES" if want.feasible else "NO")
    assert f"auto: kernel settled by brute force ({want.steps} search steps)" in err
    code, _, err = run_cli("solve", path, "--method", "auto", "--quiet")
    assert code == 0 and err == ""


def test_auto_exit_3_names_the_search_budget(over_cap_kernel, monkeypatch):
    path, _ = over_cap_kernel
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", 5)
    code, out, err = run_cli("solve", path, "--method", "auto", "--quiet")
    assert code == 3 and out == ""
    assert "search budget of 5 steps exhausted" in err


@pytest.fixture()
def cut_refuted_kernel(tmp_path):
    """The first tree-plus instance (n=400, 8 chords, 3 pairs) whose kernel
    is open, is not hub-shaped and is refuted by the root cut check of the
    kernel search; and that kernel's search result."""
    for seed in range(50):
        inst, _ = gen_random_instance(seed, 400, 8, 3, profile="tree-plus")
        res = kernelize(inst)
        if res.answer is not None:
            continue
        try:
            preprocess_simple(res.instance, infer_hub(res.instance))
        except StructureError:
            found = brute_force_edp(res.instance, caps=None)
            if found.cut is not None:
                path = tmp_path / "treeplus.edp"
                path.write_text(serialize_instance(inst))
                return str(path), found
    pytest.fail("no tree-plus kernel refuted by the cut condition")


def test_auto_names_the_cut_that_refutes_a_kernel(cut_refuted_kernel):
    path, found = cut_refuted_kernel
    assert len(found.cut) == 2
    code, out, err = run_cli("solve", path, "--method", "auto")
    assert code == 0 and out.splitlines() == ["NO"]
    assert "auto: kernel refuted by the cut condition (2 edges separate 3 pairs)" in err


def test_auto_slice_settles_a_hub_shaped_kernel_without_the_dp(auto_yes_over_cap, monkeypatch):
    import edpsolve.cli as cli

    path, inst = auto_yes_over_cap
    kernel = kernelize(inst).instance
    preprocess_simple(kernel, infer_hub(kernel))  # hub-shaped
    want = brute_force_edp(kernel, caps=None)
    calls = []
    monkeypatch.setattr(cli, "solve_simple_edp", lambda si: calls.append(si))
    code, out, err = run_cli("solve", path, "--method", "auto")
    assert code == 0 and out.splitlines() == ["YES"]
    assert f"auto: kernel settled by brute force ({want.steps} search steps)" in err
    assert calls == []


def test_auto_runs_the_dp_once_the_slice_runs_out(auto_yes_over_cap, monkeypatch):
    # a budget of 5 leaves a slice of one step, too few for this kernel
    path, inst = auto_yes_over_cap
    kernel = kernelize(inst).instance
    assert brute_force_edp(kernel, caps=None).steps > 1
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", 5)
    code, out, err = run_cli("solve", path, "--method", "auto")
    assert code == 0 and out.splitlines() == ["YES"]
    k = len(infer_hub(kernel))
    assert f"auto: kernel solved as a hub/satellite instance (hub of {k} vertices)" in err


def test_dp_budget_exit_3_and_auto_falls_back_to_the_full_search(auto_yes_over_cap, tmp_path, monkeypatch):
    from edpsolve import simple

    monkeypatch.setattr(simple, "HUB_DP_BUDGET", 1)
    inst, dec = gen_random_instance(3, 7, 0, 3, profile="simple")
    ipath = tmp_path / "s.edp"
    ipath.write_text(serialize_instance(inst))
    hub = ",".join(str(v) for v in sorted(dec.bag(sorted(dec.nodes())[1])))
    code, out, err = run_cli("solve", str(ipath), "--method", "simple", "--hub", hub)
    assert code == 3 and out == ""
    assert "hub DP budget of 1 vector sums and path extensions exhausted" in err
    # the slice (one step) and the DP run out; the full search decides and
    # the line counts the slice's step too
    path, inst = auto_yes_over_cap
    want = brute_force_edp(kernelize(inst).instance, caps=None)
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", want.steps)
    code, out, err = run_cli("solve", path, "--method", "auto")
    assert code == 0 and out.splitlines() == ["YES"]
    assert f"auto: kernel settled by brute force ({1 + want.steps} search steps)" in err


def test_auto_exit_3_names_every_budget_that_ran_out(auto_yes_over_cap, monkeypatch):
    from edpsolve import simple

    path, _ = auto_yes_over_cap
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", 5)
    monkeypatch.setattr(simple, "HUB_DP_BUDGET", 1)
    code, out, err = run_cli("solve", path, "--method", "auto")
    assert code == 3 and out == ""
    assert "the search slice gave up: search budget of 1 steps exhausted" in err
    assert "the hub DP gave up: hub DP budget of 1 vector sums and path extensions exhausted" in err
    assert "the full search gave up: search budget of 5 steps exhausted" in err
    assert "not hub-shaped" not in err


def test_auto_decides_a_kernel_with_a_large_hub_by_the_search(tmp_path):
    # the hub DP spends tens of seconds on this kernel (hub of 28 of 34
    # vertices); the slice settles it
    inst, _ = gen_random_instance(6, 400, 16, 3, profile="tree-plus")
    kernel = kernelize(inst).instance
    want = brute_force_edp(kernel, caps=None)
    path = tmp_path / "wide.edp"
    path.write_text(serialize_instance(inst))
    code, out, err = run_cli("solve", str(path), "--method", "auto")
    assert code == 0 and out.splitlines() == ["YES" if want.feasible else "NO"]
    assert f"auto: kernel settled by brute force ({want.steps} search steps)" in err


@pytest.fixture()
def tcw_open_kernel(tmp_path):
    """A bounded-tcw instance with its decomposition whose kernel is open
    and not hub-shaped, and the kernel's search result."""
    inst, dec = gen_random_instance(6, 40, 5, 2, profile="bounded-tcw")
    kernel = kernelize(inst).instance
    with pytest.raises(StructureError):
        preprocess_simple(kernel, infer_hub(kernel))
    path = tmp_path / "tcw.edp"
    path.write_text(serialize_instance(inst))
    (tmp_path / "tcw.edp.dec").write_text(serialize_decomposition(dec))
    return str(path), str(path) + ".dec", brute_force_edp(kernel, caps=None)


def test_treecut_budget_exit_3(tcw_open_kernel, monkeypatch):
    from edpsolve import frontier, treecut_dp

    monkeypatch.setattr(frontier, "FRONTIER_BUDGET", 0)  # the chain goes to the record DP
    path, dec, want = tcw_open_kernel
    code, out, _ = run_cli("solve", path, "--method", "treecut", "--decomposition", dec)
    assert code == 0 and out.splitlines() == ["YES" if want.feasible else "NO"]
    monkeypatch.setattr(treecut_dp, "RESIDUE_BUDGET", 64)  # 4^3: no node is refused before its records
    code, out, err = run_cli("solve", path, "--method", "treecut", "--decomposition", dec)
    assert code == 3 and out == ""
    assert "treecut budget of 64 residues exhausted" in err
    code, out, _ = run_cli("bench", str(Path(path).parent), "--methods", "treecut")
    assert code == 0 and out.splitlines()[1].split(",")[6] == "NA"


def test_auto_tries_the_decomposition_then_the_full_search(tcw_open_kernel, monkeypatch):
    from edpsolve import frontier, treecut_dp

    monkeypatch.setattr(frontier, "FRONTIER_BUDGET", 0)  # the chain goes to the record DP
    path, dec, want = tcw_open_kernel
    answer = ["YES" if want.feasible else "NO"]
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", want.steps)
    code, out, err = run_cli("solve", path, "--method", "auto", "--decomposition", dec)
    assert code == 0 and out.splitlines() == answer
    assert "auto: solved along the supplied decomposition" in err
    monkeypatch.setattr(treecut_dp, "RESIDUE_BUDGET", 1)
    code, out, err = run_cli("solve", path, "--method", "auto", "--decomposition", dec)
    assert code == 0 and out.splitlines() == answer
    assert f"auto: kernel settled by brute force ({1 + want.steps} search steps)" in err
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", want.steps - 1)
    code, out, err = run_cli("solve", path, "--method", "auto", "--decomposition", dec)
    assert code == 3 and out == ""
    assert "the kernel is not hub-shaped" in err
    assert "the treecut DP gave up: treecut budget of 1 residues exhausted" in err
    assert f"the full search gave up: search budget of {want.steps - 1} steps exhausted" in err


def test_frontier_budget_exit_falls_through_to_the_same_answer(tcw_open_kernel, monkeypatch):
    from edpsolve import frontier

    path, dec, want = tcw_open_kernel
    answer = ["YES" if want.feasible else "NO"]
    code, out, err = run_cli("solve", path, "--method", "treecut", "--decomposition", dec)
    assert code == 0 and out.splitlines() == answer
    assert err.startswith("treecut: decided by the frontier DP along the bag order (cut 3, peak ")
    assert run_cli("solve", path, "--method", "treecut", "--decomposition", dec, "--quiet") == (0, out, "")
    monkeypatch.setattr(frontier, "FRONTIER_BUDGET", 10)
    code, out, err = run_cli("solve", path, "--method", "treecut", "--decomposition", dec)
    assert code == 0 and out.splitlines() == answer
    assert err == "treecut: decided by the record DP\n"
    code, out, _ = run_cli("bench", str(Path(path).parent), "--methods", "treecut")
    assert code == 0 and out.splitlines()[1].split(",")[6] == answer[0]


def test_path_shaped_decomposition_with_a_partition_error_exits_2(tmp_path, triangle):
    from edpsolve.decomposition import DecompositionError, parse_decomposition
    from edpsolve.treecut_dp import solve_treecut

    inst = parse_instance(Path(triangle).read_text())
    for text in ("d tcw 3\nn 1 0\nn 2 1 1\nn 3 2 2\n", "d tcw 3\nn 1 0\nn 2 1 1 2\nn 3 2 2 3 4\n"):
        dec = tmp_path / "path.dec"
        dec.write_text(text)
        with pytest.raises(DecompositionError) as info:
            solve_treecut(inst, parse_decomposition(text))
        assert str(info.value).startswith("invalid decomposition: ")
        argv = ("solve", triangle, "--method", "treecut", "--decomposition", str(dec))
        assert run_cli(*argv) == (2, "", f"error: {info.value}\n")


def test_a_star_in_one_bag_falls_through_to_the_record_dp(tmp_path):
    # the centre comes first in the bag, so the frontier DP leaves or joins
    # its 1,200 edges one at a time: the budget, not the stack, stops it
    from edpsolve.graphs import EDPInstance, MultiGraph

    g = MultiGraph(range(1, 1202), {i: (1, i + 1) for i in range(1, 1201)})
    path = tmp_path / "star.edp"
    path.write_text(serialize_instance(EDPInstance(g, {1: frozenset((2, 3))})))
    Path(f"{path}.dec").write_text("d tcw 1\nn 1 0 " + " ".join(map(str, range(1, 1202))) + "\n")
    argv = ("solve", str(path), "--method", "treecut", "--decomposition", f"{path}.dec")
    assert run_cli(*argv) == (0, "YES\n", "treecut: decided by the record DP\n")
    code, out, _ = run_cli("bench", str(tmp_path), "--methods", "treecut")
    assert code == 0 and out.splitlines()[1].split(",")[6] == "YES"


def test_treecut_witness_on_a_chain_comes_from_the_frontier_dp(tmp_path, monkeypatch):
    import edpsolve.cli as cli

    def no_search(*args, **kwargs):
        raise AssertionError("the witness was searched for")

    monkeypatch.setattr(cli, "brute_force_edp", no_search)
    yes = 0
    for seed in range(12):
        inst, dec = gen_random_instance(seed, 30 + seed, 4, 2 + seed % 2, profile="bounded-tcw")
        path, dpath = tmp_path / f"w{seed}.edp", tmp_path / f"w{seed}.dec"
        path.write_text(serialize_instance(inst))
        dpath.write_text(serialize_decomposition(dec))
        code, out, _ = run_cli("solve", str(path), "--method", "treecut", "--decomposition", str(dpath), "--witness")
        assert code == 0
        lines = out.splitlines()
        if lines[0] == "YES":
            yes += 1
            replay_witness(inst, lines[1:])
        else:
            assert lines == ["NO"]
    assert yes >= 4


def test_auto_and_kernelize_on_disjoint_union(tmp_path):
    # three tree-plus components with interleaved edge ids, a YES instance
    # whose kernel is open and not hub-shaped
    inst = tree_plus_union(5)
    assert len(inst.graph.connected_components()) == 3
    want = "YES" if brute_force_edp(inst, caps=None).feasible else "NO"
    path = tmp_path / "union.edp"
    path.write_text(serialize_instance(inst))
    code, out, _ = run_cli("solve", str(path), "--method", "auto", "--quiet")
    assert code == 0 and out.splitlines() == [want]
    code, out, err = run_cli("kernelize", str(path))
    assert code == 0 and err.rstrip().endswith("answer=OPEN")
    assert ("YES" if brute_force_edp(parse_instance(out), caps=None).feasible else "NO") == want


def test_kernelize_summary(triangle, tmp_path):
    out_path = tmp_path / "kernel.edp"
    code, out, _ = run_cli("kernelize", triangle, "-o", str(out_path))
    assert code == 0
    summary = out.strip()
    assert summary.startswith("fes=") and "answer=" in summary
    parse_instance(out_path.read_text())  # kernel file parses back
    # flags of other subcommands are rejected, not silently ignored
    for flag in (("--seed", "1"), ("--cap-edges", "3"), ("--quiet",)):
        with pytest.raises(SystemExit) as exc:
            run_cli("kernelize", triangle, *flag)
        assert exc.value.code == 2


def test_kernelize_settled_instance_prints_zero_bound(tmp_path):
    # the kernel settles the path 1-2-3 with X empty, so it keeps no vertex
    path = tmp_path / "path.edp"
    path.write_text("p edp 3 2 1\ne 1 2\ne 2 3\nt 1 3\n")
    code, out, _ = run_cli("kernelize", str(path), "-o", str(tmp_path / "kernel.edp"))
    assert code == 0
    assert out.split() == ["fes=0", "kernel_vertices=0", "bound=0", "answer=YES"]


def test_generate_roundtrip_and_determinism(tmp_path):
    a = tmp_path / "a.edp"
    b = tmp_path / "b.edp"
    for target in (a, b):
        code, _, _ = run_cli(
            "generate", "--type", "random", "--profile", "bounded-tcw",
            "--seed", "9", "-n", "8", "--extra-edges", "2", "--pairs", "2",
            "-o", str(target), "--decomposition-out", str(target) + ".dec",
        )
        assert code == 0
    assert a.read_text() == b.read_text()
    assert Path(str(a) + ".dec").read_text() == Path(str(b) + ".dec").read_text()
    parse_instance(a.read_text())


def test_generate_mss_writes_hub_comment(tmp_path):
    path = tmp_path / "mss.edp"
    code, _, _ = run_cli("generate", "--type", "mss", "--mss", "k=1,S=2;2,t=2,l=1", "-o", str(path))
    assert code == 0
    text = path.read_text()
    assert "# hub:" in text
    parse_instance(text)


def test_generate_mss_bad_spec_exit_2():
    code, _, err = run_cli("generate", "--type", "mss", "--mss", "k=1,S=1,t=2,l=1")
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize(
    "spec, message", [("k=1,S=2,t=2,l=1,q=7", "unknown --mss field 'q'"), ("k=1,S=2,t=2,l=1,k=2", "repeated --mss field 'k'")]
)
def test_generate_mss_unknown_or_repeated_field_exit_2(spec, message):
    code, out, err = run_cli("generate", "--type", "mss", "--mss", spec)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("spec", ["k=0,S=,t=,l=+0", "k=1,S=\u0662,t=\u0664,l=1", "k=1,S=2,t=4,l=+1", "k=1,S=2_0,t=4,l=1"])
def test_generate_mss_takes_strict_integers(spec):
    # '+', '_' and non-ASCII digits, which int() takes, exit 2 as in the
    # text formats and in --hub
    code, out, err = run_cli("generate", "--type", "mss", "--mss", spec)
    assert code == 2 and out == ""
    assert "--mss" in err


def test_verify_decomposition_output(tmp_path, triangle):
    dec = tmp_path / "tri.dec"
    dec.write_text("d tcw 2\nn 1 0\nn 2 1 1 2 3\n")
    code, out, _ = run_cli("verify-decomposition", triangle, str(dec))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "width 3"
    assert any(line.startswith("node 2: tor=3 adh=0") for line in lines)


def test_verify_decomposition_invalid_exit_2(tmp_path, triangle):
    dec = tmp_path / "bad.dec"
    dec.write_text("d tcw 2\nn 1 0\nn 2 1 1 2\n")  # vertex 3 uncovered
    code, _, err = run_cli("verify-decomposition", triangle, str(dec))
    assert code == 2
    assert "invalid" in err


def test_reduce_to_vdp_writes_instance(triangle, tmp_path):
    out_path = tmp_path / "vdp.edp"
    code, _, _ = run_cli("reduce-to-vdp", triangle, "-o", str(out_path))
    assert code == 0
    reduced = parse_instance(out_path.read_text())
    assert len(reduced.pairs) == 1


def test_unwritable_output_exit_2(triangle, tmp_path):
    missing = str(tmp_path / "missing" / "out")
    for argv in (
        ("generate", "-o", missing),
        ("generate", "--profile", "bounded-tcw", "-o", str(tmp_path / "g.edp"), "--decomposition-out", missing),
        ("kernelize", triangle, "-o", missing),
        ("reduce-to-vdp", triangle, "-o", missing),
    ):
        code, _, err = run_cli(*argv)
        assert code == 2, argv
        assert err.startswith("error:") and "missing" in err, argv


def test_reduce_to_vdp_override(tmp_path):
    path = tmp_path / "over.edp"
    path.write_text("p edp 3 1 2\ne 1 2\nt 1 2\nt 1 3\n")
    code, out, _ = run_cli("reduce-to-vdp", str(path), "--quiet")
    assert code == 0
    assert out.strip() == "NO"


def test_bench_rows_and_determinism(tmp_path):
    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    for seed in range(3):
        inst, _ = gen_random_instance(seed, 6, 1, 2, profile="tree-plus")
        (bench_dir / f"i{seed}.edp").write_text(serialize_instance(inst))
    code, out1, _ = run_cli("bench", str(bench_dir), "--methods", "auto,oracle")
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "instance,method,n,m,pairs,fes,answer,seconds"
    assert len(lines) == 1 + 3 * 2
    code, out2, _ = run_cli("bench", str(bench_dir), "--methods", "auto,oracle")
    answers1 = [line.split(",")[:7] for line in out1.splitlines()]
    answers2 = [line.split(",")[:7] for line in out2.splitlines()]
    assert answers1 == answers2
    per_instance = {}
    for line in lines[1:]:
        name, _method, *_rest, answer, _t = line.split(",")
        per_instance.setdefault(name, set()).add(answer)
    assert all(len(ans) == 1 for ans in per_instance.values())


def test_bench_disagreement_exit_1(tmp_path, monkeypatch):
    import edpsolve.cli as cli

    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    for seed in range(2):
        inst, _ = gen_random_instance(seed, 6, 1, 2, profile="tree-plus")
        (bench_dir / f"i{seed}.edp").write_text(serialize_instance(inst))
    decide = cli._decide

    def flipped(inst, method, *args):
        feasible, routes, how = decide(inst, method, *args)
        return (not feasible if method == "oracle" else feasible), routes, how

    monkeypatch.setattr(cli, "_decide", flipped)
    code, out, err = run_cli("bench", str(bench_dir), "--methods", "auto,oracle")
    assert code == 1
    assert len(out.strip().splitlines()) == 1 + 2 * 2
    assert err.splitlines() == ["# DISAGREE i0.edp: NO,YES", "# DISAGREE i1.edp: NO,YES"]


def test_bench_auto_uses_decomposition(tmp_path, monkeypatch):
    # kernels that are not hub-shaped and that the search decides in 137
    # (no) and 309 (yes) steps: under a smaller step budget auto decides
    # both along the supplied decomposition
    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    steps = []
    for name, args in (("no", (32, 40, 5, 2)), ("yes", (11, 60, 7, 2))):
        inst, dec = gen_random_instance(*args, profile="bounded-tcw")
        (bench_dir / f"{name}.edp").write_text(serialize_instance(inst))
        (bench_dir / f"{name}.edp.dec").write_text(serialize_decomposition(dec))
        steps.append(brute_force_edp(kernelize(inst).instance, caps=None).steps)
    assert min(steps) > 1
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", min(steps) - 1)
    code, out, _ = run_cli("bench", str(bench_dir), "--methods", "auto")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[6] for line in out.strip().splitlines()[1:]}
    for name in ("no", "yes"):
        path = str(bench_dir / f"{name}.edp")
        code, solved, err = run_cli("solve", path, "--method", "auto", "--decomposition", path + ".dec")
        assert code == 0 and err == "auto: solved along the supplied decomposition\n"
        assert rows[f"{name}.edp"] == solved.splitlines()[0] == name.upper()


def test_bench_empty_directory_header_only(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, out, _ = run_cli("bench", str(empty))
    assert code == 0
    assert out.strip() == "instance,method,n,m,pairs,fes,answer,seconds"


def test_bench_missing_directory_exit_2(tmp_path):
    code, _, _ = run_cli("bench", str(tmp_path / "missing"))
    assert code == 2


def test_bench_na_rows_for_caps_and_shape(tmp_path, monkeypatch):
    # a method that cannot answer writes NA and takes no part in the
    # agreement check: oracle over its step budget, simple off the hub
    # shape; auto answers by the hub DP on the kernel
    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    inst, _ = gen_random_instance(2, 12, 3, 2, profile="tree-plus")
    (bench_dir / "tree.edp").write_text(serialize_instance(inst))
    monkeypatch.setattr(oracle, "SEARCH_STEP_BUDGET", brute_force_edp(inst, caps=None).steps - 1)
    code, out, _ = run_cli("bench", str(bench_dir), "--methods", "auto,oracle,simple")
    assert code == 0
    answers = {row.split(",")[1]: row.split(",")[6] for row in out.strip().splitlines()[1:]}
    assert answers["oracle"] == answers["simple"] == "NA"
    assert answers["auto"] == ("YES" if brute_force_edp(inst, caps=None).feasible else "NO")


def test_bench_unknown_method_exit_2(tmp_path):
    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    inst, _ = gen_random_instance(0, 6, 1, 2, profile="tree-plus")
    (bench_dir / "i0.edp").write_text(serialize_instance(inst))
    code, out, err = run_cli("bench", str(bench_dir), "--methods", "auto,orcale")
    assert code == 2 and out == ""
    assert "'orcale'" in err


def test_non_utf8_input_exit_2_with_its_line(tmp_path, triangle):
    bad_inst = tmp_path / "bad.edp"
    bad_inst.write_bytes(b"p edp 3 3 1\ne 1 2\ne 2 3 # \xe9\ne 1 3\nt 1 3\n")
    good_dec = tmp_path / "tri.dec"
    good_dec.write_text("d tcw 2\nn 1 0\nn 2 1 1 2 3\n")
    bad_dec = tmp_path / "bad.dec"
    bad_dec.write_bytes(b"d tcw 2\r\nn 1 0\r\n\xffn 2 1 1 2 3\r\n")
    inst_error = "error: line 3: invalid UTF-8 byte 0xe9\n"
    dec_error = "error: line 3: invalid UTF-8 byte 0xff\n"
    for argv, expected in (
        (("solve", str(bad_inst)), inst_error),
        (("kernelize", str(bad_inst)), inst_error),
        (("verify-decomposition", str(bad_inst), str(good_dec)), inst_error),
        (("verify-decomposition", triangle, str(bad_dec)), dec_error),
        (("reduce-to-vdp", str(bad_inst)), inst_error),
        (("solve", triangle, "--method", "treecut", "--decomposition", str(bad_dec)), dec_error),
    ):
        assert run_cli(*argv) == (2, "", expected), argv

    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    path = bench_dir / "i0.edp"
    path.write_bytes(bad_inst.read_bytes())
    code, _, err = run_cli("bench", str(bench_dir), "--methods", "treecut")
    assert (code, err) == (2, f"error: {path}: line 3: invalid UTF-8 byte 0xe9\n")
    path.write_text(Path(triangle).read_text())
    (bench_dir / "i0.edp.dec").write_bytes(bad_dec.read_bytes())
    code, _, err = run_cli("bench", str(bench_dir), "--methods", "treecut")
    assert (code, err) == (2, f"error: {path}.dec: line 3: invalid UTF-8 byte 0xff\n")


def test_bench_malformed_decomposition_exit_2(tmp_path):
    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    inst, _ = gen_random_instance(0, 8, 2, 2, profile="bounded-tcw")
    path = bench_dir / "i0.edp"
    path.write_text(serialize_instance(inst))
    (bench_dir / "i0.edp.dec").write_text("d tcw 2\nn 1 0\nn 2\n")
    code, _, err = run_cli("bench", str(bench_dir), "--methods", "treecut")
    assert code == 2
    assert f"{path}.dec: line 3: malformed node line" in err
    code, _, err = run_cli("solve", str(path), "--method", "treecut", "--decomposition", f"{path}.dec")
    assert code == 2 and "line 3: malformed node line" in err


def test_bench_does_not_hide_a_soundness_error(tmp_path, monkeypatch):
    # a broken DP invariant is a fault, not a method that cannot answer
    import edpsolve.cli as cli

    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    inst, dec = gen_random_instance(0, 8, 2, 2, profile="bounded-tcw")
    (bench_dir / "i0.edp").write_text(serialize_instance(inst))
    (bench_dir / "i0.edp.dec").write_text(serialize_decomposition(dec))

    def unsound(*args):
        raise RuntimeError("the root keeps a non-empty record")

    monkeypatch.setattr(cli, "solve_frontier", unsound)
    monkeypatch.setattr(cli, "solve_treecut", unsound)
    with pytest.raises(RuntimeError, match="non-empty record"):
        run_cli("bench", str(bench_dir), "--methods", "treecut")
