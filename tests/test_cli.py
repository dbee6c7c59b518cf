import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from edpsolve.cli import main
from edpsolve.generators import gen_random_instance
from edpsolve.graphs import parse_instance, serialize_instance
from edpsolve.oracle import RoutedPath, brute_force_edp, check_witness


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
        from edpsolve.decomposition import serialize_decomposition

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
    bad.write_text("p edp 2 1 0\ne a b\n")
    code, _, err = run_cli("solve", str(bad))
    assert code == 2 and "line 2" in err

    tri = tmp_path / "tri.edp"
    tri.write_text("p edp 3 3 1\ne 1 2\ne 2 3\ne 1 3\nt 1 3\n")
    dec = tmp_path / "tri.dec"
    for text, line in (("d tcw x\n", "line 1"), ("d tcw 2\nn 1 0\nn 2 1 1 x\n", "line 3")):
        dec.write_text(text)
        code, _, err = run_cli("solve", str(tri), "--method", "treecut", "--decomposition", str(dec))
        assert code == 2 and line in err
    code, _, err = run_cli("solve", str(tri), "--method", "simple", "--hub", "1,x")
    assert code == 2 and "--hub" in err


def test_solve_treecut_needs_decomposition(triangle):
    code, _, err = run_cli("solve", triangle, "--method", "treecut")
    assert code == 3
    assert "decomposition" in err


def test_solve_cap_exceeded_exit_3(tmp_path):
    inst, _ = gen_random_instance(0, 12, 3, 2, profile="tree-plus")
    path = tmp_path / "big.edp"
    path.write_text(serialize_instance(inst))
    code, _, err = run_cli("solve", str(path), "--method", "oracle", "--cap-edges", "4")
    assert code == 3


def test_solve_witness_over_caps_prints_no_answer(tmp_path):
    # auto answers YES through the kernel, but the witness needs the capped
    # oracle on the whole input; exit 3 must leave stdout empty
    inst, _ = gen_random_instance(0, 300, 6, 2, profile="tree-plus")
    path = tmp_path / "big.edp"
    path.write_text(serialize_instance(inst))
    code, out, err = run_cli("solve", str(path), "--method", "auto", "--quiet")
    assert code == 0 and out.splitlines() == ["YES"]
    code, out, err = run_cli("solve", str(path), "--method", "auto", "--witness", "--quiet")
    assert code == 3 and "witness" in err
    assert out == ""


def test_kernelize_summary(triangle, tmp_path):
    out_path = tmp_path / "kernel.edp"
    code, out, _ = run_cli("kernelize", triangle, "-o", str(out_path))
    assert code == 0
    summary = out.strip()
    assert summary.startswith("fes=") and "answer=" in summary
    parse_instance(out_path.read_text())  # kernel file parses back


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


def test_bench_auto_uses_decomposition(tmp_path):
    from edpsolve.decomposition import serialize_decomposition

    bench_dir = tmp_path / "corpus"
    bench_dir.mkdir()
    for name, args in (("no", (24, 40, 5, 2)), ("yes", (11, 60, 7, 2))):
        inst, dec = gen_random_instance(*args, profile="bounded-tcw")
        (bench_dir / f"{name}.edp").write_text(serialize_instance(inst))
        (bench_dir / f"{name}.edp.dec").write_text(serialize_decomposition(dec))
    code, out, _ = run_cli("bench", str(bench_dir), "--methods", "auto")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[6] for line in out.strip().splitlines()[1:]}
    for name in ("no", "yes"):
        path = str(bench_dir / f"{name}.edp")
        code, solved, _ = run_cli("solve", path, "--method", "auto", "--decomposition", path + ".dec", "--quiet")
        assert code == 0
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
