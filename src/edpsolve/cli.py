"""Command-line front end: solve, kernelize, generate, verify-decomposition,
reduce-to-vdp and bench subcommands.

Answers go to stdout (first line YES or NO), diagnostics to stderr.  Exit
codes: 0 for a definite answer, 1 when `bench` methods disagree, 2 for I/O
or validation problems, 3 when no applicable method remains.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time
from pathlib import Path

from . import oracle
from .decomposition import DecompositionError, TreecutDecomposition, parse_decomposition, partition_errors, serialize_decomposition, verify_decomposition
from .frontier import solve_frontier
from .generators import edp_to_vdp, gen_mss_layout, gen_random_instance
from .graphs import EDPInstance, ParseError, StructureError, feedback_edge_set, parse_instance, parse_ints, relabel_compact, serialize_instance
from .kernel import kernelize
from .oracle import CapExceeded, RoutedPath, brute_force_edp
from .simple import infer_hub, preprocess_simple, solve_simple_edp
from .treecut_dp import solve_treecut

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INVALID = 2
EXIT_NO_METHOD = 3

METHODS = ("oracle", "simple", "treecut", "auto")


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_instance(path: str | Path) -> EDPInstance:
    return parse_instance(Path(path).read_bytes())


def cmd_solve(args) -> int:
    if args.method == "treecut" and not args.decomposition:
        return _fail("--method treecut requires --decomposition", EXIT_NO_METHOD)
    try:
        inst = _load_instance(args.instance)
        hub = _parse_hub(args.hub) if args.hub else None
        feasible, routes, how = _decide(inst, args.method, args.decomposition, hub, args.witness)
    except StructureError as exc:
        return _fail(f"instance does not fit the hub/satellite shape: {exc}", EXIT_INVALID)
    except CapExceeded as exc:
        return _fail(str(exc), EXIT_NO_METHOD)
    if how:
        _info(args, f"{args.method}: {how}")
    if args.witness and feasible and routes is None:
        # witness reconstruction through kernels and the record DP is not
        # wired up; search for one before anything reaches stdout
        try:
            routes = brute_force_edp(inst).routes
        except CapExceeded as exc:
            return _fail(f"witness requested but the brute-force search gave up: {exc}", EXIT_NO_METHOD)
    print("YES" if feasible else "NO")
    if args.witness and feasible and routes is not None:
        for pid in inst.sorted_pairs():
            print(" ".join(str(v) for v in routes[pid].vertices))
    return EXIT_OK


def _decide(
    inst: EDPInstance,
    method: str,
    decomposition: str | Path | None = None,
    hub: frozenset[int] | None = None,
    witness: bool = False,
) -> tuple[bool, dict[int, RoutedPath] | None, str | None]:
    """Answer `inst` with `method`: oracle, simple, treecut or auto.

    Returns the answer, the routes when the method routed `inst` itself
    (oracle, simple, and the frontier DP when `witness` is set), and which
    decider answered for treecut and auto.  The decomposition file is read
    only once the method needs it.  The oracle method searches under the
    step budget, `oracle.SEARCH_STEP_BUDGET`.  Treecut decides along the
    decomposition with `_solve_along`: the frontier DP on a path-shaped
    decomposition under its budget, else the record DP under its residue
    budget.

    Auto kernelizes, then decides an open kernel by the kernel search under
    a slice of a hundredth of `oracle.SEARCH_STEP_BUDGET` (at least one
    step).  Only when the slice runs out does it try, in order, the
    hub/satellite DP under its effort budget, the supplied decomposition as
    treecut decides it, and the search under the full budget.  Every
    decider is exact, so the order moves only the time: the slice caps what
    trying the search first costs, and the DP, which is XP in the hub size,
    runs only on kernels that the slice does not settle.

    Raises CapExceeded when an effort budget runs out (for auto: every
    decider gave up; the message names each budget that ran out),
    StructureError off the hub/satellite shape, DecompositionError for a
    missing or bad decomposition, and OSError or ParseError while reading
    one.
    """
    if method == "oracle":
        res = brute_force_edp(inst)
        return res.feasible, res.routes, None
    if method == "simple":
        res = solve_simple_edp(preprocess_simple(inst, hub if hub is not None else infer_hub(inst)))
        return res.feasible, res.routes, None
    if method == "treecut":
        if decomposition is None:
            raise DecompositionError("--method treecut requires a decomposition")
        return _solve_along(inst, decomposition, witness)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    kres = kernelize(inst)
    if kres.answer is not None:
        return kres.answer == "YES", None, "settled by kernelization"
    kernel = kres.instance
    share = max(1, oracle.SEARCH_STEP_BUDGET // 100)
    spent = 0  # search steps of a slice that ran out
    try:
        res = brute_force_edp(kernel, budget=share)
    except CapExceeded as exc:
        spent, gave_up = share, [f"the search slice gave up: {exc}"]
        kernel_hub = infer_hub(kernel)
        try:
            feasible = solve_simple_edp(preprocess_simple(kernel, kernel_hub)).feasible
            return feasible, None, f"kernel solved as a hub/satellite instance (hub of {len(kernel_hub)} vertices)"
        except StructureError:
            gave_up.append("the kernel is not hub-shaped")
        except CapExceeded as exc:
            gave_up.append(f"the hub DP gave up: {exc}")
        if decomposition is None:
            gave_up.append("no decomposition was supplied")
        else:
            try:
                feasible, routes, _ = _solve_along(inst, decomposition, witness)
                return feasible, routes, "solved along the supplied decomposition"
            except CapExceeded as exc:
                gave_up.append(f"the treecut DP gave up: {exc}")
        try:
            res = brute_force_edp(kernel)
        except CapExceeded as exc:
            gave_up.append(f"the full search gave up: {exc}")
            raise CapExceeded("no applicable method: " + "; ".join(gave_up)) from None
    if res.cut is not None:
        sizes = f"{len(res.cut)} edges separate {_separated(kernel, res.cut)} pairs"
        return False, None, f"kernel refuted by the cut condition ({sizes})"
    return res.feasible, None, f"kernel settled by brute force ({spent + res.steps} search steps)"


def _solve_along(
    inst: EDPInstance, decomposition: str | Path, witness: bool
) -> tuple[bool, dict[int, RoutedPath] | None, str]:
    """Decide `inst` along the decomposition file: the answer, the routes
    when `witness` and the frontier DP answered YES, and which decider
    answered.

    When every node has at most one child, the vertices bag by bag from the
    root (each bag ascending) are an order whose cut after each bag is that
    node's adhesion, and the frontier DP decides along it after the partition
    check alone.  When its budget runs out, or on any other decomposition,
    the record DP decides, with its own checks and budget.
    """
    dec = _load_decomposition(decomposition)
    order = _path_order(dec)
    if order is not None:
        if errors := partition_errors(inst, dec):
            raise DecompositionError("invalid decomposition: " + "; ".join(errors))
        try:
            res = solve_frontier(inst, order)
        except CapExceeded:
            pass
        else:
            routes = res.routes() if witness else None
            return res.feasible, routes, f"decided by the frontier DP along the bag order (cut {res.cut}, peak {res.peak} states)"
    return solve_treecut(inst, dec).feasible, None, "decided by the record DP"


def _path_order(dec: TreecutDecomposition) -> list[int] | None:
    """The vertices bag by bag from the root, each bag ascending, when every
    node has at most one child; None otherwise."""
    order, node = [], dec.root
    while True:
        order += sorted(dec.bag(node))
        kids = dec.children(node)
        if len(kids) != 1:
            return None if kids else order
        node = kids[0]


def _separated(inst: EDPInstance, cut: tuple[int, ...]) -> int:
    """How many pairs of `inst` lose every path when the edges `cut` go."""
    g = inst.graph.copy()
    for eid in cut:
        g.remove_edge(eid)
    comp = {v: i for i, part in enumerate(g.connected_components()) for v in part}
    return sum(len({comp[v] for v in pair}) == 2 for pair in inst.pairs.values())


def _load_decomposition(path: str | Path) -> TreecutDecomposition:
    return parse_decomposition(Path(path).read_bytes())


def _parse_hub(spec: str) -> frozenset[int]:
    return frozenset(parse_ints(spec.replace(",", " ").split(), f"--hub {spec!r}"))


def cmd_kernelize(args) -> int:
    res = kernelize(_load_instance(args.instance))
    compact, _ = relabel_compact(res.instance)
    text = serialize_instance(compact)
    summary = (
        f"fes={len(res.fes_edges)} kernel_vertices={res.instance.graph.num_vertices()} "
        f"bound={res.size_bound} answer={res.answer or 'OPEN'}"
    )
    if args.output:
        Path(args.output).write_text(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.type == "mss":
        if not args.mss:
            return _fail("--type mss requires --mss k=..,S=..,t=..,l=..", EXIT_INVALID)
        try:
            k, items, target, min_count = _parse_mss(args.mss)
            build = gen_mss_layout(k, items, target, min_count, expand_multiedges=args.expand_multiedges)
        except ValueError as exc:
            return _fail(str(exc), EXIT_INVALID)
        layout = build.layout
        text = serialize_instance(layout.instance)
        text += "# hub: " + " ".join(str(v) for v in layout.hub) + "\n"
        _write_or_print(args.output, text)
        return EXIT_OK
    try:
        inst, dec = gen_random_instance(
            args.seed, args.num_vertices, args.extra_edges, args.pairs, profile=args.profile
        )
    except StructureError as exc:
        return _fail(str(exc), EXIT_INVALID)
    _write_or_print(args.output, serialize_instance(inst))
    if dec is not None:
        dec_path = args.decomposition_out or (args.output + ".dec" if args.output else None)
        if dec_path:
            Path(dec_path).write_text(serialize_decomposition(dec))
        elif not args.output:
            sys.stdout.write(serialize_decomposition(dec))
    return EXIT_OK


def _write_or_print(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_mss(spec: str) -> tuple[int, list[tuple[int, ...]], tuple[int, ...], int]:
    """Grammar: k=2,S=2:2;0:4,t=4:4,l=1, each field once (entries
    ':'-separated, vectors ';'-separated; an empty S is written S=).
    Numbers are read by `strict_int`, as in the text formats."""
    names, fields = {"k", "S", "t", "l"}, {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"malformed --mss field {part!r}")
        key, value = (x.strip() for x in part.split("=", 1))
        if key not in names or key in fields:
            raise ValueError(f"{'repeated' if key in fields else 'unknown'} --mss field {key!r}")
        fields[key] = value
    missing = names - set(fields)
    if missing:
        raise ValueError(f"--mss is missing {sorted(missing)}")
    what = f"--mss {spec!r}"
    k, min_count = parse_ints((fields["k"], fields["l"]), what)
    items = [tuple(parse_ints(vec.split(":"), what)) for vec in fields["S"].split(";") if vec]
    target = tuple(parse_ints(fields["t"].split(":"), what)) if fields["t"] else ()
    return k, items, target, min_count


def cmd_verify_decomposition(args) -> int:
    report = verify_decomposition(_load_instance(args.instance), _load_decomposition(args.decomposition))
    if not report.valid:
        for err in report.errors:
            print(f"invalid: {err}", file=sys.stderr)
        return EXIT_INVALID
    for node in sorted(report.per_node):
        tor, adh = report.per_node[node]
        print(f"node {node}: tor={tor} adh={adh}")
    print(f"width {report.width}")
    return EXIT_OK


def cmd_reduce_to_vdp(args) -> int:
    red = edp_to_vdp(_load_instance(args.instance))
    if red.answer_override is not None:
        print(red.answer_override)
        _info(args, "a vertex occurs in more pairs than its degree; the input is already settled")
        return EXIT_OK
    _write_or_print(args.output, serialize_instance(red.instance))
    return EXIT_OK


def cmd_bench(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        return _fail(f"{args.directory} is not a directory", EXIT_INVALID)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if unknown := [m for m in methods if m not in METHODS]:
        return _fail(f"unknown method {unknown[0]!r} in --methods; choose from {', '.join(METHODS)}", EXIT_INVALID)
    out = csv.writer(sys.stdout)
    out.writerow(["instance", "method", "n", "m", "pairs", "fes", "answer", "seconds"])
    disagree = False
    for path in sorted(root.glob("*.edp")):
        try:
            inst = _load_instance(path)
        except ParseError as exc:
            return _fail(f"{path}: {exc}", EXIT_INVALID)
        n, m, q = inst.graph.num_vertices(), inst.graph.num_edges(), len(inst.pairs)
        fes = len(feedback_edge_set(inst.graph))
        dec_path = path.with_suffix(path.suffix + ".dec")
        decomposition = dec_path if dec_path.exists() else None
        answers = set()
        for method in methods:
            start = time.perf_counter()
            try:
                answer = "YES" if _decide(inst, method, decomposition)[0] else "NO"
            except ParseError as exc:  # the instance parsed, so the decomposition did not
                return _fail(f"{dec_path}: {exc}", EXIT_INVALID)
            except (CapExceeded, StructureError, DecompositionError):
                answer = "NA"
            elapsed = time.perf_counter() - start
            out.writerow([path.name, method, n, m, q, fes, answer, f"{elapsed:.4f}"])
            if answer != "NA":
                answers.add(answer)
        if len(answers) > 1:
            disagree = True
            print(f"# DISAGREE {path.name}: {','.join(sorted(answers))}", file=sys.stderr)
    return EXIT_DISAGREE if disagree else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edpsolve", description="Edge-disjoint paths toolkit")
    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--cap-edges", type=int, help="accepted and ignored: no search has a size cap, only a step budget")
    caps.add_argument("--cap-vertices", type=int, help="accepted and ignored: no method runs a vertex-disjoint search")
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[caps, quiet], help="decide an instance")
    p.add_argument("instance")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--decomposition", help="treecut decomposition file")
    p.add_argument("--witness", action="store_true", help="print one path per pair")
    p.add_argument("--hub", help="explicit hub vertices for --method simple, e.g. '1,2,3'")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernelize", help="shrink an instance")
    p.add_argument("instance")
    p.add_argument("-o", "--output", help="write the kernel here instead of stdout")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("generate", help="emit test instances")
    p.add_argument("--seed", type=int, default=0, help="seed for --type random")
    p.add_argument("--type", choices=("mss", "random"), default="random")
    p.add_argument("--profile", choices=("tree-plus", "simple", "bounded-tcw"), default="tree-plus")
    p.add_argument("--mss", help="subset-sum parameters: k=..,S=..,t=..,l=..")
    p.add_argument("--expand-multiedges", action="store_true", help="subdivide parallel edges")
    p.add_argument("-n", "--num-vertices", type=int, default=8)
    p.add_argument("--extra-edges", type=int, default=2)
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("-o", "--output", help="instance file to write")
    p.add_argument("--decomposition-out", help="decomposition file to write, when the profile has one")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify-decomposition", help="check width and report per-node values")
    p.add_argument("instance")
    p.add_argument("decomposition")
    p.set_defaults(func=cmd_verify_decomposition)

    p = sub.add_parser("reduce-to-vdp", parents=[quiet], help="rewrite under vertex-disjoint semantics")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reduce_to_vdp)

    p = sub.add_parser("bench", parents=[caps], help="CSV timing over a directory of instances")
    p.add_argument("directory")
    p.add_argument("--methods", default="auto,oracle")
    p.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged, so one
    serves every `main` call of the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, DecompositionError) as exc:
        # unreadable or malformed input, a bad decomposition, unwritable output
        return _fail(str(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
