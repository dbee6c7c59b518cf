"""The benchmark's tracer wraps functions by name, so a rename in the
package must fail here rather than only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from edpsolve import treecut_dp
from edpsolve.graphs import EDPInstance, MultiGraph

TRACING = Path(__file__).resolve().parent.parent / "edpbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("_edpbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("edpsolve") and module is not None:
            for key, value in vars(module).items():
                out[(name, key)] = value
    for cls in (EDPInstance, MultiGraph):
        for key, value in vars(cls).items():
            out[(cls.__name__, key)] = value
    return out


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert treecut_dp.leaf_valid_records is not before[("edpsolve.treecut_dp", "leaf_valid_records")]
        assert len(tracer.patches) > 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_treecut_solve_reaches_every_dp_layer(monkeypatch, tmp_path):
    # a width-3 chain with an absorbable child: a refactor that routes
    # around a traced name makes its count read 0 here
    from edpsolve import cli, frontier
    from edpsolve.decomposition import node_views, serialize_decomposition
    from edpsolve.generators import gen_random_instance
    from edpsolve.graphs import serialize_instance

    monkeypatch.setattr(frontier, "FRONTIER_BUDGET", 0)  # the chain goes to the record DP
    inst, dec = gen_random_instance(2, 12, 1, 2, profile="bounded-tcw")
    assert any(view.absorbable for view in node_views(inst, dec).values())
    path, dec_path = tmp_path / "chain.edp", tmp_path / "chain.dec"
    path.write_text(serialize_instance(inst))
    dec_path.write_text(serialize_decomposition(dec))
    tracer = _load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        code = cli.main(["solve", str(path), "--method", "treecut", "--decomposition", str(dec_path), "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    for name in ("dynamic_step", "build_record_instance", "_simplify_in", "_replace_thin_in", "reduce_degree_two_edges"):
        assert tracer.calls[f"treecut_dp.{name}"] >= 1, name
    assert tracer.calls["decomposition.verify_decomposition"] >= 1


def test_traced_hub_solve_reports_calls_and_peak_table(monkeypatch, tmp_path):
    # a small subset-sum gadget solved with its hub given: a renamed result
    # field that the tracer reads makes the peak table read 0 or fail here
    from edpsolve import cli
    from edpsolve.generators import gen_mss_layout
    from edpsolve.graphs import serialize_instance

    layout = gen_mss_layout(2, [(2, 0), (0, 2), (2, 2)], (2, 2), 1).layout
    path = tmp_path / "mss.edp"
    path.write_text(serialize_instance(layout.instance))
    hub = ",".join(str(v) for v in layout.hub)
    tracer = _load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        code = cli.main(["solve", str(path), "--method", "simple", "--hub", hub, "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["simple.solve_simple_edp"] >= 1
    assert tracer.counters["simple.peak_table"] > 0


def test_traced_auto_solve_reaches_every_kernel_rule(monkeypatch, tmp_path):
    # the tracer wraps the rules through `kernel._RULES` and counts a hit
    # when a rule's output state differs from its input: a fixpoint that
    # bypasses `_RULES` or reduces one state in place makes these read 0
    from edpsolve import cli, kernel
    from edpsolve.generators import gen_random_instance
    from edpsolve.graphs import serialize_instance

    inst, _ = gen_random_instance(1, 40, 8, 2, profile="tree-plus")
    assert kernel.kernelize(inst).answer is None
    path = tmp_path / "treeplus.edp"
    path.write_text(serialize_instance(inst))
    tracer = _load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        code = cli.main(["solve", str(path), "--method", "auto", "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    for rule in ("prune_leaf_vertices", "suppress_degree_two", "prune_pendant_subtrees", "remove_matched_leaf_pairs"):
        assert tracer.calls[f"kernel.{rule}"] > 0, rule
    assert tracer.metrics(overhead=0.0)["kernel.rule_hit_ratio"] > 0
