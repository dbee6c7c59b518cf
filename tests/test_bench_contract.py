"""The benchmark calls into the package by module, function, option and
field name (`brute_force_vdp(..., caps=None)`, `solve` with `--cap-edges`,
`--cap-vertices`, `--hub` and `--decomposition`, `gen_mss_layout(...).layout`),
so a change that breaks one of those calls must fail here rather than only
in a benchmark run."""

import importlib.util
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "edpbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # the next module imports it by this name
    spec.loader.exec_module(module)
    return module


def _load_run(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts src/ in front
    _load(monkeypatch, "reference")
    workloads = _load(monkeypatch, "workloads")
    return _load(monkeypatch, "run"), workloads


def test_benchmark_verdicts_match_their_references(monkeypatch, tmp_path):
    # the smallest rung of each maker of each workload, from the corpus seed
    run, workloads = _load_run(monkeypatch)
    items = []
    for name, workload in workloads.WORKLOADS.items():
        rng = random.Random(f"{name}:{run.DEFAULT_SEED}")
        makers = {}
        for size, _count, make in workload.rungs:
            makers.setdefault(make, size)
        for make, size in makers.items():
            items.append(make(rng, size, 0, tmp_path / f"{name}-{size}.edp"))
    flags = {flag for item in items for flag in item.options or ()}
    assert {"--cap-edges", "--cap-vertices", "--hub", "--decomposition"} <= flags
    assert any(item.options is None for item in items)  # the vertex-disjoint verdict
    for item in items:
        assert run._solve(item) == (item.reference(), None), item.path.name
