"""Seeded corpora for the benchmark workloads.

Each workload is a ladder of size rungs; one round of a run solves `count`
instances of every rung.  The smaller rungs feed the growth exponents of the
traced run.  Where rungs cost very different times, the top rung gets most
of the samples, so that the median and the tail percentile fall inside its
block of the sorted times rather than in the gap between two rungs, where
they would jump from run to run.  The tail percentile is fixed per workload
so that a 25-second run has at least ten samples beyond it, and low enough
that the seed's draw of instances moves it little: tree-plus verdict times
have a long upper tail, so treeplus-auto uses p75.  Instances come
from the program's own generators and are written as files; the solver
only ever sees those files.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from edpsolve.decomposition import serialize_decomposition
from edpsolve import generators
from edpsolve.graphs import serialize_instance
from edpsolve.oracle import brute_force_mss

from reference import reference_edp

RAISED_CAPS = ("--cap-edges", "100000", "--cap-vertices", "100000")
MSS_K = 4
MSS_ENTRIES = (0, 2, 4, 6, 8)
# target = share * (mean item) * min_count per coordinate; the shares give
# about half NO instances on each rung
MSS_TARGET_SHARE = {6: 0.88, 8: 0.82, 10: 0.82, 12: 0.81, 14: 0.80}
# the reduced instance of a larger source can take seconds in the naive
# vertex-disjoint search, which would let one verdict dominate a run
VDP_MAX_REDUCED_VERTICES = 24


@dataclass
class Item:
    """One verdict: an instance file and how to solve and check it."""

    rung: int
    path: Path
    options: tuple[str, ...] | None  # `solve` options; None marks a VDP verdict
    check: tuple  # ("edp", text) or ("mss", k, items, target, min_count)
    expect: bool | None = None

    def reference(self) -> bool:
        if self.check[0] == "mss":
            return brute_force_mss(*self.check[1:])
        return reference_edp(self.check[1])


Maker = Callable[[random.Random, int, int, Path], Item]  # (rng, size, index, path)


@dataclass(frozen=True)
class Workload:
    name: str
    rungs: tuple[tuple[int, int, Maker], ...]  # (size, verdicts per round, maker)
    pool_rounds: int  # distinct instances per rung = count * pool_rounds
    tail_pct: float


def _treeplus(rng: random.Random, n: int, index: int, path: Path) -> Item:
    # two and three pairs alternate, so every run has the same mix
    inst, _ = generators.gen_random_instance(rng.randrange(2**31), n, 8, 2 + index % 2, profile="tree-plus")
    text = serialize_instance(inst)
    path.write_text(text)
    return Item(n, path, ("--method", "auto"), ("edp", text))


def _tcw_chain(rng: random.Random, n: int, index: int, path: Path) -> Item:
    inst, dec = generators.gen_random_instance(rng.randrange(2**31), n, n // 8, 2, profile="bounded-tcw")
    text = serialize_instance(inst)
    path.write_text(text)
    dec_path = path.with_suffix(".dec")
    dec_path.write_text(serialize_decomposition(dec))
    return Item(n, path, ("--method", "treecut", "--decomposition", str(dec_path)), ("edp", text))


def _mss(rng: random.Random, m: int, index: int, path: Path) -> Item:
    items = [tuple(rng.choice(MSS_ENTRIES) for _ in range(MSS_K)) for _ in range(m)]
    min_count = m // 2
    share = MSS_TARGET_SHARE[m]
    target = tuple(2 * round(sum(it[i] for it in items) * min_count * share / (2 * m)) for i in range(MSS_K))
    layout = generators.gen_mss_layout(MSS_K, items, target, min_count).layout
    path.write_text(serialize_instance(layout.instance))
    hub = ",".join(str(v) for v in layout.hub)
    return Item(m, path, ("--method", "simple", "--hub", hub), ("mss", MSS_K, items, target, min_count))


def _oracle_edp(rng: random.Random, max_n: int, index: int, path: Path) -> Item:
    # the search cost depends on |X| and q, not on n, so one rung holds n=16..20
    n = rng.randint(max_n - 4, max_n)
    inst, _ = generators.gen_random_instance(rng.randrange(2**31), n, 10, 6, profile="tree-plus")
    text = serialize_instance(inst)
    path.write_text(text)
    return Item(max_n, path, ("--method", "oracle", *RAISED_CAPS), ("edp", text))


def _vdp_source(rng: random.Random, max_n: int, index: int, path: Path) -> Item:
    """A connected instance of at most `max_n` vertices, two extra edges and
    three pairs, as in the reduction-fidelity acceptance suite, whose
    vertex-disjoint image stays small and is not settled by the reduction."""
    while True:
        n = rng.randint(4, max_n)
        edges = [(rng.randrange(1, v), v) for v in range(2, n + 1)]
        edges += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 2))]
        pairs: list[tuple[int, int]] = []
        for _ in range(rng.randint(1, 3)):
            a, b = sorted(rng.sample(range(1, n + 1), 2))
            if (a, b) not in pairs:
                pairs.append((a, b))
        degree = Counter(x for e in edges for x in e)
        top = max(degree.values())
        load = Counter(x for p in pairs for x in p)
        if any(load[v] > top for v in load) or n * top + len(edges) > VDP_MAX_REDUCED_VERTICES:
            continue
        lines = [f"p edp {n} {len(edges)} {len(pairs)}"]
        lines += [f"e {u} {v}" for u, v in edges]
        lines += [f"t {a} {b}" for a, b in pairs]
        text = "\n".join(lines) + "\n"
        path.write_text(text)
        return Item(max_n, path, None, ("edp", text))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "treeplus-auto",
            ((50, 1, _treeplus), (100, 1, _treeplus), (200, 1, _treeplus), (400, 12, _treeplus)),
            pool_rounds=16,
            tail_pct=75,
        ),
        Workload(
            "tcw-chain",
            ((12, 1, _tcw_chain), (25, 1, _tcw_chain), (50, 1, _tcw_chain), (100, 8, _tcw_chain)),
            pool_rounds=10,
            tail_pct=80,
        ),
        Workload(
            "mss-hub",
            ((6, 3, _mss), (8, 3, _mss), (10, 2, _mss), (12, 2, _mss), (14, 2, _mss)),
            pool_rounds=12,
            tail_pct=90,
        ),
        Workload(
            "oracle-mixed",
            ((7, 1, _vdp_source), (20, 8, _oracle_edp)),
            pool_rounds=45,
            tail_pct=90,
        ),
    )
}


def build_corpus(workload: Workload, seed: int, workdir: Path) -> dict[int, list[Item]]:
    """Write the workload's instance pool for `seed` into `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.iterdir():
        old.unlink()
    rng = random.Random(f"{workload.name}:{seed}")
    pool: dict[int, list[Item]] = {}
    for size, count, make in workload.rungs:
        pool[size] = [
            make(rng, size, j, workdir / f"{size:05d}-{j:04d}.edp") for j in range(count * workload.pool_rounds)
        ]
    return pool


def corpus_digest(workdir: Path) -> str:
    """sha256 over the names and bytes of every generated file."""
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def schedule(workload: Workload, pool: dict[int, list[Item]], round_index: int) -> list[Item]:
    """The verdicts of one round, smallest rung first."""
    out = []
    for size, count, _ in workload.rungs:
        items = pool[size]
        out.extend(items[(round_index * count + j) % len(items)] for j in range(count))
    return out
