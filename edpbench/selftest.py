#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 edpbench/selftest.py

Checks that the correctness gate trips on a falsified verdict, that one seed
always gives the same corpus digest, that the printed metric names and units
match BENCHMARK.json, and that the reference solver agrees with the
package's uncapped brute force on small instances.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
import unittest
from pathlib import Path

import run  # puts src/ on sys.path
import workloads
from edpsolve.graphs import EDPInstance, MultiGraph, serialize_instance
from edpsolve.oracle import brute_force_edp
from reference import reference_edp

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().split("\n")[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def test_gate_trips_on_falsified_verdict(self):
        real_solve = run._solve
        calls = []

        def falsified(item):
            # the first call is the uncounted warm-up; falsify the second
            answer, reason = real_solve(item)
            calls.append(item)
            return (not answer if len(calls) == 2 else answer), reason

        run._solve = falsified
        try:
            code, result = _run(["--workload", "mss-hub", "--seconds", "0.2"])
        finally:
            run._solve = real_solve
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_same_seed_same_digest(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            for name, workload in workloads.WORKLOADS.items():
                digests = []
                for seed in (5, 5, 6):
                    workloads.build_corpus(workload, seed, Path(tmp))
                    digests.append(workloads.corpus_digest(Path(tmp)))
                self.assertEqual(digests[0], digests[1], name)
                self.assertNotEqual(digests[0], digests[2], name)

    def test_metric_names_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _run(["--workload", "oracle-mixed", "--seconds", "0.2", "--trace", str(trace)])
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)

    def test_reference_agrees_with_brute_force(self):
        rng = random.Random(0)
        for _ in range(400):
            n = rng.randint(2, 8)
            g = MultiGraph(range(1, n + 1))
            for v in range(2, n + 1):
                g.add_edge(rng.randrange(1, v), v)
            for _ in range(rng.randint(0, 4)):
                g.add_edge(*rng.sample(range(1, n + 1), 2))
            inst = EDPInstance(g)
            seen = set()
            for _ in range(rng.randint(0, 4)):
                a, b = sorted(rng.sample(range(1, n + 1), 2))
                if (a, b) not in seen:
                    seen.add((a, b))
                    inst.add_pair(a, b)
            text = serialize_instance(inst)
            self.assertEqual(reference_edp(text), brute_force_edp(inst, caps=None).feasible, text)


if __name__ == "__main__":
    unittest.main()
