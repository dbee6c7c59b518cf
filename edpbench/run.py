#!/usr/bin/env python3
"""Time to a checked verdict on seeded edpsolve workloads.

Usage (from the repository root):

    python3 edpbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in `workloads.py`: treeplus-auto, tcw-chain, mss-hub
and oracle-mixed.  The seed fixes the generated corpus; the default seed is
1, and seed 7919 is held out for confirming a claim made on other seeds.

A run imports the package from `src/`, writes the workload's instance pool
under `.edpbench_work/` (five times; `setup_s` is the import time plus the
median of the five), computes a reference answer for every instance with
code that shares nothing with the solver under test, and then solves
rounds of instances for `--seconds` seconds, one closed-loop client, one
process, no threads.  Each verdict is one in-process call of
`edpsolve.cli.main(["solve", FILE, ...])`, except the vertex-disjoint
verdicts of oracle-mixed, which parse the file, reduce it with `edp_to_vdp`
and search it with `brute_force_vdp`.  SIGALRM stops a verdict after
VERDICT_LIMIT_S seconds.  The end-to-end times are wall times scaled by
the speed probe (see PROBE_REF_S); the unscaled values are printed too.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
it wraps the package's public functions (see `tracing.py`), solves the same
kind of rounds traced, replays them untraced for `trace.overhead`, and
prints the per-layer metrics.  The line before the result holds the run's
context: corpus digest, tail percentile and its sample count, probe
mean, unscaled metrics, undecided reasons, wrong and undecided shares,
machine load.  The last line is the
result: {"correct", "attempted", "failed", "metrics"}.  `failed` counts
timeouts, exceptions and wrong verdicts; exit 3 ("no applicable method") is
undecided but not failed.  A wrong verdict makes `correct` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".edpbench_work"

sys.path.insert(0, str(ROOT / "src"))
_import_start = time.perf_counter()
try:
    from edpsolve import cli, generators, graphs, oracle
    import workloads
except ImportError as exc:
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None
IMPORT_S = time.perf_counter() - _import_start
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
VERDICT_LIMIT_S = 30.0
SETUP_REPEATS = 5
# The speed of the shared machine swings by tens of percent, in slow
# episodes that come and go within a second as well as in drifts over
# minutes.  A fixed pure-Python computation (`speed_probe`) timed just
# before and just after each verdict feels the same swings, so each
# verdict's time is scaled to a machine on which the probe takes
# PROBE_REF_S (its mean on the 2-core machine the bounds were set on) by
# the mean of those two probes; each corpus build likewise by the mean of
# SETUP_PROBES probes on either side.  Raw values are in the context line.
PROBE_REF_S = 0.009
SETUP_PROBES = 8

END_TO_END_UNITS = {
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "verdict_s.top_rung_p50": "s",
    "verdicts_per_s": "1/s",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class VerdictTimeout(BaseException):
    """Raised by SIGALRM inside a verdict; a BaseException so that no
    handler in the program under test swallows it."""


def _alarm(signum, frame):
    raise VerdictTimeout()


class Attempt:
    __slots__ = ("item", "seconds", "answer", "reason", "scale")

    def __init__(self, item, seconds: float, answer: bool | None, reason: str | None):
        self.item = item
        self.seconds = seconds
        self.answer = answer
        self.reason = reason
        self.scale = 1.0  # PROBE_REF_S / the probe time around the verdict

    @property
    def wrong(self) -> bool:
        return self.answer is not None and self.answer != self.item.expect

    @property
    def failed(self) -> bool:
        """Wrong, timed out or raised; exit 3 is undecided, not failed."""
        return self.wrong or (self.reason or "").startswith(("timeout", "exception"))


def _solve(item) -> tuple[bool | None, str | None]:
    # module attributes are looked up per call so the tracer's wrappers apply
    if item.options is None:
        red = generators.edp_to_vdp(graphs.parse_instance(item.path.read_text()))
        if red.answer_override is not None:
            return red.answer_override == "YES", None
        return oracle.brute_force_vdp(red.instance, caps=None).feasible, None
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["solve", str(item.path), *item.options, "--quiet"])
    first = out.getvalue().split("\n", 1)[0]
    if code == 0 and first in ("YES", "NO"):
        return first == "YES", None
    return None, "exit3" if code == 3 else f"exception:exit{code}"


def attempt(item) -> Attempt:
    answer, reason = None, None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, VERDICT_LIMIT_S)
    try:
        try:
            answer, reason = _solve(item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except VerdictTimeout:
        reason = "timeout"
    except oracle.CapExceeded:
        reason = "cap"
    except Exception as exc:
        reason = f"exception:{type(exc).__name__}"
    return Attempt(item, time.perf_counter() - start, answer, reason)


def speed_probe() -> float:
    """Seconds for a fixed graph computation that shares no code with the
    program: breadth-first searches over a seeded sparse graph."""
    start = time.perf_counter()
    rng = random.Random(5)
    adj: dict[int, list[int]] = {v: [] for v in range(400)}
    for v in range(1, 400):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(200):
        u, v = rng.sample(range(400), 2)
        adj[u].append(v)
        adj[v].append(u)
    for source in range(0, 400, 10):
        parent = {source: source}
        queue = collections.deque([source])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
    return time.perf_counter() - start


def measure(workload, pool, seconds: float, probes: list[float], tracer=None) -> tuple[list[Attempt], float, int]:
    """Solve whole rounds until another round would overrun `seconds`,
    probing the machine's speed before the first verdict and after each;
    returns the attempts, the wall time spent outside the probes and the
    rounds."""
    attempts: list[Attempt] = []
    rounds = 0
    start = time.perf_counter()
    probes.append(speed_probe())
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + elapsed / rounds > seconds:
            break
        for item in workloads.schedule(workload, pool, rounds):
            before = tracer.layer_self_s() if tracer else None
            attempts.append(attempt(item))
            if tracer:
                tracer.record_verdict(item.rung, before)
            probes.append(speed_probe())
            attempts[-1].scale = 2 * PROBE_REF_S / (probes[-2] + probes[-1])
        rounds += 1
    return attempts, time.perf_counter() - start - sum(probes), rounds


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_context() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    loadavg = Path("/proc/loadavg")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "loadavg": loadavg.read_text().split()[:3] if loadavg.is_file() else None,
    }


def end_to_end(workload, attempts: list[Attempt], wall: float, setup: tuple[float, float], probes: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics from the scaled verdict times, and the run's
    detail with the same metrics unscaled; `setup` is (raw, scaled)
    set-up time."""
    top = max(size for size, _, _ in workload.rungs)
    pct = workload.tail_pct
    decided = sum(a.answer is not None for a in attempts) / len(attempts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def metrics(times: list[float], wall: float, setup_s: float) -> dict:
        return {
            "verdict_s.p50": statistics.median(times),
            "verdict_s.tail": percentile(times, pct),
            "verdict_s.top_rung_p50": statistics.median(t for t, a in zip(times, attempts) if a.item.rung == top),
            "verdicts_per_s": len(times) / wall,
            "decided_frac": decided,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }

    raw_times = [a.seconds for a in attempts]
    times = [a.seconds * a.scale for a in attempts]
    # the harness's own time between verdicts is scaled like the verdicts
    scaled = metrics(times, wall * sum(times) / sum(raw_times), setup[1])
    raw = metrics(raw_times, wall, setup[0])
    detail = {
        "tail_percentile": pct,
        "tail_samples": len(times),
        "tail_samples_beyond": sum(t > scaled["verdict_s.tail"] for t in times),
        "top_rung": top,
        "top_rung_samples": sum(a.item.rung == top for a in attempts),
        "probe_mean_s": statistics.fmean(probes),
        "probes": len(probes),
        "raw": raw,
    }
    return {name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if IMPORT_ERROR is not None:
        print(f"error: cannot import edpsolve from {ROOT / 'src'}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    workdir = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, workdir: Path) -> int:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # each corpus build is scaled by the probes just before and after it
    setup_runs, setup_scaled = [], []
    digests = set()
    setup_probes = [speed_probe() for _ in range(SETUP_PROBES)]
    import_scaled = IMPORT_S * PROBE_REF_S / statistics.fmean(setup_probes)
    for _ in range(1 if tracer else SETUP_REPEATS):
        start = time.perf_counter()
        pool = workloads.build_corpus(workload, args.seed, workdir)
        setup_runs.append(time.perf_counter() - start)
        digests.add(workloads.corpus_digest(workdir))
        setup_probes += [speed_probe() for _ in range(SETUP_PROBES)]
        setup_scaled.append(setup_runs[-1] * PROBE_REF_S / statistics.fmean(setup_probes[-2 * SETUP_PROBES :]))
    if tracer:
        tracer.uninstall()
    if len(digests) != 1:
        print(f"error: one seed gave {len(digests)} different corpora", file=sys.stderr)
        return 1
    setup = (IMPORT_S + statistics.median(setup_runs), import_scaled + statistics.median(setup_scaled))

    start = time.perf_counter()
    items = [item for rung in pool.values() for item in rung]
    for item in items:
        signal.setitimer(signal.ITIMER_REAL, VERDICT_LIMIT_S)
        try:
            item.expect = item.reference()
        except VerdictTimeout:
            print(f"error: no reference answer for {item.path.name} within {VERDICT_LIMIT_S} s", file=sys.stderr)
            return 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    reference_s = time.perf_counter() - start

    attempt(workloads.schedule(workload, pool, 0)[0])  # warm-up, not counted
    if tracer:
        tracer.install()
    probes: list[float] = []
    attempts, wall, rounds = measure(workload, pool, args.seconds, probes, tracer)

    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "digest": digests.pop(),
        "context": run_context(),
        "rounds": rounds,
        "measured_s": wall,
        "setup_runs_s": setup_runs,
        "import_s": IMPORT_S,
        "reference_s": reference_s,
        "pool": {size: len(rung) for size, rung in pool.items()},
        "yes_frac": sum(a.item.expect for a in attempts) / len(attempts),
    }
    if tracer:
        tracer.uninstall()
        replay = sum(attempt(a.item).seconds for a in attempts)
        overhead = sum(a.seconds for a in attempts) / replay
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in tracer.metrics(overhead).items()}
        spans = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write_spans(spans)
        summary["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics, detail = end_to_end(workload, attempts, wall, setup, probes)
        summary.update(detail)

    reasons: dict[str, int] = {}
    for a in attempts:
        if a.reason:
            reasons[a.reason] = reasons.get(a.reason, 0) + 1
    wrong = sum(a.wrong for a in attempts)
    summary["undecided_reasons"] = reasons
    summary["undecided_frac"] = sum(reasons.values()) / len(attempts)
    summary["wrong_frac"] = wrong / len(attempts)
    summary["wrong"] = [a.item.path.name for a in attempts if a.wrong][:10]
    print(json.dumps(summary))
    result = {"correct": wrong == 0, "attempted": len(attempts), "failed": sum(a.failed for a in attempts), "metrics": metrics}
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
