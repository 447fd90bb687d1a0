"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flash_sale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run repeats *episodes* of its workload: each episode generates its own
inputs from the seed and its index, builds a fresh deployment (timed as
set-up), runs the workload's fixed closed loop and checks the program's
outputs.  ``--seconds`` sets how many episodes run (each workload knows
how long one episode takes on the reference host), so the work in a run,
and every host-independent count, is fixed by the seed and ``--seconds``
alone.

``--trace 0`` reports the end-to-end metrics of untraced episodes.
``--trace 1`` alternates untraced and traced episodes on the same inputs
and reports the per-layer metrics of the traced ones, the tracing
overhead (traced minus untraced loop time) and checks that tracing left
every host-independent count unchanged.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics, reported by every workload: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("tick_p50_ms", "ms"),
    ("tick_p90_ms", "ms"),
]


#: Per-layer metrics, reported by every traced run: (name, unit, better).
#: A layer a workload does not run reports 0.
PER_LAYER = [
    *[(layer, "s", "lower") for layer in (
        "fusion.fuse_s", "columns.batch_build_s", "cluster.ingest_s",
        "cluster.flush_s", "cluster.tick_s", "platform.write_s",
        "cluster.scatter_s", "query.plan_s", "query.execute_s.prefix",
        "query.execute_s.spatial", "query.execute_s.semantic",
        "query.merge_s", "platform.spatial_s", "semantic.search_s",
        "semantic.index_s", "cluster.purchase_route_s", "platform.purchase_s",
        "txn.commit_s", "cluster.basket_s", "twopc.execute_s",
        "failover.log_s", "failover.tick_s", "storage.rpc_s",
        "storage.local_s", "cluster.read_s", "cluster.write_s",
        "geo.write_s", "geo.read_s", "geo.tick_s", "geo.antientropy_s",
    )],
    ("cluster.rows_per_result", "ratio", "lower"),
    ("platform.engine_gets_per_spatial_hit", "ratio", "lower"),
    ("semantic.evals_per_query", "count", "lower"),
    ("semantic.evals_per_insert", "count", "lower"),
    ("semantic.tombstone_ratio", "ratio", "lower"),
    ("semantic.recall_at_10", "ratio", "higher"),
    ("txn.conflicts", "count", "lower"),
    ("twopc.messages_per_basket", "count", "lower"),
    ("failover.compactions", "count", "lower"),
    ("wal.entries_scanned", "count", "lower"),
    ("storage.rpc_calls", "count", "lower"),
    ("storage.rpc_bytes", "bytes", "lower"),
    ("bufferpool.hit_ratio", "ratio", "higher"),
    ("geo.merkle_leaves_hashed", "count", "lower"),
    ("geo.wan_round_trips", "count", "lower"),
    ("geo.repl_shipped", "count", "lower"),
    ("geo.max_replication_lag", "count", "lower"),
    ("geo.compactions", "count", "lower"),
    ("geo.antientropy_rounds", "count", "lower"),
    ("net.messages_sent", "count", "lower"),
    ("net.bytes_sent", "bytes", "lower"),
    ("basket_sim_p99_ms", "simulated-ms", "lower"),
    ("read_sim_p99_ms", "simulated-ms", "lower"),
    ("op_failure_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def episodes_for(kind, seconds: float, per_episode: float = 1.0) -> int:
    return max(1, round(seconds / (kind.episode_s * per_episode)))


def _probe_kernel() -> int:
    """A fixed slice of interpreter work: dict updates, a keyed sort,
    JSON encoding and a comprehension, the operations the program spends
    its time on."""
    counts: dict[str, int] = {}
    for i in range(400):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + i
    rows = sorted(counts.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    return len(json.dumps(rows)) + len([x for x in range(300) if x % 3])


class HostSpeed:
    """How fast the host runs right now, from a probe timed between steps.

    The benchmark shares its machine, whose speed drifts: a fixed loop
    runs up to ~1.6x slower for stretches of 0.1 s to minutes, and every
    metric of a run shifts with it.  The probe is benchmark code that no
    change to the program touches; it runs before set-up, after set-up
    and after every step.  A wall-clock time is multiplied by the
    reference probe time over the mean of the probes taken just before
    and just after it, which reports it as it would read on the
    reference host and leaves changes in the program's own speed in
    place.
    """

    #: Probe seconds on the reference host at full speed.
    REFERENCE_S = 150e-6

    def __init__(self) -> None:
        self.history: list[float] = []

    def probe(self) -> float:
        """Probe seconds now (best of two, so the first run's cold
        caches after a step do not count)."""
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            _probe_kernel()
            best = min(best, perf_counter() - start)
        self.history.append(best)
        return best

    def factor(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2)


def run_episode(workload, out, speed: HostSpeed, recorder=None):
    """One episode; returns (set-up seconds, loop seconds, counts), both
    times scaled to the reference host.  With a recorder, set-up and loop
    are traced; the checks after the loop never are."""
    from perfbench import spans

    gc.collect()
    saved = spans.install(recorder) if recorder is not None else []
    try:
        before = speed.probe()
        start = perf_counter()
        state = workload.setup()
        setup_s = perf_counter() - start
        after = speed.probe()
        setup_s *= speed.factor(before, after)
        loop_s = 0.0
        for i in range(workload.n_steps):
            before = after
            mark = out.mark()
            if recorder is None:
                elapsed = workload.step(state, i, out)
            else:
                recorder.step = i
                index = recorder.open("step")
                elapsed = workload.step(state, i, out)
                recorder.close(index)
            after = speed.probe()
            factor = speed.factor(before, after)
            if recorder is not None:
                recorder.factors.append(factor)
            loop_s += elapsed * factor
            out.rescale(mark, factor)
    finally:
        spans.uninstall(saved)
    workload.check(state, out)
    return setup_s, loop_s, workload.counts(state)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(kind, seed: int, seconds: float):
    """Untraced episodes; returns (Samples, metrics, report lines)."""
    from perfbench.shapes import Samples

    out = Samples()
    setups, rates, ops = [], [], 0
    counts: dict[str, float] = defaultdict(float)
    speed = HostSpeed()
    for episode in range(episodes_for(kind, seconds)):
        workload = kind(seed, episode)
        samples = Samples()
        setup_s, loop_s, episode_counts = run_episode(workload, samples, speed)
        setups.append(setup_s)
        rates.append(workload.ops_per_episode() / loop_s)
        ops += workload.ops_per_episode()
        for name, value in episode_counts.items():
            counts[name] += value
        out.merge(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": percentile(out.op_ms, 0.50),
        "op_p90_ms": percentile(out.op_ms, 0.90),
        "tick_p50_ms": percentile(out.tick_ms, 0.50),
        "tick_p90_ms": percentile(out.tick_ms, 0.90),
    }
    probes = statistics.median(speed.history)
    lines = [
        f"episodes {len(setups)}  steps/episode {kind.n_steps}  ops {ops}",
        f"op = {kind.op_name}: {len(out.op_ms)} samples; "
        f"tick: {len(out.tick_ms)} samples",
        f"host speed: probe median {probes * 1e6:.1f} us (reference "
        f"{HostSpeed.REFERENCE_S * 1e6:.0f} us); times scaled by ~"
        f"{HostSpeed.REFERENCE_S / probes:.3f}",
    ]
    for name, unit in END_TO_END:
        lines.append(f"{name:<24} {metrics[name]:>14.4f} {unit}")
    for name, (source, q, unit) in kind.named.items():
        value = metrics[source] if q is None else percentile(out.series(source), q)
        lines.append(f"{name:<24} {value:>14.4f} {unit}")
    ratio = out.failed / out.attempted if out.attempted else 0.0
    lines.append(f"{'op_failure_ratio':<24} {ratio:>14.6f} ratio")
    lines.append("counts (run total) " + json.dumps(dict(counts), sort_keys=True))
    return out, metrics, lines


def per_layer(kind, seed: int, seconds: float, trace_path: Path):
    """Alternate untraced and traced episodes; returns (Samples,
    metrics, report lines) and writes the last traced episode's spans
    to ``trace_path``."""
    from perfbench import spans
    from perfbench.shapes import Samples

    out = Samples()
    traced_out = Samples()
    overheads, self_times, traced_counts = [], [], []
    speed = HostSpeed()
    # Tracing roughly doubles an episode, so a pair costs ~3 episodes.
    for episode in range(episodes_for(kind, seconds, per_episode=3.0)):
        workload = kind(seed, episode)
        _, plain_loop, plain_counts = run_episode(workload, out, speed)
        recorder = spans.SpanRecorder()
        _, traced_loop, counts = run_episode(
            workload, traced_out, speed, recorder)
        if counts != plain_counts:
            out.fail("tracing changed the program's host-independent counts")
        overheads.append(traced_loop - plain_loop)
        factor = statistics.median(recorder.factors)
        self_times.append(
            {k: v * factor for k, v in recorder.self_times().items()})
        traced_counts.append({**counts, **recorder.counts})
    out.attempted += traced_out.attempted
    out.failed += traced_out.failed
    out.errors += traced_out.errors
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.write(trace_path)
    totals: dict[str, float] = defaultdict(float)
    for episode_counts in traced_counts:
        for name, value in episode_counts.items():
            totals[name] += value
    metrics = workload_layers(self_times, totals, len(traced_counts), out)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    lines = [f"traced episodes {len(overheads)}; spans of the last: "
             f"{len(recorder.spans)}"]
    for name, value in metrics.items():
        lines.append(f"{name:<40} {value:>16.6f}")
    lines.append(f"spans written to {trace_path}")
    return out, metrics, lines


#: Per-layer counts reported per episode (run total / traced episodes).
_PER_EPISODE = (
    "semantic.recall_at_10", "txn.conflicts", "failover.compactions",
    "wal.entries_scanned", "storage.rpc_calls", "storage.rpc_bytes",
    "geo.merkle_leaves_hashed", "geo.wan_round_trips", "geo.repl_shipped",
    "geo.max_replication_lag", "geo.compactions", "geo.antientropy_rounds",
    "net.messages_sent", "net.bytes_sent",
)

#: Per-layer ratios of two run totals: (metric, numerator, denominator).
_RATIOS = (
    ("cluster.rows_per_result", "query.shard_rows", "query.merged_rows"),
    ("platform.engine_gets_per_spatial_hit", "platform.spatial_gets",
     "platform.spatial_hits"),
    ("semantic.evals_per_query", "semantic.search.evals", "semantic.queries"),
    ("semantic.evals_per_insert", "semantic.index.evals", "semantic.index.calls"),
    ("semantic.tombstone_ratio", "semantic.graph_nodes", "semantic.live_keys"),
    ("twopc.messages_per_basket", "twopc.messages", "twopc.baskets"),
    ("bufferpool.hit_ratio", "pool.hits", "pool.lookups"),
)


def workload_layers(self_times, counts, episodes, out) -> dict[str, float]:
    """Per-layer metrics of one traced workload: times are the median
    over traced episodes of the seconds spent per episode; counts are
    per episode; ratios are taken over the run's totals (0 when the
    workload never runs the layer)."""
    from perfbench import spans

    counts = dict(counts)
    counts["pool.lookups"] = counts.get("pool.hits", 0.0) + counts.get("pool.misses", 0.0)
    metrics = {
        layer: statistics.median(t.get(layer, 0.0) for t in self_times)
        for layer in spans.LAYERS
    }
    for name in _PER_EPISODE:
        metrics[name] = counts.get(name, 0.0) / episodes
    for name, num, den in _RATIOS:
        metrics[name] = counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0
    for name, series in (("basket_sim_p99_ms", "basket_sim_ms"),
                         ("read_sim_p99_ms", "read_sim_ms")):
        values = out.series(series)
        metrics[name] = percentile(values, 0.99) if values else 0.0
    metrics["op_failure_ratio"] = out.failed / out.attempted if out.attempted else 0.0
    return metrics


def run_all(args) -> int:
    """Every workload, one child process each (so peak RSS is per
    workload); returns non-zero if any run failed."""
    from perfbench.shapes import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        status = status or child.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    from perfbench.shapes import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    kind = WORKLOADS[args.workload]
    print(f"{kind.name} seed {args.seed}: {kind.why}", flush=True)
    if args.trace:
        path = HERE / "out" / f"spans-{kind.name}-seed{args.seed}.jsonl.gz"
        out, metrics, lines = per_layer(kind, args.seed, args.seconds, path)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        out, metrics, lines = end_to_end(kind, args.seed, args.seconds)
        units = dict(END_TO_END)
    for line in lines:
        print(line)
    for error in out.errors:
        print(f"CHECK FAILED: {error}")
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
