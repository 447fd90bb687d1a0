"""Cross-check the traced run's layer ranking against cProfile.

    python3 perfbench/crosscheck.py --workload flash_sale --seed 1

Runs one episode of the workload under cProfile and one traced episode
on the same inputs, and prints the layers ranked by self time both ways.
cProfile knows functions, not layers: each function's own time is
handed up the call graph to the traced layer entry points above it,
split over callers in proportion to the time each call edge took (the
gprof rule); time that reaches no entry point is the benchmark's own.
A disagreement at the top of the two rankings is a bug in the harness:
a layer's calls escaping its wrapper, or a wrapper on the wrong
function.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _entry_points(spans) -> dict[tuple, str]:
    """pstats function key -> layer, for every traced function."""
    out = {}
    for cls, attr, layer in spans.TIMED:
        fn = getattr(cls, attr)
        fn = getattr(fn, "__func__", fn)
        code = fn.__code__
        out[(code.co_filename, code.co_firstlineno, code.co_name)] = layer
    return out


def profile_layers(stats: pstats.Stats, entries: dict[tuple, str]) -> dict[str, float]:
    """Seconds of own time per layer, propagated up the caller graph."""
    table = stats.stats
    memo: dict[tuple, dict[str, float]] = {}

    def shares(func, active) -> dict[str, float]:
        if func in entries:
            return {entries[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        total = sum(edge[3] for edge in callers.values())
        result: dict[str, float] = defaultdict(float)
        if not callers or total <= 0 or func in active:
            result["(benchmark)"] = 1.0
        else:
            active.add(func)
            for caller, edge in callers.items():
                for layer, share in shares(caller, active).items():
                    result[layer] += share * edge[3] / total
            active.discard(func)
        memo[func] = dict(result)
        return memo[func]

    out: dict[str, float] = defaultdict(float)
    for func, (_, _, own, _, _) in table.items():
        for layer, share in shares(func, set()).items():
            out[layer] += own * share
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run, spans
    from perfbench.shapes import WORKLOADS, Samples

    workload = WORKLOADS[args.workload](args.seed)
    recorder = spans.SpanRecorder()
    run.run_episode(workload, Samples(), run.HostSpeed(), recorder)
    traced = recorder.self_times()
    traced.pop("step", None)

    profiler = cProfile.Profile()
    samples = Samples()
    profiler.enable()
    state = workload.setup()
    for i in range(workload.n_steps):
        workload.step(state, i, samples)
    profiler.disable()
    profiled = profile_layers(pstats.Stats(profiler), _entry_points(spans))
    profiled.pop("(benchmark)", None)

    def ranking(times):
        return [name for name, _ in sorted(times.items(), key=lambda kv: -kv[1])
                if times[name] > 0][: args.top]

    a, b = ranking(traced), ranking(profiled)
    total_a, total_b = sum(traced.values()), sum(profiled.values())
    print(f"{args.workload} seed {args.seed}: top {args.top} layers by self time")
    print(f"{'rank':<5}{'traced':<30}{'share':>7}   {'cProfile':<30}{'share':>7}")
    for i in range(max(len(a), len(b))):
        left = (a[i], traced[a[i]] / total_a) if i < len(a) else ("", 0.0)
        right = (b[i], profiled[b[i]] / total_b) if i < len(b) else ("", 0.0)
        print(f"{i + 1:<5}{left[0]:<30}{left[1]:>7.1%}   {right[0]:<30}{right[1]:>7.1%}")
    agree = a[:3] == b[:3]
    print("top 3 agree" if agree else "top 3 DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
