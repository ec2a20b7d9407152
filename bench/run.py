"""Benchmark of graphk0: one process, no threads, outputs checked.

    python3 bench/run.py --workload k0-scale --seed 1 --seconds 20 --trace 0

Set-up (import graphk0, generate and parse the inputs, build per-session
state) is repeated SETUP_REPS times and its median reported as ``setup_s``.
Then whole rounds of the workload's blocks of operations run until
``--seconds`` have passed; the timing metrics are medians over the blocks
run (see workloads.py).  Every timing is in
reference-speed seconds (see refkernel.py); raw seconds are printed above
the result for reference.  The last line of stdout is the JSON result.

With ``--trace 1`` one untraced round and one traced round follow the
set-up, and the per-layer metrics of the traced round (set-up included) are
reported together with the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refkernel  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_REPS = 5
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "throughput_ops_s": "ops/s",
    "peak_rss_mb": "MB",
    "report_bytes": "bytes",
}
MODULES = ("textio", "graphs", "linalg", "ktheory", "lp", "intfeas", "dd", "traces", "reports", "cli")


class Api:
    """The graphk0 modules, looked up afresh after every import."""

    def __init__(self) -> None:
        for name in MODULES:
            setattr(self, name, sys.modules[f"graphk0.{name}"])


def import_graphk0() -> Api:
    for name in [n for n in sys.modules if n == "graphk0" or n.startswith("graphk0.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("graphk0")
    importlib.import_module("graphk0.cli")
    return Api()


def tail(times: list[float]) -> float:
    """The highest percentile with at least ten operations beyond it."""
    return sorted(times)[-11]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "graphk0", "__init__.py")):
        print(f"bench: no graphk0 sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, args, workdir: str) -> int:
    clock = refkernel.RefClock()

    def setup():
        api = import_graphk0()
        return api, workload.build(api, args.seed, workdir)

    setup_runs = []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous set-up's garbage is not this one's cost
        (api, state), raw, index = clock.time(setup)
        setup_runs.append((index, raw))
    problems = workload.check_setup(api, state)

    if args.trace:
        return run_traced(workload, args, workdir, clock, problems)

    blocks: list[Outcome] = []
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not rounds:
        for block in workload.blocks(state):
            blocks.append(Outcome())
            workload.run_block(api, block, clock, blocks[-1])
        rounds += 1
    width = len(blocks) // rounds
    sizes = {sum(o.report_bytes for o in blocks[r * width : (r + 1) * width]) for r in range(rounds)}
    if len(sizes) != 1:
        problems.append(f"rounds emitted different report sizes: {sorted(sizes)}")
    for o in blocks:
        o.finish(clock)
        problems += o.problems
    setup_times = [(clock.reference(i, raw), raw) for i, raw in setup_runs]

    # every round replays the same blocks.  The median and the tail are taken
    # per block (a block's 11th largest lies among ordinary operations, a
    # round's among the few heavy ones) and the throughput per round (a
    # block's depends on whether it holds a heavy graph); the median over
    # the blocks or rounds run is reported
    def per_block(stat, key="times"):
        return statistics.median(stat(getattr(o, key)) for o in blocks)

    def per_round(key="times"):
        spans = [blocks[r * width : (r + 1) * width] for r in range(rounds)]
        return statistics.median(
            sum(len(getattr(o, key)) for o in span) / sum(sum(getattr(o, key)) for o in span)
            for span in spans
        )

    metrics = {
        "setup_s": statistics.median(r for r, _ in setup_times),
        "op_p50_s": per_block(statistics.median),
        "op_tail_s": per_block(tail),
        "throughput_ops_s": per_round(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_bytes": min(sizes),
    }
    print(
        f"{workload.name} seed {args.seed}: {rounds} rounds of {width} blocks, "
        f"{sum(len(o.raw) for o in blocks) // rounds} ops per round; "
        f"raw seconds: setup {statistics.median(w for _, w in setup_times):.4f}, "
        f"p50 {per_block(statistics.median, 'raw'):.5f}, tail {per_block(tail, 'raw'):.5f}, "
        f"throughput {per_round('raw'):.3f} ops/s"
    )
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in blocks),
        "failed": sum(o.failed for o in blocks),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_traced(workload, args, workdir, clock, problems) -> int:
    api = import_graphk0()
    # untraced reference round on a fresh set-up, then the traced set-up and round
    state = workload.build(api, args.seed, workdir)
    workload.check_setup(api, state)
    plain = Outcome()
    for block in workload.blocks(state):
        workload.run_block(api, block, clock, plain)

    tracer = tracing.Tracer()
    tracer.install(api)
    state = workload.build(api, args.seed, workdir)
    problems += workload.check_setup(api, state)
    traced = Outcome()
    for block in workload.blocks(state):
        workload.run_block(api, block, clock, traced)
    plain.finish(clock)
    traced.finish(clock)
    problems += plain.problems + traced.problems

    scale = sum(traced.times) / sum(traced.raw)
    layer = tracer.summary(time_scale=scale)
    layer["trace.overhead_pct"] = 100.0 * (sum(traced.times) - sum(plain.times)) / sum(plain.times)
    units = dict(tracing.PER_LAYER)
    print(
        f"{workload.name} seed {args.seed} traced: {len(traced.times)} ops; "
        f"untraced round {sum(plain.times):.4f} s, traced round {sum(traced.times):.4f} s "
        f"(raw {sum(plain.raw):.4f} s and {sum(traced.raw):.4f} s)"
    )
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": layer[k], "unit": units[k]} for k, _ in tracing.PER_LAYER},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
