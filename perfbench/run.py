"""
Run one benchmark workload of cutsort and print its metrics.

    python3 perfbench/run.py --workload weight-large --seed 1 --seconds 10 --trace 0

The package is imported from the `src/` directory next to `perfbench/`,
and from nowhere else.  With `--trace 0` the run repeats whole rounds
until `--seconds` have passed and every input has been sorted once, and
prints the end-to-end metrics.  With `--trace 1` it runs one round
untraced twice and the same round again with spans around the library's
public functions, prints the per-layer metrics, and writes the spans to
`perfbench/out/`.  The last line of standard output is one JSON object;
a failed output check exits 1 and a missing `src/cutsort` exits 2,
without it.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here: imports, inputs, warm-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_cutsort():
    """Import cutsort from this checkout's src/, or exit 2 with one line."""
    package = os.path.join(SRC, "cutsort")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        _refuse(f"no package at {package}; run from a cutsort checkout")
    sys.path.insert(0, SRC)
    import cutsort
    import cutsort.metrics
    import cutsort.oracle
    import cutsort.perm
    import cutsort.sorter

    if os.path.dirname(os.path.abspath(cutsort.__file__)) != package:
        _refuse(f"imported cutsort from {cutsort.__file__}, not {package}")
    return cutsort


def timed_round(workload, index: int) -> float:
    """One round in reference seconds."""
    began = workload.clock.sync()
    workload.run_round(index)
    return workload.clock.sync() - began


def timed_run(workload, seconds: float, setup_s: float) -> dict:
    rounds = []
    start = perf_counter()
    while len(rounds) < len(workload.batches) or perf_counter() - start < seconds:
        rounds.append(timed_round(workload, len(rounds)))
        if len(rounds) == len(workload.batches):
            # Read once every input has been through a round: later rounds
            # only repeat them, and their number depends on the machine's
            # speed, while heap fragmentation let the peak creep up with them.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sort_ms = [s * 1000.0 for s in workload.clock.samples]
    per_n = [moves / n for moves, n in workload.moves.values()]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(rounds), "s"),
        "sort_ms_p50": (statistics.median(sort_ms), "ms"),
        "sort_ms_p90": (statistics.quantiles(sort_ms, n=10)[-1], "ms"),
        "moves_per_n": (statistics.fmean(per_n), "moves/n"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(workload, spans_path: str) -> dict:
    from tracer import Tracer

    workload.run_round(0)  # the first pass over a batch runs slower; it is not compared
    untraced_s = timed_round(workload, 0)
    workload.reset_counts()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = timed_round(workload, 0)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)

    total = tracer.totals()
    in_sorts = tracer.children_of("sorter.sort")
    in_build = tracer.children_of("oracle.build_table")

    def get(table, name, field):  # field: 0 calls, 1 seconds, 2 self seconds
        return table.get(name, [0, 0.0, 0.0])[field]

    def per(count, base):
        return count / base if base else 0.0

    out = {}
    for name in ("perm.apply_move_values", "perm.adjacency_count_values",
                 "metrics.segment_spans", "metrics.weight_thirds_values",
                 "oracle.rank_permutation", "oracle.bfs_distance"):
        out[f"{name}.calls"] = (get(total, name, 0), "count")
        out[f"{name}.s"] = (get(total, name, 1), "s")
    for name in ("perm.trace_io", "metrics.certify_lower_bound", "sorter.sort",
                 "sorter.audit_result", "sorter.longest_monotone", "oracle.build_table"):
        out[f"{name}.s"] = (get(total, name, 1), "s")
    out["sorter.self.s"] = (get(total, "sorter.sort", 2), "s")
    moves = workload.round_moves
    out["sorter.applies_per_move"] = (
        per(get(in_sorts, "perm.apply_move_values", 0), moves), "calls/move")
    out["sorter.weight_evals_per_move"] = (
        per(get(in_sorts, "metrics.weight_thirds_values", 0), moves), "calls/move")
    for category, count in workload.steps.items():
        out[f"sorter.steps.{category}"] = (count, "count")
    out["oracle.build_table.self_s"] = (get(total, "oracle.build_table", 2), "s")
    out["oracle.states_per_s"] = (
        per(get(in_build, "oracle.rank_permutation", 0), get(total, "oracle.build_table", 1)),
        "1/s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
    parser.add_argument("--workload", required=True,
                        choices=("weight-large", "oracle-exact", "baseline-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the whole run: on a shared two-core machine, migrations
    # between cores made whole runs up to 45% slower than pinned ones.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cutsort = load_cutsort()
    sys.path.insert(0, HERE)
    from checks import CheckFailed
    from clock import Clock
    from workloads import WORKLOADS

    rng = random.Random(f"{args.workload}:{args.seed}")
    try:
        workload = WORKLOADS[args.workload](cutsort, rng)
        workload.warm_up()
        setup_raw_s = perf_counter() - STARTED
        workload.clock = Clock()
        setup_s = setup_raw_s * workload.clock.speed
        if args.trace:
            spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json")
            metrics = traced_run(workload, spans)
        else:
            metrics = timed_run(workload, args.seconds, setup_s)
    except CheckFailed as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: check failed: {exc}",
              file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    clock = workload.clock
    print(f"perfbench: {args.workload} seed {args.seed}: {clock.raw_s:.2f} s raw, "
          f"{clock.reference_s:.2f} s reference, setup {setup_raw_s:.4f} s raw",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
