"""
Command-line front end.

Subcommands: sort, verify, distance, table, witness, bound, bench, random.
All randomness flows from --seed (default 0, never time-based), so a rerun
with the same arguments produces byte-identical primary output; timing
columns are the only exception.  Exit codes: 0 success, 1 input error,
2 internal diagnostic failure, 3 resource-guard refusal.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from . import metrics, oracle, sorter
from .perm import (
    InputError,
    Permutation,
    adjacency_count_values,
    apply_move_values,
    format_permutation,
    format_trace,
    is_identity,
    parse_permutation,
    parse_trace,
    random_permutation,
    replay,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIAGNOSTIC = 2
EXIT_GUARD = 3

_ALGORITHMS = {
    "basic": sorter.sort_basic,
    "refined": sorter.sort_refined,
    "insertion": sorter.sort_insertion,
    "monotone": sorter.sort_monotone,
}


def _read_perm(args) -> Permutation:
    if args.perm is not None:
        return parse_permutation(args.perm)
    return parse_permutation(sys.stdin.readline())


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_sort(args) -> int:
    p = _read_perm(args)
    result = _ALGORITHMS[args.algo](p)
    final = replay(result.trace)
    ok = is_identity(final) and result.move_count <= result.bound
    _emit(format_trace(result.trace), args.out)
    print(f"moves={result.move_count} bound={result.bound} ok={str(ok).lower()}")
    return EXIT_OK if ok else EXIT_DIAGNOSTIC


def cmd_verify(args) -> int:
    try:
        with open(args.trace, encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.trace}: not ASCII text (byte {exc.start})") from None
    trace = parse_trace(text)
    vals = list(trace.initial.values)
    count = adjacency_count_values(vals)
    monotone = True
    for m in trace.moves:
        if m.k > len(vals):
            raise InputError(f"cut point k={m.k} out of range")
        vals = apply_move_values(vals, m)
        now = adjacency_count_values(vals)
        if now < count:
            monotone = False
        count = now
    final = Permutation(tuple(vals))
    ok = is_identity(final)
    within = "n/a"
    if args.bound is not None:
        within = str(len(trace.moves) <= args.bound).lower()
    print(f"final={format_permutation(final)}")
    print(f"moves={len(trace.moves)} within_bound={within}")
    print(f"adjacency_monotone={str(monotone).lower()}")
    print(f"ok={str(ok).lower()}")
    return EXIT_OK if ok else EXIT_DIAGNOSTIC


def cmd_distance(args) -> int:
    p = _read_perm(args)
    d = oracle.bfs_distance(p)
    cert = metrics.certify_lower_bound(p)
    refined = sorter.sort_refined(p)
    print(
        f"distance={d} parity_bound={cert.parity_bound} "
        f"adjacency_bound={cert.adjacency_bound} best={cert.best} "
        f"refined_moves={refined.move_count}"
    )
    return EXIT_OK


def cmd_table(args) -> int:
    progress = oracle.main_progress if args.n >= 8 else None
    table = oracle.build_table(
        args.n,
        allow_big=args.allow_n9,
        witness_cap=args.limit,
        progress=progress,
    )
    if args.out:
        oracle.save_table(table, args.out)
    else:
        sys.stdout.write(f"# n={table.n}\n# fmax={table.fmax}\nrank,distance\n")
        for rank, d in enumerate(table.distances):
            sys.stdout.write(f"{rank},{d}\n")
    print(f"n={table.n} fmax={table.fmax} lower={args.n // 2} upper={2 * args.n // 3}")
    return EXIT_OK


def cmd_witness(args) -> int:
    found = metrics.hard_witnesses(args.n, args.limit, args.seed)
    lines = "".join(format_permutation(w) + "\n" for w in found)
    _emit(lines, args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    p = _read_perm(args)
    cert = metrics.certify_lower_bound(p)
    print(
        f"parity_bound={cert.parity_bound} "
        f"adjacency_bound={cert.adjacency_bound} best={cert.best}"
    )
    return EXIT_OK


def cmd_random(args) -> int:
    print(format_permutation(random_permutation(args.n, args.seed)))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise InputError(f"--reps must be >= 1, got {args.reps}")
    algos = list(_ALGORITHMS) if args.algo == "all" else [args.algo]
    rows = ["n,algo,reps,mean_moves,max_moves,bound,mean_ms"]
    for n in args.n:
        for algo in algos:
            fn = _ALGORITHMS[algo]
            counts = []
            elapsed = []
            bound = None
            for rep in range(args.reps):
                p = random_permutation(n, args.seed + rep)
                t0 = time.perf_counter()
                result = fn(p)
                elapsed.append((time.perf_counter() - t0) * 1000.0)
                counts.append(result.move_count)
                bound = result.bound
                if result.move_count > result.bound:
                    raise sorter.DiagnosticFailure(
                        f"{algo} exceeded bound on n={n}", p.values
                    )
            rows.append(
                f"{n},{algo},{args.reps},{statistics.mean(counts):.2f},"
                f"{max(counts)},{bound},{statistics.mean(elapsed):.3f}"
            )
    text = "\n".join(rows) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutsort",
        description="Cut-and-paste sorting of permutations: bounded sorters, "
        "lower-bound certificates, and an exact BFS oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_perm(sp):
        sp.add_argument("--perm", help="permutation as space-separated values")

    sp = sub.add_parser("sort", help="sort a permutation and print the trace")
    add_perm(sp)
    sp.add_argument("--algo", choices=sorted(_ALGORITHMS), default="refined")
    sp.add_argument("--out", help="write the trace to this path")
    sp.set_defaults(fn=cmd_sort)

    sp = sub.add_parser("verify", help="replay a trace file and report")
    sp.add_argument("--trace", required=True, help="trace file path")
    sp.add_argument("--bound", type=int, help="move-count bound to check")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("distance", help="exact BFS distance plus certificates")
    add_perm(sp)
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("table", help="exact distance table for all of S_n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--limit", type=int, help="cap on recorded worst-case witnesses")
    sp.add_argument("--allow-n9", action="store_true")
    sp.add_argument("--out", help="write CSV here instead of stdout")
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("witness", help="minimum-parity-adjacency permutations")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--limit", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("bound", help="lower-bound certificate for a permutation")
    add_perm(sp)
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("random", help="seeded uniform random permutation")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_random)

    sp = sub.add_parser("bench", help="seeded benchmark, CSV output")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--algo", choices=sorted(_ALGORITHMS) + ["all"], default="all")
    sp.add_argument("--reps", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except oracle.ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except sorter.DiagnosticFailure as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    raise SystemExit(main())
