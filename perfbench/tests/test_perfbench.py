"""
Fast tests of the benchmark itself: each independent check fails on a
corrupted output, the traced run puts every wrapped function back, and
the command refuses to run without the checkout's own package.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from itertools import permutations
from math import comb
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import cutsort  # noqa: E402
import cutsort.oracle  # noqa: E402
import cutsort.sorter  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    all_moves,
    apply_cut_paste,
    certificate,
    check_exact,
    check_neighbours,
    check_round_trip,
    check_sort,
    check_table,
    inverse,
    lehmer_rank,
)
from tracer import SPANS, Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

Move, Kind = cutsort.Move, cutsort.MoveKind


def fake_result(initial, moves):
    trace = cutsort.Trace(cutsort.Permutation(tuple(initial)), tuple(moves))
    return SimpleNamespace(trace=trace, move_count=len(moves), category_histogram={})


# (2 1 3) -> (1 2 3) -> (2 3 1) -> (1 2 3): sorted, but in three moves,
# and the middle move loses three adjacencies.
DETOUR = [Move(0, 1, 2, Kind.SWAP), Move(0, 1, 3, Kind.SWAP), Move(0, 2, 3, Kind.SWAP)]


class MoveDefinition(unittest.TestCase):
    def test_variants_follow_the_paper(self):
        v = [1, 2, 3, 4, 5, 6]  # X = [1], A = [2, 3], B = [4, 5], Y = [6]
        self.assertEqual(apply_cut_paste(v, 1, 3, 5, "swap"), [1, 4, 5, 2, 3, 6])
        self.assertEqual(apply_cut_paste(v, 1, 3, 5, "swaprl"), [1, 4, 5, 3, 2, 6])
        self.assertEqual(apply_cut_paste(v, 1, 3, 5, "swaprr"), [1, 5, 4, 2, 3, 6])
        self.assertEqual(apply_cut_paste(v, 1, 5, 5, "rev"), [1, 5, 4, 3, 2, 6])

    def test_malformed_moves_are_refused(self):
        for move in [(2, 2, 4, "swap"), (0, 3, 7, "swap"), (1, 2, 2, "rev"), (0, 2, 3, "rev")]:
            with self.assertRaises(CheckFailed):
                apply_cut_paste([1, 2, 3, 4, 5, 6], *move)

    def test_move_count_matches_the_closed_form(self):
        for n in range(1, 8):
            self.assertEqual(len(all_moves(n)), 3 * comb(n + 1, 3) + comb(n + 1, 2) - n)

    def test_inverse_and_rank(self):
        self.assertEqual(inverse((2, 4, 1, 3)), (3, 1, 4, 2))
        self.assertEqual(lehmer_rank((1, 2, 3)), 0)
        self.assertEqual(lehmer_rank((3, 2, 1)), 5)
        self.assertEqual(certificate((2, 4, 6, 8, 1, 3, 5, 7)), 4)


class SortChecks(unittest.TestCase):
    def setUp(self):
        self.p = cutsort.Permutation((5, 2, 7, 1, 3, 8, 6, 4))

    def test_real_results_pass(self):
        for algorithm in ("refined", "basic", "insertion", "monotone"):
            result = getattr(cutsort.sorter, f"sort_{algorithm}")(self.p)
            self.assertEqual(check_sort(algorithm, self.p.values, result), result.move_count)

    def test_a_corrupted_move_fails(self):
        result = cutsort.sorter.sort_refined(self.p)
        moves = list(result.trace.moves)
        reverse_all = Move(0, 8, 8, Kind.REVERSE)
        self.assertNotEqual(moves[0], reverse_all)
        moves[0] = reverse_all
        with self.assertRaisesRegex(CheckFailed, "identity|adjacencies"):
            check_sort("refined", self.p.values, fake_result(self.p.values, moves))

    def test_a_wrong_start_or_count_fails(self):
        result = cutsort.sorter.sort_basic(self.p)
        with self.assertRaisesRegex(CheckFailed, "another permutation"):
            check_sort("basic", (1, 2, 3, 4, 5, 6, 8, 7), result)
        result.move_count += 1
        with self.assertRaisesRegex(CheckFailed, "move_count"):
            check_sort("basic", self.p.values, result)

    def test_a_count_over_its_bound_fails(self):
        with self.assertRaisesRegex(CheckFailed, "over its bound 2"):
            check_sort("insertion", (2, 1, 3), fake_result((2, 1, 3), DETOUR))

    def test_a_dropped_adjacency_fails_for_the_weight_sorters(self):
        with self.assertRaisesRegex(CheckFailed, "drops adjacencies"):
            check_sort("refined", (2, 1, 3), fake_result((2, 1, 3), DETOUR))

    def test_a_changed_trace_text_fails(self):
        result = cutsort.sorter.sort_refined(self.p)
        parsed = cutsort.parse_trace(cutsort.format_trace(result.trace))
        check_round_trip(result.trace, parsed)
        dropped = replace(parsed, moves=parsed.moves[:-1])
        with self.assertRaisesRegex(CheckFailed, "move list"):
            check_round_trip(result.trace, dropped)
        renoted = replace(parsed, annotations=parsed.annotations[1:])
        with self.assertRaisesRegex(CheckFailed, "annotations"):
            check_round_trip(result.trace, renoted)


class OracleChecks(unittest.TestCase):
    N = 5

    @classmethod
    def setUpClass(cls):
        cls.table = cutsort.oracle.build_table(cls.N)

    def altered(self, changes):
        distances = bytearray(self.table.distances)
        for values, d in changes.items():
            distances[lehmer_rank(values)] = d
        return distances

    def test_the_real_table_passes(self):
        check_table(self.N, self.table.distances, self.table.fmax)
        for values in [(1, 2, 3, 4, 5), (2, 4, 1, 5, 3), (5, 4, 3, 2, 1)]:
            check_neighbours(values, self.table.distances)

    def test_an_altered_entry_fails(self):
        cases = {
            "only permutation at distance 0": {(1, 2, 3, 4, 5): 1},
            "unseen or above": {(2, 1, 4, 3, 5): 0xFF},
            "at distance 1": {(2, 1, 3, 4, 5): 2},
        }
        for message, change in cases.items():
            with self.subTest(message), self.assertRaisesRegex(CheckFailed, message):
                check_table(self.N, self.altered(change), self.table.fmax)
        with self.assertRaisesRegex(CheckFailed, "entries"):
            check_table(self.N, self.table.distances[:-1], self.table.fmax)
        with self.assertRaisesRegex(CheckFailed, "fmax"):
            check_table(self.N, self.table.distances, self.table.fmax + 1)

    def test_an_asymmetric_distance_fails(self):
        # Swap the entries of p (distance 2) and q (distance 1): every count
        # stays the same, but d(p) no longer equals d(p^-1).
        d = self.table.distances
        perms = list(permutations(range(1, self.N + 1)))
        p = next(v for v in perms if d[lehmer_rank(v)] == 2 and inverse(v) != v)
        q = next(v for v in perms if d[lehmer_rank(v)] == 1)
        with self.assertRaisesRegex(CheckFailed, r"d\(p\) != d\(p\^-1\)"):
            check_table(self.N, self.altered({p: 1, q: 2}), self.table.fmax)
        with self.assertRaisesRegex(CheckFailed, r"d\(p\^-1\)"):
            check_exact((2, 4, 1, 3), 2, 1, 3)

    def test_a_broken_neighbourhood_fails(self):
        values = (2, 1, 3, 4, 5)  # distance 1
        with self.assertRaisesRegex(CheckFailed, "more than one move"):
            check_neighbours(values, self.altered({values: 3}))
        with self.assertRaisesRegex(CheckFailed, "at distance 0"):
            check_neighbours(values, self.altered({(1, 2, 3, 4, 5): 2}))

    def test_exact_outside_its_bracket_fails(self):
        with self.assertRaisesRegex(CheckFailed, "certificate"):
            check_exact((2, 4, 6, 8, 1, 3, 5, 7), 3, 3, 5)  # the certificate is 4
        with self.assertRaisesRegex(CheckFailed, "sorter"):
            check_exact((2, 1, 3), 2, 2, 1)


class Tracing(unittest.TestCase):
    def snapshot(self):
        return {
            (name, attr): value
            for name, mod in sys.modules.items()
            if name == "cutsort" or name.startswith("cutsort.")
            for attr, value in vars(mod).items()
            if callable(value)
        }

    def test_the_traced_run_restores_every_wrapped_function(self):
        before = self.snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            wrapped = {(m, a) for (m, a), v in self.snapshot().items() if v is not before[(m, a)]}
            self.assertIn(("cutsort.sorter", "apply_move_values"), wrapped)
            self.assertIn(("cutsort.perm", "apply_move_values"), wrapped)
            self.assertIn(("cutsort", "sort_refined"), wrapped)
            self.assertEqual({a for _, a in wrapped}, {a for _, a in SPANS})
            result = cutsort.sort_refined(cutsort.Permutation((3, 1, 4, 2, 5)))
            cutsort.oracle.build_table(3)
        finally:
            tracer.uninstall()
        self.assertEqual(self.snapshot(), before)
        total = tracer.totals()
        self.assertEqual(total["sorter.sort"][0], 1)
        self.assertGreater(total["perm.apply_move_values"][0], result.move_count - 1)
        sort_time, self_time = total["sorter.sort"][1:]
        self.assertLess(self_time, sort_time)
        self.assertEqual(tracer.children_of("oracle.build_table")["oracle.rank_permutation"][0],
                         1 + 6 * 15)  # the identity, then the 15 children of all 3! states

    def test_restored_after_an_exception(self):
        before = self.snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            with self.assertRaises(AttributeError):
                cutsort.sorter.sort_refined(None)  # raises inside the wrapped call
        finally:
            tracer.uninstall()
        self.assertEqual(self.snapshot(), before)
        self.assertEqual([r["name"] for r in tracer.records], ["sorter.sort"])


class Counting(unittest.TestCase):
    def test_a_raising_call_is_counted_as_failed(self):
        workload = Workload(cutsort, None)

        def broken(_):
            raise cutsort.DiagnosticFailure("no valid step", (2, 1))

        self.assertIsNone(workload.call(broken, None))
        self.assertEqual(workload.call(len, (1, 2)), 2)
        self.assertEqual((workload.attempted, workload.failed), (2, 1))

    def test_a_changed_move_count_between_rounds_fails(self):
        workload = Workload(cutsort, None)
        p = cutsort.Permutation((2, 1, 3, 4))
        workload.record(0, "insertion", p, fake_result(p.values, DETOUR[:1]))
        with self.assertRaisesRegex(CheckFailed, "earlier"):
            workload.record(0, "insertion", p, fake_result(p.values, DETOUR))


class Command(unittest.TestCase):
    def test_refuses_a_checkout_without_src(self):
        scratch = os.path.join(BENCH, "out")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "baseline-large",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")
        self.assertEqual(len(done.stderr.strip().splitlines()), 1)
        self.assertIn("no package", done.stderr)


if __name__ == "__main__":
    unittest.main()
