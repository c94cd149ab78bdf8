"""
The benchmark's workloads.  Each draws its inputs from its own seeded RNG
during set-up; the program receives only the generated permutations.

A round is a fixed batch of operations with every check on their
outputs, timed on the workload's `clock` (see clock.py), which it syncs
around every sort, or after every group of inputs on `oracle-exact`.
`weight-large` holds 100 inputs and `baseline-large` 400, in batches of
20, and a run covers every batch at least once, so each run sorts at
least 100 inputs; `oracle-exact` is one batch.  Every call into the
program goes through `Workload.call`, which counts it as attempted and
counts an exception it raises as failed.
"""

from __future__ import annotations

import random
import sys
from itertools import permutations
from time import perf_counter

from checks import (
    CheckFailed,
    all_moves,
    apply_cut_paste,
    certificate,
    check_bracket,
    check_exact,
    check_neighbours,
    check_round_trip,
    check_sort,
    check_table,
    even_before_odd,
    inverse,
    lehmer_rank,
)


class Workload:
    name = ""
    # Sync the clock around every sorter call, so that a sort is scaled by
    # the machine's speed right around it.  Too costly for sorts at n=7.
    SYNC_EACH_SORT = True

    def __init__(self, cutsort, rng: random.Random):
        self.cs = cutsort
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.moves: dict[tuple, tuple[int, int]] = {}  # (input, algorithm) -> (moves, n)
        self.round_moves = 0
        self.steps = dict.fromkeys((c.value for c in cutsort.sorter.StepCategory), 0)
        self.clock = None  # set before the first round

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a program fault: counted, reported once, run goes on
            self.failed += 1
            if self.failed == 1:
                print(f"perfbench: {fn.__name__} raised {exc!r}", file=sys.stderr)
            return None

    def sort_all(self, perm, algorithms) -> list:
        """Run one input through each sorter, timing the sorter calls only."""
        results = []
        self.clock.start_sample()
        if self.SYNC_EACH_SORT:
            self.clock.sync()
        for algorithm in algorithms:
            fn = getattr(self.cs.sorter, f"sort_{algorithm}")
            start = perf_counter()
            results.append(self.call(fn, perm))
            self.clock.add(perf_counter() - start)
            if self.SYNC_EACH_SORT:
                self.clock.sync()
        return results

    def record(self, key, algorithm: str, perm, result) -> None:
        """Check one sort result and keep its move count.  A later round
        on the same input must give the same count."""
        if result is None:
            return
        moves = check_sort(algorithm, perm.values, result)
        seen = self.moves.setdefault((key, algorithm), (moves, perm.n))
        if seen[0] != moves:
            raise CheckFailed(f"{algorithm} gave {moves} moves, earlier {seen[0]}, on one input")
        self.round_moves += moves
        for category, count in result.category_histogram.items():
            self.steps[category] += count

    def reset_counts(self) -> None:
        self.clock.samples.clear()
        self.round_moves = 0
        self.steps = dict.fromkeys(self.steps, 0)

    def random_perm(self, n: int):
        values = list(range(1, n + 1))
        self.rng.shuffle(values)
        return self.cs.Permutation(tuple(values))

    def split(self, pool: list, size: int) -> None:
        """Number the inputs and cut them into batches of `size`."""
        pool = list(enumerate(pool))
        self.batches = [pool[s : s + size] for s in range(0, len(pool), size)]

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> None:
        raise NotImplementedError


class WeightLarge(Workload):
    """Random n=500: both weight sorters, audited, trace text round-tripped."""

    name = "weight-large"
    N, INPUTS, BATCH = 500, 100, 20
    ALGORITHMS = ("refined", "basic")

    def __init__(self, cutsort, rng):
        super().__init__(cutsort, rng)
        self.split([self.random_perm(self.N) for _ in range(self.INPUTS)], self.BATCH)

    def warm_up(self) -> None:
        p = self.random_perm(60)
        for algorithm in self.ALGORITHMS:
            result = getattr(self.cs.sorter, f"sort_{algorithm}")(p)
            self.cs.sorter.audit_result(result)
            self.cs.perm.parse_trace(self.cs.perm.format_trace(result.trace))

    def run_round(self, index: int) -> None:
        sorter, perm_mod = self.cs.sorter, self.cs.perm
        for key, p in self.batches[index % len(self.batches)]:
            results = self.sort_all(p, self.ALGORITHMS)
            for algorithm, result in zip(self.ALGORITHMS, results):
                if result is None:
                    continue
                problems = self.call(sorter.audit_result, result)
                if problems:
                    raise CheckFailed(f"audit_result reports {problems[:3]}")
                text = self.call(perm_mod.format_trace, result.trace)
                parsed = None if text is None else self.call(perm_mod.parse_trace, text)
                if parsed is not None:
                    check_round_trip(result.trace, parsed)
                self.record(key, algorithm, p, result)


class BaselineLarge(Workload):
    """
    Random n=1024: the insertion and monotone baselines.

    `sort_monotone` takes about 40% longer when the longest monotone
    subsequence is increasing than when it is decreasing, so per-input
    times fall into two clusters, and the share of each among 100 uniform
    inputs moved the median by 10% from seed to seed.  The inputs are
    therefore drawn in antithetic pairs, p and its reversal: the pair is
    still uniform, and the reversal swaps the two orientations (ties
    aside), which pins their shares near one half.
    """

    name = "baseline-large"
    N, INPUTS, BATCH = 1024, 400, 20
    ALGORITHMS = ("insertion", "monotone")

    def __init__(self, cutsort, rng):
        super().__init__(cutsort, rng)
        pool = []
        for _ in range(self.INPUTS // 2):
            p = self.random_perm(self.N)
            pool += [p, cutsort.Permutation(p.values[::-1])]
        self.split(pool, self.BATCH)

    def warm_up(self) -> None:
        p = self.random_perm(64)
        for algorithm in self.ALGORITHMS:
            getattr(self.cs.sorter, f"sort_{algorithm}")(p)

    def run_round(self, index: int) -> None:
        for key, p in self.batches[index % len(self.batches)]:
            results = self.sort_all(p, self.ALGORITHMS)
            for algorithm, result in zip(self.ALGORITHMS, results):
                self.record(key, algorithm, p, result)


class OracleExact(Workload):
    """
    build_table(7), all of S_7 through both weight sorters against the
    table, then bfs_distance at n=8.

    The uniform random n=8 permutations tried all lay at distance 3, and
    their early-exit BFS took 0.06 s to 1.4 s each, which would make the
    round time depend on the seed.  So the depth-4 load is carried by the fixed
    even-before-odd query and its inverse, and the seeded n=8 sample is
    drawn two random moves from the identity.
    """

    name = "oracle-exact"
    SYNC_EACH_SORT = False
    N = 7
    ALGORITHMS = ("refined", "basic")
    NEIGHBOUR_SAMPLE = 40
    N8_SAMPLE = 4
    SYNC_EVERY = 252  # S_7 inputs per clock segment, about 50 ms

    def __init__(self, cutsort, rng):
        super().__init__(cutsort, rng)
        perm = cutsort.Permutation
        everything = [perm(v) for v in permutations(range(1, self.N + 1))]
        self.split(everything, len(everything))
        self.neighbour_sample = [p.values for p in rng.sample(everything, self.NEIGHBOUR_SAMPLE)]
        moves8 = all_moves(8)
        sample = [even_before_odd(8)]
        while len(sample) < 1 + self.N8_SAMPLE:
            values = list(range(1, 9))
            for _ in range(2):
                values = apply_cut_paste(values, *rng.choice(moves8))
            if values != list(range(1, 9)) and tuple(values) not in sample:
                sample.append(tuple(values))
        self.n8 = [(perm(v), perm(inverse(v))) for v in sample]

    def warm_up(self) -> None:
        self.cs.oracle.build_table(5)
        p = self.cs.Permutation((3, 1, 4, 2, 5))
        self.cs.sorter.sort_refined(p)
        self.cs.sorter.sort_basic(p)
        self.cs.oracle.bfs_distance(p)
        self.cs.metrics.certify_lower_bound(p)

    def run_round(self, index: int) -> None:
        cs = self.cs
        table = self.call(cs.oracle.build_table, self.N)
        if table is None:
            return
        distances = table.distances
        check_table(self.N, distances, table.fmax)
        self.clock.sync()
        for key, p in self.batches[0]:
            results = self.sort_all(p, self.ALGORITHMS)
            for algorithm, result in zip(self.ALGORITHMS, results):
                self.record(key, algorithm, p, result)
            exact = distances[lehmer_rank(p.values)]
            looked_up = self.call(table.distance_of, p)
            if looked_up is not None and looked_up != exact:
                raise CheckFailed(f"distance_of{p.values} = {looked_up}, table holds {exact}")
            cert = self.call(cs.metrics.certify_lower_bound, p)
            own = certificate(p.values)
            if cert is not None and cert.best != own:
                raise CheckFailed(f"certify_lower_bound{p.values} = {cert.best}, expected {own}")
            for result in results:
                if result is not None:
                    check_bracket(p.values, own, exact, result.move_count)
            if key % self.SYNC_EVERY == self.SYNC_EVERY - 1:
                self.clock.sync()
        for values in self.neighbour_sample:
            check_neighbours(values, distances)
        self.clock.sync()
        for key, (p, p_inv) in enumerate(self.n8):
            exact = self.call(cs.oracle.bfs_distance, p)
            exact_inv = self.call(cs.oracle.bfs_distance, p_inv)
            result = self.call(cs.sorter.sort_refined, p)
            if None in (exact, exact_inv, result):
                continue
            self.record(("n8", key), "refined", p, result)
            check_exact(p.values, exact, exact_inv, result.move_count)
            self.clock.sync()


WORKLOADS = {cls.name: cls for cls in (WeightLarge, OracleExact, BaselineLarge)}
