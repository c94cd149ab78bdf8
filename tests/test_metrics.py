import itertools

import pytest

from cutsort import (
    InputError,
    Mode,
    Move,
    MoveKind,
    Orientation,
    Permutation,
    SegmentKind,
    certify_lower_bound,
    decompose,
    even_before_odd,
    gain_thirds,
    hard_witnesses,
    max_parity_delta,
    parity_adjacencies,
    parse_permutation,
    weight_thirds,
)
from cutsort.metrics import (
    hard_witness_count,
    min_parity_adjacencies,
    parity_adjacency_count_values,
)


def naive_runs(values, circular):
    """Independent run finder: grow maximal runs pair by pair.

    A pair binds when the values differ by one, where in circular mode the
    top and bottom of the value range also count as differing by one; the
    run's direction must stay consistent.
    """
    n = len(values)
    runs = []
    start, direction = 0, 0
    for t in range(n - 1):
        a, b = values[t], values[t + 1]
        up = b - a == 1 or (circular and a - b == n - 1)
        down = a - b == 1 or (circular and b - a == n - 1)
        step = 1 if up else (-1 if down else 0)
        if step == 0 or (direction and step != direction):
            runs.append((start, t + 1))
            start, direction = t + 1, 0
        else:
            direction = direction or step
    runs.append((start, n))
    return runs


def perms(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


class TestDecompose:
    def test_wrapped_increasing_block_is_one_block(self):
        d = decompose(parse_permutation("3 4 5 1 2"), Mode.CIRCULAR)
        assert len(d.segments) == 1
        seg = d.segments[0]
        assert seg.kind is SegmentKind.BLOCK
        assert seg.orientation is Orientation.INCREASING

    def test_linear_mode_disables_the_wrap(self):
        d = decompose(parse_permutation("3 4 5 1 2"), Mode.LINEAR)
        assert [(s.start, s.stop, s.kind) for s in d.segments] == [
            (0, 3, SegmentKind.BLOCK),
            (3, 5, SegmentKind.BLOCK),
        ]

    def test_identity_is_one_increasing_block_in_both_modes(self):
        for mode in Mode:
            d = decompose(Permutation.identity(5), mode)
            assert len(d.segments) == 1
            assert d.segments[0].orientation is Orientation.INCREASING

    def test_top_bottom_pair_binds_circularly(self):
        # 4 and 1 are circularly consecutive, so [2 4 1 3] holds one block;
        # linearly it is four singletons.
        d = decompose(parse_permutation("2 4 1 3"), Mode.CIRCULAR)
        kinds = [s.kind for s in d.segments]
        assert kinds == [SegmentKind.SINGLETON, SegmentKind.BLOCK, SegmentKind.SINGLETON]
        d = decompose(parse_permutation("2 4 1 3"), Mode.LINEAR)
        assert all(s.kind is SegmentKind.SINGLETON for s in d.segments)

    def test_matches_naive_run_finder(self):
        for n in range(1, 8):
            for p in perms(n):
                for mode in Mode:
                    got = [(s.start, s.stop) for s in decompose(p, mode).segments]
                    assert got == naive_runs(p.values, mode is Mode.CIRCULAR)

    def test_partition_and_idempotence(self):
        for n in (1, 4, 7):
            for p in perms(n):
                d = decompose(p, Mode.CIRCULAR)
                assert sum(len(s) for s in d.segments) == n
                assert d.segments[0].start == 0
                for left, right in zip(d.segments, d.segments[1:]):
                    assert left.stop == right.start
                assert decompose(p, Mode.CIRCULAR) == d

    def test_segments_cannot_merge_across_boundaries(self):
        for p in perms(6):
            n = p.n
            for mode in Mode:
                circ = mode is Mode.CIRCULAR
                segs = decompose(p, mode).segments
                for left, right in zip(segs, segs[1:]):
                    a, b = p.values[left.stop - 1], p.values[right.start]
                    up = b - a == 1 or (circ and a - b == n - 1)
                    down = a - b == 1 or (circ and b - a == n - 1)
                    step = (
                        Orientation.INCREASING
                        if up
                        else (Orientation.DECREASING if down else None)
                    )
                    if step is None:
                        continue
                    left_fits = left.orientation in (None, step)
                    right_fits = right.orientation in (None, step)
                    assert not (left_fits and right_fits), (p.values, left, right)


class TestWeight:
    def test_identity_weighs_one(self):
        assert weight_thirds(Permutation.identity(7), Mode.CIRCULAR) == 3
        assert weight_thirds(Permutation.identity(7), Mode.LINEAR) == 3

    def test_all_singletons_reach_two_n_thirds(self):
        # no two circularly consecutive values sit together
        p = parse_permutation("1 3 5 2 4")
        assert weight_thirds(p, Mode.CIRCULAR) == 10

    def test_matches_segment_counts_everywhere(self):
        for n in range(1, 8):
            for p in perms(n):
                for mode in Mode:
                    d = decompose(p, mode)
                    expect = 3 * d.block_count + 2 * d.singleton_count
                    assert weight_thirds(p, mode) == expect

    def test_bounds(self):
        for n in range(2, 8):
            for p in perms(n):
                w = weight_thirds(p, Mode.CIRCULAR)
                assert 3 <= w <= 2 * n

    def test_weight_three_means_single_run(self):
        for p in perms(6):
            single = len(decompose(p, Mode.CIRCULAR).segments) == 1
            assert (weight_thirds(p, Mode.CIRCULAR) == 3) == single


class TestGain:
    def test_block_merge_gains_at_least_one(self):
        # [2 1 4 3] linearly: two blocks; pasting {4,3} in front merges them
        p = parse_permutation("2 1 4 3")
        m = Move(0, 2, 4, MoveKind.SWAP)  # -> 4 3 2 1
        assert gain_thirds(p, m, Mode.LINEAR) >= 3

    def test_identity_cannot_improve(self):
        p = Permutation.identity(6)
        assert gain_thirds(p, Move(0, 6, 6, MoveKind.REVERSE), Mode.CIRCULAR) <= 0

    def test_absorbing_a_singleton_gains_two_thirds(self):
        # [1 4 3 5 2]: {4,3} is a block; filing 2 next to 3 absorbs it
        p = parse_permutation("1 4 3 5 2")
        m = Move(3, 4, 5, MoveKind.SWAP)  # -> 1 4 3 2 5
        assert gain_thirds(p, m, Mode.CIRCULAR) == 2

    def test_gain_is_weight_difference(self):
        from cutsort import apply_move, enumerate_moves

        p = parse_permutation("2 4 1 3")
        for m in enumerate_moves(4):
            for mode in Mode:
                assert gain_thirds(p, m, mode) == weight_thirds(p, mode) - weight_thirds(
                    apply_move(p, m), mode
                )


class TestParityAdjacencies:
    def test_identity_scores_n_plus_one(self):
        assert parity_adjacencies(Permutation.identity(4)) == 5

    def test_even_before_odd_even_n(self):
        assert parity_adjacencies(parse_permutation("2 4 1 3")) == 1

    def test_even_before_odd_odd_n(self):
        assert parity_adjacencies(parse_permutation("2 4 1 3 5")) == 2

    def test_range_and_identity_attainment(self):
        for n in range(1, 8):
            for p in perms(n):
                pa = parity_adjacencies(p)
                assert 0 <= pa <= n + 1
            assert parity_adjacencies(Permutation.identity(n)) == n + 1


class TestCertificate:
    def test_identity_needs_nothing(self):
        assert certify_lower_bound(Permutation.identity(5)).best == 0

    def test_even_before_odd_gives_half_n(self):
        cert = certify_lower_bound(parse_permutation("2 4 1 3"))
        assert cert.parity_bound == 2
        assert cert.adjacency_bound == 2
        assert cert.best == 2

    def test_odd_case(self):
        cert = certify_lower_bound(parse_permutation("2 4 1 3 5"))
        assert cert.parity_bound == 2

    def test_even_before_odd_bound_formula(self):
        for n in range(2, 30):
            cert = certify_lower_bound(even_before_odd(n))
            assert cert.parity_bound == n // 2


class TestMaxParityDelta:
    def test_witness_reaches_two(self):
        assert max_parity_delta(parse_permutation("2 4 1 3")) == 2

    def test_identity_cannot_rise(self):
        assert max_parity_delta(Permutation.identity(5)) <= 0

    def test_never_exceeds_two_small(self):
        for n in range(2, 5):
            for p in perms(n):
                assert max_parity_delta(p) <= 2


class TestEvenBeforeOdd:
    def test_examples(self):
        assert even_before_odd(4).values == (2, 4, 1, 3)
        assert even_before_odd(5).values == (2, 4, 1, 3, 5)
        assert even_before_odd(1).values == (1,)

    def test_attains_the_minimum(self):
        for n in range(2, 9):
            assert parity_adjacencies(even_before_odd(n)) == min_parity_adjacencies(n)


class TestHardWitnesses:
    def test_exhaustive_includes_even_before_odd(self):
        found = hard_witnesses(4, limit=100)
        assert parse_permutation("2 4 1 3") in found

    def test_two_one_is_a_witness(self):
        assert parse_permutation("2 1") in hard_witnesses(2, limit=10)

    def test_odd_n_targets_two(self):
        for w in hard_witnesses(3, limit=10):
            assert parity_adjacencies(w) == 2

    def test_every_output_attains_the_minimum(self):
        for n in range(2, 8):
            for w in hard_witnesses(n, limit=25, seed=3):
                assert parity_adjacencies(w) == min_parity_adjacencies(n)

    def test_sampling_is_deterministic_and_distinct(self):
        a = hard_witnesses(6, limit=5, seed=11)
        b = hard_witnesses(6, limit=5, seed=11)
        assert a == b
        assert len({w.values for w in a}) == 5

    def test_large_n_uses_rejection_sampling(self):
        found = hard_witnesses(12, limit=4, seed=2)
        assert len(found) == 4
        for w in found:
            assert parity_adjacencies(w) == 1

    def test_rejects_tiny_n(self):
        with pytest.raises(InputError):
            hard_witnesses(1, limit=5)

    def test_count_matches_enumeration(self):
        for n in range(1, 9):
            target = min_parity_adjacencies(n)
            found = sum(
                1
                for values in itertools.permutations(range(1, n + 1))
                if parity_adjacency_count_values(values) == target
            )
            assert hard_witness_count(n) == found

    def test_limit_above_the_count_is_rejected_for_large_n(self):
        assert hard_witness_count(9) == 14_400
        for n in (9, 12):
            with pytest.raises(InputError, match="exceeds"):
                hard_witnesses(n, limit=hard_witness_count(n) + 1)
