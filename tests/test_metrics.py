import itertools

import pytest
from hypothesis import given, settings

from cutsort import (
    InputError,
    Mode,
    Move,
    MoveKind,
    Orientation,
    Permutation,
    certify_lower_bound,
    even_before_odd,
    hard_witnesses,
    max_parity_delta,
    parity_adjacencies,
    parse_permutation,
)
from cutsort.metrics import (
    hard_witness_count,
    min_parity_adjacencies,
    parity_adjacency_count_values,
    segment_spans,
    step_signs,
    weight_thirds_values,
)
from cutsort.perm import apply_move_values
from test_sorter import linear_windows_and_moves


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


def naive_weight(values, circular):
    """Weight in thirds from naive_runs: 3 per block, 2 per singleton."""
    return sum(3 if stop - start >= 2 else 2 for start, stop in naive_runs(values, circular))


def perms(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


def kinds(spans):
    return ["block" if stop - start >= 2 else "singleton" for start, stop, _ in spans]


class TestDecompose:
    def test_wrapped_increasing_block_is_one_block(self):
        spans = segment_spans(parse_permutation("3 4 5 1 2").values, Mode.CIRCULAR)
        assert spans == [(0, 5, Orientation.INCREASING)]

    def test_linear_mode_disables_the_wrap(self):
        spans = segment_spans(parse_permutation("3 4 5 1 2").values, Mode.LINEAR)
        assert [(start, stop) for start, stop, _ in spans] == [(0, 3), (3, 5)]
        assert kinds(spans) == ["block", "block"]

    def test_identity_is_one_increasing_block_in_both_modes(self):
        for mode in Mode:
            spans = segment_spans(Permutation.identity(5).values, mode)
            assert len(spans) == 1
            assert spans[0][2] is Orientation.INCREASING

    def test_top_bottom_pair_binds_circularly(self):
        # 4 and 1 are circularly consecutive, so [2 4 1 3] holds one block;
        # linearly it is four singletons.
        values = parse_permutation("2 4 1 3").values
        assert kinds(segment_spans(values, Mode.CIRCULAR)) == ["singleton", "block", "singleton"]
        assert set(kinds(segment_spans(values, Mode.LINEAR))) == {"singleton"}

    def test_two_value_circular_window_counts_both_steps_as_increasing(self):
        assert step_signs(1) == {1: 1, -1: 1}
        for values in ((1, 2), (2, 1)):
            assert segment_spans(values, Mode.CIRCULAR) == [(0, 2, Orientation.INCREASING)]
        # the same rule for a 2-value window inside a longer list
        assert segment_spans([1, 3, 2, 4], Mode.CIRCULAR, 1, 2) == [
            (1, 3, Orientation.INCREASING)
        ]
        assert segment_spans([1, 3, 2, 4], Mode.LINEAR, 1, 2) == [
            (1, 3, Orientation.DECREASING)
        ]
        assert weight_thirds_values([1, 3, 2, 4], Mode.CIRCULAR, 1, 2) == 3

    def test_matches_naive_run_finder(self):
        for n in range(1, 8):
            for p in perms(n):
                for mode in Mode:
                    got = [(start, stop) for start, stop, _ in segment_spans(p.values, mode)]
                    assert got == naive_runs(p.values, mode is Mode.CIRCULAR)

    def test_partition_and_idempotence(self):
        for n in (1, 4, 7):
            for p in perms(n):
                spans = segment_spans(p.values, Mode.CIRCULAR)
                assert sum(stop - start for start, stop, _ in spans) == n
                assert spans[0][0] == 0
                for left, right in zip(spans, spans[1:]):
                    assert left[1] == right[0]
                assert segment_spans(p.values, Mode.CIRCULAR) == spans

    def test_segments_cannot_merge_across_boundaries(self):
        for p in perms(6):
            n = p.n
            for mode in Mode:
                circ = mode is Mode.CIRCULAR
                spans = segment_spans(p.values, mode)
                for left, right in zip(spans, spans[1:]):
                    a, b = p.values[left[1] - 1], p.values[right[0]]
                    up = b - a == 1 or (circ and a - b == n - 1)
                    down = a - b == 1 or (circ and b - a == n - 1)
                    step = (
                        Orientation.INCREASING
                        if up
                        else (Orientation.DECREASING if down else None)
                    )
                    if step is None:
                        continue
                    left_fits = left[2] in (None, step)
                    right_fits = right[2] in (None, step)
                    assert not (left_fits and right_fits), (p.values, left, right)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(linear_windows_and_moves())
    def test_windows_match_naive_runs_on_the_slice(self, case):
        values, m, lo, hi = case
        for state in (values, apply_move_values(values, m)):
            window = state[lo : hi + 1]
            for mode in Mode:
                circular = mode is Mode.CIRCULAR
                spans = segment_spans(state, mode, lo, hi)
                expect = [(lo + start, lo + stop) for start, stop in naive_runs(window, circular)]
                assert [(start, stop) for start, stop, _ in spans] == expect
                assert weight_thirds_values(state, mode, lo, hi) == naive_weight(window, circular)


class TestWeight:
    def test_identity_weighs_one(self):
        assert weight_thirds_values(Permutation.identity(7).values, Mode.CIRCULAR) == 3
        assert weight_thirds_values(Permutation.identity(7).values, Mode.LINEAR) == 3

    def test_all_singletons_reach_two_n_thirds(self):
        # no two circularly consecutive values sit together
        p = parse_permutation("1 3 5 2 4")
        assert weight_thirds_values(p.values, Mode.CIRCULAR) == 10

    def test_matches_segment_counts_everywhere(self):
        for n in range(1, 8):
            for p in perms(n):
                for mode in Mode:
                    expect = naive_weight(p.values, mode is Mode.CIRCULAR)
                    assert weight_thirds_values(p.values, mode) == expect

    def test_bounds(self):
        for n in range(2, 8):
            for p in perms(n):
                w = weight_thirds_values(p.values, Mode.CIRCULAR)
                assert 3 <= w <= 2 * n

    def test_weight_three_means_single_run(self):
        for p in perms(6):
            single = len(naive_runs(p.values, True)) == 1
            assert (weight_thirds_values(p.values, Mode.CIRCULAR) == 3) == single


def gain(p, m, mode):
    """Weight reduction achieved by a move, in thirds (may be negative)."""
    after = apply_move_values(list(p.values), m)
    return weight_thirds_values(p.values, mode) - weight_thirds_values(after, mode)


class TestGain:
    def test_block_merge_gains_at_least_one(self):
        # [2 1 4 3] linearly: two blocks; pasting {4,3} in front merges them
        p = parse_permutation("2 1 4 3")
        m = Move(0, 2, 4, MoveKind.SWAP)  # -> 4 3 2 1
        assert gain(p, m, Mode.LINEAR) >= 3

    def test_identity_cannot_improve(self):
        p = Permutation.identity(6)
        assert gain(p, Move(0, 6, 6, MoveKind.REVERSE), Mode.CIRCULAR) <= 0

    def test_absorbing_a_singleton_gains_two_thirds(self):
        # [1 4 3 5 2]: {4,3} is a block; filing 2 next to 3 absorbs it
        p = parse_permutation("1 4 3 5 2")
        m = Move(3, 4, 5, MoveKind.SWAP)  # -> 1 4 3 2 5
        assert gain(p, m, Mode.CIRCULAR) == 2


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

    def test_large_n_draws_from_the_closed_form(self):
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
