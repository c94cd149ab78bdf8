import dataclasses
import itertools
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutsort import (
    Mode,
    Move,
    MoveKind,
    Permutation,
    StepCategory,
    audit_result,
    is_identity,
    longest_monotone,
    parse_permutation,
    parse_trace,
    format_trace,
    plan_step,
    random_permutation,
    replay,
    sort_basic,
    sort_insertion,
    sort_monotone,
    sort_refined,
)
from cutsort.metrics import weight_thirds_values
from cutsort.perm import adjacency_count_values, apply_move_values, enumerate_moves
from cutsort.sorter import GAIN_FLOORS, move_deltas


def sqrt_ceil(n):
    r = isqrt(n)
    return r if r * r == n else r + 1


def perms(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


def check(result):
    problems = audit_result(result)
    assert not problems, problems
    assert is_identity(replay(result.trace))
    assert result.move_count <= result.bound
    return result


class TestSortBasic:
    def test_identity_needs_no_moves(self):
        assert check(sort_basic(Permutation.identity(6))).move_count == 0

    def test_single_wrapped_block_sorts_in_one_move(self):
        assert check(sort_basic(parse_permutation("3 4 5 1 2"))).move_count == 1

    def test_small_witness_within_bound(self):
        result = check(sort_basic(parse_permutation("2 4 1 3")))
        assert result.move_count <= 3

    def test_reversed_thirty_within_bound(self):
        p = Permutation(tuple(range(30, 0, -1)))
        assert check(sort_basic(p)).move_count <= 21

    def test_exhaustive_small(self):
        for n in range(1, 7):
            for p in perms(n):
                assert check(sort_basic(p)).move_count <= 2 * n // 3 + 1


class TestSortRefined:
    def test_identity_needs_no_moves(self):
        assert check(sort_refined(Permutation.identity(9))).move_count == 0

    def test_exhaustive_n6_within_four_moves(self):
        for p in perms(6):
            assert check(sort_refined(p)).move_count <= 4

    def test_witness_takes_exactly_two(self):
        # certificate forces >= 2 and the floor(2n/3) bound forces <= 2
        assert check(sort_refined(parse_permutation("2 4 1 3"))).move_count == 2

    def test_exhaustive_small(self):
        for n in range(1, 7):
            for p in perms(n):
                assert check(sort_refined(p)).move_count <= 2 * n // 3

    def test_random_medium_sizes(self):
        for n in (20, 100):
            for seed in range(25):
                result = check(sort_refined(random_permutation(n, seed)))
                assert result.move_count <= 2 * n // 3

    def test_random_large(self):
        result = check(sort_refined(random_permutation(1000, 5)))
        assert result.move_count <= 666

    def test_traces_round_trip_with_annotations(self):
        result = sort_refined(parse_permutation("6 2 5 1 7 4 3"))
        text = format_trace(result.trace)
        back = parse_trace(text)
        assert back.moves == result.trace.moves
        assert back.annotations == result.trace.annotations


class TestStepPlanner:
    def test_block_instance(self):
        step = plan_step(parse_permutation("1 2 5 6 3 4"), Mode.LINEAR)
        assert step.category is StepCategory.BLOCK
        assert step.claimed_gain >= 3

    def test_bonus_instance(self):
        # front block [1 2]; 3 and 4 are free; the string "3 6 4" slides
        # between 2 and 5 creating two junctions
        for mode in Mode:
            step = plan_step(parse_permutation("1 2 5 7 3 6 4"), mode)
            assert step.category is StepCategory.BONUS
            assert step.claimed_gain >= 3
            assert len(step.moves) == 1

    def test_absorbing_pair_instance(self):
        # both value-neighbors of the element after the front block sit in
        # blocks pointing away; the planner must spend two moves for gain 2
        for mode in Mode:
            step = plan_step(parse_permutation("1 2 7 10 3 6 5 11 8 9 4"), mode)
            assert step.category is StepCategory.ABSORBING_PAIR
            assert len(step.moves) == 2
            assert step.claimed_gain >= 6

    def test_no_free_neighbor_state_still_gains(self):
        # window maximum right after the front block, inside a descending
        # block: the primary case analysis has no candidate, the fallback
        # scan must still find a full-gain step
        for mode in Mode:
            step = plan_step(parse_permutation("1 2 9 8 4 5 7 3 6"), mode)
            assert step.claimed_gain >= GAIN_FLOORS[step.category]

    def test_floors_hold_on_every_planned_step(self):
        for n in range(4, 7):
            for p in perms(n):
                result = sort_refined(p)
                for step in result.steps:
                    floor = GAIN_FLOORS.get(step.category)
                    if floor is not None:
                        assert step.claimed_gain >= floor


def recomputed_deltas(before, m, mode, lo, hi):
    """move_deltas' answer by full recomputation."""
    after = apply_move_values(before, m)
    adjacency = adjacency_count_values(after) - adjacency_count_values(before)
    weight = weight_thirds_values(after, mode, lo, hi) - weight_thirds_values(
        before, mode, lo, hi
    )
    return after, (adjacency, weight)


@st.composite
def linear_windows_and_moves(draw):
    """A LINEAR window [lo, hi] with its outside in place, and a move inside it."""
    n = draw(st.integers(2, 40))
    lo = draw(st.integers(0, n - 2))
    hi = draw(st.integers(lo + 1, n - 1))
    window = draw(st.permutations(range(lo + 1, hi + 2)))
    values = list(range(1, lo + 1)) + list(window) + list(range(hi + 2, n + 1))
    i, j, k = sorted(
        draw(st.lists(st.integers(lo, hi + 1), min_size=3, max_size=3, unique=True))
    )
    kind = draw(st.sampled_from(MoveKind))
    move = Move(i, k, k, kind) if kind is MoveKind.REVERSE else Move(i, j, k, kind)
    return values, move, lo, hi


class TestMoveDeltas:
    def test_every_move_on_small_n_in_both_modes(self):
        for n in range(1, 7):
            moves = enumerate_moves(n)
            for p in perms(n):
                before = list(p.values)
                for mode in Mode:
                    for m in moves:
                        after, expected = recomputed_deltas(before, m, mode, 0, n - 1)
                        assert move_deltas(before, after, m, mode, 0, n - 1) == expected

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(linear_windows_and_moves())
    def test_linear_windows(self, case):
        values, m, lo, hi = case
        after, expected = recomputed_deltas(values, m, Mode.LINEAR, lo, hi)
        assert move_deltas(values, after, m, Mode.LINEAR, lo, hi) == expected

    def test_rejects_a_move_leaving_the_window(self):
        values = [1, 3, 2, 4]
        m = Move(0, 2, 3, MoveKind.SWAP)
        with pytest.raises(ValueError):
            move_deltas(values, apply_move_values(values, m), m, Mode.LINEAR, 1, 2)


class TestSortInsertion:
    def test_identity(self):
        assert check(sort_insertion(Permutation.identity(5))).move_count == 0

    def test_swap_pair(self):
        assert check(sort_insertion(parse_permutation("2 1"))).move_count == 1

    def test_reversed_ten(self):
        p = Permutation(tuple(range(10, 0, -1)))
        assert check(sort_insertion(p)).move_count <= 9

    def test_exhaustive_small(self):
        for n in range(1, 7):
            for p in perms(n):
                assert check(sort_insertion(p)).move_count <= max(n - 1, 0)

    def test_random(self):
        for seed in range(10):
            result = check(sort_insertion(random_permutation(64, seed)))
            assert result.move_count <= 63


class TestLongestMonotone:
    def brute(self, values):
        n = len(values)
        for k in range(n, 0, -1):
            first_dec = None
            for combo in itertools.combinations(range(n), k):
                seq = [values[i] for i in combo]
                if all(a < b for a, b in zip(seq, seq[1:])):
                    return "increasing", combo
                if first_dec is None and all(a > b for a, b in zip(seq, seq[1:])):
                    first_dec = combo
            if first_dec is not None:
                return "decreasing", first_dec
        raise AssertionError("unreachable")

    def test_simple_example(self):
        orient, idxs = longest_monotone(parse_permutation("1 3 2"))
        assert orient == "increasing"
        assert idxs == (0, 1)

    def test_identity_takes_everything(self):
        orient, idxs = longest_monotone(Permutation.identity(6))
        assert orient == "increasing" and len(idxs) == 6

    def test_agrees_with_brute_force(self):
        for n in range(1, 8):
            for p in perms(n):
                assert longest_monotone(p) == self.brute(p.values)

    def test_length_meets_the_square_root_floor(self):
        for n in (10, 50, 200):
            for seed in range(5):
                p = random_permutation(n, seed)
                _, idxs = longest_monotone(p)
                assert len(idxs) >= sqrt_ceil(n)


class TestSortMonotone:
    def test_identity(self):
        assert check(sort_monotone(Permutation.identity(8))).move_count == 0

    def test_reversed_needs_one_reversal(self):
        p = Permutation(tuple(range(9, 0, -1)))
        assert check(sort_monotone(p)).move_count == 1

    def test_random_hundred_within_bound(self):
        result = check(sort_monotone(random_permutation(100, 1)))
        assert result.move_count <= 91

    def test_exhaustive_small(self):
        for n in range(1, 7):
            for p in perms(n):
                assert check(sort_monotone(p)).move_count <= n - sqrt_ceil(n) + 1


class TestStructuredInputs:
    """Inputs chosen to force the rarer openings and window recursions."""

    def families(self, n):
        yield Permutation(tuple(range(1, n + 1)))
        yield Permutation(tuple(range(n, 0, -1)))
        for shift in (1, 2, n // 2):
            yield Permutation(tuple((t + shift) % n + 1 for t in range(n)))
        evens = tuple(range(2, n + 1, 2))
        odds = tuple(range(1, n + 1, 2))
        yield Permutation(evens + odds)
        yield Permutation(odds[::-1] + evens[::-1])
        # adjacent swaps everywhere: value 1 starts inside a block
        paired = []
        for a in range(2, n + 1, 2):
            paired.extend((a, a - 1))
        if n % 2:
            paired.append(n)
        yield Permutation(tuple(paired))
        # descending pairs of blocks
        blocks = []
        size = 3
        start = n
        while start > 0:
            chunk = list(range(max(1, start - size + 1), start + 1))
            blocks.extend(chunk)
            start -= size
        yield Permutation(tuple(blocks))

    def test_families_across_sizes(self):
        for n in (9, 10, 16, 23, 30, 47):
            for p in self.families(n):
                check(sort_refined(p))
                check(sort_basic(p))

    def test_window_shrink_special_case(self):
        # the segment fetched toward the front starts "minimum, maximum":
        # the sorter must anchor both ends and recurse on the middle window
        p = parse_permutation("5 8 4 9 1 7 2 3 6")
        result = check(sort_refined(p))
        assert result.move_count <= 6

    def test_second_element_small_cases(self):
        check(sort_refined(parse_permutation("2 5 8 1 4 7 3 9 6")))
        check(sort_refined(parse_permutation("3 2 1 6 5 4 9 8 7")))
        check(sort_refined(parse_permutation("2 1 4 3 6 5 8 7 10 9")))


class TestResultShape:
    def test_histogram_counts_steps(self):
        result = sort_refined(parse_permutation("6 2 5 1 7 4 3"))
        assert sum(result.category_histogram.values()) == len(result.steps)
        assert sum(len(s.moves) for s in result.steps) == result.move_count

    def test_annotations_reference_moves(self):
        result = sort_basic(parse_permutation("4 1 6 3 2 5"))
        for note in result.trace.annotations:
            assert 0 <= note.move_index < result.move_count

    def test_baselines_have_no_step_annotations(self):
        result = sort_insertion(parse_permutation("3 1 2"))
        assert result.steps == () and result.category_histogram == {}


class TestAudit:
    @pytest.mark.parametrize("sort", [sort_basic, sort_refined])
    def test_a_raised_claim_is_reported_at_every_step(self, sort):
        # Consecutive steps on one window share a weight measurement; each
        # step's claim is still checked against its own measured gain.  At
        # n = 10 the refined sorter's windows shrink between steps.
        for n, seed in itertools.product((10, 40), range(6)):
            result = sort(random_permutation(n, seed=seed))
            assert audit_result(result) == []
            for index, step in enumerate(result.steps):
                if step.claimed_gain is None:
                    continue
                steps = list(result.steps)
                steps[index] = dataclasses.replace(step, claimed_gain=step.claimed_gain + 1)
                problems = audit_result(dataclasses.replace(result, steps=tuple(steps)))
                assert problems == [
                    f"{step.category.value} claimed {step.claimed_gain + 1}, "
                    f"measured {step.claimed_gain}"
                ], (n, seed, index, problems)
