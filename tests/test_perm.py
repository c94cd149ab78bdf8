import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutsort import (
    InputError,
    Move,
    MoveKind,
    ParseError,
    Permutation,
    ReplayError,
    Trace,
    TraceNote,
    adjacencies,
    apply_move,
    canonical_move_count,
    enumerate_moves,
    format_permutation,
    format_trace,
    is_identity,
    parse_permutation,
    parse_trace,
    random_permutation,
    replay,
)


def naive_splice(values, m: Move):
    """Independent oracle: apply a move by explicit cut-and-paste on strings."""
    chunks = [list(values[: m.i]), list(values[m.i : m.j]), list(values[m.j : m.k]),
              list(values[m.k :])]
    x, a, b, y = chunks
    if m.kind is MoveKind.SWAP:
        return x + b + a + y
    if m.kind is MoveKind.SWAP_REV_LEFT:
        return x + b + a[::-1] + y
    if m.kind is MoveKind.SWAP_REV_RIGHT:
        return x + b[::-1] + a + y
    whole = x + a + b + y
    return whole[: m.i] + whole[m.i : m.k][::-1] + whole[m.k :]


def perms(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


class TestApplyMove:
    def test_pure_block_swap_on_identity(self):
        p = Permutation.identity(5)
        q = apply_move(p, Move(0, 3, 5, MoveKind.SWAP))
        assert q.values == (4, 5, 1, 2, 3)

    def test_single_block_sorted_in_one_move(self):
        p = parse_permutation("3 4 5 1 2")
        q = apply_move(p, Move(0, 3, 5, MoveKind.SWAP))
        assert is_identity(q)

    def test_full_reversal(self):
        q = apply_move(parse_permutation("2 1"), Move(0, 2, 2, MoveKind.REVERSE))
        assert q.values == (1, 2)

    def test_swap_rev_right_matches_hand_application(self):
        p = Permutation.identity(4)
        q = apply_move(p, Move(1, 2, 4, MoveKind.SWAP_REV_RIGHT))
        assert q.values == (1, 4, 3, 2)
        assert list(q.values) == naive_splice(p.values, Move(1, 2, 4, MoveKind.SWAP_REV_RIGHT))

    def test_agrees_with_naive_splice_everywhere(self):
        for n in range(1, 6):
            for p in perms(n):
                for m in enumerate_moves(n):
                    assert list(apply_move(p, m).values) == naive_splice(p.values, m)

    def test_rejects_out_of_range_cut_point(self):
        with pytest.raises(InputError):
            apply_move(Permutation.identity(3), Move(0, 2, 4, MoveKind.SWAP))

    def test_move_constructor_rejects_degenerate_cuts(self):
        with pytest.raises(InputError):
            Move(0, 0, 2, MoveKind.SWAP)
        with pytest.raises(InputError):
            Move(1, 2, 2, MoveKind.REVERSE)  # single-element reversal
        with pytest.raises(InputError):
            Move(0, 1, 2, MoveKind.REVERSE)  # j must equal k

    def test_move_constructor_rejects_a_kind_that_is_not_a_move_kind(self):
        with pytest.raises(InputError, match="move kind must be a MoveKind, got 'swap'"):
            Move(0, 1, 3, "swap")

    def test_every_move_constructor_path_validates(self):
        m = Move(0, 1, 3, MoveKind.SWAP)
        assert Move._make((0, 1, 3, MoveKind.SWAP)) == m
        assert m._replace(kind=MoveKind.SWAP_REV_LEFT) == Move(0, 1, 3, MoveKind.SWAP_REV_LEFT)
        with pytest.raises(InputError):
            Move._make((0, 1, 3, "swap"))
        with pytest.raises(InputError):
            m._replace(kind="swap")
        with pytest.raises(InputError):
            m._replace(i=1)  # 1 < 1 < 3 fails
        assert copy.deepcopy(m) == m
        assert pickle.loads(pickle.dumps(m)) == m


class TestRecords:
    """Moves and trace notes are immutable values with a fixed repr."""

    def test_move_refuses_attribute_assignment(self):
        m = Move(0, 1, 3, MoveKind.SWAP)
        with pytest.raises(AttributeError):
            m.i = 2
        with pytest.raises(AttributeError):
            m.extra = 1
        assert m == Move(0, 1, 3, MoveKind.SWAP)

    def test_move_compares_and_hashes_by_fields(self):
        a, b = Move(0, 1, 3, MoveKind.SWAP), Move(0, 1, 3, MoveKind.SWAP)
        assert a == b and hash(a) == hash(b)
        assert a != Move(0, 1, 3, MoveKind.SWAP_REV_LEFT)
        assert a != Move(0, 2, 3, MoveKind.SWAP)
        assert len({a, b, Move(0, 3, 3, MoveKind.REVERSE)}) == 2

    def test_move_repr(self):
        m = Move(2, 4, 4, MoveKind.REVERSE)
        assert repr(m) == "Move(i=2, j=4, k=4, kind=<MoveKind.REVERSE: 'rev'>)"
        assert str(m) == repr(m)

    def test_trace_note_refuses_attribute_assignment(self):
        note = TraceNote(0, "closing", 3)
        with pytest.raises(AttributeError):
            note.gain_thirds = 4
        with pytest.raises(AttributeError):
            note.extra = 1

    def test_trace_note_compares_and_hashes_by_fields(self):
        a, b = TraceNote(1, "block", 3), TraceNote(1, "block", 3)
        assert a == b and hash(a) == hash(b)
        assert a != TraceNote(1, "block", 2)
        assert TraceNote(1, "block") == TraceNote(1, "block", None)
        assert len({a, b, TraceNote(2, "block", 3)}) == 2

    def test_trace_note_repr(self):
        assert repr(TraceNote(2, "closing")) == (
            "TraceNote(move_index=2, category='closing', gain_thirds=None)"
        )
        assert repr(TraceNote(0, "block", 3)) == (
            "TraceNote(move_index=0, category='block', gain_thirds=3)"
        )


class TestEnumerateMoves:
    def test_one_element_has_no_moves(self):
        assert enumerate_moves(1) == []

    def test_counts_match_closed_form(self):
        assert len(enumerate_moves(4)) == 36 == canonical_move_count(4)
        assert len(enumerate_moves(2)) == 4 == canonical_move_count(2)
        for n in range(1, 9):
            assert len(enumerate_moves(n)) == canonical_move_count(n)

    def test_no_structural_duplicates(self):
        for n in range(1, 7):
            moves = enumerate_moves(n)
            assert len(set(moves)) == len(moves)

    def test_every_move_changes_the_permutation(self):
        for n in range(1, 6):
            for p in perms(n):
                for m in enumerate_moves(n):
                    assert apply_move(p, m).values != p.values

    def test_moves_preserve_the_value_multiset(self):
        for n in range(2, 6):
            p = random_permutation(n, seed=n)
            for m in enumerate_moves(n):
                assert sorted(apply_move(p, m).values) == list(range(1, n + 1))


class TestAdjacencies:
    def test_identity_scores_n_plus_one(self):
        assert adjacencies(Permutation.identity(4)) == 5
        for n in range(1, 9):
            assert adjacencies(Permutation.identity(n)) == n + 1

    def test_no_adjacencies(self):
        assert adjacencies(parse_permutation("2 4 1 3")) == 0

    def test_two_one_counted_by_direct_oracle(self):
        # extended sequence 0 2 1 3: only |2-1| = 1 qualifies
        assert adjacencies(parse_permutation("2 1")) == 1

    def test_each_move_creates_at_most_three(self):
        for n in range(2, 6):
            moves = enumerate_moves(n)
            for p in perms(n):
                base = adjacencies(p)
                for m in moves:
                    assert adjacencies(apply_move(p, m)) - base <= 3


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000), st.data())
def test_reverse_is_an_involution(n, seed, data):
    p = random_permutation(n, seed)
    i = data.draw(st.integers(0, n - 2))
    k = data.draw(st.integers(i + 2, n))
    m = Move(i, k, k, MoveKind.REVERSE)
    assert apply_move(apply_move(p, m), m) == p


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10_000), st.integers(0, 6))
def test_replay_composes_over_prefixes(n, seed, cut):
    p = random_permutation(n, seed)
    moves = enumerate_moves(n)
    if not moves:
        return
    picks = tuple(moves[(seed + 7 * t) % len(moves)] for t in range(5))
    cut = min(cut, len(picks))
    middle = replay(Trace(p, picks[:cut]))
    assert replay(Trace(middle, picks[cut:])) == replay(Trace(p, picks))


class TestReplay:
    def test_empty_trace(self):
        p = parse_permutation("1 2 3")
        assert replay(Trace(p, ())) == p

    def test_single_block_sort(self):
        t = Trace(parse_permutation("3 4 5 1 2"), (Move(0, 3, 5, MoveKind.SWAP),))
        assert is_identity(replay(t))

    def test_double_reversal_is_identity_on_the_trace(self):
        m = Move(0, 2, 2, MoveKind.REVERSE)
        t = Trace(parse_permutation("2 1"), (m, m))
        assert replay(t).values == (2, 1)

    def test_illegal_move_reports_its_index(self):
        t = Trace(parse_permutation("2 1"), (Move(0, 2, 2, MoveKind.REVERSE),
                                             Move(0, 3, 3, MoveKind.REVERSE)))
        with pytest.raises(ReplayError) as err:
            replay(t)
        assert err.value.index == 1


class TestTextFormats:
    def test_parse_format_roundtrip(self):
        for text in ("2 4 1 3", "1", "3 1 2"):
            assert format_permutation(parse_permutation(text)) == text

    def test_parse_rejects_duplicates_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_permutation("1 1")
        assert err.value.position == 2

    def test_parse_rejects_out_of_range_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_permutation("3 5 1")
        assert err.value.position == 2

    def test_permutation_rejects_bad_values_with_position(self):
        for values in ((1, 1), (1, 5)):
            with pytest.raises(ParseError) as err:
                Permutation(values)
            assert err.value.position == 2

    def test_parse_rejects_empty_input(self):
        with pytest.raises(ParseError):
            parse_permutation("   ")

    def test_trace_roundtrip_with_annotations(self):
        trace = Trace(
            parse_permutation("3 4 5 1 2"),
            (Move(0, 3, 5, MoveKind.SWAP),),
            (TraceNote(0, "closing", 0),),
        )
        text = format_trace(trace)
        assert "move 0 3 5 swap" in text
        assert "# step closing gain=0" in text
        back = parse_trace(text)
        assert back == trace

    def test_trace_parser_flags_bad_lines(self):
        with pytest.raises(ParseError) as err:
            parse_trace("n 2\ninit 2 1\nmove 0 9 9 rev\n")
        assert err.value.position == 3
        with pytest.raises(ParseError):
            parse_trace("init 1 2\n")  # init before n

    def test_trace_parser_ignores_plain_comments(self):
        back = parse_trace("n 2\n# a remark\ninit 2 1\nmove 0 2 2 rev\n")
        assert len(back.moves) == 1 and not back.annotations


class TestRandomPermutation:
    def test_single_element(self):
        assert random_permutation(1, seed=99).values == (1,)

    def test_deterministic_per_seed(self):
        assert random_permutation(5, 7) == random_permutation(5, 7)

    def test_seeds_produce_different_outputs(self):
        assert random_permutation(5, 7) != random_permutation(5, 8)
        outs = {random_permutation(12, s).values for s in range(20)}
        assert len(outs) == 20

    def test_uniform_enough_on_tiny_case(self):
        counts = {}
        for s in range(1200):
            counts[random_permutation(3, s).values] = counts.get(
                random_permutation(3, s).values, 0
            ) + 1
        assert len(counts) == 6
        assert min(counts.values()) > 120
