import itertools
from math import factorial

import pytest

from cutsort import (
    InputError,
    Permutation,
    ResourceGuardError,
    apply_move,
    bfs_distance,
    certify_lower_bound,
    enumerate_moves,
    parse_permutation,
    random_permutation,
    rank_permutation,
    sort_refined,
    unrank_permutation,
)
from cutsort.oracle import (
    _move_gathers,
    build_table,
    load_table,
    save_table,
    save_witnesses,
    verify_certificates,
)


def inverse_of(values):
    inverse = [0] * len(values)
    for pos, v in enumerate(values):
        inverse[v - 1] = pos + 1
    return tuple(inverse)


class TestMoveGathers:
    def test_closed_under_inversion(self):
        # build_table's symmetric BFS and bfs_distance's ball around the
        # identity both rest on this: every move is undone by a move
        for n in range(1, 10):
            positions = tuple(range(n))
            sigmas = {gather(positions) for gather in _move_gathers(n)}
            for sigma in sigmas:
                undo = [0] * n
                for pos, source in enumerate(sigma):
                    undo[source] = pos
                assert tuple(undo) in sigmas, (n, sigma)

    def test_gather_is_the_move(self):
        for n in range(2, 7):
            state = tuple(range(n, 0, -1))
            for gather, m in zip(_move_gathers(n), enumerate_moves(n)):
                assert gather(state) == apply_move(Permutation(state), m).values


class TestRanking:
    def test_roundtrip_is_lexicographic(self):
        for n in range(1, 7):
            for expected_rank, values in enumerate(
                itertools.permutations(range(1, n + 1))
            ):
                assert rank_permutation(values) == expected_rank
                assert unrank_permutation(n, expected_rank) == values

    def test_unrank_rejects_bad_rank(self):
        with pytest.raises(Exception):
            unrank_permutation(4, factorial(4))


class TestBfsDistance:
    def test_identity_is_zero(self):
        assert bfs_distance(Permutation.identity(5)) == 0

    def test_single_swap_pair(self):
        assert bfs_distance(parse_permutation("2 1")) == 1

    def test_even_before_odd_four(self):
        # lower bound 2 from the certificate, upper bound 2 from the sorter
        assert bfs_distance(parse_permutation("2 4 1 3")) == 2

    def test_guard_refuses_large_n(self):
        with pytest.raises(ResourceGuardError):
            bfs_distance(Permutation.identity(10))

    def test_disconnected_graph_raises_instead_of_looping(self, monkeypatch):
        monkeypatch.setattr("cutsort.oracle._move_gathers", lambda n: [])
        with pytest.raises(AssertionError, match="unreachable"):
            bfs_distance(parse_permutation("2 1"))

    def test_matches_table_on_all_of_s6(self, tables):
        table = tables(6)
        for values in itertools.permutations(range(1, 7)):
            p = Permutation(values)
            assert bfs_distance(p) == table.distance_of(p), values

    def test_matches_table_on_seeded_s7_and_inverses(self, tables):
        table = tables(7)
        for seed in range(200):
            p = random_permutation(7, seed)
            for q in (p, Permutation(inverse_of(p.values))):
                assert bfs_distance(q) == table.distance_of(q), q.values


class TestBuildTable:
    def test_trivial_table(self, tables):
        assert tables(1).fmax == 0

    def test_n4_worst_case_is_exactly_two(self, tables):
        assert tables(4).fmax == 2

    def test_measured_worst_cases(self, tables):
        # exact values measured by this oracle; the theory brackets them
        # between floor(n/2) and floor(2n/3)
        measured = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3}
        for n, fmax in measured.items():
            assert tables(n).fmax == fmax
            if n >= 2:
                assert n // 2 <= fmax <= 2 * n // 3

    def test_identity_rank_is_zero_distance(self, tables):
        table = tables(5)
        assert table.distances[rank_permutation(tuple(range(1, 6)))] == 0

    def test_agrees_with_single_queries(self, tables):
        table = tables(4)
        for values in itertools.permutations(range(1, 5)):
            p = Permutation(values)
            assert table.distance_of(p) == bfs_distance(p)

    def test_rejects_nonpositive_n(self):
        for n in (0, -3):
            with pytest.raises(InputError):
                build_table(n)

    def test_guard_refuses_n9_without_flag(self):
        with pytest.raises(ResourceGuardError):
            build_table(9)

    def test_every_state_has_a_downhill_neighbor(self, tables):
        table = tables(5)
        moves = enumerate_moves(5)
        for values in itertools.permutations(range(1, 6)):
            p = Permutation(values)
            d = table.distance_of(p)
            if d == 0:
                continue
            assert any(
                table.distance_of(apply_move(p, m)) == d - 1 for m in moves
            ), values

    def test_triangle_property(self, tables):
        table = tables(5)
        moves = enumerate_moves(5)
        for values in itertools.permutations(range(1, 6)):
            p = Permutation(values)
            d = table.distance_of(p)
            for m in moves:
                assert abs(table.distance_of(apply_move(p, m)) - d) <= 1

    def test_inverse_symmetry_observed(self, tables):
        # d(p) = d(p^-1) follows from the closure of the move set under
        # inverses (TestMoveGathers); the tables are not built from it
        for n in (4, 5, 6):
            table = tables(n)
            for values in itertools.permutations(range(1, n + 1)):
                assert table.distance_of(Permutation(values)) == table.distance_of(
                    Permutation(inverse_of(values))
                )

    def test_witness_cap_recorded(self):
        table = build_table(5, witness_cap=3)
        assert len(table.witnesses) == 3
        assert table.witness_cap == 3
        full = build_table(5)
        assert full.witness_cap is None
        for w in full.witnesses:
            assert full.distance_of(w) == full.fmax


class TestVerifyCertificates:
    def test_n4_clean(self, tables):
        report = verify_certificates(tables(4))
        assert report.ok and report.checked == 24

    def test_n5_clean_and_bracketed(self, tables):
        report = verify_certificates(tables(5))
        assert report.ok
        assert report.worst_gap <= 2 * 5 // 3

    def test_even_before_odd_six(self, tables):
        from cutsort import even_before_odd

        assert tables(6).distance_of(even_before_odd(6)) >= 3

    def test_two_one_needs_one_move(self, tables):
        assert tables(2).distance_of(parse_permutation("2 1")) == 1


class TestPersistence:
    def test_table_roundtrip(self, tables, tmp_path):
        table = tables(4)
        path = tmp_path / "table4.csv"
        save_table(table, str(path))
        text = path.read_text()
        assert text.startswith("# n=4\n# fmax=2\nrank,distance\n")
        assert len(text.splitlines()) == 3 + factorial(4)
        back = load_table(str(path))
        assert back.n == 4 and back.fmax == 2
        assert back.distances == table.distances
        assert set(back.witnesses) == set(table.witnesses)

    def test_witness_file(self, tables, tmp_path):
        table = tables(4)
        path = tmp_path / "witnesses.txt"
        save_witnesses(table, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(table.witnesses)
        for line in lines:
            p = parse_permutation(line)
            assert table.distance_of(p) == table.fmax

    def test_load_rejects_truncated_table(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# n=3\nrank,distance\n0,0\n")
        with pytest.raises(Exception):
            load_table(str(path))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# n=2\nrank,distance\n0,0\n5,1\n", 4),  # rank >= n!
            ("# n=2\nrank,distance\n-1,1\n0,0\n", 3),  # negative rank
            ("# n=2\nrank,distance\n0,0\n1,x\n", 4),  # non-integer distance
            ("# n=2\nrank,distance\nzero,0\n1,1\n", 3),  # non-integer rank
            ("# n=2\nrank,distance\n0,0\n1,256\n", 4),  # distance > 255
            ("# n=1\nrank,distance\n0,0\n0,1\n", 4),  # duplicated rank
        ],
    )
    def test_load_names_the_bad_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=f"line {line}:"):
            load_table(str(path))

    @pytest.mark.parametrize("n", [10, 25])
    def test_load_refuses_n_above_the_guard(self, tmp_path, n):
        path = tmp_path / "big.csv"
        path.write_text(f"# n={n}\nrank,distance\n0,0\n")
        with pytest.raises(InputError) as err:
            load_table(str(path))
        assert str(err.value).startswith(f"{path}: n={n} is above 9")


class TestBracketing:
    def test_certificate_below_distance_below_sorter(self, tables):
        for n in (4, 5):
            table = tables(n)
            for values in itertools.permutations(range(1, n + 1)):
                p = Permutation(values)
                d = table.distance_of(p)
                assert certify_lower_bound(p).best <= d <= sort_refined(p).move_count
