import pytest

from cutsort import cli, parse_permutation, parse_trace, parity_adjacencies


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSortCommand:
    def test_refined_witness(self, capsys):
        code, out, _ = run_cli(capsys, "sort", "--algo", "refined", "--perm", "2 4 1 3")
        assert code == 0
        assert "moves=2 bound=2 ok=true" in out
        assert "init 2 4 1 3" in out

    def test_identity_zero_moves(self, capsys):
        code, out, _ = run_cli(capsys, "sort", "--algo", "refined", "--perm", "1 2 3")
        assert code == 0
        assert "moves=0" in out

    def test_monotone_full_reversal(self, capsys):
        code, out, _ = run_cli(
            capsys, "sort", "--algo", "monotone", "--perm", "5 4 3 2 1"
        )
        assert code == 0
        assert "moves=1" in out

    def test_parse_failure_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sort", "--perm", "1 1")
        assert code == 1
        assert "duplicate" in err

    def test_trace_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        code, out, _ = run_cli(
            capsys, "sort", "--algo", "basic", "--perm", "3 4 5 1 2", "--out", str(path)
        )
        assert code == 0
        trace = parse_trace(path.read_text())
        assert len(trace.moves) == 1

    def test_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n"))
        code, out, _ = run_cli(capsys, "sort")
        assert code == 0 and "moves=1" in out


class TestVerifyCommand:
    def test_golden_one_move_trace(self, capsys, tmp_path):
        path = tmp_path / "good.txt"
        path.write_text("n 5\ninit 3 4 5 1 2\nmove 0 3 5 swap\n")
        code, out, _ = run_cli(capsys, "verify", "--trace", str(path))
        assert code == 0
        assert "final=1 2 3 4 5" in out
        assert "adjacency_monotone=true" in out
        assert "ok=true" in out

    def test_empty_trace_on_identity(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("n 3\ninit 1 2 3\n")
        code, out, _ = run_cli(capsys, "verify", "--trace", str(path))
        assert code == 0 and "moves=0" in out

    def test_out_of_range_cut_point_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\ninit 2 1 3\nmove 0 7 7 rev\n")
        code, _, err = run_cli(capsys, "verify", "--trace", str(path))
        assert code == 1
        assert "position 3" in err

    def test_non_sorting_trace_fails(self, capsys, tmp_path):
        path = tmp_path / "wrong.txt"
        path.write_text("n 3\ninit 2 1 3\nmove 1 3 3 rev\n")
        code, out, _ = run_cli(capsys, "verify", "--trace", str(path))
        assert code == 2
        assert "ok=false" in out

    def test_bound_flag(self, capsys, tmp_path):
        path = tmp_path / "good.txt"
        path.write_text("n 2\ninit 2 1\nmove 0 2 2 rev\n")
        code, out, _ = run_cli(capsys, "verify", "--trace", str(path), "--bound", "1")
        assert code == 0 and "within_bound=true" in out


class TestBoundAndDistance:
    def test_bound_components(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--perm", "2 4 1 3")
        assert code == 0
        assert out.strip() == "parity_bound=2 adjacency_bound=2 best=2"

    def test_distance_reports_bracketing(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--perm", "2 4 1 3")
        assert code == 0
        assert "distance=2" in out and "refined_moves=2" in out

    def test_distance_at_n9(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--perm", "2 4 6 8 1 3 5 7 9")
        assert code == 0
        assert "distance=4" in out

    def test_distance_guard_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "distance", "--perm", "2 1 3 4 5 6 7 8 9 10")
        assert code == 3
        assert err.startswith("error:") and err.count("\n") == 1


class TestTableAndWitness:
    def test_table_summary_forced_at_n4(self, capsys, tmp_path):
        path = tmp_path / "t4.csv"
        code, out, _ = run_cli(capsys, "table", "--n", "4", "--out", str(path))
        assert code == 0
        assert "n=4 fmax=2 lower=2 upper=2" in out
        assert path.read_text().startswith("# n=4\n# fmax=2\nrank,distance\n")

    def test_table_guard_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "table", "--n", "9")
        assert code == 3
        assert "n <= 8" in err

    def test_witnesses_have_the_stated_parity_count(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "5", "--limit", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert parity_adjacencies(parse_permutation(line)) == 2


class TestRandomCommand:
    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "random", "--n", "6", "--seed", "7")
        _, out2, _ = run_cli(capsys, "random", "--n", "6", "--seed", "7")
        assert out1 == out2
        parse_permutation(out1.strip())


class TestBenchCommand:
    def test_csv_shape_and_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--n", "32", "64", "--algo", "all", "--reps", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,algo,reps,mean_moves,max_moves,bound,mean_ms"
        assert len(lines) == 1 + 2 * 4
        for line in lines[1:]:
            n, algo, reps, mean_moves, max_moves, bound, _ = line.split(",")
            assert int(max_moves) <= int(bound)

    def test_refined_beats_insertion_on_average(self, capsys):
        _, out, _ = run_cli(
            capsys, "bench", "--n", "256", "--algo", "all", "--reps", "3"
        )
        means = {}
        for line in out.strip().splitlines()[1:]:
            parts = line.split(",")
            means[parts[1]] = float(parts[3])
        assert means["refined"] < means["insertion"]

    def test_deterministic_apart_from_timing(self, capsys):
        def strip_ms(text):
            return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]

        _, out1, _ = run_cli(capsys, "bench", "--n", "48", "--reps", "2", "--seed", "5")
        _, out2, _ = run_cli(capsys, "bench", "--n", "48", "--reps", "2", "--seed", "5")
        assert strip_ms(out1) == strip_ms(out2)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sort", "--algo", "refined", "--perm", "7 3 6 1 5 2 4"),
            ("witness", "--n", "6", "--limit", "4", "--seed", "9"),
            ("bound", "--perm", "4 2 6 1 5 3"),
        ],
    )
    def test_identical_runs_identical_bytes(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestMalformedInput:
    """Each ends with one `error:` line and exit 1, never a traceback."""

    def assert_one_line_error(self, capsys, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_bench_zero_reps(self, capsys):
        self.assert_one_line_error(capsys, "bench", "--n", "10", "--reps", "0")

    def test_table_negative_n(self, capsys):
        self.assert_one_line_error(capsys, "table", "--n", "-3")

    def test_verify_trace_is_a_directory(self, capsys, tmp_path):
        self.assert_one_line_error(capsys, "verify", "--trace", str(tmp_path))

    def test_verify_trace_is_not_ascii(self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes("n 2\ninit 2 1\n# \u00e9t\u00e9\n".encode("utf-8"))
        self.assert_one_line_error(capsys, "verify", "--trace", str(path))

    def test_witness_limit_above_the_count(self, capsys):
        self.assert_one_line_error(capsys, "witness", "--n", "9", "--limit", "14401")
