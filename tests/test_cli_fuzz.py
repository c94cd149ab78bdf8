"""
Fuzz test for the command line: argv for every subcommand, and trace text
fed to `verify`, drawn by hypothesis (derandomized, bounded example count).

Every call must end with an exit code in {0, 1, 2, 3} and no traceback;
an input error (1) or a guard refusal (3) prints exactly one `error:` line.
Drawn sizes are bounded so that no call can run for long: `table --n` <= 6
and never `--allow-n9`, `distance` on n <= 8, `bench` on n <= 50 with
`--reps` <= 2, and `witness` with n <= 12 and a small `--limit`.

Placeholders in a drawn argv name paths in a per-module directory: @FILE
holds the drawn file text, @OUT is an output file, @DIR the directory
itself and @MISSING a path that does not exist.
"""

import contextlib
import io
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutsort import Permutation, cli, format_trace, sort_refined

ALGORITHMS = ["basic", "refined", "insertion", "monotone"]
FUZZ = settings(derandomize=True, max_examples=80, deadline=None)


def permutation_text(max_n):
    valid = st.integers(1, max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(lambda values: " ".join(map(str, values)))
    # at most 12 characters: never more than 6 values
    junk = st.text(alphabet="0123456789 -,x\t\né", max_size=12)
    return st.one_of(valid, junk)


def perm_source(max_n):
    """(--perm argv part, stdin text): the permutation comes from one of them."""
    text = permutation_text(max_n)
    return st.one_of(
        text.map(lambda t: (["--perm", t], "")),
        text.map(lambda t: ([], t + "\n")),
    )


small_int = st.integers(-3, 9)
out_path = st.sampled_from([[], ["--out", "@OUT"], ["--out", "@DIR"], ["--out", "@MISSING/x"]])

valid_trace = st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
    lambda values: format_trace(sort_refined(Permutation(tuple(values))).trace)
)
trace_line = st.one_of(
    small_int.map(lambda n: f"n {n}"),
    permutation_text(8).map(lambda t: f"init {t}"),
    st.builds(
        lambda i, j, k, kind: f"move {i} {j} {k} {kind}",
        small_int,
        small_int,
        small_int,
        st.sampled_from(["swap", "swaprl", "swaprr", "rev", "bogus"]),
    ),
    st.builds(
        lambda category, gain: f"# step {category} gain={gain}",
        st.sampled_from(["block", "bonus", "x"]),
        st.sampled_from(["3", "-1", "x", ""]),
    ),
    st.text(max_size=20),
)
trace_text = st.one_of(
    valid_trace,
    st.tuples(valid_trace, st.integers(0, 40)).map(
        lambda pair: "\n".join(
            line for i, line in enumerate(pair[0].splitlines()) if i != pair[1]
        )
    ),
    st.lists(trace_line, max_size=8).map("\n".join),
    st.text(max_size=60),
)
trace_bytes = st.one_of(
    trace_text.map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.binary(max_size=40),
)


# Token soup for the parser itself.  It holds no --out (a bare token would
# name a file in the working directory), no --allow-n9, and no number
# above 6, so every table, distance and bench it can spell stays small.
TOKENS = [
    "sort", "verify", "distance", "table", "witness", "bound", "random", "bench",
    "--algo", "--perm", "--trace", "--bound", "--n", "--limit", "--seed", "--reps",
    "-h", "refined", "all", "-1", "0", "1", "2", "6", "x", "", "2 1", "3 1 2", "@MISSING",
]

# Each strategy draws (argv, stdin text, bytes for @FILE or None).
STRATEGIES = {
    "sort": st.builds(
        lambda algo, source, out: (["sort", "--algo", algo, *source[0], *out], source[1], None),
        st.sampled_from(ALGORITHMS),
        perm_source(12),
        out_path,
    ),
    "verify": st.builds(
        lambda path, bound, data: (["verify", "--trace", path, *bound], "", data),
        st.sampled_from(["@FILE", "@FILE", "@FILE", "@DIR", "@MISSING"]),
        st.one_of(st.just([]), small_int.map(lambda b: ["--bound", str(b)])),
        trace_bytes,
    ),
    "distance": perm_source(8).map(lambda source: (["distance", *source[0]], source[1], None)),
    "bound": perm_source(12).map(lambda source: (["bound", *source[0]], source[1], None)),
    "table": st.builds(
        lambda n, limit, out: (["table", "--n", str(n), *limit, *out], "", None),
        st.integers(-3, 6),
        st.one_of(st.just([]), st.integers(-2, 5).map(lambda k: ["--limit", str(k)])),
        out_path,
    ),
    "witness": st.builds(
        lambda n, limit, seed, out: (
            ["witness", "--n", str(n), "--limit", str(limit), "--seed", str(seed), *out],
            "",
            None,
        ),
        st.integers(-2, 12),
        st.integers(-2, 6),
        st.integers(0, 5),
        out_path,
    ),
    "random": st.builds(
        lambda n, seed: (["random", "--n", str(n), "--seed", str(seed)], "", None),
        st.integers(-3, 50),
        st.integers(-2, 5),
    ),
    "bench": st.builds(
        lambda ns, algo, reps, out: (
            ["bench", "--n", *map(str, ns), "--algo", algo, "--reps", str(reps), *out],
            "",
            None,
        ),
        st.lists(st.integers(-3, 50), min_size=1, max_size=3),
        st.sampled_from(ALGORITHMS + ["all"]),
        st.integers(-1, 2),
        out_path,
    ),
    "argv-soup": st.lists(st.sampled_from(TOKENS), max_size=8).map(
        lambda argv: (argv, "", None)
    ),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def run_main(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
                exited = False
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
                exited = True
    return code, exited, err.getvalue()


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@FUZZ
@given(data=st.data())
def test_cli_exits_cleanly(workdir, name, data):
    argv, stdin_text, file_bytes = data.draw(STRATEGIES[name])
    trace = workdir / "trace.txt"
    if file_bytes is not None:
        trace.write_bytes(file_bytes)
    paths = {
        "@FILE": str(trace),
        "@OUT": str(workdir / "out.txt"),
        "@DIR": str(workdir),
        "@MISSING": str(workdir / "missing"),
    }
    for key, path in paths.items():
        argv = [arg.replace(key, path) for arg in argv]
    code, exited, err = run_main(argv, stdin_text)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code in (1, 3) and not exited:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
