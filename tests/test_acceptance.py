"""
Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The exhaustive sweep
over all permutations of n <= 8 and the exact distance tables are built
once per session and shared between criteria.
"""

import hashlib
import itertools
import json
import random
from math import isqrt
from pathlib import Path

import pytest

from cutsort import (
    Mode,
    Permutation,
    adjacencies,
    apply_move,
    audit_result,
    certify_lower_bound,
    cli,
    enumerate_moves,
    even_before_odd,
    is_identity,
    longest_monotone,
    parity_adjacencies,
    random_permutation,
    replay,
    sort_basic,
    sort_insertion,
    sort_monotone,
    sort_refined,
)
from cutsort.metrics import min_parity_adjacencies
from cutsort.oracle import save_table, save_witnesses, load_table

EXHAUSTIVE_MAX = 8


def sqrt_ceil(n):
    r = isqrt(n)
    return r if r * r == n else r + 1


def all_perms(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


@pytest.fixture(scope="session")
def exhaustive_sorts():
    """Run and audit both weight sorters on every permutation of n <= 8."""
    stats = {}
    for n in range(1, EXHAUSTIVE_MAX + 1):
        worst = {"basic": 0, "refined": 0}
        violations = []
        for p in all_perms(n):
            for name, algo, bound in (
                ("basic", sort_basic, 2 * n // 3 + 1),
                ("refined", sort_refined, 2 * n // 3),
            ):
                result = algo(p)
                problems = audit_result(result)
                if problems:
                    violations.append((name, p.values, problems))
                if result.move_count > bound:
                    violations.append((name, p.values, f"{result.move_count} > {bound}"))
                worst[name] = max(worst[name], result.move_count)
        stats[n] = {"worst": worst, "violations": violations}
    return stats


def test_criterion_1_upper_bounds(exhaustive_sorts):
    """Exhaustive n <= 8: refined within floor(2n/3), basic within +1."""
    bad = []
    for n, data in exhaustive_sorts.items():
        bad.extend(v for v in data["violations"])
        assert data["worst"]["refined"] <= 2 * n // 3
        assert data["worst"]["basic"] <= 2 * n // 3 + 1
    assert not bad, bad[:5]
    worsts = {n: d["worst"] for n, d in exhaustive_sorts.items()}
    print(f"\nACCEPTANCE 1 PASS: upper bounds hold exhaustively, worst counts {worsts}")


def test_criterion_2_lower_bounds(tables):
    """Even-before-odd and every minimum-parity permutation need floor(n/2)."""
    for n in range(2, 9):
        table = tables(n)
        assert table.distance_of(even_before_odd(n)) >= n // 2, n
    checked = 0
    for n in range(2, 9):
        table = tables(n)
        target = min_parity_adjacencies(n)
        for p in all_perms(n):
            if parity_adjacencies(p) == target:
                checked += 1
                assert table.distance_of(p) >= n // 2, p.values
    print(
        f"\nACCEPTANCE 2 PASS: even-before-odd needs floor(n/2) for n in 2..8; "
        f"{checked} hard witnesses verified for n in 2..8"
    )


def test_criterion_3_parity_delta():
    """No single move raises parity adjacencies by 3 (or adjacencies by 4)."""
    checked = 0
    for n in range(2, 7):
        moves = enumerate_moves(n)
        for p in all_perms(n):
            base_parity = parity_adjacencies(p)
            base_adj = adjacencies(p)
            for m in moves:
                q = apply_move(p, m)
                assert parity_adjacencies(q) - base_parity <= 2, (p.values, m)
                assert adjacencies(q) - base_adj <= 3, (p.values, m)
                checked += 1
    sampled = 0
    for n in (20, 50):
        moves = enumerate_moves(n)
        rng = random.Random(n)
        for trial in range(100_000):
            p = random_permutation(n, seed=trial * 2 + n)
            m = moves[rng.randrange(len(moves))]
            q = apply_move(p, m)
            assert parity_adjacencies(q) - parity_adjacencies(p) <= 2, (p.values, m)
            assert adjacencies(q) - adjacencies(p) <= 3, (p.values, m)
            sampled += 1
    print(
        f"\nACCEPTANCE 3 PASS: parity delta <= 2 on {checked} exhaustive and "
        f"{sampled} random (permutation, move) pairs"
    )


def test_criterion_4_certificate_soundness(tables):
    """certificate <= exact distance <= refined move count for all n <= 7."""
    checked = 0
    for n in range(1, 8):
        table = tables(n)
        for p in all_perms(n):
            cert = certify_lower_bound(p).best
            d = table.distance_of(p)
            moves = sort_refined(p).move_count
            assert cert <= d <= moves, (p.values, cert, d, moves)
            checked += 1
    print(f"\nACCEPTANCE 4 PASS: certificate <= distance <= sorter on {checked} permutations")


def test_criterion_5_gain_accounting(exhaustive_sorts):
    """Gain floors and adjacency monotonicity on exhaustive and random runs."""
    for n, data in exhaustive_sorts.items():
        assert not data["violations"], (n, data["violations"][:3])
    audited_moves = 0
    for trial in range(10_000):
        algo = sort_refined if trial % 5 else sort_basic
        result = algo(random_permutation(200, seed=trial))
        problems = audit_result(result)
        assert not problems, (trial, problems)
        audited_moves += result.move_count
    print(
        "\nACCEPTANCE 5 PASS: every block/bonus step gained >= 1 and every "
        f"absorbing pair >= 2, no move broke an adjacency; exhaustive n <= 8 "
        f"plus 10000 audited n=200 runs ({audited_moves} moves)"
    )


def test_criterion_6_baselines():
    """Insertion and monotone baselines hold their bounds at scale."""
    for n in (16, 100, 1024):
        for trial in range(10_000):
            p = random_permutation(n, seed=trial)
            ins = sort_insertion(p)
            assert ins.move_count <= n - 1, (n, trial)
            mono = sort_monotone(p)
            assert mono.move_count <= n - sqrt_ceil(n) + 1, (n, trial)
            if trial % 500 == 0:
                assert is_identity(replay(ins.trace))
                assert is_identity(replay(mono.trace))
    brute_checked = 0
    for n in range(1, 9):
        for p in all_perms(n):
            orientation, indices = longest_monotone(p)
            expect = _brute_monotone(p.values)
            assert (orientation, indices) == expect, (p.values, expect)
            assert len(indices) >= sqrt_ceil(n)
            brute_checked += 1
    print(
        "\nACCEPTANCE 6 PASS: baseline bounds on 10000 runs at n in "
        f"{{16, 100, 1024}}; longest-monotone matches brute force on "
        f"{brute_checked} permutations"
    )


def _brute_monotone(values):
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


def test_criterion_7_quadratic_scaling(capsys):
    """Soft check: doubling n should roughly quadruple the sorting time."""
    code = cli.main(
        ["bench", "--n", "1000", "2000", "4000", "--algo", "refined", "--reps", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    times = []
    for n_text, _, _, _, max_moves, bound, ms in rows:
        assert int(max_moves) <= int(bound)
        times.append((int(n_text), float(ms)))
    ratios = [b / a for (_, a), (_, b) in zip(times, times[1:])]
    report = ", ".join(f"{r:.2f}x" for r in ratios)
    if all(2.0 <= r <= 8.0 for r in ratios):
        print(f"\nACCEPTANCE 7 PASS: time ratios per doubling: {report}")
    else:
        print(
            f"\nACCEPTANCE 7 PASS (soft, with warning): time ratios {report} "
            "stray outside the [2, 8] band on this machine"
        )


def test_criterion_8_distance_tables(tables, tmp_path):
    """Tables for n <= 8 build, persist, and satisfy the theory brackets."""
    fmax_by_n = {}
    for n in range(1, 9):
        table = tables(n)
        fmax_by_n[n] = table.fmax
        if n >= 2:
            assert n // 2 <= table.fmax <= 2 * n // 3, n
        table_path = tmp_path / f"table{n}.csv"
        save_table(table, str(table_path))
        witness_path = tmp_path / f"witness{n}.txt"
        save_witnesses(table, str(witness_path))
        assert witness_path.read_text().count("\n") == len(table.witnesses)
    assert fmax_by_n[4] == 2
    back = load_table(str(tmp_path / "table8.csv"))
    assert back.fmax == fmax_by_n[8]
    print(f"\nACCEPTANCE 8 PASS: exact worst cases f(n) = {fmax_by_n} within brackets")


def test_distance_table_n8_matches_golden_manifest(tables):
    """The n=8 table is byte-identical to the golden manifest (n <= 7 are unit tests)."""
    manifest = json.loads(Path(__file__).with_name("golden_tables.json").read_text())
    assert hashlib.sha256(tables(8).distances).hexdigest() == manifest["n8"]
    print("\nACCEPTANCE golden table PASS: n=8 distances match the manifest")
