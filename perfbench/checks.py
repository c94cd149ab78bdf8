"""
Output checks the benchmark makes on its own, apart from the program.

Nothing here imports `cutsort`: moves are applied from the paper's
definition, and adjacencies, certificates, ranks and inverses are counted
afresh, so a fault in the program's own `replay` or `audit_result` cannot
hide a wrong answer.  Every check raises `CheckFailed` on a violation.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial, isqrt

UPPER_BOUNDS = {
    "refined": lambda n: 2 * n // 3,
    "basic": lambda n: 2 * n // 3 + 1,
    "insertion": lambda n: max(n - 1, 0),
    "monotone": lambda n: n - (isqrt(n - 1) + 1) + 1,  # n - ceil(sqrt(n)) + 1
}
WEIGHT_SORTERS = ("refined", "basic")


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's own computation."""


def apply_cut_paste(values: list[int], i: int, j: int, k: int, kind: str) -> list[int]:
    """
    One move as the paper defines it, with X = [0, i), A = [i, j),
    B = [j, k), Y = [k, n):  swap  X A B Y -> X B A Y,  swaprl -> X B rev(A) Y,
    swaprr -> X rev(B) A Y,  rev reverses [i, k) in place (j == k).
    """
    n = len(values)
    if kind == "rev":
        if not (0 <= i and k - i >= 2 and j == k and k <= n):
            raise CheckFailed(f"malformed reversal ({i}, {j}, {k}) for n={n}")
        return values[:i] + values[i:k][::-1] + values[k:]
    if not (0 <= i < j < k <= n):
        raise CheckFailed(f"malformed {kind} ({i}, {j}, {k}) for n={n}")
    x, a, b, y = values[:i], values[i:j], values[j:k], values[k:]
    if kind == "swap":
        return x + b + a + y
    if kind == "swaprl":
        return x + b + a[::-1] + y
    if kind == "swaprr":
        return x + b[::-1] + a + y
    raise CheckFailed(f"unknown move variant {kind!r}")


def all_moves(n: int) -> list[tuple[int, int, int, str]]:
    """Every non-trivial move on n elements, enumerated by the benchmark."""
    moves = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                moves += [(i, j, k, "swap"), (i, j, k, "swaprl"), (i, j, k, "swaprr")]
        for k in range(i + 2, n + 1):
            moves.append((i, k, k, "rev"))
    return moves


def adjacency_count(values) -> int:
    """Pairs differing by 1 in the sequence 0, v1, ..., vn, n+1."""
    ext = [0, *values, len(values) + 1]
    return sum(abs(a - b) == 1 for a, b in zip(ext, ext[1:]))


def parity_adjacency_count(values) -> int:
    """Pairs of opposite parity in the sequence 0, v1, ..., vn, n+1."""
    ext = [0, *values, len(values) + 1]
    return sum((a + b) % 2 for a, b in zip(ext, ext[1:]))


def certificate(values) -> int:
    """Lower bound on moves: a move adds at most 3 adjacencies and at most
    2 parity adjacencies, and the identity has n+1 of each."""
    n = len(values)
    adj = -(-(n + 1 - adjacency_count(values)) // 3)
    par = -(-(n + 1 - parity_adjacency_count(values)) // 2)
    return max(adj, par, 0)


def inverse(values) -> tuple[int, ...]:
    out = [0] * len(values)
    for pos, v in enumerate(values, start=1):
        out[v - 1] = pos
    return tuple(out)


def lehmer_rank(values) -> int:
    """Rank of a permutation of 1..n in lexicographic order, 0 .. n!-1."""
    n = len(values)
    rank = 0
    for i, v in enumerate(values):
        smaller = sum(1 for w in values[i + 1 :] if w < v)
        rank += smaller * factorial(n - 1 - i)
    return rank


def even_before_odd(n: int) -> tuple[int, ...]:
    return tuple(range(2, n + 1, 2)) + tuple(range(1, n + 1, 2))


def check_sort(algorithm: str, values, result) -> int:
    """
    Check one sort result against the input: its trace starts at the
    input, replays to the identity under the benchmark's own move
    definition, stays within the algorithm's bound and above the
    certificate, and (for the weight sorters) never loses an adjacency.
    Returns the move count.
    """
    values = tuple(values)
    n = len(values)
    moves = result.trace.moves
    if tuple(result.trace.initial.values) != values:
        raise CheckFailed(f"{algorithm}: trace starts at another permutation")
    if result.move_count != len(moves):
        raise CheckFailed(
            f"{algorithm}: move_count {result.move_count} != {len(moves)} trace moves"
        )
    cur = list(values)
    watch = algorithm in WEIGHT_SORTERS
    adj = adjacency_count(cur) if watch else 0
    for idx, m in enumerate(moves):
        cur = apply_cut_paste(cur, m.i, m.j, m.k, m.kind.value)
        if watch:
            now = adjacency_count(cur)
            if now < adj:
                raise CheckFailed(f"{algorithm}: move {idx} drops adjacencies {adj} -> {now}")
            adj = now
    if cur != list(range(1, n + 1)):
        raise CheckFailed(f"{algorithm}: trace of {values[:12]}... does not reach the identity")
    bound = UPPER_BOUNDS[algorithm](n)
    if len(moves) > bound:
        raise CheckFailed(f"{algorithm}: {len(moves)} moves over its bound {bound} at n={n}")
    floor = certificate(values)
    if len(moves) < floor:
        raise CheckFailed(f"{algorithm}: {len(moves)} moves under the certificate {floor}")
    return len(moves)


def check_round_trip(trace, parsed) -> None:
    """A trace parsed back from its text must equal the trace written."""
    if tuple(parsed.initial.values) != tuple(trace.initial.values):
        raise CheckFailed("trace text changes the initial permutation")
    key = lambda ms: [(m.i, m.j, m.k, m.kind.value) for m in ms]  # noqa: E731
    if key(parsed.moves) != key(trace.moves):
        raise CheckFailed("trace text changes the move list")
    notes = lambda t: [(a.move_index, a.category, a.gain_thirds) for a in t.annotations]  # noqa: E731
    if notes(parsed) != notes(trace):
        raise CheckFailed("trace text changes the step annotations")


def check_table(n: int, distances, fmax: int) -> None:
    """
    The exact table for S_n: n! entries, the identity (rank 0) alone at
    distance 0, every entry reached, floor(n/2) <= fmax <= floor(2n/3),
    the distance-1 count equal to the benchmark's own count of
    permutations one move from the identity, and d(p) = d(p^-1).
    """
    if len(distances) != factorial(n):
        raise CheckFailed(f"table has {len(distances)} entries, expected {factorial(n)}")
    top = 2 * n // 3
    if distances[0] != 0 or list(distances).count(0) != 1:
        raise CheckFailed("the identity is not the only permutation at distance 0")
    if max(distances) > top:
        raise CheckFailed(f"table entry {max(distances)} unseen or above floor(2n/3)={top}")
    if fmax != max(distances) or not n // 2 <= fmax <= top:
        raise CheckFailed(f"fmax {fmax} outside [{n // 2}, {top}] or not the table maximum")
    ident = list(range(1, n + 1))
    one_away = {tuple(apply_cut_paste(ident, *m)) for m in all_moves(n)} - {tuple(ident)}
    if list(distances).count(1) != len(one_away):
        raise CheckFailed(
            f"{list(distances).count(1)} entries at distance 1, expected {len(one_away)}"
        )
    for values in permutations(range(1, n + 1)):
        if distances[lehmer_rank(values)] != distances[lehmer_rank(inverse(values))]:
            raise CheckFailed(f"d(p) != d(p^-1) for {values}")


def check_neighbours(values, distances) -> None:
    """Every move changes the exact distance by at most 1, and some move
    from a non-identity permutation lowers it by exactly 1."""
    d = distances[lehmer_rank(values)]
    near = [
        distances[lehmer_rank(apply_cut_paste(list(values), *m))]
        for m in all_moves(len(values))
    ]
    if any(abs(e - d) > 1 for e in near):
        raise CheckFailed(f"a neighbour of {values} is more than one move away in the table")
    if d > 0 and d - 1 not in near:
        raise CheckFailed(f"no neighbour of {values} lies at distance {d - 1}")


def check_bracket(values, floor: int, exact: int, sorter_moves: int) -> None:
    """certificate `floor` <= exact distance <= sorter moves."""
    if not floor <= exact <= sorter_moves:
        raise CheckFailed(
            f"{tuple(values)}: exact {exact} outside [certificate {floor}, sorter {sorter_moves}]"
        )


def check_exact(values, exact: int, exact_inverse: int, sorter_moves: int) -> None:
    """certificate <= exact distance <= sorter moves, and d(p) = d(p^-1)."""
    check_bracket(values, certificate(values), exact, sorter_moves)
    if exact != exact_inverse:
        raise CheckFailed(f"{tuple(values)}: d(p)={exact} but d(p^-1)={exact_inverse}")
