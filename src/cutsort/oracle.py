"""
Exact minimal cut-and-paste sorting distances for small n.

Breadth-first search over the move graph on S_n, expanded with the
canonical move set.  Distances are stored in a flat byte array indexed by
the factorial-number-system (Lehmer code) rank of each permutation, so a
full table for n has exactly n! entries and persists portably as CSV.

Every canonical move is a fixed gather of positions: the child of a
state s under move m is (s[σ_0], ..., s[σ_{n-1}]) with
σ = apply_move_values(range(n), m), so each move is built once per n as
an `operator.itemgetter` and every state is expanded by those gathers.

Distances from the identity equal distances to the identity: every
canonical move is undone by another canonical move (the set of gathers
is closed under inversion), so the move graph is symmetric.  A resource
guard rejects tables above n = 8 unless asked for n = 9, and single
queries above n = 9.  On one core, `build_table(8)` takes about 20
seconds and `build_table(9)` about 5 minutes; a single `bfs_distance`
query at n <= 9 takes under 0.1 seconds.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from math import factorial
from operator import itemgetter

from .metrics import certify_lower_bound, even_before_odd
from .perm import InputError, Permutation, apply_move_values, enumerate_moves

DISTANCE_GUARD = 9
TABLE_GUARD = 8
_UNSEEN = 0xFF


class ResourceGuardError(RuntimeError):
    """The request exceeds the configured exhaustive-search limit."""


def rank_permutation(values) -> int:
    """Lehmer-code rank of a permutation of 1..n within 0 .. n!-1."""
    # Horner form of sum(c_i * (n-1-i)!), where c_i counts the smaller
    # values right of position i: those are the smaller values not yet read,
    # the set bits of `unread` below bit v.
    rank = 0
    left = len(values)
    unread = (2 << left) - 2  # bit v set while value v is unread
    for v in values:
        bit = 1 << v
        unread ^= bit
        rank = rank * left + (unread % bit).bit_count()
        left -= 1
    return rank


def unrank_permutation(n: int, rank: int) -> tuple[int, ...]:
    """Inverse of rank_permutation for the same n."""
    if not 0 <= rank < factorial(n):
        raise InputError(f"rank {rank} out of range for n={n}")
    pool = list(range(1, n + 1))
    out = []
    fact = factorial(n - 1) if n else 1
    for i in range(n - 1):
        digit, rank = divmod(rank, fact)
        out.append(pool.pop(digit))
        fact //= n - 1 - i
    out.extend(pool)
    return tuple(out)


@dataclass
class DistanceTable:
    """Exact distances for every permutation of [n], indexed by rank."""

    n: int
    distances: bytearray
    fmax: int
    witnesses: tuple[Permutation, ...]
    witness_cap: int | None = None

    def distance_of(self, p: Permutation) -> int:
        if p.n != self.n:
            raise InputError(f"table is for n={self.n}, got n={p.n}")
        return self.distances[rank_permutation(p.values)]


def _move_gathers(n: int) -> list[itemgetter]:
    """Every canonical move of length n as a position gather on tuples.

    Moves exist only for n >= 2, so every gather returns a tuple.
    """
    positions = list(range(n))
    return [itemgetter(*apply_move_values(positions, m)) for m in enumerate_moves(n)]


def bfs_distance(p: Permutation, guard: int = DISTANCE_GUARD) -> int:
    """
    Exact minimum number of canonical moves from p to the identity.
    Rejects n above `guard`.

    Bidirectional, level-synchronous BFS: one ball grows from p and one
    from the identity, and each level expands whichever ball has the
    smaller frontier.  Both balls grow by forward moves; that is sound for
    the ball around the identity because the canonical move set is closed
    under inverses, so the distance from x to the identity equals the
    distance from the identity to x.  The search returns at the first
    child that lies in the other ball.  That answer is exact: while balls
    of radii a and b are disjoint, the distance exceeds a + b, and a
    child at most a + 1 from p that lies in the other ball gives a path
    of length a + 1 + b.
    """
    n = p.n
    if n > guard:
        raise ResourceGuardError(
            f"exact distance limited to n <= {guard} (got n={n})"
        )
    identity = tuple(range(1, n + 1))
    if p.values == identity:
        return 0
    gathers = _move_gathers(n)
    near, near_frontier = {p.values}, [p.values]
    far, far_frontier = {identity}, [identity]
    dist = 0
    while near_frontier and far_frontier:
        if len(near_frontier) > len(far_frontier):
            near, far = far, near
            near_frontier, far_frontier = far_frontier, near_frontier
        dist += 1
        grown = []
        for state in near_frontier:
            for gather in gathers:
                child = gather(state)
                if child in far:
                    return dist
                if child not in near:
                    near.add(child)
                    grown.append(child)
        near_frontier = grown
    raise AssertionError("move graph is connected; unreachable")


def build_table(
    n: int,
    allow_big: bool = False,
    witness_cap: int | None = None,
    progress=None,
) -> DistanceTable:
    """
    Exact distance table for all of S_n by BFS from the identity.

    n <= 8 runs unconditionally; n = 9 needs allow_big=True (minutes).
    Every state is expanded by every canonical move, and every child is
    ranked once: 1 + n! * len(enumerate_moves(n)) calls to rank_permutation.
    `progress`, if given, receives one status line per BFS level.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    limit = DISTANCE_GUARD if allow_big else TABLE_GUARD
    if n > limit:
        hint = "" if allow_big else " (pass the long-run flag for n=9)"
        raise ResourceGuardError(f"table limited to n <= {limit}{hint}")
    total = factorial(n)
    distances = bytearray([_UNSEEN]) * total
    gathers = _move_gathers(n)
    identity = tuple(range(1, n + 1))
    distances[rank_permutation(identity)] = 0
    frontier = [identity]
    dist = 0
    found = 1
    started = time.monotonic()
    while frontier:
        if progress is not None:
            progress(
                f"n={n} depth={dist} frontier={len(frontier)} "
                f"found={found}/{total} t={time.monotonic() - started:.1f}s"
            )
        dist += 1
        nxt = []
        for state in frontier:
            for gather in gathers:
                child = gather(state)
                r = rank_permutation(child)
                if distances[r] == _UNSEEN:
                    distances[r] = dist
                    nxt.append(child)
        found += len(nxt)
        frontier = nxt
    fmax = max(distances)
    witnesses = []
    capped = False
    for rank, d in enumerate(distances):
        if d == fmax:
            if witness_cap is not None and len(witnesses) >= witness_cap:
                capped = True
                break
            witnesses.append(Permutation(unrank_permutation(n, rank)))
    return DistanceTable(
        n=n,
        distances=distances,
        fmax=fmax,
        witnesses=tuple(witnesses),
        witness_cap=witness_cap if capped else None,
    )


@dataclass
class VerificationReport:
    n: int
    checked: int
    violations: list[str]
    worst_gap: int  # max (distance - certificate lower bound)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_certificates(table: DistanceTable) -> VerificationReport:
    """
    Cross-check the whole table: certificate <= exact distance, and
    exact distance <= the move count of the anchored floor(2n/3) sorter.
    Also checks the even-before-odd witness.
    """
    from . import sorter

    n = table.n
    violations: list[str] = []
    worst_gap = 0
    for rank, d in enumerate(table.distances):
        p = Permutation(unrank_permutation(n, rank))
        cert = certify_lower_bound(p)
        if cert.best > d:
            violations.append(f"certificate {cert.best} exceeds distance {d} for {p}")
        worst_gap = max(worst_gap, d - cert.best)
        moves = sorter.sort_refined(p).move_count
        if moves < d:
            violations.append(f"sorter used {moves} < exact distance {d} for {p}")
    if n >= 2:
        ebo = even_before_odd(n)
        if table.distance_of(ebo) < n // 2:
            violations.append(
                f"even-before-odd distance {table.distance_of(ebo)} below {n // 2}"
            )
    return VerificationReport(
        n=n, checked=len(table.distances), violations=violations, worst_gap=worst_gap
    )


def save_table(table: DistanceTable, path: str) -> None:
    """CSV with `rank,distance` rows, preceded by `# n=` / `# fmax=` lines."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# n={table.n}\n")
        fh.write(f"# fmax={table.fmax}\n")
        fh.write("rank,distance\n")
        for rank, d in enumerate(table.distances):
            fh.write(f"{rank},{d}\n")


def load_table(path: str) -> DistanceTable:
    """Read a save_table CSV; a bad row raises InputError naming its line."""
    n = fmax = None
    rows: dict[int, tuple[int, int]] = {}  # rank -> (distance, line number)
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line == "rank,distance":
                continue
            where = f"{path}: line {lineno}"
            try:
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    if key == "n":
                        n = int(value)
                    elif key == "fmax":
                        fmax = int(value)
                    continue
                rank_text, _, d_text = line.partition(",")
                rank, d = int(rank_text), int(d_text)
            except ValueError:
                raise InputError(f"{where}: not an integer in {line!r}") from None
            if not 0 <= d < _UNSEEN:
                raise InputError(f"{where}: distance {d} out of range 0..{_UNSEEN - 1}")
            if rank in rows:
                raise InputError(f"{where}: rank {rank} repeats line {rows[rank][1]}")
            rows[rank] = (d, lineno)
    if n is None:
        raise InputError(f"{path}: missing '# n=' header")
    if n < 1:
        raise InputError(f"{path}: n must be >= 1, got {n}")
    if n > DISTANCE_GUARD:  # checked before n! bytes are allocated
        raise InputError(
            f"{path}: n={n} is above {DISTANCE_GUARD}, the largest table build_table makes"
        )
    total = factorial(n)
    distances = bytearray(total)
    for rank, (d, lineno) in rows.items():
        if not 0 <= rank < total:
            raise InputError(f"{path}: line {lineno}: rank {rank} out of range for n={n}")
        distances[rank] = d
    if len(rows) != total:
        raise InputError(f"{path}: expected {total} rows, found {len(rows)}")
    table_max = max(distances)
    if fmax is not None and fmax != table_max:
        raise InputError(f"{path}: fmax header {fmax} != table maximum {table_max}")
    witnesses = tuple(
        Permutation(unrank_permutation(n, rank))
        for rank, d in enumerate(distances)
        if d == table_max
    )
    return DistanceTable(n=n, distances=distances, fmax=table_max, witnesses=witnesses)


def save_witnesses(table: DistanceTable, path: str) -> None:
    """One worst-case permutation per line, in the standard text format."""
    with open(path, "w", encoding="ascii") as fh:
        for w in table.witnesses:
            fh.write(" ".join(map(str, w.values)) + "\n")


def main_progress(line: str) -> None:
    print(line, file=sys.stderr)
