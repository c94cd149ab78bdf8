"""
Structural measures on permutations.

Block decomposition and the weight function drive the bounded sorters:
a block is a maximal substring (length >= 2) of consecutive values in
consecutive positions, everything else is a singleton, and

    weight = (#blocks) + (2/3) * (#singletons)

kept here in integer thirds (3 per block, 2 per singleton) so all gain
accounting is exact.  Under the CIRCULAR convention successor(n) = 1 and
an increasing block may run through n into 1; under LINEAR there is no
wrap.

Parity adjacencies (consecutive values of opposite parity, counted with
virtual sentinels 0 and n+1) grow by at most 2 per move, which yields the
floor(n/2) lower-bound certificate; plain adjacencies grow by at most 3
and yield the ceil((n+1-a)/3) certificate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from math import factorial
from typing import Sequence

from .perm import (
    InputError,
    Move,
    Permutation,
    adjacencies,
    apply_move_values,
    enumerate_moves,
)


class Mode(Enum):
    CIRCULAR = "circular"
    LINEAR = "linear"


class SegmentKind(Enum):
    BLOCK = "block"
    SINGLETON = "singleton"


class Orientation(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass(frozen=True)
class Segment:
    """Half-open position range [start, stop) of one block or singleton."""

    start: int
    stop: int
    kind: SegmentKind
    orientation: Orientation | None

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class BlockDecomposition:
    segments: tuple[Segment, ...]
    mode: Mode

    @property
    def block_count(self) -> int:
        return sum(1 for s in self.segments if s.kind is SegmentKind.BLOCK)

    @property
    def singleton_count(self) -> int:
        return sum(1 for s in self.segments if s.kind is SegmentKind.SINGLETON)


def segment_spans(
    values: Sequence[int],
    mode: Mode,
    lo: int = 0,
    hi: int | None = None,
    vlo: int = 1,
    vhi: int | None = None,
) -> list[tuple[int, int, Orientation | None]]:
    """
    Maximal-run decomposition of values[lo:hi+1] as (start, stop, orient)
    triples with absolute positions.  Value steps are judged by the mode's
    successor on the value range [vlo, vhi]; CIRCULAR wraps vhi -> vlo.
    """
    if hi is None:
        hi = len(values) - 1
    if vhi is None:
        vhi = vlo + (hi - lo)
    # Value-step test by difference: +1 increasing, -1 decreasing; in
    # CIRCULAR mode the wrap steps +-(range-1) also bind.  For a 2-value
    # circular range both tests hold and the increasing branch wins.
    wrap = (vhi - vlo) if mode is Mode.CIRCULAR else 0
    inc, dec = Orientation.INCREASING, Orientation.DECREASING
    spans: list[tuple[int, int, Orientation | None]] = []
    start = lo
    direction: Orientation | None = None
    for t in range(lo, hi):
        d = values[t + 1] - values[t]
        if d == 1 or (wrap and d == -wrap):
            step: Orientation | None = inc
        elif d == -1 or (wrap and d == wrap):
            step = dec
        else:
            step = None
        if step is None or (direction is not None and step is not direction):
            spans.append((start, t + 1, direction))
            start = t + 1
            direction = None
        else:
            direction = step
    spans.append((start, hi + 1, direction))
    return spans


def decompose(p: Permutation, mode: Mode) -> BlockDecomposition:
    """Unique maximal decomposition of p into blocks and singletons."""
    segments = []
    for start, stop, orient in segment_spans(p.values, mode):
        if stop - start >= 2:
            segments.append(Segment(start, stop, SegmentKind.BLOCK, orient))
        else:
            segments.append(Segment(start, stop, SegmentKind.SINGLETON, None))
    return BlockDecomposition(tuple(segments), mode)


def weight_thirds_values(
    values: Sequence[int],
    mode: Mode,
    lo: int = 0,
    hi: int | None = None,
    vlo: int = 1,
) -> int:
    if hi is None:
        hi = len(values) - 1
    wrap = (hi - lo) if mode is Mode.CIRCULAR else 0
    total = 0
    run = 1
    direction = 0  # +1 increasing, -1 decreasing, 0 open
    for t in range(lo, hi):
        d = values[t + 1] - values[t]
        if d == 1 or (wrap and d == -wrap):
            step = 1
        elif d == -1 or (wrap and d == wrap):
            step = -1
        else:
            step = 0
        if step == 0 or (direction and step != direction):
            total += 3 if run >= 2 else 2
            run = 1
            direction = 0
        else:
            run += 1
            direction = step
    return total + (3 if run >= 2 else 2)


def weight_thirds(p: Permutation, mode: Mode) -> int:
    """Weight in integer thirds: 3 per block plus 2 per singleton."""
    return weight_thirds_values(p.values, mode)


def gain_thirds(p: Permutation, m: Move, mode: Mode) -> int:
    """Weight reduction achieved by a move, in thirds (may be negative)."""
    before = weight_thirds(p, mode)
    after = weight_thirds_values(apply_move_values(list(p.values), m), mode)
    return before - after


def parity_adjacencies(p: Permutation) -> int:
    """
    Count consecutive opposite-parity value pairs over the extended
    sequence 0, v1, ..., vn, n+1.  The identity scores n+1.
    """
    return parity_adjacency_count_values(p.values)


def parity_adjacency_count_values(values) -> int:
    n = len(values)
    count = 1 if values[0] % 2 == 1 else 0
    if (values[-1] + n + 1) % 2 == 1:
        count += 1
    for t in range(n - 1):
        if (values[t] + values[t + 1]) % 2 == 1:
            count += 1
    return count


@dataclass(frozen=True)
class BoundCertificate:
    """Two lower bounds on the number of moves needed to sort, plus their max."""

    adjacency_bound: int
    parity_bound: int

    @property
    def best(self) -> int:
        return max(self.adjacency_bound, self.parity_bound)


def certify_lower_bound(p: Permutation) -> BoundCertificate:
    """
    Certificate from the two monotone statistics: each move creates at
    most 3 adjacencies and at most 2 parity adjacencies, and the identity
    maxes both at n+1.
    """
    n = p.n
    adj = -(-(n + 1 - adjacencies(p)) // 3)
    par = -(-(n + 1 - parity_adjacencies(p)) // 2)
    return BoundCertificate(adjacency_bound=max(adj, 0), parity_bound=max(par, 0))


def max_parity_delta(p: Permutation) -> int:
    """Largest parity-adjacency increase over all canonical moves on p."""
    base = parity_adjacencies(p)
    values = list(p.values)
    return max(
        parity_adjacency_count_values(apply_move_values(values, m)) - base
        for m in enumerate_moves(p.n)
    )


def even_before_odd(n: int) -> Permutation:
    """[2 4 6 ... 1 3 5 ...]: the minimum-parity-adjacency construction."""
    if n < 1:
        raise InputError("n must be >= 1")
    return Permutation(tuple(range(2, n + 1, 2)) + tuple(range(1, n + 1, 2)))


def min_parity_adjacencies(n: int) -> int:
    """The minimum parity-adjacency count: 1 for even n, 2 for odd n."""
    return 1 if n % 2 == 0 else 2


_EXHAUSTIVE_WITNESS_LIMIT = 8


def hard_witness_count(n: int) -> int:
    """
    How many permutations of n attain the minimum parity-adjacency count:
    (ceil(n/2)!)^2.  For even n they are the evens, then the odds, each in
    any order.  For odd n the (n+1)/2 odd values form one run, and the
    (n-1)/2 evens split around it in (n+1)/2 ways.
    """
    return factorial((n + 1) // 2) ** 2


def hard_witnesses(n: int, limit: int, seed: int = 0) -> list[Permutation]:
    """
    Permutations attaining the minimum parity-adjacency count for n, each
    of which needs at least floor(n/2) moves to sort.

    For n <= 8 the witnesses are enumerated exhaustively (in lexicographic
    order) and returned whole when they number at most `limit`; otherwise
    `limit` distinct witnesses are rejection-sampled with the documented
    shuffle, so results are deterministic per seed.  For n > 8 a `limit`
    above hard_witness_count(n) raises InputError.
    """
    if n < 2:
        raise InputError("hard witnesses need n >= 2")
    if limit < 0:
        raise InputError("limit must be nonnegative")
    target = min_parity_adjacencies(n)
    if n <= _EXHAUSTIVE_WITNESS_LIMIT:
        everything = [
            Permutation(values)
            for values in itertools.permutations(range(1, n + 1))
            if parity_adjacency_count_values(values) == target
        ]
        if len(everything) <= limit:
            return everything
    count = hard_witness_count(n)
    if limit > count:
        raise InputError(f"limit {limit} exceeds the {count} witnesses for n={n}")
    rng = random.Random(seed)
    sampled: dict[tuple[int, ...], Permutation] = {}
    while len(sampled) < limit:
        values = list(range(1, n + 1))
        rng.shuffle(values)
        if parity_adjacency_count_values(values) == target:
            sampled.setdefault(tuple(values), Permutation(tuple(values)))
    return list(sampled.values())
