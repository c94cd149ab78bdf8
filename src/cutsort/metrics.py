"""
Structural measures on permutations.

Block decomposition and the weight function drive the bounded sorters.
Everything here rests on one step rule, `step_signs(wrap)`: two
neighbouring values of a window are bound when their difference is +1
(an increasing step) or -1 (a decreasing one), and under the CIRCULAR
convention also when it is -wrap (n -> 1, increasing) or +wrap
(decreasing), where wrap = window size - 1.  A block is a maximal run of
bound neighbours (length >= 2); a window of distinct values cannot turn
a run, so each block has one orientation.  Everything else is a
singleton, and

    weight = (#blocks) + (2/3) * (#singletons)

kept here in integer thirds (3 per block, 2 per singleton) so all gain
accounting is exact.  With b_g = 1 for each bound gap of a window of N
positions, that is weight = 2N - 2 * sum(b_g) + #blocks.  `block_spans`
is the one pass that finds the blocks; `segment_spans` and
`weight_thirds_values` are built on it.  Under CIRCULAR the window must
hold a contiguous range of values; under LINEAR there is no wrap.

Parity adjacencies (consecutive values of opposite parity, counted with
virtual sentinels 0 and n+1) grow by at most 2 per move, which yields the
floor(n/2) lower-bound certificate; plain adjacencies grow by at most 3
and yield the ceil((n+1-a)/3) certificate.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import factorial
from operator import sub
from typing import Sequence

from .perm import (
    InputError,
    Permutation,
    adjacencies,
    apply_move_values,
    enumerate_moves,
)


class Mode(Enum):
    CIRCULAR = "circular"
    LINEAR = "linear"

    def wrap(self, lo: int, hi: int) -> int:
        """The wrap difference of window [lo, hi]: its size - 1, or 0 for LINEAR."""
        return hi - lo if self is Mode.CIRCULAR else 0


class Orientation(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@lru_cache(maxsize=None)
def step_signs(wrap: int) -> dict[int, int]:
    """
    The step rule: each binding difference (right value minus left) maps to
    +1 (increasing) or -1 (decreasing); any other difference is free.
    +1 and -1 always bind, and -wrap and +wrap too when wrap > 0.  For
    wrap = 1, a 2-value circular window, both differences are increasing.
    The dict is shared between callers and must not be changed.
    """
    signs = {-1: -1}
    if wrap:
        signs[wrap] = -1
        signs[-wrap] = 1
    signs[1] = 1  # written last, so that +1 stays increasing when wrap = 1
    return signs


_BOUND_RUN = re.compile(rb"\x01+")


def _bound_flags(values: Sequence[int], lo: int, hi: int, wrap: int) -> bytes:
    """One byte per gap of window [lo, hi]: 1 where its neighbours bind."""
    signs = step_signs(wrap)
    return bytes(map(signs.__contains__, map(sub, values[lo + 1 : hi + 1], values[lo:hi])))


def block_spans(values: Sequence[int], lo: int, hi: int, wrap: int) -> list[tuple[int, int]]:
    """
    The blocks of window [lo, hi], in position order, as absolute half-open
    (start, stop) ranges; the positions between them are singletons.
    """
    flags = _bound_flags(values, lo, hi, wrap)
    return [(lo + run.start(), lo + run.end() + 1) for run in _BOUND_RUN.finditer(flags)]


def segment_spans(
    values: Sequence[int], mode: Mode, lo: int = 0, hi: int | None = None
) -> list[tuple[int, int, Orientation | None]]:
    """
    Maximal-run decomposition of values[lo:hi+1] as (start, stop, orient)
    triples with absolute positions: the blocks of `block_spans`, oriented
    by the sign of their first step, and a (p, p + 1, None) singleton for
    every position between them.
    """
    if hi is None:
        hi = len(values) - 1
    wrap = mode.wrap(lo, hi)
    signs = step_signs(wrap)
    inc, dec = Orientation.INCREASING, Orientation.DECREASING
    spans: list[tuple[int, int, Orientation | None]] = []
    pos = lo
    for start, stop in block_spans(values, lo, hi, wrap):
        spans.extend((p, p + 1, None) for p in range(pos, start))
        up = signs[values[start + 1] - values[start]] > 0
        spans.append((start, stop, inc if up else dec))
        pos = stop
    spans.extend((p, p + 1, None) for p in range(pos, hi + 1))
    return spans


def weight_thirds_values(
    values: Sequence[int], mode: Mode, lo: int = 0, hi: int | None = None
) -> int:
    """Weight of window [lo, hi] in integer thirds: 2N - 2 * #bound gaps + #blocks."""
    if hi is None:
        hi = len(values) - 1
    flags = _bound_flags(values, lo, hi, mode.wrap(lo, hi))
    blocks = (b"\x00" + flags).count(b"\x00\x01")
    return 2 * (hi - lo + 1) - 2 * flags.count(1) + blocks


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
    `limit` distinct witnesses are drawn from the closed form of
    `hard_witness_count`: the evens and the odds each shuffled, and for odd
    n the evens split around the odd run at a uniform point.  Results are
    deterministic per seed.  A `limit` above hard_witness_count(n) that
    reaches the drawing raises InputError.
    """
    if n < 2:
        raise InputError("hard witnesses need n >= 2")
    if limit < 0:
        raise InputError("limit must be nonnegative")
    if n <= _EXHAUSTIVE_WITNESS_LIMIT:
        target = min_parity_adjacencies(n)
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
    evens, odds = list(range(2, n + 1, 2)), list(range(1, n + 1, 2))
    drawn: dict[tuple[int, ...], Permutation] = {}
    while len(drawn) < limit:
        rng.shuffle(evens)
        rng.shuffle(odds)
        split = rng.randint(0, len(evens)) if n % 2 else len(evens)
        values = tuple(evens[:split] + odds + evens[split:])
        drawn.setdefault(values, Permutation(values))
    return list(drawn.values())
