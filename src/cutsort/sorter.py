"""
Bounded sorting algorithms emitting verifiable traces.

Two weight-function sorters share one main loop.  While the permutation
keeps an increasing block at the front, each step either

  * BLOCK:  merges two blocks holding consecutive values   (gain >= 1),
  * BONUS / EXTRA_BONUS:  inserts a string between the front block's last
    value l and the following element p so that both junctions become
    adjacencies                                            (gain >= 1), or
  * ABSORBING_PAIR:  two moves, an absorbing insertion followed by a
    double-junction insertion against the front block      (gain >= 2),

so the weight (blocks + 2/3 singletons) falls by at least 1 per move on
average.  `sort_basic` works with the circular value convention and ends
with one rotation: at most floor(2n/3) + 1 moves.  `sort_refined` keeps
value 1 anchored in front, works linearly inside shrinking windows for
the small-first-element special cases, and needs no final rotation: at
most floor(2n/3) moves.

Every step's gain is re-measured before it is committed; a shortfall or
a broken adjacency raises DiagnosticFailure instead of emitting a bad
trace.  Gains are measured on the window the step acted on (recorded in
the step), in integer thirds.

The measurement is an exact O(1) delta (`move_deltas`), read from the
actual values before and after each move.  That is exact because of
four facts:

  * a move changes neighbour pairs only at its cut gaps: i, j, k before
    and i, i+k-j, k after (i and k for REVERSE);
  * a reversed piece keeps every inner |difference|, so its inner pairs
    stay adjacent or not, and bound or not;
  * with b_g = 1 when gap g inside the window (lo, hi] is bound under
    `metrics.step_signs`, the one step rule, weight = 2N - sum(b_g) -
    sum(b_g * b_{g-1}) for a window of N positions: 2 per segment plus 1
    per block;
  * a window holds distinct values, so a run never changes direction,
    and every maximal run of bound gaps is exactly one block.

So only the terms at the cut gaps change.  `audit_result` stays the
independent full recomputation of every step's adjacencies and gain.

The planners read blocks from one `_View`, which the main loop builds
once and keeps across commits.  It is indexed by value: adj[v] = 1 iff v
and succ(v), its successor under the step rule, stand in neighbouring
window positions.  A run of 1s is one block, so block-merge candidates
are the v with adj[pred v], adj[v], adj[succ v] = 1, 0, 1 (one regex
scan), and the block at a position is found by `find`/`rfind` of 0.  By
the first two facts above, a move takes away exactly the neighbour pairs
across its cut gaps before and brings exactly those across its cut gaps
after; every other pair survives, reversed or not.  So after each commit
the view clears the first and sets the second, O(1) per move, from the
value lists `measure` already produced, and nothing indexed by value
shifts.  The main loop's done test reads the run from the window's
front value in the same bytes.

Baselines: `sort_insertion` (<= n-1 moves) and `sort_monotone`
(<= n - ceil(sqrt(n)) + 1 moves via a longest monotone subsequence).
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from operator import sub

from .metrics import Mode, block_spans, step_signs, weight_thirds_values
from .perm import (
    Move,
    MoveKind,
    Permutation,
    Trace,
    TraceNote,
    adjacency_count_values,
    apply_move_values,
)


class StepCategory(Enum):
    OPENING = "opening"
    SPECIAL_OPENING = "special_opening"
    BLOCK = "block"
    BONUS = "bonus"
    EXTRA_BONUS = "extra_bonus"
    ABSORBING_PAIR = "absorbing_pair"
    CLOSING = "closing"


# Minimum measured gain per category, in thirds.  Opening and closing
# moves carry their cost in the move-count bound, not a gain claim.
GAIN_FLOORS = {
    StepCategory.BLOCK: 3,
    StepCategory.BONUS: 3,
    StepCategory.EXTRA_BONUS: 4,
    StepCategory.ABSORBING_PAIR: 6,
}


class DiagnosticFailure(RuntimeError):
    """The sorter could not construct a valid step; carries the state."""

    def __init__(self, message: str, values: tuple[int, ...]):
        super().__init__(f"{message}; state: {' '.join(map(str, values))}")
        self.values = values


@dataclass(frozen=True)
class SortStep:
    """One or two moves with their category and measured gain (thirds)."""

    moves: tuple[Move, ...]
    category: StepCategory
    claimed_gain: int | None
    window: tuple[int, int]  # 0-based inclusive position range of the gain frame
    mode: Mode


@dataclass
class SortResult:
    trace: Trace
    move_count: int
    bound: int
    category_histogram: dict[str, int]
    steps: tuple[SortStep, ...]
    algorithm: str


def splice_move(gs: int, gt: int, g: int, reverse: bool) -> Move:
    """
    Move that cuts positions [gs, gt) and pastes them (optionally
    reversed) at gap g of the same indexing.  g must lie outside (gs, gt);
    g == gs or g == gt demands reverse=True and yields in-place REVERSE.
    """
    if g == gs or g == gt:
        if not reverse:
            raise ValueError("no-op splice")
        return Move(gs, gt, gt, MoveKind.REVERSE)
    if g < gs:
        return Move(g, gs, gt, MoveKind.SWAP_REV_RIGHT if reverse else MoveKind.SWAP)
    if g > gt:
        return Move(gs, gt, g, MoveKind.SWAP_REV_LEFT if reverse else MoveKind.SWAP)
    raise ValueError("paste gap inside the cut span")


def _is_block(span: tuple) -> bool:
    return span[1] - span[0] >= 2


def _adjacencies_at(vals, cuts) -> int:
    """Adjacencies at the given gaps of the extended sequence 0, v1..vn, n+1."""
    n = len(vals)
    count = 0
    for g in cuts:
        left = vals[g - 1] if g else 0
        right = vals[g] if g < n else n + 1
        if left - right == 1 or right - left == 1:
            count += 1
    return count


def _bound_terms(vals, cuts, lo: int, hi: int, signs) -> int:
    """
    The part of sum(b_g) + sum(b_g * b_{g-1}) that touches the given gaps
    (increasing): b_g for each cut gap, and every product whose pair holds
    one.  Each such term carries the cut gap's own b, so a free cut gap
    adds nothing and its neighbours go unread.
    """
    total = 0
    last = -2
    for c in cuts:
        if lo < c <= hi and vals[c] - vals[c - 1] in signs:
            total += 1
            if c - 1 > lo and c != last + 1:  # else the previous cut holds the pair
                total += vals[c - 1] - vals[c - 2] in signs
            if c < hi:
                total += vals[c + 1] - vals[c] in signs
        last = c
    return total


def move_deltas(before, after, m: Move, mode: Mode, lo: int, hi: int) -> tuple[int, int]:
    """
    (adjacency change, window weight change in thirds) of move m, which took
    `before` to `after`; both are after minus before.  Only the values at
    the move's cut gaps are read, so the cost is O(1); see the module
    docstring for why that is exact.  The cut points must lie in
    [lo, hi + 1], the window's gaps.
    """
    i, j, k = m.i, m.j, m.k
    if i < lo or k > hi + 1:
        raise ValueError(f"{m} leaves the window [{lo}, {hi}]")
    if m.kind is MoveKind.REVERSE:
        cuts_before = cuts_after = (i, k)
    else:
        cuts_before = (i, j, k)
        cuts_after = (i, i + k - j, k)
    signs = step_signs(mode.wrap(lo, hi))
    adjacency = _adjacencies_at(after, cuts_after) - _adjacencies_at(before, cuts_before)
    weight = _bound_terms(before, cuts_before, lo, hi, signs) - _bound_terms(
        after, cuts_after, lo, hi, signs
    )
    return adjacency, weight


class _View:
    """
    The neighbour pairs of one window state, indexed by value: adj[v] = 1
    iff v and succ(v) stand in neighbouring window positions.  succ is the
    step rule's successor on the window's values vlo .. vhi (the window
    [lo, hi] holds lo + 1 .. hi + 1): v + 1, and with a wrap vlo after
    vhi; without one adj[vhi] = 0.  The entries for vlo .. vhi are stored
    twice, the second time at v + size, so that every run of the ring
    reads as one stretch of bytes.

    A run v, succ(v), ... of 1s is exactly one block: its values are
    chained by neighbouring positions, and distinct positions on a line
    cannot turn, so the run fills consecutive positions.  Indexed by value,
    nothing shifts when a move is applied; `follow` keeps the view across
    commits by touching only the pairs at the moves' cut gaps.
    """

    __slots__ = ("vals", "lo", "hi", "wrap", "size", "adj", "rises")

    def __init__(self, vals, lo: int, hi: int, wrap: int, adj: bytearray | None = None):
        self.vals = vals
        self.lo, self.hi, self.wrap = lo, hi, wrap
        self.size = hi - lo + 1
        self.rises = (1, -wrap)  # succ(v) - v
        if adj is None:
            # the positions of the values vlo .. vhi, in value order
            pos = sorted(range(lo, hi + 1), key=vals.__getitem__)
            ring = bytearray(map(_UNIT.__contains__, map(sub, pos[1:], pos)))
            ring.append(wrap > 0 and pos[-1] - pos[0] in _UNIT)
            adj = bytearray(lo + 1) + ring * 2
        self.adj = adj

    def unwrapped(self) -> _View:
        """The same state under the step rule without a wrap."""
        adj = self.adj.copy()
        adj[self.hi + 1] = adj[self.hi + 1 + self.size] = 0  # the pair (vhi, vlo)
        return _View(self.vals, self.lo, self.hi, 0, adj)

    def follow(self, leg: _Leg) -> None:
        """
        Move the view along a measured leg: for each move, clear the pairs
        across its cut gaps before the move, then set those across its cut
        gaps after.  Every other neighbour pair survives a move (a reversed
        piece keeps its inner pairs, only their order flips).
        """
        adj, lo, hi, size, rises = self.adj, self.lo, self.hi, self.size, self.rises
        falls = (-1, self.wrap)  # v - succ(v); a 2-value ring step is both
        moves, _, states = leg
        for t, m in enumerate(moves):
            before, after = states[t], states[t + 1]
            i, j, k = m.i, m.j, m.k
            if m.kind is MoveKind.REVERSE:
                cuts_before = cuts_after = (i, k)
            else:
                cuts_before, cuts_after = (i, j, k), (i, i + k - j, k)
            for g in cuts_before:
                if lo < g <= hi:
                    x = before[g - 1]
                    d = before[g] - x
                    if d in rises:  # before[g] = succ(x)
                        adj[x] = adj[x + size] = 0
                    if d in falls:  # x = succ(before[g])
                        adj[x + d] = adj[x + d + size] = 0
            for g in cuts_after:
                if lo < g <= hi:
                    x = after[g - 1]
                    d = after[g] - x
                    if d in rises:
                        adj[x] = adj[x + size] = 1
                    if d in falls:
                        adj[x + d] = adj[x + d + size] = 1
        self.vals = states[-1]

    def done(self) -> bool:
        """
        The window is sorted: the run of 1s from its front value takes in
        every value, so the one 0 of the ring is the front value's pred.
        Without a wrap that 0 is adj[vhi], so the front value is vlo.
        """
        first = self.vals[self.lo]
        end = self.adj.find(0, first, first + self.size)
        return end == -1 or end == first + self.size - 1

    def merge_candidates(self):
        """
        In increasing order, the values v that end a block whose successor
        starts one: adj[pred v], adj[v], adj[succ v] = 1, 0, 1.  The two
        blocks are distinct unless one block holds the whole ring.
        """
        adj, vlo, vhi = self.adj, self.lo + 1, self.hi + 1
        stop = vhi + 2 if self.wrap else vhi + 1  # without a wrap vhi has no successor
        found = [match.start() + 1 for match in _MERGE_GAP.finditer(adj, vlo, stop)]
        if adj[vhi] and not adj[vlo] and adj[vlo + 1]:  # a wrap: pred(vlo) = vhi
            found.insert(0, vlo)
        return found

    def seg(self, p: int) -> tuple[int, int]:
        """The block holding position p, or the singleton (p, p + 1)."""
        adj, size = self.adj, self.size
        v = self.vals[p]
        if adj[v]:
            top = adj.find(0, v, v + size)  # the run's last value, read on the ring
            if top == -1:
                return self.lo, self.hi + 1  # a 2-value ring: one block
            above = top - v
        elif adj[v + size - 1]:  # pred(v)'s entry
            above = 0
        else:
            return p, p + 1
        below = v + size - 1 - adj.rfind(0, v, v + size)
        if above:
            up = p < self.hi and self.vals[p + 1] - v in self.rises
        else:
            up = p > self.lo and v - self.vals[p - 1] in self.rises
        start = p - below if up else p - above
        return start, start + above + below + 1


_MERGE_GAP = re.compile(rb"(?=\x01\x00\x01)")
_UNIT = frozenset((1, -1))


# A measured run of moves: the moves, the window weight gain in thirds,
# and the value lists before and after each move, as `measure` made them.
_Leg = tuple[tuple[Move, ...], int, list[list[int]]]
# A validated step before commit: its measured leg and category.
_Planned = tuple[_Leg, StepCategory]


class _Run:
    """Mutable sorting state over a position window [lo, hi]."""

    def __init__(self, values, mode: Mode):
        self.vals: list[int] = list(values)
        self.n = len(self.vals)
        self.mode = mode
        self.lo = 0
        self.hi = self.n - 1
        self.moves: list[Move] = []
        self.steps: list[SortStep] = []
        self.notes: list[TraceNote] = []

    # The windows used by the anchored sorter always hold the contiguous
    # value range lo+1 .. hi+1 (everything outside is already in place).
    @property
    def vlo(self) -> int:
        return self.lo + 1

    @property
    def vhi(self) -> int:
        return self.hi + 1

    def wsize(self) -> int:
        return self.hi - self.lo + 1

    def succ(self, v: int) -> int | None:
        if self.mode is Mode.CIRCULAR:
            return v % self.n + 1
        return v + 1 if v < self.vhi else None

    def pred(self, v: int) -> int | None:
        if self.mode is Mode.CIRCULAR:
            return self.n if v == 1 else v - 1
        return v - 1 if v > self.vlo else None

    def view(self, vals=None) -> _View:
        wrap = self.mode.wrap(self.lo, self.hi)
        return _View(self.vals if vals is None else vals, self.lo, self.hi, wrap)

    def window_sorted(self) -> bool:
        return self.vals[self.lo : self.hi + 1] == list(range(self.vlo, self.vhi + 1))

    def front_ok(self, vals) -> bool:
        """The window opens with an increasing block; LINEAR: at value vlo."""
        lo, hi = self.lo, self.hi
        if lo >= hi:
            return False
        if step_signs(self.mode.wrap(lo, hi)).get(vals[lo + 1] - vals[lo]) != 1:
            return False
        return self.mode is Mode.CIRCULAR or vals[lo] == self.vlo

    def measure(self, moves, lead: _Leg | None = None) -> _Leg | None:
        """
        Apply moves to the current values, or after the measured leg
        `lead`, which the result then starts with; None if the adjacency
        count ever drops.  Each move's deltas are read by move_deltas from
        the actual values before and after it.
        """
        if lead is None:
            done, gain, states = (), 0, [self.vals]
        else:
            done, gain, states = lead[0], lead[1], lead[2][:]
        for m in moves:
            cur = states[-1]
            nxt = apply_move_values(cur, m)
            adjacency, weight = move_deltas(cur, nxt, m, self.mode, self.lo, self.hi)
            if adjacency < 0:
                return None
            gain -= weight
            states.append(nxt)
        return done + tuple(moves), gain, states

    def commit(self, leg: _Leg, category: StepCategory) -> None:
        """Record a measured leg as one step."""
        moves, gain, states = leg
        self.notes.append(TraceNote(len(self.moves), category.value, gain))
        window = (self.lo, self.hi)
        self.steps.append(SortStep(moves, category, gain, window, self.mode))
        self.vals = states[-1]
        self.moves.extend(moves)

    def commit_checked(self, moves, category: StepCategory) -> None:
        leg = self.measure(moves)
        if leg is None:
            raise DiagnosticFailure(
                f"{category.value} move breaks adjacencies", tuple(self.vals)
            )
        self.commit(leg, category)

    # ------------------------------------------------------------------
    # Main-loop step planners.  Each returns a validated step with the
    # values it leads to, or None.  The planners share one _View, which
    # the main loop keeps across commits.
    # ------------------------------------------------------------------

    def _try_step(
        self, moves, category: StepCategory, floor=None, lead: _Leg | None = None
    ) -> _Planned | None:
        """
        `moves`, after the measured leg `lead` if given, as one step, or
        None if an adjacency drops, the window loses its increasing front
        block, or the whole step's gain is below `floor` (default: the
        category's GAIN_FLOORS entry; a category without one has no floor).
        """
        leg = self.measure(moves, lead)
        if leg is None:
            return None
        gain = leg[1]
        if floor is None:
            floor = GAIN_FLOORS.get(category, gain)
        if gain < floor or not self.front_ok(leg[2][-1]):
            return None
        return leg, category

    def plan_block_merge(self, view: _View) -> _Planned | None:
        """Consecutive values in two distinct blocks: merge them.

        The view names such values in increasing order; the front block,
        if any, stays in place.
        """
        for v in view.merge_candidates():
            pv, pw = self.vals.index(v), self.vals.index(self.succ(v))
            sv, sw = view.seg(pv), view.seg(pw)
            if sv == sw:
                continue
            if sv[0] == self.lo:
                order = [(sw, sv, pw, pv)]
            elif sw[0] == self.lo:
                order = [(sv, sw, pv, pw)]
            elif sv < sw:
                order = [(sw, sv, pw, pv), (sv, sw, pv, pw)]
            else:
                order = [(sv, sw, pv, pw), (sw, sv, pw, pv)]
            for cut_seg, keep_seg, pcut, pkeep in order:
                move = self._merge_move(cut_seg, keep_seg, pcut, pkeep)
                if move is None:
                    continue
                planned = self._try_step([move], StepCategory.BLOCK)
                if planned is not None:
                    return planned
        return None

    def _merge_move(self, cut, keep, pcut: int, pkeep: int) -> Move | None:
        if pkeep == keep[1] - 1:  # junction on keep's right side
            gap = keep[1]
            reverse = pcut != cut[0]
        elif pkeep == keep[0]:  # junction on keep's left side
            gap = keep[0]
            reverse = pcut != cut[1] - 1
        else:
            return None
        try:
            return splice_move(cut[0], cut[1], gap, reverse)
        except ValueError:
            return None

    def plan_menu(self, view: _View) -> _Planned | None:
        """The bonus / absorbing-pair case analysis at the front block."""
        if not self.front_ok(self.vals):
            return None
        front = view.seg(self.lo)
        gap = front[1]
        if gap > self.hi:
            return None
        last = self.vals[gap - 1]
        front_next = self.succ(last)
        if front_next is None:
            return None
        pos_fn = self.vals.index(front_next)
        if _is_block(view.seg(pos_fn)):
            return None  # a block merge was available; planner order was violated
        after = self.vals[gap]

        cands = []
        for cand in (self.pred(after), self.succ(after)):
            if cand is None:
                continue
            pc = self.vals.index(cand)
            if abs(pc - gap) == 1:
                continue  # located next to `after`
            if pc < front[1]:
                continue  # inside the front block
            cseg = view.seg(pc)
            singleton = not _is_block(cseg)
            s, t = min(pos_fn, pc), max(pos_fn, pc)
            contained = cseg[0] >= s and cseg[1] - 1 <= t
            enabling = singleton or contained
            cands.append((0 if singleton else (1 if enabling else 2), cand, pc, cseg))
        cands.sort()

        for rank, cand, pc, cseg in cands:
            if rank > 1:
                continue
            s, t = min(pos_fn, pc), max(pos_fn, pc)
            move = splice_move(s, t + 1, gap, reverse=pc < pos_fn)
            category = StepCategory.BONUS if rank == 0 else StepCategory.EXTRA_BONUS
            planned = self._try_step([move], category)
            if planned is not None:
                return planned
        for rank, cand, pc, cseg in cands:
            if rank != 2:
                continue
            planned = self._plan_absorbing_pair(gap, front_next, pc, cseg)
            if planned is not None:
                return planned
        return None

    def _plan_absorbing_pair(self, gap, front_next, pc, cseg) -> _Planned | None:
        far_pos = cseg[1] - 1 if pc == cseg[0] else cseg[0]
        far_end = self.vals[far_pos]
        far_next_cands = [
            x
            for x in (self.pred(far_end), self.succ(far_end))
            if x is not None and not (cseg[0] <= self.vals.index(x) < cseg[1])
        ]
        move_a = splice_move(cseg[0], cseg[1], gap, reverse=pc == cseg[0])
        first = self.measure([move_a])
        if first is None:
            return None
        mid = first[2][-1]
        p_fn = mid.index(front_next)
        for far_next in far_next_cands:
            p_qn = mid.index(far_next)
            s, t = min(p_fn, p_qn), max(p_fn, p_qn)
            if s <= gap + (cseg[1] - cseg[0]):
                continue  # the string must stay clear of the re-homed block
            move_b = splice_move(s, t + 1, gap, reverse=p_qn < p_fn)
            planned = self._try_step([move_b], StepCategory.ABSORBING_PAIR, lead=first)
            if planned is not None:
                return planned
        return None

    def plan_fallback_single(
        self, view: _View, lead: _Leg | None = None
    ) -> _Planned | None:
        """
        Deterministic scan for any single insertion that creates matching
        junctions at some slot of the view's state and measurably gains a
        BONUS, or, after the leg `lead` that led to that state, completes
        an ABSORBING_PAIR.  Covers front-anchored states the primary case
        analysis cannot serve (e.g. the window maximum sitting in a
        descending block right after the front block, which has no free
        neighbor).
        """
        category = StepCategory.BONUS if lead is None else StepCategory.ABSORBING_PAIR
        base = view.vals
        bound = step_signs(view.wrap)
        front_stop = view.seg(self.lo)[1]
        for g in range(front_stop, self.hi + 2):
            u = base[g - 1]
            w = base[g] if g <= self.hi else None
            if w is not None and w - u in bound:
                continue  # g is inside a block
            xs = [x for x in (self.pred(u), self.succ(u)) if x is not None and x != w]
            if w is None:
                for x in xs:
                    px = base.index(x)
                    xseg = view.seg(px)
                    if xseg[0] < front_stop or xseg[0] <= g - 1 < xseg[1]:
                        continue
                    move = splice_move(xseg[0], xseg[1], g, reverse=px != xseg[0])
                    planned = self._try_step([move], category, lead=lead)
                    if planned is not None:
                        return planned
                continue
            ys = [y for y in (self.pred(w), self.succ(w)) if y is not None and y != u]
            for x in xs:
                px = base.index(x)
                for y in ys:
                    py = base.index(y)
                    s, t = min(px, py), max(px, py)
                    if s < front_stop or s <= g - 1 <= t or s <= g <= t:
                        continue
                    move = splice_move(s, t + 1, g, reverse=px > py)
                    planned = self._try_step([move], category, lead=lead)
                    if planned is not None:
                        return planned
        return None

    def plan_fallback_pair(self, view: _View) -> _Planned | None:
        """Absorbing move plus a compensating insertion, found by scan."""
        front_stop = view.seg(self.lo)[1]
        for seg in block_spans(view.vals, self.lo, self.hi, view.wrap):
            if seg[0] == self.lo:
                continue  # the front block
            for end_pos in (seg[0], seg[1] - 1):
                end_val = self.vals[end_pos]
                for target in (self.pred(end_val), self.succ(end_val)):
                    if target is None:
                        continue
                    pt = self.vals.index(target)
                    if seg[0] <= pt < seg[1] or pt < front_stop:
                        continue
                    if _is_block(view.seg(pt)):
                        continue
                    for gap, reverse in (
                        (pt + 1, end_pos != seg[0]),
                        (pt, end_pos != seg[1] - 1),
                    ):
                        if not front_stop <= gap <= self.hi + 1:
                            continue
                        if seg[0] <= gap <= seg[1]:
                            continue
                        move_a = splice_move(seg[0], seg[1], gap, reverse)
                        first = self._try_step([move_a], StepCategory.ABSORBING_PAIR, 2)
                        if first is None:
                            continue
                        lead = first[0]
                        planned = self.plan_fallback_single(self.view(lead[2][-1]), lead)
                        if planned is not None:
                            return planned
        return None

    def plan_next(self, view: _View) -> _Planned | None:
        """The first step the planners find, in order, on the view's state."""
        return (
            self.plan_block_merge(view)
            or self.plan_menu(view)
            or self.plan_fallback_single(view)
            or self.plan_fallback_pair(view)
        )

    def main_loop(self, view: _View) -> None:
        """
        Steps until the window is sorted.  `view`, a view of the current
        state, is kept across the commits.
        """
        budget = 3 * self.n + 16
        while not view.done():
            planned = self.plan_next(view)
            if planned is None:
                raise DiagnosticFailure("no valid step", tuple(self.vals))
            self.commit(*planned)
            view.follow(planned[0])
            budget -= 1
            if budget <= 0:
                raise DiagnosticFailure("step budget exceeded", tuple(self.vals))

    # ------------------------------------------------------------------
    # Whole-algorithm drivers.
    # ------------------------------------------------------------------

    def run_basic(self) -> None:
        if self.window_sorted():
            return
        view = self.view()
        if not self.front_ok(self.vals):  # no increasing front block
            self._basic_opening(view)
        self.main_loop(view)
        if not self.window_sorted():
            idx_top = self.vals.index(self.n)
            self.commit_checked(
                [splice_move(0, idx_top + 1, self.n, reverse=False)],
                StepCategory.CLOSING,
            )
        if not self.window_sorted():
            raise DiagnosticFailure("closing rotation missed", tuple(self.vals))

    def _basic_opening(self, view: _View) -> None:
        """
        One move that establishes an increasing block at the front: reverse
        a decreasing front run in place, or fetch the run holding the front
        value's successor (or predecessor) and paste it against the front.
        Plans are tried in order and validated; wrapped runs can shift a
        boundary value away from its end, so plain runs serve as backups.
        `view`, the run's view of the current state, follows the move.
        """
        plans: list[Move] = []
        views = (view, view.unwrapped())
        first = self.vals[0]
        for rule_view in views:
            front = rule_view.seg(0)
            decreasing = step_signs(rule_view.wrap).get(self.vals[1] - first, 0) < 0
            if _is_block(front) and decreasing:
                plans.append(splice_move(0, front[1], 0, reverse=True))
        for target, paste_after in ((self.succ(first), True), (self.pred(first), False)):
            pt = self.vals.index(target)
            for rule_view in views:
                seg = rule_view.seg(pt)
                if seg[0] == 0:
                    continue  # cutting the front apart is never the opening
                if pt not in (seg[0], seg[1] - 1):
                    continue
                if paste_after:
                    plans.append(splice_move(seg[0], seg[1], 1, reverse=pt != seg[0]))
                else:
                    plans.append(
                        splice_move(seg[0], seg[1], 0, reverse=pt != seg[1] - 1)
                    )
        tried = set()
        for move in plans:
            if move in tried:
                continue
            tried.add(move)
            planned = self._try_step([move], StepCategory.OPENING)
            if planned is not None:
                self.commit(*planned)
                view.follow(planned[0])
                return
        raise DiagnosticFailure("no valid opening move", tuple(self.vals))

    def run_refined(self) -> None:
        while self.wsize() > 3:
            if self.window_sorted():
                return
            first = self.vals[self.lo]
            if first == self.vlo:
                self.lo += 1
                continue
            p_min = self.vals.index(self.vlo)
            min_seg = self.view().seg(p_min)
            if _is_block(min_seg):
                # the window minimum sits in a block: front the whole block,
                # minimum first, and run the main loop from there
                self.commit_checked(
                    [
                        splice_move(
                            min_seg[0], min_seg[1], self.lo, reverse=p_min != min_seg[0]
                        )
                    ],
                    StepCategory.SPECIAL_OPENING,
                )
                self.main_loop(self.view())
                return
            if first == self.vlo + 1:
                self.commit_checked(
                    [splice_move(p_min, p_min + 1, self.lo, reverse=False)],
                    StepCategory.SPECIAL_OPENING,
                )
                self.lo += 1
                continue
            outcome = self._refined_general_opening(p_min)
            if outcome == "loop":
                self.main_loop(self.view())
                return
            if outcome == "shrink":
                continue
            raise DiagnosticFailure("no valid opening", tuple(self.vals))
        self._tail_lookup()

    def _gap_clean(self, vals, g: int) -> bool:
        """No block junction straddles gap g (window-linear values)."""
        if g <= self.lo or g > self.hi:
            return True
        return vals[g] - vals[g - 1] not in step_signs(0)

    def _refined_general_opening(self, p_min: int) -> str:
        first = self.vals[self.lo]
        plans = []
        for idx, near in enumerate((first - 1, first + 1)):
            if near > self.vhi:
                continue
            pa = self.vals.index(near)
            s, t = min(p_min, pa), max(p_min, pa)
            clean = self._gap_clean(self.vals, s) and self._gap_clean(self.vals, t + 1)
            beside_min = self.vals[p_min + 1] if pa > p_min else self.vals[p_min - 1]
            plans.append((0 if clean else 1, idx, near, pa, s, t, beside_min))
        plans.sort()
        for _, _, near, pa, s, t, beside_min in plans:
            if beside_min == self.vhi:
                if self._try_top_adjacent_special():
                    return "shrink"
                continue
            move1 = splice_move(s, t + 1, self.lo, reverse=pa < p_min)
            first_leg = self.measure([move1])
            if first_leg is None:
                continue
            mid = first_leg[2][-1]
            if mid[self.lo] != self.vlo:
                continue
            if mid[self.lo + 1] == self.vlo + 1:  # an increasing front block at vlo
                self.commit(first_leg, StepCategory.OPENING)
                return "loop"
            for move2 in self._second_opening_moves(mid):
                planned = self._try_step([move2], StepCategory.OPENING, lead=first_leg)
                if planned is None:
                    continue
                post = planned[0][2][-1]
                if post[self.lo] != self.vlo or post[self.lo + 1] != self.vlo + 1:
                    continue
                weight = weight_thirds_values(post, self.mode, self.lo, self.hi)
                if weight <= 2 * self.wsize() - 3:
                    self.commit(*planned)
                    return "loop"
        return "fail"

    def _second_opening_moves(self, mid):
        """Candidate second opening moves on the post-first-move state."""
        second = mid[self.lo + 1]
        view = self.view(mid)
        p_two = mid.index(self.vlo + 1)
        cands: list[tuple[int, int, int, int]] = []
        order = 0
        for near in (second - 1, second + 1):
            if not self.vlo + 1 <= near <= self.vhi or near == second:
                continue
            pb = mid.index(near)
            if pb <= self.lo + 1:
                continue
            s, t = min(p_two, pb), max(p_two, pb)
            clean = self._gap_clean(mid, s) and self._gap_clean(mid, t + 1)
            cands.append((0 if clean else 2, order, s, t))
            order += 1
            nseg = view.seg(pb)
            if _is_block(nseg) and not (nseg[0] <= p_two < nseg[1]):
                s2, t2 = min(s, nseg[0]), max(t, nseg[1] - 1)
                cands.append((3, order, s2, t2))
                order += 1
        two_seg = view.seg(p_two)
        if _is_block(two_seg):
            cands.append((1, order, two_seg[0], two_seg[1] - 1))
            order += 1
        # every other value behind the two front places, vlo + 1 excluded
        for pf in range(self.lo + 2, self.hi + 1):
            if pf != p_two:
                cands.append((4, mid[pf], min(p_two, pf), max(p_two, pf)))
        cands.sort()
        seen = set()
        for _, _, s, t in cands:
            if s <= self.lo + 1 or (s, t) in seen:
                continue
            seen.add((s, t))
            yield splice_move(s, t + 1, self.lo + 1, reverse=p_two != s)

    def _try_top_adjacent_special(self) -> bool:
        """
        The window minimum sits next to the window maximum.  Front the
        pair (with the maximum's whole block), dump everything before the
        second-smallest value to the back reversed, and shrink the window
        on both sides: min and min+1 are placed in front, max at the back.
        """
        p_min, p_top = self.vals.index(self.vlo), self.vals.index(self.vhi)
        if abs(p_top - p_min) != 1:
            return False
        top_seg = self.view().seg(p_top)
        if p_top > p_min:
            if top_seg[0] != p_top:
                return False
            s, t = p_min, top_seg[1] - 1
        else:
            if top_seg[1] - 1 != p_top:
                return False
            s, t = top_seg[0], p_min
        move1 = splice_move(s, t + 1, self.lo, reverse=p_top < p_min)
        first_leg = self.measure([move1])
        if first_leg is None:
            return False
        mid = first_leg[2][-1]
        if mid[self.lo] != self.vlo or mid[self.lo + 1] != self.vhi:
            return False
        p_two = mid.index(self.vlo + 1)
        move2 = splice_move(self.lo + 1, p_two, self.hi + 1, reverse=True)
        both = self.measure([move2], first_leg)
        if both is None:
            return False
        post = both[2][-1]
        if not (
            post[self.lo] == self.vlo
            and post[self.lo + 1] == self.vlo + 1
            and post[self.hi] == self.vhi
        ):
            return False
        self.commit(both, StepCategory.SPECIAL_OPENING)
        self.lo += 2
        self.hi -= 1
        return True

    def _tail_lookup(self) -> None:
        if self.wsize() <= 0 or self.window_sorted():
            return
        lo = self.lo
        rel = tuple(v - lo for v in self.vals[lo : self.hi + 1])
        table = {
            (2, 1): (lo, lo + 2, lo, True),
            (1, 3, 2): (lo + 1, lo + 3, lo + 1, True),
            (2, 1, 3): (lo, lo + 2, lo, True),
            (2, 3, 1): (lo, lo + 2, lo + 3, False),
            (3, 1, 2): (lo, lo + 1, lo + 3, False),
            (3, 2, 1): (lo, lo + 3, lo, True),
        }
        gs, gt, g, rev = table[rel]
        self.commit_checked([splice_move(gs, gt, g, rev)], StepCategory.CLOSING)
        if not self.window_sorted():
            raise DiagnosticFailure("tail lookup missed", tuple(self.vals))


def _finish(
    p: Permutation, bound: int, algorithm: str, final, moves, steps=(), notes=()
) -> SortResult:
    """The result of `moves`, which took p to `final`; steps and notes annotate them."""
    if tuple(final) != tuple(range(1, p.n + 1)):
        raise DiagnosticFailure("trace does not sort", p.values)
    if len(moves) > bound:
        raise DiagnosticFailure(
            f"{algorithm}: {len(moves)} moves exceeds bound {bound}", p.values
        )
    histogram: dict[str, int] = {}
    for step in steps:
        name = step.category.value
        histogram[name] = histogram.get(name, 0) + 1
    return SortResult(
        trace=Trace(p, tuple(moves), tuple(notes)),
        move_count=len(moves),
        bound=bound,
        category_histogram=histogram,
        steps=tuple(steps),
        algorithm=algorithm,
    )


def sort_basic(p: Permutation) -> SortResult:
    """Sort with the circular-convention loop: at most floor(2n/3)+1 moves."""
    run = _Run(p.values, Mode.CIRCULAR)
    run.run_basic()
    return _finish(p, 2 * p.n // 3 + 1, "basic", run.vals, run.moves, run.steps, run.notes)


def sort_refined(p: Permutation) -> SortResult:
    """Sort keeping value 1 anchored in front: at most floor(2n/3) moves."""
    run = _Run(p.values, Mode.LINEAR)
    run.run_refined()
    return _finish(p, 2 * p.n // 3, "refined", run.vals, run.moves, run.steps, run.notes)


def plan_step(p: Permutation, mode: Mode) -> SortStep:
    """
    One main-loop step for a state with an increasing front block (LINEAR
    mode: anchored at value 1).  Used to inspect the case analysis.
    """
    run = _Run(p.values, mode)
    planned = run.plan_next(run.view())
    if planned is None:
        raise DiagnosticFailure("no valid step", p.values)
    run.commit(*planned)
    return run.steps[0]


def sort_insertion(p: Permutation) -> SortResult:
    """Insertion sort: each move files one element into the sorted prefix."""
    vals = list(p.values)
    moves: list[Move] = []
    for k in range(1, len(vals)):
        v = vals[k]
        if v > vals[k - 1]:
            continue
        slot = bisect_left(vals, v, 0, k)
        moves.append(splice_move(k, k + 1, slot, reverse=False))
        del vals[k]  # the move, in place: one element from k back to slot
        vals.insert(slot, v)
    return _finish(p, max(p.n - 1, 0), "insertion", vals, moves)


def longest_monotone(p: Permutation) -> tuple[str, tuple[int, ...]]:
    """
    A maximum-length monotone subsequence: ("increasing" or "decreasing",
    0-based index tuple).  Ties prefer increasing, then the
    lexicographically smallest index sequence.  Length >= ceil(sqrt(n)).
    """
    vals = p.values
    n = len(vals)
    inc_from = _monotone_lengths(vals, increasing=True)
    dec_from = _monotone_lengths(vals, increasing=False)
    best_inc, best_dec = max(inc_from), max(dec_from)
    if best_inc >= best_dec:
        orientation, lengths, length = "increasing", inc_from, best_inc
    else:
        orientation, lengths, length = "decreasing", dec_from, best_dec
    up = orientation == "increasing"
    indices: list[int] = []
    need = length
    last: int | None = None
    for i in range(n):
        if lengths[i] != need:
            continue
        if last is not None and not (vals[i] > last if up else vals[i] < last):
            continue
        indices.append(i)
        last = vals[i]
        need -= 1
        if need == 0:
            break
    return orientation, tuple(indices)


def _monotone_lengths(vals, increasing: bool) -> list[int]:
    """lengths[i] = longest monotone run of the given sense starting at i."""
    # Patience sorting from the right: tails[L - 1] is the least key that
    # starts a run of length L among the positions scanned so far.
    sign = -1 if increasing else 1
    tails: list[int] = []
    lengths = [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        key = sign * vals[i]
        length = bisect_left(tails, key)
        if length == len(tails):
            tails.append(key)
        else:
            tails[length] = key
        lengths[i] = length + 1
    return lengths


def sort_monotone(p: Permutation) -> SortResult:
    """
    Insert every element outside a longest monotone subsequence into its
    place along that subsequence, then reverse once if it was decreasing.
    """
    orientation, indices = longest_monotone(p)
    up = orientation == "increasing"
    vals = list(p.values)
    n = len(vals)
    spine = sorted(vals[i] for i in indices)
    members = set(spine)
    # Positions are counted, not searched.  Values that never move keep
    # their original order.  A moved value goes straight after its anchor,
    # which is unmoved or else the value placed just before (values are
    # placed in increasing order), so it joins the group of one unmoved
    # value: the one at original position g, or g = -1 at the front.  An
    # unmoved value at original position i then stands at
    # i - #(moved from positions < i) + #(moved into groups < i).
    origin = {v: i for i, v in enumerate(vals)}
    moved_from: list[int] = []  # original positions of moved values, sorted
    moved_into: list[int] = []  # their groups, sorted

    def position(i: int) -> int:
        return i - bisect_left(moved_from, i) + bisect_left(moved_into, i)

    moves: list[Move] = []
    last = last_pos = last_group = None  # the value placed just before
    for v in sorted(vv for vv in vals if vv not in members):
        pos = position(origin[v])
        if up:
            rank = bisect_left(spine, v)
            anchor = None if rank == 0 else spine[rank - 1]
        else:
            rank = bisect_left(spine, v + 1)
            anchor = None if rank == len(spine) else spine[rank]
        if anchor is None:
            gap, group = 0, -1
        elif anchor == last:
            gap, group = last_pos + 1, last_group  # nothing moved since
        else:
            gap, group = position(origin[anchor]) + 1, origin[anchor]
        if gap in (pos, pos + 1):
            group = origin[v]
        else:
            moves.append(splice_move(pos, pos + 1, gap, reverse=False))
            del vals[pos]  # the move, in place: one element from pos to gap
            pos = gap if gap < pos else gap - 1
            vals.insert(pos, v)
            insort(moved_from, origin[v])
            insort(moved_into, group)
        last, last_pos, last_group = v, pos, group
        insort(spine, v)
    if not up and vals != list(range(1, n + 1)):
        move = splice_move(0, n, 0, reverse=True)
        vals = apply_move_values(vals, move)
        moves.append(move)
    root = isqrt(n)
    sqrt_ceil = root if root * root == n else root + 1
    return _finish(p, n - sqrt_ceil + 1, "monotone", vals, moves)


def audit_result(result: SortResult) -> list[str]:
    """
    Independent audit of a sort result: replays the trace, checks that no
    move lowers the adjacency count, that steps cover the move list, and
    that every gain category meets its floor as re-measured on the step's
    own window and mode.  Returns human-readable violations (empty = ok).
    """
    problems: list[str] = []
    vals = list(result.trace.initial.values)
    step_moves = [m for step in result.steps for m in step.moves]
    if result.steps and step_moves != list(result.trace.moves):
        problems.append("steps do not cover the trace moves")
    count = adjacency_count_values(vals)
    measured = after = None  # the last step's (window, mode), and its weight after
    for step in result.steps:
        lo, hi = step.window
        if measured == (lo, hi, step.mode):
            before = after  # the same values, measured the same way
        else:
            before = weight_thirds_values(vals, step.mode, lo, hi)
        for m in step.moves:
            vals = apply_move_values(vals, m)
            now = adjacency_count_values(vals)
            if now < count:
                problems.append(f"adjacency count dropped on {m}")
            count = now
        after = weight_thirds_values(vals, step.mode, lo, hi)
        measured = (lo, hi, step.mode)
        gain = before - after
        floor = GAIN_FLOORS.get(step.category)
        if floor is not None and gain < floor:
            problems.append(
                f"{step.category.value} gained {gain} thirds, below floor {floor}"
            )
        if step.claimed_gain is not None and gain != step.claimed_gain:
            problems.append(
                f"{step.category.value} claimed {step.claimed_gain}, measured {gain}"
            )
    if not result.steps:
        for m in result.trace.moves:
            vals = apply_move_values(vals, m)
    if vals != list(range(1, len(vals) + 1)):
        problems.append("trace does not replay to the identity")
    if result.move_count > result.bound:
        problems.append(f"{result.move_count} moves exceeds bound {result.bound}")
    return problems
