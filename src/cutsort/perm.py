"""
Permutations of {1..n} and the cut-and-paste move model.

A move cuts a contiguous substring out of the permutation, optionally
reverses it, and pastes it back at any position.  It is encoded by three
cut points 0 <= i < j < k <= n (gaps between positions) and a variant:

    SWAP           X A B Y  ->  X B A Y
    SWAP_REV_LEFT  X A B Y  ->  X B rev(A) Y
    SWAP_REV_RIGHT X A B Y  ->  X rev(B) A Y

where X = positions [1, i], A = (i, j], B = (j, k], Y = (k, n].  In-place
reversal of (i, k] is its own variant, REVERSE, encoded with j = k.  The
canonical move set excludes no-ops: swap variants require strict
i < j < k, and REVERSE requires k - i >= 2.

Traces (an initial permutation plus a move list) replay deterministically
and have a line-oriented text format for golden files.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from math import comb
from typing import NamedTuple


class InputError(ValueError):
    """Rejected input: malformed permutation, move, or trace."""


class ParseError(InputError):
    """Input rejected at a 1-based position: a permutation value, token or line."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ReplayError(InputError):
    """A trace move could not be applied; carries the 0-based move index."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (move index {index})")
        self.index = index


class MoveKind(Enum):
    SWAP = "swap"
    SWAP_REV_LEFT = "swaprl"
    SWAP_REV_RIGHT = "swaprr"
    REVERSE = "rev"


# Module-level aliases: reading a member off an Enum class is Python-level.
_SWAP, _SWAP_RL, _SWAP_RR = MoveKind.SWAP, MoveKind.SWAP_REV_LEFT, MoveKind.SWAP_REV_RIGHT
_REVERSE = MoveKind.REVERSE
_tuple_new = tuple.__new__


class Move(namedtuple("Move", "i j k kind")):
    """
    Cut points (i, j, k) plus the variant selecting one legal form.

    An immutable tuple record, not a dataclass: every sorter emits one per
    move, and a tuple built and checked in one Python frame, with C-level
    field getters, costs less than half of a frozen dataclass with the
    same checks.  Every constructor path validates, `_make` and
    `_replace` included.  Being a tuple, a move also equals the plain
    tuple (i, j, k, kind).
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, k: int, kind: MoveKind) -> Move:
        self = _tuple_new(cls, (i, j, k, kind))
        # Identity tests: Enum.__hash__ is Python-level, so no `in` on a set.
        if kind is _SWAP or kind is _SWAP_RL or kind is _SWAP_RR:
            if not (0 <= i < j < k):
                raise InputError(f"swap move needs 0 <= i < j < k, got {self}")
        elif kind is _REVERSE:
            if not (0 <= i and i < k and j == k):
                raise InputError(f"reverse move needs i < j = k, got {self}")
            if k - i < 2:
                raise InputError(f"reversing one element is a no-op: {self}")
        else:
            raise InputError(f"move kind must be a MoveKind, got {kind!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> Move:
        return cls(*iterable)  # validated; `_replace` builds through here too


@dataclass(frozen=True)
class Permutation:
    """An arrangement of the values 1..n; immutable and hashable."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if n < 1:
            raise InputError("permutation must have at least one element")
        seen = [False] * (n + 1)
        for pos, v in enumerate(self.values, start=1):
            if not isinstance(v, int) or not 1 <= v <= n:
                raise ParseError(f"value {v} out of range for n={n}", pos)
            if seen[v]:
                raise ParseError(f"duplicate value {v}", pos)
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.values)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    def __str__(self) -> str:
        return format_permutation(self)


def is_identity(p: Permutation) -> bool:
    return all(v == t for t, v in enumerate(p.values, start=1))


def apply_move_values(values: list[int], m: Move) -> list[int]:
    """Apply a move to a value list, returning a new list."""
    i, j, k, kind = m
    n = len(values)
    if k > n:
        raise InputError(f"cut point k={k} out of range for n={n}")
    if kind is _SWAP:
        return values[:i] + values[j:k] + values[i:j] + values[k:]
    if kind is _SWAP_RL:
        return values[:i] + values[j:k] + values[i:j][::-1] + values[k:]
    if kind is _SWAP_RR:
        return values[:i] + values[j:k][::-1] + values[i:j] + values[k:]
    return values[:i] + values[i:k][::-1] + values[k:]


def apply_move(p: Permutation, m: Move) -> Permutation:
    """Apply one cut-and-paste move, returning the new permutation."""
    return Permutation(tuple(apply_move_values(list(p.values), m)))


def enumerate_moves(n: int) -> list[Move]:
    """
    The canonical move set for length n, in a fixed deterministic order.

    Three swap variants for every strict triple i < j < k, plus one REVERSE
    for every pair i < k with k - i >= 2.  Single-element reversals and
    degenerate triples are no-ops and excluded.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    moves: list[Move] = []
    for kind in (MoveKind.SWAP, MoveKind.SWAP_REV_LEFT, MoveKind.SWAP_REV_RIGHT):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    moves.append(Move(i, j, k, kind))
    for i in range(n + 1):
        for k in range(i + 2, n + 1):
            moves.append(Move(i, k, k, MoveKind.REVERSE))
    return moves


def canonical_move_count(n: int) -> int:
    """Closed form for len(enumerate_moves(n)): 3*C(n+1,3) + C(n+1,2) - n."""
    return 3 * comb(n + 1, 3) + comb(n + 1, 2) - n


def adjacencies(p: Permutation) -> int:
    """
    Count adjacencies: consecutive positions holding values that differ
    by 1, over the extended sequence 0, v1, ..., vn, n+1.  The identity
    has n+1 of them; a move can create at most three.
    """
    return adjacency_count_values(p.values)


def adjacency_count_values(values) -> int:
    count = 1 if values[0] == 1 else 0
    if values[-1] == len(values):
        count += 1
    for t in range(len(values) - 1):
        if abs(values[t] - values[t + 1]) == 1:
            count += 1
    return count


class TraceNote(NamedTuple):
    """Sorter annotation: a step category and its gain, in thirds of weight."""

    move_index: int
    category: str
    gain_thirds: int | None = None


@dataclass(frozen=True)
class Trace:
    """An initial permutation plus an ordered, replayable move list."""

    initial: Permutation
    moves: tuple[Move, ...]
    annotations: tuple[TraceNote, ...] = field(default=())


def replay_states(t: Trace):
    """Yield the value list after each of the trace's moves, in order."""
    values = list(t.initial.values)
    n = len(values)
    for idx, m in enumerate(t.moves):
        if m.k > n:
            raise ReplayError(f"cut point k={m.k} out of range for n={n}", idx)
        values = apply_move_values(values, m)
        yield values


def replay(t: Trace) -> Permutation:
    """Fold the trace's moves over its initial permutation."""
    values = t.initial.values
    for values in replay_states(t):
        pass
    return Permutation(tuple(values))


def parse_permutation(text: str) -> Permutation:
    """Parse one line of whitespace-separated values 1..n."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty permutation", 1)
    values = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"not an integer: {tok!r}", pos) from None
        values.append(v)
    return Permutation(tuple(values))


def format_permutation(p: Permutation) -> str:
    return " ".join(str(v) for v in p.values)


def random_permutation(n: int, seed: int) -> Permutation:
    """
    Uniform random permutation, deterministic per seed.

    The shuffle is CPython's Fisher-Yates (`random.Random(seed).shuffle`),
    fixed here so equal seeds reproduce equal outputs everywhere this
    package runs.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    values = list(range(1, n + 1))
    random.Random(seed).shuffle(values)
    return Permutation(tuple(values))


_KIND_BY_TOKEN = {kind.value: kind for kind in MoveKind}


def format_trace(t: Trace) -> str:
    """
    Render a trace in the line format:

        n <n>
        init <v1> ... <vn>
        # step <category> gain=<thirds>     (annotation comments)
        move <i> <j> <k> <variant>
    """
    notes_by_move: dict[int, list[TraceNote]] = {}
    for note in t.annotations:
        notes_by_move.setdefault(note.move_index, []).append(note)
    lines = [f"n {t.initial.n}", f"init {format_permutation(t.initial)}"]
    for idx, m in enumerate(t.moves):
        for note in notes_by_move.get(idx, ()):
            if note.gain_thirds is None:
                lines.append(f"# step {note.category}")
            else:
                lines.append(f"# step {note.category} gain={note.gain_thirds}")
        lines.append(f"move {m.i} {m.j} {m.k} {m.kind.value}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Trace:
    """Parse the trace text format; `# step` comments become annotations."""
    n: int | None = None
    initial: Permutation | None = None
    moves: list[Move] = []
    notes: list[TraceNote] = []
    pending: list[tuple[str, int | None]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) >= 2 and fields[0] == "step":
                gain: int | None = None
                for extra in fields[2:]:
                    if extra.startswith("gain="):
                        try:
                            gain = int(extra[5:])
                        except ValueError:
                            raise ParseError("bad gain annotation", lineno) from None
                pending.append((fields[1], gain))
            continue
        fields = line.split()
        if fields[0] == "n":
            if len(fields) != 2 or not fields[1].isdigit():
                raise ParseError("bad n line", lineno)
            n = int(fields[1])
        elif fields[0] == "init":
            if n is None:
                raise ParseError("init line before n line", lineno)
            initial = parse_permutation(" ".join(fields[1:]))
            if initial.n != n:
                raise ParseError(f"init has {initial.n} values, expected {n}", lineno)
        elif fields[0] == "move":
            if initial is None:
                raise ParseError("move line before init line", lineno)
            if len(fields) != 5:
                raise ParseError("move line needs i j k variant", lineno)
            try:
                i, j, k = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("non-integer cut point", lineno) from None
            kind = _KIND_BY_TOKEN.get(fields[4])
            if kind is None:
                raise ParseError(f"unknown variant {fields[4]!r}", lineno)
            try:
                move = Move(i, j, k, kind)
            except InputError as exc:
                raise ParseError(str(exc), lineno) from None
            if k > n:  # type: ignore[operator]
                raise ParseError(f"cut point k={k} out of range for n={n}", lineno)
            for category, gain in pending:
                notes.append(TraceNote(len(moves), category, gain))
            pending.clear()
            moves.append(move)
        else:
            raise ParseError(f"unrecognized line {raw!r}", lineno)
    if initial is None:
        raise ParseError("trace has no init line", 1)
    return Trace(initial, tuple(moves), tuple(notes))
