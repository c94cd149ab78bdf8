"""
Spans around the public functions of the four library modules.

`Tracer.install()` replaces each function listed in `SPANS` by a timing
wrapper, under its name in every loaded `cutsort` module that holds it
(so `cutsort.sorter.apply_move_values` is wrapped as well as
`cutsort.perm.apply_move_values`), and `uninstall()` puts the originals
back.  Open spans sit on a stack.  When a span closes, its time is added
to its parent's child time, and it is folded into the parent's
per-name aggregate of calls, time and self time; a span with no parent
is kept whole as a record.  Hot leaves such as `rank_permutation` run
about a million times per round, so they are kept as aggregates inside
the span that called them rather than as a million records.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

PACKAGE = "cutsort"

# (module, function) -> span name.  Several functions may share a name.
SPANS = {
    ("perm", "apply_move_values"): "perm.apply_move_values",
    ("perm", "adjacency_count_values"): "perm.adjacency_count_values",
    ("perm", "format_trace"): "perm.trace_io",
    ("perm", "parse_trace"): "perm.trace_io",
    ("metrics", "segment_spans"): "metrics.segment_spans",
    ("metrics", "weight_thirds_values"): "metrics.weight_thirds_values",
    ("metrics", "certify_lower_bound"): "metrics.certify_lower_bound",
    ("sorter", "sort_refined"): "sorter.sort",
    ("sorter", "sort_basic"): "sorter.sort",
    ("sorter", "sort_insertion"): "sorter.sort",
    ("sorter", "sort_monotone"): "sorter.sort",
    ("sorter", "audit_result"): "sorter.audit_result",
    ("sorter", "longest_monotone"): "sorter.longest_monotone",
    ("oracle", "build_table"): "oracle.build_table",
    ("oracle", "rank_permutation"): "oracle.rank_permutation",
    ("oracle", "bfs_distance"): "oracle.bfs_distance",
}


def _fold(into: dict, name: str, calls: int, total: float, self_s: float) -> None:
    agg = into.get(name)
    if agg is None:
        into[name] = [calls, total, self_s]
    else:
        agg[0] += calls
        agg[1] += total
        agg[2] += self_s


class Tracer:
    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[list] = []  # open spans: [child seconds, {name: [calls, s, self_s]}]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        stack = self._stack
        records = self.records

        def traced(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    if parent[1] is None:
                        parent[1] = {}
                    _fold(parent[1], name, 1, duration, self_s)
                    for child, (c, t, s) in (frame[1] or {}).items():
                        _fold(parent[1], child, c, t, s)
                else:
                    records.append(
                        {"name": name, "start": start, "end": end, "self_s": self_s,
                         "children": frame[1] or {}}
                    )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for (module, attr), name in SPANS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def totals(self) -> dict[str, list]:
        """name -> [calls, seconds, self seconds], over every span recorded."""
        out: dict[str, list] = {}
        for rec in self.records:
            _fold(out, rec["name"], 1, rec["end"] - rec["start"], rec["self_s"])
            for child, (c, t, s) in rec["children"].items():
                _fold(out, child, c, t, s)
        return out

    def children_of(self, name: str) -> dict[str, list]:
        """Aggregate of every span nested inside top-level spans `name`."""
        out: dict[str, list] = {}
        for rec in self.records:
            if rec["name"] == name:
                for child, (c, t, s) in rec["children"].items():
                    _fold(out, child, c, t, s)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records, fh)
