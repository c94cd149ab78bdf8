"""
Golden-trace manifest: the sorters' traces must stay byte-identical.

Each manifest entry is the SHA-256 of `format_trace` output: one entry per
(algorithm, n) covering every permutation of n <= 6 in lexicographic
order, and one per (algorithm, seed) for `random_permutation(200, seed)`,
seeds 0-49.  The algorithms are the two weight sorters and the insertion
and monotone baselines.  The weight sorters also have one entry per seed
for `random_permutation(1000, seed)`, seeds 0-4, whose long blocks n=200
rarely reaches.  A refactor of the sorters keeps every hash.

Regenerate the manifest (only when a trace change is intended):

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

from cutsort import (
    Permutation,
    format_trace,
    random_permutation,
    sort_basic,
    sort_insertion,
    sort_monotone,
    sort_refined,
)

MANIFEST = Path(__file__).with_name("golden_traces.json")
ALGORITHMS = {
    "refined": sort_refined,
    "basic": sort_basic,
    "insertion": sort_insertion,
    "monotone": sort_monotone,
}
SMALL_N = range(1, 7)
LARGE_N = 200
SEEDS = range(50)
WEIGHT_SORTERS = ("refined", "basic")
HUGE_N = 1000
HUGE_SEEDS = range(5)


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("ascii"))
    return h.hexdigest()


def compute_manifest() -> dict[str, str]:
    out = {}
    for name, sort in ALGORITHMS.items():
        for n in SMALL_N:
            out[f"{name}/n{n}"] = _digest(
                format_trace(sort(Permutation(values)).trace)
                for values in itertools.permutations(range(1, n + 1))
            )
        for seed in SEEDS:
            p = random_permutation(LARGE_N, seed)
            out[f"{name}/n{LARGE_N}-seed{seed}"] = _digest([format_trace(sort(p).trace)])
    for name in WEIGHT_SORTERS:
        for seed in HUGE_SEEDS:
            p = random_permutation(HUGE_N, seed)
            out[f"{name}/n{HUGE_N}-seed{seed}"] = _digest(
                [format_trace(ALGORITHMS[name](p).trace)]
            )
    return out


def test_traces_match_golden_manifest():
    expected = json.loads(MANIFEST.read_text())
    actual = compute_manifest()
    assert actual.keys() == expected.keys()
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"traces changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_traces.py --write")
    MANIFEST.write_text(json.dumps(compute_manifest(), indent=1, sort_keys=True) + "\n")
