"""
Golden table manifest: the exact distance tables must stay byte-identical.

Each manifest entry is the SHA-256 of `build_table(n).distances`, the
flat byte array indexed by Lehmer rank.  This test checks n <= 7; the
acceptance suite checks n = 8 against the same manifest, because that
table takes seconds to build.  A change to the oracle keeps every hash.

Regenerate the manifest (only when a table change is intended):

    PYTHONPATH=src python tests/test_golden_tables.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

MANIFEST = Path(__file__).with_name("golden_tables.json")


@pytest.mark.parametrize("n", range(1, 8))
def test_table_matches_golden_manifest(tables, n):
    expected = json.loads(MANIFEST.read_text())[f"n{n}"]
    assert hashlib.sha256(tables(n).distances).hexdigest() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_tables.py --write")
    from cutsort.oracle import build_table

    manifest = {
        f"n{n}": hashlib.sha256(build_table(n).distances).hexdigest() for n in range(1, 9)
    }
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
