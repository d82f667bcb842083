"""Rewrite ``tests/golden_outputs.json`` from the outputs of this tree.

Runs every case of ``test_golden_outputs.py`` and records, for the
installed numpy's major.minor version, the sha256 of each file written,
and each CSV's lines.  Entries for other numpy versions are kept
unless this version's digests moved: those entries then pin the old
outputs, and are dropped.

Usage: ``PYTHONPATH=src python tests/regenerate_golden_outputs.py``
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from test_golden_outputs import CASES, GOLDEN, csv_lines, digests, numpy_key, run_case


def main():
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}, "csv_lines": {}}
    cases, lines = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            files = run_case(name, Path(tmp))
            cases[name], lines[name] = digests(files), csv_lines(files)
    key, entries = numpy_key(), golden["digests"]
    if entries.get(key, {"cases": cases})["cases"] != cases:
        entries.clear()
    entries[key] = {"numpy": np.__version__, "cases": cases}
    golden["csv_lines"] = lines
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(cases)} cases, numpy {np.__version__}")


if __name__ == "__main__":
    main()
