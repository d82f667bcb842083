"""Every output byte of every study on a small config, pinned.

Each case runs one subcommand at ``t_sig = 2e-4`` (2 seeds where the
study takes seeds), drawing SVGs wherever the study draws, and compares
the sha256 of every file it writes, CSV, SVG and ``manifest.json``, with
the entry of ``golden_outputs.json`` for the installed numpy's
major.minor version.  A numpy with no entry is not skipped: each CSV's
numbers are compared with the lines stored with the digests, to 1e-9
(dB for L; also 1e-12 relative, for the large values of the dispersion
tables), and the digests are printed, ready to be added as its entry.
The CSVs print 10 significant digits, so on L that tolerance asks for
the same digits.

A change that moves outputs on purpose regenerates the file with
``PYTHONPATH=src python tests/regenerate_golden_outputs.py`` and names
every file that moved.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from talbotsim.cli import main
from talbotsim.model import SPEED_OF_LIGHT

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SMALL = ["--t-sig", "2e-4"]
SEEDS = ["--seeds", "2"]
SVG = ["--format", "csv+svg"]

#: Case name: (subcommand argv, workers).  "{table}" is the path of the
#: table that :func:`write_table` writes.
CASES = {
    "simulate-ideal": (["simulate", "--kind", "ideal", *SVG], 1),
    "simulate-linear": (["simulate", "--kind", "linear", *SVG], 1),
    "simulate-constant": (["simulate", "--kind", "constant", "--width", "2e10", *SVG], 1),
    "simulate-tabulated": (["simulate", "--kind", "tabulated", "--table", "{table}", *SVG], 1),
    "simulate-none": (["simulate", "--kind", "none", *SVG], 1),
    "simulate-pure-tone": (["simulate", "--pure-tone", *SVG], 1),
    "simulate-jitter": (["simulate", "--kind", "ideal", "--jitter-band", "2e4:1e6", *SVG], 1),
    "sweep-comb-width-1": (["sweep-comb-width", *SEEDS, *SVG], 1),
    "sweep-comb-width-2": (["sweep-comb-width", *SEEDS, *SVG], 2),
    "sweep-oversampling-1": (["sweep-oversampling", *SEEDS, *SVG], 1),
    "sweep-oversampling-2": (["sweep-oversampling", *SEEDS, *SVG], 2),
    "offsets-diff": (["offsets-diff", "--widths", "1e8,1e9", *SVG], 1),
    "dispersion-eval": (["dispersion-eval"], 1),
}


def numpy_key() -> str:
    """The installed numpy's major.minor version, the key of its digests."""
    return ".".join(np.__version__.split(".")[:2])


def write_table(path: Path) -> Path:
    """The ideal 10 MHz characteristic on 1549.5-1550.5 nm, in the two-column
    table format, formatted from Python floats so its bytes are fixed."""
    rows = ["# lambda_nm  D_ps_per_nm"]
    for i in range(401):
        lam_nm = 1549.5 + i / 400
        rows.append(f"{lam_nm:.6f}  {SPEED_OF_LIGHT / ((lam_nm * 1e-9) ** 2 * 1e7**2) * 1e3:.9g}")
    path.write_text("\n".join(rows) + "\n")
    return path


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run case ``name`` into a fresh directory under ``tmp``; its files' bytes by name."""
    argv, workers = CASES[name]
    table = write_table(tmp / "element.txt")
    config = tmp / f"workers-{workers}.cfg"
    config.write_text(f"run.workers = {workers}\n")
    out = tmp / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([a.format(table=table) for a in argv] + SMALL + ["--config", str(config), "--out", str(out)])
    assert code == 0, name
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def digests(files: dict[str, bytes], numpy_version: str = np.__version__) -> dict[str, str]:
    """The sha256 of each file, the manifest's as if written under ``numpy_version``.

    The manifest records numpy's full version, so an entry made on
    another patch release of the same major.minor differs there alone.
    """
    here, there = f'"numpy": "{np.__version__}"'.encode(), f'"numpy": "{numpy_version}"'.encode()
    return {
        name: hashlib.sha256(data.replace(here, there) if name == "manifest.json" else data).hexdigest()
        for name, data in files.items()
    }


def csv_lines(files: dict[str, bytes]) -> dict[str, list[str]]:
    """Each CSV's lines by file name."""
    return {name: data.decode().splitlines() for name, data in files.items() if name.endswith(".csv")}


def assert_close_lines(got: dict[str, list[str]], want: dict[str, list[str]]):
    """Each CSV of ``got`` has ``want``'s lines, text cells equal and numbers close."""

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    assert got.keys() == want.keys()
    for name, lines in want.items():
        assert len(got[name]) == len(lines), name
        for i, (line, expected) in enumerate(zip(got[name], lines)):
            row, expected = [cell(c) for c in line.split(",")], [cell(c) for c in expected.split(",")]
            assert len(row) == len(expected), (name, i)
            for a, b in zip(row, expected):
                if isinstance(b, str):
                    assert a == b, (name, i)
                else:
                    assert isinstance(a, float) and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9), (name, i, a, b)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden(tmp_path, golden, name):
    files = run_case(name, tmp_path)
    entry = golden["digests"].get(numpy_key())
    if entry is not None:
        assert digests(files, entry["numpy"]) == entry["cases"][name]
        return
    print(f"\n{GOLDEN.name}, numpy {np.__version__}, {name}: {json.dumps(digests(files), sort_keys=True)}")
    any_entry = next(iter(golden["digests"].values()))
    assert sorted(files) == sorted(any_entry["cases"][name])
    assert_close_lines(csv_lines(files), golden["csv_lines"][name])
