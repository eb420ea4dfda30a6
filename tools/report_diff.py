"""Compare two directories of shrinker-audit reports.

    python tools/report_diff.py OLD NEW [--rtol 1e-9] [--atol 1e-12]
                                [--exclude minimal_evidence.shooting ...]

Both directories must hold the same files. JSON reports are compared value
by value: keys, list lengths, strings, booleans, integers and nulls must be
equal, so verdicts, flags, notices and counts cannot move. Finite floats pass
when they agree within ``--rtol`` relative or ``--atol`` absolute; an inf or
NaN must meet the same value (NaN matching NaN). CSV files are
compared cell by cell the same way, a cell that parses as a float being a
float. Any other file, such as an ``exit_code`` or ``stderr`` file the
caller saved beside a run's reports, must be byte-identical.

``--exclude`` skips every JSON value under a dotted key path, wherever it
occurs: ``minimal_evidence.shooting`` skips ``cells[3].minimal_evidence.
shooting`` and ``shooting.minimal_evidence.shooting`` alike.

Prints one line per file: ``identical`` (same bytes), ``within tolerance``
with the largest relative float difference and where it is, or the
mismatches. Exits 0 when every file passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


class Comparison:
    """Mismatches and the largest float difference found so far in one file."""

    def __init__(self, rtol: float, atol: float, exclude=()):
        self.rtol, self.atol = rtol, atol
        self.exclude = [tuple(e.split(".")) for e in exclude]
        self.mismatches = []
        self.worst = (0.0, None)  # (relative difference, where)

    def excluded(self, keys) -> bool:
        return any(keys[i : i + len(e)] == e for e in self.exclude for i in range(len(keys)))

    def floats(self, a: float, b: float, where: str) -> None:
        if math.isnan(a) and math.isnan(b):
            return
        if not (math.isfinite(a) and math.isfinite(b)):
            # inf is within any relative tolerance of anything, so it must be equal
            if a != b:
                self.mismatches.append(f"{where}: {a!r} != {b!r}")
            return
        diff = abs(a - b)
        rel = diff / max(abs(a), abs(b)) if diff else 0.0
        if rel > self.worst[0]:
            self.worst = (rel, where)
        if not diff <= max(self.atol, self.rtol * max(abs(a), abs(b))):
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    def values(self, a, b, where: str = "", keys=()) -> None:
        if self.excluded(keys):
            return
        if isinstance(a, float) and isinstance(b, float):
            self.floats(a, b, where)
        elif isinstance(a, dict) and isinstance(b, dict):
            names = {k for k in a.keys() | b.keys() if not self.excluded(keys + (k,))}
            for k in sorted(names):
                if k not in a or k not in b:
                    self.mismatches.append(f"{where}.{k}: only in {'new' if k in b else 'old'}")
                else:
                    self.values(a[k], b[k], f"{where}.{k}", keys + (k,))
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.mismatches.append(f"{where}: length {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.values(x, y, f"{where}[{i}]", keys)
        elif type(a) is not type(b) or a != b:
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    def csv_rows(self, old: str, new: str) -> None:
        rows_a = list(csv.reader(old.splitlines()))
        rows_b = list(csv.reader(new.splitlines()))
        if len(rows_a) != len(rows_b):
            self.mismatches.append(f"row count {len(rows_a)} != {len(rows_b)}")
        for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            if len(row_a) != len(row_b):
                self.mismatches.append(f"row {i}: {len(row_a)} cells != {len(row_b)}")
            for j, (a, b) in enumerate(zip(row_a, row_b)):
                self.values(_cell(a), _cell(b), f"row {i} col {j}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def compare_file(old: Path, new: Path, rtol: float, atol: float, exclude=()) -> Comparison:
    """Compare one report file with its counterpart."""
    result = Comparison(rtol, atol, exclude)
    if old.suffix == ".json":
        result.values(json.loads(old.read_text()), json.loads(new.read_text()))
    elif old.suffix == ".csv":
        result.csv_rows(old.read_text(), new.read_text())
    elif old.read_bytes() != new.read_bytes():
        result.mismatches.append("bytes differ")
    return result


def compare_dirs(old: Path, new: Path, rtol: float, atol: float, exclude=(),
                 out=sys.stdout) -> bool:
    """Compare every file of two report directories; True when all pass."""
    files_a = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files_b = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    ok = files_a == files_b
    for name in sorted(files_a ^ files_b):
        print(f"{name}: only in {'new' if name in files_b else 'old'}", file=out)
    for name in sorted(files_a & files_b):
        if (old / name).read_bytes() == (new / name).read_bytes():
            print(f"{name}: identical", file=out)
            continue
        result = compare_file(old / name, new / name, rtol, atol, exclude)
        rel, where = result.worst
        if result.mismatches:
            ok = False
            print(f"{name}: {len(result.mismatches)} mismatches", file=out)
            for line in result.mismatches:
                print(f"  {line}", file=out)
        else:
            print(f"{name}: within tolerance (max relative difference {rel:.3g} at {where})",
                  file=out)
    return ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-9)
    parser.add_argument("--atol", type=float, default=1e-12)
    parser.add_argument("--exclude", action="append", default=[],
                        help="dotted key path to skip in JSON reports (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return 0 if compare_dirs(args.old, args.new, args.rtol, args.atol, args.exclude) else 1


if __name__ == "__main__":
    sys.exit(main())
