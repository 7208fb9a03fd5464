"""Compare the scan output of two source trees of renyidpi.

    python3 tools/scan_diff.py OLD_TREE NEW_TREE --dims 2x2 4x4 --seeds 1 7

Each tree is a checkout with the package under src/. For every scenario
in the tree's own cli.SCENARIOS, dims and seed, both trees run `cli.run`
and `cli.emit` to CSV, each in its own subprocess with that tree's src/
first on the path. The CSVs are compared cell by cell and the summaries
key by key (runtime_s left out); a scenario only one tree has shows as a
missing scan. For each column or summary key that differs, the largest
absolute and relative change is printed.

Exit status: 0 when no verdict changed, 1 when a dpi_ok, saturated,
beta_re or beta_im cell, an error record or the row layout differs, 2 on
bad arguments. Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# Cells and summary keys whose change is a changed verdict, not roundoff.
VERDICT_COLUMNS = ("dpi_ok", "saturated", "beta_re", "beta_im")
VERDICT_KEYS = ("errors", "rows", "pass")


def _emit(tree: str, dims: list[str], seeds: list[int], trials: int | None) -> None:
    # Subprocess side: run every scan of one tree and print the CSV text
    # and summary of each, keyed by scenario/dims/seed, as one JSON object.
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from renyidpi import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scan.csv")
        for scenario in cli.SCENARIOS:
            for dim in dims:
                d_a, d_b = (int(part) for part in dim.split("x"))
                for seed in seeds:
                    cfg = cli.ExperimentConfig(scenario=scenario, seed=seed, dims=(d_a, d_b))
                    if trials is not None:
                        cfg.trials = trials
                    rows, summary = cli.run(cfg)
                    cli.emit(rows, "csv", path)
                    summary.pop("runtime_s", None)
                    out[f"{scenario} {dim} seed {seed}"] = {
                        "csv": Path(path).read_text(), "summary": summary}
    json.dump(out, sys.stdout)


def _scans(tree: str, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", tree,
           "--dims", *args.dims, "--seeds", *map(str, args.seeds)]
    if args.trials is not None:
        cmd += ["--trials", str(args.trials)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"scans of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _change(old: str, new: str) -> tuple[float, float] | None:
    # (absolute, relative) change of two numeric cells; None if either is
    # not a number.
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    diff = abs(b - a)
    return diff, diff / abs(a) if a else (0.0 if diff == 0.0 else float("inf"))


class Report:
    """Largest change per (scan, column) and whether any verdict moved."""

    def __init__(self):
        self.changes: dict[tuple[str, str], list] = {}
        self.verdict = False

    def note(self, scan: str, column: str, old, new, verdict: bool) -> None:
        entry = self.changes.setdefault((scan, column), [0, 0.0, 0.0])
        entry[0] += 1
        change = _change(old, new)
        if change is not None:
            entry[1] = max(entry[1], change[0])
            entry[2] = max(entry[2], change[1])
        self.verdict |= verdict

    def print(self) -> None:
        for (scan, column), (count, abs_max, rel_max) in sorted(self.changes.items()):
            print(f"{scan}: {column}: {count} differing, max abs {abs_max:.3e}, "
                  f"max rel {rel_max:.3e}")


def compare(old: dict, new: dict) -> Report:
    report = Report()
    for scan in sorted(old.keys() | new.keys()):
        if scan not in old or scan not in new:
            report.note(scan, "scan missing", None, None, True)
            continue
        a = list(csv.reader(io.StringIO(old[scan]["csv"])))
        b = list(csv.reader(io.StringIO(new[scan]["csv"])))
        if len(a) != len(b) or a[:1] != b[:1]:
            report.note(scan, "row layout", len(a), len(b), True)
            continue
        header = a[0]
        for row_a, row_b in zip(a[1:], b[1:]):
            for column, x, y in zip(header, row_a, row_b):
                if x != y:
                    report.note(scan, column, x, y, column in VERDICT_COLUMNS)
        sa, sb = old[scan]["summary"], new[scan]["summary"]
        for key in sorted(sa.keys() | sb.keys()):
            x, y = sa.get(key), sb.get(key)
            if x != y:
                report.note(scan, f"summary.{key}", x, y, key in VERDICT_KEYS)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="OLD_TREE NEW_TREE")
    parser.add_argument("--dims", nargs="+", default=["2x2"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per scan (default: the CLI's default)")
    parser.add_argument("--emit", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        _emit(args.emit, args.dims, args.seeds, args.trials)
        return 0
    if len(args.trees) != 2:
        parser.error("expected OLD_TREE NEW_TREE")
    old, new = (_scans(tree, args) for tree in args.trees)
    report = compare(old, new)
    report.print()
    print(f"{len(old)} scans compared: "
          + ("identical" if not report.changes else
             "verdicts differ" if report.verdict else "values differ, verdicts agree"))
    return 1 if report.verdict else 0


if __name__ == "__main__":
    sys.exit(main())
