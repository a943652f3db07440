#!/usr/bin/env python3
"""Solve time against game size, on every tree, for a parent and a change.

    python3 tools/scaling.py --out scaling.json [--parent HEAD~1]

Each series solves ``gen_random(n, 8, 3, 7)`` for n = 500, 1,000, 2,000 and
4,000 on the perfect, succinct and Strahler trees, with the CLI's default
spec for each (``cli.build_spec``) and the default pivot rule, in-process
through ``strategy_iteration_solve``, and records the wall seconds and
phases of every solve.  The change is this checkout's ``src/`` as it is on
disk; the parent revision is extracted with ``git archive`` into a temporary
directory, which is removed at the end.  Each of three repeats runs one
series per side, each in a fresh process, the parent first in even repeats
and the change first in odd ones.

The output records, per tree and size, each side's median and min seconds
over the repeats, its phase count, and the ratio of the change's median to
the parent's, beside both sides' revisions and every run's raw seconds.
The series is fixed, so that every record measures the same games.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parent.parent
TREES = ("perfect", "succinct", "strahler")
SIZES = (500, 1000, 2000, 4000)
DEGREE, MAX_OUT, SEED = 8, 3, 7
REPEATS = 3


def series() -> dict:
    """One series in this process: {tree: {n: [seconds, phases]}}, with the
    ``treelift`` found on ``sys.path``."""
    from treelift.cli import build_spec
    from treelift.game import gen_random
    from treelift.solver import strategy_iteration_solve

    out = {tree: {} for tree in TREES}
    for n in SIZES:
        game = gen_random(n, DEGREE, MAX_OUT, SEED)
        for tree in TREES:
            spec = build_spec(game, tree)
            t0 = time.perf_counter()
            result = strategy_iteration_solve(game, spec, record_phases=False)
            out[tree][str(n)] = [time.perf_counter() - t0, result.phases]
    return out


def run_series(src: Path) -> dict:
    """One series in a fresh process that imports ``treelift`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--series"], env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{src}: series exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout)


def summarise(runs: list) -> dict:
    """Per tree and size, each side's median and min seconds and its phases
    over ``runs``, a list of {"parent": series, "change": series}, and the
    ratio of the change's median to the parent's."""
    out = {}
    for tree in TREES:
        for n in runs[0]["parent"][tree]:
            row = {}
            for side in ("parent", "change"):
                seconds = [run[side][tree][n][0] for run in runs]
                row[side] = {"median_s": statistics.median(seconds), "min_s": min(seconds),
                             "phases": runs[0][side][tree][n][1]}
            row["median_ratio"] = row["change"]["median_s"] / row["parent"]["median_s"]
            out.setdefault(tree, {})[n] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--parent", default="HEAD~1",
                        help="parent revision (HEAD to measure uncommitted work)")
    parser.add_argument("--series", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.series:
        print(json.dumps(series()))
        return 0
    if not args.out:
        parser.error("--out is required")
    record = {
        **bench_pairs.revisions(args.parent),
        "game": f"gen_random(n, {DEGREE}, {MAX_OUT}, {SEED})",
        "sizes": list(SIZES), "repeats": REPEATS,
        "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
    }
    tmp = Path(tempfile.mkdtemp(prefix="scaling_"))
    try:
        bench_pairs.extract(record["parent"], tmp)
        sides = {"parent": tmp / "src", "change": ROOT / "src"}
        runs = []
        for i in range(REPEATS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs.append({side: run_series(sides[side]) for side in order})
            print(f"repeat {i + 1}/{REPEATS} done", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["series"] = summarise(runs)
    record["runs"] = runs
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
