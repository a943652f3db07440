#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --out pairs.json [--parent HEAD~1]
        [--pairs 10] [--seconds 35] [--seed 1] [--workload NAME ...]

The change is this checkout as it is on disk, committed or not.  The
parent revision is extracted with ``git archive`` into a temporary
directory (under ``$TMPDIR``), which is removed at the end.  Both sides are
recorded by commit id and by the git tree id of their ``src/``, which
identifies the measured code even before it is committed (new files must be
staged to count).  Each pair runs
the side's own, unchanged ``bench/run.py --workload W --seed S --seconds T``
once per side, the parent first in even pairs and the change first in odd
ones, one process at a time.

For each workload and each end-to-end metric that ``BENCHMARK.json`` gates,
the output records each side's q1, median and q3 over the pairs, the pairs
the change won (ties count for neither side), the ratio of the change's
median to the parent's, and the parent's interquartile range.  It also
records the seed, the seconds, the CPU count, both sides' ids, every run's
metrics and every run that reported a wrong answer.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def src_tree_on_disk() -> str:
    """The git tree id of this checkout's ``src/`` with its uncommitted
    changes to tracked and staged files; ``git stash create`` writes that
    state as a commit object and touches neither the refs nor the files."""
    return git("rev-parse", f"{git('stash', 'create') or 'HEAD'}:src")


def extract(rev: str, dest: Path) -> None:
    """The tree of ``rev`` written to ``dest`` with ``git archive``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py`` run: its JSON summary."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=root, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise RuntimeError(f"{root}: bench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """The JSON summary that ends ``bench/run.py``'s stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(q1, median, q3) by the inclusive method, which keeps every quartile
    inside the data for few pairs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(runs: list, gated: list) -> dict:
    """Per gated metric, the two sides' quartiles over ``runs``, a list of
    {"parent": summary, "change": summary} pairs, and the pairs the change
    won.  ``gated`` lists BENCHMARK.json's end-to-end entries."""
    out = {}
    for entry in gated:
        name, lower = entry["name"], entry["better"] == "lower"
        pairs = [(pair["parent"]["metrics"][name]["value"],
                  pair["change"]["metrics"][name]["value"]) for pair in runs
                 if name in pair["parent"]["metrics"] and name in pair["change"]["metrics"]]
        if not pairs:
            continue
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        won = sum((c < p) if lower else (c > p) for p, c in pairs)
        lost = sum((c > p) if lower else (c < p) for p, c in pairs)
        out[name] = {
            "unit": entry["unit"], "better": entry["better"], "pairs": len(pairs),
            "parent": dict(zip(("q1", "median", "q3"), parent)),
            "change": dict(zip(("q1", "median", "q3"), change)),
            "pairs_won": won, "pairs_lost": lost,
            "median_ratio": change[1] / parent[1] if parent[1] else None,
            "parent_iqr": parent[2] - parent[0],
            # the gain rule: better medians, apart by more than the parent's IQR
            "median_gain_beyond_iqr": ((parent[1] - change[1]) if lower
                                       else (change[1] - parent[1])) > parent[2] - parent[0],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", default="HEAD~1",
                        help="parent revision (HEAD to measure uncommitted work)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload to run (repeatable; default: every gated one)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    record = {
        "parent": git("rev-parse", args.parent),
        "parent_src_tree": git("rev-parse", f"{args.parent}:src"),
        "change": git("rev-parse", "HEAD"),
        "change_uncommitted": bool(git("status", "--porcelain", "--untracked-files=no")),
        "change_src_tree": src_tree_on_disk(),
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
        "workloads": {},
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        extract(record["parent"], tmp)
        sides = {"parent": tmp, "change": ROOT}
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {side: run_once(sides[side], workload, args.seed, args.seconds)
                        for side in order}
                runs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{side} p50 {pair[side]['metrics']['solve_ms.p50']['value']:.4g}"
                    for side in order), file=sys.stderr)
            record["workloads"][workload] = {
                "metrics": summarise(runs, bench["end_to_end"]),
                "wrong_runs": [[i, side] for i, pair in enumerate(runs)
                               for side in pair if not pair[side]["correct"]],
                "runs": runs,
            }
            Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
