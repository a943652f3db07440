#!/usr/bin/env python3
"""Differential of ``treelift solve`` between a parent revision and this checkout.

    python3 tools/wire_diff.py [--parent HEAD] [--cases 1000] [--seed 1]

The change is this checkout as it is on disk, committed or not.  The parent
revision is extracted with ``tools/bench_pairs.py``'s ``extract`` (``git
archive``) into a temporary directory (under ``$TMPDIR``), which is removed
at the end.  ``--cases`` seeded ``solve -`` inputs are written once: small
random games with id gaps, shuffled statements, free spacing and names
that hold escapes and non-ASCII text, under both algorithms, ``--format
text``, ``--dump-aux``, ``--race-naive``, the pivot rules and all three
trees, and one in five of them truncated, mutated or undecodable.  No
field is longer than a few digits, so no input exceeds ``int()``'s digit
limit.  Each side runs its own ``cli.main`` in-process on every input, in
one subprocess per side, and the two are compared by exit code, stdout
with ``wall_ms`` masked, and stderr.  Exits 0 when every input gives the
same result on both sides and 1 at the first difference, which it prints.
"""

from __future__ import annotations

import argparse
import base64
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_WALL_MS = re.compile(r'"wall_ms": [^,\n]+')

# one subprocess per side: argv is the side's src/, the cases file and the
# results file; an exception that escapes main is recorded, not raised
_RUNNER = r"""
import base64, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
src, cases, dest = sys.argv[1:]
sys.path.insert(0, src)
import treelift.cli
results = []
for data, flags in json.load(open(cases)):
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(base64.b64decode(data)))
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = treelift.cli.main(["solve", "-", *flags])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump({"module": treelift.cli.__file__, "results": results}, open(dest, "w"))
"""

_TREES = ([], ["--tree", "succinct"], ["--tree", "strahler"],
          ["--tree", "perfect", "--capacity", "3"], ["--tree", "succinct", "--capacity", "4"],
          ["--tree", "strahler", "--capacity", "6"], ["--tree", "strahler", "--strahler-g", "1"])
_MODES = ([], ["--format", "text"], ["--algo", "progress"],
          ["--algo", "progress", "--format", "text"], ["--algo", "progress", "--budget", "4"],
          ["--dump-aux"], ["--race-naive"], ["--dump-aux", "--race-naive"],
          ["--pivot", "first"], ["--pivot", "random", "--seed", "3"],
          ["--pivot", "first", "--dump-aux", "--format", "text"],
          ["--engine", "lc"], ["--engine", "dijkstra"])
_NAME_PARTS = ("a\\b", "\\", "t\tab", "\x01", "\x1f", "\x7f", "été", "漢字", "\U0001f642",
               " ", " ", "\\u0041", "'", "x")
_EDITS = (";", " ", "-", ",", '"', "\n", "\x1c", "٣", "１", "0", "9")


def _game(rng) -> str:
    """A random PGSolver text: id gaps, shuffled statements, free spacing
    and, in most games, names."""
    n = rng.randint(1, 14)
    ids = rng.sample(range(3 * n + 1), n)
    named = rng.random() < 0.6
    lines = []
    for k, v in enumerate(ids):
        succs = ",".join(str(w) for w in rng.sample(ids, rng.randint(1, min(3, n))))
        name = ""
        if named and rng.random() < 0.9:
            name = f' "{"".join(rng.sample(_NAME_PARTS, rng.randint(1, 3)))}{k}"'
        lines.append(f"{v}{rng.choice((' ', '  ', chr(9)))}{rng.randint(0, 7)} "
                     f"{rng.randint(0, 1)} {succs}{name};")
    if rng.random() < 0.5:
        lines.sort(key=lambda line: int(line.split()[0]))
    if rng.random() < 0.7:
        lines.insert(0, f"parity {max(ids)};")
    return rng.choice(("\n", " ", "\r\n")).join(lines) + "\n"


def _mutant(rng, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        if op == 0:
            text = text[: rng.randrange(len(text) + 1)]
        elif op in (1, 2):
            pos = rng.randrange(len(text) + 1)
            text = text[:pos] + rng.choice(_EDITS) + text[pos:]
        else:
            spots = [i for i, ch in enumerate(text) if ch in _EDITS]
            if spots:
                pos = rng.choice(spots)
                text = text[:pos] + text[pos + 1:]
    return text


def make_cases(count: int, seed: int) -> list:
    """[(stdin bytes, solve flags)], ``count`` of them, from ``seed``."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        text = _game(rng)
        if rng.random() < 0.2:
            text = _mutant(rng, text)
        data = text.encode()
        if rng.random() < 0.01:  # an undecodable byte
            pos = rng.randrange(len(data) + 1)
            data = data[:pos] + b"\xfe" + data[pos:]
        cases.append((data, rng.choice(_TREES) + rng.choice(_MODES)))
    return cases


def mask(stdout: str) -> str:
    """``stdout`` with every ``wall_ms`` value replaced by 0."""
    return _WALL_MS.sub('"wall_ms": 0', stdout)


def first_difference(parent: list, change: list):
    """The index of the first case whose (exit code, masked stdout, stderr)
    differs between the two sides' result lists, or None."""
    for i, (a, b) in enumerate(zip(parent, change)):
        if (a[0], mask(a[1]), a[2]) != (b[0], mask(b[1]), b[2]):
            return i
    return None


def run_side(root: Path, cases_file: Path, dest: Path) -> list:
    """The results of one side's ``cli.main`` on every case, from its own
    ``src/``."""
    proc = subprocess.run([sys.executable, "-c", _RUNNER, str(root / "src"), str(cases_file),
                           str(dest)], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: runner exited {proc.returncode}: {proc.stderr[-400:]}")
    record = json.loads(dest.read_text())
    if not Path(record["module"]).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"{root}: imported {record['module']}, not its own src/")
    return record["results"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision")
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    from bench_pairs import extract  # tools/ is this script's sys.path[0]

    cases = make_cases(args.cases, args.seed)
    tmp = Path(tempfile.mkdtemp(prefix="wire_diff_"))
    try:
        extract(args.parent, tmp / "parent")
        cases_file = tmp / "cases.json"
        cases_file.write_text(json.dumps(
            [[base64.b64encode(data).decode(), flags] for data, flags in cases]))
        parent = run_side(tmp / "parent", cases_file, tmp / "parent.json")
        change = run_side(ROOT, cases_file, tmp / "change.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    i = first_difference(parent, change)
    if i is not None:
        print(f"case {i}: solve - {' '.join(cases[i][1])}\nstdin: {cases[i][0]!r}")
        for side, results in (("parent", parent), ("change", change)):
            print(f"{side}: {results[i]!r}")
        return 1
    codes = Counter(str(code) for code, _, _ in change)
    print(f"{len(cases)} cases identical against {args.parent}; exit codes "
          + ", ".join(f"{code}: {k}" for code, k in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
