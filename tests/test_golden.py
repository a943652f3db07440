"""Byte-identity of ``treelift solve`` on a small seeded corpus.

Every case of ``golden_cli.json`` solves one seeded ``gen_random`` game
in-process with its flags; the sha256 of its exit code, stdout (with
``wall_ms`` masked) and stderr must equal the recorded digest.  The corpus
covers the perfect tree (auto and ``--engine lc``), succinct and strahler
trees, all three pivot rules, capacities n and max(2, n // 3), and
``--dump-aux`` and ``--format text`` on some solves.  Six bench-sized
first-pivot solves pin their drop, phase and lift counts.

A change that means to alter the output rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and says so.
"""

import hashlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from treelift import one_player
from treelift.cli import main
from treelift.game import gen_random, write_pgsolver

DATA = Path(__file__).with_name("golden_cli.json")
_WALL_MS = re.compile(r'"wall_ms": [^,\n]+')
_TREES = (["--tree", "perfect"], ["--tree", "perfect", "--engine", "lc"],
          ["--tree", "succinct"], ["--tree", "strahler"])


def _cases():
    """20 games, each solved under 12 of the 24 (tree, pivot, capacity)
    combinations, so that each combination is solved 10 times."""
    rng = random.Random(2026)
    combos = [(tree, pivot, third) for tree in _TREES
              for pivot in ("all", "first", "random") for third in (False, True)]
    cases = []
    for i in range(20):
        n, d = rng.randint(6, 30), rng.choice((2, 4, 6, 8))
        game = [n, d, rng.randint(0, 10 ** 6)]
        for j, (tree, pivot, third) in enumerate(combos):
            if (i + j) % 2:
                continue
            flags = tree + ["--pivot", pivot, "--seed", str(i)]
            if third:
                flags += ["--capacity", str(max(2, n // 3))]
            if j // 4 % 2 == i % 2 and tree != _TREES[0]:
                flags.append("--dump-aux")
            if j % 5 == 0:
                flags += ["--format", "text"]
            cases.append({"game": game, "flags": flags})
    return cases


def _digest(path, flags):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", str(path)] + flags)
    blob = json.dumps([code, _WALL_MS.sub('"wall_ms": 0', out.getvalue()),
                       err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def _run(cases, tmp_path):
    """The digest of every case, writing each game once."""
    files = {}
    for case in cases:
        key = tuple(case["game"])
        if key not in files:
            files[key] = tmp_path / f"g{len(files)}.pg"
            files[key].write_text(write_pgsolver(gen_random(key[0], key[1], 3, key[2])))
        yield _digest(files[key], case["flags"])


def test_golden_cli_corpus(tmp_path):
    cases = json.loads(DATA.read_text())
    assert len(cases) == 240
    assert [{"game": c["game"], "flags": c["flags"]} for c in cases] == _cases()
    got = list(_run(cases, tmp_path))
    bad = [(c["game"], c["flags"]) for c, h in zip(cases, got) if h != c["sha256"]]
    assert not bad, f"{len(bad)} solves changed output, first {bad[0]}"


# (seed, drops, phases, lifts) of ``solve --tree perfect --pivot first`` on
# gen_random(150, 8, 3, seed), the benchmark's first-pivot games.  The corpus
# above (n <= 30) does not see a change in the order of the label-setting
# engine's potentials; these counts do, since that order decides which node
# Dijkstra admits first and so how often labels drop.
BENCH_SCALE = [(701, 1561, 30, 144), (702, 2252, 17, 132), (703, 2474, 28, 207),
               (704, 2319, 53, 507), (705, 1955, 23, 127), (706, 1857, 31, 357)]


def test_drop_counts_at_bench_scale(tmp_path):
    got = []
    for seed, *_ in BENCH_SCALE:
        path = tmp_path / f"g{seed}.pg"
        path.write_text(write_pgsolver(gen_random(150, 8, 3, seed)))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["solve", str(path), "--tree", "perfect", "--pivot", "first"]) == 0
        res = json.loads(out.getvalue())
        got.append((seed, res["drops"], res["phases"], res["lifts"]))
    assert got == BENCH_SCALE


# (tree, n, d, seed, drops, phases, lifts, Counters.bf_runs) of ``solve
# --tree strahler`` on gen_random(120, 6, 3, seed), the strahler-lc games, and
# of ``solve --tree succinct`` on gen_random(300, 8, 3, seed), the succinct-lc
# games.  The corpus above is too small to see a threshold probe skipped or
# reordered at this size; bf_runs counts every probe, and drops every label
# a probe or a final sweep lowers.
LC_BENCH_SCALE = [
    ("strahler", 120, 6, 701, 1184, 4, 176, 77), ("strahler", 120, 6, 702, 1671, 3, 138, 96),
    ("strahler", 120, 6, 703, 2331, 4, 141, 104), ("strahler", 120, 6, 704, 1367, 4, 236, 84),
    ("strahler", 120, 6, 705, 871, 4, 200, 38), ("strahler", 120, 6, 706, 200, 3, 177, 24),
    ("succinct", 300, 8, 701, 5036, 7, 462, 77), ("succinct", 300, 8, 702, 7103, 5, 379, 108),
    ("succinct", 300, 8, 703, 2611, 5, 636, 54)]
# sha256 of the ``--dump-aux`` stderr of ``solve --tree strahler`` on two of
# those games: every arc cost of every phase.
LC_DUMP_AUX = {
    701: "9358462d544990419cd2f998092e310250544cf9c60485ed71f2253265c083c0",
    702: "2b2f930131fc997dccbf133929266774c0998ac7a5a196af86d2a351cd4e0d0b"}


def test_lc_counts_at_bench_scale(tmp_path, monkeypatch):
    made = []

    class Recording(one_player.Counters):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(one_player, "Counters", Recording)
    got, aux = [], {}
    for tree, n, d, seed, *_ in LC_BENCH_SCALE:
        path = tmp_path / f"{tree}{seed}.pg"
        path.write_text(write_pgsolver(gen_random(n, d, 3, seed)))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["solve", str(path), "--tree", tree]) == 0
        res = json.loads(out.getvalue())
        got.append((tree, n, d, seed, res["drops"], res["phases"], res["lifts"],
                    made[-1].bf_runs))
        if tree == "strahler" and seed in LC_DUMP_AUX:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                assert main(["solve", str(path), "--tree", tree, "--dump-aux"]) == 0
            aux[seed] = hashlib.sha256(err.getvalue().encode()).hexdigest()
    assert got == LC_BENCH_SCALE
    assert aux == LC_DUMP_AUX


if __name__ == "__main__":
    import tempfile

    cases = _cases()
    with tempfile.TemporaryDirectory() as tmp:
        for case, digest in zip(cases, _run(cases, Path(tmp))):
            case["sha256"] = digest
    DATA.write_text("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n")
    print(f"wrote {len(cases)} cases to {DATA}", file=sys.stderr)
