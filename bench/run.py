#!/usr/bin/env python3
"""Seeded end-to-end benchmark of ``treelift solve``, with a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload strahler-lc --seed 1 --seconds 35 --trace 0

One run is one process with one closed-loop client and no threads.  Set-up
generates the workload's random games from ``--seed``, writes them as
PGSolver files and computes the expected winners with Zielonka's algorithm.
The client then calls ``treelift.cli.main(["solve", file, ...])`` in-process
(parse, strategy iteration, JSON render) on the games in their seeded order
until ``--seconds`` have passed and at least 100 solves are done, and checks
every answer against Zielonka.
Program caches are neither cleared nor pre-warmed: ``tighten_target``'s
cache carries over between games as it does for any library user.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead wraps the
public functions of each module from outside the package (``spans.py``),
spends 85% of the run on traced solves and 15% on the reference
progress-measure solves, and prints the per-layer metrics.  Its
``trace.games_per_s`` against the ``games_per_s`` of an untraced run with the
same workload and seed is the tracing overhead.  Spans are written to
``.bench_out/`` when the run ends.

Times are in reference units: a fixed pure-Python kernel (``calibrate.py``)
runs after every solve and every set-up game, and each wall time is scaled
by the kernel's median time around it, so that the host's drifting speed
cancels and a slower treelift still shows in full.  The untraced run also
prints its wall-clock solve p50 and kernel p50.

Every metric is printed by name and unit; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any answer was wrong and 2 when the treelift sources
are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MODULES = ("cli", "game", "solver", "one_player", "trees", "oracle", "labeling")

DEFAULT_SEED = 1
# Never used while the benchmark was tuned; re-check a claimed gain on it.
HELD_OUT_SEED = 424242
DEGREE = 3
MIN_SOLVES = 100            # so that at least ten solves lie beyond p90
SETUP_CHUNKS = 5            # set-up runs in equal chunks; setup_s uses their median
PROGRESS_BUDGET = 20000     # lifts per reference progress-measure solve
TRACE_SHARES = (0.85, 0.15)   # traced loop, progress refs
# Per-layer times are per stage, not per function: a function off a
# workload's engine path (compute_phi on strahler-lc, arc_costs_generic on
# first-pivot) would report exactly 0.0 ms on every run of that workload, a
# constant that cannot be told from a time that was never measured.  A stage
# is an engine's work between base-node search and its final sweep, whichever
# functions of it the workload's engine path calls.  Call counts are exact,
# so arc_costs_generic.calls and the like do read 0 off their path, which is
# how the result shows the layer split.  Per-function self times are printed
# in the ``span`` lines and kept in the span file.
PRE_SWEEP = ("one_player.arc_costs_generic", "one_player.arc_costs_succinct",
             "one_player.min_bottleneck_cycle_costs", "one_player.compute_phi")


@dataclass(frozen=True)
class Workload:
    n: int
    d: int
    tree: str
    extra_args: tuple
    pool_per_s: float   # games generated per second of run; the loop cycles if it runs out

    @property
    def solve_args(self) -> tuple:
        return ("--tree", self.tree, *self.extra_args)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# perfect-ls is not gated in BENCHMARK.json: first-pivot runs the same
# label-setting layers, and leaving it out lets every gated run measure for
# longer, which a noisy 2-CPU machine needs to be steady.  It stays runnable.
WORKLOADS = {
    "perfect-ls": Workload(400, 10, "perfect", (), 7.5),
    "strahler-lc": Workload(120, 6, "strahler", (), 15.0),
    "succinct-lc": Workload(300, 8, "succinct", (), 8.0),
    "first-pivot": Workload(150, 8, "perfect", ("--pivot", "first"), 6.5),
}


@dataclass(frozen=True)
class Game:
    path: str
    expected: tuple     # (even winners, odd winners) as frozensets of labels
    zielonka_ms: float


@dataclass
class Loop:
    latencies: list         # wall ms per solve
    kernel_ms: list         # calibration kernel run right after each solve
    failed: int
    elapsed_s: float
    phases: list
    rss_mb: float = 0.0     # peak RSS once ``min_solves`` solves are done

    def reference_ms(self) -> list:
        return calibrate.to_reference(self.latencies, self.kernel_ms)

    def reference_games_per_s(self, reference_ms: list) -> float:
        """Correct solves per reference second of solving."""
        return (len(reference_ms) - self.failed) / (sum(reference_ms) / 1000.0)


def load_treelift():
    """Import treelift from this checkout's ``src``; (modules, import seconds)."""
    if not (SRC / "treelift" / "__init__.py").is_file():
        print(f"error: no treelift sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    modules = {name: importlib.import_module(f"treelift.{name}") for name in MODULES}
    import_s = time.perf_counter() - t0
    if Path(modules["cli"].__file__).resolve().parent != SRC / "treelift":
        print(f"error: treelift imported from {modules['cli'].__file__}", file=sys.stderr)
        sys.exit(2)
    return modules, import_s


def pool_size(wl: Workload, seconds: float) -> int:
    return SETUP_CHUNKS * max(1, math.ceil(wl.pool_per_s * seconds / SETUP_CHUNKS))


def expected_winners(tl, game) -> tuple:
    part = tl["oracle"].zielonka_solve(game)
    labels = lambda nodes: frozenset(str(game.label_of(v)) for v in nodes)
    return labels(part.even_wins), labels(part.odd_wins)


def set_up(tl, wl: Workload, seed: int, seconds: float, workdir: Path):
    """Generate, write and oracle-solve the game pool; (games, median-based
    estimate of the whole set-up in reference seconds, kernel times).  The
    calibration kernel runs after each game, outside the timed chunks."""
    count = pool_size(wl, seconds)
    rng = random.Random(seed)
    game_seeds = [rng.getrandbits(32) for _ in range(count)]
    per_chunk = count // SETUP_CHUNKS
    games, chunk_s, kernel = [], [], []
    for chunk in range(SETUP_CHUNKS):
        wall_s, chunk_kernel = 0.0, []
        for i in range(chunk * per_chunk, (chunk + 1) * per_chunk):
            t0 = time.perf_counter()
            game = tl["game"].gen_random(wl.n, wl.d, DEGREE, game_seeds[i])
            path = workdir / f"g{i:04d}.pg"
            path.write_text(tl["game"].write_pgsolver(game), encoding="utf-8")
            tz = time.perf_counter()
            expected = expected_winners(tl, game)
            t1 = time.perf_counter()
            wall_s += t1 - t0
            games.append(Game(str(path), expected, (t1 - tz) * 1000.0))
            chunk_kernel.append(calibrate.kernel_ms())
        chunk_s.append(wall_s * calibrate.scale(chunk_kernel))
        kernel += chunk_kernel
    return games, SETUP_CHUNKS * statistics.median(chunk_s), kernel


def run_solve(tl, game: Game, args):
    """One in-process ``treelift solve``; (ms, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tl["cli"].main(["solve", game.path, *args])
        except SystemExit as exc:       # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:               # a traceback is a failed solve
            traceback.print_exc()
            rc = None
    return (time.perf_counter() - t0) * 1000.0, rc, out.getvalue(), err.getvalue()


def check(game: Game, rc, stdout: str):
    """The solve's JSON payload when it exited 0 with Zielonka's winners, else None."""
    if rc != 0:
        return None
    try:
        payload = json.loads(stdout)
        winners = payload["winners"]
        got = (frozenset(winners["even"]), frozenset(winners["odd"]))
    except (ValueError, KeyError, TypeError):
        return None
    return payload if got == game.expected else None


def report_failure(game: Game, rc, stderr: str) -> None:
    why = "winners differ from Zielonka" if rc == 0 else f"exit {rc}: {stderr.strip()[-400:]}"
    print(f"FAILED {os.path.basename(game.path)}: {why}", file=sys.stderr)


def closed_loop(tl, games, args, seconds: float, tracer=None, min_solves=1) -> Loop:
    """Solve games in their seeded order, one at a time, until ``seconds``
    pass and at least ``min_solves`` solves are done."""
    loop = Loop([], [], 0, 0.0, [])
    t0 = time.perf_counter()
    i = 0
    while True:
        game = games[i % len(games)]
        if tracer is not None:
            tracer.game = i
        ms, rc, out, err = run_solve(tl, game, args)
        loop.latencies.append(ms)
        loop.kernel_ms.append(calibrate.kernel_ms())
        payload = check(game, rc, out)
        if payload is None:
            loop.failed += 1
            report_failure(game, rc, err)
        else:
            loop.phases.append(payload.get("phases"))
        i += 1
        if i == min_solves:
            loop.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if i >= min_solves and time.perf_counter() - t0 >= seconds:
            break
    loop.elapsed_s = time.perf_counter() - t0
    return loop


def progress_refs(tl, games, wl: Workload, seconds: float):
    """Reference ``--algo progress`` solves under a lift budget; a solve that
    exhausts the budget counts with the time it used (a lower bound).
    (times, finished, failures)."""
    args = ("--tree", wl.tree, "--algo", "progress", "--budget", str(PROGRESS_BUDGET))
    times, finished, failed = [], 0, 0
    t0 = time.perf_counter()
    for game in games:
        ms, rc, out, err = run_solve(tl, game, args)
        times.append(ms)
        if check(game, rc, out) is not None:
            finished += 1
        elif not (rc == 2 and "budget" in err):
            failed += 1
            report_failure(game, rc, err)
        if time.perf_counter() - t0 >= seconds:
            break
    return times, finished, failed


def tighten_cache(trees):
    """(calls, misses) of ``tighten_target``'s cache so far, or None when it
    has no ``cache_info`` at this commit."""
    info = getattr(getattr(trees, "tighten_target", None), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits + stats.misses, stats.misses


def end_to_end_metrics(loop: Loop, setup_s: float) -> dict:
    """Times and rates in reference units (``calibrate.py``); RSS as measured."""
    lat = loop.reference_ms()
    return {
        "solve_ms.p50": (statistics.median(lat), "ms"),
        "solve_ms.p90": (statistics.quantiles(lat, n=10)[8], "ms"),
        "games_per_s": (loop.reference_games_per_s(lat), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (loop.rss_mb, "MB"),
    }


def traced_run(tl, games, wl: Workload, seconds: float, label: str):
    """The per-layer run; (metrics, attempted, failed)."""
    share_loop, share_refs = TRACE_SHARES
    tracer = Tracer(tl)
    tracer.install()
    cache0 = tighten_cache(tl["trees"])
    try:
        loop = closed_loop(tl, games, wl.solve_args, seconds * share_loop, tracer)
    finally:
        tracer.uninstall()
    cache1 = tighten_cache(tl["trees"])
    ref_times, ref_finished, ref_failed = progress_refs(tl, games, wl, seconds * share_refs)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{label}.jsonl")

    n_games = len(loop.latencies)
    # One factor to reference time for the whole traced run (calibrate.py).
    factor = calibrate.scale(loop.kernel_ms)
    self_ms = {name: ms * factor for name, ms in tracer.self_ms().items()}
    span_calls = tracer.span_calls()
    per_game = lambda x: None if x is None else x / n_games

    def ms(*names):
        present = [name for name in names if name not in tracer.missing]
        return per_game(sum(self_ms.get(name, 0.0) for name in present)) if present else None

    def calls(name):
        if name in tracer.missing:
            return None
        return per_game(span_calls.get(name, 0) + tracer.calls.get(name, 0))

    for name in sorted(span_calls):
        print(f"span {name}: {per_game(span_calls[name]):.6g} calls, "
              f"{per_game(self_ms.get(name, 0.0)):.6g} ms self per game")
    drops = tracer.counter_total("drops")
    tighten_calls = tighten_misses = None
    if cache0 is not None and cache1 is not None:
        tighten_calls = cache1[0] - cache0[0]
        tighten_misses = cache1[1] - cache0[1]

    metrics = {
        "cli.main.self_ms": (ms("cli.main"), "ms"),
        "game.parse_pgsolver.ms": (ms("game.parse_pgsolver"), "ms"),
        "solver.phases": (None if None in loop.phases else statistics.mean(loop.phases),
                          "count"),
        "solver.self_ms": (ms("solver.strategy_iteration_solve"), "ms"),
        "solver.admissible_arcs.ms": (ms("solver.admissible_arcs"), "ms"),
        "solver.pivot.ms": (ms("solver.pivot"), "ms"),
        "solver.checks.ms": (ms("solver.checks"), "ms"),
        "solver.extract_even_strategy.ms": (ms("solver.extract_even_strategy"), "ms"),
        "game.StrategySubgraph.ms": (ms("game.StrategySubgraph"), "ms"),
        "one_player.least_fixed_point.self_ms": (ms("one_player.least_fixed_point"), "ms"),
        "one_player.require_no_loose.ms": (ms("one_player.require_no_loose"), "ms"),
        "one_player.find_base_nodes.ms": (ms("one_player.find_base_nodes"), "ms"),
        "one_player.find_base_nodes.calls": (calls("one_player.find_base_nodes"), "count"),
        "one_player.pre_sweep.ms": (ms(*PRE_SWEEP), "ms"),
        "one_player.sweep.ms": (ms("one_player.bellman_ford", "one_player.dijkstra"), "ms"),
        "one_player.arc_costs_generic.calls": (calls("one_player.arc_costs_generic"), "count"),
        "one_player.arc_costs_succinct.calls": (calls("one_player.arc_costs_succinct"), "count"),
        "one_player.bf_runs": (per_game(tracer.counter_total("bf_runs")), "count"),
        "one_player.drops": (per_game(drops), "count"),
        "one_player.tighten_per_drop":
            (tighten_calls / drops if tighten_calls is not None and drops else None, "ratio"),
        "trees.tighten_target.calls": (per_game(tighten_calls), "count"),
        "trees.tighten_target.misses": (per_game(tighten_misses), "count"),
        "trees.raise_leaf.calls": (calls("trees.raise_leaf"), "count"),
        "ref.zielonka_ms.p50": (factor * statistics.median(g.zielonka_ms for g in games), "ms"),
        "ref.progress_ms.p50": (factor * statistics.median(ref_times), "ms"),
        "ref.progress.finished_frac": (ref_finished / len(ref_times), "frac"),
        "trace.solve_ms.mean": (factor * statistics.mean(loop.latencies), "ms"),
        "trace.games_per_s":
            (loop.reference_games_per_s([factor * ms for ms in loop.latencies]), "1/s"),
        "trace.spans_per_game": (len(tracer.spans) / n_games, "count"),
    }
    attempted = n_games + len(ref_times)
    failed = loop.failed + ref_failed
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for re-checking claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tl, import_s = load_treelift()
    label = f"{args.workload}-seed{args.seed}"
    workdir = WORK / f"{label}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        games, pool_s, setup_kernel = set_up(tl, wl, args.seed, args.seconds, workdir)
        setup_s = import_s * calibrate.scale(setup_kernel) + pool_s
        if args.trace:
            metrics, attempted, failed = traced_run(tl, games, wl, args.seconds, label)
        else:
            loop = closed_loop(tl, games, wl.solve_args, args.seconds, min_solves=MIN_SOLVES)
            metrics = end_to_end_metrics(loop, setup_s)
            attempted, failed = len(loop.latencies), loop.failed
            p90 = metrics["solve_ms.p90"][0]
            print(f"{args.workload} seed {args.seed}: {attempted} solves of {len(games)} "
                  f"games in {loop.elapsed_s:.1f} s, closed loop, 1 client; "
                  f"{sum(ms > p90 for ms in loop.reference_ms())} beyond p90")
            print(f"wall time: solve p50 {statistics.median(loop.latencies):.6g} ms, "
                  f"kernel p50 {statistics.median(loop.kernel_ms):.4g} ms "
                  f"(reference {calibrate.REF_KERNEL_MS} ms), "
                  f"set-up kernel p50 {statistics.median(setup_kernel):.4g} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    absent = sorted(name for name, (value, _) in metrics.items() if value is None)
    metrics = {name: vu for name, vu in metrics.items() if vu[0] is not None}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} frac ({failed} of {attempted})")
    if absent:
        print("absent at this commit: " + ", ".join(absent))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
