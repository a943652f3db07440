"""Command line interface: solve, verify, gen, bench, export-mpg.

Exit codes: 0 success, 1 verification mismatch (``verify`` only), 2 usage or
format errors (``error:``) and internal errors (``internal error:``).  A
broken solver invariant, such as a ``--race-naive`` disagreement between the
engine and the naive lifting oracle, is a fault of the solver rather than a
mismatch of the input, so it exits 2.
All randomised behaviour takes explicit seeds, and repeated invocations with
the same arguments produce byte-identical stdout apart from wall-time fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import game as gamemod
from . import one_player, oracle, solver, trees
from .errors import FormatError, LiftBudgetExceeded, TreeliftError, UsageError
from .game import ParityGame
from .labeling import progress_measure_solve
from .trees import TreeSpec


def _read_input(path: str) -> str:
    """The text of the file ``path``, or of stdin for ``-``, decoded the same
    way whatever the locale: strict UTF-8 with universal newlines."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _paint(txt: str, code: str) -> str:
    return f"\x1b[{code}m{txt}\x1b[0m" if _use_color() else txt


def build_spec(game: ParityGame, kind: str, capacity=None, strahler_g=None) -> TreeSpec:
    height = max(game.d // 2, 1)
    cap = capacity if capacity is not None else game.n
    if kind == trees.PERFECT:
        return TreeSpec.perfect(cap, height)
    if kind == trees.SUCCINCT:
        return TreeSpec.succinct(cap, height)
    if kind == trees.STRAHLER:
        if strahler_g is None:
            strahler_g = max(1, min(height, cap.bit_length() - 1))
        return TreeSpec.strahler(strahler_g, cap, height)
    raise UsageError(f"unknown tree kind {kind!r}")


def _pivot_rule(name: str, seed: int):
    if name == "all":
        return solver.SwitchAll()
    if name == "first":
        return solver.SwitchFirst()
    if name == "random":
        return solver.SwitchRandom(seed)
    raise UsageError(f"unknown pivot rule {name!r}")


class _AuxDump(one_player.Counters):
    """``--dump-aux``: writes each label-correcting phase's auxiliary arcs to
    stderr as soon as the engine has their costs, one line per arc with its
    cost per chain.  One dump watches one solve and keeps every arc's costs
    across its phases: a phase on a region reports only the components
    inside it, and every component lies wholly inside or outside, so an
    arc's tail tells whether the phase re-solved its component."""

    def __init__(self, game):
        super().__init__()
        self.label_of, self.phases = game.label_of, 0
        self.costs = {}

    def aux_costs(self, sub, tables):
        self.phases += 1
        print(f"# aux digraph, phase {self.phases}", file=sys.stderr)
        costs = self.costs = {arc: cs for arc, cs in self.costs.items()
                              if arc[0] not in sub.inner}
        for table in tables:
            for arc, cost in table.items():
                costs.setdefault(arc, []).append(cost)
        for (v, w) in sorted(costs):
            cs = ", ".join("inf" if c == float("inf") else str(c) for c in costs[(v, w)])
            print(f"{self.label_of(v)} -> {self.label_of(w)} : [{cs}]", file=sys.stderr)


class _RacedAuxDump(_AuxDump, oracle.NaiveRace):
    """``--dump-aux`` together with ``--race-naive``."""


def _solve_one(game, args):
    """The ``solve`` JSON payload of ``game`` under ``args``, for either
    algorithm.  Names are built once and each distinct label is rendered
    once.  ``--algo progress`` has no strategies, one phase and no drops."""
    spec = build_spec(game, args.tree, args.capacity, args.strahler_g)
    names = list(map(str, map(game.label_of, range(game.n))))
    if args.algo == "progress":
        t0 = time.perf_counter()
        res = progress_measure_solve(game, spec, budget=args.budget)
        payload = {"phases": 1, "drops": 0,
                   "wall_ms": (time.perf_counter() - t0) * 1000.0,
                   "warnings": [] if spec.capacity >= game.n else
                               [f"tree capacity {spec.capacity} < n = {game.n}"]}
    else:
        rule = _pivot_rule(args.pivot, args.seed)
        # neither flag: None, so that the solver builds its own one_player.Counters,
        # the class bench/spans.py hooks to read drops and bf_runs
        if args.dump_aux:
            counters = _RacedAuxDump(game) if args.race_naive else _AuxDump(game)
        else:
            counters = oracle.NaiveRace() if args.race_naive else None
        res = solver.strategy_iteration_solve(
            game, spec, rule=rule, engine=args.engine,
            record_phases=False, counters=counters)
        payload = {
            "strategy_odd": {names[v]: names[w] for v, w in sorted(res.strategy_odd.items())},
            "strategy_even": {names[v]: names[w] for v, w in sorted(res.even_strategy.items())},
            "phases": res.phases, "drops": res.drops, "wall_ms": res.wall_ms,
            "warnings": list(res.warnings),
        }
    values = res.labeling.values
    text = {label: trees.format_label(spec, label) for label in set(values)}
    tree = {"kind": spec.kind, "capacity": spec.capacity, "height": spec.height}
    if spec.kind == trees.STRAHLER:
        tree["strahler_g"] = spec.strahler_g
    named = list(zip(names, values))
    payload.update(
        tree=tree, lifts=res.lifts,
        winners={"even": [name for name, lab in named if lab is not trees.TOP],
                 "odd": [name for name, lab in named if lab is trees.TOP]},
        labels=dict(zip(names, map(text.__getitem__, values))))
    return payload


_CONTAINERS = frozenset((dict, list))


def _json_text(x, pad: str = "\n") -> str:
    """``json.dumps(x, sort_keys=True, indent=2)`` for ``x`` built of dicts
    with string keys, lists and scalars, at the line break and indentation
    ``pad`` of its own level.

    With an indent CPython encodes in pure Python; without one its C encoder
    runs, and the item separator can carry the line break and indentation.
    So a container that holds no container is one C call, and only the
    levels above it are joined here."""
    kind = type(x)
    if kind not in _CONTAINERS:
        return json.dumps(x)
    if not x:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    values = x.values() if kind is dict else x
    if _CONTAINERS.isdisjoint(map(type, values)):
        flat = json.dumps(x, sort_keys=True, separators=("," + inner, ": "))
        # the brackets of an indented container sit on lines of their own
        return flat[0] + inner + flat[1:-1] + pad + flat[-1]
    if kind is dict:
        body = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in x]) + pad + "]"


def cmd_solve(args) -> int:
    game = gamemod.parse_pgsolver(_read_input(args.input))
    if args.strahler_g is not None and args.tree != trees.STRAHLER:
        raise UsageError("--strahler-g requires --tree strahler")
    if args.budget is not None and args.algo != "progress":
        raise UsageError("--budget requires --algo progress")
    if args.algo == "progress":
        for flag, given in (("--race-naive", args.race_naive), ("--dump-aux", args.dump_aux),
                            (f"--engine {args.engine}", args.engine != "auto"),
                            (f"--pivot {args.pivot}", args.pivot != "all"),
                            (f"--seed {args.seed}", args.seed != 0)):
            if given:
                raise UsageError(f"{flag} requires --algo strategy")
    payload = _solve_one(game, args)
    if args.format == "json":
        print(_json_text(payload))
    else:
        even = " ".join(payload["winners"]["even"])
        odd = " ".join(payload["winners"]["odd"])
        print(_paint("even wins:", "32"), even or "-")
        print(_paint("odd wins:", "31"), odd or "-")
        for node, lab in sorted(payload["labels"].items()):
            print(f"  {node}: {lab}")
        print(f"phases={payload['phases']} lifts={payload['lifts']} drops={payload['drops']}")
    return 0


def cmd_verify(args) -> int:
    if args.runs < 1:
        raise UsageError(f"--runs must be at least 1, got {args.runs}")
    games = []
    if args.input is not None:
        games.append(("input", gamemod.parse_pgsolver(_read_input(args.input))))
    else:
        for run in range(args.runs):
            seed = args.seed + run
            games.append((f"random-{seed}",
                          gamemod.gen_random(args.n, args.d, args.degree, seed)))
    for name, game in games:
        want = oracle.zielonka_solve(game)
        kinds = [trees.PERFECT, trees.SUCCINCT]
        if game.n >= 2:  # no valid strahler parameter exists for one leaf
            kinds.append(trees.STRAHLER)
        for kind in kinds:
            spec = build_spec(game, kind)
            res = solver.strategy_iteration_solve(game, spec, record_phases=False)
            if frozenset(res.even_wins) != want.even_wins:
                print(f"MISMATCH on {name} with {kind} tree")
                print(gamemod.write_pgsolver(game))
                print("zielonka even:", sorted(game.label_of(v) for v in want.even_wins))
                print("solver even:  ", sorted(game.label_of(v) for v in res.even_wins))
                return 1
        print(f"{_paint('ok', '32')} {name}")
    print(f"verified {len(games)} game(s) x {len(kinds)} tree kinds")
    return 0


def cmd_gen(args) -> int:
    if args.what == "random":
        game = gamemod.gen_random(args.n, args.d, args.degree, args.seed)
    else:
        base = gamemod.parse_pgsolver(_read_input(args.base))
        game = gamemod.gen_worstcase(base, args.k)
    sys.stdout.write(gamemod.write_pgsolver(game))
    return 0


def bench_report(rows) -> str:
    """Stable CSV: instance,n,m,d,tree,algo,phases,lifts,wall_ms."""
    if not rows:
        raise UsageError("no instances to report")
    out = ["instance,n,m,d,tree,algo,phases,lifts,wall_ms"]
    for row in rows:
        out.append(",".join(str(row[key]) for key in
                            ("instance", "n", "m", "d", "tree", "algo",
                             "phases", "lifts", "wall_ms")))
    return "\n".join(out) + "\n"


def cmd_bench(args) -> int:
    paths = []
    if os.path.isdir(args.dir):
        for name in sorted(os.listdir(args.dir)):
            if name.endswith((".pg", ".gm", ".txt")):
                paths.append(os.path.join(args.dir, name))
    if not paths:
        raise UsageError(f"no game files found in {args.dir!r}")
    kinds = args.trees.split(",")
    algos = [algo.strip() for algo in args.algos.split(",")]
    rows = []
    for path in paths:
        game = gamemod.parse_pgsolver(_read_input(path))
        for kind in kinds:
            spec = build_spec(game, kind.strip(), args.capacity, None)
            for algo in algos:
                t0 = time.perf_counter()
                if algo == "progress":
                    res = progress_measure_solve(game, spec)
                    phases, lifts = 1, res.lifts
                elif algo == "strategy":
                    res = solver.strategy_iteration_solve(
                        game, spec, record_phases=False)
                    phases, lifts = res.phases, res.lifts
                else:
                    raise UsageError(f"unknown algo {algo!r}")
                wall = (time.perf_counter() - t0) * 1000.0
                rows.append({
                    "instance": os.path.basename(path),
                    "n": game.n, "m": game.m, "d": game.d,
                    "tree": kind.strip(), "algo": algo,
                    "phases": phases, "lifts": lifts,
                    "wall_ms": f"{wall:.3f}",
                })
    sys.stdout.write(bench_report(rows))
    return 0


def cmd_export_mpg(args) -> int:
    game = gamemod.parse_pgsolver(_read_input(args.input))
    mpg = gamemod.to_mean_payoff(game)
    for u, v, w in mpg.arcs():
        print(f"{game.label_of(u)} {game.label_of(v)} {w}")
    return 0


@functools.cache  # one parser per process: parse_args keeps no state on it
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treelift",
        description="Parity game solving with universal-tree labelings.")
    subs = top.add_subparsers(dest="command", required=True)

    def add_tree_flags(p):
        p.add_argument("--tree", choices=list(trees.KINDS), default=trees.PERFECT)
        p.add_argument("--capacity", type=int, default=None,
                       help="tree capacity (default: number of nodes)")
        p.add_argument("--strahler-g", dest="strahler_g", type=int, default=None)

    p = subs.add_parser("solve", help="solve one game")
    p.add_argument("input", help="PGSolver file or - for stdin")
    add_tree_flags(p)
    p.add_argument("--algo", choices=["strategy", "progress"], default="strategy")
    p.add_argument("--engine", choices=["auto", "lc", "dijkstra", "perfect"],
                   default="auto")
    p.add_argument("--pivot", choices=["all", "first", "random"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="lift budget for --algo progress")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--dump-aux", action="store_true", dest="dump_aux")
    p.add_argument("--race-naive", action="store_true", dest="race_naive")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("verify", help="cross-check against the winner oracle")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("gen", help="generate games")
    gensubs = p.add_subparsers(dest="what", required=True)
    pr = gensubs.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--d", type=int, required=True)
    pr.add_argument("--degree", type=int, default=3)
    pr.add_argument("--seed", type=int, default=0)
    pw = gensubs.add_parser("worstcase")
    pw.add_argument("--base", required=True, help="PGSolver file or -")
    pw.add_argument("--k", type=int, required=True, help="odd gadget priority")
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("bench", help="benchmark a directory of games")
    p.add_argument("dir")
    p.add_argument("--trees", default="perfect,succinct")
    p.add_argument("--algos", default="strategy,progress")
    p.add_argument("--capacity", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("export-mpg", help="mean payoff arc list 'u v weight'")
    p.add_argument("input")
    p.set_defaults(func=cmd_export_mpg)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FormatError, LiftBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TreeliftError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
