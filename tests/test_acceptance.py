"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Tolerances are exact equality unless stated otherwise; the random
criteria use fixed seed schedules.
"""

import contextlib
import random
import time
from math import inf

import pytest

from treelift import trees
from treelift.game import (gen_random, gen_worstcase, parse_pgsolver,
                           strategy_subgraph, write_pgsolver)
from treelift.labeling import NodeLabeling, is_feasible
from treelift.one_player import (arc_costs_generic, arc_costs_succinct,
                                 build_auxiliary_digraph, dijkstra,
                                 find_base_nodes, least_fixed_point_lc,
                                 least_fixed_point_perfect,
                                 min_bottleneck_cycle_costs)
from treelift.oracle import brute_raise, embed_check, naive_lfp, zielonka_solve
from treelift.solver import strategy_iteration_solve
from treelift.trees import (TOP, TreeSpec, leaf_count, leaf_from_components,
                            tighten_target)

from .conftest import WORKED_TAU, WORKED_TEXT, FOURBASE_TEXT


@contextlib.contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {text}")


def spec_trio(game):
    h = max(game.d // 2, 1)
    out = [TreeSpec.perfect(game.n, h), TreeSpec.succinct(game.n, h)]
    g = min(h, game.n.bit_length() - 1)
    if g >= 1:
        out.append(TreeSpec.strahler(g, game.n, h))
    return out


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked-example phase labelings and winners, both encodings, < 1 s"):
        t0 = time.perf_counter()
        game = parse_pgsolver(WORKED_TEXT)
        A, B, C, D, E = range(5)

        p32 = TreeSpec.perfect(3, 2)
        res = strategy_iteration_solve(game, p32, tau1=WORKED_TAU)
        assert [lab.values for lab in res.phase_labels] == [
            [(0, 0)] * 5,
            [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)],
            [TOP, TOP, (1, 0), (0, 0), (1, 0)],
        ]
        assert res.even_wins == (C, D, E)

        s32 = TreeSpec.succinct(3, 2)
        L = lambda *cs: leaf_from_components(s32, cs)
        res = strategy_iteration_solve(game, s32, tau1=WORKED_TAU)
        assert [lab.values for lab in res.phase_labels] == [
            [L("0", "")] * 5,
            [L("", "0"), L("", ""), L("", "0"), L("0", ""), L("", "0")],
            [TOP, TOP, L("", "0"), L("0", ""), L("", "0")],
        ]
        assert res.even_wins == (C, D, E)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_fourbase_example_base_nodes():
    with criterion(2, "worked 1-player example: base nodes and auxiliary digraph arcs"):
        game = parse_pgsolver(FOURBASE_TEXT)
        sub = strategy_subgraph(game, {v: game.succ[v][0] for v in game.odd_nodes()})
        report = find_base_nodes(sub)
        name = {game.label_of(v): v for v in range(game.n)}
        w1, w2, w3, w4 = name["C"], name["H"], name["E"], name["D"]
        assert set(report.base_nodes) == {w1, w2, w3, w4}
        aux = build_auxiliary_digraph(sub, report)
        assert aux.arcs == frozenset({
            (w1, w1), (w2, w3), (w3, w2), (w3, w4), (w4, w2), (w4, w4)})


def test_criterion_3_tree_fixtures():
    with criterion(3, "leaf counts 9/5/17 and the five-leaf enumeration in order"):
        assert leaf_count(TreeSpec.perfect(3, 2)) == 9
        s32 = TreeSpec.succinct(3, 2)
        assert leaf_count(s32) == 5
        assert leaf_count(TreeSpec.succinct(7, 2)) == 17
        want = [("0", ""), ("", "0"), ("", ""), ("", "1"), ("1", "")]
        got = [trees.components_of(s32, leaf) for leaf in trees.iter_leaves(s32)]
        assert got == [tuple(w) for w in want]


def test_criterion_4_winner_oracle_equivalence():
    with criterion(4, "1000 random games x 3 tree kinds match the winner oracle"):
        t0 = time.perf_counter()
        rng = random.Random(0xACCE5)
        for trial in range(1000):
            n = rng.randint(2, 40)
            d = rng.randint(1, 8)
            game = gen_random(n, d, 4, seed=1_000_000 + trial)
            want = zielonka_solve(game).even_wins
            for spec in spec_trio(game):
                res = strategy_iteration_solve(game, spec, record_phases=False)
                assert frozenset(res.even_wins) == want, (trial, spec.kind)
        assert time.perf_counter() - t0 < 300.0


def _random_loose_free(sub, spec, rng):
    vals = []
    for _ in range(sub.n):
        r = rng.random()
        if r < 0.25:
            vals.append(TOP)
        else:
            x = trees.min_leaf(spec)
            for _ in range(rng.randint(0, 5)):
                step = trees.next_subtree_min(spec, x[: rng.randint(1, spec.height)])
                if step is TOP:
                    break
                x = step
            vals.append(x)
    lab = NodeLabeling(spec, vals)
    arcs = sorted(sub.arcs())
    changed = True
    while changed:
        changed = False
        for v, w in arcs:
            t = tighten_target(spec, lab[w], sub.priorities[v])
            if t < lab[v]:
                lab[v] = t
                changed = True
    return lab


def test_criterion_5_one_player_oracle_equivalence():
    with criterion(5, "500 random 1-player fixed points match naive lifting"):
        rng = random.Random(0x1B)
        for trial in range(500):
            n = rng.randint(2, 30)
            d = rng.randint(1, 8)
            game = gen_random(n, d, 3, seed=2_000_000 + trial)
            tau = {v: rng.choice(game.succ[v]) for v in game.odd_nodes()}
            sub = strategy_subgraph(game, tau)
            for spec in spec_trio(game):
                mu = (_random_loose_free(sub, spec, rng) if trial % 2 else
                      NodeLabeling.all_min(spec, game.n))
                want = naive_lfp(sub, mu, spec)
                got = least_fixed_point_lc(sub, mu, spec)
                assert got == want, (trial, spec.kind)
                if spec.kind == trees.PERFECT:
                    assert least_fixed_point_perfect(sub, mu, spec) == want
                    seed = NodeLabeling.all_top(spec, game.n)
                    base = find_base_nodes(sub).base_nodes
                    for w in base:
                        seed[w] = want[w]
                    assert dijkstra(sub, seed, base) == want


def test_criterion_6_raise_exhaustive():
    with criterion(6, "raise equals the brute-force scan, exhaustively"):
        for cap in range(1, 17):
            for h in (1, 2, 3):
                specs = [TreeSpec.succinct(cap, h)]
                for g in range(1, min(h, cap.bit_length() - 1) + 1):
                    specs.append(TreeSpec.strahler(g, cap, h))
                for spec in specs:
                    leaves = list(trees.iter_leaves(spec))
                    for j in range(1, spec.height + 1):
                        for k in trees.chain_indices(spec, j):
                            lo = 1 if spec.kind == trees.STRAHLER else 0
                            for i in range(lo, trees.chain_length(spec, j, k)):
                                for xi in leaves:
                                    assert trees.raise_leaf(spec, xi, i, j, k) == \
                                        brute_raise(spec, xi, i, j, k), \
                                        (spec, xi, i, j, k)


def _height2_trees(max_leaves):
    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest

    for leaves in range(1, max_leaves + 1):
        for c in range(1, leaves + 1):
            for shape in comps(leaves, c):
                yield [[[] for _ in range(k)] for k in shape]


def _strahler_number(tree):
    if not tree:
        return 0
    subs = sorted((_strahler_number(c) for c in tree), reverse=True)
    return subs[0] + 1 if len(subs) > 1 and subs[0] == subs[1] else subs[0]


def test_criterion_7_universality_spot_check():
    with criterion(7, "small-tree embeddings into succinct (5,2) and strahler (1,4,2)"):
        host = TreeSpec.succinct(5, 2)
        for t in _height2_trees(5):
            assert embed_check(t, host), t
        sthost = TreeSpec.strahler(1, 4, 2)
        for t in _height2_trees(4):
            if _strahler_number(t) <= 1:
                assert embed_check(t, sthost), t


def _brute_cost_bounds(sub, report, w, j, k, spec):
    """(lower, upper) cost maps for the arcs into w, by fixed-point iteration
    and by simple-path enumeration."""
    jn = sorted(report.j_nodes[w])
    adj = report.j_succ[w]
    arcs = sorted((u, x) for u in jn for x in adj[u])
    length = trees.chain_length(spec, j, k)

    def gfp_finite(i):
        domain = trees.chain_member_spec(spec, j, k, i)
        vals = {u: TOP for u in jn}
        vals[w] = trees.min_leaf(domain)
        changed = True
        while changed:
            changed = False
            for v, x in arcs:
                t = tighten_target(domain, vals[x], sub.priorities[v])
                if t < vals[v]:
                    vals[v] = t
                    changed = True
        return {u for u in jn if vals[u] is not TOP}

    finite_sets = [gfp_finite(i) for i in range(length)]

    def path_alpha(path):
        for i in range(length):
            domain = trees.chain_member_spec(spec, j, k, i)
            lab = trees.min_leaf(domain)
            ok = True
            for v in reversed(path[:-1]):
                lab = tighten_target(domain, lab, sub.priorities[v])
                if lab is TOP:
                    ok = False
                    break
            if ok:
                return i
        return inf

    def all_paths(u):
        # simple u-w paths; the trivial single-node path counts when u == w
        out = [(w,)] if u == w else []

        def dfs(node, path):
            for x in adj[node]:
                if x == w:
                    out.append(tuple(path) + (x,))
                elif x not in path:
                    dfs(x, path + [x])

        dfs(u, [u])
        return out

    lower, upper = {}, {}
    for v in sorted(report.j_tops[w]):
        outs = adj[v]
        if v == w and not outs:
            continue
        lo = inf
        for i, fin in enumerate(finite_sets):
            if any(u in fin for u in outs):
                lo = i
                break
        up = inf
        for u in outs:
            for path in all_paths(u):
                up = min(up, path_alpha(list(path)))
        lower[(v, w)] = lo
        upper[(v, w)] = up
    return lower, upper


def test_criterion_8_property_suites():
    with criterion(8, "cycle lemma, cost bracketing, monotone phases/potentials"):
        rng = random.Random(0x8)

        # (a) phase-wise monotonicity and loop-head invariants: solver
        # asserts feasibility and loose-freeness every phase; check labels too
        for _ in range(10):
            game = gen_random(rng.randint(2, 10), rng.randint(1, 6), 3,
                              seed=rng.randint(0, 10 ** 9))
            spec = TreeSpec.succinct(game.n, game.d // 2)
            res = strategy_iteration_solve(game, spec)
            labs = res.phase_labels
            for prev, cur in zip(labs, labs[1:]):
                assert prev.leq(cur)
            # every pivot is onto a violated arc, so each later phase must
            # strictly increase somewhere (the very first fixed point may
            # leave the all-minimum labeling unchanged)
            for prev, cur in zip(labs[1:], labs[2:]):
                assert prev.values != cur.values

        # (b) cycle lemma over all simple cycles of small games
        import networkx as nx

        for _ in range(25):
            game = gen_random(rng.randint(2, 8), rng.randint(1, 6), 3,
                              seed=rng.randint(0, 10 ** 9))
            spec = TreeSpec.perfect(game.n, game.d // 2)
            for cyc in nx.simple_cycles(nx.DiGraph(list(game.arcs()))):
                arcs = [(cyc[t], cyc[(t + 1) % len(cyc)]) for t in range(len(cyc))]
                pc = max(game.priorities[v] for v in cyc)
                seedv = next(v for v in cyc if game.priorities[v] == pc)
                lab = NodeLabeling.all_top(spec, game.n)
                lab[seedv] = trees.min_leaf(spec)
                changed = True
                while changed:
                    changed = False
                    for v, w in arcs:
                        t = tighten_target(spec, lab[w], game.priorities[v])
                        if t < lab[v]:
                            lab[v] = t
                            changed = True
                finite = [v for v in cyc if lab[v] is not TOP]
                feas = is_feasible(game, lab, arcs=arcs)
                if feas and finite:
                    assert pc % 2 == 0
                    assert len({trees.truncate(spec, lab[v], pc) for v in cyc}) == 1
                if pc % 2 == 0:
                    assert feas and len(finite) == len(cyc)
                else:
                    assert not (feas and finite)

        # (c) Eq-(1) bracketing of the implementation's arc costs
        for _ in range(12):
            game = gen_random(rng.randint(2, 8), rng.randint(1, 6), 3,
                              seed=rng.randint(0, 10 ** 9))
            tau = {v: rng.choice(game.succ[v]) for v in game.odd_nodes()}
            sub = strategy_subgraph(game, tau)
            report = find_base_nodes(sub)
            if not report.base_nodes:
                continue
            aux = build_auxiliary_digraph(sub, report)
            for spec in spec_trio(game):
                for comp in aux.components:
                    j = sub.priorities[comp[0]] // 2
                    for k in trees.chain_indices(spec, j):
                        got = arc_costs_generic(sub, report, comp, j, k, spec)
                        if spec.kind == trees.SUCCINCT:
                            alt = {}
                            for w in comp:
                                alt.update(arc_costs_succinct(sub, report, aux, w, spec))
                            assert alt == got
                        for w in comp:
                            lower, upper = _brute_cost_bounds(sub, report, w, j, k, spec)
                            for arc in lower:
                                assert lower[arc] <= got[arc] <= upper[arc], (arc, spec.kind)

        # (d) dijkstra admission potentials are asserted nondecreasing at
        # runtime (InvariantError otherwise); exercise the code path
        for _ in range(10):
            game = gen_random(rng.randint(2, 12), rng.randint(1, 6), 3,
                              seed=rng.randint(0, 10 ** 9))
            tau = {v: rng.choice(game.succ[v]) for v in game.odd_nodes()}
            sub = strategy_subgraph(game, tau)
            spec = TreeSpec.perfect(game.n, max(game.d // 2, 1))
            least_fixed_point_perfect(sub, NodeLabeling.all_min(spec, game.n), spec)


def _loop_game_text(m):
    lines = [f"parity {m - 1};"]
    for v in range(m):
        p = 4 if v % 2 == 0 else 2
        lines.append(f"{v} {p} 0 {(v + 1) % m};")
    return "\n".join(lines) + "\n"


def test_criterion_9_worstcase_benchmark(tmp_path):
    with criterion(9, "gadget family: naive lifts grow superlinearly, phases stay <= n"):
        sizes = list(range(6, 15, 2))
        for n in sizes:
            base = parse_pgsolver(_loop_game_text(n - 2))
            game = gen_worstcase(base, 1)
            (tmp_path / f"worst{n:02d}.pg").write_text(write_pgsolver(game))

        from treelift.cli import main as cli_main
        import io
        import sys as _sys

        buf = io.StringIO()
        old = _sys.stdout
        _sys.stdout = buf
        try:
            rc = cli_main(["bench", str(tmp_path), "--trees", "perfect",
                           "--algos", "strategy,progress"])
        finally:
            _sys.stdout = old
        assert rc == 0
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "instance,n,m,d,tree,algo,phases,lifts,wall_ms"
        lifts_per_node = {}
        for line in lines[1:]:
            inst, n, m, d, tree, algo, phases, lifts, wall = line.split(",")
            n = int(n)
            if algo == "progress":
                lifts_per_node[n] = int(lifts) / n
            else:
                assert int(phases) <= n
        ratios = [lifts_per_node[n] for n in sizes]
        assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
        # progress lifts exceed strategy phases on every row (both emitted)
        for line in lines[1:]:
            inst, n, m, d, tree, algo, phases, lifts, wall = line.split(",")
            if algo == "progress":
                assert int(lifts) > int(n)
