import itertools
import random

import networkx as nx
import pytest

from treelift import trees
from treelift.errors import UsageError
from treelift.game import (StrategySubgraph, from_description, gen_random,
                           parse_pgsolver)
from treelift.labeling import NodeLabeling, progress_measure_solve
from treelift.oracle import (_attractor, _predecessors, brute_raise,
                             embed_check, naive_lfp, zielonka_solve)
from treelift.solver import strategy_iteration_solve
from treelift.trees import TOP, TreeSpec, leaf_from_components as LF

from .conftest import WORKED_TAU, materialize

A, B, C, D, E = range(5)


def test_zielonka_worked_example(worked):
    part = zielonka_solve(worked)
    assert part.even_wins == frozenset({C, D, E})
    assert part.odd_wins == frozenset({A, B})


def test_zielonka_self_loops():
    even = parse_pgsolver("0 2 0 0;")
    assert zielonka_solve(even).even_wins == frozenset({0})
    odd = parse_pgsolver("0 1 0 0;")
    assert zielonka_solve(odd).odd_wins == frozenset({0})


def test_zielonka_recursion_deeper_than_the_python_stack():
    # the recursion goes one level per distinct priority, on an explicit
    # stack: 1,200 self-loops of even priorities 2, 4, ..., 2400 under one odd
    # self-loop of priority 2401 recurse 1,201 deep, past Python's default
    # limit of 1,000 frames.  (Self-loops of priorities 1..1,200 are as deep,
    # but on their interleaved winners Zielonka's algorithm makes about
    # 360,000 attractor calls and took 37 s on a 2-CPU x86 host.)
    n = 1200
    game = parse_pgsolver("".join(f"{i} {2 * i + 2} {i % 2} {i};\n" for i in range(n))
                          + f"{n} {2 * n + 1} 1 {n};\n")
    part = zielonka_solve(game)
    res = strategy_iteration_solve(game, TreeSpec.perfect(game.n, game.d // 2),
                                   record_phases=False)
    assert part.even_wins == frozenset(res.even_wins) == frozenset(range(n))
    assert part.odd_wins == frozenset({n})


def literal_attractor(nodes, succ, owners, target, player):
    """The attractor by its definition, swept until nothing changes."""
    attr = set(target)
    changed = True
    while changed:
        changed = False
        for v in nodes:
            if v in attr:
                continue
            outs = [w for w in succ[v] if w in nodes]
            if owners[v] == player:
                hit = any(w in attr for w in outs)
            else:
                hit = all(w in attr for w in outs)
            if hit:
                attr.add(v)
                changed = True
    return attr


def test_attractor_matches_its_definition():
    # random digraphs with self-loops and repeated arcs, on subgames that cut
    # arcs and so leave dead ends of both owners: an opponent dead end is
    # attracted (all of no successors are in the set), a player's is not
    rng = random.Random(26)
    dead_ends = [0, 0]  # of the opponent, of the player
    for _ in range(2000):
        n = rng.randint(1, 12)
        succ = [rng.choices(range(n), k=rng.randint(0, 3)) + [v] * (rng.random() < 0.3)
                for v in range(n)]
        owners = [rng.randint(0, 1) for _ in range(n)]
        nodes = frozenset(rng.sample(range(n), rng.randint(0, n)))
        target = rng.sample(sorted(nodes), rng.randint(0, len(nodes)))
        player = rng.randint(0, 1)
        want = literal_attractor(nodes, succ, owners, target, player)
        assert _attractor(nodes, succ, _predecessors(succ), owners, target, player) == want
        for v in nodes.difference(target):
            if nodes.isdisjoint(succ[v]):
                assert (v in want) == (owners[v] != player)
                dead_ends[owners[v] == player] += 1
    assert min(dead_ends) > 400, dead_ends


def brute_even_wins(game) -> frozenset:
    """Even wins v iff some positional Even strategy leaves no cycle with an
    odd top priority reachable from v.  Such a cycle through a node of odd
    priority p lies in a nontrivial strongly connected component of the
    nodes of priority <= p, found by networkx, one pass per odd p."""
    even = [v for v in range(game.n) if game.owners[v] == 0]
    wins = set()
    for choice in itertools.product(*(game.succ[v] for v in even)):
        sigma = dict(zip(even, choice))
        g = nx.DiGraph()
        g.add_nodes_from(range(game.n))
        g.add_edges_from((v, w) for v in range(game.n)
                         for w in ([sigma[v]] if v in sigma else game.succ[v]))
        bad = set()
        for p in set(game.priorities):
            if p % 2 == 0:
                continue
            low = g.subgraph(v for v in range(game.n) if game.priorities[v] <= p)
            for comp in nx.strongly_connected_components(low):
                if len(comp) > 1 or any(low.has_edge(v, v) for v in comp):
                    bad.update(v for v in comp if game.priorities[v] == p)
        losing = bad.union(*(nx.ancestors(g, v) for v in bad))
        wins.update(set(range(game.n)) - losing)
    return frozenset(wins)


def test_zielonka_against_positional_brute_force():
    rng = random.Random(2026)
    for _ in range(300):
        g = gen_random(rng.randint(1, 7), rng.randint(1, 6), 3,
                       seed=rng.getrandbits(32))
        part = zielonka_solve(g)
        assert part.even_wins == brute_even_wins(g)
        assert part.odd_wins == frozenset(range(g.n)) - part.even_wins


def test_zielonka_self_duality():
    rng = random.Random(8)
    for _ in range(30):
        g = gen_random(rng.randint(2, 10), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        dual = from_description(
            [(1 - g.owners[v], g.priorities[v] + 1) for v in range(g.n)],
            list(g.arcs()))
        a = zielonka_solve(g)
        b = zielonka_solve(dual)
        assert a.even_wins == b.odd_wins
        assert a.odd_wins == b.even_wins


def test_naive_lfp_worked_example(worked, p32):
    sub = StrategySubgraph(worked, WORKED_TAU)
    out = naive_lfp(sub, NodeLabeling.all_min(p32, worked.n), p32)
    assert out.values == [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)]
    # fixed points stay put
    assert naive_lfp(sub, out, p32) == out


def test_naive_lfp_order_insensitive(worked, p32):
    # round-robin (oracle) vs FIFO worklist (baseline) reach the same point
    sub = StrategySubgraph(worked, WORKED_TAU)
    a = naive_lfp(sub, NodeLabeling.all_min(p32, worked.n), p32)
    b = progress_measure_solve(sub, p32)
    assert a == b.labeling


def test_brute_raise_trivial(s72):
    xi = LF(s72, ["", "00"])
    assert brute_raise(s72, xi, 2, 1, 0) == xi
    assert brute_raise(s72, LF(s72, ["", ""]), 3, 1, 0) is TOP
    assert brute_raise(s72, LF(s72, ["", ""]), 1, 1, 0) == LF(s72, ["1", "0"])
    big = TreeSpec.perfect(200, 4)
    with pytest.raises(UsageError):
        brute_raise(big, trees.min_leaf(big), 0, 1, 0)


def test_embed_fig3_into_fig2(s32, p32):
    small = materialize(s32)
    assert embed_check(small, p32)
    # and the perfect tree does not fit into the succinct one
    assert not embed_check(materialize(p32), s32)


def test_embed_pigeonhole(p32):
    # four leaves under one vertex cannot map into a 3-ary tree
    assert not embed_check([[[] for _ in range(4)]], p32)
    assert embed_check([[[] for _ in range(3)]], p32)


def test_embed_height_mismatch(p32):
    with pytest.raises(UsageError):
        embed_check([[]], p32)  # height 1 tree into height 2 spec


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def all_height2_trees(max_leaves):
    for leaves in range(1, max_leaves + 1):
        for c in range(1, leaves + 1):
            for comp in compositions(leaves, c):
                yield [[[] for _ in range(k)] for k in comp]


def test_embed_exhaustive_small():
    host = TreeSpec.succinct(5, 2)
    for t in all_height2_trees(5):
        assert embed_check(t, host), t
    # the 2-bit-budget tree has widest bunch 7: eight leaves cannot fit
    assert embed_check([[[] for _ in range(7)]], host)
    assert not embed_check([[[] for _ in range(8)]], host)
