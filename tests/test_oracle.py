import random

import pytest

from treelift import trees
from treelift.errors import UsageError
from treelift.game import (StrategySubgraph, from_description, gen_random,
                           parse_pgsolver)
from treelift.labeling import NodeLabeling, progress_measure_solve
from treelift.oracle import (brute_raise, embed_check, naive_lfp,
                             zielonka_solve)
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
    # but Zielonka's algorithm takes minutes on their interleaved winners.)
    n = 1200
    game = parse_pgsolver("".join(f"{i} {2 * i + 2} {i % 2} {i};\n" for i in range(n))
                          + f"{n} {2 * n + 1} 1 {n};\n")
    part = zielonka_solve(game)
    res = strategy_iteration_solve(game, TreeSpec.perfect(game.n, game.d // 2),
                                   record_phases=False)
    assert part.even_wins == frozenset(res.even_wins) == frozenset(range(n))
    assert part.odd_wins == frozenset({n})


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
