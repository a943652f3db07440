import os
import random
import subprocess
import sys
from math import inf

import pytest

from treelift import trees
from treelift.errors import UsageError
from treelift.game import gen_random, parse_pgsolver, strategy_subgraph
from treelift.labeling import NodeLabeling
from treelift.one_player import (arc_costs_generic, arc_costs_succinct,
                                 bellman_ford, build_auxiliary_digraph,
                                 compute_phi, dijkstra, find_base_nodes,
                                 least_fixed_point_lc,
                                 least_fixed_point_perfect,
                                 min_bottleneck_cycle_costs)
from treelift.oracle import naive_lfp
from treelift.trees import TOP, TreeSpec, tighten_target

from .conftest import WORKED_TAU, WORKED_TEXT

A, B, C, D, E = range(5)


def worked_sub(worked):
    return strategy_subgraph(worked, WORKED_TAU)


def test_base_nodes_fourbase(fourbase):
    sub = strategy_subgraph(fourbase, {v: fourbase.succ[v][0] for v in fourbase.odd_nodes()})
    report = find_base_nodes(sub)
    names = sorted(fourbase.label_of(v) for v in report.base_nodes)
    assert names == ["C", "D", "E", "H"]
    prios = sorted(fourbase.priorities[v] for v in report.base_nodes)
    assert prios == [2, 4, 4, 4]


def test_base_nodes_worked(worked):
    # D -> E -> C -> B -> A -> D closes one big strongly connected component,
    # but only D dominates an even cycle
    report = find_base_nodes(worked_sub(worked))
    assert report.base_nodes == (D,)
    assert report.k_comp[D] == frozenset({A, B, C, D, E})
    assert report.j_nodes[D] == frozenset({A, B, C, D, E})
    assert report.j_tops[D] == frozenset({D})


def test_base_nodes_odd_only():
    g = parse_pgsolver("0 1 1 1; 1 3 0 0;")
    sub = strategy_subgraph(g, {0: 1})
    assert find_base_nodes(sub).base_nodes == ()


def test_aux_digraph_fourbase(fourbase):
    sub = strategy_subgraph(fourbase, {v: fourbase.succ[v][0] for v in fourbase.odd_nodes()})
    report = find_base_nodes(sub)
    aux = build_auxiliary_digraph(sub, report)
    by_name = {fourbase.label_of(v): v for v in range(fourbase.n)}
    w1, w2, w3, w4 = by_name["C"], by_name["H"], by_name["E"], by_name["D"]
    expected = {(w1, w1), (w2, w3), (w3, w2), (w3, w4), (w4, w2), (w4, w4)}
    assert aux.arcs == frozenset(expected)
    assert sorted(map(sorted, aux.components)) == sorted(
        [[w1], sorted([w2, w3, w4])])


def test_aux_digraph_worked(worked):
    sub = worked_sub(worked)
    report = find_base_nodes(sub)
    aux = build_auxiliary_digraph(sub, report)
    assert aux.arcs == frozenset({(D, D)})


def test_aux_digraph_empty():
    g = parse_pgsolver("0 1 1 1; 1 3 0 0;")
    sub = strategy_subgraph(g, {0: 1})
    aux = build_auxiliary_digraph(sub, find_base_nodes(sub))
    assert aux.nodes == () and aux.arcs == frozenset()


def test_bellman_ford_worked(worked, p32):
    sub = worked_sub(worked)
    nu = NodeLabeling.all_top(p32, worked.n)
    nu[D] = (0, 0)
    out = bellman_ford(sub, nu)
    assert out.values == [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)]
    # a feasible loose-free labeling is a fixed point
    again = bellman_ford(sub, out)
    assert again == out
    # TOP propagates when nothing is seeded
    allt = bellman_ford(sub, NodeLabeling.all_top(p32, worked.n))
    assert all(x is TOP for x in allt.values)


def test_bellman_ford_sandwich(worked, p32):
    sub = worked_sub(worked)
    mu = NodeLabeling.all_min(p32, worked.n)
    fix = naive_lfp(sub, mu, p32)
    nu = NodeLabeling.all_top(p32, worked.n)
    nu[D] = (0, 0)
    seen = []
    bellman_ford(sub, nu, on_pass=lambda vals: seen.append(list(vals)))
    for state in seen:
        for v in range(worked.n):
            assert mu[v] <= fix[v] <= state[v]


def test_arc_costs_worked_perfect(worked, p32):
    sub = worked_sub(worked)
    report = find_base_nodes(sub)
    costs = arc_costs_generic(sub, report, (D,), 2, 0, p32)
    assert costs == {(D, D): 0}


def test_arc_costs_even_cycle_succinct():
    # J_w that is a single all-even-priority cycle: the path member suffices
    g = parse_pgsolver("0 2 0 1; 1 2 0 0;")
    sub = strategy_subgraph(g, {})
    spec = TreeSpec.succinct(2, 1)
    report = find_base_nodes(sub)
    aux = build_auxiliary_digraph(sub, report)
    for w in report.base_nodes:
        for arc, c in arc_costs_succinct(sub, report, aux, w, spec).items():
            assert c == 0


def test_arc_costs_succinct_matches_generic(fourbase):
    sub = strategy_subgraph(fourbase, {v: fourbase.succ[v][0] for v in fourbase.odd_nodes()})
    spec = TreeSpec.succinct(fourbase.n, fourbase.d // 2)
    report = find_base_nodes(sub)
    aux = build_auxiliary_digraph(sub, report)
    for comp in aux.components:
        j = fourbase.priorities[comp[0]] // 2
        generic = arc_costs_generic(sub, report, comp, j, 0, spec)
        succ = {}
        for w in comp:
            succ.update(arc_costs_succinct(sub, report, aux, w, spec))
        assert generic == succ


def test_arc_costs_infeasible_is_inf():
    # every path back to the base crosses three odd-priority nodes in a row:
    # more strict increments than any chain member of the 3-leaf tree absorbs
    g = parse_pgsolver("0 2 0 1; 1 1 0 2; 2 1 0 3; 3 1 0 0;")
    sub = strategy_subgraph(g, {})
    spec = TreeSpec.succinct(2, 1)
    report = find_base_nodes(sub)
    aux = build_auxiliary_digraph(sub, report)
    costs = {}
    for w in report.base_nodes:
        costs.update(arc_costs_succinct(sub, report, aux, w, spec))
    assert costs[(0, 0)] == inf
    generic = arc_costs_generic(sub, report, (0,), 1, 0, spec)
    assert generic[(0, 0)] == inf


def test_min_bottleneck_examples():
    assert min_bottleneck_cycle_costs((0, 1, 2), {
        (0, 1): 0, (1, 0): 0, (1, 2): 0, (2, 1): 0}) == {0: 0, 1: 0, 2: 0}
    assert min_bottleneck_cycle_costs((0, 1), {(0, 1): 3, (1, 0): 1}) == {0: 3, 1: 3}
    assert min_bottleneck_cycle_costs((0,), {}) == {0: inf}
    assert min_bottleneck_cycle_costs((0,), {(0, 0): 2}) == {0: 2}


def test_min_bottleneck_random_vs_brute():
    import networkx as nx

    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 7)
        arcs = {}
        for v in range(n):
            for w in range(n):
                if rng.random() < 0.4:
                    arcs[(v, w)] = rng.choice([0, 1, 2, 3, inf])
        got = min_bottleneck_cycle_costs(tuple(range(n)), arcs)
        dig = nx.DiGraph(list(arcs))
        best = {v: inf for v in range(n)}
        for cyc in nx.simple_cycles(dig):
            cycle_arcs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
            cost = max(arcs[a] for a in cycle_arcs)
            for v in cyc:
                best[v] = min(best[v], cost)
        assert got == best


def test_lfp_lc_worked(worked, p32):
    sub = worked_sub(worked)
    mu = NodeLabeling.all_min(p32, worked.n)
    out = least_fixed_point_lc(sub, mu, p32)
    assert out.values == [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)]

    sub2 = strategy_subgraph(worked, {A: B, E: C})
    out2 = least_fixed_point_lc(sub2, out, p32)
    assert out2.values == [TOP, TOP, (1, 0), (0, 0), (1, 0)]


def test_lfp_lc_no_even_cycle(p32):
    g = parse_pgsolver("0 1 1 1; 1 3 0 0;")
    sub = strategy_subgraph(g, {0: 1})
    spec = TreeSpec.perfect(2, 2)
    out = least_fixed_point_lc(sub, NodeLabeling.all_min(spec, 2), spec)
    assert all(x is TOP for x in out.values)


def test_lfp_lc_rejects_loose(worked, p32):
    sub = worked_sub(worked)
    loose = NodeLabeling.all_min(p32, worked.n)
    loose[A] = (2, 2)  # above every target of A's arcs
    with pytest.raises(UsageError):
        least_fixed_point_lc(sub, loose, p32)


def test_compute_phi_properties(worked):
    sub = worked_sub(worked)
    phi = compute_phi(sub, find_base_nodes(sub).base_nodes)
    # zero exactly above the priority
    for p, vals in phi.items():
        for v in range(worked.n):
            assert (vals[v] == 0) == (worked.priorities[v] > p)
    # reachability in H_2 ({A, B, E} with only B->A): ranks must not increase
    assert phi[2][B] >= phi[2][A]
    assert phi[2][B] != phi[2][A]  # not strongly connected
    assert phi[2][E] > 0


def test_dijkstra_worked(worked, p32):
    sub = worked_sub(worked)
    nu = NodeLabeling.all_top(p32, worked.n)
    nu[D] = (0, 0)
    base = find_base_nodes(sub).base_nodes
    out = dijkstra(sub, nu, base)
    assert out.values == [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)]
    allt = dijkstra(sub, NodeLabeling.all_top(p32, worked.n), base)
    assert all(x is TOP for x in allt.values)


def test_lfp_perfect_worked(worked, p32):
    sub = worked_sub(worked)
    mu = NodeLabeling.all_min(p32, worked.n)
    out = least_fixed_point_perfect(sub, mu, p32)
    assert out.values == [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)]
    with pytest.raises(UsageError):
        least_fixed_point_perfect(sub, mu, TreeSpec.succinct(3, 2))


def test_engines_agree_random():
    rng = random.Random(41)
    for _ in range(60):
        g = gen_random(rng.randint(2, 12), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        tau = {v: rng.choice(g.succ[v]) for v in g.odd_nodes()}
        sub = strategy_subgraph(g, tau)
        h = g.d // 2
        for spec in (TreeSpec.perfect(g.n, h), TreeSpec.succinct(g.n, h)):
            mu = NodeLabeling.all_min(spec, g.n)
            want = naive_lfp(sub, mu, spec)
            assert least_fixed_point_lc(sub, mu, spec) == want
            if spec.kind == trees.PERFECT:
                assert least_fixed_point_perfect(sub, mu, spec) == want


def _brute_threshold_label(sub, spec, w, mu):
    """Smallest label >= mu(w) extendable to a labeling feasible on a cycle
    dominated by w: scan leaves along every dominated simple cycle."""
    import networkx as nx

    leaves = sorted(trees.iter_leaves(spec))
    dig = nx.DiGraph(sub.arcs())
    best = TOP
    pw = sub.priorities[w]
    for cyc in nx.simple_cycles(dig):
        if w not in cyc or max(sub.priorities[v] for v in cyc) != pw:
            continue
        if any(sub.priorities[v] == pw and v != w for v in cyc):
            pass  # other dominators are fine; w still dominates
        k = cyc.index(w)
        order = cyc[k:] + cyc[:k]  # w first
        for xi in leaves:
            if xi < mu[w]:
                continue
            # propagate tight labels backwards around the cycle
            lab = xi
            ok = True
            for v in reversed(order[1:]):
                lab = tighten_target(spec, lab, sub.priorities[v])
                if lab is TOP:
                    ok = False
                    break
            if ok and tighten_target(spec, lab, pw) <= xi:
                best = min(best, xi)
                break
    return best


def test_base_seed_between_lfp_and_threshold():
    # the initialization the label-correcting engine computes for each base
    # node lies between the true fixed point and the threshold label
    from treelift.one_player import (build_auxiliary_digraph, find_base_nodes,
                                     least_fixed_point_lc)

    rng = random.Random(77)
    for _ in range(25):
        g = gen_random(rng.randint(2, 8), rng.randint(1, 4), 3,
                       seed=rng.randint(0, 10 ** 9))
        tau = {v: rng.choice(g.succ[v]) for v in g.odd_nodes()}
        sub = strategy_subgraph(g, tau)
        spec = TreeSpec.perfect(g.n, g.d // 2)
        mu = NodeLabeling.all_min(spec, g.n)
        fix = naive_lfp(sub, mu, spec)
        report = find_base_nodes(sub)
        aux = build_auxiliary_digraph(sub, report)
        for comp in aux.components:
            j = sub.priorities[comp[0]] // 2
            costs = arc_costs_generic(sub, report, comp, j, 0, spec)
            ik = min_bottleneck_cycle_costs(comp, costs)
            for w in comp:
                if ik[w] is inf:
                    continue
                seed = trees.raise_leaf(spec, mu[w], int(ik[w]), j, 0)
                hat = _brute_threshold_label(sub, spec, w, mu)
                assert fix[w] <= seed
                assert seed <= hat


_OPTIMIZED_CHECK = """
import sys
from treelift import one_player
from treelift.errors import InvariantError
from treelift.game import parse_pgsolver, strategy_subgraph
from treelift.labeling import NodeLabeling
from treelift.trees import TreeSpec

if __debug__:
    sys.exit(3)
game = parse_pgsolver(sys.argv[1])
sub = strategy_subgraph(game, {0: 3, 4: 2})
spec = TreeSpec.perfect(3, 2)
mu = one_player.least_fixed_point_lc(sub, NodeLabeling.all_min(spec, game.n), spec)
one_player.bellman_ford = lambda sub, lab, counters=None: NodeLabeling.all_min(spec, sub.n)
try:
    one_player.least_fixed_point_lc(sub, mu, spec)
except InvariantError:
    sys.exit(0)
sys.exit(1)
"""


def test_invariant_checks_survive_python_O():
    # a final sweep that falls below the input must be caught even when
    # the interpreter strips asserts and __debug__ blocks
    src = os.path.dirname(os.path.dirname(trees.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECK, WORKED_TEXT],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
