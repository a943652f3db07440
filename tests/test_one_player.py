import os
import random
import subprocess
import sys
from math import inf
from types import SimpleNamespace

import pytest

from treelift import one_player, trees
from treelift.errors import InvariantError, UsageError
from treelift.game import StrategySubgraph, gen_random, parse_pgsolver
from treelift.labeling import NodeLabeling
from treelift.one_player import (Counters, _base_components, _bf,
                                 arc_costs_generic,
                                 arc_costs_succinct, bellman_ford,
                                 compute_phi, dijkstra, find_base_nodes,
                                 least_fixed_point_lc,
                                 least_fixed_point_perfect,
                                 min_bottleneck_cycle_costs)
from treelift.oracle import admissible_arcs, build_auxiliary_digraph, naive_lfp
from treelift.solver import SwitchAll, SwitchFirst, SwitchRandom, strategy_iteration_solve
from treelift.trees import TOP, TreeSpec, tighten_target

from .conftest import WORKED_TAU, WORKED_TEXT

A, B, C, D, E = range(5)


def worked_sub(worked):
    return StrategySubgraph(worked, WORKED_TAU)


def test_base_nodes_fourbase(fourbase):
    sub = StrategySubgraph(fourbase, {v: fourbase.succ[v][0] for v in fourbase.odd_nodes()})
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
    sub = StrategySubgraph(g, {0: 1})
    assert find_base_nodes(sub).base_nodes == ()


def test_aux_digraph_fourbase(fourbase):
    sub = StrategySubgraph(fourbase, {v: fourbase.succ[v][0] for v in fourbase.odd_nodes()})
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
    sub = StrategySubgraph(g, {0: 1})
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


class _Rounds(Counters):
    """Keeps a copy of the labels after every ``_bf`` round."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def bf_round(self, values):
        self.seen.append(values.copy())


def test_bellman_ford_sandwich(worked, p32):
    sub = worked_sub(worked)
    mu = NodeLabeling.all_min(p32, worked.n)
    fix = naive_lfp(sub, mu, p32)
    nu = NodeLabeling.all_top(p32, worked.n)
    nu[D] = (0, 0)
    rounds = _Rounds()
    bellman_ford(sub, nu, rounds)
    seen = rounds.seen
    assert seen and rounds.bf_runs == 1
    for state in seen:
        for v in range(worked.n):
            assert mu[v] <= fix[v] <= state[v]


def test_region_engines_keep_labels_outside_inner():
    # on a region both engines return a labeling of the whole game whose
    # labels outside R are the input's own objects, and the last round of
    # the lc engine's final sweep is its answer; the inputs are the all-min
    # labeling and the previous subgraph's fixed point
    from treelift.game import Region

    class Last(Counters):
        last = None

        def bf_round(self, values):
            self.last = list(values) if isinstance(values, list) else None

    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        g = gen_random(rng.randint(4, 30), rng.randint(2, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        odd = g.odd_nodes()
        if not odd:
            continue
        spec = TreeSpec.perfect(g.n, g.d // 2)
        sub = StrategySubgraph(g, {v: g.succ[v][0] for v in odd})
        low = NodeLabeling.all_min(spec, g.n)
        fixed = least_fixed_point_perfect(sub, low, spec)
        # a pivot onto a violated arc keeps the fixed point a valid input
        adm = admissible_arcs(g, fixed)
        v, w = adm[0] if adm else (odd[0], g.succ[odd[0]][-1])
        region = Region(sub.switch({v: w}), [v])
        for mu in (low, fixed) if adm else (low,):
            for engine in (least_fixed_point_lc, least_fixed_point_perfect):
                seen = Last()
                out = engine(region, mu, spec, seen)
                assert len(out) == g.n
                assert all(out[v] is mu[v] for v in range(g.n) if v not in region.inner)
                # a non-TOP sink is a head of the final sweep: it has a round
                if engine is least_fixed_point_lc and \
                        any(mu[b] is not TOP for b in region.pinned):
                    assert seen.last == out.values
                    checked += 1
    assert checked > 30


def _sweep(values, arcs, priorities, spec):
    """Reference drop iteration: every arc in a fixed order, pass after pass
    until one changes nothing."""
    changed = True
    while changed:
        changed = False
        for v, w in arcs:
            t = tighten_target(spec, values[w], priorities[v])
            if t < values[v]:
                values[v] = t
                changed = True
    return values


def test_worklist_matches_sweep(monkeypatch):
    # threshold probes (w pinned to its member's minimum leaf, the rest TOP)
    # and every phase's final sweep from the seeded labeling
    finals = []
    real_bf = one_player.bellman_ford

    def capture(sub, labeling, counters=None):
        finals.append((sub, labeling.copy()))
        return real_bf(sub, labeling, counters)

    monkeypatch.setattr(one_player, "bellman_ford", capture)
    rng = random.Random(53)
    probes = 0
    for _ in range(25):
        g = gen_random(rng.randint(2, 40), rng.randint(2, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        sub = StrategySubgraph(g, {v: rng.choice(g.succ[v]) for v in g.odd_nodes()})
        report = find_base_nodes(sub)
        h = g.d // 2
        for spec in (TreeSpec.perfect(g.n, h), TreeSpec.succinct(g.n, h),
                     TreeSpec.strahler(max(1, min(h, g.n.bit_length() - 1)), g.n, h)):
            strategy_iteration_solve(g, spec, engine="lc", record_phases=False)
            for w in report.base_nodes:
                jn = sorted(report.j_nodes[w])
                arcs = sorted((u, x) for x, tails in report.j_in[w].items() for u in tails)
                j = g.priorities[w] // 2
                for k in trees.chain_indices(spec, j):
                    for i in range(trees.chain_length(spec, j, k)):
                        domain = trees.chain_member_spec(spec, j, k, i)
                        start = dict.fromkeys(jn, TOP)
                        start[w] = trees.min_leaf(domain)
                        got = dict(start)
                        lowered = _bf(got, report.j_in[w], g.priorities, domain, Counters(), [w])
                        assert set(lowered) == {u for u in jn if got[u] != start[u]}
                        assert got == _sweep(start, arcs, g.priorities, domain)
                        probes += 1
    assert probes > 500 and len(finals) > 100
    for sub, nu in finals:
        want = _sweep(list(nu.values), sorted(sub.arcs()), sub.priorities, nu.spec)
        assert real_bf(sub, nu).values == want


def test_bf_runs_pinned(monkeypatch):
    # the number of Bellman-Ford runs depends on the thresholds, not on the
    # order in which a run examines arcs: 183 here, as with a fixed-order sweep
    made = []

    class Recording(Counters):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(one_player, "Counters", Recording)
    g = gen_random(120, 6, 3, seed=11)
    res = strategy_iteration_solve(g, TreeSpec.strahler(3, g.n, 3), record_phases=False)
    assert res.phases == 5
    assert made[0].bf_runs == 183
    assert made[0].drops == res.drops


def test_bf_walk_longer_than_nodes():
    # a threshold probe on J_w (7 nodes) of this game whose fixed point needs
    # a 7-arc walk through the label-lowering cycle 0 -> 3 -> 0, one more
    # than nodes - 1; the worklist must run past that to an empty frontier
    spec = TreeSpec.perfect(10, 3)
    arcs = [(0, 0), (0, 3), (0, 7), (1, 1), (1, 3), (1, 6), (2, 4), (3, 0),
            (4, 1), (4, 7), (6, 0), (6, 6), (6, 7), (7, 2)]
    prio = gen_random(10, 8, 3, seed=667637309).priorities
    start = dict.fromkeys((0, 2, 3, 4, 6, 7), TOP)
    start[1] = (0, 0, 0)
    rounds = _Rounds()
    in_arcs = {}
    for v, w in sorted(arcs):
        in_arcs.setdefault(w, []).append(v)
    got = dict(start)
    _bf(got, dict(sorted(in_arcs.items())), prio, spec, rounds, [1])
    assert got == _sweep(dict(start), arcs, prio, spec)
    assert got[6] == (0, 0, 1) and len(rounds.seen) == 8


def test_arc_costs_worked_perfect(worked, p32):
    sub = worked_sub(worked)
    report = find_base_nodes(sub)
    costs = arc_costs_generic(sub, report, (D,), 2, 0, p32)
    assert costs == {(D, D): 0}


def test_arc_costs_even_cycle_succinct():
    # J_w that is a single all-even-priority cycle: the path member suffices
    g = parse_pgsolver("0 2 0 1; 1 2 0 0;")
    sub = StrategySubgraph(g, {})
    spec = TreeSpec.succinct(2, 1)
    report = find_base_nodes(sub)
    for w in report.base_nodes:
        for arc, c in arc_costs_succinct(sub, report, w, spec).items():
            assert c == 0


def test_arc_costs_succinct_matches_generic(fourbase):
    sub = StrategySubgraph(fourbase, {v: fourbase.succ[v][0] for v in fourbase.odd_nodes()})
    spec = TreeSpec.succinct(fourbase.n, fourbase.d // 2)
    report = find_base_nodes(sub)
    aux = build_auxiliary_digraph(sub, report)
    for comp in aux.components:
        j = fourbase.priorities[comp[0]] // 2
        generic = arc_costs_generic(sub, report, comp, j, 0, spec)
        succ = {}
        for w in comp:
            succ.update(arc_costs_succinct(sub, report, w, spec))
        assert generic == succ


def test_arc_costs_infeasible_is_inf():
    # every path back to the base crosses three odd-priority nodes in a row:
    # more strict increments than any chain member of the 3-leaf tree absorbs
    g = parse_pgsolver("0 2 0 1; 1 1 0 2; 2 1 0 3; 3 1 0 0;")
    sub = StrategySubgraph(g, {})
    spec = TreeSpec.succinct(2, 1)
    report = find_base_nodes(sub)
    costs = {}
    for w in report.base_nodes:
        costs.update(arc_costs_succinct(sub, report, w, spec))
    assert costs[(0, 0)] == inf
    generic = arc_costs_generic(sub, report, (0,), 1, 0, spec)
    assert generic[(0, 0)] == inf


def test_arc_cost_keys_are_aux_arcs():
    # both cost rules price exactly the auxiliary arcs: per base node w the
    # arcs into w, per component the arcs inside it
    rng = random.Random(23)
    for _ in range(40):
        g = gen_random(rng.randint(2, 12), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        tau = {v: rng.choice(g.succ[v]) for v in g.odd_nodes()}
        sub = StrategySubgraph(g, tau)
        report = find_base_nodes(sub)
        aux = build_auxiliary_digraph(sub, report)
        h = g.d // 2
        for w in report.base_nodes:
            costs = arc_costs_succinct(sub, report, w, TreeSpec.succinct(g.n, h))
            assert set(costs) == {(v, x) for v, x in aux.arcs if x == w}
        g_max = min(h, g.n.bit_length() - 1)
        for spec in (TreeSpec.perfect(g.n, h), TreeSpec.strahler(g_max, g.n, h)):
            for comp in aux.components:
                j = sub.priorities[comp[0]] // 2
                for k in trees.chain_indices(spec, j):
                    costs = arc_costs_generic(sub, report, comp, j, k, spec)
                    assert set(costs) == {(v, x) for v, x in aux.arcs if x in comp}


def test_min_bottleneck_examples():
    assert min_bottleneck_cycle_costs((0, 1, 2), {
        (0, 1): 0, (1, 0): 0, (1, 2): 0, (2, 1): 0}) == {0: 0, 1: 0, 2: 0}
    assert min_bottleneck_cycle_costs((0, 1), {(0, 1): 3, (1, 0): 1}) == {0: 3, 1: 3}
    assert min_bottleneck_cycle_costs((0,), {}) == {0: inf}
    assert min_bottleneck_cycle_costs((0,), {(0, 0): 2}) == {0: 2}


def test_min_bottleneck_random_vs_brute():
    # dense ids 0..n-1, then sparse ids from range(40) in arbitrary order,
    # as the engine passes real node ids of base nodes
    import networkx as nx

    rng = random.Random(17)
    for case in range(240):
        if case < 120:
            nodes, choices = tuple(range(rng.randint(1, 7))), [0, 1, 2, 3, inf]
        else:
            nodes = tuple(rng.sample(range(40), rng.randint(1, 7)))
            choices = [*range(9), inf]
        arcs = {}
        for v in nodes:
            for w in nodes:
                if rng.random() < 0.4:
                    arcs[(v, w)] = rng.choice(choices)
        got = min_bottleneck_cycle_costs(nodes, arcs)
        dig = nx.DiGraph(list(arcs))
        best = {v: inf for v in nodes}
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

    sub2 = StrategySubgraph(worked, {A: B, E: C})
    out2 = least_fixed_point_lc(sub2, out, p32)
    assert out2.values == [TOP, TOP, (1, 0), (0, 0), (1, 0)]


def test_lfp_lc_no_even_cycle(p32):
    g = parse_pgsolver("0 1 1 1; 1 3 0 0;")
    sub = StrategySubgraph(g, {0: 1})
    spec = TreeSpec.perfect(2, 2)
    out = least_fixed_point_lc(sub, NodeLabeling.all_min(spec, 2), spec)
    assert all(x is TOP for x in out.values)


def test_lfp_lc_rejects_loose(worked, p32):
    sub = worked_sub(worked)
    loose = NodeLabeling.all_min(p32, worked.n)
    loose[A] = (2, 2)  # above every target of A's arcs
    with pytest.raises(UsageError):
        least_fixed_point_lc(sub, loose, p32)


def test_lfp_perfect_rejects_loose(worked):
    p52 = TreeSpec.perfect(5, 2)
    sub = worked_sub(worked)
    loose = NodeLabeling.all_min(p52, worked.n)
    loose[A] = (2, 2)  # above every target of A's arcs
    with pytest.raises(UsageError, match="labeling has a loose arc 0->3"):
        least_fixed_point_perfect(sub, loose, p52)


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


def test_compute_phi_rejects_missing_base_nodes(worked):
    # C -> D -> E -> C is an even cycle (max priority 4) of the subgraph
    sub = worked_sub(worked)
    with pytest.raises(InvariantError, match="even cycle"):
        compute_phi(sub, ())
    compute_phi(sub, find_base_nodes(sub).base_nodes)


def test_compute_phi_even_cycle_check_matches_base_nodes():
    # compute_phi reads the even-cycle check off its own SCCs of H_p; it must
    # raise exactly when the repeated-SCC base-node search finds a base node
    rng = random.Random(2718)
    raised = 0
    for _ in range(2000):
        n = rng.randint(1, 12)
        prio = tuple(rng.randint(1, rng.randint(1, 8)) for _ in range(n))
        succ = tuple(tuple(sorted({rng.randrange(n) for _ in range(rng.randint(0, 3))}))
                     for _ in range(n))
        sub = SimpleNamespace(n=n, nodes=range(n), priorities=prio, succ=succ)
        base = list(_base_components(range(n), succ, prio))
        try:
            compute_phi(sub, ())
        except InvariantError:
            assert base
            raised += 1
        else:
            assert not base
        # blocking every base node breaks every even cycle
        compute_phi(sub, base)
    assert 500 < raised < 1500


def test_dijkstra_worked(worked, p32):
    # the label-setting engine needs capacity >= n; below it, UsageError
    p52 = TreeSpec.perfect(5, 2)
    sub = worked_sub(worked)
    nu = NodeLabeling.all_top(p52, worked.n)
    nu[D] = (0, 0)
    base = find_base_nodes(sub).base_nodes
    out = dijkstra(sub, nu, base)
    assert out.values == [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)]
    allt = dijkstra(sub, NodeLabeling.all_top(p52, worked.n), base)
    assert all(x is TOP for x in allt.values)
    small = NodeLabeling.all_top(p32, worked.n)
    small[D] = (0, 0)
    with pytest.raises(UsageError):
        dijkstra(sub, small, base)


def test_dijkstra_queues_only_dropped_labels(monkeypatch):
    # a node enters Dijkstra's queue only when its label drops, so no
    # potential is ever built for a TOP label
    real = one_player._potential
    built = []

    def finite_only(spec, phi, values, v, d):
        assert values[v] is not TOP
        built.append(v)
        return real(spec, phi, values, v, d)

    monkeypatch.setattr(one_player, "_potential", finite_only)
    rng = random.Random(515)
    tops = 0
    for i in range(60):
        g = gen_random(rng.randint(2, 30), rng.randint(1, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        spec = TreeSpec.perfect(g.n, max(g.d // 2, 1))
        rule = (SwitchAll(), SwitchFirst(), SwitchRandom(i))[i % 3]
        res = strategy_iteration_solve(g, spec, rule=rule, record_phases=False)
        tops += len(res.odd_wins)
    assert built and tops > 100


def test_lfp_perfect_worked(worked, p32):
    p52 = TreeSpec.perfect(5, 2)
    sub = worked_sub(worked)
    mu = NodeLabeling.all_min(p52, worked.n)
    out = least_fixed_point_perfect(sub, mu, p52)
    assert out.values == [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)]
    with pytest.raises(UsageError):
        least_fixed_point_perfect(sub, mu, TreeSpec.succinct(3, 2))
    with pytest.raises(UsageError):
        least_fixed_point_perfect(sub, NodeLabeling.all_min(p32, worked.n), p32)


def test_engines_agree_random():
    rng = random.Random(41)
    for _ in range(60):
        g = gen_random(rng.randint(2, 12), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        tau = {v: rng.choice(g.succ[v]) for v in g.odd_nodes()}
        sub = StrategySubgraph(g, tau)
        h = g.d // 2
        for spec in (TreeSpec.perfect(g.n, h), TreeSpec.succinct(g.n, h)):
            mu = NodeLabeling.all_min(spec, g.n)
            want = naive_lfp(sub, mu, spec)
            assert least_fixed_point_lc(sub, mu, spec) == want
            if spec.kind == trees.PERFECT:
                assert least_fixed_point_perfect(sub, mu, spec) == want


def test_engines_agree_every_phase(monkeypatch):
    # both engines return the same labeling on every phase of perfect-tree
    # solves at capacity n, whichever pivot rule produced the phase
    real = one_player.least_fixed_point_perfect
    phases = []

    def both(sub, mu, spec, counters=None):
        out = real(sub, mu, spec, counters)
        assert one_player.least_fixed_point_lc(sub, mu, spec) == out
        phases.append(1)
        return out

    monkeypatch.setattr(one_player, "least_fixed_point_perfect", both)
    rng = random.Random(606)
    for i in range(150):
        g = gen_random(rng.randint(2, 60), rng.randint(1, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        spec = TreeSpec.perfect(g.n, max(g.d // 2, 1))
        rule = (SwitchAll(), SwitchFirst(), SwitchRandom(i))[i % 3]
        strategy_iteration_solve(g, spec, rule=rule, engine="perfect", record_phases=False)
    assert len(phases) > 350


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
    rng = random.Random(77)
    for _ in range(25):
        g = gen_random(rng.randint(2, 8), rng.randint(1, 4), 3,
                       seed=rng.randint(0, 10 ** 9))
        tau = {v: rng.choice(g.succ[v]) for v in g.odd_nodes()}
        sub = StrategySubgraph(g, tau)
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
from treelift.game import StrategySubgraph, parse_pgsolver
from treelift.labeling import NodeLabeling
from treelift.trees import TreeSpec

if __debug__:
    sys.exit(3)
game = parse_pgsolver(sys.argv[1])
sub = StrategySubgraph(game, {0: 3, 4: 2})
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
