"""The SCC answers of the 1-player engines against networkx: Tarjan's
components, the layered split by priority, the base nodes' components
``k_comp``, the ranks ``phi`` and the regions a phase re-solves."""

import random
from types import SimpleNamespace

import networkx as nx
import pytest

from treelift.errors import InvariantError
from treelift.game import Region, StrategySubgraph, gen_random
from treelift.one_player import _layers, compute_phi, find_base_nodes, strongly_connected
from treelift.oracle import build_auxiliary_digraph

SEED = 90210


def _random_digraph(rng):
    """A small digraph with self-loops and priorities in [1, 8], in the shape
    of a strategy subgraph (``n``, ``nodes``, ``priorities``, ``succ``,
    ``pred``)."""
    n = rng.randint(1, 14)
    prio = tuple(rng.randint(1, rng.randint(1, 8)) for _ in range(n))
    succ = tuple(tuple(sorted({rng.randrange(n) for _ in range(rng.randint(0, 3))}))
                 for _ in range(n))
    pred = [[] for _ in range(n)]
    for v, outs in enumerate(succ):
        for w in outs:
            pred[w].append(v)
    return SimpleNamespace(n=n, nodes=range(n), priorities=prio, succ=succ,
                           pred=tuple(map(tuple, pred)))


def _graphs(count):
    """``count`` seeded graphs: half random digraphs, half strategy subgraphs
    of random games."""
    rng = random.Random(SEED)
    for i in range(count):
        if i % 2:
            yield _random_digraph(rng)
        else:
            g = gen_random(rng.randint(1, 14), rng.randint(1, 8), 3,
                           seed=rng.randint(0, 10 ** 9))
            yield StrategySubgraph(g, {v: rng.choice(g.succ[v]) for v in g.odd_nodes()})


def _digraph(nodes, succ):
    dig = nx.DiGraph()
    dig.add_nodes_from(nodes)
    dig.add_edges_from((v, w) for v in nodes for w in succ[v] if w in nodes)
    return dig


def _is_cyclic(dig, comp):
    return len(comp) > 1 or dig.has_edge(next(iter(comp)), next(iter(comp)))


def _scc_of(dig):
    """{node: its SCC as a frozenset} by networkx."""
    out = {}
    for comp in nx.strongly_connected_components(dig):
        comp = frozenset(comp)
        for v in comp:
            out[v] = comp
    return out


def test_strongly_connected_example_order():
    # Tarjan from node 0: the sink {3} first, then {1, 2} popped 2 before 1,
    # then {0}; node 4 is a later root
    succ = [[1], [2, 3], [1], [], [0]]
    assert strongly_connected(range(5), succ) == [
        ([3], False), ([2, 1], True), ([0], False), ([4], False)]
    # node 4 now enters node 5, whose self-loop makes it a cyclic component
    # of one node, popped before its acyclic parent
    succ = [[1], [2, 3], [1], [], [5, 0], [5]]
    assert strongly_connected(range(6), succ) == [
        ([3], False), ([2, 1], True), ([0], False), ([5], True), ([4], False)]


def test_strongly_connected_matches_networkx():
    rng = random.Random(SEED + 1)
    single_loops = outside_loops = 0
    for sub in _graphs(2000):
        nodes = [v for v in range(sub.n) if rng.random() < 0.8]
        rng.shuffle(nodes)
        keep = set(nodes)
        adj = {v: [w for w in sub.succ[v] if w in keep] for v in nodes}
        comps = strongly_connected(nodes, adj)
        # the full successor lists skip the heads outside ``nodes``: the same
        # components in the same order, with the same flags
        assert strongly_connected(nodes, sub.succ) == comps
        dig = _digraph(keep, sub.succ)
        assert sorted(sorted(comp) for comp, _ in comps) == sorted(
            map(sorted, nx.strongly_connected_components(dig)))
        # each component's flag is whether it holds a cycle
        for comp, cyclic in comps:
            assert cyclic == _is_cyclic(dig, comp)
            single_loops += cyclic and len(comp) == 1
        # a self-loop on a skipped head makes no member cyclic
        outside_loops += sum(1 for v in nodes for w in sub.succ[v]
                             if w not in keep and w in sub.succ[w])
        # sinks first: every arc leaves a component for one emitted no later
        position = {v: i for i, (comp, _) in enumerate(comps) for v in comp}
        for v, w in dig.edges:
            assert position[w] <= position[v]
    assert single_loops > 1000 and outside_loops > 300


def test_layers_match_networkx():
    # every level of the layered split is the SCCs of the nodes of priority
    # <= p, each with its cyclic flag and highest priority, sinks first
    rng = random.Random(SEED + 4)
    levels = 0
    for sub in _graphs(2000):
        prio = sub.priorities
        nodes = sorted(v for v in range(sub.n) if rng.random() < 0.9)
        if not nodes:
            continue
        top = max(prio)
        top += top % 2
        up_to = rng.choice([0, top + 2])
        got = list(_layers(nodes, sub.succ, prio, up_to))
        assert [p for p, _ in got] == list(range(max(top, up_to), 1, -2))
        for p, level in got:
            dig = _digraph({v for v in nodes if prio[v] <= p}, sub.succ)
            assert sorted(sorted(comp) for comp, _, _ in level) == sorted(
                map(sorted, nx.strongly_connected_components(dig)))
            position = {}
            for rank, (comp, cyclic, high) in enumerate(level):
                assert cyclic == _is_cyclic(dig, comp)
                assert high == max(prio[v] for v in comp)
                position.update(dict.fromkeys(comp, rank))
            for v, w in dig.edges:
                assert position[w] <= position[v]
            levels += 1
    assert levels > 4000


def literal_strongly_connected(nodes, succ):
    """The SCC routine as it stood before the shared Tarjan core, verbatim
    but for its name: the reference for the components' order, their
    members' order and their flags."""
    size = max(len(succ), max(nodes, default=-1) + 1)
    done = size + 1         # index of a non-member or of a node already in a component
    index = [done] * size   # DFS number from 1; 0 = unvisited member
    for v in nodes:
        index[v] = 0
    low = [0] * size
    stack, comps, loops = [], [], set()
    counter = 0
    for root in nodes:
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                iw = index[w]
                if not iw:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if iw < low[v]:  # on the stack: the others read `done`
                    low[v] = iw
                elif w == v:
                    loops.add(v)
            else:
                work.pop()
                lv = low[v]
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                if lv == index[v]:
                    w = stack.pop()
                    index[w] = done
                    if w == v:
                        comps.append(([v], v in loops))
                    else:
                        comp = [w]
                        while w != v:
                            w = stack.pop()
                            index[w] = done
                            comp.append(w)
                        comps.append((comp, True))
    return comps


def literal_layers(nodes, succ, prio, up_to=0):
    """The layered split as it stood before the shared Tarjan core, verbatim
    but for the name of the SCC routine it calls."""
    def sccs(group):
        return [(c, cyclic, max([prio[v] for v in c]) if cyclic else prio[c[0]])
                for c, cyclic in literal_strongly_connected(group, succ)]

    top = max(prio)
    level = sccs(nodes)
    for p in range(max(top + top % 2, up_to), 1, -2):
        split = []
        for comp, cyclic, high in level:
            if high <= p:
                split.append((comp, cyclic, high))
            elif len(comp) > 1:
                keep = [v for v in comp if prio[v] <= p]
                if keep:
                    split.extend(sccs(keep))
        level = split
        yield p, level


def test_split_keeps_the_literal_order():
    # phi ranks components in emission order, so both routines must return
    # exactly what the literal ones do: components, member order, flags, top
    # priorities and level order, on shuffled node subsets, list and dict
    # adjacency, heads outside ``nodes`` and H-style blanked lists
    rng = random.Random(SEED + 6)
    seen = dict.fromkeys(("dict", "restricted", "blanked", "outside", "loop", "up_to 0",
                          "above top"), 0)
    for sub in _graphs(2000):
        n, prio = sub.n, sub.priorities
        nodes = [v for v in range(n) if rng.random() < 0.85]
        rng.shuffle(nodes)
        keep = set(nodes)
        succ = list(sub.succ)
        if rng.random() < 0.3:  # H: some nodes lose all their out-arcs
            for v in rng.sample(range(n), rng.randint(1, n)):
                succ[v] = ()
            seen["blanked"] += 1
        shape = rng.randrange(3)
        if shape == 1:  # a dict with a key per node of the graph
            succ = dict(enumerate(succ))
            seen["dict"] += 1
        elif shape == 2:  # a dict restricted to ``nodes``
            succ = {v: [w for w in succ[v] if w in keep] for v in nodes}
            seen["restricted"] += 1
        seen["outside"] += any(w not in keep for v in nodes for w in succ[v])
        seen["loop"] += any(v in succ[v] for v in nodes)
        assert strongly_connected(nodes, succ) == literal_strongly_connected(nodes, succ)
        if shape == 2:
            continue  # the literal split sizes each pass by its subset: it needs a key per node
        top = max(prio)
        top += top % 2
        up_to = rng.choice([0, 0, top, top + 2, top + 6])
        seen["up_to 0"] += up_to == 0
        seen["above top"] += up_to > top
        assert list(_layers(nodes, succ, prio, up_to)) == \
            list(literal_layers(nodes, succ, prio, up_to))
    assert min(seen.values()) > 300, seen


def test_k_comp_is_scc_below_priority():
    seen = 0
    for sub in _graphs(2000):
        prio = sub.priorities
        report = find_base_nodes(sub)
        want = []
        for w in range(sub.n):
            low = _digraph({v for v in range(sub.n) if prio[v] <= prio[w]}, sub.succ)
            comp = _scc_of(low)[w]
            if prio[w] % 2 == 0 and _is_cyclic(low, comp):
                want.append(w)
                assert report.k_comp[w] == comp
                seen += 1
        # a base node dominates an even cycle: exactly the nodes checked above
        assert list(report.base_nodes) == want
    assert seen > 1000


def _check_phi(sub, base, phi, d):
    prio = sub.priorities
    blocked = set(base)
    hsucc = [() if v in blocked else sub.succ[v] for v in range(sub.n)]
    assert sorted(phi) == list(range(2, d + 1, 2))
    for p, val in phi.items():
        nodes = {v for v in range(sub.n) if prio[v] <= p}
        dig = _digraph(nodes, hsucc)
        comp_of = _scc_of(dig)
        for v in range(sub.n):
            assert (val[v] == 0) == (v not in nodes)
        # constant exactly on the SCCs of H_p
        for u in nodes:
            for v in nodes:
                assert (val[u] == val[v]) == (comp_of[u] == comp_of[v])
        # nonincreasing along the arcs of H_p
        for u, v in dig.edges:
            assert val[u] >= val[v]


def test_compute_phi_ranks_scc_of_each_h_p():
    rng = random.Random(SEED + 2)
    for sub in _graphs(2000):
        base = find_base_nodes(sub).base_nodes
        top = max(sub.priorities)
        top += top % 2
        up_to = rng.choice([None, top, top + 2, top + 4])
        d = top if up_to is None else max(top, up_to)
        _check_phi(sub, base, compute_phi(sub, base, up_to=up_to), d)


def test_compute_phi_raises_exactly_on_even_cycles():
    rng = random.Random(SEED + 3)
    raised = 0
    for sub in _graphs(2000):
        prio = sub.priorities
        blocked = {v for v in range(sub.n) if rng.random() < 0.2}
        hsucc = [() if v in blocked else sub.succ[v] for v in range(sub.n)]
        even_cycle = False
        for p in range(2, max(prio) + 1, 2):
            dig = _digraph({v for v in range(sub.n) if prio[v] <= p}, hsucc)
            for comp in nx.strongly_connected_components(dig):
                if _is_cyclic(dig, comp) and any(prio[v] == p for v in comp):
                    even_cycle = True
        if even_cycle:
            with pytest.raises(InvariantError, match="even cycle"):
                compute_phi(sub, sorted(blocked))
            raised += 1
        else:
            compute_phi(sub, sorted(blocked))
    assert 300 < raised < 1700


def _switched(count):
    """``count`` seeded (old subgraph, switches, new subgraph) triples of
    random games, each switching a random nonempty set of Odd nodes."""
    rng = random.Random(SEED + 4)
    made = 0
    while made < count:
        g = gen_random(rng.randint(2, 30), rng.randint(1, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        odd = g.odd_nodes()
        if not odd:
            continue
        old = StrategySubgraph(g, {v: rng.choice(g.succ[v]) for v in odd})
        switches = {v: rng.choice(g.succ[v])
                    for v in rng.sample(odd, rng.randint(1, min(3, len(odd))))}
        yield old, switches, old.switch(switches)
        made += 1


def test_region_structure():
    # R is the set of nodes that reach a switched node; the rest of the game
    # is closed under successors, and its base nodes, K and J_w are the
    # previous phase's; R's are the whole graph's; no auxiliary component
    # meets both sides
    outer_base = straddle_checked = 0
    for old, switches, new in _switched(600):
        region = Region(new, switches)
        dig = _digraph(set(range(new.n)), new.succ)
        want = set(switches).union(*(nx.ancestors(dig, v) for v in switches))
        assert region.inner == want
        inner = region.inner
        for v in range(new.n):
            if v not in inner:
                assert not inner.intersection(new.succ[v])
                assert new.succ[v] == old.succ[v]
        # the region's own graph, in game ids: R keeps its arcs, the boundary
        # is pinned, and no other node has an arc
        nodes = region.nodes
        assert list(nodes) == sorted(inner.union(*(new.succ[v] for v in inner)))
        assert list(region.pinned) == sorted(set(nodes) - inner)
        assert all(region.succ[b] == () for b in region.pinned)
        assert sorted(region.arcs()) == sorted((v, w) for v in inner for w in new.succ[v])
        assert all(region.pred[v] == () for v in range(new.n) if v not in nodes)
        # R shares the subgraph's lists; B keeps only its predecessors in R
        assert all(region.succ[v] is new.succ[v] and region.pred[v] is new.pred[v]
                   for v in inner)
        assert all(region.pred[b] == tuple(u for u in new.pred[b] if u in inner)
                   for b in region.pinned)
        whole, before = find_base_nodes(new), find_base_nodes(old)
        graph = lambda rep, w: (rep.k_comp[w], rep.j_nodes[w], rep.j_in[w])
        outside = [w for w in whole.base_nodes if w not in inner]
        assert outside == [w for w in before.base_nodes if w not in inner]
        for w in outside:
            assert graph(whole, w) == graph(before, w)
            outer_base += 1
        report = find_base_nodes(region)
        assert {w: graph(report, w) for w in report.base_nodes} == \
            {w: graph(whole, w) for w in whole.base_nodes if w in inner}
        for comp in build_auxiliary_digraph(new, whole).components:
            assert len({v in inner for v in comp}) == 1
            straddle_checked += 1
    assert outer_base > 200 and straddle_checked > 500


def _check_scaffolding(sub):
    """J_w, its tops and its in-arcs from their definitions, and the
    auxiliary components and ``report.components`` from the base nodes'
    shared components; returns the number of base nodes."""
    prio = sub.priorities
    report = find_base_nodes(sub)
    for w in report.base_nodes:
        K = report.k_comp[w]
        others = {v for v in K if prio[v] == prio[w]} - {w}
        # a path to w whose inner nodes avoid the other tops: its first node
        # is w, or reaches w in K without them, or is a top with an arc there
        inner = _digraph(K - others, sub.succ)
        reach = nx.ancestors(inner, w) | {w}
        want = reach | {v for v in others if reach.intersection(sub.succ[v])}
        assert report.j_nodes[w] == want
        assert report.j_tops[w] == {v for v in want if prio[v] == prio[w]}
        # J_w has every arc inside it except those into another top, by
        # head: every node of J_w is a head, each head's tails in order
        arcs = sorted((x, u) for u in want for x in sub.succ[u]
                      if x in want and x not in others)
        assert set(report.j_in[w]) == want
        assert all(report.j_in[w][v] == () for v in want & others)
        assert sorted((x, u) for x, tails in report.j_in[w].items() for u in tails) == arcs
        assert all(list(tails) == sorted(tails) for tails in report.j_in[w].values())
    groups = {}
    for w in report.base_nodes:
        groups.setdefault(id(report.k_comp[w]), []).append(w)
    assert build_auxiliary_digraph(sub, report).components == \
        tuple(sorted(map(tuple, groups.values())))
    assert report.components == build_auxiliary_digraph(sub, report).components
    return len(report.base_nodes)


def test_base_node_scaffolding_from_definition():
    seen = sum(_check_scaffolding(sub) for sub in _graphs(2000))
    seen_region = sum(_check_scaffolding(Region(new, switches))
                      for _, switches, new in _switched(600))
    assert seen > 1000 and seen_region > 300
