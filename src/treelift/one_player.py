"""Least fixed points of 1-player games for Even.

Two engines compute the least fixed point of the lift operators above a given
labeling ``mu`` on a strategy subgraph (no loose arcs allowed in the input):

* ``least_fixed_point_lc``: label-correcting.  Base nodes (dominators of even
  cycles) are seeded via minimum bottleneck cycles of an auxiliary digraph
  whose per-chain arc costs bracket the subtree width needed around each
  cycle.  The auxiliary digraph's components are the base nodes' own
  components, read off the base-node report.  Costs are chain positions, so
  the bottleneck search takes one SCC pass per distinct cost, at most
  L = floor(log2 capacity) + 1 of them, each adding that cost's arcs to the
  adjacency of the pass before.  Each cycle's width search runs on J_w, a
  view of the in-arc table that w's component builds once for all its base
  nodes, and probes the chain's member trees, which ``trees.chain_members``
  builds once per spec with their least leaves.  A probe starts its worklist
  at w alone and enters the nodes it made finite into the threshold table,
  so it costs its relaxations, one copy of J_w's all-TOP labels and one
  visit per node it made finite.  A worklist Bellman-Ford then drops all
  labels to the fixed point.
* ``least_fixed_point_perfect``: label-setting (Dijkstra with interlaced
  topological potentials); perfect trees of capacity at least n only.

Both start from one layered SCC split by priority, ``_layers``: for each
even p from the top down, the SCCs among the nodes of priority <= p.  Its
cyclic components give the base nodes, and its levels over the graph
without the base nodes' out-arcs give the topological index phi of the
label-setting engine's potentials.  Tarjan's DFS (``strongly_connected``)
reports each component's cyclicity as it pops it, and an acyclic
component is a single node whose top priority is its own priority, so
the split rescans only cyclic components, for their top priority.

Both also run on a ``game.Region`` of a strategy subgraph, in the game's
node ids: they work on its ``nodes``, keep the input labels of its
``pinned`` boundary nodes (sinks) and return a labeling of the whole game
that equals the input outside its ``inner`` nodes.

Both, and the public pieces they are built from, take an optional
``counters``: the ``Counters`` observer they tally into and report their
stages to (a fresh one when none is given).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import groupby
from math import inf
from operator import itemgetter

from . import trees
from .errors import InvariantError, UsageError
from .labeling import NodeLabeling
from .trees import TOP, TreeSpec, tighten_target

INF = inf


@dataclass
class Counters:
    """Observer of a solve: tallies label operations, and is told of the
    solve's stages through hooks that a subclass may override (each a no-op
    here).  The solver builds one per solve unless it is handed one; the
    engines' helpers always receive one."""

    drops: int = 0
    bf_runs: int = 0

    def bf_round(self, values):
        """After each round of ``_bf``, with the labels as they stand then
        (later rounds keep mutating ``values``), keyed by node id."""

    def aux_costs(self, sub, tables):
        """Once per label-correcting phase, before its final Bellman-Ford:
        the subgraph the engine solves and its auxiliary-digraph cost dicts
        {(v, w): cost}, one per (component, chain), components in increasing
        order of their least node and each component's chains in order;
        empty without base nodes.  On a ``game.Region`` they cover only the
        components inside ``sub.inner``."""

    def phase(self, sub, before, after):
        """Once per phase of a solve, right after the engine returns and
        before the solver's checks: the strategy subgraph, the engine's input
        labeling and its output."""


# ---------------------------------------------------------------------------
# strongly connected components (iterative Tarjan, reverse topological order)
# ---------------------------------------------------------------------------


def strongly_connected(nodes, succ):
    """SCCs of the digraph on ``nodes`` (a sequence of small non-negative
    ints) with arcs ``v -> w`` for ``w`` in ``succ[v]`` that lie in
    ``nodes``: heads outside it are skipped, so callers pass the full
    successor lists (a list, or a dict with a key per node).  Components are
    emitted in reverse topological order of the condensation (sinks first),
    each as (comp, cyclic): its nodes in the order the stack pops them, and
    whether it holds a cycle, i.e. has two or more nodes or a self-loop,
    which the DFS sees as an arc scan meeting ``w == v``."""
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


def _layers(nodes, succ, prio, up_to=0):
    """For each even p from max(top, ``up_to``) down to 2, where top is the
    largest priority rounded up to even: p and the SCCs of the digraph on the
    ``nodes`` of priority <= p (arcs as for ``strongly_connected``), each as
    (comp, cyclic, high) in rank order, sinks first, where high is the
    largest priority in comp.

    The first level is one SCC pass over ``nodes``.  Each later one keeps,
    in place, each component with high <= p, drops each single node above
    p, and splits each other component by one SCC pass over its nodes of
    priority <= p, so no kept or dropped component is scanned.  Every cycle
    and every path of a level is one of the level above, so the order stays
    topological.  An acyclic component is a single node, whose top priority
    is its own; only cyclic components are scanned for theirs."""
    def sccs(group):
        return [(c, cyclic, max([prio[v] for v in c]) if cyclic else prio[c[0]])
                for c, cyclic in strongly_connected(group, succ)]

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


# ---------------------------------------------------------------------------
# base nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseNodeReport:
    """Base nodes of a strategy subgraph with their search scaffolding.

    ``k_comp[w]`` is the SCC of w among nodes of priority <= pi(w).  Its tops,
    its nodes of priority pi(w), are the base nodes that share it, as one
    object; ``components`` lists those groups, each in increasing order, by
    their least node.  J_w is the part of it that w's width search runs on:
    ``j_nodes[w]`` holds the nodes with a path to w whose inner nodes avoid
    the other tops, ``j_tops[w]`` the tops among them, and ``j_in[w]`` J_w's
    arcs (those between its nodes that enter no other top) by head:
    {head: ((tail, pi(tail)), ...)}, heads and each head's tails in
    increasing order.  Those tuples are the component's in-arc table's own,
    shared by all its base nodes."""

    base_nodes: tuple
    k_comp: dict = field(compare=False)
    j_nodes: dict = field(compare=False)
    j_in: dict = field(compare=False)
    j_tops: dict = field(compare=False)
    components: tuple = field(compare=False)


def _base_components(nodes, succ, priorities):
    """Base nodes, {w: K} in increasing order of w: for each even p, the
    nodes of priority p in each cyclic SCC K of the digraph on the nodes of
    priority <= p (one ``_layers`` split).  The tops of one K share it as
    one list."""
    found = {}
    for p, level in _layers(nodes, succ, priorities):
        for comp, cyclic, high in level:
            if cyclic and high == p:
                for v in comp:
                    if priorities[v] == p:
                        found[v] = comp
    return dict(sorted(found.items()))


def find_base_nodes(sub) -> BaseNodeReport:
    """Detect all dominators of even cycles by one layered SCC split and
    build, for each, the subgraph its width search runs on.

    The base nodes of one component are its tops; its member set, top set
    and in-arc table are built once, and each J_w is the reverse search from
    w over that table that does not expand the other tops, collecting the
    tops it meets."""
    prio, pred = sub.priorities, sub.pred
    k_comp, j_nodes, j_in, j_tops = {}, {}, {}, {}
    shared = {}  # id(K) -> (members, tops, in-arc table, base nodes)
    for w, K in _base_components(sub.nodes, sub.succ, prio).items():
        if id(K) not in shared:
            members = frozenset(K)
            shared[id(K)] = (members, frozenset(v for v in K if prio[v] == prio[w]),
                             {x: tuple([(u, prio[u]) for u in pred[x] if u in members])
                              for x in K}, [])
        members, tops, table, group = shared[id(K)]
        group.append(w)
        reach, stack, met = {w}, [w], [w]
        while stack:
            for u, _ in table[stack.pop()]:
                if u not in reach:
                    reach.add(u)
                    if u in tops:  # another top joins J_w, its in-arcs do not
                        met.append(u)
                    else:
                        stack.append(u)
        k_comp[w] = members
        j_nodes[w] = frozenset(reach)
        j_tops[w] = frozenset(met)
        j_in[w] = {x: table[x] for x in sorted(reach) if x == w or x not in tops}
    components = tuple(sorted(tuple(group) for *_, group in shared.values()))
    return BaseNodeReport(tuple(k_comp), k_comp, j_nodes, j_in, j_tops, components)


# ---------------------------------------------------------------------------
# Bellman-Ford
# ---------------------------------------------------------------------------


def _bf(values, in_arcs, spec, counters, heads):
    """Drop tail labels over the arcs ``in_arcs`` lists ({head: [(tail,
    priority of tail), ...]}, heads and tails in increasing order) to the
    greatest fixed point below ``values`` (mutated) with a round-based
    FIFO worklist: round one examines the in-arcs of ``heads``, which must
    be every head whose label is not TOP, in increasing order; each later
    round only the in-arcs of the tails that dropped in the round before, in
    first-drop order.  Drop is monotone in the head label, so any fair order
    reaches the fixed point of the fixed-order sweep over every arc.  Every
    write strictly lowers a label in a finite tree, so the frontier empties.
    Each call counts one run in ``counters.bf_runs``.  Returns the nodes
    whose labels dropped, each once, in first-drop order."""
    counters.bf_runs += 1
    frontier, lowered = heads, {}
    drops = 0
    while frontier:
        dropped = {}
        for w in frontier:
            head = values[w]
            for v, p in in_arcs.get(w, ()):
                t = tighten_target(spec, head, p)
                cur = values[v]
                # TOP's comparisons are Python calls: TOP is decided by identity
                if t is not TOP and (cur is TOP or t < cur):
                    values[v] = t
                    dropped[v] = None
                    drops += 1
        counters.bf_round(values)
        lowered.update(dropped)
        frontier = dropped
    counters.drops += drops
    return lowered


def bellman_ford(sub, labeling: NodeLabeling, counters=None) -> NodeLabeling:
    """Drop every label of the strategy subgraph to the greatest fixed point
    below ``labeling`` with the worklist of ``_bf``: each round examines only
    the in-arcs of the labels that dropped in the round before."""
    out, prio = labeling.copy(), sub.priorities
    values = out.values
    in_arcs = {x: [(u, prio[u]) for u in sub.pred[x]] for x in sub.nodes}
    _bf(values, in_arcs, out.spec, counters or Counters(),
        [x for x in in_arcs if values[x] is not TOP])
    return out


# ---------------------------------------------------------------------------
# arc costs
# ---------------------------------------------------------------------------


def _probe(values, report, w, member, counters):
    """Bellman-Ford on J_w in a chain member tree, given as (member spec,
    least leaf): ``values`` (mutated) holds J_w's nodes at TOP, w is pinned to
    the least leaf and is the only head of round one.  Returns the nodes that
    turned finite."""
    domain, least = member
    values[w] = least
    return _bf(values, report.j_in[w], domain, counters, (w,))


def _thresholds(report, w, members, counters):
    """Per node u of J_w, the smallest chain position i whose member tree
    admits a finite drop fixed point at u when w is pinned to that member's
    least leaf; INF when even the largest member fails.  ``members`` is the
    chain, as ``trees.chain_members`` gives it.

    Members are probed in increasing order until every node is finite, so
    the number of Bellman-Ford probes is one more than the largest finite
    threshold (the whole chain length when some threshold is INF).  Each
    probe enters the nodes it made finite that have no threshold yet."""
    nodes = report.j_nodes[w]
    tops = dict.fromkeys(nodes, TOP)
    out = {w: 0}  # pinned to the least leaf, w is finite from the first probe and never drops
    for i, member in enumerate(members):
        for u in _probe(tops.copy(), report, w, member, counters):
            if u not in out:
                out[u] = i
        if len(out) == len(nodes):
            return out
    return dict.fromkeys(nodes, INF) | out


def _arc_costs(sub, report, w, theta):
    """The auxiliary arcs (v, w) for the tops v of J_w (w itself only when it
    keeps an out-arc there), each costing the least ``theta`` over v's
    out-neighbours in J_w: its successors in ``sub`` that are in J_w (so in
    K) and are w or not a top."""
    nodes, tops, succ = report.j_nodes[w], report.j_tops[w], sub.succ
    costs = {}
    for v in sorted(tops):
        outs = [x for x in succ[v] if x in nodes and (x == w or x not in tops)]
        if v != w or outs:
            costs[(v, w)] = min(map(theta, outs), default=INF)
    return costs


def arc_costs_generic(sub, report, comp, j, k, spec, counters=None):
    """Chain-k costs for the auxiliary arcs inside one component, via the
    threshold search of the label-correcting algorithm.  Satisfies the
    width-bracketing bounds by construction."""
    counters = counters or Counters()
    members = trees.chain_members(spec, j, k)
    costs = {}
    for w in comp:
        theta = _thresholds(report, w, members, counters)
        costs.update(_arc_costs(sub, report, w, theta.__getitem__))
    return costs


def arc_costs_succinct(sub, report, w, spec, counters=None):
    """Succinct-tree shortcut: one Bellman-Ford run on J_w with the full
    height-j member, then cost = bits - max zeta over the tail's out-neighbours
    (INF when all of them stay TOP)."""
    if spec.kind != trees.SUCCINCT:
        raise UsageError("arc_costs_succinct requires a succinct tree spec")
    B = spec.bits
    member = trees.chain_members(spec, sub.priorities[w] // 2, 0)[B]
    values = dict.fromkeys(report.j_nodes[w], TOP)
    _probe(values, report, w, member, counters or Counters())
    return _arc_costs(sub, report, w, lambda u: INF if values[u] is TOP
                      else B - trees.zeta(member[0], values[u]))


# ---------------------------------------------------------------------------
# minimum bottleneck cycles
# ---------------------------------------------------------------------------


def min_bottleneck_cycle_costs(comp, costs):
    """For every node of a component: the minimum over cycles through it of
    the maximum arc cost (INF when no finite-cost cycle exists).

    One SCC pass per distinct finite cost c, in increasing order, over the
    arcs costing at most c: the nodes of its cyclic SCCs that have no value
    yet get c.  The arcs are sorted by cost once, and each pass first adds
    the arcs costing c to the adjacency of the pass before; the passes stop
    at the INF arcs or once every node has a value.  Costs are chain
    positions, so there are at most floor(log2 capacity) + 1 passes."""
    result, left = dict.fromkeys(comp, INF), len(comp)
    adj = {v: [] for v in comp}
    for c, arcs in groupby(sorted(costs.items(), key=itemgetter(1)), key=itemgetter(1)):
        if c == INF:
            break
        for (v, w), _ in arcs:
            adj[v].append(w)
        for K, cyclic in strongly_connected(comp, adj):
            if cyclic:
                for v in K:
                    if result[v] is INF:
                        result[v] = c
                        left -= 1
        if not left:
            break
    return result


# ---------------------------------------------------------------------------
# label-correcting engine
# ---------------------------------------------------------------------------


def require_no_loose(sub, mu: NodeLabeling) -> None:
    """Raise ``UsageError`` at the first arc of ``sub`` (in tail, then
    successor order) whose tail label is above its tight value."""
    spec, values, prio, succ = mu.spec, mu.values, sub.priorities, sub.succ
    for v in sub.nodes:
        p, lab = prio[v], values[v]
        for w in succ[v]:
            # arc_status's comparisons, inlined: the call and the enum would
            # cost more than the check itself
            target = tighten_target(spec, values[w], p)
            if not (lab is target or lab == target or lab < target):
                raise UsageError(f"labeling has a loose arc {v}->{w}")


def least_fixed_point_lc(sub, mu: NodeLabeling, spec: TreeSpec,
                         counters=None) -> NodeLabeling:
    """Label-correcting least fixed point above ``mu`` (which must have no
    loose arcs in the subgraph).  Only the ``inner`` nodes of ``sub`` move:
    the rest, its ``pinned`` sinks among them, keep their labels from
    ``mu``."""
    counters = counters or Counters()
    require_no_loose(sub, mu)
    report = find_base_nodes(sub)
    nu = mu.copy()
    for v in sub.inner:
        nu[v] = TOP
    tables = []
    for comp in report.components:
        j = sub.priorities[comp[0]] // 2
        per_node = {w: [] for w in comp}
        for k in trees.chain_indices(spec, j):
            if spec.kind == trees.SUCCINCT:
                costs = {}
                for w in comp:
                    costs.update(arc_costs_succinct(sub, report, w, spec, counters))
            else:
                costs = arc_costs_generic(sub, report, comp, j, k, spec, counters)
            tables.append(costs)
            ik = min_bottleneck_cycle_costs(comp, costs)
            for w in comp:
                per_node[w].append((k, ik[w]))
        for w in comp:
            if mu[w] is TOP:
                continue
            finite = [(k, i) for k, i in per_node[w] if i is not INF]
            if any(i == 0 for _, i in finite) and not all(i == 0 for _, i in finite):
                raise InvariantError("zero-cost cycle must be zero for all chains")
            best = TOP
            for k, i in finite:
                if i == 0:  # the raise at position 0, for every chain
                    best = min(best, trees.floor_leaf(spec, mu[w], j))
                else:
                    best = min(best, trees.raise_leaf(spec, mu[w], int(i), j, k))
            nu[w] = best
    counters.aux_costs(sub, tables)
    out = bellman_ford(sub, nu, counters)
    if not mu.leq(out):
        raise InvariantError("fixed point fell below the input labeling")
    return out


# ---------------------------------------------------------------------------
# label-setting engine (Dijkstra)
# ---------------------------------------------------------------------------


def compute_phi(sub, base_nodes, up_to=None):
    """Per even priority p: a topological index on H_p (H = the subgraph with
    all out-arcs of ``base_nodes`` removed, H_p its nodes of priority <= p):
    0 above priority p, otherwise constant exactly on SCCs and nonincreasing
    along reachability.  phi[p] is the rank of each node's SCC in H_p's
    ``_layers`` level.

    H has an even cycle exactly when some node of an even priority p lies on
    a cycle of H_p, i.e. in a cyclic SCC of H_p; that raises
    ``InvariantError`` (too few base nodes were given)."""
    n = sub.n
    prio = sub.priorities
    blocked = set(base_nodes)
    hsucc = [(() if v in blocked else sub.succ[v]) for v in range(n)]
    phi = {}
    for p, level in _layers(sub.nodes, hsucc, prio, up_to or 0):
        val = [0] * n
        for rank, (comp, cyclic, high) in enumerate(level, start=1):
            for v in comp:
                val[v] = rank
            if cyclic and high == p:
                raise InvariantError("H still contains an even cycle")
        phi[p] = val
    return dict(sorted(phi.items()))


def _potential(spec, phi, values, v, d):
    leaf = values[v]
    parts = []
    for t in range(spec.height):
        parts.append(phi[d - 2 * t][v])
        parts.append(leaf[t])
    return tuple(parts)


def dijkstra(sub, nu: NodeLabeling, base_nodes, counters=None) -> NodeLabeling:
    """Label-setting sweep: fixes the labels of ``base_nodes`` (all base nodes
    of ``sub``) and of the ``pinned`` nodes of ``sub`` from ``nu``, starts
    every other node at TOP, and drops the incoming arcs of each fixed node.
    A node enters the queue, keyed by its interlaced potential, only when
    its label drops; the node of minimum potential is admitted and drops its
    own incoming arcs.  Returns the pointwise minimal labeling feasible in H
    that agrees with ``nu`` on the fixed nodes and outside ``sub.nodes``.
    Exact only for a tree capacity of at least the number of nodes of the
    game, so a smaller capacity raises ``UsageError``."""
    spec = nu.spec
    n = sub.n
    if spec.capacity < n:
        raise UsageError(f"the label-setting engine requires tree capacity >= n = {n}")
    counters = counters or Counters()
    prio, pred = sub.priorities, sub.pred
    S = set(base_nodes).union(sub.pinned)
    values = list(nu.values)
    for v in sub.nodes:
        if v not in S:
            values[v] = TOP
    d = 2 * spec.height
    phi = compute_phi(sub, base_nodes, up_to=d)
    heap, current = [], {}
    drops = 0

    def relax(u):
        nonlocal drops
        head = values[u]
        for v in pred[u]:
            if v not in S:
                t = tighten_target(spec, head, prio[v])
                if t < values[v]:
                    values[v] = t
                    drops += 1
                    pot = current[v] = _potential(spec, phi, values, v, d)
                    heapq.heappush(heap, (pot, v))

    for w in sorted(S):
        relax(w)
    last_pot = None
    while heap:
        pot, u = heapq.heappop(heap)
        if u in S or current[u] != pot:
            continue
        if last_pot is not None and pot < last_pot:
            raise InvariantError("dijkstra admitted a decreasing potential")
        last_pot = pot
        S.add(u)
        relax(u)
    counters.drops += drops
    return NodeLabeling(spec, values)


def least_fixed_point_perfect(sub, mu: NodeLabeling, spec: TreeSpec,
                              counters=None) -> NodeLabeling:
    """Label-setting least fixed point for perfect trees: lift once at every
    base node whose out-arcs are all violated, then run Dijkstra.  Only the
    ``inner`` nodes of ``sub`` move: the rest, its ``pinned`` sinks among
    them, keep their labels from ``mu``.  Exact only when the tree's capacity
    is at least the number of nodes of the game, so ``dijkstra`` raises
    ``UsageError`` below that; use ``least_fixed_point_lc`` there."""
    if spec.kind != trees.PERFECT:
        raise UsageError("least_fixed_point_perfect requires a perfect tree")
    require_no_loose(sub, mu)
    base = list(_base_components(sub.nodes, sub.succ, sub.priorities))
    mu2 = mu.copy()
    for v in base:
        # labels, TOP included, are totally ordered: every out-arc is violated
        # exactly when the least target is above v's label
        target = min(tighten_target(spec, mu2[w], sub.priorities[v]) for w in sub.succ[v])
        if mu2[v] < target:
            mu2[v] = target
    out = dijkstra(sub, mu2, base, counters)
    if not mu.leq(out):
        raise InvariantError("fixed point fell below the input labeling")
    return out
