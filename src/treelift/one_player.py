"""Least fixed points of 1-player games for Even.

Two engines compute the least fixed point of the lift operators above a given
labeling ``mu`` on a strategy subgraph (no loose arcs allowed in the input):

* ``least_fixed_point_lc``: label-correcting.  Base nodes (dominators of even
  cycles) are seeded via minimum bottleneck cycles of an auxiliary digraph
  whose per-chain arc costs bracket the subtree width needed around each
  cycle; a worklist Bellman-Ford then drops all labels to the fixed point.
* ``least_fixed_point_perfect``: label-setting (Dijkstra with interlaced
  topological potentials); perfect trees of capacity at least n only.

Both, and the public pieces they are built from, take an optional
``counters``: the ``Counters`` observer they tally into and report their
stages to (a fresh one when none is given).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import inf

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
        (later rounds keep mutating ``values``)."""

    def aux_costs(self, tables):
        """Once per label-correcting phase, before its final Bellman-Ford:
        the auxiliary-digraph cost dicts {(v, w): cost}, one per (component,
        chain) in the order the engine computed them; empty without base
        nodes."""

    def phase(self, sub, before, after):
        """Once per phase of a solve, right after the engine returns and
        before the solver's checks: the strategy subgraph, the engine's input
        labeling and its output."""


# ---------------------------------------------------------------------------
# strongly connected components (iterative Tarjan, reverse topological order)
# ---------------------------------------------------------------------------


def strongly_connected(nodes, succ):
    """SCCs of the digraph on ``nodes`` (a sequence of small non-negative
    ints) with arcs ``v -> w`` for ``w`` in ``succ[v]``.  Every listed head
    must lie in ``nodes``: callers pass adjacency lists already restricted to
    the subgraph.  Components are emitted in reverse topological order of the
    condensation (sinks first), each in the order the stack pops it."""
    size = max(nodes, default=-1) + 1
    index = [0] * size      # DFS number from 1; 0 = unvisited
    low = [0] * size
    done = size + 1         # index of a node already in a component
    stack, comps = [], []
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
                if iw < low[v]:  # on the stack: finished nodes read `done`
                    low[v] = iw
            else:
                work.pop()
                lv = low[v]
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                if lv == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _induced_sccs(nodes, succ):
    """``strongly_connected`` on the subgraph of ``succ`` induced by ``nodes``."""
    keep = set(nodes)
    return strongly_connected(nodes, {v: [w for w in succ[v] if w in keep] for v in nodes})


# ---------------------------------------------------------------------------
# base nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseNodeReport:
    """Base nodes of a strategy subgraph with their search scaffolding:
    ``k_comp[w]`` is the SCC of w among nodes of priority <= pi(w), ``j_nodes``
    the nodes that reach w inside it without crossing another dominator, and
    ``j_succ`` the arc lists of that subgraph."""

    base_nodes: tuple
    k_comp: dict = field(compare=False)
    j_nodes: dict = field(compare=False)
    j_succ: dict = field(compare=False)
    j_tops: dict = field(compare=False)


def _base_components(n, succ, priorities):
    """Base nodes by repeated SCC decomposition: the tops (nodes of maximum
    priority) of every SCC are removed, and only the survivors of a
    nontrivial SCC are decomposed again, each group on its own.  A base node
    is a top of a cyclic SCC whose maximum priority is even.

    Returns {w: K} in increasing order of w, where K is the SCC in which w was
    removed.  K is w's SCC among the nodes of priority <= pi(w): that SCC is
    strongly connected with no node above pi(w), so every decomposition keeps
    it inside one SCC and removes none of its nodes before w is a top."""
    found = {}
    groups = [range(n)]
    while groups:
        for comp in _induced_sccs(groups.pop(), succ):
            if len(comp) == 1:
                v = comp[0]
                if priorities[v] % 2 == 0 and v in succ[v]:
                    found[v] = comp
                continue
            p = max(priorities[v] for v in comp)
            rest = [v for v in comp if priorities[v] != p]
            if p % 2 == 0:
                for v in comp:
                    if priorities[v] == p:
                        found[v] = comp
            if rest:
                groups.append(rest)
    return dict(sorted(found.items()))


def find_base_nodes(sub) -> BaseNodeReport:
    """Detect all dominators of even cycles by repeated SCC decomposition and
    build, for each, the subgraph its width search runs on.

    ``k_comp[w]``, w's SCC among nodes of priority <= pi(w), is the component
    in which the decomposition removes w as a top, so it costs no further
    SCC pass."""
    prio = sub.priorities
    comps = _base_components(sub.n, sub.succ, prio)
    frozen = {id(K): frozenset(K) for K in comps.values()}  # one per component
    k_comp = {w: frozen[id(K)] for w, K in comps.items()}
    base = list(k_comp)

    j_nodes, j_succ, j_tops = {}, {}, {}
    for w in base:
        K = k_comp[w]
        others = {v for v in K if prio[v] == prio[w]} - {w}
        reach = {w}
        stack = [w]
        while stack:
            x = stack.pop()
            if x in others:
                continue  # incoming arcs of other dominators are deleted
            for u in sub.pred[x]:
                if u in K and u not in reach:
                    reach.add(u)
                    stack.append(u)
        adj = {
            u: tuple(x for x in sub.succ[u] if x in reach and x not in others)
            for u in sorted(reach)
        }
        j_nodes[w] = frozenset(reach)
        j_succ[w] = adj
        j_tops[w] = frozenset(v for v in reach if prio[v] == prio[w])
    return BaseNodeReport(tuple(base), k_comp, j_nodes, j_succ, j_tops)


@dataclass(frozen=True)
class AuxiliaryDigraph:
    """Digraph on base nodes: arc vw when v dominates J_w, self-loop ww when
    w keeps an outgoing arc in J_w.  Components are strongly connected."""

    nodes: tuple
    arcs: frozenset
    components: tuple


def build_auxiliary_digraph(sub, report: BaseNodeReport) -> AuxiliaryDigraph:
    arcs = set()
    for w in report.base_nodes:
        for v in report.j_tops[w]:
            if v != w:
                arcs.add((v, w))
            elif report.j_succ[w][w]:
                arcs.add((w, w))
    adj = {v: [] for v in report.base_nodes}
    for v, w in arcs:
        adj[v].append(w)
    comps = strongly_connected(report.base_nodes, adj)
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    for v, w in arcs:
        if comp_of[v] != comp_of[w]:
            raise InvariantError("auxiliary digraph component not strongly connected")
    components = tuple(tuple(sorted(c)) for c in sorted(comps, key=min))
    return AuxiliaryDigraph(tuple(report.base_nodes), frozenset(arcs), components)


# ---------------------------------------------------------------------------
# Bellman-Ford
# ---------------------------------------------------------------------------


def _in_arcs(adjacency, priorities):
    """{head: [(tail, priority of tail), ...]} for ``_bf`` from (tail, heads)
    pairs in increasing tail order: heads in increasing order, each head's
    tails in increasing order, as in a sorted arc list."""
    out = {}
    for v, heads in adjacency:
        entry = (v, priorities[v])
        for w in heads:
            if w in out:
                out[w].append(entry)
            else:
                out[w] = [entry]
    return {w: out[w] for w in sorted(out)}


def _bf(values, in_arcs, spec, counters):
    """Drop tail labels over the arcs ``in_arcs`` lists (see ``_in_arcs``) to
    the greatest fixed point below ``values`` (mutated) with a round-based
    FIFO worklist: round one examines the in-arcs of every non-TOP head in
    increasing order, each later round only the in-arcs of the tails that
    dropped in the round before, in first-drop order.  Drop is monotone in
    the head label, so any fair order reaches the fixed point of the
    fixed-order sweep over every arc.  Every write strictly lowers a label in
    a finite tree, so the frontier empties.  Each call counts one run in
    ``counters.bf_runs``."""
    counters.bf_runs += 1
    frontier = [w for w in in_arcs if values[w] is not TOP]
    drops = 0
    while frontier:
        dropped = {}
        for w in frontier:
            head = values[w]
            for v, p in in_arcs.get(w, ()):
                t = tighten_target(spec, head, p)
                if t < values[v]:
                    values[v] = t
                    dropped[v] = None
                    drops += 1
        counters.bf_round(values)
        frontier = dropped
    counters.drops += drops
    return values


def bellman_ford(sub, labeling: NodeLabeling, counters=None) -> NodeLabeling:
    """Drop every label of the strategy subgraph to the greatest fixed point
    below ``labeling`` with the worklist of ``_bf``: each round examines only
    the in-arcs of the labels that dropped in the round before."""
    out = labeling.copy()
    _bf(out.values, _in_arcs(enumerate(sub.succ), sub.priorities), out.spec,
        counters or Counters())
    return out


# ---------------------------------------------------------------------------
# arc costs
# ---------------------------------------------------------------------------


def _thresholds(report, w, j, k, spec, prio, counters):
    """Per node u of J_w, the smallest chain position i whose member tree
    admits a finite drop fixed point at u when w is pinned to that member's
    minimum leaf; INF when even the largest member fails.

    Members are probed in increasing order until every node is finite, so
    the number of Bellman-Ford probes is one more than the largest finite
    threshold (the whole chain length when some threshold is INF)."""
    jn = sorted(report.j_nodes[w])
    in_arcs = _in_arcs(report.j_succ[w].items(), prio)
    out = dict.fromkeys(jn, INF)
    pending = set(jn)
    for i in range(trees.chain_length(spec, j, k)):
        if not pending:
            break
        domain = trees.chain_member_spec(spec, j, k, i)
        values = {u: TOP for u in jn}
        values[w] = trees.min_leaf(domain)
        _bf(values, in_arcs, domain, counters)
        fin = {u for u in pending if values[u] is not TOP}
        for u in fin:
            out[u] = i
        pending -= fin
    return out


def arc_costs_generic(sub, report, comp, j, k, spec, counters=None):
    """Chain-k costs for the auxiliary arcs inside one component, via the
    threshold search of the label-correcting algorithm.  Satisfies the
    width-bracketing bounds by construction."""
    counters = counters or Counters()
    costs = {}
    for w in comp:
        theta = _thresholds(report, w, j, k, spec, sub.priorities, counters)
        for v in sorted(report.j_tops[w]):
            outs = report.j_succ[w][v]
            if v == w and not outs:
                continue
            costs[(v, w)] = min((theta[u] for u in outs), default=INF)
    return costs


def arc_costs_succinct(sub, report, aux: AuxiliaryDigraph, w, spec, counters=None):
    """Succinct-tree shortcut: one Bellman-Ford run on J_w with the full
    height-j member, then cost = bits - max zeta over the tail's out-neighbours
    (clamped to INF past the chain end)."""
    if spec.kind != trees.SUCCINCT:
        raise UsageError("arc_costs_succinct requires a succinct tree spec")
    counters = counters or Counters()
    j = sub.priorities[w] // 2
    B = spec.bits
    domain = trees.chain_member_spec(spec, j, 0, B)
    jn = sorted(report.j_nodes[w])
    in_arcs = _in_arcs(report.j_succ[w].items(), sub.priorities)
    values = {u: TOP for u in jn}
    values[w] = trees.min_leaf(domain)
    _bf(values, in_arcs, domain, counters)
    costs = {}
    for v in sorted(report.j_tops[w]):
        outs = report.j_succ[w][v]
        if v == w and not outs:
            continue
        if (v, w) not in aux.arcs:
            continue
        z = max((trees.zeta(domain, values[u]) for u in outs), default=-1)
        c = B - z
        costs[(v, w)] = c if c <= B else INF
    return costs


# ---------------------------------------------------------------------------
# minimum bottleneck cycles
# ---------------------------------------------------------------------------


def min_bottleneck_cycle_costs(comp, costs):
    """For every node of a component: the minimum over cycles through it of
    the maximum arc cost (INF when no finite-cost cycle exists).

    Recursive median splitting over the sorted distinct costs: nodes that are
    cyclic in the below-median subgraph recurse inside their SCC, the rest
    recurse on the SCC contraction whose cycles all have bottleneck above the
    median (the contraction keeps genuine self-loops).
    """
    result = {v: INF for v in comp}
    arcs = [(v, w, c) for (v, w), c in costs.items() if c != INF]

    def rec(nodes, arcs, candidates):
        out = {}
        if not nodes or not arcs or not candidates:
            return out
        if len(candidates) == 1:
            c0 = candidates[0]
            adj = {v: [] for v in nodes}
            loops = set()
            for v, w, c in arcs:
                if c <= c0:
                    adj[v].append(w)
                    if v == w:
                        loops.add(v)
            for K in strongly_connected(sorted(nodes), adj):
                if len(K) > 1 or K[0] in loops:
                    for v in K:
                        out[v] = c0
            return out
        mid = candidates[(len(candidates) - 1) // 2]
        low = [(v, w, c) for v, w, c in arcs if c <= mid]
        adj = {v: [] for v in nodes}
        for v, w, _ in low:
            adj[v].append(w)
        comps = strongly_connected(sorted(nodes), adj)
        comp_of = {}
        for i, K in enumerate(comps):
            for v in K:
                comp_of[v] = i
        low_cands = [c for c in candidates if c <= mid]
        for K in comps:
            ks = set(K)
            intra = [(v, w, c) for v, w, c in low if v in ks and w in ks]
            if len(K) > 1 or any(v == w for v, w, _ in intra):
                for v, c in rec(ks, intra, low_cands).items():
                    out[v] = min(out.get(v, INF), c)
        c_nodes = set(comp_of.values())
        c_arcs = [
            (comp_of[v], comp_of[w], c)
            for v, w, c in arcs
            if comp_of[v] != comp_of[w] or v == w
        ]
        sub_res = rec(c_nodes, c_arcs, [c for c in candidates if c > mid])
        for v in nodes:
            c = sub_res.get(comp_of[v], INF)
            if c is not INF:
                out[v] = min(out.get(v, INF), c)
        return out

    cands = sorted({c for _, _, c in arcs})
    for v, c in rec(set(comp), arcs, cands).items():
        result[v] = c
    return result


# ---------------------------------------------------------------------------
# label-correcting engine
# ---------------------------------------------------------------------------


def require_no_loose(sub, mu: NodeLabeling) -> None:
    """Raise ``UsageError`` at the first arc of ``sub`` (in tail, then
    successor order) whose tail label is above its tight value."""
    spec, values, prio = mu.spec, mu.values, sub.priorities
    for v, outs in enumerate(sub.succ):
        p, lab = prio[v], values[v]
        for w in outs:
            # arc_status's comparisons, inlined: the call and the enum would
            # cost more than the check itself
            target = tighten_target(spec, values[w], p)
            if not (lab is target or lab == target or lab < target):
                raise UsageError(f"labeling has a loose arc {v}->{w}")


def _floor_value(spec, leaf, j):
    """mu(w) when it is the minimum of its own depth-(h-j) subtree, otherwise
    the minimum of the next such subtree (the i = 0 raise for every chain)."""
    prefix = leaf[: spec.height - j]
    if trees.min_leaf_below(spec, prefix) == leaf:
        return leaf
    return trees.next_subtree_min(spec, prefix)


def least_fixed_point_lc(sub, mu: NodeLabeling, spec: TreeSpec,
                         counters=None) -> NodeLabeling:
    """Label-correcting least fixed point above ``mu`` (which must have no
    loose arcs in the subgraph)."""
    counters = counters or Counters()
    require_no_loose(sub, mu)
    report = find_base_nodes(sub)
    nu = NodeLabeling.all_top(spec, sub.n)
    tables = []
    if report.base_nodes:
        aux = build_auxiliary_digraph(sub, report)
        for comp in aux.components:
            j = sub.priorities[comp[0]] // 2
            ks = trees.chain_indices(spec, j)
            per_node = {w: [] for w in comp}
            for k in ks:
                if spec.kind == trees.SUCCINCT:
                    costs = {}
                    for w in comp:
                        costs.update(arc_costs_succinct(sub, report, aux, w, spec, counters))
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
                    if i == 0:
                        best = min(best, _floor_value(spec, mu[w], j))
                    else:
                        best = min(best, trees.raise_leaf(spec, mu[w], int(i), j, k))
                nu[w] = best
    counters.aux_costs(tables)
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
    along reachability.

    One SCC pass over H ranks its SCCs in Tarjan's order (sinks first).  Below
    that, phi[p] ranks the pairs (phi[p + 2], rank inside the group), where
    each SCC of H_{p+2} that loses a node is split by one pass over its
    nodes of priority <= p (an acyclic one is a single node, so it only
    stays or goes).  Every cycle of H_p lies in one SCC of H_{p+2}, and every
    path of H_p is one of H_{p+2}, so the pairs keep both properties.

    H has an even cycle exactly when some node of an even priority p lies on
    a cycle of H_p, i.e. in a cyclic SCC of H_p; that raises
    ``InvariantError`` (too few base nodes were given)."""
    n = sub.n
    prio = sub.priorities
    blocked = set(base_nodes)
    hsucc = [(() if v in blocked else sub.succ[v]) for v in range(n)]
    top = max(prio)
    top += top % 2
    d = top if up_to is None else max(top, up_to)
    # the SCCs of H_p in rank order, each with whether it has a cycle; for
    # p >= top, H_p is H
    level = [(comp, len(comp) > 1 or comp[0] in hsucc[comp[0]])
             for comp in strongly_connected(range(n), hsucc)]
    phi = {}
    for p in range(d, 1, -2):
        if p < top:
            split = []
            for comp, cyclic in level:
                keep = [v for v in comp if prio[v] <= p]
                if len(keep) == len(comp):
                    split.append((comp, cyclic))   # whole in H_p: still one SCC
                elif keep:
                    split.extend((c, len(c) > 1 or c[0] in hsucc[c[0]])
                                 for c in _induced_sccs(keep, hsucc))
            level = split
        val = [0] * n
        for rank, (comp, cyclic) in enumerate(level, start=1):
            for v in comp:
                val[v] = rank
            if cyclic and any(prio[v] == p for v in comp):
                raise InvariantError("H still contains an even cycle")
        phi[p] = val
    return dict(sorted(phi.items()))


def _potential(spec, phi, values, v, d):
    if values[v] is TOP:
        return (1,)
    leaf = values[v]
    parts = [0]
    for t in range(spec.height):
        p = d - 2 * t
        parts.append(phi[p][v] if p in phi else 0)
        parts.append(leaf[t])
    return tuple(parts)


def dijkstra(sub, nu: NodeLabeling, base_nodes, counters=None) -> NodeLabeling:
    """Label-setting sweep: fixes the labels of ``base_nodes`` (all base nodes
    of ``sub``) from ``nu``, then admits the node of minimum interlaced
    potential and drops its incoming arcs.  Returns the pointwise minimal
    labeling feasible in H that agrees with ``nu`` on the base nodes.
    Exact only for a tree capacity of at least the number of nodes, so a
    smaller capacity raises ``UsageError``."""
    spec = nu.spec
    n = sub.n
    if spec.capacity < n:
        raise UsageError(f"the label-setting engine requires tree capacity >= n = {n}")
    counters = counters or Counters()
    S = set(base_nodes)
    values = [nu[v] if v in S else TOP for v in range(n)]
    d = 2 * spec.height
    phi = compute_phi(sub, base_nodes, up_to=d)
    drops = 0

    def drop_into(v, w):
        nonlocal drops
        t = tighten_target(spec, values[w], sub.priorities[v])
        if t < values[v]:
            values[v] = t
            drops += 1
            return True
        return False

    heap = []
    current = {}

    def push(v):
        pot = _potential(spec, phi, values, v, d)
        current[v] = pot
        heapq.heappush(heap, (pot, v))

    for w in sorted(S):
        for v in sub.pred[w]:
            if v not in S:
                drop_into(v, w)
    for v in range(n):
        if v not in S:
            push(v)

    last_pot = None
    while len(S) < n:
        pot, u = heapq.heappop(heap)
        if u in S or current.get(u) != pot:
            continue
        if last_pot is not None and pot < last_pot:
            raise InvariantError("dijkstra admitted a decreasing potential")
        last_pot = pot
        S.add(u)
        for v in sub.pred[u]:
            if v not in S and drop_into(v, u):
                push(v)
    counters.drops += drops
    return NodeLabeling(spec, values)


def least_fixed_point_perfect(sub, mu: NodeLabeling, spec: TreeSpec,
                              counters=None) -> NodeLabeling:
    """Label-setting least fixed point for perfect trees: lift once at every
    base node whose out-arcs are all violated, then run Dijkstra.  Exact only
    when the tree's capacity is at least the number of nodes, so ``dijkstra``
    raises ``UsageError`` below that; use ``least_fixed_point_lc`` there."""
    if spec.kind != trees.PERFECT:
        raise UsageError("least_fixed_point_perfect requires a perfect tree")
    require_no_loose(sub, mu)
    base = list(_base_components(sub.n, sub.succ, sub.priorities))
    mu2 = mu.copy()
    for v in base:
        targets = [tighten_target(spec, mu2[w], sub.priorities[v]) for w in sub.succ[v]]
        if all(mu2[v] < t for t in targets):
            mu2[v] = min(targets)
    out = dijkstra(sub, mu2, base, counters)
    if not mu.leq(out):
        raise InvariantError("fixed point fell below the input labeling")
    return out
