"""Slow, independent correctness oracles.

These deliberately avoid the engine code paths they are used to check:
the winner oracle is the classical attractor recursion, each attractor a
worklist over predecessor lists derived from ``succ`` itself and linear in
its subgame; the fixed-point oracle and the whole-game arc scans that the
tests hold the solver's per-phase check against re-implement arc
feasibility on their own, and the tree oracles work on plain string tuples
enumerated by filtering.
``NaiveRace`` runs the fixed-point oracle against every phase of a solve.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

from . import trees
from .errors import InvariantError, UsageError
from .game import EVEN, ODD
from .labeling import NodeLabeling
from .one_player import Counters
from .trees import TOP, TreeSpec


@dataclass(frozen=True)
class WinnerPartition:
    even_wins: frozenset
    odd_wins: frozenset


def _predecessors(succ) -> list:
    """node -> its distinct predecessors, derived from ``succ``."""
    pred = [[] for _ in succ]
    for v, outs in enumerate(succ):
        for w in set(outs):
            pred[w].append(v)
    return pred


def _attractor(nodes, succ, pred, owners, target, player):
    """Nodes from which ``player`` forces a visit to ``target`` within the
    induced subgraph ``nodes``: ``target``, then every node of ``player``
    with a successor in the set and every other node whose successors in
    ``nodes`` all are, so that an opponent dead end is attracted and a dead
    end of ``player`` is not.  ``pred`` is ``_predecessors(succ)``.

    A worklist of attracted nodes walks ``pred``, and each opponent node
    counts its successors in ``nodes`` still outside the set, so a call
    costs O(|nodes| + arcs)."""
    attr = set(target)
    left = {}
    for v in nodes:
        if owners[v] != player and v not in attr:
            left[v] = k = len(nodes.intersection(succ[v]))
            if not k:
                attr.add(v)
    queue = [v for v in attr if v in nodes]
    for w in queue:
        for u in pred[w]:
            if u in attr or u not in nodes:
                continue
            if owners[u] != player:
                left[u] -= 1
                if left[u]:
                    continue
            attr.add(u)
            queue.append(u)
    return attr


def zielonka_solve(game) -> WinnerPartition:
    """Classical recursive attractor-based partition.

    Each attractor costs O(|nodes| + arcs) of its subgame.  What grows is
    the number of calls: exponential in the worst case, and quadratic in n
    on deep games whose winners interleave, such as n self-loops of
    priorities 1..n owned alternately (about n²/4 attractors).

    The recursion runs on an explicit stack: ``solve`` yields each subgame it
    recurses into and is sent back that subgame's partition.  Its depth grows
    with the number of distinct priorities, so it takes no Python stack."""

    succ, owners, prio = game.succ, game.owners, game.priorities
    pred = _predecessors(succ)

    def solve(nodes):
        if not nodes:
            return set(), set()
        p = max(prio[v] for v in nodes)
        player = p % 2
        tops = {v for v in nodes if prio[v] == p}
        a = _attractor(nodes, succ, pred, owners, tops, player)
        theirs = (yield nodes - a)[1 - player]
        if not theirs:
            mine = set(nodes)
            return (mine, set()) if player == EVEN else (set(), mine)
        b = _attractor(nodes, succ, pred, owners, theirs, 1 - player)
        w0b, w1b = yield nodes - b
        if player == EVEN:
            return w0b, w1b | b
        return w0b | b, w1b

    stack, result = [solve(frozenset(range(game.n)))], None
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:  # a call returned: resume its caller
            stack.pop()
            result = done.value
        else:
            stack.append(solve(sub))
            result = None
    even, odd = result
    return WinnerPartition(frozenset(even), frozenset(odd))


# ---------------------------------------------------------------------------
# naive lifting (independent arc logic)
# ---------------------------------------------------------------------------


def _lift_target(spec: TreeSpec, head, p: int):
    """Smallest tail label making an arc of tail priority p non-violated,
    re-derived from the feasibility condition rather than shared with the
    engines: even p needs tail|p >= head|p, odd p needs strict >."""
    if head is TOP:
        return TOP
    prefix = trees.truncate(spec, head, p)
    if p % 2 == 0:
        return trees.min_leaf_below(spec, prefix)
    return trees.next_subtree_min(spec, prefix)


def naive_lfp(sub, mu: NodeLabeling, spec: TreeSpec) -> NodeLabeling:
    """Least simultaneous fixed point of the lift operators of the 1-player
    game that is pointwise at least ``mu``: keep applying lifts until stable
    (loose arcs in the input are fine; lifting erases them).  A small
    worklist skips nodes that cannot move, which does not change the result
    (the operators may be applied in any order)."""
    from collections import deque

    lab = mu.copy()
    prio = sub.priorities
    queue = deque(range(sub.n))
    queued = [True] * sub.n
    while queue:
        v = queue.popleft()
        queued[v] = False
        picks = [_lift_target(spec, lab[w], prio[v]) for w in sub.succ[v]]
        target = min(picks) if sub.owners[v] == EVEN else max(picks)
        if target > lab[v]:
            lab[v] = target
            for u in sub.pred[v]:
                if not queued[u]:
                    queued[u] = True
                    queue.append(u)
    return lab


class NaiveRace(Counters):
    """Solve observer that recomputes every phase with ``naive_lfp`` and
    raises ``InvariantError`` when the engine's fixed point differs."""

    def phase(self, sub, before, after):
        if naive_lfp(sub, before, before.spec) != after:
            raise InvariantError("engine disagrees with the naive lifting oracle")


# ---------------------------------------------------------------------------
# whole-game arc scans and the auxiliary digraph (independent arc logic)
# ---------------------------------------------------------------------------


def _target(graph, labeling: NodeLabeling, v: int, w: int):
    return _lift_target(labeling.spec, labeling[w], graph.priorities[v])


def drop_arc(graph, labeling: NodeLabeling, v: int, w: int):
    """Largest label <= the tail's making arc vw non-loose: the smaller of
    the tail's label and the tight value."""
    lab, target = labeling[v], _target(graph, labeling, v, w)
    return lab if lab < target else target


def is_feasible(graph, labeling: NodeLabeling, arcs=None, witness: bool = False):
    """Feasibility of the labeling in the subgraph given by ``arcs``
    (default: all arcs of ``graph``): every Odd arc non-violated and every
    Even node with out-arcs has a non-violated one.  With ``witness=True``
    returns (ok, sigma) where sigma picks the non-violated arc of lowest head
    per Even node."""
    if arcs is None:
        arcs = list(graph.arcs())
    ok = lambda v, w: not labeling[v] < _target(graph, labeling, v, w)
    even_out = {}
    for v, w in arcs:
        if graph.owners[v] == EVEN:
            even_out.setdefault(v, []).append(w)
        elif not ok(v, w):
            return (False, None) if witness else False
    sigma = {}
    for v, outs in even_out.items():
        good = [w for w in sorted(outs) if ok(v, w)]
        if not good:
            return (False, None) if witness else False
        sigma[v] = good[0]
    return (True, sigma) if witness else True


def admissible_arcs(game, labeling: NodeLabeling) -> list:
    """Every Odd-owned arc of the game violated by the labeling, sorted by
    (tail, head)."""
    return [(v, w) for v in range(game.n) if game.owners[v] == ODD
            for w in game.succ[v] if labeling[v] < _target(game, labeling, v, w)]


def extract_even_strategy(game, labeling: NodeLabeling) -> dict:
    """The tight out-arc of lowest head of every Even node below TOP; raises
    ``InvariantError`` when such a node has none."""
    sigma = {}
    for v in range(game.n):
        if game.owners[v] != EVEN or labeling[v] is TOP:
            continue
        tight = [w for w in game.succ[v] if labeling[v] == _target(game, labeling, v, w)]
        if not tight:
            raise InvariantError(f"even node {v} in the winning set has no tight arc")
        sigma[v] = min(tight)
    return sigma


@dataclass(frozen=True)
class AuxiliaryDigraph:
    """Digraph on base nodes: arc vw when v dominates J_w, self-loop ww when
    w keeps an outgoing arc in J_w.  Components are strongly connected."""

    nodes: tuple
    arcs: frozenset
    components: tuple


def build_auxiliary_digraph(sub, report) -> AuxiliaryDigraph:
    """The auxiliary digraph of a ``one_player.BaseNodeReport``: an arc
    (v, w) for each top v of J_w with an out-neighbour in J_w that is w or
    no top.  Its components are found by mutual reachability, each sorted,
    in order of their least node.  An arc between two components raises
    ``InvariantError``: a path between two tops inside one base component
    splits at its tops into auxiliary arcs, so none can leave it."""
    arcs = set()
    for w in report.base_nodes:
        nodes, tops = report.j_nodes[w], report.j_tops[w]
        for v in tops:
            if any(x in nodes and (x == w or x not in tops) for x in sub.succ[v]):
                arcs.add((v, w))
    reach = {}
    for v in report.base_nodes:
        seen, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for x, y in arcs:
                if x == u and y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[v] = seen
    components = tuple(sorted({tuple(sorted(w for w in reach[v] if v in reach[w]))
                               for v in report.base_nodes}))
    for v, w in arcs:
        if v not in reach[w]:
            raise InvariantError("auxiliary digraph component not strongly connected")
    return AuxiliaryDigraph(tuple(report.base_nodes), frozenset(arcs), components)


# ---------------------------------------------------------------------------
# tree oracles on plain string tuples
# ---------------------------------------------------------------------------


def _str_lt(a: str, b: str) -> bool:
    """0s < empty < 1s, recursively."""
    if a == b:
        return False
    if not a:
        return b[0] == "1"
    if not b:
        return a[0] == "0"
    if a[0] != b[0]:
        return a[0] < b[0]
    return _str_lt(a[1:], b[1:])


def _tuple_cmp(a, b) -> int:
    for x, y in zip(a, b):
        if x != y:
            return -1 if _str_lt(x, y) else 1
    return 0


_leaf_key = cmp_to_key(_tuple_cmp)


def _strahler_props_ok(spec: TreeSpec, comps) -> bool:
    g, B = spec.strahler_g, spec.bits
    nonempty = [c for c in comps if c]
    if len(nonempty) != g:
        return False
    if sum(len(c) for c in comps) > g + B:
        return False
    # budget exhaustion forces "0" until the g-th nonempty string
    used_nl = used_z = 0
    for c in comps:
        if used_nl == B and used_z < g and c != "0":
            return False
        if c:
            used_z += 1
            used_nl += len(c) - 1
    # the maximal all-nonempty suffix must be 0-starting throughout
    for c in reversed(comps):
        if not c:
            break
        if c[0] == "1":
            return False
    return True


@lru_cache(maxsize=None)
def all_leaves(spec: TreeSpec) -> tuple:
    """Every leaf as a tuple of strings, sorted; brute-force enumeration."""
    if spec.kind == trees.PERFECT:
        raise UsageError("string enumeration applies to succinct/strahler trees")
    budget = spec.bits + (spec.strahler_g if spec.kind == trees.STRAHLER else 0)
    if trees.leaf_count(spec) > 10 ** 6:
        raise UsageError("tree too large to enumerate")
    strings = [""]
    frontier = [""]
    for _ in range(budget):
        frontier = [s + b for s in frontier for b in "01"]
        strings.extend(frontier)
    out = []

    def rec(parts, used):
        if len(parts) == spec.height:
            comps = tuple(parts)
            if spec.kind == trees.SUCCINCT or _strahler_props_ok(spec, comps):
                out.append(comps)
            return
        for s in strings:
            if used + len(s) <= budget:
                rec(parts + [s], used + len(s))

    rec([], 0)
    out.sort(key=_leaf_key)
    return tuple(out)


@lru_cache(maxsize=None)
def _first_leaves(spec: TreeSpec, j: int) -> dict:
    """{prefix of h - j strings: the least leaf with that prefix}."""
    first_of = {}
    for comps in all_leaves(spec):
        first_of.setdefault(comps[: spec.height - j], comps)
    return first_of


def brute_raise(spec: TreeSpec, leaf, i: int, j: int, k: int):
    """Literal scan over the sorted leaves, from the input on, for the raise
    contract: the smallest leaf >= the input that is the minimum of its own
    depth-(h-j) subtree, whose root has chain index k and at least i spare
    bits."""
    if spec.kind == trees.PERFECT:
        if trees.leaf_count(spec) > 10 ** 6:
            raise UsageError("tree too large to enumerate")
        if k != 0:
            raise UsageError("perfect trees have the single chain k = 0")
        if i > 0:
            return TOP
        import itertools

        h, cap = spec.height, spec.capacity
        for cand in itertools.product(range(cap), repeat=h):
            if cand >= tuple(leaf) and all(c == 0 for c in cand[h - j:]):
                return cand
        return TOP

    leaves = all_leaves(spec)
    first_of = _first_leaves(spec, j)
    xi = trees.components_of(spec, leaf)
    for comps in leaves[bisect_left(leaves, _leaf_key(xi), key=_leaf_key):]:
        pre = comps[: spec.height - j]
        if first_of[pre] != comps:
            continue
        bits_used = sum(len(s) for s in pre)
        if spec.kind == trees.SUCCINCT:
            if spec.bits - bits_used < i:
                continue
        else:
            z = sum(1 for s in pre if s)
            if z != spec.strahler_g - k:
                continue
            if spec.bits - (bits_used - z) < i:
                continue
        return trees.leaf_from_components(spec, comps)
    return TOP


# ---------------------------------------------------------------------------
# ordered-tree embedding
# ---------------------------------------------------------------------------


def leaves_at_uniform_depth(tree, h) -> bool:
    if h == 0:
        return not tree
    return bool(tree) and all(leaves_at_uniform_depth(c, h - 1) for c in tree)


def embed_check(small_tree, spec: TreeSpec) -> bool:
    """Does the ordered tree (nested lists, leaves = []) embed into the
    universal tree of ``spec`` with leaves mapped to leaves?  Dynamic program
    over (small vertex, host vertex) with an ordered injective matching of
    children sequences."""
    h = spec.height
    if not leaves_at_uniform_depth(small_tree, h):
        raise UsageError(f"small tree must have all leaves at depth {h}")

    nodes = []

    def index(t):
        nodes.append(t)
        my = len(nodes) - 1
        return (my, tuple(index(c) for c in t))

    root_idx, shape = index(small_tree)
    children_of = {}

    def fill(entry):
        my, kids = entry
        children_of[my] = [k[0] for k in kids]
        for k in kids:
            fill(k)

    fill((root_idx, shape))

    from functools import lru_cache as _cache

    @_cache(maxsize=None)
    def host_children(prefix):
        return tuple(trees.child_components(spec, prefix))

    memo = {}

    def embeds(small_id, prefix):
        key = (small_id, prefix)
        if key in memo:
            return memo[key]
        kids = children_of[small_id]
        if not kids:
            memo[key] = True  # uniform depth: both sides bottom out together
            return True
        hosts = host_children(prefix)

        def match(x, y):
            if x == len(kids):
                return True
            if y > len(hosts) - (len(kids) - x):
                return False
            if embeds(kids[x], prefix + (hosts[y],)) and match(x + 1, y + 1):
                return True
            return match(x, y + 1)

        memo[key] = match(0, 0)
        return memo[key]

    return embeds(root_idx, ())
