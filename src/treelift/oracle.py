"""Slow, independent correctness oracles.

These deliberately avoid the engine code paths they are used to check:
the winner oracle is the classical attractor recursion, the fixed-point
oracle re-implements arc feasibility on its own, and the tree oracles work
on plain string tuples enumerated by filtering.  ``NaiveRace`` runs the
fixed-point oracle against every phase of a solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

from . import trees
from .errors import InvariantError, UsageError
from .game import EVEN
from .labeling import NodeLabeling
from .one_player import Counters
from .trees import TOP, TreeSpec


@dataclass(frozen=True)
class WinnerPartition:
    even_wins: frozenset
    odd_wins: frozenset


def _attractor(nodes, succ, owners, target, player):
    """Nodes from which ``player`` forces a visit to ``target`` within the
    induced subgraph ``nodes``."""
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


def zielonka_solve(game) -> WinnerPartition:
    """Classical recursive attractor-based partition (exponential worst case;
    intended for cross-checking at small sizes)."""

    def solve(nodes):
        if not nodes:
            return set(), set()
        p = max(game.priorities[v] for v in nodes)
        player = p % 2
        tops = {v for v in nodes if game.priorities[v] == p}
        a = _attractor(nodes, game.succ, game.owners, tops, player)
        w0, w1 = solve(nodes - a)
        win = (w0, w1)
        if not win[1 - player]:
            mine = set(nodes) - win[1 - player]
            return (mine, set()) if player == EVEN else (set(), mine)
        b = _attractor(nodes, game.succ, game.owners, win[1 - player], 1 - player)
        w0b, w1b = solve(nodes - b)
        if player == EVEN:
            return w0b, w1b | b
        return w0b | b, w1b
    even, odd = solve(frozenset(range(game.n)))
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
    out.sort(key=cmp_to_key(_tuple_cmp))
    return tuple(out)


def brute_raise(spec: TreeSpec, leaf, i: int, j: int, k: int):
    """Literal scan over all leaves for the raise contract: the smallest leaf
    >= the input that is the minimum of its own depth-(h-j) subtree, whose
    root has chain index k and at least i spare bits."""
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
    first_of = {}
    for comps in leaves:
        first_of.setdefault(comps[: spec.height - j], comps)
    xi = components_key(spec, leaf)
    for comps in leaves:
        if _tuple_cmp(comps, xi) < 0:
            continue
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


def components_key(spec, leaf):
    comps = trees.components_of(spec, leaf)
    return tuple(comps)


# ---------------------------------------------------------------------------
# ordered-tree embedding
# ---------------------------------------------------------------------------


def tree_height(tree) -> int:
    if not tree:
        return 0
    return 1 + max(tree_height(c) for c in tree)


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
