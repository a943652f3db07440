"""Parity game data model, PGSolver text format, generators, mean-payoff export.

The PGSolver format accepted here:

    parity <maxid>;            (optional header, exactly this shape)
    <id> <priority> <owner> <succ>(,<succ>)* ["name"];

with owner 0 = Even and 1 = Odd.  Priorities >= 0 are accepted and compressed
to the canonical range [1, d] (preserving parity and relative order), node
ids may have gaps and are densified; the original ids are kept for output.
A node is labelled by its name when it has one, else by its original id, and
no two nodes may share a label.
"""

from __future__ import annotations

import random
import re
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property

from .errors import FormatError, UsageError

EVEN = 0
ODD = 1


@dataclass(frozen=True)
class ParityGame:
    """Immutable sinkless directed game graph with compressed priorities."""

    owners: tuple       # node -> EVEN | ODD
    priorities: tuple   # node -> int in [1, d]
    succ: tuple         # node -> successors (dense ids), sorted and deduplicated
    names: tuple        # node -> str | None
    orig_ids: tuple     # dense id -> id used in the source file
    orig_priorities: tuple  # node -> priority as given in the source
    # node -> sorted tuple of predecessors, derived from succ
    pred: tuple = field(init=False, compare=False)

    def __post_init__(self):
        succ = tuple(tuple(sorted(set(outs))) for outs in self.succ)
        object.__setattr__(self, "succ", succ)
        pred = [[] for _ in succ]
        for v, outs in enumerate(succ):
            for w in outs:
                pred[w].append(v)
        object.__setattr__(self, "pred", tuple(map(tuple, pred)))

    @property
    def n(self) -> int:
        return len(self.owners)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.succ)

    @property
    def d(self) -> int:
        top = max(self.priorities)
        return top + (top % 2)

    def arcs(self):
        for v, outs in enumerate(self.succ):
            for w in outs:
                yield v, w

    def label_of(self, v: int):
        """Original id, or the name when one was given."""
        return self.names[v] if self.names[v] is not None else self.orig_ids[v]

    def odd_nodes(self) -> tuple:
        """Odd's nodes in increasing order, listed on the first call."""
        return self._odd

    @cached_property
    def _odd(self):
        return tuple([v for v, owner in enumerate(self.owners) if owner == ODD])


def _build(owners, priorities, succ, names=None, orig_ids=None, orig_priorities=None):
    n = len(owners)
    names = tuple(names) if names else (None,) * n
    orig_ids = tuple(orig_ids) if orig_ids else tuple(range(n))
    orig_priorities = tuple(orig_priorities) if orig_priorities else tuple(priorities)
    if names.count(None) < n:  # every caller's ids are distinct: only names collide
        seen = set()
        for name, orig in zip(names, orig_ids):
            label = str(orig if name is None else name)
            if label in seen:
                raise FormatError(f"two nodes are labelled {label!r}")
            seen.add(label)
    return ParityGame(
        owners=tuple(owners),
        priorities=tuple(priorities),
        succ=succ,
        names=names,
        orig_ids=orig_ids,
        orig_priorities=orig_priorities,
    )


def compress_priorities(raw: list[int]) -> list[int]:
    """Map distinct priorities to the smallest values >= 1 of the same parity
    that preserve their strict order (so dominating-node sets never change)."""
    mapping = {}
    last = 0
    for p in sorted(set(raw)):
        q = last + 1 if (last + 1) % 2 == p % 2 else last + 2
        mapping[p] = q
        last = q
    return [mapping[p] for p in raw]


def from_description(nodes, arcs, names=None):
    """Assemble a game from (owner, priority) pairs and an arc list.

    Raw priorities may be any integers >= 0; they are compressed.  Raises
    FormatError for sinks, dangling arcs or negative priorities.
    """
    n = len(nodes)
    owners = [o for o, _ in nodes]
    raw = [p for _, p in nodes]
    for v, p in enumerate(raw):
        if p < 0:
            raise FormatError(f"node {v}: priority {p} is negative")
    succ = [[] for _ in range(n)]
    for v, w in arcs:
        if not (0 <= v < n and 0 <= w < n):
            raise FormatError(f"arc ({v},{w}) out of range")
        succ[v].append(w)
    for v in range(n):
        if not succ[v]:
            raise FormatError(f"node {v} is a sink")
    return _build(owners, compress_priorities(raw), succ,
                  names=names, orig_priorities=raw)


_NODE_RE = re.compile(
    r"(\d+)\s+(-?\d+)\s+(\d+)\s*([-\d,\s]*)\s*(?:\"([^\"]*)\")?"
)
_HEADER_RE = re.compile(r"parity\s+\d+")


def parse_pgsolver(text: str) -> ParityGame:
    """Parse PGSolver text into a validated game: one match per statement,
    then one pass that resolves the successors to dense ids."""
    node, header = _NODE_RE.fullmatch, _HEADER_RE.fullmatch
    dense = {}  # orig id -> dense id, in order of appearance
    owners, raw, succ, names = [], [], [], []
    for stmt in text.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        m = node(stmt)
        if m is None:
            if header(stmt):
                continue
            raise FormatError(f"cannot parse statement {stmt!r}")
        v, prio, owner, succs, name = m.groups()
        # int() rejects a field of more than 4,300 digits; a missing ';'
        # joins two statements, which leaves a space (or a bare '-') inside
        # one successor, and int() rejects both; str.strip also strips
        # \x1c-\x1f, which \s admits and int() does not.  The owner and
        # priority errors come before the successors' own.
        try:
            v, prio, owner = int(v), int(prio), int(owner)
            if owner not in (EVEN, ODD):
                raise FormatError(f"node {v}: owner must be 0 or 1, got {owner}")
            if prio < 0:
                raise FormatError(f"node {v}: priority {prio} is negative")
            succs = [int(tok) for tok in map(str.strip, succs.split(",")) if tok]
        except FormatError:
            raise
        except ValueError:
            raise FormatError(f"cannot parse statement {stmt!r}") from None
        if v in dense:
            raise FormatError(f"duplicate node id {v}")
        dense[v] = len(dense)
        owners.append(owner)
        raw.append(prio)
        succ.append(succs)
        names.append(name)
    if not dense:
        raise FormatError("no nodes in input")

    for orig, succs in zip(dense, succ):
        if not succs:
            raise FormatError(f"node {orig} is a sink")
        try:
            succs[:] = [dense[w] for w in succs]
        except KeyError as exc:
            raise FormatError(f"node {orig}: successor {exc.args[0]} does not exist") from None
    return _build(owners, compress_priorities(raw), succ,
                  names=names, orig_ids=tuple(dense), orig_priorities=raw)


def write_pgsolver(game: ParityGame) -> str:
    """Render a game back to PGSolver text using the original ids/priorities."""
    lines = [f"parity {max(game.orig_ids)};"]
    for v in range(game.n):
        succs = ",".join(str(game.orig_ids[w]) for w in game.succ[v])
        name = f' "{game.names[v]}"' if game.names[v] is not None else ""
        lines.append(
            f"{game.orig_ids[v]} {game.orig_priorities[v]} {game.owners[v]} {succs}{name};"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def default_strategy(game: ParityGame) -> dict:
    """Lowest-id successor for every Odd node."""
    return {v: game.succ[v][0] for v in game.odd_nodes()}


def validate_strategy(game: ParityGame, tau: dict) -> None:
    for v in tau:
        if not (isinstance(v, int) and 0 <= v < game.n and game.owners[v] == ODD):
            raise UsageError(f"strategy has a choice for {v!r}, which is not an odd node")
    for v in game.odd_nodes():
        if v not in tau:
            raise UsageError(f"strategy missing a choice for odd node {v}")
        if tau[v] not in game.succ[v]:
            raise UsageError(f"strategy picks a non-arc {v}->{tau[v]}")


class StrategySubgraph:
    """View of the game after fixing Odd's strategy: all Even arcs plus
    exactly the chosen Odd arcs.  Every node is solved and none is
    ``pinned`` (compare ``Region``)."""

    pinned = ()

    def __init__(self, game: ParityGame, tau: dict):
        validate_strategy(game, tau)
        self.game = game
        self.tau = dict(tau)
        self.succ = tuple(
            (tau[v],) if game.owners[v] == ODD else game.succ[v]
            for v in range(game.n)
        )
        pred = [[] for _ in range(game.n)]
        for v, outs in enumerate(self.succ):
            for w in outs:
                pred[w].append(v)
        self.pred = tuple(tuple(p) for p in pred)

    def switch(self, switches: dict) -> "StrategySubgraph":
        """The subgraph after Odd moves each tail of ``switches`` to its head.
        Only the switched tails' successors and the predecessors of their old
        and new heads are rewritten; every other list is shared."""
        game = self.game
        succ, pred = list(self.succ), list(self.pred)
        for v, w in switches.items():
            if game.owners[v] != ODD or w not in game.succ[v]:
                raise UsageError(f"strategy picks a non-arc {v}->{w}")
            old = succ[v][0]
            if old == w:
                continue
            succ[v] = (w,)
            pred[old] = tuple(u for u in pred[old] if u != v)
            heads = list(pred[w])
            insort(heads, v)
            pred[w] = tuple(heads)
        out = object.__new__(StrategySubgraph)
        out.game, out.tau = game, {**self.tau, **switches}
        out.succ, out.pred = tuple(succ), tuple(pred)
        return out

    @property
    def n(self) -> int:
        return self.game.n

    @property
    def nodes(self):
        return range(self.game.n)

    inner = nodes

    @property
    def owners(self):
        return self.game.owners

    @property
    def priorities(self):
        return self.game.priorities

    def arcs(self):
        out = []
        for v, outs in enumerate(self.succ):
            out.extend((v, w) for w in outs)
        return out


class Region:
    """The part of a strategy subgraph that reaches ``sources``, in the
    game's node ids, for the 1-player engines.

    ``inner`` is R, the nodes with a path to a source, and ``pinned`` the
    boundary B, the successors of R outside R, sorted; ``nodes`` is R and B
    sorted.  ``succ`` and ``pred`` are sized to the game: a node of R keeps
    the subgraph's lists, a node of B is a sink with only its predecessors in
    R, and every other node has neither.  An engine keeps the input labels
    of B.  No arc enters R from outside it, so the rest of the game is closed
    under successors."""

    def __init__(self, sub: StrategySubgraph, sources):
        succ, pred = sub.succ, sub.pred
        inner = set(sources)
        stack = list(inner)
        while stack:
            for u in pred[stack.pop()]:
                if u not in inner:
                    inner.add(u)
                    stack.append(u)
        boundary = set().union(*map(succ.__getitem__, inner)) - inner
        self.game, self.owners, self.priorities = sub.game, sub.owners, sub.priorities
        self.inner = frozenset(inner)
        self.pinned = tuple(sorted(boundary))
        self.nodes = sorted(inner | boundary)
        # every predecessor of a node of R lies in R
        self.succ, self.pred = [()] * sub.n, [()] * sub.n
        for v in inner:
            self.succ[v], self.pred[v] = succ[v], pred[v]
        for b in boundary:
            self.pred[b] = tuple([u for u in pred[b] if u in inner])

    n = StrategySubgraph.n
    arcs = StrategySubgraph.arcs


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_random(n: int, d: int, max_out_degree: int, seed: int) -> ParityGame:
    """Reproducible random sinkless game: priorities uniform in [1, d], owners
    uniform, out-degrees uniform in [1, min(max_out_degree, n)]."""
    if n < 1 or d < 1 or max_out_degree < 1:
        raise UsageError("gen_random needs n >= 1, d >= 1, max_out_degree >= 1")
    rng = random.Random(seed)
    cap = min(max_out_degree, n)
    nodes = [(rng.randint(0, 1), rng.randint(1, d)) for _ in range(n)]
    arcs = []
    for v in range(n):
        deg = rng.randint(1, cap)
        arcs.extend((v, w) for w in rng.sample(range(n), deg))
    return from_description(nodes, arcs)


def gen_worstcase(base: ParityGame, k: int) -> ParityGame:
    """Attach the two-node distraction gadget: Odd nodes a, b of odd priority
    k with arcs a->b, b->a, a->x and x->a, where x is the lowest-id node of
    maximum even priority d.  k is a priority as written in the file, and so
    is checked against x's as written there: odd, at least 1 and below it,
    which keeps the gadget below x once the priorities are compressed."""
    d = base.d
    targets = [v for v in range(base.n) if base.priorities[v] == d]
    if not targets:
        raise UsageError(f"base game has no node of priority d={d}")
    x = targets[0]
    px = base.orig_priorities[x]
    if k % 2 == 0 or not 1 <= k < px:
        raise UsageError(f"gadget priority k={k} must be odd, >= 1 and < {px}, "
                         f"the priority of node {base.label_of(x)}")
    n = base.n
    a, b = n, n + 1
    owners = list(base.owners) + [ODD, ODD]
    raw = list(base.orig_priorities) + [k, k]
    succ = [list(s) for s in base.succ] + [[b, x], [a]]
    succ[x] = sorted(set(succ[x]) | {a})
    names = list(base.names) + [None, None]
    top = max(base.orig_ids)
    orig_ids = list(base.orig_ids) + [top + 1, top + 2]
    # gadget priorities join the compression pool like any other
    return _build(owners, compress_priorities(raw), succ,
                  names=names, orig_ids=orig_ids, orig_priorities=raw)


# ---------------------------------------------------------------------------
# mean payoff export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanPayoffGame:
    """Same graph with arc weights w(uv) = (-n)^{pi(u)} (exact integers)."""

    game: ParityGame
    node_weights: tuple

    def weight(self, u: int, v: int) -> int:
        if v not in self.game.succ[u]:
            raise UsageError(f"({u},{v}) is not an arc")
        return self.node_weights[u]

    def arcs(self):
        for u, v in self.game.arcs():
            yield u, v, self.node_weights[u]


def to_mean_payoff(game: ParityGame) -> MeanPayoffGame:
    n = game.n
    weights = tuple((-n) ** p for p in game.priorities)
    return MeanPayoffGame(game=game, node_weights=weights)
