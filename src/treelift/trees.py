"""Leaf arithmetic for the universal trees used as value domains.

Three tree families are supported:

* ``perfect``:  the perfect ``capacity``-ary tree of height h.  A leaf is an
  h-tuple of integers in ``[0, capacity)``.
* ``succinct``: the quasi-polynomial tree whose leaves are h-tuples of binary
  strings with at most ``floor(log2 capacity)`` bits in total.  Strings are
  ordered by ``0s < empty < 1s`` (extended bitwise).
* ``strahler``: the Strahler-bounded variant.  A leaf carries exactly ``g``
  nonempty strings, at most ``g + floor(log2 capacity)`` bits in total, and
  two structural side conditions.

The two string trees are one mechanism: a prefix state ``(z, b, bad)`` plus
one step rule, ``_comp_ok``, that says which component may follow a prefix
and gives the state after it.  Navigation (child lists, least leaves,
successor subtrees), validation and ``leaf_count`` (memoised per spec) are
written once over that rule; adding a string tree means adding a rule.  A
rule sees only a component's length and first bit, so navigation finds the
next admitted string from those classes in O(log capacity) steps and never
lists the strings a prefix admits.  Nothing in it recurses per tree level or
builds a list that grows with the capacity: least completions and leaf
counts loop level by level.

Every walk steps its prefix once, in a single forward pass from the root
(``_states``), and reads the parents' states from that pass as it climbs;
no state is cached by prefix, only single steps by (state, key, levels
left).  So a successor walk costs O(h) steps, not one re-stepped prefix per
level.  The rule reads the number of levels left only against g, so steps
and rules are keyed by min(levels left, g): a spec holds at most
states x (g + 1) goal-free rules, and a least completion emits a first child
that keeps its state as one run down to the g-th level from the bottom.  A
raise is the successor walk with a goal for the state of its depth-(h-j)
vertex: the rule then admits only strings after which the goal can still be
reached, read from a table of prefix states built level by level, upward
from the goal, over the finite state set.  The raise steps its leaf once,
when validating it, and its floor test, walk and completion read that pass.
``chain_members`` gives a chain's member trees with their least leaves,
memoised per spec like ``leaf_count``.  ``raise_leaf`` and ``floor_leaf``
are memoised like ``tighten_target``: an engine asks the same few raises in
every phase and every game.

A leaf is represented as a tuple of per-component integer *keys* chosen so
that Python's native tuple comparison realises the tree order.  For binary
strings the key is ``((2*bits + 1) << (L - len)) - (1 << L)`` with ``L`` a
per-spec constant; this maps ``0s < empty < 1s`` onto signed integers
(empty string -> 0).  Perfect components are their own keys.

``TOP`` is a singleton greater than every leaf.  All functions here are pure
and the value types immutable, so everything is safe to share across threads;
the memo tables, the tight-target rows among them, only ever hold values the
pure functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from threading import Lock

from .errors import UsageError

PERFECT = "perfect"
SUCCINCT = "succinct"
STRAHLER = "strahler"
KINDS = (PERFECT, SUCCINCT, STRAHLER)


class _Top:
    """Unique maximum label; compares greater than every leaf tuple."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "TOP"


TOP = _Top()

_SPECS: dict = {}  # field tuple -> the one TreeSpec with those fields


@dataclass(frozen=True, eq=False, init=False)
class TreeSpec:
    """Description of one universal tree.

    ``capacity`` is the number of leaves the tree is universal for, ``height``
    is d/2.  ``strahler_g`` is only meaningful for the strahler kind; the
    public constructors enforce ``1 <= g <= min(height, floor(log2 capacity))``
    but the dataclass itself admits the degenerate parameters (g = 0, tiny
    capacities) that arise for internal chain-member value domains.

    Specs are interned: building a spec with the fields of an existing one
    returns that same object, through the constructors, ``dataclasses.replace``,
    ``copy`` and pickle alike.  Equality and hashing are therefore ``object``'s
    identity ones, which is what keys ``tighten_target``'s cache.  ``bits``,
    ``keylen`` and ``max_complen`` are computed once, at construction.
    """

    kind: str
    capacity: int
    height: int
    strahler_g: int = 0

    def __new__(cls, kind, capacity, height, strahler_g=0):
        key = (kind, capacity, height, strahler_g)
        spec = _SPECS.get(key)
        if spec is not None:
            return spec
        if kind not in KINDS:
            raise UsageError(f"unknown tree kind {kind!r}")
        if capacity < 1:
            raise UsageError("capacity must be >= 1")
        if height < 1:
            raise UsageError("height must be >= 1")
        if kind == STRAHLER:
            if not 0 <= strahler_g <= height:
                raise UsageError("strahler_g must lie in [0, height]")
        elif strahler_g != 0:
            raise UsageError(f"strahler_g is only valid for {STRAHLER} trees")
        spec = super().__new__(cls)
        bits = capacity.bit_length() - 1  # floor(log2 capacity): the string bit budget
        # frozen: write the instance dict directly
        vars(spec).update(zip(("kind", "capacity", "height", "strahler_g"), key),
                          bits=bits, keylen=bits + 2,
                          # strahler strings carry one leading bit on top of the budget
                          max_complen=bits if kind == SUCCINCT else bits + 1)
        return _SPECS.setdefault(key, spec)  # two racing constructors get one spec

    def __reduce__(self):
        return TreeSpec, (self.kind, self.capacity, self.height, self.strahler_g)

    # -- constructors enforcing the user-facing invariants -----------------

    @staticmethod
    def perfect(capacity: int, height: int) -> "TreeSpec":
        return TreeSpec(PERFECT, capacity, height)

    @staticmethod
    def succinct(capacity: int, height: int) -> "TreeSpec":
        return TreeSpec(SUCCINCT, capacity, height)

    @staticmethod
    def strahler(g: int, capacity: int, height: int) -> "TreeSpec":
        bound = min(height, capacity.bit_length() - 1)
        if not 1 <= g <= bound:
            raise UsageError(
                f"strahler g={g} out of range [1, min(h, log2 capacity)] = [1, {bound}]"
            )
        return TreeSpec(STRAHLER, capacity, height, g)


# ---------------------------------------------------------------------------
# component encoding
# ---------------------------------------------------------------------------


def _skey(spec: TreeSpec, length: int, bits: int) -> int:
    L = spec.keylen
    return ((2 * bits + 1) << (L - length)) - (1 << L)


def _sdecode(spec: TreeSpec, key: int) -> tuple[int, int]:
    """Inverse of ``_skey``: returns (length, bits)."""
    v = key + (1 << spec.keylen)
    t = (v & -v).bit_length() - 1
    return spec.keylen - t, ((v >> t) - 1) >> 1


def leaf_from_components(spec: TreeSpec, comps) -> tuple:
    """Build (and validate) a leaf from integers or bit strings.

    Strings may use '' or 'ε' for the empty string; e.g.
    ``leaf_from_components(succinct_spec, ["0", "ε"])``.
    """
    comps = list(comps)
    if len(comps) != spec.height:
        raise UsageError(f"leaf needs {spec.height} components, got {len(comps)}")
    if spec.kind == PERFECT:
        leaf = tuple(int(c) for c in comps)
    else:
        keys = []
        for c in comps:
            s = "" if c in ("ε", "") else str(c)
            if any(ch not in "01" for ch in s):
                raise UsageError(f"bad component {c!r}")
            keys.append(_skey(spec, len(s), int(s, 2) if s else 0))
        leaf = tuple(keys)
    validate_label(spec, leaf)
    return leaf


def components_of(spec: TreeSpec, label):
    """Decode a label into integers (perfect) or bit strings ('' = empty)."""
    if label is TOP:
        return TOP
    if spec.kind == PERFECT:
        return tuple(label)
    out = []
    for key in label:
        length, bits = _sdecode(spec, key)
        out.append(format(bits, "b").zfill(length) if length else "")
    return tuple(out)


def format_label(spec: TreeSpec, label) -> str:
    """Canonical rendering: components comma-joined in parentheses, the empty
    string shown as a single space, TOP as "TOP".  E.g. "(1,00)", "( ,0)"."""
    if label is TOP:
        return "TOP"
    if spec.kind == PERFECT:
        return "(" + ",".join(str(c) for c in label) + ")"
    parts = [c if c else " " for c in components_of(spec, label)]
    return "(" + ",".join(parts) + ")"


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def _comp_ok(spec: TreeSpec, z: int, b: int, bad: bool, length: int, bits: int,
             t_after: int):
    """The step rule: the prefix state after one more component, or None if
    that component may not follow the prefix (invalid or unextendable).

    State: ``z`` nonempty strings so far, ``b`` bits spent so far, ``bad`` =
    the trailing run of nonempty components contains one starting with 1.
    ``t_after`` components remain after this choice.  It is only compared
    with g - z and g - z - 1, both at most g, so the step depends on it only
    through min(t_after, g).

    A succinct component only spends bits: the state stays ``(0, b, False)``
    and the step is valid iff ``b + length <= bits``.

    A strahler component spends its non-leading bits, and two side
    conditions hold: once a prefix has exhausted the non-leading budget while
    short of g nonempty strings, every further component is exactly "0" until
    the g-th; and a leaf's maximal all-nonempty suffix may only contain
    0-starting strings.
    """
    if spec.kind == SUCCINCT:
        return (0, b + length, False) if b + length <= spec.bits else None
    g, B = spec.strahler_g, spec.bits
    if length == 0:
        if z < g and b == B:
            return None  # forced "0" here
        if g - z > t_after:
            return None  # not enough slots left for the missing strings
        return z, b, False
    if z == g:
        return None  # all nonempty strings used up
    nl = length - 1
    if b + nl > B:
        return None
    if b == B and not (length == 1 and bits == 0):
        return None  # budget exhausted with z < g: component must be "0"
    newbad = bad or bits >> nl == 1  # the string starts with 1
    if g - (z + 1) > t_after:
        return None
    if newbad and g - (z + 1) == t_after:
        return None  # no empty string can ever cut the offending run
    return z + 1, b + nl, newbad


@lru_cache(maxsize=1 << 17)
def _step(spec: TreeSpec, state: tuple, key: int, t_after: int):
    """The step rule for an encoded component: the prefix state after ``key``,
    or None if it may not follow ``state``; raises UsageError if ``key``
    encodes no string.  Memoised by its four small values (callers pass
    min(t_after, g), all the rule reads)."""
    if key <= -(1 << spec.keylen):  # no string's key; _sdecode would shift by -1
        raise UsageError(f"component key {key} does not decode to a string")
    length, bits = _sdecode(spec, key)
    if not 0 <= length <= spec.max_complen or bits >> max(length, 0):
        raise UsageError(f"component key {key} does not decode to a string")
    if _skey(spec, length, bits) != key:
        raise UsageError(f"component key {key} is not canonical")
    return _comp_ok(spec, *state, length, bits, t_after)


def _states(spec: TreeSpec, prefix) -> list:
    """The prefix states of the vertex ``prefix`` after its first 0, 1, ...,
    len(prefix) components, in one forward pass (a perfect tree has the one
    state (), which every key below the capacity keeps); raises UsageError
    if ``prefix`` is not a vertex."""
    if len(prefix) > spec.height:
        raise UsageError("prefix longer than tree height")
    if spec.kind == PERFECT:
        if prefix and (min(prefix) < 0 or max(prefix) >= spec.capacity):
            raise UsageError("prefix is not a vertex of this tree")
        return [()] * (len(prefix) + 1)
    states, g = [(0, 0, False)], spec.strahler_g
    for t_after, key in zip(range(spec.height - 1, -1, -1), prefix):
        st = _step(spec, states[-1], key, min(t_after, g))
        if st is None:
            raise UsageError("prefix is not a vertex of this tree")
        states.append(st)
    return states


def validate_label(spec: TreeSpec, label) -> None:
    """Raise UsageError unless ``label`` is TOP or a leaf of ``spec``."""
    _leaf_states(spec, label)


def _leaf_states(spec: TreeSpec, label):
    """``validate_label``'s check, returning the leaf's prefix states (None
    for TOP)."""
    if label is TOP:
        return None
    if not isinstance(label, tuple) or len(label) != spec.height:
        raise UsageError(f"label must be TOP or a {spec.height}-tuple")
    if spec.kind == PERFECT:
        for c in label:
            if not isinstance(c, int) or not 0 <= c < spec.capacity:
                raise UsageError(f"perfect component {c!r} out of range")
    elif not all(isinstance(key, int) for key in label):
        raise UsageError("string components must be encoded keys")
    return _states(spec, label)  # each key encodes a string that obeys the step rule


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def truncate(spec: TreeSpec, label, p: int):
    """p-truncation: keep components with index >= p (odd p keeps index p).

    Component ``label[idx]`` has tuple index ``2*(height-idx) - 1``; both
    parities reduce to the slice ``label[: height - p//2]``.
    """
    if not 1 <= p <= 2 * spec.height:
        raise UsageError(f"priority {p} out of range [1, {2 * spec.height}]")
    if label is TOP:
        return TOP
    return label[: spec.height - (p >> 1)]


# ---------------------------------------------------------------------------
# navigation: minimum leaves, successor subtrees
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _classes(spec: TreeSpec) -> tuple:
    """The string classes the step rule tells apart, as (size, length, bits of
    the least member): the empty string, then 2**(m-1) strings per length m
    and first bit."""
    return ((1, 0, 0),) + tuple((1 << (m - 1), m, first << (m - 1))
                                for m in range(1, spec.max_complen + 1) for first in (0, 1))


@lru_cache(maxsize=1 << 17)
def _successors(spec: TreeSpec, state: tuple, t_after: int) -> frozenset:
    """The prefix states one component after ``state``, shared by all goals."""
    return frozenset(_comp_ok(spec, *state, length, bits, t_after)
                     for _, length, bits in _classes(spec)) - {None}


@lru_cache(maxsize=None)
def _reach(spec: TreeSpec, goal: tuple) -> tuple:
    """For a raise goal ``(depth, z, b_max)``, indexed by depth up to
    ``depth``: the prefix states from which a depth-``depth`` vertex with
    ``z`` nonempty strings and at most ``b_max`` bits can be reached.  Built
    level by level, upward from the goal, over the finite set of states."""
    depth, z_goal, b_max = goal
    # no step lowers z or b, so only states with both at most the goal's can reach it
    states = [(z, b, bad) for z in range(z_goal + 1) for b in range(b_max + 1)
              for bad in (False, True)]
    table = [frozenset(s for s in states if s[0] == z_goal)]
    for t in range(spec.height - depth, spec.height):
        t_after, below = min(t, spec.strahler_g), table[-1]  # all the step reads
        table.append(frozenset(s for s in states
                               if not _successors(spec, s, t_after).isdisjoint(below)))
    return tuple(reversed(table))


@lru_cache(maxsize=None)
def _rule(spec: TreeSpec, state: tuple, t_after: int, goal) -> tuple:
    """The step rule at one prefix state, by string class: whether the empty
    string may follow, then for first bit 0 and for first bit 1 a mask with
    bit m set iff the strings of length m may.  The rule sees only a string's
    length and first bit, so these decide every string without listing any.
    With a raise ``goal``, a string is admitted only if the goal can still be
    reached after it; ``goal`` None admits every string the step rule does,
    and its callers pass min(t_after, g), all the rule reads."""
    reach = _reach(spec, goal)[spec.height - t_after] if goal is not None else None
    ok = [False, 0, 0]
    for _, length, bits in _classes(spec):
        st = _comp_ok(spec, *state, length, bits, t_after)
        if st is not None and (reach is None or st in reach):
            if length:
                ok[1 + (bits >> (length - 1))] |= 1 << length
            else:
                ok[0] = True
    return tuple(ok)


def _admits(rule: tuple, length: int, bits: int) -> bool:
    return rule[0] if not length else bool(rule[1 + (bits >> (length - 1))] >> length & 1)


def _least_from(rule: tuple, length: int, bits: int):
    """Least admitted string among a nonempty string and its extensions: the
    string padded with 0s up to the longest admitted length, or None."""
    top = rule[1 + (bits >> (length - 1))].bit_length() - 1
    return (top, bits << (top - length)) if top >= length else None


def _next_string(rule: tuple, length: int, bits: int):
    """Least admitted string after (length, bits) in the order 0s < empty < 1s:
    the least one extending s1, else, going up from each 0 bit of s, the prefix
    before that bit or the least string extending that prefix and a 1."""
    nxt = _least_from(rule, length + 1, (bits << 1) | 1)
    while nxt is None and length:
        length, last, bits = length - 1, bits & 1, bits >> 1
        if last:
            continue  # s extends the prefix by a 1: the prefix comes before s
        if _admits(rule, length, bits):
            return length, bits
        nxt = _least_from(rule, length + 1, (bits << 1) | 1)
    return nxt


def _next_child(spec: TreeSpec, state, t_after: int, key, goal=None):
    """The least child after the child ``key`` (the least child if ``key`` is
    None) of a vertex in prefix state ``state``, towards ``goal``: (its key,
    its prefix state), or None if there is none.  ``t_after`` levels lie below
    the children; a perfect tree admits every key below its capacity."""
    if spec.kind == PERFECT:
        key = 0 if key is None else key + 1
        return (key, ()) if key < spec.capacity else None
    if goal is None or spec.height - t_after > goal[0]:  # no goal this deep
        goal, t_after = None, min(t_after, spec.strahler_g)
    rule = _rule(spec, state, t_after, goal)
    if key is None:  # the least string starting with 0, else the least after "0"
        s = _least_from(rule, 1, 0) or _next_string(rule, 1, 0)
    else:
        s = _next_string(rule, *_sdecode(spec, key))
    return None if s is None else (_skey(spec, *s), _comp_ok(spec, *state, *s, t_after))


@lru_cache(maxsize=None)
def _first_keys(spec: TreeSpec, state, rest: int, goal) -> tuple:
    """The least completion of a prefix state towards ``goal``: its first
    child, then that child's first child, down ``rest`` levels.  Once a first
    child below the goal's depth keeps the state, it is the first child at
    every level down to the g-th from the bottom, so it is emitted as one run
    (a perfect tree's least child, 0, always is)."""
    keys, t_after, g = [], rest, spec.strahler_g
    while t_after:
        t_after -= 1
        key, nxt = _next_child(spec, state, t_after, None, goal)
        if nxt == state and t_after > g and (goal is None or spec.height - t_after > goal[0]):
            keys += [key] * (t_after - g)
            t_after = g
        keys.append(key)
        state = nxt
    return tuple(keys)


def child_components(spec: TreeSpec, prefix) -> list:
    """Component keys of the children of a vertex, in tree order."""
    if len(prefix) >= spec.height:
        raise UsageError("prefix is already a leaf")
    state, t_after = _states(spec, prefix)[-1], spec.height - len(prefix) - 1
    out = [_next_child(spec, state, t_after, None)]
    while out[-1] is not None:
        out.append(_next_child(spec, state, t_after, out[-1][0]))
    return [key for key, _ in out[:-1]]


def min_leaf_below(spec: TreeSpec, prefix) -> tuple:
    """Smallest leaf of the subtree rooted at ``prefix``."""
    prefix = tuple(prefix)
    return prefix + _first_keys(spec, _states(spec, prefix)[-1], spec.height - len(prefix), None)


def min_leaf(spec: TreeSpec) -> tuple:
    return min_leaf_below(spec, ())


def next_subtree_min(spec: TreeSpec, prefix):
    """Smallest leaf strictly above everything under ``prefix``; that is, the
    minimum leaf of the next vertex at the same depth.  TOP if none exists."""
    return _next_subtree(spec, tuple(prefix), _states(spec, prefix), None)


def _next_subtree(spec: TreeSpec, prefix: tuple, states: list, goal):
    """``next_subtree_min`` given the prefix states of ``prefix``, through a
    vertex that meets the ``raise_leaf`` goal ``goal`` if it is not None: it
    steps up from the last level, reading each parent's state from
    ``states``."""
    for idx in range(len(prefix) - 1, -1, -1):
        t_after = spec.height - idx - 1
        nxt = _next_child(spec, states[idx], t_after, prefix[idx], goal)
        if nxt is not None:
            return prefix[:idx] + (nxt[0],) + _first_keys(spec, nxt[1], t_after, goal)
    return TOP


@lru_cache(maxsize=1 << 17)
def tighten_target(spec: TreeSpec, head_label, p: int):
    """The unique label that makes an arc of tail priority ``p`` tight against
    ``head_label``: for even p the minimum leaf of the subtree at the head's
    p-truncation, for odd p the minimum leaf of the successor subtree."""
    if not 1 <= p <= 2 * spec.height:
        raise UsageError(f"priority {p} out of range [1, {2 * spec.height}]")
    if head_label is TOP:
        return TOP
    prefix = head_label[: spec.height - (p >> 1)]
    if p % 2 == 0:
        return min_leaf_below(spec, prefix)
    return next_subtree_min(spec, prefix)


# Tight-target rows, in front of ``tighten_target``'s cache: per spec, for
# each head label a row {tail priority: tight target} that holds only the
# priorities asked so far, so a deep tree's 2h priorities cost nothing until
# asked.  A loop fetches ``rows = _rows(spec)`` once, reads
# ``rows.get(head, _NO_ROW)[p]`` (once per head when one head serves a loop)
# and, on a KeyError, ``_fill_row(spec, head, p)[p]``.  The rows of all
# specs together hold at most ``_ROW_ENTRIES`` entries: a fill that would
# exceed it first empties them all.  Fills take a lock, so that threads
# sharing the rows keep that count.
_ROWS: dict = {}  # spec -> {head label: row}
_NO_ROW: dict = {}  # the row of a head with none yet; never written
_ROW_ENTRIES = 1 << 17
_row_entries = 0
_row_lock = Lock()


def _rows(spec: TreeSpec) -> dict:
    """The rows of ``spec``, {head label: row}, registered on first use."""
    rows = _ROWS.get(spec)
    return _ROWS.setdefault(spec, {}) if rows is None else rows


def _fill_row(spec: TreeSpec, head_label, p: int) -> dict:
    """The row of ``head_label`` after entering its tight target for ``p``,
    which ``tighten_target`` computes, raising (with nothing stored) as it
    does for a priority outside [1, 2h]."""
    global _row_entries
    target = tighten_target(spec, head_label, p)
    with _row_lock:
        row = _rows(spec).get(head_label, _NO_ROW)
        if p not in row:
            if _row_entries >= _ROW_ENTRIES:
                _ROWS.clear()
                _row_entries, row = 0, _NO_ROW
            if row is _NO_ROW:
                row = _rows(spec)[head_label] = {}
            row[p] = target
            _row_entries += 1
    return row


# ---------------------------------------------------------------------------
# zeta (string trees)
# ---------------------------------------------------------------------------


def zeta(spec: TreeSpec, label) -> int:
    """Number of leading zeroes in the first component; zeta(TOP) = -1."""
    if spec.kind == PERFECT:
        raise UsageError("zeta is undefined for perfect trees")
    if label is TOP:
        return -1
    length, bits = _sdecode(spec, label[0])
    return length - bits.bit_length()


# ---------------------------------------------------------------------------
# chains of subtrees and the Raise subroutine
# ---------------------------------------------------------------------------


def chain_indices(spec: TreeSpec, j: int) -> list[int]:
    """Chain indices k of the height-j subcover.

    Chains are indexed by the subtree Strahler number k, nonempty exactly
    for max(0, g-(h-j)) <= k <= min(j, g); so perfect and succinct trees,
    whose g is 0, have the single chain k = 0.
    """
    if not 0 <= j <= spec.height:
        raise UsageError(f"subtree height {j} out of range [0, {spec.height}]")
    g, h = spec.strahler_g, spec.height
    lo, hi = max(0, g - (h - j)), min(j, g)
    return list(range(lo, hi + 1))


def chain_length(spec: TreeSpec, j: int, k: int) -> int:
    if k not in chain_indices(spec, j):
        raise UsageError(f"chain {k} is empty at height {j}")
    if spec.kind == PERFECT:
        return 1
    if j == 0:
        return 1
    return spec.bits + 1


def chain_member_spec(spec: TreeSpec, j: int, k: int, i: int) -> TreeSpec:
    """Value-domain tree for chain position i: the i-th smallest member of
    chain k at height j.  Position i allows i (non-leading) bits; position 0
    is always a single-leaf path."""
    if j < 1:
        raise UsageError("chain members exist for heights j >= 1")
    if not 0 <= i < chain_length(spec, j, k):
        raise UsageError(f"position {i} out of chain range")
    if spec.kind == PERFECT:
        return TreeSpec(PERFECT, spec.capacity, j)
    return TreeSpec(spec.kind, 1 << i, j, k)  # k = 0 on a succinct tree


@lru_cache(maxsize=None)
def chain_members(spec: TreeSpec, j: int, k: int) -> tuple:
    """Chain k at height j, memoised per spec: for each position i, the
    member tree ``chain_member_spec(spec, j, k, i)`` and its least leaf."""
    members = (chain_member_spec(spec, j, k, i) for i in range(chain_length(spec, j, k)))
    return tuple((member, min_leaf(member)) for member in members)


def _memoised(fn):
    """``fn``, a pure function, memoised like ``tighten_target``.  A call
    with an unhashable argument, such as a list for a leaf, skips the memo,
    so that ``fn`` rejects it as it would unmemoised (``raise_leaf`` with a
    UsageError) instead of the cache with a TypeError."""
    cached = lru_cache(maxsize=1 << 10)(fn)

    @wraps(fn)
    def call(*args, **kwargs):
        try:
            return cached(*args, **kwargs)
        except TypeError:  # fn is pure: if fn itself raised it, it raises it again
            return fn(*args, **kwargs)

    return call


@_memoised
def floor_leaf(spec: TreeSpec, leaf, j: int):
    """``leaf`` when it is the minimum of its own depth-(h-j) subtree,
    otherwise the minimum of the next such subtree (TOP if there is none)."""
    return _floor(spec, leaf, _states(spec, leaf[: spec.height - j]), j, None)


def _floor(spec: TreeSpec, leaf, states: list, j: int, goal):
    """``floor_leaf`` given the prefix states of ``leaf`` down to depth h - j
    at least, for subtrees whose root meets the ``raise_leaf`` goal ``goal``
    if it is not None."""
    depth = spec.height - j
    if leaf[depth:] == _first_keys(spec, states[depth], j, None) and (
            goal is None or states[depth] in _reach(spec, goal)[-1]):
        return leaf
    return _next_subtree(spec, leaf[:depth], states, goal)


@_memoised
def raise_leaf(spec: TreeSpec, leaf, i: int, j: int, k: int):
    """Smallest leaf >= ``leaf`` that is the minimum of a chain-k subtree of
    height j at position >= i; TOP when no such leaf exists.

    On a string tree this is the floor of ``floor_leaf`` with a goal
    ``(h - j, g - k, bits - i)``: the depth-(h-j) vertex must have g - k
    nonempty strings and at most bits - i bits spent (a succinct tree has
    g = k = 0).  The
    successor walk then admits only strings after which that goal can still
    be reached, so the raise takes the same level steps as
    ``next_subtree_min``.  The leaf's prefix states are computed once, by
    its validation, and serve the floor test, the walk and its completion.
    """
    states = _leaf_states(spec, leaf)
    if not 1 <= j <= spec.height:
        raise UsageError(f"subtree height {j} out of range [1, {spec.height}]")
    if k not in chain_indices(spec, j):
        raise UsageError(f"invalid chain index {k} at height {j}")
    if i < 0:
        raise UsageError("chain position must be >= 0")
    if leaf is TOP or i >= chain_length(spec, j, k):
        return TOP
    # the perfect tree's single chain has the single position 0: no goal
    goal = None if spec.kind == PERFECT else (spec.height - j, spec.strahler_g - k, spec.bits - i)
    return _floor(spec, leaf, states, j, goal)


# ---------------------------------------------------------------------------
# leaf counting and enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def leaf_count(spec: TreeSpec) -> int:
    """Exact number of leaves (arbitrary precision), memoised per spec."""
    if spec.kind == PERFECT:
        return spec.capacity ** spec.height
    ways = {(0, 0, False): 1}  # prefix state -> number of prefixes that reach it
    for t_after in range(spec.height - 1, -1, -1):
        nxt = {}
        for state, n in ways.items():
            for size, length, bits in _classes(spec):
                st = _comp_ok(spec, *state, length, bits, t_after)
                if st is not None:
                    nxt[st] = nxt.get(st, 0) + n * size
        ways = nxt
    return sum(ways.values())


def iter_leaves(spec: TreeSpec):
    """All leaves in tree order (only sensible for small trees)."""

    def rec(prefix):
        if len(prefix) == spec.height:
            yield prefix
            return
        for key in child_components(spec, prefix):
            yield from rec(prefix + (key,))

    yield from rec(())
