"""Leaf arithmetic for the universal trees used as value domains.

Three tree families are supported:

* ``perfect``:  the perfect ``capacity``-ary tree of height h.  A leaf is an
  h-tuple of integers in ``[0, capacity)``.
* ``succinct``: the quasi-polynomial tree whose leaves are h-tuples of binary
  strings with at most ``floor(log2 capacity)`` bits in total.  Strings are
  ordered by ``0s < empty < 1s`` (extended bitwise).
* ``strahler``: the Strahler-bounded variant.  A leaf carries exactly ``g``
  nonempty strings, at most ``g + floor(log2 capacity)`` bits in total, and
  two structural side conditions (see ``_comp_ok``).

A leaf is represented as a tuple of per-component integer *keys* chosen so
that Python's native tuple comparison realises the tree order.  For binary
strings the key is ``((2*bits + 1) << (L - len)) - (1 << L)`` with ``L`` a
per-spec constant; this maps ``0s < empty < 1s`` onto signed integers
(empty string -> 0).  Perfect components are their own keys.

``TOP`` is a singleton greater than every leaf.  All functions here are pure
and the value types immutable, so everything is safe to share across threads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

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

Label = "tuple[int, ...] | _Top"


@dataclass(frozen=True, eq=False)
class TreeSpec:
    """Description of one universal tree.

    ``capacity`` is the number of leaves the tree is universal for, ``height``
    is d/2.  ``strahler_g`` is only meaningful for the strahler kind; the
    public constructors enforce ``1 <= g <= min(height, floor(log2 capacity))``
    but the dataclass itself admits the degenerate parameters (g = 0, tiny
    capacities) that arise for internal chain-member value domains.

    Specs are equal when their fields are.  A spec is part of the key of
    ``tighten_target``'s cache, so equality tests identity first and
    otherwise compares one stored field tuple.  The hash is not stored:
    string hashes differ between processes, and a spec may be pickled.
    """

    kind: str
    capacity: int
    height: int
    strahler_g: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown tree kind {self.kind!r}")
        if self.capacity < 1:
            raise UsageError("capacity must be >= 1")
        if self.height < 1:
            raise UsageError("height must be >= 1")
        if self.kind == STRAHLER:
            if not 0 <= self.strahler_g <= self.height:
                raise UsageError("strahler_g must lie in [0, height]")
        elif self.strahler_g != 0:
            raise UsageError(f"strahler_g is only valid for {STRAHLER} trees")
        object.__setattr__(self, "_key",
                           (self.kind, self.capacity, self.height, self.strahler_g))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

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

    def as_dict(self) -> dict:
        """The ``tree`` object of the ``solve`` JSON output."""
        out = {"kind": self.kind, "capacity": self.capacity, "height": self.height}
        if self.kind == STRAHLER:
            out["strahler_g"] = self.strahler_g
        return out

    # -- derived quantities -------------------------------------------------

    @property
    def bits(self) -> int:
        """floor(log2 capacity): the non-top bit budget of string leaves."""
        return self.capacity.bit_length() - 1

    @property
    def keylen(self) -> int:
        return self.bits + 2

    @property
    def max_complen(self) -> int:
        if self.kind == SUCCINCT:
            return self.bits
        return self.bits + 1  # strahler: one leading bit plus the budget


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


_EPS_KEY = 0  # _skey(spec, 0, 0) for every spec


def _first_bit(length: int, bits: int) -> int:
    return (bits >> (length - 1)) & 1 if length else -1


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
    """Check one strahler component choice against the running prefix state.

    State: ``z`` nonempty strings so far, ``b`` non-leading bits so far,
    ``bad`` = the trailing run of nonempty components contains one starting
    with 1.  ``t_after`` components remain after this choice.  The encoded
    side conditions: once a prefix has exhausted the non-leading budget while
    short of g nonempty strings, every further component is exactly "0" until
    the g-th; and a leaf's maximal all-nonempty suffix may only contain
    0-starting strings.

    Returns the new state or None if the choice is invalid/unextendable.
    """
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
    newbad = bad or _first_bit(length, bits) == 1
    if g - (z + 1) > t_after:
        return None
    if newbad and g - (z + 1) == t_after:
        return None  # no empty string can ever cut the offending run
    return z + 1, b + nl, newbad


def _strahler_state(spec: TreeSpec, prefix) -> tuple[int, int, bool]:
    """State (z, b, bad) after a valid prefix; raises if the prefix is not a
    vertex of the tree."""
    z, b, bad = 0, 0, False
    rest = spec.height - 1
    for idx, key in enumerate(prefix):
        length, bits = _sdecode(spec, key)
        st = _comp_ok(spec, z, b, bad, length, bits, rest - idx)
        if st is None:
            raise UsageError("prefix is not a vertex of this tree")
        z, b, bad = st
    return z, b, bad


def _string_bits_used(spec: TreeSpec, prefix) -> int:
    return sum(_sdecode(spec, key)[0] for key in prefix)


def validate_label(spec: TreeSpec, label) -> None:
    """Raise UsageError unless ``label`` is TOP or a leaf of ``spec``."""
    if label is TOP:
        return
    if not isinstance(label, tuple) or len(label) != spec.height:
        raise UsageError(f"label must be TOP or a {spec.height}-tuple")
    if spec.kind == PERFECT:
        for c in label:
            if not isinstance(c, int) or not 0 <= c < spec.capacity:
                raise UsageError(f"perfect component {c!r} out of range")
        return
    maxlen = spec.max_complen
    total = 0
    for key in label:
        if not isinstance(key, int):
            raise UsageError("string components must be encoded keys")
        length, bits = _sdecode(spec, key)
        if not 0 <= length <= maxlen or bits >> max(length, 0):
            raise UsageError(f"component key {key} does not decode to a string")
        if _skey(spec, length, bits) != key:
            raise UsageError(f"component key {key} is not canonical")
        total += length
    if spec.kind == SUCCINCT:
        if total > spec.bits:
            raise UsageError(f"leaf uses {total} bits, budget is {spec.bits}")
        return
    _strahler_state(spec, label)  # runs the full structural check


def leaf_cmp(spec: TreeSpec, a, b) -> int:
    """Total order on labels: -1, 0 or 1.  TOP is the maximum."""
    validate_label(spec, a)
    validate_label(spec, b)
    return (a > b) - (a < b)


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
def _ordered_lenbits(maxlen: int) -> tuple:
    """All binary strings with at most ``maxlen`` bits as (length, bits),
    listed in the string order 0s < empty < 1s."""
    out = []

    def rec(length, bits, budget):
        if budget:
            rec(length + 1, bits << 1, budget - 1)
        out.append((length, bits))
        if budget:
            rec(length + 1, (bits << 1) | 1, budget - 1)

    rec(0, 0, maxlen)
    return tuple(out)


@lru_cache(maxsize=None)
def _strahler_children(spec: TreeSpec, z: int, b: int, bad: bool,
                       t_after: int) -> tuple:
    """Ordered component keys available at a strahler vertex state."""
    out = []
    for length, bits in _ordered_lenbits(min(spec.max_complen, spec.bits - b + 1)):
        if _comp_ok(spec, z, b, bad, length, bits, t_after) is not None:
            out.append(_skey(spec, length, bits))
    return tuple(out)


def child_components(spec: TreeSpec, prefix) -> list:
    """Component keys of the children of a vertex, in tree order."""
    depth = len(prefix)
    if depth >= spec.height:
        raise UsageError("prefix is already a leaf")
    if spec.kind == PERFECT:
        return list(range(spec.capacity))
    if spec.kind == SUCCINCT:
        budget = spec.bits - _string_bits_used(spec, prefix)
        if budget < 0:
            raise UsageError("prefix is not a vertex of this tree")
        return [_skey(spec, L, bb) for L, bb in _ordered_lenbits(budget)]
    z, b, bad = _strahler_state(spec, prefix)
    kids = _strahler_children(spec, z, b, bad, spec.height - depth - 1)
    if not kids:
        raise UsageError("prefix is not a vertex of this tree")
    return list(kids)


def min_leaf_below(spec: TreeSpec, prefix) -> tuple:
    """Smallest leaf of the subtree rooted at ``prefix``."""
    depth = len(prefix)
    if depth > spec.height:
        raise UsageError("prefix longer than tree height")
    rest = spec.height - depth
    if spec.kind == PERFECT:
        for c in prefix:
            if not 0 <= c < spec.capacity:
                raise UsageError("prefix is not a vertex of this tree")
        return tuple(prefix) + (0,) * rest
    if spec.kind == SUCCINCT:
        budget = spec.bits - _string_bits_used(spec, prefix)
        if budget < 0:
            raise UsageError("prefix is not a vertex of this tree")
        if rest == 0:
            return tuple(prefix)
        head = _skey(spec, budget, 0)  # all-zeros string takes every spare bit
        return tuple(prefix) + (head,) + (_EPS_KEY,) * (rest - 1)
    z, b, bad = _strahler_state(spec, prefix)
    g = spec.strahler_g
    if g - z > rest or (bad and g - z == rest):
        raise UsageError("prefix is not a vertex of this tree")
    comps = []
    for idx in range(rest):
        if z < g:
            length = 1 + (spec.bits - b)
            comps.append(_skey(spec, length, 0))
            z, b = z + 1, spec.bits
        else:
            comps.append(_EPS_KEY)
    return tuple(prefix) + tuple(comps)


def min_leaf(spec: TreeSpec) -> tuple:
    return min_leaf_below(spec, ())


def _succ_next_component(length: int, bits: int, budget: int):
    """Successor of a string among strings of at most ``budget`` bits.

    Either the minimal right-extension ``s 1 0...0`` (if there is room) or the
    longest prefix cut just before a 0-bit that still fits the budget.
    """
    if length < budget:
        ext = (bits << (budget - length)) | (1 << (budget - length - 1))
        return budget, ext
    inv = ~bits & ((1 << length) - 1) if length else 0
    while inv:
        low = inv & -inv
        zero_pos = length - low.bit_length() + 1  # 1-based index of a 0-bit
        if zero_pos - 1 <= budget:
            return zero_pos - 1, bits >> (length - zero_pos + 1)
        inv &= inv - 1  # that cut is too long; try an earlier 0-bit
    return None


def _next_sibling_key(spec: TreeSpec, prefix, key: int, t_after: int):
    """Smallest component key > ``key`` available at the parent ``prefix``."""
    if spec.kind == PERFECT:
        return key + 1 if key + 1 < spec.capacity else None
    if spec.kind == SUCCINCT:
        budget = spec.bits - _string_bits_used(spec, prefix)
        length, bits = _sdecode(spec, key)
        nxt = _succ_next_component(length, bits, budget)
        return _skey(spec, *nxt) if nxt else None
    z, b, bad = _strahler_state(spec, prefix)
    kids = _strahler_children(spec, z, b, bad, t_after)
    pos = bisect_right(kids, key)
    return kids[pos] if pos < len(kids) else None


def next_subtree_min(spec: TreeSpec, prefix):
    """Smallest leaf strictly above everything under ``prefix``; that is, the
    minimum leaf of the next vertex at the same depth.  TOP if none exists."""
    pre = tuple(prefix)
    for idx in range(len(pre) - 1, -1, -1):
        nxt = _next_sibling_key(spec, pre[:idx], pre[idx], spec.height - idx - 1)
        if nxt is not None:
            return min_leaf_below(spec, pre[:idx] + (nxt,))
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


# ---------------------------------------------------------------------------
# zeta and zero stripping (string trees)
# ---------------------------------------------------------------------------


def zeta(spec: TreeSpec, label) -> int:
    """Number of leading zeroes in the first component; zeta(TOP) = -1."""
    if spec.kind == PERFECT:
        raise UsageError("zeta is undefined for perfect trees")
    if label is TOP:
        return -1
    length, bits = _sdecode(spec, label[0])
    return length - bits.bit_length()


def strip_zeros(spec: TreeSpec, label, kappa: int):
    """Delete ``kappa`` leading zeroes from the first component; TOP if the
    first component has fewer than ``kappa`` of them."""
    if spec.kind != SUCCINCT:
        raise UsageError("strip_zeros is defined for succinct trees only")
    if kappa < 0:
        raise UsageError("kappa must be >= 0")
    if label is TOP or kappa > zeta(spec, label):
        return TOP
    length, bits = _sdecode(spec, label[0])
    return (_skey(spec, length - kappa, bits),) + label[1:]


# ---------------------------------------------------------------------------
# chains of subtrees and the Raise subroutine
# ---------------------------------------------------------------------------


def chain_indices(spec: TreeSpec, j: int) -> list[int]:
    """Chain indices k of the height-j subcover.

    Perfect and succinct trees have the single chain k = 0.  Strahler chains
    are indexed by the subtree Strahler number k, nonempty exactly for
    max(0, g-(h-j)) <= k <= min(j, g).
    """
    if not 0 <= j <= spec.height:
        raise UsageError(f"subtree height {j} out of range [0, {spec.height}]")
    if spec.kind != STRAHLER:
        return [0]
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


def chain_info(spec: TreeSpec, j: int):
    """(number of chains, {k: chain length}) for the height-j subcover."""
    ks = chain_indices(spec, j)
    return len(ks), {k: chain_length(spec, j, k) for k in ks}


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
    if spec.kind == SUCCINCT:
        return TreeSpec(SUCCINCT, 1 << i, j)
    return TreeSpec(STRAHLER, 1 << i, j, k)


def _raise_self_ok(spec: TreeSpec, leaf, i: int, j: int, k: int) -> bool:
    """Does ``leaf`` (already the minimum of its own depth-(h-j) subtree)
    sit at chain k with at least i spare bits?"""
    prefix = leaf[: spec.height - j]
    if spec.kind == PERFECT:
        return i == 0
    if spec.kind == SUCCINCT:
        return spec.bits - _string_bits_used(spec, prefix) >= i
    z, b, _ = _strahler_state(spec, prefix)
    return z == spec.strahler_g - k and spec.bits - b >= i


def _strahler_raise_completion(spec: TreeSpec, vertex, comp_key: int, i: int,
                               j: int, k: int):
    """Assemble the candidate leaf: vertex + comp, minimal filler down to the
    depth-(h-j) root reserving i non-leading bits, then that subtree's
    minimum.  Returns None if the assembled tuple is not a valid leaf."""
    g, B, h = spec.strahler_g, spec.bits, spec.height
    z, b, _ = _strahler_state(spec, vertex)
    clen, cbits = _sdecode(spec, comp_key)
    if clen:
        z, b = z + 1, b + clen - 1
    between = (h - j) - len(vertex) - 1
    missing = (g - k) - z
    spare = B - i - b
    if spare < 0 or not 0 <= missing <= between:
        return None
    parts: list[int] = []
    extra = 0
    if between:
        if missing > 0:
            parts.append(_skey(spec, 1 + spare, 0))
            parts.extend([_skey(spec, 1, 0)] * (missing - 1))
            parts.extend([_EPS_KEY] * (between - missing))
        else:
            parts.extend([_EPS_KEY] * between)
            extra = spare
    else:
        if missing:
            return None
        extra = spare
    if k >= 1:
        block = [_skey(spec, 1 + i + extra, 0)]
        block.extend([_skey(spec, 1, 0)] * (k - 1))
        block.extend([_EPS_KEY] * (j - k))
    else:
        block = [_EPS_KEY] * j
    leaf = tuple(vertex) + (comp_key,) + tuple(parts) + tuple(block)
    try:
        validate_label(spec, leaf)
    except UsageError:
        return None
    return leaf


def raise_leaf(spec: TreeSpec, leaf, i: int, j: int, k: int):
    """Smallest leaf >= ``leaf`` that is the minimum of a chain-k subtree of
    height j at position >= i; TOP when no such leaf exists.

    Follows the subroutine contract of the label-correcting engine: the leaf
    is first normalised to the minimum of the next depth-(h-j) subtree, then
    either accepted or rebuilt by re-branching at the lowest level that still
    leaves i spare bits (runs in O(log capacity * height) string steps for
    succinct trees).  The strahler i = 0 case is decided by the caller.
    """
    validate_label(spec, leaf)
    if leaf is TOP:
        return TOP
    if not 1 <= j <= spec.height:
        raise UsageError(f"subtree height {j} out of range [1, {spec.height}]")
    if k not in chain_indices(spec, j):
        raise UsageError(f"invalid chain index {k} at height {j}")
    if i < 0:
        raise UsageError("chain position must be >= 0")
    if spec.kind == STRAHLER and i == 0:
        raise UsageError("strahler raise with i = 0 is resolved by the caller")
    if i >= chain_length(spec, j, k):
        return TOP
    h = spec.height
    prefix = leaf[: h - j]
    if min_leaf_below(spec, prefix) != leaf:
        leaf = next_subtree_min(spec, prefix)
        if leaf is TOP:
            return TOP
    if _raise_self_ok(spec, leaf, i, j, k):
        return leaf

    if spec.kind == PERFECT:
        # single-member chain: only reachable when i == 0 and the leaf is not
        # a subtree minimum, which normalisation already resolved
        return leaf if i == 0 else TOP

    if spec.kind == SUCCINCT:
        for idx in range(h - j - 1, -1, -1):
            vertex = leaf[:idx]
            budget = spec.bits - i - _string_bits_used(spec, vertex)
            if budget < 0:
                continue
            length, bits = _sdecode(spec, leaf[idx])
            nxt = _succ_next_component(length, bits, budget)
            if nxt is None:
                continue
            new_prefix = vertex + (_skey(spec, *nxt),)
            spare = spec.bits - i - _string_bits_used(spec, new_prefix)
            parts: list[int] = []
            if idx + 1 < h - j:
                parts.append(_skey(spec, spare, 0))
                parts.extend([_EPS_KEY] * (h - j - idx - 2))
                reserved = i
            else:
                reserved = i + spare
            tail = [_skey(spec, reserved, 0)] + [_EPS_KEY] * (j - 1)
            return new_prefix + tuple(parts) + tuple(tail)
        return TOP

    # strahler: scan candidate siblings at each level, lowest level first
    g = spec.strahler_g
    for idx in range(h - j - 1, -1, -1):
        vertex = leaf[:idx]
        z, b, bad = _strahler_state(spec, vertex)
        between = (h - j) - idx - 1
        nl_cap = spec.bits - i - b
        if nl_cap < 0:
            continue
        strings = _ordered_lenbits(min(spec.max_complen, nl_cap + 1))
        keys = [_skey(spec, L, bb) for L, bb in strings]
        for pos in range(bisect_right(keys, leaf[idx]), len(keys)):
            length, bits = _sdecode(spec, keys[pos])
            znew = z + (1 if length else 0)
            if not (g - k) - between <= znew <= g - k:
                continue
            cand = _strahler_raise_completion(spec, vertex, keys[pos], i, j, k)
            if cand is not None:
                return cand
    return TOP


# ---------------------------------------------------------------------------
# leaf counting and enumeration
# ---------------------------------------------------------------------------


def leaf_count(spec: TreeSpec) -> int:
    """Exact number of leaves (arbitrary precision)."""
    if spec.kind == PERFECT:
        return spec.capacity ** spec.height
    if spec.kind == SUCCINCT:

        @lru_cache(maxsize=None)
        def count(levels, budget):
            if levels == 0:
                return 1
            return sum((1 << b) * count(levels - 1, budget - b)
                       for b in range(budget + 1))

        return count(spec.height, spec.bits)

    g, B = spec.strahler_g, spec.bits

    @lru_cache(maxsize=None)
    def count(levels, z, b, bad):
        if levels == 0:
            return 1 if z == g and not bad else 0
        total = 0
        if _comp_ok(spec, z, b, bad, 0, 0, levels - 1) is not None:
            total += count(levels - 1, z, b, False)
        for m in range(1, min(spec.max_complen, B - b + 1) + 1):
            if z + 1 > g:
                break
            half = 1 << (m - 1)
            st = _comp_ok(spec, z, b, bad, m, 0, levels - 1)
            if st is not None:
                total += half * count(levels - 1, z + 1, b + m - 1, bad)
            st = _comp_ok(spec, z, b, bad, m, half, levels - 1)
            if st is not None:
                total += half * count(levels - 1, z + 1, b + m - 1, True)
        return total

    return count(spec.height, 0, 0, False)


def iter_leaves(spec: TreeSpec):
    """All leaves in tree order (only sensible for small trees)."""

    def rec(prefix):
        if len(prefix) == spec.height:
            yield prefix
            return
        for key in child_components(spec, prefix):
            yield from rec(prefix + (key,))

    yield from rec(())
