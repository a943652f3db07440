import copy
import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys

import pytest

from treelift import trees
from treelift.errors import UsageError
from treelift.oracle import all_leaves, brute_raise
from treelift.trees import (TOP, TreeSpec, format_label, leaf_count,
                            leaf_from_components, min_leaf, min_leaf_below,
                            raise_leaf, tighten_target, truncate, zeta)

LF = leaf_from_components


def leaf_cmp(spec: TreeSpec, a, b) -> int:
    """Total order on labels of ``spec``, each validated: -1, 0 or 1.  TOP is
    the maximum."""
    trees.validate_label(spec, a)
    trees.validate_label(spec, b)
    return (a > b) - (a < b)


def strip_zeros(spec: TreeSpec, label, kappa: int):
    """Delete ``kappa`` leading zeroes from the first component of a succinct
    leaf; TOP if the first component has fewer than ``kappa`` of them."""
    if spec.kind != trees.SUCCINCT:
        raise UsageError("strip_zeros is defined for succinct trees only")
    if kappa < 0:
        raise UsageError("kappa must be >= 0")
    if label is TOP or kappa > zeta(spec, label):
        return TOP
    first, *rest = trees.components_of(spec, label)
    return LF(spec, [first[kappa:], *rest])


def chain_info(spec: TreeSpec, j: int):
    """(number of chains, {k: chain length}) for the height-j subcover."""
    ks = trees.chain_indices(spec, j)
    return len(ks), {k: trees.chain_length(spec, j, k) for k in ks}


def test_leaf_cmp_examples(s32):
    assert leaf_cmp(s32, LF(s32, ["0", ""]), LF(s32, ["", "0"])) == -1
    assert leaf_cmp(s32, LF(s32, ["", "0"]), LF(s32, ["", ""])) == -1
    assert leaf_cmp(s32, LF(s32, ["0", ""]), TOP) == -1
    assert leaf_cmp(s32, TOP, TOP) == 0


def test_leaf_cmp_rejects_cross_spec(s32, p32):
    with pytest.raises(UsageError):
        leaf_cmp(p32, LF(s32, ["0", ""]), (0, 0))


def test_total_order_random_sample(s72):
    leaves = list(trees.iter_leaves(s72))
    rng = random.Random(5)
    sample = rng.sample(leaves, 10) + [TOP]
    for a in sample:
        assert leaf_cmp(s72, a, a) == 0
        for b in sample:
            assert leaf_cmp(s72, a, b) == -leaf_cmp(s72, b, a)
            for c in sample:
                if leaf_cmp(s72, a, b) <= 0 and leaf_cmp(s72, b, c) <= 0:
                    assert leaf_cmp(s72, a, c) <= 0
    assert min(leaves) == min_leaf(s72)


def test_truncate(p32):
    leaf = LF(p32, [1, 0])
    assert truncate(p32, leaf, 3) == (1,)
    assert truncate(p32, leaf, 4) == ()
    assert truncate(p32, TOP, 2) is TOP
    with pytest.raises(UsageError):
        truncate(p32, leaf, 5)
    with pytest.raises(UsageError):
        truncate(p32, leaf, 0)


def test_min_leaf(p32, s32, s72):
    assert min_leaf(p32) == (0, 0)
    assert min_leaf(s32) == LF(s32, ["0", ""])
    # leftmost leaf under the root child "1" of the 17-leaf tree
    prefix = LF(s72, ["1", ""])[:1]
    assert min_leaf_below(s72, prefix) == LF(s72, ["1", "0"])


def test_tighten_target_perfect(p32):
    assert tighten_target(p32, (0, 0), 1) == (0, 1)
    assert tighten_target(p32, (0, 1), 1) == (0, 2)
    assert tighten_target(p32, (0, 0), 2) == (0, 0)
    assert tighten_target(p32, TOP, 2) is TOP


def _feasible_pair(spec, tail, head, p):
    # the arc condition: even p needs tail|p >= head|p, odd p strict >
    t, h = truncate(spec, tail, p), truncate(spec, head, p)
    if p % 2 == 0:
        return t >= h
    return t > h or (tail is TOP and head is TOP)


@pytest.mark.parametrize("spec", [
    TreeSpec.perfect(3, 2),
    TreeSpec.succinct(3, 2),
    TreeSpec.succinct(7, 2),
    TreeSpec.strahler(1, 2, 2),
    TreeSpec.succinct(2, 3),
])
def test_tightness_brute(spec):
    # tighten_target is the least label satisfying the arc condition
    assert leaf_count(spec) <= 17
    leaves = list(trees.iter_leaves(spec))
    for head in leaves:
        for p in range(1, 2 * spec.height + 1):
            xi = tighten_target(spec, head, p)
            if xi is not TOP:
                assert _feasible_pair(spec, xi, head, p)
            for cand in leaves:
                if cand < xi or xi is TOP:
                    assert not _feasible_pair(spec, cand, head, p)


def test_raise_examples(p32, s72):
    assert raise_leaf(p32, (0, 1), 0, 1, 0) == (1, 0)
    # derived by scanning the 17 leaves of the (7,2) tree: the subtree minima
    # with at least one spare bit are (0,0), ( ,00) and (1,0)
    assert raise_leaf(s72, LF(s72, ["", ""]), 1, 1, 0) == LF(s72, ["1", "0"])
    assert raise_leaf(s72, LF(s72, ["", "00"]), 2, 1, 0) == LF(s72, ["", "00"])
    assert raise_leaf(s72, LF(s72, ["0", "0"]), 1, 1, 0) == LF(s72, ["0", "0"])
    # no chain member has three spare bits
    assert raise_leaf(s72, LF(s72, ["", ""]), 3, 1, 0) is TOP
    # TOP raises to TOP, but only for arguments a leaf would accept
    s83 = TreeSpec.succinct(8, 3)
    assert raise_leaf(s83, TOP, 0, 1, 0) is TOP
    for i, j, k in ((-1, 99, 7), (0, 99, 0), (0, 1, 7), (-1, 1, 0)):
        for xi in (TOP, min_leaf(s83)):
            with pytest.raises(UsageError):
                raise_leaf(s83, xi, i, j, k)


def test_raise_strahler_contract():
    spec = TreeSpec.strahler(1, 7, 2)
    for i in (0, 1):
        got = raise_leaf(spec, min_leaf(spec), i, 1, 1)
        assert got == brute_raise(spec, min_leaf(spec), i, 1, 1)


SMALL_STRING_SPECS = [
    TreeSpec.succinct(5, 2),
    TreeSpec.succinct(8, 3),
    TreeSpec.strahler(2, 9, 3),
    TreeSpec.strahler(1, 4, 2),
]


@pytest.mark.parametrize("spec", SMALL_STRING_SPECS)
def test_raise_matches_brute_small(spec):
    leaves = list(trees.iter_leaves(spec))
    for j in range(1, spec.height + 1):
        for k in trees.chain_indices(spec, j):
            for i in range(trees.chain_length(spec, j, k)):
                for xi in leaves:
                    assert raise_leaf(spec, xi, i, j, k) == \
                        brute_raise(spec, xi, i, j, k), (xi, i, j, k)


def _random_leaf(spec: TreeSpec, rng: random.Random):
    """A seeded random leaf of a string tree: random nonempty places (exactly
    g of them on a Strahler tree), mostly short strings of random bits, half
    of them forced to start with 0, drawn again until the components form a
    leaf."""
    h = spec.height
    while True:
        if spec.kind == trees.STRAHLER:
            places = set(rng.sample(range(h), spec.strahler_g))
        else:
            places = {p for p in range(h) if rng.random() < 0.5}
        comps = []
        for p in range(h):
            n = 0
            if p in places:
                n = rng.randint(1, spec.max_complen) if rng.random() < 0.25 else rng.randint(1, 3)
            bits = rng.getrandbits(n) >> rng.randint(0, 1)  # half start with 0
            comps.append(format(bits, "b").zfill(n) if n else "")
        try:
            return LF(spec, comps)
        except UsageError:
            continue


PINNED_RAISE_SHA256 = "30d60c7a5831ad481118411d65040ea611827c13fee016c760d1552da1ada23e"

PINNED_RAISE_SPECS = [
    TreeSpec.succinct(2 ** 30, 7),
    TreeSpec.succinct(2 ** 30, 2),
    TreeSpec.succinct(1000, 6),
    TreeSpec.succinct(2 ** 20, 3),
    TreeSpec.strahler(1, 2 ** 30, 7),
    TreeSpec.strahler(3, 2 ** 30, 7),
    TreeSpec.strahler(7, 2 ** 30, 7),
    TreeSpec.strahler(2, 2 ** 30, 3),
    TreeSpec.strahler(4, 2 ** 16, 6),
    TreeSpec.strahler(2, 1000, 5),
]


def test_raise_pinned_beyond_brute_force():
    # raises on trees far too large for brute_raise, pinned by the sha256 of
    # their rendered results.  An input is a random leaf or the minimum of one
    # of its subtrees; positions run from 1 on Strahler trees (position 0 is
    # checked against brute_raise on small trees) to one past the chain's
    # end, where the raise is TOP
    rng = random.Random(2020)
    lines = []
    for spec in PINNED_RAISE_SPECS:
        for _ in range(300):
            xi = _random_leaf(spec, rng)
            if rng.random() < 0.5:
                xi = tighten_target(spec, xi, rng.randint(1, 2 * spec.height))
                if xi is TOP:
                    xi = min_leaf(spec)
            j = rng.randint(1, spec.height)
            k = rng.choice(trees.chain_indices(spec, j))
            i = rng.randint(1 if spec.kind == trees.STRAHLER else 0,
                            trees.chain_length(spec, j, k))
            got = raise_leaf(spec, xi, i, j, k)
            lines.append(f"{format_label(spec, xi)} {i} {j} {k} {format_label(spec, got)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_RAISE_SHA256
    # at height 1,200 a raise walks the levels without recursing; k is the
    # last chain at j = 1
    empty = [""] * 1200
    succinct = TreeSpec.succinct(1000, 1200)
    assert raise_leaf(succinct, min_leaf(succinct), 2, 1, 0) == \
        LF(succinct, ["0" * 7] + empty[2:] + ["00"])
    strahler = TreeSpec.strahler(3, 1000, 1200)
    assert trees.chain_indices(strahler, 1)[-1] == 1
    assert raise_leaf(strahler, min_leaf(strahler), 2, 1, 1) == \
        LF(strahler, ["0" * 8, "0"] + empty[3:] + ["000"])


@pytest.mark.parametrize("spec", SMALL_STRING_SPECS)
def test_floor_leaf_is_the_position_zero_raise(spec):
    # the label-correcting engine's value for a zero-cost cycle: the raise at
    # chain position 0, minimised over every chain of the height
    for j in range(1, spec.height + 1):
        for xi in trees.iter_leaves(spec):
            want = min(brute_raise(spec, xi, 0, j, k)
                       for k in trees.chain_indices(spec, j))
            assert trees.floor_leaf(spec, xi, j) == want, (xi, j)


def test_raise_monotone(s72):
    leaves = list(trees.iter_leaves(s72))
    for j in (1, 2):
        for i in range(trees.chain_length(s72, j, 0)):
            vals = [raise_leaf(s72, xi, i, j, 0) for xi in leaves]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        for xi in leaves:
            by_i = [raise_leaf(s72, xi, i, j, 0)
                    for i in range(trees.chain_length(s72, j, 0))]
            assert all(a <= b for a, b in zip(by_i, by_i[1:]))


def test_zeta(s72):
    wide = TreeSpec.succinct(16, 2)
    assert zeta(wide, LF(wide, ["001", "0"])) == 2
    assert zeta(wide, TOP) == -1
    assert zeta(s72, LF(s72, ["", "01"])) == 0
    with pytest.raises(UsageError):
        zeta(TreeSpec.perfect(3, 2), (0, 0))


def test_strip_zeros(s72):
    leaf = LF(s72, ["00", ""])
    assert strip_zeros(s72, leaf, 1) == LF(s72, ["0", ""])
    assert strip_zeros(s72, leaf, 3) is TOP
    assert strip_zeros(s72, TOP, 0) is TOP
    with pytest.raises(UsageError):
        strip_zeros(TreeSpec.strahler(1, 7, 2), None, 0)


def test_leaf_count(p32, s32, s72):
    assert leaf_count(p32) == 9
    assert leaf_count(s32) == 5
    assert leaf_count(s72) == 17


def test_leaf_count_matches_enumeration():
    # every succinct tree and every strahler tree with 0 <= g <= h (g = 0 and
    # capacity 1 are chain-member value domains) up to capacity 16, height 3:
    # counts, leaf order and navigation against the independent enumeration
    specs = prefixes = 0
    for h in range(1, 4):
        for cap in range(1, 17):
            for spec in [TreeSpec.succinct(cap, h)] + [
                    TreeSpec(trees.STRAHLER, cap, h, g) for g in range(h + 1)]:
                leaves = list(trees.iter_leaves(spec))
                assert [trees.components_of(spec, leaf) for leaf in leaves] == \
                    list(all_leaves(spec))
                assert leaf_count(spec) == len(leaves) == len(all_leaves(spec))
                for depth in range(h + 1):
                    runs = {}  # prefix -> [first index, last index, leaves]
                    for idx, leaf in enumerate(leaves):
                        run = runs.setdefault(leaf[:depth], [idx, idx, 0])
                        run[1] = idx
                        run[2] += 1
                    for pre, (first, last, size) in runs.items():
                        assert last - first + 1 == size  # a subtree's leaves are contiguous
                        assert min_leaf_below(spec, pre) == leaves[first]
                        assert trees.next_subtree_min(spec, pre) == \
                            (leaves[last + 1] if last + 1 < len(leaves) else TOP)
                        if depth < h:
                            below = leaves[first:last + 1]
                            assert trees.child_components(spec, pre) == \
                                list(dict.fromkeys(leaf[depth] for leaf in below))
                    prefixes += len(runs)
                specs += 1
    assert (specs, prefixes) == (192, 16302)



def test_string_trees_at_height_1500():
    # navigation and counting take no Python stack per tree level.  The
    # succinct tree of capacity 4 has sum over t <= 2 of C(t + h - 1, t) 2**t
    # leaves, and the strahler tree with g = 1 and capacity 2 has 6h - 3: one
    # nonempty string of 1 or 2 bits at one of h places, not starting with 1
    # at the last; both formulas are checked on small heights first
    from math import comb
    counts = {trees.SUCCINCT: lambda h: sum(comb(t + h - 1, t) << t for t in range(3)),
              trees.STRAHLER: lambda h: 6 * h - 3}
    make = {trees.SUCCINCT: lambda h: TreeSpec.succinct(4, h),
            trees.STRAHLER: lambda h: TreeSpec.strahler(1, 2, h)}
    h = 1500
    for kind in (trees.SUCCINCT, trees.STRAHLER):
        for small in range(1, 5):
            assert len(all_leaves(make[kind](small))) == counts[kind](small)
        spec = make[kind](h)
        assert leaf_count(spec) == counts[kind](h)
        empty = [""] * (h - 1)
        least = LF(spec, ["00"] + empty)
        assert min_leaf(spec) == least
        # after "00" the first string is "0", then the least completion
        second = LF(spec, ["0", "0"] + empty[1:] if kind == trees.SUCCINCT else ["0"] + empty)
        assert trees.next_subtree_min(spec, least[:1]) == second
        assert trees.next_subtree_min(spec, least[:-1]) == second
        assert tighten_target(spec, least, 1) == second
        assert tighten_target(spec, least, 2) == least
        assert tighten_target(spec, second, 2 * h) == least
        # the only nonempty string at the deepest place
        deep = LF(spec, empty + ["00"])
        assert min_leaf_below(spec, deep[:-1]) == deep
        assert tighten_target(spec, deep, 1) == LF(spec, empty + ["0"])
        # the next place's least string after the empty one starts with 1
        assert tighten_target(spec, deep, 3) == LF(spec, empty[1:] + ["10", ""])


def test_walk_steps_each_prefix_once(monkeypatch):
    # a successor walk steps its prefix forward once and reads the states as
    # it climbs, and a least completion repeats a state-keeping first child as
    # one run, so crossing a height-h tree costs O(h) step-rule calls in all,
    # not O(h) per level
    h = 1200
    calls = []
    step = trees._comp_ok
    monkeypatch.setattr(trees, "_comp_ok", lambda *args: calls.append(1) or step(*args))
    for spec in (TreeSpec.succinct(4, h), TreeSpec.strahler(1, 2, h)):
        calls.clear()
        got = tighten_target(spec, min_leaf(spec), 1)
        assert len(calls) <= 2 * h, (spec, len(calls))
        assert got == trees.next_subtree_min(spec, min_leaf(spec)[:1])


def test_chain_info(p32, s72):
    assert chain_info(s72, 1) == (1, {0: 3})
    for j in range(3):
        assert chain_info(p32, j) == (1, {0: 1})
    # strahler chains exist exactly in the window of valid subtree Strahler
    # numbers; the single-string path chain k=0 is present here as well
    st = TreeSpec.strahler(1, 7, 2)
    assert chain_info(st, 1) == (2, {0: 3, 1: 3})
    assert chain_info(st, 2) == (1, {1: 3})


def test_chain_property_embedding():
    # within a chain, each member embeds into the next
    from treelift.oracle import embed_check
    from .conftest import materialize

    for spec in (TreeSpec.succinct(8, 2), TreeSpec.strahler(2, 8, 2)):
        for j in (1, 2):
            for k in trees.chain_indices(spec, j):
                length = trees.chain_length(spec, j, k)
                for i in range(length - 1):
                    small = materialize(trees.chain_member_spec(spec, j, k, i))
                    host = trees.chain_member_spec(spec, j, k, i + 1)
                    assert embed_check(small, host), (spec, j, k, i)


def test_format_label(p32, s72):
    assert format_label(p32, (1, 2)) == "(1,2)"
    wide = TreeSpec.succinct(16, 2)
    assert format_label(wide, LF(wide, ["1", "00"])) == "(1,00)"
    assert format_label(s72, LF(s72, ["", "0"])) == "( ,0)"
    assert format_label(s72, TOP) == "TOP"


def test_spec_validation():
    with pytest.raises(UsageError):
        TreeSpec.strahler(3, 7, 2)  # g > min(h, log2 cap)
    with pytest.raises(UsageError):
        TreeSpec("weird", 3, 2)
    with pytest.raises(UsageError):
        TreeSpec.perfect(0, 2)
    spec = TreeSpec.strahler(2, 8, 3)
    assert spec.bits == 3


def test_spec_equality_by_value():
    a, b = TreeSpec.strahler(2, 8, 3), TreeSpec.strahler(2, 8, 3)
    assert a is b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != ("strahler", 8, 3, 2)
    assert ("strahler", 8, 3, 2) != a
    assert a != dataclasses.astuple(a)
    for other in (dataclasses.replace(a, capacity=9), dataclasses.replace(a, height=4),
                  dataclasses.replace(a, strahler_g=1)):
        assert a != other and not a == other
    assert TreeSpec.perfect(8, 3) != TreeSpec.succinct(8, 3)


def test_spec_value_api():
    spec = TreeSpec.strahler(2, 8, 3)
    assert repr(spec) == "TreeSpec(kind='strahler', capacity=8, height=3, strahler_g=2)"
    assert dataclasses.replace(spec, capacity=16) == TreeSpec.strahler(2, 16, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.capacity = 9
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec)


def test_spec_is_interned():
    spec = TreeSpec.strahler(2, 8, 3)
    assert TreeSpec("strahler", 8, 3, 2) is spec
    assert TreeSpec(kind="strahler", capacity=8, height=3, strahler_g=2) is spec
    assert TreeSpec.strahler(2, 8, 3) is spec
    assert dataclasses.replace(TreeSpec.strahler(2, 16, 3), capacity=8) is spec
    assert copy.copy(spec) is spec and copy.deepcopy(spec) is spec
    assert pickle.loads(pickle.dumps(spec)) is spec
    member = trees.chain_member_spec(spec, 2, 1, 2)
    assert trees.chain_member_spec(spec, 2, 1, 2) is member
    assert member is TreeSpec(trees.STRAHLER, 4, 2, 1)
    assert TreeSpec.__eq__ is object.__eq__ and TreeSpec.__hash__ is object.__hash__
    assert (spec.bits, spec.keylen, spec.max_complen) == (3, 5, 4)


def test_rejected_spec_is_not_interned():
    before = dict(trees._SPECS)
    for args in (("weird", 3, 2), (trees.PERFECT, 0, 2), (trees.SUCCINCT, 3, 0),
                 (trees.STRAHLER, 8, 2, 3), (trees.PERFECT, 8, 2, 1)):
        with pytest.raises(UsageError):
            TreeSpec(*args)
    with pytest.raises(UsageError):
        TreeSpec.strahler(3, 7, 2)
    assert trees._SPECS == before


def test_spec_pickled_in_another_process():
    # string hashes are salted per process: an unpickled spec must be this
    # process's interned object, not carry the other process's hash
    src = os.path.dirname(os.path.dirname(trees.__file__))
    code = ("import pickle, sys; from treelift.trees import TreeSpec; "
            "sys.stdout.write(pickle.dumps(TreeSpec.succinct(8, 3)).hex())")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    spec = pickle.loads(bytes.fromhex(proc.stdout))
    assert spec is TreeSpec.succinct(8, 3)
    assert hash(spec) == hash(TreeSpec.succinct(8, 3))
    assert {TreeSpec.succinct(8, 3): 1}[spec] == 1


def test_equal_spec_reuses_tighten_cache():
    from treelift.game import gen_random
    from treelift.solver import strategy_iteration_solve

    game = gen_random(30, 6, 3, seed=11)
    for make in (lambda: TreeSpec.perfect(30, 3), lambda: TreeSpec.succinct(30, 3),
                 lambda: TreeSpec.strahler(2, 30, 3)):
        first = strategy_iteration_solve(game, make(), engine="lc")
        misses = tighten_target.cache_info().misses
        second = strategy_iteration_solve(game, make(), engine="lc")
        assert tighten_target.cache_info().misses == misses
        assert second.labeling.values == first.labeling.values


@pytest.mark.parametrize("spec", [TreeSpec.succinct(8, 3), TreeSpec.strahler(2, 8, 3)])
def test_key_at_minus_two_to_the_keylen_is_a_usage_error(spec):
    # no string has this key, and decoding it would shift by -1: every entry
    # point that steps a prefix rejects it as it rejects any other bad key
    bad = -(1 << spec.keylen)
    leaf = (bad,) + min_leaf(spec)[1:]
    k = trees.chain_indices(spec, 1)[0]
    for call in (lambda: trees.validate_label(spec, leaf),
                 lambda: trees.next_subtree_min(spec, (bad,)),
                 lambda: tighten_target(spec, leaf, 1),
                 lambda: raise_leaf(spec, leaf, 0, 1, k)):
        with pytest.raises(UsageError, match="does not decode to a string"):
            call()


def test_memoised_raise_rejects_unhashable_leaves(p32, s72):
    # the memo must not turn the UsageError for a non-leaf into a TypeError
    for spec in (p32, s72):
        leaf = min_leaf(spec)
        for bad in (list(leaf), (leaf[0], [leaf[1]])):
            with pytest.raises(UsageError):
                raise_leaf(spec, bad, 0, 1, 0)
            with pytest.raises(UsageError):
                raise_leaf(spec=spec, leaf=bad, i=0, j=1, k=0)
        assert raise_leaf(spec=spec, leaf=leaf, i=0, j=1, k=0) == raise_leaf(spec, leaf, 0, 1, 0)

