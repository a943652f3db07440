import dataclasses
import os
import pickle
import random
import subprocess
import sys

import pytest

from treelift import trees
from treelift.errors import UsageError
from treelift.oracle import all_leaves, brute_raise
from treelift.trees import (TOP, TreeSpec, chain_info, format_label, leaf_cmp,
                            leaf_count, leaf_from_components, min_leaf,
                            min_leaf_below, raise_leaf, strip_zeros,
                            tighten_target, truncate, zeta)

LF = leaf_from_components


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


def test_raise_strahler_contract():
    spec = TreeSpec.strahler(1, 7, 2)
    with pytest.raises(UsageError):
        raise_leaf(spec, min_leaf(spec), 0, 1, 1)
    got = raise_leaf(spec, min_leaf(spec), 1, 1, 1)
    assert got == brute_raise(spec, min_leaf(spec), 1, 1, 1)


@pytest.mark.parametrize("spec", [
    TreeSpec.succinct(5, 2),
    TreeSpec.succinct(8, 3),
    TreeSpec.strahler(2, 9, 3),
    TreeSpec.strahler(1, 4, 2),
])
def test_raise_matches_brute_small(spec):
    leaves = list(trees.iter_leaves(spec))
    for j in range(1, spec.height + 1):
        for k in trees.chain_indices(spec, j):
            lo = 1 if spec.kind == trees.STRAHLER else 0
            for i in range(lo, trees.chain_length(spec, j, k)):
                for xi in leaves:
                    assert raise_leaf(spec, xi, i, j, k) == \
                        brute_raise(spec, xi, i, j, k), (xi, i, j, k)


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
    for spec in (TreeSpec.succinct(6, 3), TreeSpec.strahler(2, 8, 3),
                 TreeSpec.strahler(1, 5, 2)):
        assert leaf_count(spec) == len(list(trees.iter_leaves(spec)))
        assert leaf_count(spec) == len(all_leaves(spec))


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
    assert a is not b
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
    assert spec.as_dict() == {"kind": "strahler", "capacity": 8, "height": 3,
                               "strahler_g": 2}
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.capacity = 9
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec)


def test_spec_pickled_in_another_process():
    # string hashes are salted per process: an unpickled spec must hash by
    # its fields in this process, not carry the other process's hash
    src = os.path.dirname(os.path.dirname(trees.__file__))
    code = ("import pickle, sys; from treelift.trees import TreeSpec; "
            "sys.stdout.write(pickle.dumps(TreeSpec.succinct(8, 3)).hex())")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    spec = pickle.loads(bytes.fromhex(proc.stdout))
    assert spec == TreeSpec.succinct(8, 3)
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
