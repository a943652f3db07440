import random

import pytest

from treelift import trees
from treelift.errors import LiftBudgetExceeded, UsageError
from treelift.game import StrategySubgraph, gen_random, parse_pgsolver
from treelift.labeling import (ArcStatus, NodeLabeling, arc_status, lift_arc,
                               progress_measure_solve)
from treelift.oracle import drop_arc, is_feasible
from treelift.trees import TOP, TreeSpec, leaf_from_components as LF

from .conftest import WORKED_TAU

A, B, C, D, E = range(5)


def worked_final(spec):
    if spec.kind == trees.PERFECT:
        vals = [TOP, TOP, (1, 0), (0, 0), (1, 0)]
    else:
        vals = [TOP, TOP, LF(spec, ["", "0"]), LF(spec, ["0", ""]),
                LF(spec, ["", "0"])]
    return NodeLabeling(spec, vals)


def worked_middle(spec):
    if spec.kind == trees.PERFECT:
        vals = [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)]
    else:
        vals = [LF(spec, ["", "0"]), LF(spec, ["", ""]), LF(spec, ["", "0"]),
                LF(spec, ["0", ""]), LF(spec, ["", "0"])]
    return NodeLabeling(spec, vals)


def test_arc_status_worked_example(worked, p32):
    mu = worked_final(p32)
    assert arc_status(worked, mu, A, D) == ArcStatus.LOOSE      # e1
    assert arc_status(worked, mu, C, D) == ArcStatus.TIGHT      # e2
    assert arc_status(worked, mu, C, B) == ArcStatus.VIOLATED   # e3


def test_top_top_is_tight(worked, p32):
    mu = NodeLabeling.all_top(p32, worked.n)
    assert arc_status(worked, mu, A, B) == ArcStatus.TIGHT


def test_lift_drop_examples(worked, p32):
    mu = NodeLabeling.all_min(p32, worked.n)
    assert lift_arc(worked, mu, A, D) == (0, 1)
    # tight arc is a fixed point of both operators
    mid = worked_middle(p32)
    assert arc_status(worked, mid, A, D) == ArcStatus.TIGHT
    assert lift_arc(worked, mid, A, D) == mid[A]
    assert drop_arc(worked, mid, A, D) == mid[A]
    # drop from TOP against head (0,0) at even priority 2: the largest
    # non-loose label over the nine leaves plus TOP is (0,0)
    nu = NodeLabeling(p32, [TOP] * 5)
    nu[C] = (0, 0)
    ev = parse_pgsolver("0 2 0 1; 1 2 0 0;")
    lab = NodeLabeling(p32, [TOP, (0, 0)])
    assert drop_arc(ev, lab, 0, 1) == (0, 0)


def test_lift_drop_duality_random():
    # composing the two operators lands on the tight value, which both then
    # fix; the plain equations hold from the matching side (lift result is
    # stable under drop when the arc was not loose, and vice versa)
    rng = random.Random(9)
    spec = TreeSpec.succinct(8, 2)
    leaves = list(trees.iter_leaves(spec)) + [TOP]
    g = gen_random(6, 4, 3, seed=4)
    for _ in range(300):
        lab = NodeLabeling(spec, [rng.choice(leaves) for _ in range(g.n)])
        v = rng.randrange(g.n)
        w = rng.choice(g.succ[v])
        status = arc_status(g, lab, v, w)
        lifted = lift_arc(g, lab, v, w)
        dropped = drop_arc(g, lab, v, w)
        lab2 = lab.copy()
        lab2[v] = lifted
        after_lift = drop_arc(g, lab2, v, w)
        lab3 = lab.copy()
        lab3[v] = dropped
        after_drop = lift_arc(g, lab3, v, w)
        tight = trees.tighten_target(spec, lab[w], g.priorities[v])
        assert after_lift == after_drop == tight
        if status != ArcStatus.LOOSE:
            assert after_lift == lifted
        if status != ArcStatus.VIOLATED:
            assert after_drop == dropped
        # idempotence of each operator
        assert lift_arc(g, lab2, v, w) == lifted
        assert drop_arc(g, lab3, v, w) == dropped


def test_lift_monotone_in_head():
    spec = TreeSpec.succinct(8, 2)
    g = parse_pgsolver("0 1 1 1; 1 2 0 0;")
    leaves = sorted(trees.iter_leaves(spec)) + [TOP]
    prev = None
    for head in leaves:
        lab = NodeLabeling(spec, [trees.min_leaf(spec), head])
        cur = lift_arc(g, lab, 0, 1)
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_is_feasible(worked, p32):
    assert is_feasible(worked, worked_final(p32))
    assert is_feasible(worked, NodeLabeling.all_top(p32, worked.n))
    # the intermediate labeling is feasible in the strategy subgraph but not
    # in the whole game: the odd arc A->B is violated
    mid = worked_middle(p32)
    assert not is_feasible(worked, mid)
    sub = StrategySubgraph(worked, WORKED_TAU)
    ok, sigma = is_feasible(sub, mid, arcs=sub.arcs(), witness=True)
    assert ok and sigma[D] == E


def test_progress_measure_worked(worked, p32, s32):
    res = progress_measure_solve(worked, p32)
    assert res.labeling == worked_final(p32)
    res2 = progress_measure_solve(worked, s32)
    assert res2.labeling == worked_final(s32)
    assert res.lifts > 0


def test_progress_measure_trivial():
    g = parse_pgsolver("0 2 0 0;")
    spec = TreeSpec.perfect(1, 1)
    res = progress_measure_solve(g, spec)
    assert res.labeling[0] == trees.min_leaf(spec)
    assert res.lifts == 0


def test_progress_measure_budget(worked, p32):
    with pytest.raises(LiftBudgetExceeded) as err:
        progress_measure_solve(worked, p32, budget=2)
    assert err.value.lifts == 2
    assert isinstance(err.value.labeling, NodeLabeling)
    with pytest.raises(UsageError, match="lift budget must be >= 0, got -1"):
        progress_measure_solve(worked, p32, budget=-1)


def test_cycle_lemma_small_games():
    # on every simple cycle: a drop-stable labeling with a finite label forces
    # the cycle even and all labels equal after truncation at its priority
    import networkx as nx

    rng = random.Random(31)
    for _ in range(40):
        g = gen_random(rng.randint(2, 8), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        spec = TreeSpec.perfect(g.n, g.d // 2)
        dig = nx.DiGraph(list(g.arcs()))
        for cyc in nx.simple_cycles(dig):
            arcs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
            pc = max(g.priorities[v] for v in cyc)
            top_nodes = [v for v in cyc if g.priorities[v] == pc]
            lab = NodeLabeling.all_top(spec, g.n)
            lab[top_nodes[0]] = trees.min_leaf(spec)
            changed = True
            while changed:
                changed = False
                for v, w in arcs:
                    t = trees.tighten_target(spec, lab[w], g.priorities[v])
                    if t < lab[v]:
                        lab[v] = t
                        changed = True
            finite = [v for v in cyc if lab[v] is not TOP]
            if is_feasible(g, lab, arcs=arcs) and finite:
                assert pc % 2 == 0
                cuts = {trees.truncate(spec, lab[v], pc) for v in cyc}
                assert len(cuts) == 1
            if pc % 2 == 0:
                # an even cycle always admits a finite feasible labeling in
                # the capacity-n perfect tree, and the drops find it
                assert len(finite) == len(cyc)
                assert is_feasible(g, lab, arcs=arcs)
