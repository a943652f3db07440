import random

import pytest

from treelift import trees
from treelift.errors import UsageError
from treelift.game import gen_random, parse_pgsolver
from treelift.labeling import NodeLabeling, progress_measure_solve
from treelift.oracle import zielonka_solve
from treelift.solver import (SwitchAll, SwitchFirst, SwitchRandom,
                             admissible_arcs, extract_even_strategy, pivot,
                             strategy_iteration_solve)
from treelift.trees import TOP, TreeSpec, leaf_from_components as LF

from .conftest import WORKED_TAU
from .test_labeling import worked_final, worked_middle

A, B, C, D, E = range(5)


def test_admissible_arcs(worked, p32):
    # after the first fixed point only Odd's arc A->B is an improvement
    assert admissible_arcs(worked, worked_middle(p32)) == [(A, B)]
    assert admissible_arcs(worked, worked_final(p32)) == []
    # from the all-minimum labeling both of A's arcs are violated, while
    # E's arc at even priority 2 is already tight
    assert admissible_arcs(worked, NodeLabeling.all_min(p32, worked.n)) == \
        [(A, B), (A, D)]


def test_pivot_rules(worked, p32):
    mid = worked_middle(p32)
    tau2 = pivot(worked, dict(WORKED_TAU), mid, SwitchAll())
    assert tau2 == {A: B, E: C}
    assert pivot(worked, dict(WORKED_TAU), mid, SwitchFirst()) == {A: B, E: C}
    r1 = pivot(worked, dict(WORKED_TAU), mid, SwitchRandom(4))
    r2 = pivot(worked, dict(WORKED_TAU), mid, SwitchRandom(4))
    assert r1 == r2
    with pytest.raises(UsageError):
        pivot(worked, dict(WORKED_TAU), worked_final(p32), SwitchAll())


def test_worked_phases_perfect(worked, p32):
    res = strategy_iteration_solve(worked, p32, tau1=WORKED_TAU)
    assert res.phases == 2
    want = [
        [(0, 0)] * 5,
        [(0, 1), (0, 2), (1, 0), (0, 0), (1, 0)],
        [TOP, TOP, (1, 0), (0, 0), (1, 0)],
    ]
    assert [lab.values for lab in res.phase_labels] == want
    assert res.even_wins == (C, D, E)
    assert res.odd_wins == (A, B)
    assert res.warnings  # capacity 3 < n = 5


def test_worked_phases_succinct(worked, s32):
    res = strategy_iteration_solve(worked, s32, tau1=WORKED_TAU)
    e, z, o = LF(s32, ["", ""]), LF(s32, ["0", ""]), LF(s32, ["", "0"])
    want = [
        [z] * 5,
        [o, e, o, z, o],
        [TOP, TOP, o, z, o],
    ]
    assert [lab.values for lab in res.phase_labels] == want
    assert res.even_wins == (C, D, E)


def test_no_odd_nodes_single_phase():
    g = parse_pgsolver("0 2 0 1; 1 1 0 0,1;")
    spec = TreeSpec.perfect(2, 1)
    res = strategy_iteration_solve(g, spec)
    assert res.phases == 1
    assert res.strategy_odd == {}


def test_extract_even_strategy(worked, p32):
    sigma = extract_even_strategy(worked, worked_final(p32))
    assert sigma == {C: D, D: E}

    loop = parse_pgsolver("0 2 0 0;")
    spec = TreeSpec.perfect(1, 1)
    lab = NodeLabeling.all_min(spec, 1)
    assert extract_even_strategy(loop, lab) == {0: 0}

    all_top = NodeLabeling.all_top(p32, worked.n)
    assert extract_even_strategy(worked, all_top) == {}


def test_phase_monotonicity_and_rule_independence():
    rng = random.Random(23)
    for _ in range(20):
        g = gen_random(rng.randint(2, 14), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        spec = TreeSpec.succinct(g.n, g.d // 2)
        results = [
            strategy_iteration_solve(g, spec, rule=SwitchAll()),
            strategy_iteration_solve(g, spec, rule=SwitchFirst()),
            strategy_iteration_solve(g, spec, rule=SwitchRandom(rng.randint(0, 99))),
        ]
        final = results[0].labeling
        for res in results:
            assert res.labeling == final
            assert res.even_wins == results[0].even_wins
            labs = res.phase_labels
            for prev, cur in zip(labs, labs[1:]):
                assert prev.leq(cur)
            for prev, cur in zip(labs[1:], labs[2:]):
                assert prev.values != cur.values


def test_agreement_with_progress_measure():
    # two capacity-2 games on which the label-setting engine is wrong, so
    # 'auto' must not pick it below capacity n
    cases = [(gen_random(14, 4, 3, seed=1866400320), 2),
             (gen_random(14, 2, 3, seed=2224788822), 2)]
    rng = random.Random(15)
    for _ in range(25):
        g = gen_random(rng.randint(2, 12), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        cases.append((g, g.n))
    for g, cap in cases:
        h = g.d // 2
        specs = [TreeSpec.perfect(cap, h), TreeSpec.succinct(cap, h),
                 TreeSpec.strahler(min(h, cap.bit_length() - 1), cap, h)]
        for spec in specs:
            want = progress_measure_solve(g, spec).labeling
            engines = ["auto"]
            if spec.kind == trees.PERFECT and cap >= g.n:
                engines.append("lc")
            for engine in engines:
                res = strategy_iteration_solve(g, spec, engine=engine, record_phases=False)
                assert res.labeling == want, (spec, engine)


def test_winners_match_zielonka_smoke():
    rng = random.Random(6)
    for _ in range(20):
        g = gen_random(rng.randint(2, 12), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        spec = TreeSpec.perfect(g.n, g.d // 2)
        res = strategy_iteration_solve(g, spec, record_phases=False)
        part = zielonka_solve(g)
        assert frozenset(res.even_wins) == part.even_wins


def test_race_naive_flag(worked, p32):
    res = strategy_iteration_solve(worked, p32, tau1=WORKED_TAU, race_naive=True)
    assert res.even_wins == (C, D, E)


def test_engine_overrides(worked, p32, s32):
    p52 = TreeSpec.perfect(worked.n, 2)
    by_lc = strategy_iteration_solve(worked, p52, engine="lc")
    by_pf = strategy_iteration_solve(worked, p52, engine="perfect")
    by_dj = strategy_iteration_solve(worked, p52, engine="dijkstra")
    assert by_lc.labeling == by_pf.labeling == by_dj.labeling
    with pytest.raises(UsageError):
        strategy_iteration_solve(worked, s32, engine="perfect")
    # below capacity n only the label-correcting engine is exact
    assert (strategy_iteration_solve(worked, p32).labeling ==
            strategy_iteration_solve(worked, p32, engine="lc").labeling)
    for engine in ("perfect", "dijkstra"):
        with pytest.raises(UsageError):
            strategy_iteration_solve(worked, p32, engine=engine)
