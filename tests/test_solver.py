import os
import random
import subprocess
import sys

import pytest

from treelift import one_player, trees
from treelift.errors import InvariantError, UsageError
from treelift.game import gen_random, parse_pgsolver
from treelift.labeling import NodeLabeling, progress_measure_solve
from treelift.oracle import NaiveRace, zielonka_solve
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
    res = strategy_iteration_solve(worked, p32, tau1=WORKED_TAU, counters=NaiveRace())
    assert res.even_wins == (C, D, E)


def test_race_naive_random():
    # every phase of the label-correcting engine equals naive lifting on all
    # three trees, at capacity n and below it; d <= 6 because naive lifting
    # on a height-4 perfect tree of capacity 40 alone takes ~20 s
    rng = random.Random(29)
    # a game whose threshold probes need more worklist rounds than J_w has nodes
    games = [gen_random(10, 8, 3, seed=667637309)]
    for _ in range(30):
        games.append(gen_random(rng.randint(2, 40), rng.randint(1, 6), 3,
                                seed=rng.randint(0, 10 ** 9)))
    for g in games:
        h = g.d // 2 or 1
        for cap in (g.n, max(2, g.n // 3)):
            specs = [TreeSpec.perfect(cap, h), TreeSpec.succinct(cap, h),
                     TreeSpec.strahler(max(1, min(h, cap.bit_length() - 1)), cap, h)]
            for spec in specs:
                strategy_iteration_solve(g, spec, engine="lc", counters=NaiveRace(),
                                         record_phases=False)


class _Recording(one_player.Counters):
    """Records the solver's ``phase`` and the engine's ``aux_costs`` calls."""

    def __init__(self):
        super().__init__()
        self.phases = []
        self.aux = []

    def phase(self, sub, before, after):
        self.phases.append((before, after))

    def aux_costs(self, tables):
        self.aux.append(tables)


def test_observer_hooks():
    # phase sees every phase's input and output, which are the recorded
    # phase labelings themselves; aux_costs fires once per label-correcting
    # phase, with or without base nodes, and never on the label-setting engine
    rng = random.Random(61)
    lc_phases = 0
    for _ in range(15):
        g = gen_random(rng.randint(2, 20), rng.randint(1, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        h = g.d // 2 or 1
        strahler = TreeSpec.strahler(max(1, min(h, g.n.bit_length() - 1)), g.n, h)
        for spec, engine in ((TreeSpec.perfect(g.n, h), "perfect"),
                             (TreeSpec.perfect(g.n, h), "lc"), (strahler, "lc")):
            seen = _Recording()
            res = strategy_iteration_solve(g, spec, engine=engine, counters=seen)
            pairs = list(zip(res.phase_labels, res.phase_labels[1:]))
            assert len(seen.phases) == res.phases == len(pairs)
            assert all(b is pb and a is pa for (b, a), (pb, pa) in zip(seen.phases, pairs))
            if engine == "lc":
                assert len(seen.aux) == res.phases
                assert all(isinstance(costs, dict) for tables in seen.aux for costs in tables)
                lc_phases += res.phases
            else:
                assert seen.aux == []
    assert lc_phases > 30


def test_one_observer_two_solves():
    # each result counts its own solve's drops; the observer keeps the sum
    g = gen_random(30, 6, 3, seed=7)
    specs = (TreeSpec.strahler(2, g.n, 3), TreeSpec.perfect(g.n, 3))
    alone = [strategy_iteration_solve(g, spec).drops for spec in specs]
    shared = one_player.Counters()
    both = [strategy_iteration_solve(g, spec, counters=shared).drops for spec in specs]
    assert both == alone and all(alone)
    assert shared.drops == sum(alone) and shared.bf_runs > 0


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


class _CheckedRule:
    """Delegates to ``rule`` after checking the admissible list it is handed."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = 0

    def select(self, game, labeling, admissible, rng=None):
        assert admissible == admissible_arcs(game, labeling)
        self.calls += 1
        return self.rule.select(game, labeling, admissible)


def test_loop_hands_rule_the_admissible_arcs():
    # the per-phase arc pass returns exactly admissible_arcs, in its order
    rng = random.Random(41)
    calls = 0
    for _ in range(20):
        g = gen_random(rng.randint(2, 30), rng.randint(1, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        h = g.d // 2 or 1
        specs = [TreeSpec.perfect(g.n, h), TreeSpec.succinct(g.n, h),
                 TreeSpec.strahler(max(1, min(h, g.n.bit_length() - 1)), g.n, h)]
        for spec in specs:
            for rule in (SwitchAll(), SwitchFirst(), SwitchRandom(5)):
                checked = _CheckedRule(rule)
                res = strategy_iteration_solve(g, spec, rule=checked,
                                               record_phases=False)
                assert checked.calls == res.phases - 1
                calls += checked.calls
    assert calls > 100


# Odd node 0 -> 1, Even node 1 with a self-loop at priority 2, Even node
# 2 -> 1.  On the perfect tree of capacity 3 and height 1 the fixed point is
# [(1,), (0,), (1,)] and no arc is admissible.
_FAULT_GAME = """parity 2;
0 1 1 1;
1 2 0 1;
2 1 0 1;
"""

# (labels the engine returns, the fault the phase check must report)
_FAULTS = (
    (("top", (1,), "top"), "loose arc"),
    (((0,), (0,), (1,)), "violates strategy arc 0->1"),
    (((1,), (0,), (0,)), "even node 2 without a tight arc"),
)


def _solve_with_faulty_engine(labels):
    game = parse_pgsolver(_FAULT_GAME)
    spec = TreeSpec.perfect(3, 1)
    values = [TOP if lab == "top" else lab for lab in labels]
    fault = lambda sub, mu, spec, counters=None: NodeLabeling(spec, values)
    saved = one_player.least_fixed_point_perfect
    one_player.least_fixed_point_perfect = fault
    try:
        strategy_iteration_solve(game, spec)
    finally:
        one_player.least_fixed_point_perfect = saved


def test_fault_game_fixed_point():
    res = strategy_iteration_solve(parse_pgsolver(_FAULT_GAME), TreeSpec.perfect(3, 1))
    assert res.labeling.values == [(1,), (0,), (1,)]
    assert res.phases == 1


@pytest.mark.parametrize("labels,message", _FAULTS)
def test_phase_check_rejects_faulty_engine_output(labels, message):
    with pytest.raises(InvariantError, match=message):
        _solve_with_faulty_engine(labels)


_OPTIMIZED_PHASE_CHECK = """
import sys
from tests import test_solver
from treelift.errors import InvariantError

if __debug__:
    sys.exit(3)
for labels, message in test_solver._FAULTS:
    try:
        test_solver._solve_with_faulty_engine(labels)
    except InvariantError as exc:
        if message not in str(exc):
            sys.exit(4)
    else:
        sys.exit(1)
sys.exit(0)
"""


def test_phase_check_survives_python_O():
    # the per-phase arc pass raises InvariantError even when the interpreter
    # strips asserts and __debug__ blocks
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(trees.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PHASE_CHECK],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
