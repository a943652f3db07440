import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from treelift import one_player, solver, trees
from treelift.errors import InvariantError, UsageError
from treelift.game import (Region, StrategySubgraph, gen_random, parse_pgsolver,
                           write_pgsolver)
from treelift.labeling import NodeLabeling, progress_measure_solve
from treelift.oracle import (NaiveRace, admissible_arcs, extract_even_strategy,
                             is_feasible, zielonka_solve)
from treelift.solver import (SwitchAll, SwitchFirst, SwitchRandom, pivot,
                             strategy_iteration_solve)
from treelift.trees import TOP, TreeSpec, leaf_from_components as LF

from .conftest import WORKED_TAU, WORKED_TEXT
from .test_labeling import worked_final, worked_middle

A, B, C, D, E = range(5)
# Odd's final strategy on the worked example
WORKED_FINAL_TAU = {A: B, E: C}


def _phase_heads(game, tau, labeling):
    """The per-tail heads of a phase check that classifies every tail of a
    phase that left ``labeling`` unchanged."""
    heads = [()] * game.n
    assert solver.is_feasible(game, tau, labeling, labeling, heads, set(range(game.n))) == []
    return heads


def test_admissible_arcs(worked, p32):
    # after the first fixed point only Odd's arc A->B is an improvement
    assert admissible_arcs(worked, worked_middle(p32)) == [(A, B)]
    assert admissible_arcs(worked, worked_final(p32)) == []
    # from the all-minimum labeling both of A's arcs are violated, while
    # E's arc at even priority 2 is already tight
    assert admissible_arcs(worked, NodeLabeling.all_min(p32, worked.n)) == \
        [(A, B), (A, D)]
    # the solver reads the same lists off its phase check
    for tau, lab in ((WORKED_TAU, worked_middle(p32)), (WORKED_FINAL_TAU, worked_final(p32))):
        assert solver.admissible_arcs(worked, _phase_heads(worked, tau, lab)) == \
            admissible_arcs(worked, lab)


def test_pivot_rules(worked, p32):
    mid = worked_middle(p32)
    adm = admissible_arcs(worked, mid)
    assert SwitchAll().select(worked, mid, adm) == {A: B}
    assert SwitchFirst().select(worked, mid, adm) == {A: B}
    r1 = SwitchRandom(4).select(worked, mid, adm)
    r2 = SwitchRandom(4).select(worked, mid, adm)
    assert r1 == r2 and set(r1.items()) <= set(adm)
    # the fixed point has no admissible arc, so nothing is switched
    final = worked_final(p32)
    assert SwitchAll().select(worked, final, admissible_arcs(worked, final)) == {}
    # pivot switches the strategy subgraph to tau updated with the rule's
    # switches on those arcs; every node reaches A, so the next phase
    # re-solves the whole game
    sub = StrategySubgraph(worked, WORKED_TAU)
    for rule in (SwitchAll(), SwitchFirst()):
        switches, new, region = pivot(sub, mid, adm, rule)
        assert switches == {A: B} and new.tau == WORKED_FINAL_TAU
        assert new.succ[A] == (B,) and region.inner == frozenset(range(worked.n))
        assert sub.tau == WORKED_TAU


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
    # Even's strategy is the last phase check's tight arc of lowest head
    res = strategy_iteration_solve(worked, p32, tau1=WORKED_TAU)
    assert res.labeling == worked_final(p32)
    assert res.even_strategy == {C: D, D: E}
    assert extract_even_strategy(worked, res.labeling) == {C: D, D: E}
    heads = _phase_heads(worked, WORKED_FINAL_TAU, res.labeling)
    assert solver.extract_even_strategy(worked, heads, res.labeling) == {C: D, D: E}
    assert extract_even_strategy(worked, NodeLabeling.all_top(p32, worked.n)) == {}

    loop = parse_pgsolver("0 2 0 0;")
    res = strategy_iteration_solve(loop, TreeSpec.perfect(1, 1))
    assert res.even_strategy == {0: 0}

    odd_loop = parse_pgsolver("0 1 0 0;")
    res = strategy_iteration_solve(odd_loop, TreeSpec.perfect(1, 1))
    assert res.labeling[0] is TOP and res.even_strategy == {}


def test_even_strategy_is_feasibility_witness():
    # on random games, every tree, engine, pivot rule and capacity: the
    # returned strategy is the witness of the final labeling's feasibility
    # at the Even nodes below TOP
    rng = random.Random(77)
    solves = 0
    for i in range(25):
        g = gen_random(rng.randint(2, 20), rng.randint(1, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        h = max(g.d // 2, 1)
        for cap in (g.n, max(2, g.n // 3)):
            strahler = TreeSpec.strahler(max(1, min(h, cap.bit_length() - 1)), cap, h)
            for spec, engine in ((TreeSpec.perfect(cap, h), "auto"),
                                 (TreeSpec.perfect(cap, h), "lc"),
                                 (TreeSpec.succinct(cap, h), "auto"), (strahler, "auto")):
                for rule in (SwitchAll(), SwitchFirst(), SwitchRandom(i)):
                    res = strategy_iteration_solve(g, spec, rule=rule, engine=engine,
                                                   record_phases=False)
                    ok, sigma = is_feasible(g, res.labeling, witness=True)
                    assert ok
                    assert res.even_strategy == {
                        v: w for v, w in sigma.items() if res.labeling[v] is not TOP}
                    assert res.even_strategy == extract_even_strategy(g, res.labeling)
                    solves += 1
    assert solves == 25 * 2 * 4 * 3


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


def test_succinct_tree_of_capacity_2_to_the_30():
    # navigation finds each next string from its (length, first bit) class, so
    # a 30-bit budget costs what a small one does: no list of 2**31 strings
    rng = random.Random(30)
    for _ in range(5):
        g = gen_random(rng.randint(2, 12), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        spec = TreeSpec.succinct(2 ** 30, g.d // 2)
        res = strategy_iteration_solve(g, spec, record_phases=False)
        assert frozenset(res.even_wins) == zielonka_solve(g).even_wins
    spec = TreeSpec.succinct(2 ** 30, 2)
    least = LF(spec, ["0" * 30, ""])
    assert trees.min_leaf(spec) == least
    assert trees.next_subtree_min(spec, least[:1]) == LF(spec, ["0" * 29, "0"])
    assert trees.raise_leaf(spec, least, 2, 1, 0) == LF(spec, ["0" * 28, "00"])



def test_strahler_tree_of_capacity_2_to_the_30():
    # the strahler twin of the test above: a raise walks to the next string
    # from which its goal is reachable, deciding strings by class, so it
    # neither lists the 2**31 strings of up to 30 bits nor tries the 2**29
    # strings of one failing class one by one
    rng = random.Random(31)
    for _ in range(5):
        g = gen_random(rng.randint(2, 12), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        h = g.d // 2 or 1
        spec = TreeSpec.strahler(h, 2 ** 30, h)
        res = strategy_iteration_solve(g, spec, record_phases=False)
        assert frozenset(res.even_wins) == zielonka_solve(g).even_wins
    spec = TreeSpec.strahler(1, 2 ** 30, 2)
    least = LF(spec, ["0" * 31, ""])
    assert trees.min_leaf(spec) == least
    assert trees.next_subtree_min(spec, least[:1]) == LF(spec, ["0" * 30, ""])
    assert trees.raise_leaf(spec, least, 2, 1, 0) == LF(spec, ["0" * 29, ""])
    assert trees.raise_leaf(spec, least, 2, 1, 1) == LF(spec, ["", "0" * 31])
    # every string after 01^29 of up to 29 bits at the middle place starts
    # with 1 and fails, so the raise re-branches at the first place
    spec = TreeSpec.strahler(2, 2 ** 30, 3)
    assert trees.raise_leaf(spec, LF(spec, ["", "0" + "1" * 29, "0"]), 2, 1, 1) == \
        LF(spec, ["1" + "0" * 28, "", "000"])

def test_race_naive_flag(worked, p32):
    res = strategy_iteration_solve(worked, p32, tau1=WORKED_TAU, counters=NaiveRace())
    assert res.even_wins == (C, D, E)


def test_race_naive_random():
    # every phase of the label-correcting engine equals naive lifting on all
    # three trees, at capacity n and below it; d <= 6 because naive lifting
    # on a height-4 perfect tree of capacity 40 alone takes ~20 s.  The
    # SwitchFirst solves of small games re-solve small regions, so the race
    # checks the pinned boundary too, for the label-setting engine as well
    # at capacity n
    rng = random.Random(29)
    # a game whose threshold probes need more worklist rounds than J_w has nodes
    games = [gen_random(10, 8, 3, seed=667637309)]
    for _ in range(30):
        games.append(gen_random(rng.randint(2, 40), rng.randint(1, 6), 3,
                                seed=rng.randint(0, 10 ** 9)))
    for g in games:
        h = g.d // 2 or 1
        rules = (SwitchAll(), SwitchFirst()) if g.n <= 20 else (SwitchAll(),)
        for cap in (g.n, max(2, g.n // 3)):
            specs = [TreeSpec.perfect(cap, h), TreeSpec.succinct(cap, h),
                     TreeSpec.strahler(max(1, min(h, cap.bit_length() - 1)), cap, h)]
            for spec, rule in itertools.product(specs, rules):
                strategy_iteration_solve(g, spec, rule=rule, engine="lc",
                                         counters=NaiveRace(), record_phases=False)
        if g.n <= 20:
            strategy_iteration_solve(g, TreeSpec.perfect(g.n, h), rule=SwitchFirst(),
                                     engine="perfect", counters=NaiveRace(),
                                     record_phases=False)


def _by_arc(tables):
    """The cost dicts of ``aux_costs`` as one {arc: [cost per chain]}."""
    costs = {}
    for table in tables:
        for arc, cost in table.items():
            costs.setdefault(arc, []).append(cost)
    return costs


class _WholeGraphRace(one_player.Counters):
    """Re-solves every phase on the whole strategy subgraph with the engine
    ``lfp`` and checks that the labeling, and the auxiliary tables merged
    over the phases as ``--dump-aux`` merges them, are the ones the
    whole-graph solve gives."""

    def __init__(self, lfp):
        super().__init__()
        self.lfp = lfp
        self.costs = {}
        self.reported = False

    def aux_costs(self, sub, tables):
        self.costs = {arc: cs for arc, cs in self.costs.items() if arc[0] not in sub.inner}
        self.costs.update(_by_arc(tables))
        self.reported = True

    def phase(self, sub, before, after):
        whole = _Recording()
        assert self.lfp(sub, before, before.spec, whole) == after
        # the label-setting engine reports no tables on either path
        assert len(whole.aux) == self.reported
        if whole.aux:
            assert _by_arc(whole.aux[0][1]) == self.costs
        self.reported = False


def test_region_phases_equal_whole_graph(monkeypatch):
    # every phase solved on a region (the nodes that reach a switched node,
    # boundary pinned) equals the whole-graph engine on that phase, labels
    # and auxiliary tables alike: perfect (auto and lc), succinct and
    # strahler trees, every pivot rule, capacities n and max(2, n // 3)
    real = {name: getattr(one_player, name)
            for name in ("least_fixed_point_lc", "least_fixed_point_perfect")}
    regions = []

    def counting(name):
        def engine(sub, mu, spec, counters=None):
            if sub.pinned:
                regions.append(sub.n)
            return real[name](sub, mu, spec, counters)
        return engine

    for name in real:
        monkeypatch.setattr(one_player, name, counting(name))
    # and every phase's incremental check equals a fresh one that classifies
    # every tail
    incremental = solver.is_feasible
    checked = []

    def check_both(game, tau, old, new, heads, dirty):
        changed = incremental(game, tau, old, new, heads, dirty)
        full = [()] * game.n
        assert incremental(game, tau, old, new, full, set(range(game.n))) == changed
        assert full == heads
        adm = solver.admissible_arcs(game, heads)
        assert adm == solver.admissible_arcs(game, full) == admissible_arcs(game, new)
        assert solver.extract_even_strategy(game, heads, new) == \
            solver.extract_even_strategy(game, full, new) == extract_even_strategy(game, new)
        checked.append(len(adm))
        return changed

    monkeypatch.setattr(solver, "is_feasible", check_both)
    rng = random.Random(4242)
    phases = 0
    for i in range(30):
        g = gen_random(rng.randint(2, 30), rng.randint(1, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        h = max(g.d // 2, 1)
        for cap in (g.n, max(2, g.n // 3)):
            strahler = TreeSpec.strahler(max(1, min(h, cap.bit_length() - 1)), cap, h)
            for spec, engine in ((TreeSpec.perfect(cap, h), "auto"),
                                 (TreeSpec.perfect(cap, h), "lc"),
                                 (TreeSpec.succinct(cap, h), "auto"), (strahler, "auto")):
                label_setting = engine == "auto" and spec.kind == trees.PERFECT and cap >= g.n
                whole = real["least_fixed_point_perfect" if label_setting
                             else "least_fixed_point_lc"]
                for rule in (SwitchAll(), SwitchFirst(), SwitchRandom(i)):
                    res = strategy_iteration_solve(g, spec, rule=rule, engine=engine,
                                                   counters=_WholeGraphRace(whole),
                                                   record_phases=False)
                    phases += res.phases
    assert phases > 1500 and len(regions) > 300
    assert len(checked) == phases and sum(checked) > 1000


class _Recording(one_player.Counters):
    """Records the solver's ``phase`` and the engine's ``aux_costs`` calls."""

    def __init__(self):
        super().__init__()
        self.phases = []
        self.aux = []

    def phase(self, sub, before, after):
        self.phases.append((before, after))

    def aux_costs(self, sub, tables):
        self.aux.append((sub, tables))


def test_observer_hooks():
    # phase sees every phase's input and output, which are the recorded
    # phase labelings themselves; aux_costs fires once per label-correcting
    # phase, with or without base nodes, with the graph the engine solved
    # (the whole strategy subgraph first), and never on the label-setting
    # engine
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
                assert type(seen.aux[0][0]) is StrategySubgraph
                assert all(type(sub) is Region for sub, _ in seen.aux[1:])
                assert all(isinstance(costs, dict) for _, tables in seen.aux
                           for costs in tables)
                lc_phases += res.phases
            else:
                assert seen.aux == []
    assert lc_phases > 30


class _RegionTables(one_player.Counters):
    """Checks that each phase reports the tables of exactly the components
    inside the graph the engine solved: the whole-graph engine's tables of
    those components, in the same order, and no arc whose tail is outside
    its ``inner`` nodes."""

    def __init__(self):
        super().__init__()
        self.region_phases = self.split_phases = 0

    def aux_costs(self, sub, tables):
        self.reported = (sub, tables)

    def phase(self, sub, before, after):
        region, tables = self.reported
        whole = _Recording()
        one_player.least_fixed_point_lc(sub, before, before.spec, whole)
        want, rest, sides = [], iter(whole.aux[0][1]), set()
        for comp in one_player.find_base_nodes(sub).components:
            inside = {v in region.inner for v in comp}
            assert len(inside) == 1  # no component straddles R
            sides |= inside
            j = sub.priorities[comp[0]] // 2
            chains = [next(rest) for _ in trees.chain_indices(before.spec, j)]
            if inside == {True}:
                want.extend(chains)
        assert next(rest, None) is None
        assert tables == want
        assert all(v in region.inner for table in tables for v, _ in table)
        self.region_phases += type(region) is Region
        self.split_phases += sides == {True, False}


def test_region_phases_report_only_their_components():
    # on every phase of a label-correcting solve the engine reports the
    # tables of the components inside the graph it solved, and only those
    rng = random.Random(17)
    seen = _RegionTables()
    for i in range(30):
        g = gen_random(rng.randint(8, 30), rng.randint(2, 8), 3,
                       seed=rng.randint(0, 10 ** 9))
        h = g.d // 2
        for cap in (g.n, max(2, g.n // 3)):
            strahler = TreeSpec.strahler(max(1, min(h, cap.bit_length() - 1)), cap, h)
            for spec in (TreeSpec.perfect(cap, h), TreeSpec.succinct(cap, h), strahler):
                for rule in (SwitchFirst(), SwitchRandom(i)):
                    strategy_iteration_solve(g, spec, rule=rule, engine="lc",
                                             counters=seen, record_phases=False)
    assert seen.region_phases > 500 and seen.split_phases > 100


def test_one_observer_two_solves():
    # each result counts its own solve's drops; the observer keeps the sum
    # and no state of the engines
    g = gen_random(30, 6, 3, seed=7)
    specs = (TreeSpec.strahler(2, g.n, 3), TreeSpec.perfect(g.n, 3))
    alone = [strategy_iteration_solve(g, spec).drops for spec in specs]
    shared = one_player.Counters()
    both = [strategy_iteration_solve(g, spec, counters=shared).drops for spec in specs]
    assert both == alone and all(alone)
    assert shared.drops == sum(alone) and shared.bf_runs > 0
    assert [f.name for f in dataclasses.fields(shared)] == ["drops", "bf_runs"]


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

    def select(self, game, labeling, admissible):
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


# The worked example with two nodes that no node of it reaches: Even F with
# a self-loop at priority 2, tight at every label (x, 0), and Odd G -> F.
# Under WORKED_TAU plus G's only arc it takes the worked example's two phases,
# and the second phase's region is A..E, without F and G.
F, G = 5, 6
_LATER_FAULT_GAME = (WORKED_TEXT.replace("parity 4;", "parity 6;")
                     + '5 2 0 5 "F";\n6 1 1 5 "G";\n')
_LATER_FAULT_TAU = {**WORKED_TAU, G: F}

# (labels the engine sets on the second phase, the fault the check must
# report); each fault lies at a tail whose own label did not change
_LATER_FAULTS = (
    # G, outside the region, rises above its strategy arc's tight value
    ({G: (0, 2)}, "loose arc 6->5"),
    # F rises with its self-loop still tight, and G kept its label
    ({F: (1, 0)}, "violates strategy arc 6->5"),
    # D's only arc is to E
    ({E: TOP}, "even node 3 without a tight arc"),
    # the engine returns its input, so only the switch of A makes A dirty
    ({A: (0, 1), B: (0, 2)}, "violates strategy arc 0->1"),
)


def _solve_with_later_fault(labels):
    # the engine's own result on the first phase; on the second, that result
    # with ``labels`` set
    game = parse_pgsolver(_LATER_FAULT_GAME)
    spec = TreeSpec.perfect(3, 2)
    real = one_player.least_fixed_point_lc
    calls = []

    def fault(sub, mu, spec, counters=None):
        out = real(sub, mu, spec, counters)
        calls.append(sub)
        if len(calls) == 2:
            out = out.copy()
            for v, label in labels.items():
                out[v] = label
        return out

    one_player.least_fixed_point_lc = fault
    try:
        strategy_iteration_solve(game, spec, tau1=_LATER_FAULT_TAU)
    finally:
        one_player.least_fixed_point_lc = real


def _solve_with_decreasing_engine():
    # the worked example takes two phases under WORKED_TAU; on the second the
    # engine lowers C, which keeps the label (1,0) in both, to the minimum leaf
    _solve_with_later_fault({C: (0, 0)})


def test_later_fault_game_phases():
    spec = TreeSpec.perfect(3, 2)
    res = strategy_iteration_solve(parse_pgsolver(_LATER_FAULT_GAME), spec,
                                   tau1=_LATER_FAULT_TAU)
    worked = strategy_iteration_solve(parse_pgsolver(WORKED_TEXT), spec, tau1=WORKED_TAU)
    assert res.phases == worked.phases == 2
    assert [lab.values for lab in res.phase_labels[1:]] == \
        [lab.values + [(0, 0), (0, 1)] for lab in worked.phase_labels[1:]]


@pytest.mark.parametrize("labels,message", _LATER_FAULTS)
def test_phase_check_rejects_later_faulty_phase(labels, message):
    with pytest.raises(InvariantError, match=message):
        _solve_with_later_fault(labels)


def test_solver_rejects_decreasing_phase():
    assert strategy_iteration_solve(parse_pgsolver(WORKED_TEXT), TreeSpec.perfect(3, 2),
                                    tau1=WORKED_TAU).phases == 2
    with pytest.raises(InvariantError, match="labeling decreased across a phase"):
        _solve_with_decreasing_engine()


class _SelectNothing:
    """A pivot rule that switches no node, so the next phase repeats the last."""

    name = "nothing"

    def select(self, game, labeling, admissible):
        return {}


def test_pivot_that_changes_no_label_is_rejected():
    # the solve ends because each phase after a pivot raises some label; a
    # phase that raises none is rejected at once, on a one-leaf tree and at
    # capacity n alike, instead of repeating until a cap on the phases
    for game, spec in ((gen_random(8, 4, 2, 3), TreeSpec.perfect(1, 2)),
                       (gen_random(8, 4, 2, 6), TreeSpec.perfect(8, 2))):
        assert strategy_iteration_solve(game, spec).phases > 1
        seen = []
        counters = one_player.Counters()
        counters.phase = lambda sub, before, after: seen.append(after)
        with pytest.raises(InvariantError, match="phase 2 changed no label"):
            strategy_iteration_solve(game, spec, rule=_SelectNothing(), counters=counters)
        assert len(seen) == 2 and seen[0].values == seen[1].values


_OPTIMIZED_PHASE_CHECK = """
import sys
from tests import test_solver
from treelift.errors import InvariantError

if __debug__:
    sys.exit(3)
for solve, faults in ((test_solver._solve_with_faulty_engine, test_solver._FAULTS),
                      (test_solver._solve_with_later_fault, test_solver._LATER_FAULTS)):
    for labels, message in faults:
        try:
            solve(labels)
        except InvariantError as exc:
            if message not in str(exc):
                sys.exit(4)
        else:
            sys.exit(1)
try:
    test_solver._solve_with_decreasing_engine()
except InvariantError as exc:
    if "labeling decreased across a phase" not in str(exc):
        sys.exit(4)
else:
    sys.exit(1)
sys.exit(0)
"""


def test_phase_check_survives_python_O():
    # the per-phase arc pass and the monotonicity check raise InvariantError
    # even when the interpreter strips asserts and __debug__ blocks
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(trees.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PHASE_CHECK],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_has_no_asserts():
    # python -O would strip an assert or a __debug__ block, so no invariant
    # check of the package may be written as one; then an optimized run
    # checks exactly what a plain run does
    pkg = os.path.dirname(trees.__file__)
    names = sorted(name for name in os.listdir(pkg) if name.endswith(".py"))
    found = []
    for name in names:
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read())
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or (isinstance(node, ast.Name) and node.id == "__debug__")]
    assert len(names) > 5 and found == []


def _bench_spans():
    """bench/spans.py, imported without writing to the bench directory."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(root, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_span_target_is_called(tmp_path):
    # the benchmark's tracer wraps module attributes by name, so a target
    # that exists but that no solve calls reads 0 ms on every run; each
    # phase function is called once per phase, and the pivot once between
    # two phases
    modules = {name: importlib.import_module(f"treelift.{name}") for name in
               ("cli", "game", "solver", "one_player", "trees", "oracle", "labeling")}
    path = tmp_path / "g.pg"
    path.write_text(write_pgsolver(gen_random(30, 6, 3, seed=1)))
    check = solver.is_feasible
    tracer = _bench_spans().Tracer(modules)
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = modules["cli"].main(["solve", str(path), "--pivot", "first"])
    finally:
        tracer.uninstall()
    phases = json.loads(out.getvalue())["phases"]
    assert rc == 0 and phases >= 2
    assert tracer.missing == set()
    calls = tracer.span_calls()
    assert calls["solver.checks"] == calls["solver.admissible_arcs"] == phases
    assert calls["solver.pivot"] == phases - 1
    assert calls["solver.extract_even_strategy"] == calls["game.StrategySubgraph"] == 1
    assert solver.is_feasible is check
