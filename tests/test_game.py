import dataclasses
import random

import pytest

from treelift import game as gamemod
from treelift.errors import FormatError, UsageError
from treelift.game import (EVEN, ODD, ParityGame, StrategySubgraph, compress_priorities,
                           default_strategy, from_description, gen_random, gen_worstcase,
                           parse_pgsolver, to_mean_payoff, write_pgsolver)
from treelift.labeling import progress_measure_solve
from treelift.solver import strategy_iteration_solve
from treelift.trees import TreeSpec



def test_parse_minimal():
    g = parse_pgsolver("parity 1; 0 2 0 1; 1 1 1 0;")
    assert g.n == 2
    assert g.owners == (EVEN, ODD)
    assert g.priorities == (2, 1)


def test_parse_worked_game(worked):
    assert worked.n == 5 and worked.m == 8 and worked.d == 4
    assert worked.names == ("A", "B", "C", "D", "E")
    assert worked.succ[0] == (1, 3)
    assert worked.succ[2] == (1, 3, 4)
    assert worked.owners == (ODD, EVEN, EVEN, EVEN, ODD)


def test_parse_sink_error():
    with pytest.raises(FormatError, match="2"):
        parse_pgsolver("parity 2; 0 2 0 1; 1 1 1 0; 2 3 0 ;")


def test_parse_dangling_and_duplicates():
    with pytest.raises(FormatError, match="successor"):
        parse_pgsolver("0 2 0 1;")
    with pytest.raises(FormatError, match="duplicate"):
        parse_pgsolver("0 2 0 0; 0 1 1 0;")
    with pytest.raises(FormatError, match="negative"):
        parse_pgsolver("0 -1 0 0;")
    # two nodes that render to the same output label
    for text in ('0 2 0 1 "n"; 1 2 0 0 "n";', '0 2 0 1 "1"; 1 2 0 0;',
                 '0 2 0 1 ""; 1 2 0 0 "";'):
        with pytest.raises(FormatError, match="labelled"):
            parse_pgsolver(text)


@pytest.mark.parametrize("text", [
    "parity 1;\n0 1 0 0\n1 2 1 1;",   # missing ';' joins two statements
    "0 2 0 1 0; 1 1 1 0;",            # a space inside the successor list
    "0 2 0 -; 1 1 1 0;",              # a bare '-'
    "0 2 0 1,-; 1 1 1 0;",
])
def test_parse_malformed_successors(text):
    with pytest.raises(FormatError, match="cannot parse statement"):
        parse_pgsolver(text)


@pytest.mark.parametrize("header", ["parity 5", "parity\t12", " parity  0 "])
def test_parse_header_accepted(header):
    assert parse_pgsolver(f"{header}; 0 2 0 1; 1 1 1 0;").n == 2


@pytest.mark.parametrize("header", ["parityjunk here", "parity", "parity 5 6",
                                    "parity x", "parity -1", "parity5"])
def test_parse_loose_header_is_format_error(header):
    with pytest.raises(FormatError, match="cannot parse statement"):
        parse_pgsolver(f"{header}; 0 2 0 1; 1 1 1 0;")


def test_parse_id_gaps():
    g = parse_pgsolver("7 2 0 9; 9 1 1 7;")
    assert g.n == 2
    assert g.orig_ids == (7, 9)
    assert "7 2 0 9;" in write_pgsolver(g)


def test_priority_zero_compression():
    g = parse_pgsolver("0 0 0 1; 1 5 1 0;")
    assert g.priorities == (2, 3)
    assert g.d == 4


def test_compression_preserves_structure():
    rng = random.Random(1)
    for _ in range(50):
        raw = [rng.randint(0, 12) for _ in range(rng.randint(1, 10))]
        out = compress_priorities(raw)
        assert all(q >= 1 for q in out)
        for a, b in zip(raw, out):
            assert a % 2 == b % 2
        for i in range(len(raw)):
            for j in range(len(raw)):
                assert (raw[i] < raw[j]) == (out[i] < out[j])
        # dominating positions of any subset are unchanged
        idx = rng.sample(range(len(raw)), rng.randint(1, len(raw)))
        tops_raw = {i for i in idx if raw[i] == max(raw[k] for k in idx)}
        tops_out = {i for i in idx if out[i] == max(out[k] for k in idx)}
        assert tops_raw == tops_out


def test_roundtrip(worked):
    again = parse_pgsolver(write_pgsolver(worked))
    assert again == worked

    loop = parse_pgsolver("0 2 0 0;")
    assert parse_pgsolver(write_pgsolver(loop)) == loop

    rng = random.Random(3)
    for _ in range(100):
        g = gen_random(rng.randint(1, 15), rng.randint(1, 7), 3,
                       rng.randint(0, 10 ** 9))
        assert parse_pgsolver(write_pgsolver(g)) == g


def test_strategy_subgraph(worked):
    sub = StrategySubgraph(worked, {0: 3, 4: 2})
    dropped = set(worked.arcs()) - set(sub.arcs())
    assert dropped == {(0, 1)}  # only A->B is unselected
    sub2 = StrategySubgraph(worked, {0: 1, 4: 2})
    assert set(worked.arcs()) - set(sub2.arcs()) == {(0, 3)}
    with pytest.raises(UsageError):
        StrategySubgraph(worked, {0: 4, 4: 2})  # A->E is not an arc

    even_only = parse_pgsolver("0 2 0 1; 1 2 0 0;")
    sub3 = StrategySubgraph(even_only, {})
    assert set(sub3.arcs()) == set(even_only.arcs())


def test_game_derives_its_predecessors():
    # a game built directly, or by dataclasses.replace with new arcs, has the
    # predecessor lists of the same game built by from_description, and both
    # solvers treat it as that game
    spec = TreeSpec.perfect(2, 1)
    nodes = [(EVEN, 2), (ODD, 1)]
    swap = from_description(nodes, [(0, 1), (1, 0)])
    loops = from_description(nodes, [(0, 0), (1, 1)])
    direct = ParityGame(owners=swap.owners, priorities=swap.priorities, succ=swap.succ,
                        names=swap.names, orig_ids=swap.orig_ids,
                        orig_priorities=swap.orig_priorities)
    replaced = dataclasses.replace(swap, succ=((0,), (1,)))
    for got, want in ((direct, swap), (replaced, loops)):
        assert got == want and got.pred == want.pred
        assert strategy_iteration_solve(got, spec).labeling == \
            strategy_iteration_solve(want, spec).labeling
        assert progress_measure_solve(got, spec).labeling == \
            progress_measure_solve(want, spec).labeling
    rng = random.Random(23)
    for _ in range(50):
        g = gen_random(rng.randint(1, 25), rng.randint(1, 6), 4, seed=rng.randint(0, 10 ** 9))
        arcs = [(v, rng.randrange(g.n)) for v in range(g.n) for _ in range(rng.randint(1, 3))]
        want = from_description([(o, p) for o, p in zip(g.owners, g.orig_priorities)], arcs)
        assert dataclasses.replace(g, succ=want.succ).pred == want.pred


def test_game_normalises_its_successors():
    # a game built directly with unsorted or repeated arcs is the game that
    # from_description builds: Even's strategy is the tight arc of lowest
    # head, and a repeated arc is one arc
    def direct(owners, priorities, succ):
        n = len(owners)
        return ParityGame(owners=owners, priorities=priorities, succ=succ,
                          names=(None,) * n, orig_ids=tuple(range(n)),
                          orig_priorities=priorities)

    unsorted = direct((EVEN,) * 3, (2,) * 3, ((2, 1), (1,), (2,)))
    want = from_description([(EVEN, 2)] * 3, [(0, 1), (0, 2), (1, 1), (2, 2)])
    assert unsorted == want and unsorted.succ == ((1, 2), (1,), (2,))
    spec = TreeSpec.perfect(2, 1)
    assert strategy_iteration_solve(unsorted, spec).even_strategy == \
        strategy_iteration_solve(want, spec).even_strategy == {0: 1, 1: 1, 2: 2}
    repeated = direct((EVEN, ODD), (2, 1), ((1, 1), (0,)))
    assert repeated.succ == ((1,), (0,)) and repeated.m == 2
    assert repeated.pred == ((1,), (0,))
    assert repeated == from_description([(EVEN, 2), (ODD, 1)], [(0, 1), (0, 1), (1, 0)])


def test_strategy_rejects_stray_keys():
    g = gen_random(6, 4, 2, 3)
    tau = default_strategy(g)
    even = next(v for v in range(g.n) if g.owners[v] == EVEN)
    for stray in ({even: g.succ[even][0]}, {99: 0}, {-1: 0}, {"0": 0}):
        with pytest.raises(UsageError, match="not an odd node"):
            StrategySubgraph(g, {**tau, **stray})
        with pytest.raises(UsageError, match="not an odd node"):
            strategy_iteration_solve(g, TreeSpec.perfect(g.n, 2), tau1={**tau, **stray})
    StrategySubgraph(g, tau)


def test_strategy_subgraph_switch(worked):
    # the patched subgraph is the one built from scratch for the new strategy
    rng = random.Random(8)
    for _ in range(200):
        g = gen_random(rng.randint(1, 25), rng.randint(1, 6), 3,
                       seed=rng.randint(0, 10 ** 9))
        odd = g.odd_nodes()
        sub = StrategySubgraph(g, {v: rng.choice(g.succ[v]) for v in odd})
        switches = {v: rng.choice(g.succ[v]) for v in odd if rng.random() < 0.3}
        got = sub.switch(switches)
        want = StrategySubgraph(g, {**sub.tau, **switches})
        assert (got.succ, got.pred, got.tau) == (want.succ, want.pred, want.tau)
    sub = StrategySubgraph(worked, {0: 3, 4: 2})
    for bad in ({0: 4}, {1: 0}):  # A->E is not an arc; B is an Even node
        with pytest.raises(UsageError):
            sub.switch(bad)


def test_default_strategy(worked):
    assert default_strategy(worked) == {0: 1, 4: 2}


def test_gen_random():
    g = gen_random(1, 2, 1, seed=7)
    assert g.n == 1 and g.succ[0] == (0,)
    a = gen_random(20, 6, 3, seed=1)
    b = gen_random(20, 6, 3, seed=1)
    assert write_pgsolver(a) == write_pgsolver(b)
    assert all(1 <= len(s) <= 3 for s in a.succ)
    assert all(1 <= p <= 6 for p in a.priorities)


def test_gen_worstcase():
    base = parse_pgsolver("0 4 0 0;")
    g = gamemod.gen_worstcase(base, 1)
    assert g.n == 3
    a, b = 1, 2
    assert g.owners[a] == ODD and g.owners[b] == ODD
    assert set(g.succ[a]) == {b, 0} and g.succ[b] == (a,)
    assert 1 in g.succ[0]  # x -> a added
    with pytest.raises(UsageError):
        gamemod.gen_worstcase(base, 2)
    with pytest.raises(UsageError):
        gamemod.gen_worstcase(parse_pgsolver("0 3 0 0;"), 1)
    gg = gamemod.gen_worstcase(g, 1)
    assert gg.n == 5


def test_to_mean_payoff():
    g = parse_pgsolver("0 3 0 1; 1 4 1 0,2; 2 1 0 0;")
    assert g.n == 3
    mpg = to_mean_payoff(g)
    assert mpg.weight(0, 1) == (-3) ** 3
    assert mpg.weight(1, 0) == (-3) ** 4
    big = gen_random(10, 8, 2, seed=11)
    mbig = to_mean_payoff(big)
    for v in range(big.n):
        if big.priorities[v] == 8:
            assert mbig.node_weights[v] == 10 ** 8
