import json
import subprocess
import sys

import pytest

from treelift import one_player, oracle
from treelift.cli import bench_report, main
from treelift.errors import UsageError
from treelift.labeling import NodeLabeling
from treelift.trees import TOP

from .conftest import WORKED_TEXT


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "treelift.cli", *args],
        input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def worked_path(tmp_path):
    path = tmp_path / "worked.pg"
    path.write_text(WORKED_TEXT)
    return str(path)


def test_solve_worked_json(worked_path):
    rc, out, err = run_cli(["solve", worked_path, "--tree", "perfect",
                            "--capacity", "3"])
    assert rc == 0, err
    data = json.loads(out)
    assert data["winners"] == {"even": ["C", "D", "E"], "odd": ["A", "B"]}
    assert data["labels"] == {"A": "TOP", "B": "TOP", "C": "(1,0)",
                              "D": "(0,0)", "E": "(1,0)"}
    assert data["warnings"]


def test_solve_deterministic_stdout(worked_path):
    args = ["solve", worked_path, "--tree", "succinct", "--seed", "5"]
    outs = []
    for _ in range(2):
        rc, out, _ = run_cli(args)
        assert rc == 0
        data = json.loads(out)
        data.pop("wall_ms")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_solve_text_format(worked_path, monkeypatch):
    rc, out, err = run_cli(["solve", worked_path, "--format", "text"])
    assert rc == 0
    assert "even wins:" in out and "\x1b[" not in out  # not a tty: no color


def test_solve_usage_errors(tmp_path, worked_path):
    rc, _, err = run_cli(["solve", str(tmp_path / "missing.pg")])
    assert rc == 2 and "error:" in err
    bad = tmp_path / "bad.pg"
    bad.write_text("0 2 0 ;")
    rc, _, err = run_cli(["solve", str(bad)])
    assert rc == 2 and "sink" in err
    rc, _, err = run_cli(["solve", worked_path, "--tree", "succinct",
                          "--engine", "perfect"])
    assert rc == 2
    rc, _, err = run_cli(["solve", worked_path, "--capacity", "3",
                          "--engine", "dijkstra"])
    assert rc == 2 and err.startswith("error:")


def test_solve_tree_object_same_for_both_algos(worked_path):
    objs = []
    for algo in ("strategy", "progress"):
        rc, out, err = run_cli(["solve", worked_path, "--tree", "strahler",
                                "--algo", algo])
        assert rc == 0, err
        objs.append(json.loads(out)["tree"])
    assert objs[0] == objs[1]
    assert objs[0]["strahler_g"] == 2


def test_verify_random_ok():
    rc, out, _ = run_cli(["verify", "--runs", "6", "--n", "10", "--d", "5",
                          "--seed", "3"])
    assert rc == 0
    assert "verified 6 game(s)" in out


def test_verify_file(worked_path):
    rc, out, _ = run_cli(["verify", worked_path])
    assert rc == 0


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_verify_runs_below_one(runs, capsys):
    assert main(["verify", "--runs", runs]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "--runs" in err


def test_gen_pipe_solve():
    rc, text, _ = run_cli(["gen", "random", "--n", "8", "--d", "4",
                           "--seed", "2"])
    assert rc == 0
    rc2, out, err = run_cli(["solve", "-", "--algo", "progress"], stdin=text)
    assert rc2 == 0, err
    data = json.loads(out)
    assert data["lifts"] >= 0
    rc3, again, _ = run_cli(["gen", "random", "--n", "8", "--d", "4",
                             "--seed", "2"])
    assert again == text


def test_gen_worstcase(tmp_path):
    base = tmp_path / "loop.pg"
    base.write_text("0 4 0 1;\n1 2 0 0;\n")
    rc, out, _ = run_cli(["gen", "worstcase", "--base", str(base), "--k", "1"])
    assert rc == 0
    assert len(out.strip().splitlines()) == 5  # header + 4 nodes
    rc, _, err = run_cli(["gen", "worstcase", "--base", str(base), "--k", "2"])
    assert rc == 2


# one label-correcting phase with two chains at priority 6 and three at 4,
# then a second phase with one base node left
_AUX_GAME = """parity 7;
0 8 0 4,5,7;
1 1 1 1,3,6;
2 3 0 1,2;
3 6 1 3,4;
4 1 1 1,6,7;
5 8 1 0,4,6;
6 7 0 3,5,6;
7 4 0 6,7;
"""


def test_dump_aux(worked_path):
    for args, want in (
        (["--tree", "perfect", "--capacity", "3", "--engine", "lc"],
         "# aux digraph, phase 1\nD -> D : [0]\n"),
        (["--tree", "strahler"], "# aux digraph, phase 1\nD -> D : [1]\n"),
        # the label-setting engine has no auxiliary digraph
        (["--tree", "perfect"], ""),
    ):
        rc, _, err = run_cli(["solve", worked_path, *args, "--dump-aux"])
        assert rc == 0
        assert err == want, args


def test_dump_aux_phases_and_chains(tmp_path):
    path = tmp_path / "aux.pg"
    path.write_text(_AUX_GAME)
    rc, _, err = run_cli(["solve", str(path), "--tree", "strahler", "--capacity", "4",
                          "--dump-aux"])
    assert rc == 0
    assert err == ("# aux digraph, phase 1\n"
                   "0 -> 5 : [0]\n"
                   "3 -> 3 : [0, 0]\n"
                   "5 -> 0 : [0]\n"
                   "7 -> 7 : [0, 0, 0]\n"
                   "# aux digraph, phase 2\n"
                   "7 -> 7 : [0, 0, 0]\n")


def test_race_naive_with_dump_aux(worked_path):
    plain = run_cli(["solve", worked_path, "--tree", "strahler", "--dump-aux"])
    raced = run_cli(["solve", worked_path, "--tree", "strahler", "--dump-aux",
                     "--race-naive"])
    assert raced[0] == 0, raced[2]
    assert raced[2] == plain[2] == "# aux digraph, phase 1\nD -> D : [1]\n"
    strip = lambda out: {k: v for k, v in json.loads(out).items() if k != "wall_ms"}
    assert strip(raced[1]) == strip(plain[1])


def test_export_mpg(worked_path):
    rc, out, _ = run_cli(["export-mpg", worked_path])
    assert rc == 0
    lines = dict()
    for line in out.strip().splitlines():
        u, v, w = line.split()
        lines[(u, v)] = int(w)
    assert lines[("C", "D")] == (-5) ** 3
    assert lines[("D", "E")] == (-5) ** 4


def test_bench(tmp_path):
    g1 = tmp_path / "a.pg"
    g1.write_text("0 2 0 1; 1 1 1 0;")
    rc, out, err = run_cli(["bench", str(tmp_path), "--trees",
                            "perfect,succinct", "--algos", "strategy"])
    assert rc == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "instance,n,m,d,tree,algo,phases,lifts,wall_ms"
    assert len(lines) == 3  # one instance, two tree kinds
    rc, _, err = run_cli(["bench", str(tmp_path / "empty")])
    assert rc == 2


def test_bench_unknown_names(tmp_path, capsys):
    (tmp_path / "a.pg").write_text("0 2 0 1; 1 1 1 0;")
    for flag, valid in (("--algos", "strategy"), ("--trees", "perfect")):
        assert main(["bench", str(tmp_path), flag, f"{valid},foo"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "'foo'" in err


def test_bench_report_empty():
    with pytest.raises(UsageError):
        bench_report([])


def test_main_inprocess(worked_path, capsys):
    assert main(["solve", worked_path, "--tree", "strahler"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["winners"]["even"] == ["C", "D", "E"]


def test_engine_loose_arc_is_internal_error(worked_path, monkeypatch, capsys):
    # a loose arc in the engine's output is a fault of the solver, not of the
    # input: exit 2 with "internal error:", not "error:"
    def loose(sub, mu, spec, counters=None):
        # C -> E is loose: TOP above the tight value against E's leaf
        return NodeLabeling(spec, [TOP, TOP, TOP, TOP, (0, 0)])

    monkeypatch.setattr(one_player, "least_fixed_point_perfect", loose)
    assert main(["solve", worked_path]) == 2
    err = capsys.readouterr().err
    assert err == "internal error: phase labeling has a loose arc 2->4\n"


def test_race_naive_disagreement_exits_2(worked_path, monkeypatch, capsys):
    # a disagreement with the naive oracle is a solver fault (exit 2), not a
    # verification mismatch of the input (exit 1 is for `verify`)
    monkeypatch.setattr(oracle, "naive_lfp",
                        lambda sub, mu, spec: NodeLabeling.all_top(spec, sub.n))
    assert main(["solve", worked_path, "--race-naive"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ") and "naive lifting oracle" in err


def test_race_naive_with_dump_aux_disagreement(worked_path, monkeypatch, capsys):
    # both flags: the race still runs, and the tables written before the
    # failing check stay on stderr ahead of the error
    monkeypatch.setattr(oracle, "naive_lfp",
                        lambda sub, mu, spec: NodeLabeling.all_top(spec, sub.n))
    assert main(["solve", worked_path, "--tree", "strahler", "--dump-aux",
                 "--race-naive"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("# aux digraph, phase 1\nD -> D : [1]\n"
                   "internal error: engine disagrees with the naive lifting oracle\n")
