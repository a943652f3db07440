import json
import os
import subprocess
import sys

import pytest

from treelift import one_player, oracle
from treelift.cli import bench_report, main
from treelift.errors import UsageError
from treelift.game import parse_pgsolver
from treelift.labeling import NodeLabeling
from treelift.trees import TOP

from .conftest import WORKED_TEXT


def run_cli(args, stdin=None, env=None):
    """Exit code, stdout and stderr of the CLI in a new interpreter; ``stdin``
    is text, or bytes that are sent as they are."""
    if isinstance(stdin, str):
        stdin = stdin.encode()
    proc = subprocess.run(
        [sys.executable, "-m", "treelift.cli", *args],
        input=stdin, capture_output=True, env=env)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


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
    # two nodes named "n" would share one key of the JSON "labels" object
    rc, out, err = run_cli(["solve", "-"], stdin='0 2 0 1 "n"; 1 2 0 0 "n";')
    assert rc == 2 and out == "" and err.startswith("error:") and "'n'" in err
    rc, out, err = run_cli(["solve", worked_path, "--tree", "succinct",
                            "--engine", "perfect"])
    assert rc == 2 and out == "" and err == "error: engine 'perfect' requires a perfect tree\n"
    rc, _, err = run_cli(["solve", worked_path, "--capacity", "3",
                          "--engine", "dijkstra"])
    assert rc == 2 and err.startswith("error:")


@pytest.mark.parametrize("tree", ["perfect", "succinct"])
def test_strahler_g_needs_strahler_tree(worked_path, tree, capsys):
    assert main(["solve", worked_path, "--tree", tree, "--strahler-g", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "--strahler-g" in err
    assert main(["solve", worked_path, "--tree", "strahler", "--strahler-g", "1"]) == 0


def test_budget_needs_progress_algo(worked_path, capsys):
    assert main(["solve", worked_path, "--budget", "1000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "--budget" in err
    assert main(["solve", worked_path, "--algo", "progress", "--budget", "1000"]) == 0


def test_budget_must_not_be_negative(worked_path, capsys):
    capsys.readouterr()
    assert main(["solve", worked_path, "--algo", "progress", "--budget", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: lift budget must be >= 0, got -1\n"
    assert main(["solve", worked_path, "--algo", "progress", "--budget", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "lift budget exhausted after 0 lifts" in err


@pytest.mark.parametrize("flags", [["--race-naive"], ["--dump-aux"], ["--engine", "lc"],
                                   ["--engine", "perfect"], ["--engine", "dijkstra"],
                                   ["--pivot", "random"], ["--seed", "5"]])
def test_strategy_flags_reject_progress_algo(worked_path, flags, capsys):
    # the progress measure has no phases to race, no auxiliary digraph, no
    # engine and no pivots, so these flags would be ignored
    assert main(["solve", worked_path, "--algo", "progress", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and flags[0] in err
    assert "requires --algo strategy" in err
    assert main(["solve", worked_path, *flags]) == 0
    for default in (["--engine", "auto"], ["--pivot", "all"], ["--seed", "0"]):
        assert main(["solve", worked_path, "--algo", "progress", *default]) == 0


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


@pytest.mark.parametrize("base_text,k,rejected", [
    # a negative k used to pass the parity test and write a file that
    # solve rejects
    ("0 4 0 1;\n1 2 0 0;\n", -1, True),
    # x's 0 compresses to 2, so the gadget at 1 (compressed 3) would sit above it
    ("0 0 0 0;\n", 1, True),
    # raw 0 and 20 compress to 2 and 4; k is compared with the 20 of the file
    ("0 0 0 1;\n1 20 0 0;\n", 5, False),
], ids=["negative-k", "x-at-raw-0", "x-at-raw-20"])
def test_gen_worstcase_checks_k_against_x_as_written(tmp_path, capsys, base_text, k, rejected):
    base = tmp_path / "base.pg"
    base.write_text(base_text)
    capsys.readouterr()
    rc = main(["gen", "worstcase", "--base", str(base), "--k", str(k)])
    out, err = capsys.readouterr()
    if rejected:
        assert rc == 2 and out == ""
        assert err.startswith(f"error: gadget priority k={k} must be odd, >= 1 and < ")
        return
    assert rc == 0 and err == ""
    game = parse_pgsolver(out)
    x, a, b = 1, game.n - 2, game.n - 1
    assert game.orig_priorities[a] == game.orig_priorities[b] == k
    assert game.priorities[a] < game.priorities[x] == game.d
    (tmp_path / "worst.pg").write_text(out)
    assert main(["solve", str(tmp_path / "worst.pg")]) == 0


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


@pytest.mark.parametrize("command", ["solve", "bench", "export-mpg"])
def test_non_utf8_file_is_format_error(tmp_path, capsys, command):
    # exit 1 would read as a verify mismatch: undecodable input is a format error
    path = tmp_path / "bad.pg"
    path.write_bytes(b"\xff\xfe 1 0 0;")
    target = str(tmp_path) if command == "bench" else str(path)
    assert main([command, target]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "UTF-8" in err


@pytest.mark.parametrize("locale_env", [{"PYTHONIOENCODING": "utf-8:strict"},
                                        {"LC_ALL": "C"}])
def test_non_utf8_stdin_is_format_error(locale_env):
    # stdin is decoded as a file is, whatever the locale: neither a traceback
    # (exit 1, verify's mismatch code) nor a surrogate-escaped node name
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")}
    rc, out, err = run_cli(["solve", "-"], stdin=b'0 2 0 0 "a\xffb";',
                           env={**env, **locale_env})
    assert (rc, out, err) == (2, "", "error: -: not UTF-8 text (byte 10)\n")


def test_missing_semicolon_is_format_error(tmp_path, capsys):
    # exit 1 would read as a verify mismatch: a malformed statement is a
    # format error, reported without a traceback
    path = tmp_path / "bad.pg"
    path.write_text("parity 1;\n0 1 0 0\n1 2 1 1;")
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cannot parse statement '0 1 0 0\\n1 2 1 1'\n"


def test_inprocess_calls_share_no_state(tmp_path, capsys):
    # the argument parser is built once per process; a --dump-aux call must
    # not leak its flag into the next call
    path = tmp_path / "aux.pg"
    path.write_text(_AUX_GAME)
    args = ["solve", str(path), "--tree", "strahler", "--capacity", "4"]
    assert main(args + ["--dump-aux"]) == 0
    dumped = capsys.readouterr()
    assert dumped.err.startswith("# aux digraph, phase 1\n")
    assert main(args) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    strip = lambda out: {k: v for k, v in json.loads(out).items() if k != "wall_ms"}
    assert strip(plain.out) == strip(dumped.out)


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
