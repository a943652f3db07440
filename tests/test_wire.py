"""The wire path of ``treelift solve``: input it rejects and the JSON it writes.

``golden_malformed.json`` pins the sha256 of (exit code, stdout with
``wall_ms`` masked, stderr) of an in-process ``solve -`` on every input of a
seeded corpus, read from stdin so that no file path enters a message:

* the bad inputs of ``test_cli.py`` and ``test_game.py``;
* seeded truncations and mutations of valid files, which insert or delete
  ``;``, a space, ``-``, ``,``, ``"``, a newline, a character in
  ``\\x1c``-``\\x1f`` (whitespace to ``str.strip`` and ``\\s``, not to
  ``int``) or a Unicode digit;
* valid games whose names hold backslashes, tabs, control characters and
  non-ASCII text.

The digests were recorded with the two-pass parser and ``json.dumps``
writer that the one-pass parser and ``cli._json_text`` replaced.  A change
that means to alter the output rewrites the file with

    PYTHONPATH=src python tests/test_wire.py

and says so.  The writer tests compare ``cli._json_text`` with its
specification, ``json.dumps(payload, sort_keys=True, indent=2)``.
"""

import hashlib
import io
import json
import math
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from treelift.cli import _json_text, main
from treelift.game import gen_random, write_pgsolver

from .conftest import FOURBASE_TEXT, WORKED_TEXT

DATA = Path(__file__).with_name("golden_malformed.json")
_WALL_MS = re.compile(r'"wall_ms": [^,\n]+')

# The bad inputs of test_game.py and test_cli.py, and a few more of each
# FormatError message.
_BAD = [
    "", ";;", "parity 3;", "0 2 0 ;", "0 2 0 1;", "0 2 0 0; 0 1 1 0;", "0 -1 0 0;",
    "0 2 2 0;", "0 2 1 0 \"x\" 0;", "parity 2; 0 2 0 1; 1 1 1 0; 2 3 0 ;",
    '0 2 0 1 "n"; 1 2 0 0 "n";', '0 2 0 1 "1"; 1 2 0 0;', '0 2 0 1 ""; 1 2 0 0 "";',
    "parity 1;\n0 1 0 0\n1 2 1 1;", "0 2 0 1 0; 1 1 1 0;", "0 2 0 -; 1 1 1 0;",
    "0 2 0 1,-; 1 1 1 0;", "0 4 0 1;\n1 2 0 0;\n", "0 2 0 1,,0; 1 1 1 ,0,;", '0 2 0 0 "a""b";',
    *(f"{header}; 0 2 0 1; 1 1 1 0;" for header in (
        "parityjunk here", "parity", "parity 5 6", "parity x", "parity -1",
        "parity5", "parity 5", "parity\t12", " parity  0 ")),
]
_BAD_BYTES = [b"\xff\xfe 1 0 0;", b'0 2 0 0 "a\xffb";', b"0 2 0 0;\xc3"]
_EDITS = (";", " ", "-", ",", '"', "\n", "\x1c", "\x1d", "\x1e", "\x1f",
          "٣", "１", "১")
_FLAGS = ([], ["--format", "text"], ["--algo", "progress"], ["--tree", "succinct"],
          ["--tree", "strahler", "--pivot", "first"])
_NAME_PARTS = ("a\\b", "\\", "t\tab", "\x01", "\x1f", "\x7f", "été",
               "漢字", "\U0001f642", " ", "\\u0041", " x ", "\n", "'")


def _valid_texts(rng):
    texts = [WORKED_TEXT, FOURBASE_TEXT]
    for _ in range(10):
        game = gen_random(rng.randint(1, 9), rng.choice((2, 4, 6)), 3, rng.randrange(10 ** 6))
        texts.append(write_pgsolver(game))
    # an id gap and free spacing
    texts.append("parity 9;\n 9 3 1 4 , 7;\t4 2 0 9  ;7 1 0 7,4 \"s\";\n")
    return texts


def _mutant(rng, text):
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        if op == 0:
            text = text[: rng.randrange(len(text) + 1)]
        elif op in (1, 2):
            pos = rng.randrange(len(text) + 1)
            text = text[:pos] + rng.choice(_EDITS) + text[pos:]
        else:
            spots = [i for i, ch in enumerate(text) if ch in _EDITS]
            if spots:
                pos = rng.choice(spots)
                text = text[:pos] + text[pos + 1:]
    return text


def _named(rng):
    n = rng.randint(2, 8)
    lines = [f"parity {n - 1};"]
    for v in range(n):
        succs = ",".join(str(w) for w in sorted(rng.sample(range(n), rng.randint(1, 2))))
        name = "".join(rng.sample(_NAME_PARTS, rng.randint(1, 3))) + str(v)
        quoted = f' "{name}"' if rng.random() < 0.8 else ""
        lines.append(f"{v} {rng.randint(0, 5)} {rng.randint(0, 1)} {succs}{quoted};")
    return "\n".join(lines) + "\n"


def _corpus():
    """[(stdin bytes, solve flags)]: the fixed bad inputs, 320 mutants of
    valid files and 48 games with unusual names."""
    rng = random.Random(23)
    cases = [(text.encode(), []) for text in _BAD] + [(data, []) for data in _BAD_BYTES]
    valid = _valid_texts(rng)
    for _ in range(320):
        data = _mutant(rng, rng.choice(valid)).encode()
        if rng.random() < 0.03:  # an undecodable byte
            pos = rng.randrange(len(data) + 1)
            data = data[:pos] + b"\xfe" + data[pos:]
        cases.append((data, rng.choice(_FLAGS)))
    for _ in range(48):
        cases.append((_named(rng).encode(), rng.choice(_FLAGS)))
    return cases


def _solve(data, flags):
    """(exit code, stdout, stderr) of ``solve -`` on ``data`` in-process."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["solve", "-", *flags])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _digest(code, out, err):
    blob = json.dumps([code, _WALL_MS.sub('"wall_ms": 0', out), err])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_malformed_input_corpus():
    cases = _corpus()
    want = json.loads(DATA.read_text())
    assert len(cases) == len(want) == 400
    runs = [_solve(data, flags) for data, flags in cases]
    bad = [case for case, run, digest in zip(cases, runs, want) if _digest(*run) != digest]
    assert not bad, f"{len(bad)} inputs changed output, first {bad[0]}"
    # the digests are only worth as much as the outcomes the corpus reaches
    assert {code for code, _, _ in runs} == {0, 2}
    errs = "".join(err for _, _, err in runs)
    for message in ("cannot parse statement", "no nodes in input", "is a sink",
                    "does not exist", "duplicate node id", "two nodes are labelled",
                    "owner must be 0 or 1", "is negative", "not UTF-8 text"):
        assert message in errs


# -- the writer -------------------------------------------------------------

_SCALARS = (0, -3, 10 ** 20, 0.1, 1e-07, 2.5e300, -0.0, math.inf, -math.inf, math.nan,
            True, False, None, "", "TOP", "( ,01)", " ", "a\\b\"c", "\t\x00\x1f",
            "é\U0001f642", "\ud800")
_KEYS = tuple(x for x in _SCALARS if isinstance(x, str))


def _value(rng, depth):
    kind = rng.randrange(4 if depth < 3 else 1)
    if kind == 0:
        return rng.choice(_SCALARS)
    size = rng.choice((0, 1, 2, 5))
    if kind == 1:
        return [_value(rng, depth + 1) for _ in range(size)]
    return {rng.choice(_KEYS) + str(rng.randrange(50)): _value(rng, depth + 1)
            for _ in range(size)}


def _same_as_dumps(payload):
    text = _json_text(payload)
    want = json.dumps(payload, sort_keys=True, indent=2)
    # texts, not parsed values: nan != nan, and 0.1 must print as 0.1
    assert text == want, (payload, text, want)


def test_writer_matches_json_dumps_on_seeded_payloads():
    rng = random.Random(5)
    for _ in range(600):
        _same_as_dumps(_value(rng, 0))


def test_writer_on_empty_containers_at_each_level():
    for empty in ({}, []):
        _same_as_dumps(empty)
        _same_as_dumps({"a": empty, "b": 1})
        _same_as_dumps({"a": {"b": empty}, "c": [empty, empty]})
        _same_as_dumps([[empty], {"x": [empty]}])


def test_writer_on_both_solve_payloads():
    for flags in ([], ["--algo", "progress"], ["--tree", "strahler"]):
        stdin = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(
            '0 1 1 1,3 "A\u2028"; 1 1 0 0 "é\t"; 2 3 0 1,3,4 "\U0001f642";'
            ' 3 4 0 4 "D\\"; 4 2 1 2;'.encode()))
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                assert main(["solve", "-", *flags]) == 0
        finally:
            sys.stdin = stdin
        payload = json.loads(out.getvalue())
        assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        _same_as_dumps(payload)
        assert ("strategy_odd" in payload) == (flags != ["--algo", "progress"])


if __name__ == "__main__":
    DATA.write_text(json.dumps([_digest(*_solve(data, flags)) for data, flags in _corpus()],
                               indent=0) + "\n")
    print(f"wrote {DATA}")
