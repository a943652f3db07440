"""The masking and comparison of ``tools/wire_diff.py``, on canned ``solve``
output; the tool's runs against a parent revision are not tested here."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "wire_diff", os.path.join(ROOT, "tools", "wire_diff.py"))
wire_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wire_diff)

_JSON = '{\n  "lifts": 3,\n  "wall_ms": %s,\n  "warnings": []\n}\n'


def test_mask_zeroes_every_wall_ms_value():
    for value in ("0.412", "12", "1e-05", "Infinity"):
        assert wire_diff.mask(_JSON % value) == _JSON % "0"
    text = "even wins: A\nodd wins: -\nphases=1 lifts=2 drops=0\n"
    assert wire_diff.mask(text) == text


def test_first_difference_ignores_only_wall_ms():
    parent = [[0, _JSON % "1.5", ""], [2, "", "error: no nodes in input\n"]]
    assert wire_diff.first_difference(parent, [[0, _JSON % "9.25", ""], parent[1]]) is None
    assert wire_diff.first_difference(parent, [[0, _JSON.replace("3", "4") % "1.5", ""],
                                               parent[1]]) == 0
    assert wire_diff.first_difference(parent, [parent[0], [1, "", parent[1][2]]]) == 1
    assert wire_diff.first_difference(parent, [parent[0], [2, "", "error: x\n"]]) == 1
    assert wire_diff.first_difference([], []) is None
