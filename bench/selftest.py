#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and metric names.

    python3 bench/selftest.py

Runs ``run.py`` in-process on one short workload three times:

* untraced, as is: exit 0, no failures, exactly the ``end_to_end`` metrics
  of BENCHMARK.json;
* traced, as is: exit 0, exactly the ``per_layer`` metrics;
* untraced with every expected winner set corrupted (one node moved to the
  other player): every solve must count as failed, so fail_frac is 1,
  ``correct`` is false and the exit code is 1.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

WORKLOAD = "strahler-lc"


def short_run(trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", WORKLOAD, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)])
    return rc, json.loads(out.getvalue().splitlines()[-1])


def corrupted(original):
    def expected_winners(tl, game):
        even, odd = original(tl, game)
        if even:
            moved = min(even)
            return even - {moved}, odd | {moved}
        moved = min(odd)
        return even | {moved}, odd - {moved}
    return expected_winners


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, result = short_run(trace)
        expect(rc == 0 and result["correct"] and result["failed"] == 0,
               f"trace {trace}: every answer passes")
        expect(set(result["metrics"]) == {m["name"] for m in spec[key]},
               f"trace {trace}: metrics are exactly BENCHMARK.json {key}")

    original = run.expected_winners
    run.expected_winners = corrupted(original)
    try:
        rc, result = short_run(0)
    finally:
        run.expected_winners = original
    expect(rc == 1 and not result["correct"], "corrupted expected set: exit 1, not correct")
    expect(result["failed"] == result["attempted"] >= 1,
           "corrupted expected set: fail_frac is 1")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
