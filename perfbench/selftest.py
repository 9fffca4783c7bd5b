#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: each check must pass on a
consistent fixture and fail once the fixture is tampered with.

    python3 perfbench/selftest.py      # exit 0 when every check holds

Needs no build; the fixture is a two-task network and a hand-written log in
the record schema (docs/RECORD_SCHEMA.md).
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

NET = "toy_b1"
TASKS = [
    {"name": "GEMM", "weight": 3, "flops": 2 * 64 * 64 * 64, "stages": [[64, 64, 64]]},
    {"name": "Add", "weight": 2, "flops": 64 * 64, "stages": [[64, 64], []]},
]
TASKS_BY_KEY = {(NET, t["name"]): t for t in TASKS}
PEAK = 1e12  # flops/s: GEMM's floor is 0.524 us, Add's 4 ns


def record(task, ms, trial, tiles, cached=False, fail=None):
    rec = {"v": 1, "net": NET, "task": task, "task_index": 0 if task == "GEMM" else 1,
           "hw": 1, "policy": "HARL", "seed": 7, "sketch": 0, "tag": "T",
           "stages": [{"t": t, "ca": 0, "par": 1, "unr": 0} for t in tiles],
           "ms": 0 if fail else ms, "trial": trial, "cached": cached}
    if fail:
        rec["fail"] = fail
    return rec


def fixture():
    recs = [
        record("GEMM", 0.020, 0, [[[2, 2, 4, 4], [4, 4, 2, 2], [8, 8]]]),
        record("GEMM", 0.012, 1, [[[1, 4, 4, 4], [2, 2, 4, 4], [16, 4]]]),
        record("GEMM", 0.012, 2, [[[1, 4, 4, 4], [2, 2, 4, 4], [16, 4]]], cached=True),
        record("Add", 0.004, 3, [[[8, 8], [64, 1]], []]),
        record("Add", 0.0, 4, [[[8, 8], [64, 1]], []], fail="transient"),
        record("Add", 0.003, 5, [[[4, 16], [8, 8]], []]),
    ]
    return [(json.dumps(r, separators=(",", ":")), r) for r in recs]


def rewrite(entries, i, **changes):
    """A copy of the log with record i changed (and re-serialized)."""
    out = list(entries)
    rec = copy.deepcopy(entries[i][1])
    rec.update(changes)
    out[i] = (json.dumps(rec, separators=(",", ":")), rec)
    return out


def expect(name, good, bad):
    """`good` must return normally and `bad` must raise CheckError."""
    try:
        good()
    except checks.CheckError as e:
        return f"{name}: rejects consistent input: {e}"
    try:
        bad()
    except checks.CheckError:
        return None
    return f"{name}: accepts tampered input"


def main():
    log = fixture()
    latency = 3 * 0.012 + 2 * 0.003
    best = {k: line for k, (line, _) in checks.best_records(log).items()}
    gemm_best, gemm_other = best[(NET, "GEMM")], log[0][0]
    samples = [(0, "L3", -1.0), (0, "L1", 0.020), (0, "L1", 0.012), (1, "L2", 0.5)]
    before = {"l1_hits": 10, "l2_hits": 5, "l3_hits": 1, "misses": 0}
    after = {"l1_hits": 12, "l2_hits": 6, "l3_hits": 2, "misses": 0}
    tally = {"L1": 2, "L2": 1, "L3": 1}

    cases = [
        ("tuned latency = sum of weight x logged minimum",
         lambda: checks.check_tuned_latency(latency, NET, TASKS, log),
         lambda: checks.check_tuned_latency(latency, NET, TASKS, rewrite(log, 1, ms=0.011))),
        ("live trials = reported trials",
         lambda: checks.check_trials(4, log),
         lambda: checks.check_trials(4, rewrite(log, 3, cached=True))),
        ("best tiles multiply to extents",
         lambda: checks.check_tiles(TASKS_BY_KEY, log),
         lambda: checks.check_tiles(TASKS_BY_KEY, rewrite(
             log, 1, stages=[{"t": [[1, 4, 4, 4], [2, 2, 4, 4], [16, 2]], "ca": 0, "par": 1,
                              "unr": 0}]))),
        ("no time below the FLOP floor",
         lambda: checks.check_time_floor(TASKS_BY_KEY, PEAK, 0.2, log),
         lambda: checks.check_time_floor(TASKS_BY_KEY, PEAK, 0.2, rewrite(log, 0, ms=0.0004))),
        ("a repeated tuning logs the same records",
         lambda: checks.check_same_log(log, list(log)),
         lambda: checks.check_same_log(log, rewrite(log, 5, ms=0.0031))),
        ("L1 answer = the log's best record",
         lambda: checks.check_l1_records([(NET, "GEMM", gemm_best)], log),
         lambda: checks.check_l1_records([(NET, "GEMM", gemm_other)], log)),
        ("L1 answer = a logged record",
         lambda: checks.check_l1_records([(NET, "GEMM", gemm_other)], log, exact_best=False),
         lambda: checks.check_l1_records([(NET, "GEMM", gemm_other.replace("0.02", "0.01"))],
                                         log, exact_best=False)),
        ("stats tier deltas = client tally",
         lambda: checks.check_tier_tally(before, after, tally),
         lambda: checks.check_tier_tally(before, dict(after, l2_hits=7), tally)),
        ("serve_us <= round trip",
         lambda: checks.check_serve_within_rtt([(3.0, 25.0), (25.0, 25.0)]),
         lambda: checks.check_serve_within_rtt([(3.0, 25.0), (26.0, 25.0)])),
        ("replies come from their key's tier",
         lambda: checks.check_tiers([((NET, "GEMM"), "L1", "L1")]),
         lambda: checks.check_tiers([((NET, "GEMM"), "L1", "L3")])),
        ("L1 estimate never rises",
         lambda: checks.check_monotone(samples),
         lambda: checks.check_monotone(samples + [(0, "L1", 0.013)])),
        ("tier never falls back",
         lambda: checks.check_monotone(samples),
         lambda: checks.check_monotone(samples + [(1, "L3", -1.0)])),
        ("error replies are skipped, later answers still compared",
         lambda: checks.check_monotone(samples + [(0, "error", -1.0)]),
         lambda: checks.check_monotone(samples + [(0, "error", -1.0), (0, "L1", 0.013)])),
    ]
    problems = [p for p in (expect(*c) for c in cases) if p]
    for p in problems:
        print(f"selftest: FAIL {p}")
    print(f"selftest: {len(cases) - len(problems)}/{len(cases)} checks pass on consistent "
          f"input and fail on tampered input")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
