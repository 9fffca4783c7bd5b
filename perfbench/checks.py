"""Output checks for the HARL benchmark, computed apart from the program.

Every check recomputes an answer from the record logs and the network
definitions and compares it with what the program reported; none of them
asks the program to check itself.  Each raises CheckError on a mismatch.
selftest.py shows each one failing on tampered input.
"""

import json
import math

TIER_RANK = {"miss": 0, "L3": 0, "L2": 1, "L1": 2}


class CheckError(Exception):
    pass


def read_log(path):
    """The log as a list of (line, record) pairs, in file order."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                out.append((line, json.loads(line)))
    return out


def healthy(rec):
    return "fail" not in rec and rec["ms"] > 0


def best_records(entries):
    """Per (network, task): the record the knowledge cache must serve at L1,
    under its total order (time asc, then serialized bytes asc)."""
    best = {}
    for line, rec in entries:
        if not healthy(rec):
            continue
        key = (rec["net"], rec["task"])
        cand = (rec["ms"], line.encode("utf-8"))
        if key not in best or cand < best[key][0]:
            best[key] = (cand, line, rec)
    return {k: (v[1], v[2]) for k, v in best.items()}


def check_tuned_latency(reported_ms, network, tasks, entries, rel=1e-9):
    """The reported network latency equals sum(weight * min logged time)."""
    best = best_records(entries)
    total = 0.0
    for task in tasks:
        key = (network, task["name"])
        if key not in best:
            raise CheckError(f"{network}/{task['name']}: no healthy record logged")
        total += task["weight"] * best[key][1]["ms"]
    if not math.isclose(reported_ms, total, rel_tol=rel, abs_tol=0.0):
        raise CheckError(
            f"{network}: reported latency {reported_ms!r} ms, the log gives {total!r} ms")
    return total


def check_trials(reported, entries):
    """Trials that were neither cached nor failed equal the reported trials."""
    live = sum(1 for _, r in entries if not r["cached"] and "fail" not in r)
    if live != reported:
        raise CheckError(f"reported {reported} trials, the log holds {live} live measurements")


def check_tiles(tasks_by_key, entries):
    """Every best schedule's tile factors multiply to its loop extents."""
    for key, (_, rec) in best_records(entries).items():
        task = tasks_by_key.get(key)
        if task is None:
            raise CheckError(f"{key[0]}/{key[1]}: not in the network definition")
        stages = task["stages"]
        if len(rec["stages"]) != len(stages):
            raise CheckError(f"{key[0]}/{key[1]}: {len(rec['stages'])} stages logged, "
                             f"{len(stages)} defined")
        for s, (dec, extents) in enumerate(zip(rec["stages"], stages)):
            tiles = dec["t"]
            if not tiles:
                continue  # untiled (inlined or fused) stage
            if len(tiles) != len(extents):
                raise CheckError(f"{key[0]}/{key[1]} stage {s}: {len(tiles)} tiled axes, "
                                 f"{len(extents)} defined")
            for axis, (factors, extent) in enumerate(zip(tiles, extents)):
                if math.prod(factors) != extent:
                    raise CheckError(f"{key[0]}/{key[1]} stage {s} axis {axis}: factors "
                                     f"{factors} multiply to {math.prod(factors)}, not {extent}")


def check_time_floor(tasks_by_key, peak_flops, margin, entries):
    """No logged time beats the task's FLOPs at the hardware peak, less a
    margin for measurement noise."""
    for _, rec in entries:
        if not healthy(rec):
            continue
        task = tasks_by_key[(rec["net"], rec["task"])]
        floor_ms = task["flops"] / peak_flops * 1e3 * (1.0 - margin)
        if rec["ms"] < floor_ms:
            raise CheckError(f"{rec['net']}/{rec['task']} trial {rec['trial']}: {rec['ms']} ms "
                             f"is below the peak-FLOPs floor {floor_ms} ms")


def check_same_log(first, again):
    """A repeat of the same tuning logs the same records, byte for byte."""
    if [line for line, _ in first] != [line for line, _ in again]:
        raise CheckError("a repeated tuning with the same seed logged different records")


def check_l1_records(replies, entries, exact_best=True):
    """Each L1 reply's record bytes are a logged record of its key, and with
    exact_best the minimum-time one.  `replies` holds (network, task,
    record-bytes) triples."""
    best = best_records(entries)
    lines = {}
    for line, rec in entries:
        if healthy(rec):
            lines.setdefault((rec["net"], rec["task"]), set()).add(line)
    for network, task, record in replies:
        key = (network, task)
        if exact_best:
            if key not in best or record != best[key][0]:
                raise CheckError(f"{network}/{task}: L1 answer is not the log's best record")
        elif record not in lines.get(key, ()):
            raise CheckError(f"{network}/{task}: L1 answer is not a logged record")


def check_tier_tally(before, after, tally):
    """The daemon's per-tier counters moved exactly by the client's tally."""
    for field, tier in (("l1_hits", "L1"), ("l2_hits", "L2"), ("l3_hits", "L3"),
                        ("misses", "miss")):
        delta = after.get(field, 0) - before.get(field, 0)
        if delta != tally.get(tier, 0):
            raise CheckError(f"stats {field} moved by {delta}, the client counted "
                             f"{tally.get(tier, 0)} {tier} replies")


def check_serve_within_rtt(samples):
    """serve_us never exceeds the round trip it is part of.  Samples are
    (serve_us, rtt_us) pairs; rtt is printed to 1 ns, so allow that much."""
    for serve_us, rtt_us in samples:
        if serve_us > rtt_us + 1e-3:
            raise CheckError(f"serve_us {serve_us} exceeds the round trip {rtt_us} us")


def check_tiers(samples):
    """Each reply comes from its key's tier class.  Samples are (key,
    expected tier, replied tier)."""
    for key, expected, tier in samples:
        if tier != expected:
            raise CheckError(f"{key[0]}/{key[1]}: answered from {tier}, expected {expected}")


def check_monotone(samples):
    """Along one connection, per key: the tier never falls back and the L1
    estimate never rises.  Samples are (key, tier, est_ms) in reply order;
    error replies carry no answer and are skipped (they count as failed)."""
    last = {}
    for key, tier, est in samples:
        if tier == "error":
            continue
        rank = TIER_RANK[tier]
        if key in last:
            prev_rank, prev_est = last[key]
            if rank < prev_rank:
                raise CheckError(f"key {key}: tier fell back to {tier}")
            if rank == prev_rank == 2 and est > prev_est:
                raise CheckError(f"key {key}: L1 estimate rose from {prev_est} to {est} ms")
        last[key] = (rank, est)
