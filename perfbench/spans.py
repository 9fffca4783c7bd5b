"""Spans for the traced run: recording (run.py's own), merging the span files
the tools wrote, self times and the per-layer summary.

A span is (name, start, end, parent, request) with CLOCK_MONOTONIC
nanosecond timestamps.  Ids are local to the file (or recorder) that holds
the span; parent 0 means a root.
"""

import json
import statistics
import sys
import time


class Recorder:
    """In-memory spans of run.py itself, written once at the end."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    def add(self, name, start_ns, end_ns, parent=0, req=0):
        if not self.enabled:
            return 0
        self.spans.append({"name": name, "start": start_ns, "end": end_ns,
                           "id": len(self.spans) + 1, "parent": parent, "req": req})
        return len(self.spans)

    def write(self, path):
        if self.enabled:
            with open(path, "w", encoding="utf-8") as f:
                for s in self.spans:
                    f.write(json.dumps(s) + "\n")


def now_ns():
    return time.monotonic_ns()


def load(paths):
    """All spans of the given files, each tagged with its file index."""
    spans = []
    for i, path in enumerate(paths):
        with open(path, encoding="utf-8") as f:
            for line in f:
                s = json.loads(line)
                s["file"] = i
                spans.append(s)
    return spans


def self_times(spans):
    """Adds `self` (ns) to every span: its duration minus the part of it
    that its children's intervals cover."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault((s["file"], s["parent"]), []).append(s)
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        kids = sorted(children.get((s["file"], s["id"]), []), key=lambda c: c["start"])
        for c in kids:
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        s["self"] = (s["end"] - s["start"]) - covered
    return spans


def by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s)
    return out


def median_us(spans):
    """Median span duration in microseconds (0 for none)."""
    if not spans:
        return 0.0
    return statistics.median(s["end"] - s["start"] for s in spans) / 1e3


def print_summary(spans, out=sys.stderr):
    """Per span name and per layer (the name's prefix): count, total and
    self time."""
    groups = by_name(spans)
    print("trace: span                 count    total_ms     self_ms   median_us", file=out)
    layers = {}
    for name in sorted(groups):
        g = groups[name]
        total = sum(s["end"] - s["start"] for s in g) / 1e6
        own = sum(s["self"] for s in g) / 1e6
        print(f"trace: {name:<20} {len(g):6d} {total:11.3f} {own:11.3f} {median_us(g):11.3f}",
              file=out)
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    print("trace: self time by layer (ms): " +
          ", ".join(f"{k}={v:.1f}" for k, v in sorted(layers.items())), file=out)
