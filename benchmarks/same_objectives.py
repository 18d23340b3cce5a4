#!/usr/bin/env python3
"""Checks that a regenerated sweep record has the objectives of its baseline.

Usage: python3 benchmarks/same_objectives.py OLD.json NEW.json

Points are matched by algorithm and threshold, so records of different
schema versions (whose `patterns` fields differ in type) compare. Exits 1
when the point sets differ or any point's literals, area, delay, error rate
or dominated tag changed.
"""
import json
import sys

FIELDS = ("literals", "area", "delay", "error_rate", "dominated")


def points(path):
    return {(p["algorithm"], p["threshold"]): p for p in json.load(open(path))["points"]}


old, new = points(sys.argv[1]), points(sys.argv[2])
if old.keys() != new.keys():
    sys.exit(f"point sets differ: {sorted(old)} vs {sorted(new)}")
mismatches = [
    f"{key}: {field} {old[key][field]!r} -> {new[key][field]!r}"
    for key in sorted(old)
    for field in FIELDS
    if old[key][field] != new[key][field]
]
print("\n".join(mismatches + [f"{sys.argv[2]}: {len(old)} points, {len(mismatches)} mismatches"]))
sys.exit(1 if mismatches else 0)
