#!/usr/bin/env python3
"""Compare sets of benchmark runs.

    python3 perfbench/compare.py SET_DIR [SET_DIR ...]

Each SET_DIR holds the per-run records perfbench/run.py leaves under
.bench_results/ (copy or move that directory aside after each set).
For every workload it prints, per set, each end-to-end metric's median
and its spread (interquartile range over the median), and the change of
each later set's median against the first, judged against the bounds in
BENCHMARK.json. It also checks that every exact count of the first cycle,
and the registry digest of every cycle, is identical in every record of
the same workload and seed, traced or not. Exits 1 when a spread or
drift exceeds its bound or an exact count or digest differs.
"""

import glob
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        if path.endswith((".raw.json", ".spans.json")):
            continue
        with open(path) as handle:
            record = json.load(handle)
        if "meta" in record:
            records.append(record)
    return records


def exact_of(record):
    cycles = record["notes"].get("exact_first_cycle") or [{}]
    return cycles[0]


def check_exact(records):
    """Every record of one (workload, seed) must agree on every exact count
    of the first cycle both have, and on the registry digest of every
    cycle both ran. Returns the mismatch lines."""
    groups = {}
    for record in records:
        key = (record["meta"]["workload"], record["meta"]["seed"])
        groups.setdefault(key, []).append(record)
    problems = []
    for (workload, seed), group in sorted(groups.items()):
        reference = exact_of(group[0])
        digests = list(group[0]["cycles"])
        for record in group[1:]:
            for cycle, (a, b) in enumerate(zip(digests, record["cycles"])):
                if a != b:
                    problems.append("%s seed %s: cycle %d registry digest differs"
                                    % (workload, seed, cycle))
            digests += record["cycles"][len(digests):]
            other = exact_of(record)
            for name in sorted(set(reference) & set(other)):
                if reference[name] != other[name]:
                    problems.append("%s seed %s: %s %s != %s"
                                    % (workload, seed, name, reference[name], other[name]))
            for name, value in other.items():
                reference.setdefault(name, value)
    return problems, len(groups)


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [load(directory) for directory in sys.argv[1:]]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        print("== %s" % workload)
        first_medians = None
        for index, records in enumerate(sets):
            runs = [r for r in records
                    if r["meta"]["workload"] == workload and r["meta"]["trace"] == 0]
            if not runs:
                continue
            wrong = sum(1 for r in runs if not r["correct"])
            print("  set %d: %d runs, %d incorrect" % (index + 1, len(runs), wrong))
            ok = ok and wrong == 0
            medians = {}
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in runs]
                medians[name] = stats.median(values)
                spread = stats.spread(values) if len(values) >= 2 else 0.0
                verdict = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "FAIL")
                ok = ok and spread <= bound
                line = "    %-18s median %-14.6g spread %6.2f%% (bound %g) %s" % (
                    name, medians[name], 100 * spread, bound, verdict)
                if first_medians is not None:
                    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                    change = medians[name] / first_medians[name] - 1.0
                    worse = change if better == "lower" else -change
                    line += "  vs set 1: %+.2f%%%s" % (100 * change,
                                                         "" if worse <= bound else " FAIL")
                    ok = ok and worse <= bound
                print(line)
            if first_medians is None:
                first_medians = medians
    problems, groups = check_exact([r for records in sets for r in records])
    print("exact counts: %d workload/seed groups, %d mismatches" % (groups, len(problems)))
    for problem in problems[:20]:
        print("  " + problem)
    ok = ok and not problems
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
