#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 perfbench/compare_runs.py A_DIR B_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run, named <workload>.s<seed>.<tag>.json
(the tag is free, e.g. e2e or trace), whose last non-empty line is the
result JSON that perfbench/run.py prints. For every workload and metric the
script prints the median and quartiles of each set. It flags:

  * an end-to-end metric whose two medians differ by more than its
    BENCHMARK.json bound (marked worse or better by the metric's
    direction);
  * a per-layer count (any unit that is not a time, a rate, a share or a
    size) whose value differs between the two sets for the same seed;
  * a run that reported correct: false or failed operations.

Exits 1 when anything is flagged, else 0. Standard library only.
"""

import argparse
import json
import os
import re
import statistics
import sys

# Units whose values vary from run to run; all other per-layer units are
# counts that a fixed seed must reproduce exactly.
MEASURED_UNITS = {"ns", "us", "ms", "s", "1/s", "%", "MiB"}
NAME_RE = re.compile(r"^(?P<workload>[^.]+)\.s(?P<seed>\d+)\.")


def load_set(directory):
    """{workload: {metric: {seed: value}}}, units, and the flagged runs."""
    values, units, bad = {}, {}, []
    for name in sorted(os.listdir(directory)):
        match = NAME_RE.match(name)
        if not match or not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            bad.append(f"{path}: empty")
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            bad.append(f"{path}: correct={result['correct']} "
                       f"failed={result['failed']}/{result['attempted']}")
        seed = int(match["seed"])
        for metric, entry in result["metrics"].items():
            values.setdefault(match["workload"], {}).setdefault(
                metric, {})[seed] = entry["value"]
            units[metric] = entry["unit"]
    return values, units, bad


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir")
    parser.add_argument("b_dir")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}

    a, units, bad_a = load_set(args.a_dir)
    b, units_b, bad_b = load_set(args.b_dir)
    units.update(units_b)
    flags = [f"bad run {line}" for line in bad_a + bad_b]

    print(f"{'workload':15} {'metric':34} {'A q1/med/q3':>32} "
          f"{'B q1/med/q3':>32} {'B/A-1':>8}  flag")
    for workload in sorted(set(a) | set(b)):
        metrics = sorted(set(a.get(workload, {})) | set(b.get(workload, {})),
                         key=lambda m: (m not in end_to_end, m))
        for metric in metrics:
            va = a.get(workload, {}).get(metric, {})
            vb = b.get(workload, {}).get(metric, {})
            if not va or not vb:
                flags.append(f"{workload} {metric}: missing from one set")
                continue
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            change = qb[1] / qa[1] - 1 if qa[1] else 0.0
            flag = ""
            if metric in end_to_end:
                spec = end_to_end[metric]
                if abs(change) > spec["bound"]:
                    worse = (change > 0) == (spec["better"] == "lower")
                    flag = (f"{'WORSE' if worse else 'better'} than "
                            f"bound {spec['bound']}")
            elif units[metric] not in MEASURED_UNITS:
                differing = sorted(s for s in set(va) | set(vb)
                                   if va.get(s) != vb.get(s))
                if differing:
                    flag = f"COUNT DIFFERS at seeds {differing}"
            if flag:
                flags.append(f"{workload} {metric}: {flag}")

            def fmt(q):
                return "/".join(f"{x:.4g}" for x in q)

            print(f"{workload:15} {metric:34} {fmt(qa):>32} {fmt(qb):>32} "
                  f"{change:+8.2%}  {flag}")
    print()
    if flags:
        print(f"{len(flags)} flagged:")
        for line in flags:
            print(f"  {line}")
        return 1
    print("no flags: every end-to-end median within its bound, "
          "every count identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
