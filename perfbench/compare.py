#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records `run.py --save DIR` writes, one per
(workload, seed, trace) run. Runs of the two sides are paired by
workload and seed. For every (metric, workload) pair the script prints
each side's median and quartiles and a verdict:

  better      the change wins at least 9 of every 10 pairs (ties count
              for neither side), at least ten pairs were run, and the
              medians differ by more than the parent's quartile spread;
  worse       the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json (per-layer
              metrics have no bound: the mirror of `better`);
  unresolved  neither, and either side's quartile spread is wider than
              the bound (per-layer: the medians differ by more than the
              parent's spread), unless every change run beats every
              parent run;
  unchanged   otherwise.

Exits 1 when any end-to-end verdict is `worse`. Claims must also hold on
the held-out seeds (HELD_OUT_SEEDS below), which are not to be used
while a change is being written.
"""

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
HELD_OUT_SEEDS = range(9001, 9011)


def load(directory):
    """{(workload, trace): {seed: {metric: value}}} from saved records."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        metrics = {name: m["value"]
                   for name, m in record["result"]["metrics"].items()}
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, lower_is_better, bound):
    """Apply the rule in the module docstring to paired values."""
    def better(a, b):
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    losses = sum(better(p, c) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = abs(cm - pm)
    enough = len(pairs) >= 10
    if enough and wins >= 0.9 * len(pairs) and gap > p3 - p1 and \
            better(cm, pm):
        return "better"
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and gap > p3 - p1:
            return "worse"
    elif pm != 0 and better(pm, cm) and gap / abs(pm) > bound:
        return "worse"
    dominated = all(better(c, p) for p in parent for c in change)
    if dominated and enough:
        return "better"
    if bound is None:
        return "unresolved" if gap > p3 - p1 else "unchanged"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    return "unresolved" if spread > bound else "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(HERE.parent /
                                                   "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    any_worse = False
    print(f"{'workload':10} {'metric':36} {'n':>3} {'parent q1/med/q3':>34}"
          f" {'change q1/med/q3':>34}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        held_out = sum(seed in HELD_OUT_SEEDS for seed in seeds)
        for name in sorted(set(parent[key][seeds[0]]) if seeds else ()):
            spec_m = metrics.get(name)
            if spec_m is None:
                continue
            p = [parent[key][s][name] for s in seeds]
            c = [change[key][s][name] for s in seeds]
            result = verdict(p, c, spec_m["better"] == "lower",
                             spec_m.get("bound"))
            any_worse |= result == "worse" and "bound" in spec_m
            pq = "/".join(f"{v:.4g}" for v in quartiles(p))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c))
            print(f"{workload:10} {name:36} {len(seeds):3} {pq:>34}"
                  f" {cq:>34}  {result}")
        print(f"{workload:10} ({len(seeds)} paired seeds, {held_out} "
              f"held out, trace {trace})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
