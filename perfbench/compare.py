"""Advisory comparison of two sets of benchmark runs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.jsonl`` files whose lines are the last
stdout line of ``run.py`` runs.  For each metric, the i-th value on the
parent side and the i-th on the change side form pair i, so make the runs
in alternating order (parent then change, then change then parent, ...),
with the same seeds and ``--seconds`` on both sides, at least ten pairs.

Each (workload, metric) is reported as
  better      the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  the metric has a bound, the parent's spread (IQR / median)
              is wider than it, and not every change run beats every
              parent run;
  worse       the change's median is worse than the parent's by more than
              the bound, or, for a metric without one, the parent wins
              9/10 of the pairs by more than its IQR;
  unchanged   otherwise.
Bounds and directions come from BENCHMARK.json.  The report is advisory:
the exit code is 0 whatever it says.
"""

import json
import os
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """workload -> metric -> values in run order."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        metrics = runs.setdefault(name[:-len(".jsonl")], {})
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    for metric, m in json.loads(line)["metrics"].items():
                        metrics.setdefault(metric, []).append(m["value"])
    return runs


def verdict(parent, change, better, bound):
    """(better | worse | unchanged | unresolved, pairs the change wins)."""
    sign = 1 if better == "higher" else -1   # sign * (change - parent) > 0 is a gain
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    mid_p, mid_c = median(parent), median(change)
    q1, _, q3 = quantiles(parent, n=4) if len(parent) > 1 else (mid_p, mid_p, mid_p)
    gain = sign * (mid_c - mid_p)
    if wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better", wins
    if bound is None:
        worse = losses >= 0.9 * len(pairs) and -gain > q3 - q1
    else:
        every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
        if q3 - q1 > bound * abs(mid_p) and not every_run_better:
            return "unresolved", wins
        worse = -gain > bound * abs(mid_p)
    return ("worse" if worse else "unchanged"), wins


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    print("workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins/pairs\tverdict")
    for workload in sorted(set(parent) & set(change)):
        for metric, (better, bound) in rules.items():
            p = parent[workload].get(metric)
            c = change[workload].get(metric)
            if not p or not c:
                continue
            n = min(len(p), len(c))
            result, wins = verdict(p[:n], c[:n], better, bound)
            print(f"{workload}\t{metric}\t{_summary(p[:n])}\t{_summary(c[:n])}\t"
                  f"{wins}/{n}\t{result}")
    return 0


def _summary(values):
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return f"{median(values):.6g} [{q1:.6g}, {q3:.6g}]"


if __name__ == "__main__":
    sys.exit(main())
