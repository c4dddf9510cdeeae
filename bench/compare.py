"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py BASE_RECORDS CHANGE_RECORDS

Each argument is a records directory written by bench/run.py (a checkout's
.bench_out/records).  Untraced, non-smoke records are grouped by workload
and paired by seed; run the two sides alternately, one seed at a time (see
bench/METRICS.md).  For every workload and end-to-end metric of
BENCHMARK.json this prints each side's median and quartiles, the change's
median as a ratio of the base median (with the base), the share of pairs
the change wins, and a verdict:

  worse       the change's median is worse than the base's by more than
              the metric's bound;
  improved    otherwise, if the change wins at least 9 of 10 pairs (ties
              count for neither) and the medians differ by more than the
              base's quartile distance, in the better direction;
  unresolved  otherwise, if the base's quartile distance exceeds the
              bound, unless every change run reads better than every base
              run;
  unchanged   otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: {metric: value}}} of the untraced full-size runs."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        if rec["smoke"] or rec["trace"]:
            continue
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["end_to_end"]
    return runs


def verdict(base, change, pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = quartiles(base)
    med_b = quartiles(change)[1]
    scale = abs(med_a) or 1.0
    all_better = all(sign * (b - a) < 0 for b in change for a in base)
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if sign * (med_b - med_a) / scale > bound:
        return "worse", wins
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) < 0 \
            and abs(med_b - med_a) > q3 - q1:
        return "improved", wins
    if (q3 - q1) / scale > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="records directory of the base (parent) side")
    p.add_argument("change", help="records directory of the change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    fmt = "{:<20} {:<12} {:>30} {:>30} {:>28} {:>7} {:>10}"
    print(fmt.format("workload", "metric", "base median [q1, q3]",
                     "change median [q1, q3]", "change/base (base)", "wins", "verdict"))
    status = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        a, b = base.get(name, {}), change.get(name, {})
        seeds = sorted(set(a) & set(b))
        if not a or not b:
            print(f"{name:<20} no runs on {'base' if not a else 'change'} side")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = [r[key] for r in a.values()]
            vb = [r[key] for r in b.values()]
            pairs = [(a[s][key], b[s][key]) for s in seeds]
            result, wins = verdict(va, vb, pairs, metric["better"], metric["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            unit = metric["unit"]
            ratio = f"{qb[1] / qa[1]:.4f} (of {qa[1]:.4g} {unit})" if qa[1] else "n/a (base 0)"
            print(fmt.format(name, key,
                             f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]",
                             f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]",
                             ratio, f"{wins}/{len(pairs)}", result))
    return status


if __name__ == "__main__":
    sys.exit(main())
