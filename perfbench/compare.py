"""Summarise one result set, or compare a parent set with a change set.

Usage (from the repository root)::

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of ``*.txt`` files, each the standard
output of one ``perfbench/run.py`` run (``perfbench/sweep.py`` writes
them). With one set, it prints for each workload and end-to-end metric
the median, the quartiles and the spread (quartile distance over the
median) against the bound in ``BENCHMARK.json``. With two, it prints
both medians and quartiles, the change's win share over pairs of runs
(paired by seed), and a verdict: *improved* when, over at least ten
pairs, the change wins at least nine tenths of them and the medians
differ by more than the parent's quartile distance; *regressed* when
the change's median is worse than the parent's by more than the bound;
*unresolved* when the parent's spread is wider than the bound and not
every change run beats every parent run; *unchanged* otherwise. Traced
runs are compared by their counts, which must be identical for the
same workload and seed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: A gain is claimed only over at least this many pairs of runs.
MIN_PAIRS = 10
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_benchmark() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def parse_run(text: str) -> dict:
    """One run's stdout -> {bench, host, result}."""
    run = {}
    lines = text.strip().splitlines()
    for line in lines:
        for tag in ("bench", "host"):
            if line.startswith(tag + " "):
                run[tag] = json.loads(line[len(tag) + 1:])
    run["result"] = json.loads(lines[-1])
    return run


def load_set(directory: str) -> list:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        with open(path) as fh:
            runs.append(parse_run(fh.read()))
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def by_workload(runs: list, trace: int) -> dict:
    grouped: dict = {}
    for run in runs:
        if run["bench"]["trace"] == trace:
            grouped.setdefault(run["bench"]["workload"], []).append(run)
    return grouped


def series(runs: list, metric: str) -> dict:
    """seed -> value of ``metric``."""
    return {run["bench"]["seed"]: run["result"]["metrics"][metric]["value"]
            for run in runs if metric in run["result"]["metrics"]}


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple:
    """(verdict, win share) for two seed -> value maps of one metric."""
    sign = -1.0 if better == "lower" else 1.0
    seeds = sorted(set(parent) & set(change))
    if seeds:
        pairs = [(parent[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(sorted(parent.values()), sorted(change.values())))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    gain = sign * (c_med - p_med)
    if len(pairs) >= MIN_PAIRS and win_share >= 0.9 and gain > p_q3 - p_q1:
        return "improved", win_share
    if -gain > bound * abs(p_med):
        return "regressed", win_share
    all_better = min(sign * c for c in c_vals) > max(sign * p for p in p_vals)
    if spread(p_vals) > bound and not all_better:
        return "unresolved", win_share
    return "unchanged", win_share


def _fmt(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def _failures(runs: list) -> str:
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return f"{len(runs)} runs, {failed}/{attempted} units failed"


def summarise(runs: list, bench: dict) -> list:
    lines = []
    hosts = {json.dumps(r.get("host"), sort_keys=True) for r in runs}
    lines += [f"host {h}" for h in sorted(hosts)]
    for name, group in sorted(by_workload(runs, 0).items()):
        lines.append(f"{name}: {_failures(group)}")
        for metric in bench["end_to_end"]:
            values = list(series(group, metric["name"]).values())
            if not values:
                continue
            s = spread(values)
            flag = ("over bound" if s > metric["bound"] else
                    "over a third of bound" if s > metric["bound"] / 3
                    else "steady")
            lines.append(f"  {metric['name']:18s} {_fmt(values):44s} "
                         f"spread {s:.4f} (bound {metric['bound']}) {flag}")
    return lines


def _counts(runs: list) -> dict:
    """(workload, seed) -> {count metric: value} from traced runs."""
    return {(r["bench"]["workload"], r["bench"]["seed"]):
            {k: v["value"] for k, v in r["result"]["metrics"].items()
             if v["unit"] == "count"}
            for r in runs if r["bench"]["trace"] == 1}


def compare(parent: list, change: list, bench: dict) -> list:
    lines = []
    p_groups, c_groups = by_workload(parent, 0), by_workload(change, 0)
    for name in sorted(set(p_groups) & set(c_groups)):
        lines.append(f"{name}: parent {_failures(p_groups[name])}; "
                     f"change {_failures(c_groups[name])}")
        for metric in bench["end_to_end"]:
            p = series(p_groups[name], metric["name"])
            c = series(c_groups[name], metric["name"])
            if not p or not c:
                continue
            result, win_share = verdict(p, c, metric["better"],
                                        metric["bound"])
            lines.append(
                f"  {metric['name']:18s} parent {_fmt(list(p.values()))} "
                f"change {_fmt(list(c.values()))} "
                f"wins {win_share:.2f} -> {result}")
    p_counts, c_counts = _counts(parent), _counts(change)
    for key in sorted(set(p_counts) & set(c_counts)):
        differ = sorted(k for k in p_counts[key]
                        if p_counts[key][k] != c_counts[key].get(k))
        lines.append(f"counts {key[0]} seed {key[1]}: "
                     + (f"differ in {', '.join(differ)}" if differ
                        else "identical"))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    sets = [load_set(d) for d in argv]
    if len(sets) == 1:
        lines = summarise(sets[0], bench)
    else:
        lines = compare(sets[0], sets[1], bench)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
