"""Run the benchmark over several seeds into a result set.

Usage (from the repository root)::

    python3 perfbench/sweep.py --out DIR --seeds 1-10 \\
        [--workload NAME ...] [--trace 0|1] [--pair PARENT CHANGE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a
time, with ``run_seconds`` from ``BENCHMARK.json``, and writes each
run's standard output to ``DIR/<workload>-s<seed>-t<trace>.txt``; then
prints the set's summary (see ``perfbench/compare.py``).

With ``--pair``, the two arguments are checkouts of the parent and the
change (each with its own ``perfbench/``). Every seed runs on both,
alternating which runs first, into ``DIR/parent`` and ``DIR/change``,
and the comparison is printed. Pairs run back to back see the same
machine, so a drift in host speed between two sets does not read as a
gain or a loss.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import compare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(checkout: str, name: str, seed: int, trace: int,
             seconds: int, out_dir: str) -> None:
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
        timeout=600)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-s{seed}-t{trace}.txt")
    with open(path, "w") as fh:
        fh.write(out.stdout)
    print(f"{path}: {out.stdout.strip().splitlines()[-1][:100]}", flush=True)


def main(argv=None) -> int:
    bench = compare.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pair", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    sides = ([("parent", os.path.abspath(args.pair[0])),
              ("change", os.path.abspath(args.pair[1]))]
             if args.pair else [("", ROOT)])
    for name in args.workload or names:
        for turn, seed in enumerate(args.seeds):
            order = sides if turn % 2 == 0 else sides[::-1]
            for side, checkout in order:
                run_once(checkout, name, seed, args.trace,
                         bench["run_seconds"], os.path.join(args.out, side))
    if args.pair:
        lines = compare.compare(
            compare.load_set(os.path.join(args.out, "parent")),
            compare.load_set(os.path.join(args.out, "change")), bench)
    else:
        lines = compare.summarise(compare.load_set(args.out), bench)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
