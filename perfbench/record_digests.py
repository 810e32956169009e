"""Record the canonical result digests of the default seed's units.

Usage (from the repository root)::

    python3 perfbench/record_digests.py [--workload NAME ...]

Runs the first ``UNITS[name]`` units of each workload under
``run.DEFAULT_SEED``, refuses to record if any unit fails its checks,
and writes ``perfbench/digests.json``. Re-record only on purpose, when
a change is meant to alter the simulated outcome; a change that only
makes the program faster must leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS, digest

#: More units than a timed run reaches today, so later, faster versions
#: are still compared against digests for a while.
UNITS = {"partition-x16": 64, "failover-x1": 400, "campaign": 48,
         "domains-traced": 96}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    with open(run.DIGESTS) as fh:
        data = json.load(fh)
    data["seed"] = run.DEFAULT_SEED
    for name in args.workload or list(WORKLOADS):
        runner = run.Runner(name, run.DEFAULT_SEED)
        runner.expected = []
        digests = []
        for index in range(UNITS[name]):
            _, _, result = runner.unit(index)
            digests.append(digest(result))
        if runner.failures:
            print(f"{name}: {runner.failures[:5]}", file=sys.stderr)
            return 1
        data["workloads"][name] = digests
        print(f"{name}: {len(digests)} digests")
    with open(run.DIGESTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
