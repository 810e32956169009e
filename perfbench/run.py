"""End-to-end benchmark of the real experiments, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload partition-x16 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the timed closed loop and prints the end-to-end
metrics; ``--trace 1`` runs the workload's fixed traced units, once
plain and once under ``cProfile``, and prints the per-layer metrics.
``--plant-bug`` turns on the composed worlds' ``report_retry=False``
knob, a known defect the checks must catch (``failed > 0``).

Every unit is checked: its oracles, invariants and network ledger for
any seed, and, for the units of :data:`DEFAULT_SEED`, its result digest
against ``perfbench/digests.json``. A failing unit counts in ``failed``
and does not stop the run. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import inspect
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

#: The seed whose unit digests are recorded in ``digests.json``.
DEFAULT_SEED = 0
#: Set-up is measured this many times, in fresh processes; the median
#: is reported.
SETUP_PROBES = 7
#: Each timed input runs this many times; its best time counts.
REPEATS = 3

from workloads import WORKLOADS, Seen, digest  # noqa: E402


def host_facts() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def import_stack() -> None:
    """Import every module the workloads' units reach."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro.autoscaling.experiment  # noqa: F401
    import repro.campaign  # noqa: F401
    import repro.faults.chaos  # noqa: F401
    import repro.graphalytics.robustness  # noqa: F401
    import repro.mmog.provisioning  # noqa: F401
    import repro.observability  # noqa: F401
    import repro.p2p.swarm  # noqa: F401


def setup(name: str, seed: int) -> list:
    import_stack()
    return WORKLOADS[name].inputs(seed)


class Collector:
    """Collects the objects a unit creates, by wrapping constructors.

    Only ``__init__`` is wrapped, so nothing is added per event. After a
    unit, the environments give dispatch counts and simulated seconds,
    the networks their ledgers, the replicators their shipping counts
    and the schedulers their task counts.
    """

    def __init__(self):
        from repro.replication.shipping import JournalReplicator
        from repro.scheduling.simulator import ClusterSimulator
        from repro.sim import Environment, Network
        self.seen = Seen([], [], [], [])
        for cls, attr in ((Environment, "environments"),
                          (Network, "networks"),
                          (JournalReplicator, "replicators"),
                          (ClusterSimulator, "simulators")):
            self._wrap(cls, attr)

    def _wrap(self, cls, attr: str) -> None:
        # Unwrapping first makes a new collector replace an older one.
        original = inspect.unwrap(cls.__init__)
        collector = self

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            getattr(collector.seen, attr).append(obj)
        cls.__init__ = __init__

    def take(self) -> Seen:
        seen, self.seen = self.seen, Seen([], [], [], [])
        return seen


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        data = json.load(fh)
    if data["seed"] != DEFAULT_SEED:
        raise ValueError("digests.json was recorded for another seed")
    return data["workloads"]


class Runner:
    """Runs and checks the units of one workload and seed."""

    def __init__(self, name: str, seed: int, plant: bool = False):
        self.workload = WORKLOADS[name]
        if plant and not self.workload.plantable:
            raise ValueError(f"{name} has no plantable bug")
        self.plant = plant
        self.inputs = setup(name, seed)
        self.expected = (load_digests().get(name, [])
                         if seed == DEFAULT_SEED else [])
        self.collector = Collector()
        self.attempted = 0
        self.failures: list = []

    def unit(self, index: int, profiler=None, expect=None):
        """Run and check unit ``index``; returns (seconds, Seen, digest).

        ``expect`` is the digest an earlier run of the same input gave;
        without it, the recorded digest (default seed only) is used.
        """
        inp = self.inputs[index % len(self.inputs)]
        if expect is None and index < len(self.expected):
            expect = self.expected[index]
        self.collector.take()
        result = None
        started = time.perf_counter()
        try:
            if profiler is None:
                result = self.workload.run(inp, self.plant)
            else:
                result = profiler.runcall(self.workload.run, inp,
                                          self.plant)
        except Exception as exc:  # a unit that raises is a failed unit
            elapsed = time.perf_counter() - started
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - started
            problems = []
        seen = self.collector.take()
        got = None
        if result is not None:
            problems += self.workload.check(inp, result, seen)
            got = digest(result)
            if expect is not None and got != expect:
                problems.append(f"result digest {got} != expected {expect}")
        self.attempted += 1
        if problems:
            self.failures.append((index, problems))
        return elapsed, seen, got

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failed_frac": len(self.failures) / max(1, self.attempted)}


# -- timed run ----------------------------------------------------------------

def measure_setup(name: str, seed: int) -> float:
    """Median set-up seconds over fresh processes (import + inputs)."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def timed(runner: Runner, seconds: float) -> tuple:
    """The closed loop. The first round runs fresh inputs for
    ``seconds / REPEATS``; the other rounds run the same inputs again, so
    each input's time is its best of ``REPEATS`` runs spread over the
    whole batch (contention from other tenants only ever adds time) and
    every repeat must reproduce the first run's result digest."""
    runner.unit(0)  # warm-up: lazy imports and caches, not timed
    best, sim_s, digests = [], 0.0, []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds / REPEATS:
        elapsed, seen, got = runner.unit(len(best) + 1)
        best.append(elapsed)
        digests.append(got)
        sim_s += seen.sim_s
    for _ in range(REPEATS - 1):
        for i, got in enumerate(digests):
            elapsed, _, _ = runner.unit(i + 1, expect=got)
            best[i] = min(best[i], elapsed)
    batch_s = time.perf_counter() - started
    return {
        "unit_s_p50": (statistics.median(best), "s"),
        "units_per_min": (60.0 * len(best) / sum(best), "1/min"),
        "sim_s_per_host_s": (sim_s / sum(best), "s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }, len(best), batch_s


# -- traced run ---------------------------------------------------------------

def _public_functions() -> dict:
    from repro.analysis.sanitizers import TraceDigest
    from repro.invariants import InvariantEngine
    from repro.observability import Tracer
    from repro.recovery import Journal
    from repro.resilience import PhiAccrualDetector
    from repro.sim import Environment, Monitor, Network
    public = {"send": Network.send, "count": Monitor.count,
              "phi": PhiAccrualDetector.phi,
              "heartbeat": PhiAccrualDetector.heartbeat,
              "check_now": InvariantEngine.check_now,
              "append": Journal.append,
              "durable_records": Journal.durable_records,
              "process": Environment.process,
              "timeout": Environment.timeout,
              "start_span": Tracer.start_span,
              "digest_event": TraceDigest.__call__}
    # The bench's own wrappers (functools.wraps) are not the public code.
    return {name: inspect.unwrap(fn) for name, fn in public.items()}


def _count_scanned_records(scanned: list) -> None:
    """Sum ``len()`` of every ``Journal.durable_records`` result."""
    from repro.recovery import Journal
    original = inspect.unwrap(Journal.durable_records)

    @functools.wraps(original)
    def durable_records(journal, *args, **kwargs):
        records = original(journal, *args, **kwargs)
        scanned[0] += len(records)
        return records
    Journal.durable_records = durable_records


def traced(runner: Runner) -> dict:
    import repro
    from layers import LAYERS, LayerMap, bucket

    funcs = _public_functions()
    units = range(runner.workload.trace_units)
    runner.unit(units[-1])  # warm-up, as in the timed run
    plain_s, dispatches, sim_s, digests = 0.0, 0, 0.0, []
    for index in units:
        elapsed, seen, got = runner.unit(index)
        plain_s += elapsed
        dispatches += sum(e.dispatch_count for e in seen.environments)
        sim_s += seen.sim_s
        digests.append(got)

    scanned = [0]
    _count_scanned_records(scanned)
    profiler = cProfile.Profile()
    traced_s, networks, replicators, simulators = 0.0, [], [], []
    for index in units:
        elapsed, seen, _ = runner.unit(index, profiler,
                                       expect=digests[index])
        traced_s += elapsed
        networks += seen.networks
        replicators += seen.replicators
        simulators += seen.simulators

    stats = pstats.Stats(profiler)
    self_s = bucket(stats, LayerMap(os.path.dirname(repro.__file__)))
    total = sum(self_s.values())

    def calls(fn):
        code = fn.__code__
        entry = stats.stats.get(
            (code.co_filename, code.co_firstlineno, code.co_name))
        return (entry[1], entry[3]) if entry else (0, 0.0)

    def per_call_us(fn):
        n, cum = calls(fn)
        return 1e6 * cum / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    sent = sum(n.sent for n in networks)
    shipped = sum(r.shipped_records for r in replicators)
    tasks = sum(s.submitted for s in simulators)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (ratio(self_s[layer], total),
                                          "share")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics.update({
        "resilience.detection.us_per_phi": (per_call_us(funcs["phi"]), "us"),
        "resilience.detection.phi_calls": (calls(funcs["phi"])[0], "count"),
        "resilience.detection.heartbeats": (calls(funcs["heartbeat"])[0],
                                            "count"),
        "sim.monitor.us_per_count": (per_call_us(funcs["count"]), "us"),
        "sim.monitor.count_calls": (calls(funcs["count"])[0], "count"),
        "sim.network.us_per_send": (per_call_us(funcs["send"]), "us"),
        "sim.network.sends": (calls(funcs["send"])[0], "count"),
        "sim.network.delivered_ratio": (
            ratio(sum(n.delivered for n in networks), sent), "ratio"),
        "sim.kernel.processes_started": (calls(funcs["process"])[0],
                                         "count"),
        "sim.kernel.timeouts": (calls(funcs["timeout"])[0], "count"),
        "sim.kernel.dispatches": (dispatches, "count"),
        "sim.kernel.events_per_s": (ratio(dispatches, plain_s), "1/s"),
        "sim.kernel.sim_s": (sim_s, "s"),
        "recovery.durable_scans": (calls(funcs["durable_records"])[0],
                                   "count"),
        "recovery.records_scanned": (scanned[0], "count"),
        "recovery.journal_appends": (calls(funcs["append"])[0], "count"),
        "replication.records_shipped": (shipped, "count"),
        "replication.ship_resend_ratio": (
            ratio(sum(r.resends for r in replicators), shipped), "ratio"),
        "invariants.checks": (calls(funcs["check_now"])[0], "count"),
        "invariants.us_per_check": (per_call_us(funcs["check_now"]), "us"),
        "observability.spans": (calls(funcs["start_span"])[0], "count"),
        "analysis.digest_events": (calls(funcs["digest_event"])[0],
                                   "count"),
        "scheduling.tasks": (tasks, "count"),
        "scheduling.us_per_task": (ratio(1e6 * self_s["scheduling"], tasks),
                                   "us"),
        "trace.overhead": (ratio(traced_s, plain_s), "ratio"),
    })
    return metrics


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-bug", action="store_true",
                        help="run the composed worlds with "
                             "report_retry=False (a known defect)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        started = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - started)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    runner = Runner(args.workload, args.seed, plant=args.plant_bug)
    if args.trace:
        metrics = traced(runner)
        info = {"units": runner.workload.trace_units}
    else:
        metrics, inputs, batch_s = timed(runner, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        info = {"inputs": inputs, "repeats": REPEATS,
                "batch_s": round(batch_s, 3)}

    summary = runner.summary()
    print("host " + json.dumps(host_facts(), sort_keys=True))
    print("bench " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "plant_bug": args.plant_bug, **info, **summary},
        sort_keys=True))
    for index, problems in runner.failures[:20]:
        print(f"FAIL unit {index}: {'; '.join(problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'failed_frac':40s} {summary['failed_frac']:14.6g} "
          f"({summary['failed']}/{summary['attempted']} units)")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
