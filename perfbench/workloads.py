"""The benchmark's workloads: inputs from a seed, one unit, its checks.

Each workload is a closed loop: one process runs *units* back to back
through the public entry points. A workload is three functions and a
count:

- ``inputs(seed)`` builds every unit's input up front, from the seed
  alone (the program receives only these generated inputs);
- ``run(inp, plant)`` executes one unit and returns its canonical
  result, a JSON-able value whose digest identifies the outcome;
- ``check(inp, result, seen)`` lists what is wrong with the unit's
  outcome: oracles, invariants and the network ledger, judged from
  outside the program;
- ``trace_units`` is how many units the traced run profiles.

``plant`` turns on the existing ``report_retry=False`` bug knob of the
composed worlds, so the benchmark can prove its checks catch a defect.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

#: Unit inputs are generated in a cycle of this many; a faster program
#: that finishes the cycle within one run starts it again.
_CYCLE = {"partition-x16": 200, "failover-x1": 2000, "campaign": 400,
          "domains-traced": 200}


@dataclass(frozen=True)
class Workload:
    """Why each workload is in the set is recorded in ``BENCHMARK.json``."""

    name: str
    inputs: Callable
    run: Callable
    check: Callable
    trace_units: int
    plantable: bool = True


@dataclass
class Seen:
    """What the bench observed from outside while one unit ran."""

    environments: list
    networks: list
    replicators: list
    simulators: list

    @property
    def sim_s(self) -> float:
        return sum(env.now for env in self.environments)


def digest(result) -> str:
    """Canonical digest of a unit result (sorted-key JSON, SHA-256)."""
    text = json.dumps(result, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _seeds(name: str, seed: int) -> list:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(2 ** 31) for _ in range(_CYCLE[name])]


def _ledger(seen: Seen) -> list:
    problems = []
    for net in seen.networks:
        books = net.delivered + net.blocked + net.dropped + net.in_flight
        if net.sent != books:
            problems.append(f"network ledger: sent {net.sent} != "
                            f"delivered+blocked+dropped+in_flight {books}")
    return problems


# -- composed worlds ----------------------------------------------------------

def _world_check(world: str):
    def check(inp, result, seen):
        from repro.campaign import standard_oracles
        problems = [f"{o.name}: {detail}"
                    for o in standard_oracles(world)
                    if (detail := o.check(result)) is not None]
        sent = result["messages_sent"]
        books = (result["messages_delivered"] + result["messages_blocked"]
                 + result["messages_dropped"] + result["messages_in_flight"])
        if sent != books:
            problems.append(f"result ledger: sent {sent} != {books}")
        return problems + _ledger(seen)
    return check


def _partition_inputs(seed):
    return [{"seed": s, "n_tasks": 640, "n_invocations": 960}
            for s in _seeds("partition-x16", seed)]


def _partition_run(inp, plant):
    from repro.faults.chaos import run_partition_scenario
    extra = {"report_retry": False} if plant else {}
    return run_partition_scenario(**inp, **extra)


def _failover_inputs(seed):
    return [{"seed": s} for s in _seeds("failover-x1", seed)]


def _failover_run(inp, plant):
    from repro.faults.chaos import run_failover_scenario
    extra = {"report_retry": False} if plant else {}
    return run_failover_scenario(**inp, **extra)


# -- campaign -----------------------------------------------------------------

def _campaign_inputs(seed):
    return [{"root_seed": s} for s in _seeds("campaign", seed)]


def _campaign_run(inp, plant):
    from repro.campaign import CampaignConfig, run_campaign
    extra = {"report_retry": False} if plant else {}
    # Two schedules, one per world (the campaign round-robins them), so
    # every unit costs the same mix; each is double-run by default.
    report = run_campaign(CampaignConfig(
        root_seed=inp["root_seed"], n_schedules=2, workers=1,
        extra_world_kwargs=extra))
    # Kernel event ids may legitimately change, so the trace digest is
    # not part of the canonical result.
    return [{k: v for k, v in verdict.as_dict().items()
             if k != "trace_digest"} for verdict in report.verdicts]


def _campaign_check(inp, result, seen):
    problems = [f"schedule #{v['index']} ({v['world']}): "
                f"{', '.join(v['failures'])}"
                for v in result if not v["passed"]]
    return problems + _ledger(seen)


# -- single domains, traced ---------------------------------------------------

_MMOG_STEPS = 960
_AUTOSCALING_WORKFLOWS = 96


def _domains_inputs(seed):
    inputs = []
    for s in _seeds("domains-traced", seed):
        rng = random.Random(s)
        demand = [max(0.0, 600.0 + 450.0 * math.sin(2 * math.pi * i / 48)
                      + rng.gauss(0.0, 40.0)) for i in range(_MMOG_STEPS)]
        workflows = [(rng.uniform(60.0, 120.0), rng.uniform(90.0, 150.0))
                     for _ in range(_AUTOSCALING_WORKFLOWS)]
        inputs.append({"seed": s, "demand": demand, "workflows": workflows})
    return inputs


def _domains_run(inp, plant):
    """The seven single-domain golden scenarios, scaled up, each with a
    span ``Tracer`` and a ``MetricsRegistry`` attached as the corpus
    does. Configurations mirror ``repro.observability.scenarios``."""
    from repro.autoscaling.autoscalers import make_autoscaler
    from repro.autoscaling.experiment import (ExperimentConfig,
                                              run_autoscaling_experiment)
    from repro.faults.chaos import (run_recovery_scenario,
                                    run_scheduling_scenario,
                                    run_serverless_scenario)
    from repro.graphalytics.robustness import run_supersteps_with_recovery
    from repro.mmog.provisioning import (TrendPredictor,
                                         run_brownout_provisioning)
    from repro.observability import MetricsRegistry, Tracer
    from repro.p2p.peer import ContentDescriptor
    from repro.p2p.swarm import SwarmConfig, run_swarm
    from repro.p2p.tracker import Tracker
    from repro.recovery import CheckpointStore, PeriodicCheckpoint
    from repro.resilience import BrownoutController
    from repro.sim import Environment, RandomStreams
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.task import MapReduceJob

    seed = inp["seed"]
    out = {}

    def traced(name, fn):
        tracer, registry = Tracer(name=name), MetricsRegistry()
        summary = fn(tracer, registry)
        out[name] = {"summary": summary, "spans": len(tracer.spans),
                     "open_spans": len(tracer.open_spans()),
                     "metrics": len(registry.snapshot())}

    traced("serverless", lambda tr, reg: run_serverless_scenario(
        seed=seed, error_rate=0.2, retry=True, n_invocations=1200,
        rate_per_s=4.0, runtime_s=0.4, tracer=tr, registry=reg))
    traced("scheduling", lambda tr, reg: run_scheduling_scenario(
        seed=seed, mtbf_s=400.0, mttr_s=40.0, requeue=True, n_tasks=480,
        n_machines=4, tracer=tr, registry=reg))

    def p2p(tr, reg):
        streams = RandomStreams(seed)
        config = SwarmConfig(
            content=ContentDescriptor("bench", "720p", size_mb=40.0),
            initial_seeds=1, round_s=10.0, horizon_s=14400.0,
            seed_linger_s=300.0, mean_session_s=900.0)
        result = run_swarm(
            config, Tracker("bench"), streams.get("p2p-swarm"),
            arrivals=PoissonArrivals(rate=1 / 120.0,
                                     rng=streams.get("p2p-arrivals")),
            tracer=tr, registry=reg)
        return {"peers": len(result.peers),
                "completed": len(result.completed),
                "churned": result.churned_count,
                "peak_swarm_size": result.peak_swarm_size()}
    traced("p2p", p2p)

    def graphalytics(tr, reg):
        env = Environment()
        result = run_supersteps_with_recovery(
            n_supersteps=2000, superstep_s=5.0, mtbf_s=45.0, mttr_s=8.0,
            rng=RandomStreams(seed).get("graphalytics-crash"),
            policy=PeriodicCheckpoint(15.0),
            store=CheckpointStore(env, tier="local"),
            checkpoint_size_mb=50.0, restart_cost_s=1.0,
            algorithm="pagerank", env=env, tracer=tr, registry=reg)
        return {"n_supersteps": result.n_supersteps,
                "crashes": result.crashes,
                "lost_supersteps": result.lost_supersteps,
                "checkpoints": result.checkpoints_written,
                "makespan_s": round(result.makespan_s, 6)}
    traced("graphalytics", graphalytics)

    def mmog(tr, reg):
        result = run_brownout_provisioning(
            inp["demand"], TrendPredictor(window=4), BrownoutController(),
            players_per_server=100, step_s=300.0,
            provisioning_delay_steps=2, tracer=tr, registry=reg)
        return {"server_hours": round(result.server_hours, 6),
                "degraded_fraction": round(result.degraded_fraction, 6),
                "mean_update_fidelity":
                    round(result.mean_update_fidelity, 6)}
    traced("mmog", mmog)

    def autoscaling(tr, reg):
        workflows = [MapReduceJob(n_maps=3, n_reduces=2, map_work=m,
                                  reduce_work=r, submit_time=i * 180.0,
                                  name=f"mr{i}")
                     for i, (m, r) in enumerate(inp["workflows"])]
        result = run_autoscaling_experiment(
            workflows, make_autoscaler("react"),
            ExperimentConfig(step_s=30.0, provisioning_delay_steps=1,
                             max_supply=64.0),
            tracer=tr, registry=reg)
        return {"workflows": result.n_workflows,
                "violations": result.deadline_violations,
                "mean_makespan": round(result.mean_makespan, 6),
                "resource_seconds": round(result.resource_seconds, 6)}
    traced("autoscaling", autoscaling)

    traced("recovery", lambda tr, reg: run_recovery_scenario(
        seed=seed, policy="daly", work_s=16000.0, mtbf_s=150.0,
        mttr_s=10.0, checkpoint_size_mb=50.0, restart_cost_s=1.0,
        tracer=tr, registry=reg))
    return out


def _domains_check(inp, result, seen):
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    serverless = result["serverless"]["summary"]
    need(serverless["invocations"] == 1200, "serverless: invocations lost")
    need(serverless["completed"] <= serverless["invocations"],
         "serverless: more completions than invocations")
    scheduling = result["scheduling"]["summary"]
    need(scheduling["completed"] == 480 and scheduling["lost"] == 0,
         f"scheduling: {scheduling['completed']}/480 completed, "
         f"{scheduling['lost']} lost")
    p2p = result["p2p"]["summary"]
    need(p2p["completed"] <= p2p["peers"], "p2p: completed > peers")
    graph = result["graphalytics"]["summary"]
    need(graph["makespan_s"] >= 2000 * 5.0,
         "graphalytics: makespan shorter than the work")
    mmog = result["mmog"]["summary"]
    need(0.0 <= mmog["degraded_fraction"] <= 1.0,
         "mmog: degraded fraction out of [0, 1]")
    autoscaling = result["autoscaling"]["summary"]
    need(autoscaling["workflows"] == _AUTOSCALING_WORKFLOWS,
         "autoscaling: workflows lost")
    recovery = result["recovery"]["summary"]
    need(recovery["makespan_s"] >= recovery["work_s"],
         "recovery: makespan shorter than the work")
    for name, entry in result.items():
        need(entry["spans"] > 0, f"{name}: no spans recorded")
        need(entry["open_spans"] == 0,
             f"{name}: {entry['open_spans']} span(s) left open")
    return problems + _ledger(seen)


WORKLOADS = {w.name: w for w in (
    Workload("partition-x16", _partition_inputs, _partition_run,
             _world_check("partition"), trace_units=2),
    Workload("failover-x1", _failover_inputs, _failover_run,
             _world_check("failover"), trace_units=12),
    Workload("campaign", _campaign_inputs, _campaign_run, _campaign_check,
             trace_units=2),
    Workload("domains-traced", _domains_inputs, _domains_run,
             _domains_check, trace_units=2, plantable=False),
)}
