"""The traced run: per-layer counts and self times.

A traced repetition runs the workload with every wrapper of
:mod:`tracing` installed.  Before it, the same seed runs untraced: one
warm-up (lazy imports, cold caches), then :data:`REFERENCE_RUNS` reference
runs.  The traced run must reproduce the reference's outputs exactly
(per-flow received counts, latency histogram, drop report, kernel stats;
byte-identical rows for the sweep), and ``trace.overhead_ratio`` is the
median traced host CPU time over the median reference CPU time.
Repetitions continue until ``--seconds`` have passed (at least two), every
count must repeat exactly across them, every :data:`tracing.LAYERS` entry
must have been patched, and each self time is the median over them.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, List, Tuple

from tracing import SpanTracer, installed
from workloads import ScenarioWorkload, SweepWorkload, cpu_seconds

__all__ = ["PER_LAYER_UNITS", "measure_traced"]

#: Untraced reference runs after the warm-up; their median CPU time is the
#: denominator of ``trace.overhead_ratio``.
REFERENCE_RUNS = 3

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events_fired": "count",
    "sim.events_per_hop": "count/hop",
    "sim.calendar_high_water": "count",
    "sim.self_s": "s",
    "egress.kick_per_hop": "count/hop",
    "egress.select_per_hop": "count/hop",
    "egress.head_per_hop": "count/hop",
    "egress.useful_kick_ratio": "ratio",
    "egress.self_s": "s",
    "gates.window_queries_per_hop": "count/hop",
    "gates.select_enqueue_calls": "count",
    "gates.self_s": "s",
    "obs.perturbed_events": "count",
    "obs.self_s": "s",
    "ingress.process_calls": "count",
    "ingress.self_s": "s",
    "ingress.policer_drops": "count",
    "switch.receive_calls": "count",
    "switch.self_s": "s",
    "bufferpool.allocate_calls": "count",
    "timesync.sync_rounds": "count",
    "timesync.self_s": "s",
    "timesync.max_offset_ns": "ns",
    "link.deliver_calls": "count",
    "link.self_s": "s",
    "host.self_s": "s",
    "analyzer.self_s": "s",
    "sched.plan_calls_per_run": "count",
    "sched.plan_s": "s",
    "sizing.derive_s": "s",
    "bram.report_s": "s",
    "testbed.build_s": "s",
    "campaign.worker_busy_ratio": "ratio",
    "campaign.row_wall_s_p50": "s",
    "campaign.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Gate Ctrl functions that answer "is / when is this gate open".
WINDOW_QUERIES = (
    "GateEngine.time_until_out_close",
    "GateEngine.next_out_open_window",
    "GateEngine.in_open",
    "GateEngine.out_open",
)

#: Self-time metrics: metric -> span names whose self time it sums.
SELF_TIME_SPANS = {
    "sched.plan_s": ("repro.sched.plan_flows", "repro.network.testbed.plan_flows"),
    "sizing.derive_s": ("repro.network.scenario.derive_config",),
    "bram.report_s": ("SwitchConfig.resource_report",),
    "testbed.build_s": ("ScenarioSpec.build_testbed", "Testbed.build"),
    "campaign.overhead_s": ("Campaign.run", "repro.campaign.runner.execute_run"),
}

#: Self-time metrics that sum a whole layer of :data:`tracing.LAYERS`.
LAYER_SELF_TIMES = {
    "sim.self_s": "sim",
    "egress.self_s": "egress",
    "gates.self_s": "gates",
    "obs.self_s": "obs",
    "ingress.self_s": "ingress",
    "switch.self_s": "switch",
    "timesync.self_s": "timesync",
    "link.self_s": "link",
    "host.self_s": "host",
    "analyzer.self_s": "analyzer",
}


class RunState:
    """Run state read after every traced ``Testbed.run`` (not timed)."""

    def __init__(self) -> None:
        self.fired = 0
        self.calendar_high_water = 0
        self.hops = 0
        self.transmitted = 0
        self.policer_drops = 0
        self.sync_rounds = 0
        self.max_offset_ns = 0

    def __call__(self, testbed, result) -> None:
        stats = result.sim_stats
        self.fired += stats.get("fired", 0)
        self.calendar_high_water = max(
            self.calendar_high_water, stats.get("calendar_high_water", 0)
        )
        for switch in result.switches.values():
            self.hops += switch.counters.received
            self.transmitted += switch.counters.transmitted
            self.policer_drops += switch.counters.dropped_policer
        domain = getattr(testbed, "sync_domain", None)
        if domain is not None:
            self.sync_rounds += max(
                (node.sync_count for node in domain.nodes.values()), default=0
            )
            self.max_offset_ns = max(
                self.max_offset_ns, abs(domain.max_abs_offset_ns())
            )


def _counts(tracer: SpanTracer, state: RunState) -> Dict[str, float]:
    """Deterministic per-layer counts of one traced repetition."""
    hops = max(1, state.hops)
    kicks = tracer.count("EgressPort.kick")
    builds = tracer.count("Testbed.build")
    plans = tracer.count("repro.sched.plan_flows") + tracer.count(
        "repro.network.testbed.plan_flows"
    )
    return {
        "sim.events_fired": state.fired,
        "sim.events_per_hop": state.fired / hops,
        "sim.calendar_high_water": state.calendar_high_water,
        "egress.kick_per_hop": kicks / hops,
        "egress.select_per_hop": (
            tracer.count("StrictPriorityScheduler.select") / hops
        ),
        "egress.head_per_hop": tracer.count("MetadataQueue.head") / hops,
        "egress.useful_kick_ratio": state.transmitted / max(1, kicks),
        "gates.window_queries_per_hop": (
            sum(tracer.count(name) for name in WINDOW_QUERIES) / hops
        ),
        "gates.select_enqueue_calls": tracer.count(
            "GateEngine.select_enqueue_queue"
        ),
        "ingress.process_calls": tracer.count("SwitchPipeline.process"),
        "ingress.policer_drops": state.policer_drops,
        "switch.receive_calls": tracer.count("TsnSwitch.receive"),
        "bufferpool.allocate_calls": tracer.count("BufferPool.allocate"),
        "timesync.sync_rounds": state.sync_rounds,
        "timesync.max_offset_ns": state.max_offset_ns,
        "link.deliver_calls": tracer.count("Link._carry"),
        "sched.plan_calls_per_run": plans / max(1, builds),
    }


def _self_times(tracer: SpanTracer) -> Dict[str, float]:
    by_name = tracer.self_times()
    by_layer: Dict[str, float] = {}
    for name, seconds in by_name.items():
        layer = tracer.layer_of[name]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    times = {
        metric: by_layer.get(layer, 0.0)
        for metric, layer in LAYER_SELF_TIMES.items()
    }
    for metric, names in SELF_TIME_SPANS.items():
        times[metric] = sum(by_name.get(name, 0.0) for name in names)
    return times


def _untraced(once) -> Tuple[List[Any], float]:
    """An untraced warm-up, then :data:`REFERENCE_RUNS` timed reference
    runs; every output (the warm-up's first) and the median CPU time."""
    outputs, cpus = [once()], []
    for _ in range(REFERENCE_RUNS):
        gc.collect()
        cpu0 = cpu_seconds()
        outputs.append(once())
        cpus.append(cpu_seconds() - cpu0)
    return outputs, statistics.median(cpus)


def _repeat_traced(body, tracer: SpanTracer, seconds: float):
    """Run *body* traced until *seconds* pass (at least twice).

    Returns per-repetition counts, self times, outputs and CPU times, and
    the :data:`tracing.LAYERS` entries that could not be patched.
    """
    counts, times, outputs, cpus = [], [], [], []
    started = time.perf_counter()
    with installed(tracer) as missing:
        while len(counts) < 2 or time.perf_counter() - started < seconds:
            tracer.reset()
            gc.collect()
            state = RunState()
            tracer.on_run = state
            cpu0 = cpu_seconds()
            outputs.append(body())
            cpus.append(cpu_seconds() - cpu0)
            counts.append(_counts(tracer, state))
            times.append(_self_times(tracer))
            counts[-1]["_hops"] = state.hops
    return counts, times, outputs, cpus, missing


def _scenario_traced(workload: ScenarioWorkload, seed: int, seconds: float,
                     scale: str) -> Dict[str, Any]:
    def once(observed=None):
        spec, testbed = workload.setup(seed, scale, observed=observed)
        hops = workload.path_hops(testbed)
        result = workload.run(spec, testbed, hops)
        attempted, failed = workload.check(result, spec.slot_ns, hops)
        return {
            "digest": workload.digest(result),
            "attempted": attempted,
            "failed": failed,
        }

    runs, reference_cpu = _untraced(once)
    reference = runs[0]
    perturbed = 0
    if workload.observed:
        bare = once(observed=False)
        runs.append(bare)
        perturbed = (
            reference["digest"]["sim_stats"]["fired"]
            - bare["digest"]["sim_stats"]["fired"]
        )
    tracer = SpanTracer()
    counts, times, outputs, cpus, missing = _repeat_traced(
        once, tracer, seconds
    )
    checks = {
        "untraced_runs_agree": all(
            run["digest"] == reference["digest"]
            for run in runs[:1 + REFERENCE_RUNS]
        ),
        "traced_matches_untraced": all(
            out["digest"] == reference["digest"] for out in outputs
        ),
    }
    runs += outputs
    extra = {
        "obs.perturbed_events": perturbed,
        "campaign.worker_busy_ratio": 0.0,
        "campaign.row_wall_s_p50": 0.0,
    }
    return _assemble(counts, times, cpus, reference_cpu, extra, checks,
                     missing,
                     attempted=sum(r["attempted"] for r in runs),
                     failed=sum(r["failed"] for r in runs))


def _sweep_traced(workload: SweepWorkload, seed: int, seconds: float,
                  scale: str) -> Dict[str, Any]:
    spec, _ = workload.setup(seed, scale)
    wall0 = time.perf_counter()
    campaign, pooled = workload.run(spec, workload.workers)
    pooled_wall = time.perf_counter() - wall0
    row_walls = [t["wall_s"] for t in campaign.telemetry]

    def once():
        # Inline (workers=1) so every span is recorded in this process.
        return workload.run(spec, 1)[1]

    # The overhead reference runs inline too, so the ratio compares the
    # same execution with and without wrappers.
    references, reference_cpu = _untraced(once)
    tracer = SpanTracer()
    counts, times, outputs, cpus, missing = _repeat_traced(
        once, tracer, seconds
    )
    pooled_bytes = workload.rows_bytes(pooled)
    checks = {
        "inline_rows_match_pool": all(
            workload.rows_bytes(rows) == pooled_bytes for rows in references
        ),
        "traced_rows_identical": all(
            workload.rows_bytes(rows) == pooled_bytes for rows in outputs
        ),
        "hop_count_exact": all(
            c["_hops"] == workload.hops_of(rows)
            for c, rows in zip(counts, outputs)
        ),
    }
    extra = {
        "obs.perturbed_events": 0,
        "campaign.worker_busy_ratio": (
            sum(row_walls) / (workload.workers * pooled_wall)
        ),
        "campaign.row_wall_s_p50": statistics.median(row_walls),
    }
    runs = [pooled] + references + outputs
    return _assemble(
        counts, times, cpus, reference_cpu, extra, checks, missing,
        attempted=sum(len(rows) for rows in runs),
        failed=sum(
            1 for rows in runs for row in rows if not workload.row_ok(row)
        ),
    )


def _assemble(counts, times, cpus, reference_cpu, extra, checks, missing,
              attempted: int, failed: int) -> Dict[str, Any]:
    checks["counts_repeat_exactly"] = all(c == counts[0] for c in counts)
    checks["every_layer_patched"] = not missing
    metrics: Dict[str, float] = {}
    metrics.update({k: v for k, v in counts[0].items() if not k.startswith("_")})
    for metric in times[0]:
        metrics[metric] = statistics.median(t[metric] for t in times)
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = statistics.median(cpus) / reference_cpu
    ordered = {name: metrics[name] for name in PER_LAYER_UNITS}
    return {
        "attempted": attempted,
        "failed": failed,
        "iterations": len(counts),
        "checks": checks,
        "unpatched": missing,
        "correct": failed == 0 and all(checks.values()),
        "metrics": ordered,
    }


def measure_traced(workload, seed: int, seconds: float,
                   scale: str = "full") -> Dict[str, Any]:
    """Per-layer metrics of *workload* from its traced run."""
    if isinstance(workload, SweepWorkload):
        return _sweep_traced(workload, seed, seconds, scale)
    return _scenario_traced(workload, seed, seconds, scale)
