"""The benchmark's workloads, their untraced measurement and output checks.

Every workload is driven only through the program's public entry points:
``ScenarioSpec`` -> ``build_testbed`` -> ``Testbed.run(duration_ns,
drain_slots=...)`` for the two dataplane workloads, and ``SweepSpec`` ->
``Campaign.run`` for the design-space sweep.  Set-up and run are timed from
outside.  All load is generated inside this one process (the sweep's pool
workers are the program's own ``Campaign`` workers, at most ``nproc``).

Why each workload exists is written down in ``NOTES.md``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Campaign, ScenarioSpec, SweepSpec, TrafficClass
from repro.core.presets import (
    bcm53154_config,
    linear_config,
    ring_config,
    star_config,
)
from repro.cqf.bounds import cqf_bounds

__all__ = [
    "WORKLOADS",
    "check_table3",
    "measure",
    "ScenarioWorkload",
    "SweepWorkload",
]

#: Paper Table III totals (Kb) and the ring's headline reduction.
TABLE3_KB = {"commercial": 10818, "star": 5778, "linear": 3942, "ring": 2106}
TABLE3_RING_REDUCTION = 0.8053

#: Timed iterations a run always makes, however short ``--seconds`` is.
MIN_TIMED_ITERATIONS = 3

#: Set-ups per iteration; ``setup_s`` is their median.  One set-up takes
#: tens of milliseconds, so a single sample follows the machine's load.
SETUPS_PER_ITERATION = 5


def check_table3() -> bool:
    """The BRAM model reproduces Table III exactly (zero error)."""
    commercial = bcm53154_config().resource_report()
    totals = {
        "commercial": commercial.total_kb,
        "star": star_config().resource_report().total_kb,
        "linear": linear_config().resource_report().total_kb,
        "ring": ring_config().resource_report().total_kb,
    }
    reduction = ring_config().resource_report().reduction_vs(commercial)
    return totals == TABLE3_KB and round(reduction, 4) == TABLE3_RING_REDUCTION


def cpu_seconds() -> float:
    """CPU time of this process plus every reaped child process."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_setups(setup: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run *setup* :data:`SETUPS_PER_ITERATION` times, collecting garbage
    (the previous set-up's included) before each; the last set-up's result
    and the median wall and CPU seconds of one set-up."""
    walls, cpus, built = [], [], None
    for _ in range(SETUPS_PER_ITERATION):
        built = None  # drop the previous set-up before collecting
        gc.collect()
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        built = setup()
        walls.append(time.perf_counter() - wall0)
        cpus.append(cpu_seconds() - cpu0)
    return built, statistics.median(walls), statistics.median(cpus)


def percentile(ordered: List[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list (as ``LatencySummary``)."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


# --------------------------------------------------------------- scenarios


class ScenarioWorkload:
    """One scenario document, built and run once per iteration."""

    def __init__(
        self,
        document: Callable[[int, str], Dict[str, Any]],
        observed: bool = False,
    ) -> None:
        self.document = document
        #: Attach a MetricsRegistry and a HeadroomRecorder, as
        #: ``repro simulate --metrics --headroom`` does.
        self.observed = observed

    def setup(self, seed: int, scale: str, observed: Optional[bool] = None):
        """Document -> built testbed.  This is what ``setup_s`` times."""
        from repro.obs.headroom import HeadroomRecorder
        from repro.obs.metrics import MetricsRegistry

        spec = ScenarioSpec.from_dict(self.document(seed, scale))
        attach = self.observed if observed is None else observed
        observers = (
            {"metrics": MetricsRegistry(), "headroom": HeadroomRecorder()}
            if attach else {}
        )
        testbed = spec.build_testbed(**observers)
        testbed.build()
        return spec, testbed

    @staticmethod
    def path_hops(testbed) -> Dict[int, int]:
        """Switches each TS flow traverses, keyed by flow id."""
        by_pair: Dict[Tuple[str, str], int] = {}
        hops = {}
        for flow in testbed.flows.ts_flows:
            pair = (flow.src, flow.dst)
            if pair not in by_pair:
                by_pair[pair] = testbed.topology.hops(*pair)
            hops[flow.flow_id] = by_pair[pair]
        return hops

    def run(self, spec, testbed, hops: Dict[int, int]):
        """Inject for the scenario's duration, then drain the longest path.

        Eq 1 puts the last TS frame at most ``hops + 1`` slots after its
        injection slot, so ``hops + 2`` drain slots leave nothing in
        flight; a fixed drain would count in-flight frames as lost.
        """
        drain = max(hops.values()) + 2
        return testbed.run(spec.duration_ns, drain_slots=drain)

    @staticmethod
    def check(result, slot_ns: int, hops: Dict[int, int]) -> Tuple[int, int]:
        """``(attempted, failed)`` TS frames: lost, duplicated or outside
        the Eq 1 window ``cqf_bounds(hops, slot_ns)`` of their flow."""
        attempted = failed = 0
        for flow in result.flows.ts_flows:
            expected = result.expected_by_flow.get(flow.flow_id, 0)
            latencies = result.analyzer.records[flow.flow_id].latencies_ns
            bounds = cqf_bounds(hops[flow.flow_id], slot_ns)
            attempted += expected
            failed += abs(expected - len(latencies))
            failed += sum(1 for x in latencies if not bounds.contains(x))
        return attempted, failed

    @staticmethod
    def hops_of(result) -> int:
        """Switch receptions: one per frame per switch it entered."""
        return sum(s.counters.received for s in result.switches.values())

    @staticmethod
    def ts_latencies(result) -> List[int]:
        return sorted(result.analyzer.class_latencies(TrafficClass.TS))

    def iterate(self, seed: int, scale: str) -> Dict[str, Any]:
        """One untraced document -> result iteration, timed from outside.

        The last of the set-ups is run; a row's cost is the median set-up
        plus the run.
        """
        (spec, testbed), setup_wall, setup_cpu = timed_setups(
            lambda: self.setup(seed, scale)
        )
        hops = self.path_hops(testbed)
        wall2, cpu2 = time.perf_counter(), cpu_seconds()
        result = self.run(spec, testbed, hops)
        wall3, cpu3 = time.perf_counter(), cpu_seconds()
        attempted, failed = self.check(result, spec.slot_ns, hops)
        switch_hops = self.hops_of(result)
        return {
            "setup_s": setup_wall,
            "run_wall_s": wall3 - wall2,
            "run_cpu_s": cpu3 - cpu2,
            "row_wall_s": setup_wall + (wall3 - wall2),
            "row_cpu_s": setup_cpu + (cpu3 - cpu2),
            "rows": 1,
            "hops": switch_hops,
            "attempted": attempted,
            "failed": failed,
            "latencies": self.ts_latencies(result),
            "bram_kb": testbed.base_config.total_bram_kb,
            "backend": getattr(testbed.sim, "backend", "py"),
        }

    @staticmethod
    def digest(result) -> Dict[str, Any]:
        """What a traced run must reproduce exactly."""
        return {
            "received": {
                fid: record.received
                for fid, record in sorted(result.analyzer.records.items())
            },
            "latency_histogram": sorted(
                _histogram(
                    x for record in result.analyzer.records.values()
                    for x in record.latencies_ns
                ).items()
            ),
            "drop_report": result.drop_report(),
            "sim_stats": dict(result.sim_stats),
        }


def _histogram(values) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return counts


def ring64_document(seed: int, scale: str = "full") -> Dict[str, Any]:
    """64-switch ring, 2 talkers x 32 TS flows at 1 ms, gPTP on.

    Talkers inject at a seeded phase inside their planned CQF slot
    (``injection_phase: uniform``) and switch clocks drift by a seeded
    amount up to 5 ppm, so the seed moves latencies and the time-sync
    servo's work while the frame and hop counts stay fixed.
    """
    smoke = scale == "smoke"
    return {
        "name": "ring64_ts",
        "topology": {
            "kind": "ring",
            "switch_count": 8 if smoke else 64,
            "talkers": ["talker0", "talker1"],
            "listener": "listener",
        },
        "flows": {"ts_count": 64, "period_us": 1000, "size_bytes": 64},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 2 if smoke else 20,
        "seed": seed,
        "injection_phase": "uniform",
        "enable_gptp": True,
        "gptp_warmup_ns": 40_000_000,
        "clock_drift_ppm": 5.0,
    }


def star_document(seed: int, scale: str = "full") -> Dict[str, Any]:
    """4-switch star, 2 talkers, 128 TS flows at 10 ms + 100 Mbps RC/BE."""
    return {
        "name": "star_mixed_obs",
        "topology": {
            "kind": "star",
            "child_count": 3,
            "talkers": ["talker0", "talker1"],
            "listener": "listener",
        },
        "flows": {
            "ts_count": 128,
            "period_us": 10_000,
            "size_bytes": 64,
            "rc_mbps": 100,
            "be_mbps": 100,
        },
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 20 if scale == "smoke" else 120,
        "seed": seed,
        "injection_phase": "uniform",
    }


# ------------------------------------------------------------------- sweep


class SweepWorkload:
    """A ``Campaign`` over a grid of scheduler backends, shapers, slots."""

    #: Switches every flow of the swept ring traverses.
    RING_SWITCHES = 3

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def document(self, seed: int, scale: str = "full") -> Dict[str, Any]:
        smoke = scale == "smoke"
        grid: Dict[str, List[Any]] = {
            "sched.backend": ["greedy", "exact", "anneal"],
            "sched.shaper": ["cqf", "csqf", "multi_cqf"],
            "slot_us": [62.5, 125],
        }
        if smoke:
            grid = {"sched.backend": ["greedy", "exact"]}
        return {
            "name": "sweep_design",
            "base": {
                "name": "design-point",
                "topology": {
                    "kind": "ring",
                    "switch_count": self.RING_SWITCHES,
                    "talkers": ["talker0", "talker1"],
                    "listener": "listener",
                },
                "flows": {
                    "groups": [
                        {"ts_count": 24, "period_us": 1000, "size_bytes": 64},
                        {"ts_count": 12, "period_us": 2000, "size_bytes": 256},
                        {"ts_count": 8, "period_us": 4000, "size_bytes": 512},
                    ],
                    "rc_mbps": 50,
                    "be_mbps": 50,
                },
                "config": "derive",
                "slot_us": 62.5,
                "duration_ms": 2 if smoke else 8,
                "seed": seed,
                "injection_phase": "uniform",
                "sched": {"backend": "greedy", "shaper": "cqf"},
            },
            "grid": grid,
        }

    def setup(self, seed: int, scale: str):
        """Document -> expanded campaign.  This is what ``setup_s`` times."""
        spec = SweepSpec.from_dict(self.document(seed, scale))
        runs = spec.expand()
        return spec, runs

    def run(self, spec, workers: int) -> Tuple[Campaign, List[Dict[str, Any]]]:
        campaign = Campaign(spec, workers=workers)
        campaign.run()
        return campaign, sorted(campaign.rows, key=lambda row: row["index"])

    @staticmethod
    def row_ok(row: Dict[str, Any]) -> bool:
        return row.get("status") == "ok" and bool(row.get("qos_ok"))

    def hops_of(self, rows: List[Dict[str, Any]]) -> int:
        """Delivered frames times the ring's switch count.

        Every flow of the swept ring crosses all its switches, so this is
        the switch-reception count whenever nothing is dropped on the way;
        the traced run asserts that it equals the counted receptions.
        """
        delivered = sum(
            digest.get("received", 0)
            for row in rows
            for digest in row.get("classes", {}).values()
        )
        return delivered * self.RING_SWITCHES

    @staticmethod
    def rows_bytes(rows: List[Dict[str, Any]]) -> str:
        return "\n".join(json.dumps(row, sort_keys=True) for row in rows)

    def iterate(self, seed: int, scale: str) -> Dict[str, Any]:
        (spec, runs), setup_wall, _ = timed_setups(
            lambda: self.setup(seed, scale)
        )
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        campaign, rows = self.run(spec, self.workers)
        wall1, cpu1 = time.perf_counter(), cpu_seconds()
        failed = sum(1 for row in rows if not self.row_ok(row))
        return {
            "setup_s": setup_wall,
            "run_wall_s": wall1 - wall0,
            "run_cpu_s": cpu1 - cpu0,
            "row_wall_s": wall1 - wall0,
            "row_cpu_s": cpu1 - cpu0,
            "rows": len(rows),
            "hops": self.hops_of(rows),
            "attempted": len(rows),
            "failed": failed,
            "rows_list": rows,
            "runs": runs,
        }

    @staticmethod
    def design_point(rows: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        """The cheapest QoS-ok row (lowest index on a BRAM tie)."""
        good = [row for row in rows if SweepWorkload.row_ok(row)]
        return min(good, key=lambda r: (r["bram_kb"], r["index"]), default=None)

    @staticmethod
    def rerun_design_point(runs, row) -> Tuple[List[int], bool]:
        """Re-run the chosen point inline; its TS latencies, and whether
        the re-run reproduces the campaign row's TS digest."""
        scenario = runs[row["index"]].scenario
        spec = ScenarioSpec.from_dict(scenario, strict=False)
        result = spec.build_testbed().run(duration_ns=spec.duration_ns)
        latencies = sorted(result.analyzer.class_latencies(TrafficClass.TS))
        ts = result.analyzer.class_digest(result.expected_by_flow)["TS"]
        return latencies, ts == row["classes"]["TS"]


WORKLOADS = {
    "ring64_ts": lambda workers: ScenarioWorkload(ring64_document),
    "star_mixed_obs": lambda workers: ScenarioWorkload(
        star_document, observed=True
    ),
    "sweep_design": SweepWorkload,
}


# ---------------------------------------------------------------- measure


def iterate_collected(workload, seed: int, scale: str) -> Dict[str, Any]:
    """One iteration, after collecting the previous one's garbage.

    A single simulation per process never pays for collecting an earlier
    testbed; without this, that cost lands at random in later set-ups and
    runs and doubles their spread.
    """
    gc.collect()
    return workload.iterate(seed, scale)


def measure(
    workload, seed: int, seconds: float, scale: str = "full"
) -> Dict[str, Any]:
    """Untraced end-to-end measurement.

    One warm-up iteration (checked, not timed), then timed iterations until
    *seconds* have passed and at least :data:`MIN_TIMED_ITERATIONS` ran.
    Every timing metric is the median over the timed iterations.
    """
    iterations = [iterate_collected(workload, seed, scale)]
    started = time.perf_counter()
    while (
        len(iterations) <= MIN_TIMED_ITERATIONS
        or time.perf_counter() - started < seconds
    ):
        iterations.append(iterate_collected(workload, seed, scale))
    timed = iterations[1:]

    def median(key: Callable[[Dict[str, Any]], float]) -> float:
        return statistics.median(key(it) for it in timed)

    last = iterations[-1]
    outcome = {
        "attempted": sum(it["attempted"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "iterations": len(timed),
        "backends": sorted({it.get("backend", "py") for it in iterations}),
    }
    if isinstance(workload, SweepWorkload):
        row = workload.design_point(last["rows_list"])
        if row is None:
            latencies, reproduced, bram = [], False, 0.0
        else:
            latencies, reproduced = workload.rerun_design_point(
                last["runs"], row
            )
            bram = row["bram_kb"]
        outcome["design_point"] = None if row is None else row["params"]
        outcome["design_point_reproduced"] = reproduced
    else:
        latencies, reproduced, bram = last["latencies"], True, last["bram_kb"]
    outcome["ts_latency_samples"] = len(latencies)
    metrics = {
        "setup_s": median(lambda it: it["setup_s"]),
        "hops_per_s": median(lambda it: it["hops"] / it["run_wall_s"]),
        "cpu_us_per_hop": median(lambda it: it["run_cpu_s"] / it["hops"]) * 1e6,
        "rows_per_s": median(lambda it: it["rows"] / it["row_wall_s"]),
        "cpu_ms_per_row": median(lambda it: it["row_cpu_s"] / it["rows"]) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "ts_latency_p50_us": (
            percentile(latencies, 0.50) / 1e3 if latencies else 0.0
        ),
        "ts_latency_p99_us": (
            percentile(latencies, 0.99) / 1e3 if latencies else 0.0
        ),
        "bram_kb": bram,
    }
    outcome["failed_ratio"] = outcome["failed"] / max(1, outcome["attempted"])
    outcome["correct"] = (
        outcome["failed"] == 0 and reproduced and bool(latencies)
        and outcome["backends"] == ["py"]
    )
    outcome["metrics"] = metrics
    return outcome


def default_workers() -> int:
    """Campaign workers: two, or fewer on a smaller machine."""
    return max(1, min(2, os.cpu_count() or 1))
