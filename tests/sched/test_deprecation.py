"""The legacy ``ItpPlan`` view that sizing and the testbed still consume."""

from repro.core.units import ms
from repro.cqf.itp import ItpPlan
from repro.cqf.schedule import CqfSchedule
from repro.sched import SchedulingProblem, make_scheduler
from repro.traffic.flows import FlowSpec, TrafficClass

SCHEDULE = CqfSchedule(62_500, ms(10))


def _ts_flows(count):
    return [
        FlowSpec(i, TrafficClass.TS, "t", "l", 64, period_ns=ms(10))
        for i in range(count)
    ]


class TestLoadBalanceRatio:
    def test_empty_plan_is_level(self):
        plan = ItpPlan(SCHEDULE, slot_frames=[], slot_bytes=[])
        assert plan.load_balance_ratio() == 1.0

    def test_zero_ts_load_is_level(self):
        plan = ItpPlan(SCHEDULE, slot_frames=[0, 0, 0], slot_bytes=[0, 0, 0])
        assert plan.load_balance_ratio() == 1.0

    def test_sched_plan_matches_itp_semantics(self):
        flows = _ts_flows(160)
        problem = SchedulingProblem.from_flows(flows, SCHEDULE, 10**9)
        plan = make_scheduler("greedy").solve(problem)
        assert plan.load_balance_ratio() == 1.0
        assert plan.to_itp_plan().load_balance_ratio() == 1.0
