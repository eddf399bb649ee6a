"""Strict-priority arbitration with gates and CBS."""

from hypothesis import given, settings, strategies as st

from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator
from repro.switch.gates import GateEngine
from repro.switch.packet import Descriptor, EthernetFrame, make_mac
from repro.switch.queueing import MetadataQueue
from repro.switch.scheduler import (
    DeficitRoundRobinScheduler,
    SchedulerDecision,
    StrictPriorityScheduler,
)
from repro.switch.shaper import CreditBasedShaper
from repro.switch.tables import CbsParams, GateControlList, GateEntry

GBPS = 10**9


def _ser(nbytes):
    return nbytes * 8  # 1 Gbps


def _queues(count=8, depth=16):
    return [MetadataQueue(depth, q) for q in range(count)]


def _mask(queues):
    """The port's non-empty mask for *queues*."""
    return sum(1 << q.queue_id for q in queues if not q.empty)


def _select(scheduler, now, queues, gates):
    return scheduler.select(now, queues, gates, _ser, _mask(queues))


def _gates(sim, in_entries=None, out_entries=None):
    in_gcl = GateControlList(2)
    out_gcl = GateControlList(2)
    in_gcl.program(in_entries or [GateEntry(0xFF, 1000)])
    out_gcl.program(out_entries or [GateEntry(0xFF, 1000)])
    engine = GateEngine(sim, in_gcl, out_gcl)
    engine.start()
    return engine


def _load(queue, size=64):
    frame = EthernetFrame(make_mac(1), make_mac(2), 1, 7, size)
    queue.enqueue(Descriptor(frame, buffer_slot=0, enqueued_ns=0,
                             queue_id=queue.queue_id))


class TestPriority:
    def test_highest_backlogged_queue_wins(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[2])
        _load(queues[5])
        decision = _select(StrictPriorityScheduler(), 0, queues, _gates(sim))
        assert decision.queue_id == 5

    def test_idle_when_all_empty(self):
        sim = Simulator()
        decision = _select(
            StrictPriorityScheduler(), 0, _queues(), _gates(sim)
        )
        assert decision.idle and decision.retry_delay_ns is None


class TestGating:
    def test_closed_gate_skipped(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[7])
        _load(queues[0])
        gates = _gates(sim, out_entries=[GateEntry(0x7F, 1000)])  # 7 closed
        decision = _select(StrictPriorityScheduler(), 0, queues, gates)
        assert decision.queue_id == 0

    def test_guard_band_blocks_overrunning_frame(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[7], size=1500)  # 12 us serialization
        _load(queues[0], size=64)
        # queue 7 open for only 1 us windows
        gates = _gates(
            sim,
            out_entries=[GateEntry(0xFF, 1_000), GateEntry(0x7F, 1_000)],
        )
        decision = _select(StrictPriorityScheduler(), 0, queues, gates)
        # 1500B doesn't fit the 1us window; falls through to queue 0
        assert decision.queue_id == 0

    def test_guard_band_admits_fitting_frame(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[7], size=64)  # 512 ns fits the 1 us window
        gates = _gates(
            sim,
            out_entries=[GateEntry(0xFF, 1_000), GateEntry(0x7F, 1_000)],
        )
        decision = _select(StrictPriorityScheduler(), 0, queues, gates)
        assert decision.queue_id == 7


class TestCbsIntegration:
    def _scheduler_with_negative_credit(self):
        shaper = CreditBasedShaper(CbsParams.for_reservation(10**8, GBPS))
        shaper.set_backlog(0, True)
        shaper.begin_transmission(0)
        shaper.end_transmission(12_000, has_backlog=True)  # deep negative
        return StrictPriorityScheduler({5: shaper}), shaper

    def test_ineligible_shaped_queue_skipped_with_hint(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[5])
        scheduler, shaper = self._scheduler_with_negative_credit()
        decision = _select(scheduler, 12_000, queues, _gates(sim))
        assert decision.idle
        assert decision.retry_delay_ns == shaper.ns_until_eligible(12_000)

    def test_lower_priority_takes_over_when_shaped_blocked(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[5])
        _load(queues[1])
        scheduler, _ = self._scheduler_with_negative_credit()
        decision = _select(scheduler, 12_000, queues, _gates(sim))
        assert decision.queue_id == 1

    def test_eligible_shaped_queue_selected(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[5])
        shaper = CreditBasedShaper(CbsParams.for_reservation(10**8, GBPS))
        decision = _select(
            StrictPriorityScheduler({5: shaper}), 0, queues, _gates(sim)
        )
        assert decision.queue_id == 5


class TestDeficitRoundRobin:
    def _drr(self, weights=None, **kwargs):
        from repro.switch.scheduler import DeficitRoundRobinScheduler

        return DeficitRoundRobinScheduler(weights=weights, **kwargs)

    def test_priority_queues_still_win(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[7])
        _load(queues[0])
        decision = _select(self._drr(), 0, queues, _gates(sim))
        assert decision.queue_id == 7

    def test_round_robin_alternates_below_floor(self):
        sim = Simulator()
        queues = _queues()
        gates = _gates(sim)
        drr = self._drr()
        for _ in range(4):
            _load(queues[0])
            _load(queues[1])
        served = []
        for _ in range(8):
            decision = _select(drr, 0, queues, gates)
            served.append(decision.queue_id)
            next(q for q in queues if q.queue_id == decision.queue_id).dequeue()
        # fair alternation rather than strict-priority starvation of queue 0
        assert served.count(0) == served.count(1) == 4

    def test_weights_bias_service(self):
        sim = Simulator()
        queues = _queues(depth=64)
        gates = _gates(sim)
        drr = self._drr(weights={1: 3, 0: 1}, quantum_bytes=64)
        for _ in range(40):
            _load(queues[0], size=64)
            _load(queues[1], size=64)
        served = []
        for _ in range(40):
            decision = _select(drr, 0, queues, gates)
            served.append(decision.queue_id)
            next(q for q in queues if q.queue_id == decision.queue_id).dequeue()
        # 3:1 weighting -> queue 1 gets 3x the service
        assert served.count(1) == 30 and served.count(0) == 10

    def test_work_conserving_with_large_frames(self):
        """A frame bigger than one quantum must still be served (no stall)."""
        sim = Simulator()
        queues = _queues()
        _load(queues[2], size=1500)
        drr = self._drr(quantum_bytes=64)
        decision = _select(drr, 0, queues, _gates(sim))
        assert decision.queue_id == 2

    def test_idle_when_everything_empty(self):
        sim = Simulator()
        decision = _select(self._drr(), 0, _queues(), _gates(sim))
        assert decision.idle

    def test_gate_respected_below_floor(self):
        sim = Simulator()
        queues = _queues()
        _load(queues[0])
        gates = _gates(sim, out_entries=[GateEntry(0xFE, 1000)])  # 0 closed
        decision = _select(self._drr(), 0, queues, gates)
        assert decision.idle

    def test_strict_priority_unaffected_by_base_refactor(self):
        """StrictPriorityScheduler (now a subclass) behaves as before."""
        sim = Simulator()
        queues = _queues()
        _load(queues[3])
        _load(queues[6])
        decision = _select(StrictPriorityScheduler(), 0, queues, _gates(sim))
        assert decision.queue_id == 6


# ------------------------------------------------- mask walk == full scan


def _reference_eligible(scheduler, now_ns, queue, gates, head):
    """The three eligibility checks, as the full-scan arbiter ran them."""
    serialization = _ser(head.size_bytes)
    window = gates.time_until_out_close(queue.queue_id)
    if window is not None and serialization > window:
        if gates.needs_wake_hints:
            wait = gates.next_out_open_window(queue.queue_id, serialization)
            if wait is not None and (
                scheduler["wake"] is None or wait < scheduler["wake"]
            ):
                scheduler["wake"] = wait
        return False
    shaper = scheduler["shapers"].get(queue.queue_id)
    if shaper is not None and not shaper.eligible(now_ns):
        wait = shaper.ns_until_eligible(now_ns)
        if wait is not None and (
            scheduler["retry"] is None or wait < scheduler["retry"]
        ):
            scheduler["retry"] = wait
        return False
    return True


def _reference_select(shapers, now_ns, queues, gates):
    """Strict priority by peeking every queue head, highest id first."""
    state = {"shapers": shapers, "retry": None, "wake": None}
    for queue in sorted(queues, key=lambda q: q.queue_id, reverse=True):
        head = queue.head()
        if head is None:
            continue
        if _reference_eligible(state, now_ns, queue, gates, head):
            return SchedulerDecision(queue.queue_id)
    return SchedulerDecision(
        None, retry_delay_ns=state["retry"], gate_wake_delay_ns=state["wake"]
    )


def _reference_drr(drr, state, now_ns, queues, gates):
    """DRR by peeking every queue head; *state* holds deficits/rotation."""
    ref = {"shapers": drr.shapers, "retry": None, "wake": None}
    ordered = sorted(queues, key=lambda q: q.queue_id, reverse=True)
    for queue in ordered:
        if queue.queue_id < drr.priority_floor:
            continue
        head = queue.head()
        if head is not None and _reference_eligible(
            ref, now_ns, queue, gates, head
        ):
            return SchedulerDecision(queue.queue_id)
    drr_queues = [q for q in ordered if q.queue_id < drr.priority_floor]
    count = len(drr_queues)
    candidates = []
    for step in range(count):
        queue = drr_queues[(state["rotation"] + step) % count]
        head = queue.head()
        if head is None or not _reference_eligible(
            ref, now_ns, queue, gates, head
        ):
            continue
        deficit = state["deficits"].get(queue.queue_id, 0)
        need = head.size_bytes - deficit
        per_round = drr.quantum_bytes * drr._weight(queue.queue_id)
        rounds = 0 if need <= 0 else -(-need // per_round)
        candidates.append((rounds, step, queue, head))
    if not candidates:
        return SchedulerDecision(
            None, retry_delay_ns=ref["retry"], gate_wake_delay_ns=ref["wake"]
        )
    rounds_won, step_won, winner, head = min(
        candidates, key=lambda c: (c[0], c[1])
    )
    deficits = state["deficits"]
    if rounds_won:
        for _, _, queue, _ in candidates:
            deficits[queue.queue_id] = (
                deficits.get(queue.queue_id, 0)
                + rounds_won * drr.quantum_bytes * drr._weight(queue.queue_id)
            )
    deficits[winner.queue_id] = (
        deficits.get(winner.queue_id, 0) - head.size_bytes
    )
    state["rotation"] = (state["rotation"] + step_won + 1) % count
    return SchedulerDecision(winner.queue_id)


def _decision_tuple(decision):
    return (
        decision.queue_id,
        decision.retry_delay_ns,
        decision.gate_wake_delay_ns,
    )


_OCCUPANCY = st.lists(
    st.lists(st.integers(64, 1522), max_size=3), min_size=8, max_size=8
)
_OUT_GCL = st.lists(
    st.tuples(st.integers(0, 0xFF), st.integers(200, 20_000)),
    min_size=1,
    max_size=4,
)
#: queue id -> (reserved Mbps, percent of the first instant spent sending)
_SHAPED = st.dictionaries(
    st.integers(0, 7),
    st.tuples(st.integers(1, 999), st.integers(0, 100)),
    max_size=3,
)
_INSTANTS = st.lists(st.integers(0, 30_000), min_size=1, max_size=4)


def _arbitration_setup(occupancy, out_gcl, mode, drift_ppm, shaped,
                       first_instant):
    sim = Simulator()
    clock = LocalClock(sim, drift_ppm=drift_ppm)
    in_gcl, out = GateControlList(1), GateControlList(len(out_gcl))
    in_gcl.program([GateEntry(0xFF, 1000)])
    out.program([GateEntry(mask, interval) for mask, interval in out_gcl])
    gates = GateEngine(sim, in_gcl, out, clock=clock, mode=mode)
    gates.start()
    queues = _queues()
    for queue, sizes in zip(queues, occupancy):
        for size in sizes:
            _load(queue, size)
    shapers = {}
    for queue_id, (mbps, sending_pct) in shaped.items():
        shaper = CreditBasedShaper(
            CbsParams.for_reservation(mbps * 10**6, GBPS)
        )
        shaper.set_backlog(0, True)
        shaper.begin_transmission(0)
        shaper.end_transmission(first_instant * sending_pct // 100, True)
        shapers[queue_id] = shaper
    return sim, clock, gates, queues, shapers


class TestMaskWalkEquivalence:
    """The mask walk decides exactly like the full scan it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        occupancy=_OCCUPANCY,
        out_gcl=_OUT_GCL,
        mode=st.sampled_from(["table", "flip"]),
        drift_ppm=st.sampled_from([0.0, 3.5, -40.0]),
        shaped=_SHAPED,
        instants=_INSTANTS,
        slew_ppm=st.sampled_from([None, 2.0, -7.5]),
    )
    def test_strict_priority(self, occupancy, out_gcl, mode, drift_ppm,
                             shaped, instants, slew_ppm):
        instants = sorted(instants)
        sim, clock, gates, queues, shapers = _arbitration_setup(
            occupancy, out_gcl, mode, drift_ppm, shaped, instants[0]
        )
        scheduler = StrictPriorityScheduler(shapers)
        for index, now in enumerate(instants):
            sim.run(until=now)
            if slew_ppm is not None and index == len(instants) - 1:
                clock.adjust_rate(slew_ppm)
            expected = _reference_select(shapers, now, queues, gates)
            actual = _select(scheduler, now, queues, gates)
            assert _decision_tuple(actual) == _decision_tuple(expected)
            if actual.queue_id is not None:
                queues[actual.queue_id].dequeue()

    @settings(max_examples=100, deadline=None)
    @given(
        occupancy=_OCCUPANCY,
        out_gcl=_OUT_GCL,
        mode=st.sampled_from(["table", "flip"]),
        shaped=_SHAPED,
        instants=_INSTANTS,
        floor=st.integers(0, 8),
        quantum=st.sampled_from([64, 500, 1522]),
    )
    def test_deficit_round_robin(self, occupancy, out_gcl, mode, shaped,
                                 instants, floor, quantum):
        instants = sorted(instants)
        sim, _, gates, queues, shapers = _arbitration_setup(
            occupancy, out_gcl, mode, 0.0, shaped, instants[0]
        )
        drr = DeficitRoundRobinScheduler(
            weights={0: 2, 3: 3}, quantum_bytes=quantum,
            priority_floor=floor, shapers=shapers,
        )
        state = {"deficits": {}, "rotation": 0}
        for now in instants:
            sim.run(until=now)
            expected = _reference_drr(drr, state, now, queues, gates)
            actual = _select(drr, now, queues, gates)
            assert _decision_tuple(actual) == _decision_tuple(expected)
            assert drr._deficits == state["deficits"]
            if actual.queue_id is not None:
                queues[actual.queue_id].dequeue()

    def test_subset_mask_ignores_other_queues(self):
        """A narrowed mask (express arbitration) never picks outside it."""
        sim = Simulator()
        queues = _queues()
        _load(queues[7])
        _load(queues[3])
        decision = StrictPriorityScheduler().select(
            0, queues, _gates(sim), _ser, _mask(queues) & 0b0000_1111
        )
        assert decision.queue_id == 3

    def test_undecorated_decisions_are_shared(self):
        sim = Simulator()
        queues = _queues()
        scheduler = StrictPriorityScheduler()
        idle = _select(scheduler, 0, queues, _gates(sim))
        assert idle is _select(scheduler, 0, queues, _gates(sim))
        _load(queues[4])
        won = _select(scheduler, 0, queues, _gates(sim))
        assert won.queue_id == 4
        assert won is _select(scheduler, 0, queues, _gates(sim))

    def test_more_than_eight_queues(self):
        """Masks wider than the 8-bit table still walk every set bit."""
        sim = Simulator()
        queues = _queues(count=12)
        _load(queues[3])
        _load(queues[10])
        gates = _gates(sim)
        expected = _reference_select({}, 0, queues, gates)
        actual = _select(StrictPriorityScheduler(), 0, queues, gates)
        assert _decision_tuple(actual) == _decision_tuple(expected)
        # 8-bit gate states never open queue 10: queue 3 wins.
        assert actual.queue_id == 3
