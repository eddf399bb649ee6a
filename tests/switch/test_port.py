"""Egress port: admission, transmission timing, drop accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError, SimulationError
from repro.sim.kernel import Simulator
from repro.switch.counters import SwitchCounters
from repro.switch.gates import CqfPair, GateEngine
from repro.switch.packet import EthernetFrame, make_mac
from repro.switch.port import EgressPort
from repro.switch.queueing import BufferPool, MetadataQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.tables import GateControlList, GateEntry

GBPS = 10**9


def _frame(size=64, pcp=7):
    return EthernetFrame(make_mac(1), make_mac(2), 1, pcp, size, flow_id=1)


def _port(sim, depth=4, buffers=8, out_entries=None, in_entries=None,
          pairs=()):
    queues = [MetadataQueue(depth, q) for q in range(8)]
    in_gcl, out_gcl = GateControlList(2), GateControlList(2)
    in_gcl.program(in_entries or [GateEntry(0xFF, 1_000_000)])
    out_gcl.program(out_entries or [GateEntry(0xFF, 1_000_000)])
    gates = GateEngine(sim, in_gcl, out_gcl, cqf_pairs=list(pairs))
    port = EgressPort(
        sim=sim,
        port_id=0,
        rate_bps=GBPS,
        queues=queues,
        buffer_pool=BufferPool(buffers),
        gates=gates,
        scheduler=StrictPriorityScheduler(),
        counters=SwitchCounters(),
    )
    gates.set_on_change(port.kick)
    gates.start()
    return port


def queue_mask(port):
    """Bit q set iff ``port.queues[q]`` holds a descriptor."""
    return sum(1 << q.queue_id for q in port.queues if not q.empty)


def watch_nonempty_mask(port, methods):
    """Check ``port._nonempty`` after every call of *methods* on *port*.

    Returns the list of method names in call order, so a test can see
    which paths it exercised.
    """
    calls = []
    for name in methods:
        original = getattr(port, name)

        def checked(*args, _original=original, _name=name, **kwargs):
            result = _original(*args, **kwargs)
            assert port._nonempty == queue_mask(port), _name
            calls.append(_name)
            return result

        setattr(port, name, checked)
    return calls


class TestTransmissionTiming:
    def test_last_bit_at_serialization_time(self):
        sim = Simulator()
        port = _port(sim)
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))
        port.enqueue(_frame(size=64), 7)
        sim.run(until=100_000)
        assert delivered == [512]  # 64 B at 1 Gbps

    def test_back_to_back_frames_separated_by_ifg(self):
        sim = Simulator()
        port = _port(sim)
        delivered = []
        port.attach(lambda f: delivered.append(sim.now))
        port.enqueue(_frame(), 7)
        port.enqueue(_frame(), 7)
        sim.run(until=100_000)
        # second starts after wire time (84B = 672ns), lands at 672+512
        assert delivered == [512, 672 + 512]

    def test_priority_order_between_queues(self):
        sim = Simulator()
        port = _port(sim)
        seen = []
        port.attach(lambda f: seen.append(f.pcp))
        port.enqueue(_frame(pcp=0), 0)
        port.enqueue(_frame(pcp=7), 7)  # arrives while 0 is in flight
        sim.run(until=100_000)
        assert seen == [0, 7]  # no preemption, but 7 would beat later 0s

    def test_busy_flag(self):
        sim = Simulator()
        port = _port(sim)
        port.attach(lambda f: None)
        port.enqueue(_frame(size=1500), 7)
        assert port.busy
        sim.run(until=100_000)
        assert not port.busy


class TestAdmission:
    def test_tail_drop_counted_and_buffer_released(self):
        sim = Simulator()
        port = _port(sim, depth=1, buffers=8)
        port.attach(lambda f: None)
        # Hold the port busy so the queue cannot drain: gate all closed.
        port2 = _port(sim, depth=1, buffers=8,
                      out_entries=[GateEntry(0x00, 1_000_000)])
        port2.attach(lambda f: None)
        assert port2.enqueue(_frame(), 7)
        assert not port2.enqueue(_frame(), 7)
        assert port2.counters.dropped_tail == 1
        assert port2.pool.free_count == 7  # dropped frame's slot returned

    def test_buffer_exhaustion_counted(self):
        sim = Simulator()
        port = _port(sim, depth=8, buffers=1,
                     out_entries=[GateEntry(0x00, 1_000_000)])
        port.attach(lambda f: None)
        assert port.enqueue(_frame(), 7)
        assert not port.enqueue(_frame(), 7)
        assert port.counters.dropped_no_buffer == 1

    def test_gate_drop_when_in_gate_closed(self):
        sim = Simulator()
        port = _port(sim, in_entries=[GateEntry(0x7F, 1_000_000)])
        port.attach(lambda f: None)
        assert not port.enqueue(_frame(), 7)
        assert port.counters.dropped_gate == 1

    def test_cqf_redirect_on_enqueue(self):
        sim = Simulator()
        base = 0b0011_1111
        port = _port(
            sim,
            in_entries=[GateEntry(base | 0x40, 1000),
                        GateEntry(base | 0x80, 1000)],
            out_entries=[GateEntry(base | 0x80, 1000),
                         GateEntry(base | 0x40, 1000)],
            pairs=[CqfPair(6, 7)],
        )
        port.attach(lambda f: None)
        port.enqueue(_frame(), 7)
        # landed in queue 6 (the gathering queue of slot 0)
        assert len(port.queues[6]) + port.counters.transmitted >= 1
        assert port.counters.per_queue_enqueued.get(6) == 1


class TestWiring:
    def test_transmit_without_link_rejected(self):
        sim = Simulator()
        port = _port(sim)
        # kick fires synchronously from enqueue and must refuse to transmit
        with pytest.raises(SimulationError):
            port.enqueue(_frame(), 7)

    def test_double_attach_rejected(self):
        sim = Simulator()
        port = _port(sim)
        port.attach(lambda f: None)
        with pytest.raises(ConfigurationError):
            port.attach(lambda f: None)

    def test_backlog_accounting(self):
        sim = Simulator()
        port = _port(sim, out_entries=[GateEntry(0x00, 1_000_000)])
        port.attach(lambda f: None)
        port.enqueue(_frame(size=100), 7)
        port.enqueue(_frame(size=200), 3)
        assert port.backlog_frames() == 2
        assert port.backlog_bytes() == 300


class TestNonEmptyMask:
    @settings(max_examples=50, deadline=None)
    @given(
        arrivals=st.lists(
            st.tuples(
                st.integers(0, 40_000),   # arrival time (ns)
                st.integers(0, 7),        # queue
                st.integers(64, 1500),    # frame bytes
            ),
            max_size=30,
        )
    )
    def test_mask_tracks_queues_through_a_run(self, arrivals):
        sim = Simulator()
        port = _port(
            sim,
            out_entries=[GateEntry(0xF0, 8_000), GateEntry(0x0F, 8_000)],
        )
        port.attach(lambda f: None)
        calls = watch_nonempty_mask(
            port, ("enqueue", "_start_transmission", "_tx_idle")
        )
        for at, queue_id, size in arrivals:
            sim.schedule(
                at,
                lambda q=queue_id, n=size: port.enqueue(_frame(n, q), q),
            )
        sim.run(until=200_000)
        assert calls.count("enqueue") == len(arrivals)
        # Frames longer than a gate window (8 us) never leave.
        assert port._nonempty == queue_mask(port)

    def test_queues_must_be_indexed_by_id(self):
        sim = Simulator()
        gates = GateEngine(sim, GateControlList(1), GateControlList(1))
        for queues in (
            [MetadataQueue(4, q) for q in (1, 0)],
            [MetadataQueue(4) for _ in range(8)],
        ):
            with pytest.raises(ConfigurationError):
                EgressPort(sim, 0, GBPS, queues, BufferPool(8), gates,
                           StrictPriorityScheduler())
