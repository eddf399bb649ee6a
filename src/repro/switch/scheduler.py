"""The Egress Sched's arbitration: strict priority + gates + CBS.

The port keeps a *non-empty mask* of its queues (bit *q* set iff queue *q*
holds a descriptor) and hands it to :meth:`select` on every transmission
opportunity.  The scheduler walks only the set bits, highest queue id (the
highest priority, per 802.1Q convention) first, through a 256-entry table
of descending bit positions -- the software counterpart of the FPGA
template's one-cycle priority encoder over ``queue_nonempty``.  Empty
queues cost nothing.  The first set queue that passes the remaining two
eligibility checks wins:

1. **Gate** -- the queue's out-gate is open *and* the head frame's
   serialization finishes before the gate closes again (the 802.1Qbv
   transmission-window guard; this is what keeps CQF slots overrun-free).
2. **Credit** -- if the queue is CBS-mapped, its shaper credit is >= 0.

Arbitration over a subset of queues (the express MAC of a preemption port)
is the same call with the mask narrowed, so there is one queue list per
port and no per-subset ordering.

The decision also carries *retry hints*: when nothing is eligible but some
queue was blocked purely on CBS credit, ``retry_delay_ns`` says when credit
recovers so the port can arm a re-arbitration event instead of polling.
When the gate engine elides flip events (table mode, see
:mod:`repro.switch.gates`), queues blocked on a closed gate or a too-short
gate window additionally produce ``gate_wake_delay_ns`` -- the earliest
future window that fits the blocked head frame -- so the port wakes exactly
when the legacy per-flip engine would have kicked it.  With the flip engine
every transition already notifies the port, so no gate hints are computed.
Decisions without hints are shared instances; a new one is built only to
carry a hint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .gates import GateEngine
from .queueing import MetadataQueue
from .shaper import CreditBasedShaper

__all__ = ["SchedulerDecision", "StrictPriorityScheduler"]


@dataclass(frozen=True)
class SchedulerDecision:
    """Outcome of one arbitration."""

    queue_id: Optional[int]
    retry_delay_ns: Optional[int] = None
    gate_wake_delay_ns: Optional[int] = None

    @property
    def idle(self) -> bool:
        return self.queue_id is None


def _descending_bits(mask: int) -> Tuple[int, ...]:
    """Positions of the set bits of *mask*, highest first."""
    return tuple(
        bit for bit in range(mask.bit_length() - 1, -1, -1) if mask >> bit & 1
    )


#: ``_SET_BITS[mask]`` is :func:`_descending_bits` of an 8-bit mask: the
#: priority-encoder walk order for the usual 8 queues.
_SET_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    _descending_bits(mask) for mask in range(256)
)

#: Shared decisions: "queue *q* wins" for q < 8, and "idle, no hints".
_WON: Tuple[SchedulerDecision, ...] = tuple(
    SchedulerDecision(queue_id) for queue_id in range(8)
)
_IDLE = SchedulerDecision(None)


def _set_bits(mask: int) -> Tuple[int, ...]:
    return _SET_BITS[mask] if mask < 256 else _descending_bits(mask)


def _won(queue_id: int) -> SchedulerDecision:
    return _WON[queue_id] if queue_id < 8 else SchedulerDecision(queue_id)


class EgressScheduler:
    """Base arbiter: gate/guard/credit eligibility shared by all variants.

    ``shapers`` maps queue id -> its :class:`CreditBasedShaper` for queues
    bound by the CBS map table; unmapped queues are unshaped.  Subclasses
    implement :meth:`select` using :meth:`_eligible` for the gate and
    credit checks.
    """

    def __init__(self, shapers: Optional[Dict[int, CreditBasedShaper]] = None):
        self.shapers: Dict[int, CreditBasedShaper] = dict(shapers or {})
        self._retry: Optional[int] = None
        self._gate_wake: Optional[int] = None

    def _note_gate_wake(
        self,
        gates: GateEngine,
        queue_id: int,
        needed_ns: int,
    ) -> None:
        wait = gates.next_out_open_window(queue_id, needed_ns)
        if wait is not None and (
            self._gate_wake is None or wait < self._gate_wake
        ):
            self._gate_wake = wait

    def _eligible(
        self,
        now_ns: int,
        queue: MetadataQueue,
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
        head,
    ) -> bool:
        """Gate and credit checks of non-empty *queue* with head *head*."""
        serialization = serialization_ns_of(head.size_bytes)
        # One fused gate query: ``time_until_out_close`` already folds the
        # open/closed state in (0 = closed, None = open forever), so the
        # separate ``out_open`` probe -- a second window-table walk per
        # arbitration -- is redundant.
        window = gates.time_until_out_close(queue.queue_id)
        if window is not None and serialization > window:
            # Gate closed, or the frame would overrun the remaining window;
            # wake at the next window that fits.
            if gates.needs_wake_hints:
                self._note_gate_wake(gates, queue.queue_id, serialization)
            return False
        shaper = self.shapers.get(queue.queue_id)
        if shaper is not None and not shaper.eligible(now_ns):
            wait = shaper.ns_until_eligible(now_ns)
            if wait is not None and (self._retry is None or wait < self._retry):
                self._retry = wait
            return False
        return True

    def _idle(self) -> SchedulerDecision:
        """The no-winner decision, carrying whatever hints were noted."""
        if self._retry is None and self._gate_wake is None:
            return _IDLE
        return SchedulerDecision(
            None,
            retry_delay_ns=self._retry,
            gate_wake_delay_ns=self._gate_wake,
        )

    def select(
        self,
        now_ns: int,
        queues: Sequence[MetadataQueue],
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
        nonempty: int,
    ) -> SchedulerDecision:
        """Pick the queue to transmit from, or explain why none is ready.

        *queues* is indexed by queue id.  Bit *q* of *nonempty* must be set
        iff ``queues[q]`` holds a descriptor; a caller arbitrating over a
        subset of the queues clears the other bits.  *serialization_ns_of*
        maps a frame byte count to its wire time on this port (the
        guard-band check needs it).
        """
        raise NotImplementedError


class StrictPriorityScheduler(EgressScheduler):
    """The paper's Egress Sched: highest eligible queue id wins."""

    def select(
        self,
        now_ns: int,
        queues: Sequence[MetadataQueue],
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
        nonempty: int,
    ) -> SchedulerDecision:
        self._retry = None
        self._gate_wake = None
        for queue_id in _set_bits(nonempty):
            queue = queues[queue_id]
            if self._eligible(now_ns, queue, gates, serialization_ns_of,
                              queue.head()):
                return _won(queue_id)
        return self._idle()


class DeficitRoundRobinScheduler(EgressScheduler):
    """Strict priority above ``priority_floor``, byte-fair DRR below it.

    An alternative Egress Sched template logic: the gated TS queues keep
    absolute precedence (determinism first), while the remaining queues
    share leftover bandwidth by weighted deficit round robin instead of
    starving low ids -- the classic fix for BE starvation under heavy RC
    load.  Used by the custom-template example to demonstrate swapping a
    template's fixed logic without touching the resource model.

    The DRR ring is every queue below the floor, in descending id order;
    queues outside *nonempty* are skipped but keep their ring position, so
    a narrowed (express-only) arbitration does not reshape the rotation.
    """

    def __init__(
        self,
        weights: Optional[Dict[int, int]] = None,
        quantum_bytes: int = 1522,
        priority_floor: int = 6,
        shapers: Optional[Dict[int, CreditBasedShaper]] = None,
    ):
        super().__init__(shapers)
        self.weights = dict(weights or {})
        self.quantum_bytes = quantum_bytes
        self.priority_floor = priority_floor
        self._deficits: Dict[int, int] = {}
        self._rotation: int = 0

    def _weight(self, queue_id: int) -> int:
        return max(1, self.weights.get(queue_id, 1))

    def select(
        self,
        now_ns: int,
        queues: Sequence[MetadataQueue],
        gates: GateEngine,
        serialization_ns_of: Callable[[int], int],
        nonempty: int,
    ) -> SchedulerDecision:
        self._retry = None
        self._gate_wake = None
        floor = self.priority_floor
        # Stage 1: strict priority for the gated TS queues.
        for queue_id in _set_bits(nonempty):
            if queue_id < floor:
                break
            queue = queues[queue_id]
            if self._eligible(now_ns, queue, gates, serialization_ns_of,
                              queue.head()):
                return _won(queue_id)
        # Stage 2: DRR over the rest, starting after the last served queue.
        # Work-conserving formulation: find how many replenishment rounds
        # each eligible queue needs to afford its head frame, serve the one
        # needing fewest (rotation order breaks ties), and credit every
        # eligible queue with that many rounds -- equivalent to spinning the
        # classic DRR loop until somebody can send, without the loop.
        count = max(0, min(floor, len(queues)))
        candidates = []
        for step in range(count):
            queue_id = count - 1 - (self._rotation + step) % count
            if not nonempty >> queue_id & 1:
                continue
            queue = queues[queue_id]
            head = queue.head()
            if not self._eligible(
                now_ns, queue, gates, serialization_ns_of, head
            ):
                continue
            deficit = self._deficits.get(queue_id, 0)
            need = head.size_bytes - deficit
            per_round = self.quantum_bytes * self._weight(queue_id)
            rounds = 0 if need <= 0 else -(-need // per_round)
            candidates.append((rounds, step, queue_id, head))
        if not candidates:
            return self._idle()
        rounds_won, step_won, winner, head = min(
            candidates, key=lambda c: (c[0], c[1])
        )
        if rounds_won:
            for _, _, queue_id, _ in candidates:
                self._deficits[queue_id] = (
                    self._deficits.get(queue_id, 0)
                    + rounds_won
                    * self.quantum_bytes
                    * self._weight(queue_id)
                )
        self._deficits[winner] = (
            self._deficits.get(winner, 0) - head.size_bytes
        )
        self._rotation = (self._rotation + step_won + 1) % count
        return _won(winner)
