"""Benchmark-side span tracing around the program's layers.

The traced run wraps public functions of each layer (and the few private
event handlers that are a layer's only entry point from the kernel) with
pass-through wrappers.  A *span* wrapper records ``(name, start, end,
parent)``; a *count* wrapper only counts calls, for functions whose body
is smaller than a span's own cost.  Nothing here changes what the program
computes: wrappers call straight through and return the wrapped result.

Each name is patched where its caller looks it up: methods on their class
(every caller resolves them through the instance), module-level functions
in the namespace of the module that calls them (``repro.network.testbed``
imports ``plan_flows`` by name, so that binding is patched as well as
``repro.sched.plan_flows``, which ``core.sizing`` imports at call time).
Patches go in before any testbed is built, because ports and links capture
bound methods (``link._carry``, ``switch.receive``) at wiring time.

A layer's self time is the sum over its spans of each span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["LAYERS", "SpanTracer", "installed"]

#: ``(module, owner, attribute, layer, kind)``.  *owner* is a class name in
#: *module*, or ``None`` for a module-level function.  *kind* is ``"span"``
#: or ``"count"``.  The layer names are the paper's components plus the
#: kernel, link/host, the setup layers and the campaign runner.
LAYERS: Tuple[Tuple[str, object, str, str, str], ...] = (
    # sim.kernel
    ("repro.sim.kernel", "Simulator", "run", "sim", "span"),
    # Egress Sched: switch.port / switch.scheduler / switch.queueing
    ("repro.switch.port", "EgressPort", "kick", "egress", "span"),
    ("repro.switch.port", "EgressPort", "enqueue", "egress", "span"),
    ("repro.switch.port", "EgressPort", "_tx_idle", "egress", "span"),
    ("repro.switch.port", "EgressPort", "_retry_fire", "egress", "span"),
    ("repro.switch.port", "EgressPort", "_gate_wake_fire", "egress", "span"),
    ("repro.switch.scheduler", "StrictPriorityScheduler", "select",
     "egress", "span"),
    ("repro.switch.queueing", "MetadataQueue", "head", "egress", "count"),
    # Gate Ctrl: switch.gates
    ("repro.switch.gates", "GateEngine", "select_enqueue_queue",
     "gates", "span"),
    ("repro.switch.gates", "GateEngine", "time_until_out_close",
     "gates", "span"),
    ("repro.switch.gates", "GateEngine", "next_out_open_window",
     "gates", "span"),
    ("repro.switch.gates", "GateEngine", "in_open", "gates", "span"),
    ("repro.switch.gates", "GateEngine", "out_open", "gates", "span"),
    ("repro.switch.gates", "GateEngine", "_flip", "gates", "span"),
    # Ingress Filter: switch.pipeline
    ("repro.switch.pipeline", "SwitchPipeline", "process", "ingress", "span"),
    # Packet Switch: switch.device + BufferPool
    ("repro.switch.device", "TsnSwitch", "receive", "switch", "span"),
    ("repro.switch.device", "TsnSwitch", "_process", "switch", "span"),
    ("repro.switch.queueing", "BufferPool", "allocate", "switch", "span"),
    ("repro.switch.queueing", "BufferPool", "release", "switch", "span"),
    # Time Sync
    ("repro.timesync.gptp", "GptpNode", "measure_path_delay",
     "timesync", "span"),
    ("repro.timesync.gptp", "GptpNode", "send_sync_to_children",
     "timesync", "span"),
    ("repro.timesync.gptp", "GptpNode", "_on_sync", "timesync", "span"),
    # Link / host / generator / analyzer
    ("repro.network.link", "Link", "_carry", "link", "span"),
    ("repro.network.host", "Host", "inject", "host", "span"),
    ("repro.network.host", "Host", "receive", "host", "span"),
    ("repro.traffic.generator", "PeriodicSource", "_tick", "host", "span"),
    ("repro.traffic.generator", "RateSource", "_tick", "host", "span"),
    ("repro.network.analyzer", "TsnAnalyzer", "record", "analyzer", "span"),
    # repro.obs observers
    ("repro.obs.instruments", "PortInstruments", "on_enqueue", "obs", "span"),
    ("repro.obs.instruments", "PortInstruments", "on_dequeue", "obs", "span"),
    ("repro.obs.instruments", "PortInstruments", "on_buffer", "obs", "span"),
    ("repro.obs.instruments", "PortInstruments", "on_transmitted",
     "obs", "span"),
    ("repro.obs.instruments", "PortInstruments", "on_gate_flip",
     "obs", "span"),
    ("repro.obs.instruments", "PortInstruments", "on_drop", "obs", "span"),
    ("repro.obs.instruments", "SwitchInstruments", "on_received",
     "obs", "span"),
    ("repro.obs.instruments", "SwitchInstruments", "on_forwarded",
     "obs", "span"),
    ("repro.obs.instruments", "SwitchInstruments", "on_meter", "obs", "span"),
    ("repro.obs.instruments", "SwitchInstruments", "on_drop", "obs", "span"),
    ("repro.obs.headroom", "PortHeadroomProbes", "on_queue", "obs", "span"),
    ("repro.obs.headroom", "PortHeadroomProbes", "on_buffer", "obs", "span"),
    ("repro.obs.headroom", "HeadroomRecorder", "finalize", "obs", "span"),
    # Setup: core.sizing / repro.sched / core.bram / network.testbed
    ("repro.network.scenario", None, "derive_config", "sizing", "span"),
    ("repro.sched", None, "plan_flows", "sched", "span"),
    ("repro.network.testbed", None, "plan_flows", "sched", "span"),
    ("repro.core.config", "SwitchConfig", "resource_report", "bram", "span"),
    ("repro.network.scenario", "ScenarioSpec", "build_testbed",
     "testbed", "span"),
    ("repro.network.testbed", "Testbed", "build", "testbed", "span"),
    ("repro.network.testbed", "Testbed", "run", "run", "span"),
    # repro.campaign
    ("repro.campaign.runner", "Campaign", "run", "campaign", "span"),
    ("repro.campaign.runner", None, "execute_run", "campaign", "span"),
)


class SpanTracer:
    """In-memory span store plus per-name call counts.

    Spans live in parallel arrays (name id, parent span, start, end) so a
    traced run of a million hops stays within tens of megabytes.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: Dict[str, str] = {}
        self._name_ids: Dict[str, int] = {}
        self.counts: Dict[str, List[int]] = {}
        #: Called with ``(testbed, result)`` after every ``Testbed.run``.
        self.on_run: Callable = lambda testbed, result: None
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and zero the counts (between repetitions)."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        for cell in self.counts.values():
            cell[0] = 0

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of[name] = layer
            self.counts[name] = [0]
        return self._name_ids[name]

    def count(self, name: str) -> int:
        cell = self.counts.get(name)
        return cell[0] if cell is not None else 0

    def span_wrapper(self, fn: Callable, name: str, layer: str) -> Callable:
        name_id = self.name_id(name, layer)
        cell = self.counts[name]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            cell[0] += 1
            stack = tracer._stack
            span = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(span)
            tracer.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.span_end[span] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn: Callable, name: str, layer: str) -> Callable:
        self.name_id(name, layer)
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus direct children."""
        count = len(self.span_name)
        durations = [
            self.span_end[i] - self.span_start[i] for i in range(count)
        ]
        children = [0.0] * count
        parents = self.span_parent
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                children[parent] += durations[i]
        totals = {name: 0.0 for name in self.names}
        names = self.names
        span_name = self.span_name
        for i in range(count):
            totals[names[span_name[i]]] += durations[i] - children[i]
        return totals


def _run_observer(tracer: SpanTracer, original, name: str, layer: str):
    """Span around ``Testbed.run`` that also hands the result to the
    tracer's ``on_run`` hook (run state the counters are normalized by)."""
    spanned = tracer.span_wrapper(original, name, layer)

    def run(self, *args, **kwargs):
        result = spanned(self, *args, **kwargs)
        tracer.on_run(self, result)
        return result

    run.__wrapped__ = original
    return run


def entry_name(entry: Tuple[str, object, str, str, str]) -> str:
    """Span name of a :data:`LAYERS` entry: ``Owner.attr`` or
    ``module.function``."""
    module_name, owner_name, attr, _, _ = entry
    return f"{owner_name or module_name}.{attr}"


def _target(module_name: str, owner_name, attr: str):
    """``(owner, original)`` of an entry, or ``None`` if it is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if owner_name is None:
        owner, original = module, getattr(module, attr, None)
    else:
        owner = getattr(module, owner_name, None)
        # Class attributes are read from the class dict so an inherited
        # method is patched on the subclass only, never on its base.
        original = None if owner is None else owner.__dict__.get(attr)
    if original is None or not callable(original):
        return None
    return owner, original


@contextlib.contextmanager
def installed(tracer: SpanTracer) -> Iterator[List[str]]:
    """Patch every :data:`LAYERS` entry for the duration of the block.

    Yields the names of the entries whose target no longer exists (a
    renamed or moved function).  Those are left unpatched; the caller must
    fail the traced run on them, because their counters would read zero
    and look like a gain.  Every patch is undone on exit, in reverse order.
    """
    originals: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    try:
        for entry in LAYERS:
            module_name, owner_name, attr, layer, kind = entry
            name = entry_name(entry)
            target = _target(module_name, owner_name, attr)
            if target is None:
                missing.append(name)
                continue
            owner, original = target
            if name == "Testbed.run":
                wrapper = _run_observer(tracer, original, name, layer)
            elif kind == "count":
                wrapper = tracer.count_wrapper(original, name, layer)
            else:
                wrapper = tracer.span_wrapper(original, name, layer)
            originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield missing
    finally:
        while originals:
            owner, attr, original = originals.pop()
            setattr(owner, attr, original)
