"""Golden lock on the dataplane: every observable, byte for byte.

Five scenarios cover CQF and Qbv gating, single- and multi-hop
topologies, fault injection (link corruption and a cable cut) and FRER
replication/elimination.  For each, the sha256 of every observable --
JSONL trace, per-flow latency trace, drop report, ``SimStats``, headroom
accounting and the received-frame count -- is pinned in :data:`GOLDEN`.
The digests repeat under any ``PYTHONHASHSEED``; a change that moves one
of them changed simulated behaviour, not just speed.

The same digests state the observer contract for flow spans: attaching a
:class:`~repro.obs.flowspans.FlowSpanRecorder` must not perturb the run.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.flowspans import FlowSpanRecorder
from repro.obs.headroom import HeadroomRecorder
from repro.sim.trace import Tracer

SCENARIOS = {
    "star_cqf": {
        "name": "star-fp",
        "topology": {
            "kind": "star",
            "talkers": ["talker0", "talker1"],
            "listener": "listener",
        },
        "flows": {
            "ts_count": 8,
            "period_us": 2000,
            "size_bytes": 64,
            "rc_mbps": 100,
            "be_mbps": 100,
        },
        "duration_ms": 8,
    },
    "ring_cqf": {
        "name": "ring-fp",
        "topology": {
            "kind": "ring",
            "switch_count": 3,
            "talkers": ["talker0"],
            "listener": "listener",
        },
        "flows": {
            "ts_count": 8,
            "period_us": 2000,
            "size_bytes": 64,
            "rc_mbps": 100,
            "be_mbps": 50,
        },
        "duration_ms": 8,
    },
    "linear_qbv": {
        "name": "linear-fp",
        "topology": {
            "kind": "linear",
            "switch_count": 2,
            "talkers": ["talker0"],
            "listener": "listener",
        },
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 128},
        "duration_ms": 8,
        "gate_mechanism": "qbv",
    },
    "faulted_star": {
        "name": "faulted-fp",
        "topology": {
            "kind": "star",
            "talkers": ["talker0"],
            "listener": "listener",
        },
        "flows": {"ts_count": 8, "period_us": 1000, "size_bytes": 64},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 12,
        "seed": 7,
        "faults": {"events": [
            {"kind": "corrupt_burst", "link": "leaf0.p0", "at_us": 2_000,
             "duration_us": 2_000, "rate": 0.5},
            {"kind": "link_down", "link": "leaf0.p0", "at_us": 8_000},
        ]},
    },
    "frer_ring": {
        "name": "frer-fp",
        "topology": {
            "kind": "frer_ring",
            "switch_count": 4,
            "talkers": ["talker0"],
            "listener": "listener",
        },
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 64},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 12,
        "seed": 7,
        "frer_ts": True,
    },
}


GOLDEN = {
    "faulted_star": {
        "drop_report":
            "b382c0072568ac7ed92ee5e227caa37e1f38becc531d36df51043c94f4f1c5c4",
        "frame_trace":
            "00f623831d7d1f4e31d502c42ffe0bfe48aebcf5f95de7ced6e0619733db35ed",
        "headroom":
            "4c4f590deeb7c6361aa8f6793c219c59d682d446c2c9100b519b9bc6cbcebb46",
        "received":
            "7688b6ef52555962d008fff894223582c484517cea7da49ee67800adc7fc8866",
        "sim_stats":
            "d79438d5a12d87112e8594b84c4f51f2a0fc25b3e6c739d81427c5b325a01836",
        "trace_jsonl":
            "2ca6f6763fed302c5a6b702107f8e32427ba318609be24315648d5092d818834",
    },
    "frer_ring": {
        "drop_report":
            "ea8e0f8bdc365c906d0d617eb9f2b880cbf0f5e74d34ca223be46c1ef15da941",
        "frame_trace":
            "04b259347f4dbe8ad687ccc86d71d6886e2d4c0d44a2991221a8226a33259679",
        "headroom":
            "dcb007c8c991ddc40a1fd0fb8bbde3fd65dc8c9e7ccc14ccaf38afa79b37950f",
        "received":
            "98010bd9270f9b100b6214a21754fd33bdc8d41b2bc9f9dd16ff54d3c34ffd71",
        "sim_stats":
            "6e404ed8cbcdfe98ec9691d51b9b8092f64e360e4ffe426f5444d58ad9a38945",
        "trace_jsonl":
            "7a527f9fc7da3ad88f8f5d64b75a39dab45312275f653ccf82864b31553e7934",
    },
    "linear_qbv": {
        "drop_report":
            "4d17387afaad1bbe4210c69536759703c71ba8225dae3858c92feb616de2931c",
        "frame_trace":
            "c5d3f43fe04d166b53e9382476dd3d38a96adef13fff73e38a403ea204d6c72b",
        "headroom":
            "2188c7121a7f6035b2266edbb680cf655ebe24e44d5307bf7caaf27b69fb86d6",
        "received":
            "e29c9c180c6279b0b02abd6a1801c7c04082cf486ec027aa13515e4f3884bb6b",
        "sim_stats":
            "b78cb92813c8e0a026c51ccec35ae350f8f0ed2b6f90b7c047219d6a32380fc5",
        "trace_jsonl":
            "f2d9b05b1a4a3c7c1a0b2f7cd62e8b697598112aa82d0cfddcd61acc60afc29a",
    },
    "ring_cqf": {
        "drop_report":
            "29efa35c204aefd3f7ee1a8b40fd5dd64f9764d345da1db86d43bcca42d1a833",
        "frame_trace":
            "1699bb5dc428efbe89082a7f2b025c7b0e2c910b9a2b53b0e30b4ce886791ff3",
        "headroom":
            "61eebc381644eda6aae12e3ce1701fe1281a5feef53565d7eff1d80a6d2274d5",
        "received":
            "01d54579da446ae1e75cda808cd188438834fa6249b151269db0f9123c9ddc61",
        "sim_stats":
            "81f2ccbd5b82e55e92747b074ed52ea98aa4ab6b8ad4a0feb26c1f0da6ba474c",
        "trace_jsonl":
            "1ab647f83cfe77cfda053968661acf3ecf3a77f1cf00e48e8550d3cc343eb6f1",
    },
    "star_cqf": {
        "drop_report":
            "ae5e058b187f59df260928eb3f6c9b187818b1f327e01d4c7587b67df5b27165",
        "frame_trace":
            "39b127363e99bf4e4419cd3c25784212f286c3c40d57eb63c6ddf236f09a6d97",
        "headroom":
            "e2996fcb9e9ec1ab0fa937cb52ba079db6f2e1d97f6a9bb5b59328b1f6910e28",
        "received":
            "dfe62e836a0a6f2633422230c81287700a56e2639652c73f264e6562220c207a",
        "sim_stats":
            "c3c28f6b5058c7e942191e1981700e11fed04692a3849bd44d7eec979a029bba",
        "trace_jsonl":
            "964add8d8f21829a5e1870390d72745d24b100f00aa0d0267535eef4a9dc6c43",
    },
}


def _trace_jsonl(tracer):
    """The trace as JSONL -- compared byte-for-byte."""
    return "\n".join(
        json.dumps([r.time, r.category, r.message, list(r.fields)])
        for r in tracer.records
    )


def _digest(value):
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _observe(doc, spans=None):
    """Every observable from one run of *doc*."""
    tracer = Tracer()
    headroom = HeadroomRecorder()
    result = ScenarioSpec.from_dict(doc).run(
        tracer=tracer, headroom=headroom, spans=spans
    )
    frame_trace = [
        [flow_id, list(rec.latencies_ns), rec.deadline_misses,
         rec.duplicates, rec.reorders]
        for flow_id, rec in sorted(result.analyzer.records.items())
    ]
    return {
        "trace_jsonl": _trace_jsonl(tracer),
        "frame_trace": frame_trace,
        "drop_report": result.drop_report(),
        "sim_stats": result.sim_stats,
        "headroom": result.headroom_report().as_dict(),
        "received": result.analyzer.received(),
    }


def _digests(doc, spans=None):
    return {key: _digest(value) for key, value in _observe(doc, spans).items()}


class TestGoldenDigests:
    @pytest.mark.parametrize("label", sorted(SCENARIOS))
    def test_observables_match_golden(self, label):
        assert _digests(SCENARIOS[label]) == GOLDEN[label]

    def test_golden_repeats_under_another_hash_seed(self):
        # Set iteration order must never leak into an observable.
        script = (
            "import json, test_golden as g; "
            "print(json.dumps({k: g._digests(v) "
            "for k, v in g.SCENARIOS.items()}))"
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(
            os.environ,
            PYTHONHASHSEED="12345",
            PYTHONPATH=os.pathsep.join(
                [str(root / "src"), str(root / "tests")]
            ),
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=300,
        ).stdout
        assert json.loads(out) == GOLDEN

    def test_faulted_scenario_actually_drops(self):
        # The golden lock on the faulted scenario must cover real drops.
        observed = _observe(SCENARIOS["faulted_star"])
        assert "0 dropped" not in observed["drop_report"].splitlines()[0]

    def test_frer_scenario_actually_replicates(self):
        observed = _observe(SCENARIOS["frer_ring"])
        assert observed["received"] > 0


class TestSpanObserverContract:
    """Attaching flow spans leaves every observable exactly as it was."""

    @pytest.mark.parametrize("label", sorted(SCENARIOS))
    def test_spans_do_not_perturb_the_run(self, label):
        spans = FlowSpanRecorder()
        assert _digests(SCENARIOS[label], spans=spans) == GOLDEN[label]
        assert spans.events  # not vacuous: the recorder saw the frames


class TestSweepRows:
    """Campaign rows are identical at any worker count."""

    def _rows(self, tmp_path, workers):
        from repro.campaign import Campaign, SweepSpec

        spec = SweepSpec.from_dict({
            "name": "golden-sweep",
            "base": {**SCENARIOS["star_cqf"], "duration_ms": 5},
            "grid": {"flows.ts_count": [4, 8]},
        })
        jsonl = tmp_path / f"rows-{workers}w.jsonl"
        Campaign(spec, workers=workers, ledger=None).run(jsonl=jsonl)
        rows = [
            json.loads(line)
            for line in jsonl.read_text().splitlines() if line
        ]
        return sorted(rows, key=lambda r: r["index"])

    def test_rows_identical_across_workers(self, tmp_path):
        assert self._rows(tmp_path, 2) == self._rows(tmp_path, 1)
