"""``ShardEngine.run`` against the engine it replaced: same order, same records.

``tests/_engine_oracle.py`` keeps ``OracleConservativeEngine``, the
single-process conservative engine as it stood before its loop was
folded into ``ShardEngine``. It orders ties by one engine-wide
``(time, seq)`` sequence where the shipped engine stamps ``(epoch, lane,
counter)`` keys. A ``ShardEngine`` owning every LP, driven by
``run(until)``, must execute every event in the oracle's order — not
just the same set, which is all a comparison against ``SimKernel`` can
check, since the kernel interleaves LPs differently inside a window —
and record the same ``WindowStats`` rows (bounds compared as float
hex), ``events_executed`` and ``lookahead_violations``, the same
instruments and the same trace channels.

Each engine logs every event it executes by the index of the
``schedule_at`` call that created it: two runs that execute the same
events in the same order schedule in the same order too, so the two
index sequences are equal exactly when the orders are.

Scenarios:

- seeded UDP over a generated topology with a random link fault
  schedule (loss bursts and link flaps, on the control plane);
- HTTP over TCP, whose retransmission timers are cancelled;
- a random event cascade with ties on exact binary times, cancellations,
  and cross-LP hops under the lookahead — ``strict=False`` counts them,
  ``strict=True`` must fail at the same event;
- events scheduled at the barrier between two ``run()`` calls, and runs
  split at arbitrary times, which resume mid-stream.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Event, LookaheadViolation, ShardEngine
from repro.experiments.shard import build_udp_scenario, delivery_log_bytes, udp_spec
from repro.faults import FaultEvent, FaultKind
from repro.netsim import NetworkSimulator
from repro.netsim.app.http import HttpTraffic
from repro.obs import export
from repro.obs.registry import observed_run
from repro.obs.trace import TraceBuffer, traced_run
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind, generate_flat_network

from _engine_oracle import OracleConservativeEngine


def recording(engine_cls):
    """``engine_cls`` logging each executed event's scheduling index."""

    class Recording(engine_cls):
        def __init__(self, *args, **kwargs) -> None:
            self.executed: list[tuple[int, str]] = []
            self.scheduled = 0
            super().__init__(*args, **kwargs)

        def schedule_at(self, time, fn, node=-1, args=()):
            index = self.scheduled
            self.scheduled += 1
            return super().schedule_at(
                time, partial(self._logged, index, fn), node=node, args=args
            )

        def _logged(self, index, fn, *args) -> None:
            self.executed.append((index, self.current_time.hex()))
            fn(*args)

    Recording.__name__ = f"Recording{engine_cls.__name__}"
    return Recording


ORACLE = recording(OracleConservativeEngine)
FOLDED = recording(ShardEngine)


def instruments(reg) -> dict:
    """Every instrument's value but wall time; the shard-only ``parallel.*``
    set is left out (a one-shard run registers it, the oracle never did)."""
    snap = export.snapshot(reg)
    out = {}
    for group, table in snap.items():
        if not isinstance(table, dict) or group == "meta":
            continue
        for name, value in table.items():
            if name.startswith("parallel."):
                continue
            if group == "timers":
                value = {"count": value["count"]}
            out[(group, name)] = value
    return out


def run_one(engine_cls, build, assignment, num_lps, lookahead, untils,
            strict=True, between=None) -> dict:
    """Build, run to each of ``untils`` in turn, and read everything back.

    ``between(engine, i)`` runs at the barrier before the ``i``-th
    ``run()`` call (``i >= 1``). A ``LookaheadViolation`` ends the run;
    its message is part of the outcome.
    """
    with observed_run() as reg, traced_run() as tracer:
        engine = engine_cls(assignment, num_lps, lookahead, strict=strict)
        collect = build(engine)
        raised = None
        try:
            for i, until in enumerate(untils):
                if i and between is not None:
                    between(engine, i)
                engine.run(until=until)
        except LookaheadViolation as exc:
            raised = str(exc)
    return {
        "order": engine.executed,
        "raised": raised,
        "windows": [
            (
                ws.window_index,
                ws.start.hex(),
                ws.end.hex(),
                ws.events_per_lp.tolist(),
                ws.remote_sends_per_lp.tolist(),
            )
            for ws in engine.window_stats
        ],
        "events_executed": engine.events_executed,
        "lookahead_violations": engine.lookahead_violations,
        "instruments": instruments(reg),
        "trace": {name: list(getattr(tracer, name)) for name, _ in TraceBuffer.CHANNELS},
        "collected": collect() if collect is not None else None,
    }


def assert_same_run(*args, **kwargs) -> dict:
    """Run the oracle and the folded engine alike; every outcome equal."""
    want = run_one(ORACLE, *args, **kwargs)
    got = run_one(FOLDED, *args, **kwargs)
    for key in want:
        if key == "events_executed" and want["raised"] is not None:
            # The oracle adds a run() call's count as the call returns, so
            # a violation loses the windows that call completed; the
            # folded engine counts each window as it completes.
            assert got[key] == sum(sum(row[3]) for row in got["windows"])
            continue
        assert got[key] == want[key], f"{key} differs from the oracle"
    return got


# ----------------------------------------------------------------------
# The key-order trap: mail against barrier-time scheduling
# ----------------------------------------------------------------------
def test_mail_runs_before_an_event_scheduled_between_runs():
    """An LP-1 event mails an LP-0 event at t = 0.15 in window 0; between
    ``run(0.1)`` and ``run(1.0)`` the caller schedules another LP-0 event
    at t = 0.15. The mail was scheduled first, so it runs first: keying
    barrier-time scheduling inside window 0's epoch would invert them."""
    names: dict[int, str] = {}

    def build(engine):
        def mailer():
            names[engine.scheduled] = "mail"
            engine.schedule_at(0.15, lambda: None, node=0)

        engine.schedule_at(0.05, mailer, node=1)
        return None

    def between(engine, _i):
        names[engine.scheduled] = "between-runs"
        engine.schedule_at(0.15, lambda: None, node=0)

    got = assert_same_run(
        build, np.array([0, 1]), 2, 0.1, [0.1, 1.0], between=between
    )
    ran = [names[index] for index, _ in got["order"] if index in names]
    assert ran == ["mail", "between-runs"]


# ----------------------------------------------------------------------
# Random event cascade: ties, cancels, violations, barrier scheduling
# ----------------------------------------------------------------------
#: exact binary delays, so sums tie exactly and land on window bounds
DELAYS = tuple(k / 16.0 for k in range(9))


class Cascade:
    """Each firing draws its children from one seeded stream: the draws
    follow execution order, so any reordering changes the whole run."""

    def __init__(self, engine, num_nodes: int, seed: int, short_hops: bool) -> None:
        self.engine = engine
        self.num_nodes = num_nodes
        self.rng = np.random.default_rng(seed)
        self.short_hops = short_hops
        self.handles: list[Event] = []

    def fire(self, node: int, depth: int) -> None:
        engine, rng = self.engine, self.rng
        if self.handles and rng.random() < 0.2:
            self.handles.pop(int(rng.integers(len(self.handles)))).cancel()
        if depth >= 5:
            return
        for _ in range(int(rng.integers(0, 3))):
            target = int(rng.integers(self.num_nodes))
            delay = float(DELAYS[int(rng.integers(len(DELAYS)))])
            if engine.lp_of(target) != engine.lp_of(node) and not self.short_hops:
                delay += engine.lookahead
            self.handles.append(
                engine.schedule(delay, self.fire, node=target, args=(target, depth + 1))
            )


@st.composite
def cascades(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=8))
    num_lps = draw(st.integers(min_value=1, max_value=4))
    assignment = draw(
        st.lists(st.integers(0, num_lps - 1), min_size=num_nodes, max_size=num_nodes)
    )
    ticks = st.integers(min_value=0, max_value=48)  # sixteenths of a second
    starts = draw(st.lists(st.tuples(ticks, st.integers(0, num_nodes - 1)), max_size=6))
    cuts = sorted(set(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))))
    # Barrier-time events land within a window or two of the barrier,
    # where the last window's mail lands too.
    soon = st.integers(min_value=0, max_value=12)
    injects = draw(
        st.lists(st.tuples(st.integers(1, 3), soon, st.integers(0, num_nodes - 1)),
                 max_size=6)
    )
    return {
        "num_nodes": num_nodes,
        "num_lps": num_lps,
        "assignment": np.array(assignment),
        "lookahead": draw(st.sampled_from((0.125, 0.25, 0.5))),
        "starts": [(t / 16.0, n) for t, n in starts],
        "untils": [c / 16.0 for c in cuts] + [5.0],
        "injects": [(i, t / 16.0, n) for i, t, n in injects],
        "seed": draw(st.integers(0, 2**16)),
        "short_hops": draw(st.booleans()),
        "strict": draw(st.booleans()),
    }


@settings(max_examples=200, deadline=None)
@given(case=cascades())
def test_cascade_runs_in_the_oracles_order(case):
    cascade = {}

    def build(engine):
        c = cascade["c"] = Cascade(
            engine, case["num_nodes"], case["seed"], case["short_hops"]
        )
        for t, node in case["starts"]:
            engine.schedule_at(t, c.fire, node=node, args=(node, 0))
        return None

    def between(engine, i):
        for at, offset, node in case["injects"]:
            if at == i:
                engine.schedule_at(
                    engine.now + offset, cascade["c"].fire, node=node, args=(node, 0)
                )

    assert_same_run(
        build, case["assignment"], case["num_lps"], case["lookahead"],
        case["untils"], strict=case["strict"], between=between,
    )


def test_lenient_cascade_counts_violations_and_strict_one_fails_alike():
    case = dict(num_nodes=4, seed=3, short_hops=True)
    assignment, starts = np.array([0, 1, 0, 1]), [(0.0, 0), (0.0625, 1), (0.125, 3)]

    def build(engine):
        c = Cascade(engine, case["num_nodes"], case["seed"], case["short_hops"])
        for t, node in starts:
            engine.schedule_at(t, c.fire, node=node, args=(node, 0))
        return None

    lenient = assert_same_run(build, assignment, 2, 0.25, [1.0, 5.0], strict=False)
    assert lenient["lookahead_violations"] > 0 and lenient["raised"] is None
    strict = assert_same_run(build, assignment, 2, 0.25, [1.0, 5.0], strict=True)
    assert strict["raised"] is not None


# ----------------------------------------------------------------------
# UDP with faults
# ----------------------------------------------------------------------
UDP_NET = generate_flat_network(num_routers=10, num_hosts=6, seed=3)
UDP_DURATION_S = 0.02


def lookahead_for(net, assignment, fallback: float) -> float:
    """The smallest cross-LP link latency (``fallback`` with none cut)."""
    cut = [l.latency_s for l in net.links if assignment[l.u] != assignment[l.v]]
    return min(cut) if cut else fallback


@st.composite
def fault_schedules(draw, num_links: int, duration_s: float):
    events = []
    for _ in range(draw(st.integers(0, 3))):
        link = draw(st.integers(0, num_links - 1))
        start = draw(st.floats(0.0, 0.6)) * duration_s
        end = start + draw(st.floats(0.05, 0.4)) * duration_s
        if draw(st.booleans()):
            loss = draw(st.sampled_from((0.2, 0.5, 1.0)))
            events += [
                FaultEvent(start, FaultKind.LOSS_BURST_START, (link,),
                           (("corrupt_prob", 0.1), ("loss_prob", loss))),
                FaultEvent(end, FaultKind.LOSS_BURST_END, (link,)),
            ]
        else:
            events += [
                FaultEvent(start, FaultKind.LINK_DOWN, (link,)),
                FaultEvent(end, FaultKind.LINK_UP, (link,)),
            ]
    return sorted(events, key=lambda e: e.time)


def udp_build(spec):
    def build(engine):
        scenario = build_udp_scenario(engine, spec.params)

        def collect():
            got = scenario.collect()
            # The log's cursor pair is the folded engine's alone (the
            # oracle has none); delivery_log_bytes strips it.
            return {**{k: v for k, v in got.items() if k != "log"},
                    "log": delivery_log_bytes(got)}

        return collect

    return build


@settings(max_examples=25, deadline=None)
@given(
    assignment=st.lists(st.integers(0, 2), min_size=UDP_NET.num_nodes,
                        max_size=UDP_NET.num_nodes),
    faults=fault_schedules(len(UDP_NET.links), UDP_DURATION_S),
    packets=st.integers(5, 40),
    seed=st.integers(0, 50),
    cut=st.floats(0.1, 0.9),
)
def test_udp_with_faults_runs_in_the_oracles_order(assignment, faults, packets, seed, cut):
    assignment = np.array(assignment)
    spec = udp_spec(UDP_NET, UDP_DURATION_S, packets=packets, seed=seed, faults=faults)
    assert_same_run(
        udp_build(spec), assignment, 3,
        lookahead_for(UDP_NET, assignment, UDP_DURATION_S),
        [cut * UDP_DURATION_S, UDP_DURATION_S],
    )


# ----------------------------------------------------------------------
# HTTP over TCP: cancelled retransmission timers
# ----------------------------------------------------------------------


def http_network() -> Network:
    """Six routers in a ring with two chords, a host on each; millisecond
    links (few windows per simulated second) and 10 Mb/s access links."""
    net = Network()
    routers = [net.add_node(NodeKind.ROUTER) for _ in range(6)]
    for i, r in enumerate(routers):
        net.add_link(r, routers[(i + 1) % 6], 1e8, 1e-3 * (1 + i % 3), 1 << 20)
    net.add_link(routers[0], routers[3], 1e8, 2.5e-3, 1 << 20)
    net.add_link(routers[1], routers[4], 1e8, 1.5e-3, 1 << 20)
    for r in routers:
        net.add_link(r, net.add_node(NodeKind.HOST), 1e7, 1e-3, 1 << 16)
    return net


HTTP_NET = http_network()
HTTP_UNTIL_S = 3.0


def http_build(seed: int):
    def build(engine):
        # A fresh forwarding plane each: SPF trees are built on first use
        # and counted by the routing.* instruments.
        sim = NetworkSimulator(HTTP_NET, ForwardingPlane(HTTP_NET), engine)
        hosts = HTTP_NET.host_ids()
        http = HttpTraffic(sim, hosts[:4], hosts[4:], seed=seed, mean_gap_s=0.2,
                           stop_at=HTTP_UNTIL_S)
        http.start()

        def collect():
            stats = http.stats
            return {
                "counters": sim.counters.as_dict(),
                "node_packets": sim.node_packets.tolist(),
                "responses": stats.responses_completed,
                "response_times": [t.hex() for t in stats.response_times],
            }

        return collect

    return build


@settings(max_examples=10, deadline=None)
@given(
    assignment=st.lists(st.integers(0, 2), min_size=HTTP_NET.num_nodes,
                        max_size=HTTP_NET.num_nodes),
    seed=st.integers(0, 50),
    cut=st.floats(0.1, 0.9),
)
def test_http_over_tcp_runs_in_the_oracles_order(assignment, seed, cut):
    assignment = np.array(assignment)
    assert_same_run(
        http_build(seed), assignment, 3,
        lookahead_for(HTTP_NET, assignment, HTTP_UNTIL_S),
        [cut * HTTP_UNTIL_S, HTTP_UNTIL_S],
    )


def test_http_scenario_cancels_timers():
    """What makes the HTTP scenario the cancellation case: TCP cancels
    retransmission timers it scheduled, on both engines alike."""
    assignment = np.arange(HTTP_NET.num_nodes) % 2
    cancels = []
    real_cancel = Event.cancel

    def counting(ev):
        cancels.append(ev.time)
        real_cancel(ev)

    with mock.patch.object(Event, "cancel", counting):
        got = assert_same_run(
            http_build(1), assignment, 2,
            lookahead_for(HTTP_NET, assignment, HTTP_UNTIL_S), [HTTP_UNTIL_S],
        )
    assert cancels and got["collected"]["responses"] > 0
