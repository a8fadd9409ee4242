"""Canonical instrument names shared by hook points and consumers.

Instrumented modules (engine, netsim, BGP) and consumers (the profile
bridge, exporters, tests) must agree on names; defining them once here
keeps the contract greppable and typo-proof. Naming convention:
``<subsystem>.<object>.<quantity>``, dotted — exporters translate to
their target format's conventions (Prometheus underscores).
"""

from __future__ import annotations

__all__ = [
    "ENGINE_EVENTS",
    "ENGINE_WINDOWS",
    "ENGINE_LP_EVENTS",
    "ENGINE_LP_REMOTE_SENDS",
    "ENGINE_WINDOW_EVENTS_HIST",
    "ENGINE_BARRIER_WAIT",
    "ENGINE_LOOKAHEAD_VIOLATIONS",
    "PARALLEL_BARRIER_WAIT",
    "PARALLEL_MAIL_BYTES",
    "PARALLEL_WORKER_EVENTS",
    "PARALLEL_WINDOW_EXECUTE",
    "PARALLEL_MAIL_ENCODE",
    "PARALLEL_MAIL_DECODE",
    "CALIBRATION_WINDOWS",
    "CALIBRATION_RATIO",
    "CALIBRATION_MEASURED_WALL",
    "CALIBRATION_PREDICTED_WALL",
    "NETSIM_NODE_EVENTS",
    "NETSIM_NODE_RATE_BINS",
    "NETSIM_LINK_BYTES",
    "NETSIM_LINK_PACKETS",
    "NETSIM_LINK_DROPS",
    "NETSIM_LINK_QUEUE_HWM",
    "NETSIM_PACKETS_SENT",
    "NETSIM_PACKETS_DELIVERED",
    "NETSIM_PACKETS_DROPPED_QUEUE",
    "NETSIM_PACKETS_DROPPED_TTL",
    "NETSIM_PACKETS_UNROUTABLE",
    "BGP_UPDATES_SENT",
    "BGP_UPDATES_RECEIVED",
    "BGP_DECISIONS",
    "BGP_ITERATIONS",
    "BGP_CONVERGENCE",
    "ROUTING_SPF_TREES",
    "ROUTING_SPF_SECONDS",
    "FAULTS_INJECTED",
    "FAULTS_LINK_TRANSITIONS",
    "FAULTS_ROUTER_TRANSITIONS",
    "FAULTS_ROUTE_INVALIDATIONS",
    "FAULTS_BGP_SESSION_RESETS",
    "FAULTS_BGP_REESTABLISHED",
    "REBALANCE_TRIGGERS",
    "REBALANCE_MIGRATIONS",
    "REBALANCE_CANDIDATES",
    "REBALANCE_STATE_BYTES",
    "REBALANCE_CONCENTRATION",
    "RECOVERY_CHECKPOINTS",
    "RECOVERY_CHECKPOINT_BYTES",
    "RECOVERY_DETECTIONS",
    "RECOVERY_RESPAWNS",
    "RECOVERY_REPLAYED",
    "RECOVERY_ADOPTIONS",
    "LINT_FILES",
    "LINT_RULES",
    "LINT_FINDINGS_ERROR",
    "LINT_FINDINGS_WARNING",
    "LINT_FINDINGS_INFO",
    "LINT_WALL",
    "HELP",
    "help_for",
]

# --- conservative parallel engine ------------------------------------
#: total events executed (scalar)
ENGINE_EVENTS = "engine.events.executed"
#: synchronization windows completed (scalar)
ENGINE_WINDOWS = "engine.windows.completed"
#: events executed per LP, accumulated over windows (vector[num_lps])
ENGINE_LP_EVENTS = "engine.lp.events"
#: cross-LP events sent per LP (vector[num_lps])
ENGINE_LP_REMOTE_SENDS = "engine.lp.remote_sends"
#: distribution of per-window total event counts (histogram)
ENGINE_WINDOW_EVENTS_HIST = "engine.window.events"
#: wall-clock spent delivering cross-LP mail at barriers (span timer)
ENGINE_BARRIER_WAIT = "engine.barrier.wait"
#: tolerated lookahead violations (scalar; strict engines raise instead)
ENGINE_LOOKAHEAD_VIOLATIONS = "engine.lookahead.violations"

# --- multi-process backend (repro.engine.parallel) --------------------
# These are recorded *inside each worker process* (shard-labeled) and
# reach the controller through repro.obs.distributed snapshot merging.
#: per-worker wall-clock blocked at barriers, one sample per worker per
#: window (histogram)
PARALLEL_BARRIER_WAIT = "parallel.barrier.wait_s"
#: serialized cross-shard mail volume shipped over worker pipes (scalar)
PARALLEL_MAIL_BYTES = "parallel.mail.bytes"
#: events executed per worker process (vector[procs])
PARALLEL_WORKER_EVENTS = "parallel.worker.events"
#: per-worker wall-clock executing window events (span timer)
PARALLEL_WINDOW_EXECUTE = "parallel.window.execute"
#: per-worker wall-clock serializing outbound mail batches (span timer)
PARALLEL_MAIL_ENCODE = "parallel.mail.encode"
#: per-worker wall-clock decoding + enqueueing inbound mail (span timer)
PARALLEL_MAIL_DECODE = "parallel.mail.decode"

# --- measured-vs-modeled window calibration (repro.obs.distributed) ---
#: windows with both a measured and a predicted wall-clock (scalar)
CALIBRATION_WINDOWS = "calibration.windows.compared"
#: distribution of per-window measured/predicted wall ratios (histogram)
CALIBRATION_RATIO = "calibration.window.ratio"
#: summed measured per-window wall-clock, seconds (scalar)
CALIBRATION_MEASURED_WALL = "calibration.measured.wall_s"
#: summed cost-model predicted per-window wall-clock, seconds (scalar)
CALIBRATION_PREDICTED_WALL = "calibration.predicted.wall_s"

# --- packet-level network simulator ----------------------------------
#: packets handled per node — the PROF load signal (vector[num_nodes])
NETSIM_NODE_EVENTS = "netsim.node.events"
#: per-node event counts binned over simulated time — Figure 3 (series)
NETSIM_NODE_RATE_BINS = "netsim.node.rate_bins"
#: bytes carried per link, both directions (vector[num_links])
NETSIM_LINK_BYTES = "netsim.link.bytes"
#: packets carried per link (vector[num_links])
NETSIM_LINK_PACKETS = "netsim.link.packets"
#: packets dropped per link (vector[num_links])
NETSIM_LINK_DROPS = "netsim.link.drops"
#: queue-backlog high-water mark per link, bytes (max gauge[num_links])
NETSIM_LINK_QUEUE_HWM = "netsim.link.queue_hwm_bytes"
#: aggregate packet counters (scalars)
NETSIM_PACKETS_SENT = "netsim.packets.sent"
NETSIM_PACKETS_DELIVERED = "netsim.packets.delivered"
NETSIM_PACKETS_DROPPED_QUEUE = "netsim.packets.dropped_queue"
NETSIM_PACKETS_DROPPED_TTL = "netsim.packets.dropped_ttl"
NETSIM_PACKETS_UNROUTABLE = "netsim.packets.unroutable"

# --- BGP machinery ----------------------------------------------------
#: route announcements exported to neighbors (scalar)
BGP_UPDATES_SENT = "bgp.updates.sent"
#: announcements surviving receiver-side loop filtering (scalar)
BGP_UPDATES_RECEIVED = "bgp.updates.received"
#: decision-process (best-route selection) invocations (scalar)
BGP_DECISIONS = "bgp.decisions"
#: synchronous propagation rounds until the last fixed point (scalar)
BGP_ITERATIONS = "bgp.iterations"
#: wall-clock span of each convergence run (span timer)
BGP_CONVERGENCE = "bgp.convergence"

# --- OSPF shortest path first (repro.routing.ospf) --------------------
# Every process builds its own trees, so on a multi-process run these
# sum over workers: replicated work, not a share of one total.
#: reverse shortest-path trees built (scalar)
ROUTING_SPF_TREES = "routing.spf.trees"
#: wall-clock building trees, member-graph rebuilds included (span timer)
ROUTING_SPF_SECONDS = "routing.spf.seconds"

# --- fault injection (repro.faults) -----------------------------------
#: scheduled fault events applied by the injector (scalar)
FAULTS_INJECTED = "faults.injected"
#: link state transitions (down + up) applied by the injector (scalar)
FAULTS_LINK_TRANSITIONS = "faults.link.transitions"
#: router state transitions (crash + restart) applied (scalar)
FAULTS_ROUTER_TRANSITIONS = "faults.router.transitions"
#: forwarding-state invalidations forced by fault transitions (scalar)
FAULTS_ROUTE_INVALIDATIONS = "faults.route.invalidations"
#: BGP session teardowns (withdrawal propagations) triggered (scalar)
FAULTS_BGP_SESSION_RESETS = "faults.bgp.session_resets"
#: BGP sessions re-established after backoff retries (scalar)
FAULTS_BGP_REESTABLISHED = "faults.bgp.session_reestablished"

# --- online re-partitioning (repro.partition.rebalance) ---------------
# Recorded on the controller: migration decisions are made centrally so
# the instruments never disagree across shards.
#: blame-concentration threshold crossings that produced a decision (scalar)
REBALANCE_TRIGGERS = "rebalance.triggers"
#: single-LP migrations executed at barriers (scalar)
REBALANCE_MIGRATIONS = "rebalance.migrations"
#: candidate placements scored by the what-if model (scalar)
REBALANCE_CANDIDATES = "rebalance.candidates.scored"
#: serialized migration payload bytes shipped over the control plane (scalar)
REBALANCE_STATE_BYTES = "rebalance.state.bytes"
#: distribution of blame concentration at each trigger (histogram)
REBALANCE_CONCENTRATION = "rebalance.blame.concentration"

# --- fault tolerance (repro.engine.recovery) ---------------------------
# Recorded on the controller: checkpoints are committed and worker
# deaths declared centrally, so the instruments never disagree across
# shards (and survive the death of the worker they describe).
#: barrier checkpoints committed across all shards (scalar)
RECOVERY_CHECKPOINTS = "recovery.checkpoints.taken"
#: serialized checkpoint blob bytes shipped over the control plane (scalar)
RECOVERY_CHECKPOINT_BYTES = "recovery.checkpoint.bytes"
#: worker crashes/hangs detected by liveness supervision (scalar)
RECOVERY_DETECTIONS = "recovery.detections"
#: worker respawn attempts launched after a detection (scalar)
RECOVERY_RESPAWNS = "recovery.respawns"
#: barrier windows re-executed from retained mail during recovery (scalar)
RECOVERY_REPLAYED = "recovery.windows.replayed"
#: degraded adoptions: dead shards folded onto a survivor (scalar)
RECOVERY_ADOPTIONS = "recovery.adoptions.degraded"

# --- static analysis (repro.analysis simlint runs) --------------------
#: python files scanned by one lint invocation (scalar)
LINT_FILES = "lint.files.scanned"
#: lint rules executed (scalar)
LINT_RULES = "lint.rules.run"
#: findings by severity (scalars)
LINT_FINDINGS_ERROR = "lint.findings.error"
LINT_FINDINGS_WARNING = "lint.findings.warning"
LINT_FINDINGS_INFO = "lint.findings.info"
#: wall-clock span of the whole lint pass (span timer)
LINT_WALL = "lint.wall"

# --- exporter help text ----------------------------------------------
#: One-line ``# HELP`` text per instrument, keyed by canonical name.
#: The names-drift test asserts every constant above has an entry, so a
#: new instrument cannot ship without scrape-side documentation.
HELP: dict[str, str] = {
    ENGINE_EVENTS: "Total events executed by the conservative engine.",
    ENGINE_WINDOWS: "Synchronization windows completed.",
    ENGINE_LP_EVENTS: "Events executed per logical process.",
    ENGINE_LP_REMOTE_SENDS: "Cross-LP events sent per logical process.",
    ENGINE_WINDOW_EVENTS_HIST: "Distribution of per-window total event counts.",
    ENGINE_BARRIER_WAIT: "Wall-clock spent delivering cross-LP mail at barriers.",
    ENGINE_LOOKAHEAD_VIOLATIONS: "Tolerated lookahead violations (strict engines raise).",
    PARALLEL_BARRIER_WAIT: "Per-worker wall-clock blocked at multi-process barriers, one sample per window.",
    PARALLEL_MAIL_BYTES: "Serialized cross-shard mail bytes shipped between workers.",
    PARALLEL_WORKER_EVENTS: "Events executed per worker process.",
    PARALLEL_WINDOW_EXECUTE: "Per-worker wall-clock executing window events.",
    PARALLEL_MAIL_ENCODE: "Per-worker wall-clock serializing outbound mail batches.",
    PARALLEL_MAIL_DECODE: "Per-worker wall-clock decoding and enqueueing inbound mail.",
    CALIBRATION_WINDOWS: "Windows with both a measured and a predicted wall-clock.",
    CALIBRATION_RATIO: "Distribution of per-window measured/predicted wall ratios.",
    CALIBRATION_MEASURED_WALL: "Summed measured per-window wall-clock in seconds.",
    CALIBRATION_PREDICTED_WALL: "Summed cost-model predicted per-window wall-clock in seconds.",
    NETSIM_NODE_EVENTS: "Packets handled per node (the PROF load signal).",
    NETSIM_NODE_RATE_BINS: "Per-node event counts binned over simulated time.",
    NETSIM_LINK_BYTES: "Bytes carried per link, both directions.",
    NETSIM_LINK_PACKETS: "Packets carried per link, both directions.",
    NETSIM_LINK_DROPS: "Packets dropped per link.",
    NETSIM_LINK_QUEUE_HWM: "Queue-backlog high-water mark per link in bytes.",
    NETSIM_PACKETS_SENT: "Packets injected by transport endpoints.",
    NETSIM_PACKETS_DELIVERED: "Packets delivered to their destination node.",
    NETSIM_PACKETS_DROPPED_QUEUE: "Packets dropped at full link queues.",
    NETSIM_PACKETS_DROPPED_TTL: "Packets dropped on TTL expiry.",
    NETSIM_PACKETS_UNROUTABLE: "Packets with no forwarding-table next hop.",
    BGP_UPDATES_SENT: "Route announcements exported to neighbors.",
    BGP_UPDATES_RECEIVED: "Announcements surviving receiver-side loop filtering.",
    BGP_DECISIONS: "Decision-process (best-route selection) invocations.",
    BGP_ITERATIONS: "Synchronous propagation rounds to the last fixed point.",
    BGP_CONVERGENCE: "Wall-clock span of each convergence run.",
    ROUTING_SPF_TREES: "Reverse shortest-path trees built by OSPF domains.",
    ROUTING_SPF_SECONDS: "Wall-clock building OSPF trees, member-graph rebuilds included.",
    FAULTS_INJECTED: "Scheduled fault events applied by the injector.",
    FAULTS_LINK_TRANSITIONS: "Link state transitions (down and up) applied.",
    FAULTS_ROUTER_TRANSITIONS: "Router crash and restart transitions applied.",
    FAULTS_ROUTE_INVALIDATIONS: "Forwarding-state invalidations forced by faults.",
    FAULTS_BGP_SESSION_RESETS: "BGP session teardowns (withdrawal propagations).",
    FAULTS_BGP_REESTABLISHED: "BGP sessions re-established after backoff retries.",
    REBALANCE_TRIGGERS: "Blame-concentration threshold crossings that produced a migration decision.",
    REBALANCE_MIGRATIONS: "Single-LP migrations executed at barriers.",
    REBALANCE_CANDIDATES: "Candidate placements scored by the what-if model.",
    REBALANCE_STATE_BYTES: "Serialized migration payload bytes shipped over the control plane.",
    REBALANCE_CONCENTRATION: "Distribution of blame concentration at each rebalance trigger.",
    RECOVERY_CHECKPOINTS: "Barrier checkpoints committed across all shards.",
    RECOVERY_CHECKPOINT_BYTES: "Serialized checkpoint blob bytes shipped over the control plane.",
    RECOVERY_DETECTIONS: "Worker crashes and hangs detected by liveness supervision.",
    RECOVERY_RESPAWNS: "Worker respawn attempts launched after a detection.",
    RECOVERY_REPLAYED: "Barrier windows re-executed from retained mail during recovery.",
    RECOVERY_ADOPTIONS: "Degraded adoptions of a dead shard's LPs by a survivor.",
    LINT_FILES: "Python files scanned by the simlint pass.",
    LINT_RULES: "Lint rules executed by the simlint pass.",
    LINT_FINDINGS_ERROR: "Error-severity lint findings.",
    LINT_FINDINGS_WARNING: "Warning-severity lint findings.",
    LINT_FINDINGS_INFO: "Info-severity lint findings.",
    LINT_WALL: "Wall-clock span of the whole simlint pass.",
}


def help_for(name: str) -> str:
    """The ``# HELP`` line body for ``name`` (generic text if unknown)."""
    return HELP.get(name, f"Instrument {name}.")
