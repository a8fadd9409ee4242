"""Canonical instrument names shared by hook points and consumers.

Instrumented modules (engine, netsim, faults, the coordinator) and
consumers (exporters, the distributed merge, tests) must agree on names; declaring each instrument
once here — its name and its exporter ``# HELP`` text together — keeps
the contract greppable and typo-proof, and a new instrument cannot ship
without scrape-side documentation. Naming convention:
``<subsystem>.<object>.<quantity>``, dotted — exporters translate to
their target format's conventions (Prometheus underscores).
"""

from __future__ import annotations

#: One-line ``# HELP`` text per instrument, keyed by canonical name.
HELP: dict[str, str] = {}


def _declare(name: str, help_text: str) -> str:
    """Declare one instrument: record its help text, return its name."""
    HELP[name] = help_text
    return name


# --- conservative parallel engine ------------------------------------
ENGINE_EVENTS = _declare(
    "engine.events.executed", "Total events executed by the conservative engine."
)
ENGINE_WINDOWS = _declare("engine.windows.completed", "Synchronization windows completed.")
ENGINE_LP_EVENTS = _declare("engine.lp.events", "Events executed per logical process.")
ENGINE_LP_REMOTE_SENDS = _declare(
    "engine.lp.remote_sends", "Cross-LP events sent per logical process."
)
ENGINE_LOOKAHEAD_VIOLATIONS = _declare(
    "engine.lookahead.violations", "Tolerated lookahead violations (strict engines raise)."
)

# --- multi-process backend (repro.engine.parallel) --------------------
# These are read *inside each worker process* and reach the controller
# as values in the worker's shipped registry, merged by
# repro.obs.distributed.merged_registry_snapshot.
PARALLEL_MAIL_BYTES = _declare(
    "parallel.mail.bytes", "Serialized cross-shard mail bytes shipped between workers."
)
PARALLEL_WORKER_EVENTS = _declare("parallel.worker.events", "Events executed per worker process.")

# --- packet-level network simulator ----------------------------------
NETSIM_NODE_EVENTS = _declare(
    "netsim.node.events", "Packets handled per node (the PROF load signal)."
)
NETSIM_LINK_BYTES = _declare("netsim.link.bytes", "Bytes carried per link, both directions.")
NETSIM_LINK_PACKETS = _declare("netsim.link.packets", "Packets carried per link, both directions.")
NETSIM_LINK_DROPS = _declare("netsim.link.drops", "Packets dropped per link.")
NETSIM_PACKETS_SENT = _declare("netsim.packets.sent", "Packets injected by transport endpoints.")
NETSIM_PACKETS_DELIVERED = _declare(
    "netsim.packets.delivered", "Packets delivered to their destination node."
)
NETSIM_PACKETS_DROPPED_QUEUE = _declare(
    "netsim.packets.dropped_queue", "Packets dropped at full link queues."
)
NETSIM_PACKETS_DROPPED_TTL = _declare(
    "netsim.packets.dropped_ttl", "Packets dropped on TTL expiry."
)
NETSIM_PACKETS_UNROUTABLE = _declare(
    "netsim.packets.unroutable", "Packets with no forwarding-table next hop."
)

# --- fault injection (repro.faults) -----------------------------------
FAULTS_INJECTED = _declare("faults.injected", "Scheduled fault events applied by the injector.")
FAULTS_LINK_TRANSITIONS = _declare(
    "faults.link.transitions", "Link state transitions (down and up) applied."
)
FAULTS_ROUTER_TRANSITIONS = _declare(
    "faults.router.transitions", "Router crash and restart transitions applied."
)
FAULTS_ROUTE_INVALIDATIONS = _declare(
    "faults.route.invalidations", "Forwarding-state invalidations forced by faults."
)
FAULTS_BGP_SESSION_RESETS = _declare(
    "faults.bgp.session_resets", "BGP session teardowns (withdrawal propagations)."
)
FAULTS_BGP_REESTABLISHED = _declare(
    "faults.bgp.session_reestablished", "BGP sessions re-established after backoff retries."
)

# --- online re-partitioning (repro.partition.rebalance) ---------------
# Read on the controller: migration decisions are made centrally so the
# counts never disagree across shards.
REBALANCE_TRIGGERS = _declare(
    "rebalance.triggers",
    "Blame-concentration threshold crossings that produced a migration decision.",
)
REBALANCE_MIGRATIONS = _declare(
    "rebalance.migrations", "Single-LP migrations executed at barriers."
)
REBALANCE_CANDIDATES = _declare(
    "rebalance.candidates.scored", "Candidate placements scored by the what-if model."
)

# --- fault tolerance (repro.engine.recovery) ---------------------------
# Read on the controller: checkpoints are committed and worker deaths
# declared centrally, so the counts never disagree across shards (and
# survive the death of the worker they describe).
RECOVERY_CHECKPOINTS = _declare(
    "recovery.checkpoints.taken", "Barrier checkpoints committed across all shards."
)
RECOVERY_CHECKPOINT_BYTES = _declare(
    "recovery.checkpoint.bytes", "Serialized checkpoint blob bytes shipped over the control plane."
)
RECOVERY_DETECTIONS = _declare(
    "recovery.detections", "Worker crashes and hangs detected by liveness supervision."
)
RECOVERY_RESPAWNS = _declare(
    "recovery.respawns", "Worker respawn attempts launched after a detection."
)
RECOVERY_REPLAYED = _declare(
    "recovery.windows.replayed", "Barrier windows re-executed from the message log during recovery."
)
RECOVERY_ADOPTIONS = _declare(
    "recovery.adoptions.degraded", "Degraded adoptions of a dead shard's LPs by a survivor."
)


def help_for(name: str) -> str:
    """The ``# HELP`` line body for ``name`` (generic text if unknown)."""
    return HELP.get(name, f"Instrument {name}.")


__all__ = [*(const for const in dir() if const.isupper()), "help_for"]
