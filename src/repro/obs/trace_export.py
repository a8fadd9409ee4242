"""Chrome trace-event (Perfetto-loadable) export of a recorded run.

Renders a run's :class:`~repro.engine.windows.WindowStats` rows as a
*modeled wall-clock timeline*:
each LP is a thread track, each window contributes one complete slice
per LP covering its modeled busy time, a ``barrier`` slice on a
dedicated track covers the synchronization cost, and cross-LP message
edges become flow arrows from the sender's slice to the receiver's.
The resulting JSON object follows the Chrome trace-event format
(``{"traceEvents": [...]}``) and loads in ``chrome://tracing`` and
https://ui.perfetto.dev unchanged.

The timeline is *modeled*: simulated event counts are converted to
seconds by the :class:`ClusterSpec` the exporter is handed, and windows
are laid out back to back the way the barrier-synchronized engine would
execute them. Straggler slices carry ``args.straggler = true`` so the
slowest LP of every window is one query away; the straggler is the one
:func:`repro.engine.costmodel.window_blame` picks.

Traces from the multi-process backend additionally carry *measured*
per-window worker spans (:class:`~repro.obs.trace.MeasuredWindowRecord`);
those render as a second process (``pid=1``) with one thread track per
worker shard, each window decomposed into real execute / mail-encode /
barrier-wait / mail-decode slices on the shard's own cumulative
wall-clock — the measured timeline next to the modeled one.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from ..cluster.syncmodel import ClusterSpec
from ..engine.costmodel import window_blame
from ..engine.windows import WindowStats, window_rows
from .blame import modeled_busy
from .trace import TraceBuffer

__all__ = ["to_chrome_trace", "write_chrome_trace", "MAX_FLOW_EVENTS"]

#: Cap on exported message-edge flow pairs, keeping huge traces loadable.
MAX_FLOW_EVENTS = 2_000

#: Track id of the barrier/sync slices (LP tracks use their LP index).
_BARRIER_TID = -1

#: Process id of the measured per-worker tracks (modeled tracks use 0).
_MEASURED_PID = 1


def to_chrome_trace(
    window_stats: Sequence[WindowStats],
    trace: TraceBuffer,
    cluster: ClusterSpec,
    max_flows: int = MAX_FLOW_EVENTS,
) -> dict:
    """The run as a Chrome trace-event JSON object (plain dict).

    ``window_stats`` are the run's windows, ``trace`` its message edges
    and measured worker spans. ``cluster`` prices the window counts into
    busy slices and supplies the per-barrier cost ``C(N)`` appended to
    every window (a single-LP run never synchronizes and gets no barrier
    track). Timestamps are in microseconds of *modeled wall-clock*,
    starting at 0.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro conservative engine (modeled)"},
        }
    ]
    busy_by_window = modeled_busy(window_stats, cluster)
    num_lps = busy_by_window.shape[1]
    sync_cost_s = cluster.sync_cost_s(num_lps) if num_lps > 1 else 0.0
    stragglers, walls, _ = window_blame(busy_by_window)
    for lp in range(num_lps):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": lp,
                "args": {"name": f"LP {lp}"},
            }
        )
    if sync_cost_s > 0:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": _BARRIER_TID,
                "args": {"name": "barrier"},
            }
        )

    # Lay the windows out on a modeled wall clock: window wall start ->
    # per-LP busy slices -> barrier slice -> next window.
    wall_us = 0.0
    #: per window: (wall start us, busy_us per lp) for flow placement
    layout: list[tuple[float, np.ndarray]] = []
    for w, busy_s, straggler, wall_s in zip(
        window_stats, busy_by_window, stragglers, walls
    ):
        busy_us = busy_s * 1e6
        layout.append((wall_us, busy_us))
        for lp in range(num_lps):
            if busy_us[lp] <= 0.0:
                continue
            events.append(
                {
                    "name": f"window {w.window_index}",
                    "cat": "window",
                    "ph": "X",
                    "ts": wall_us,
                    "dur": float(busy_us[lp]),
                    "pid": 0,
                    "tid": lp,
                    "args": {
                        "events": int(w.events_per_lp[lp]),
                        "remote_sends": int(w.remote_sends_per_lp[lp]),
                        "sim_start_s": w.start,
                        "sim_end_s": w.end,
                        "straggler": lp == int(straggler),
                    },
                }
            )
        max_busy_us = float(wall_s * 1e6)
        if sync_cost_s > 0:
            events.append(
                {
                    "name": "barrier",
                    "cat": "sync",
                    "ph": "X",
                    "ts": wall_us + max_busy_us,
                    "dur": sync_cost_s * 1e6,
                    "pid": 0,
                    "tid": _BARRIER_TID,
                    "args": {"window": w.window_index},
                }
            )
        wall_us += max_busy_us + sync_cost_s * 1e6

    events.extend(_flow_events(trace, window_stats, layout, max_flows))
    events.extend(_measured_events(trace))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _measured_events(trace: TraceBuffer) -> list[dict]:
    """Measured worker spans as per-shard thread tracks under ``pid=1``.

    Each shard's windows lie back to back on that shard's own measured
    wall-clock (cumulative over its records in window order), with the
    four span kinds as adjacent slices — so the width of a track is the
    wall time that worker process really spent, and barrier-wait slices
    line up visually with the stragglers that caused them.
    """
    records = sorted(trace.measured, key=lambda r: (r.shard_id, r.window_index))
    if not records:
        return []
    out: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _MEASURED_PID,
            "tid": 0,
            "args": {"name": "repro mp workers (measured)"},
        }
    ]
    for shard_id in sorted({r.shard_id for r in records}):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _MEASURED_PID,
                "tid": shard_id,
                "args": {"name": f"worker {shard_id}"},
            }
        )
    clocks: dict[int, float] = {}
    for r in records:
        wall_us = clocks.get(r.shard_id, 0.0)
        spans = (
            ("execute", r.execute_s),
            ("mail-encode", r.mail_encode_s),
            ("barrier-wait", r.barrier_wait_s),
            ("mail-decode", r.mail_decode_s),
            ("checkpoint", r.checkpoint_s),
        )
        for name, span_s in spans:
            dur_us = float(span_s) * 1e6
            if dur_us <= 0.0:
                continue
            out.append(
                {
                    "name": name,
                    "cat": "measured",
                    "ph": "X",
                    "ts": wall_us,
                    "dur": dur_us,
                    "pid": _MEASURED_PID,
                    "tid": r.shard_id,
                    "args": {
                        "window": r.window_index,
                        "events": r.events,
                        "mail_bytes": r.mail_bytes,
                    },
                }
            )
            wall_us += dur_us
        clocks[r.shard_id] = wall_us
    return out


def _flow_events(
    trace: TraceBuffer,
    window_stats: Sequence[WindowStats],
    layout: list[tuple[float, np.ndarray]],
    max_flows: int,
) -> list[dict]:
    """Message edges as ``s``/``f`` flow pairs between LP slices.

    A flow starts at the end of the sender's busy slice in the window
    containing the send time and finishes at the start of the receiver's
    slice in the window containing the delivery time — the modeled
    wall-clock shadow of the cross-LP mail the barrier carried.
    """
    edges = list(trace.edges)
    sent = window_rows(window_stats, [e.send_time for e in edges])
    got = window_rows(window_stats, [e.deliver_time for e in edges])
    out: list[dict] = []
    emitted = 0
    for i, (e, send_i, recv_i) in enumerate(zip(edges, sent, got)):
        if emitted >= max_flows:
            break
        if send_i < 0 or recv_i < 0:
            continue
        send_wall, send_busy = layout[send_i]
        recv_wall, _ = layout[recv_i]
        out.append(
            {
                "name": "xlp-mail",
                "cat": "mail",
                "ph": "s",
                "id": i,
                "ts": send_wall + float(send_busy[e.src_lp]),
                "pid": 0,
                "tid": e.src_lp,
            }
        )
        out.append(
            {
                "name": "xlp-mail",
                "cat": "mail",
                "ph": "f",
                "bp": "e",
                "id": i,
                "ts": recv_wall,
                "pid": 0,
                "tid": e.dst_lp,
            }
        )
        emitted += 1
    return out


def write_chrome_trace(
    path: str,
    window_stats: Sequence[WindowStats],
    trace: TraceBuffer,
    cluster: ClusterSpec,
    max_flows: int = MAX_FLOW_EVENTS,
) -> None:
    """Write the Chrome trace-event JSON document to ``path``."""
    doc = to_chrome_trace(window_stats, trace, cluster, max_flows=max_flows)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
