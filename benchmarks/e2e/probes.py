"""Small fixed probes: host speed, pipe round trip, mail codec rate.

They run outside every timed region. The spin loop says how fast and
how steady the host was while a set of runs was taken; the pipe and
codec probes put a number on the two mechanisms the multi-process
backend pays for at every barrier, measured alone.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import statistics
import time

SPIN_ITEMS = 60_000
PIPE_ROUND_TRIPS = 2_000
PIPE_MESSAGE_BYTES = 1_024
MAIL_ITEMS = 20_000


def spin_ms(repeats: int = 5) -> list[float]:
    """Wall of a fixed pure-Python loop, ``repeats`` times, in ms.

    The loop does what the simulator's hot path does: allocates small
    tuples, pushes and pops a heap, fills a dict.
    """
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        heap: list[tuple] = []
        table: dict[int, tuple] = {}
        for i in range(SPIN_ITEMS):
            item = (float(i * 7919 % SPIN_ITEMS), i, (i, i + 1))
            heapq.heappush(heap, item)
            table[i] = item
        while heap:
            heapq.heappop(heap)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def spread(values: list[float]) -> float:
    """(max - min) / median: the run-to-run range as a share."""
    return (max(values) - min(values)) / statistics.median(values)


def _echo(conn) -> None:
    try:
        while True:
            message = conn.recv_bytes()
            if not message:
                return
            conn.send_bytes(message)
    finally:
        conn.close()


def pipe_rtt_us() -> float:
    """Median echo round trip of a 1 KB wire message to one forked child.

    The same transport a barrier uses (a duplex ``mp.Pipe`` carrying an
    ``encode_payload`` message), so this is the host's floor under the
    paper's Figure 5 synchronisation cost.
    """
    from repro.serialization import encode_payload

    message = encode_payload(b"x" * PIPE_MESSAGE_BYTES)
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=_echo, args=(child,))
    proc.start()
    child.close()
    trips = []
    try:
        for _ in range(PIPE_ROUND_TRIPS):
            t0 = time.perf_counter()
            parent.send_bytes(message)
            parent.recv_bytes()
            trips.append(time.perf_counter() - t0)
        parent.send_bytes(b"")
    finally:
        parent.close()
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    return statistics.median(trips) * 1e6


def mail_codec(seed: int) -> dict[str, float]:
    """Encode/decode rate of one seeded synthetic barrier mail batch.

    Items have the documented wire shape ``(target_lp, node, time, key,
    handler_name, args)`` with a :class:`Packet` argument, as the UDP
    workloads send them.
    """
    import numpy as np

    from repro.netsim.packet import Packet, Protocol
    from repro.serialization import decode_mail_batch, encode_mail_batch

    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, 700, size=(MAIL_ITEMS, 3))
    times = np.sort(rng.uniform(0.0, 4.0, size=MAIL_ITEMS))
    items = []
    for i in range(MAIL_ITEMS):
        node, src, dst = (int(v) for v in nodes[i])
        packet = Packet(
            src=src, dst=dst, size_bytes=1000, protocol=Protocol.UDP, flow_id=i, seq=i
        )
        items.append((node % 4, node, float(times[i]), (i // 50, 1, i), "handle_at", (node, packet)))
    t0 = time.perf_counter()
    blob = encode_mail_batch(items)
    t1 = time.perf_counter()
    decoded = decode_mail_batch(blob)
    t2 = time.perf_counter()
    if len(decoded) != MAIL_ITEMS or decoded[-1][2] != items[-1][2]:
        raise AssertionError("mail batch did not survive the codec round trip")
    return {
        "serialization.encode_mail_items_per_s": MAIL_ITEMS / (t1 - t0),
        "serialization.decode_mail_items_per_s": MAIL_ITEMS / (t2 - t1),
        "serialization.mail_bytes_per_item": len(blob) / MAIL_ITEMS,
    }
