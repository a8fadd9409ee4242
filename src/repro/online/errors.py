"""Typed errors of the online (live-traffic) layer."""

from __future__ import annotations

__all__ = ["OnlineTimeoutError"]


class OnlineTimeoutError(RuntimeError):
    """An online operation exhausted its timeout budget.

    Raised by :meth:`WrapSocket.send` when a transfer's completion
    callback never fired within the (retried, backed-off) timeout
    window. Carries enough context to report without parsing the
    message.
    """

    def __init__(self, operation: str, waited_s: float, attempts: int) -> None:
        super().__init__(
            f"{operation} timed out after {waited_s:.3f}s ({attempts} attempt(s))"
        )
        self.operation = operation
        self.waited_s = float(waited_s)
        self.attempts = int(attempts)
