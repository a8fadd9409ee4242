"""Soft real-time scheduling and the slowdown mode.

MaSSF's engine runs online simulations in (soft) real time; when the
simulated system is too large for the hardware, the whole virtual world
runs in *slowdown* mode: every component is scaled by the same factor S,
so one virtual second takes S wall-clock seconds but relative timing is
preserved. The paper quotes "good efficiency with slowdown of 8 times"
for the 20k-router single-AS runs on 90 nodes.

This module provides the virtual-to-wall-clock deadline and the
feasibility check that derives the minimum slowdown from the cost
model's wall-clock prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.costmodel import WallclockPrediction

__all__ = ["VirtualTimeController", "required_slowdown"]


@dataclass
class VirtualTimeController:
    """Maps between wall-clock and virtual time under a slowdown factor.

    ``slowdown = 1`` is real time; ``slowdown = 8`` means the virtual
    world advances at 1/8 wall-clock speed.
    """

    slowdown: float = 1.0
    wallclock_epoch: float = 0.0

    def __post_init__(self) -> None:
        if self.slowdown <= 0:
            raise ValueError("slowdown must be positive")

    def wallclock_deadline(self, virtual_time: float) -> float:
        """Wall-clock instant by which ``virtual_time`` must be reached."""
        return self.wallclock_epoch + virtual_time * self.slowdown


def required_slowdown(
    prediction: WallclockPrediction, virtual_duration_s: float
) -> float:
    """Minimum feasible slowdown for an online run.

    The engine must process ``virtual_duration_s`` of simulated time in
    ``slowdown * virtual_duration_s`` of wall-clock; the cost model says
    the processing takes ``prediction.total_s``. Values <= 1 mean the
    simulation can run in real time (the controller still uses 1).
    """
    if virtual_duration_s <= 0:
        raise ValueError("virtual duration must be positive")
    return max(1.0, prediction.total_s / virtual_duration_s)
