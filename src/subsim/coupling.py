"""Plug-and-socket coupling state machine.

A plug joins a receptacle after holding alignment for a configurable
duration (and not having been recently freed), is then constrained to a
1-DOF prismatic travel along the socket X axis, locks when pushed with
the insertion force, and releases when pulled with the extraction force.
Both thresholds act on the X component of the applied force only, and
both compare positive values because the forces come from opposing
sources. The only phase cycle is Free -> Joined -> Fixed -> Free; a
joined plug cannot leave except through Fixed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .geometry import rotation_zyx, rpy_from_rotation


class Phase(enum.Enum):
    FREE = "free"
    JOINED = "joined"
    FIXED = "fixed"


class CalledInFreeError(RuntimeError):
    """constrained_pose has no meaning without a joint."""


@dataclass(frozen=True)
class CouplingConfig:
    linear_tol: float
    angular_tol: float
    insertion_force: float
    extraction_force: float
    travel_max: float
    align_duration: float = 2.0
    cooldown: float = 2.0

    def __post_init__(self) -> None:
        for name in ("linear_tol", "angular_tol", "insertion_force",
                     "extraction_force", "travel_max", "align_duration", "cooldown"):
            if not getattr(self, name) > 0.0:  # NaN too
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, eq=False)
class RelativePose:
    """Plug pose in the receptacle frame; x is the socket axis."""

    offset: np.ndarray  # (3,)
    rotation: np.ndarray  # (3, 3)

    @staticmethod
    def from_offset_rpy(x: float, y: float, z: float,
                        roll: float = 0.0, pitch: float = 0.0, yaw: float = 0.0) -> "RelativePose":
        return RelativePose(np.array([x, y, z], dtype=float), rotation_zyx(roll, pitch, yaw))

    @staticmethod
    def identity() -> "RelativePose":
        return RelativePose(np.zeros(3), np.eye(3))


@dataclass(frozen=True)
class CouplingState:
    phase: Phase = Phase.FREE
    align_timer: float = 0.0
    cooldown_timer: float = 0.0
    plug_travel: float = 0.0


def is_aligned(rel_pose: RelativePose, cfg: CouplingConfig) -> bool:
    """Lateral offsets within linear_tol (componentwise) and each relative
    rotation angle within angular_tol."""
    if abs(rel_pose.offset[1]) > cfg.linear_tol or abs(rel_pose.offset[2]) > cfg.linear_tol:
        return False
    roll, pitch, yaw = rpy_from_rotation(rel_pose.rotation)
    return all(abs(a) <= cfg.angular_tol for a in (roll, pitch, yaw))


def step(
    state: CouplingState,
    rel_pose: RelativePose,
    force_x: float,
    dt: float,
    cfg: CouplingConfig,
) -> tuple[CouplingState, list[str]]:
    """Advance the state machine by dt seconds.

    Events are transition names: "joined", "fixed", "freed". Thresholds
    are inclusive (>=). While the cooldown runs, alignment does not
    accumulate.
    """
    if not dt > 0.0:  # NaN too: a NaN align_timer never reaches align_duration
        raise ValueError("dt must be positive")
    events: list[str] = []

    if state.phase is Phase.FREE:
        if state.cooldown_timer > 0.0:
            return replace(
                state,
                cooldown_timer=max(0.0, state.cooldown_timer - dt),
                align_timer=0.0,
            ), events
        align = state.align_timer + dt if is_aligned(rel_pose, cfg) else 0.0
        if align >= cfg.align_duration:
            events.append("joined")
            travel = min(max(float(rel_pose.offset[0]), 0.0), cfg.travel_max)
            return CouplingState(Phase.JOINED, 0.0, 0.0, travel), events
        return replace(state, align_timer=align), events

    if state.phase is Phase.JOINED:
        travel = min(max(float(rel_pose.offset[0]), 0.0), cfg.travel_max)
        if force_x >= cfg.insertion_force:
            events.append("fixed")
            return CouplingState(Phase.FIXED, 0.0, 0.0, 0.0), events
        return replace(state, plug_travel=travel), events

    # Phase.FIXED
    if force_x >= cfg.extraction_force:
        events.append("freed")
        return CouplingState(Phase.FREE, 0.0, cfg.cooldown, 0.0), events
    return state, events


def constrained_pose(state: CouplingState, proposed: RelativePose, cfg: CouplingConfig) -> RelativePose:
    """Project a proposed relative pose onto the active constraint.

    Joined: motion only along the socket X axis, travel clamped to
    [0, travel_max]; lateral and angular offsets are zeroed. Fixed: the
    plug is pinned at the mated pose. Raises CalledInFreeError in Free.
    """
    if state.phase is Phase.FREE:
        raise CalledInFreeError("no constraint exists in the Free phase")
    if state.phase is Phase.FIXED:
        return RelativePose.identity()
    travel = min(max(float(proposed.offset[0]), 0.0), cfg.travel_max)
    return RelativePose(np.array([travel, 0.0, 0.0]), np.eye(3))


# --- Event log CSV ----------------------------------------------------------

LOG_HEADER = ["time", "phase", "fx", "fy", "fz", "event"]


def log_row(time: float, state: CouplingState, force, events: list[str]) -> list:
    """One per-step record. The applied force is published only in the
    Joined and Fixed phases; Free rows leave the force fields empty."""
    published = ["", "", ""] if state.phase is Phase.FREE else np.asarray(force, dtype=float).tolist()
    return [time, state.phase.value, *published, "+".join(events)]
