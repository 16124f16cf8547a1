"""Immediate reward for one interaction step.

The reward is a weighted sum over the post-transition status vector, the
per-step trial/timestep increments, and the completion/skip flags. The
assistance cost is charged only on a completing step, scaled by the action
that produced the completion, which is what pushes the learner toward
minimal effective assistance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .config import Document, read_number, read_object
from .scenario import StepEvents
from .states import ACTIONS, StatusVector

@dataclass(frozen=True)
class RewardWeights(Document):
    """Dimensionless reward units; the shipped calibration is caresim/data/reward_weights.json."""

    _packaged = "reward_weights.json"

    forgetful: float
    confused: float
    angry: float
    disengaged: float
    extra_trial: float
    subtask_complete: float
    subtask_skip: float
    extra_timestep: float
    task_complete: float
    # cost per action, indexed by action, charged on a completing step
    assist: tuple[float, float, float, float]

    @classmethod
    def from_dict(cls, doc: Any) -> "RewardWeights":
        doc = read_object(doc, "reward weights", (*_WEIGHT_NAMES, "assist"))
        costs = read_object(doc["assist"], "assist", [a.code for a in ACTIONS])
        return cls(
            **{name: read_number(doc[name], name) for name in _WEIGHT_NAMES},
            assist=tuple(read_number(costs[a.code], f"assist.{a.code}") for a in ACTIONS),
        )

    def to_dict(self) -> dict:
        doc: dict = {name: getattr(self, name) for name in _WEIGHT_NAMES}
        doc["assist"] = {a.code: self.assist[a] for a in ACTIONS}
        return doc


# every scalar weight, in field and document order
_WEIGHT_NAMES = tuple(f.name for f in fields(RewardWeights) if f.name != "assist")


def compute_reward(next_state: StatusVector, events: StepEvents, weights: RewardWeights) -> float:
    """Immediate reward for a step that landed in ``next_state`` with ``events``."""
    if events.subtask_completed and events.subtask_skipped:
        raise ValueError("a step cannot both complete and skip a subtask")
    r = (
        weights.forgetful * next_state.forgetful
        + weights.confused * next_state.confused
        + weights.angry * next_state.angry
        + weights.disengaged * next_state.disengaged
        + weights.extra_trial * events.delta_trial
        + weights.extra_timestep * events.delta_timestep
    )
    if events.subtask_completed:
        r += weights.subtask_complete + weights.assist[events.action_taken]
    if events.subtask_skipped:
        r += weights.subtask_skip
    if events.task_completed:
        r += weights.task_complete
    return r
